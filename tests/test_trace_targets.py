"""The benchmark's tracer wraps iqgklo functions by attribute path; every
path it names must exist, or ``perfbench/run.py --trace 1`` breaks."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Imports TARGETS from perfbench/tracer.py and resolves each path the way
# Tracer.install does, in a fresh interpreter so that no test's import or
# patch can stand in for the real module.
RESOLVE = """
import importlib, json, sys
from tracer import TARGETS
missing = []
for name, mod, path, *_ in TARGETS:
    owner = importlib.import_module("iqgklo." + mod)
    *cls_path, attr = path.split(".")
    try:
        for part in cls_path:
            owner = getattr(owner, part)
        owner.__dict__[attr]
    except (AttributeError, KeyError):
        missing.append(name)
print(json.dumps({"targets": len(TARGETS), "missing": missing}))
"""


def test_every_trace_target_resolves():
    path = os.pathsep.join([os.path.join(ROOT, "src"),
                            os.path.join(ROOT, "perfbench")])
    out = subprocess.run([sys.executable, "-c", RESOLVE],
                         env=dict(os.environ, PYTHONPATH=path,
                                  PYTHONDONTWRITEBYTECODE="1"),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {"targets": 22, "missing": []}
