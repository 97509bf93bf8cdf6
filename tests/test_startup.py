"""Start-up cost: ``import iqgklo.cli`` builds only what the checking verbs
run, and the identity suite is loaded by the verb that runs it."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in a fresh interpreter, so that no test's import can stand in for
# the package's own: the modules that importing the front end adds, then
# the identities verb's exit code and statuses, and whether the suite's
# module is loaded after it.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import iqgklo.cli
added = set(sys.modules) - before
loaded = sorted(m for m in ("dataclasses", "inspect", "iqgklo.identities")
                if m in added)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = iqgklo.cli.main(["identities", "--format", "structured"])
print(json.dumps({
    "loaded_by_import": loaded, "code": code,
    "statuses": [r["status"] for r in json.loads(out.getvalue())["results"]],
    "suite_loaded": "iqgklo.identities" in sys.modules}))
"""


def test_front_end_import_loads_no_code_generation_and_no_suite():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {
        "loaded_by_import": [], "code": 0, "statuses": ["pass"] * 13,
        "suite_loaded": True}
