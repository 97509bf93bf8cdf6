"""The three workloads: set-up, fixed request lists and known verdicts.

Every request returns an Outcome whose ``problems`` lists each verdict that
differs from its known answer; an empty list means the request is correct.
The request lists are fixed; the seed only orders them (and is the oracle
seed of ``check``), so runs with different seeds do the same work.

Each list is the workload of the benchmark's design cut to the requests
that fit several passes into one run.  What is left out, and why, is in
README.md next to this file.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import signal
import sys
import time
from dataclasses import dataclass, field

perf = time.perf_counter

MODULES = ("scalars", "torus", "delta", "gklo", "satake", "relations",
           "oracle", "cli")

# Together these cover all 11 relation kinds: HH, HB and DEG everywhere,
# BB2 and Serre2 on the split A1/A2 instances, BB1, BB4 and Serre1 on
# qsA4, BB3 and Serre3 on qsA2-v11 and qsA4, BB5 on all rank > 1.
SWEEP_INSTANCES = ("sA1-v1-t0", "sA1-v1-t1", "sA2-v11-t00", "qsA2-v11",
                   "qsA4")
# The criterion-8 controls of the acceptance gate: each must fail.
NEGATIVE_CONTROLS = (
    ("sA1-v1-t1", "drop_kappa", ("BB2",)),
    ("qsA2-v11", "flip_wp", ("BB3",)),
    ("sA1-v1-t1", "drop_const", ("BB2",)),
)
# Every node of every catalog instance of multiplicity 1.
SERIES_INSTANCES = ("sA1-v1-t0", "sA1-v1-t1", "sA2-v11-t00", "sA2-v11-t10",
                    "qsA3-t0", "qsA3-t1", "qsA2-v11", "qsA4")
SERIES_ORDER = 8
# Shifted instances (nonzero shift coweight), which the catalog lacks, each
# with the relation kinds whose check fits a pass (None: all kinds).
CHECK_INSTANCES = (
    ("A1-f3-s1", {"type": "A", "rank": 1, "framing": [3], "shift": [1]},
     None),
    ("A1-f0-s-2", {"type": "A", "rank": 1, "framing": [0], "shift": [-2]},
     None),
    ("A1-t1-f2-s-2", {"type": "A", "rank": 1, "framing": [2], "shift": [-2],
                      "theta": [1]},
     ["HH", "HB", "DEG"]),
    ("A2-f21-s10", {"type": "A", "rank": 2, "framing": [2, 1],
                    "shift": [1, 0]},
     ["HH", "HB", "DEG", "BB2", "BB5"]),
    ("qsA3-f111-s010", {"type": "A", "rank": 3, "tau": [[1, 3]],
                        "framing": [1, 1, 1], "shift": [0, 1, 0]},
     ["HH", "HB", "DEG", "BB1", "BB2", "BB5"]),
)
# The multiplicity ladder: A1, theta 0, framing 2v.
LADDER = (1, 2, 3)
LADDER_CAP_S = 10


@dataclass
class Outcome:
    instance: str
    problems: list = field(default_factory=list)
    kind_seconds: dict = field(default_factory=dict)    # from the program
    program_seconds: float | None = None                # from the program
    report_bytes: int = 0


@dataclass
class Request:
    name: str
    run: object                 # () -> Outcome


@dataclass
class Setup:
    modules: dict
    requests: list


def fresh_import():
    """Import iqgklo anew, as a fresh process would."""
    for name in [m for m in sys.modules
                 if m == "iqgklo" or m.startswith("iqgklo.")]:
        del sys.modules[name]
    return {m: importlib.import_module(f"iqgklo.{m}") for m in MODULES}


def _relation_problems(report):
    return [f"{report.instance}:{r.name}:{r.status}" for r in report.results
            if r.status != "pass" or r.failures]


def _kind_seconds(results):
    out = {}
    for r in results:
        out[r.kind] = out.get(r.kind, 0.0) + r.seconds
    return out


def setup_sweep(seed, workdir):
    mods = fresh_import()
    satake, relations = mods["satake"], mods["relations"]
    catalog = {inst.name: inst for inst in satake.build_catalog()}

    def relation_run(inst):
        def run():
            report = relations.RelationChecker(inst).run()
            problems = _relation_problems(report)
            if not report.results:
                problems.append(f"{inst.name}: no checks ran")
            return Outcome(inst.name, problems,
                           _kind_seconds(report.results),
                           sum(r.seconds for r in report.results))
        return run

    def lemma_run(inst):
        def run():
            results = relations.chi_exchange_suite(inst) \
                + relations.merged_chi_suite(inst)
            return Outcome(inst.name, [f"{inst.name}:{r.kind}{r.pair}"
                                       for r in results
                                       if r.status != "pass"])
        return run

    def negative_run(inst, corrupt, kinds):
        def run():
            report = relations.RelationChecker(inst, corrupt=corrupt) \
                .run(kinds=kinds)
            failing = report.failed()
            problems = [] if failing else [f"{inst.name}:{corrupt}: passed"]
            problems += [f"{inst.name}:{corrupt}:{r.name}: unlocalized"
                         for r in failing
                         if not r.failures or not all(f[0]
                                                      for f in r.failures)]
            return Outcome(inst.name, problems,
                           _kind_seconds(report.results))
        return run

    requests = []
    for name in SWEEP_INSTANCES:
        inst = catalog[name]
        requests.append(Request(f"relations:{name}", relation_run(inst)))
        requests.append(Request(f"lemmas:{name}", lemma_run(inst)))
    for name, corrupt, kinds in NEGATIVE_CONTROLS:
        requests.append(Request(f"negative:{name}:{corrupt}",
                                negative_run(catalog[name], corrupt, kinds)))
    return Setup(mods, requests)


def setup_series(seed, workdir):
    mods = fresh_import()
    satake, gklo, oracle = mods["satake"], mods["gklo"], mods["oracle"]
    catalog = {inst.name: inst for inst in satake.build_catalog()}

    def series_run(name, i, gamma):
        def run():
            ok = oracle.truncated_series_check(gamma, order=SERIES_ORDER)
            return Outcome(name, [] if ok else [f"{name}:gamma{i}: fail"])
        return run

    requests = []
    for name in SERIES_INSTANCES:
        inst = catalog[name]
        for i in inst.diagram.nodes():
            gamma = gklo.times_x_minus_xinv(gklo.build_Xi(inst, i))
            requests.append(Request(f"series:{name}:{i}",
                                    series_run(name, i, gamma)))
    return Setup(mods, requests)


def setup_check(seed, workdir):
    mods = fresh_import()
    cli = mods["cli"]
    os.makedirs(workdir, exist_ok=True)

    def check_run(name, path):
        argv = ["check", "--config", path, "--format", "structured",
                "--seed", str(seed)]

        def run():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            text = buf.getvalue()
            if code != 0:
                return Outcome(name, [f"{name}: exit code {code}"],
                               report_bytes=len(text))
            doc = json.loads(text)
            problems = [f"{name}:{key}: {doc[key]}"
                        for key in ("series_soundness", "oracle_concordance")
                        if doc[key] != "pass"]
            problems += [f"{name}:{e['check']}: {e['status']}"
                         for e in doc["results"] if e["status"] != "pass"]
            kinds = {}
            for e in doc["results"]:
                kind = e["check"].split("[")[0]
                kinds[kind] = kinds.get(kind, 0.0) + e["seconds"]
            return Outcome(name, problems, kinds, doc["seconds"],
                           len(text.encode()))
        return run

    requests = []
    for name, desc, kinds in CHECK_INSTANCES:
        config = {"schema": cli.SCHEMA_ID, "instance": dict(desc, name=name),
                  "seed": seed}
        if kinds:
            config["relations"] = kinds
        path = os.path.join(workdir, f"{name}.json")
        with open(path, "w") as f:
            json.dump(config, f)
        requests.append(Request(f"check:{name}", check_run(name, path)))
    return Setup(mods, requests)


SETUPS = {"sweep": setup_sweep, "series": setup_series, "check": setup_check}


class _Capped(BaseException):
    """Raised by the step timer; a BaseException so no handler in the
    program under test swallows it."""


def _raise_capped(signum, frame):
    raise _Capped


def multiplicity_ladder(mods, cap_s=LADDER_CAP_S):
    """Time RelationChecker.run on A1, theta 0, framing 2v for each v in
    LADDER.  A step still running after cap_s seconds is stopped and
    recorded as "> cap", never dropped."""
    satake, relations = mods["satake"], mods["relations"]
    diagram = satake.validate_diagram(satake.cartan_A(1), None)
    steps = []
    previous = signal.signal(signal.SIGALRM, _raise_capped)
    try:
        for v in LADDER:
            inst = satake.make_instance(f"A1-v{v}-t0", diagram, (2 * v,),
                                        (0,), (0,))
            t0 = perf()
            try:
                signal.setitimer(signal.ITIMER_REAL, cap_s)
                try:
                    report = relations.RelationChecker(inst).run()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except _Capped:
                steps.append({"v": v, "framing": 2 * v,
                              "seconds": f"> {cap_s}", "verdict": None})
                continue
            steps.append({"v": v, "framing": 2 * v,
                          "seconds": perf() - t0,
                          "verdict": "pass" if report.ok() else "fail",
                          "problems": _relation_problems(report)})
    finally:
        signal.signal(signal.SIGALRM, previous)
    return steps
