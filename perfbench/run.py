"""iqgklo benchmark: one closed-loop client, one process per workload.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Set-up (imports, instance construction, gamma and config generation) runs
EXTRA_SETUPS times and then once more before each pass, after a full
garbage collection each time; its median is reported.  Each pass runs
the workload's fixed request list in a seed-determined order.  Passes go
on until the next would end past --seconds (at least one runs).
Every verdict is checked against its known answer; a wrong verdict or an
exception counts as failed, and any failure makes the command exit 1.

--trace 0 prints the end-to-end metrics, as times at the reference
speed of speed.py, which samples the drifting vCPU speed while the run
goes on; raw times go to the details file.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (see tracer.py); it
also times the multiplicity ladder once.  Details of every run go to
.perfbench-out/ in the checkout.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import workloads
from speed import SpeedProbe
from tracer import TARGETS, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SRC = os.path.join(ROOT, "src")
EXTRA_SETUPS = 12
KINDS = ("HH", "HB", "BB1", "BB2", "BB3", "BB4", "BB5", "Serre1", "Serre2",
         "Serre3", "DEG")

perf = time.perf_counter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("sweep", "series", "check"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_from_checkout():
    """Make ``import iqgklo`` load this checkout's source, and only it."""
    if not os.path.isfile(os.path.join(SRC, "iqgklo", "__init__.py")):
        sys.exit(f"error: no iqgklo sources under {SRC}")
    sys.path.insert(0, SRC)


class Pass:
    """One pass over the request list."""

    def __init__(self, traced):
        self.traced = traced
        self.span = (0.0, 0.0)
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.request_span = {}
        self.request_s = {}
        self.outcomes = []
        self.problems = []
        self.failed = 0


def run_pass(requests, rng, tracer=None):
    order = list(requests)
    rng.shuffle(order)
    p = Pass(tracer is not None)
    t_pass, c_pass = perf(), time.process_time()
    for req in order:
        t0 = perf()
        try:
            out = tracer.request(req.name, req.run) if tracer else req.run()
        except Exception:
            out = None
            problems = [f"{req.name}: raised "
                        + traceback.format_exc(limit=-1).strip()]
        else:
            problems = out.problems
        t1 = perf()
        p.request_span[req.name] = (t0, t1)
        p.request_s[req.name] = t1 - t0
        if out is not None:
            p.outcomes.append(out)
        if problems:
            p.failed += 1
            p.problems += problems
    p.span = (t_pass, perf())
    p.wall_s = p.span[1] - t_pass
    p.cpu_s = time.process_time() - c_pass
    return p


def time_split(passes):
    """Per-instance and per-relation-kind seconds, as the program reports
    them (CheckResult.seconds; the check report's seconds fields), as a
    mean per pass.  Instances without program-reported time fall back to
    the benchmark's request time."""
    n = len(passes)
    instances, kinds, own = {}, {}, {}
    for p in passes:
        for out in p.outcomes:
            if out.program_seconds is not None:
                instances[out.instance] = instances.get(out.instance, 0.0) \
                    + out.program_seconds / n
            for k, s in out.kind_seconds.items():
                kinds[k] = kinds.get(k, 0.0) + s / n
        for name, s in p.request_s.items():
            inst = name.split(":")[1]
            own[inst] = own.get(inst, 0.0) + s / n
    for inst, s in own.items():
        instances.setdefault(inst, s)
    return instances, kinds


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_spans, passes, probe):
    """Times are at the reference speed of speed.py."""
    return {
        "setup_s": metric(
            statistics.median(probe.scaled(*s) for s in setup_spans), "s"),
        "wall_s": metric(
            statistics.median(probe.scaled(*p.span) for p in passes), "s"),
        "slowest_request_s": metric(
            statistics.median(max(probe.scaled(*s)
                                  for s in p.request_span.values())
                              for p in passes), "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced, untraced, kinds):
    n = len(traced)
    out = {}
    for name, *_ in TARGETS:
        s = tracer.stats[name]
        out[f"{name}.calls"] = metric(s.calls / n, "count")
        out[f"{name}.self_s"] = metric(s.self_s / n, "s")
    st = tracer.stats
    out["scalars.poly_mul.max_terms"] = metric(
        st["scalars.poly_mul"].max_terms, "count")
    add = st["delta.add_term"]
    out["delta.add_term.merged_ratio"] = metric(
        add.merged / add.calls if add.calls else 0.0, "ratio")
    out["delta.canonicalize_compare.support_points"] = metric(
        st["delta.canonicalize_compare"].support_points / n, "count")
    for k in KINDS:
        out[f"relations.kind.{k}.s"] = metric(kinds.get(k, 0.0), "s")
    out["cli.report_bytes"] = metric(
        sum(o.report_bytes for p in traced for o in p.outcomes) / n, "bytes")
    traced_wall = statistics.median(p.wall_s for p in traced)
    untraced_wall = statistics.median(p.wall_s for p in untraced)
    listed = tracer.listed_self_s() / n
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    out["trace.listed_self_s"] = metric(listed, "s")
    out["trace.loop_self_s"] = metric(
        sum(p.wall_s for p in traced) / n - listed, "s")
    return out


def isolation(workload, layers):
    """The layer isolation each workload is designed for."""
    def calls(name):
        return layers[f"{name}.calls"]["value"]
    checks = {}
    if workload in ("sweep", "series"):
        checks["oracle.randomized_equal.calls == 0"] = \
            calls("oracle.randomized_equal") == 0
    if workload == "sweep":
        checks["delta.series_raw.calls == 0"] = calls("delta.series_raw") == 0
    if workload == "series":
        checks["relations.eval_pair.calls == 0"] = \
            calls("relations.eval_pair") == 0
    return checks


def timed_setup(make_setup):
    gc.collect()
    t0 = perf()
    setup = make_setup()
    return setup, (t0, perf())


def measure(make_setup, seed, seconds, trace):
    """Set up, then run passes until the next would end past ``seconds``.

    A fresh set-up precedes every pass, so the set-up times sample the
    whole run rather than one moment of it; EXTRA_SETUPS more come first.
    In trace mode untraced and traced passes alternate, and each kind
    starts only if its previous pass would still fit."""
    rng = random.Random(seed)
    tracer = Tracer() if trace else None
    setup_spans = [timed_setup(make_setup)[1] for _ in range(EXTRA_SETUPS)]
    passes = []
    modes = (False, True) if trace else (False,)
    last = {}
    start = perf()
    while True:
        traced = modes[len(passes) % len(modes)]
        if len(passes) >= len(modes) \
                and perf() - start + last[traced] > seconds:
            break
        setup, span = timed_setup(make_setup)
        setup_spans.append(span)
        if traced:
            tracer.install(setup.modules)
            try:
                p = run_pass(setup.requests, rng, tracer)
            finally:
                tracer.uninstall()
        else:
            p = run_pass(setup.requests, rng)
        last[traced] = span[1] - span[0] + p.wall_s
        passes.append(p)
    return setup, setup_spans, passes, tracer


def main(argv=None):
    args = parse_args(argv)
    import_from_checkout()

    workdir = os.path.join(OUT_DIR, f"configs-{os.getpid()}")
    make = workloads.SETUPS[args.workload]
    probe = None if args.trace else SpeedProbe()
    try:
        with probe or contextlib.nullcontext():
            setup, setup_spans, passes, tracer = measure(
                lambda: make(args.seed, workdir), args.seed, args.seconds,
                args.trace)
        ladder = workloads.multiplicity_ladder(setup.modules) \
            if args.trace else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.request_s) for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [x for p in passes for x in p.problems]
    if ladder:
        for step in ladder:
            if step["verdict"] is not None:
                attempted += 1
                if step["problems"]:
                    failed += 1
                    problems += step["problems"]
    instances, kinds = time_split(untraced)

    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_s": [t1 - t0 for t0, t1 in setup_spans],
        "passes": [{"traced": p.traced, "wall_s": p.wall_s, "cpu_s": p.cpu_s,
                    "request_s": p.request_s, "span": p.span,
                    "request_span": p.request_span} for p in passes],
        "setup_spans": setup_spans,
        "instance_s": instances, "kind_s": kinds,
        "attempted": attempted, "failed": failed, "problems": problems,
    }
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, kinds)
        checks = isolation(args.workload, metrics)
        report.update(
            metrics=metrics, isolation=checks, ladder=ladder,
            bindings=tracer.bindings,
            stats={k: vars(s) for k, s in tracer.stats.items()},
            spans=tracer.spans, dropped_spans=tracer.dropped_spans)
    else:
        metrics = end_to_end(setup_spans, passes, probe)
        report["speed_samples"] = list(zip(probe.starts, probe.durations))
        report["metrics"] = metrics

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, default=str)

    print(f"{args.workload}: {len(passes)} passes "
          f"({len(traced)} traced), {attempted} requests attempted")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed}/{attempted})")
    for inst, s in sorted(instances.items()):
        print(f"  instance {inst}: {s:.4f} s")
    for kind, s in sorted(kinds.items()):
        print(f"  kind {kind}: {s:.4f} s")
    if ladder:
        for step in ladder:
            print(f"  ladder v={step['v']}: {step['seconds']} s "
                  f"({step['verdict']})")
        for name, ok in checks.items():
            print(f"  isolation {name}: {'holds' if ok else 'VIOLATED'}")
    for line in problems[:20]:
        print(f"  WRONG: {line}")
    print(f"  details: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
