"""Batch front end: instance ingestion, verification orchestration,
machine-readable reporting.

Config files are JSON objects with schema id "iqgklo-config/1", these keys
only, and one of "catalog" and "instance":

    {
      "schema": "iqgklo-config/1",
      "catalog": "qsA2-v11",            # or "instance": {...} inline
      "relations": ["BB3", "Serre3"],   # optional kind filter
      "trials": 20, "seed": 0,
      "bb1_convention": "taui"
    }

An inline instance gives the Cartan matrix by type letter + rank, the
involution as a cycle list, and the two coweights by pairing vectors; the
per-node multiplicities are always recomputed from those, never read from
the input:

    {"type": "A", "rank": 2, "tau": [[1, 2]],
     "framing": [1, 1], "shift": [0, 0], "theta": [0, 0]}
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache

from .errors import (
    BadSpecialization, DenominatorVanishes, IQGKLOError, NonSimplePole,
    ParseError, ValidationError,
)
from .gklo import build_B_image, build_Xi
from .oracle import randomized_equal, truncated_series_check
from .relations import (
    ALL_KINDS, RelationChecker, identity_suite,
)
from .satake import (
    build_catalog, cartan_A, catalog_by_name, make_instance, validate_diagram,
)

SCHEMA_ID = "iqgklo-config/1"
REPORT_SCHEMA_ID = "iqgklo-report/2"
DEFAULTS = {"relations": None, "trials": 20, "seed": 0,
            "bb1_convention": "taui"}


def _list(value, what):
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a list, got {value!r}")
    return value


def _int(value, what):
    if type(value) is not int:
        raise ValidationError(f"{what} must be an integer, got {value!r}")
    return value


def _ints(values, what):
    return tuple(_int(v, f"{what} entry") for v in _list(values, what))


def _check_options(cfg):
    """Raise ValidationError on an option value that is out of range, or
    on a requested relation kind that has no case on the instance."""
    kinds = cfg["relations"]
    if kinds is not None:
        if not _list(kinds, "relations"):
            raise ValidationError("relations must name at least one kind")
        bad = {str(k) for k in kinds if k not in ALL_KINDS}
        if bad:
            raise ValidationError(f"unknown relation kinds {sorted(bad)}")
        inst = cfg["instance"]
        empty = set(kinds) - {k for k, _ in RelationChecker(inst).cases()}
        if empty:
            raise ValidationError(f"relation kinds {sorted(empty)} have no "
                                  f"case on {inst.name}")
    for key in ("trials", "seed"):
        _int(cfg[key], key)
    if cfg["trials"] < 1:
        raise ValidationError("trials must be >= 1")
    if cfg["bb1_convention"] not in ("taui", "i"):
        raise ValidationError("bb1_convention must be 'taui' or 'i'")


def _tau_from_cycles(rank, cycles):
    tau = list(range(1, rank + 1))
    for cyc in _list([] if cycles is None else cycles, "tau"):
        if not isinstance(cyc, list) or len(cyc) != 2 or cyc[0] == cyc[1]:
            raise ValidationError(f"involution cycle {cyc} must be a 2-cycle")
        a, b = _ints(cyc, "involution cycle")
        if not (1 <= a <= rank and 1 <= b <= rank):
            raise ValidationError(f"involution cycle {cyc} leaves 1..{rank}")
        tau[a - 1], tau[b - 1] = b, a
    return tuple(tau)


def instance_from_description(desc):
    if not isinstance(desc, dict):
        raise ValidationError("an inline instance must be a JSON object")
    unknown = sorted(desc.keys() - {"type", "rank", "tau", "framing", "shift",
                                    "theta", "orientation", "name"})
    if unknown:
        raise ValidationError(f"unknown instance keys {unknown}")
    if desc.get("type", "A") != "A":
        raise ValidationError("only type A diagrams are supported")
    missing = [k for k in ("rank", "framing", "shift") if k not in desc]
    if missing:
        raise ValidationError(f"an inline instance needs {missing}")
    rank = _int(desc["rank"], "rank")
    framing = _ints(desc["framing"], "framing")
    shift = _ints(desc["shift"], "shift")
    # before anything of size rank is built
    if rank < 1 or len(framing) != rank or len(shift) != rank:
        raise ValidationError(f"rank {rank} needs rank >= 1 and {rank} "
                              "framing and shift entries each")
    tau = _tau_from_cycles(rank, desc.get("tau"))
    diagram = validate_diagram(cartan_A(rank),
                               None if tau == tuple(range(1, rank + 1))
                               else tau)
    theta, edges = desc.get("theta"), desc.get("orientation")
    if edges is not None:
        edges = [_ints(e, "orientation edge")
                 for e in _list(edges, "orientation")]
    name = desc.get("name", f"inline-A{rank}")
    if not isinstance(name, str) or not name:
        raise ValidationError(f"name must be a non-empty string, got {name!r}")
    return make_instance(name, diagram, framing, shift,
                         None if theta is None else _ints(theta, "theta"),
                         edges)


def load_config(path=None, text=None):
    try:
        if text is None:
            with open(path, encoding="utf-8") as f:
                text = f.read()
    except OSError as e:
        raise ParseError(f"cannot read config: {e}")
    except UnicodeDecodeError as e:
        raise ParseError(f"config is not UTF-8 text: {e}")
    try:
        doc = json.loads(text)
    except ValueError as e:
        raise ParseError(f"config is not valid JSON: {e}")
    except RecursionError:
        raise ParseError("config is nested too deeply")
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object")
    if doc.get("schema") != SCHEMA_ID:
        raise ParseError(f"config schema must be {SCHEMA_ID!r}")
    unknown = sorted(doc.keys() - {"schema", "catalog", "instance", *DEFAULTS})
    if unknown:
        raise ParseError(f"unknown config keys {unknown}")
    if ("catalog" in doc) == ("instance" in doc):
        raise ParseError("config needs either a 'catalog' name or an inline "
                         "'instance', not both")
    inst = catalog_by_name(doc["catalog"]) if "catalog" in doc \
        else instance_from_description(doc["instance"])
    cfg = {key: doc.get(key, val) for key, val in DEFAULTS.items()}
    cfg["instance"] = inst
    _check_options(cfg)
    return cfg


def _describe(inst):
    tau = [(i, inst.diagram.t(i)) for i in inst.diagram.nodes()
           if i < inst.diagram.t(i)]
    return {
        "name": inst.name,
        "rank": inst.diagram.rank,
        "involution_cycles": tau,
        "framing": list(inst.framing),
        "shift": list(inst.shift),
        "multiplicities": list(inst.mult),
        "theta": list(inst.theta),
    }


def _emit(doc, fmt, out=None):
    if out is None:
        out = sys.stdout
    if fmt == "structured":
        json.dump(doc, out, indent=2, default=str)
        out.write("\n")
        return
    out.writelines(f"{line}\n" for line in _text_lines(doc))


def _text_lines(doc):
    """The text format of a report, unindented: ``key: value``, or the
    key alone over its nested value indented by two; each item of a list
    after "- ", the other lines of a nested item indented under its
    first; an empty list or object as [] or {}."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            if isinstance(v, (dict, list)) and v:
                yield f"{k}:"
                yield from (f"  {line}" for line in _text_lines(v))
            else:
                yield f"{k}: {v}"
    else:
        for v in doc:
            if isinstance(v, (dict, list)) and v:
                lines = _text_lines(v)
                yield f"- {next(lines)}"
                yield from (f"  {line}" for line in lines)
            else:
                yield f"- {v}"


def _result_entry(r):
    entry = {
        "check": r.name if r.pair else r.kind,
        "status": r.status,
        "seconds": round(r.seconds, 3),
    }
    if r.detail:
        entry["detail"] = r.detail
    if r.failures:
        entry["discrepancies"] = [
            {"support": {v: repr(M) for v, M in (pins or {}).items()},
             "shift_part": repr(dmon), "lhs": repr(cl), "rhs": repr(cr)}
            for pins, dmon, cl, cr in r.failures]
    return entry


def cmd_catalog(args):
    doc = {"schema": REPORT_SCHEMA_ID,
           "catalog": [_describe(inst) for inst in build_catalog()]}
    _emit(doc, args.format)
    return 0


def _resolve_instance(args):
    if bool(args.config) == bool(args.instance):
        raise ParseError("give one of --instance NAME and --config FILE")
    if args.config:
        return load_config(args.config)
    return dict(DEFAULTS, instance=catalog_by_name(args.instance))


def cmd_validate(args):
    cfg = _resolve_instance(args)
    doc = {"schema": REPORT_SCHEMA_ID, "valid": True,
           "instance": _describe(cfg["instance"])}
    _emit(doc, args.format)
    return 0


def cmd_image(args):
    cfg = _resolve_instance(args)
    inst = cfg["instance"]
    wanted = args.generator
    gens = {}
    for i in inst.diagram.nodes():
        gens[f"Theta{i}"] = lambda i=i: repr(build_Xi(inst, i))
        gens[f"B{i}"] = lambda i=i: repr(build_B_image(inst, i))
    if wanted:
        if wanted not in gens:
            raise ValidationError(
                f"unknown generator {wanted!r}; choose from {sorted(gens)}")
        images = {wanted: gens[wanted]()}
    else:
        images = {name: fn() for name, fn in sorted(gens.items())}
    doc = {"schema": REPORT_SCHEMA_ID, "instance": inst.name,
           "images": images}
    _emit(doc, args.format)
    return 0


def cmd_check(args):
    cfg = _resolve_instance(args)
    for key in ("relations", "trials", "seed", "bb1_convention"):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    _check_options(cfg)
    inst = cfg["instance"]
    t0 = time.monotonic()
    report = RelationChecker(
        inst, bb1_convention=cfg["bb1_convention"]).run(cfg["relations"])
    series, series_abort = _series_soundness(report.results)
    oracle, oracle_abort = _oracle_crosscheck(report.results, cfg)
    doc = {
        "schema": REPORT_SCHEMA_ID,
        "instance": _describe(inst),
        "bb1_convention": cfg["bb1_convention"],
        "seed": cfg["seed"],
        "trials": cfg["trials"],
        "results": [_result_entry(r) for r in report.results],
        "series_soundness": series,
    }
    if series_abort:
        doc["series_soundness_aborted"] = series_abort
    doc["oracle_concordance"] = oracle
    if oracle_abort:
        doc["oracle_concordance_aborted"] = oracle_abort
    doc["seconds"] = round(time.monotonic() - t0, 3)
    _emit(doc, args.format)
    ok = report.ok() and series == "pass" and oracle == "pass"
    return 0 if ok else 1


def _series_soundness(results):
    """Check every residue expansion the results carry against its
    gamma's Laurent expansions: (status, abort reason or None).

    The gammas are taken in result order, each result's in the order its
    case expanded them, and each is checked with the expansion that its
    case used.  A case aborted on a pole or a vanishing denominator
    carries its gamma without an expansion.  It is expanded here again,
    that aborts again, and that fails soundness, not the verb; the reason
    names the gamma's index in that order, its case and the error.
    """
    logged = [(g, e, r.name) for r in results for g, e in r.gammas]
    for k, (g, expansion, case) in enumerate(logged):
        try:
            if not truncated_series_check(g, expansion):
                return "fail", None
        except (NonSimplePole, DenominatorVanishes) as e:
            return "fail", (f"gamma {k} (from {case}): "
                            f"{type(e).__name__}: {e}")
    return "pass", None


def _oracle_crosscheck(results, cfg):
    """Re-derive each pairwise verdict numerically from the sides its
    result carries and compare: (status, abort reason or None).

    A result without sides is skipped: HH, HB and DEG compare none, and
    a case aborted on a pole or vanishing denominator, or with no
    delta-supported right side, is already ``fail``.  A case whose trials
    run out of usable specializations fails the concordance, and the
    reason names the case and the error.
    """
    for r in results:
        if r.sides is None:
            continue
        try:
            verdict, _ = randomized_equal(*r.sides, trials=cfg["trials"],
                                          seed=cfg["seed"])
        except BadSpecialization as e:
            return "fail", f"{r.name}: {type(e).__name__}: {e}"
        if verdict != (r.status == "pass"):
            return "fail", None
    return "pass", None


def cmd_identities(args):
    results = identity_suite()
    doc = {"schema": REPORT_SCHEMA_ID,
           "results": [_result_entry(r) for r in results]}
    _emit(doc, args.format)
    return 0 if all(r.status == "pass" for r in results) else 1


@cache
def build_parser():
    """The command-line parser, built on first use and then reused, since
    parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="iqgklo",
        description="Exact verification of difference-operator "
                    "representations of shifted quasi-split current algebras")
    sub = p.add_subparsers(dest="verb", required=True)

    def verb(name, fn, help, instance=True):
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(fn=fn)
        if instance:
            sp.add_argument("--config", help="JSON config file")
            sp.add_argument("--instance", help="built-in catalog name")
        sp.add_argument("--format", choices=("text", "structured"),
                        default="text")
        return sp

    verb("catalog", cmd_catalog, "list built-in instances", instance=False)
    verb("validate", cmd_validate, "validate an instance")
    verb("image", cmd_image, "print generator images").add_argument(
        "generator", nargs="?", help="e.g. B1 or Theta2 (default: all)")
    sp = verb("check", cmd_check, "verify defining relations")
    sp.add_argument("--relations", type=lambda s: s.split(",") if s else [],
                    help="comma-separated relation kinds")
    sp.add_argument("--trials", type=int, help="oracle trials (>= 1)")
    sp.add_argument("--seed", type=int, help="oracle seed")
    sp.add_argument("--bb1-convention", choices=("taui", "i"))
    verb("identities", cmd_identities, "run the identity suite",
         instance=False)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except IQGKLOError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
