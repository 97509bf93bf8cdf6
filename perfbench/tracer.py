"""Per-layer tracing of iqgklo, installed from outside the package.

Each traced name is wrapped where it is defined and wherever another
module bound it with ``from .x import y``, since that copies the binding.
Methods are wrapped on their class.  Every call updates its name's
count, total time and self time (its duration minus the time spent in
traced callees).  Only the coarse, module-boundary names and the
benchmark's requests also keep a span each; the hot arithmetic names are
aggregated only, so the trace stays small.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

perf = time.perf_counter


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_terms: int = 0          # scalars.poly_mul: largest product seen
    merged: int = 0             # delta.add_term: calls that hit an existing term
    support_points: int = 0     # delta.canonicalize_compare: groups compared


def _poly_mul_after(stat, args, result, before):
    n = len(result.terms)
    if n > stat.max_terms:
        stat.max_terms = n


def _add_term_before(args):
    return len(args[0].terms)


def _add_term_after(stat, args, result, before):
    if len(args[0].terms) == before:
        stat.merged += 1


def _compare_after(stat, args, result, before):
    stat.support_points += len(args[0].terms.keys() | args[1].terms.keys())


# (metric name, module, attribute path, keeps spans, before hook, after hook)
TARGETS = (
    ("scalars.poly_mul", "scalars", "Poly.__mul__", False, None,
     _poly_mul_after),
    ("scalars.unpack_poly", "scalars", "unpack_poly", False, None, None),
    ("scalars.content_monomial", "scalars", "Poly.content_monomial", False,
     None, None),
    ("scalars.scalar_add", "scalars", "Scalar.__add__", False, None, None),
    ("scalars.scalar_mul", "scalars", "Scalar.__mul__", False, None, None),
    ("scalars.scalar_equals", "scalars", "Scalar.equals", False, None, None),
    ("scalars.eval_numeric", "scalars", "Scalar.eval_numeric", False, None,
     None),
    ("oracle.act", "oracle", "act", False, None, None),
    ("oracle.randomized_equal", "oracle", "randomized_equal", True, None,
     None),
    ("oracle.truncated_series_check", "oracle", "truncated_series_check",
     True, None, None),
    ("delta.dist_mul", "delta", "Distribution.__mul__", False, None, None),
    ("delta.add_term", "delta", "Distribution.add_term", False,
     _add_term_before, _add_term_after),
    ("delta.canonicalize_compare", "delta", "canonicalize_compare", True,
     None, _compare_after),
    ("delta.expand_by_residues", "delta", "expand_by_residues", True, None,
     None),
    ("delta.series_raw", "delta", "FactorCurrent.series_raw", True, None,
     None),
    ("relations.eval_pair", "relations", "RelationChecker.eval_pair", True,
     None, None),
    ("torus.torus_mul", "torus", "TorusElement.__mul__", False, None, None),
    ("torus.torus_equals", "torus", "TorusElement.equals", True, None, None),
    ("gklo.build_B_image", "gklo", "build_B_image", True, None, None),
    ("gklo.build_Xi", "gklo", "build_Xi", True, None, None),
    ("satake.make_instance", "satake", "make_instance", True, None, None),
    ("cli.main", "cli", "main", True, None, None),
)

MAX_SPANS = 200_000


class Tracer:
    """Counts and times TARGETS while installed; keeps its totals across
    installations."""

    def __init__(self):
        self.stats = {name: Stat() for name, *_ in TARGETS}
        self.spans = []             # (id, parent id, request, name, start, end)
        self.dropped_spans = 0
        self.bindings = {}          # metric name -> patched "module.attr"
        self._frames = [0.0]        # per open traced call: time in children
        self._span_stack = [None]
        self._request = None
        self._restore = []
        self.epoch = perf()

    # --- installation -------------------------------------------------

    def install(self, modules):
        """Wrap TARGETS in ``modules``, which maps short names ("scalars",
        ...) to imported iqgklo modules; every one of them is searched for
        copied bindings."""
        for name, mod, path, spans, before, after in TARGETS:
            owner = modules[mod]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(self.stats[name], original,
                                 name if spans else None, before, after)
            if cls_path:
                self._patch(owner, attr, original, wrapper)
                self.bindings.setdefault(name, [f"{mod}.{path}"])
                continue
            sites = []
            for mname, module in modules.items():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, original, wrapper)
                        sites.append(f"{mname}.{key}")
            self.bindings.setdefault(name, sorted(sites))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # --- recording ----------------------------------------------------

    def _wrap(self, stat, fn, span_name, before, after):
        frames = self._frames
        span_stack = self._span_stack
        spans = self.spans

        def traced(*args, **kwargs):
            pre = before(args) if before is not None else None
            sid = None
            if span_name is not None:
                if len(spans) < MAX_SPANS:
                    sid = len(spans)
                    spans.append(None)
                    span_stack.append(sid)
                else:
                    self.dropped_spans += 1
            frames.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = frames.pop()
                frames[-1] += dt
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                if sid is not None:
                    span_stack.pop()
                    spans[sid] = (sid, span_stack[-1], self._request,
                                  span_name, t0 - self.epoch,
                                  t0 + dt - self.epoch)
            if after is not None:
                after(stat, args, result, pre)
            return result

        return traced

    def request(self, name, fn):
        """Run one benchmark request as a root span."""
        sid = len(self.spans)
        self.spans.append(None)
        self._span_stack.append(sid)
        self._request = sid
        t0 = perf()
        try:
            return fn()
        finally:
            self._span_stack.pop()
            self._request = None
            self.spans[sid] = (sid, None, sid, name, t0 - self.epoch,
                               perf() - self.epoch)

    def listed_self_s(self):
        return sum(s.self_s for s in self.stats.values())
