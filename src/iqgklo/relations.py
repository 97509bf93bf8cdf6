"""Relation checker: evaluates both sides of every defining relation of the
shifted quasi-split presentation under the constructed images and compares
them canonically as delta-supported distributions.
"""

from __future__ import annotations

import time

from .delta import (
    Distribution, FactorCurrent, bracket_q,
    canonicalize_compare, expand_by_residues, symmetrize,
)
from .errors import DegreeMismatch, DenominatorVanishes, NonSimplePole
from .gklo import (
    build_B_image, build_Xi, leading_coefficient_K,
    times_x_minus_xinv,
)
from .scalars import DMonomial, Monomial, Scalar
from .torus import TorusElement

BB_KINDS = ("BB1", "BB2", "BB3", "BB4", "BB5")
SERRE_KINDS = ("Serre1", "Serre2", "Serre3")
ALL_KINDS = ("HH", "HB") + BB_KINDS + SERRE_KINDS + ("DEG",)


def classify_bb(diagram, i, j):
    """The unique pairwise-exchange relation kind for the ordered pair."""
    ti = diagram.t(i)
    if j == ti and i != j and diagram.c(i, ti) == 0:
        return "BB1"
    if i == j == ti:
        return "BB2"
    if j == ti and diagram.c(i, ti) == -1:
        return "BB3"
    if diagram.c(i, j) == 0 and j != ti:
        return "BB4"
    return "BB5"


def classify_serre(diagram, i, j):
    ti = diagram.t(i)
    if j == ti and diagram.c(i, ti) == -1:
        return "Serre3"
    if diagram.c(i, j) != -1 or i == j:
        return None
    if i == ti:
        return "Serre2"
    return "Serre1"


class CheckResult:
    """One case: its verdict, the (lhs, rhs) it compared (None if it
    compared none), and each (gamma, expansion) it handed to the residue
    expansion, the expansion its (pin, amplitude) list, or None where that
    aborted."""

    __slots__ = ("kind", "pair", "status", "failures", "detail", "seconds",
                 "sides", "gammas")

    def __init__(self, kind, pair, status, failures=None, detail="",
                 seconds=0.0, sides=None):
        self.kind = kind
        self.pair = pair
        self.status = status                # pass | fail
        self.failures = [] if failures is None else failures
        self.detail = detail
        self.seconds = seconds
        self.sides = sides
        self.gammas = []

    @property
    def name(self):
        nodes = ",".join(str(x) for x in self.pair)
        return f"{self.kind}[{nodes}]"


class CheckReport:
    __slots__ = ("instance", "results")

    def __init__(self, instance):
        self.instance = instance
        self.results = []

    def ok(self):
        return all(r.status == "pass" for r in self.results)

    def failed(self):
        return [r for r in self.results if r.status == "fail"]


def _q(m):
    return Scalar.q_int(m)


def _at_pins(prod, x, y, c):
    """prod with each coefficient times (x - q^c y), evaluated at the
    term's pins before it multiplies the torus coefficient."""
    qc = _q(c)
    return prod.map_coeff(lambda pins, coeff: (
        Scalar.from_mono(pins[x]) - qc * Scalar.from_mono(pins[y])) * coeff)


def _unlocalized(kind, pair, detail):
    """A fail with no support to point at."""
    return CheckResult(kind, pair, "fail", [((), None, None, None)],
                       detail=detail)


class RelationChecker:
    """Evaluates relations on one instance and caches the images.  Each
    case's result carries the sides it compared and the rational
    functions it handed to the residue expansion, with their expansions,
    for the oracle and series soundness cross-checks.  A node's Cartan
    gamma is logged on the first case that expands it, and again on each
    later case only while the expansion aborts."""

    def __init__(self, inst, *, corrupt=None):
        self.inst = inst
        self.corrupt = corrupt
        self._b = {}
        self._prod = {}
        self._xi = {}
        self._residues = {}
        self._gammas = []           # (gamma, expansion) of the running case

    # --- cached images -------------------------------------------------

    def B(self, i):
        """The B-current image of node i, in u, built once per node.  Its
        coefficients are values at monomial points, so they never hold u,
        and any other name is a renaming of the pins."""
        if i not in self._b:
            self._b[i] = build_B_image(self.inst, i, corrupt=self.corrupt)
        return self._b[i]

    def prod(self, i, j, x="u", y="v"):
        """B_i(x) B_j(y).  Each ordered product is built once, in (u, v);
        its coefficients are torus scalars, so any other pair of names is a
        renaming of the pins."""
        p = self._prod.get((i, j))
        if p is None:
            p = self._prod[(i, j)] = \
                self.B(i) * self.B(j).rename_spectral({"u": "v"})
        return p if (x, y) == ("u", "v") \
            else p.rename_spectral({"u": x, "v": y})

    def Xi(self, i):
        """The Cartan-current image of node i, built once per node."""
        if i not in self._xi:
            self._xi[i] = build_Xi(self.inst, i, corrupt=self.corrupt)
        return self._xi[i]

    def _expand(self, gamma):
        """The residue expansion of gamma, logged on the running case with
        gamma, or None in its place if the expansion aborts."""
        self._gammas.append((gamma, None))
        self._gammas[-1] = gamma, expand_by_residues(gamma)
        return self._gammas[-1][1]

    # --- RHS gammas ----------------------------------------------------

    def _residue_terms(self, i):
        """The residue expansion of node i's gamma, Xi_i(u) on a BB1 node
        and (u - 1/u) Xi_i(u) on every other, expanded and logged once per
        node: each right side on Xi_i scales its terms."""
        if i not in self._residues:
            d, gamma = self.inst.diagram, self.Xi(i)
            if classify_bb(d, i, d.t(i)) != "BB1":
                gamma = times_x_minus_xinv(gamma)
            self._residues[i] = self._expand(gamma)
        return self._residues[i]

    def _pair_pin_rhs(self, i, s):
        """s times node i's residue terms, with v pinned to 1/u."""
        out = Distribution.zero()
        for a, coeff in self._residue_terms(i):
            out.add_term({"u": a, "v": a.inverse()}, s * coeff,
                         DMonomial.one())
        return out

    # --- relation evaluation -------------------------------------------

    def eval_pair(self, kind, i, j):
        """(LHS, RHS) distributions for one relation case."""
        if kind == "Serre1":
            return self._serre_lhs(i, j), Distribution.zero()
        if kind == "Serre2":
            return self._serre_lhs(i, j), self._serre2_rhs(i, j)
        if kind == "Serre3":
            return self._serre_lhs(i, j), self._serre3_rhs(i, j)
        d = self.inst.diagram
        BuBv, BvBu = self.prod(i, j), self.prod(j, i, "v", "u")
        if kind in ("BB1", "BB4"):
            lhs = BuBv - BvBu
        elif kind in ("BB2", "BB3", "BB5"):
            # c = C(i, j): 2 on BB2 (j = i), -1 on BB3 (j = tau i)
            c = d.c(i, j)
            lhs = _at_pins(BuBv, "u", "v", c) + _at_pins(BvBu, "v", "u", c)
        else:
            raise ValueError(f"unknown kind {kind!r}")
        if kind in ("BB4", "BB5"):
            return lhs, Distribution.zero()
        # 1/(q^-1 - q) on BB2, 1/(q^2 - 1) on BB1 and BB3.  On BB1 it is the
        # unique constant consistent with the adjacent-pair exchange
        # relation; the commonly quoted 1/(q - q^-1) is off by q at every
        # support point of both catalog instances carrying the relation.
        den = _q(-1) - _q(1) if kind == "BB2" else _q(2) - Scalar.one()
        return lhs, self._pair_pin_rhs(i, Scalar.one() / den)

    def _serre_lhs(self, i, j):
        inner = self.prod(i, j, "u2", "v") \
            - self.prod(j, i, "v", "u2").scale(_q(1))
        outer = bracket_q(self.B(i).rename_spectral({"u": "u1"}), inner,
                          _q(-1))
        return symmetrize(outer, "u1", "u2")

    def _serre2_rhs(self, i, j):
        """delta(u1 u2)(u1-u2) v/((u1-q v)(u2-q v)) (Cartan diff) B_j(v),
        the prefactor evaluated at each term's pins u1 = a, u2 = 1/a,
        v = b."""
        q = _q(1)
        out = Distribution.zero()
        for pinsB, cB, dB in self.B(j).items():
            b = pinsB["u"]
            v = Scalar.from_mono(b)
            for a, R in self._residue_terms(i):
                den = (Scalar.from_mono(a) - q * v) \
                    * (Scalar.from_mono(a.inverse()) - q * v)
                if den.is_zero():
                    raise DenominatorVanishes(
                        f"v/((u1-qv)(u2-qv)) has a pole at u1 = {a!r}, "
                        f"v = {b!r}")
                out.add_term({"u1": a, "u2": a.inverse(), "v": b},
                             v / den * R * cB, dB)
        return out

    def _serre3_rhs(self, i, j):
        """Sym delta(u2 v)(1+q^2)(u2-v)v/((q u1-v)(v-q^2/u1)) (diff) B_i(u1);
        the whole prefactor is folded into the residue expansion at the
        pinned u1, the gamma a current in u that stands for u2."""
        xi = times_x_minus_xinv(
            self.Xi(i).scale(Scalar.one() + _q(2))).times_power(-1)
        out = Distribution.zero()
        for pinsB, cB, dB in self.B(i).items():
            a = pinsB["u"]
            qa = Monomial.q_int(1) * a
            den1 = FactorCurrent(pref=Scalar.from_mono(qa)) \
                .times_linear_inv_arg(qa.inverse())
            den2 = FactorCurrent(
                pref=Scalar.from_mono(Monomial.q_int(2) * a.inverse(), -1)) \
                .times_linear_inv_arg(Monomial.q_int(-2) * a)
            gamma = xi / (den1 * den2)
            for b, R in self._expand(gamma):
                out.add_term({"u1": a, "u2": b, "v": b.inverse()},
                             R * cB, dB)
        return symmetrize(out, "u1", "u2")

    # --- per-case checks ------------------------------------------------

    def check_hh(self):
        d = self.inst.diagram
        for i in d.nodes():
            s = self.Xi(i).to_scalar()      # well-formed scalar current
            assert s is not None
        return CheckResult("HH", (), "pass",
                           detail="Cartan-current images are scalar")

    def check_hb(self, i, j):
        """Cartan current past a B current: per pin b of B_j, with
        c = C(i, j) and c' = C(tau i, j), Xi_i(u) equals Xi_i moved through
        the shift part times (q^c u - b)(q^c'/u - b) / ((u - q^c b)(1/u -
        q^c' b)) = q^(c'-c) (1 - q^c u/b)(1 - q^-c' b u) / ((1 - q^-c u/b)
        (1 - q^c' b u)), compared in factored normal form; a failure's
        entry holds its support as the pin of v and both sides as
        scalars."""
        d = self.inst.diagram
        cij, ctij = d.c(i, j), d.c(d.t(i), j)
        xi, pref = self.Xi(i), _q(ctij - cij)
        failures = []
        for pins, _, dmon in self.B(j).items():
            b = pins["u"]
            ratio = FactorCurrent(pref, factors=[
                ((1, Monomial.q_int(cij) * b.inverse()), 1),
                ((1, Monomial.q_int(-ctij) * b), 1),
                ((1, Monomial.q_int(-cij) * b.inverse()), -1),
                ((1, Monomial.q_int(ctij) * b), -1)])
            conj = xi.conjugate(dmon)
            if not xi.equals(ratio * conj):
                failures.append(({"v": b}, dmon, xi.to_scalar(),
                                 (ratio * conj).to_scalar()))
        status = "pass" if not failures else "fail"
        return CheckResult("HB", (i, j), status, failures)

    def check_deg(self, i):
        try:
            coeff = leading_coefficient_K(self.inst, i, self.Xi(i))
        except DegreeMismatch as e:
            return _unlocalized("DEG", (i,), str(e))
        return CheckResult("DEG", (i,), "pass",
                           detail=f"leading coefficient {coeff!r}")

    def check_pair(self, kind, i, j):
        try:
            lhs, rhs = self.eval_pair(kind, i, j)
        except (NonSimplePole, DenominatorVanishes) as e:
            return _unlocalized(kind, (i, j), f"aborted: {e}")
        bad = canonicalize_compare(lhs, rhs)
        return CheckResult(kind, (i, j), "pass" if not bad else "fail", bad,
                           sides=(lhs, rhs))

    # --- enumeration ----------------------------------------------------

    def cases(self):
        """All applicable (kind, nodes) cases for this instance."""
        d = self.inst.diagram
        pairs = [(i, j) for i in d.nodes() for j in d.nodes()]
        return [("HH", ()), *(("DEG", (i,)) for i in d.nodes()),
                *(("HB", p) for p in pairs),
                *((classify_bb(d, *p), p) for p in pairs),
                *((k, p) for p in pairs if (k := classify_serre(d, *p)))]

    def run(self, kinds=None):
        """Check each case of the given kinds (all by default), each
        result timed and given the gammas its case expanded."""
        report = CheckReport(self.inst.name)
        checks = {"HH": self.check_hh, "DEG": self.check_deg,
                  "HB": self.check_hb}
        for kind, nodes in self.cases():
            if kinds is None or kind in kinds:
                t0 = time.monotonic()
                r = checks[kind](*nodes) if kind in checks \
                    else self.check_pair(kind, *nodes)
                r.seconds = time.monotonic() - t0
                r.gammas, self._gammas = self._gammas, []
                report.results.append(r)
        return report


# --- lemma suites -------------------------------------------------------


def _exchange_suite(inst, nodes, kind):
    """The exchange law (W_x - q^c W_y) x y = (q^c W_x - W_y) y x among the
    block operators x of B_i and y of B_j, with c = C(i, j) and W = q times
    the block's pin.  It is checked once for each unordered pair of distinct
    blocks, over i <= j in ``nodes`` that are equal or adjacent, whose shift
    parts touch different coordinates d_{k,r}: swapping x and y negates
    both sides.  The law is homogeneous in W, so its verdicts cannot see a
    factor common to every block's coordinate.  Returns CheckResult entries
    labelled (i, j, dx, dy) by the shift parts, each with its operator
    sides."""
    d = inst.diagram
    blocks = {i: [(Scalar.from_mono(Monomial.q_int(1) * pins["u"]),
                   TorusElement.monomial(coeff, dmon), dmon)
                  for pins, coeff, dmon in build_B_image(inst, i).items()]
              for i in nodes}
    out = []
    for i in nodes:
        for j in nodes:
            c = d.c(i, j)
            if j < i or c == 0:
                continue
            for a, (wx, x, dx) in enumerate(blocks[i]):
                for wy, y, dy in blocks[j][a + 1:] if i == j else blocks[j]:
                    if {k for k, _ in dx.exps} & {k for k, _ in dy.exps}:
                        continue
                    lhs = (x * y).scale(wx - _q(c) * wy)
                    rhs = (y * x).scale(_q(c) * wx - wy)
                    out.append(CheckResult(
                        kind, (i, j, dx, dy),
                        "pass" if lhs.equals(rhs) else "fail",
                        sides=(lhs, rhs)))
    return out


def chi_exchange_suite(inst):
    """The exchange laws among the block operators of the fixed nodes."""
    d = inst.diagram
    return _exchange_suite(inst, [i for i in d.nodes() if d.t(i) == i],
                           "chi-exchange")


def merged_chi_suite(inst):
    """The exchange laws among the block operators of the nodes of
    adjacent involution pairs."""
    d = inst.diagram
    return _exchange_suite(inst, [i for i in d.nodes()
                                  if d.t(i) != i and d.c(i, d.t(i)) == -1],
                           "merged-chi")
