import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from iqgklo import oracle
from iqgklo.delta import Distribution, FactorCurrent, expand_by_residues
from iqgklo.errors import DenominatorVanishes, DivisionByZero
from iqgklo.gklo import build_B_image, build_Xi, times_x_minus_xinv
from iqgklo.oracle import (
    _groups, _plan, _same_value, act, randomized_equal,
    truncated_series_check,
)
from iqgklo.relations import RelationChecker
from iqgklo.satake import build_catalog, catalog_by_name
from iqgklo.scalars import (
    GR, GR_I, DMonomial, Monomial, Poly, Scalar, _cleared_point, add_into,
)
from iqgklo.torus import TorusElement
from test_scalars import ref_scalars


def _shift(i, r, e):
    return TorusElement.monomial(Scalar.one(), DMonomial.unit(i, r, e))


def _act_terms(x, f):
    """Act with the TorusElement x on f term by term."""
    out = Scalar.zero()
    for _, coeff, dmon in x.items():
        out = out + act((coeff, dmon), f)
    return out


def test_act_shift_rescales_half_power():
    # the shift operator on slot (1,1) multiplies w_{1,1}^(1/2) by Q^2
    f = Monomial.w(1, 1)                       # whole power, exponent 2
    out = _act_terms(_shift(1, 1, 1), f)
    assert out.equals(Scalar.q_int(2) * Scalar.from_mono(f))


def test_act_is_linear_over_terms():
    f = Monomial.w(1, 1)
    up, down = _shift(1, 1, 1), _shift(1, 1, -1)
    assert _act_terms(up + down, f).equals(
        _act_terms(up, f) + _act_terms(down, f))


def test_act_commutator_defect_zero_on_same_slot():
    # shifts on the same slot commute; acting with xy - yx gives 0
    f = Monomial.w(1, 1, 2)
    x, y = _shift(1, 1, 1), _shift(1, 1, -1)
    defect = x * y - y * x
    assert _act_terms(defect, f).is_zero()


def test_randomized_equal_reflexive():
    inst = catalog_by_name("sA1-v1-t0")
    b = build_B_image(inst, 1)
    verdict, trials = randomized_equal(b, b, trials=5, seed=3)
    assert verdict is True and trials == 5


def test_randomized_equal_detects_perturbation():
    inst = catalog_by_name("sA1-v1-t0")
    b = build_B_image(inst, 1)
    eps = b.map_coeff(lambda pins, c: c * (Scalar.one() + Scalar.var("q", 2)))
    verdict, trials = randomized_equal(b, eps, trials=20, seed=0)
    assert verdict is False and trials <= 3


def test_randomized_equal_matches_symbolic_verdict():
    inst = catalog_by_name("sA1-v1-t0")
    ck = RelationChecker(inst)
    lhs, rhs = ck.eval_pair("BB2", 1, 1)
    verdict, trials = randomized_equal(lhs, rhs, trials=20, seed=0)
    assert verdict is True and trials == 20


def test_randomized_equal_evaluates_each_factor_once_per_trial(monkeypatch):
    # one memo of drawn points per trial: no part is evaluated twice in a
    # trial, though the two sides share most of their factors
    inst = catalog_by_name("sA1-v1-t0")
    lhs, rhs = RelationChecker(inst).eval_pair("BB2", 1, 1)
    seen = Counter()
    memos = {}                      # kept alive, so no id is reused
    original = Poly._eval_cleared

    def counted(self, assignment, memo):
        memos[id(memo)] = memo
        seen[id(memo), frozenset(self.terms.items())] += 1
        return original(self, assignment, memo)
    monkeypatch.setattr(Poly, "_eval_cleared", counted)
    assert randomized_equal(lhs, rhs, trials=20, seed=0) == (True, 20)
    assert len(memos) == 20
    assert max(seen.values()) == 1
    # every part of both sides is evaluated in every trial
    parts = {frozenset(p.terms.items()) for p in _plan(lhs, rhs)[0].values()}
    assert Counter(terms for _, terms in seen) == {t: 20 for t in parts}


# Records, in a fresh interpreter, every coefficient the oracle compiles
# on the qsA2-v11 BB3[1,2] pair, in order; the plan's groups are compared
# in that order, x's side of each group before y's.
VISITS = """
import json
from iqgklo.oracle import randomized_equal
from iqgklo.relations import RelationChecker
from iqgklo.satake import catalog_by_name
from iqgklo.scalars import Scalar
lhs, rhs = RelationChecker(catalog_by_name("qsA2-v11")).eval_pair("BB3", 1, 2)
seen = []
original = Scalar.eval_plan

def recorded(self):
    seen.append(repr(self))
    return original(self)
Scalar.eval_plan = recorded
randomized_equal(lhs, rhs, trials=1, seed=0)
print(json.dumps(seen))
"""


def test_randomized_equal_visit_order_ignores_hash_seed():
    # which of a mismatch and a vanishing denominator is met first in a
    # trial decides the (verdict, trials) pair, so the order of the
    # support groups must not follow the string hashes
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    orders = [json.loads(subprocess.run(
        [sys.executable, "-c", VISITS],
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        capture_output=True, text=True, check=True).stdout)
        for seed in ("0", "1")]
    assert len(orders[0]) > 2
    assert orders[0] == orders[1]


def _random_test_monomial(rng, variables):
    """The monomial test function of one trial: an exponent in [-3, 3] for
    each w: variable, drawn in name order."""
    wvars = sorted(v for v in variables if v.startswith("w:"))
    return Monomial((v, rng.randint(-3, 3)) for v in wvars)


def _reference_draw(rng, variables):
    """One attempt's draws, made the long way: for each variable in name
    order a Gaussian rational n/d, |n| and d in 1..64 (n's sign drawn
    after its size), then the test monomial."""
    assignment = {}
    for v in sorted(variables):
        n = rng.randint(1, 64) * rng.choice((1, -1))
        assignment[v] = GR(Fraction(n, rng.randint(1, 64)))
    return assignment, _random_test_monomial(rng, variables)


def _variables(x, y):
    out = {"q"}
    for g in (_groups(x), _groups(y)):
        for c in g.values():
            out |= c.variables()
    return out


@pytest.mark.parametrize("name", ["sA1-v1-t1", "sA1-v2-t0", "qsA3-t0",
                                  "qsA2-v11"])
def test_randomized_equal_keeps_the_test_monomial_draws(name, monkeypatch):
    # randomized_equal draws each value already cleared and the test
    # monomial's exponents without building it, so each attempt must leave
    # the random stream where the long way left it, with the same values
    checker = RelationChecker(catalog_by_name(name), keep_pairs=True)
    checker.run()
    lhs, rhs = max(checker.pairs.values(), key=lambda pair: sum(
        v.startswith("w:") for v in _variables(*pair)))
    variables = _variables(lhs, rhs)
    assert any(v.startswith("w:") for v in variables)
    records = []
    draw = oracle._random_points

    def recorded(rng, names, n_test_exps):
        state = rng.getstate()
        points = draw(rng, names, n_test_exps)
        records.append((state, dict(points)))   # the oracle adds to points
        return points
    monkeypatch.setattr(oracle, "_random_points", recorded)
    attempts = []
    _, _, _, reference = _draws(lhs, rhs, 3)

    def logged():
        attempts.append(reference())
        return attempts[-1]
    assert randomized_equal(lhs, rhs, trials=5, seed=3) == (True, 5)
    assert _reference_randomized_equal(lhs, rhs, 5, 3, draw=logged) == \
        (True, 5)
    # one draw per attempt, each from where the long way left the stream
    assert len(records) == len(attempts) >= 5
    rng = random.Random(3)
    for state, points in records:
        assert rng.getstate() == state
        assignment, _ = _reference_draw(rng, variables)
        assert points == {v: _cleared_point(v, a)
                          for v, a in assignment.items()}
        assert {v: GR(Fraction(g, s)) for v, (s, g, _, _) in points.items()} \
            == assignment


def _draws(x, y, seed):
    """The oracle's support groups and its stream of random
    (assignment, test monomial) draws for one seed, made the long way."""
    gx, gy = _groups(x), _groups(y)
    variables = _variables(x, y)
    rng = random.Random(seed)
    return gx, gy, [*gx, *(k for k in gy if k not in gx)], \
        lambda: _reference_draw(rng, variables)


def _reference_randomized_equal(x, y, trials, seed, max_retries=200,
                                draw=None):
    """The full-product oracle: act on the test monomial with the whole
    symbolic coefficient, then evaluate the product.  ``draw`` replaces
    the seed's stream of draws when given."""
    gx, gy, keys, seeded = _draws(x, y, seed)
    draw = draw or seeded
    if not keys:
        return True, trials
    done = attempts = 0
    while done < trials:
        assert attempts <= max_retries + trials
        attempts += 1
        a, f = draw()
        try:
            for key in keys:
                dmon = key[1]
                vx = act((gx.get(key, Scalar.zero()), dmon), f).eval_numeric(a)
                vy = act((gy.get(key, Scalar.zero()), dmon), f).eval_numeric(a)
                if vx != vy:
                    return False, done + 1
        except (DenominatorVanishes, DivisionByZero):
            continue
        done += 1
    return True, done


@cache
def _reference_window(gamma, order):
    """gamma's expanded window, shared by the reference checks of every
    expansion tried against gamma."""
    pref, plus = gamma.series_raw("infinity", order)
    _, minus = gamma.series_raw("zero", order)
    return pref, {n: plus.get(n, Poly.zero()) - minus.get(n, Poly.zero())
                  for n in range(-order, order + 1)}


def _reference_series_check(gamma, expansion, order):
    """The full-window series check: expand gamma over |n| <= order, then
    step the recurrence prod_k (S - a_k^{-1}) across the expanded window
    and apply its leave-one-out forms at n0."""
    pref, L = _reference_window(gamma, order)
    terms = [(pins[gamma.var], coeff) for pins, coeff, _ in expansion.items()]
    p = len(terms)

    def direct_equal(n):
        rhs = Scalar.zero()
        for a, coeff in terms:
            rhs = rhs + coeff * Scalar.from_mono(a ** (-n))
        return (pref * Scalar(L[n])).equals(rhs)

    if p == 0:
        return all(poly.is_zero() for poly in L.values())
    if 2 * order + 1 <= p:
        return all(direct_equal(n) for n in range(-order, order + 1))
    roots = [a.inverse() for a, _ in terms]
    PL = {n: poly.terms for n, poly in L.items()}
    eroots = [rho.key for rho in roots]
    cur, hi = PL, order
    for er in eroots:
        cur = {n: add_into(dict(cur[n + 1]), cur[n], er, -1)
               for n in range(-order, hi)}
        hi -= 1
    if any(cur.values()):
        return False
    n0 = max(-order, min(-(p // 2), order - p + 1))
    for k, (a, coeff) in enumerate(terms):
        e = [{0: 1}]
        for l, er in enumerate(eroots):
            if l == k:
                continue
            new = [dict() for _ in range(len(e) + 1)]
            for j, ej in enumerate(e):
                add_into(new[j + 1], ej)
                add_into(new[j], ej, er, -1)
            e = new
        val = {}
        for j, ej in enumerate(e):
            for k1, c1 in ej.items():
                add_into(val, PL[n0 + j], k1, c1)
        expect = coeff * Scalar.from_mono(a ** (-n0))
        for l, rho in enumerate(roots):
            if l != k:
                expect = expect * (Scalar.from_mono(roots[k]) -
                                   Scalar.from_mono(rho))
        if not (pref * Scalar(Poly(val, _clean=False))).equals(expect):
            return False
    return True


def _reference_pairs():
    inst = catalog_by_name("sA1-v1-t0")
    b = build_B_image(inst, 1)
    eps = b.map_coeff(lambda pins, c: c * (Scalar.one() + Scalar.var("q", 2)))
    # the theta = 1 image carries a Gaussian coefficient
    bt = build_B_image(catalog_by_name("sA1-v1-t1"), 1)
    gauss = Scalar.one() + Scalar.const(GR_I) * Scalar.var("q", 2)
    epst = bt.map_coeff(lambda pins, c: c * gauss)
    return {"BB2[1,1]": RelationChecker(inst).eval_pair("BB2", 1, 1),
            "perturbed": (b, eps),
            "qsA2-v11 BB3[1,2]": RelationChecker(
                catalog_by_name("qsA2-v11")).eval_pair("BB3", 1, 2),
            "theta1 B[1]": (bt, bt),
            "theta1 perturbed": (bt, epst)}


def _has_gaussian(dist):
    return any(isinstance(x, GR) for _, c, _ in dist.items()
               for x in [c.c, *c.num.terms.values(),
                         *(y for p, _ in c.f.values()
                           for y in p.terms.values())])


def test_reference_pairs_cover_gaussian_coefficients():
    pairs = _reference_pairs()
    assert _has_gaussian(pairs["theta1 B[1]"][0])
    assert _has_gaussian(pairs["theta1 perturbed"][1])


@pytest.mark.parametrize("name", ["BB2[1,1]", "perturbed",
                                  "qsA2-v11 BB3[1,2]", "theta1 B[1]",
                                  "theta1 perturbed"])
def test_randomized_equal_matches_full_product_reference(name):
    lhs, rhs = _reference_pairs()[name]
    for seed in (0, 5):
        assert randomized_equal(lhs, rhs, trials=20, seed=seed) == \
            _reference_randomized_equal(lhs, rhs, trials=20, seed=seed)


# every catalog instance of multiplicity 1, for the kept pairs below
MULT1 = [inst.name for inst in build_catalog() if max(inst.mult) == 1]


@pytest.mark.parametrize("name", MULT1)
@pytest.mark.parametrize("corrupt", [None, "drop_const", "drop_kappa",
                                     "flip_wp"])
def test_randomized_equal_matches_full_product_reference_on_kept_pairs(
        name, corrupt):
    checker = RelationChecker(catalog_by_name(name), corrupt=corrupt,
                              keep_pairs=True)
    checker.run()
    assert checker.pairs
    for (case, (lhs, rhs)), seed in product(checker.pairs.items(), (0, 7)):
        assert randomized_equal(lhs, rhs, trials=20, seed=seed) == \
            _reference_randomized_equal(lhs, rhs, trials=20, seed=seed), \
            (case, seed)


def test_kept_pairs_reference_covers_false_verdicts():
    # dropping the constant breaks BB2 on the theta = 1 instance, so the
    # comparison above meets a False verdict and not only agreement
    checker = RelationChecker(catalog_by_name("sA1-v1-t1"),
                              corrupt="drop_const", keep_pairs=True)
    checker.run()
    lhs, rhs = checker.pairs[("BB2", 1, 1)]
    assert randomized_equal(lhs, rhs, trials=20, seed=0) == (False, 1)


def _scripted(monkeypatch, assignments):
    """Make the oracle draw the given assignments, in order, and return the
    same stream of (assignment, test monomial) draws for the reference."""
    points = iter([{v: _cleared_point(v, a) for v, a in assignment.items()}
                   for assignment in assignments])
    monkeypatch.setattr(oracle, "_random_points",
                        lambda rng, names, n_test_exps: next(points))
    draws = iter(assignments)
    return lambda: (next(draws), Monomial.one())


# 1 - q u vanishes at the first assignment and not at the second
ONE_MINUS_QU = Scalar.one() - Scalar.var("q", 2) * Scalar.var("u")
VANISH_THEN_NOT = [{"q": GR(2), "u": GR(Fraction(1, 4))},
                   {"q": GR(3), "u": GR(5)}]


def test_vanishing_shared_numerator_part_leaves_the_group_equal(
        monkeypatch):
    # both sides hold 1 - q u in their numerators; where it vanishes, both
    # sides are 0, so the group is equal in that trial, and the mismatch
    # of 1 + u and 2 + u shows only in the second
    x = Distribution.single(
        {}, ONE_MINUS_QU * (Scalar.one() + Scalar.var("u")))
    y = Distribution.single(
        {}, ONE_MINUS_QU * (Scalar.const(2) + Scalar.var("u")))
    ((_, shared, _, _),) = _plan(x, y)[1]
    assert shared
    draw = _scripted(monkeypatch, VANISH_THEN_NOT)
    assert randomized_equal(x, y, trials=5, seed=0) == (False, 2) == \
        _reference_randomized_equal(x, y, 5, 0, draw=draw)


def test_vanishing_shared_denominator_part_retries_the_trial(monkeypatch):
    # both sides divide by 1 - q u, which cancels from the comparison; the
    # numerators 1 and 2 - q u agree where it vanishes, so only the retry
    # keeps that attempt from counting as an equal trial
    x = Distribution.single({}, Scalar.one() / ONE_MINUS_QU)
    y = Distribution.single(
        {}, (Scalar.const(2) - Scalar.var("q", 2) * Scalar.var("u"))
        / ONE_MINUS_QU)
    ((dens, _, (_, dx, _), (_, dy, _)),) = _plan(x, y)[1]
    assert dens and not dx and not dy
    draw = _scripted(monkeypatch, VANISH_THEN_NOT)
    assert randomized_equal(x, y, trials=5, seed=0) == (False, 1) == \
        _reference_randomized_equal(x, y, 5, 0, draw=draw)


@settings.get_profile(os.environ.get("IQGKLO_ORACLE_PROFILE", "oracle"))
@given(st.lists(ref_scalars(), min_size=4, max_size=4),
       st.integers(0, 5), st.integers(0, 5), st.integers(0, 3))
def test_randomized_equal_matches_reference_when_sides_share_parts(
        drawn, i, j, seed):
    # coefficients over the pool of test_scalars, whose sides share
    # factors (c, d) and sums (a + b), equal or not, in two groups
    a, b, c, d = (s for _, s in drawn)
    assume(not c.is_zero() and not d.is_zero())
    s = a + b
    forms = [s * c, a * c + b * c, s * d, s / c, a / c + b / c, s * c / d]
    shift = DMonomial.unit(1, 1)
    x = Distribution.single({}, forms[i]) \
        + Distribution.single({}, forms[j] * c, shift)
    y = Distribution.single({}, forms[j]) \
        + Distribution.single({}, forms[i] * c, shift)
    assert randomized_equal(x, y, trials=4, seed=seed) == \
        _reference_randomized_equal(x, y, 4, seed)


@pytest.mark.parametrize("a, b, same", [
    ((1, 1, 1, 0), (2, 2, 2, 0), True),     # (1+i)/1 and (2+2i)/2
    ((1, 1, 1, 0), (2, 0, 1, -1), True),    # 1+i and 2/(1-i)
    ((1, 1, 1, 0), (1, -1, 1, 0), False),   # equal real parts
    ((1, 1, 1, 0), (2, 1, 1, 0), False),    # equal imaginary parts
    ((0, 0, 1, 0), (0, 0, 5, 3), True),     # zero over any denominator
])
def test_same_value_cross_multiplies_both_components(a, b, same):
    assert _same_value(a, b) is same
    assert _same_value(b, a) is same


def test_randomized_equal_sees_a_difference_in_the_imaginary_part():
    x = Distribution.single({}, Scalar.var("q") * Scalar.const(GR(1, 1)))
    y = Distribution.single({}, Scalar.var("q") * Scalar.const(GR(1, -1)))
    assert randomized_equal(x, y, trials=5, seed=0) == (False, 1)
    assert randomized_equal(x, x, trials=5, seed=0) == (True, 5)


def test_evaluate_then_rescale_equals_full_product_per_group():
    for (lhs, rhs), seed in product(_reference_pairs().values(), range(3)):
        gx, gy, keys, draw = _draws(lhs, rhs, seed)
        a, f = draw()
        for key in keys:
            dmon = key[1]
            fv = act((Scalar.one(), dmon), f).eval_numeric(a)
            for c in (gx.get(key, Scalar.zero()), gy.get(key, Scalar.zero())):
                assert c.eval_numeric(a) * fv == \
                    act((c, dmon), f).eval_numeric(a)


def test_series_check_single_geometric_pole():
    # x/(x-a) = (1 - a/x)^{-1}: residue expansion is a single delta at a
    a = Monomial.unit("a", 2)
    gamma = FactorCurrent("x").times_linear_inv_arg(a, 1, -1)
    assert truncated_series_check(gamma, order=8)


def test_series_check_laurent_polynomial_trivial():
    gamma = FactorCurrent("x", pref=Scalar.var("x", 3))
    assert truncated_series_check(gamma, order=4)


def test_series_check_split_rank1_current():
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1, var="u"))
    assert truncated_series_check(gamma, order=8)


def test_series_check_rejects_scaled_expansion():
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1, var="u"))
    bad = expand_by_residues(gamma).map_coeff(
        lambda pins, c: c * Scalar.q_int(1))
    assert not truncated_series_check(gamma, expansion=bad, order=8)


def test_series_check_reads_the_whole_window(monkeypatch):
    # an expansion at infinity that is wrong only at the window's edge
    # coefficient must fail, though every central coefficient is right
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1, var="u"))
    original = FactorCurrent.series_raw

    def wrong_at_edge(self, side, order, low=None):
        pref, coeffs = original(self, side, order, low)
        if side == "infinity" and order >= 8:
            coeffs = {**coeffs, 8: coeffs.get(8, Poly.zero()) + Poly.const(1)}
        return pref, coeffs
    monkeypatch.setattr(FactorCurrent, "series_raw", wrong_at_edge)
    assert not truncated_series_check(gamma, order=8)
    assert truncated_series_check(gamma, order=7)


def test_series_check_rejects_dropped_pin():
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1, var="u"))
    full = list(expand_by_residues(gamma).items())
    partial = Distribution.zero()
    for pins, coeff, dmon in full[:-1]:
        partial.add_term(pins, coeff, dmon)
    assert not truncated_series_check(gamma, expansion=partial, order=8)


@pytest.fixture(scope="module")
def catalog_gammas():
    """The residue-expanded Cartan current of every node of every
    multiplicity-1 catalog instance."""
    return {f"{inst.name}:{i}": times_x_minus_xinv(build_Xi(inst, i, var="u"))
            for inst in build_catalog() if max(inst.mult) == 1
            for i in inst.diagram.nodes()}


def _with_terms(terms):
    out = Distribution.zero()
    for pins, coeff, dmon in terms:
        out.add_term(pins, coeff, dmon)
    return out


def _corrupted(gamma, expansion):
    """Wrong expansions of gamma: scaled amplitudes, each pin dropped, each
    pin moved by q, an extra pin, one negated amplitude and no pin."""
    items = list(expansion.items())
    q = Monomial.q_int(1)
    yield expansion.map_coeff(lambda pins, c: c * Scalar.q_int(1))
    for k, (pins, coeff, dmon) in enumerate(items):
        yield _with_terms(items[:k] + items[k + 1:])
        moved = ({gamma.var: pins[gamma.var] * q}, coeff, dmon)
        yield _with_terms(items[:k] + [moved] + items[k + 1:])
    pins, coeff, dmon = items[0]
    yield _with_terms(items + [({gamma.var: pins[gamma.var] * q ** 3},
                                coeff, dmon)])
    yield _with_terms([(pins, -coeff, dmon)] + items[1:])
    yield Distribution.zero()


def test_series_check_matches_full_window_reference(catalog_gammas):
    # one gamma per instance keeps the full-window reference fast
    firsts = {}
    for name, gamma in catalog_gammas.items():
        firsts.setdefault(name.split(":")[0], gamma)
    verdicts = set()
    for gamma in firsts.values():
        expansion = expand_by_residues(gamma)
        cases = [(expansion, order) for order in range(9)]
        cases += [(bad, order) for bad in _corrupted(gamma, expansion)
                  for order in (8, 3, 1)]
        for exp, order in cases:
            verdict = truncated_series_check(gamma, exp, order)
            assert verdict == _reference_series_check(gamma, exp, order)
            verdicts.add(verdict)
    _reference_window.cache_clear()
    assert verdicts == {True, False}


def _q_gamma(gamma, expansion):
    """Q*gamma, Q = prod_k (1 - rho_k x) over the roots rho_k = a_k^(-1)
    of the expansion's pins, and the roots."""
    roots = [pins[gamma.var].inverse() for pins, _, _ in expansion.items()]
    q_gamma = gamma
    for rho in roots:
        q_gamma = q_gamma.times_linear(rho)
    return q_gamma, roots


def _check_windows(q_gamma, p, order):
    """The windows (side, low, high) the series check expands Q*gamma
    over."""
    n0 = max(-order, min(-(p // 2), order - p + 1))
    m = n0 + p - 1
    return [("infinity", p - order,
             max(order, q_gamma.degree_at_infinity())),
            ("zero", q_gamma.power, max(order, m))]


def test_series_raw_window_is_consistent(catalog_gammas):
    # every narrower window must agree with the wide one, among them the
    # two windows of Q*gamma that the series check reads at each order
    for gamma in catalog_gammas.values():
        q_gamma, roots = _q_gamma(gamma, expand_by_residues(gamma))
        currents = [gamma, q_gamma,
                    *(q_gamma.times_linear(rho, 1, -1) for rho in roots)]
        for fc, side in product(currents, ("infinity", "zero")):
            windows = [(-order, order) for order in range(9)]
            windows += [(n, n) for n in range(-8, 9)]
            if fc is q_gamma:
                windows += [(low, high) for order in range(9)
                            for s, low, high in _check_windows(
                                q_gamma, len(roots), order)
                            if s == side]
            pref, wide = fc.series_raw(side, max(
                max(-low, high) for low, high in windows))
            for low, order in windows:
                pref_o, narrow = fc.series_raw(side, order, low)
                assert pref_o is pref
                assert {n: c.terms for n, c in narrow.items()} == \
                    {n: c.terms for n, c in wide.items()
                     if low <= n <= order}


def _reference_leave_one_out(q_gamma, rho, m):
    """[x^m] of the two expansions' difference of Q_k*gamma, with
    Q_k = Q / (1 - rho x), each expansion built from Q_k*gamma itself."""
    fc = q_gamma.times_linear(rho, 1, -1)
    _, plus = fc.series_raw("infinity", m, m)
    _, minus = fc.series_raw("zero", m, m)
    return plus.get(m, Poly.zero()) - minus.get(m, Poly.zero())


def test_leave_one_out_matches_expanding_each_product(catalog_gammas,
                                                      monkeypatch):
    # step (b) reads each Q_k*gamma off the two expansions of Q*gamma; its
    # value must be the one that expanding Q_k*gamma itself gives, also on
    # narrow windows (sA1-v2-t1, 9 pins) and for wrong expansions there
    seen = []
    original = oracle._leave_one_out

    def recorded(A, Z, m, rho):
        value = original(A, Z, m, rho)
        seen.append((rho, m, value))
        return value
    monkeypatch.setattr(oracle, "_leave_one_out", recorded)
    narrow = times_x_minus_xinv(build_Xi(catalog_by_name("sA1-v2-t1"), 1,
                                         var="u"))
    narrow_exp = expand_by_residues(narrow)
    cases = [(gamma, expand_by_residues(gamma), order)
             for gamma in [*catalog_gammas.values(), narrow]
             for order in range(9)]
    cases += [(narrow, bad, order) for bad in _corrupted(narrow, narrow_exp)
              for order in range(5)]
    reads = 0
    for gamma, expansion, order in cases:
        seen.clear()
        truncated_series_check(gamma, expansion, order)
        q_gamma, _ = _q_gamma(gamma, expansion)
        for rho, m, value in seen:
            assert value.terms == \
                _reference_leave_one_out(q_gamma, rho, m).terms
        reads += len(seen)
    assert reads > len(cases)


def test_series_check_narrow_windows_at_multiplicity_two():
    # sA1-v2-t1's gamma has 9 pins, so every window up to order 4 holds
    # fewer than p + 1 coefficients and is read by step (b) alone
    inst = catalog_by_name("sA1-v2-t1")
    gamma = times_x_minus_xinv(build_Xi(inst, 1, var="u"))
    expansion = expand_by_residues(gamma)
    assert len(list(expansion.items())) == 9
    for order in range(9):
        assert truncated_series_check(gamma, expansion, order)
    bad = list(_corrupted(gamma, expansion))
    assert len(bad) == 22
    for exp in bad:
        assert not truncated_series_check(gamma, exp, 0)
