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
from iqgklo.cli import instance_from_description
from iqgklo.delta import (
    Distribution, FactorCurrent, expand_by_residues, simple_poles,
)
from iqgklo.errors import (
    DenominatorVanishes, DivisionByZero, NonSimplePole,
)
from iqgklo.gklo import build_B_image, build_Xi, times_x_minus_xinv
from iqgklo.oracle import (
    _groups, _plan, _same_value, act, randomized_equal,
    truncated_series_check,
)
from iqgklo.relations import RelationChecker
from iqgklo.satake import build_catalog, catalog_by_name
from iqgklo.scalars import (
    GR, GR_I, DMonomial, Monomial, Poly, Scalar, add_into, z_var,
)
from iqgklo.torus import TorusElement
from test_gklo import SHIFTED
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


def _needed(groups):
    """The parts a group's verdict reads in every trial that reaches it:
    its denominator parts and the parts of its reduced sides."""
    out = set()
    for dens, _, (_, dx, nx), (_, dy, ny) in groups:
        out |= dens | dx.keys() | nx.keys() | dy.keys() | ny.keys()
    return out


def test_randomized_equal_evaluates_only_the_parts_a_verdict_needs(
        monkeypatch):
    # one set of power tables per trial, and no part evaluated twice in a
    # trial; on this all-equal pair the reduced sides agree in every
    # trial, so a part that is only ever a shared numerator part is
    # neither compiled nor evaluated
    inst = catalog_by_name("sA1-v1-t0")
    lhs, rhs = RelationChecker(inst).eval_pair("BB2", 1, 1)
    parts, groups = _plan(lhs, rhs)
    needed = _needed(groups)
    assert len(parts) == 17 and len(parts.keys() - needed) == 9
    key_of = {id(p): key for key, p in parts.items()}
    seen = Counter()
    tables = {}                     # kept alive, so no id is reused
    compiled = {}
    kernel, part_value = oracle._kernel, oracle._part_value

    def recorded(part, zero):
        k = kernel(part, zero)
        compiled[id(k)] = key_of[id(part)]
        return k

    def counted(k, powers):
        tables[id(powers)] = powers
        seen[id(powers), compiled[id(k)]] += 1
        return part_value(k, powers)
    monkeypatch.setattr(oracle, "_kernel", recorded)
    monkeypatch.setattr(oracle, "_part_value", counted)
    assert randomized_equal(lhs, rhs, trials=20, seed=0) == (True, 20)
    assert len(tables) == 20
    assert max(seen.values()) == 1
    # each part compiled once, on first use
    assert len(set(compiled.values())) == len(compiled)
    assert {key for _, key in seen} == set(compiled.values()) == needed
    assert len(needed) == 8


def test_randomized_equal_plans_identical_groups_once():
    # the two support groups of each side hold the same coefficient, so
    # the second group's outcome is the first's in every trial
    shift = DMonomial.unit(1, 1)
    c = ONE_MINUS_QT / (Scalar.const(2) + Scalar.var(T))
    for d in (c, c * Scalar.var("q", 2), c + Scalar.one()):
        x = Distribution.single({}, c) + Distribution.single({}, c, shift)
        y = Distribution.single({}, d) + Distribution.single({}, d, shift)
        assert len(_plan(x, y)[1]) == 1
        for seed in (0, 3):
            assert randomized_equal(x, y, trials=20, seed=seed) == \
                _reference_randomized_equal(x, y, trials=20, seed=seed)
    # a group that differs from an earlier one only in one side's constant
    # is planned on its own, and its mismatch is found
    x = Distribution.single({}, c) + Distribution.single({}, c, shift)
    y = Distribution.single({}, c) \
        + Distribution.single({}, c * Scalar.const(2), shift)
    assert len(_plan(x, y)[1]) == 2
    assert randomized_equal(x, y, trials=20, seed=0) == (False, 1) == \
        _reference_randomized_equal(x, y, trials=20, seed=0)
    # on a shifted pair, groups 3 and 4 repeat groups 1 and 2
    inst = instance_from_description(SHIFTED["A1-f3-s1"])
    lhs, rhs = RelationChecker(inst).eval_pair("BB2", 1, 1)
    assert len(_groups(lhs).keys() | _groups(rhs).keys()) == 4
    assert len(_plan(lhs, rhs)[1]) == 2


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


def _kept_pairs(report):
    """{(kind, i, j): (lhs, rhs)} over the results that compared sides."""
    return {(r.kind, *r.pair): r.sides for r in report.results
            if r.sides is not None}


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
    report = RelationChecker(catalog_by_name(name)).run()
    lhs, rhs = max(_kept_pairs(report).values(), key=lambda pair: sum(
        v.startswith("w:") for v in _variables(*pair)))
    variables = _variables(lhs, rhs)
    assert any(v.startswith("w:") for v in variables)
    records = []
    draw = oracle._random_points

    def recorded(rng, names, n_test_exps):
        state = rng.getstate()
        records.append((state, names, draw(rng, names, n_test_exps)))
        return records[-1][2]
    monkeypatch.setattr(oracle, "_random_points", recorded)
    attempts = []
    _, _, _, reference = _draws(lhs, rhs, 3)

    def logged():
        attempts.append(reference())
        return attempts[-1]
    assert randomized_equal(lhs, rhs, trials=5, seed=3) == (True, 5)
    assert _reference_randomized_equal(lhs, rhs, 5, 3, draw=logged) == \
        (True, 5)
    # one draw per attempt, each from where the long way left the stream,
    # each value g/s in lowest terms over s > 0
    assert len(records) == len(attempts) >= 5
    rng = random.Random(3)
    for state, names, points in records:
        assert names == sorted(variables)
        assert rng.getstate() == state
        assignment, _ = _reference_draw(rng, variables)
        assert points == [(a.denominator, a.numerator)
                          for a in map(Fraction, map(assignment.get, names))]


@pytest.mark.parametrize("n_names", [1, 4, 9])
@pytest.mark.parametrize("n_test_exps", [0, 3])
def test_random_points_read_the_randint_stream(n_names, n_test_exps):
    # the draw reads randint's and choice's rejection loops straight off
    # getrandbits: the same values, and the generator left where they
    # leave it
    names = [f"x{k}" for k in range(n_names)]
    for seed in range(60):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(20):
            points = oracle._random_points(rng, names, n_test_exps)
            values = []
            for _ in names:
                n = ref.randint(1, 64) * ref.choice((1, -1))
                values.append(Fraction(n, ref.randint(1, 64)))
            for _ in range(n_test_exps):
                ref.randint(-3, 3)      # dropped; the state shows it
            assert points == [(a.denominator, a.numerator) for a in values]
            assert rng.getstate() == ref.getstate()


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
    terms = list(expansion)
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


# every catalog instance of multiplicity 1 under each corruption, and the
# shifted instances, the paper's subject, on their BB kinds, for the kept
# pairs below
MULT1 = [inst.name for inst in build_catalog() if max(inst.mult) == 1]
KEPT = [(name, corrupt)
        for corrupt in (None, "drop_const", "drop_kappa", "flip_wp")
        for name in MULT1]
KEPT += [(name, corrupt) for corrupt in (None, "drop_kappa")
         for name in SHIFTED]
BB_KINDS = ("BB1", "BB2", "BB3", "BB4", "BB5")


@pytest.mark.parametrize("name, corrupt", KEPT,
                         ids=[f"{c}-{n}" for n, c in KEPT])
def test_randomized_equal_matches_full_product_reference_on_kept_pairs(
        name, corrupt):
    if name in SHIFTED:
        inst, kinds = instance_from_description(SHIFTED[name]), BB_KINDS
    else:
        inst, kinds = catalog_by_name(name), None
    pairs = _kept_pairs(RelationChecker(inst, corrupt=corrupt).run(kinds))
    assert pairs
    verdicts = set()
    for (case, (lhs, rhs)), seed in product(pairs.items(), (0, 7)):
        got = randomized_equal(lhs, rhs, trials=20, seed=seed)
        assert got == \
            _reference_randomized_equal(lhs, rhs, trials=20, seed=seed), \
            (case, seed)
        verdicts.add((seed, got[0]))
    if (name, corrupt) == ("A1-t1-f2-s-2", "drop_kappa"):
        # a shifted comparison meets a False verdict at both seeds
        assert {(0, False), (7, False)} <= verdicts


def test_kept_pairs_reference_covers_false_verdicts():
    # dropping the constant breaks BB2 on the theta = 1 instance, so the
    # comparison above meets a False verdict and not only agreement
    report = RelationChecker(catalog_by_name("sA1-v1-t1"),
                             corrupt="drop_const").run()
    lhs, rhs = _kept_pairs(report)[("BB2", 1, 1)]
    assert randomized_equal(lhs, rhs, trials=20, seed=0) == (False, 1)


def _scripted(monkeypatch, assignments):
    """Make the oracle draw the given assignments, in order, and return the
    same stream of (assignment, test monomial) draws for the reference."""
    points = iter([{v: (Fraction(a).denominator, Fraction(a).numerator)
                    for v, a in assignment.items()}
                   for assignment in assignments])
    monkeypatch.setattr(oracle, "_random_points",
                        lambda rng, names, n_test_exps:
                        list(map(next(points).get, names)))
    draws = iter(assignments)
    return lambda: (next(draws), Monomial.one())


# a torus variable that the shift d_{1,1} leaves alone; a coefficient of a
# distribution holds no spectral variable
T = z_var(1, 1)
# 1 - q t vanishes at the first assignment and not at the second
ONE_MINUS_QT = Scalar.one() - Scalar.var("q", 2) * Scalar.var(T)
VANISH_THEN_NOT = [{"q": GR(2), T: GR(Fraction(1, 4))},
                   {"q": GR(3), T: GR(5)}]


def test_vanishing_shared_numerator_part_leaves_the_group_equal(
        monkeypatch):
    # both sides hold 1 - q t in their numerators; where it vanishes, both
    # sides are 0, so the group is equal in that trial, and the mismatch
    # of 1 + t and 2 + t shows only in the second
    x = Distribution.single(
        {}, ONE_MINUS_QT * (Scalar.one() + Scalar.var(T)))
    y = Distribution.single(
        {}, ONE_MINUS_QT * (Scalar.const(2) + Scalar.var(T)))
    ((_, shared, _, _),) = _plan(x, y)[1]
    assert shared
    draw = _scripted(monkeypatch, VANISH_THEN_NOT)
    assert randomized_equal(x, y, trials=5, seed=0) == (False, 2) == \
        _reference_randomized_equal(x, y, 5, 0, draw=draw)


def test_vanishing_shared_denominator_part_retries_the_trial(monkeypatch):
    # both sides divide by 1 - q t, which cancels from the comparison; the
    # numerators 1 and 2 - q t agree where it vanishes, so only the retry
    # keeps that attempt from counting as an equal trial
    x = Distribution.single({}, Scalar.one() / ONE_MINUS_QT)
    y = Distribution.single(
        {}, (Scalar.const(2) - Scalar.var("q", 2) * Scalar.var(T))
        / ONE_MINUS_QT)
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
    # factors (c, d) and sums (a + b), equal or not, in two groups; the
    # pool's spectral u is renamed to a torus variable
    t = {"u": Monomial.unit(T)}
    a, b, c, d = (s.substitute(t) for _, s in drawn)
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


# Currents over a few factor keys and prefactors, none of them holding u;
# the scalar cross-multiplication is the reference for the normal forms.
Q, W = Monomial.q_int(1), Monomial.w(1, 1)
FACTOR_KEYS = [(c, M) for c in (1, -1, 2, GR(0, 1), Fraction(1, 2))
               for M in (Monomial.one(), Q, W, Q * W.inverse(),
                         Monomial.unit("v"))]
PREFS = [Scalar.zero(), Scalar.const(GR(1, 1)), Scalar.var("q", -3),
         Scalar.one() - Scalar.var("q", 2) * Scalar.var("v"),
         (Scalar.var("v") - Scalar.from_mono(W))
         / (Scalar.const(2) + Scalar.var("q"))]


def _product(scalars):
    out = Scalar.one()
    for s in scalars:
        out = out * s
    return out


prefs = st.lists(st.sampled_from(PREFS), min_size=1, max_size=3).map(
    _product)
factor_lists = st.lists(
    st.tuples(st.sampled_from(FACTOR_KEYS),
              st.sampled_from((-2, -1, 1, 2))), max_size=4)


@settings.get_profile(os.environ.get("IQGKLO_ORACLE_PROFILE", "oracle"))
@given(prefs, st.integers(-2, 2), factor_lists, st.randoms(),
       st.sampled_from(FACTOR_KEYS), st.integers(-2, 2))
def test_factor_current_equals_agrees_with_scalar_equals(
        pref, power, factors, rnd, key, e):
    # equal currents built in another factor order and with a cancelling
    # pair, and unequal ones that differ by one factor, by the power or by
    # the prefactor: the normal forms decide as the scalars do
    fc = FactorCurrent(pref, power, factors)
    order = factors + [(key, e), (key, -e)]
    rnd.shuffle(order)
    same = FactorCurrent().times_power(power).scale(pref)
    for (c, M), k in order:
        same = same.times_linear(M, c, k)
    others = [fc.times_linear(key[1], key[0], e or 1), fc.times_power(1),
              fc.scale(Scalar.const(2)), fc.scale(Scalar.var("q"))]
    assert fc.equals(same) and same.equals(fc)
    assert fc.to_scalar().equals(same.to_scalar())
    for other in others:
        assert fc.equals(other) is pref.is_zero()
        assert fc.to_scalar().equals(other.to_scalar()) is pref.is_zero()


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
    # u/(u-a) = (1 - a/u)^{-1}: residue expansion is a single delta at a
    a = Monomial.w(1, 1)
    gamma = FactorCurrent().times_linear_inv_arg(a, 1, -1)
    assert truncated_series_check(gamma, order=8)


def test_series_check_laurent_polynomial_trivial():
    gamma = FactorCurrent(power=3)
    assert truncated_series_check(gamma, order=4)


def test_series_check_split_rank1_current():
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1))
    assert truncated_series_check(gamma, order=8)


def test_series_check_rejects_scaled_expansion():
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1))
    bad = [(a, c * Scalar.q_int(1)) for a, c in expand_by_residues(gamma)]
    assert not truncated_series_check(gamma, expansion=bad, order=8)


def _split(gamma):
    """(R, N): gamma's polar part, its factors of negative exponent, and
    its numerator, the prefactor, the power and the other factors."""
    return (FactorCurrent(factors={key: e for key, e in gamma.factors.items()
                                   if e < 0}),
            FactorCurrent(gamma.pref, gamma.power,
                          {key: e for key, e in gamma.factors.items()
                           if e > 0}))


def test_series_check_rejects_dropped_pin():
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1))
    partial = expand_by_residues(gamma)[:-1]
    assert not truncated_series_check(gamma, expansion=partial, order=8)


def test_series_check_rejects_a_repeated_pin():
    # two amplitudes at one pin whose sum is wrong: each leave-one-out
    # product vanishes at the repeated root, so without the distinct-pin
    # requirement step (b) would read 0 = 0 and pass
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1))
    (a, coeff), *rest = expand_by_residues(gamma)
    split = [(a, coeff * Scalar.const(5)), (a, coeff * Scalar.const(7)),
             *rest]
    assert not truncated_series_check(gamma, expansion=split, order=8)


@pytest.fixture(scope="module")
def catalog_gammas():
    """The residue-expanded Cartan current of every node of every
    multiplicity-1 catalog instance."""
    return {f"{inst.name}:{i}": times_x_minus_xinv(build_Xi(inst, i))
            for inst in build_catalog() if max(inst.mult) == 1
            for i in inst.diagram.nodes()}


def _with_terms(terms):
    """An expansion from (pin, amplitude) pairs: amplitudes at one pin
    summed in the place of its first, zero sums left out."""
    out = {}
    for a, coeff in terms:
        out[a] = out[a] + coeff if a in out else coeff
    return [(a, c) for a, c in out.items() if not c.is_zero()]


def _corrupted(gamma, expansion):
    """Wrong expansions of gamma: scaled amplitudes, each pin dropped, each
    pin moved by q, an extra pin, one negated amplitude and no pin."""
    q = Monomial.q_int(1)
    yield [(a, c * Scalar.q_int(1)) for a, c in expansion]
    for k, (a, coeff) in enumerate(expansion):
        yield _with_terms(expansion[:k] + expansion[k + 1:])
        yield _with_terms(expansion[:k] + [(a * q, coeff)]
                          + expansion[k + 1:])
    a, coeff = expansion[0]
    yield _with_terms(expansion + [(a * q ** 3, coeff)])
    yield _with_terms([(a, -coeff)] + expansion[1:])
    yield []


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


def _leave_one_out(A, Z, m, rho):
    """The coefficient of x^m in the difference of the expansions at
    infinity and at zero of F / (1 - rho*x), read off F's expansions A at
    infinity and Z at zero:  -sum_{n>m} rho^(m-n) A_n - sum_{n<=m}
    rho^(m-n) Z_n, each term one shifted copy of A_n's or Z_n's terms."""
    value = {}
    for n, c in A.items():
        if n > m:
            add_into(value, c.terms, (m - n) * rho.key, -1)
    for n, c in Z.items():
        if n <= m:
            add_into(value, c.terms, (m - n) * rho.key, -1)
    return Poly(value, _clean=False)


def _two_step_reference(gamma, expansion, order):
    """The two-step window check run on the whole gamma, the reference
    for the closed-form series check: (a) the two expansions of
    Q*gamma agree on [p - order, order], and (b) each pin's leave-one-out
    value at one central offset gives its amplitude.  The value is read
    by ``_leave_one_out``, which
    ``test_leave_one_out_matches_expanding_each_product`` pins."""
    terms = list(expansion)
    p = len(terms)
    roots = [a.inverse() for a, _ in terms]
    if len(set(roots)) < p:
        return False
    q_gamma = gamma
    for rho in roots:
        q_gamma = q_gamma.times_linear(rho)
    n0 = max(-order, min(-(p // 2), order - p + 1))
    m = n0 + p - 1
    pref, A = q_gamma.series_raw(
        "infinity", max(order, q_gamma.degree_at_infinity()), p - order)
    _, Z = q_gamma.series_raw("zero", max(order, m), q_gamma.power)
    zero = Poly.zero()
    if any(A.get(n, zero).terms != Z.get(n, zero).terms
           for n in range(p - order, order + 1)):
        return False
    for k, (a, coeff) in enumerate(terms):
        value = _leave_one_out(A, Z, m, roots[k])
        expect = coeff * Scalar.from_mono(a ** (-n0))
        for l, rho in enumerate(roots):
            if l != k:
                expect = expect * (Scalar.from_mono(roots[k]) -
                                   Scalar.from_mono(rho))
        if not (pref * Scalar(value)).equals(expect):
            return False
    return True


def _corrupted_by_numerator(gamma, expansion):
    """A wrong expansion of gamma that is off by a factor of its numerator
    N at one pin only, the first where N(a) is not 1: the amplitude there
    is R's, not N(a) times R's."""
    polar, numer = _split(gamma)
    residues = dict(expand_by_residues(polar))
    for k, (a, _) in enumerate(expansion):
        if not numer.evaluate(a).equals(Scalar.one()):
            return [*expansion[:k], (a, residues[a]), *expansion[k + 1:]]
    raise AssertionError("N is 1 at every pin")


@pytest.fixture(scope="module")
def logged_gammas():
    """Every distinct gamma, with its expansion, that the relation checks
    of the catalog log, but sA1-v2-*'s, with no image corruption and
    under each."""
    out = {}
    for inst in build_catalog():
        if inst.name.startswith("sA1-v2-"):
            continue
        for corrupt in (None, "flip_wp", "drop_kappa", "drop_const"):
            report = RelationChecker(inst, corrupt=corrupt).run()
            for gamma, expansion in (g for r in report.results
                                     for g in r.gammas):
                out.setdefault(repr(gamma), (gamma, expansion))
    return list(out.values())


def test_series_check_on_the_polar_part_matches_the_whole_gamma_check(
        logged_gammas):
    # the corpus: each logged gamma with its true expansion, each wrong one
    # of _corrupted and one off by a factor of N at one pin, at orders
    # 0-8; the closed-form check on R's partial fractions must give the
    # verdict of the two-step check on the whole gamma on every case
    assert len(logged_gammas) > 20
    verdicts = Counter()
    for gamma, expansion in logged_gammas:
        bad_n = _corrupted_by_numerator(gamma, expansion)
        for exp in [expansion, *_corrupted(gamma, expansion), bad_n]:
            for order in range(9):
                verdict = truncated_series_check(gamma, exp, order)
                assert verdict == _two_step_reference(gamma, exp, order), \
                    (gamma, exp, order)
                assert not (verdict and exp is bad_n)
                verdicts[verdict] += 1
    assert verdicts[True] >= 9 * len(logged_gammas) and verdicts[False]


def test_series_check_rejects_an_amplitude_where_the_numerator_vanishes():
    # with pref 0, N vanishes at every pin of R, so gamma's own expansion
    # is empty and passes (the whole-gamma check, whose step (a) leaves
    # the prefactor out, fails it); an amplitude at one of R's pins must
    # fail, on R and on the whole gamma alike
    gamma = times_x_minus_xinv(build_Xi(catalog_by_name("sA1-v1-t0"), 1))
    zero = gamma.scale(Scalar.zero())
    polar, numer = _split(zero)
    residues = expand_by_residues(polar)
    assert expand_by_residues(zero) == [] and len(residues) == 4
    for a, amp in residues:
        assert numer.evaluate(a).is_zero()
        for order in range(9):
            assert truncated_series_check(zero, [], order)
            assert not truncated_series_check(zero, [(a, amp)], order)
            assert not _two_step_reference(zero, [(a, amp)], order)


def _q_gamma(gamma, expansion):
    """Q*gamma, Q = prod_k (1 - rho_k u) over the roots rho_k = a_k^(-1)
    of the expansion's pins, and the roots."""
    roots = [a.inverse() for a, _ in expansion]
    q_gamma = gamma
    for rho in roots:
        q_gamma = q_gamma.times_linear(rho)
    return q_gamma, roots


def _check_windows(q_gamma, p, order):
    """The windows (side, low, high) the two-step reference expands
    Q*gamma over."""
    n0 = max(-order, min(-(p // 2), order - p + 1))
    m = n0 + p - 1
    return [("infinity", p - order,
             max(order, q_gamma.degree_at_infinity())),
            ("zero", q_gamma.power, max(order, m))]


def test_series_raw_window_is_consistent(catalog_gammas):
    # every narrower window must agree with the wide one, among them the
    # two windows of Q*gamma that the two-step reference reads at each
    # order
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
    # the two-step reference reads each Q_k*gamma off the two expansions
    # of Q*gamma, Q the pins' polynomial; its value must be the one that
    # expanding Q_k*gamma itself gives, on every catalog gamma with its
    # expansion, also on narrow windows (sA1-v2-t1, 9 pins) and for wrong
    # expansions there
    seen = []
    original = _leave_one_out

    def recorded(A, Z, m, rho):
        value = original(A, Z, m, rho)
        seen.append((rho, m, value))
        return value
    monkeypatch.setitem(globals(), "_leave_one_out", recorded)
    narrow = times_x_minus_xinv(build_Xi(catalog_by_name("sA1-v2-t1"), 1))
    narrow_exp = expand_by_residues(narrow)
    cases = [(gamma, expand_by_residues(gamma), order)
             for gamma in [*catalog_gammas.values(), narrow]
             for order in range(9)]
    cases += [(narrow, exp, order)
              for exp in [narrow_exp, *_corrupted(narrow, narrow_exp)]
              for order in range(5)]
    reads = 0
    for gamma, expansion, order in cases:
        seen.clear()
        _two_step_reference(gamma, expansion, order)
        q_gamma, _ = _q_gamma(gamma, expansion)
        for rho, m, value in seen:
            assert value.terms == \
                _reference_leave_one_out(q_gamma, rho, m).terms
        reads += len(seen)
    assert reads > len(cases)


def test_series_check_narrow_windows_at_multiplicity_two():
    # sA1-v2-t1's gamma has 9 pins, so on the whole gamma every window up
    # to order 4 holds fewer than p + 1 coefficients and is read by the
    # two-step reference's step (b) alone; the series check gives the
    # same verdicts
    inst = catalog_by_name("sA1-v2-t1")
    gamma = times_x_minus_xinv(build_Xi(inst, 1))
    expansion = expand_by_residues(gamma)
    assert len(expansion) == 9
    for order in range(9):
        assert truncated_series_check(gamma, expansion, order)
        assert _two_step_reference(gamma, expansion, order)
    bad = list(_corrupted(gamma, expansion))
    assert len(bad) == 22
    for exp in bad:
        assert not truncated_series_check(gamma, exp, 0)
        assert not _two_step_reference(gamma, exp, 0)


def test_series_check_rejects_the_expansion_with_one_pole_removed(
        catalog_gammas):
    # the residue expansion of gamma * (1 - rho_l u), gamma without its
    # pole at a_l, has at every other pin a_k gamma's amplitude with the
    # partial-fraction factor (1 - rho_l/rho_k)^-1 dropped; it is right
    # for a current with one pole fewer, so a check that took its
    # partial fractions over the logged pins, not over gamma's, would
    # pass it.  As gamma's expansion it must fail, with a_l left out and
    # with gamma's own amplitude there
    narrow = times_x_minus_xinv(build_Xi(catalog_by_name("sA1-v2-t1"), 1))
    cases = 0
    for gamma in [*catalog_gammas.values(), narrow]:
        expansion = expand_by_residues(gamma)
        poles = simple_poles(gamma)
        assert len(expansion) == len(poles) >= 2
        for key, (a, amp) in zip(poles, expansion):
            removed = expand_by_residues(gamma.times_linear(key[1]))
            assert len(removed) == len(poles) - 1
            for exp in (removed, [*removed, (a, amp)]):
                for order in (0, 8):
                    assert not truncated_series_check(gamma, exp, order)
                cases += 1
    assert cases > 2 * len(catalog_gammas)


def test_series_check_does_not_trust_evaluate_on_the_polar_part(
        catalog_gammas, monkeypatch):
    # an ``evaluate`` that leaves out one pole factor of the current it
    # evaluates makes every amplitude of ``expand_by_residues`` wrong at
    # two poles or more, while N, which has no pole, evaluates right; the
    # series check, which takes R's amplitudes from their closed form,
    # must fail gamma's own expansion
    original = FactorCurrent.evaluate

    def one_pole_left_out(self, a):
        poles = [key for key, e in self.factors.items() if e < 0]
        return original(self.drop_factor(poles[-1]) if poles else self, a)
    narrow = times_x_minus_xinv(build_Xi(catalog_by_name("sA1-v2-t1"), 1))
    gammas = [*catalog_gammas.values(), narrow]
    right = [expand_by_residues(gamma) for gamma in gammas]
    monkeypatch.setattr(FactorCurrent, "evaluate", one_pole_left_out)
    for gamma, expansion in zip(gammas, right):
        wrong = expand_by_residues(gamma)
        assert [a for a, _ in wrong] == [a for a, _ in expansion]
        assert not any(x.equals(y) for (_, x), (_, y) in zip(wrong, expansion))
        assert not truncated_series_check(gamma)
        assert not truncated_series_check(gamma, wrong)
        assert truncated_series_check(gamma, expansion)


def test_series_check_aborts_as_the_expansion_does():
    # a pole that is not simple, or not at a monomial point, raises
    # NonSimplePole with expand_by_residues's text, for the first such
    # factor in factor order, with an expansion given or not
    w, v = Monomial.w(1, 1), Monomial.w(1, 2)
    good = FactorCurrent().times_linear(Monomial.q_int(1), e=-1)
    double = good.times_linear(w, e=-2).times_linear(v, GR(-1), -1)
    shifted = good.times_linear(v, GR(-1), -1).times_linear(w, e=-2)
    for gamma, text in ((double, "has exponent -2"),
                        (shifted, "is not at a monomial point")):
        with pytest.raises(NonSimplePole) as expected:
            expand_by_residues(gamma)
        assert text in str(expected.value)
        for expansion in (None, [], expand_by_residues(good)):
            with pytest.raises(NonSimplePole) as raised:
                truncated_series_check(gamma, expansion)
            assert str(raised.value) == str(expected.value)


def test_series_check_takes_any_order():
    # the check is exact on every coefficient and expands no series, so a
    # window of 2 * 10^12 + 1 coefficients costs what order 8 does
    gamma = times_x_minus_xinv(build_Xi(catalog_by_name("sA1-v1-t0"), 1))
    expansion = expand_by_residues(gamma)
    assert truncated_series_check(gamma, order=10 ** 12)
    assert truncated_series_check(gamma, expansion, order=10 ** 12)
    for bad in _corrupted(gamma, expansion):
        assert not truncated_series_check(gamma, bad, order=10 ** 12)
