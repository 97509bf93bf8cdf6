import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product
from math import isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from iqgklo import oracle, scalars
from iqgklo.cli import instance_from_description
from iqgklo.delta import (
    Distribution, FactorCurrent, expand_by_residues, simple_poles,
)
from iqgklo.errors import (
    BadSpecialization, DenominatorVanishes, DivisionByZero, NonSimplePole,
)
from iqgklo.gklo import build_B_image, build_Xi, times_x_minus_xinv
from iqgklo.oracle import (
    I, P, _plan, act, randomized_equal, residue,
    truncated_series_check,
)
from iqgklo.relations import RelationChecker
from iqgklo.satake import build_catalog, catalog_by_name
from iqgklo.scalars import (
    _FACTORS, GR, GR_I, DMonomial, Monomial, Poly, Scalar, add_into,
    coeff_inverse, unpack_poly, z_var,
)
from iqgklo.torus import TorusElement
from test_gklo import SHIFTED
from test_scalars import _mod_p, fresh_factor_tables, ref_scalars


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
    its denominator parts and the parts left on its two sides."""
    out = set()
    for dens, _, _, _, _, up, down in groups:
        out |= dens | {key for key, _ in up | down}
    return out


def _factor_keys(*dists):
    """Every factor key of a coefficient of the distributions."""
    return {key for dist in dists for c in dist.terms.values()
            for key in c.f}


def _exps(key):
    """The exponents of a packed monomial key, decoded through a one-term
    Poly."""
    (mono,) = unpack_poly(Poly({key: 1}))
    return mono.exps


def test_randomized_equal_evaluates_each_needed_part_once_per_batch(
        monkeypatch):
    # the 20 trials run as one batch, with no retry on this pair: each part
    # a verdict needs is evaluated once in it, and each power vector that
    # an evaluated part reads is built once; on this all-equal pair the
    # two sides agree in every attempt, so a part that is only ever a
    # shared numerator part is not evaluated
    inst = catalog_by_name("sA1-v1-t0")
    lhs, rhs = RelationChecker(inst).eval_pair("BB2", 1, 1)
    _, groups = _plan(lhs, rhs)
    parts, needed = _factor_keys(lhs, rhs), _needed(groups)
    assert len(parts) == 16 and len(parts - needed) == 8
    key_of = {id(_FACTORS[key]): key for key in parts}
    evaluated, built = Counter(), Counter()
    kept = []                       # kept alive, so no id is reused
    part_values, power_vector = oracle._part_values, oracle._power_vector

    def counted_part(part, powers, n):
        kept.append(powers)
        evaluated[id(powers), key_of[id(part)]] += 1
        assert n == 20
        return part_values(part, powers, n)

    def counted_power(xs, e):
        kept.append(xs)
        built[id(xs), e] += 1
        return power_vector(xs, e)
    monkeypatch.setattr(oracle, "_part_values", counted_part)
    monkeypatch.setattr(oracle, "_power_vector", counted_power)
    assert randomized_equal(lhs, rhs, trials=20, seed=0) == (True, 20)
    assert len({batch for batch, _ in evaluated}) == 1
    assert max(evaluated.values()) == max(built.values()) == 1
    assert {key for _, key in evaluated} == needed and len(needed) == 8
    reads = {(v, e) for key in needed
             for mono in unpack_poly(_FACTORS[key]) for v, e in mono.exps}
    reads |= {ve for group in groups for ve in _exps(group[4])}
    assert len(built) == len(reads)


def test_randomized_equal_decodes_only_the_parts_it_evaluates(monkeypatch):
    # the draws' variables come off the scalars' occupancy masks, so a
    # call decodes the layout of each part it evaluates, once, and of no
    # other: here half the parts are only ever shared numerator parts.
    # Fresh factor tables make every part a fresh Poly, with no layout
    # that an earlier test decoded
    fresh_factor_tables(monkeypatch)
    inst = catalog_by_name("sA1-v1-t0")
    lhs, rhs = RelationChecker(inst).eval_pair("BB2", 1, 1)
    parts = _factor_keys(lhs, rhs)
    decoded, evaluated = [], []
    eval_layout, part_values = scalars._eval_layout, oracle._part_values

    def counted_layout(terms):
        decoded.append(terms)
        return eval_layout(terms)

    def counted_part(part, powers, n):
        evaluated.append(part)
        return part_values(part, powers, n)
    monkeypatch.setattr(scalars, "_eval_layout", counted_layout)
    monkeypatch.setattr(oracle, "_part_values", counted_part)
    assert randomized_equal(lhs, rhs, trials=20, seed=0) == (True, 20)
    assert sorted(map(id, decoded)) == sorted(id(p.terms) for p in evaluated)
    assert {id(p) for p in evaluated} < {id(scalars._FACTORS[key])
                                        for key in parts}


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
    # a group that differs from an earlier one only in one side's constant,
    # or only in its unit monomial, is planned on its own, and its
    # mismatch is found
    for d in (c * Scalar.const(2), c * Scalar.var("q", 2)):
        x = Distribution.single({}, c) + Distribution.single({}, c, shift)
        y = Distribution.single({}, c) + Distribution.single({}, d, shift)
        first, second = _plan(x, y)[1]
        assert [a == b for a, b in zip(first, second)].count(False) == 1
        assert randomized_equal(x, y, trials=20, seed=0) == (False, 1) == \
            _reference_randomized_equal(x, y, trials=20, seed=0)
    # on a shifted pair, groups 3 and 4 repeat groups 1 and 2
    inst = instance_from_description(SHIFTED["A1-f3-s1"])
    lhs, rhs = RelationChecker(inst).eval_pair("BB2", 1, 1)
    assert len(lhs.terms.keys() | rhs.terms.keys()) == 4
    assert len(_plan(lhs, rhs)[1]) == 2


# Records, in a fresh interpreter, every coefficient the oracle plans on
# the qsA2-v11 BB3[1,2] pair, in order; the plan's groups are compared in
# that order, x's side of each group before y's.
VISITS = """
import json
from iqgklo import oracle
from iqgklo.relations import RelationChecker
from iqgklo.satake import catalog_by_name
lhs, rhs = RelationChecker(catalog_by_name("qsA2-v11")).eval_pair("BB3", 1, 2)
seen = []
original = oracle._group

def recorded(sx, sy):
    seen.extend((repr(sx), repr(sy)))
    return original(sx, sy)
oracle._group = recorded
oracle.randomized_equal(lhs, rhs, trials=1, seed=0)
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


def _reference_residues(rng, n):
    """n residues in 1 .. P-1, each the next value of getrandbits(30) that
    is one."""
    out = []
    while len(out) < n:
        r = rng.getrandbits(30)
        if 0 < r < P:
            out.append(r)
    return out


def _reference_draw(rng, mono_rng, variables):
    """One attempt's draws, made the long way: a residue for each variable
    in name order off ``rng``, then, off ``mono_rng``, the test monomial
    and a value of q where the pair holds none, since acting on the test
    monomial brings in powers of q."""
    names = sorted(variables)
    assignment = dict(zip(names, _reference_residues(rng, len(names))))
    f = _random_test_monomial(mono_rng, variables)
    if "q" not in assignment:
        assignment["q"] = mono_rng.randrange(1, P)
    return assignment, f


def _kept_pairs(report):
    """{(kind, i, j): (lhs, rhs)} over the results that compared sides."""
    return {(r.kind, *r.pair): r.sides for r in report.results
            if r.sides is not None}


def _variables(x, y):
    """Every variable that a part of a coefficient holds, its unit monomial
    or a factor, read off the part's decoded terms."""
    out = set()
    for g in (x.terms, y.terms):
        for c in g.values():
            out |= {v for v, _ in _exps(c.m)}
            for key in c.f:
                out |= {v for mono in unpack_poly(_FACTORS[key])
                        for v, _ in mono.exps}
    return out


@pytest.mark.parametrize("name", ["sA1-v1-t1", "sA1-v2-t0", "qsA3-t0",
                                  "qsA2-v11"])
def test_randomized_equal_draws_once_per_attempt_off_the_seed_stream(
        name, monkeypatch):
    # each attempt draws one nonzero residue per variable of the pair, in
    # name order, from where the previous attempt left the seed's stream,
    # and the reference reads the same residues
    report = RelationChecker(catalog_by_name(name)).run()
    lhs, rhs = max(_kept_pairs(report).values(),
                   key=lambda pair: len(_variables(*pair)))
    names = sorted(_variables(lhs, rhs))
    assert any(v.startswith("w:") for v in names)
    records = []
    draw = oracle._random_points

    def recorded(rng, n):
        records.append((rng.getstate(), n, draw(rng, n)))
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
    assert len(records) == len(attempts) >= 5
    rng = random.Random(3)
    for (state, n, points), (assignment, _) in zip(records, attempts):
        assert rng.getstate() == state and n == len(names)
        assert points == _reference_residues(rng, n) == \
            [assignment[v] for v in names]
        assert all(0 < r < P for r in points)


class _Stream:
    """A generator whose getrandbits(30) returns the given values in
    order."""

    def __init__(self, values):
        self.values = iter(values)

    def getrandbits(self, k):
        assert k == 30
        return next(self.values)


def test_random_points_are_the_nonzero_residues_of_the_stream():
    # 0 and every value from P up are rejected, the rest kept in order
    stream = _Stream([0, 5, P, P - 1, 2**30 - 1, 1, 7])
    assert oracle._random_points(stream, 3) == [5, P - 1, 1]
    assert oracle._random_points(stream, 0) == []
    assert oracle._random_points(stream, 1) == [7]


@pytest.mark.parametrize("n", [1, 4, 9])
def test_random_points_read_the_seeded_stream(n):
    # each draw leaves the stream where the reference leaves it
    for seed in range(20):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert oracle._random_points(rng, n) == \
                _reference_residues(ref, n)
            assert rng.getstate() == ref.getstate()


def _draws(x, y, seed):
    """The oracle's support groups and its stream of random
    (assignment, test monomial) draws for one seed, made the long way;
    the test monomials come off a stream of their own."""
    gx, gy = x.terms, y.terms
    variables = _variables(x, y)
    rng, mono_rng = random.Random(seed), random.Random(f"monomial {seed}")
    return gx, gy, [*gx, *(k for k in gy if k not in gx)], \
        lambda: _reference_draw(rng, mono_rng, variables)


def _reference_randomized_equal(x, y, trials, seed, max_retries=200,
                                draw=None):
    """The full-product oracle: act on the test monomial with the whole
    symbolic coefficient, evaluate the product exactly at the drawn
    residues taken as integers, and reduce it mod P.  A draw where a
    value cannot be taken, or where a denominator factor of either
    coefficient is 0 mod P, is retried.  ``draw`` replaces the seed's
    stream of draws when given."""
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
                cx, cy = (g.get(key, Scalar.zero()) for g in (gx, gy))
                if any(not _mod_p(Scalar(p).eval_numeric(a))
                       for c in (cx, cy) for p in c.den_factors()):
                    raise DenominatorVanishes("0 mod P")
                vx, vy = (_mod_p(act((c, dmon), f).eval_numeric(a))
                          for c in (cx, cy))
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
        if not (pref * Scalar(Poly(val))).equals(expect):
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
               for x in [c.c, *(y for key in c.f
                                for y in _FACTORS[key].terms.values())])


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
    """Make the oracle draw the given residues, each assignment's in name
    order, and return the same stream of (assignment, test monomial)
    draws for the reference."""
    points = iter([[a[v] for v in sorted(a)] for a in assignments])

    def scripted(rng, n):
        drawn = next(points)
        assert len(drawn) == n
        return drawn
    monkeypatch.setattr(oracle, "_random_points", scripted)
    draws = iter(assignments)
    return lambda: (next(draws), Monomial.one())


# a torus variable that the shift d_{1,1} leaves alone; a coefficient of a
# distribution holds no spectral variable
T = z_var(1, 1)
# 1 - q^2 t is 0 mod P at the first assignment, t = 4^-1 mod P, though not
# over the rationals, and is not 0 mod P at the second
ONE_MINUS_QT = Scalar.one() - Scalar.var("q", 2) * Scalar.var(T)
VANISH_THEN_NOT = [{"q": 2, T: pow(4, -1, P)}, {"q": 3, T: 5}]
# assignments where 1 - q^2 t, 1 + t and 2 + t vanish nowhere, the rest of
# a batch of five trials
NOWHERE_ZERO = [{"q": 3 + k, T: 6 + k} for k in range(3)]


def test_vanishing_shared_numerator_part_leaves_the_group_equal(
        monkeypatch):
    # both sides hold 1 - q t in their numerators; where it vanishes, both
    # sides are 0, so the group is equal in that trial, and the mismatch
    # of 1 + t and 2 + t shows only in the second
    x = Distribution.single(
        {}, ONE_MINUS_QT * (Scalar.one() + Scalar.var(T)))
    y = Distribution.single(
        {}, ONE_MINUS_QT * (Scalar.const(2) + Scalar.var(T)))
    ((_, shared, *_),) = _plan(x, y)[1]
    assert shared
    draw = _scripted(monkeypatch, VANISH_THEN_NOT + NOWHERE_ZERO)
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
    ((dens, _, _, _, _, up, down),) = _plan(x, y)[1]
    assert dens and not dens & {key for key, _ in up | down}
    draw = _scripted(monkeypatch, VANISH_THEN_NOT + NOWHERE_ZERO)
    assert randomized_equal(x, y, trials=5, seed=0) == (False, 1) == \
        _reference_randomized_equal(x, y, 5, 0, draw=draw)


# Three support groups, group g over its own variables s, r and m: x's
# coefficient (1 - r) m / (1 - s) against y's (1 - r) / (1 - s) plans to
# the denominator part 1 - s, the shared numerator part 1 - r and the
# sides m, the unit monomial, against 1.  So an assignment places each
# event of a group by its values: s = 1 vanishes the denominator, m != 1
# is a mismatch, and r = 1 vanishes the shared numerator, which hides
# one.
EVENT_VARS = [[z_var(g, k) for k in (1, 2, 3)] for g in (1, 2, 3)]
# (denominator vanishes, sides differ, shared numerator vanishes)
NONE, DEN, DIFF, HIDDEN = ((False, False, False), (True, False, False),
                          (False, True, False), (False, True, True))


def _event_pair():
    x, y = Distribution(), Distribution()
    for g, (s, r, m) in enumerate(EVENT_VARS, 1):
        den, shared = (Scalar.one() - Scalar.var(v) for v in (s, r))
        shift = DMonomial.unit(1, g)
        x = x + Distribution.single({}, shared * Scalar.var(m) / den, shift)
        y = y + Distribution.single({}, shared / den, shift)
    return x, y


def _event_assignment(events, others=(2, 3, 4)):
    """The assignment that places one attempt's events, one triple per
    group; a variable that places none takes a value from ``others``."""
    a, b, c = others
    out = {}
    for (s, r, m), (den, diff, hide) in zip(EVENT_VARS, events):
        out.update({s: 1 if den else a, r: 1 if hide else b,
                    m: c if diff else 1})
    return out


def _run_events(monkeypatch, attempts, trials, others=(2, 3, 4)):
    """randomized_equal and its reference on the event pair, both drawing
    the scripted attempts, then attempts without events; and the number of
    attempts the oracle drew."""
    x, y = _event_pair()
    stream = [_event_assignment(events, others) for events in attempts]
    stream += [_event_assignment([NONE] * 3, others)] * (2 * trials)
    draw = _scripted(monkeypatch, stream)
    calls = []
    scripted = oracle._random_points

    def counted(rng, n):
        calls.append(n)
        return scripted(rng, n)
    monkeypatch.setattr(oracle, "_random_points", counted)
    got = randomized_equal(x, y, trials, 0)
    assert got == _reference_randomized_equal(x, y, trials, 0, draw=draw)
    return got, len(calls)


def test_event_pair_plans_one_part_of_each_kind_per_group():
    x, y = _event_pair()
    groups = _plan(x, y)[1]
    assert len(groups) == 3
    for (dens, shared, _, _, unit, up, down), (s, r, m) in zip(
            groups, EVENT_VARS):
        assert len(dens) == len(shared) == 1
        assert not up and not down
        assert unit == Monomial.unit(m).key


@pytest.mark.parametrize("attempts, trials, expected, drawn", [
    # a mismatch in group 1 decides the attempt before group 2's vanishing
    # denominator: False, not a retry
    ([[DIFF, DEN, NONE]], 3, (False, 1), 3),
    # group 2's vanishing denominator retries the attempt before group 3's
    # mismatch is met, and the next batch draws the one missing trial
    ([[NONE, DEN, DIFF]], 3, (True, 3), 4),
    # a retry followed by passing attempts
    ([[NONE, NONE, DEN], [DEN, DIFF, NONE]], 3, (True, 3), 5),
    # a vanishing shared numerator hides a mismatch; a retry; then a
    # mismatch at trial 2, in the second batch
    ([[HIDDEN, NONE, NONE], [DEN, NONE, NONE], [NONE, NONE, NONE],
      [NONE, DIFF, NONE]], 3, (False, 3), 4),
    ([[HIDDEN, NONE, NONE], [NONE, DEN, NONE], [NONE, HIDDEN, DIFF]], 3,
     (False, 2), 3),
])
def test_batched_oracle_outcome_is_each_attempts_first_event(
        monkeypatch, attempts, trials, expected, drawn):
    assert _run_events(monkeypatch, attempts, trials) == (expected, drawn)


def test_batched_oracle_draws_at_most_a_batch_at_once(monkeypatch):
    # batches of two: a pass and a retry, two passes (one a hidden
    # mismatch), then a mismatch at trial 4 in the third batch
    monkeypatch.setattr(oracle, "BATCH", 2)
    attempts = [[NONE] * 3, [NONE, DEN, NONE], [NONE] * 3,
                [HIDDEN, NONE, NONE], [DIFF, NONE, NONE]]
    assert _run_events(monkeypatch, attempts, 5) == ((False, 4), 6)


@settings.get_profile(os.environ.get("IQGKLO_ORACLE_PROFILE", "oracle"))
@given(st.lists(st.lists(st.sampled_from([NONE, DEN, DIFF, HIDDEN]),
                         min_size=3, max_size=3), max_size=8),
       st.integers(1, 5),
       st.lists(st.integers(2, P - 1), min_size=3, max_size=3))
def test_batched_oracle_matches_reference_on_scripted_events(
        attempts, trials, others):
    # vanishing denominators, mismatches and hidden mismatches at random
    # attempts and groups: the batch gives the reference's (verdict, trials)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _run_events(monkeypatch, attempts, trials, others)


@pytest.mark.parametrize("passes, retries, trials, expected", [
    (0, 201, 1, (True, 1)),
    (0, 202, 1, "exceeded 200 retries at trial 0"),
    (2, 201, 5, (True, 5)),
    (2, 202, 5, "exceeded 200 retries at trial 4"),
    (2, 211, 5, "exceeded 200 retries at trial 2"),
    (0, 205, 2, "exceeded 200 retries at trial 0"),
])
def test_batched_oracle_keeps_the_retry_cap_per_attempt(
        monkeypatch, passes, retries, trials, expected):
    # passing attempts, then retries, then passing attempts again: attempt
    # k may run while k <= MAX_RETRIES + trials + 1, counted per attempt
    # across batches, and the message names the trials passed, as before
    x, y = _event_pair()
    stream = [_event_assignment([NONE] * 3)] * passes
    stream += [_event_assignment([DEN, DIFF, DIFF])] * retries
    stream += [_event_assignment([NONE] * 3)] * (2 * trials)
    draw = _scripted(monkeypatch, stream)
    if isinstance(expected, tuple):
        assert randomized_equal(x, y, trials, 0) == expected == \
            _reference_randomized_equal(x, y, trials, 0, draw=draw)
        return
    with pytest.raises(BadSpecialization) as e:
        randomized_equal(x, y, trials, 0)
    assert str(e.value) == expected


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


def test_residue_reduces_each_component_through_its_denominator():
    assert residue(Fraction(1, 3)) == (P + 1) // 3
    assert residue(Fraction(-5, 2)) == (P - 5) // 2
    assert residue(GR(2, -1)) == (2 - I) % P
    assert residue(GR(Fraction(1, 3), 1)) == ((P + 1) // 3 + I) % P


@pytest.mark.parametrize("c", [Fraction(1, P), Fraction(-3, 2 * P),
                               GR(1, Fraction(1, P)),
                               GR(Fraction(2, 3 * P), 5)])
def test_residue_of_a_denominator_divisible_by_p_is_a_bad_specialization(c):
    # such a coefficient has no residue mod P; the oracle says so, naming
    # it, and does not crash with a bare ValueError
    with pytest.raises(BadSpecialization) as e:
        residue(c)
    assert str(e.value) == f"coefficient {c} has a denominator divisible by P"
    x = Distribution.single({}, Scalar.var("q") * Scalar.const(c))
    with pytest.raises(BadSpecialization):
        randomized_equal(x, x, trials=2, seed=0)


_q, _one, _p = Scalar.var("q"), Scalar.one(), Scalar.const(P)


# residues decide: constants that differ by a multiple of P agree, i agrees
# with I, and two quotients over different denominators agree where their
# cross products differ by a multiple of P; sides that differ mod P, in
# either component, do not
@pytest.mark.parametrize("a, b, same", [
    (_q * Scalar.const(Fraction(1, 3)), _q * Scalar.const((P + 1) // 3),
     True),
    (_q * Scalar.const(GR(1, 1)), _q * Scalar.const(GR(1 + P, 1 - P)), True),
    (_q * Scalar.const(GR_I), _q * Scalar.const(I), True),
    (_q / (_one + _q), (_q + _p) / (_one + _q + _p * _q), True),
    (_q / (_one + _q), (_q + _one) / (_one + _q + _q), False),
    (_q * Scalar.const(GR(1, 1)), _q * Scalar.const(GR(1 + P, 2)), False),
])
def test_randomized_equal_compares_the_sides_mod_p(a, b, same):
    x, y = (Distribution.single({}, c) for c in (a, b))
    for u, v in ((x, y), (y, x)):
        assert randomized_equal(u, v, trials=5, seed=0) == \
            ((True, 5) if same else (False, 1))


def test_residue_map_field_is_prime_with_a_square_root_of_minus_one():
    assert P < 2**30 and P % 4 == 1
    assert all(P % k for k in range(2, isqrt(P) + 1))
    assert I * I % P == P - 1


gaussians = st.builds(GR, st.fractions(max_denominator=60),
                      st.fractions(max_denominator=60))


@settings.get_profile(os.environ.get("IQGKLO_ORACLE_PROFILE", "oracle"))
@given(gaussians, gaussians)
def test_residue_map_is_a_ring_homomorphism(a, b):
    assert residue(1) == 1 and residue(GR_I) == I
    assert residue(a + b) == (residue(a) + residue(b)) % P
    assert residue(a * b) == residue(a) * residue(b) % P
    assert residue(-a) == -residue(a) % P
    if a and residue(a):
        assert residue(coeff_inverse(a)) * residue(a) % P == 1


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
    return Poly(value)


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
