import os
import subprocess
import sys
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from iqgklo.errors import (
    DenominatorVanishes, DoublePin, NonSimplePole, UnpinnedResidual,
)
from iqgklo.delta import (
    Distribution, FactorCurrent, bracket_q, canonicalize_compare,
    expand_by_residues, resolve_pins, symmetrize,
)
from iqgklo.gklo import build_B_image, build_W, build_Xi
from iqgklo.satake import build_catalog
from iqgklo.scalars import (
    GR, POLY_ONE, DMonomial, Monomial, Poly, Scalar, coeff_pow,
)


W = Monomial.w(1, 1)          # a whole coordinate
Q2 = Monomial.q_int(1)        # q


def kappa(var):
    # (1-q x)(1-q^{-1}x)/(1-x)^2
    return (FactorCurrent.one(var)
            .times_linear(Q2).times_linear(Q2.inverse())
            .times_linear(Monomial.one(), e=-2))


def test_simple_pole_residue_expansion():
    # x/(x-a) = (1 - a/x)^{-1}: two-sided expansion difference is delta at a
    gamma = FactorCurrent.one("x").times_linear_inv_arg(W, e=-1)
    d = expand_by_residues(gamma)
    terms = list(d.items())
    assert len(terms) == 1
    pins, coeff, dmon = terms[0]
    assert pins == {"x": W} and dmon.is_one()
    assert coeff.equals(Scalar.one())


def test_laurent_polynomial_has_empty_expansion():
    gamma = FactorCurrent.one("x").times_linear(W, e=2).times_power(-1)
    assert expand_by_residues(gamma).is_zero()


def test_nonsimple_pole_reported():
    gamma = FactorCurrent.one("x").times_linear(W, e=-2)
    with pytest.raises(NonSimplePole):
        expand_by_residues(gamma)
    gamma2 = FactorCurrent.one("x").times_linear(W, c=GR(-1), e=-1)
    with pytest.raises(NonSimplePole):
        expand_by_residues(gamma2)


def test_residue_matches_truncated_series():
    # gamma = c x (1 - M x)^{-1} with a spectator numerator factor
    gamma = (FactorCurrent.one("x").times_power(1)
             .times_linear(W, e=-1).times_linear(Q2))
    d = expand_by_residues(gamma)
    N = 6
    pref, plus = gamma.series_raw("infinity", N)
    _, minus = gamma.series_raw("zero", N)
    (pins, coeff, _), = d.items()
    a = pins["x"]
    for n in range(-N, N + 1):
        lhs = pref * Scalar(plus.get(n, Poly.zero())
                            - minus.get(n, Poly.zero()))
        # delta term contributes coeff * a^n to the coefficient of x^{-n}...
        rhs = coeff * Scalar.from_mono(a ** (-n))
        assert lhs.equals(rhs), n


def test_series_raw_empty_window_returns_no_coefficient():
    gamma = (FactorCurrent.one("x").times_power(1)
             .times_linear(W, e=-1).times_linear(Q2))
    for side in ("infinity", "zero"):
        for order, low in ((0, 1), (-3, 4), (5, 6)):
            pref, coeffs = gamma.series_raw(side, order, low)
            assert pref is gamma.pref
            assert coeffs == {}


def test_invert_and_scale_arg_roundtrip():
    fc = (FactorCurrent.one("u").times_power(2).times_linear(W, e=-1)
          .times_linear(Q2, e=1).scale(Scalar.q_int(3)))
    assert fc.invert_arg().invert_arg().equals(fc)
    assert fc.scale_arg(Q2).scale_arg(Q2.inverse()).equals(fc)


def test_kappa_inversion_symmetry():
    k = kappa("u")
    assert k.invert_arg().equals(k)


def test_leading_at_infinity():
    # q^3 * u^2 * (1 - w u): degree 3, top coefficient -q^3 w
    fc = (FactorCurrent.one("u").times_power(2).times_linear(W)
          .scale(Scalar.q_int(3)))
    deg, coeff = fc.leading_at_infinity()
    assert deg == 3
    assert coeff.equals(Scalar.from_mono(W, GR(-1)) * Scalar.q_int(3))


def test_pin_conjugation_through_shift():
    # moving target w/q left through the inverse shift multiplies by q^{-2}
    target = W * Q2.inverse()
    d = DMonomial.unit(1, 1, -1)
    assert target.conjugate(d) == W * Monomial.q_int(-3)


def test_multiply_dist_conjugates_second_pin():
    dinv = DMonomial.unit(1, 1, -1)
    x = Distribution.single({"u": W * Q2.inverse()}, Scalar.one(), dinv)
    y = Distribution.single({"v": W * Q2.inverse()}, Scalar.var("z:1:1"))
    prod = x * y
    (pins, coeff, dmon), = prod.items()
    assert pins == {"u": W * Q2.inverse(), "v": W * Monomial.q_int(-3)}
    assert coeff.equals(Scalar.var("z:1:1"))
    assert dmon == dinv


def test_double_pin_raises():
    x = Distribution.single({"u": W}, Scalar.one())
    with pytest.raises(DoublePin):
        x * x


def test_linked_pin_resolution():
    pins = resolve_pins({"u": W, "v": Monomial.unit("u", -1)})
    assert pins["v"] == W.inverse()


def test_pin_substitutes_coefficient():
    coeff = Scalar.var("u") - Scalar.q_int(1)
    d = Distribution.single({"u": Q2}, coeff)
    assert d.is_zero()


def test_symmetrize():
    a = Monomial.w(1, 1)
    b = Monomial.w(1, 2)
    x = Distribution.single({"u1": a, "u2": b}, Scalar.one())
    s = symmetrize(x, "u1", "u2")
    keys = sorted(tuple(sorted(p.items())) for p, _, _ in s.items())
    assert len(keys) == 2
    sym = Distribution.single({"u1": a, "u2": a}, Scalar.one())
    s2 = symmetrize(sym, "u1", "u2")
    (_, c, _), = s2.items()
    assert c.equals(Scalar.const(2))


def test_bracket_q():
    x = Distribution.single({}, Scalar.from_mono(W), DMonomial.one())
    y = Distribution.single({}, Scalar.one(), DMonomial.unit(1, 1))
    br = bracket_q(y, x, Scalar.q_int(2))
    # d w = q^2 w d, so [d, w]_{q^2} = 0
    assert br.is_zero()


def test_canonicalize_compare():
    x = Distribution.single({"u": W}, Scalar.one())
    assert canonicalize_compare(x, x) == []
    y = x + Distribution.single({"u": W * Q2}, Scalar.one())
    bad = canonicalize_compare(x, y)
    assert len(bad) == 1
    free = Distribution.single({"v": Monomial.unit("u", -1)}, Scalar.one())
    with pytest.raises(UnpinnedResidual):
        canonicalize_compare(free, free)


def _rename_two_phase(x, mapping):
    """Reference rename: every old name to a fresh name, then each fresh
    name to its new name, one variable at a time."""
    phases = [{old: f"ref~{k}" for k, old in enumerate(mapping)},
              {f"ref~{k}": mapping[old] for k, old in enumerate(mapping)}]
    out = Distribution()
    for pins, coeff, dmon in x.items():
        p, c = dict(pins), coeff
        for phase in phases:
            p2 = {}
            for v, M in p.items():
                for old, new in phase.items():
                    M = M.substitute({old: Monomial.unit(new)})
                p2[phase.get(v, v)] = M
            p = p2
            for old, new in phase.items():
                c = c.substitute({old: Monomial.unit(new)})
        out.add_term(p, c, dmon)
    return out


def _spectral_mix():
    """Terms pinning u1 and u2, with u1, u2, u and v left free in the
    coefficients and in one pin target, and a factored denominator."""
    u1, u2, u, v = (Scalar.var(n) for n in ("u1", "u2", "u", "v"))
    q = Scalar.q_int(1)
    # u*v^2 - u^2*v cancels once v is renamed to u
    coeff = (u1 * u1 - q * u2 * v + Scalar.from_mono(W, GR(1, 2)) * u
             + u * v * v - u * u * v) \
        / ((u1 - q * u2) * (Scalar.one() - q * v))
    x = Distribution.single({"u1": W}, coeff, DMonomial.unit(1, 1))
    x = x + Distribution.single({"u2": W * Q2}, coeff * u1)
    x = x + Distribution.single(
        {"u1": Monomial.unit("u") * Q2, "u2": W.inverse()}, coeff - v)
    return x + Distribution.single({}, coeff, DMonomial.unit(1, 2))


@pytest.mark.parametrize("mapping", [
    {"u1": "u2", "u2": "u1"},
    {"u1": "u2", "u2": "u", "u": "u1"},
    {"v": "u"},                     # onto a name the coefficients hold
])
def test_rename_matches_two_phase_reference(mapping):
    x = _spectral_mix()
    assert repr(x.rename_spectral(mapping)) == \
        repr(_rename_two_phase(x, mapping))


# In a fresh interpreter, so that names other tests registered cannot hide
# a registration made by the renaming.
RENAME_REGISTRY = """
from test_delta import _spectral_mix, symmetrize
from iqgklo import scalars
x = _spectral_mix()
names = list(scalars._NAMES)
symmetrize(x, "u1", "u2")
x.rename_spectral({"v": "u"})
print(scalars._NAMES[len(names):] if scalars._NAMES[:len(names)] == names
      else "reordered")
"""


def test_rename_registers_no_new_variable():
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"),
                            tests])
    out = subprocess.run([sys.executable, "-c", RENAME_REGISTRY],
                         env=dict(os.environ, PYTHONPATH=path,
                                  PYTHONDONTWRITEBYTECODE="1"),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# --- the merge kernels and the evaluation against their old forms --------


def _reference_add(x, y):
    """x + y with every term of both sides added again through add_term:
    the reference for the merge kernel."""
    out = Distribution()
    for pins, coeff, dmon in [*x.items(), *y.items()]:
        out.add_term(pins, coeff, dmon)
    return out


def _reference_map_coeff(x, fn):
    out = Distribution()
    for pins, coeff, dmon in x.items():
        out.add_term(pins, fn(pins, coeff), dmon)
    return out


def _reference_neg(x):
    return _reference_map_coeff(x, lambda pins, coeff: -coeff)


def _reference_sub(x, y):
    return _reference_add(x, _reference_neg(y))


def _factored(s):
    """A scalar's factored form, factor order included: equal forms print
    the same bytes."""
    return (s.c, s.m, s.num.terms, [(key, e) for key, (_, e) in s.f.items()])


def _assert_same_terms(got, want):
    # the order matters: randomized_equal visits groups in insertion order
    assert list(got.terms) == list(want.terms)
    for key, (pins, coeff) in got.terms.items():
        want_pins, want_coeff = want.terms[key]
        assert pins == want_pins
        assert _factored(coeff) == _factored(want_coeff)


@cache
def _b_products():
    """(Bu*Bv, Bv*Bu) for every ordered node pair of every catalog
    instance, and the two weighted products of the BB2 left side."""
    u, v, q2 = Scalar.var("u"), Scalar.var("v"), Scalar.q_int(2)
    out = []
    for inst in build_catalog():
        nodes = inst.diagram.nodes()
        images = {i: (build_B_image(inst, i), build_B_image(inst, i, var="v"))
                  for i in nodes}
        for i in nodes:
            for j in nodes:
                bu, bv = images[i][0], images[j][1]
                x, y = bu * bv, bv * bu
                out.append((x, y))
                out.append((x.map_coeff(lambda p, c: (u - q2 * v) * c),
                            y.map_coeff(lambda p, c: (v - q2 * u) * c)))
    return out


def test_merge_kernels_match_add_term_path():
    merged = 0
    for x, y in _b_products():
        for a, b in ((x, y), (y, x), (x, x)):
            total = a + b
            _assert_same_terms(total, _reference_add(a, b))
            _assert_same_terms(a - b, _reference_sub(a, b))
            merged += len(a.terms) + len(b.terms) - len(total.terms)
        _assert_same_terms(-x, _reference_neg(x))
        # a zero sum keeps its slot, so a sum with a cancelled term inside
        # must match too
        _assert_same_terms((x - x) + y, _reference_add(_reference_sub(x, x),
                                                       y))
    assert merged


def test_map_coeff_matches_add_term_path():
    u = Scalar.var("u")

    def fn(pins, coeff):
        # the new coefficient holds the pinned u, which is substituted
        return (u - Scalar.q_int(1)) * coeff
    for x, _ in _b_products():
        _assert_same_terms(x.map_coeff(fn), _reference_map_coeff(x, fn))


def test_map_coeff_substitutes_pins_and_keeps_pin_free_coefficients():
    x = Distribution.single({"u": W}, Scalar.one())
    u, q = Scalar.var("u"), Scalar.q_int(1)
    # a new coefficient holding the pinned u gets the pin substituted, as
    # the multiply-then-substitute references rely on
    ((_, coeff, _),) = x.map_coeff(lambda pins, c: (u - q) * c).items()
    assert not coeff.has_var("u")
    assert coeff.equals(Scalar.from_mono(W) - q)
    # a pin-free one is kept as it is, also when it holds a free variable
    for free in (Scalar.from_mono(W) + q, Scalar.var("v") - q):
        ((_, coeff, _),) = x.map_coeff(lambda pins, c: free).items()
        assert coeff is free


def _reference_evaluate(fc, a):
    """FactorCurrent.evaluate as |e| products or quotients per factor."""
    out = fc.pref * Scalar.from_mono(a ** fc.power)
    for (c, M), e in fc.factors.items():
        lin = Scalar(POLY_ONE - Poly.mono(M * a, c))
        if lin.is_zero():
            if e < 0:
                raise DenominatorVanishes("pole")
            return Scalar.zero()
        for _ in range(abs(e)):
            out = out * lin if e > 0 else out / lin
    return out


def _evaluated(fc, a, evaluate):
    try:
        s = evaluate(fc, a)
    except DenominatorVanishes:
        return "pole"
    return _factored(s), repr(s)


def _currents_and_points():
    """Each catalog Xi current and W current with its points: its own
    variable, the pin targets of every B image of the instance, and the
    point where each of its linear factors vanishes."""
    for inst in build_catalog():
        nodes = inst.diagram.nodes()
        pins = {M for i in nodes
                for p, _, _ in build_B_image(inst, i).items()
                for M in p.values()}
        for i in nodes:
            for fc in (build_Xi(inst, i), build_W(inst, i, "u"),
                       build_W(inst, i, "u").invert_arg()):
                roots = {M.inverse() for c, M in fc.factors if c == 1}
                yield fc, [Monomial.unit("u"), *pins, *roots]


def test_evaluate_matches_repeated_products():
    outcomes = set()
    for fc, points in _currents_and_points():
        for a in points:
            got = _evaluated(fc, a, FactorCurrent.evaluate)
            assert got == _evaluated(fc, a, _reference_evaluate)
            outcomes.add("pole" if got == "pole" else
                         "zero" if not got[0][0] else "value")
    assert outcomes == {"pole", "zero", "value"}


def test_evaluate_moves_a_factor_whose_exponent_passes_zero():
    # the prefactor divides by 1 - q^2 and the square of 1 - q*x brings it
    # back at x = q: one product at a time drops the factor and puts it
    # back last, and the one-step absorption must do the same
    q, one = Monomial.q_int(1), Poly.const(1)
    pref = Scalar(one - Poly.mono(q ** 6), one - Poly.mono(q ** 2))
    fc = FactorCurrent("x", pref=pref).times_linear(q, e=2)
    (k2, e2), (k6, e6) = ((key, e) for key, (_, e) in pref.f.items())
    assert (e2, e6) == (-1, 1)
    got = _evaluated(fc, q, FactorCurrent.evaluate)
    assert got == _evaluated(fc, q, _reference_evaluate)
    assert got[0][3] == [(k6, 1), (k2, 1)]


def test_leading_at_infinity_matches_repeated_products():
    for fc, _ in _currents_and_points():
        coeff = fc.pref
        for (c, M), e in fc.factors.items():
            unit = Scalar.from_mono(M, -c)
            for _ in range(abs(e)):
                coeff = coeff * unit if e > 0 else coeff / unit
        got = fc.leading_at_infinity()[1]
        assert _factored(got) == _factored(coeff)
        assert repr(got) == repr(coeff)


# --- the copies of a current against the normalizing constructor ---------


def _normalized_step(fc, op):
    """One step of a chain through the normalizing constructor, from the
    current's factor items."""
    items = list(fc.factors.items())
    var, pref, power = fc.var, fc.pref, fc.power
    kind, *args = op
    if kind == "times_linear":
        M, c, e = args
        return FactorCurrent(var, pref, power, [*items, ((c, M), e)])
    if kind == "drop_factor":
        (key,) = args
        return FactorCurrent(var, pref, power,
                             [(k, e) for k, e in items if k != key])
    if kind == "inverse":
        return FactorCurrent(var, pref.inverse(), -power,
                             [(k, -e) for k, e in items])
    if kind == "times_power":
        return FactorCurrent(var, pref, power + args[0], items)
    if kind == "scale":
        return FactorCurrent(var, pref * args[0], power, items)
    if kind == "rename_var":
        return FactorCurrent(args[0], pref, power, items)
    if kind == "conjugate":
        (d,) = args
        return FactorCurrent(var, pref.conjugate(d), power,
                             [((c, M.conjugate(d)), e) for (c, M), e in items])
    M, c = args                                         # scale_arg
    pref = pref * Scalar.from_mono(M ** power, coeff_pow(c, power))
    return FactorCurrent(var, pref, power,
                         [((ct * c, Mt * M), e) for (ct, Mt), e in items])


def _state(fc):
    return fc.var, fc.power, list(fc.factors.items())


# few monomials and coefficients, so that factors often merge and cancel
CHAIN_MONOS = st.sampled_from([Monomial.one(), W, Q2, W * Q2, W.inverse()])
CHAIN_COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 2), GR(0, 1)])
CHAIN_STEP = st.one_of(
    st.tuples(st.just("times_linear"), CHAIN_MONOS, CHAIN_COEFFS,
              st.integers(-2, 2)),
    st.tuples(st.just("drop_factor"), st.integers(0, 7)),
    st.tuples(st.just("inverse")),
    st.tuples(st.just("times_power"), st.integers(-3, 3)),
    st.tuples(st.just("scale"), st.sampled_from(
        [Scalar.q_int(1), Scalar.var("u") + Scalar.one(),
         Scalar.from_mono(W, GR(1, 2))])),
    st.tuples(st.just("rename_var"), st.sampled_from(["x", "y"])),
    st.tuples(st.just("conjugate"), st.sampled_from(
        [DMonomial.unit(1, 1), DMonomial.unit(1, 1, -1)])),
    st.tuples(st.just("scale_arg"), CHAIN_MONOS, CHAIN_COEFFS))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(CHAIN_STEP, max_size=14))
def test_copies_match_the_normalizing_constructor(chain):
    fc = FactorCurrent.one("x")
    for op in chain:
        if op[0] == "drop_factor":
            if not fc.factors:
                continue
            op = ("drop_factor", list(fc.factors)[op[1] % len(fc.factors)])
        before, pref = _state(fc), fc.pref
        got = getattr(fc, op[0])(*op[1:])
        want = _normalized_step(fc, op)
        # the operand is left as it was
        assert _state(fc) == before and fc.pref is pref
        assert _state(got) == _state(want)
        assert _factored(got.pref) == _factored(want.pref)
        fc = got
