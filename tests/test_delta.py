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
    expand_by_residues, symmetrize,
)
from iqgklo.gklo import build_B_image, build_W, build_Xi
from iqgklo.satake import build_catalog
from iqgklo.scalars import (
    GR, POLY_ONE, DMonomial, Monomial, Poly, Scalar, coeff_pow, z_var,
)


W = Monomial.w(1, 1)          # a whole coordinate
Q2 = Monomial.q_int(1)        # q
Z = Scalar.var(z_var(1, 1))   # a torus scalar that no shift part moves


def kappa():
    # (1-q u)(1-q^{-1}u)/(1-u)^2
    return (FactorCurrent()
            .times_linear(Q2).times_linear(Q2.inverse())
            .times_linear(Monomial.one(), e=-2))


def test_simple_pole_residue_expansion():
    # u/(u-a) = (1 - a/u)^{-1}: two-sided expansion difference is delta at a
    gamma = FactorCurrent().times_linear_inv_arg(W, e=-1)
    ((pin, coeff),) = expand_by_residues(gamma)
    assert pin == W
    assert coeff.equals(Scalar.one())


def test_laurent_polynomial_has_empty_expansion():
    gamma = FactorCurrent().times_linear(W, e=2).times_power(-1)
    assert expand_by_residues(gamma) == []


def test_nonsimple_pole_reported():
    gamma = FactorCurrent().times_linear(W, e=-2)
    with pytest.raises(NonSimplePole, match=r"\*u\) has exponent -2"):
        expand_by_residues(gamma)
    gamma2 = FactorCurrent().times_linear(W, c=GR(-1), e=-1)
    with pytest.raises(NonSimplePole, match="is not at a monomial point"):
        expand_by_residues(gamma2)


def test_residue_matches_truncated_series():
    # gamma = c u (1 - M u)^{-1} with a spectator numerator factor
    gamma = (FactorCurrent().times_power(1)
             .times_linear(W, e=-1).times_linear(Q2))
    N = 6
    pref, plus = gamma.series_raw("infinity", N)
    _, minus = gamma.series_raw("zero", N)
    (a, coeff), = expand_by_residues(gamma)
    for n in range(-N, N + 1):
        lhs = pref * Scalar(plus.get(n, Poly.zero())
                            - minus.get(n, Poly.zero()))
        # delta term contributes coeff * a^n to the coefficient of u^{-n}...
        rhs = coeff * Scalar.from_mono(a ** (-n))
        assert lhs.equals(rhs), n


def test_series_raw_empty_window_returns_no_coefficient():
    gamma = (FactorCurrent().times_power(1)
             .times_linear(W, e=-1).times_linear(Q2))
    for side in ("infinity", "zero"):
        for order, low in ((0, 1), (-3, 4), (5, 6)):
            pref, coeffs = gamma.series_raw(side, order, low)
            assert pref is gamma.pref
            assert coeffs == {}


def test_invert_and_scale_arg_roundtrip():
    fc = (FactorCurrent().times_power(2).times_linear(W, e=-1)
          .times_linear(Q2, e=1).scale(Scalar.q_int(3)))
    assert fc.invert_arg().invert_arg().equals(fc)
    assert fc.scale_arg(Q2).scale_arg(Q2.inverse()).equals(fc)


def test_kappa_inversion_symmetry():
    k = kappa()
    assert k.invert_arg().equals(k)


def test_leading_at_infinity():
    # q^3 * u^2 * (1 - w u): degree 3, top coefficient -q^3 w
    fc = (FactorCurrent().times_power(2).times_linear(W)
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


# --- every term is a point of the torus ------------------------------------


def test_add_term_raises_on_an_unresolved_term():
    d = Distribution()
    # a pin target holding a spectral variable
    with pytest.raises(UnpinnedResidual):
        d.add_term({"v": Monomial.unit("u", -1)}, Scalar.one(),
                   DMonomial.one())
    # a coefficient holding its term's pinned variable
    with pytest.raises(UnpinnedResidual):
        d.add_term({"u": Q2}, Scalar.var("u") - Scalar.q_int(1),
                   DMonomial.one())
    # a coefficient holding a spectral variable the term does not pin
    with pytest.raises(UnpinnedResidual):
        d.add_term({"u": Q2}, Scalar.var("v"), DMonomial.one())
    assert d.is_zero() and not d.terms
    # a torus coefficient goes in
    d.add_term({"u": Q2}, Z, DMonomial.one())
    assert len(d.terms) == 1


def test_a_distribution_keeps_no_zero_coefficient():
    x = Distribution.single({"u": W}, Scalar.one()) \
        + Distribution.single({}, Z)
    assert (x - x).is_zero() and not (x - x).terms
    assert not Distribution.single({}, Scalar.zero()).terms
    assert not x.scale(Scalar.zero()).terms
    ((pins, _, _),) = x.map_coeff(
        lambda pins, c: c if pins else Scalar.zero()).items()
    assert pins == {"u": W}
    # a term that cancels and then takes a later summand is a new term,
    # after the others
    y = x + Distribution.single({"u": W}, -Scalar.one()) \
        + Distribution.single({"u": W}, Z)
    assert [pins for pins, _, _ in y.items()] == [{}, {"u": W}]


def test_map_coeff_raises_on_a_pinned_variable():
    x = Distribution.single({"u": W}, Scalar.one())
    with pytest.raises(UnpinnedResidual):
        x.map_coeff(lambda pins, c: Scalar.var("u") * c)


def test_scale_raises_on_a_pinned_variable():
    # scaling by the pinned u would leave u in the coefficient, and a
    # later comparison would read 1*u against the value at the pin
    x = Distribution.single({"u": W}, Scalar.one())
    with pytest.raises(UnpinnedResidual):
        x.scale(Scalar.var("u"))
    # so does a spectral variable that the term does not pin
    with pytest.raises(UnpinnedResidual):
        x.scale(Scalar.var("v"))
    # a torus scalar scales
    (_, coeff, _), = x.scale(Z).items()
    assert coeff.equals(Z)


def test_rename_spectral_raises_on_a_pinned_variable():
    # a free v cannot enter a term, so no renaming can meet one
    with pytest.raises(UnpinnedResidual):
        Distribution.single({"u": W}, Scalar.var("v"))
    # renaming a pin onto another pin of its term raises
    x = Distribution.single({"u": W, "v": W * Q2}, Z)
    with pytest.raises(DoublePin):
        x.rename_spectral({"v": "u"})
    # a bijection keeps the term as it is, pins swapped
    (_, before, _), = x.items()
    (pins, coeff, _), = x.rename_spectral({"u": "v", "v": "u"}).items()
    assert pins == {"v": W, "u": W * Q2} and coeff is before


def test_rename_spectral_raises_when_two_pins_meet():
    x = Distribution.single({"u": W ** 2, "v": Q2 ** 2}, Scalar.one())
    with pytest.raises(DoublePin):
        x.rename_spectral({"v": "u"})


def test_rename_spectral_merges_two_terms_onto_one_name():
    x = Distribution.single({"u": W}, Scalar.one()) \
        + Distribution.single({"v": W}, Scalar.one())
    (pins, coeff, dmon), = x.rename_spectral({"v": "u"}).items()
    assert pins == {"u": W} and dmon.is_one()
    assert coeff.equals(Scalar.const(2))


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
    """Terms pinning u1, u2, u and v at points of the torus, with torus
    coefficients over factored denominators."""
    w2, z2 = (Scalar.var(n) for n in ("w:1:2", z_var(1, 2)))
    q, w = Scalar.q_int(1), Scalar.from_mono(W)
    free = (Scalar.from_mono(W, GR(1, 2)) * Z + Z * w2 * w2 - Z * Z * w2) \
        / (Scalar.one() - q * w2)
    x = Distribution.single({"u1": W}, free * (z2 * z2 - q * w2)
                            / (z2 - q * Z), DMonomial.unit(1, 1))
    x = x + Distribution.single({"u2": W * Q2}, free * w / (w - q * w2))
    x = x + Distribution.single({"u1": W * Q2, "u2": W.inverse()}, free - w2)
    # u and v pin the same point, so renaming v to u merges two terms
    x = x + Distribution.single({"u": W * Q2}, free * z2)
    x = x + Distribution.single({"v": W * Q2}, free - z2)
    coeff = (w * w - q * z2 * w2) / ((w - q * z2) * (Scalar.one() - q * w2))
    return x + Distribution.single({}, free + coeff, DMonomial.unit(1, 2))


@pytest.mark.parametrize("mapping", [
    {"u1": "u2", "u2": "u1"},
    {"u1": "u2", "u2": "u", "u": "u1"},
    {"v": "u"},                     # onto a name another term pins
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
    """A scalar's factored form: its unit and its factor dict, whose
    order is not part of the scalar.  Equal forms print the same bytes."""
    return (s.c, s.m, s.f)


def _assert_same_terms(got, want):
    # the order matters: randomized_equal visits groups in insertion order
    assert list(got.terms) == list(want.terms)
    for (pins, coeff, _), (want_pins, want_coeff, _) in zip(
            got.items(), want.items(), strict=True):
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
        images = {i: (b, b.rename_spectral({"u": "v"}))
                  for i in nodes for b in [build_B_image(inst, i)]}
        for i in nodes:
            for j in nodes:
                bu, bv = images[i][0], images[j][1]
                x, y = bu * bv, bv * bu
                out.append((x, y))
                out.append((x.map_coeff(lambda p, c: ((u - q2 * v) * c)
                                        .substitute(p)),
                            y.map_coeff(lambda p, c: ((v - q2 * u) * c)
                                        .substitute(p))))
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
        # a sum that cancels leaves no term, so a sum with a cancelled
        # term inside must match too
        assert not (x - x).terms
        _assert_same_terms((x - x) + y, _reference_add(_reference_sub(x, x),
                                                       y))
    assert merged


def test_map_coeff_matches_add_term_path():
    u = Scalar.var("u")

    def fn(pins, coeff):
        # the prefactor u - q at the pinned u
        return ((u - Scalar.q_int(1)) * coeff).substitute(pins)
    for x, _ in _b_products():
        _assert_same_terms(x.map_coeff(fn), _reference_map_coeff(x, fn))


def test_map_coeff_keeps_pin_free_coefficients():
    x = Distribution.single({"u": W}, Scalar.one())
    q = Scalar.q_int(1)
    # a torus coefficient is kept as it is
    for free in (Scalar.from_mono(W) + q, Z - q):
        ((_, coeff, _),) = x.map_coeff(lambda pins, c: free).items()
        assert coeff is free
    # one that holds a spectral variable, pinned or not, raises
    for spectral in (Scalar.var("v") - q, Scalar.var("u") - q):
        with pytest.raises(UnpinnedResidual):
            x.map_coeff(lambda pins, c: spectral)


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
            for fc in (build_Xi(inst, i), build_W(inst, i),
                       build_W(inst, i).invert_arg()):
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
    pref, power = fc.pref, fc.power
    kind, *args = op
    if kind == "times_linear":
        M, c, e = args
        return FactorCurrent(pref, power, [*items, ((c, M), e)])
    if kind == "drop_factor":
        (key,) = args
        return FactorCurrent(pref, power,
                             [(k, e) for k, e in items if k != key])
    if kind == "inverse":
        return FactorCurrent(pref.inverse(), -power,
                             [(k, -e) for k, e in items])
    if kind == "times_power":
        return FactorCurrent(pref, power + args[0], items)
    if kind == "mul":
        (o,) = args
        return FactorCurrent(pref * o.pref, power + o.power,
                             [*items, *o.factors.items()])
    if kind == "scale":
        return FactorCurrent(pref * args[0], power, items)
    if kind == "conjugate":
        (d,) = args
        return FactorCurrent(pref.conjugate(d), power,
                             [((c, M.conjugate(d)), e) for (c, M), e in items])
    M, c = args                                         # scale_arg
    pref = pref * Scalar.from_mono(M ** power, coeff_pow(c, power))
    return FactorCurrent(pref, power,
                         [((ct * c, Mt * M), e) for (ct, Mt), e in items])


def _state(fc):
    return fc.power, list(fc.factors.items())


def _apply(fc, op):
    """One step of a chain, on the current's own methods."""
    kind, *args = op
    return fc * args[0] if kind == "mul" else getattr(fc, kind)(*args)


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
        [Scalar.q_int(1), Scalar.var("v") + Scalar.one(),
         Scalar.from_mono(W, GR(1, 2))])),
    st.tuples(st.just("conjugate"), st.sampled_from(
        [DMonomial.unit(1, 1), DMonomial.unit(1, 1, -1)])),
    st.tuples(st.just("scale_arg"), CHAIN_MONOS, CHAIN_COEFFS),
    st.tuples(st.just("mul"), st.builds(
        FactorCurrent,
        st.sampled_from([Scalar.one(), Scalar.q_int(-1),
                         Scalar.from_mono(W, 2)]),
        st.integers(-2, 2),
        st.lists(st.tuples(st.tuples(CHAIN_COEFFS, CHAIN_MONOS),
                           st.integers(-2, 2)), max_size=4))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(CHAIN_STEP, max_size=14))
def test_copies_match_the_normalizing_constructor(chain):
    fc = FactorCurrent()
    # every current of the chain, with its factor items when it was made:
    # copies share factor dicts, so a step that mutated one would show
    made = [(fc, list(fc.factors.items()))]
    for op in chain:
        if op[0] == "drop_factor":
            if not fc.factors:
                continue
            op = ("drop_factor", list(fc.factors)[op[1] % len(fc.factors)])
        if op[0] == "mul":
            made.append((op[1], list(op[1].factors.items())))
        before, pref = _state(fc), fc.pref
        got = _apply(fc, op)
        want = _normalized_step(fc, op)
        # the operand is left as it was
        assert _state(fc) == before and fc.pref is pref
        assert _state(got) == _state(want)
        assert _factored(got.pref) == _factored(want.pref)
        fc = got
        made.append((fc, list(fc.factors.items())))
    for current, items in made:
        assert list(current.factors.items()) == items


def _chain_current(chain):
    """The current a chain of steps makes from 1."""
    fc = FactorCurrent()
    for op in chain:
        if op[0] == "drop_factor":
            if not fc.factors:
                continue
            op = ("drop_factor", list(fc.factors)[op[1] % len(fc.factors)])
        fc = _apply(fc, op)
    return fc


def _invert_arg_stepwise(fc):
    """u -> 1/u folded in one factor at a time: each (1 - c*M*u)^e becomes
    (1 - c*M/u)^e."""
    out = FactorCurrent(fc.pref, -fc.power)
    for (c, M), e in fc.factors.items():
        out = out.times_linear_inv_arg(M, c, e)
    return out


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(CHAIN_STEP, max_size=14))
def test_invert_arg_matches_the_stepwise_fold(chain):
    fc = _chain_current(chain)
    got, want = fc.invert_arg(), _invert_arg_stepwise(fc)
    assert got.equals(want)
    assert _state(got) == _state(want)
    assert _factored(got.pref) == _factored(want.pref)
    assert repr(got) == repr(want)


def _summed_expansion(fc, a):
    """A Laurent polynomial current's value at u = a read off its
    expansion at zero, which is finite: the sum of pref * c_n * a^n over
    the coefficients c_n of u^n, n from its power to its top degree."""
    pref, coeffs = fc.series_raw("zero", fc.degree_at_infinity(), fc.power)
    out = Scalar.zero()
    for n, c in coeffs.items():
        out = out + Scalar(c) * Scalar.from_mono(a ** n)
    return pref * out


POINTS = st.sampled_from([Monomial.one(), W, W.inverse(), Q2, Q2.inverse(),
                          W * Q2, Monomial.w(2, 1), Monomial.unit("u")])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from([Scalar.one(), Scalar.const(-3), Scalar.q_int(1),
                        Scalar.var("v") + Scalar.one()]),
       st.integers(-2, 2),
       st.lists(st.tuples(CHAIN_COEFFS, CHAIN_MONOS, st.integers(1, 3)),
                max_size=4),
       POINTS)
def test_evaluate_matches_the_summed_expansion(pref, power, factors, a):
    # the series check trusts evaluate for gamma's numerator N, a Laurent
    # polynomial: its value at a point must be its expansion summed there
    fc = FactorCurrent(pref, power, [((c, M), e) for c, M, e in factors])
    assert fc.evaluate(a).equals(_summed_expansion(fc, a))
