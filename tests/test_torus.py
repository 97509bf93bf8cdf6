import pytest
from hypothesis import assume, given, settings, strategies as st

from iqgklo.cli import instance_from_description
from iqgklo.gklo import build_B_image
from iqgklo.satake import build_catalog
from iqgklo.scalars import (
    GR, GR_I, DMonomial, Monomial, Poly, Scalar, divide_binomial, w_var,
)
from iqgklo.torus import MAX_QHALF, TorusElement, admissible

from test_gklo import SHIFTED


def w(i, r, m=1):
    return Scalar.from_mono(Monomial.w(i, r, m))


def w_half(i, r, h=1):
    return Scalar.from_mono(Monomial.unit(w_var(i, r), h))


def op(s, d):
    return TorusElement.monomial(s, d)


def test_conjugation_matching_index():
    d = DMonomial.unit(1, 1)
    assert w_half(1, 1).conjugate(d).equals(Scalar.q_int(1) * w_half(1, 1))


def test_conjugation_inverse_through_square():
    d = DMonomial.unit(1, 1, -1)
    assert w(1, 1, 2).conjugate(d).equals(Scalar.q_int(-4) * w(1, 1, 2))


def test_conjugation_central_symbols():
    d = DMonomial.unit(1, 1)
    z = Scalar.var("z:2:1")
    assert z.conjugate(d).equals(z)


def test_dmonomial_repr_and_order_by_integer_index():
    # (1, 2) < (1, 10) and (2, 1) < (10, 1) as integers; by name the
    # coordinates w:1:10 and w:10:1 would sort first
    d12, d110 = DMonomial.unit(1, 2), DMonomial.unit(1, 10, -1)
    d21, d101 = DMonomial.unit(2, 1, 3), DMonomial.unit(10, 1)
    assert repr(d110 * d12) == "d[1,2]*d[1,10]^-1"
    assert repr(d101 * d21) == "d[2,1]^3*d[10,1]"
    assert (d110 * d12).exps == (((1, 2), 1), ((1, 10), -1))
    assert d12 < d110 and d21 < d101
    assert sorted([d101, d110, d21, d12]) == [d12, d110, d21, d101]
    x = op(Scalar.one(), d110) + op(w(1, 1), d12)
    assert repr(x) == "(1*1)d[1,10]^-1 + (1*w:1:1^2)d[1,2]"


def test_dmonomial_product_and_identity():
    d = DMonomial.unit(1, 1) * DMonomial.unit(1, 2, -1)
    assert d * DMonomial.unit(1, 1, -1) == DMonomial.unit(1, 2, -1)
    assert (d * DMonomial.unit(1, 1, -1) * DMonomial.unit(1, 2)).is_one()
    assert DMonomial.one().is_one() and repr(DMonomial.one()) == "1"
    assert d == DMonomial([((1, 2), -1), ((1, 1), 1)])
    assert hash(d) == hash(DMonomial([((1, 2), -1), ((1, 1), 1)]))


def test_conjugation_composes_and_agrees_on_pin_targets():
    dmons = [DMonomial.unit(1, 1), DMonomial.unit(1, 2, -1),
             DMonomial.unit(1, 1, -2) * DMonomial.unit(2, 1),
             DMonomial.one()]
    monos = [Monomial.unit(w_var(1, 1), 3) * Monomial.w(1, 2, -1),
             Monomial.w(2, 1) * Monomial.q_int(1) * Monomial.unit("u"),
             Monomial.unit("z:1:1"), Monomial.one()]
    p = sum((Poly.mono(m, GR(k + 1, k)) for k, m in enumerate(monos)),
            Poly.zero())
    for d1 in dmons:
        for d2 in dmons:
            assert p.conjugate(d1 * d2) == p.conjugate(d1).conjugate(d2)
        for m in monos:
            assert Poly.mono(m.conjugate(d1)) == Poly.mono(m).conjugate(d1)
    # d[1,1] past w_{1,1}^(3/2) costs Q^6 = q^3
    assert monos[0].conjugate(dmons[0]) == monos[0] * Monomial.q_int(3)


def test_shift_past_whole_coordinate():
    d = op(Scalar.one(), DMonomial.unit(1, 1))
    x = op(w(1, 1), DMonomial.one())
    prod = d * x
    expect = op(Scalar.q_int(2) * w(1, 1), DMonomial.unit(1, 1))
    assert prod.equals(expect)


def test_identity_and_square():
    x = op(w(1, 1), DMonomial.unit(1, 1))
    one = op(Scalar.one(), DMonomial.one())
    assert (x * one).equals(x)
    sq = x * x
    expect = op(Scalar.q_int(2) * w(1, 1, 2), DMonomial.unit(1, 1, 2))
    assert sq.equals(expect)


def small_ops():
    coeffs = st.sampled_from([
        Scalar.one(), w(1, 1), w_half(1, 2), Scalar.q_int(1) * w(1, 1, -1),
        Scalar.var("z:1:1"),
    ])
    dmons = st.sampled_from([
        DMonomial.one(), DMonomial.unit(1, 1), DMonomial.unit(1, 1, -1),
        DMonomial.unit(1, 2), DMonomial.unit(1, 1) * DMonomial.unit(1, 2, -1),
    ])
    pair = st.tuples(coeffs, dmons)
    return st.lists(pair, min_size=0, max_size=2).map(
        lambda ps: sum((op(c, d) for c, d in ps), TorusElement.zero()))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(small_ops(), small_ops(), small_ops())
def test_associativity_and_distributivity(a, b, c):
    assert ((a * b) * c).equals(a * (b * c))
    assert (a * (b + c)).equals(a * b + a * c)


def _admits(coeff):
    """Whether every denominator factor of the Scalar ``coeff`` is
    ``admissible``, as the ``check`` verb tests the B images."""
    return all(map(admissible, coeff.den_factors()))


def test_admissible_same_node_binomial():
    num = Poly.const(1)
    den = Poly.mono(Monomial.w(1, 1)) - Poly.mono(Monomial.w(1, 2) * Monomial.q_int(3))
    assert _admits(Scalar(num, den))


def test_admissible_unit_rewrite():
    # 1 - q^{-1} w^2 is a unit multiple of w - q w^{-1}
    den = Poly.const(1) - Poly.mono(Monomial.w(1, 1, 2) * Monomial.q_int(-1))
    assert _admits(Scalar(Poly.const(1), den))


def test_admissible_cross_node_inverse_pair():
    den = Poly.mono(Monomial.w(1, 1)) - Poly.mono(
        Monomial.w(2, 1, -1) * Monomial.q_int(2))
    assert _admits(Scalar(Poly.const(1), den))


def _product_of_factors():
    d1 = Poly.const(1) - Poly.mono(Monomial.w(1, 1) * Monomial.q_int(1))
    d2 = Poly.mono(Monomial.w(1, 1)) - Poly.mono(Monomial.w(1, 1, -1) * Monomial.q_int(2))
    return d1, d2


def test_admissible_product_of_factors():
    # the form the engine keeps: one factor per binomial
    d1, d2 = _product_of_factors()
    coeff = Scalar(Poly.const(1), d1) * Scalar(Poly.const(1), d2)
    assert len(coeff.den_factors()) == 2
    assert _admits(coeff)


def test_expanded_product_of_factors_is_rejected():
    # a factor of more than two terms that holds a w is never split
    d1, d2 = _product_of_factors()
    coeff = Scalar(Poly.const(1), d1 * d2)
    [factor] = coeff.den_factors()
    assert len(factor.terms) == 4
    assert not admissible(factor)


def test_inadmissible_denominator():
    den = (Poly.mono(Monomial.w(1, 1)) - Poly.mono(Monomial.w(2, 1))
           - Poly.const(1))
    assert not _admits(Scalar(Poly.const(1), den))


# --- the closed form against the trial-division search it replaced ----


def _names(p):
    return {v for v, _, _ in p.layout()[0]}


def _admissible_candidates(wvars):
    """Binomial generators of the allowed denominator multiplicative set.

    Forms, for whole powers a = w_{i,r}, b = w_{j,s}:
    a - q^(h/2) b,  a - q^(h/2) b^{-1},  a - q^(h/2) a^{-1},  1 - q^(h/2) a.
    """
    shapes = []
    for va in wvars:
        a = Monomial.unit(va, 2)
        shapes.append((a, a.inverse()))
        shapes.append((Monomial.one(), a))
        for vb in wvars:
            if vb == va:
                continue
            b = Monomial.unit(vb, 2)
            shapes.append((a, b))
            shapes.append((a, b.inverse()))
    out = []
    for m1, m2 in shapes:
        for h in range(-MAX_QHALF, MAX_QHALF + 1):
            out.append(Poly.mono(m1) - Poly.mono(m2 * Monomial.q_half(h)))
    return out


def _search_admissible(coeff):
    """The reference: whether each denominator factor, up to a unit
    monomial, is a product of binomials of the catalogued shapes; each
    candidate is divided out exactly for as long as one divides."""
    for rem in coeff.den_factors():
        wvars = sorted(v for v in _names(rem) if v.startswith("w:"))
        cands = _admissible_candidates(wvars)
        progress = True
        while len(rem.terms) > 1 and progress:
            progress = False
            for b in cands:
                quo = divide_binomial(rem, b)
                if quo is not None:
                    rem = quo
                    progress = True
                    break
        if len(rem.terms) > 1 and any(v.startswith("w:")
                                      for v in _names(rem)):
            return False
    return True


HALF_EXPS = (1, -1, 2, -2, 4, -4)
COEFFS = (1, -1, 2, -2, GR_I, GR(1, 1))


@st.composite
def binomials(draw):
    """1/(c1 X^m1 + c2 X^m2) over q, two or three w, one z and one zeta,
    with X^m2 = X^m1 * X^d: X^d holds q^(h/2) with |h| <= 16, mostly 0
    or +-2 as the half-exponent of each w, and mostly 0 as that of z and
    zeta, and c2 is often -c1, so that both verdicts occur often."""
    wvars = [w_var(1, 1), w_var(1, 2), w_var(2, 1)][:draw(st.sampled_from(
        (2, 3)))]
    others = ("z:1:1", "zt:1")
    any_exp = st.sampled_from((0, *HALF_EXPS))
    m1 = Monomial([("q", draw(st.integers(-16, 16))),
                   *((v, draw(any_exp)) for v in (*wvars, *others))])
    w_exp = st.sampled_from((0,) * 6 + (2, -2) * 3 + HALF_EXPS)
    other_exp = st.sampled_from((0,) * 30 + HALF_EXPS)
    d = Monomial([("q", draw(st.integers(-16, 16))),
                  *((v, draw(w_exp)) for v in wvars),
                  *((v, draw(other_exp)) for v in others)])
    assume(not d.is_one())
    c1 = draw(st.sampled_from(COEFFS))
    c2 = draw(st.one_of(st.just(-c1), st.sampled_from(COEFFS)))
    den = Poly.mono(m1, c1) + Poly.mono(m1 * d, c2)
    return Scalar(Poly.const(1), den)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(binomials())
def test_closed_form_agrees_with_the_search_on_binomials(coeff):
    assert _admits(coeff) == _search_admissible(coeff)


@pytest.mark.parametrize("h", [-MAX_QHALF - 1, -MAX_QHALF, MAX_QHALF,
                               MAX_QHALF + 1])
def test_closed_form_agrees_with_the_search_at_the_q_bound(h):
    a, b = Monomial.w(1, 1), Monomial.w(2, 1)
    for m1, m2 in ((a, b), (a, b.inverse()), (a, a.inverse()),
                   (Monomial.one(), a)):
        coeff = Scalar(Poly.const(1), Poly.mono(m1) - Poly.mono(
            m2 * Monomial.q_half(h)))
        assert _admits(coeff) == _search_admissible(coeff) == \
            (abs(h) <= MAX_QHALF)


def test_closed_form_agrees_with_the_search_on_the_images():
    insts = [*build_catalog(),
             *map(instance_from_description, SHIFTED.values())]
    seen = 0
    for inst in insts:
        for i in inst.diagram.nodes():
            for _, coeff, _ in build_B_image(inst, i).items():
                assert _admits(coeff)
                assert _search_admissible(coeff)
                seen += 1
    assert seen == 67
