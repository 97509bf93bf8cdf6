import pytest
from hypothesis import given, settings, strategies as st

from iqgklo.errors import LocalizationViolation
from iqgklo.scalars import GR, Monomial, Poly, Scalar, one_minus
from iqgklo.torus import DMonomial, TorusElement, check_admissible


def w(i, r, m=1):
    return Scalar.from_mono(Monomial.w(i, r, m))


def w_half(i, r, h=1):
    return Scalar.from_mono(Monomial.w_half(i, r, h))


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


def test_shift_past_whole_coordinate():
    d = op(Scalar.one(), DMonomial.unit(1, 1))
    x = op(w(1, 1), DMonomial.one())
    prod = d * x
    expect = op(Scalar.q_int(2) * w(1, 1), DMonomial.unit(1, 1))
    assert prod.equals(expect)


def test_identity_and_square():
    x = op(w(1, 1), DMonomial.unit(1, 1))
    one = TorusElement.from_scalar(Scalar.one())
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


@settings(max_examples=40, deadline=None)
@given(small_ops(), small_ops(), small_ops())
def test_associativity_and_distributivity(a, b, c):
    assert ((a * b) * c).equals(a * (b * c))
    assert (a * (b + c)).equals(a * b + a * c)


def test_admissible_same_node_binomial():
    num = Poly.const(1)
    den = Poly.mono(Monomial.w(1, 1)) - Poly.mono(Monomial.w(1, 2) * Monomial.q_int(3))
    check_admissible(TorusElement.from_scalar(Scalar(num, den)))


def test_admissible_unit_rewrite():
    # 1 - q^{-1} w^2 is a unit multiple of w - q w^{-1}
    den = Poly.const(1) - Poly.mono(Monomial.w(1, 1, 2) * Monomial.q_int(-1))
    check_admissible(TorusElement.from_scalar(Scalar(Poly.const(1), den)))


def test_admissible_cross_node_inverse_pair():
    den = Poly.mono(Monomial.w(1, 1)) - Poly.mono(
        Monomial.w(2, 1, -1) * Monomial.q_int(2))
    check_admissible(TorusElement.from_scalar(Scalar(Poly.const(1), den)))


def test_admissible_product_of_factors():
    d1 = Poly.const(1) - Poly.mono(Monomial.w(1, 1) * Monomial.q_int(1))
    d2 = Poly.mono(Monomial.w(1, 1)) - Poly.mono(Monomial.w(1, 1, -1) * Monomial.q_int(2))
    check_admissible(TorusElement.from_scalar(Scalar(Poly.const(1), d1 * d2)))


def test_inadmissible_denominator():
    den = (Poly.mono(Monomial.w(1, 1)) - Poly.mono(Monomial.w(2, 1))
           - Poly.const(1))
    with pytest.raises(LocalizationViolation):
        check_admissible(TorusElement.from_scalar(Scalar(Poly.const(1), den)))
