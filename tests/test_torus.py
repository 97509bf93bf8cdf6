import pytest
from hypothesis import given, settings, strategies as st

from iqgklo.errors import LocalizationViolation
from iqgklo.scalars import GR, DMonomial, Monomial, Poly, Scalar, w_var
from iqgklo.torus import TorusElement, check_admissible


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


@settings(max_examples=40, deadline=None)
@given(small_ops(), small_ops(), small_ops())
def test_associativity_and_distributivity(a, b, c):
    assert ((a * b) * c).equals(a * (b * c))
    assert (a * (b + c)).equals(a * b + a * c)


def test_admissible_same_node_binomial():
    num = Poly.const(1)
    den = Poly.mono(Monomial.w(1, 1)) - Poly.mono(Monomial.w(1, 2) * Monomial.q_int(3))
    check_admissible(Scalar(num, den))


def test_admissible_unit_rewrite():
    # 1 - q^{-1} w^2 is a unit multiple of w - q w^{-1}
    den = Poly.const(1) - Poly.mono(Monomial.w(1, 1, 2) * Monomial.q_int(-1))
    check_admissible(Scalar(Poly.const(1), den))


def test_admissible_cross_node_inverse_pair():
    den = Poly.mono(Monomial.w(1, 1)) - Poly.mono(
        Monomial.w(2, 1, -1) * Monomial.q_int(2))
    check_admissible(Scalar(Poly.const(1), den))


def test_admissible_product_of_factors():
    d1 = Poly.const(1) - Poly.mono(Monomial.w(1, 1) * Monomial.q_int(1))
    d2 = Poly.mono(Monomial.w(1, 1)) - Poly.mono(Monomial.w(1, 1, -1) * Monomial.q_int(2))
    check_admissible(Scalar(Poly.const(1), d1 * d2))


def test_inadmissible_denominator():
    den = (Poly.mono(Monomial.w(1, 1)) - Poly.mono(Monomial.w(2, 1))
           - Poly.const(1))
    with pytest.raises(LocalizationViolation):
        check_admissible(Scalar(Poly.const(1), den))
