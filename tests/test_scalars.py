"""Exact coefficient-field tests: frozen values and field laws."""

import importlib.util
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from iqgklo.errors import DenominatorVanishes, DivisionByZero
from iqgklo import oracle
from iqgklo.oracle import P
from iqgklo.scalars import (
    _BINOMIALS, _FACTORS, _LIMB, GR, GR_I, POLY_ONE, DMonomial, Monomial,
    Poly, Scalar, _binomial, _canon, _index, _key_min, _limb_rows, _mono,
    _absorb, _normal_binomial, _q_shift, _scalar, _shift_taps,
    _substitute_key, _substitution, coeff_inverse, divide_binomial,
    factor, unpack_poly, w_var,
)


def one_minus(mono):
    """The scalar 1 - mono for a Monomial."""
    return Scalar(Poly.const(1) - Poly.mono(mono))


def test_gaussian_rational_arithmetic():
    a = GR(1, 2)
    b = GR(3, -1)
    assert a + b == GR(4, 1)
    assert a * b == GR(5, 5)
    assert (a / b) * b == a
    assert GR_I * GR_I == GR(-1)
    with pytest.raises(DivisionByZero):
        coeff_inverse(GR(0))


def test_q_bracket_two_at_q_four():
    # [2] = q + q^{-1}; with the base unit set to 2 (so q = 4) this is 17/4.
    num = Poly.mono(Monomial.q_int(2)) - Poly.mono(Monomial.q_int(-2))
    den = Poly.mono(Monomial.q_int(1)) - Poly.mono(Monomial.q_int(-1))
    val = Scalar(num, den).eval_numeric({"q": GR(2)})
    assert val == GR(Fraction(17, 4))


def test_partial_fraction_sum_is_one():
    # 1/(1-q) + 1/(1-q^{-1}) = 1
    q = Monomial.q_int(1)
    s = one_minus(q).inverse() + one_minus(q.inverse()).inverse()
    assert s.equals(Scalar.one())


def test_equal_binomials_share_one_factor():
    # built twice, in the numerator of one scalar and, scaled, in the
    # denominator of the other, 1 - q u is one factor object
    qu = Monomial.unit("u") * Monomial.q_int(1)

    def one_minus_qu():
        return Poly.const(1) - Poly.mono(qu)
    a = Scalar(one_minus_qu())
    b = Scalar(Poly.const(1), one_minus_qu().scale(GR(0, 3)))
    ((ka, ea),) = a.f.items()
    ((kb, eb),) = b.f.items()
    assert (ea, eb) == (1, -1)
    (fb,) = b.den_factors()
    assert ka == kb and _FACTORS[ka] is fb


def test_ratio_collapses_to_power():
    # (q - q^{-1})/(q^2 - 1) = q^{-1}
    num = Scalar.q_int(1) - Scalar.q_int(-1)
    den = Scalar.q_int(2) - Scalar.one()
    assert (num / den).equals(Scalar.q_int(-1))


def test_has_spectral_reads_every_part():
    w, u = Monomial.w(1, 1), Monomial.unit("u")
    torus = one_minus(w * Monomial.q_int(1)) / one_minus(w)
    assert not torus.has_spectral() and not Scalar.zero().has_spectral()
    # in the unit monomial, a numerator factor, and a denominator factor
    for s in (torus * Scalar.from_mono(u), torus * Scalar(Poly.mono(u)
                                                          + Poly.mono(w)),
              torus / one_minus(u * w)):
        assert s.has_spectral()
    # a spectral name registered after a torus scalar's occupancy is cached
    assert not torus.has_spectral()
    fresh = Scalar.var("u~has-spectral")
    assert fresh.has_spectral() and not torus.has_spectral()


def test_monomial_substitute():
    m = Monomial.unit("u", 2) * Monomial.q_int(1)
    t = Monomial.w(1, 1) * Monomial.q_int(-1)
    assert m.substitute({"u": t}) == Monomial.w(1, 1, 2) * Monomial.q_int(-1)


def test_poly_drops_zero_coefficients():
    q, v = Monomial.q_int(1), Monomial.unit("v")
    assert Poly({q.key: 0, v.key: 2}).terms == {v.key: 2}
    assert Poly.const(0).is_zero() and Poly.mono(q, 0).is_zero()
    # a substitution that sends two terms to one key merges them, and a
    # sum that cancels leaves no term
    p = Poly.mono(q) - Poly.mono(v)
    assert p.substitute({"v": q}).terms == {}
    assert (Poly.mono(q) + Poly.mono(v)).substitute({"v": q}).terms == \
        {q.key: 2}


def test_substitute_kills_denominator():
    s = one_minus(Monomial.unit("u")).inverse()
    with pytest.raises(DenominatorVanishes):
        s.substitute({"u": Monomial.one()})


def test_conjugation_shifts_w_halves():
    # Moving the (i,r)-shift of weight e past w_{i,r}^{h/2} costs q^{e*h/2}
    # per base unit, i.e. Q^{2*e*h} total on a whole power.
    d = DMonomial.unit(1, 1)
    s = Scalar.from_mono(Monomial.w(1, 1))
    assert s.conjugate(d).equals(Scalar.from_mono(Monomial.w(1, 1)) * Scalar.q_int(2))
    # Untouched variables pass through freely.
    t = Scalar.from_mono(Monomial.w(2, 1))
    assert t.conjugate(d).equals(t)
    # Inverse operator shifts the other way.
    dinv = DMonomial.unit(1, 1, -1)
    assert s.conjugate(dinv).equals(s * Scalar.q_int(-2))


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        m = Monomial([
            ("q", draw(st.integers(min_value=-2, max_value=2))),
            ("u", draw(st.integers(min_value=-2, max_value=2))),
        ])
        terms[m.key] = GR(draw(small_fracs), draw(small_fracs))
    num = Poly(terms)
    d_exp = draw(st.integers(min_value=-2, max_value=2))
    den = Poly.mono(Monomial.q_int(1)) - Poly.mono(Monomial.unit("u", d_exp))
    if den.is_zero():
        den = Poly.const(1)
    return Scalar(num, den)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalars(), scalars(), scalars())
def test_field_laws(a, b, c):
    assert ((a + b) + c).equals(a + (b + c))
    assert (a + b).equals(b + a)
    assert ((a * b) * c).equals(a * (b * c))
    assert (a * b).equals(b * a)
    assert (a * (b + c)).equals(a * b + a * c)
    assert (a + Scalar.zero()).equals(a)
    assert (a * Scalar.one()).equals(a)
    assert (a - a).is_zero() or (a - a).equals(Scalar.zero())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scalars())
def test_inverse_roundtrip(a):
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            Scalar.one() / a
    else:
        assert (a * a.inverse()).equals(Scalar.one())


# --- the packed representation against a plain reference -------------------
#
# The reference keeps a polynomial as {((name, exp), ...): (re, im)}, with
# name-sorted nonzero exponents and Fraction parts, and does every operation
# by a direct loop over those tuples.

REF_NAMES = ("q", "u", "v", w_var(1, 1), w_var(1, 2), w_var(2, 1), "z:1:1")
ref_coeffs = st.tuples(small_fracs, small_fracs).filter(lambda c: any(c))
ref_monos = st.dictionaries(st.sampled_from(REF_NAMES),
                            st.integers(min_value=-3, max_value=3),
                            max_size=4)
ref_dexps = st.lists(st.tuples(st.sampled_from([(1, 1), (1, 2), (2, 1)]),
                               st.integers(min_value=-2, max_value=2)),
                     max_size=2)


def _ref_mono(exps):
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def _ref_add_term(d, m, c):
    s = d.get(m, (0, 0))
    s = (s[0] + c[0], s[1] + c[1])
    if any(s):
        d[m] = s
    else:
        d.pop(m, None)


def _ref_cmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _ref_cpow(a, e):
    if e < 0:
        n = a[0] * a[0] + a[1] * a[1]
        a, e = (Fraction(a[0]) / n, Fraction(-a[1]) / n), -e
    out = (1, 0)
    for _ in range(e):
        out = _ref_cmul(out, a)
    return out


@st.composite
def ref_polys(draw, max_terms=9):
    d = {}
    for m, c in draw(st.lists(st.tuples(ref_monos, ref_coeffs),
                              max_size=max_terms)):
        _ref_add_term(d, _ref_mono(m), c)
    return d


def _poly(ref):
    out = Poly.zero()
    for m, (re, im) in ref.items():
        out = out + Poly.mono(Monomial(m), GR(re, im))
    return out


def _ref(poly):
    """Back to the reference form; every coefficient must be canonical."""
    out = {}
    for m, c in unpack_poly(poly).items():
        if isinstance(c, GR):
            assert c.im != 0
            out[m.exps] = (c.re, c.im)
        else:
            assert isinstance(c, (int, Fraction)) and c != 0
            out[m.exps] = (c, 0)
    return out


def _ref_mul(a, b):
    d = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            exps = dict(m1)
            for v, e in m2:
                exps[v] = exps.get(v, 0) + e
            _ref_add_term(d, _ref_mono(exps), _ref_cmul(c1, c2))
    return d


def _ref_map(a, fn):
    """Rebuild by term: fn(exps dict, coeff) -> (exps dict, coeff)."""
    d = {}
    for m, c in a.items():
        exps, c = fn(dict(m), c)
        _ref_add_term(d, _ref_mono(exps), c)
    return d


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ref_polys(), ref_polys(), ref_monos, st.sampled_from(REF_NAMES),
       ref_dexps)
def test_poly_matches_reference(a, b, target, var, dexps):
    pa, pb = _poly(a), _poly(b)
    assert _ref(pa) == a and _ref(pb) == b
    total, diff = dict(a), dict(a)
    for m, c in b.items():
        _ref_add_term(total, m, c)
        _ref_add_term(diff, m, (-c[0], -c[1]))
    assert _ref(pa + pb) == total
    assert _ref(pa - pb) == diff
    assert (pa - pa).terms == {}
    # products, over more than 48 term pairs too
    assert _ref(pa * pb) == _ref_mul(a, b)
    big = _poly(_ref_mul(a, a))
    assert _ref(big * pb) == _ref_mul(_ref_mul(a, a), b)
    # content monomial: per-variable minimum, absent variables reading 0
    if a:
        names = {v for m in a for v, _ in m}
        mins = {v: min(dict(m).get(v, 0) for m in a) for v in names}
        assert pa.content_monomial().exps == _ref_mono(mins)
    assert pa.has_var(var) == any(v == var for m in a for v, _ in m)
    # substitute a monomial free of var for var
    tgt = {v: e for v, e in target.items() if v != var}

    def sub(exps, c):
        e = exps.pop(var, 0)
        for v, k in tgt.items():
            exps[v] = exps.get(v, 0) + e * k
        return exps, c
    assert _ref(pa.substitute({var: Monomial(tgt.items())})) == _ref_map(a, sub)
    # moving shift operators through: Q^(2*e*h) per w_{i,r}^(h/2)
    dmon = DMonomial(dexps)

    def conj(exps, c):
        shift = sum(2 * e * exps.get(w_var(i, r), 0)
                    for (i, r), e in dexps)
        exps["q"] = exps.get("q", 0) + shift
        return exps, c
    assert _ref(pa.conjugate(dmon)) == _ref_map(a, conj)
    # exact evaluation at nonzero Gaussian rationals
    point = {v: (Fraction(k + 2, 3), Fraction(k - 3, 2))
             for k, v in enumerate(REF_NAMES)}
    point["u"] = (Fraction(-5, 7), 0)
    want = (0, 0)
    for m, c in a.items():
        for v, e in m:
            c = _ref_cmul(c, _ref_cpow(point[v], e))
        want = (want[0] + c[0], want[1] + c[1])
    got = Scalar(pa).eval_numeric({v: GR(*p) for v, p in point.items()})
    assert ((got.re, got.im) if isinstance(got, GR) else (got, 0)) == want


def _ref_content(ref):
    """The per-variable minimum exponent over the terms (absent reads 0)."""
    names = {v for m in ref for v, _ in m}
    return _ref_mono({v: min(dict(m).get(v, 0) for m in ref) for v in names})


content_steps = st.lists(st.tuples(
    st.sampled_from(("mul", "mul_mono", "neg", "add", "zero_mul")),
    ref_polys(max_terms=3), ref_monos), max_size=5)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ref_polys(max_terms=4), content_steps)
def test_content_follows_products(a, steps):
    # the content of every intermediate result, the zero polynomial
    # included, is the per-variable minimum over its reference terms
    p, ref = _poly(a), a
    for op, b, mono in steps:
        pb = _poly(b)
        if op == "mul":
            p, ref = p * pb, _ref_mul(ref, b)
        elif op == "mul_mono":
            p = p.mul_mono(Monomial(mono.items()))
            ref = _ref_mul(ref, {_ref_mono(mono): (1, 0)})
        elif op == "neg":
            p = Poly.zero() - p
            ref = _ref_map(ref, lambda e, c: (e, (-c[0], -c[1])))
        elif op == "add":
            p = p + pb
            ref = dict(ref)
            for m, c in b.items():
                _ref_add_term(ref, m, c)
        else:
            p, ref = p * (pb - pb), {}
        assert _ref(p) == ref
        assert p.content_monomial().exps == _ref_content(ref)


def _fresh_scalars():
    """A separate copy of the scalars module, with its own empty registry."""
    spec = importlib.util.find_spec("iqgklo.scalars")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_output_independent_of_registration_order():
    terms = [({"b9": 2, "a9": -1}, (3, 0)), ({"c9": 1}, (Fraction(1, 2), 2)),
             ({"a9": 1, "c9": -2, "q": 4}, (-1, 0)), ({}, (5, 0))]
    seen = []
    for order in (("a9", "b9", "c9"), ("c9", "b9", "a9")):
        sc = _fresh_scalars()
        for v in order:
            sc.Monomial.unit(v)
        assert [sc._NAMES.index(v) for v in order] == sorted(
            sc._NAMES.index(v) for v in order)

        def build(items):
            p = sc.Poly.zero()
            for exps, c in items:
                p = p + sc.Poly.mono(sc.Monomial(exps.items()), sc.GR(*c))
            return p
        p, p_rev = build(terms), build(terms[::-1])
        assert p == p_rev
        # a sum over binomial denominators with no constant term, so each
        # factor's leading term is chosen by a variable name
        b1 = build([({"c9": 1}, (1, 0)), ({"a9": 2}, (-2, 0))])
        b2 = build([({"b9": 1}, (2, 0)), ({"c9": 1, "q": 2}, (3, 0))])
        total = sc.Scalar(p, b1) + sc.Scalar(p_rev, b2) \
            * sc.Scalar(sc.POLY_ONE, b1) - sc.Scalar(sc.POLY_ONE, b2)
        seen.append((repr(p), repr(sc.Scalar(p, p_rev * p)),
                     repr(total)))
    assert seen[0] == seen[1]
    assert seen[0][0] == ("5*1 + 3*a9^-1*b9^2 + -1*a9*c9^-2*q^4 + "
                          "(1/2+2*I)*c9")


def test_no_real_gaussian_survives():
    assert GR_I * GR_I == -1 and type(GR_I * GR_I) is int
    assert type(GR(3, 0)) is int and type(GR(Fraction(1, 2))) is Fraction
    assert type(GR(1, 1) + GR(1, -1)) is int
    assert type(GR(1, 1) - GR(0, 1)) is int
    assert type(GR(0, 2) * Fraction(1, 2)) is GR
    # (1 + i x)(1 - i x) = 1 + x^2, with plain integer coefficients
    x = Monomial.unit("u")
    p = (Poly.const(1) + Poly.mono(x, GR_I)) \
        * (Poly.const(1) - Poly.mono(x, GR_I))
    assert p == Poly.const(1) + Poly.mono(x * x)
    assert all(type(c) is int for c in p.terms.values())
    assert type(Scalar(p).eval_numeric({"u": GR_I})) is int


# --- factored scalars against a plain fraction reference ---------------------
#
# The reference keeps a scalar as (numerator, denominator) reference
# polynomials, combines them by cross-multiplication and never cancels.
# Operands are products of a few numerators with binomials from a small
# pool, so sums share factors and cancel some of them.  Only "v" is kept
# out of the operands, for the substitution that kills a denominator.

POOL = [
    {(): (1, 0), (("q", 2), ("u", 1)): (-1, 0)},                # 1 - q u
    {(("u", 1),): (1, 0), ((w_var(1, 1), 2),): (-1, 0)},         # u - w
    {(("q", -2), (w_var(1, 1), -2)): (1, 0), (): (-1, 0)},       # content
    {(): (1, 0), (("u", 1),): (0, 1)},                           # 1 + I u
    {(("u", 1),): (Fraction(1, 2), 0), (("q", 2),): (-3, 0)},    # u/2 - 3 q
    {(): (1, 0), (("u", 1),): (1, 0), (("q", 2),): (1, 0)},      # 1 + u + q
]
KILL = {(): (1, 0), (("q", 2), ("v", 1)): (-1, 0)}              # 1 - q v
NAMES = ("q", "u", w_var(1, 1), w_var(1, 2))
ref_terms = st.dictionaries(st.sampled_from(NAMES),
                            st.integers(min_value=-2, max_value=2),
                            max_size=3)


@st.composite
def ref_scalars(draw):
    """(reference, Scalar): the Scalar is built the way the engine builds
    its scalars, one factor at a time."""
    num = {}
    for m, c in draw(st.lists(st.tuples(ref_terms, ref_coeffs),
                              min_size=1, max_size=2)):
        _ref_add_term(num, _ref_mono(m), c)
    den = {(): (1, 0)}
    out = Scalar(_poly(num))
    for k in draw(st.lists(st.sampled_from(range(len(POOL))), max_size=1)):
        num = _ref_mul(num, POOL[k])
        out = out * Scalar(_poly(POOL[k]))
    for k in draw(st.lists(st.sampled_from(range(len(POOL))), max_size=2)):
        den = _ref_mul(den, POOL[k])
        out = out / Scalar(_poly(POOL[k]))
    return (num, den), out


def _ref_frac(s):
    num, den = s.fraction()
    return _ref(num), _ref(den)


def _ref_same(x, y):
    return _ref_mul(x[0], y[1]) == _ref_mul(y[0], x[1])


def _ref_sum(x, y, sign=1):
    total = _ref_mul(x[0], y[1])
    for m, c in _ref_mul(y[0], x[1]).items():
        _ref_add_term(total, m, (sign * c[0], sign * c[1]))
    return total, _ref_mul(x[1], y[1])


def _ref_value(ref, point):
    total = (0, 0)
    for m, c in ref.items():
        for v, e in m:
            c = _ref_cmul(c, _ref_cpow(point[v], e))
        total = (total[0] + c[0], total[1] + c[1])
    return total


def _pair(value):
    return (value.re, value.im) if isinstance(value, GR) else (value, 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(ref_scalars(), ref_scalars(), ref_scalars(), ref_monos,
       st.sampled_from(NAMES), ref_dexps)
def test_factored_scalar_matches_reference(sa, sb, sc, target, var, dexps):
    (ra, a), (rb, b), (rc, c) = sa, sb, sc
    for s, r in ((a, ra), (b, rb), (c, rc)):
        assert _ref_same(_ref_frac(s), r)
    # field operations
    assert _ref_same(_ref_frac(a + b), _ref_sum(ra, rb))
    assert _ref_same(_ref_frac(a - b), _ref_sum(ra, rb, -1))
    assert _ref_same(_ref_frac(a * b),
                     (_ref_mul(ra[0], rb[0]), _ref_mul(ra[1], rb[1])))
    if b.is_zero():
        with pytest.raises(DivisionByZero):
            a / b
    else:
        assert _ref_same(_ref_frac(a / b),
                         (_ref_mul(ra[0], rb[1]), _ref_mul(ra[1], rb[0])))
    assume(not c.is_zero())
    abc = (a + b) * c + a / c
    rabc = _ref_sum((_ref_mul(_ref_sum(ra, rb)[0], rc[0]),
                     _ref_mul(_ref_sum(ra, rb)[1], rc[1])),
                    (_ref_mul(ra[0], rc[1]), _ref_mul(ra[1], rc[0])))
    assert _ref_same(_ref_frac(abc), rabc)
    # equality, both ways round
    assert abc.equals(a * c + b * c + a / c)
    assert (a + b).equals(b + a)
    assert (a - b).is_zero() == (not _ref_sum(ra, rb, -1)[0])
    assert a.equals(b) == _ref_same(ra, rb)
    assert (a + c).equals(b) == _ref_same(_ref_sum(ra, rc), rb)
    # a substitution: the result matches the reference wherever the
    # reference denominator survives, and it raises only where the
    # reference denominator vanishes
    tgt = Monomial((v, e) for v, e in target.items() if v != var)

    def sub(exps, cc):
        e = exps.pop(var, 0)
        for v, k in tgt.exps:
            exps[v] = exps.get(v, 0) + e * k
        return exps, cc

    def conj(exps, cc):
        exps["q"] = exps.get("q", 0) + sum(
            2 * e * exps.get(w_var(i, r), 0) for (i, r), e in dexps)
        return exps, cc

    dmon = DMonomial(dexps)
    for op, fn in ((lambda s: s.substitute({var: tgt}), sub),
                   (lambda s: s.conjugate(dmon), conj)):
        ref = (_ref_map(rabc[0], fn), _ref_map(rabc[1], fn))
        try:
            got = op(abc)
        except DenominatorVanishes:
            assert not ref[1]
            continue
        if ref[1]:
            assert _ref_same(_ref_frac(got), ref)
    # a substitution that changes nothing returns the scalar itself
    assert abc.substitute({"v": Monomial.q_int(1)}) is abc
    # exact evaluation
    point = {v: (Fraction(k + 2, 3), Fraction(k - 3, 2))
             for k, v in enumerate(NAMES)}
    point["u"] = (Fraction(-5, 7), 0)
    dv = _ref_value(rabc[1], point)
    try:
        got = abc.eval_numeric({v: GR(*p) for v, p in point.items()})
    except DenominatorVanishes:
        assert dv == (0, 0)
    else:
        if dv != (0, 0):
            nv = _ref_value(rabc[0], point)
            assert _ref_cmul(_pair(got), dv) == nv
    # killing a denominator factor raises, also after a sum whose
    # numerator the factor does not divide
    kill = Scalar(_poly(KILL))
    vq = {"v": Monomial.q_int(-1)}
    if not a.is_zero():
        with pytest.raises(DenominatorVanishes):
            (a / kill).substitute(vq)
        if not b.is_zero():
            with pytest.raises(DenominatorVanishes):
                (a / kill + b / (kill * kill)).substitute(vq)


small_grs = ref_coeffs.map(lambda c: GR(*c))


def _mod_p(value):
    """An exact coefficient a + b*i mod P, reduced the long way: a + I*b
    as one rational, then its numerator over its denominator."""
    re, im = map(Fraction, _pair(value))
    x = re + oracle.I * im
    return x.numerator * pow(x.denominator, -1, P) % P


def fresh_factor_tables(monkeypatch):
    """Swap in an empty factor table, and an empty raw-binomial table in
    front of it, so that factors and layouts other tests made stay out
    of a count.  Every scalar must be built after the swap: a scalar
    holds factor keys only and reads each factor's Poly from the table,
    so one built before it would find none of its factors there."""
    monkeypatch.setattr("iqgklo.scalars._FACTORS", {})
    monkeypatch.setattr("iqgklo.scalars._BINOMIALS", {})


def _plan_residue(s, point):
    """s at the residues ``point`` as the oracle's (n, d), the value n/d
    mod P: the oracle's plan of one support group, s against 1, has the
    constant of s times its unit monomial and numerator factors on one
    side and its denominator factors on the other, each evaluated on a
    batch of one attempt over its power vectors."""
    _, _, cx, cy, m, up, down = oracle._group(s, Scalar.one())
    powers = oracle._OnDemand(
        lambda ve: oracle._power_vector([point[ve[0]]], ve[1]))
    values = oracle._OnDemand(
        lambda key: oracle._part_values(factor(key), powers, 1))
    (n,), (d,) = (oracle._times(u, mults, values) for u, mults in
                  ((oracle._unit(cx, m, powers, 1), up), ([cy], down)))
    return n, d


@settings(max_examples=60, deadline=None, derandomize=True)
@given(ref_scalars(), ref_coeffs, ref_terms,
       st.fixed_dictionaries({v: st.integers(1, P - 1) for v in NAMES}))
def test_plan_residue_equals_eval_numeric_mod_p(sa, c, m, point):
    # a constant, often Gaussian, and a unit monomial times a + 1, which
    # holds the numerator factors of the sum and the denominator factors
    # of a
    ra, a = sa
    mono = Monomial(_ref_mono(m))
    s = Scalar.from_mono(mono, GR(*c)) * (a + Scalar.one())
    exact = {v: (r, 0) for v, r in point.items()}
    na, da = (_ref_value(r, exact) for r in ra)
    try:
        value = s.eval_numeric(point)
    except DenominatorVanishes:
        assert da == (0, 0)
        return
    n, d = _plan_residue(s, point)
    assume(d)               # a denominator 0 mod P: the oracle redraws
    assert n * pow(d, -1, P) % P == _mod_p(value)
    if _mod_p(GR(*da)):
        # c * mono * (na + da) / da, cross-multiplied mod P
        unit = _ref_cmul(c, _ref_value({mono.exps: (1, 0)}, exact))
        num = _ref_cmul(unit, (na[0] + da[0], na[1] + da[1]))
        assert n * _mod_p(GR(*da)) % P == d * _mod_p(GR(*num)) % P


def test_plan_residue_of_every_part_kind():
    # a Gaussian constant, a unit monomial with a negative exponent, a
    # numerator factor of three terms, a binomial numerator factor and two
    # denominator factors, one squared
    q, u, w = (Scalar.var(v) for v in ("q", "u", w_var(1, 1)))
    cofactor = Scalar.one() + u + q * q
    gauss = Scalar.one() + Scalar.const(GR_I) * u
    s = (Scalar.from_mono(Monomial((("q", 3), ("u", -2))), GR(2, -3))
         * cofactor * (u - w * w)
         / (Scalar.one() - q * q * u) / (gauss * gauss))
    assert isinstance(s.c, GR) and s.m and len(s.f) == 4
    assert sorted(s.f.values()) == [-2, -1, 1, 1]
    assert sorted(len(_FACTORS[key].terms) for key in s.f) == [2, 2, 2, 3]
    point = {"q": 2, "u": P - 3, w_var(1, 1): 123456789}
    qv, uv, wv = point["q"], point["u"], point[w_var(1, 1)]
    want = (GR(2, -3) * qv * qv * qv * coeff_inverse(uv * uv)
            * (1 + uv + qv * qv) * (uv - wv * wv)
            * coeff_inverse((1 - qv * qv * uv)
                            * (1 + GR_I * uv) * (1 + GR_I * uv)))
    assert s.eval_numeric(point) == want
    n, d = _plan_residue(s, point)
    assert d and n * pow(d, -1, P) % P == _mod_p(want)
    # the zero scalar has the raw constant 0 and no part
    none = frozenset()
    assert oracle._group(Scalar.zero(), Scalar.one()) == \
        (none, none, 0, 1, 0, none, none)
    assert _plan_residue(Scalar.zero(), point) == (0, 1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ref_monos, ref_coeffs, ref_monos, ref_coeffs, ref_polys(max_terms=5),
       ref_monos, ref_coeffs)
def test_divide_binomial(m1, c1, m2, c2, g, m3, c3):
    f = {}
    _ref_add_term(f, _ref_mono(m1), c1)
    _ref_add_term(f, _ref_mono(m2), c2)
    assume(len(f) == 2)
    pf, pg = _poly(f), _poly(g)
    assert divide_binomial(pf * pg, pf) == pg
    # a monomial is never a multiple of a binomial, so neither is f*g plus one
    off = _ref_mul(f, g)
    _ref_add_term(off, _ref_mono(m3), c3)
    assert divide_binomial(_poly(off), pf) is None


# --- the sum of two bare monomials against the general path -----------------


def _general_monomial_sum(a, b):
    """a + b for bare monomials with different keys, along the general
    path of Scalar.__add__: both shifted to the lower key, the
    coefficients combined, and the binomial absorbed."""
    m = _key_min(a.m, b.m)
    x, y = POLY_ONE.mul_mono(_mono(a.m - m)), POLY_ONE.mul_mono(_mono(b.m - m))
    ca, cb = a.c, b.c
    if ca == cb:
        p = x + y
    elif ca == -cb:
        p = x - y
    elif type(ca) is int and type(cb) is int:
        g = gcd(ca, cb)
        p, ca = x.scale(ca // g) + y.scale(cb // g), g
    else:
        p = x + y.scale(_canon(cb * coeff_inverse(ca)))
    f = {}
    ca, m = _absorb(p.terms, 1, ca, m, f)
    return _scalar(ca, m, f)


# int, Fraction and Gaussian coefficients, each in canonical form
mono_coeffs = st.one_of(
    st.integers(min_value=-6, max_value=6).filter(bool),
    st.builds(GR, small_fracs).filter(lambda c: type(c) is Fraction),
    st.builds(GR, small_fracs, small_fracs.filter(bool)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(ref_monos, mono_coeffs, ref_monos, mono_coeffs,
       st.sampled_from(("free", "equal", "opposite")))
def test_monomial_sum_matches_general_path(ma, ca, mb, cb, tie):
    if tie != "free":
        cb = ca if tie == "equal" else -ca
    a = Scalar.from_mono(Monomial(_ref_mono(ma)), ca)
    b = Scalar.from_mono(Monomial(_ref_mono(mb)), cb)
    assume(a.m != b.m)
    got, want = a + b, _general_monomial_sum(a, b)
    assert got.c == want.c and got.m == want.m
    assert got.f == want.f and len(got.f) == 1
    (key, e), = got.f.items()
    assert key in _FACTORS and e == want.f[key] == 1
    assert repr(got) == repr(want)


def _is_canonical(c):
    """Whether c is a canonical coefficient: a plain int, a Fraction that
    is not integral, or a GR with canonical parts and a nonzero imaginary
    part."""
    if isinstance(c, GR):
        return bool(c.im) and _is_canonical(c.re) and _is_canonical(c.im)
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ref_scalars(), mono_coeffs, mono_coeffs,
       st.sampled_from(("free", "equal", "opposite")),
       st.fixed_dictionaries({v: small_grs for v in NAMES}))
def test_sum_and_equality_of_shared_parts_match_values(sa, ca, cb, tie,
                                                       assignment):
    # two constant multiples of one scalar share its monomial and factor
    # dict, so their sum and their equality read the constants alone
    if tie != "free":
        cb = ca if tie == "equal" else -ca
    _, s = sa
    a, b = Scalar.const(ca) * s, Scalar.const(cb) * s
    assert a.m == b.m and a.f == b.f
    try:
        value = s.eval_numeric(assignment)
    except (DenominatorVanishes, DivisionByZero):
        value = 0
    assume(value != 0)
    va, vb = a.eval_numeric(assignment), b.eval_numeric(assignment)
    total = a + b
    assert total.eval_numeric(assignment) == _canon(va + vb)
    assert total.is_zero() == (tie == "opposite")
    if not total.is_zero():
        assert (total.m, total.f) == (a.m, a.f) and _is_canonical(total.c)
    assert a.equals(b) == b.equals(a) == (va == vb)
    assert a.equals(b) == (tie == "equal" or ca == cb)


def test_a_sum_of_three_terms_is_one_table_factor(monkeypatch):
    # a polynomial of three or more terms enters a scalar only as a
    # content-free table factor with exponent 1, so a product adds
    # exponents and an equality cancels it, neither expanding it
    q, u = Scalar.var("q"), Scalar.var("u")
    s = q * u + q * q + Scalar.const(3) * q * u * u
    (key, e), = s.f.items()
    assert e == 1 and len(_FACTORS[key].terms) == 3
    assert _FACTORS[key].content_monomial().is_one() and s.m == q.m
    assert s.equals(Scalar(Poly({(q * u).m: 1, (q * q).m: 1,
                                 (q * u * u).m: 3})))
    assert s.inverse().f == {key: -1}
    x, y = one_minus(Monomial.unit("u")), one_minus(Monomial.q_int(1))
    a, b = s * x, y / s
    products = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__",
                        lambda p, r: products.append(1) or mul(p, r))
    ab = a * b
    assert ab.f == {**x.f, **y.f}
    assert (s * x).equals(x * s) and not a.equals(s * y)
    assert ab.equals(x * y)
    assert not products



# --- the raw-binomial memo and the limb bounds ------------------------------


@pytest.mark.parametrize("c1,c2", [
    (3, -6),                                # int
    (Fraction(1, 2), 3),                    # Fraction
    (Fraction(-2, 3), Fraction(4, 9)),
    (GR(1, 1), 2),                          # Gaussian
    (2, GR(0, -1)),
])
def test_binomial_memo_hit_is_a_fresh_normalization(c1, c2):
    k1 = Monomial.q_int(1).key
    k2 = (Monomial.w(1, 1) * Monomial.unit("u", -1)).key
    for raw in ((k1, c1, k2, c2), (k2, c2, k1, c1)):
        first = _binomial(*raw)
        assert _BINOMIALS[raw] is first
        hit, fresh = _binomial(*raw), _normal_binomial(*raw)
        assert hit is first
        unit, g, key = fresh
        assert hit == (unit, g, key)
        assert type(hit[0]) is type(unit)
        assert _FACTORS[key] == Poly({key[0]: key[1], key[2]: key[3]})


BOUND = (1 << 31) - 1          # the largest |exponent| a limb holds


def _key(limbs):
    """The packed key of the exponents ``limbs``, lowest limb first."""
    return sum(e << (_LIMB * k) for k, e in enumerate(limbs))


def test_extreme_exponents_stay_in_their_limbs():
    # four limbs side by side, registered together, so they are adjacent
    names = [f"edge:{n}" for n in range(4)]
    ks = [_index(v) for v in names]
    assert ks == list(range(ks[0], ks[0] + 4))
    # every limb up to the new ones at alternating +-BOUND
    edge = [BOUND if k % 2 else -BOUND for k in range(ks[-1] + 1)]
    for limbs in (edge, [-e for e in edge]):
        (got,) = _limb_rows((_key(limbs),))
        assert list(got) == limbs

    # the per-variable minimum, where every difference fits a limb
    near = [e - 1 if e > 0 else e + 1 for e in edge]
    a, b = _key(edge), _key(near)
    assert _key_min(a, b) == _key_min(b, a) == _key(map(min, edge, near))
    assert _key_min(a, 0) == _key([min(e, 0) for e in edge])

    # an extreme exponent moved into another limb of the four
    base = [0] * ks[0] + [BOUND, -BOUND, BOUND, 0]
    for src in range(3):
        plan = _substitution({names[src]: Monomial.unit(names[3])})
        want = list(base)
        want[ks[3]], want[ks[src]] = base[ks[src]], 0
        assert _substitute_key(_key(base), plan) == _key(want)

    # a shift that takes the q limb to +-BOUND between full limbs
    q, w = _index("q"), _index(w_var(97, 1))
    for sign in (1, -1):
        limbs = [sign * BOUND if k % 2 else -sign * BOUND
                 for k in range(w + 1)]
        limbs[q], limbs[w] = sign * (BOUND - 2), 1
        key = _key(limbs)
        want = list(limbs)
        want[q] = sign * BOUND
        taps = _shift_taps(DMonomial.unit(97, 1, sign).key)
        assert key + _q_shift(key, taps) == _key(want)
