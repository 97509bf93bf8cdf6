"""Exact commutative coefficient arithmetic.

The coefficient field is the field of fractions of Laurent polynomials in

* ``"q"``       -- the base unit Q = q^(1/2)          (so q = Q**2),
* ``"w:i:r"``   -- the base unit w_{i,r}^(1/2),
* ``"z:i:s"``   -- the central symbols z_{i,s},
* ``"zt:i"``    -- the central scale symbols zeta_i,
* any other name -- an adjoined spectral variable (u, v, u1, u2, ...),

with coefficients a + b*sqrt(-1), a and b rational (Gaussian rationals).
Half-integer powers of q and w are integer powers of the base units, so
every exponent is an integer.

Exponent vectors are packed integers.  An append-only registry gives each
variable name, on first use, its own signed 64-bit limb of the key, so the
key of prod v^e_v is sum e_v * 2^(64*limb(v)), a monomial product is one
integer addition and a power one integer multiplication.  Keys are decoded
only where a per-variable view is needed; everything printed or sorted is
ordered by variable name, never by limb, so no output depends on the order
in which variables were registered.

A shift-operator monomial ``DMonomial`` is packed against the same
registry: the exponent of d_{i,r} sits in the limb of ``w:i:r``, the
coordinate it shifts.  So a product of shifts is one integer addition, and
moving d past a coefficient (``Poly.conjugate``, ``Monomial.conjugate``)
pairs the limbs of the two keys: d_{i,r}^e past w_{i,r}^(h/2) costs
Q^(2*e*h), added to the q limb.  The limb layout is known only to this
module.

Every ``Poly`` carries its content monomial, the per-variable minimum
exponent over its terms, which ``Scalar`` divides out of numerator and
denominator.  It is computed from every key (a per-limb minimum) only
when nothing set it: a one-term constructor sets it to the term's key,
``mul_mono`` shifts it by the monomial's key, negation and scaling keep
it, and a product gets the sum of its factors' contents.  The product
rule is exact because the coefficients lie in an integral domain: per
variable, the parts of lowest degree of the two factors multiply to a
nonzero part of the product, and nothing else reaches that degree.  The
zero polynomial has content 1.

Coefficients are canonical: a real value is a plain int (or a Fraction when
not integral), and a GR only carries a nonzero imaginary part, so equal
coefficients compare and hash equal whatever their history.  The helpers
``coeff_inverse`` and ``coeff_pow`` invert and raise either kind exactly.

Equality of fractions is decided by cross-multiplication; no polynomial
GCD is ever computed.
"""

from __future__ import annotations

import struct
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd
from operator import or_

from .errors import DenominatorVanishes, DivisionByZero


def _as_num(x):
    """Normalize to int when exact, else Fraction.

    int and Fraction mix transparently under arithmetic, comparison and
    hashing, and int operations are far cheaper, so integral values are
    stored as plain ints.
    """
    if isinstance(x, int):
        return x
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _gaussian(re, im):
    """re + im*sqrt(-1) in canonical form: the plain real re when im is 0."""
    if not im:
        return re
    g = object.__new__(GR)
    g.re = re
    g.im = im
    return g


class GR:
    """A Gaussian rational a + b*sqrt(-1) with b != 0.

    ``GR(a, b)`` returns the plain rational a when b is 0, and arithmetic
    never leaves a GR with a zero imaginary part, so a real coefficient is
    always an int or a Fraction.  Plain reals mix with GR on either side.
    """

    __slots__ = ("re", "im")

    def __new__(cls, re=0, im=0):
        return _gaussian(_as_num(re), _as_num(im))

    def __add__(self, other):
        if isinstance(other, GR):
            return _gaussian(self.re + other.re, self.im + other.im)
        return _gaussian(self.re + other, self.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GR):
            return _gaussian(self.re - other.re, self.im - other.im)
        return _gaussian(self.re - other, self.im)

    def __rsub__(self, other):
        return _gaussian(other - self.re, -self.im)

    def __neg__(self):
        return _gaussian(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GR):
            return _gaussian(self.re * other.re - self.im * other.im,
                             self.re * other.im + self.im * other.re)
        return _gaussian(self.re * other, self.im * other)

    __rmul__ = __mul__

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        return _gaussian(_as_num(Fraction(self.re) / n),
                         _as_num(Fraction(-self.im) / n))

    def __truediv__(self, other):
        return self * coeff_inverse(other)

    def __eq__(self, other):
        return isinstance(other, GR) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if self.re == 0:
            return f"{self.im}*I"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*I)"


GR_I = GR(0, 1)


def coeff_inverse(c):
    """The exact inverse of a nonzero coefficient (real or GR)."""
    if isinstance(c, GR):
        return c.inverse()
    if not c:
        raise DivisionByZero("inverse of 0 in Q(i)")
    return _as_num(1 / Fraction(c))


def coeff_pow(c, n):
    """c**n for a coefficient c (real or GR) and any integer n."""
    if n < 0:
        c, n = coeff_inverse(c), -n
    if not isinstance(c, GR):
        return c ** n
    out = 1
    for _ in range(n):
        out = c * out
    return out


# --- variable name helpers -------------------------------------------------

def w_var(i, r):
    return f"w:{i}:{r}"


def z_var(i, s):
    return f"z:{i}:{s}"


def zeta_var(i):
    return f"zt:{i}"


# --- packed exponent keys --------------------------------------------------
#
# One signed 64-bit limb per registered variable; exponent sums at our
# scales never approach the limb bound.  Adding _BIAS[n] lifts each of the
# low n limbs into [0, 2^64) with no carry between limbs, which makes every
# limb readable on its own.

_LIMB = 64
_MASK = (1 << _LIMB) - 1
_HALF = 1 << (_LIMB - 1)

_NAMES = []             # limb -> variable name, in registration order
_INDEX = {}             # variable name -> limb
_BIAS = [0]             # _BIAS[n]: _HALF in each of the limbs 0..n-1
_LIMBS = [None]         # _LIMBS[n]: n little-endian signed limbs as bytes


def _index(name):
    """The limb of ``name``, registering the name on first use."""
    k = _INDEX.get(name)
    if k is None:
        k = _INDEX[name] = len(_NAMES)
        _NAMES.append(name)
        _BIAS.append(_BIAS[-1] | _HALF << (_LIMB * k))
        _LIMBS.append(struct.Struct(f"<{k + 1}q"))
    return k


def _limb(key, k):
    """The exponent in limb ``k`` of ``key``."""
    return (((key + _BIAS[k + 1]) >> (_LIMB * k)) & _MASK) - _HALF


def _limb_rows(keys):
    """The limbs of every key, lowest first, as equal-length tuples.

    The top nonzero limb of a key with bit length b is limb b // 64, so
    the rows stop at the top nonzero limb of the widest key.
    """
    n = max(map(abs, keys)).bit_length() // _LIMB + 1
    b, limbs, nbytes = _BIAS[n], _LIMBS[n], 8 * n
    return [limbs.unpack(((key + b) ^ b).to_bytes(nbytes, "little"))
            for key in keys]


def _key_min(a, b):
    """The key of the per-variable minimum of the keys a and b (absent
    variables read 0).

    Lifting every limb of a - b by _HALF leaves its top bit clear exactly
    where a's exponent is below b's; those limbs of a - b are added to b.
    """
    bias = _BIAS[-1]
    lifted = a - b + bias
    below = (~(lifted >> (_LIMB - 1)) & (bias >> (_LIMB - 1))) * _MASK
    return b + ((lifted & below) - (bias & below))


def _decode(key):
    """The name-sorted ((variable, exponent), ...) view of ``key``."""
    names = _NAMES
    (limbs,) = _limb_rows((key,))
    return tuple(sorted((names[k], e) for k, e in enumerate(limbs) if e))


def _substitution(subst):
    """(bit offset, limb bias, target key) per variable of the mapping
    {variable: monomial}.  Variables never registered occur nowhere and
    are skipped."""
    return [(_LIMB * k, _BIAS[k + 1], t.key)
            for v, t in subst.items() if (k := _INDEX.get(v)) is not None]


def _substitute_key(key, plan):
    """``key`` with every planned variable replaced; each exponent is read
    from ``key`` itself, so a target may hold another replaced variable."""
    out = key
    for off, bias, tk in plan:
        e = (((key + bias) >> off) & _MASK) - _HALF
        if e:
            out += e * tk - (e << off)
    return out


def _mono(key):
    m = object.__new__(Monomial)
    m.key = key
    return m


class Monomial:
    """A Laurent monomial: a thin value over one packed exponent key.

    Exponents count base units, so q^m is ``Monomial.unit("q", 2*m)`` and
    w_{i,r}^m has exponent 2*m on the ``w:i:r`` unit.  ``exps`` is the
    decoded view, a name-sorted tuple of (variable, nonzero exponent).
    """

    __slots__ = ("key",)

    def __init__(self, exps):
        key = 0
        for v, e in exps:
            if e:
                key += e << (_LIMB * _index(v))
        self.key = key

    @property
    def exps(self):
        return _decode(self.key)

    @classmethod
    def one(cls):
        return _MON_ONE

    @classmethod
    def unit(cls, var, exp=1):
        return cls(((var, exp),))

    @classmethod
    def q_half(cls, h):
        """q^(h/2) as a monomial."""
        return _mono(h << _Q_SHIFT)

    @classmethod
    def q_int(cls, m):
        return _mono((2 * m) << _Q_SHIFT)

    @classmethod
    def w(cls, i, r, m=1):
        """w_{i,r}^m (whole powers)."""
        return cls(((w_var(i, r), 2 * m),))

    @classmethod
    def w_half(cls, i, r, h=1):
        return cls(((w_var(i, r), h),))

    def __mul__(self, other):
        return _mono(self.key + other.key)

    def __pow__(self, n):
        return _mono(self.key * n)

    def inverse(self):
        return _mono(-self.key)

    def vars(self):
        return [v for v, _ in self.exps]

    def has_var(self, var):
        k = _INDEX.get(var)
        return k is not None and _limb(self.key, k) != 0

    def substitute(self, subst):
        """Replace every variable of the mapping ``subst`` by its monomial
        at once."""
        key = _substitute_key(self.key, _substitution(subst))
        return self if key == self.key else _mono(key)

    def conjugate(self, dmon):
        """This monomial moved left through ``dmon``: d * M = M' * d."""
        taps = _shift_taps(dmon.key)
        return _mono(self.key + _q_shift(self.key, taps)) if taps else self

    def is_one(self):
        return not self.key

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.key == other.key

    def __lt__(self, other):
        return self.exps < other.exps

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return _mono_repr(self.exps)


def _mono_repr(exps):
    if not exps:
        return "1"
    return "*".join(f"{v}^{e}" if e != 1 else v for v, e in exps)


_MON_ONE = _mono(0)
_Q_SHIFT = _LIMB * _index("q")
_TAPS = {}              # shift key -> its taps; limbs never move


def _shift_taps(dkey):
    """(bit offset, 2*e) for each d_{i,r}^e of the shift key ``dkey``."""
    taps = _TAPS.get(dkey)
    if taps is None:
        (limbs,) = _limb_rows((dkey,))
        taps = _TAPS[dkey] = [(_LIMB * k, 2 * e)
                              for k, e in enumerate(limbs) if e]
    return taps


def _q_shift(key, taps):
    """The q-limb increment: 2*e*h per d_{i,r}^e and w_{i,r}^(h/2)."""
    lifted = key + _BIAS[-1]
    shift = 0
    for off, f in taps:
        shift += f * (((lifted >> off) & _MASK) - _HALF)
    return shift << _Q_SHIFT


def _dmono(key):
    d = object.__new__(DMonomial)
    d.key = key
    return d


class DMonomial:
    """A commutative monomial in the shift operators d_{i,r}: a thin value
    over one packed key, the exponent of d_{i,r} in the limb of ``w:i:r``.
    ``exps`` is the decoded view, ((i, r), e) sorted by the integers (i, r).
    """

    __slots__ = ("key",)

    def __init__(self, exps):
        self.key = sum(e << (_LIMB * _index(w_var(i, r)))
                       for (i, r), e in exps if e)

    @property
    def exps(self):
        return tuple(sorted((tuple(map(int, v.split(":")[1:])), e)
                            for v, e in _decode(self.key)))

    @classmethod
    def one(cls):
        return _D_ONE

    @classmethod
    def unit(cls, i, r, e=1):
        return _dmono(e << (_LIMB * _index(w_var(i, r))))

    def __mul__(self, other):
        return _dmono(self.key + other.key)

    def is_one(self):
        return not self.key

    def __eq__(self, other):
        return isinstance(other, DMonomial) and self.key == other.key

    def __lt__(self, other):
        return self.exps < other.exps

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return "*".join(f"d[{i},{r}]^{e}" if e != 1 else f"d[{i},{r}]"
                        for (i, r), e in self.exps) or "1"


_D_ONE = _dmono(0)


def unpack_poly(p):
    """The terms of ``p`` as {Monomial: coefficient}: the one place where
    packed keys become Monomial objects."""
    return {_mono(key): c for key, c in p.terms.items()}


class Poly:
    """A Laurent polynomial: ``terms`` maps packed exponent keys (see the
    module docstring) to canonical nonzero coefficients."""

    __slots__ = ("terms", "_hash", "_content", "_occ")

    def __init__(self, terms=None, _clean=True, _content=None):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {k: c for k, c in terms.items() if c}
        else:
            self.terms = terms
        self._content = _content        # content monomial; None: not known

    @classmethod
    def zero(cls):
        return cls({}, _clean=False, _content=_MON_ONE)

    @classmethod
    def const(cls, c):
        if not isinstance(c, GR):
            c = _as_num(c)
        return cls({0: c} if c else {}, _clean=False, _content=_MON_ONE)

    @classmethod
    def mono(cls, m, c=1):
        if not c:
            return cls.zero()
        return cls({m.key: c}, _clean=False, _content=m)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        d = dict(self.terms)
        for k, c in other.terms.items():
            s = d.get(k)
            if s is None:
                d[k] = c
            else:
                s = s + c
                if s:
                    d[k] = s
                else:
                    del d[k]
        return Poly(d, _clean=False)

    def __neg__(self):
        return Poly({k: -c for k, c in self.terms.items()}, _clean=False,
                    _content=self._content)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        d = {}
        get = d.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                k = k1 + k2
                c = c1 * c2
                s = get(k)
                if s is None:
                    d[k] = c
                else:
                    s = s + c
                    if s:
                        d[k] = s
                    else:
                        del d[k]
        ca, cb = self._content, other._content
        if not d:
            content = _MON_ONE
        elif ca is None or cb is None:
            content = None
        else:
            content = _mono(ca.key + cb.key)
        return Poly(d, _clean=False, _content=content)

    def scale(self, c):
        if not c:
            return Poly.zero()
        return Poly({k: cc * c for k, cc in self.terms.items()}, _clean=False,
                    _content=self._content)

    def mul_mono(self, m):
        mk = m.key
        content = self._content
        if content is not None and self.terms:
            content = _mono(content.key + mk)
        return Poly({k + mk: c for k, c in self.terms.items()}, _clean=False,
                    _content=content)

    def conjugate(self, dmon):
        """Move the d-monomial ``dmon`` through this polynomial from the left.

        Each w_{i,r}^(h/2) picks up Q^(2*e*h) for partial-exponent e, i.e.
        d * p = p' * d with p' the returned polynomial.  Only the q limb
        moves, by an amount read off the w limbs, so distinct terms stay
        distinct.
        """
        taps = _shift_taps(dmon.key)
        if not taps:
            return self
        return Poly({key + _q_shift(key, taps): c
                     for key, c in self.terms.items()}, _clean=False)

    def substitute(self, subst):
        """Replace every variable of the mapping ``subst`` by its monomial
        in one simultaneous pass."""
        plan = _substitution(subst)
        if not plan:
            return self
        d = {}
        for key, c in self.terms.items():
            key = _substitute_key(key, plan)
            s = d.get(key)
            d[key] = c if s is None else s + c
        return Poly(d)

    def subst_const(self, var, value):
        """Replace var by the Gaussian rational ``value`` (nonzero)."""
        if not value:
            raise DivisionByZero("cannot substitute 0 for an invertible symbol")
        k = _INDEX.get(var)
        if k is None:
            return self
        off = _LIMB * k
        d = {}
        for key, c in self.terms.items():
            e = _limb(key, k)
            if e:
                c = c * coeff_pow(value, e)
                key -= e << off
            s = d.get(key)
            d[key] = c if s is None else s + c
        return Poly(d)

    def eval_numeric(self, assignment):
        """Exact evaluation; assignment maps every present variable to a
        coefficient.

        Each value is cleared to a Gaussian integer over one fixed
        denominator per variable (covering the variable's full exponent
        range), so the term sum is pure integer arithmetic with a single
        division at the end -- no per-term fraction reduction.
        """
        if not self.terms:
            return 0
        rows = _limb_rows(self.terms)
        tables = []                           # (limb, table, Dv) per variable
        D = 1
        for k, col in enumerate(zip(*rows)):
            lo, hi = min(col), max(col)
            if not (lo or hi):
                continue
            v = _NAMES[k]
            a = assignment[v]
            if not a:
                raise DivisionByZero(f"evaluation maps {v} to 0")
            are, aim = (a.re, a.im) if isinstance(a, GR) else (a, 0)
            s = 1
            for comp in (are, aim):
                if isinstance(comp, Fraction):
                    s = s * comp.denominator // gcd(s, comp.denominator)
            gre, gim = int(are * s), int(aim * s)
            norm = gre * gre + gim * gim
            hp, ln = max(hi, 0), max(-lo, 0)
            Dv = s ** hp * norm ** ln
            tab = {}
            pr, pi = 1, 0                     # (gre + i gim)^e
            for e in range(hi + 1):
                if e >= lo:
                    mult = s ** (hp - e) * norm ** ln
                    tab[e] = (pr * mult, pi * mult)
                pr, pi = pr * gre - pi * gim, pr * gim + pi * gre
            pr, pi = 1, 0                     # conj^k for e = -k
            for j in range(1, ln + 1):
                pr, pi = pr * gre + pi * gim, pi * gre - pr * gim
                e = -j
                if e <= hi:
                    mult = s ** (hp - e) * norm ** (ln + e)
                    tab[e] = (pr * mult, pi * mult)
            tables.append((k, tab, Dv))
            D *= Dv
        tre = tim = 0
        for limbs, c in zip(rows, self.terms.values()):
            pr, pi = 1, 0
            rem = D
            for k, tab, Dv in tables:
                e = limbs[k]
                if e:
                    tr, ti = tab[e]
                    pr, pi = pr * tr - pi * ti, pr * ti + pi * tr
                    rem //= Dv
            if rem != 1:
                pr *= rem
                pi *= rem
            if isinstance(c, GR):
                cre, cim = c.re, c.im
                tre += cre * pr - cim * pi
                tim += cre * pi + cim * pr
            else:
                tre += c * pr
                if pi:
                    tim += c * pi
        return _gaussian(_as_num(Fraction(tre) / D) if tre else 0,
                         _as_num(Fraction(tim) / D) if tim else 0)

    def _occupied(self):
        """The OR of every key lifted by the bias and xored back: a limb is
        nonzero exactly where some term has a nonzero exponent.  Cached;
        limbs registered later read 0, as they must, since keys never
        change."""
        try:
            return self._occ
        except AttributeError:
            bias = _BIAS[-1]
            self._occ = reduce(or_, map(bias.__xor__,
                                        map(bias.__add__, self.terms)), 0)
            return self._occ

    def variables(self):
        seen = self._occupied()
        out = set()
        k = 0
        while seen:
            if seen & _MASK:
                out.add(_NAMES[k])
            seen >>= _LIMB
            k += 1
        return out

    def has_var(self, var):
        """Whether some term has a nonzero exponent of ``var``."""
        k = _INDEX.get(var)
        return k is not None and (self._occupied() >> (_LIMB * k)) & _MASK != 0

    def content_monomial(self):
        """The per-variable minimum-exponent monomial over all terms (1 for
        zero): cached, and computed from every key only if nothing set it."""
        c = self._content
        if c is None:
            c = self._content = _mono(reduce(_key_min, self.terms)) \
                if self.terms else _MON_ONE
        return c

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        # by variable names, so it does not depend on the registration
        # order; cached, since a Poly is never mutated
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(frozenset((_decode(k), c)
                                        for k, c in self.terms.items()))
            return self._hash

    def __repr__(self):
        if not self.terms:
            return "0"
        terms = sorted(((m.exps, c) for m, c in unpack_poly(self).items()),
                       key=lambda t: t[0])
        return " + ".join(f"{c}*{_mono_repr(e)}" for e, c in terms)


POLY_ONE = Poly.const(1)


def _divide_exact(p, b):
    """Exact division of Laurent polynomial p by b; None if not divisible.

    Both are shifted by their content monomials first, then ordinary
    multivariate division with lex leading terms (over the name-sorted
    combined variable list, absent exponents read as zero) is attempted.
    """
    if b.is_zero():
        return None
    p = p.mul_mono(p.content_monomial().inverse())
    b = b.mul_mono(b.content_monomial().inverse())
    limbs = [_INDEX[v] for v in sorted(p.variables() | b.variables())]

    def lex(key):
        return tuple(_limb(key, k) for k in limbs)

    q_terms = {}
    rem = p
    b_lead = max(b.terms, key=lex)
    b_inv = coeff_inverse(b.terms[b_lead])
    while not rem.is_zero():
        lead = max(rem.terms, key=lex)
        qk = lead - b_lead
        if min(_limb_rows((qk,))[0]) < 0:
            return None
        qc = rem.terms[lead] * b_inv
        q_terms[qk] = qc
        rem = rem - b.mul_mono(_mono(qk)).scale(qc)
    return Poly(q_terms)


def _product(factors):
    """The product of a Counter of Poly factors, with multiplicity."""
    out = POLY_ONE
    for f in factors.elements():
        out = out * f
    return out


class Scalar:
    """An element of the fraction field: num / den with den a nonzero Poly.

    ``dfac`` is an optional factorization hint: a tuple of Polys whose
    product equals den exactly (with multiplicity).  Denominators in this
    engine are built as products of binomial factors, so tracking the
    factors lets addition and equality cancel the shared ones instead of
    cross-multiplying ever-growing expanded denominators.  The hint is
    dropped (None) whenever an operation cannot maintain it.
    """

    __slots__ = ("num", "den", "dfac")

    def __init__(self, num, den=None, normalize=True, dfac=None):
        if den is None:
            den = POLY_ONE
        if den.is_zero():
            raise DivisionByZero("zero denominator")
        if normalize and not num.is_zero():
            g = _key_min(num.content_monomial().key,
                         den.content_monomial().key)
            if g:
                gi = _mono(-g)
                num = num.mul_mono(gi)
                den = den.mul_mono(gi)
                if dfac is not None:
                    dfac = (dfac[0].mul_mono(gi),) + tuple(dfac[1:]) \
                        if dfac else (den,)
        if dfac is None and len(den.terms) <= 2:
            dfac = () if den == POLY_ONE else (den,)
        self.num = num
        self.den = den
        self.dfac = dfac

    # --- constructors ---

    @classmethod
    def zero(cls):
        return cls(Poly.zero(), POLY_ONE, normalize=False)

    @classmethod
    def one(cls):
        return cls(POLY_ONE, POLY_ONE, normalize=False)

    @classmethod
    def const(cls, c):
        return cls(Poly.const(c), POLY_ONE, normalize=False)

    @classmethod
    def from_mono(cls, m, c=1):
        return cls(Poly.mono(m, c), POLY_ONE, normalize=False)

    @classmethod
    def q_half(cls, h):
        return cls.from_mono(Monomial.q_half(h))

    @classmethod
    def q_int(cls, m):
        return cls.from_mono(Monomial.q_int(m))

    @classmethod
    def var(cls, name, exp=1):
        return cls.from_mono(Monomial.unit(name, exp))

    # --- predicates ---

    def is_zero(self):
        return self.num.is_zero()

    # --- arithmetic ---

    def __add__(self, other):
        if self.den == other.den:
            return Scalar(self.num + other.num, self.den, dfac=self.dfac)
        f1, f2 = self.dfac, other.dfac
        if f1 is not None and f2 is not None:
            c1, c2 = Counter(f1), Counter(f2)
            e1, e2 = c1 - c2, c2 - c1
            p1 = _product(e2)       # factors missing from self
            p2 = _product(e1)       # factors missing from other
            return Scalar(self.num * p1 + other.num * p2,
                          self.den * p1, dfac=tuple((c1 + e2).elements()))
        return Scalar(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Scalar(-self.num, self.den, normalize=False, dfac=self.dfac)

    def __mul__(self, other):
        if self.num == other.den:
            return Scalar(other.num, self.den, dfac=self.dfac)
        if other.num == self.den:
            return Scalar(self.num, other.den, dfac=other.dfac)
        f1, f2 = self.dfac, other.dfac
        dfac = f1 + f2 if f1 is not None and f2 is not None else None
        return Scalar(self.num * other.num, self.den * other.den, dfac=dfac)

    def __truediv__(self, other):
        if other.num.is_zero():
            raise DivisionByZero("division by zero scalar")
        return self * Scalar(other.den, other.num, dfac=(other.num,))

    def inverse(self):
        return Scalar.one() / self

    # --- comparisons ---

    def equals(self, other):
        """Field equality by cross-multiplication (common denominator
        factors are cancelled first when tracked)."""
        if self.den == other.den:
            return self.num == other.num
        f1, f2 = self.dfac, other.dfac
        if f1 is not None and f2 is not None:
            c1, c2 = Counter(f1), Counter(f2)
            e1, e2 = c1 - c2, c2 - c1
            if sum(e1.values()) + sum(e2.values()) \
                    < sum(c1.values()) + sum(c2.values()):
                return (self.num * _product(e2)) == (other.num * _product(e1))
        return (self.num * other.den) == (other.num * self.den)

    # --- structure operations ---

    def conjugate(self, dmon):
        return Scalar(self.num.conjugate(dmon), self.den.conjugate(dmon),
                      normalize=False,
                      dfac=None if self.dfac is None else
                      tuple(f.conjugate(dmon) for f in self.dfac))

    def substitute(self, subst):
        """Replace every variable of the mapping ``subst`` by its monomial
        at once."""
        num = self.num.substitute(subst)
        den = self.den.substitute(subst)
        if den.is_zero():
            what = ", ".join(f"{v} -> {t!r}" for v, t in subst.items())
            raise DenominatorVanishes(f"substituting {what} kills the "
                                      "denominator")
        return Scalar(num, den,
                      dfac=None if self.dfac is None else
                      tuple(f.substitute(subst) for f in self.dfac))

    def subst_const(self, var, value):
        num = self.num.subst_const(var, value)
        den = self.den.subst_const(var, value)
        if den.is_zero():
            raise DenominatorVanishes(
                f"substituting {var} -> {value!r} kills the denominator")
        return Scalar(num, den,
                      dfac=None if self.dfac is None else
                      tuple(f.subst_const(var, value) for f in self.dfac))

    def eval_numeric(self, assignment):
        d = self.den.eval_numeric(assignment)
        if not d:
            raise DenominatorVanishes("denominator vanishes at this assignment")
        return self.num.eval_numeric(assignment) * coeff_inverse(d)

    def variables(self):
        return self.num.variables() | self.den.variables()

    def has_var(self, var):
        return self.num.has_var(var) or self.den.has_var(var)

    def __repr__(self):
        if self.den == POLY_ONE:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


SCALAR_ONE = Scalar.one()


def one_minus(mono):
    """The scalar 1 - mono for a Monomial."""
    return Scalar(POLY_ONE - Poly.mono(mono), POLY_ONE, normalize=False)


def q_bracket(n):
    """[n] = (q^n - q^-n)/(q - q^-1) as an exact scalar."""
    num = Poly.mono(Monomial.q_int(n)) - Poly.mono(Monomial.q_int(-n))
    den = Poly.mono(Monomial.q_int(1)) - Poly.mono(Monomial.q_int(-1))
    return Scalar(num, den)
