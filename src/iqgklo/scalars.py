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
variable name, on first use, its own signed 32-bit limb of the key, so the
key of prod v^e_v is sum e_v * 2^(32*limb(v)), a monomial product is one
integer addition and a power one integer multiplication (see the limb
bound at ``_LIMB``).  Keys are decoded only where a per-variable view is
needed; everything printed or sorted is ordered by variable name, never
by limb, so no output depends on the order in which variables were
registered.

A shift-operator monomial ``DMonomial`` is packed against the same
registry: the exponent of d_{i,r} sits in the limb of ``w:i:r``, the
coordinate it shifts.  So a product of shifts is one integer addition, and
moving d past a coefficient (``Poly.conjugate``, ``Monomial.conjugate``)
pairs the limbs of the two keys: d_{i,r}^e past w_{i,r}^(h/2) costs
Q^(2*e*h), added to the q limb.  The limb layout is known only to this
module.

Coefficients are canonical: a real value is a plain int (or a Fraction when
not integral), and a GR only carries a nonzero imaginary part, so equal
coefficients compare and hash equal whatever their history.  The helpers
``coeff_inverse`` and ``coeff_pow`` invert and raise either kind exactly.

A ``Scalar`` is kept factored: a unit (a Gaussian rational times a
monomial) times a multiset of interned factors with signed exponents.
A scalar holds each factor's key and exponent only; the factor's
``Poly`` lives once, in the factor table, and the order of a scalar's
factors is not part of its value.  The denominators of this engine are
products of binomials, so a product or quotient only adds exponents, a
sum expands just the factors its two sides do not share, divides each
binomial denominator factor out of the result wherever it divides
exactly (``divide_binomial``, linear time) and interns what is left as
one more factor, and equality cancels the shared factors before it
cross-multiplies.  No polynomial GCD is ever computed: a common factor
that is not a binomial of the denominator is never found, so equality
never relies on reduced forms.  A substitution
rebuilds only the parts whose variables it changes, and returns the
scalar itself when there are none.
"""

from __future__ import annotations

import struct
from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd, prod
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
    if c == 1 or c == -1:
        return c
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
# One signed 32-bit limb per registered variable.  Exponent sums at our
# scales stay far inside the limb bound of 2^31: the largest |exponent| in
# any key is 60 over the test suite and 38 in ``iqgklo check`` on A1 at
# multiplicity 4 (framing 8, either theta).  Adding _BIAS[n] lifts each of
# the low n limbs into [0, 2^32) with no carry between limbs, which makes
# every limb readable on its own.

_LIMB = 32
_MASK = (1 << _LIMB) - 1
_HALF = 1 << (_LIMB - 1)

_NAMES = []             # limb -> variable name, in registration order
_INDEX = {}             # variable name -> limb
_BIAS = [0]             # _BIAS[n]: _HALF in each of the limbs 0..n-1
_LIMBS = [None]         # _LIMBS[n]: n little-endian signed limbs as bytes
_SPECTRAL = 0           # all ones in the limb of every spectral variable


def is_spectral(name):
    """Spectral variables are the plain names (u, v, u1, ...)."""
    return name != "q" and ":" not in name


def _index(name):
    """The limb of ``name``, registering the name on first use."""
    global _SPECTRAL
    k = _INDEX.get(name)
    if k is None:
        k = _INDEX[name] = len(_NAMES)
        _NAMES.append(name)
        _BIAS.append(_BIAS[-1] | _HALF << (_LIMB * k))
        _LIMBS.append(struct.Struct(f"<{k + 1}i"))
        if is_spectral(name):
            _SPECTRAL |= _MASK << (_LIMB * k)
    return k


def _limb(key, k):
    """The exponent in limb ``k`` of ``key``."""
    return (((key + _BIAS[k + 1]) >> (_LIMB * k)) & _MASK) - _HALF


def _limb_rows(keys):
    """The limbs of every key, lowest first, as equal-length tuples.

    The top nonzero limb of a key with bit length b is limb b // 32, so
    the rows stop at the top nonzero limb of the widest key.
    """
    n = max(map(abs, keys)).bit_length() // _LIMB + 1
    b, limbs, nbytes = _BIAS[n], _LIMBS[n], 4 * n
    return [limbs.unpack(((key + b) ^ b).to_bytes(nbytes, "little"))
            for key in keys]


def _key_min(a, b):
    """The key of the per-variable minimum of the keys a and b (absent
    variables read 0).

    Lifting every limb of a - b by _HALF leaves its top bit clear exactly
    where a's exponent is below b's; those limbs of a - b are added to b.
    So each difference of exponents must fit a limb too, as it does by
    far at the exponents above.
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

    def __mul__(self, other):
        return _mono(self.key + other.key)

    def __pow__(self, n):
        return _mono(self.key * n)

    def inverse(self):
        return _mono(-self.key)

    def has_var(self, var):
        k = _INDEX.get(var)
        return k is not None and _limb(self.key, k) != 0

    def has_spectral(self):
        """Whether some spectral variable has a nonzero exponent."""
        bias = _BIAS[-1]
        return ((self.key + bias) ^ bias) & _SPECTRAL != 0

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


def _eval_layout(terms):
    """The evaluation layout of a nonzero term dict: (name, lowest, highest
    exponent) per variable whose exponents are not all 0, and each term's
    exponents of those variables, in term order."""
    rows = _limb_rows(terms)
    used = [k for k, col in enumerate(zip(*rows)) if any(col)]
    cols = [[row[k] for row in rows] for k in used]
    ranges = [(_NAMES[k], min(col), max(col)) for k, col in zip(used, cols)]
    return ranges, list(zip(*cols)) if cols else [()] * len(rows)


def add_into(d, terms, shift=0, c=1):
    """Add c * X^shift * terms to the term dict ``d`` in place and return
    it; a sum that cancels is deleted, so no zero coefficient is kept.

    ``terms`` maps packed keys to nonzero coefficients and ``c`` is
    nonzero.  The key addition is skipped when ``shift`` is 0 and the
    product when ``c`` is 1, so an unshifted sum keeps the key objects it
    was given instead of building a new big int per term.
    """
    scaled = c != 1
    get = d.get
    for k, a in terms.items():
        if shift:
            k += shift
        if scaled:
            a = a * c
        s = get(k)
        if s is None:
            d[k] = a
        else:
            s = s + a
            if s:
                d[k] = s
            else:
                del d[k]
    return d


def unpack_poly(p):
    """The terms of ``p`` as {Monomial: coefficient}: the one place where
    packed keys become Monomial objects."""
    return {_mono(key): c for key, c in p.terms.items()}


class Poly:
    """A Laurent polynomial: ``terms`` maps packed exponent keys (see the
    module docstring) to canonical nonzero coefficients."""

    __slots__ = ("terms", "_occ", "_layout")

    def __init__(self, terms=None, _clean=True):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {k: c for k, c in terms.items() if c}
        else:
            self.terms = terms

    @classmethod
    def zero(cls):
        return cls({}, _clean=False)

    @classmethod
    def const(cls, c):
        if not isinstance(c, GR):
            c = _as_num(c)
        return cls({0: c} if c else {}, _clean=False)

    @classmethod
    def mono(cls, m, c=1):
        if not c:
            return cls.zero()
        return cls({m.key: c}, _clean=False)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        return Poly(add_into(dict(self.terms), other.terms), _clean=False)

    def __sub__(self, other):
        return Poly(add_into(dict(self.terms), other.terms, c=-1),
                    _clean=False)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        d = {}
        for k, c in a.items():
            add_into(d, b, k, c)
        return Poly(d, _clean=False)

    def scale(self, c):
        if c == 1:
            return self
        if not c:
            return Poly.zero()
        return Poly({k: cc * c for k, cc in self.terms.items()}, _clean=False)

    def mul_mono(self, m):
        mk = m.key
        return Poly({k + mk: c for k, c in self.terms.items()}, _clean=False)

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

    def layout(self):
        """The evaluation layout of this nonzero Poly (see
        ``_eval_layout``), decoded once and cached."""
        try:
            return self._layout
        except AttributeError:
            self._layout = _eval_layout(self.terms)
            return self._layout

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

    def has_var(self, var):
        """Whether some term has a nonzero exponent of ``var``."""
        k = _INDEX.get(var)
        return k is not None and (self._occupied() >> (_LIMB * k)) & _MASK != 0

    def content_monomial(self):
        """The per-variable minimum-exponent monomial over all terms (1 for
        zero)."""
        return _mono(reduce(_key_min, self.terms)) if self.terms else _MON_ONE

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        terms = sorted(((m.exps, c) for m, c in unpack_poly(self).items()),
                       key=lambda t: t[0])
        return " + ".join(f"{c}*{_mono_repr(e)}" for e, c in terms)


POLY_ONE = Poly.const(1)


def _canon(c):
    """A coefficient in canonical form (see the module docstring)."""
    return GR(c.re, c.im) if isinstance(c, GR) else _as_num(c)


def divide_binomial(p, b):
    """p / b for a binomial b, or None when b does not divide p.

    With b = c1 X^k1 + c2 X^k2 and delta = k2 - k1, each key of p is
    reduced modulo delta: its exponent in the pivot limb (the lowest limb
    where delta is nonzero) fixes a coset representative r and an index j
    with key = r + j*delta.  Along each coset p is a Laurent polynomial
    in Y = X^delta and b is X^k1 (c1 + c2 Y), so the quotient follows
    from the one-step recurrence c1 q_j = p_j - c2 q_{j-1}, and it is
    exact when every coset's recurrence ends on its top term.  Linear in
    the number of terms and the exponent span.
    """
    (k1, c1), (k2, c2) = b.terms.items()
    delta = k2 - k1
    low = (delta & -delta).bit_length() - 1
    off = low - low % _LIMB
    bias = _BIAS[off // _LIMB + 1]
    d = (((delta + bias) >> off) & _MASK) - _HALF
    if d < 0:
        k1, c1, k2, c2, delta, d = k2, c2, k1, c1, -delta, -d
    cosets = {}
    for key, c in p.terms.items():
        j = ((((key + bias) >> off) & _MASK) - _HALF) // d
        r = key - j * delta
        row = cosets.get(r)
        if row is None:
            cosets[r] = {j: c}
        else:
            row[j] = c
    inv = coeff_inverse(c1)
    out = {}
    for r, row in cosets.items():
        if len(row) < 2:
            return None
        lo, hi = min(row), max(row)
        base = r - k1
        q = 0
        for j in range(lo, hi):
            c = row.get(j, 0)
            if q:
                c = c - c2 * q
            q = c if inv == 1 else -c if inv == -1 else _canon(c * inv)
            if q:
                out[base + j * delta] = q
        if row[hi] != c2 * q:
            return None
    return Poly(out, _clean=False)


# --- factored scalars ------------------------------------------------------

_FACTORS = {}           # factor key -> the one Poly of that factor, its
                        # only home (scalars hold keys), and unit
                        # monomial key -> its one-term Poly
_BINOMIALS = {}         # raw (k1, c1, k2, c2) -> what _binomial returns


def _second_leads(delta):
    """For a content-free binomial X^k + X^(k+delta) with both keys
    nonzero, whether X^(k+delta) holds the name-smallest variable.

    The two keys have disjoint supports, so that variable's exponent in
    delta is positive exactly when the second key holds it.
    """
    (limbs,) = _limb_rows((delta,))
    return min((_NAMES[k], e) for k, e in enumerate(limbs) if e)[1] > 0


def _binomial(k1, c1, k2, c2):
    """c1 X^k1 + c2 X^k2 (distinct keys, nonzero coefficients) as
    (unit, g, factor key) with the binomial = unit * X^g * factor, the
    factor in the factor table under its key (see ``_normal_binomial``).
    Memoized on the raw terms: the same raw binomials recur throughout a
    check, and each is normalized once per process.
    """
    raw = (k1, c1, k2, c2)
    out = _BINOMIALS.get(raw)
    if out is None:
        out = _BINOMIALS[raw] = _normal_binomial(k1, c1, k2, c2)
    return out


def _normal_binomial(k1, c1, k2, c2):
    """``_binomial`` computed afresh.

    The factor is primitive: its content monomial is 1, its leading term
    comes first (the constant term, else the term holding the
    name-smallest variable), and its coefficients are coprime integers
    with a positive leading one, or 1 and a Gaussian ratio.  It enters
    the factor table, as the one Poly of its key, unless the key is there.
    """
    g = _key_min(k1, k2)
    k1 -= g
    k2 -= g
    if k1 and (not k2 or _second_leads(k2 - k1)):
        k1, c1, k2, c2 = k2, c2, k1, c1
    if type(c1) is int and type(c2) is int:
        unit = gcd(c1, c2)
        if c1 < 0:
            unit = -unit
        if unit != 1:
            c1 //= unit
            c2 //= unit
    else:
        ratio = _canon(c2 * coeff_inverse(c1))
        if isinstance(ratio, GR):
            unit, c1, c2 = c1, 1, ratio
        else:
            ratio = Fraction(ratio)
            unit = _canon(c1 * Fraction(1, ratio.denominator))
            c1, c2 = ratio.denominator, ratio.numerator
    key = (k1, c1, k2, c2)
    if key not in _FACTORS:
        _FACTORS[key] = Poly({k1: c1, k2: c2}, _clean=False)
    return unit, g, key


def _put(f, key, e):
    """Multiply the factor dict ``f`` (key -> exponent) by the factor of
    ``key`` raised to e != 0, in place."""
    e += f.get(key, 0)
    if e:
        f[key] = e
    else:
        del f[key]


def _absorb(terms, e, c, m, f):
    """The unit (c, m) times the nonzero term dict ``terms`` raised to
    e != 0, the factor in the factor table and its exponent in the dict
    ``f``; returns the new unit.  Only a factor of three or more terms is
    built as a Poly: its content monomial goes to the unit, and the rest
    is keyed by its term set.  This is the one way such a polynomial
    enters a scalar."""
    if len(terms) == 1:
        ((k, a),) = terms.items()
        return c * coeff_pow(a, e), m + e * k
    if len(terms) == 2:
        (k1, a1), (k2, a2) = terms.items()
        unit, g, key = _binomial(k1, a1, k2, a2)
        _put(f, key, e)
        return c * coeff_pow(unit, e), m + e * g
    poly = Poly(terms, _clean=False)
    g = poly.content_monomial().key
    if g:
        poly = poly.mul_mono(_mono(-g))
    key = frozenset(poly.terms.items())
    _FACTORS.setdefault(key, poly)
    _put(f, key, e)
    return c, m + e * g


def times_powers(s, powers):
    """The scalar s times the product of t^e over the (terms, e) pairs,
    each ``terms`` a nonzero term dict.

    Each factor goes into one factor dict with its signed exponent
    (``_absorb``), so t^e costs one step, not |e| products.  Factor order
    is not part of a scalar, so a factor whose exponent passes through 0
    may sit anywhere in the dict.
    """
    if not s.c:
        return SCALAR_ZERO
    c, m, f = s.c, s.m, dict(s.f)
    for terms, e in powers:
        if e:
            c, m = _absorb(terms, e, c, m, f)
    return _scalar(c, m, f)


def _term_sum(p, power):
    """The sum of the nonzero Poly p's terms, each its coefficient times
    power(v, e) per variable v of its decoded key (``Poly.layout``) with
    exponent e != 0."""
    ranges, rows = p.layout()
    names = [v for v, _, _ in ranges]
    total = 0
    for c, exps in zip(p.terms.values(), rows):
        for v, e in zip(names, exps):
            if e:
                c = c * power(v, e)
        total = total + c
    return total


def _scalar(c, m, f):
    s = object.__new__(Scalar)
    s.c = c
    s.m = m
    s.f = f
    return s


def _expand(powers):
    """The product of the factors of the (factor key, exponent) pairs."""
    out = POLY_ONE
    for key, e in powers:
        p = _FACTORS[key]
        for _ in range(e):
            out = p if out is POLY_ONE else out * p
    return out


def _split(fa, fb):
    """Cancel the common part of two factor dicts: the shared factors
    (each to its lower exponent, absent ones reading 0) and the
    (factor key, exponent) lists each side has left to expand."""
    shared, pa, pb = {}, [], []
    for key in fa | fb:
        ea, eb = fa.get(key, 0), fb.get(key, 0)
        e = min(ea, eb)
        if e:
            shared[key] = e
        if ea > e:
            pa.append((key, ea - e))
        if eb > e:
            pb.append((key, eb - e))
    return shared, pa, pb


class Scalar:
    """An element of the fraction field in factored form:

        c * X^m * prod over f of factor^e

    with c a nonzero Gaussian rational (0 only for the zero scalar), m a
    packed monomial key and ``f`` a dict from factor key to its nonzero
    exponent: a unit times a factor multiset, with no other part.  A
    binomial factor is primitive (see ``_binomial``) and keyed by its two
    terms; any other factor has content 1 and is keyed by its term set,
    and ``_absorb`` is the one way it enters a scalar.  Exponents are
    signed, so a factor sits in the numerator or in the denominator and
    a product cancels by adding exponents.  A scalar holds exponents
    only: the factor table, ``_FACTORS``, is each factor's one home, one
    ``Poly`` per key, which ``_binomial`` and ``_absorb`` put there when
    they first normalize the factor.  Every scalar that holds a factor
    reads that one object, so each factor's occupancy mask and
    evaluation layout are computed once.  The order of the keys in ``f``
    is not part of a scalar.  The table only grows, as does
    ``_BINOMIALS`` (see ``_binomial``).
    """

    __slots__ = ("c", "m", "f", "_occ")

    def __init__(self, num, den=None):
        f = {}
        c, m = 1, 0
        if den is not None:
            if den.is_zero():
                raise DivisionByZero("zero denominator")
            c, m = _absorb(den.terms, -1, c, m, f)
        if num.terms:
            c, m = _absorb(num.terms, 1, c, m, f)
        else:
            c, m, f = 0, 0, {}
        self.c, self.m, self.f = c, m, f

    # --- constructors ---

    @classmethod
    def zero(cls):
        return SCALAR_ZERO

    @classmethod
    def one(cls):
        return SCALAR_ONE

    @classmethod
    def const(cls, c):
        if not isinstance(c, GR):
            c = _as_num(c)
        return _scalar(c, 0, {}) if c else SCALAR_ZERO

    @classmethod
    def from_mono(cls, m, c=1):
        return _scalar(c, m.key, {}) if c else SCALAR_ZERO

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
        return not self.c

    # --- arithmetic ---

    def __add__(self, other):
        """Expand only the factors the two sides do not share, cancel each
        binomial denominator factor that divides the sum, and absorb what
        is left as one more factor (``_absorb``).  Two sides with the same
        monomial and factors add their constants, and two bare monomials
        with different keys make one binomial at once: the unit, key and
        factor that the general path ends on."""
        ca, cb = self.c, other.c
        if not ca:
            return other
        if not cb:
            return self
        if self.m == other.m and self.f == other.f:
            c = _canon(ca + cb)
            return _scalar(c, self.m, self.f) if c else SCALAR_ZERO
        if not self.f and not other.f:
            unit, g, key = _binomial(self.m, ca, other.m, cb)
            return _scalar(unit, g, {key: 1})
        f, pa, pb = _split(self.f, other.f)
        a, b = _expand(pa), _expand(pb)
        m = _key_min(self.m, other.m)
        if self.m != m:
            a = a.mul_mono(_mono(self.m - m))
        if other.m != m:
            b = b.mul_mono(_mono(other.m - m))
        if ca == cb:
            p = a + b
        elif ca == -cb:
            p = a - b
        elif type(ca) is int and type(cb) is int:
            g = gcd(ca, cb)
            p = a.scale(ca // g) + b.scale(cb // g)
            ca = g
        else:
            p = a + b.scale(_canon(cb * coeff_inverse(ca)))
        if not p.terms:
            return SCALAR_ZERO
        for key, e in list(f.items()):
            if e < 0 and type(key) is tuple:
                factor = _FACTORS[key]
                while e < 0 and len(p.terms) > 2:
                    quo = divide_binomial(p, factor)
                    if quo is None:
                        break
                    p = quo
                    e += 1
                    _put(f, key, 1)
        ca, m = _absorb(p.terms, 1, ca, m, f)
        return _scalar(ca, m, f)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _scalar(-self.c, self.m, self.f) if self.c else self

    def __mul__(self, other):
        c = self.c * other.c
        if not c:
            return SCALAR_ZERO
        fa, fb = self.f, other.f
        if not fb:
            f = fa
        elif not fa:
            f = fb
        else:
            f = dict(fa)
            for key, e in fb.items():
                _put(f, key, e)
        return _scalar(c, self.m + other.m, f)

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if not self.c:
            raise DivisionByZero("division by zero scalar")
        return _scalar(coeff_inverse(self.c), -self.m,
                       {key: -e for key, e in self.f.items()})

    # --- comparisons ---

    def equals(self, other):
        """Field equality: the shared factors cancel, and what is left is
        compared by cross-multiplication; two sides with the same monomial
        and factors compare their constants."""
        if self is other:
            return True
        ca, cb = self.c, other.c
        if not ca or not cb:
            return not ca and not cb
        if self.m == other.m and self.f == other.f:
            return ca == cb
        _, pa, pb = _split(self.f, other.f)
        a, b = _expand(pa), _expand(pb)
        if len(a.terms) != len(b.terms):
            return False
        if self.m != other.m:
            a = a.mul_mono(_mono(self.m - other.m))
        if ca != cb:
            a = a.scale(_canon(ca * coeff_inverse(cb)))
        return a == b

    # --- structure operations ---

    def _occupied(self):
        """The limbs any part of this scalar uses (see Poly._occupied)."""
        try:
            return self._occ
        except AttributeError:
            bias = _BIAS[-1]
            occ = (self.m + bias) ^ bias
            for key in self.f:
                occ |= _FACTORS[key]._occupied()
            self._occ = occ
            return occ

    def _remap(self, mask, fn, c, m, vanishes):
        """This scalar with fn applied to each part that uses a limb of
        ``mask``, over the already mapped unit (c, m)."""
        f = {}
        zero = False
        for key, e in self.f.items():
            p = _FACTORS[key]
            if not p._occupied() & mask:
                _put(f, key, e)
                continue
            p = fn(p)
            if not p.terms:
                if e < 0:
                    raise DenominatorVanishes(vanishes)
                zero = True
            else:
                c, m = _absorb(p.terms, e, c, m, f)
        return SCALAR_ZERO if zero else _scalar(c, m, f)

    def conjugate(self, dmon):
        taps = _shift_taps(dmon.key)
        mask = 0
        for off, _ in taps:
            mask |= _MASK << off
        if not self.c or not self._occupied() & mask:
            return self
        return self._remap(mask, lambda p: p.conjugate(dmon), self.c,
                           self.m + _q_shift(self.m, taps), None)

    def substitute(self, subst):
        """Replace every variable of the mapping ``subst`` by its monomial
        at once; only the parts holding one of them are rebuilt."""
        plan = _substitution(subst)
        mask = 0
        for off, _, _ in plan:
            mask |= _MASK << off
        if not self.c or not self._occupied() & mask:
            return self
        what = ", ".join(f"{v} -> {t!r}" for v, t in subst.items())
        return self._remap(mask, lambda p: p.substitute(subst), self.c,
                           _substitute_key(self.m, plan),
                           f"substituting {what} kills the denominator")

    def eval_numeric(self, assignment):
        """The exact value where each variable takes its value in
        ``assignment``, as a canonical coefficient: c times the unit
        monomial and each factor to its exponent, each of these parts
        summed term by term (``_term_sum``).  It calls neither
        ``eval_plan`` nor the oracle, whose kernel it checks; the two
        share only the decoded keys.  A variable the scalar holds that is
        0 raises DivisionByZero, then a denominator factor that is 0
        raises DenominatorVanishes."""
        if not self.c:
            return 0
        powers = {}

        def power(v, e):
            if (v, e) not in powers:
                if not assignment[v]:
                    raise DivisionByZero(f"evaluation maps {v} to 0")
                powers[v, e] = coeff_pow(assignment[v], e)
            return powers[v, e]
        parts = [(_term_sum(p, power), e) for p, e in (
            (Poly({self.m: self.c}, _clean=False), 1),
            *((_FACTORS[key], e) for key, e in self.f.items()))]
        num = prod(coeff_pow(v, e) for v, e in parts if e > 0)
        den = prod(coeff_pow(v, -e) for v, e in parts if e < 0)
        if not den:
            raise DenominatorVanishes(
                "denominator vanishes at this assignment")
        return _canon(num * coeff_inverse(den))

    def eval_plan(self):
        """(c, den, num, parts): the constant, the multiplicities of the
        denominator factors and of the numerator parts (the numerator
        factors and the unit monomial) as Counters over part keys, and
        each key's Poly; the zero scalar has c = 0 and no part.  A key
        determines its part: a factor's key (four ints for a binomial,
        the term set for any other factor) or the unit monomial's packed
        key.  The kinds never collide, so a part that several scalars
        share has one key."""
        den, num, parts = Counter(), Counter(), {}
        if not self.c:
            return 0, den, num, parts
        for key, e in self.f.items():
            if e < 0:
                den[key] = -e
            else:
                num[key] = e
            parts[key] = _FACTORS[key]
        if self.m:
            if self.m not in _FACTORS:
                _FACTORS[self.m] = Poly({self.m: 1}, _clean=False)
            num[self.m] += 1
            parts[self.m] = _FACTORS[self.m]
        return self.c, den, num, parts

    def has_var(self, var):
        k = _INDEX.get(var)
        return k is not None and (self._occupied() >> (_LIMB * k)) & _MASK != 0

    def has_spectral(self):
        """Whether some part holds a spectral variable; none can while no
        spectral name is registered, and then no occupancy is computed."""
        return _SPECTRAL != 0 and self._occupied() & _SPECTRAL != 0

    def den_factors(self):
        """The factors of the denominator, one Poly per distinct factor:
        the factor table's object of each key."""
        return [_FACTORS[key] for key, e in self.f.items() if e < 0]

    def fraction(self):
        """(numerator, denominator) as expanded Polys: the unit monomial's
        negative exponents go to the denominator, the rest and the
        constant to the numerator."""
        neg = _key_min(self.m, 0)
        _, up, down = _split(self.f, {})    # against no factor: e > 0, e < 0
        num, den = _expand(up), _expand(down)
        return (num.mul_mono(_mono(self.m - neg)).scale(self.c),
                den.mul_mono(_mono(-neg)))

    def __repr__(self):
        if not self.c:
            return "0"
        num, den = self.fraction()
        if den == POLY_ONE:
            return repr(num)
        return f"({num!r})/({den!r})"


SCALAR_ZERO = _scalar(0, 0, {})
SCALAR_ONE = _scalar(1, 0, {})
