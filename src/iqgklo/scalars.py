"""Exact commutative coefficient arithmetic.

The coefficient field is the field of fractions of Laurent polynomials in

* ``"q"``       -- the base unit Q = q^(1/2)          (so q = Q**2),
* ``"w:i:r"``   -- the base unit w_{i,r}^(1/2),
* ``"z:i:s"``   -- the central symbols z_{i,s},
* ``"zt:i"``    -- the central scale symbols zeta_i,
* any other name -- an adjoined spectral variable (u, v, u1, u2, ...),

with coefficients a + b*sqrt(-1), a and b rational (Gaussian rationals).
Half-integer powers of q and w are integer powers of the base units, so
every exponent in a Monomial is an integer.

Equality of fractions is decided by cross-multiplication; no polynomial
GCD is ever computed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd

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


class GR:
    """A Gaussian rational a + b*sqrt(-1)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, int) else _as_num(re)
        self.im = im if isinstance(im, int) else _as_num(im)

    def __add__(self, other):
        r = object.__new__(GR)
        r.re = self.re + other.re
        r.im = self.im + other.im
        return r

    def __sub__(self, other):
        r = object.__new__(GR)
        r.re = self.re - other.re
        r.im = self.im - other.im
        return r

    def __neg__(self):
        r = object.__new__(GR)
        r.re = -self.re
        r.im = -self.im
        return r

    def __mul__(self, other):
        r = object.__new__(GR)
        if self.im or other.im:
            r.re = self.re * other.re - self.im * other.im
            r.im = self.re * other.im + self.im * other.re
        else:
            r.re = self.re * other.re
            r.im = 0
        return r

    def inverse(self):
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise DivisionByZero("inverse of 0 in Q(i)")
        if isinstance(n, int):
            return GR(Fraction(self.re, n), Fraction(-self.im, n))
        return GR(self.re / n, -self.im / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        base = self if n >= 0 else self.inverse()
        out = GR(1)
        for _ in range(abs(n)):
            out = out * base
        return out

    def __eq__(self, other):
        return isinstance(other, GR) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*I"
        return f"({self.re}{'+' if self.im > 0 else '-'}{abs(self.im)}*I)"


GR_ZERO = GR(0)
GR_ONE = GR(1)
GR_I = GR(0, 1)


# --- variable name helpers -------------------------------------------------

def w_var(i, r):
    return f"w:{i}:{r}"


def z_var(i, s):
    return f"z:{i}:{s}"


def zeta_var(i):
    return f"zt:{i}"


def is_w_var(name):
    return name.startswith("w:")


def w_var_index(name):
    _, i, r = name.split(":")
    return int(i), int(r)


class Monomial:
    """A Laurent monomial: an immutable map variable -> integer exponent.

    Exponents count base units, so q^m is ``Monomial.of(("q", 2*m))`` and
    w_{i,r}^m has exponent 2*m on the ``w:i:r`` unit.
    """

    __slots__ = ("exps", "_hash")

    def __init__(self, exps):
        # exps: iterable of (var, exp); zero exponents dropped, sorted.
        self.exps = tuple(sorted((v, e) for v, e in exps if e != 0))
        self._hash = hash(self.exps)

    @classmethod
    def one(cls):
        return _MON_ONE

    @classmethod
    def unit(cls, var, exp=1):
        return cls(((var, exp),))

    @classmethod
    def q_half(cls, h):
        """q^(h/2) as a monomial."""
        return cls((("q", h),))

    @classmethod
    def q_int(cls, m):
        return cls((("q", 2 * m),))

    @classmethod
    def w(cls, i, r, m=1):
        """w_{i,r}^m (whole powers)."""
        return cls(((w_var(i, r), 2 * m),))

    @classmethod
    def w_half(cls, i, r, h=1):
        return cls(((w_var(i, r), h),))

    def __mul__(self, other):
        a, b = self.exps, other.exps
        if not a:
            return other
        if not b:
            return self
        out = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            va, ea = a[i]
            vb, eb = b[j]
            if va == vb:
                e = ea + eb
                if e:
                    out.append((va, e))
                i += 1
                j += 1
            elif va < vb:
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        m = object.__new__(Monomial)
        m.exps = tuple(out)
        m._hash = hash(m.exps)
        return m

    def __pow__(self, n):
        return Monomial((v, e * n) for v, e in self.exps)

    def inverse(self):
        return self ** -1

    def exp_of(self, var):
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def vars(self):
        return [v for v, _ in self.exps]

    def has_var(self, var):
        return any(v == var for v, _ in self.exps)

    def substitute(self, var, target):
        """Replace var by the monomial ``target`` (which must not contain var)."""
        e = self.exp_of(var)
        if e == 0:
            return self
        rest = Monomial((v, k) for v, k in self.exps if v != var)
        return rest * (target ** e)

    def is_one(self):
        return not self.exps

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __lt__(self, other):
        return self.exps < other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(f"{v}^{e}" if e != 1 else v for v, e in self.exps)


_MON_ONE = Monomial(())

# exponent-vector packing for large polynomial products: one signed
# 64-bit limb per variable (exponent sums at our scales never approach
# the limb bound)
_LIMB = 64
_LMASK = (1 << _LIMB) - 1
_LHALF = 1 << (_LIMB - 1)
_LFULL = 1 << _LIMB


def pack_positions(names):
    """Variable name -> bit offset for the packed-exponent encoding."""
    return {v: _LIMB * k for k, v in enumerate(sorted(names))}


def pack_mono(m, pos):
    key = 0
    for v, e in m.exps:
        key += e << pos[v]
    return key


def pack_poly(p, pos):
    """Poly -> {packed key: GR coefficient} under the given positions."""
    return {pack_mono(m, pos): c for m, c in p.terms.items()}


def unpack_poly(d, order):
    """Inverse of pack_poly; ``order`` is the sorted variable-name list."""
    out = {}
    for key, c in d.items():
        exps = []
        kk = key
        for v in order:
            r = kk & _LMASK
            if r >= _LHALF:
                r -= _LFULL
                kk += _LFULL
            kk >>= _LIMB
            if r:
                exps.append((v, r))
        m = object.__new__(Monomial)
        m.exps = tuple(exps)
        m._hash = hash(m.exps)
        out[m] = c
    return Poly(out, _clean=False)


class Poly:
    """A Laurent polynomial: map Monomial -> GR, zero coefficients absent."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, _clean=True):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {m: c for m, c in terms.items() if c}
        else:
            self.terms = terms

    @classmethod
    def zero(cls):
        return cls({}, _clean=False)

    @classmethod
    def const(cls, c):
        if not isinstance(c, GR):
            c = GR(c)
        return cls({_MON_ONE: c} if c else {}, _clean=False)

    @classmethod
    def mono(cls, m, c=GR_ONE):
        return cls({m: c} if c else {}, _clean=False)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        d = dict(self.terms)
        for m, c in other.terms.items():
            s = d.get(m)
            if s is None:
                d[m] = c
            else:
                s = s + c
                if s:
                    d[m] = s
                else:
                    del d[m]
        return Poly(d, _clean=False)

    def __neg__(self):
        return Poly({m: -c for m, c in self.terms.items()}, _clean=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return Poly.zero()
        if len(a) * len(b) <= 48:
            d = {}
            for m1, c1 in a.items():
                for m2, c2 in b.items():
                    m = m1 * m2
                    c = c1 * c2
                    s = d.get(m)
                    if s is None:
                        d[m] = c
                    else:
                        s = s + c
                        if s:
                            d[m] = s
                        else:
                            del d[m]
            return Poly(d, _clean=False)
        # large product: pack each exponent vector into one integer (one
        # signed 64-bit limb per variable), so a monomial product is a
        # single integer addition instead of a tuple merge
        names = set()
        for m in a:
            names.update(v for v, _ in m.exps)
        for m in b:
            names.update(v for v, _ in m.exps)
        order = sorted(names)
        pos = pack_positions(order)
        # purely real coefficients (the common case) are accumulated as
        # plain numbers and wrapped back into GR only once per output term
        real = all(not c.im for c in a.values()) \
            and all(not c.im for c in b.values())
        if real:
            ea = [(pack_mono(m, pos), c.re) for m, c in a.items()]
            eb = [(pack_mono(m, pos), c.re) for m, c in b.items()]
        else:
            ea = [(pack_mono(m, pos), c) for m, c in a.items()]
            eb = [(pack_mono(m, pos), c) for m, c in b.items()]
        d = {}
        get = d.get
        for k1, c1 in ea:
            for k2, c2 in eb:
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
        if real:
            for key, c in d.items():
                g = object.__new__(GR)
                g.re = c
                g.im = 0
                d[key] = g
        return unpack_poly(d, order)

    def scale(self, c):
        if not c:
            return Poly.zero()
        return Poly({m: cc * c for m, cc in self.terms.items()}, _clean=False)

    def mul_mono(self, m):
        return Poly({mm * m: c for mm, c in self.terms.items()}, _clean=False)

    def conjugate(self, dmon):
        """Move the d-monomial ``dmon`` through this polynomial from the left.

        Each w_{i,r}^(h/2) picks up Q^(2*e*h) for partial-exponent e, i.e.
        d * p = p' * d with p' the returned polynomial.
        """
        if not dmon.exps:
            return self
        d = {}
        for m, c in self.terms.items():
            shift = 0
            for (i, r), e in dmon.exps:
                h = m.exp_of(w_var(i, r))
                if h:
                    shift += 2 * e * h
            if shift:
                m = m * Monomial.q_half(shift)
            d[m] = d.get(m, GR_ZERO) + c
        return Poly(d)

    def substitute(self, var, target):
        d = {}
        for m, c in self.terms.items():
            m2 = m.substitute(var, target)
            s = d.get(m2)
            d[m2] = c if s is None else s + c
        return Poly(d)

    def subst_const(self, var, value):
        """Replace var by the Gaussian rational ``value`` (nonzero)."""
        if not value:
            raise DivisionByZero("cannot substitute 0 for an invertible symbol")
        d = {}
        for m, c in self.terms.items():
            e = m.exp_of(var)
            if e:
                c = c * (value ** e if e > 0 else value.inverse() ** (-e))
                m = Monomial((v, k) for v, k in m.exps if v != var)
            s = d.get(m)
            d[m] = c if s is None else s + c
        return Poly(d)

    def eval_numeric(self, assignment):
        """Exact evaluation; assignment maps every present variable to GR.

        Each value is cleared to a Gaussian integer over one fixed
        denominator per variable (covering the variable's full exponent
        range), so the term sum is pure integer arithmetic with a single
        division at the end -- no per-term fraction reduction.
        """
        if not self.terms:
            return GR_ZERO
        lo, hi = {}, {}
        for m in self.terms:
            for v, e in m.exps:
                if v not in lo:
                    lo[v] = hi[v] = e
                elif e < lo[v]:
                    lo[v] = e
                elif e > hi[v]:
                    hi[v] = e
        tables = {}
        D = 1
        for v in lo:
            a = assignment[v]
            if not a:
                raise DivisionByZero(f"evaluation maps {v} to 0")
            are, aim = a.re, a.im
            s = 1
            for comp in (are, aim):
                if isinstance(comp, Fraction):
                    s = s * comp.denominator // gcd(s, comp.denominator)
            gre, gim = int(are * s), int(aim * s)
            norm = gre * gre + gim * gim
            hp, ln = max(hi[v], 0), max(-lo[v], 0)
            Dv = s ** hp * norm ** ln
            tab = {}
            pr, pi = 1, 0                     # (gre + i gim)^e
            for e in range(hi[v] + 1):
                if e >= lo[v]:
                    mult = s ** (hp - e) * norm ** ln
                    tab[e] = (pr * mult, pi * mult)
                pr, pi = pr * gre - pi * gim, pr * gim + pi * gre
            pr, pi = 1, 0                     # conj^k for e = -k
            for k in range(1, ln + 1):
                pr, pi = pr * gre + pi * gim, pi * gre - pr * gim
                e = -k
                if e <= hi[v]:
                    mult = s ** (hp - e) * norm ** (ln + e)
                    tab[e] = (pr * mult, pi * mult)
            tables[v] = (tab, Dv)
            D *= Dv
        tre = tim = 0
        for m, c in self.terms.items():
            pr, pi = 1, 0
            rem = D
            for v, e in m.exps:
                tab, Dv = tables[v]
                tr, ti = tab[e]
                pr, pi = pr * tr - pi * ti, pr * ti + pi * tr
                rem //= Dv
            if rem != 1:
                pr *= rem
                pi *= rem
            cre, cim = c.re, c.im
            if cim:
                tre += cre * pr - cim * pi
                tim += cre * pi + cim * pr
            else:
                tre += cre * pr
                if pi:
                    tim += cre * pi
        return GR(_as_num(Fraction(tre) / D) if tre else 0,
                  _as_num(Fraction(tim) / D) if tim else 0)

    def variables(self):
        out = set()
        for m in self.terms:
            out.update(m.vars())
        return out

    def content_monomial(self):
        """The per-variable minimum-exponent monomial over all terms."""
        if not self.terms:
            return _MON_ONE
        mins = None
        for m in self.terms:
            cur = dict(m.exps)
            if mins is None:
                mins = cur
            else:
                for v in list(mins):
                    mins[v] = min(mins[v], cur.get(v, 0))
                for v in cur:
                    if v not in mins:
                        mins[v] = min(0, cur[v])
        return Monomial(mins.items())

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"{c!r}*{m!r}" for m, c in sorted(self.terms.items()))


POLY_ONE = Poly.const(1)


def _divide_exact(p, b):
    """Exact division of Laurent polynomial p by b; None if not divisible.

    Both are shifted by their content monomials first, then ordinary
    multivariate division with lex leading terms (over the combined
    variable list, absent exponents read as zero) is attempted.
    """
    if b.is_zero():
        return None
    p = p.mul_mono(p.content_monomial().inverse())
    b = b.mul_mono(b.content_monomial().inverse())
    varlist = sorted(p.variables() | b.variables())

    def key(m):
        d = dict(m.exps)
        return tuple(d.get(v, 0) for v in varlist)

    q_terms = {}
    rem = p
    b_lead = max(b.terms, key=key)
    b_lc = b.terms[b_lead]
    while not rem.is_zero():
        lead = max(rem.terms, key=key)
        qm = lead * b_lead.inverse()
        if any(e < 0 for _, e in qm.exps):
            return None
        qc = rem.terms[lead] / b_lc
        q_terms[qm] = qc
        rem = rem - b.mul_mono(qm).scale(qc)
    return Poly(q_terms)


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
            cn = dict(num.content_monomial().exps)
            cd = dict(den.content_monomial().exps)
            g = Monomial((v, min(cn.get(v, 0), cd.get(v, 0)))
                         for v in set(cn) | set(cd))
            if not g.is_one():
                gi = g.inverse()
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
    def from_mono(cls, m, c=GR_ONE):
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

    @classmethod
    def sqrt_minus_one(cls):
        return cls.const(GR_I)

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
            p1 = POLY_ONE           # product of factors missing from self
            for f, k in e2.items():
                for _ in range(k):
                    p1 = p1 * f
            p2 = POLY_ONE           # product of factors missing from other
            for f, k in e1.items():
                for _ in range(k):
                    p2 = p2 * f
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

    def scale_const(self, c):
        return Scalar(self.num.scale(c), self.den, normalize=False,
                      dfac=self.dfac)

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
                p1 = POLY_ONE
                for f, k in e2.items():
                    for _ in range(k):
                        p1 = p1 * f
                p2 = POLY_ONE
                for f, k in e1.items():
                    for _ in range(k):
                        p2 = p2 * f
                return (self.num * p1) == (other.num * p2)
        return (self.num * other.den) == (other.num * self.den)

    # --- structure operations ---

    def conjugate(self, dmon):
        return Scalar(self.num.conjugate(dmon), self.den.conjugate(dmon),
                      normalize=False,
                      dfac=None if self.dfac is None else
                      tuple(f.conjugate(dmon) for f in self.dfac))

    def substitute(self, var, target):
        num = self.num.substitute(var, target)
        den = self.den.substitute(var, target)
        if den.is_zero():
            raise DenominatorVanishes(
                f"substituting {var} -> {target!r} kills the denominator")
        return Scalar(num, den,
                      dfac=None if self.dfac is None else
                      tuple(f.substitute(var, target) for f in self.dfac))

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
        return self.num.eval_numeric(assignment) / d

    def variables(self):
        return self.num.variables() | self.den.variables()

    def __repr__(self):
        if self.den == POLY_ONE:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


SCALAR_ZERO = Scalar.zero()
SCALAR_ONE = Scalar.one()


def one_minus(mono):
    """The scalar 1 - mono for a Monomial."""
    return Scalar(POLY_ONE - Poly.mono(mono), POLY_ONE, normalize=False)


def q_bracket(n):
    """[n] = (q^n - q^-n)/(q - q^-1) as an exact scalar."""
    num = Poly.mono(Monomial.q_int(n)) - Poly.mono(Monomial.q_int(-n))
    den = Poly.mono(Monomial.q_int(1)) - Poly.mono(Monomial.q_int(-1))
    return Scalar(num, den)
