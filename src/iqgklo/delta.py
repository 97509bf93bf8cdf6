"""Formal delta-function calculus over the quantum torus.

Two layers:

* FactorCurrent -- a rational function of one spectral variable kept in
  fully factored form  pref * x^power * prod (1 - c*M*x)^e,  where each c
  is a Gaussian-rational unit and each M a Laurent monomial free of x.
  Factored form gives structural access to poles, zeros, leading terms
  and residues.

* Distribution -- a finite sum of delta-supported operator terms.  Each
  term is (pins, coeff, dmon): ``pins`` maps spectral variables to their
  monomial targets (the content of the delta factors), ``coeff`` is a
  Scalar with every pinned variable substituted out, and ``dmon`` is the
  commuting shift-operator monomial standing rightmost.
"""

from __future__ import annotations

from math import comb

from .errors import (
    DenominatorVanishes, DoublePin, NonSimplePole, UnpinnedResidual,
)
from .scalars import (
    DMonomial, Monomial, Poly, SCALAR_ONE, Scalar, add_into, coeff_inverse,
    coeff_pow, is_spectral, times_powers,
)


def _current(var, pref, power, factors):
    """A FactorCurrent over a normalized factor dict (each key once, no
    zero exponent or coefficient), which it takes over as it is."""
    fc = object.__new__(FactorCurrent)
    fc.var = var
    fc.pref = pref
    fc.power = power
    fc.factors = factors
    return fc


class FactorCurrent:
    """pref * x^power * prod over ((c, M), e) of (1 - c*M*x)^e.

    The constructor normalizes the factors it is given: equal keys are
    merged in order of first appearance, and zero exponents and zero
    coefficients are dropped.  Every other way of making a current starts
    from a normalized dict and keeps it normalized, with the items and the
    order that the constructor would give."""

    __slots__ = ("var", "pref", "power", "factors")

    def __init__(self, var, pref=SCALAR_ONE, power=0, factors=None):
        self.var = var
        self.pref = pref
        self.power = power
        self.factors = {}
        if factors:
            for (c, M), e in (factors.items() if isinstance(factors, dict)
                              else factors):
                if e == 0 or not c:
                    continue
                key = (c, M)
                self.factors[key] = self.factors.get(key, 0) + e
            self.factors = {k: e for k, e in self.factors.items() if e != 0}

    @classmethod
    def one(cls, var):
        return cls(var)

    def copy_with(self, pref=None, power=None, factors=None):
        """A copy with the given parts replaced; ``factors`` must be a
        normalized dict."""
        return _current(
            self.var,
            self.pref if pref is None else pref,
            self.power if power is None else power,
            dict(self.factors) if factors is None else factors)

    # --- builders -----------------------------------------------------

    def times_linear(self, M, c=1, e=1):
        """Multiply by (1 - c*M*x)^e: a new factor goes last, a factor
        already present takes the summed exponent in its place and leaves
        when that sum is 0."""
        f = dict(self.factors)
        if e and c:
            key = (c, M)
            e += f.get(key, 0)
            if e:
                f[key] = e
            else:
                del f[key]
        return self.copy_with(factors=f)

    def times_linear_inv_arg(self, M, c=1, e=1):
        """Multiply by (1 - c*M/x)^e = [-c*M/x * (1 - c^{-1}M^{-1}x)]^e."""
        pref = times_powers(self.pref, [({M.key: -c}, e)])
        return self.copy_with(pref=pref, power=self.power - e) \
                   .times_linear(M.inverse(), coeff_inverse(c), e)

    def times_power(self, k):
        return self.copy_with(power=self.power + k)

    def scale(self, s):
        return self.copy_with(pref=self.pref * s)

    def __mul__(self, other):
        assert self.var == other.var
        return FactorCurrent(self.var, self.pref * other.pref,
                             self.power + other.power,
                             [*self.factors.items(), *other.factors.items()])

    def inverse(self):
        return _current(self.var, self.pref.inverse(), -self.power,
                        {k: -e for k, e in self.factors.items()})

    def __truediv__(self, other):
        return self * other.inverse()

    # --- argument changes ---------------------------------------------

    def scale_arg(self, M, c=1):
        """Substitute x -> c*M*x (c nonzero), which maps distinct factors
        to distinct factors."""
        pref = self.pref * Scalar.from_mono(M ** self.power,
                                            coeff_pow(c, self.power))
        return _current(self.var, pref, self.power,
                        {(ct * c, Mt * M): e
                         for (ct, Mt), e in self.factors.items()})

    def invert_arg(self):
        """Substitute x -> 1/x."""
        out = FactorCurrent(self.var, self.pref, -self.power, {})
        for (c, M), e in self.factors.items():
            out = out.times_linear_inv_arg(M, c, e)
        return out

    def rename_var(self, newvar):
        return _current(newvar, self.pref, self.power, dict(self.factors))

    def conjugate(self, dmon):
        """Move a shift-operator monomial through from the left; distinct
        monomials stay distinct (see ``Poly.conjugate``)."""
        return _current(self.var, self.pref.conjugate(dmon), self.power,
                        {(c, M.conjugate(dmon)): e
                         for (c, M), e in self.factors.items()})

    # --- evaluation ----------------------------------------------------

    def evaluate(self, a):
        """The Scalar value at x = a (a Monomial, possibly spectral).

        Each linear factor 1 - c*M*a goes into the prefactor once, with its
        signed exponent (``times_powers``).  The first factor that vanishes
        makes the value 0, or raises when it is a pole."""
        powers = [({a.key: 1}, self.power)]
        for (c, M), e in self.factors.items():
            k = M.key + a.key
            if k:
                powers.append(({0: 1, k: -c}, e))
            elif c != 1:
                powers.append(({0: 1 - c}, e))
            elif e < 0:
                raise DenominatorVanishes(
                    f"evaluation at {a!r} hits the pole (1-{c}*{M!r}*x)")
            else:
                return Scalar.zero()
        return times_powers(self.pref, powers)

    def to_scalar(self):
        return self.evaluate(Monomial.unit(self.var))

    def drop_factor(self, key):
        f = dict(self.factors)
        del f[key]
        return self.copy_with(factors=f)

    # --- asymptotics ----------------------------------------------------

    def degree_at_infinity(self):
        return self.power + sum(self.factors.values())

    def leading_at_infinity(self):
        """(degree, coefficient) of the top term of the expansion at x=infinity."""
        coeff = times_powers(self.pref, [({M.key: -c}, e) for (c, M), e
                                         in self.factors.items()])
        return self.degree_at_infinity(), coeff

    def series_raw(self, side, order, low=None):
        """Truncated Laurent expansion on [low, order], low defaulting to
        -order, as (pref, {x-exponent: Poly}), the scalar prefactor left
        unmultiplied.

        Each factor is expanded by the binomial series of (1 - t)^e: on side
        "zero" in t = c*M*x, on side "infinity" in t = 1/(c*M*x), after
        writing (1 - c*M*x)^e = (-c*M*x)^e * (1 - t)^e.  So the expansion at
        zero starts at x^power and the one at infinity at the top degree
        x^(power + sum e), and from there every factor moves exponents only
        up (zero) or only down (infinity): an exponent past the window on
        that side is dropped as soon as it appears.  The expansion is
        convolved over the packed terms of denominator-free Polys.  An
        empty window (low > order) returns no coefficient at once.
        """
        low = -order if low is None else low
        if low > order:
            return self.pref, {}
        down = side == "infinity"
        start = self.degree_at_infinity() if down else self.power
        cur = {start: {0: 1}} if (start >= low if down else start <= order) \
            else {}
        for (c, M), e in self.factors.items():
            if not cur:
                break
            jmax = max(cur) - low if down else order - min(cur)
            if e > 0:
                jmax = min(jmax, e)
            nxt = {}
            for j in range(jmax + 1):
                # the coefficient of t^j in (1 - t)^e
                b = (-1) ** j * comb(e, j) if e > 0 else comb(j - e - 1, j)
                if down:
                    shift, mexp = -j, e - j
                    b = -b if e % 2 else b
                else:
                    shift = mexp = j
                cc = b * coeff_pow(c, mexp)
                for n, p in cur.items():
                    k = n + shift
                    if (k < low) if down else (k > order):
                        continue
                    add_into(nxt.setdefault(k, {}), p, mexp * M.key, cc)
            cur = nxt
        return self.pref, {n: Poly(p, _clean=False) for n, p in cur.items()
                           if low <= n <= order and p}

    def equals(self, other):
        """Equality as rational functions (cross-multiplied)."""
        return self.to_scalar().equals(other.to_scalar())

    def __repr__(self):
        fs = " * ".join(f"(1-{c}*{M!r}*{self.var})^{e}"
                        for (c, M), e in self.factors.items())
        return f"[{self.pref!r} * {self.var}^{self.power}" + \
               (f" * {fs}]" if fs else "]")


# --- distributions -----------------------------------------------------


def resolve_pins(pins):
    """Substitute pinned variables into one another's targets to a fixpoint.

    Pinned variables are spectral, so when no target holds a spectral
    variable there is nothing to substitute."""
    pins = dict(pins)
    if not any(M.has_spectral() for M in pins.values()):
        return pins
    names = sorted(pins)
    for _ in range(len(pins) + 2):
        changed = False
        for v, t in list(pins.items()):
            for u in names:
                if u != v and t.has_var(u) and not pins[u].has_var(v) \
                        and not pins[u].has_var(u):
                    pins[v] = pins[v].substitute({u: pins[u]})
                    changed = True
                    break
        if not changed:
            break
    return pins


def _pins_key(pins):
    return tuple(sorted((v, M.key) for v, M in pins.items()))


def _pinned(pins, coeff):
    """coeff with each pinned variable replaced by its target; a
    coefficient free of spectral variables holds none of them."""
    if not pins or not coeff.has_spectral():
        return coeff
    for v, M in pins.items():
        if coeff.has_var(v):
            coeff = coeff.substitute({v: M})
    return coeff


class Distribution:
    """Finite sum of (pins, coeff, dmon) terms, merged on (pins, dmon).

    Every result has the receiver's type, so a subclass (the pin-free
    ``torus.TorusElement``) is closed under the algebra."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}      # (pins_key, dmon) -> (pins dict, Scalar)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def single(cls, pins, coeff, dmon=None):
        out = cls()
        out.add_term(pins, coeff, dmon or DMonomial.one())
        return out

    def add_term(self, pins, coeff, dmon):
        """Add one term; pins are resolved and substituted into coeff."""
        pins = resolve_pins(pins)
        self._merge((_pins_key(pins), dmon), pins, _pinned(pins, coeff))

    def _merge(self, key, pins, coeff):
        """Add one term that is already resolved, under its merge key."""
        old = self.terms.get(key)
        self.terms[key] = (pins, coeff if old is None else old[1] + coeff)

    def _resolved(self):
        """(merge key, pins, coeff) per term, zero coefficients skipped."""
        for key, (pins, coeff) in self.terms.items():
            if not coeff.is_zero():
                yield key, pins, coeff

    def items(self):
        """Yield (pins, coeff, dmon) with zero coefficients skipped."""
        for (_, dmon), pins, coeff in self._resolved():
            yield pins, coeff, dmon

    def is_zero(self):
        return all(c.is_zero() for _, c in self.terms.values())

    def _sum(self, other, negate):
        """self + other, or self - other when ``negate``, in one pass over
        terms that are already resolved, so no pin is resolved or
        substituted again."""
        out = type(self)()
        for key, pins, coeff in self._resolved():
            out._merge(key, pins, coeff)
        for key, pins, coeff in other._resolved():
            out._merge(key, pins, -coeff if negate else coeff)
        return out

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        out = type(self)()
        out.terms = {key: (pins, -coeff)
                     for key, pins, coeff in self._resolved()}
        return out

    def scale(self, s):
        """Left-multiply every coefficient by a pin-free scalar; the
        products stay pin-free, so nothing is substituted.  Scalars
        commute, and ``coeff * s`` copies the larger factor dict."""
        out = type(self)()
        out.terms = {key: (pins, coeff * s)
                     for key, pins, coeff in self._resolved()}
        return out

    def map_coeff(self, fn):
        """Replace each coefficient by fn(pins, coeff) (pins substituted after)."""
        out = type(self)()
        out.terms = {key: (pins, _pinned(pins, fn(pins, coeff)))
                     for key, pins, coeff in self._resolved()}
        return out

    def __mul__(self, other):
        out = type(self)()
        right = list(other.items())
        for pins1, c1, d1 in self.items():
            for pins2, c2, d2 in right:
                overlap = set(pins1) & set(pins2)
                if overlap:
                    raise DoublePin(f"variables {sorted(overlap)} pinned in "
                                    "both factors")
                pins = dict(pins1)
                for v, M in pins2.items():
                    pins[v] = M.conjugate(d1)
                out.add_term(pins, c1 * c2.conjugate(d1), d1 * d2)
        return out

    def rename_spectral(self, mapping):
        """Simultaneously rename free spectral variables (a bijection).

        A bijective renaming of resolved terms leaves them resolved, so the
        renamed terms are merged directly, in order, and no pin is
        resolved or substituted again."""
        subst = {old: Monomial.unit(new) for old, new in mapping.items()}
        out = type(self)()
        for (_, dmon), pins, coeff in self._resolved():
            pins = {mapping.get(v, v): M.substitute(subst)
                    for v, M in pins.items()}
            out._merge((_pins_key(pins), dmon), pins, coeff.substitute(subst))
        return out

    def __repr__(self):
        parts = []
        for pins, coeff, dmon in self.items():
            ps = "".join(f"delta[{v}={M!r}]" for v, M in sorted(pins.items()))
            parts.append(f"{ps}({coeff!r}){dmon!r}")
        return " + ".join(parts) if parts else "0"


def bracket_q(x, y, vparam):
    """[x, y]_v = x*y - v*y*x."""
    return x * y - (y * x).scale(vparam)


def symmetrize(x, var1, var2):
    return x + x.rename_spectral({var1: var2, var2: var1})


def expand_by_residues(fc):
    """Difference of the expansions at infinity and at zero as a delta sum.

    Every finite nonzero pole must be simple and located at an honest
    monomial point (factor (1 - M*x)^-1); the term pinned there carries
    minus the value of the remaining factors.
    """
    out = Distribution()
    for (c, M), e in list(fc.factors.items()):
        if e >= 0:
            continue
        if e != -1:
            raise NonSimplePole(f"factor (1-{c}*{M!r}*{fc.var}) has "
                                f"exponent {e}")
        if c != 1:
            raise NonSimplePole(f"pole of (1-{c}*{M!r}*{fc.var}) is not at "
                                "a monomial point")
        a = M.inverse()
        h = fc.drop_factor((c, M))
        out.add_term({fc.var: a}, -h.evaluate(a), DMonomial.one())
    return out


def check_fully_pinned(dist):
    """Raise if any pin target still references a spectral variable."""
    for pins, coeff, dmon in dist.items():
        for v, M in pins.items():
            if M.has_spectral():
                name = next(filter(is_spectral, M.vars()))
                raise UnpinnedResidual(
                    f"pin {v} -> {M!r} references spectral {name}")


def canonicalize_compare(x, y):
    """Group by (pins, dmon) and compare coefficient sums exactly.

    Returns a list of discrepancies (pins, dmon, lhs coeff, rhs coeff);
    empty list means equal.  The groups are compared in the order they
    come, and only the discrepancies are ordered for the report: by the
    repr of their decoded pins and dmon, which is distinct per group, so
    the list is what sorting every group first would give.
    """
    check_fully_pinned(x)
    check_fully_pinned(y)
    xs = {key: (p, c) for key, p, c in x._resolved()}
    ys = {key: (p, c) for key, p, c in y._resolved()}
    bad = []
    for key, (p, _) in {**ys, **xs}.items():
        cx = xs[key][1] if key in xs else Scalar.zero()
        cy = ys[key][1] if key in ys else Scalar.zero()
        if not cx.equals(cy):
            bad.append((p, key[1], cx, cy))

    def report_order(entry):
        # by the decoded exponents, so the order never depends on limbs
        p, dmon = entry[:2]
        return repr((tuple((v, p[v].exps) for v in sorted(p)), dmon))

    bad.sort(key=report_order)
    return bad
