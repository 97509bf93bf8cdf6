"""Formal delta-function calculus over the quantum torus.

Two layers:

* FactorCurrent -- a rational function of the spectral variable u kept in
  fully factored form  pref * u^power * prod (1 - c*M*u)^e,  where each c
  is a Gaussian-rational unit and each M a Laurent monomial free of u.
  Factored form gives structural access to poles, zeros, leading terms
  and residues; its residue expansion is a list of (pin, amplitude)
  pairs, since f(u) delta(a/u) = f(a) delta(a/u).

* Distribution -- a finite sum of delta-supported operator terms, each
  one entry (pins, dmon) -> coeff of ``terms``, keyed by its merge key:
  ``pins`` is the name-sorted tuple of (spectral variable, Monomial
  target) pairs (the content of the delta factors), ``dmon`` the
  commuting shift-operator monomial standing rightmost, and ``coeff`` a
  Scalar; ``items`` yields the pins as a dict.  Every term is a point of
  the torus: its pin targets and coefficient are free of spectral
  variables, so a prefactor in a pinned variable is evaluated at the pin
  before it goes in.  ``add_term``, ``scale`` and ``map_coeff``, where
  terms enter, raise UnpinnedResidual otherwise; sums, negation, products
  and ``rename_spectral`` keep the invariant, so they do not check it.
"""

from __future__ import annotations

from math import comb

from .errors import (
    DenominatorVanishes, DoublePin, NonSimplePole, UnpinnedResidual,
)
from .scalars import (
    DMonomial, Monomial, SCALAR_ONE, SCALAR_ZERO, Scalar, _poly, _put,
    add_into, coeff_inverse, coeff_pow, times_powers,
)


def _current(pref, power, factors):
    """A FactorCurrent over a normalized factor dict (each key once, no
    zero exponent or coefficient), which it takes over as it is: the dict
    may be shared with other currents, and no current ever mutates its
    ``factors``."""
    fc = object.__new__(FactorCurrent)
    fc.pref = pref
    fc.power = power
    fc.factors = factors
    return fc


class FactorCurrent:
    """pref * u^power * prod over ((c, M), e) of (1 - c*M*u)^e.

    The constructor normalizes the factors it is given: equal keys are
    merged in order of first appearance, and zero exponents and zero
    coefficients are dropped.  Every other way of making a current starts
    from a normalized dict and keeps it normalized, with the items and the
    order that the constructor would give.

    This is a normal form of a rational function of u (``equals``) while
    the prefactor and every M are free of u and every key is canonical: c
    a nonzero coefficient in its canonical form (see ``GR``), M a packed
    Monomial.  Then the factors are irreducibles of K[u, 1/u], K the field
    of the other variables, with constant term 1, so distinct keys are
    non-associate, and the units of K[u, 1/u] are the pref * u^power."""

    __slots__ = ("pref", "power", "factors")

    def __init__(self, pref=SCALAR_ONE, power=0, factors=None):
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

    def copy_with(self, pref=None, power=None, factors=None):
        """A copy with the given parts replaced; ``factors`` must be a
        normalized dict.  An unchanged factor dict is shared, not copied,
        since no current mutates its own."""
        return _current(
            self.pref if pref is None else pref,
            self.power if power is None else power,
            self.factors if factors is None else factors)

    # --- builders -----------------------------------------------------

    def times_linear(self, M, c=1, e=1):
        """Multiply by (1 - c*M*u)^e: a new factor goes last, a factor
        already present takes the summed exponent in its place and leaves
        when that sum is 0."""
        f = dict(self.factors)
        if e and c:
            _put(f, (c, M), e)
        return self.copy_with(factors=f)

    def times_linear_inv_arg(self, M, c=1, e=1):
        """Multiply by (1 - c*M/u)^e = [-c*M/u * (1 - c^{-1}M^{-1}u)]^e."""
        pref = times_powers(self.pref, [({M.key: -c}, e)])
        return self.copy_with(pref=pref, power=self.power - e) \
                   .times_linear(M.inverse(), coeff_inverse(c), e)

    def times_power(self, k):
        return self.copy_with(power=self.power + k)

    def scale(self, s):
        return self.copy_with(pref=self.pref * s)

    def __mul__(self, other):
        """The product, other's factors merged into a copy of self's
        (``_put``): the constructor's factor order."""
        f = dict(self.factors)
        for key, e in other.factors.items():
            _put(f, key, e)
        return _current(self.pref * other.pref, self.power + other.power, f)

    def inverse(self):
        return _current(self.pref.inverse(), -self.power,
                        {k: -e for k, e in self.factors.items()})

    def __truediv__(self, other):
        return self * other.inverse()

    # --- argument changes ---------------------------------------------

    def scale_arg(self, M, c=1):
        """Substitute u -> c*M*u (c nonzero), which maps distinct factors
        to distinct factors."""
        pref = self.pref * Scalar.from_mono(M ** self.power,
                                            coeff_pow(c, self.power))
        return _current(pref, self.power,
                        {(ct * c, Mt * M): e
                         for (ct, Mt), e in self.factors.items()})

    def invert_arg(self):
        """Substitute u -> 1/u: each (1 - c*M/u)^e is (-c*M)^e u^-e
        (1 - c^{-1}M^{-1}u)^e, and inversion keeps distinct keys distinct."""
        deg, pref = self.leading_at_infinity()
        return _current(pref, -deg, {(coeff_inverse(c), M.inverse()): e
                                     for (c, M), e in self.factors.items()})

    def conjugate(self, dmon):
        """Move a shift-operator monomial through from the left; distinct
        monomials stay distinct (see ``Poly.conjugate``)."""
        return _current(self.pref.conjugate(dmon), self.power,
                        {(c, M.conjugate(dmon)): e
                         for (c, M), e in self.factors.items()})

    # --- evaluation ----------------------------------------------------

    def evaluate(self, a):
        """The Scalar value at u = a (a Monomial, possibly spectral).

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
        return self.evaluate(Monomial.unit("u"))

    def drop_factor(self, key):
        f = dict(self.factors)
        del f[key]
        return self.copy_with(factors=f)

    # --- asymptotics ----------------------------------------------------

    def degree_at_infinity(self):
        return self.power + sum(self.factors.values())

    def leading_at_infinity(self):
        """(degree, coefficient) of the top term at u = infinity."""
        coeff = times_powers(self.pref, [({M.key: -c}, e) for (c, M), e
                                         in self.factors.items()])
        return self.degree_at_infinity(), coeff

    def series_raw(self, side, order, low=None):
        """Truncated Laurent expansion on [low, order], low defaulting to
        -order, as (pref, {u-exponent: Poly}), the scalar prefactor left
        unmultiplied.

        Each factor is expanded by the binomial series of (1 - t)^e: on side
        "zero" in t = c*M*u, on side "infinity" in t = 1/(c*M*u), after
        writing (1 - c*M*u)^e = (-c*M*u)^e * (1 - t)^e.  So the expansion at
        zero starts at u^power and the one at infinity at the top degree
        u^(power + sum e), and from there every factor moves exponents only
        up (zero) or only down (infinity): an exponent past the window on
        that side is dropped as soon as it appears.  The expansion is
        convolved over the packed terms of denominator-free Polys.  An
        empty window (low > order) returns no coefficient at once.

        No code of the package calls it.  It stays because the tests read
        expansions off it as the references for ``evaluate`` and for the
        series check, and the benchmark's tracer patches it by name.
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
        return self.pref, {n: _poly(p) for n, p in cur.items()
                           if low <= n <= order and p}

    def equals(self, other):
        """Equality as rational functions of u: by unique factorization
        (see the class docstring), two nonzero currents are equal exactly
        when their powers, factor dicts and prefactors are."""
        for fc in (self, other):
            assert not fc.pref.has_var("u") and not any(
                M.has_var("u") for _, M in fc.factors), fc
        if self.pref.is_zero() or other.pref.is_zero():
            return self.pref.is_zero() and other.pref.is_zero()
        return (self.power == other.power
                and self.factors == other.factors
                and self.pref.equals(other.pref))

    def __repr__(self):
        fs = " * ".join(f"(1-{c}*{M!r}*u)^{e}"
                        for (c, M), e in self.factors.items())
        return f"[{self.pref!r} * u^{self.power}" + \
               (f" * {fs}]" if fs else "]")


# --- distributions -----------------------------------------------------


def _pins_key(pins):
    """The merge-key form of a pins dict: its items, sorted by name."""
    return tuple(sorted(pins.items()))


class Distribution:
    """Finite sum of terms, each one entry (pins, dmon) -> coeff of
    ``terms``, pins the name-sorted (variable, Monomial) pairs: terms of
    one support sum in place, and a merge that cancels deletes its term,
    so no coefficient is 0.

    Every result has the receiver's type, so a subclass (the pin-free
    ``torus.TorusElement``) is closed under the algebra."""

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}      # (pins, dmon) -> Scalar

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def single(cls, pins, coeff, dmon=None):
        out = cls()
        out.add_term(pins, coeff, dmon or DMonomial.one())
        return out

    def add_term(self, pins, coeff, dmon):
        """Add one term from outside, its pins a dict, checked (see the
        module docstring)."""
        for v, M in pins.items():
            if M.has_spectral():
                raise UnpinnedResidual(f"pin {v} -> {M!r} holds a spectral "
                                       "variable")
        if coeff.has_spectral():
            raise UnpinnedResidual("coefficient holds a spectral variable")
        self._merge((_pins_key(pins), dmon), coeff)

    def _merge(self, key, coeff):
        """Add one term that is already checked, under its merge key; a sum
        that cancels is deleted, so no zero coefficient is kept."""
        old = self.terms.get(key)
        if old is not None:
            coeff = old + coeff
        if not coeff.is_zero():
            self.terms[key] = coeff
        elif old is not None:
            del self.terms[key]

    def items(self):
        """Yield (pins dict, coeff, dmon) per term."""
        for (pins, dmon), coeff in self.terms.items():
            yield dict(pins), coeff, dmon

    def is_zero(self):
        return not self.terms

    def _sum(self, other, negate):
        """self + other, or self - other when ``negate``, in one pass over
        terms that are already checked, so none is checked again."""
        out = type(self)()
        out.terms = dict(self.terms)
        for key, coeff in other.terms.items():
            out._merge(key, -coeff if negate else coeff)
        return out

    def __add__(self, other):
        return self._sum(other, False)

    def __sub__(self, other):
        return self._sum(other, True)

    def __neg__(self):
        out = type(self)()
        out.terms = {key: -coeff for key, coeff in self.terms.items()}
        return out

    def scale(self, s):
        """Left-multiply every coefficient by a scalar, which must be free
        of spectral variables.  Scalars commute, and ``coeff * s`` copies
        the larger factor dict; scaling by 0 leaves no term."""
        if s.has_spectral():
            raise UnpinnedResidual("scalar holds a spectral variable")
        out = type(self)()
        if not s.is_zero():
            out.terms = {key: coeff * s for key, coeff in self.terms.items()}
        return out

    def map_coeff(self, fn):
        """Replace each coefficient by fn(pins dict, coeff), which must be
        free of spectral variables; a term whose new coefficient is 0 is
        dropped."""
        out = type(self)()
        for key, coeff in self.terms.items():
            coeff = fn(dict(key[0]), coeff)
            if coeff.has_spectral():
                raise UnpinnedResidual("coefficient holds a spectral variable")
            if not coeff.is_zero():
                out.terms[key] = coeff
        return out

    def __mul__(self, other):
        """Term by term; a torus point moved through a shift part, and a
        product of torus scalars, are torus points, so none is checked."""
        out = type(self)()
        right = other.terms.items()
        for (pins1, d1), c1 in self.terms.items():
            for (pins2, d2), c2 in right:
                pins = dict(pins1)
                pins.update((v, M.conjugate(d1)) for v, M in pins2)
                if len(pins) < len(pins1) + len(pins2):
                    overlap = dict(pins1).keys() & dict(pins2).keys()
                    raise DoublePin(f"variables {sorted(overlap)} pinned in "
                                    "both factors")
                out._merge((_pins_key(pins), d1 * d2), c1 * c2.conjugate(d1))
        return out

    def rename_spectral(self, mapping):
        """Simultaneously rename pinned spectral variables.  Pin targets
        and coefficients hold none, so they stay as they are, and the
        renamed terms are merged directly, in order.  Raises DoublePin
        when two pins of one term land on one name; two terms that land
        on one key merge."""
        out = type(self)()
        for (pins, dmon), coeff in self.terms.items():
            renamed = {mapping.get(v, v): M for v, M in pins}
            if len(renamed) < len(pins):
                raise DoublePin(f"two pins of {[v for v, _ in pins]} renamed "
                                "to one")
            out._merge((_pins_key(renamed), dmon), coeff)
        return out

    def __repr__(self):
        parts = []
        for (pins, dmon), coeff in self.terms.items():
            ps = "".join(f"delta[{v}={M!r}]" for v, M in pins)
            parts.append(f"{ps}({coeff!r}){dmon!r}")
        return " + ".join(parts) if parts else "0"


def bracket_q(x, y, vparam):
    """[x, y]_v = x*y - v*y*x."""
    return x * y - (y * x).scale(vparam)


def symmetrize(x, var1, var2):
    return x + x.rename_spectral({var1: var2, var2: var1})


def simple_poles(fc):
    """The keys (1, M) of fc's pole factors (1 - M*u)^-1 in factor order,
    the pin of each being M^-1.

    Every finite nonzero pole must be simple and located at an honest
    monomial point; the first pole factor in factor order that is not
    raises NonSimplePole.
    """
    out = []
    for (c, M), e in fc.factors.items():
        if e >= 0:
            continue
        if e != -1:
            raise NonSimplePole(f"factor (1-{c}*{M!r}*u) has exponent {e}")
        if c != 1:
            raise NonSimplePole(f"pole of (1-{c}*{M!r}*u) is not at a "
                                "monomial point")
        out.append((c, M))
    return out


def expand_by_residues(fc):
    """Difference of the expansions at infinity and at zero as a list of
    (pin, amplitude) pairs in factor order, the sum of amplitude *
    delta(pin/u), zero amplitudes left out.

    The poles are fc's ``simple_poles``; the term pinned at each carries
    minus the value of the remaining factors.
    """
    out = []
    for key in simple_poles(fc):
        a = key[1].inverse()
        amp = -fc.drop_factor(key).evaluate(a)
        if not amp.is_zero():
            out.append((a, amp))
    return out


def canonicalize_compare(x, y):
    """Group by (pins, dmon) and compare coefficient sums exactly.

    Returns a list of discrepancies (pins, dmon, lhs coeff, rhs coeff),
    pins a name-sorted dict; empty list means equal.  The groups are
    compared in the order they come, and only the discrepancies are
    ordered for the report: by the repr of their decoded pins and dmon,
    which is distinct per group, so the list is what sorting every group
    first would give.
    """
    xs, ys = x.terms, y.terms
    bad = []
    for key in {**ys, **xs}:
        cx, cy = xs.get(key, SCALAR_ZERO), ys.get(key, SCALAR_ZERO)
        if not cx.equals(cy):
            bad.append((dict(key[0]), key[1], cx, cy))

    def report_order(entry):
        # by the decoded exponents, so the order never depends on limbs
        p, dmon = entry[:2]
        return repr((tuple((v, M.exps) for v, M in p.items()), dmon))

    bad.sort(key=report_order)
    return bad
