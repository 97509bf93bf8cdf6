"""The localized q-difference operator algebra, and its admissibility check.

Generators: shift operators d_{i,r} and half-power coordinates w_{i,r}^{1/2}
with d_{i,r} w_{i,r}^{1/2} = Q w_{i,r}^{1/2} d_{i,r} (Q the base unit,
Q^2 = q) and everything else commuting.  An operator is a pin-free
``delta.Distribution``: a finite sum of (Scalar coefficient) * (d-monomial),
coefficient on the left, multiplied and compared as every distribution is.
The d-monomials (``DMonomial``) and the rule that moves one past a
coefficient live in ``scalars``, next to the keys they share.
``check_admissible`` checks that a coefficient's denominator lies in the
localized algebra.
"""

from __future__ import annotations

from .delta import Distribution, canonicalize_compare
from .errors import LocalizationViolation
from .scalars import Monomial, Poly, divide_binomial


class TorusElement(Distribution):
    """Normal-ordered operator: a Distribution whose terms carry no pins."""

    __slots__ = ()

    # a name on this class, so the benchmark's tracer counts operator
    # products apart from delta-supported ones
    __mul__ = Distribution.__mul__

    @classmethod
    def monomial(cls, coeff, dmon):
        return cls.single({}, coeff, dmon)

    def equals(self, other):
        return not canonicalize_compare(self, other)


MAX_QHALF = 12      # the largest |h| of q^(h/2) in an admissible binomial


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


def check_admissible(coeff):
    """Verify that every denominator factor of the Scalar ``coeff`` factors
    over the allowed set.

    Each denominator factor, up to a unit monomial, must be a product of
    binomials of the catalogued shapes; each candidate is divided out
    exactly (``divide_binomial``) for as long as one divides.  Raises
    LocalizationViolation with the irreducible remainder otherwise.
    """
    for rem in coeff.den_factors():
        wvars = sorted(v for v in rem.variables() if v.startswith("w:"))
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
                                      for v in rem.variables()):
            rem = rem.mul_mono(rem.content_monomial().inverse())
            raise LocalizationViolation(
                f"denominator factor {rem!r} is not in the allowed "
                "multiplicative set")
    return True
