"""The localized q-difference operator algebra in normal-ordered form.

Generators: shift operators d_{i,r} and half-power coordinates w_{i,r}^{1/2}
with d_{i,r} w_{i,r}^{1/2} = Q w_{i,r}^{1/2} d_{i,r} (Q the base unit,
Q^2 = q) and everything else commuting.  A TorusElement is a finite sum of
(Scalar coefficient) * (d-monomial), coefficient on the left.  The
d-monomials (``DMonomial``, re-exported here) and the rule that moves one
past a coefficient live in ``scalars``, next to the keys they share.
"""

from __future__ import annotations

from .errors import LocalizationViolation
from .scalars import DMonomial, Monomial, Poly, Scalar, divide_binomial


class TorusElement:
    """Normal-ordered operator: map DMonomial -> Scalar coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None, _clean=True):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = {d: c for d, c in terms.items() if not c.is_zero()}
        else:
            self.terms = terms

    @classmethod
    def zero(cls):
        return cls({}, _clean=False)

    @classmethod
    def from_scalar(cls, s):
        return cls({DMonomial.one(): s})

    @classmethod
    def monomial(cls, s, d):
        return cls({d: s})

    def is_zero(self):
        return all(c.is_zero() for c in self.terms.values())

    def __add__(self, other):
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out[d] + c if d in out else c
        return TorusElement(out)

    def __neg__(self):
        return TorusElement({d: -c for d, c in self.terms.items()}, _clean=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                c = c1 * c2.conjugate(d1)      # d1 * c2 = c2' * d1
                d = d1 * d2
                out[d] = out[d] + c if d in out else c
        return TorusElement(out)

    def scale(self, s):
        return TorusElement({d: c * s for d, c in self.terms.items()})

    def equals(self, other):
        zero = Scalar.zero()
        return all(self.terms.get(d, zero).equals(other.terms.get(d, zero))
                   for d in set(self.terms) | set(other.terms))

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({c!r})*{d!r}" for d, c in sorted(self.terms.items()))


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


def check_admissible(x):
    """Verify every coefficient denominator factors over the allowed set.

    Each denominator factor, up to a unit monomial, must be a product of
    binomials of the catalogued shapes; each candidate is divided out
    exactly (``divide_binomial``) for as long as one divides.  Raises
    LocalizationViolation with the irreducible remainder otherwise.
    """
    for c in x.terms.values():
        for rem in c.den_factors():
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
