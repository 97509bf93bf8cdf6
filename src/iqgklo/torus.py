"""The localized q-difference operator algebra, and its admissibility check.

Generators: shift operators d_{i,r} and half-power coordinates w_{i,r}^{1/2}
with d_{i,r} w_{i,r}^{1/2} = Q w_{i,r}^{1/2} d_{i,r} (Q the base unit,
Q^2 = q) and everything else commuting.  An operator is a pin-free
``delta.Distribution``: a finite sum of (Scalar coefficient) * (d-monomial),
coefficient on the left, multiplied and compared as every distribution is.
The d-monomials (``DMonomial``) and the rule that moves one past a
coefficient live in ``scalars``, next to the keys they share.
``admissible`` tests whether a denominator factor lies in the localized
algebra's multiplicative set; the ``check`` verb runs it on every
denominator factor of the B images.
"""

from __future__ import annotations

from .delta import Distribution, canonicalize_compare
from .scalars import unpack_poly


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


def admissible(factor):
    """Whether the denominator factor ``factor`` lies in the allowed
    multiplicative set.

    A factor free of every w does.  The set is generated by the
    binomials, for whole powers a = w_{i,r}, b = w_{j,s} and |h| <=
    MAX_QHALF,
    a - q^(h/2) b,  a - q^(h/2) b^{-1},  a - q^(h/2) a^{-1},  1 - q^(h/2) a,
    so a factor holding a w lies in it exactly when it is a binomial
    whose second term is -q^(h/2) times its first times w half-exponents
    of +-2 on one or two variables, or +-4 on one, and nothing else.  A
    scalar keeps each binomial of its denominator as a factor of its
    own, so a factor of more terms that holds a w is rejected, never
    split.
    """
    terms = unpack_poly(factor)
    if not any(v.startswith("w:") for m in terms for v, _ in m.exps):
        return True
    if len(terms) != 2:
        return False
    (m1, c1), (m2, c2) = terms.items()
    ws = []
    for v, e in (m2 * m1.inverse()).exps:
        if v.startswith("w:"):
            ws.append(abs(e))
        elif v != "q" or abs(e) > MAX_QHALF:
            return False
    return not c1 + c2 and sorted(ws) in ([2], [4], [2, 2])
