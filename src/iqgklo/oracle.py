"""Independent numeric cross-checks for the symbolic engine.

Two instruments:

* randomized_equal -- compares two delta-supported distributions, support
  group by support group, under random exact Gaussian-rational
  specializations of all base variables.  Each coefficient is evaluated
  to an unreduced fraction of Gaussian integers, and the two values of a
  group are compared by cross-multiplication, in integers only.  A random
  monomial test function is still drawn on every trial but not applied:
  acting on it only rescales it, and its value is a common nonzero
  factor of a group's two sides.  It shares no simplification code with
  the symbolic comparison path.

* truncated_series_check -- confirms that the residue expansion of a
  rational current reproduces the difference of its truncated Laurent
  expansions at infinity and at zero, order by order.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BadSpecialization, DenominatorVanishes, DivisionByZero
from .scalars import GR, SCALAR_ZERO, Poly, Scalar, add_into

MAX_RETRIES = 200   # redraws of a vanishing specialization, per comparison


def act(term, f):
    """Apply one normal-ordered term, a (coeff, dmon) pair, to the monomial
    function f.

    Each shift operator of dmon rescales the matching half-power
    coordinate, so the result is again a Scalar multiple of f.
    """
    coeff, dmon = term
    return coeff * Scalar.from_mono(f).conjugate(dmon)


def _random_gr(rng, max_height=64):
    num = rng.randint(1, max_height) * rng.choice((1, -1))
    den = rng.randint(1, max_height)
    return GR(Fraction(num, den))


def _random_assignment(rng, variables):
    return {v: _random_gr(rng) for v in variables}


def _group_key(pins, dmon):
    return (tuple(sorted((v, M.exps) for v, M in pins.items())), dmon)


def _groups(dist):
    return {_group_key(p, d): c for p, c, d in dist.items()}


def _same_value(a, b):
    """Whether two unreduced values (nre, nim, dre, dim) of
    ``Scalar._eval_cleared`` are equal: n/d == n'/d' exactly when
    n*d' == n'*d in the Gaussian integers."""
    nre, nim, dre, dim = a
    mre, mim, ere, eim = b
    return (nre * ere - nim * eim == mre * dre - mim * dim
            and nre * eim + nim * ere == mre * dim + mim * dre)


def randomized_equal(x, y, trials=20, seed=0):
    """Numeric concordance check for two fully pinned distributions.

    For each trial the two sides are compared support group by support
    group at a random exact specialization.  Each side's coefficient is
    evaluated as an unreduced fraction n/d of Gaussian integers (see
    ``Scalar._eval_cleared``), and the two values are equal exactly when
    nx*dy == ny*dx, so the comparison needs no gcd and no Fraction.
    Acting with the shift part on a monomial test function only rescales
    it, and the rescaled monomial's value is the same nonzero number on
    both sides of a group, so it cannot change a verdict: the test
    monomial is drawn on every trial but not applied.
    One evaluation memo per trial is shared by every coefficient of both
    sides, so each distinct factor is evaluated once per trial.
    Specializations that hit a denominator are retried (bounded).  The
    groups are visited in a fixed order, x's first and then those only y
    has, since which of a mismatch and a vanishing denominator comes first
    in a trial decides between False and a retry.
    Returns (verdict, trials_run).
    """
    rng = random.Random(seed)
    gx, gy = _groups(x), _groups(y)
    keys = [*gx, *(key for key in gy if key not in gx)]
    if not keys:
        return True, trials
    variables = set()
    for g in (gx, gy):
        for c in g.values():
            variables |= c.variables()
    variables.add("q")
    names = sorted(variables)
    n_test_exps = sum(v.startswith("w:") for v in variables)
    done = 0
    attempts = 0
    while done < trials:
        if attempts > MAX_RETRIES + trials:
            raise BadSpecialization(
                f"exceeded {MAX_RETRIES} retries at trial {done}")
        attempts += 1
        assignment = _random_assignment(rng, names)
        # the test monomial's exponents, one per w: variable: not applied
        # (see above), but drawn, since the draws keep the random stream,
        # and with it each seed's specializations, retries and trial counts
        for _ in range(n_test_exps):
            rng.randint(-3, 3)
        memo = {}
        try:
            for key in keys:
                vx = gx.get(key, SCALAR_ZERO)._eval_cleared(assignment, memo)
                vy = gy.get(key, SCALAR_ZERO)._eval_cleared(assignment, memo)
                if not _same_value(vx, vy):
                    return False, done + 1
        except (DenominatorVanishes, DivisionByZero):
            continue
        done += 1
    return True, done


def _leave_one_out(A, Z, m, rho):
    """The coefficient of x^m in the difference of the expansions at
    infinity and at zero of F / (1 - rho*x), read off F's expansions A at
    infinity and Z at zero:  -sum_{n>m} rho^(m-n) A_n - sum_{n<=m}
    rho^(m-n) Z_n, each term one shifted copy of A_n's or Z_n's terms."""
    value = {}
    for n, c in A.items():
        if n > m:
            add_into(value, c.terms, (m - n) * rho.key, -1)
    for n, c in Z.items():
        if n <= m:
            add_into(value, c.terms, (m - n) * rho.key, -1)
    return Poly(value, _clean=False)


def truncated_series_check(gamma, expansion=None, order=8):
    """Verify the residue expansion against truncated two-sided series.

    The difference L of the expansions of gamma at infinity and at zero
    must equal, coefficient by coefficient on x^n for |n| <= order, the
    sum of the delta contributions coeff * a^(-n).

    The coefficientwise comparison is carried out in an equivalent split
    form.  With p distinct pins a_k, both sides satisfy the monic order-p
    recurrence whose characteristic roots are the rho_k = a_k^(-1) (for
    the delta side identically; leading and trailing coefficients are unit
    monomials, so solutions are pinned by any p consecutive values).
    Hence, when the window holds p + 1 coefficients or more, equality over
    it is equivalent to (a) the series side satisfying the recurrence at
    every offset that fits the window, and (b) direct equality on p
    consecutive central coefficients.

    Both steps multiply gamma by a polynomial in x before expanding it.
    With Q = prod_k (1 - rho_k x) and Q_k = Q / (1 - rho_k x), the
    recurrence applied at offset n is the coefficient of x^(n+p) in Q*L,
    and its leave-one-out form at n0 is the coefficient of x^m,
    m = n0 + p - 1, in Q_k*L.  Multiplying by a Laurent polynomial commutes
    with both expansions, so (a) holds iff the two expansions of Q*gamma,
    A at infinity and Z at zero, agree on [p - order, order].  Q*gamma is
    expanded once per side, and step (b) reads every Q_k*gamma off A and
    Z: the expansions are ring homomorphisms, and 1/(1 - rho x) expands as
    sum_{j>=0} rho^j x^j at zero and as -sum_{j>=1} rho^(-j) x^(-j) at
    infinity, so

      [x^m] (Q_k*gamma)_inf - [x^m] (Q_k*gamma)_0
          = -sum_{n>m} rho_k^(m-n) A_n - sum_{n<=m} rho_k^(m-n) Z_n.

    A ends at Q*gamma's top degree and Z starts at its power, so both sums
    are finite, and A and Z are each truncated to the exponents the two
    steps read.  When the expansion is right, Q*gamma has no pole, so
    neither side expands the large edge coefficients of gamma's own
    window.

    Both steps run on every window, also on the two kinds where the
    recurrence has no room.  With no pin (p = 0), step (a) reads
    [-order, order] and requires it to be zero, and step (b) is empty.
    When 2*order + 1 <= p, step (a)'s range [p - order, order] is empty and
    n0 = -order.  The Q_k have distinct roots, so they are a basis of the
    polynomials of degree below p, and step (b)'s p reads are p independent
    linear forms in the coefficients n0 .. n0 + p - 1 of L.  So step (b)
    alone holds exactly when the expansion is right on
    [-order, p - 1 - order], which contains the window.  In every case the
    check reads at least the coefficients with |n| <= order.
    """
    from .delta import expand_by_residues
    if expansion is None:
        expansion = expand_by_residues(gamma)
    terms = [(pins[gamma.var], coeff)
             for pins, coeff, _ in expansion.items()]
    p = len(terms)
    roots = [a.inverse() for a, _ in terms]
    q_gamma = gamma
    for rho in roots:
        q_gamma = q_gamma.times_linear(rho)
    n0 = max(-order, min(-(p // 2), order - p + 1))
    m = n0 + p - 1
    # n0 >= -order, so A's window [p - order, top] holds step (b)'s
    # exponents n > m as well as step (a)'s range
    pref, A = q_gamma.series_raw(
        "infinity", max(order, q_gamma.degree_at_infinity()), p - order)
    _, Z = q_gamma.series_raw("zero", max(order, m), q_gamma.power)
    zero = Poly.zero()

    # (a) the recurrence prod_k (S - rho_k), S the index shift, annihilates
    # the window
    if any(A.get(n, zero).terms != Z.get(n, zero).terms
           for n in range(p - order, order + 1)):
        return False
    # (b) for each pin, the leave-one-out operator prod_{l != k}(S - rho_l)
    # kills every other component, so its value at one central offset pins
    # the k-th delta amplitude:
    #   [x^m] Q_k*L = coeff_k * a_k^(-n0) * prod_{l != k}(rho_k - rho_l)
    for k, (a, coeff) in enumerate(terms):
        value = _leave_one_out(A, Z, m, roots[k])
        expect = coeff * Scalar.from_mono(a ** (-n0))
        for l, rho in enumerate(roots):
            if l != k:
                expect = expect * (Scalar.from_mono(roots[k]) -
                                   Scalar.from_mono(rho))
        if not (pref * Scalar(value)).equals(expect):
            return False
    return True
