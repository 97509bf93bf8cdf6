"""Independent numeric cross-checks for the symbolic engine.

Two instruments:

* randomized_equal -- compares two delta-supported distributions by acting
  on random monomial test functions under random exact Gaussian-rational
  specializations of all base variables.  Acting on a monomial only
  rescales it, so each coefficient is evaluated at the specialization and
  then multiplied by the value of the acted-on test monomial.  It shares
  no simplification code with the symbolic comparison path.

* truncated_series_check -- confirms that the residue expansion of a
  rational current reproduces the difference of its truncated Laurent
  expansions at infinity and at zero, order by order.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BadSpecialization, DenominatorVanishes, DivisionByZero
from .scalars import GR, Monomial, Poly, Scalar, add_into


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


def _random_test_monomial(rng, variables):
    wvars = sorted(v for v in variables if v.startswith("w:"))
    return Monomial((v, rng.randint(-3, 3)) for v in wvars)


def _group_key(pins, dmon):
    return (tuple(sorted((v, M.exps) for v, M in pins.items())), dmon)


def _groups(dist):
    return {_group_key(p, d): c for p, c, d in dist.items()}


def randomized_equal(x, y, trials=20, seed=0, max_retries=200):
    """Numeric concordance check for two fully pinned distributions.

    For each trial the two sides are compared support group by support
    group at a random exact specialization: the shift part acts on a
    random test monomial, and each side's coefficient is evaluated and
    then multiplied by the value of the acted-on monomial.  Evaluation is
    a ring homomorphism and a monomial never evaluates to 0, so this
    equals evaluating the acted-on product without building it.
    The value of the acted-on monomial depends only on the trial and the
    shift part, so it is evaluated once per distinct shift part per trial.
    One evaluation memo per trial is shared by every coefficient of both
    sides and by the acted-on monomials, so each distinct factor is
    evaluated once per trial (see ``Scalar.eval_numeric``).
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
    done = 0
    attempts = 0
    while done < trials:
        if attempts > max_retries + trials:
            raise BadSpecialization(
                f"exceeded {max_retries} retries at trial {done}")
        attempts += 1
        assignment = _random_assignment(rng, sorted(variables))
        f = _random_test_monomial(rng, variables)
        fvals = {}
        memo = {}
        try:
            for key in keys:
                dmon = key[1]
                cx = gx.get(key, Scalar.zero())
                cy = gy.get(key, Scalar.zero())
                fv = fvals.get(dmon)
                if fv is None:
                    fv = fvals[dmon] = act((Scalar.one(), dmon),
                                           f).eval_numeric(assignment, memo)
                vx = cx.eval_numeric(assignment, memo) * fv
                vy = cy.eval_numeric(assignment, memo) * fv
                if vx != vy:
                    return False, done + 1
        except (DenominatorVanishes, DivisionByZero):
            continue
        done += 1
    return True, done


def truncated_series_check(gamma, expansion=None, order=8):
    """Verify the residue expansion against truncated two-sided series.

    The difference of the expansions of gamma at infinity and at zero must
    equal, coefficient by coefficient on x^n for |n| <= order, the sum of
    the delta contributions coeff * a^(-n).

    The coefficientwise comparison is carried out in an equivalent split
    form.  With p distinct pins a_k, both sides satisfy the monic order-p
    recurrence whose characteristic roots are the a_k^(-1) (for the delta
    side identically; leading and trailing coefficients are unit
    monomials, so solutions are pinned by any p consecutive values).
    Hence equality over the whole window is equivalent to (a) the series
    side satisfying the recurrence at every offset that fits the window,
    a denominator-free polynomial identity, and (b) direct equality on p
    consecutive central coefficients, where the series polynomials are
    smallest.
    """
    from .delta import expand_by_residues
    if expansion is None:
        expansion = expand_by_residues(gamma)
    pref, plus = gamma.series_raw("infinity", order)
    _, minus = gamma.series_raw("zero", order)
    L = {n: plus.get(n, Poly.zero()) - minus.get(n, Poly.zero())
         for n in range(-order, order + 1)}
    terms = [(pins[gamma.var], coeff)
             for pins, coeff, _ in expansion.items()]
    p = len(terms)

    def direct_equal(n):
        rhs = Scalar.zero()
        for a, coeff in terms:
            rhs = rhs + coeff * Scalar.from_mono(a ** (-n))
        return (pref * Scalar(L[n])).equals(rhs)

    if p == 0:
        return all(poly.is_zero() for poly in L.values())
    if 2 * order + 1 <= p:
        # window too narrow to separate the components; compare directly
        return all(direct_equal(n) for n in range(-order, order + 1))
    roots = [a.inverse() for a, _ in terms]
    # the recurrence steps below work on the packed terms directly: a shift
    # by a root is an addition of its key
    PL = {n: poly.terms for n, poly in L.items()}
    eroots = [rho.key for rho in roots]

    # (a) the factored recurrence prod_k (S - a_k^{-1}), S the index shift,
    # annihilates the window: applied one linear factor at a time, each
    # step is a key shift and a subtraction
    cur, lo, hi = PL, -order, order
    for er in eroots:
        nxt = {}
        for n in range(lo, hi):
            nxt[n] = add_into(dict(cur[n + 1]), cur[n], er, -1)
        cur = nxt
        hi -= 1
    if not all(not d for d in cur.values()):
        return False
    # (b) for each pin, the leave-one-out operator prod_{l != k}(S - a_l^{-1})
    # kills every other component, so its value at one central offset pins
    # the k-th delta amplitude:
    #   sum_j e_j L[n0+j] = coeff_k * a_k^{-n0} * prod_{l != k}(rho_k - rho_l)
    n0 = max(-order, min(-(p // 2), order - p + 1))
    for k, (a, coeff) in enumerate(terms):
        e = [{0: 1}]
        for l, er in enumerate(eroots):
            if l == k:
                continue
            new = [dict() for _ in range(len(e) + 1)]
            for j, ej in enumerate(e):
                add_into(new[j + 1], ej)
                add_into(new[j], ej, er, -1)
            e = new
        val = {}
        for j, ej in enumerate(e):
            lj = PL[n0 + j]
            for k1, c1 in ej.items():
                add_into(val, lj, k1, c1)
        expect = coeff * Scalar.from_mono(a ** (-n0))
        for l, rho in enumerate(roots):
            if l != k:
                expect = expect * (Scalar.from_mono(roots[k]) -
                                   Scalar.from_mono(rho))
        if not (pref * Scalar(Poly(val, _clean=False))).equals(expect):
            return False
    return True
