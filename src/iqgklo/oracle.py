"""Independent numeric cross-checks for the symbolic engine.

Two instruments:

* randomized_equal -- compares two delta-supported distributions, support
  group by support group, at random real rational values g/s of all base
  variables, in integers only: each trial powers every variable once over
  the union of its exponent spans, and each distinct part of the
  coefficients is decoded into integer rows on first use and evaluated at
  most once per trial, only where a verdict needs it.  The parts that both
  sides of a group share are cancelled, exactly, so each (verdict, trials)
  pair is that of evaluating every coefficient whole.  It shares no
  simplification code with the symbolic comparison path.

* truncated_series_check -- confirms that the residue expansion of a
  rational current reproduces the difference of its truncated Laurent
  expansions at infinity and at zero, order by order, through the
  current's polar part and its numerator's values at the pins.
"""

from __future__ import annotations

import random
from math import gcd, lcm, prod

from .errors import BadSpecialization
from .scalars import GR, SCALAR_ONE, SCALAR_ZERO, Poly, Scalar, add_into

MAX_RETRIES = 200   # redraws of a vanishing specialization, per comparison
MAX_HEIGHT = 64     # bound on the numerator and denominator of a draw
_HEIGHT_BITS = MAX_HEIGHT.bit_length()


def act(term, f):
    """Apply one normal-ordered term, a (coeff, dmon) pair, to the monomial
    function f.

    Each shift operator of dmon rescales the matching half-power
    coordinate, so the result is again a Scalar multiple of f.
    """
    coeff, dmon = term
    return coeff * Scalar.from_mono(f).conjugate(dmon)


def _random_points(rng, names, n_test_exps):
    """One attempt's draws: for each name in order, a random rational n/d,
    0 < |n|, d <= MAX_HEIGHT, as (s, g), the integer g over the positive
    integer s in lowest terms; then the test monomial's exponents in
    [-3, 3], drawn and dropped.

    Every value is read off ``rng.getrandbits`` by the rejection loop of
    CPython's ``randrange``: 7 bits until below 64 for |n| - 1, 2 bits
    until below 2 for the sign (1 picks -1), likewise 7 bits for d - 1,
    and 3 bits until below 7 for each exponent plus 3.  So the values,
    and the state the generator is left in, are those of
    ``randint(1, 64) * choice((1, -1))``, ``randint(1, 64)`` and
    ``randint(-3, 3)``."""
    bits = rng.getrandbits
    points = []
    for _ in names:
        n = bits(_HEIGHT_BITS)
        while n >= MAX_HEIGHT:
            n = bits(_HEIGHT_BITS)
        sign = bits(2)
        while sign >= 2:
            sign = bits(2)
        d = bits(_HEIGHT_BITS)
        while d >= MAX_HEIGHT:
            d = bits(_HEIGHT_BITS)
        n, d = (-n - 1 if sign else n + 1), d + 1
        g = gcd(n, d)
        points.append((d // g, n // g))
    for _ in range(n_test_exps):
        while bits(3) >= 7:
            pass
    return points


def _groups(dist):
    """Each support group's coefficient, keyed by its pins and shift."""
    return {(tuple(sorted((v, M.exps) for v, M in p.items())), d): c
            for p, c, d in dist.items()}


def _cleared(c):
    """The constant c as (s, cre, cim), the value (cre + i*cim) / s: a
    Gaussian integer over the least positive integer s that clears it."""
    re, im = (c.re, c.im) if isinstance(c, GR) else (c, 0)
    s = lcm(re.denominator, im.denominator)
    return s, int(re * s), int(im * s)


def combine_cleared(unit, den, num, values):
    """The value unit * prod(num) / prod(den) as (nre, nim, dre, dim), the
    value (nre + i*nim) / (dre + i*dim), not reduced: ``unit`` is a cleared
    constant (s, cre, cim) (see ``_cleared``), and ``den`` and ``num`` map
    part keys to multiplicities, each part's value (re, im, D), the value
    (re + i*im) / D, being ``values[key]``."""
    dre, nre, nim = unit
    dim = 0
    for key, e in den.items():
        re, im, D = values[key]
        for _ in range(e):
            dre, dim = dre * re - dim * im, dre * im + dim * re
            nre, nim = nre * D, nim * D
    for key, e in num.items():
        re, im, D = values[key]
        for _ in range(e):
            nre, nim = nre * re - nim * im, nre * im + nim * re
            dre, dim = dre * D, dim * D
    return nre, nim, dre, dim


def _same_value(a, b):
    """Whether two unreduced values (nre, nim, dre, dim) of
    ``combine_cleared`` are equal: n/d == n'/d' exactly when n*d' == n'*d
    in the Gaussian integers."""
    nre, nim, dre, dim = a
    mre, mim, ere, eim = b
    return (nre * ere - nim * eim == mre * dre - mim * dim
            and nre * eim + nim * ere == mre * dim + mim * dre)


def _plan(x, y):
    """(parts, groups): each distinct part of the coefficients'
    ``eval_plan`` by key, and per support group, x's first and then those
    only y has, (dens, shared, vx, vy): the parts of either side's
    denominator, the numerator parts both sides hold, and each side as
    (unit, den, num), its constant cleared (``_cleared``), with what both
    hold in their numerators, or both in their denominators, cancelled to
    the lower multiplicity.  A group equal in all four to an earlier one
    is left out: in every trial that reaches it, the earlier group has
    passed, and so would it."""
    gx, gy = _groups(x), _groups(y)
    parts, groups, seen = {}, [], set()
    for key in [*gx, *(key for key in gy if key not in gx)]:
        (ux, dx, nx, px), (uy, dy, ny, py) = (
            g.get(key, SCALAR_ZERO).eval_plan() for g in (gx, gy))
        parts.update(px)
        parts.update(py)
        sd, sn = dx & dy, nx & ny
        dens, shared = frozenset(dx.keys() | dy.keys()), frozenset(sn)
        vx = (_cleared(ux), dx - sd, nx - sn)
        vy = (_cleared(uy), dy - sd, ny - sn)
        sig = dens, shared, *((u, frozenset(d.items()), frozenset(n.items()))
                              for u, d, n in (vx, vy))
        if sig not in seen:
            seen.add(sig)
            groups.append((dens, shared, vx, vy))
    return parts, groups


def _compile(parts):
    """(names, spans, zero): the pair's variables in name order, "q"
    always among them, each variable's span (lo, hi), the union of its
    exponent ranges over all parts widened to hold 0, and the index of
    each variable's 0th power in the trial's power tables, which lie end
    to end in one flat list (see ``_power_tables``).  The exponent ranges
    are read off each part's cached layout (``Poly.layout``)."""
    spans = {"q": (0, 0)}
    for p in parts.values():
        for v, lo, hi in p.layout()[0]:
            a, b = spans.get(v, (0, 0))
            spans[v] = min(a, lo), max(b, hi)
    names = sorted(spans)
    zero, end = {}, 0                   # the index of each v^0
    for v in names:
        lo, hi = spans[v]
        zero[v] = end - lo
        end += hi - lo + 1
    return names, [spans[v] for v in names], zero


def _kernel(part, zero):
    """One part's kernel (L, den_at, rows) on the power tables that
    ``zero`` indexes: L clears the denominators of the part's
    coefficients, den_at indexes the 0th power of each variable the part
    holds, and rows holds (re, im, powers) per term, the coefficient times
    L and the index of each of those variables' powers."""
    ranges, rows = part.layout()
    coeffs = [(c.re, c.im) if isinstance(c, GR) else (c, 0)
              for c in part.terms.values()]
    L = lcm(*(x.denominator for c in coeffs for x in c))
    at = [zero[v] for v, _, _ in ranges]
    return L, at, [(int(re * L), int(im * L),
                     [i + e for i, e in zip(at, exps)])
                    for (re, im), exps in zip(coeffs, rows)]


class _OnDemand(dict):
    """A dict that makes each missing value on first use, by ``make``."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _power_tables(points, spans):
    """The trial's power tables end to end: for each variable's drawn
    g/s and span (lo, hi), g^(e-lo) * s^(hi-e) for e = lo .. hi, the
    numerator of its e-th power over the one denominator g^(-lo) * s^hi,
    which is the table's entry at e = 0."""
    out = []
    for (s, g), (lo, hi) in zip(points, spans):
        table = [1]
        for _ in range(hi - lo):
            table.append(table[-1] * g)         # g^(e-lo)
        sk = 1
        for i in reversed(range(hi - lo)):
            sk *= s
            table[i] *= sk                      # times s^(hi-e)
        out += table
    return out


def _part_value(kernel, powers):
    """One part's value (re, im, D), the value (re + i*im) / D, on the
    trial's power tables: every power of a variable is over that
    variable's denominator, so each term is a plain integer product."""
    L, den_at, rows = kernel
    get = powers.__getitem__
    tre = tim = 0
    for re, im, at in rows:
        p = prod(map(get, at))
        tre += re * p
        tim += im * p
    return tre, tim, L * prod(map(get, den_at))


def _vanishes(values, keys):
    """Whether one of the parts ``keys`` is 0 in this trial."""
    for key in keys:
        re, im, _ = values[key]
        if not (re or im):
            return True
    return False


def randomized_equal(x, y, trials=20, seed=0):
    """Numeric concordance check for two fully pinned distributions.

    The pair is planned once (``_plan``), and every variable gets one span,
    the union of its exponent ranges over all parts (``_compile``).  Each
    trial draws every variable as a real rational g/s (``_random_points``)
    and builds one power table per variable over its span, all powers of
    a variable over one denominator (``_power_tables``).  A part's kernel
    is decoded on first use (``_kernel``), and a part is evaluated in
    plain integers (``_part_value``) only when a verdict needs it, at most
    once per trial.  Per group, in order:
    * its denominator parts, shared or not, are evaluated first, and one
      that vanishes retries the trial, as the whole values would;
    * else its two sides, the parts both share cancelled, are compared as
      unreduced n/d (``combine_cleared``): n/d == n'/d' exactly when
      n*d' == n'*d, so no gcd and no Fraction is needed;
    * only if they differ are its shared numerator parts evaluated: one
      that vanishes makes both whole sides 0, and the group is equal in
      this trial; else they are one nonzero factor of both sides of
      n*d' == n'*d, and the verdict is False.
    Where the reduced sides agree, so do the whole ones, so no verdict
    needs the shared parts there.  The test monomial is drawn on every
    trial but not applied: the shift part only rescales it, by one nonzero
    factor of both sides of a group.  So the draws, the retries (bounded)
    and the group order, which is fixed since a mismatch met before a
    vanishing denominator decides False and not a retry, are those of
    evaluating every coefficient whole on the test monomial, and so is
    (verdict, trials_run).
    """
    rng = random.Random(seed)
    parts, groups = _plan(x, y)
    if not groups:
        return True, trials
    names, spans, zero = _compile(parts)
    kernels = _OnDemand(lambda key: _kernel(parts[key], zero))
    n_test_exps = sum(v.startswith("w:") for v in names)
    done = attempts = 0
    while done < trials:
        if attempts > MAX_RETRIES + trials:
            raise BadSpecialization(
                f"exceeded {MAX_RETRIES} retries at trial {done}")
        attempts += 1
        powers = _power_tables(_random_points(rng, names, n_test_exps),
                               spans)
        values = _OnDemand(
            lambda key, powers=powers: _part_value(kernels[key], powers))
        for dens, shared, vx, vy in groups:
            if _vanishes(values, dens):
                break
            if not _same_value(combine_cleared(*vx, values),
                               combine_cleared(*vy, values)) \
                    and not _vanishes(values, shared):
                return False, done + 1
        else:
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
    sum of the delta contributions coeff * a^(-n) over the expansion's
    (pin a, coeff) pairs, gamma's own when none is given.  An expansion
    lists each pin once, as ``expand_by_residues`` does; one that repeats
    a pin fails.

    Gamma is split as N * R.  The polar part R = prod (1 - c*M*x)^e over
    gamma's factors with e < 0 holds every pole, and its pins are
    distinct, as its factors' keys are; the numerator N = pref * x^power *
    (the factors with e > 0) is a Laurent polynomial of degrees
    [N.power, N.degree_at_infinity()].  Both expansions are ring
    homomorphisms, so L[N*R]_n = sum_j N_j L[R]_(n-j), and since
    sum_j N_j a^(j-n) = a^(-n) N(a) (the delta-function property f(x)
    delta(a/x) = f(a) delta(a/x)), the claim holds on |n| <= order when

    * every logged pin is a pin a_k of R's expansion, each once, and each
      logged amplitude (0 at a pin of R that the expansion leaves out)
      equals N(a_k) times R's amplitude there, compared as factored
      scalars, so the factors they share cancel; and
    * R's expansion is right on the window widened by W = max(|N.power|,
      |N.degree_at_infinity()|), which ``_window_check`` certifies on
      order + W.

    So an expansion passes only if it is gamma's own, but for pins where
    gamma's amplitude is 0, and gamma's numerator is never expanded.
    N(a_k) is ``FactorCurrent.evaluate``, the function that
    ``expand_by_residues`` uses too, so the check trusts ``evaluate`` on
    N's factors; ``test_evaluate_matches_the_summed_expansion`` in
    ``tests/test_delta.py`` compares it with N's expansion summed at the
    point.  A pole that is not simple, or not at a monomial point, raises
    ``NonSimplePole`` as ``expand_by_residues(gamma)`` would, expansion
    given or not: R holds every pole factor, in gamma's order.
    """
    from .delta import expand_by_residues
    terms = expand_by_residues(gamma) if expansion is None else expansion
    polar = gamma.copy_with(SCALAR_ONE, 0, {key: e for key, e
                                            in gamma.factors.items() if e < 0})
    numer = gamma.copy_with(factors={key: e for key, e
                                     in gamma.factors.items() if e > 0})
    residues = expand_by_residues(polar)
    logged = dict(terms)
    if len(logged) < len(terms) or \
            not logged.keys() <= {a for a, _ in residues}:
        return False    # a repeated pin, or one where gamma has no pole
    for a, amp in residues:
        if not logged.get(a, SCALAR_ZERO).equals(numer.evaluate(a) * amp):
            return False
    width = max(abs(numer.power), abs(numer.degree_at_infinity()))
    return _window_check(polar, residues, order + width)


def _window_check(gamma, terms, order):
    """Whether the residue expansion ``terms`` of gamma, distinct pins
    with their amplitudes, reproduces the difference L of gamma's
    expansions at infinity and at zero on every x^n with |n| <= order.

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
