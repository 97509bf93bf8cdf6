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
  rational current reproduces the difference of its Laurent expansions
  at infinity and at zero, in closed form: each amplitude must be the
  numerator's value at the pin times the polar part's partial-fraction
  coefficient there, compared as factored scalars.  This is exact on
  every coefficient, so the verdict does not depend on ``order``, the
  window the check certifies at least; no series is expanded.
"""

from __future__ import annotations

import random
from math import gcd, lcm, prod

from .errors import BadSpecialization
from .scalars import GR, SCALAR_ZERO, Scalar

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


def truncated_series_check(gamma, expansion=None, order=8):
    """Verify a residue expansion of gamma against the difference L of
    gamma's Laurent expansions at infinity and at zero.

    L must equal the sum of the delta contributions coeff * delta(a/u) over
    the expansion's (pin a, coeff) pairs, gamma's own when none is given,
    on every coefficient: the check is exact, so ``order`` is ignored, and
    only the benchmark's series workload still passes it.  An expansion
    lists each pin once, as ``expand_by_residues`` does; one that repeats
    a pin fails.

    Gamma is split as N * R.  The polar part R = prod_k (1 - rho_k u)^-1
    is gamma's factors of negative exponent, which must be simple poles
    at monomial points (``simple_poles``, so a pole that is not raises
    ``NonSimplePole`` as ``expand_by_residues(gamma)`` would, expansion
    given or not); the p roots rho_k are distinct, as the factors' keys
    are, and the pins are a_k = rho_k^-1.  The numerator N = pref * u^power
    * (the factors of positive exponent) is a Laurent polynomial.  By
    partial fractions,

      R = sum_k c_k / (1 - rho_k u),
      c_k = prod_{l != k} (1 - rho_l/rho_k)^-1
          = rho_k^(p-1) / prod_{l != k} (rho_k - rho_l).

    1/(1 - rho u) expands as sum_{j>=0} rho^j u^j at zero and as
    -sum_{j>=1} rho^-j u^-j at infinity, so the difference of its two
    expansions is -sum_n rho^n u^n = -delta(a/u).  Both expansions are
    ring homomorphisms, so L[N*R] = N * L[R], and f(u) delta(a/u) =
    f(a) delta(a/u) for the Laurent polynomial f = N gives

      L[N*R] = -sum_k N(a_k) c_k delta(a_k/u)

    on every coefficient.  The deltas at distinct pins are linearly
    independent, so the expansion is right exactly when every logged pin
    is one of the a_k, each once, and each logged amplitude (0 at an a_k
    that the expansion leaves out) times prod_{l != k} (rho_k - rho_l),
    which is not 0, equals -N(a_k) rho_k^(p-1), compared as factored
    scalars.  Nothing but gamma is expanded, and gamma only when no
    expansion is given.

    N(a_k) is ``FactorCurrent.evaluate``, the function that
    ``expand_by_residues`` uses too, so the check trusts ``evaluate`` on
    N's factors, which have no pole;
    ``test_evaluate_matches_the_summed_expansion`` in
    ``tests/test_delta.py`` compares it with N's expansion summed at the
    point.  R's amplitudes come from the closed form above,
    not from ``evaluate``.
    """
    from .delta import expand_by_residues, simple_poles
    terms = expand_by_residues(gamma) if expansion is None else expansion
    roots = [M for _, M in simple_poles(gamma)]
    pins = [rho.inverse() for rho in roots]
    logged = dict(terms)
    if len(logged) < len(terms) or not logged.keys() <= set(pins):
        return False    # a repeated pin, or one where gamma has no pole
    numer = gamma.copy_with(factors={key: e for key, e
                                     in gamma.factors.items() if e > 0})
    units = [Scalar.from_mono(rho) for rho in roots]
    for k, (a, rho) in enumerate(zip(pins, roots)):
        lhs = logged.get(a, SCALAR_ZERO)
        for l, sigma in enumerate(units):
            if l != k:
                lhs = lhs * (units[k] - sigma)
        rhs = -numer.evaluate(a) * Scalar.from_mono(rho ** (len(roots) - 1))
        if not lhs.equals(rhs):
            return False
    return True
