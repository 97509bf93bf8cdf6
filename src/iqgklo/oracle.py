"""Independent numeric cross-checks for the symbolic engine.

Two instruments:

* randomized_equal -- compares two delta-supported distributions, support
  group by support group, at random points of the prime field F_P,
  P = 2**30 - 35: each trial draws every base variable as a nonzero
  residue, powers it once over its exponent span, and each distinct part
  of the coefficients is decoded into residue rows on first use and
  evaluated at most once per trial, only where a verdict needs it.  Every
  value is one residue mod P.  The parts that both sides of a group share
  are cancelled, exactly, so each (verdict, trials) pair is that of
  evaluating every coefficient whole and reducing it mod P.  It shares no
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
from math import prod

from .errors import BadSpecialization
from .scalars import GR, SCALAR_ZERO, Scalar

MAX_RETRIES = 200   # redraws of a vanishing specialization, per comparison
# The field of the randomized check: P is prime and P % 4 == 1, so -1 has a
# square root I mod P (2 is not a square mod P, so 2^((P-1)/4) is one) and
# a + b*i maps to a + I*b.  P < 2^30 keeps every residue one CPython digit.
P = 2**30 - 35
I = pow(2, (P - 1) // 4, P)


def act(term, f):
    """Apply one normal-ordered term, a (coeff, dmon) pair, to the monomial
    function f.

    Each shift operator of dmon rescales the matching half-power
    coordinate, so the result is again a Scalar multiple of f.
    """
    coeff, dmon = term
    return coeff * Scalar.from_mono(f).conjugate(dmon)


def residue(c):
    """The coefficient c, a rational or a Gaussian rational a + b*i, mod P:
    a + I*b, each rational through the inverse of its denominator.  No
    coefficient of the engine has a denominator divisible by P."""
    re, im = (c.re, c.im) if isinstance(c, GR) else (c, 0)
    return (re.numerator * pow(re.denominator, -1, P)
            + I * im.numerator * pow(im.denominator, -1, P)) % P


def _random_points(rng, n):
    """One attempt's draws: n residues, each uniform in 1 .. P-1, read off
    ``rng.getrandbits(30)`` by rejecting 0 and every value from P up."""
    bits = rng.getrandbits
    points = []
    while len(points) < n:
        r = bits(30)
        if 0 < r < P:
            points.append(r)
    return points


def _groups(dist):
    """Each support group's coefficient, keyed by the distribution's own
    merge key of its pins and shift, under which ``Distribution`` has
    already summed the group's terms and dropped a sum that cancels."""
    return {key: c for key, (_, c) in dist.terms.items()}


def _side_value(unit, den, num, values):
    """One side (unit, den, num) of a group as (n, d), the value n/d mod
    P: ``unit`` is its constant's residue, and ``den`` and ``num`` map part
    keys to multiplicities, each part's residue being ``values[key]``."""
    n = unit
    for key, e in num.items():
        n = n * pow(values[key], e, P) % P
    d = 1
    for key, e in den.items():
        d = d * pow(values[key], e, P) % P
    return n, d


def _plan(x, y):
    """(parts, groups): each distinct part of the coefficients'
    ``eval_plan`` by key, and per support group, x's first and then those
    only y has, (dens, shared, vx, vy): the parts of either side's
    denominator, the numerator parts both sides hold, and each side as
    (unit, den, num), its constant's residue, with what both hold in their
    numerators, or both in their denominators, cancelled to the lower
    multiplicity.  A group equal in all four to an earlier one is left
    out: in every trial that reaches it, the earlier group has passed, and
    so would it."""
    gx, gy = _groups(x), _groups(y)
    parts, groups, seen = {}, [], set()
    for key in [*gx, *(key for key in gy if key not in gx)]:
        (ux, dx, nx, px), (uy, dy, ny, py) = (
            g.get(key, SCALAR_ZERO).eval_plan() for g in (gx, gy))
        parts.update(px)
        parts.update(py)
        sd, sn = dx & dy, nx & ny
        dens, shared = frozenset(dx.keys() | dy.keys()), frozenset(sn)
        vx = (residue(ux), dx - sd, nx - sn)
        vy = (residue(uy), dy - sd, ny - sn)
        sig = dens, shared, *((u, frozenset(d.items()), frozenset(n.items()))
                              for u, d, n in (vx, vy))
        if sig not in seen:
            seen.add(sig)
            groups.append((dens, shared, vx, vy))
    return parts, groups


def _compile(parts):
    """(names, spans, zero): the pair's variables in name order, each
    variable's span (lo, hi), the union of its exponent ranges over all
    parts, and the index of each variable's 0th power in the trial's power
    tables, which lie end to end in one flat list (see ``_power_tables``),
    so the e-th power is at zero[v] + e.  The exponent ranges are read off
    each part's cached layout (``Poly.layout``)."""
    spans = {}
    for p in parts.values():
        for v, lo, hi in p.layout()[0]:
            a, b = spans.get(v, (lo, hi))
            spans[v] = min(a, lo), max(b, hi)
    names = sorted(spans)
    zero, end = {}, 0
    for v in names:
        lo, hi = spans[v]
        zero[v] = end - lo
        end += hi - lo + 1
    return names, [spans[v] for v in names], zero


def _kernel(part, zero):
    """One part's rows on the power tables that ``zero`` indexes: per
    term, its coefficient's residue and the index of the power of each
    variable the part holds."""
    ranges, rows = part.layout()
    at = [zero[v] for v, _, _ in ranges]
    return [(residue(c), [i + e for i, e in zip(at, exps)])
            for c, exps in zip(part.terms.values(), rows)]


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
    residue x and span (lo, hi), x^e mod P for e = lo .. hi."""
    out = []
    for x, (lo, hi) in zip(points, spans):
        p = pow(x, lo, P)
        out.append(p)
        for _ in range(hi - lo):
            p = p * x % P
            out.append(p)
    return out


def _part_value(rows, powers):
    """One part's residue on the trial's power tables."""
    get = powers.__getitem__
    return sum(c * prod(map(get, at)) for c, at in rows) % P


def _vanishes(values, keys):
    """Whether one of the parts ``keys`` is 0 mod P in this trial."""
    return not all(map(values.__getitem__, keys))


def randomized_equal(x, y, trials=20, seed=0):
    """Numeric concordance check for two fully pinned distributions, in
    the prime field F_P.

    Reducing mod P is a ring homomorphism on every value whose
    denominator is not 0 mod P, so two sides whose residues differ differ
    over Q(i), and a False verdict is a sound witness.  Two different
    sides have equal residues at a uniform nonzero point with probability
    at most deg/(P-1) per trial, deg the total degree of their
    cross-multiplied difference cleared of negative powers
    (Schwartz-Zippel); the trials are independent.

    The pair is planned once (``_plan``), and every variable gets one span,
    the union of its exponent ranges over all parts (``_compile``).  Each
    trial draws every variable as a nonzero residue (``_random_points``)
    and builds one power table per variable over its span
    (``_power_tables``).  A part's kernel is decoded on first use
    (``_kernel``), and a part is evaluated (``_part_value``) only when a
    verdict needs it, at most once per trial.  Per group, in order:
    * its denominator parts, shared or not, are evaluated first, and one
      that is 0 retries the trial, as the whole values would;
    * else its two sides, the parts both share cancelled, are compared as
      n/d (``_side_value``): n/d == n'/d' exactly when n*d' - n'*d is 0
      mod P;
    * only if they differ are its shared numerator parts evaluated: one
      that is 0 makes both whole sides 0, and the group is equal in
      this trial; else they are one nonzero factor of both sides of
      n*d' == n'*d, and the verdict is False.
    Where the reduced sides agree, so do the whole ones, so no verdict
    needs the shared parts there.  So the retries (bounded) and the group
    order, which is fixed since a mismatch met before a vanishing
    denominator decides False and not a retry, are those of evaluating
    every coefficient whole mod P, and so is (verdict, trials_run).
    """
    rng = random.Random(seed)
    parts, groups = _plan(x, y)
    if not groups:
        return True, trials
    names, spans, zero = _compile(parts)
    kernels = _OnDemand(lambda key: _kernel(parts[key], zero))
    done = attempts = 0
    while done < trials:
        if attempts > MAX_RETRIES + trials:
            raise BadSpecialization(
                f"exceeded {MAX_RETRIES} retries at trial {done}")
        attempts += 1
        powers = _power_tables(_random_points(rng, len(names)), spans)
        values = _OnDemand(
            lambda key, powers=powers: _part_value(kernels[key], powers))
        for dens, shared, vx, vy in groups:
            if _vanishes(values, dens):
                break
            (n, d), (m, e) = _side_value(*vx, values), _side_value(*vy, values)
            if (n * e - m * d) % P and not _vanishes(values, shared):
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
