"""Independent numeric cross-checks for the symbolic engine.

Two instruments:

* randomized_equal -- compares two delta-supported distributions, support
  group by support group, at random points of the prime field F_P,
  P = 2**30 - 35, every value one residue mod P.  Each group is planned
  from the signed factor exponents of its two coefficients, as two sides
  with what both hold cancelled.  Trials run in batches of attempts drawn
  up front; each power of a variable and each factor is a vector over
  the batch, made once where a verdict needs it.  So each (verdict,
  trials) pair is that of evaluating every coefficient whole, attempt by
  attempt, mod P.  It reads the coefficients' parts and uses no Scalar
  arithmetic, so it shares no simplification code with the symbolic
  comparison path.

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
from operator import mul

from .errors import BadSpecialization
from .scalars import GR, SCALAR_ZERO, Scalar, exponents, factor, variables

MAX_RETRIES = 200   # redraws of a vanishing specialization, per comparison
BATCH = 1024        # attempts drawn at once at most: bounds a batch's memory
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
    a + I*b, each rational through the inverse of its denominator; one
    with no inverse, divisible by P, raises ``BadSpecialization``."""
    re, im = (c.re, c.im) if isinstance(c, GR) else (c, 0)
    if re.denominator % P == 0 or im.denominator % P == 0:
        raise BadSpecialization(f"coefficient {c} has a denominator "
                                "divisible by P")
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


def _group(sx, sy):
    """One support group's plan from its two coefficients, x's sx and y's
    sy, as the hashable (dens, shared, cx, cy, m, up, down): the keys of
    the factors with a negative exponent on either side and of those with
    a positive one on both, each constant's residue, the unit monomial
    key m = m_x - m_y, and the (key, |e|) pairs of the factors whose
    exponent difference e = f_x - f_y is positive (up) or negative
    (down).  The group compares cx * X^m * up == cy * down: sx == sy
    with X^(m_y) and each factor to the lower of its two exponents
    cancelled from both sides.  The zero coefficient has the constant 0
    and no part."""
    fx, fy = sx.f, sy.f
    get_y = fy.get
    e = {key: d for key, a in fx.items() if (d := a - get_y(key, 0))}
    e.update((key, -b) for key, b in fy.items() if key not in fx)
    return (frozenset([key for key, a in fx.items() if a < 0]
                      + [key for key, b in fy.items() if b < 0]),
            frozenset(key for key, a in fx.items() if a > 0 < get_y(key, 0)),
            residue(sx.c), residue(sy.c), sx.m - sy.m,
            frozenset((key, d) for key, d in e.items() if d > 0),
            frozenset((key, -d) for key, d in e.items() if d < 0))


def _plan(x, y):
    """(names, groups): the name-sorted variables of every coefficient of
    the pair, and per support group, x's first and then those only y has,
    its plan (``_group``).  The groups are the distributions' own terms,
    each keyed by its support and already summed, none 0.  A group equal
    to an earlier one is left out: in every attempt that reaches it, the
    earlier group has passed, and so would it."""
    gx, gy = x.terms, y.terms
    keys = [*gx, *(key for key in gy if key not in gx)]
    groups = dict.fromkeys(_group(gx.get(key, SCALAR_ZERO),
                                  gy.get(key, SCALAR_ZERO)) for key in keys)
    return variables([*gx.values(), *gy.values()]), list(groups)


class _OnDemand(dict):
    """A dict that makes each missing value on first use, by ``make``."""

    def __init__(self, make):
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _power_vector(xs, e):
    """x^e mod P for each residue x of ``xs``, e nonzero."""
    return [pow(x, e, P) for x in xs]


def _part_values(part, powers, n):
    """One part's residues over the n attempts of a batch, read off its
    cached layout (``Poly.layout``): per term, its coefficient's residue
    times the batch's power vector ``powers[v, e]`` of each nonzero
    exponent e of a variable v."""
    names, rows = part.layout()
    terms = []
    for c, exps in zip(part.terms.values(), rows):
        term = [residue(c)] * n
        for v, e in zip(names, exps):
            if e:
                term = map(mul, term, powers[v, e])
        terms.append(term)
    return [sum(t) % P for t in zip(*terms)]


def _times(vector, mults, values):
    """``vector`` times each part of the (key, multiplicity) pairs
    ``mults`` to its multiplicity, per attempt mod P, the part's residues
    being ``values[key]``."""
    for key, e in mults:
        vector = [a * pow(b, e, P) % P for a, b in zip(vector, values[key])]
    return vector


def _unit(c, m, powers, n):
    """The residue c times X^m over the n attempts of a batch, X^m the
    product of the power vectors of its decoded exponents; no draw is 0,
    so neither is X^m."""
    vector = [c] * n
    for v, e in exponents(m):
        vector = [a * b % P for a, b in zip(vector, powers[v, e])]
    return vector


def _vanishing(values, keys, n):
    """Per attempt, whether one of the parts ``keys`` is 0 mod P."""
    return [0 in t for t in zip(*(values[key] for key in keys))] \
        if keys else [False] * n


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

    The pair is planned once (``_plan``).  While fewer than ``trials``
    trials have passed, the n still missing (``BATCH`` at most) run as one
    batch: n attempts are drawn up front, one ``_random_points`` call
    each, in order, off the seed's stream, and each value below is a
    vector over the batch.  A power vector (``_power_vector``) is made
    when it is first read, and a factor is evaluated (``_part_values``)
    once per batch, when a group that an undecided attempt reaches first
    reads it; a unit monomial (``_unit``) is a product of power vectors,
    never 0.  An attempt's outcome is its first event in group order.
    Per group:
    * a denominator part, shared or not, that is 0 retries the attempt, as
      the whole values would;
    * else its two sides are compared (``_times``);
    * only where they differ do its shared numerator parts decide: one
      that is 0 makes both whole sides 0, so the group is equal there;
      else what was cancelled is one nonzero value on both whole sides,
      and the attempt is a mismatch.  Where the two sides agree, so do
      the whole ones.
    An outcome depends on its own attempt's draw only, so the batch is
    scanned in order as if its attempts ran one by one: a retry leaves the
    rest valid, the first mismatch returns (False, trials run), and the
    retry bound is checked per attempt.  So (verdict, trials_run), the
    retries and the group order (a mismatch met before a vanishing
    denominator decides False) are those of evaluating every coefficient
    whole mod P.
    """
    rng = random.Random(seed)
    names, groups = _plan(x, y)
    if not groups:
        return True, trials
    done = attempts = 0
    while done < trials:
        n = min(trials - done, BATCH)
        draws = [_random_points(rng, len(names)) for _ in range(n)]
        columns = dict(zip(names, zip(*draws)))
        powers = _OnDemand(lambda ve: _power_vector(columns[ve[0]], ve[1]))
        values = _OnDemand(lambda key: _part_values(factor(key), powers, n))
        events = [None] * n
        for dens, shared, cx, cy, m, up, down in groups:
            if all(events):
                break
            vanish, zero = _vanishing(values, dens, n), None
            a = _times(_unit(cx, m, powers, n), up, values)
            b = _times([cy] * n, down, values)
            for j, event in enumerate(events):
                if event:
                    continue
                if vanish[j]:
                    events[j] = "retry"
                elif a[j] != b[j]:
                    zero = zero or _vanishing(values, shared, n)
                    if not zero[j]:
                        events[j] = "mismatch"
        for event in events:
            if attempts > MAX_RETRIES + trials:
                raise BadSpecialization(
                    f"exceeded {MAX_RETRIES} retries at trial {done}")
            attempts += 1
            if event == "mismatch":
                return False, done + 1
            done += event is None
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
