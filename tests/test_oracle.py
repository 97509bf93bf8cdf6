import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product

import pytest

from iqgklo.delta import Distribution, FactorCurrent, expand_by_residues
from iqgklo.errors import DenominatorVanishes, DivisionByZero
from iqgklo.gklo import build_B_image, build_Xi, times_x_minus_xinv
from iqgklo.oracle import (
    _groups, _random_assignment, _random_test_monomial, act,
    randomized_equal, truncated_series_check,
)
from iqgklo.relations import RelationChecker
from iqgklo.satake import catalog_by_name
from iqgklo.scalars import GR, GR_I, Monomial, Poly, Scalar
from iqgklo.torus import DMonomial, TorusElement


def _shift(i, r, e):
    return TorusElement.monomial(Scalar.one(), DMonomial.unit(i, r, e))


def _act_terms(x, f):
    """Act with the TorusElement x on f term by term."""
    out = Scalar.zero()
    for dmon, coeff in x.terms.items():
        out = out + act((coeff, dmon), f)
    return out


def test_act_shift_rescales_half_power():
    # the shift operator on slot (1,1) multiplies w_{1,1}^(1/2) by Q^2
    f = Monomial.w(1, 1)                       # whole power, exponent 2
    out = _act_terms(_shift(1, 1, 1), f)
    assert out.equals(Scalar.q_int(2) * Scalar.from_mono(f))


def test_act_is_linear_over_terms():
    f = Monomial.w(1, 1)
    up, down = _shift(1, 1, 1), _shift(1, 1, -1)
    assert _act_terms(up + down, f).equals(
        _act_terms(up, f) + _act_terms(down, f))


def test_act_commutator_defect_zero_on_same_slot():
    # shifts on the same slot commute; acting with xy - yx gives 0
    f = Monomial.w(1, 1, 2)
    x, y = _shift(1, 1, 1), _shift(1, 1, -1)
    defect = x * y - y * x
    assert _act_terms(defect, f).is_zero()


def test_randomized_equal_reflexive():
    inst = catalog_by_name("sA1-v1-t0")
    b = build_B_image(inst, 1)
    verdict, trials = randomized_equal(b, b, trials=5, seed=3)
    assert verdict is True and trials == 5


def test_randomized_equal_detects_perturbation():
    inst = catalog_by_name("sA1-v1-t0")
    b = build_B_image(inst, 1)
    eps = b.map_coeff(lambda pins, c: c * (Scalar.one() + Scalar.var("q", 2)))
    verdict, trials = randomized_equal(b, eps, trials=20, seed=0)
    assert verdict is False and trials <= 3


def test_randomized_equal_matches_symbolic_verdict():
    inst = catalog_by_name("sA1-v1-t0")
    ck = RelationChecker(inst)
    lhs, rhs = ck.eval_pair("BB2", 1, 1)
    verdict, trials = randomized_equal(lhs, rhs, trials=20, seed=0)
    assert verdict is True and trials == 20


def test_randomized_equal_evaluates_each_factor_once_per_trial(monkeypatch):
    # one memo per trial: no polynomial is evaluated twice at one
    # assignment, though the two sides share most of their factors
    inst = catalog_by_name("sA1-v1-t0")
    lhs, rhs = RelationChecker(inst).eval_pair("BB2", 1, 1)
    seen = Counter()
    original = Poly._eval_cleared

    def counted(self, assignment, memo):
        seen[tuple(assignment.items()), frozenset(self.terms.items())] += 1
        return original(self, assignment, memo)
    monkeypatch.setattr(Poly, "_eval_cleared", counted)
    assert randomized_equal(lhs, rhs, trials=20, seed=0) == (True, 20)
    assert len({a for a, _ in seen}) == 20
    assert max(seen.values()) == 1


# Records, in a fresh interpreter, every coefficient the oracle evaluates
# on the qsA2-v11 BB3[1,2] pair, in order.
VISITS = """
import json
from iqgklo.oracle import randomized_equal
from iqgklo.relations import RelationChecker
from iqgklo.satake import catalog_by_name
from iqgklo.scalars import Scalar
lhs, rhs = RelationChecker(catalog_by_name("qsA2-v11")).eval_pair("BB3", 1, 2)
seen = []
original = Scalar.eval_numeric

def recorded(self, assignment, memo=None):
    seen.append(repr(self))
    return original(self, assignment, memo)
Scalar.eval_numeric = recorded
randomized_equal(lhs, rhs, trials=1, seed=0)
print(json.dumps(seen))
"""


def test_randomized_equal_visit_order_ignores_hash_seed():
    # which of a mismatch and a vanishing denominator is met first in a
    # trial decides the (verdict, trials) pair, so the order of the
    # support groups must not follow the string hashes
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    orders = [json.loads(subprocess.run(
        [sys.executable, "-c", VISITS],
        env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        capture_output=True, text=True, check=True).stdout)
        for seed in ("0", "1")]
    assert len(orders[0]) > 2
    assert orders[0] == orders[1]


def _draws(x, y, seed):
    """The oracle's support groups and its stream of random
    (assignment, test monomial) draws for one seed."""
    gx, gy = _groups(x), _groups(y)
    variables = {"q"}
    for c in list(gx.values()) + list(gy.values()):
        variables |= c.variables()
    rng = random.Random(seed)

    def draw():
        assignment = _random_assignment(rng, sorted(variables))
        return assignment, _random_test_monomial(rng, variables)
    return gx, gy, [*gx, *(k for k in gy if k not in gx)], draw


def _reference_randomized_equal(x, y, trials, seed, max_retries=200):
    """The full-product oracle: act on the test monomial with the whole
    symbolic coefficient, then evaluate the product."""
    gx, gy, keys, draw = _draws(x, y, seed)
    if not keys:
        return True, trials
    done = attempts = 0
    while done < trials:
        assert attempts <= max_retries + trials
        attempts += 1
        a, f = draw()
        try:
            for key in keys:
                dmon = key[1]
                vx = act((gx.get(key, Scalar.zero()), dmon), f).eval_numeric(a)
                vy = act((gy.get(key, Scalar.zero()), dmon), f).eval_numeric(a)
                if vx != vy:
                    return False, done + 1
        except (DenominatorVanishes, DivisionByZero):
            continue
        done += 1
    return True, done


def _reference_pairs():
    inst = catalog_by_name("sA1-v1-t0")
    b = build_B_image(inst, 1)
    eps = b.map_coeff(lambda pins, c: c * (Scalar.one() + Scalar.var("q", 2)))
    # the theta = 1 image carries a Gaussian coefficient
    bt = build_B_image(catalog_by_name("sA1-v1-t1"), 1)
    gauss = Scalar.one() + Scalar.const(GR_I) * Scalar.var("q", 2)
    epst = bt.map_coeff(lambda pins, c: c * gauss)
    return {"BB2[1,1]": RelationChecker(inst).eval_pair("BB2", 1, 1),
            "perturbed": (b, eps),
            "qsA2-v11 BB3[1,2]": RelationChecker(
                catalog_by_name("qsA2-v11")).eval_pair("BB3", 1, 2),
            "theta1 B[1]": (bt, bt),
            "theta1 perturbed": (bt, epst)}


def _has_gaussian(dist):
    return any(isinstance(x, GR) for _, c, _ in dist.items()
               for x in [c.c, *c.num.terms.values(),
                         *(y for p, _ in c.f.values()
                           for y in p.terms.values())])


def test_reference_pairs_cover_gaussian_coefficients():
    pairs = _reference_pairs()
    assert _has_gaussian(pairs["theta1 B[1]"][0])
    assert _has_gaussian(pairs["theta1 perturbed"][1])


@pytest.mark.parametrize("name", ["BB2[1,1]", "perturbed",
                                  "qsA2-v11 BB3[1,2]", "theta1 B[1]",
                                  "theta1 perturbed"])
def test_randomized_equal_matches_full_product_reference(name):
    lhs, rhs = _reference_pairs()[name]
    for seed in (0, 5):
        assert randomized_equal(lhs, rhs, trials=20, seed=seed) == \
            _reference_randomized_equal(lhs, rhs, trials=20, seed=seed)


def test_evaluate_then_rescale_equals_full_product_per_group():
    for (lhs, rhs), seed in product(_reference_pairs().values(), range(3)):
        gx, gy, keys, draw = _draws(lhs, rhs, seed)
        a, f = draw()
        for key in keys:
            dmon = key[1]
            fv = act((Scalar.one(), dmon), f).eval_numeric(a)
            for c in (gx.get(key, Scalar.zero()), gy.get(key, Scalar.zero())):
                assert c.eval_numeric(a) * fv == \
                    act((c, dmon), f).eval_numeric(a)


def test_series_check_single_geometric_pole():
    # x/(x-a) = (1 - a/x)^{-1}: residue expansion is a single delta at a
    a = Monomial.unit("a", 2)
    gamma = FactorCurrent("x").times_linear_inv_arg(a, 1, -1)
    assert truncated_series_check(gamma, order=8)


def test_series_check_laurent_polynomial_trivial():
    gamma = FactorCurrent("x", pref=Scalar.var("x", 3))
    assert truncated_series_check(gamma, order=4)


def test_series_check_split_rank1_current():
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1, var="u"))
    assert truncated_series_check(gamma, order=8)


def test_series_check_rejects_scaled_expansion():
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1, var="u"))
    bad = expand_by_residues(gamma).map_coeff(
        lambda pins, c: c * Scalar.q_int(1))
    assert not truncated_series_check(gamma, expansion=bad, order=8)


def test_series_check_rejects_dropped_pin():
    inst = catalog_by_name("sA1-v1-t0")
    gamma = times_x_minus_xinv(build_Xi(inst, 1, var="u"))
    full = list(expand_by_residues(gamma).items())
    partial = Distribution.zero()
    for pins, coeff, dmon in full[:-1]:
        partial.add_term(pins, coeff, dmon)
    assert not truncated_series_check(gamma, expansion=partial, order=8)
