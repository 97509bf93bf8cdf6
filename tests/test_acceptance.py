"""Acceptance gate: the eight exact criteria, one pass/fail line each.

Everything is zero-tolerance: a criterion passes only if every constituent
check holds identically.  The heavy work (the full catalog relation sweep)
is done once in a module fixture and shared by the criteria that consume
its by-products (logged rational currents, evaluated relation sides).
"""

import time

import pytest

from iqgklo.errors import DegreeMismatch
from iqgklo.gklo import (
    build_kappa, build_WW, build_Xi, build_ZZ, leading_coefficient_K,
)
from iqgklo.identities import (
    _adjacent_pairs, identity_suite, residue_symmetry_holds,
)
from iqgklo.oracle import randomized_equal, truncated_series_check
from iqgklo.relations import (
    RelationChecker, chi_exchange_suite, merged_chi_suite,
)
from iqgklo.satake import build_catalog, catalog_by_name

CATALOG = build_catalog()

ORACLE_TRIALS = 20
ORACLE_SEED = 0


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep():
    """Full catalog relation sweep; each result keeps its evaluated sides
    and logged rational currents."""
    out = {}
    for inst in CATALOG:
        t0 = time.monotonic()
        report = RelationChecker(inst).run()
        out[inst.name] = (inst, report, time.monotonic() - t0)
    return out


@pytest.fixture(scope="module")
def lemma_sides():
    """Both lemma suites on every instance; each result keeps its operator
    sides."""
    results = []
    for inst in CATALOG:
        results += chi_exchange_suite(inst) + merged_chi_suite(inst)
    return results


def test_criterion_1_full_relation_verification(sweep):
    bad, total = [], 0.0
    for name, (_, report, secs) in sweep.items():
        total += secs
        for r in report.results:
            if r.status != "pass" or r.failures:
                bad.append(f"{name}:{r.name}")
    n = sum(len(rep.results) for _, rep, _ in sweep.values())
    _verdict(1, not bad,
             f"{n} relation checks on {len(sweep)} instances, "
             f"{total:.1f}s total" if not bad else f"failed: {bad}")


def test_criterion_2_lemma_suites(lemma_sides):
    bad = [r.name for r in lemma_sides if r.status != "pass"]
    _verdict(2, not bad,
             f"{len(lemma_sides)} exchange-law cases across the catalog"
             if not bad else f"failed: {bad}")


def test_criterion_3_structural_symmetries():
    bad = []
    if not build_kappa().invert_arg().equals(build_kappa()):
        bad.append("kappa")
    checks = 1
    for inst in CATALOG:
        d = inst.diagram
        for i in d.nodes():
            ti = d.t(i)
            for label, build in (("W", build_WW), ("Z", build_ZZ)):
                checks += 1
                if not build(inst, i).invert_arg().equals(build(inst, ti)):
                    bad.append(f"{inst.name}:{label}{i}")
            checks += 1
            if not build_Xi(inst, i).invert_arg().equals(build_Xi(inst, ti)):
                bad.append(f"{inst.name}:Xi{i}")
    _verdict(3, not bad, f"{checks} factored-current symmetries"
             if not bad else f"failed: {bad}")


def test_criterion_4_degree_extraction():
    bad = []
    checks = 0
    for inst in CATALOG:
        for i in inst.diagram.nodes():
            checks += 1
            try:
                leading_coefficient_K(inst, i)
            except DegreeMismatch:
                bad.append(f"{inst.name}:deg{i}")
        # the degree shift from a corrupted multiplicity at node 1 shows
        # up at node 1's involution image and neighbors, so scan all nodes
        corrupted = inst._replace(
            mult=(inst.mult[0] + 1,) + inst.mult[1:])
        checks += 1
        try:
            for i in corrupted.diagram.nodes():
                leading_coefficient_K(corrupted, i)
            bad.append(f"{inst.name}:corrupt-mult-undetected")
        except DegreeMismatch:
            pass
    _verdict(4, not bad,
             f"{checks} top-degree checks incl. corrupted-multiplicity "
             "detection on every instance"
             if not bad else f"failed: {bad}")


def test_criterion_5_residue_expansion_soundness(sweep):
    bad = []
    n = 0
    for name, (_, report, _) in sweep.items():
        logged = [g for r in report.results for g, _ in r.gammas]
        for k, gamma in enumerate(logged):
            n += 1
            if not truncated_series_check(gamma):
                bad.append(f"{name}:gamma{k}")
    pairs = _adjacent_pairs()
    for inst, i, j in pairs:
        if not residue_symmetry_holds(inst, i, j):
            bad.append(f"{inst.name}:residue-symmetry({i},{j})")
    _verdict(5, not bad,
             f"{n} logged expansions, exact on every coefficient, "
             f"{len(pairs)} residue symmetries"
             if not bad else f"failed: {bad}")


def test_criterion_6_oracle_concordance(sweep, lemma_sides):
    disagreements = []
    n = 0
    for name, (_, report, _) in sweep.items():
        for r in report.results:
            if r.sides is None:
                continue
            n += 1
            verdict, trials = randomized_equal(
                *r.sides, trials=ORACLE_TRIALS, seed=ORACLE_SEED)
            assert trials >= ORACLE_TRIALS or not verdict
            if verdict != (r.status == "pass"):
                disagreements.append(f"{name}:{r.name}")
    for res in lemma_sides:
        n += 1
        verdict, _ = randomized_equal(*res.sides, trials=ORACLE_TRIALS,
                                      seed=ORACLE_SEED)
        if verdict != (res.status == "pass"):
            disagreements.append(f"lemma:{res.kind}{res.pair}")
    _verdict(6, not disagreements,
             f"{n} randomized cross-checks "
             f"({ORACLE_TRIALS} trials, seed {ORACLE_SEED}), "
             "zero disagreements"
             if not disagreements else f"disagreed: {disagreements}")


def test_criterion_7_identity_regressions():
    results = identity_suite()
    bad = [r.pair[0] for r in results if r.status != "pass"]
    _verdict(7, not bad and len(results) == 13,
             f"{len(results)} standalone identities"
             if not bad else f"failed: {bad}")


NEGATIVE_CONTROLS = [
    ("sA1-v1-t1", "drop_kappa", ("BB2",)),
    ("qsA2-v11", "flip_wp", ("BB3",)),
    ("sA1-v1-t1", "drop_const", ("BB2",)),
]


def test_criterion_8_negative_controls():
    bad = []
    for name, corrupt, kinds in NEGATIVE_CONTROLS:
        inst = catalog_by_name(name)
        report = RelationChecker(inst, corrupt=corrupt).run(kinds=kinds)
        failing = report.failed()
        if not failing:
            bad.append(f"{name}:{corrupt}:no-failure")
            continue
        for r in failing:
            if not r.failures or not all(f[0] for f in r.failures):
                bad.append(f"{name}:{corrupt}:{r.name}:unlocalized")
    _verdict(8, not bad,
             "each corrupted image yields failing relations with "
             "localized supports"
             if not bad else f"failed: {bad}")
