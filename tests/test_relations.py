import pytest

from iqgklo.relations import (
    ALL_KINDS, BB_KINDS, RelationChecker, chi_exchange_suite, classify_bb,
    classify_serre, identity_suite, merged_chi_suite,
)
from iqgklo.gklo import build_B_image
from iqgklo.satake import build_catalog, catalog_by_name

CATALOG = build_catalog()


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_classify_bb_total_and_unique(inst):
    """Every ordered node pair falls under exactly one pairwise kind."""
    d = inst.diagram
    for i in d.nodes():
        for j in d.nodes():
            kind = classify_bb(d, i, j)
            assert kind in BB_KINDS
            ti = d.t(i)
            if kind == "BB1":
                assert j == ti and i != j and d.c(i, ti) == 0
            elif kind == "BB2":
                assert i == j == ti
            elif kind == "BB3":
                assert j == ti and d.c(i, ti) == -1
            elif kind == "BB4":
                assert d.c(i, j) == 0 and j != ti
            else:
                assert d.c(i, j) != 0 and j != ti and not (i == j == ti)


def test_classify_serre_cases():
    qs2 = catalog_by_name("qsA2-v11").diagram
    assert classify_serre(qs2, 1, 2) == "Serre3"
    s2 = catalog_by_name("sA2-v11-t00").diagram
    assert classify_serre(s2, 1, 2) == "Serre2"
    assert classify_serre(s2, 1, 1) is None
    qs4 = catalog_by_name("qsA4").diagram
    assert classify_serre(qs4, 1, 2) == "Serre1"
    assert classify_serre(qs4, 2, 3) == "Serre3"
    qs3 = catalog_by_name("qsA3-t0").diagram
    assert classify_serre(qs3, 1, 3) is None      # pairing 0
    assert classify_serre(qs3, 1, 2) == "Serre1"


@pytest.mark.parametrize("corrupt", [None, "drop_const"])
@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_renamed_b_image_matches_built_image(inst, corrupt):
    """The checker builds each node's B image once, in u, and renames it;
    every renamed image is the one built in that variable, term by term
    and in the same order."""
    checker = RelationChecker(inst, corrupt=corrupt)
    for i in inst.diagram.nodes():
        for var in ("u", "v", "u1", "u2"):
            got = checker.B(i, var)
            want = build_B_image(inst, i, var=var, corrupt=corrupt)
            assert list(got.terms) == list(want.terms)
            for (pins, coeff, dmon), (wpins, wcoeff, wdmon) in zip(
                    got.items(), want.items(), strict=True):
                assert pins == wpins and dmon == wdmon
                assert coeff.equals(wcoeff)
                assert repr(coeff) == repr(wcoeff)


def test_case_enumeration_covers_all_pairs():
    inst = catalog_by_name("qsA4")
    cases = RelationChecker(inst).cases()
    d = inst.diagram
    n = d.rank
    bb = [c for c in cases if c[0] in BB_KINDS]
    assert len(bb) == n * n
    hb = [c for c in cases if c[0] == "HB"]
    assert len(hb) == n * n
    assert ("HH", ()) in cases
    assert sum(1 for c in cases if c[0] == "DEG") == n


def test_full_run_split_rank1():
    rep = RelationChecker(catalog_by_name("sA1-v1-t0")).run()
    assert rep.ok()
    names = {r.name if r.pair else r.kind for r in rep.results}
    assert {"HH", "DEG[1]", "HB[1,1]", "BB2[1,1]"} <= names


def test_full_run_split_rank1_theta():
    assert RelationChecker(catalog_by_name("sA1-v1-t1")).run().ok()


def test_full_run_quasisplit_rank2():
    rep = RelationChecker(catalog_by_name("qsA2-v11")).run()
    assert rep.ok()
    kinds = {r.kind for r in rep.results}
    assert {"BB3", "Serre3"} <= kinds


def test_serre2_on_split_rank2():
    rep = RelationChecker(catalog_by_name("sA2-v11-t00")).run(
        ["Serre2", "BB5"])
    assert rep.ok()
    assert {r.kind for r in rep.results} == {"Serre2", "BB5"}


def test_bb1_conventions():
    inst = catalog_by_name("qsA3-t0")
    assert RelationChecker(inst, "taui").run(["BB1"]).ok()
    rep = RelationChecker(inst, "i").run(["BB1"])
    assert not rep.ok()
    assert all("Cartan currents differ" in r.detail for r in rep.failed())


@pytest.mark.parametrize("name,count", [
    ("sA1-v1-t0", 0), ("sA1-v1-t1", 4), ("sA2-v11-t10", 16),
    ("sA1-v2-t1", 16),
])
def test_chi_exchange_suite(name, count):
    res = chi_exchange_suite(catalog_by_name(name))
    assert len(res) == count
    assert all(r.status == "pass" for r in res)


@pytest.mark.parametrize("name,count", [
    ("qsA2-v11", 6), ("qsA4", 6), ("qsA3-t0", 0),
])
def test_merged_chi_suite(name, count):
    res = merged_chi_suite(catalog_by_name(name))
    assert len(res) == count
    assert all(r.status == "pass" for r in res)


def test_identity_suite_green():
    res = identity_suite()
    assert all(r.status == "pass" for r in res)
    assert len(res) == 13


@pytest.mark.parametrize("name,corrupt,expect", [
    ("sA1-v1-t1", "drop_kappa", "BB2[1,1]"),
    ("qsA2-v11", "flip_wp", "BB3[1,2]"),
    ("sA1-v1-t1", "drop_const", "BB2[1,1]"),
])
def test_negative_controls(name, corrupt, expect):
    """Each deliberate corruption breaks at least one relation, with the
    discrepancy localized to explicit support points."""
    rep = RelationChecker(catalog_by_name(name), corrupt=corrupt).run(
        ["BB2", "BB3"])
    bad = rep.failed()
    assert expect in {r.name for r in bad}
    for r in bad:
        assert 1 <= len(r.failures)
        for pins, dmon, cl, cr in r.failures:
            assert pins            # pinned support point identified


def test_corrupt_none_matches_clean():
    clean = RelationChecker(catalog_by_name("sA1-v1-t1")).run(["BB2"])
    assert clean.ok()
