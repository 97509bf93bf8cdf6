import dataclasses

import pytest

from iqgklo.relations import (
    ALL_KINDS, BB_KINDS, RelationChecker, chi_exchange_suite, classify_bb,
    classify_serre, identity_suite, merged_chi_suite,
)
from iqgklo import gklo, relations
from iqgklo.delta import _pins_key, canonicalize_compare, check_fully_pinned
from iqgklo.gklo import build_B_image, build_Xi, leading_coefficient_K
from iqgklo.satake import build_catalog, catalog_by_name
from iqgklo.scalars import Scalar
from test_delta import _assert_same_terms

CATALOG = build_catalog()
CORRUPTIONS = (None, "drop_const", "flip_wp", "drop_kappa")


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


def test_wrong_multiplicities_fail_hb_and_deg():
    """Multiplicities that the coweights do not give break the Cartan
    currents: HB fails on every pair, each failure at a v pin, and DEG
    fails on the nodes whose top degree moved."""
    inst = dataclasses.replace(catalog_by_name("qsA2-v11"), mult=(1, 0))
    rep = RelationChecker(inst).run(["HB", "DEG"])
    assert {r.name: r.status for r in rep.results} == {
        "DEG[1]": "fail", "DEG[2]": "fail", "HB[1,1]": "fail",
        "HB[1,2]": "fail", "HB[2,1]": "fail", "HB[2,2]": "fail"}
    for r in rep.results:
        if r.kind == "HB":
            assert r.failures
            assert all(set(pins) == {"v"} for pins, *_ in r.failures)
        else:
            assert r.detail.startswith("top degree")
    inst = dataclasses.replace(catalog_by_name("sA1-v1-t0"), mult=(2,))
    rep = RelationChecker(inst).run(["HB", "DEG"])
    assert {r.name: r.status for r in rep.results} == {
        "DEG[1]": "fail", "HB[1,1]": "pass"}


def test_corrupt_none_matches_clean():
    clean = RelationChecker(catalog_by_name("sA1-v1-t1")).run(["BB2"])
    assert clean.ok()


# --- the shared products and the pinned prefactors against their old forms -


def _assert_same_reprs(got, want):
    _assert_same_terms(got, want)
    for (_, coeff), (_, want_coeff) in zip(got.terms.values(),
                                           want.terms.values()):
        assert repr(coeff) == repr(want_coeff)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_renamed_product_matches_direct_product(inst, corrupt):
    """Each ordered product is built once, in (u, v); every other naming
    the checker reads is that product renamed, term by term and in the
    order of the product built directly in those variables."""
    checker = RelationChecker(inst, corrupt=corrupt)
    nodes = inst.diagram.nodes()
    for i in nodes:
        for j in nodes:
            _assert_same_reprs(checker.prod(i, j, "v", "u"),
                               checker.B(i, "v") * checker.B(j, "u"))
            # the Serre namings; equal factored forms print the same bytes
            for x, y in (("u2", "v"), ("v", "u2")):
                _assert_same_terms(checker.prod(i, j, x, y),
                                   checker.B(i, x) * checker.B(j, y))
    assert len(checker._prod) == len(nodes) ** 2


def _multiply_then_substitute(checker, i, j):
    """(u - q^c v)BuBv + (v - q^c u)BvBu with the prefactor multiplied
    into each whole coefficient and the pins substituted after."""
    c = checker.inst.diagram.c(i, j)
    u, v, qc = Scalar.var("u"), Scalar.var("v"), Scalar.q_int(c)
    Bu, Bv = checker.B(i, "u"), checker.B(j, "v")
    return (Bu * Bv).map_coeff(lambda p, cf: (u - qc * v) * cf) \
        + (Bv * Bu).map_coeff(lambda p, cf: (v - qc * u) * cf)


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_exchange_lhs_matches_multiply_then_substitute(inst, corrupt):
    checker = RelationChecker(inst, corrupt=corrupt)
    seen = 0
    for kind, (i, j) in [c for c in checker.cases()
                         if c[0] in ("BB2", "BB3", "BB5")]:
        lhs, _ = checker.eval_pair(kind, i, j)
        _assert_same_reprs(lhs, _multiply_then_substitute(checker, i, j))
        seen += 1
    assert seen


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("name", ["sA1-v1-t1", "qsA2-v11", "qsA3-t1"])
def test_deg_reads_the_cached_cartan_current(monkeypatch, name, corrupt):
    """DEG and HB share one Xi_i per node, and DEG reports the leading
    coefficient of the current it was handed."""
    inst = catalog_by_name(name)
    built = []

    def counting_build_Xi(*args, **kwargs):
        built.append(args[1])
        return build_Xi(*args, **kwargs)
    monkeypatch.setattr(relations, "build_Xi", counting_build_Xi)
    monkeypatch.setattr(gklo, "build_Xi", counting_build_Xi)
    report = RelationChecker(inst, corrupt=corrupt).run(["DEG", "HB"])
    assert sorted(built) == list(inst.diagram.nodes())
    monkeypatch.undo()
    for r in report.results:
        if r.kind != "DEG":
            continue
        i = r.pair[0]
        coeff = leading_coefficient_K(
            inst, i, build_Xi(inst, i, corrupt=corrupt))
        assert r.status == "pass"
        assert r.detail == f"leading coefficient {coeff!r}"


# --- the discrepancy order against sorting every group ---------------------


def _compare_sorting_every_group(x, y):
    """canonicalize_compare as it was: every group sorted by the report
    key first, then compared in that order."""
    check_fully_pinned(x)
    check_fully_pinned(y)
    xs = {(_pins_key(p), d): (p, c) for p, c, d in x.items()}
    ys = {(_pins_key(p), d): (p, c) for p, c, d in y.items()}
    both = {**ys, **xs}

    def report_order(key):
        p = both[key][0]
        return repr((tuple((v, p[v].exps) for v, _ in key[0]), key[1]))

    bad = []
    for key in sorted(both, key=report_order):
        p = both[key][0]
        cx = xs[key][1] if key in xs else Scalar.zero()
        cy = ys[key][1] if key in ys else Scalar.zero()
        if not cx.equals(cy):
            bad.append((p, key[1], cx, cy))
    return bad


@pytest.mark.parametrize("corrupt", ["drop_const", "flip_wp", "drop_kappa"])
def test_discrepancies_in_the_order_of_sorting_every_group(monkeypatch,
                                                           corrupt):
    lists = []

    def compare(x, y):
        got = canonicalize_compare(x, y)
        lists.append((got, _compare_sorting_every_group(x, y)))
        return got
    monkeypatch.setattr(relations, "canonicalize_compare", compare)
    for inst in CATALOG:
        RelationChecker(inst, corrupt=corrupt).run()
    # some relation has several discrepancies, so their order is tested
    assert max(len(got) for got, _ in lists) > 1
    for got, want in lists:
        assert len(got) == len(want)
        for (p, d, cx, cy), (wp, wd, wx, wy) in zip(got, want):
            assert p is wp and d == wd and cx is wx and cy is wy
