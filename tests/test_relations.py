import pytest

from iqgklo.identities import identity_suite
from iqgklo.relations import (
    ALL_KINDS, BB_KINDS, CheckReport, CheckResult, RelationChecker,
    chi_exchange_suite, classify_bb, classify_serre, merged_chi_suite,
)
from iqgklo import gklo, relations
from iqgklo.cli import instance_from_description
from iqgklo.delta import (
    Distribution, _pins_key, canonicalize_compare, expand_by_residues,
    symmetrize,
)
from iqgklo.errors import NonSimplePole
from iqgklo.gklo import build_B_image, build_Xi, leading_coefficient_K
from iqgklo.satake import (
    build_catalog, catalog_by_name, make_instance, validate_diagram,
)
from iqgklo.scalars import DMonomial, Monomial, Scalar
from test_delta import _assert_same_terms
from test_gklo import SHIFTED, _term

CATALOG = build_catalog()
CORRUPTIONS = (None, "drop_const", "flip_wp", "drop_kappa")


def _B(checker, i, var):
    """The checker's B image of node i with its pins renamed to ``var``."""
    return checker.B(i).rename_spectral({"u": var})


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


@pytest.mark.parametrize("corrupt", CORRUPTIONS)
@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_every_term_is_a_torus_point(inst, corrupt):
    """Products, renamings, sums and negations do not check their terms:
    on every side the checker and the lemma suites compare, and on the
    products, sums, negations and symmetrizations of the B images, each
    term's pins and coefficient hold no spectral variable."""
    checker = RelationChecker(inst, corrupt=corrupt)
    results = checker.run().results \
        + chi_exchange_suite(inst) + merged_chi_suite(inst)
    dists = [side for r in results if r.sides for side in r.sides]
    nodes = inst.diagram.nodes()
    for i in nodes:
        b, bv = checker.B(i), _B(checker, i, "v")
        dists += [b, -b, b + bv, symmetrize(b * bv, "u", "v")]
        for j in nodes:
            p = checker.prod(i, j)
            q = checker.prod(j, i, "v", "u")
            dists += [p, q, p + q, p - q, -p,
                      symmetrize(checker.prod(i, j, "u1", "u2"), "u1", "u2")]
    terms = [term for d in dists for term in d.items()]
    assert len(terms) > len(dists)
    for pins, coeff, _ in terms:
        assert not any(M.has_spectral() for M in pins.values())
        assert not coeff.has_spectral()


@pytest.mark.parametrize("corrupt", [None, "drop_const"])
@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_renamed_b_image_matches_built_image(inst, corrupt):
    """The checker builds each node's B image once, in u, and the
    relations rename it; every renamed image is the built one with each
    term added again under the new pin name, term by term and in the same
    order."""
    checker = RelationChecker(inst, corrupt=corrupt)
    for i in inst.diagram.nodes():
        assert checker.B(i) is checker.B(i)
        for var in ("u", "v", "u1", "u2"):
            got = _B(checker, i, var)
            want = Distribution()
            for pins, coeff, dmon in build_B_image(
                    inst, i, corrupt=corrupt).items():
                want.add_term({var: pins["u"]}, coeff, dmon)
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


@pytest.mark.parametrize("name,count", [
    ("sA2-v11-t00", 2), ("sA2-v11-t10", 2), ("qsA3-t0", 3), ("qsA3-t1", 3),
])
def test_cartan_gamma_logged_once_per_node(name, count, monkeypatch):
    """Every BB1, BB2, BB3 and Serre2 right side on node i scales one
    residue expansion of node i's gamma, Xi_i(u) on a BB1 node and
    (u - 1/u) Xi_i(u) on every other: a full run expands and logs one
    gamma per node, and a Serre2-only run logs it on the node's first
    Serre2 case."""
    expanded = []

    def counted(gamma):
        expanded.append(gamma)
        return expand_by_residues(gamma)
    monkeypatch.setattr(relations, "expand_by_residues", counted)
    inst = catalog_by_name(name)
    d = inst.diagram
    full = RelationChecker(inst).run()
    assert full.ok()
    logged = [g for r in full.results for g, _ in r.gammas]
    assert len(logged) == count and expanded == logged
    for i, gamma in zip(d.nodes(), logged, strict=True):
        xi = build_Xi(inst, i)
        assert gamma.equals(xi if classify_bb(d, i, d.t(i)) == "BB1"
                            else gklo.times_x_minus_xinv(xi))
    expanded.clear()
    rep = RelationChecker(inst).run(["Serre2"])
    assert rep.ok()
    first = {}
    for r in rep.results:
        first.setdefault(r.pair[0], r.name)
    assert [len(r.gammas) for r in rep.results] == \
        [int(r.name in first.values()) for r in rep.results]
    assert len(expanded) == len(first) > 0


def test_aborted_cartan_gamma_is_logged_by_every_case_that_tried_it(
        monkeypatch):
    """An expansion that aborts is not kept: each case that needs the
    node's gamma tries it again and logs it without an expansion."""
    def aborts(gamma):
        raise NonSimplePole("forced double pole")
    monkeypatch.setattr(relations, "expand_by_residues", aborts)
    rep = RelationChecker(catalog_by_name("sA2-v11-t00")).run()
    tried = {r.name: [e for _, e in r.gammas] for r in rep.results
             if r.gammas}
    assert tried == {name: [None] for name in (
        "BB2[1,1]", "BB2[2,2]", "Serre2[1,2]", "Serre2[2,1]")}
    assert all(r.detail.startswith("aborted: ") for r in rep.failed())
    assert {r.name for r in rep.failed()} == set(tried)


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_bb_right_sides_match_their_scaled_gamma(inst):
    """Each BB1, BB2 and BB3 right side is, term by term, the residue
    expansion of its own scaled gamma with v pinned to 1/u: Xi_i(u) over
    q^2 - 1 on BB1, and (u - 1/u) Xi_i(u) over q^-1 - q on BB2 and over
    q^2 - 1 on BB3."""
    one, q = Scalar.one(), Scalar.q_int
    scaled = {
        "BB1": lambda xi: xi.scale(one / (q(2) - one)),
        "BB2": lambda xi: gklo.times_x_minus_xinv(xi).scale(
            one / (q(-1) - q(1))),
        "BB3": lambda xi: gklo.times_x_minus_xinv(xi).scale(
            one / (q(2) - one)),
    }
    results = RelationChecker(inst).run(list(scaled)).results
    assert results
    for r in results:
        want = Distribution()
        gamma = scaled[r.kind](build_Xi(inst, r.pair[0]))
        for a, coeff in expand_by_residues(gamma):
            want.add_term({"u": a, "v": a.inverse()}, coeff,
                          DMonomial.one())
        got = r.sides[1]
        assert list(got.terms) == list(want.terms)
        for (pins, coeff, _), (wpins, wcoeff, _) in zip(
                got.items(), want.items(), strict=True):
            assert pins == wpins
            assert coeff.equals(wcoeff) and repr(coeff) == repr(wcoeff)


def test_results_carry_their_sides_and_gammas(monkeypatch):
    """Over the catalog, with the third residue expansion of each run
    aborted: a result carries sides exactly when it compared them, and
    those are the sides of its verdict; the results' gammas, in order,
    are the expansions the run made, each with its expansion, or None at
    the one that aborted."""
    expanded = []

    def third_aborts(gamma):
        expanded.append(gamma)
        if len(expanded) == 3:
            raise NonSimplePole("forced double pole")
        return expand_by_residues(gamma)
    monkeypatch.setattr(relations, "expand_by_residues", third_aborts)
    seen = set()
    for inst in CATALOG:
        expanded.clear()
        results = RelationChecker(inst).run().results
        for r in results:
            if r.kind in ("HH", "HB", "DEG"):
                label = "not pairwise"
            elif r.detail.startswith("aborted: "):
                label = "aborted"
            else:
                label = "compared"
            seen.add(label)
            assert (r.sides is not None) == (label == "compared"), \
                (inst.name, r.name)
            if r.sides is not None:
                assert canonicalize_compare(*r.sides) == r.failures
        logged = [entry for r in results for entry in r.gammas]
        assert [g for g, _ in logged] == expanded
        assert [e is None for _, e in logged] == \
            [k == 2 for k in range(len(expanded))]
    assert seen == {"not pairwise", "aborted", "compared"}


def test_results_and_reports_own_their_lists():
    # each result and report starts from lists of its own, and a result
    # binds every keyword that the checker and the suites pass
    a, b = CheckResult("HH", (), "pass"), CheckResult("HH", (), "pass")
    a.failures.append(((), None, None, None))
    a.gammas.append((None, None))
    assert b.failures == [] and b.gammas == []
    assert (b.detail, b.seconds, b.sides) == ("", 0.0, None)
    r = CheckResult("BB2", (1, 1), "fail", failures=[((), None, None, None)],
                    detail="aborted: x", seconds=0.25, sides=("l", "r"))
    assert (r.name, r.failures, r.detail, r.seconds, r.sides, r.gammas) == (
        "BB2[1,1]", [((), None, None, None)], "aborted: x", 0.25, ("l", "r"),
        [])
    x, y = CheckReport("x"), CheckReport("y")
    x.results.extend([a, r])
    assert y.results == [] and x.failed() == [r] and not x.ok() and y.ok()


def test_bb1_compares_sides_where_the_currents_differ():
    """On qsA3-t0, tau swaps nodes 1 and 3 and their Cartan currents
    differ; every BB1 case still compares its two sides, and passes."""
    checker = RelationChecker(catalog_by_name("qsA3-t0"))
    assert not checker.Xi(1).equals(checker.Xi(3))
    rep = checker.run(["BB1"])
    assert rep.results and rep.ok()
    assert all(r.sides is not None for r in rep.results)


def test_corrupt_is_keyword_only():
    # a stray positional argument must not run silently as a corruption
    with pytest.raises(TypeError):
        RelationChecker(catalog_by_name("qsA3-t0"), "taui")


def test_serre2_prefactor_pole_aborts_the_check():
    """A pin b of B_j(v) at which v/((u1-qv)(u2-qv)) has a pole, b = a/q
    for a residue pin a, ends the case as an aborted fail."""
    inst = catalog_by_name("sA2-v11-t00")
    gamma = gklo.times_x_minus_xinv(build_Xi(inst, 1))
    (a, _), *_ = expand_by_residues(gamma)
    checker = RelationChecker(inst)
    checker._b[2] = Distribution.single({"u": a * Monomial.q_int(-1)},
                                        Scalar.one())
    r = checker.check_pair("Serre2", 1, 2)
    assert r.status == "fail"
    assert r.detail.startswith("aborted: v/((u1-qv)(u2-qv)) has a pole")


@pytest.mark.parametrize("name,count", [
    ("sA1-v1-t0", 0), ("sA1-v1-t1", 2), ("sA2-v11-t10", 8),
    ("sA1-v2-t1", 8),
])
def test_chi_exchange_suite(name, count):
    res = chi_exchange_suite(catalog_by_name(name))
    assert len(res) == count
    assert all(r.status == "pass" for r in res)


@pytest.mark.parametrize("name,count", [
    ("qsA2-v11", 4), ("qsA4", 4), ("qsA3-t0", 0),
])
def test_merged_chi_suite(name, count):
    res = merged_chi_suite(catalog_by_name(name))
    assert len(res) == count
    assert all(r.status == "pass" for r in res)


def _block(inst, i, dmon):
    """(W, operator) of the term of B_i whose shift part is dmon, the
    coordinate W read off the shift part, not off the pin: w_{k,r}^(-e)
    for d_{k,r}^e, and q for the shift-free marked block."""
    _, op = _term(inst, i, dmon)
    if dmon.is_one():
        return Scalar.q_int(1), op
    (((k, r), e),) = dmon.exps
    return Scalar.from_mono(Monomial.w(k, r, -e)), op


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_exchange_suites_swapped_law_negates_both_sides(inst):
    """The suites check one order of each block pair: with x and y
    swapped, each side of the law is the negated other side."""
    for r in chi_exchange_suite(inst) + merged_chi_suite(inst):
        (i, j, dx, dy), (lhs, rhs) = r.pair, r.sides
        (wx, x), (wy, y) = _block(inst, i, dx), _block(inst, j, dy)
        qc = Scalar.q_int(inst.diagram.c(i, j))
        assert canonicalize_compare((y * x).scale(wy - qc * wx), -rhs) == []
        assert canonicalize_compare((x * y).scale(qc * wy - wx), -lhs) == []


def _cartan(rank, edges):
    c = [[2 if a == b else 0 for b in range(rank)] for a in range(rank)]
    for a, b in edges:
        c[a - 1][b - 1] = c[b - 1][a - 1] = -1
    return c


# theta-marked quasi-split D4 (tau swaps legs 3 and 4 of the branch node
# 2) and E6 (chain 1-2-3-4-5 with node 6 on node 3, tau = (1 5)(2 4))
D4 = validate_diagram(_cartan(4, [(1, 2), (2, 3), (2, 4)]), (1, 2, 4, 3))
E6 = validate_diagram(_cartan(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)]),
                      (5, 4, 3, 2, 1, 6))
LEMMA_INSTANCES = {name: instance_from_description(desc)
                   for name, desc in SHIFTED.items()}
LEMMA_INSTANCES["qsD4-t1000"] = make_instance(
    "qsD4-t1000", D4, (0, 1, 0, 0), (0,) * 4, (1, 0, 0, 0))
LEMMA_INSTANCES["qsE6-t6"] = make_instance(
    "qsE6-t6", E6, (0,) * 5 + (1,), (0,) * 6, (0,) * 5 + (1,))


@pytest.mark.parametrize("name,count", [
    ("A1-f3-s1", 0), ("A1-f0-s-2", 0), ("A1-t1-f2-s-2", 8),
    ("A2-f21-s10", 4), ("qsA3-f111-s010", 0), ("qsD4-t1000", 18),
    ("qsE6-t6", 50),
])
def test_lemma_suites_shifted_and_d_e(name, count):
    inst = LEMMA_INSTANCES[name]
    res = chi_exchange_suite(inst) + merged_chi_suite(inst)
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
    inst = catalog_by_name("qsA2-v11")._replace(mult=(1, 0))
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
    inst = catalog_by_name("sA1-v1-t0")._replace(mult=(2,))
    rep = RelationChecker(inst).run(["HB", "DEG"])
    assert {r.name: r.status for r in rep.results} == {
        "DEG[1]": "fail", "HB[1,1]": "pass"}


def _reference_hb_failures(checker, i, j):
    """HB's failures by the scalar cross-multiplication: both sides
    expanded into scalars in u for every block of B_j."""
    d = checker.inst.diagram
    cij, ctij = d.c(i, j), d.c(d.t(i), j)
    xi = checker.Xi(i)
    lhs = xi.to_scalar()
    q = Scalar.q_int
    u, uinv = Scalar.var("u"), Scalar.var("u", -1)
    failures = []
    for pins, _, dmon in checker.B(j).items():
        b = Scalar.from_mono(pins["u"])
        ratio = ((q(cij) * u - b) * (q(ctij) * uinv - b)) \
            / ((u - q(cij) * b) * (uinv - q(ctij) * b))
        rhs = ratio * xi.conjugate(dmon).to_scalar()
        if not lhs.equals(rhs):
            failures.append(({"v": pins["u"]}, dmon, repr(lhs), repr(rhs)))
    return failures


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_hb_normal_form_matches_scalar_reference(inst):
    """HB's verdicts and failure entries, read off the factored normal
    forms, are those of the scalar cross-multiplication, on the images and
    on a negative control that multiplies each Xi_i by (1 - w_{i,1} u):
    a block that shifts w_{i,1} moves that factor, and HB fails there."""
    failed = 0
    for corrupt in (False, True):
        checker = RelationChecker(inst)
        if corrupt:
            for i in inst.diagram.nodes():
                checker._xi[i] = build_Xi(inst, i).times_linear(
                    Monomial.w(i, 1))
        for r in checker.run(["HB"]).results:
            expect = _reference_hb_failures(checker, *r.pair)
            assert [(pins, dmon, repr(cl), repr(cr))
                    for pins, dmon, cl, cr in r.failures] == expect
            assert r.status == ("fail" if expect else "pass")
            assert not (expect and not corrupt)
            failed += bool(expect)
    assert failed


def test_corrupt_none_matches_clean():
    clean = RelationChecker(catalog_by_name("sA1-v1-t1")).run(["BB2"])
    assert clean.ok()


# --- the shared products and the pinned prefactors against their old forms -


def _assert_same_reprs(got, want):
    _assert_same_terms(got, want)
    for coeff, want_coeff in zip(got.terms.values(), want.terms.values()):
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
                               _B(checker, i, "v") * checker.B(j))
            # the Serre namings; equal factored forms print the same bytes
            for x, y in (("u2", "v"), ("v", "u2")):
                _assert_same_terms(checker.prod(i, j, x, y),
                                   _B(checker, i, x) * _B(checker, j, y))
    assert len(checker._prod) == len(nodes) ** 2


def _multiply_then_substitute(checker, i, j):
    """(u - q^c v)BuBv + (v - q^c u)BvBu with the prefactor multiplied
    into each whole coefficient and the pins substituted after."""
    c = checker.inst.diagram.c(i, j)
    u, v, qc = Scalar.var("u"), Scalar.var("v"), Scalar.q_int(c)
    Bu, Bv = checker.B(i), _B(checker, j, "v")
    return (Bu * Bv).map_coeff(
        lambda p, cf: ((u - qc * v) * cf).substitute(p)) \
        + (Bv * Bu).map_coeff(
            lambda p, cf: ((v - qc * u) * cf).substitute(p))


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
            assert p == wp and d == wd and cx is wx and cy is wy
