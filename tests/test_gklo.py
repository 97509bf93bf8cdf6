import dataclasses

import pytest

from iqgklo.cli import instance_from_description
from iqgklo.delta import Distribution, canonicalize_compare
from iqgklo.errors import DegreeMismatch, WrongCase
from iqgklo.gklo import (
    _eval_prod, build_B_image, build_chi, build_kappa, build_W, build_WW,
    build_WWir, build_Xi, build_Z, build_ZZ, extend_a2n, extended_chi,
    extended_w, leading_coefficient_K, neighbors_in, neighbors_out,
    one_minus_q2, zeta,
)
from iqgklo.satake import build_catalog, catalog_by_name
from iqgklo.scalars import GR_I, DMonomial, Monomial, Scalar
from iqgklo.torus import TorusElement, check_admissible

CATALOG = build_catalog()


def wmon(i, r, e=1):
    """Extended coordinate: index 0 denotes the constant-term slot q."""
    return Monomial.q_int(e) if r == 0 else Monomial.w(i, r, e)


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_xi_inversion_symmetry(inst):
    for i in inst.diagram.nodes():
        ti = inst.diagram.t(i)
        assert build_Xi(inst, i).invert_arg().equals(build_Xi(inst, ti))


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_block_inversion_symmetry(inst):
    for i in inst.diagram.nodes():
        ti = inst.diagram.t(i)
        assert build_WW(inst, i, "u").invert_arg().equals(
            build_WW(inst, ti, "u"))
        assert build_ZZ(inst, i, "u").invert_arg().equals(
            build_ZZ(inst, ti, "u"))


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_b_image_term_count(inst):
    for i in inst.diagram.nodes():
        ti = inst.diagram.t(i)
        n = len(list(build_B_image(inst, i).items()))
        if ti == i:
            assert n == 2 * inst.w_count(i) + inst.th(i)
        else:
            assert n == inst.w_count(i) + inst.w_count(ti)


def _reference_fixed_chi(inst, i):
    """The closed block formulas of a fixed node, arguments substituted,
    written apart from the block table that builds the B-image."""
    d = inst.diagram
    out = {}
    if inst.th(i):
        num = [build_Z(inst, i, "u")]
        num += [build_W(inst, j, "u") for j in d.neighbors(i)]
        c0 = Scalar.const(GR_I) * zeta(inst, i) \
            * _eval_prod(num, Monomial.one()) \
            / ((Scalar.one() + Scalar.q_int(1))
               * build_WW(inst, i, "u").evaluate(Monomial.q_int(1)))
        out[("+", 0)] = (Monomial.one(), TorusElement.from_scalar(c0))
    for r in range(1, inst.w_count(i) + 1):
        wr = Monomial.w(i, r)
        a = wr * Monomial.q_int(-1)
        val = (zeta(inst, i) / one_minus_q2()) \
            * build_Z(inst, i, "u").evaluate(a) \
            / build_WWir(inst, i, r, "u").evaluate(wr)
        for j in neighbors_in(inst, i):
            val = val * build_WW(inst, j, "u").evaluate(a)
        for j in neighbors_out(inst, i):
            if d.t(j) == j:
                val = val * build_W(inst, j, "u").evaluate(a.inverse())
        out[("+", r)] = (a, TorusElement.monomial(val,
                                                  DMonomial.unit(i, r, -1)))

        b = (wr * Monomial.q_int(1)).inverse()
        val = (Scalar.q_int(1) * zeta(inst, i) / one_minus_q2()) \
            * build_Z(inst, i, "u").evaluate(b) \
            / build_WWir(inst, i, r, "u").evaluate(wr)
        if inst.th(i):
            val = val * build_kappa("u").evaluate(b.inverse())
        for j in neighbors_out(inst, i):
            if d.t(j) == j:
                val = val * build_W(inst, j, "u").evaluate(b.inverse())
            else:
                val = val * build_WW(inst, j, "u").evaluate(b.inverse())
        out[("-", r)] = (b, TorusElement.monomial(val, DMonomial.unit(i, r)))
    return out


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_chi_reassembly(inst):
    """The closed-form blocks, delta-assembled, rebuild the B-image, and
    they are the blocks build_chi reads off the block table."""
    fixed = [i for i in inst.diagram.nodes() if inst.diagram.t(i) == i]
    for i in inst.diagram.nodes():
        chi = build_chi(inst, i)
        ref = _reference_fixed_chi(inst, i) if i in fixed else chi
        asm = Distribution.zero()
        for (_, _), (pin, te) in ref.items():
            for dmon, coeff in te.terms.items():
                asm.add_term({"u": pin}, coeff, dmon)
        assert canonicalize_compare(build_B_image(inst, i), asm) == []
        assert set(ref) == set(chi)
        for key, (pin, te) in ref.items():
            assert chi[key][0] == pin and chi[key][1].equals(te), (i, key)


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_b_image_coefficients_admissible(inst):
    for i in inst.diagram.nodes():
        for _, coeff, dmon in build_B_image(inst, i).items():
            check_admissible(TorusElement.monomial(coeff, dmon))


# Shifted instances, the paper's subject, which the all-shift-0 catalog
# lacks: the five inline descriptions that the check benchmark runs.
SHIFTED = {
    "A1-f3-s1": {"type": "A", "rank": 1, "framing": [3], "shift": [1]},
    "A1-f0-s-2": {"type": "A", "rank": 1, "framing": [0], "shift": [-2]},
    "A1-t1-f2-s-2": {"type": "A", "rank": 1, "framing": [2], "shift": [-2],
                     "theta": [1]},
    "A2-f21-s10": {"type": "A", "rank": 2, "framing": [2, 1],
                   "shift": [1, 0]},
    "qsA3-f111-s010": {"type": "A", "rank": 3, "tau": [[1, 3]],
                       "framing": [1, 1, 1], "shift": [0, 1, 0]},
}


def test_shifted_b_image_coefficients_admissible():
    seen = 0
    for desc in SHIFTED.values():
        inst = instance_from_description(desc)
        assert any(inst.shift)
        for i in inst.diagram.nodes():
            for _, coeff, dmon in build_B_image(inst, i).items():
                assert coeff.den_factors()
                check_admissible(TorusElement.monomial(coeff, dmon))
                seen += 1
    assert seen == 19


def _chi_swap_holds(chis, i, j, k1, k2, cij, rhs_second_sign=None):
    """(w_{i,r}^e1 - q^c w_{j,s}^e2) x_{i,r} x_{j,s}
       == (q^c w_{i,r}^e1 - w_{j,s}^e2) x_{j,s} x_{i,r}."""
    (s1, r), (s2, s) = k1, k2
    e1 = 1 if s1 == "+" else -1
    e2 = 1 if s2 == "+" else -1
    c1 = chis[i][k1][1]
    c2 = chis[j][(rhs_second_sign or s2, s)][1]
    c2l = chis[i][k2][1] if i == j else chis[j][k2][1]
    wr = Scalar.from_mono(wmon(i, r, e1))
    ws = Scalar.from_mono(wmon(j, s, e2))
    lhs = (c1 * c2l).scale(wr - Scalar.q_int(cij) * ws)
    rhs = (c2 * c1).scale(Scalar.q_int(cij) * wr - ws)
    return lhs.equals(rhs)


def test_chi_commutation_same_node_with_constant_slot():
    inst = catalog_by_name("sA1-v1-t1")
    chis = {1: build_chi(inst, 1)}
    keys = sorted(chis[1])
    for k1 in keys:
        for k2 in keys:
            if k1[1] == k2[1]:
                continue
            assert _chi_swap_holds(chis, 1, 1, k1, k2, 2), (k1, k2)


def test_chi_commutation_same_node_two_rows():
    inst = catalog_by_name("sA1-v2-t0")
    chis = {1: build_chi(inst, 1)}
    assert _chi_swap_holds(chis, 1, 1, ("+", 1), ("+", 2), 2)
    assert _chi_swap_holds(chis, 1, 1, ("+", 1), ("-", 2), 2)


def test_chi_commutation_cross_node():
    inst = catalog_by_name("sA2-v11-t00")
    chis = {i: build_chi(inst, i) for i in (1, 2)}
    for (i, j) in [(1, 2), (2, 1)]:
        for k1 in chis[i]:
            for k2 in chis[j]:
                assert _chi_swap_holds(chis, i, j, k1, k2, -1), (i, j, k1, k2)


def test_chi_commutation_cross_node_mixed_sign_needs_matching_rhs():
    # regression anchor: with the right-hand operator pair taken at the
    # first factor's sign instead, the mixed-sign exchange law fails
    inst = catalog_by_name("sA2-v11-t00")
    chis = {i: build_chi(inst, i) for i in (1, 2)}
    assert not _chi_swap_holds(chis, 1, 2, ("+", 1), ("-", 1), -1,
                               rhs_second_sign="+")


def test_merged_index_identities():
    inst = catalog_by_name("qsA2-v11")
    i, j = 1, 2
    n, rp, _ = extend_a2n(inst, i)
    ci, cj = extended_chi(inst, i), extended_chi(inst, j)
    wm = lambda k, r: Scalar.from_mono(extended_w(inst, k, r))
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            if r == s:
                continue
            for k, ck in [(i, ci), (j, cj)]:
                lhs = (ck[r][1] * ck[s][1]).scale(
                    wm(k, r) - Scalar.q_int(2) * wm(k, s))
                rhs = (ck[s][1] * ck[r][1]).scale(
                    Scalar.q_int(2) * wm(k, r) - wm(k, s))
                assert lhs.equals(rhs), (k, r, s)
            sp = rp(s)
            lhs = (ci[r][1] * cj[sp][1]).scale(
                wm(i, r) - Scalar.q_int(-1) * wm(j, sp))
            rhs = (cj[sp][1] * ci[r][1]).scale(
                Scalar.q_int(-1) * wm(i, r) - wm(j, sp))
            assert lhs.equals(rhs), (r, sp)


def test_extend_requires_paired_node():
    inst = catalog_by_name("sA1-v1-t0")
    with pytest.raises(WrongCase):
        extend_a2n(inst, 1)
    qs = catalog_by_name("qsA3-t0")   # moved pair exists but is not adjacent
    with pytest.raises(WrongCase):
        extend_a2n(qs, 1)


def test_extend_resolver_roundtrip():
    inst = catalog_by_name("qsA2-v11")
    n, rp, resolve = extend_a2n(inst, 1)
    assert n == 2
    assert resolve(1, 1) == (1, 1, 1)
    assert resolve(1, 2) == (2, 1, -1)
    assert extended_w(inst, 1, 2) == Monomial.w(2, 1, -1)
    with pytest.raises(WrongCase):
        resolve(1, 3)


def test_leading_degree_matches_shift():
    for inst in CATALOG:
        for i in inst.diagram.nodes():
            leading_coefficient_K(inst, i)     # raises on mismatch


def test_leading_degree_mismatch_detected():
    inst = catalog_by_name("sA1-v1-t0")
    bad = dataclasses.replace(inst, mult=(2,))
    with pytest.raises(DegreeMismatch):
        leading_coefficient_K(bad, 1)


def test_corruptions_change_images():
    inst = catalog_by_name("sA1-v1-t1")
    assert not build_Xi(inst, 1).equals(build_Xi(inst, 1, corrupt="drop_kappa"))
    full = build_B_image(inst, 1)
    cut = build_B_image(inst, 1, corrupt="drop_const")
    assert len(list(full.items())) == len(list(cut.items())) + 1
    qs = catalog_by_name("qsA2-v11")
    assert not build_Xi(qs, 1).equals(build_Xi(qs, 1, corrupt="flip_wp"))
