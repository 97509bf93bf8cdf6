import pytest

from iqgklo.cli import instance_from_description
from iqgklo.delta import Distribution, canonicalize_compare
from iqgklo.errors import DegreeMismatch
from iqgklo.gklo import (
    _eval_prod, build_B_image, build_kappa, build_W, build_WW,
    build_Xi, build_Z, build_ZZ, leading_coefficient_K, neighbors_in,
    neighbors_out, one_minus_q2, w_half_pref, zeta,
)
from iqgklo.satake import build_catalog, catalog_by_name
from iqgklo.scalars import GR_I, DMonomial, Monomial, Scalar
from iqgklo.torus import TorusElement, admissible

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
        assert build_WW(inst, i).invert_arg().equals(
            build_WW(inst, ti))
        assert build_ZZ(inst, i).invert_arg().equals(
            build_ZZ(inst, ti))


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_b_image_term_count(inst):
    for i in inst.diagram.nodes():
        ti = inst.diagram.t(i)
        n = len(list(build_B_image(inst, i).items()))
        if ti == i:
            assert n == 2 * inst.w_count(i) + inst.th(i)
        else:
            assert n == inst.w_count(i) + inst.w_count(ti)


def _ww_without(inst, i, r):
    """W_i(u) W_{tau i}(1/u) with the r-th linear factor of W_i left out,
    built factor by factor."""
    ti = inst.diagram.t(i)
    fc = build_W(inst, ti).invert_arg() \
        .scale(w_half_pref(ti, range(1, inst.w_count(i) + 1)))
    for s in range(1, inst.w_count(i) + 1):
        if s != r:
            fc = fc.times_linear_inv_arg(Monomial.w(i, s))
    return fc


def _reference_fixed_chi(inst, i):
    """The closed block formulas of a fixed node, arguments substituted,
    written apart from the block table that builds the B-image."""
    d = inst.diagram
    out = {}
    if inst.th(i):
        num = [build_Z(inst, i)]
        num += [build_W(inst, j) for j in d.neighbors(i)]
        c0 = Scalar.const(GR_I) * zeta(inst, i) \
            * _eval_prod(num, Monomial.one()) \
            / ((Scalar.one() + Scalar.q_int(1))
               * build_WW(inst, i).evaluate(Monomial.q_int(1)))
        out[("+", 0)] = (Monomial.one(), TorusElement.monomial(
            c0, DMonomial.one()))
    for r in range(1, inst.w_count(i) + 1):
        wr = Monomial.w(i, r)
        a = wr * Monomial.q_int(-1)
        val = (zeta(inst, i) / one_minus_q2()) \
            * build_Z(inst, i).evaluate(a) \
            / _ww_without(inst, i, r).evaluate(wr)
        for j in neighbors_in(inst, i):
            val = val * build_WW(inst, j).evaluate(a)
        for j in neighbors_out(inst, i):
            if d.t(j) == j:
                val = val * build_W(inst, j).evaluate(a.inverse())
        out[("+", r)] = (a, TorusElement.monomial(val,
                                                  DMonomial.unit(i, r, -1)))

        b = (wr * Monomial.q_int(1)).inverse()
        val = (Scalar.q_int(1) * zeta(inst, i) / one_minus_q2()) \
            * build_Z(inst, i).evaluate(b) \
            / _ww_without(inst, i, r).evaluate(wr)
        if inst.th(i):
            val = val * build_kappa().evaluate(b.inverse())
        for j in neighbors_out(inst, i):
            if d.t(j) == j:
                val = val * build_W(inst, j).evaluate(b.inverse())
            else:
                val = val * build_WW(inst, j).evaluate(b.inverse())
        out[("-", r)] = (b, TorusElement.monomial(val, DMonomial.unit(i, r)))
    return out


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_chi_reassembly(inst):
    """On each fixed node, the closed-form blocks, delta-assembled, rebuild
    the B-image, each block as the term with its shift part and pin."""
    d = inst.diagram
    for i in d.nodes():
        if d.t(i) != i:
            continue
        ref = _reference_fixed_chi(inst, i)
        image = build_B_image(inst, i)
        terms = {dmon: (pins["u"], coeff)
                 for pins, coeff, dmon in image.items()}
        asm = Distribution.zero()
        for key, (pin, te) in ref.items():
            [(_, coeff, dmon)] = te.items()
            asm.add_term({"u": pin}, coeff, dmon)
            assert terms[dmon][0] == pin and terms[dmon][1].equals(coeff), \
                (i, key)
        assert canonicalize_compare(image, asm) == []
        assert len(terms) == len(ref)


@pytest.mark.parametrize("inst", CATALOG, ids=lambda c: c.name)
def test_b_image_coefficients_admissible(inst):
    for i in inst.diagram.nodes():
        for _, coeff, _ in build_B_image(inst, i).items():
            assert all(map(admissible, coeff.den_factors()))


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
            for _, coeff, _ in build_B_image(inst, i).items():
                assert coeff.den_factors()
                assert all(map(admissible, coeff.den_factors()))
                seen += 1
    assert seen == 19


def _term(inst, i, dmon):
    """(pin, operator) of the term of B_i whose shift part is dmon."""
    [term] = [(pins["u"], TorusElement.monomial(coeff, d))
              for pins, coeff, d in build_B_image(inst, i).items()
              if d == dmon]
    return term


def _fixed_block(inst, i, sign, r):
    """Block (sign, r) of a fixed node as (coordinate, operator): it shifts
    d_{i,r}^{-1} ("+"), d_{i,r} ("-") or nothing (r = 0), and q times its
    pin is the coordinate wmon(i, r, e)."""
    e = 1 if sign == "+" else -1
    pin, op = _term(inst, i, DMonomial.one() if r == 0
                    else DMonomial.unit(i, r, -e))
    assert Monomial.q_int(1) * pin == wmon(i, r, e)
    return Scalar.from_mono(wmon(i, r, e)), op


def _fixed_keys(inst, i):
    return [("+", 0)] * inst.th(i) + [
        (sign, r) for r in range(1, inst.w_count(i) + 1) for sign in "+-"]


def _chi_swap_holds(inst, i, j, k1, k2, cij, rhs_second_sign=None):
    """(w_{i,r}^e1 - q^c w_{j,s}^e2) x_{i,r} x_{j,s}
       == (q^c w_{i,r}^e1 - w_{j,s}^e2) x_{j,s} x_{i,r}."""
    (s1, r), (s2, s) = k1, k2
    wr, c1 = _fixed_block(inst, i, s1, r)
    ws, c2l = _fixed_block(inst, j, s2, s)
    c2 = _fixed_block(inst, j, rhs_second_sign or s2, s)[1]
    lhs = (c1 * c2l).scale(wr - Scalar.q_int(cij) * ws)
    rhs = (c2 * c1).scale(Scalar.q_int(cij) * wr - ws)
    return lhs.equals(rhs)


def test_chi_commutation_same_node_with_constant_slot():
    inst = catalog_by_name("sA1-v1-t1")
    keys = _fixed_keys(inst, 1)
    for k1 in keys:
        for k2 in keys:
            if k1[1] == k2[1]:
                continue
            assert _chi_swap_holds(inst, 1, 1, k1, k2, 2), (k1, k2)


def test_chi_commutation_same_node_two_rows():
    inst = catalog_by_name("sA1-v2-t0")
    assert _chi_swap_holds(inst, 1, 1, ("+", 1), ("+", 2), 2)
    assert _chi_swap_holds(inst, 1, 1, ("+", 1), ("-", 2), 2)


def test_chi_commutation_cross_node():
    inst = catalog_by_name("sA2-v11-t00")
    for (i, j) in [(1, 2), (2, 1)]:
        for k1 in _fixed_keys(inst, i):
            for k2 in _fixed_keys(inst, j):
                assert _chi_swap_holds(inst, i, j, k1, k2, -1), (i, j, k1, k2)


def test_chi_commutation_cross_node_mixed_sign_needs_matching_rhs():
    # regression anchor: with the right-hand operator pair taken at the
    # first factor's sign instead, the mixed-sign exchange law fails
    inst = catalog_by_name("sA2-v11-t00")
    assert not _chi_swap_holds(inst, 1, 2, ("+", 1), ("-", 1), -1,
                               rhs_second_sign="+")


def _merged_block(inst, i, r):
    """Block r of node i's merged index range 1..n, n = v_i + v_{tau i},
    as (coordinate, operator).  The coordinate is w_{i,r} for r <= v_i,
    else w_{tau i,n+1-r}^{-1}, and q times the block's pin equals it."""
    ti = inst.diagram.t(i)
    n = inst.w_count(i) + inst.w_count(ti)
    if r <= inst.w_count(i):
        w, dmon = Monomial.w(i, r), DMonomial.unit(i, r, -1)
    else:
        w, dmon = Monomial.w(ti, n + 1 - r, -1), DMonomial.unit(ti, n + 1 - r)
    pin, op = _term(inst, i, dmon)
    assert Monomial.q_int(1) * pin == w
    return Scalar.from_mono(w), op


def test_merged_index_identities():
    inst = catalog_by_name("qsA2-v11")
    i, j = 1, 2
    n = inst.w_count(i) + inst.w_count(j)
    assert n == 2
    ci = {r: _merged_block(inst, i, r) for r in range(1, n + 1)}
    cj = {r: _merged_block(inst, j, r) for r in range(1, n + 1)}
    for r in range(1, n + 1):
        for s in range(1, n + 1):
            if r == s:
                continue
            for ck in (ci, cj):
                (wr, xr), (ws, xs) = ck[r], ck[s]
                lhs = (xr * xs).scale(wr - Scalar.q_int(2) * ws)
                rhs = (xs * xr).scale(Scalar.q_int(2) * wr - ws)
                assert lhs.equals(rhs), (ck is ci, r, s)
            sp = n + 1 - s
            (wr, xr), (ws, xs) = ci[r], cj[sp]
            lhs = (xr * xs).scale(wr - Scalar.q_int(-1) * ws)
            rhs = (xs * xr).scale(Scalar.q_int(-1) * wr - ws)
            assert lhs.equals(rhs), (r, sp)


def test_leading_degree_matches_shift():
    for inst in CATALOG:
        for i in inst.diagram.nodes():
            leading_coefficient_K(inst, i)     # raises on mismatch


def test_leading_degree_mismatch_detected():
    inst = catalog_by_name("sA1-v1-t0")
    bad = inst._replace(mult=(2,))
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
