from fractions import Fraction

import pytest

from iqgklo.errors import (
    AdjacentThetas, AsymmetricMultiplicity, IncompatibleOrientation,
    NegativeMultiplicity, NotADE, NotInCorootLattice, TauNotAutomorphism,
    TauNotInvolution, ThetaOutsideFixedSet, ValidationError,
)
from iqgklo.satake import (
    SatakeDiagram, ShiftInstance, assign_wp, build_catalog, cartan_A,
    catalog_by_name, default_orientation, make_instance, solve_shift,
    validate_diagram, validate_theta,
)


def _partition(d):
    """The nodes tau fixes, and the smaller node of each 2-orbit."""
    return ({i for i in d.nodes() if d.t(i) == i},
            {i for i in d.nodes() if i < d.t(i)})


def test_split_a1_partition():
    d = validate_diagram([[2]], None)
    assert _partition(d) == ({1}, set())


def test_quasi_split_a3_partition():
    d = validate_diagram(cartan_A(3), (3, 2, 1))
    fixed, reps = _partition(d)
    assert fixed == {2}
    assert reps == {1}
    assert d.t(1) == 3


def test_quasi_split_a2_pairing():
    d = validate_diagram(cartan_A(2), (2, 1))
    assert d.c(1, d.t(1)) == -1


def test_rejects_bad_diagrams():
    with pytest.raises(NotADE):
        validate_diagram([[2, -1], [-1, 2], [0, 0]][:2] + [[0, 0]], None)
    with pytest.raises(NotADE):
        validate_diagram([[2, -2], [-2, 2]], None)
    with pytest.raises(NotADE):  # 3-cycle
        validate_diagram([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], None)
    with pytest.raises(TauNotInvolution):
        validate_diagram(cartan_A(3), (2, 3, 1))
    with pytest.raises(TauNotAutomorphism):
        validate_diagram(cartan_A(3), (2, 1, 3))


def _tree(rank, edges):
    """The Cartan matrix of the simply-laced graph with these 1-based
    edges."""
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in edges:
        c[i - 1][j - 1] = c[j - 1][i - 1] = -1
    return c


@pytest.mark.parametrize("cartan, message", [
    ([[2, -1], [-1, 3]], "diagonal entry at node 2 is 3"),
    ([[2, -1], [0, 2]], "matrix not symmetric"),
    ([[2, 0], [0, 2]], "diagram is disconnected"),
    (_tree(6, [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6)]),
     "more than one branch node"),
    (_tree(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)]),
     r"arm lengths \[2, 2, 2\] are not of type D or E"),
], ids=["diagonal", "asymmetric", "disconnected", "two-branch-nodes",
        "arm-lengths"])
def test_validate_diagram_rejects_each_non_ade_shape(cartan, message):
    with pytest.raises(NotADE, match=message):
        validate_diagram(cartan, None)


def test_d4_and_bad_branch():
    d4 = [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]]
    validate_diagram(d4, None)
    star = [[2, 0, 0, 0, -1], [0, 2, 0, 0, -1], [0, 0, 2, 0, -1],
            [0, 0, 0, 2, -1], [-1, -1, -1, -1, 2]]
    with pytest.raises(NotADE):
        validate_diagram(star, None)


def test_solve_shift_basic():
    a1 = validate_diagram([[2]], None)
    assert solve_shift(a1, (2,), (0,)) == (1,)
    a2 = validate_diagram(cartan_A(2), None)
    assert solve_shift(a2, (1, 1), (0, 0)) == (1, 1)
    with pytest.raises(NotInCorootLattice):
        solve_shift(a1, (1,), (0,))
    with pytest.raises(NegativeMultiplicity):
        solve_shift(a2, (0, 0), (1, 1))


def test_shift_roundtrip():
    for inst in build_catalog():
        d = inst.diagram
        for i in d.nodes():
            lhs = sum(d.c(i, j) * inst.mult[j - 1] for j in d.nodes())
            assert lhs == inst.framing[i - 1] - inst.shift[i - 1]


def test_wp_assignment():
    qsA2 = validate_diagram(cartan_A(2), (2, 1))
    wp = assign_wp(qsA2, frozenset({(1, 2)}))
    assert wp[1] == Fraction(-1, 2) and wp[2] == Fraction(1, 2)
    a2 = validate_diagram(cartan_A(2), None)
    wp = assign_wp(a2, default_orientation(a2))
    assert wp[1] == 0 and wp[2] == 0
    qsA3 = validate_diagram(cartan_A(3), (3, 2, 1))
    wp = assign_wp(qsA3, default_orientation(qsA3))
    assert all(v == 0 for v in wp.values())


def test_wp_antisymmetry():
    for inst in build_catalog():
        d = inst.diagram
        for i in d.nodes():
            if d.t(i) != i and d.c(i, d.t(i)) == -1:
                assert inst.wp[d.t(i)] == -inst.wp[i]


def test_orientation_compatibility_enforced():
    qsA3 = validate_diagram(cartan_A(3), (3, 2, 1))
    with pytest.raises(IncompatibleOrientation):
        assign_wp(qsA3, frozenset({(1, 2), (3, 2)}))
    with pytest.raises(IncompatibleOrientation):
        assign_wp(qsA3, frozenset({(1, 2)}))


def test_theta_constraints():
    a2 = validate_diagram(cartan_A(2), None)
    validate_theta(a2, (1, 0))
    with pytest.raises(AdjacentThetas):
        validate_theta(a2, (1, 1))
    qsA2 = validate_diagram(cartan_A(2), (2, 1))
    with pytest.raises(ThetaOutsideFixedSet):
        validate_theta(qsA2, (1, 0))


def test_catalog_contents():
    names = {inst.name for inst in build_catalog()}
    assert names == {
        "sA1-v1-t0", "sA1-v1-t1", "sA1-v2-t0", "sA1-v2-t1",
        "sA2-v11-t00", "sA2-v11-t10", "qsA3-t0", "qsA3-t1",
        "qsA2-v11", "qsA4",
    }
    qs2 = catalog_by_name("qsA2-v11")
    assert qs2.mult == (1, 1) and qs2.framing == (1, 1)
    qs4 = catalog_by_name("qsA4")
    assert qs4.mult == (1, 1, 1, 1) and qs4.shift == (0, 0, 0, 0)
    a12 = catalog_by_name("sA1-v2-t1")
    assert a12.mult == (2,) and a12.theta == (1,)


def test_tau_preserves_edges_and_orbit_sizes():
    for inst in build_catalog():
        d = inst.diagram
        edges = set(map(frozenset, d.edges()))
        for (i, j) in d.edges():
            assert frozenset((d.t(i), d.t(j))) in edges
        moved = [i for i in d.nodes() if d.t(i) != i]
        assert len(moved) == 2 * len(_partition(d)[1])


def test_tau_asymmetric_multiplicities_rejected():
    d = validate_diagram(cartan_A(2), (2, 1))
    with pytest.raises(AsymmetricMultiplicity, match="pair 1,2") as exc:
        make_instance("qsA2-v10", d, (0, 1), (-2, 2))
    assert isinstance(exc.value, ValidationError)
    d3 = validate_diagram(cartan_A(3), (3, 2, 1))
    with pytest.raises(AsymmetricMultiplicity, match="pair 1,3"):
        make_instance("qsA3-v100", d3, (2, 0, 0), (0, 1, 0))
    # the framing may differ on a pair when the multiplicities agree
    assert make_instance("qsA2-v11", d, (1, 0), (0, -1)).mult == (1, 1)


def test_diagram_and_instance_are_immutable_values():
    # same fields in the same order, built positionally; no field can be
    # set and no attribute added
    inst = catalog_by_name("qsA3-t1")
    assert SatakeDiagram._fields == ("rank", "cartan", "tau")
    assert ShiftInstance._fields == ("name", "diagram", "framing", "shift",
                                     "mult", "theta", "orientation", "wp")
    assert ShiftInstance(*inst) == inst
    assert SatakeDiagram(*inst.diagram) == inst.diagram
    for obj, field in ((inst.diagram, "rank"), (inst, "mult")):
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            obj.extra = 1
    assert inst._replace(mult=(2, 2, 2)).mult == (2, 2, 2)
    assert inst.mult == (1, 1, 1)
