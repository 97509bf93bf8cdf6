"""Diagram combinatorics: involutive Dynkin diagrams of simply-laced type,
coweight shift data, node markings, and edge orientations.

Indices are 1-based throughout.  The involution ``tau`` is a dict i -> tau(i).
An orientation is a frozenset of directed edges (i, j) meaning i -> j.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import (
    AdjacentThetas, AsymmetricMultiplicity, IncompatibleOrientation,
    NegativeMultiplicity, NotADE, NotDominant, NotInCorootLattice,
    TauNotAutomorphism, TauNotInvolution, ThetaOutsideFixedSet,
    ValidationError,
)


class SatakeDiagram(NamedTuple):
    rank: int
    cartan: tuple            # tuple of tuples, 1-based via cartan[i-1][j-1]
    tau: tuple               # tau[i-1] = image of i

    def c(self, i, j):
        return self.cartan[i - 1][j - 1]

    def t(self, i):
        return self.tau[i - 1]

    def nodes(self):
        return range(1, self.rank + 1)

    def edges(self):
        """Undirected edges as sorted pairs."""
        return [(i, j) for i in self.nodes() for j in self.nodes()
                if i < j and self.c(i, j) == -1]

    def neighbors(self, i):
        return [j for j in self.nodes() if j != i and self.c(i, j) == -1]


def _check_ade_shape(cartan, rank):
    """The underlying graph must be a connected simply-laced A/D/E diagram."""
    for i in range(rank):
        if cartan[i][i] != 2:
            raise NotADE(f"diagonal entry at node {i + 1} is {cartan[i][i]}")
        for j in range(rank):
            if i != j:
                if cartan[i][j] not in (0, -1):
                    raise NotADE(f"off-diagonal entry c[{i + 1}][{j + 1}]"
                                 f" = {cartan[i][j]}")
                if cartan[i][j] != cartan[j][i]:
                    raise NotADE("matrix not symmetric")
    adj = {i: [j for j in range(rank) if j != i and cartan[i][j] == -1]
           for i in range(rank)}
    # connected
    seen = {0}
    stack = [0]
    while stack:
        for j in adj[stack.pop()]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    if len(seen) != rank:
        raise NotADE("diagram is disconnected")
    n_edges = sum(len(v) for v in adj.values()) // 2
    if n_edges != rank - 1:
        raise NotADE("diagram contains a cycle")
    branch = [i for i in range(rank) if len(adj[i]) > 3]
    if branch:
        raise NotADE("node of degree > 3")
    tri = [i for i in range(rank) if len(adj[i]) == 3]
    if len(tri) > 1:
        raise NotADE("more than one branch node")
    if tri:
        # arm lengths from the branch node must be Dn / E6 / E7 / E8
        b = tri[0]
        arms = []
        for start in adj[b]:
            ln, prev, cur = 1, b, start
            while True:
                nxt = [k for k in adj[cur] if k != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                ln += 1
            arms.append(ln)
        a1, a2, a3 = sorted(arms)
        if not (a1 == 1 and (a2 == 1 or (a2 == 2 and a3 in (2, 3, 4)))):
            raise NotADE(f"arm lengths {sorted(arms)} are not of type D or E")


def validate_diagram(cartan, tau):
    """Build a validated diagram from a Cartan matrix and an involution.

    ``cartan``: sequence of rank sequences; ``tau``: sequence with tau[i-1]
    the 1-based image of node i, or None for the identity.
    """
    rank = len(cartan)
    if rank < 1 or any(len(row) != rank for row in cartan):
        raise NotADE("matrix is not square")
    cartan = tuple(tuple(int(x) for x in row) for row in cartan)
    _check_ade_shape(cartan, rank)
    if tau is None:
        tau = tuple(range(1, rank + 1))
    tau = tuple(int(x) for x in tau)
    if sorted(tau) != list(range(1, rank + 1)):
        raise TauNotInvolution("tau is not a permutation of the node set")
    for i in range(1, rank + 1):
        if tau[tau[i - 1] - 1] != i:
            raise TauNotInvolution(f"tau^2 moves node {i}")
    for i in range(1, rank + 1):
        for j in range(1, rank + 1):
            if cartan[tau[i - 1] - 1][tau[j - 1] - 1] != cartan[i - 1][j - 1]:
                raise TauNotAutomorphism(
                    f"tau does not preserve the pairing of nodes {i},{j}")
    return SatakeDiagram(rank, cartan, tau)


def solve_shift(diagram, framing, shift):
    """Solve C v = framing - shift for nonnegative integers v.

    ``framing`` are the dominant coweight pairings per node; ``shift`` the
    (possibly negative) shift pairings.
    """
    n = diagram.rank
    framing = tuple(int(x) for x in framing)
    shift = tuple(int(x) for x in shift)
    if len(framing) != n or len(shift) != n:
        raise ValidationError("pairing vector length differs from rank")
    if any(w < 0 for w in framing):
        raise NotDominant(f"framing pairings {framing} are not all >= 0")
    # Gaussian elimination over Fractions; the Cartan matrix is invertible.
    aug = [[Fraction(diagram.c(i, j)) for j in diagram.nodes()]
           + [Fraction(framing[i - 1] - shift[i - 1])]
           for i in diagram.nodes()]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    sol = [aug[r][n] for r in range(n)]
    if any(x.denominator != 1 for x in sol):
        raise NotInCorootLattice(f"solution {sol} is not integral")
    v = tuple(int(x) for x in sol)
    if any(x < 0 for x in v):
        raise NegativeMultiplicity(f"solution {v} has a negative entry")
    return v


def check_tau_symmetric(diagram, mult):
    """The multiplicities must agree on each pair of nodes that tau swaps:
    the images pair W_i with W_{tau i} in Xi_i and in the B blocks, and
    they satisfy the relations only when v_i = v_{tau i}.  The framing
    itself may differ on such a pair."""
    for i in diagram.nodes():
        ti = diagram.t(i)
        if i < ti and mult[i - 1] != mult[ti - 1]:
            raise AsymmetricMultiplicity(
                f"multiplicities differ on the involution pair {i},{ti}: "
                f"v_{i} = {mult[i - 1]}, v_{ti} = {mult[ti - 1]}")


def default_orientation(diagram):
    """Orient every edge, compatibly with the involution.

    Each tau-orbit of edges gets a representative oriented small -> large;
    the image edge is then forced to the reversed-image orientation.
    """
    oriented = {}
    for (i, j) in diagram.edges():
        key = frozenset((i, j))
        if key in oriented:
            continue
        oriented[key] = (i, j)
        ti, tj = diagram.t(i), diagram.t(j)
        ikey = frozenset((ti, tj))
        if ikey != key:
            oriented[ikey] = (tj, ti)
    return frozenset(oriented.values())


def check_orientation(diagram, orientation):
    edges = set(map(frozenset, diagram.edges()))
    seen = set()
    for (i, j) in orientation:
        key = frozenset((i, j))
        if key not in edges:
            raise IncompatibleOrientation(f"({i},{j}) is not an edge")
        if key in seen:
            raise IncompatibleOrientation(f"edge {{{i},{j}}} oriented twice")
        seen.add(key)
    if seen != edges:
        raise IncompatibleOrientation("some edge is unoriented")
    oset = set(orientation)
    for (i, j) in orientation:
        if diagram.t(i) == i:
            continue
        if (diagram.t(j), diagram.t(i)) not in oset:
            raise IncompatibleOrientation(
                f"edge ({i},{j}) violates the involution-compatibility rule")


def assign_wp(diagram, orientation):
    """Per-node half-integer powers read off the orientation.

    +1/2 if the edge from tau(i) points into i, -1/2 if out of i, else 0.
    """
    check_orientation(diagram, orientation)
    oset = set(orientation)
    wp = {}
    for i in diagram.nodes():
        ti = diagram.t(i)
        if ti != i and diagram.c(i, ti) == -1:
            wp[i] = Fraction(1, 2) if (ti, i) in oset else Fraction(-1, 2)
        else:
            wp[i] = Fraction(0)
    return wp


class ShiftInstance(NamedTuple):
    name: str
    diagram: SatakeDiagram
    framing: tuple           # per-node pairings of the dominant coweight
    shift: tuple             # per-node pairings of the shift coweight
    mult: tuple              # per-node nonnegative multiplicities (solved)
    theta: tuple             # 0/1 markings on fixed nodes
    orientation: frozenset
    wp: dict                 # node -> Fraction in {-1/2, 0, 1/2}

    def w_count(self, i):
        return self.mult[i - 1]

    def z_count(self, i):
        return self.framing[i - 1]

    def th(self, i):
        return self.theta[i - 1]

    def ell(self, i):
        return self.shift[i - 1]


def validate_theta(diagram, theta):
    if len(theta) != diagram.rank:
        raise ValidationError(f"{len(theta)} markings for rank {diagram.rank}")
    for i in diagram.nodes():
        if theta[i - 1] not in (0, 1):
            raise ValidationError(f"marking at node {i} must be 0 or 1")
        if theta[i - 1] == 1 and diagram.t(i) != i:
            raise ThetaOutsideFixedSet(f"node {i} is not fixed by the involution")
    for i in diagram.nodes():
        for j in diagram.nodes():
            if i != j and diagram.c(i, j) != 0 and theta[i - 1] and theta[j - 1]:
                raise AdjacentThetas(f"adjacent marked nodes {i},{j}")


def make_instance(name, diagram, framing, shift, theta=None,
                  orientation=None):
    mult = solve_shift(diagram, framing, shift)
    check_tau_symmetric(diagram, mult)
    theta = tuple(theta) if theta is not None else (0,) * diagram.rank
    validate_theta(diagram, theta)
    if orientation is None:
        orientation = default_orientation(diagram)
    else:
        orientation = frozenset(tuple(e) for e in orientation)
        if any(len(e) != 2 for e in orientation):
            raise ValidationError("an orientation edge must be a pair")
    wp = assign_wp(diagram, orientation)
    return ShiftInstance(name, diagram, tuple(framing), tuple(shift), mult,
                         theta, orientation, wp)


def cartan_A(n):
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
             for j in range(n)] for i in range(n)]


def build_catalog():
    """The built-in acceptance catalog of small instances."""
    A1 = validate_diagram(cartan_A(1), None)
    A2 = validate_diagram(cartan_A(2), None)
    qsA2 = validate_diagram(cartan_A(2), (2, 1))
    qsA3 = validate_diagram(cartan_A(3), (3, 2, 1))
    qsA4 = validate_diagram(cartan_A(4), (4, 3, 2, 1))
    out = [
        make_instance("sA1-v1-t0", A1, (2,), (0,), (0,)),
        make_instance("sA1-v1-t1", A1, (2,), (0,), (1,)),
        make_instance("sA1-v2-t0", A1, (4,), (0,), (0,)),
        make_instance("sA1-v2-t1", A1, (4,), (0,), (1,)),
        make_instance("sA2-v11-t00", A2, (1, 1), (0, 0), (0, 0)),
        make_instance("sA2-v11-t10", A2, (1, 1), (0, 0), (1, 0)),
        make_instance("qsA3-t0", qsA3, (1, 0, 1), (0, 0, 0), (0, 0, 0)),
        make_instance("qsA3-t1", qsA3, (1, 0, 1), (0, 0, 0), (0, 1, 0)),
        make_instance("qsA2-v11", qsA2, (1, 1), (0, 0)),
        make_instance("qsA4", qsA4, (1, 0, 0, 1), (0, 0, 0, 0)),
    ]
    return out


def catalog_by_name(name):
    for inst in build_catalog():
        if inst.name == name:
            return inst
    raise ValidationError(f"unknown catalog instance {name!r}")
