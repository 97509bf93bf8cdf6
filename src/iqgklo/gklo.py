"""Images of the current generators as delta-supported difference operators.

Builds, per validated instance: the factored building-block currents, the
Cartan-current image Xi_i(u) (a pure rational function), the B-current
image (a delta-supported Distribution over the quantum torus, whose terms
are the block operators, one per pin), and the degree/leading-term
extraction for the K-generators, all in the spectral variable u: a B image
in another variable is a renaming of its pins.
"""

from __future__ import annotations

from .delta import Distribution, FactorCurrent
from .errors import DegreeMismatch
from .scalars import DMonomial, GR_I, Monomial, Scalar, w_var, z_var, zeta_var


def zeta(inst, i):
    return Scalar.var(zeta_var(i))


def w_half_pref(i, rng):
    """prod over r in rng of w_{i,r}^{-1/2} as a Scalar."""
    m = Monomial(((w_var(i, r), -1) for r in rng))
    return Scalar.from_mono(m)


def build_W(inst, i):
    """W_i = prod_r w_{tau i,r}^{-1/2} (1 - w_{i,r}/u)."""
    ti = inst.diagram.t(i)
    fc = FactorCurrent(pref=w_half_pref(ti, range(1, inst.w_count(i) + 1)))
    for r in range(1, inst.w_count(i) + 1):
        fc = fc.times_linear_inv_arg(Monomial.w(i, r))
    return fc


def build_Z(inst, i):
    fc = FactorCurrent()
    for s in range(1, inst.z_count(i) + 1):
        fc = fc.times_linear_inv_arg(Monomial.unit(z_var(i, s), 1))
    return fc


def build_WW(inst, i):
    """The involution-symmetric combination W_i(u) W_{tau i}(1/u)."""
    ti = inst.diagram.t(i)
    return build_W(inst, i) * build_W(inst, ti).invert_arg()


def build_ZZ(inst, i):
    ti = inst.diagram.t(i)
    return build_Z(inst, i) * build_Z(inst, ti).invert_arg()


def build_kappa():
    """(1 - q u)(1 - u/q) / (1 - u)^2."""
    return (FactorCurrent()
            .times_linear(Monomial.q_int(1))
            .times_linear(Monomial.q_int(-1))
            .times_linear(Monomial.one(), e=-2))


def wp_factor(wp):
    """(u q^wp - (u q^wp)^{-1}) / (u - u^{-1}) in factored form."""
    fc = FactorCurrent()
    if wp == 0:
        return fc
    h = int(2 * wp)          # q^wp = Q^h with h = 2*wp an integer
    fc = fc.scale(Scalar.q_half(h))
    fc = fc.times_linear_inv_arg(Monomial.q_half(-h))
    fc = fc.times_linear_inv_arg(Monomial.q_half(-h), c=-1)
    fc = fc.times_linear_inv_arg(Monomial.one(), e=-1)
    fc = fc.times_linear_inv_arg(Monomial.one(), c=-1, e=-1)
    return fc


def times_x_minus_xinv(fc):
    """Multiply a FactorCurrent by (u - 1/u)."""
    return (fc.times_power(1)
            .times_linear_inv_arg(Monomial.one())
            .times_linear_inv_arg(Monomial.one(), c=-1))


def neighbors_in(inst, i):
    """Nodes j with an oriented edge j -> i."""
    return sorted(j for (j, k) in inst.orientation if k == i)


def neighbors_out(inst, i):
    """Nodes j with an oriented edge i -> j."""
    return sorted(k for (j, k) in inst.orientation if j == i)


def build_Xi(inst, i, corrupt=None):
    """The Cartan-current image: a factored rational function of u."""
    d = inst.diagram
    ti = d.t(i)
    wp = inst.wp[i]
    if corrupt == "flip_wp":
        wp = -wp
    fc = FactorCurrent().scale(zeta(inst, i) * zeta(inst, ti))
    fc = fc * wp_factor(wp)
    if inst.th(i) and corrupt != "drop_kappa":
        fc = fc * build_kappa()
    fc = fc * build_ZZ(inst, i)
    ww = build_WW(inst, i)
    fc = fc / (ww.scale_arg(Monomial.q_int(1)) * ww.scale_arg(Monomial.q_int(-1)))
    for j in d.neighbors(i):
        fc = fc * build_WW(inst, j)
    return fc


def _eval_prod(currents, at):
    out = Scalar.one()
    for fc in currents:
        out = out * fc.evaluate(at)
    return out


def one_minus_q2():
    return Scalar.one() - Scalar.q_int(2)


def build_B_image(inst, i, corrupt=None):
    """The B-current image of node i as a delta-supported Distribution:
    one block operator (coefficient times shift part) per pin.

    The block of w_{i,r} is pinned at w_{i,r}/q and shifts d_{i,r}^{-1};
    the block of w_{tau i,r}^{-1} is pinned at 1/(q w_{tau i,r}) and shifts
    d_{tau i,r}; a marked node adds a constant block pinned at 1 with no
    shift.  So q times a block's pin is its coordinate in the exchange
    laws.  Each coefficient is a prefactor times the node's currents at
    the pin over W_{k,r} without its r-th factor at w_{k,r}; the prefactor
    of w_i's blocks carries q^{|wp_i|}, which is 1 on a fixed node, and
    that of w_{tau i}'s carries q, or -q on a moved node.  A fixed node
    alternates the two per r and ends with the constant block; a moved
    node lists every block of w_i, then every block of w_{tau i}.
    """
    d = inst.diagram
    ti = d.t(i)
    fixed = ti == i
    nin, nout = neighbors_in(inst, i), neighbors_out(inst, i)
    z = build_Z(inst, i)
    pref = zeta(inst, i) / one_minus_q2()
    q = Scalar.q_int(1)
    plus = [z] + [build_WW(inst, j) for j in nin]
    if fixed:
        fixed_out = [build_W(inst, j).invert_arg()
                     for j in nout if d.t(j) == j]
        plus += fixed_out
        minus = [z] + [build_kappa()] * inst.th(i) \
            + [build_WW(inst, j).invert_arg()
               for j in nout if d.t(j) != j] + fixed_out
    else:
        minus = [z] + [build_WW(inst, d.t(j)).invert_arg()
                       for j in nin]
    # (node k, shift exponent, prefactor, currents) of the blocks of w_k
    own = (i, -1, Scalar.q_half(int(2 * abs(inst.wp[i]))) * pref, plus)
    paired = (ti, 1, (q if fixed else -q) * pref, minus)
    if fixed:
        rows = [(block, r) for r in range(1, inst.w_count(i) + 1)
                for block in (own, paired)]
    else:
        rows = [(own, r) for r in range(1, inst.w_count(i) + 1)] \
            + [(paired, t) for t in range(1, inst.w_count(ti) + 1)]
    ww = {k: build_WW(inst, k) for k in {i, ti}}
    out = Distribution.zero()
    for (k, e, c, num), r in rows:
        pin = Monomial.w(k, r, -e) * Monomial.q_int(-1)
        wr = Monomial.w(k, r)
        # WW_k without its factor (1 - w_{k,r}/u), at w_{k,r}
        coeff = c * _eval_prod(num, pin) \
            / ww[k].times_linear_inv_arg(wr, e=-1).evaluate(wr)
        out.add_term({"u": pin}, coeff, DMonomial.unit(k, r, e))
    if inst.th(i) and corrupt != "drop_const":
        num = [z] + [build_W(inst, j) for j in d.neighbors(i)]
        coeff = Scalar.const(GR_I) * zeta(inst, i) \
            * _eval_prod(num, Monomial.one()) \
            / ((Scalar.one() + q) * ww[i].evaluate(Monomial.q_int(1)))
        out.add_term({"u": Monomial.one()}, coeff, DMonomial.one())
    return out


def leading_coefficient_K(inst, i, xi=None):
    """Top coefficient of the Cartan-current image ``xi`` of node i at
    u = infinity; ``xi`` is built when not given.

    The top degree must equal the shift pairing at the involution image
    node; raises DegreeMismatch otherwise.
    """
    if xi is None:
        xi = build_Xi(inst, i)
    deg, coeff = xi.leading_at_infinity()
    expected = inst.ell(inst.diagram.t(i))
    if deg != expected:
        raise DegreeMismatch(f"top degree {deg} differs from expected "
                             f"{expected} at node {i}")
    return coeff
