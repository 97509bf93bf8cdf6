"""The standalone identity suite: closed-form rational-function identities
behind the relation checker's right-hand sides, each checked by scalar
field equality, and the residue symmetry of the paired Cartan currents on
the catalog's adjacent involution pairs.  Only ``iqgklo identities``
imports this module.
"""

from __future__ import annotations

import time

from .delta import expand_by_residues
from .gklo import build_B_image, build_Xi, build_kappa, times_x_minus_xinv
from .relations import CheckResult, _at_pins, _q
from .satake import catalog_by_name
from .scalars import Scalar


def _qmqinv():
    return _q(1) - _q(-1)          # q - q^{-1}


def _sv(name, e=1):
    return Scalar.var(name, e)


def _identity_kappa():
    k = build_kappa()
    return k.invert_arg().equals(k)


def _identity_cartan_exchange_diagonal():
    # exchange of the Cartan current past a same-node B pin (pairing 2)
    u, ui, v = _sv("u"), _sv("u", -1), _sv("v")
    q2, q4 = _q(2), _q(4)
    one = Scalar.one()
    lhs = one / ((one - _q(-2) / (u * v)) * (one - u / v)
                 * (one - one / (u * v)) * (one - _q(-2) * u / v))
    ratio = ((q2 * u - v) * (q2 * ui - v)) / ((u - q2 * v) * (ui - q2 * v))
    rhs = q4 * ratio / ((one - one / (u * v)) * (one - q2 * u / v)
                        * (one - q2 / (u * v)) * (one - u / v))
    return lhs.equals(rhs)


def _identity_cartan_exchange_adjacent():
    # exchange past an adjacent-node B pin (pairing -1)
    u, ui, v = _sv("u"), _sv("u", -1), _sv("v")
    q1, qm1, q2 = _q(1), _q(-1), _q(2)
    one = Scalar.one()
    lhs = (one - q1 * v / u) * (one - q1 * u * v)
    ratio = ((qm1 * u - v) * (qm1 * ui - v)) / ((u - qm1 * v) * (ui - qm1 * v))
    rhs = q2 * ratio * (one - v / (q1 * u)) * (one - u * v / q1)
    return lhs.equals(rhs)


def _identity_diag_plus():
    w, wi = _sv("x"), _sv("x", -1)
    lhs = (_q(-1) * w - _q(3) * wi) \
        / (_q(1) * (Scalar.one() - _q(2)) * (Scalar.one() - _q(2))) \
        * (Scalar.one() - _q(-2) * w * w) / (Scalar.one() - _q(-4) * w * w)
    rhs = (_q(-1) * w - _q(1) * wi) / ((_q(-1) - _q(1))
                                       * (Scalar.one() - _q(2)))
    return lhs.equals(rhs)


def _identity_diag_minus():
    w, wi = _sv("x"), _sv("x", -1)
    lhs = ((_q(-1) * wi - _q(3) * w) * _q(3)) \
        / ((Scalar.one() - _q(2)) * (Scalar.one() - _q(2))) \
        * (Scalar.one() - _q(2) * w * w) / (Scalar.one() - _q(4) * w * w)
    rhs = (_q(1) * w - _q(-1) * wi) / ((_q(-1) - _q(1))
                                       * (Scalar.one() - _q(-2)))
    return lhs.equals(rhs)


def _identity_triple_bracket_coeff():
    # net coefficient of the surviving ordered triple block product
    a, ai, b = _sv("x"), _sv("x", -1), _sv("y")
    dq = _q(-1) - _q(1)
    lhs = dq * _q(2) * ai / (_q(1) * ai - b) \
        - _q(-1) * (dq * a / (_q(-1) * a - b)) \
        * ((_q(2) * ai - _q(-1) * b) / (_q(1) * ai - b))
    rhs = dq * (_q(-2) * a - _q(2) * ai) * b \
        / ((_q(-1) * a - b) * (_q(1) * ai - b))
    return lhs.equals(rhs)


def _identity_delta_conversion_const():
    # q^{-1}w/(1-w)^2 equals v/((u1-qv)(u2-qv)) at u1=u2=1, v=w/q
    w = _sv("x")
    lhs = _q(-1) * w / ((Scalar.one() - w) * (Scalar.one() - w))
    u1 = Scalar.one()
    u2 = Scalar.one()
    v = _q(-1) * w
    rhs = v / ((u1 - _q(1) * v) * (u2 - _q(1) * v))
    return lhs.equals(rhs)


def _identity_delta_conversion_offdiag():
    # the paired-pin conversion at u1=w/q, u2=q/w, v=w'/q
    w, wp = _sv("x"), _sv("y")
    wi = _sv("x", -1)
    dq = _q(-1) - _q(1)
    lhs = dq * (_q(-2) * w - _q(2) * wi) * wp \
        / ((_q(-1) * w - wp) * (_q(1) * wi - wp))
    u1, u2, v = _q(-1) * w, _q(1) * wi, _q(-1) * wp
    rhs = dq * (u1 - _q(2) * u2) * v / ((u1 - _q(1) * v) * (u2 - _q(1) * v))
    return lhs.equals(rhs)


def _identity_merged_pair_weight():
    # q^{3/2}(u - q^{-1}v)(1-q^{-3}w^2)/(1-q^{-1}w^2) at u=w/q, v=q/w
    w = _sv("x")
    wi = _sv("x", -1)
    u, v = _q(-1) * w, _q(1) * wi
    lhs = Scalar.q_half(3) * (u - _q(-1) * v) \
        * (Scalar.one() - _q(-3) * w * w) / (Scalar.one() - _q(-1) * w * w)
    rhs = u * Scalar.q_half(-1) - (Scalar.one() / u) * Scalar.q_half(1)
    return lhs.equals(rhs)


def _identity_serre2_reduction_left():
    # -q^2(1-v^2)(1-q^{-1}v/x)/((1-qv/x)(1-q^2 x v)) + (1-v^2)/(1-q^2 x/u2)
    # at u2 = v^{-1} equals (1-v^2)(1-q^2)/((1-qv/x)(1-q^2 x v))
    x, v = _sv("x"), _sv("y")
    one = Scalar.one()
    xin = _sv("x", -1)
    lhs = -_q(2) * (one - v * v) * (one - _q(-1) * xin * v) \
        / ((one - _q(1) * xin * v) * (one - _q(2) * x * v)) \
        + (one - v * v) / (one - _q(2) * x * v)
    rhs = (one - v * v) * (one - _q(2)) \
        / ((one - _q(1) * xin * v) * (one - _q(2) * x * v))
    return lhs.equals(rhs)


def _identity_serre2_reduction_right():
    """The combined two-block simplification, scaled by the common factor
    (q+q^{-1})/(q-q^{-1}), matches the closed Serre right-hand prefactor;
    includes the inversion transport of the spectral variables."""
    u1, v = _sv("x"), _sv("y")
    u1i, vin = _sv("x", -1), _sv("y", -1)
    one = Scalar.one()
    D = (one - _q(1) * u1i * v) * (one - _q(2) * u1 * v)
    combined = (_q(1) + _q(-1)) / _qmqinv() \
        * (one - v * v) * (one - _q(2)) / D
    target = -(one + _q(2)) * (one - v * v) / D
    if not combined.equals(target):
        return False
    lhs = (one + _q(2)) * (one - vin * vin) \
        / ((one - _q(1) * u1 * vin) * (one - _q(2) * u1i * vin))
    u2 = vin
    rhs = (one + _q(2)) * (u2 - v) * v \
        / ((_q(1) * u1 - v) * (v - _q(2) * u1i))
    return lhs.equals(rhs)


def _adjacent_pairs():
    """(instance, i, j) for each adjacent involution pair, i -> j oriented."""
    out = []
    for name in ("qsA2-v11", "qsA4"):
        inst = catalog_by_name(name)
        d = inst.diagram
        for (i, j) in inst.orientation:
            if d.t(i) == j and i != j and d.c(i, j) == -1:
                out.append((inst, i, j))
    return out


def residue_symmetry_holds(inst, i, j):
    """Residues of the paired Cartan currents match under pin inversion."""
    scale = Scalar.one() / (_q(2) - Scalar.one())
    gi = times_x_minus_xinv(build_Xi(inst, i)).scale(scale)
    gj = times_x_minus_xinv(build_Xi(inst, j)).scale(scale)
    ri, rj = dict(expand_by_residues(gi)), dict(expand_by_residues(gj))
    if set(a.inverse() for a in ri) != set(rj):
        return False
    return all(ri[a].equals(rj[a.inverse()]) for a in ri)


def _identity_residue_symmetry():
    return all(residue_symmetry_holds(*t) for t in _adjacent_pairs())


def _identity_residue_termwise():
    """Each diagonal (pin product = 1, no shift part) term of the two sides
    of the adjacent-pair exchange relation equals the residue of
    (u-1/u)Xi_i(u)/(q^2-1) at its own pin, covering every pole exactly
    once."""
    for inst, i, j in _adjacent_pairs():
        Bu = build_B_image(inst, i)
        Bv = build_B_image(inst, j).rename_spectral({"u": "v"})
        p1 = _at_pins(Bu * Bv, "u", "v", -1)
        p2 = _at_pins(Bv * Bu, "v", "u", -1)
        gamma = times_x_minus_xinv(build_Xi(inst, i)).scale(
            Scalar.one() / (_q(2) - Scalar.one()))
        res = dict(expand_by_residues(gamma))
        seen = set()
        for prod, uvar, ovar in ((p1, "u", "v"), (p2, "u", "v")):
            for pins, coeff, dmon in prod.items():
                if not (pins[uvar] * pins[ovar]).is_one() \
                        or not dmon.is_one():
                    continue
                a = pins[uvar]
                if a in seen or a not in res or not coeff.equals(res[a]):
                    return False
                seen.add(a)
        if seen != set(res):
            return False
    return True


IDENTITIES = [
    ("kappa-inversion", _identity_kappa),
    ("cartan-exchange-diagonal", _identity_cartan_exchange_diagonal),
    ("cartan-exchange-adjacent", _identity_cartan_exchange_adjacent),
    ("pair-pin-diagonal-plus", _identity_diag_plus),
    ("pair-pin-diagonal-minus", _identity_diag_minus),
    ("triple-bracket-coefficient", _identity_triple_bracket_coeff),
    ("delta-conversion-constant", _identity_delta_conversion_const),
    ("delta-conversion-offdiagonal", _identity_delta_conversion_offdiag),
    ("merged-pair-weight", _identity_merged_pair_weight),
    ("serre-reduction-left", _identity_serre2_reduction_left),
    ("serre-reduction-right", _identity_serre2_reduction_right),
    ("residue-symmetry", _identity_residue_symmetry),
    ("residue-termwise", _identity_residue_termwise),
]


def identity_suite():
    out = []
    for name, fn in IDENTITIES:
        t0 = time.monotonic()
        ok = fn()
        out.append(CheckResult("identity", (name,),
                               "pass" if ok else "fail",
                               seconds=time.monotonic() - t0))
    return out
