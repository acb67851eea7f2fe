"""Curvature analysis: the algebraic expansion of the adapted curvature,
Ricci traces, sectional and holomorphic sectional curvatures, and one
verifier per global curvature statement.

Four routes compute the adapted curvature tensor:

* the differential route - nested dual-number differentiation of the
  connection (``connections.curvature``);
* the difference-tensor route - :func:`rbar_difference_tensor`, which
  writes nabla-bar = nabla + A and needs only first derivatives of A;
* the closed form - :func:`rbar_quaternionic_projective`, the curvature
  of the base HP^n(4) on the H-parts of the arguments, which uses
  neither A nor derivatives;
* the stated expansion - :func:`rbar_algebraic`, a closed form in terms
  of the round-sphere curvature and the structure tensors, transcribed
  term by term with the double-index sums running over ordered pairs
  (a, b), a != b.

The first three agree to rounding on every argument triple; they are the
curvature of the adapted connection.  The stated expansion is exact when
X and Y lie in H (and on pure Reeb-slot families) and otherwise differs
from the curvature by an exact eta-trilinear tensor,
:func:`two_route_gap_form`.  ``cross_check_rbar`` measures that split
between the differential route and the stated expansion (see the README
findings section).

The closed forms, traces, plane values and verifiers take tangent
vectors that are one row or a stack of rows (each at its own point), and
give one value per row: a stack in gives a stack out.  Each nested
curvature value they need is one nested pass over all rows, and each row
has the bits of its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numlin import (
    EXACT_FORWARD,
    DegenerateInputError,
    PreconditionError,
    dot,
    norm,
)
from .sphere3s import TANGENT_TOL, TangentVector, ThreeSasakiStructure
from .connections import (
    ConnectionKind,
    VectorField,
    _a_raw,
    _cov_raw,
    _curvature_raw,
    curvature,
    curvature4,
    sphere_curvature_oracle,
)
from .records import build_records

__all__ = [
    "CurvatureSample",
    "rbar_algebraic",
    "rbar_difference_tensor",
    "rbar_quaternionic_projective",
    "two_route_gap_form",
    "cross_check_rbar",
    "ricci",
    "sectional",
    "holomorphic_sectional_bar",
    "sec_rela_data",
    "cor_xxx_data",
    "theorem_sec_data",
    "verify_symmetries",
]

LC = ConnectionKind.LEVI_CIVITA
HC = ConnectionKind.H_CONNECTION

_PAIRS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]


# ============================================================
# sample containers
# ============================================================

@dataclass
class CurvatureSample:
    """Both curvature routes on one argument triple, or on a stack of them
    (one row each)."""

    value_direct: np.ndarray
    value_algebraic: np.ndarray
    residual: float | np.ndarray


# ============================================================
# the algebraic curvature route
# ============================================================

def _in_H(s, U):
    """Whether every row of U lies in the distribution H."""
    eta = [s.eta_raw(a, U.v, U.base.x) for a in (1, 2, 3)]
    return bool(np.all(np.abs(eta) <= TANGENT_TOL))


def rbar_algebraic(structure: ThreeSasakiStructure, X, Y, Z, R=None):
    """The stated closed-form expansion of the adapted curvature operator
    applied to (X, Y)Z, transcribed literally: three single-index blocks
    summed over a = 1..3 and four double-index blocks summed over ordered
    pairs a != b.  ``R`` is the round-metric curvature value R(X,Y)Z;
    when omitted it comes from the constant-curvature closed form.

    The expansion is exact for X, Y in H.  When X or Y carries Reeb
    components it is not the curvature of the adapted connection: it
    exceeds :func:`rbar_difference_tensor` by exactly
    :func:`two_route_gap_form`."""
    X._check_same_base(Y, Z, *(() if R is None else (R,)))
    s, y, Xv, Yv, Zv = structure, X.base.x, X.v, Y.v, Z.v
    et = lambda a, w: s.eta_raw(a, w, y)
    om = lambda a, u, w: s.omega_raw(a, u, w, y)
    phi = lambda a, w: s.phi_raw(a, w, y)
    xi = lambda a: s.reeb_raw(a, y)
    gXZ = dot(Xv, Zv)
    gYZ = dot(Yv, Zv)

    out = gYZ * Xv - gXZ * Yv if R is None else R.v
    for a in (1, 2, 3):
        out = out - 2.0 * om(a, Yv, Xv) * phi(a, Zv) \
                  - om(a, Zv, Xv) * phi(a, Yv) \
                  + om(a, Zv, Yv) * phi(a, Xv)
        out = out + et(a, Xv) * et(a, Zv) * Yv - et(a, Yv) * et(a, Zv) * Xv
        out = out + 2.0 * et(a, Yv) * gXZ * xi(a) - 2.0 * et(a, Xv) * gYZ * xi(a)
    for a, b in _PAIRS:
        out = out - et(a, Zv) * et(b, Yv) * phi(b, phi(a, Xv)) \
                  + et(a, Zv) * et(b, Xv) * phi(b, phi(a, Yv))
        out = out + 2.0 * et(a, Yv) * et(b, Xv) * phi(b, phi(a, Zv)) \
                  + 2.0 * et(a, Zv) * om(b, Xv, phi(a, Yv)) * xi(b)
        out = out - et(a, Xv) * om(b, Yv, phi(a, Zv)) * xi(b) \
                  + et(a, Yv) * om(b, Xv, phi(a, Zv)) * xi(b)
        out = out + et(a, Yv) * et(b, phi(a, Zv)) * phi(b, Xv) \
                  + et(a, Zv) * et(b, phi(a, Yv)) * phi(b, Xv)
        out = out - et(a, Xv) * et(b, phi(a, Zv)) * phi(b, Yv) \
                  - et(a, Zv) * et(b, phi(a, Xv)) * phi(b, Yv)
    return TangentVector(X.base, s.tangent_project_raw(out, y))


def rbar_difference_tensor(structure: ThreeSasakiStructure, X: TangentVector,
                           Y: TangentVector, Z: TangentVector) -> TangentVector:
    """The adapted curvature R-bar(X,Y)Z from the difference tensor A of
    nabla-bar = nabla + A, with nabla torsion-free (Kobayashi-Nomizu I,
    ch. III):

        R-bar(X,Y)Z = R(X,Y)Z + (nabla_X A)(Y,Z) - (nabla_Y A)(X,Z)
                      + A(X, A(Y,Z)) - A(Y, A(X,Z)).

    Only first derivatives of A enter, so this route is independent of
    the nested dual numbers of ``connections.curvature``.  The canonical
    extensions of Y and Z are Levi-Civita parallel at the base point, so
    (nabla_X A)(Y,Z) is the round derivative of the field A(Y~, Z~) along
    X.  The round term R(X,Y)Z is the constant-curvature closed form, in
    the convention of ``connections.curvature``.
    """
    R = sphere_curvature_oracle(X, Y, Z)
    s = structure
    y = X.base.x

    def nabla_A(U, V, W):
        Vf, Wf = s.extension_raw(V.v), s.extension_raw(W.v)
        field = lambda q: _a_raw(s, Vf(q), Wf(q), q)
        return _cov_raw(s, LC, lambda q: U.v, field, y, EXACT_FORWARD)

    A = lambda u, w: _a_raw(s, u, w, y)
    out = (R.v + nabla_A(X, Y, Z) - nabla_A(Y, X, Z)
           + A(X.v, A(Y.v, Z.v)) - A(Y.v, A(X.v, Z.v)))
    return TangentVector(X.base, s.tangent_project_raw(out, y))


def rbar_quaternionic_projective(structure: ThreeSasakiStructure,
                                 X: TangentVector, Y: TangentVector,
                                 Z: TangentVector) -> TangentVector:
    """The adapted curvature R-bar(X,Y)Z in closed form, without A.

    R-bar vanishes as soon as one argument is a Reeb vector (last slot:
    nabla-bar xi_a = 0; middle and first slots: the middle-slot
    annihilation and antisymmetry), so R-bar(X,Y)Z = R-bar(X_H, Y_H)Z_H.
    On H, nabla-bar is the H-part of the round derivative, the horizontal
    lift of the Levi-Civita connection of the base of S^{4n+3} -> HP^n.
    That base has quaternionic sectional curvature 4 (Ishihara's
    quaternionic space form with c = 4):

        R-bar(X,Y)Z = g(Y,Z)X - g(X,Z)Y
                      + sum_a [g(Z,phi_a Y) phi_a X - g(Z,phi_a X) phi_a Y
                               + 2 g(X,phi_a Y) phi_a Z]

    with X, Y, Z replaced by their H-parts.
    """
    X._check_same_base(Y, Z)
    s, y = structure, X.base.x
    Xv, Yv, Zv = (s.project_h_raw(V.v, y) for V in (X, Y, Z))
    out = dot(Yv, Zv) * Xv - dot(Xv, Zv) * Yv
    for a in (1, 2, 3):
        pX, pY, pZ = (s.phi_raw(a, w, y) for w in (Xv, Yv, Zv))
        out = out + (dot(Zv, pY) * pX - dot(Zv, pX) * pY
                     + 2.0 * dot(Xv, pY) * pZ)
    return TangentVector(X.base, out)


def two_route_gap_form(structure: ThreeSasakiStructure, X, Y, Z):
    """The closed form of (stated expansion - adapted curvature).

    On the round model :func:`rbar_algebraic` minus the adapted curvature
    (any of the three routes to it) equals, to rounding,

        sum_a [eta^a(Y) g(X,Z) - eta^a(X) g(Y,Z)] xi_a
      + sum_{a != b} eta^a(Y) eta^b(X) [eta^a(Z) xi_b + eta^b(Z) xi_a]
      + sum_{a != b} eta^a(Z) [eta^b(Y) eta^a(X) + eta^a(Y) eta^b(X)] xi_b.

    It vanishes when X and Y both lie in H, and on Reeb-pair and
    triple-Reeb argument families, which is exactly where the two routes
    agree.
    """
    X._check_same_base(Y, Z)
    s, y, Xv, Yv, Zv = structure, X.base.x, X.v, Y.v, Z.v
    et = lambda a, w: s.eta_raw(a, w, y)
    xi = lambda a: s.reeb_raw(a, y)
    gXZ = dot(Xv, Zv)
    gYZ = dot(Yv, Zv)
    out = np.zeros_like(y)
    for a in (1, 2, 3):
        out = out + (et(a, Yv) * gXZ - et(a, Xv) * gYZ) * xi(a)
    for a, b in _PAIRS:
        out = out + et(a, Yv) * et(b, Xv) * (et(a, Zv) * xi(b)
                                             + et(b, Zv) * xi(a))
        out = out + et(a, Zv) * (et(b, Yv) * et(a, Xv)
                                 + et(a, Yv) * et(b, Xv)) * xi(b)
    return TangentVector(X.base, out)


def cross_check_rbar(structure, sample, scheme=EXACT_FORWARD):
    """Compare the differential and algebraic curvature routes.

    ``sample`` is a (point, X, Y, Z) tuple with tangent vectors at the
    point, one row or a stack.  The round-metric curvature fed to the
    algebraic route comes from the differential pipeline, so the
    comparison does not assume the constant-curvature closed form.
    """
    x, *args = sample
    fields = [VectorField.extension(structure, V) for V in args]
    direct = curvature(HC, *fields, x, scheme)
    R_lc = curvature(LC, *fields, x, scheme)
    algebraic = rbar_algebraic(structure, *args, R=R_lc)
    return CurvatureSample(value_direct=direct.v, value_algebraic=algebraic.v,
                           residual=norm(direct.v - algebraic.v))


# ============================================================
# traces
# ============================================================

def ricci(structure, kind: ConnectionKind, X: TangentVector, Y: TangentVector,
          seed=0, scheme=EXACT_FORWARD):
    """Trace of the curvature over an orthonormal basis (4n distribution
    vectors from a seeded frame plus the three Reeb vectors), in the slot
    convention S(X,Y) = sum_i g(R(E_i, X) Y, E_i).

    The basis enters as one extension field stacked on the axis before
    the last, so a single nested curvature evaluation gives R(E_i, X)Y
    for every i (and every row of a stacked ``X``, ``Y``); the terms are
    summed in basis order.  One row gives a float, a stack shape
    ``(P, 1)``."""
    X._check_same_base(Y)
    x = X.base
    if kind is ConnectionKind.H_CONNECTION and not all(
            _in_H(structure, V) for V in (X, Y)):
        raise PreconditionError(
            "the adapted-connection trace is defined for arguments "
            "inside the distribution H")
    basis = [E.v for E in structure.frame_H(x, seed)]
    basis += [structure.reeb_raw(a, x.x) for a in (1, 2, 3)]
    # the basis on axis -2; the point, X and Y get a length-1 axis there
    Ef = structure.extension_raw(np.stack(basis, axis=-2))
    Xf, Yf = (structure.extension_raw(V.v[..., None, :]) for V in (X, Y))
    y = x.x[..., None, :]
    R, E = _curvature_raw(structure, kind, Ef, Xf, Yf, y, scheme), Ef(y)
    total = 0.0
    for i in range(len(basis)):
        total = total + dot(R[..., i, :], E[..., i, :])
    return total


# ============================================================
# sectional curvatures
# ============================================================

def _gram(X: TangentVector, Y: TangentVector):
    # np.float_power has the bits of Python's float power on every row
    # (numpy's ``**`` differs in the last bit on some values)
    return dot(X.v, X.v) * dot(Y.v, Y.v) - np.float_power(dot(X.v, Y.v), 2)


def _signed(value):
    """A plane value under each ``plane-normalization`` sign; negation
    is exact in floating point."""
    return {"+1": value, "-1": -value}


def _plane_values(structure, kind, X, Y, scheme):
    """-R4(X,Y,X,Y) / gram on each row, from one nested pass of the
    connection ``kind`` over the extensions of the vectors."""
    X._check_same_base(Y)
    g = _gram(X, Y)
    gs = np.ravel(g)
    bad = gs <= 1e-10
    if bad.any():
        raise DegenerateInputError(
            f"the two vectors do not span a plane (Gram determinant {gs[bad][0]:.3e})")
    Xf = VectorField.extension(structure, X)
    Yf = VectorField.extension(structure, Y)
    return -curvature4(kind, Xf, Yf, Xf, Yf, X.base, scheme) / g


def sectional(structure, X, Y, scheme=EXACT_FORWARD):
    """The round-metric plane value of span{X, Y}, taken literally:
    -R4(X,Y,X,Y) / gram, which is -1 on every round plane.  Callers
    multiply by the report's measured ``plane-normalization`` sign, the
    one that makes round planes measure +1.
    """
    return _plane_values(structure, LC, X, Y, scheme)


def holomorphic_sectional_bar(structure, alpha, X, scheme=EXACT_FORWARD):
    """The adapted-connection curvature R4-bar(X, phi_a X, X, phi_a X)
    for a unit distribution vector X: the adapted plane value under the
    selected normalization (-1), the unit Gram determinant left out."""
    if np.any(np.abs(X.norm() - 1.0) > 1e-10):
        raise PreconditionError("X must have unit length")
    if not _in_H(structure, X):
        raise PreconditionError("X must lie in the distribution H")
    Xf = VectorField.extension(structure, X)
    Pf = Xf.phi(alpha)
    return curvature4(HC, Xf, Pf, Xf, Pf, X.base, scheme)


# ============================================================
# verifiers
# ============================================================

def sec_rela_data(structure, alpha, X, scheme=EXACT_FORWARD):
    """The 'adapted holomorphic value = plane value + 3' relation on
    span{X, phi_a X}.  ``"k"`` is :func:`holomorphic_sectional_bar`;
    ``"K"`` maps each plane normalization (``"+1"``, ``"-1"``) to that
    sign times :func:`sectional`, and ``"residual"`` to |k - 3 - K|.
    """
    k = holomorphic_sectional_bar(structure, alpha, X, scheme)
    P = TangentVector(X.base, structure.phi_raw(alpha, X.v, X.base.x))
    K = _signed(sectional(structure, X, P, scheme))
    return {"k": k, "K": K,
            "residual": {c: abs(k - 3.0 - Kc) for c, Kc in K.items()}}


def cor_xxx_data(structure, X, scheme=EXACT_FORWARD):
    """Both sides of the quadrilinear identity on (X, phi_1 X, phi_2 X,
    phi_3 X): the adapted and round-metric curvature forms agree there."""
    Xf = VectorField.extension(structure, X)
    f1, f2, f3 = (Xf.phi(a) for a in (1, 2, 3))
    return (curvature4(HC, Xf, f1, f2, f3, X.base, scheme),
            curvature4(LC, Xf, f1, f2, f3, X.base, scheme))


def theorem_sec_data(structure, alpha, X, scheme=EXACT_FORWARD):
    """Residual table for the plane-comparison polynomial on the plane
    span{X, phi_a X} for a unit vector X (arbitrary Reeb content).

    The polynomial predicts the adapted plane value from the round one:

        predicted = K + 3 + 4 (eta^b eta^c)^2
                      + 6 (eta^b^4 + eta^c^4) - 8 (eta^b^2 + eta^c^2)

    with (b, c) the two structure indices other than a.  ``"kbar"``
    (adapted) and ``"k"`` (round) map each plane normalization (``"+1"``,
    ``"-1"``) to that sign times -R4(X,P,X,P)/gram, P = phi_a X;
    ``"predicted"`` maps it to k plus the polynomial, and ``"residual"``
    each combination ``"adapted/round"`` to |kbar - predicted|.
    """
    if np.any(np.abs(X.norm() - 1.0) > 1e-10):
        raise PreconditionError("X must have unit length")
    P = TangentVector(X.base, structure.phi_raw(alpha, X.v, X.base.x))
    kbar, k = (_signed(_plane_values(structure, kind, X, P, scheme))
               for kind in (HC, LC))
    b, c = (i for i in (1, 2, 3) if i != alpha)
    eb, ec = (structure.eta_raw(i, X.v, X.base.x) for i in (b, c))
    # float powers as in _gram
    poly = (3.0 + 4.0 * np.float_power(eb * ec, 2)
            + 6.0 * (np.float_power(eb, 4) + np.float_power(ec, 4))
            - 8.0 * (np.float_power(eb, 2) + np.float_power(ec, 2)))
    predicted = {ck: Kc + poly for ck, Kc in k.items()}
    return {
        "eta_components": [eb, ec],
        "kbar": kbar, "k": k, "predicted": predicted,
        "residual": {f"{cb}/{ck}": abs(kb - pk) for cb, kb in kbar.items()
                     for ck, pk in predicted.items()},
    }


def verify_symmetries(structure, quad, tol=1e-6, scheme=EXACT_FORWARD):
    """Residuals of the four quadrilinear symmetry families of the
    adapted curvature on distribution arguments.

    ``quad`` is a (point, X, Y, Z, W) tuple with all four tangent vectors
    in H, one row or a stack.  Returns one record per family.
    """
    x, *args = quad
    f = {c: VectorField.extension(structure, V) for c, V in zip("XYZW", args)}
    # q["XYWZ"] is R4(X, Y, W, Z)
    q = {key: curvature4(HC, *(f[c] for c in key), x, scheme)
         for key in ("XYZW", "YXZW", "XYWZ", "ZWXY", "YZWX", "ZXWY")}

    def residuals():
        yield "curvature.sym_first_pair", abs(q["XYZW"] + q["YXZW"])
        yield "curvature.sym_last_pair", abs(q["XYZW"] + q["XYWZ"])
        yield "curvature.sym_pair_swap", abs(q["XYZW"] - q["ZWXY"])
        yield "curvature.sym_bianchi", abs(q["XYWZ"] + q["YZWX"] + q["ZXWY"])

    return build_records("curvature", len(np.atleast_2d(x.x)), residuals(),
                         lambda worst: dict.fromkeys(worst, tol))
