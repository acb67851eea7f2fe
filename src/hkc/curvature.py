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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numlin import (
    EXACT_FORWARD,
    DegenerateInputError,
    PreconditionError,
    norm,
)
from .sphere3s import SpherePoint, TangentVector, ThreeSasakiStructure
from .connections import (
    ConnectionKind,
    VectorField,
    _a_raw,
    _cov_raw,
    curvature,
    curvature4,
    sphere_curvature_oracle,
)
from .records import make_record, worst_residuals

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
    point: SpherePoint
    args: tuple
    value_direct: np.ndarray
    value_algebraic: np.ndarray
    residual: float


# ============================================================
# the algebraic curvature route
# ============================================================

def rbar_algebraic(structure: ThreeSasakiStructure, X: TangentVector,
                   Y: TangentVector, Z: TangentVector,
                   R: TangentVector = None) -> TangentVector:
    """The stated closed-form expansion of the adapted curvature operator
    applied to (X, Y)Z, transcribed literally: three single-index blocks
    summed over a = 1..3 and four double-index blocks summed over ordered
    pairs a != b.  ``R`` is the round-metric curvature value R(X,Y)Z;
    when omitted it comes from the constant-curvature closed form.

    The expansion is exact for X, Y in H.  When X or Y carries Reeb
    components it is not the curvature of the adapted connection: it
    exceeds :func:`rbar_difference_tensor` by exactly
    :func:`two_route_gap_form`."""
    X._check_same_base(Y)
    X._check_same_base(Z)
    if R is None:
        R = sphere_curvature_oracle(X, Y, Z)
    else:
        X._check_same_base(R)
    s = structure
    y = X.base.x
    Xv, Yv, Zv = X.v, Y.v, Z.v
    et = lambda a, w: s.eta_raw(a, w, y)
    om = lambda a, u, w: s.omega_raw(a, u, w, y)
    phi = lambda a, w: s.phi_raw(a, w, y)
    xi = lambda a: s.reeb_raw(a, y)
    gXZ = float(np.dot(Xv, Zv))
    gYZ = float(np.dot(Yv, Zv))

    out = np.array(R.v, dtype=float)
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
    X._check_same_base(Y)
    X._check_same_base(Z)
    s = structure
    y = X.base.x
    Xv, Yv, Zv = (s.project_h_raw(V.v, y) for V in (X, Y, Z))
    out = float(np.dot(Yv, Zv)) * Xv - float(np.dot(Xv, Zv)) * Yv
    for a in (1, 2, 3):
        pX, pY, pZ = (s.phi_raw(a, w, y) for w in (Xv, Yv, Zv))
        out = out + (float(np.dot(Zv, pY)) * pX - float(np.dot(Zv, pX)) * pY
                     + 2.0 * float(np.dot(Xv, pY)) * pZ)
    return TangentVector(X.base, out)


def two_route_gap_form(structure: ThreeSasakiStructure, X: TangentVector,
                       Y: TangentVector, Z: TangentVector) -> TangentVector:
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
    s = structure
    y = X.base.x
    et = lambda a, w: s.eta_raw(a, w, y)
    xi = lambda a: s.reeb_raw(a, y)
    gXZ = float(np.dot(X.v, Z.v))
    gYZ = float(np.dot(Y.v, Z.v))
    out = np.zeros_like(y)
    for a in (1, 2, 3):
        out = out + (et(a, Y.v) * gXZ - et(a, X.v) * gYZ) * xi(a)
    for a, b in _PAIRS:
        out = out + et(a, Y.v) * et(b, X.v) * (et(a, Z.v) * xi(b)
                                               + et(b, Z.v) * xi(a))
        out = out + et(a, Z.v) * (et(b, Y.v) * et(a, X.v)
                                  + et(a, Y.v) * et(b, X.v)) * xi(b)
    return TangentVector(X.base, out)


def cross_check_rbar(structure, samples, scheme=EXACT_FORWARD):
    """Compare the differential and algebraic curvature routes.

    ``samples`` is an iterable of (point, X, Y, Z) with tangent vectors
    at the point.  The round-metric curvature fed to the algebraic route
    comes from the differential pipeline, so the comparison does not
    assume the constant-curvature closed form.
    """
    out = []
    for x, X, Y, Z in samples:
        Xf = VectorField.extension(structure, X)
        Yf = VectorField.extension(structure, Y)
        Zf = VectorField.extension(structure, Z)
        direct = curvature(HC, Xf, Yf, Zf, x, scheme)
        R_lc = curvature(LC, Xf, Yf, Zf, x, scheme)
        algebraic = rbar_algebraic(structure, X, Y, Z, R=R_lc)
        out.append(CurvatureSample(
            point=x, args=(X, Y, Z),
            value_direct=direct.v, value_algebraic=algebraic.v,
            residual=norm(direct.v - algebraic.v)))
    return out


# ============================================================
# traces
# ============================================================

def ricci(structure, kind: ConnectionKind, X: TangentVector, Y: TangentVector,
          seed=0, scheme=EXACT_FORWARD) -> float:
    """Trace of the curvature over an orthonormal basis (4n distribution
    vectors from a seeded frame plus the three Reeb vectors)."""
    X._check_same_base(Y)
    x = X.base
    if kind is ConnectionKind.H_CONNECTION:
        for a in (1, 2, 3):
            if abs(structure.eta(a, X)) > 1e-10 or abs(structure.eta(a, Y)) > 1e-10:
                raise PreconditionError(
                    "the adapted-connection trace is defined for arguments "
                    "inside the distribution H")
    frame = structure.frame_H(x, seed)
    basis = [E.v for E in frame.vectors]
    basis += [structure.reeb_raw(a, x.x) for a in (1, 2, 3)]
    Xf = VectorField.extension(structure, X)
    Yf = VectorField.extension(structure, Y)
    total = 0.0
    for e in basis:
        Ef = VectorField.extension(structure, TangentVector(x, e))
        # slot convention: S(X,Y) = sum_i g(R(E_i, X) Y, E_i)
        total += curvature4(kind, Ef, Xf, Ef, Yf, x, scheme)
    return float(total)


# ============================================================
# sectional curvatures
# ============================================================

def _gram(X: TangentVector, Y: TangentVector):
    return (float(np.dot(X.v, X.v)) * float(np.dot(Y.v, Y.v))
            - float(np.dot(X.v, Y.v)) ** 2)


def sectional(structure, X: TangentVector, Y: TangentVector, convention=+1,
              scheme=EXACT_FORWARD) -> float:
    """Sectional curvature of the round metric on span{X, Y}:
    convention * (-R4(X,Y,X,Y)) / gram.

    ``convention = -1`` flips the leading minus and is the orientation
    under which the round sphere measures +1 (the globally selected
    choice; see the conventions ledger in the report).
    """
    X._check_same_base(Y)
    g = _gram(X, Y)
    if g <= 1e-10:
        raise DegenerateInputError(
            f"the two vectors do not span a plane (Gram determinant {g:.3e})")
    Xf = VectorField.extension(structure, X)
    Yf = VectorField.extension(structure, Y)
    r4 = curvature4(LC, Xf, Yf, Xf, Yf, X.base, scheme)
    return float(convention) * (-r4) / g


def holomorphic_sectional_bar(structure, alpha, X: TangentVector,
                              scheme=EXACT_FORWARD) -> float:
    """The adapted-connection curvature R4-bar(X, phi_a X, X, phi_a X)
    for a unit distribution vector X."""
    if abs(X.norm() - 1.0) > 1e-10:
        raise PreconditionError("X must have unit length")
    if not structure.in_H(X):
        raise PreconditionError("X must lie in the distribution H")
    Xf = VectorField.extension(structure, X)
    Pf = Xf.phi(alpha)
    return curvature4(HC, Xf, Pf, Xf, Pf, X.base, scheme)


# ============================================================
# verifiers
# ============================================================

def sec_rela_data(structure, alpha, X: TangentVector, scheme=EXACT_FORWARD):
    """Residuals of the 'adapted holomorphic value = plane value + 3'
    relation under both sectional conventions."""
    k = holomorphic_sectional_bar(structure, alpha, X, scheme)
    P = structure.phi(alpha, X)
    data = {"k": float(k), "K": {}, "residual": {}}
    for conv in (+1, -1):
        Kc = sectional(structure, X, P, convention=conv, scheme=scheme)
        data["K"][f"{conv:+d}"] = float(Kc)
        data["residual"][f"{conv:+d}"] = abs(k - 3.0 - Kc)
    return data


def cor_xxx_data(structure, X: TangentVector, scheme=EXACT_FORWARD):
    """Both sides of the quadrilinear identity on (X, phi_1 X, phi_2 X,
    phi_3 X): the adapted and round-metric curvature forms agree there."""
    Xf = VectorField.extension(structure, X)
    f1, f2, f3 = (Xf.phi(a) for a in (1, 2, 3))
    lhs = curvature4(HC, Xf, f1, f2, f3, X.base, scheme)
    rhs = curvature4(LC, Xf, f1, f2, f3, X.base, scheme)
    return float(lhs), float(rhs)


def theorem_sec_data(structure, alpha, X: TangentVector, scheme=EXACT_FORWARD):
    """Residual table for the plane-comparison polynomial on the plane
    span{X, phi_a X} for a unit vector X (arbitrary Reeb content).

    The polynomial predicts the adapted plane value from the round one:

        predicted = K + 3 + 4 (eta^b eta^c)^2
                      + 6 (eta^b^4 + eta^c^4) - 8 (eta^b^2 + eta^c^2)

    with (b, c) the two structure indices other than a.  Both curvatures
    are evaluated under both sign conventions; the result carries the
    residual for every (adapted, round) convention combination.
    """
    if abs(X.norm() - 1.0) > 1e-10:
        raise PreconditionError("X must have unit length")
    P = structure.phi(alpha, X)
    g = _gram(X, P)
    if g <= 1e-10:
        raise DegenerateInputError(
            f"the plane degenerates (Gram determinant {g:.3e})")
    others = [b for b in (1, 2, 3) if b != alpha]
    eb = structure.eta(others[0], X)
    ec = structure.eta(others[1], X)
    poly = (3.0 + 4.0 * (eb * ec) ** 2 + 6.0 * (eb ** 4 + ec ** 4)
            - 8.0 * (eb ** 2 + ec ** 2))
    Xf = VectorField.extension(structure, X)
    Pf = VectorField.extension(structure, P)
    r4_bar = curvature4(HC, Xf, Pf, Xf, Pf, X.base, scheme)
    r4 = curvature4(LC, Xf, Pf, Xf, Pf, X.base, scheme)
    data = {
        "eta_components": [float(eb), float(ec)],
        "kbar": {}, "k": {}, "predicted": {}, "residual": {},
    }
    for cb in (+1, -1):
        data["kbar"][f"{cb:+d}"] = float(cb) * (-r4_bar) / g
    for ck in (+1, -1):
        Kc = float(ck) * (-r4) / g
        data["k"][f"{ck:+d}"] = Kc
        data["predicted"][f"{ck:+d}"] = Kc + poly
    for cb in (+1, -1):
        for ck in (+1, -1):
            key = f"{cb:+d}/{ck:+d}"
            data["residual"][key] = abs(
                data["kbar"][f"{cb:+d}"] - data["predicted"][f"{ck:+d}"])
    return data


def verify_symmetries(structure, quads, tol=1e-6, scheme=EXACT_FORWARD):
    """Residuals of the four quadrilinear symmetry families of the
    adapted curvature on distribution arguments.

    ``quads`` is an iterable of (point, X, Y, Z, W) with all four tangent
    vectors in H.  Returns one record per family.
    """
    quads = list(quads)

    def residuals(x, X, Y, Z, W):
        fX, fY, fZ, fW = (VectorField.extension(structure, V)
                          for V in (X, Y, Z, W))
        r = lambda A, B, C, D: curvature4(HC, A, B, C, D, x, scheme)
        yield "first_pair", abs(r(fX, fY, fZ, fW) + r(fY, fX, fZ, fW))
        yield "last_pair", abs(r(fX, fY, fZ, fW) + r(fX, fY, fW, fZ))
        yield "pair_swap", abs(r(fX, fY, fZ, fW) - r(fZ, fW, fX, fY))
        yield "bianchi", abs(r(fX, fY, fW, fZ) + r(fY, fZ, fW, fX)
                             + r(fZ, fX, fW, fY))

    worst = worst_residuals((residuals(*q) for q in quads),
                            ("first_pair", "last_pair", "pair_swap", "bianchi"))
    return [
        make_record(f"curvature.sym_{name}", suite="curvature", kind="check",
                    passed=bool(res <= tol), max_residual=res, tolerance=tol,
                    samples=len(quads))
        for name, res in worst.items()
    ]
