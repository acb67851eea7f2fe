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
give one value per row with the bits of its one-row call; their bodies
run on stacks, one row lifted to a stack of one by
``sphere3s.on_stacks``.  Their nested curvature values come from
``connections._fused_pass``, each slot pattern on its own row block.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .numlin import (
    EXACT_FORWARD,
    DegenerateInputError,
    PreconditionError,
    dot,
    norm,
)
from .sphere3s import TANGENT_TOL, TangentVector, ThreeSasakiStructure, on_stacks
from .connections import (
    HC,
    LC,
    ConnectionKind,
    VectorField,
    _a_raw,
    _cov_raw,
    _fused_pass,
    _join,
    curvature,
    sphere_curvature_oracle,
)
from .records import build_records
from . import connections

_PAIRS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]


# ============================================================
# sample containers
# ============================================================

class CurvatureSample(NamedTuple):
    """Both curvature routes on one argument triple, or on a stack of them
    (one row each)."""

    value_direct: np.ndarray
    value_algebraic: np.ndarray
    residual: object  # a float, or (P, 1) for a stack


# ============================================================
# the algebraic curvature route
# ============================================================

def _in_H(s, U):
    """Whether every row of U lies in the distribution H."""
    eta = [s.eta_raw(a, U.v, U.base.x) for a in (1, 2, 3)]
    return bool(np.all(np.abs(eta) <= TANGENT_TOL))


@on_stacks
def rbar_algebraic(structure: ThreeSasakiStructure, X, Y, Z, R=None):
    """The stated closed-form expansion of the adapted curvature operator
    applied to (X, Y)Z, transcribed literally: three single-index blocks
    summed over a = 1..3 and four double-index blocks summed over ordered
    pairs a != b.  ``R`` is the round-metric curvature value R(X,Y)Z;
    when omitted it is :func:`connections.sphere_curvature_oracle`.

    The expansion is exact for X, Y in H.  When X or Y carries Reeb
    components it is not the curvature of the adapted connection: it
    exceeds :func:`rbar_difference_tensor` by exactly
    :func:`two_route_gap_form`."""
    R = sphere_curvature_oracle(X, Y, Z) if R is None else R
    parts = structure.chunks(X.base.x, X.v, Y.v, Z.v, R.v)
    return TangentVector(X.base, _join([_rbar_rows(structure, *c) for c in parts]))


def _rbar_rows(s, y, Xv, Yv, Zv, out):
    """:func:`rbar_algebraic` on one chunk of rows, each map value made once
    and named as the paper's term reads it (``ppX[a, b]`` is phi_b phi_a X,
    ``epX[a, b]`` is eta^b(phi_a X)): the blocks summed onto ``out``, the
    rows of R(X,Y)Z."""
    xi = {a: s.reeb_raw(a, y) for a in (1, 2, 3)}
    eX, eY, eZ = ({a: dot(xi[a], w) for a in (1, 2, 3)} for w in (Xv, Yv, Zv))
    pX, pY, pZ = ({a: s.phi_raw(a, w, y) for a in (1, 2, 3)} for w in (Xv, Yv, Zv))
    ppX, ppY, ppZ = ({(a, b): s.phi_raw(b, p[a], y) for a, b in _PAIRS} for p in (pX, pY, pZ))
    epX, epY, epZ = ({(a, b): dot(xi[b], p[a]) for a, b in _PAIRS} for p in (pX, pY, pZ))
    gXZ = dot(Xv, Zv)
    gYZ = dot(Yv, Zv)

    for a in (1, 2, 3):
        out = out - 2.0 * dot(Yv, pX[a]) * pZ[a] \
                  - dot(Zv, pX[a]) * pY[a] \
                  + dot(Zv, pY[a]) * pX[a]
        out = out + eX[a] * eZ[a] * Yv - eY[a] * eZ[a] * Xv
        out = out + 2.0 * eY[a] * gXZ * xi[a] - 2.0 * eX[a] * gYZ * xi[a]
    for a, b in _PAIRS:
        out = out - eZ[a] * eY[b] * ppX[a, b] \
                  + eZ[a] * eX[b] * ppY[a, b]
        out = out + 2.0 * eY[a] * eX[b] * ppZ[a, b] \
                  + 2.0 * eZ[a] * dot(Xv, ppY[a, b]) * xi[b]
        out = out - eX[a] * dot(Yv, ppZ[a, b]) * xi[b] \
                  + eY[a] * dot(Xv, ppZ[a, b]) * xi[b]
        out = out + eY[a] * epZ[a, b] * pX[b] \
                  + eZ[a] * epY[a, b] * pX[b]
        out = out - eX[a] * epZ[a, b] * pY[b] \
                  - eZ[a] * epX[a, b] * pY[b]
    return s.tangent_project_raw(out, y)


@on_stacks
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
        Vf, Wf = VectorField.extension(s, V), VectorField.extension(s, W)
        field = lambda q: _a_raw(s, Vf(q), Wf(q), q)
        return _cov_raw(s, U.v, field, y, EXACT_FORWARD, False)[LC]

    A = lambda u, w: _a_raw(s, u, w, y)
    out = (R.v + nabla_A(X, Y, Z) - nabla_A(Y, X, Z)
           + A(X.v, A(Y.v, Z.v)) - A(Y.v, A(X.v, Z.v)))
    return TangentVector(X.base, s.tangent_project_raw(out, y))


@on_stacks
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
    s, y = structure, X.base.x
    Xv, Yv, Zv = (s.project_h_raw(V.v, y) for V in (X, Y, Z))
    out = dot(Yv, Zv) * Xv - dot(Xv, Zv) * Yv
    for a in (1, 2, 3):
        pX, pY, pZ = (s.phi_raw(a, w, y) for w in (Xv, Yv, Zv))
        out = out + (dot(Zv, pY) * pX - dot(Zv, pX) * pY
                     + 2.0 * dot(Xv, pY) * pZ)
    return TangentVector(X.base, out)


@on_stacks
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
    parts = structure.chunks(X.base.x, X.v, Y.v, Z.v)
    return TangentVector(X.base, _join([_gap_rows(structure, *c) for c in parts]))


def _gap_rows(s, y, Xv, Yv, Zv):
    """:func:`two_route_gap_form` on one chunk of rows, each map value made
    once."""
    xi = {a: s.reeb_raw(a, y) for a in (1, 2, 3)}
    eX, eY, eZ = ({a: dot(xi[a], w) for a in (1, 2, 3)} for w in (Xv, Yv, Zv))
    gXZ = dot(Xv, Zv)
    gYZ = dot(Yv, Zv)
    out = np.zeros_like(y)
    for a in (1, 2, 3):
        out = out + (eY[a] * gXZ - eX[a] * gYZ) * xi[a]
    for a, b in _PAIRS:
        out = out + eY[a] * eX[b] * (eZ[a] * xi[b] + eZ[b] * xi[a])
        out = out + eZ[a] * (eY[b] * eX[a] + eY[a] * eX[b]) * xi[b]
    return out


@on_stacks
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

@on_stacks
def ricci(structure, kind: ConnectionKind, X: TangentVector, Y: TangentVector,
          scheme=EXACT_FORWARD, *, seed=0):
    """Trace of the curvature, S(X,Y) = sum_k g(R(P e_k, X) Y, P e_k),
    over the d ambient unit vectors e_k projected to T_xM by P.  As
    sum_k P e_k (x) P e_k = P, it is the trace over any orthonormal basis
    of T_xM (Kobayashi-Nomizu I, ch. III), with no random draw.  ``seed``
    is ignored; it is accepted so that callers passing it (the
    benchmark's scaling sweep) still run.

    A list of ``Y`` gives the list of their traces (none: ``[]``), the J
    of them on axis 1 of one field, so what depends only on the basis
    and on X is made once for all.  The basis is the extension field
    y -> e_k - <e_k, y> y of identity rows, one row that serves every
    point, on axis 2, in blocks of max(CURVATURE_CHUNK, d^2) // (J d)
    vectors, so no pass holds more floats per point than one Y's whole
    basis: one nested pass per block gives R(P e_k, X) Y_j for each k of
    it and every j.  One fold 0 + t_0 + t_1 + ... over k = 0 .. d - 1
    runs on across the blocks.  One row gives a float, a stack (P, 1)."""
    Ys = Y if isinstance(Y, list) else [Y]
    if kind is HC and not all(_in_H(structure, V) for V in (X, *Ys)):
        raise PreconditionError(
            "the adapted-connection trace is defined for arguments "
            "inside the distribution H")
    if not Ys:
        return []
    # the point and X of length 1 on axes 1, 2
    y = X.base.x[:, None, None]
    d, J = structure.ambient_dim, len(Ys)
    Xf = VectorField.extension(structure, X.v[:, None, None])
    Yf = VectorField.extension(structure, np.stack([V.v for V in Ys], 1)[:, :, None])
    b = max(1, max(connections.CURVATURE_CHUNK, d * d) // (J * d))
    S = np.zeros((len(y), J, 1))  # 0 + t_0 + t_1 + ..., folded block by block
    for k in range(0, d, b):  # the rows e_k .. e_{k+b-1} of the identity
        Ef = VectorField.extension(structure, np.eye(min(b, d - k), d, k)[None, None])
        t = _fused_pass(structure, kind, [(Ef, Xf, Yf, Ef)], y, scheme)[0]
        for i in range(t.shape[2]):
            S = S + t[:, :, i]
    S = list(S.swapaxes(0, 1))
    return S if isinstance(Y, list) else S[0]


# ============================================================
# sectional curvatures
# ============================================================

# np.float_power, not numpy's ``**``, which differs from Python's float
# power in the last bit on some values: float_power has its bits on every row
def _gram(Xv, Yv):
    return dot(Xv, Xv) * dot(Yv, Yv) - np.float_power(dot(Xv, Yv), 2)


def _signed(value):
    """A plane value under each ``plane-normalization`` sign; negation
    is exact in floating point."""
    return {"+1": value, "-1": -value}


def _plane(structure, Xv, Yv):
    """The pattern of R4(X,Y,X,Y) = g(R(X,Y)Y, X) on the extensions of the
    rows Xv, Yv, and the plane value r -> -r / gram of its value r.  No row
    may let the Gram determinant vanish."""
    g = _gram(Xv, Yv)
    gs = np.ravel(g)
    bad = gs <= 1e-10
    if bad.any():
        raise DegenerateInputError(
            f"the two vectors do not span a plane (Gram determinant {gs[bad][0]:.3e})")
    Xf, Yf = (VectorField.extension(structure, v) for v in (Xv, Yv))
    return (Xf, Yf, Yf, Xf), lambda r: -r / g


def _require_unit(X):
    """Reject X unless every row has unit length."""
    if np.any(np.abs(X.norm() - 1.0) > 1e-10):
        raise PreconditionError("X must have unit length")


@on_stacks
def sectional(structure, X, Y, scheme=EXACT_FORWARD):
    """The round-metric plane value of span{X, Y}, taken literally:
    -R4(X,Y,X,Y) / gram, which is -1 on every round plane.  Callers
    multiply by the report's measured ``plane-normalization`` sign, the
    one that makes round planes measure +1.
    """
    plane, value = _plane(structure, X.v, Y.v)
    return value(_fused_pass(structure, LC, [plane], X.base.x, scheme)[0])


@on_stacks
def holomorphic_sectional_bar(structure, alpha, X, scheme=EXACT_FORWARD):
    """The adapted-connection curvature R4-bar(X, phi_a X, X, phi_a X)
    for a unit distribution vector X: the adapted plane value under the
    selected normalization (-1), the unit Gram determinant left out."""
    return _fused_pass(structure, HC, [_holomorphic(structure, alpha, X)],
                       X.base.x, scheme)[0]


def _holomorphic(structure, alpha, X):
    """The pattern of R4-bar(X, phi_a X, X, phi_a X), for X of unit length
    in H."""
    _require_unit(X)
    if not _in_H(structure, X):
        raise PreconditionError("X must lie in the distribution H")
    Xf = VectorField.extension(structure, X)
    Pf = Xf.phi(alpha)
    return (Xf, Pf, Pf, Xf)


def _cor_xxx(structure, X):
    """The pattern of R4(X, phi_1 X, phi_2 X, phi_3 X)."""
    Xf = VectorField.extension(structure, X)
    f1, f2, f3 = (Xf.phi(a) for a in (1, 2, 3))
    return (Xf, f1, f3, f2)


# ============================================================
# verifiers
# ============================================================

@on_stacks
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
    _require_unit(X)
    # P = phi_a X on one row chunk at a time, the rows a one-pattern pass
    # holds: held for all rows, it would grow the suite's peak with them
    planes = {HC: [], LC: []}
    for y, Xv in structure.chunks(X.base.x, X.v):
        plane, value = _plane(structure, Xv, structure.phi_raw(alpha, Xv, y))
        for kind, v in planes.items():
            v.append(value(_fused_pass(structure, kind, [plane], y, scheme)[0]))
    kbar, k = (_signed(_join(v)) for v in planes.values())
    b, c = (i for i in (1, 2, 3) if i != alpha)
    eb, ec = (structure.eta_raw(i, X.v, X.base.x) for i in (b, c))
    pw = np.float_power  # as in _gram
    poly = (3.0 + 4.0 * pw(eb * ec, 2) + 6.0 * (pw(eb, 4) + pw(ec, 4))
            - 8.0 * (pw(eb, 2) + pw(ec, 2)))
    predicted = {ck: Kc + poly for ck, Kc in k.items()}
    return {
        "eta_components": [eb, ec],
        "kbar": kbar, "k": k, "predicted": predicted,
        "residual": {f"{cb}/{ck}": abs(kb - pk) for cb, kb in kbar.items()
                     for ck, pk in predicted.items()},
    }


_SYMMETRY_KEYS = ("XYZW", "YXZW", "XYWZ", "ZWXY", "YZWX", "ZXWY")


@on_stacks
def verify_symmetries(structure, quad, tol=1e-6, scheme=EXACT_FORWARD):
    """Residuals of the four quadrilinear symmetry families of the
    adapted curvature on distribution arguments.

    ``quad`` is a (point, X, Y, Z, W) tuple with all four tangent vectors
    in H, one row or a stack (vectors at another point raise
    ``StructuralError``).  Returns one record per family; the six
    quadrilinear values come from one nested pass per chunk.
    """
    x, *args = quad
    values = _fused_pass(structure, HC, _symmetry_patterns(structure, args),
                         x.x, scheme)
    return [r for r in build_records("curvature", len(x.x),
                                     _symmetry_residuals(values), (tol, tol))
            if r.id.startswith("curvature.sym_")]


def _symmetry_patterns(structure, args):
    """R4 on the slots of each of ``_SYMMETRY_KEYS`` over (X, Y, Z, W):
    "XYWZ" is R4(X, Y, W, Z) = g(R(X,Y)Z, W)."""
    f = dict(zip("XYZW", (VectorField.extension(structure, V) for V in args)))
    return [(f[k[0]], f[k[1]], f[k[3]], f[k[2]]) for k in _SYMMETRY_KEYS]


def _symmetry_residuals(values):
    """The residual pairs of the four symmetry families from the six
    values of ``_symmetry_patterns``."""
    q = dict(zip(_SYMMETRY_KEYS, values))
    yield "curvature.sym_first_pair", abs(q["XYZW"] + q["YXZW"])
    yield "curvature.sym_last_pair", abs(q["XYZW"] + q["XYWZ"])
    yield "curvature.sym_pair_swap", abs(q["XYZW"] - q["ZWXY"])
    yield "curvature.sym_bianchi", abs(q["XYWZ"] + q["YZWX"] + q["ZXWY"])
