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
give one value per row with the bits of its one-row call.  Their nested
curvature values come from ``connections._fused_pass``, each slot
pattern on its own row block.
"""

from __future__ import annotations

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
    HC,
    LC,
    ConnectionKind,
    VectorField,
    _a_raw,
    _cov_raw,
    _fused_pass,
    _cut,
    curvature,
    sphere_curvature_oracle,
)
from .records import build_records

_PAIRS = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3) if a != b]


# ============================================================
# sample containers
# ============================================================

class CurvatureSample:
    """Both curvature routes on one argument triple, or on a stack of them
    (one row each)."""

    def __init__(self, value_direct, value_algebraic, residual):
        self.value_direct, self.value_algebraic = value_direct, value_algebraic
        self.residual = residual  # a float, or (P, 1) for a stack


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
          scheme=EXACT_FORWARD, *, seed=0):
    """Trace of the curvature, S(X,Y) = sum_k g(R(P e_k, X) Y, P e_k),
    over the d ambient unit vectors e_k projected to T_xM by P.  As
    sum_k P e_k (x) P e_k = P, it is the trace over any orthonormal basis
    of T_xM (Kobayashi-Nomizu I, ch. III), with no random draw.  ``seed``
    is ignored; it is accepted so that callers passing it (the
    benchmark's scaling sweep) still run.

    The basis is the extension field y -> e_k - <e_k, y> y of the
    identity rows, one row that serves every point, on the axis before
    the last, so one nested curvature evaluation gives R(P e_k, X)Y for every k
    (and every row of a stacked ``X``, ``Y``); the terms are summed in
    the order k = 0 .. d - 1.  One row gives a float, a stack shape
    ``(P, 1)``.  A list of ``Y`` gives the list of their traces, each
    ``Y`` a slot pattern of the same fused pass over the same basis."""
    Ys = Y if isinstance(Y, list) else [Y]
    X._check_same_base(*Ys)
    if kind is HC and not all(
            _in_H(structure, V) for V in (X, *Ys)):
        raise PreconditionError(
            "the adapted-connection trace is defined for arguments "
            "inside the distribution H")
    # a one-row call as a stack of one; the basis on the axis before the
    # last, where the point, X and Y have length 1
    y = np.atleast_2d(X.base.x)[:, None]
    d = structure.ambient_dim
    Ef = VectorField.extension(structure, np.eye(d)[None])
    Xf, *Yf = (VectorField.extension(structure, np.atleast_2d(V.v)[:, None])
               for V in (X, *Ys))
    S = [sum(t[:, k] for k in range(d)) for t in _fused_pass(
        structure, kind, [(Ef, Xf, F, Ef) for F in Yf], y, scheme)]
    S = S if X.v.ndim > 1 else [float(t[0, 0]) for t in S]
    return S if isinstance(Y, list) else S[0]


# ============================================================
# sectional curvatures
# ============================================================

def _pow(v, k):
    """v ** k with the bits of Python's float power on every row (numpy's
    ``**`` differs in the last bit on some values); a float stays a float."""
    p = np.float_power(v, k)
    return p if np.ndim(p) else float(p)


def _gram(X: TangentVector, Y: TangentVector):
    return dot(X.v, X.v) * dot(Y.v, Y.v) - _pow(dot(X.v, Y.v), 2)


def _signed(value):
    """A plane value under each ``plane-normalization`` sign; negation
    is exact in floating point."""
    return {"+1": value, "-1": -value}


def _plane(structure, X, Y, Yf=None):
    """The pattern of R4(X,Y,X,Y) = g(R(X,Y)Y, X) on the extensions of the
    vectors (``Yf``: that of Y, if given), and the plane value r -> -r / gram
    of its value r.  No row may let the Gram determinant vanish."""
    X._check_same_base(Y)
    g = _gram(X, Y)
    gs = np.ravel(g)
    bad = gs <= 1e-10
    if bad.any():
        raise DegenerateInputError(
            f"the two vectors do not span a plane (Gram determinant {gs[bad][0]:.3e})")
    Xf = VectorField.extension(structure, X)
    Yf = Yf or VectorField.extension(structure, Y)
    return (Xf, Yf, Yf, Xf), lambda r: -r / g


def _require_unit(X):
    """Reject X unless every row has unit length."""
    if np.any(np.abs(X.norm() - 1.0) > 1e-10):
        raise PreconditionError("X must have unit length")


def sectional(structure, X, Y, scheme=EXACT_FORWARD):
    """The round-metric plane value of span{X, Y}, taken literally:
    -R4(X,Y,X,Y) / gram, which is -1 on every round plane.  Callers
    multiply by the report's measured ``plane-normalization`` sign, the
    one that makes round planes measure +1.
    """
    plane, value = _plane(structure, X, Y)
    return value(_fused_pass(structure, LC, [plane], X.base.x, scheme)[0])


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
    # the passes make P = phi_a X again for each chunk
    P = lambda c: structure.phi_raw(alpha, _cut(X.v, c), _cut(X.base.x, c))
    plane, value = _plane(structure, X, TangentVector(X.base, P(None)),
                          VectorField.extension(structure, P))
    kbar, k = (_signed(value(_fused_pass(structure, kind, [plane], X.base.x,
                                         scheme)[0])) for kind in (HC, LC))
    b, c = (i for i in (1, 2, 3) if i != alpha)
    eb, ec = (structure.eta_raw(i, X.v, X.base.x) for i in (b, c))
    poly = (3.0 + 4.0 * _pow(eb * ec, 2) + 6.0 * (_pow(eb, 4) + _pow(ec, 4))
            - 8.0 * (_pow(eb, 2) + _pow(ec, 2)))
    predicted = {ck: Kc + poly for ck, Kc in k.items()}
    return {
        "eta_components": [eb, ec],
        "kbar": kbar, "k": k, "predicted": predicted,
        "residual": {f"{cb}/{ck}": abs(kb - pk) for cb, kb in kbar.items()
                     for ck, pk in predicted.items()},
    }


_SYMMETRY_KEYS = ("XYZW", "YXZW", "XYWZ", "ZWXY", "YZWX", "ZXWY")


def verify_symmetries(structure, quad, tol=1e-6, scheme=EXACT_FORWARD):
    """Residuals of the four quadrilinear symmetry families of the
    adapted curvature on distribution arguments.

    ``quad`` is a (point, X, Y, Z, W) tuple with all four tangent vectors
    in H, one row or a stack (vectors at another point raise
    ``StructuralError``).  Returns one record per family; the six
    quadrilinear values come from one nested pass per chunk.
    """
    x, *args = quad
    args[0]._check_same_base(*args[1:], x)
    values = _fused_pass(structure, HC, _symmetry_patterns(structure, args),
                         x.x, scheme)
    return [r for r in build_records("curvature", len(np.atleast_2d(x.x)),
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
