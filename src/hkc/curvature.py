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

The closed forms, plane values and verifiers take a tangent vector per
vector argument, or equal-length sequences of them (one row each, at its
own point) and then return a list, one result per row.  Each nested
curvature value they need is one pass of ``connections.curvature`` over
all rows, and each row has the bits of its one-row call;
:func:`cross_check_rbar` and :func:`verify_symmetries` stack all their
samples this way.
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
from .sphere3s import TANGENT_TOL, SpherePoint, TangentVector, ThreeSasakiStructure
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

def _rows(X):
    """One tangent vector as a row, or a sequence of them as rows, and
    whether it was a sequence (the result is then a list, one per row)."""
    return ([X], False) if isinstance(X, TangentVector) else (list(X), True)


def _in_H(s, U):
    return max(abs(s.eta_raw(a, U.v, U.base.x)) for a in (1, 2, 3)) <= TANGENT_TOL


def _stacked(kernel, structure, *args):
    """Apply ``kernel(structure, y, *arrays)``, a closed form over stacked
    ambient arrays, to tangent vectors at one base point, or row by row to
    equal-length sequences of them."""
    (first, many), *rest = (_rows(V) for V in args)
    rows = list(zip(first, *(r for r, _ in rest)))
    for row in rows:
        for V in row[1:]:
            row[0]._check_same_base(V)
    bases = [row[0].base for row in rows]
    arrays = (np.array([V.v for V in col]) for col in zip(*rows))
    out = kernel(structure, np.array([b.x for b in bases]), *arrays) if rows else []
    out = [TangentVector(b, r) for b, r in zip(bases, out)]
    return out if many else out[0]


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
    return _stacked(_rbar_algebraic_raw, structure, X, Y, Z,
                    *(() if R is None else (R,)))


def _rbar_algebraic_raw(s, y, Xv, Yv, Zv, Rv=None):
    et = lambda a, w: s.eta_raw(a, w, y)
    om = lambda a, u, w: s.omega_raw(a, u, w, y)
    phi = lambda a, w: s.phi_raw(a, w, y)
    xi = lambda a: s.reeb_raw(a, y)
    gXZ = dot(Xv, Zv)
    gYZ = dot(Yv, Zv)

    out = gYZ * Xv - gXZ * Yv if Rv is None else Rv
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
    return s.tangent_project_raw(out, y)


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
    return _stacked(_two_route_gap_raw, structure, X, Y, Z)


def _two_route_gap_raw(s, y, Xv, Yv, Zv):
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
    return out


def cross_check_rbar(structure, samples, scheme=EXACT_FORWARD):
    """Compare the differential and algebraic curvature routes.

    ``samples`` is an iterable of (point, X, Y, Z) with tangent vectors
    at the point.  The round-metric curvature fed to the algebraic route
    comes from the differential pipeline, so the comparison does not
    assume the constant-curvature closed form.
    """
    samples = list(samples)
    points = [t[0] for t in samples]
    X, Y, Z = ([t[k] for t in samples] for k in (1, 2, 3))
    fields = [VectorField.extension(structure, V) for V in (X, Y, Z)]
    direct = curvature(HC, *fields, points, scheme)
    R_lc = curvature(LC, *fields, points, scheme)
    algebraic = rbar_algebraic(structure, X, Y, Z, R=R_lc)
    return [CurvatureSample(point=t[0], args=tuple(t[1:]), value_direct=d.v,
                            value_algebraic=a.v, residual=norm(d.v - a.v))
            for t, d, a in zip(samples, direct, algebraic)]


# ============================================================
# traces
# ============================================================

def ricci(structure, kind: ConnectionKind, X: TangentVector, Y: TangentVector,
          seed=0, scheme=EXACT_FORWARD) -> float:
    """Trace of the curvature over an orthonormal basis (4n distribution
    vectors from a seeded frame plus the three Reeb vectors), in the slot
    convention S(X,Y) = sum_i g(R(E_i, X) Y, E_i).

    The basis enters as one stacked extension field, so a single nested
    curvature evaluation gives R(E_i, X)Y for every i; the terms are
    summed in basis order."""
    X._check_same_base(Y)
    x = X.base
    if kind is ConnectionKind.H_CONNECTION and not all(
            _in_H(structure, V) for V in (X, Y)):
        raise PreconditionError(
            "the adapted-connection trace is defined for arguments "
            "inside the distribution H")
    basis = [E.v for E in structure.frame_H(x, seed)]
    basis += [structure.reeb_raw(a, x.x) for a in (1, 2, 3)]
    Ef = structure.extension_raw(np.array(basis))
    R = _curvature_raw(structure, kind, Ef, structure.extension_raw(X.v),
                       structure.extension_raw(Y.v), x.x, scheme)
    total = 0.0
    for r, e in zip(R, Ef(x.x)):
        total += float(np.dot(r, e))
    return total


# ============================================================
# sectional curvatures
# ============================================================

def _gram(X: TangentVector, Y: TangentVector):
    return (float(np.dot(X.v, X.v)) * float(np.dot(Y.v, Y.v))
            - float(np.dot(X.v, Y.v)) ** 2)


def _signed(value):
    """A plane value under each ``plane-normalization`` sign; negation
    is exact in floating point."""
    return {"+1": value, "-1": -value}


def _plane_values(structure, kind, Xs, Ys, scheme):
    """-R4(X,Y,X,Y) / gram for each pair of rows, from one nested pass of
    the connection ``kind`` over the extensions of the vectors."""
    grams = []
    for U, V in zip(Xs, Ys):
        U._check_same_base(V)
        g = _gram(U, V)
        if g <= 1e-10:
            raise DegenerateInputError(
                f"the two vectors do not span a plane (Gram determinant {g:.3e})")
        grams.append(g)
    Xf = VectorField.extension(structure, Xs)
    Yf = VectorField.extension(structure, Ys)
    R4 = curvature4(kind, Xf, Yf, Xf, Yf, [U.base for U in Xs], scheme)
    return [-r / g for r, g in zip(R4, grams)]


def sectional(structure, X, Y, scheme=EXACT_FORWARD):
    """The round-metric plane value of span{X, Y}, taken literally:
    -R4(X,Y,X,Y) / gram, which is -1 on every round plane.  Callers
    multiply by the report's measured ``plane-normalization`` sign, the
    one that makes round planes measure +1.
    """
    Xs, many = _rows(X)
    out = _plane_values(structure, LC, Xs, _rows(Y)[0], scheme)
    return out if many else out[0]


def holomorphic_sectional_bar(structure, alpha, X, scheme=EXACT_FORWARD):
    """The adapted-connection curvature R4-bar(X, phi_a X, X, phi_a X)
    for a unit distribution vector X: the adapted plane value under the
    selected normalization (-1), the unit Gram determinant left out."""
    Xs, many = _rows(X)
    for U in Xs:
        if abs(U.norm() - 1.0) > 1e-10:
            raise PreconditionError("X must have unit length")
        if not _in_H(structure, U):
            raise PreconditionError("X must lie in the distribution H")
    Xf = VectorField.extension(structure, Xs)
    Pf = Xf.phi(alpha)
    out = curvature4(HC, Xf, Pf, Xf, Pf, [U.base for U in Xs], scheme)
    return out if many else out[0]


# ============================================================
# verifiers
# ============================================================

def sec_rela_data(structure, alpha, X, scheme=EXACT_FORWARD):
    """The 'adapted holomorphic value = plane value + 3' relation on
    span{X, phi_a X}.  ``"k"`` is :func:`holomorphic_sectional_bar`;
    ``"K"`` maps each plane normalization (``"+1"``, ``"-1"``) to that
    sign times :func:`sectional`, and ``"residual"`` to |k - 3 - K|.
    """
    Xs, many = _rows(X)
    ks = holomorphic_sectional_bar(structure, alpha, Xs, scheme)
    Ps = [TangentVector(U.base, structure.phi_raw(alpha, U.v, U.base.x))
          for U in Xs]
    Ks = sectional(structure, Xs, Ps, scheme)
    out = [{"k": k, "K": K,
            "residual": {c: abs(k - 3.0 - Kc) for c, Kc in K.items()}}
           for k, K in zip(ks, map(_signed, Ks))]
    return out if many else out[0]


def cor_xxx_data(structure, X, scheme=EXACT_FORWARD):
    """Both sides of the quadrilinear identity on (X, phi_1 X, phi_2 X,
    phi_3 X): the adapted and round-metric curvature forms agree there."""
    Xs, many = _rows(X)
    Xf = VectorField.extension(structure, Xs)
    f1, f2, f3 = (Xf.phi(a) for a in (1, 2, 3))
    points = [U.base for U in Xs]
    out = list(zip(curvature4(HC, Xf, f1, f2, f3, points, scheme),
                   curvature4(LC, Xf, f1, f2, f3, points, scheme)))
    return out if many else out[0]


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
    Xs, many = _rows(X)
    for U in Xs:
        if abs(U.norm() - 1.0) > 1e-10:
            raise PreconditionError("X must have unit length")
    Ps = [TangentVector(U.base, structure.phi_raw(alpha, U.v, U.base.x))
          for U in Xs]
    kbars, ks = (_plane_values(structure, kind, Xs, Ps, scheme)
                 for kind in (HC, LC))
    b, c = (i for i in (1, 2, 3) if i != alpha)
    out = []
    for U, kbar, k in zip(Xs, kbars, ks):
        eb, ec = (structure.eta_raw(i, U.v, U.base.x) for i in (b, c))
        poly = (3.0 + 4.0 * (eb * ec) ** 2 + 6.0 * (eb ** 4 + ec ** 4)
                - 8.0 * (eb ** 2 + ec ** 2))
        kbar, k = _signed(kbar), _signed(k)
        predicted = {ck: Kc + poly for ck, Kc in k.items()}
        out.append({
            "eta_components": [float(eb), float(ec)],
            "kbar": kbar, "k": k, "predicted": predicted,
            "residual": {f"{cb}/{ck}": abs(kb - pk) for cb, kb in kbar.items()
                         for ck, pk in predicted.items()},
        })
    return out if many else out[0]


def verify_symmetries(structure, quads, tol=1e-6, scheme=EXACT_FORWARD):
    """Residuals of the four quadrilinear symmetry families of the
    adapted curvature on distribution arguments.

    ``quads`` is an iterable of (point, X, Y, Z, W) with all four tangent
    vectors in H.  Returns one record per family.
    """
    quads = list(quads)
    points = [q[0] for q in quads]
    f = {c: VectorField.extension(structure, [q[k] for q in quads])
         for k, c in enumerate("XYZW", 1)}
    # r["XYWZ"][i] is R4(X, Y, W, Z) on quad i
    r = {key: curvature4(HC, *(f[c] for c in key), points, scheme)
         for key in ("XYZW", "YXZW", "XYWZ", "ZWXY", "YZWX", "ZXWY")}

    def residuals(i):
        q = {key: values[i] for key, values in r.items()}
        yield "first_pair", abs(q["XYZW"] + q["YXZW"])
        yield "last_pair", abs(q["XYZW"] + q["XYWZ"])
        yield "pair_swap", abs(q["XYZW"] - q["ZWXY"])
        yield "bianchi", abs(q["XYWZ"] + q["YZWX"] + q["ZXWY"])

    worst = worst_residuals(map(residuals, range(len(quads))),
                            ("first_pair", "last_pair", "pair_swap", "bianchi"))
    return [
        make_record(f"curvature.sym_{name}", suite="curvature", kind="check",
                    passed=bool(res <= tol), max_residual=res, tolerance=tol,
                    samples=len(quads))
        for name, res in worst.items()
    ]
