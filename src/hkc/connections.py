"""Vector fields, both connections, torsion, and curvature evaluation.

Two connections act on the model:

* the Levi-Civita connection of the round metric, realized by the Gauss
  formula (ambient directional derivative followed by tangential
  projection), and
* the distribution-adapted metric connection, written ``nabla-bar``
  throughout: it parallelizes the three Reeb fields, preserves the
  distribution H, and restricts to a metric connection on H.

``nabla-bar`` differs from Levi-Civita by the explicit difference tensor

    A(X, Y) = eta^a(X) phi_a Y + eta^a(Y) phi_a X + Omega^a(X, Y) xi_a

(summation over a = 1, 2, 3).  The typed entry point evaluates the
connection both through this substituted closed form and through its
definitional form in terms of covariant derivatives of the Reeb fields,
and insists the two agree; nested (curvature) evaluation uses the closed
form, which is cheap and dual-generic.

Curvature is evaluated literally as

    R(X, Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z

by pushing nested dual numbers through the field closures.  The
quadrilinear form uses the slot convention

    R4(X, Y, Z, W) := g(R(X, Y)W, Z).
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .numlin import (
    EXACT_FORWARD,
    InternalConsistencyError,
    StructuralError,
    bracket_raw,
    directional_derivative,
    dot,
    norm,
)
from .sphere3s import SpherePoint, TangentVector, ThreeSasakiStructure

__all__ = [
    "ConnectionKind",
    "VectorField",
    "lie_bracket",
    "cov_deriv",
    "sasaki_defect",
    "torsion",
    "curvature",
    "curvature4",
    "nabla_bar_phi_defect",
    "sphere_curvature_oracle",
    "HFORM_AGREE_TOL",
]

HFORM_AGREE_TOL = 1e-9
BRACKET_TANGENCY_TOL = 1e-9


class ConnectionKind(Enum):
    LEVI_CIVITA = "levi-civita"
    H_CONNECTION = "h-connection"


# ============================================================
# vector fields
# ============================================================

class VectorField:
    """A smooth tangent field given by a raw closure ``y -> ambient vector``.

    The closure must be dual-generic (accept :class:`~hkc.numlin.Dual`
    inputs), which every combinator here preserves.  Calling the field on
    a raw array evaluates the closure; ``at`` evaluates at a validated
    point and returns a checked :class:`TangentVector`.
    """

    def __init__(self, structure, func):
        self.structure = structure
        self._func = func

    def __call__(self, y):
        return self._func(y)

    def at(self, x: SpherePoint) -> TangentVector:
        return TangentVector(x, self._func(x.x))

    # ----- constructors -----

    @classmethod
    def extension(cls, structure, X: TangentVector):
        """Canonical global extension of a single tangent vector:
        y -> v - <v, y> y."""
        return cls(structure, structure.extension_raw(X.v))

    @classmethod
    def reeb(cls, structure, alpha):
        return cls(structure, lambda y: structure.reeb_raw(alpha, y))

    # ----- combinators -----

    def phi(self, alpha):
        s = self.structure
        f = self._func
        return VectorField(s, lambda y: s.phi_raw(alpha, f(y), y))

    def project_H(self):
        s = self.structure
        f = self._func
        return VectorField(s, lambda y: s.project_h_raw(f(y), y))


def _common_structure(*fields):
    s = fields[0].structure
    for f in fields[1:]:
        if f.structure is not s:
            raise StructuralError("vector fields belong to different structures")
    return s


# ============================================================
# raw engine (dual-generic)
# ============================================================

def _a_raw(s: ThreeSasakiStructure, u, w, y):
    """The difference tensor A(u, w) at y, for ambient tangent values."""
    out = None
    for a in (1, 2, 3):
        xi = s.reeb_raw(a, y)
        term = (dot(xi, u) * s.phi_raw(a, w, y)
                + dot(xi, w) * s.phi_raw(a, u, y)
                + s.omega_raw(a, u, w, y) * xi)
        out = term if out is None else out + term
    return out


def _cov_raw(s, kind, Xf, Yf, y, scheme):
    """Covariant derivative of the field closure Yf along the field
    closure Xf, at y.  Dual-generic in y.  The lower slot is tensorial,
    so a fixed direction w enters as the constant closure ``lambda y: w``."""
    d = directional_derivative(Yf, y, Xf(y), scheme)
    lc = d - dot(d, y) * y
    if kind is ConnectionKind.LEVI_CIVITA:
        return lc
    return lc + _a_raw(s, Xf(y), Yf(y), y)


def _h_definitional_raw(s, Xf, Yf, y, scheme):
    """The adapted derivative written through Levi-Civita derivatives of
    the Reeb fields instead of the pointwise correction tensor."""
    defn = _cov_raw(s, ConnectionKind.LEVI_CIVITA, Xf, Yf, y, scheme)
    Xv, Yv = Xf(y), Yf(y)
    for a in (1, 2, 3):
        xi_f = VectorField.reeb(s, a)
        d_xi_X = _cov_raw(s, ConnectionKind.LEVI_CIVITA, Xf, xi_f, y, scheme)
        d_xi_Y = _cov_raw(s, ConnectionKind.LEVI_CIVITA, Yf, xi_f, y, scheme)
        defn = (defn
                - s.eta_raw(a, Xv, y) * d_xi_Y
                - s.eta_raw(a, Yv, y) * d_xi_X
                + s.omega_raw(a, Xv, Yv, y) * s.reeb_raw(a, y))
    return defn


# ============================================================
# typed operations
# ============================================================

def lie_bracket(X: VectorField, Y: VectorField, x: SpherePoint,
                scheme=EXACT_FORWARD) -> TangentVector:
    s = _common_structure(X, Y)
    raw = bracket_raw(X, Y, x.x, scheme)
    drift = abs(float(np.dot(raw, x.x)))
    if drift >= BRACKET_TANGENCY_TOL:
        raise InternalConsistencyError(
            f"bracket of tangent fields drifted off the tangent space "
            f"by {drift:.3e}")
    return TangentVector(x, s.tangent_project_raw(raw, x.x))


def cov_deriv(kind: ConnectionKind, X: VectorField, Y: VectorField,
              x: SpherePoint, scheme=EXACT_FORWARD) -> TangentVector:
    """Covariant derivative at a point.

    For the adapted connection the result is additionally recomputed
    through the definitional form (Levi-Civita derivatives of the Reeb
    fields); disagreement beyond ``HFORM_AGREE_TOL`` raises
    :class:`InternalConsistencyError`, which would signal a broken
    first-derivative identity of the structure.
    """
    s = _common_structure(X, Y)
    out = _cov_raw(s, kind, X, Y, x.x, scheme)
    if kind is ConnectionKind.H_CONNECTION:
        defn = _h_definitional_raw(s, X, Y, x.x, scheme)
        gap = norm(out - defn)
        if gap >= HFORM_AGREE_TOL:
            raise InternalConsistencyError(
                f"the two forms of the adapted connection disagree by "
                f"{gap:.3e} (>= {HFORM_AGREE_TOL:g})")
    return TangentVector(x, s.tangent_project_raw(out, x.x))


def h_form_gap(X: VectorField, Y: VectorField, x: SpherePoint,
               scheme=EXACT_FORWARD) -> float:
    """Disagreement between the substituted and the definitional forms of
    the adapted covariant derivative at x (zero when the structure's
    first-derivative identities hold)."""
    s = _common_structure(X, Y)
    sub = _cov_raw(s, ConnectionKind.H_CONNECTION, X, Y, x.x, scheme)
    defn = _h_definitional_raw(s, X, Y, x.x, scheme)
    return float(norm(sub - defn))


def sasaki_defect(alpha, X: VectorField, Y: VectorField, x: SpherePoint,
                  scheme=EXACT_FORWARD) -> TangentVector:
    """(nabla_X phi_a)Y - g(X,Y) xi_a + eta^a(Y) X at x; zero on the
    round sphere certifies the a-th structure."""
    s = _common_structure(X, Y)
    lc = ConnectionKind.LEVI_CIVITA
    d_phiY = _cov_raw(s, lc, X, Y.phi(alpha), x.x, scheme)
    phi_dY = s.phi_raw(alpha, _cov_raw(s, lc, X, Y, x.x, scheme), x.x)
    Xv, Yv = X(x.x), Y(x.x)
    out = (d_phiY - phi_dY
           - dot(Xv, Yv) * s.reeb_raw(alpha, x.x)
           + s.eta_raw(alpha, Yv, x.x) * Xv)
    return TangentVector(x, s.tangent_project_raw(out, x.x))


def torsion(kind: ConnectionKind, X: VectorField, Y: VectorField,
            x: SpherePoint, scheme=EXACT_FORWARD) -> TangentVector:
    s = _common_structure(X, Y)
    out = (_cov_raw(s, kind, X, Y, x.x, scheme)
           - _cov_raw(s, kind, Y, X, x.x, scheme)
           - bracket_raw(X, Y, x.x, scheme))
    return TangentVector(x, s.tangent_project_raw(out, x.x))


def curvature(kind: ConnectionKind, X: VectorField, Y: VectorField,
              Z: VectorField, x: SpherePoint, scheme=EXACT_FORWARD) -> TangentVector:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
    evaluated by nesting dual numbers through the field closures."""
    s = _common_structure(X, Y, Z)
    inner_YZ = lambda y: _cov_raw(s, kind, Y, Z, y, scheme)
    inner_XZ = lambda y: _cov_raw(s, kind, X, Z, y, scheme)
    t1 = _cov_raw(s, kind, X, inner_YZ, x.x, scheme)
    t2 = _cov_raw(s, kind, Y, inner_XZ, x.x, scheme)
    br = bracket_raw(X, Y, x.x, scheme)
    br = s.tangent_project_raw(br, x.x)
    t3 = _cov_raw(s, kind, lambda y: br, Z, x.x, scheme)
    return TangentVector(x, s.tangent_project_raw(t1 - t2 - t3, x.x))


def curvature4(kind: ConnectionKind, X, Y, Z, W, x: SpherePoint,
               scheme=EXACT_FORWARD) -> float:
    """Quadrilinear curvature with slot convention g(R(X,Y)W, Z)."""
    s = _common_structure(X, Y, Z, W)
    R = curvature(kind, X, Y, W, x, scheme)
    return float(dot(R.v, Z(x.x)))


def nabla_bar_phi_defect(alpha, X: VectorField, Y: VectorField,
                         x: SpherePoint, scheme=EXACT_FORWARD) -> TangentVector:
    """(nabla-bar_X phi_a)Y for H-fields; the inputs are forced into H
    by projection before evaluation."""
    s = _common_structure(X, Y)
    Xp, Yp = X.project_H(), Y.project_H()
    hk = ConnectionKind.H_CONNECTION
    d_phiY = _cov_raw(s, hk, Xp, Yp.phi(alpha), x.x, scheme)
    phi_dY = s.phi_raw(alpha, _cov_raw(s, hk, Xp, Yp, x.x, scheme), x.x)
    return TangentVector(x, s.tangent_project_raw(d_phiY - phi_dY, x.x))


def sphere_curvature_oracle(X: TangentVector, Y: TangentVector,
                            Z: TangentVector) -> TangentVector:
    """Closed-form curvature of the unit sphere,
    R(X,Y)Z = g(Y,Z) X - g(X,Z) Y, in the convention of :func:`curvature`
    (the report's ``curvature-sign`` entry measures that convention).
    """
    X._check_same_base(Y)
    X._check_same_base(Z)
    out = float(np.dot(Y.v, Z.v)) * X.v - float(np.dot(X.v, Z.v)) * Y.v
    return TangentVector(X.base, out)
