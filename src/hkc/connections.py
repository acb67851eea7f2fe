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

(summation over a = 1, 2, 3).  Every derivative of ``nabla-bar`` uses
this closed form, which is cheap and dual-generic.  Its definitional form,
through Levi-Civita derivatives of the Reeb fields, is evaluated only by
:func:`h_form_gap`, which measures how far the two forms disagree (the
harness records that gap once per connection sample).

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
    value_and_derivative,
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
]

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
    a raw array evaluates the closure.
    """

    def __init__(self, structure, func):
        self.structure = structure
        self._func = func

    def __call__(self, y):
        return self._func(y)

    # ----- constructors -----

    @classmethod
    def extension(cls, structure, X):
        """Canonical global extension y -> v - <v, y> y of a tangent vector,
        or of a sequence of them: a field with one row per vector."""
        v = X.v if isinstance(X, TangentVector) else [V.v for V in X]
        return cls(structure, structure.extension_raw(v))

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
    """The difference tensor A(u, w) at y, for ambient tangent values
    (either argument may be a stack of vectors)."""
    out = None
    for a in (1, 2, 3):
        xi = s.reeb_raw(a, y)
        phi_w = s.phi_raw(a, w, y)
        # Omega^a(u, w) = g(u, phi_a w)
        term = (dot(xi, u) * phi_w
                + dot(xi, w) * s.phi_raw(a, u, y)
                + dot(u, phi_w) * xi)
        out = term if out is None else out + term
    return out


def _cov_raw(s, kind, Xf, Yf, y, scheme):
    """Covariant derivative of the field closure Yf along the field
    closure Xf, at y.  Dual-generic in y; Xf may return a stack of
    directions, giving a stack of derivatives.  Each closure is
    evaluated once.  The lower slot is tensorial, so a fixed direction w
    enters as the constant closure ``lambda y: w``."""
    Xv = Xf(y)
    if kind is ConnectionKind.LEVI_CIVITA:
        d = directional_derivative(Yf, y, Xv, scheme)
        return d - dot(d, y) * y
    Yv, d = value_and_derivative(Yf, y, Xv, scheme)
    return d - dot(d, y) * y + _a_raw(s, Xv, Yv, y)


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
    """Covariant derivative at a point.  The adapted connection is
    evaluated through its closed form only; :func:`h_form_gap` measures
    its agreement with the definitional form."""
    s = _common_structure(X, Y)
    out = _cov_raw(s, kind, X, Y, x.x, scheme)
    return TangentVector(x, s.tangent_project_raw(out, x.x))


def h_form_gap(X: VectorField, Y: VectorField, x: SpherePoint,
               scheme=EXACT_FORWARD) -> float:
    """Disagreement between the substituted and the definitional forms of
    the adapted covariant derivative at x (zero when the structure's
    first-derivative identities hold).  The definitional form writes the
    adapted derivative through Levi-Civita derivatives of the Reeb fields
    instead of the pointwise correction tensor."""
    s = _common_structure(X, Y)
    y, lc = x.x, ConnectionKind.LEVI_CIVITA
    sub = _cov_raw(s, ConnectionKind.H_CONNECTION, X, Y, y, scheme)
    defn = _cov_raw(s, lc, X, Y, y, scheme)
    Xv, Yv = X(y), Y(y)
    for a in (1, 2, 3):
        xi_f = VectorField.reeb(s, a)
        d_xi_X = _cov_raw(s, lc, X, xi_f, y, scheme)
        d_xi_Y = _cov_raw(s, lc, Y, xi_f, y, scheme)
        defn = (defn
                - s.eta_raw(a, Xv, y) * d_xi_Y
                - s.eta_raw(a, Yv, y) * d_xi_X
                + s.omega_raw(a, Xv, Yv, y) * s.reeb_raw(a, y))
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


def _curvature_raw(s, kind, Xf, Yf, Zf, y, scheme):
    """R(X,Y)Z at y as an ambient vector.  Dual-generic in y; Xf may
    return a stack of directions, giving a stack of curvature values in
    one nested pass."""
    inner_YZ = lambda q: _cov_raw(s, kind, Yf, Zf, q, scheme)
    inner_XZ = lambda q: _cov_raw(s, kind, Xf, Zf, q, scheme)
    t1 = _cov_raw(s, kind, Xf, inner_YZ, y, scheme)
    t2 = _cov_raw(s, kind, Yf, inner_XZ, y, scheme)
    br = s.tangent_project_raw(bracket_raw(Xf, Yf, y, scheme), y)
    t3 = _cov_raw(s, kind, lambda q: br, Zf, y, scheme)
    return s.tangent_project_raw(t1 - t2 - t3, y)


def curvature(kind: ConnectionKind, X: VectorField, Y: VectorField,
              Z: VectorField, x, scheme=EXACT_FORWARD):
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
    evaluated by nesting dual numbers through the field closures.  For a
    sequence of points, with fields of one row per point, one nested pass
    gives one tangent vector per point."""
    s = _common_structure(X, Y, Z)
    if isinstance(x, SpherePoint):
        return TangentVector(x, _curvature_raw(s, kind, X, Y, Z, x.x, scheme))
    y = np.array([p.x for p in x])
    R = _curvature_raw(s, kind, X, Y, Z, y, scheme) if len(x) else ()
    return [TangentVector(p, r) for p, r in zip(x, R)]


def curvature4(kind: ConnectionKind, X, Y, Z, W, x, scheme=EXACT_FORWARD):
    """Quadrilinear curvature with slot convention g(R(X,Y)W, Z); one
    value per point for a sequence of points, as in :func:`curvature`."""
    _common_structure(X, Y, Z, W)
    R = curvature(kind, X, Y, W, x, scheme)
    if isinstance(x, SpherePoint):
        return float(dot(R.v, Z(x.x)))
    Zv = Z(np.array([p.x for p in x])) if len(x) else ()
    return [float(dot(r.v, z)) for r, z in zip(R, Zv)]


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
