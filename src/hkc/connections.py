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

    R4(X, Y, Z, W) := g(R(X, Y)W, Z),

the inner product of ``curvature(kind, X, Y, W, x)`` with Z.

Every typed operation takes a point that is one row or a stack of rows,
with fields of the same shape, and gives one value per row in one pass:
a tangent vector of that shape, or floats of shape ``(P, 1)`` for a
stack.  Curvature is chunked: one nested pass per connection and chunk
of rows serves many slot patterns, each on its own row block
(``_curvature_blocks``); a four-slot pattern (X, Y, Z, W) gives
g(R(X,Y)Z, W) without handing back the curvature rows.  ``curvature`` is
a one-pattern call of it, so no caller holds every row's duals at once.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import groupby

import numpy as np

from .numlin import (
    EXACT_FORWARD,
    Dual,
    InternalConsistencyError,
    StructuralError,
    bracket_raw,
    directional_derivative,
    dot,
    leafmap,
    norm,
    value_and_derivative,
)
from .sphere3s import SpherePoint, TangentVector, ThreeSasakiStructure

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
    a raw array evaluates the closure.  ``rows(c)`` is the field on the
    rows ``c`` of the stack it was built on (a field built on none serves
    any rows); ``vec`` (extension vectors) and ``alpha`` (Reeb index) tell
    which row blocks of a fused pass evaluate as one.
    """

    def __init__(self, structure, func, rows=None, vec=None, alpha=None):
        self.structure = structure
        self._func = func
        self._rows, self.vec, self.alpha = rows, vec, alpha

    def __call__(self, y):
        return self._func(y)

    def rows(self, c):
        return self if self._rows is None else self._rows(c)

    # ----- constructors -----

    @classmethod
    def extension(cls, structure, X):
        """Canonical global extension y -> v - <v, y> y of a tangent vector,
        of its raw rows, or of ``X(c)``, the rows ``c`` as ``_cut`` gives
        them, made when a chunk needs them; a stack gives one row per vector."""
        if callable(X):
            return cls(structure, lambda y: structure.extension_raw(X(None))(y),
                       lambda c: cls.extension(structure, X(c)))
        v = getattr(X, "v", X)
        return cls(structure, structure.extension_raw(v),
                   lambda c: cls.extension(structure, _cut(v, c)), vec=v)

    @classmethod
    def reeb(cls, structure, alpha):
        return cls(structure, lambda y: structure.reeb_raw(alpha, y), alpha=alpha)

    # ----- combinators -----

    def phi(self, alpha):
        s = self.structure
        f = self._func
        return VectorField(s, lambda y: s.phi_raw(alpha, f(y), y),
                           lambda c: self.rows(c).phi(alpha))

    def project_H(self):
        s = self.structure
        f = self._func
        return VectorField(s, lambda y: s.project_h_raw(f(y), y),
                           lambda c: self.rows(c).project_H())


def _cut(a, c):
    """Rows ``c`` of ``a``, one row as a stack of one; None: all of ``a``."""
    return a if c is None else np.atleast_2d(a)[c]


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
    (either may be a stack): one pass with alpha on axis -2, its terms
    summed in the order alpha = 1, 2, 3, as one pass each would be."""
    xi, phi_w, phi_u = s.reeb_all_raw(y), s.phi_all_raw(w, y), s.phi_all_raw(u, y)
    u, w = (leafmap(lambda a: a[..., None, :], v) for v in (u, w))
    # Omega^a(u, w) = g(u, phi_a w)
    t = dot(xi, u) * phi_w + dot(xi, w) * phi_u + dot(u, phi_w) * xi
    return leafmap(lambda a: (a[..., 0, :] + a[..., 1, :]) + a[..., 2, :], t)


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
    drift = np.abs(np.ravel(dot(raw, x.x)))
    bad = drift >= BRACKET_TANGENCY_TOL
    if bad.any():
        raise InternalConsistencyError(
            f"bracket of tangent fields drifted off the tangent space "
            f"by {drift[bad][0]:.3e}")
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
               scheme=EXACT_FORWARD):
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
    return norm(sub - defn)


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
              Z: VectorField, x: SpherePoint, scheme=EXACT_FORWARD) -> TangentVector:
    """R(X,Y)Z = nabla_X nabla_Y Z - nabla_Y nabla_X Z - nabla_[X,Y] Z,
    evaluated by nesting dual numbers through the field closures; one
    nested pass per chunk of a stack of points."""
    s = _common_structure(X, Y, Z)
    return TangentVector(x, _curvature_blocks(s, kind, [(X, Y, Z)], x.x, scheme)[0])


CURVATURE_CHUNK = 3200  # floats per leaf of one fused pass: rows x d (400 rows at n=1)


def _blocks(s, fields, C):
    """One field that is ``fields[k]`` on rows k*C .. (k+1)*C - 1: adjacent
    extensions as one extension of their stacked vectors, adjacent Reeb
    fields of one alpha as one, any other on a leafwise slice of the
    point, the parts joined leafwise."""
    parts, lo = [], 0
    merge = lambda f: 0 if f.vec is not None else f.alpha or object()  # object(): alone
    for key, fs in groupby(fields, merge):
        fs = list(fs)
        if key == 0 and len(fs) > 1:  # extensions
            fs[0] = VectorField.extension(s, np.concatenate([g.vec for g in fs]))
        parts.append((fs[0], lo, lo + len(fs) * C))
        lo += len(fs) * C
    if len(parts) == 1:
        return parts[0][0]
    return VectorField(s, lambda q: _join([f(leafmap(lambda a: a[i:j], q))
                                           for f, i, j in parts]))


def _join(parts):
    """Duals of one nesting (or plain arrays) joined on axis 0, leaf by leaf."""
    if isinstance(parts[0], Dual):
        return Dual(_join([p.val for p in parts]), _join([p.dot for p in parts]))
    return np.concatenate(parts)


def _curvature_blocks(s, kind, patterns, y, scheme):
    """One nested pass per chunk for many slot patterns of fields over
    the rows of the point ``y``: for (X, Y, Z) the rows of R(X,Y)Z; for
    (X, Y, Z, W) g(R(X,Y)Z, W) on each row, or |R(X,Y)Z - W| for W an
    array of rows (None: zero).  A chunk of C rows runs pattern k on rows
    k*C .. (k+1)*C - 1, each row with the bits of a pass over all rows.
    It holds at most ``CURVATURE_CHUNK`` floats per leaf, and one row at
    least: of all patterns if they fit, else of as many as fit, one at
    least.  One row gives a vector or a float, a stack ``(P, d)`` or
    ``(P, 1)``."""
    y2, K = np.atleast_2d(y), len(patterns)
    fields = {id(f): f for p in patterns for f in p if isinstance(f, VectorField)}
    cut = lambda c: {i: f.rows(c) for i, f in fields.items()}  # each field once
    width = math.prod(np.broadcast_shapes(s.ambient_dim, *(  # floats per row
        f.vec.shape for f in cut(slice(0, 1)).values() if f.vec is not None)))
    group = max(1, CURVATURE_CHUNK // width)  # patterns one row can hold
    if K > group:
        return [v for i in range(0, K, group) for v in _curvature_blocks(
            s, kind, patterns[i:i + group], y, scheme)]
    step = max(1, CURVATURE_CHUNK // (K * width))

    def chunk(c):  # a chunk's pass and cut fields are freed before the next
        yc, f = y2[c], cut(c)
        C = len(yc)
        R = _curvature_raw(s, kind, *(_blocks(s, [f[id(p[j])] for p in patterns], C)
                                      for j in range(3)), np.concatenate([yc] * K), scheme)
        values = []
        for k, p in enumerate(patterns):
            Rk, W = R[k * C:(k + 1) * C], p[-1]
            values.append(Rk if len(p) == 3
                          else dot(Rk, f[id(W)](yc)) if isinstance(W, VectorField)
                          else norm(Rk if W is None else Rk - _cut(W, c)))
        return values

    out = [np.concatenate(v) for v in zip(
        *(chunk(slice(i, i + step)) for i in range(0, len(y2), step)))]
    return out if y.ndim > 1 else [v[0] if len(p) == 3 else float(v[0, 0])
                                   for v, p in zip(out, patterns)]


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
    X._check_same_base(Y, Z)
    return TangentVector(X.base, dot(Y.v, Z.v) * X.v - dot(X.v, Z.v) * Y.v)
