"""The round-sphere model carrying three linked contact structures.

The manifold is the unit sphere in R^{4(n+1)}.  Three ambient complex
structures I_alpha (block right quaternion multiplication) induce

* the Reeb fields        xi_alpha(x) = sign * I_alpha x,
* the endomorphisms      phi_alpha X = I_alpha X - <I_alpha X, x> x,
* the dual one-forms     eta^alpha(X) = g(xi_alpha, X),
* the two-forms          Omega^alpha(X, Y) = g(X, phi_alpha Y),

with g the round metric (ambient dot product).  The 4n-dimensional
distribution H is the joint kernel of the three eta^alpha.

Each structure map has one form, ``*_raw``, acting on plain ambient
arrays, stacks of them (one row per vector) or dual numbers; vector-field
closures, nested differentiation and the suites all call it.  Validation
happens where a value enters: :class:`SpherePoint` and
:class:`TangentVector` hold one row ``(d,)`` or a stack ``(P, d)`` and
check unit length and tangency of every row on construction.  The typed
operations of ``connections`` and ``curvature`` take and return them; a
stack in gives a stack out, row for row with the bits of one-row calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numlin import (
    EXACT_FORWARD,
    DegenerateInputError,
    StructuralError,
    bracket_raw,
    dot,
    gram_schmidt,
    matvec,
    norm,
    quaternion_structures,
)
from .records import build_records

__all__ = [
    "UNIT_TOL",
    "TANGENT_TOL",
    "SpherePoint",
    "TangentVector",
    "ThreeSasakiStructure",
    "EVEN_PERMUTATIONS",
]

UNIT_TOL = 1e-12
TANGENT_TOL = 1e-10

# even permutations (beta, gamma, theta) of (1, 2, 3), 1-based
EVEN_PERMUTATIONS = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


# ============================================================
# points and tangent vectors
# ============================================================

@dataclass(frozen=True)
class SpherePoint:
    """A unit vector in the ambient space, or a stack of them (one per
    row)."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        r = np.ravel(norm(self.x))
        # an error names the first bad row; a non-finite row is bad too
        bad = ~(np.abs(r - 1.0) <= UNIT_TOL)
        if bad.any():
            raise StructuralError(f"point norm {float(r[bad][0])!r} deviates "
                                  f"from 1 by more than {UNIT_TOL:g}")

    @classmethod
    def normalized(cls, coords):
        coords = np.asarray(coords, dtype=float)
        r = norm(coords)
        if np.any(r < 1e-12):
            raise DegenerateInputError("cannot normalize the zero vector")
        return cls(coords / r)

    def same_as(self, other):
        return (self.x.shape == other.x.shape
                and bool(np.all(norm(self.x - other.x) <= UNIT_TOL)))


@dataclass(frozen=True)
class TangentVector:
    """An ambient vector attached to a point and orthogonal to it, or a
    stack of them attached to a stack of points, row for row."""

    base: SpherePoint
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.v.shape != self.base.x.shape:
            raise StructuralError("tangent vector has wrong ambient dimension")
        r = np.abs(np.ravel(dot(self.v, self.base.x)))
        bad = ~(r <= TANGENT_TOL)
        if bad.any():
            raise StructuralError(f"vector is not tangent: <v, x> = "
                                  f"{r[bad][0]:.3e} exceeds {TANGENT_TOL:g}")

    def norm(self):
        return norm(self.v)

    def _check_same_base(self, *others):
        if not all(self.base.same_as(V.base) for V in others):
            raise StructuralError("tangent vectors live at different base points")


# ============================================================
# the structure
# ============================================================

class ThreeSasakiStructure:
    """The three linked contact structures on the round sphere.

    ``sign`` picks the Reeb orientation xi_alpha(x) = sign * I_alpha x.
    The shipped default is the orientation under which the covariant
    derivative of each Reeb field is -phi_alpha (resolved empirically by
    the harness; see ``harness.resolve_conventions``).
    """

    def __init__(self, n=1, sign=-1, triple=None):
        if sign not in (+1, -1):
            raise StructuralError("sign must be +1 or -1")
        self.n = int(n)
        if self.n < 0:
            raise StructuralError("n must be a nonnegative integer")
        self.sign = int(sign)
        self.triple = triple if triple is not None else quaternion_structures(self.n)
        if self.triple.dim != 4 * (self.n + 1):
            raise StructuralError(
                f"structure matrices of size {self.triple.dim} do not match "
                f"ambient dimension {4 * (self.n + 1)}")
        self._matrices = dict(zip((1, 2, 3), self.triple.as_tuple()))
        self._last_frame = None  # ((shape, bytes, seed), orthonormal H-basis)

    # ---------------- dimensions ----------------

    @property
    def ambient_dim(self):
        return 4 * (self.n + 1)

    @property
    def manifold_dim(self):
        return 4 * self.n + 3

    @property
    def h_dim(self):
        return 4 * self.n

    # ---------------- structure maps ----------------

    def _I(self, alpha):
        try:
            return self._matrices[alpha]
        except (KeyError, TypeError):
            raise StructuralError(
                f"structure index must be 1, 2, or 3; got {alpha!r}") from None

    def reeb_raw(self, alpha, y):
        return self.sign * matvec(self._I(alpha), y)

    def phi_raw(self, alpha, w, y):
        Iw = matvec(self._I(alpha), w)
        return Iw - dot(Iw, y) * y

    def eta_raw(self, alpha, w, y):
        return dot(self.reeb_raw(alpha, y), w)

    def omega_raw(self, alpha, u, w, y):
        return dot(u, self.phi_raw(alpha, w, y))

    def tangent_project_raw(self, w, y):
        return w - dot(w, y) * y

    def project_h_raw(self, w, y):
        out = self.tangent_project_raw(w, y)
        for alpha in (1, 2, 3):
            xi = self.reeb_raw(alpha, y)
            out = out - dot(xi, out) * xi
        return out

    # ---------------- frames ----------------

    def frame_H(self, x, seed):
        """Deterministic orthonormal basis of H at ``x``: a tuple of 4n
        tangent vectors, each a stack if ``x`` is (row i of each is the
        basis at row i of ``x``).

        The basis of the latest (points, seed) is kept, so repeated calls
        there (the four traces of the Ricci suite) orthonormalize once;
        each call returns fresh copies of its vectors.
        """
        key = (x.x.shape, x.x.tobytes(), int(seed))
        if self._last_frame is None or self._last_frame[0] != key:
            self._last_frame = (key, self._orthonormal_H(x, seed))
        return tuple(TangentVector(x, v.copy()) for v in self._last_frame[1])

    def _orthonormal_H(self, x, seed):
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1)]))
        for _ in range(10):
            raw = [self.project_h_raw(w, x.x)
                   for w in rng.standard_normal((self.h_dim, self.ambient_dim))]
            try:
                return gram_schmidt(raw)
            except DegenerateInputError:
                continue
        raise DegenerateInputError(
            "could not assemble an orthonormal H-basis after 10 attempts")

    # ---------------- derived tensors ----------------

    def extension_raw(self, v):
        """The canonical global extension of a tangent vector: the field
        y -> v - <v, y> y, which reproduces v at the base point."""
        v = np.asarray(v, dtype=float)
        return lambda y: v - dot(v, y) * y

    def h_tensor(self, alpha, beta, X, scheme=EXACT_FORWARD):
        """Half the Lie derivative of phi_beta along xi_alpha, applied to X.

        Uses the canonical extension of X; the result is tensorial in X.
        """
        x = X.base
        xi_field = lambda y, a=alpha: self.reeb_raw(a, y)
        ext = self.extension_raw(X.v)
        phi_ext = lambda y, b=beta: self.phi_raw(b, ext(y), y)
        lie_phi = bracket_raw(xi_field, phi_ext, x.x, scheme)
        lie_x = bracket_raw(xi_field, ext, x.x, scheme)
        out = 0.5 * (lie_phi - self.phi_raw(beta, lie_x, x.x))
        return TangentVector(x, self.tangent_project_raw(out, x.x))

    # ---------------- axiom checking ----------------

    def check_structure_axioms(self, sample, tol=1e-9):
        """Evaluate every pointwise structure axiom at the given sample
        points.  Returns one record per axiom family; failures are data,
        not exceptions.

        ``sample`` is a (SpherePoint, TangentVector, TangentVector) triple
        supplying the points and two tangent directions at each, one row
        or a stack.
        """
        x, X, Y = sample
        return build_records("axioms", len(np.atleast_2d(x.x)),
                             self._axiom_residuals(x, X, Y),
                             lambda worst: dict.fromkeys(worst, tol))

    def _axiom_residuals(self, x, X, Y):
        """(record id, residuals) pairs, one residual per sample row; the
        matrix-level relations come first, once."""
        I1, I2, I3 = self.triple.as_tuple()
        ident = np.eye(self.ambient_dim)
        yield "axioms.quaternion_products", max(
            float(np.max(np.abs(I1 @ I2 - I3))),
            float(np.max(np.abs(I2 @ I3 - I1))),
            float(np.max(np.abs(I3 @ I1 - I2))),
            *(float(np.max(np.abs(I @ I + ident))) for I in (I1, I2, I3)),
            *(float(np.max(np.abs(I.T + I))) for I in (I1, I2, I3)),
        )
        y, Xv, Yv = x.x, X.v, Y.v
        phi = lambda a, w: self.phi_raw(a, w, y)
        eta = lambda a, w: self.eta_raw(a, w, y)
        xs = [self.reeb_raw(a, y) for a in (1, 2, 3)]
        for a in (1, 2, 3):
            xi = xs[a - 1]
            yield "axioms.unit_reeb", abs(dot(xi, xi) - 1.0)
            yield "axioms.unit_reeb", abs(dot(xi, y))
            fX = phi(a, Xv)
            yield "axioms.phi_square", norm(phi(a, fX) + Xv - eta(a, Xv) * xi)
            for b in (1, 2, 3):
                dlt = 1.0 if a == b else 0.0
                yield "axioms.eta_reeb", abs(eta(a, xs[b - 1]) - dlt)
            yield "axioms.compat", abs(dot(fX, phi(a, Yv)) - dot(Xv, Yv)
                                       + eta(a, Xv) * eta(a, Yv))
            yield "axioms.omega_skew", abs(self.omega_raw(a, Xv, Xv, y))
            yield "axioms.omega_skew", abs(self.omega_raw(a, Xv, Yv, y)
                                           + self.omega_raw(a, Yv, Xv, y))
        for beta, gamma, theta in EVEN_PERMUTATIONS:
            yield "axioms.reeb_cross", norm(phi(beta, xs[gamma - 1]) - xs[theta - 1])
            yield "axioms.reeb_cross", norm(phi(gamma, xs[beta - 1]) + xs[theta - 1])
            comp = phi(beta, phi(gamma, Xv)) - eta(gamma, Xv) * xs[beta - 1]
            yield "axioms.phi_compose", norm(comp - phi(theta, Xv))
            yield "axioms.eta_phi", abs(eta(theta, Xv) - eta(beta, phi(gamma, Xv)))
            yield "axioms.eta_phi", abs(eta(theta, Xv) + eta(gamma, phi(beta, Xv)))
        pX = self.project_h_raw(Xv, y)
        yield "axioms.projection", norm(self.project_h_raw(pX, y) - pX)
        yield "axioms.projection", abs(dot(pX, Yv) - dot(Xv, self.project_h_raw(Yv, y)))
        for a in (1, 2, 3):
            yield "axioms.projection", abs(eta(a, pX))
