"""The round-sphere model carrying three linked contact structures.

The manifold is the unit sphere in R^{4(n+1)}.  Three ambient complex
structures I_alpha (block right quaternion multiplication) induce

* the Reeb fields        xi_alpha(x) = sign * I_alpha x,
* the endomorphisms      phi_alpha X = I_alpha X - <I_alpha X, x> x,
* the dual one-forms     eta^alpha(X) = g(xi_alpha, X),
* the two-forms          Omega^alpha(X, Y) = g(X, phi_alpha Y),

with g the round metric (ambient dot product).  The 4n-dimensional
distribution H is the joint kernel of the three eta^alpha.

Every structure operation has a ``*_raw`` form acting on plain ambient
arrays *or* dual numbers; those raw forms are what vector-field closures
and nested differentiation consume.  The typed layer
(:class:`SpherePoint` / :class:`TangentVector`) validates its inputs and
is what user code normally touches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numlin import (
    EXACT_FORWARD,
    DegenerateInputError,
    PreconditionError,
    StructuralError,
    bracket_raw,
    dot,
    gram_schmidt,
    matvec,
    norm,
    quaternion_structures,
)
from .records import make_record, worst_residuals

__all__ = [
    "UNIT_TOL",
    "TANGENT_TOL",
    "SpherePoint",
    "TangentVector",
    "HFrame",
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
    """A unit vector in the ambient space."""

    x: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        r = norm(self.x)
        if abs(r - 1.0) > UNIT_TOL:
            raise StructuralError(
                f"point norm {r!r} deviates from 1 by more than {UNIT_TOL:g}")

    @classmethod
    def normalized(cls, coords):
        coords = np.asarray(coords, dtype=float)
        r = norm(coords)
        if r < 1e-12:
            raise DegenerateInputError("cannot normalize the zero vector")
        return cls(coords / r)

    @property
    def dim(self):
        return self.x.shape[0]

    def same_as(self, other):
        return self.dim == other.dim and norm(self.x - other.x) <= UNIT_TOL


@dataclass(frozen=True)
class TangentVector:
    """An ambient vector attached to a point and orthogonal to it."""

    base: SpherePoint
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.v.shape != self.base.x.shape:
            raise StructuralError("tangent vector has wrong ambient dimension")
        r = abs(float(np.dot(self.v, self.base.x)))
        if r > TANGENT_TOL:
            raise StructuralError(
                f"vector is not tangent: <v, x> = {r:.3e} exceeds {TANGENT_TOL:g}")

    def norm(self):
        return norm(self.v)

    def _check_same_base(self, other):
        if not self.base.same_as(other.base):
            raise StructuralError("tangent vectors live at different base points")

    def __add__(self, other):
        self._check_same_base(other)
        return TangentVector(self.base, self.v + other.v)

    def __sub__(self, other):
        self._check_same_base(other)
        return TangentVector(self.base, self.v - other.v)

    def __mul__(self, c):
        return TangentVector(self.base, self.v * float(c))

    __rmul__ = __mul__


@dataclass(frozen=True)
class HFrame:
    """An orthonormal basis of the distribution H at one point."""

    base: SpherePoint
    vectors: tuple


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
        self._last_frame = None  # ((point bytes, seed), orthonormal H-basis)

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

    # ---------------- raw (dual-generic) layer ----------------

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

    # ---------------- typed layer ----------------

    def point(self, coords):
        return SpherePoint.normalized(coords)

    def metric(self, X, Y):
        X._check_same_base(Y)
        return float(np.dot(X.v, Y.v))

    def reeb(self, alpha, x):
        return TangentVector(x, self.reeb_raw(alpha, x.x))

    def phi(self, alpha, X):
        return TangentVector(X.base, self.phi_raw(alpha, X.v, X.base.x))

    def eta(self, alpha, X):
        return float(self.eta_raw(alpha, X.v, X.base.x))

    def omega(self, alpha, X, Y):
        X._check_same_base(Y)
        return float(self.omega_raw(alpha, X.v, Y.v, X.base.x))

    def project_H(self, X):
        return TangentVector(X.base, self.project_h_raw(X.v, X.base.x))

    def in_H(self, X):
        return max(abs(self.eta(a, X)) for a in (1, 2, 3)) <= TANGENT_TOL

    # ---------------- frames ----------------

    def frame_H(self, x, seed):
        """Deterministic orthonormal basis of H at ``x`` (4n vectors).

        The basis of the latest (point, seed) is kept, so repeated calls
        there (one per trace in a Ricci sample) orthonormalize once; each
        call returns fresh copies of its vectors.
        """
        if self.n == 0:
            return HFrame(base=x, vectors=())
        key = (x.x.tobytes(), int(seed))
        if self._last_frame is None or self._last_frame[0] != key:
            self._last_frame = (key, self._orthonormal_H(x, seed))
        return HFrame(base=x, vectors=tuple(
            TangentVector(x, v.copy()) for v in self._last_frame[1]))

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

    def check_structure_axioms(self, points, tol=1e-9):
        """Evaluate every pointwise structure axiom at the given sample
        points.  Returns one record per axiom family; failures are data,
        not exceptions.

        ``points`` is a list of (SpherePoint, TangentVector, TangentVector)
        triples supplying the point and two tangent directions.
        """
        worst = worst_residuals(
            (self._axiom_residuals(*p) for p in points),
            ("quaternion_products", "unit_reeb", "phi_square", "eta_reeb",
             "compat", "omega_skew", "reeb_cross", "phi_compose", "eta_phi",
             "projection"))
        # matrix-level relations, once
        I1, I2, I3 = self.triple.as_tuple()
        ident = np.eye(self.ambient_dim)
        worst["quaternion_products"] = max(
            float(np.max(np.abs(I1 @ I2 - I3))),
            float(np.max(np.abs(I2 @ I3 - I1))),
            float(np.max(np.abs(I3 @ I1 - I2))),
            *(float(np.max(np.abs(I @ I + ident))) for I in (I1, I2, I3)),
            *(float(np.max(np.abs(I.T + I))) for I in (I1, I2, I3)),
        )
        return [
            make_record(f"axioms.{key}", suite="axioms", kind="check",
                        passed=bool(res <= tol), max_residual=res,
                        tolerance=tol, samples=len(points))
            for key, res in worst.items()
        ]

    def _axiom_residuals(self, x, X, Y):
        """(axiom family, residual) pairs at one sample point."""
        xs = [self.reeb(a, x) for a in (1, 2, 3)]
        for a in (1, 2, 3):
            xi = xs[a - 1]
            yield "unit_reeb", abs(self.metric(xi, xi) - 1.0)
            yield "unit_reeb", abs(float(np.dot(xi.v, x.x)))
            fX = self.phi(a, X)
            ffX = self.phi(a, fX)
            yield "phi_square", norm(ffX.v + X.v - self.eta(a, X) * xi.v)
            for b in (1, 2, 3):
                dlt = 1.0 if a == b else 0.0
                yield "eta_reeb", abs(self.eta(a, xs[b - 1]) - dlt)
            yield "compat", abs(self.metric(fX, self.phi(a, Y)) - self.metric(X, Y)
                                + self.eta(a, X) * self.eta(a, Y))
            yield "omega_skew", abs(self.omega(a, X, X))
            yield "omega_skew", abs(self.omega(a, X, Y) + self.omega(a, Y, X))
        for beta, gamma, theta in EVEN_PERMUTATIONS:
            yield "reeb_cross", norm(self.phi(beta, xs[gamma - 1]).v - xs[theta - 1].v)
            yield "reeb_cross", norm(self.phi(gamma, xs[beta - 1]).v + xs[theta - 1].v)
            comp = (self.phi(beta, self.phi(gamma, X)).v
                    - self.eta(gamma, X) * xs[beta - 1].v)
            yield "phi_compose", norm(comp - self.phi(theta, X).v)
            yield "eta_phi", abs(self.eta(theta, X)
                                 - self.eta(beta, self.phi(gamma, X)))
            yield "eta_phi", abs(self.eta(theta, X)
                                 + self.eta(gamma, self.phi(beta, X)))
        pX = self.project_H(X)
        yield "projection", norm(self.project_H(pX).v - pX.v)
        yield "projection", abs(self.metric(pX, Y)
                                - self.metric(X, self.project_H(Y)))
        for a in (1, 2, 3):
            yield "projection", abs(self.eta(a, pX))
