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

``reeb_all_raw`` and ``phi_all_raw`` give all three structures at once
(alpha on axis -2): a gather for a triple with one entry +-1 per row (the
round model; the dense product's bits for finite input), else a matmul.
"""

from __future__ import annotations

import numpy as np

from .numlin import (
    EXACT_FORWARD,
    DegenerateInputError,
    StructuralError,
    dot,
    gram_schmidt,
    is_count,
    leafmap,
    matvec,
    norm,
    quaternion_structures,
)
from .records import build_records

UNIT_TOL = 1e-12
TANGENT_TOL = 1e-10

# even permutations (beta, gamma, theta) of (1, 2, 3), 1-based
EVEN_PERMUTATIONS = ((1, 2, 3), (2, 3, 1), (3, 1, 2))


# ============================================================
# points and tangent vectors
# ============================================================

class _Frozen:
    """Fields set once, in ``__init__``: assigning or deleting one raises
    ``AttributeError``."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__


class SpherePoint(_Frozen):
    """A unit vector in the ambient space, or a stack of them (one per
    row)."""

    __slots__ = ("x",)

    def __init__(self, x):
        x = np.asarray(x, dtype=float)
        r = np.ravel(norm(x))
        # an error names the first bad row; a non-finite row is bad too
        bad = ~(np.abs(r - 1.0) <= UNIT_TOL)
        if bad.any():
            raise StructuralError(f"point norm {float(r[bad][0])!r} deviates "
                                  f"from 1 by more than {UNIT_TOL:g}")
        object.__setattr__(self, "x", x)

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


class TangentVector(_Frozen):
    """An ambient vector attached to a point and orthogonal to it, or a
    stack of them attached to a stack of points, row for row."""

    __slots__ = ("base", "v")

    def __init__(self, base: SpherePoint, v):
        v = np.asarray(v, dtype=float)
        if v.shape != base.x.shape:
            raise StructuralError("tangent vector has wrong ambient dimension")
        r = np.abs(np.ravel(dot(v, base.x)))
        bad = ~(r <= TANGENT_TOL)
        if bad.any():
            raise StructuralError(f"vector is not tangent: <v, x> = "
                                  f"{r[bad][0]:.3e} exceeds {TANGENT_TOL:g}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "v", v)

    def norm(self):
        return norm(self.v)

    def _check_same_base(self, *others):  # tangent vectors, or points
        if not all(self.base.same_as(getattr(V, "base", V)) for V in others):
            raise StructuralError("tangent vectors live at different base points")


# ============================================================
# the structure
# ============================================================

class ThreeSasakiStructure:
    """The three linked contact structures on the round sphere.

    ``sign`` picks the Reeb orientation xi_alpha(x) = sign * I_alpha x.
    The shipped default is the orientation under which the covariant
    derivative of each Reeb field is -phi_alpha (resolved empirically by
    the harness; see ``harness.resolve_conventions``).  ``triple`` is any
    three d x d matrices I1, I2, I3 (default: ``quaternion_structures``),
    held as one ``(3, d, d)`` stack.
    """

    def __init__(self, n=1, sign=-1, triple=None):
        if not is_count(sign) or sign not in (+1, -1):
            raise StructuralError(f"sign must be +1 or -1, got {sign!r}")
        if not is_count(n) or n < 0:
            raise StructuralError(f"n must be a nonnegative integer, got {n!r}")
        self.n, self.sign = int(n), int(sign)
        d = self.ambient_dim
        if triple is None:
            triple = quaternion_structures(self.n)
        shapes = [np.shape(I) for I in triple]
        if shapes != [(d, d)] * 3:
            raise StructuralError(f"need three {d} x {d} structure matrices, "
                                  f"got shapes {shapes}")
        self.triple = np.array(triple, dtype=float)
        nz = self.triple != 0  # a signed permutation: one entry +-1 per row
        signed = np.all(nz.sum(-1) == 1) and np.all(np.abs(self.triple[nz]) == 1)
        # (column, value) of each row's entry, (3, d) each; None: dense products
        self._gather = (nz.argmax(-1), self.triple.sum(-1)) if signed else None

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
        if not is_count(alpha) or alpha not in (1, 2, 3):
            raise StructuralError(
                f"structure index must be 1, 2, or 3; got {alpha!r}")
        return self.triple[alpha - 1]

    def _apply_all(self, v):
        """I_1 v, I_2 v, I_3 v for a plain (..., d) array, as (..., 3, d)."""
        if self._gather is None:
            return np.matmul(self.triple, v[..., None, :, None])[..., 0]
        # the dense product's bits for finite v (its 0 * inf makes an inf in v
        # nan in every other entry); + 0 turns -0 into the dense sum's +0
        cols, vals = self._gather
        return np.take(v, cols, axis=-1) * vals + 0

    def reeb_all_raw(self, y):
        return leafmap(lambda a: self.sign * self._apply_all(a), y)

    def phi_all_raw(self, w, y):
        return self.tangent_project_raw(leafmap(self._apply_all, w),
                                        leafmap(lambda a: a[..., None, :], y))

    def _apply(self, alpha, v):
        """I_alpha v; for an integer array ``alpha`` of checked indices, one
        per row, I_alpha[r] v_r on each row r: row r of block alpha[r] of
        ``_apply_all`` (the bits of I_alpha[r] v_r)."""
        if not isinstance(alpha, np.ndarray):
            return matvec(self._I(alpha), v)
        r, k = np.arange(len(alpha)), alpha - 1
        return leafmap(lambda a: self._apply_all(a)[r, ..., k, :], v)

    def reeb_raw(self, alpha, y):
        return self.sign * self._apply(alpha, y)

    def phi_raw(self, alpha, w, y):
        Iw = self._apply(alpha, w)
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
        basis at row i of ``x``), from 4n seeded Gaussian draws projected
        to H and orthonormalized in draw order.

        Not cached, and not used by the Ricci trace, which traces over
        the projected ambient basis: it is an independent reference basis
        for the tests that check that trace.
        """
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1)]))
        for _ in range(10):
            w = rng.standard_normal((self.h_dim, self.ambient_dim))
            try:  # all 4n draws projected at once, each at every point
                return tuple(TangentVector(x, v) for v in gram_schmidt(
                    self.project_h_raw(np.expand_dims(w, tuple(range(1, x.x.ndim))), x.x)))
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
        """Half the Lie derivative of phi_beta along xi_alpha, applied to X
        through its canonical extension (tensorial in X): one bracket pass."""
        from .connections import VectorField, _at, _h_tensor_plan  # built on this module
        plan = _h_tensor_plan(VectorField.reeb(self, alpha), beta,
                              VectorField.extension(self, X))
        return TangentVector(X.base, _at(plan, X.base, scheme))

    # ---------------- axiom checking ----------------

    def check_structure_axioms(self, sample, tol=1e-9):
        """Evaluate every pointwise structure axiom at the given sample
        points.  Returns one record per axiom family; failures are data,
        not exceptions.

        ``sample`` is a (SpherePoint, TangentVector, TangentVector) triple
        supplying the points and two tangent directions at each, one row
        or a stack; vectors at another point raise ``StructuralError``.
        """
        x, X, Y = sample
        X._check_same_base(Y, x)
        return build_records("axioms", len(np.atleast_2d(x.x)),
                             self._axiom_residuals(x, X, Y), (tol, tol))

    def _axiom_residuals(self, x, X, Y):
        """(record id, residuals) pairs, one residual per sample row; the
        matrix-level relations come first, once."""
        I1, I2, I3 = self.triple
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
