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
arrays, stacks of them (one row per vector) or dual numbers; vector
fields, nested differentiation, the closed forms, the axioms and the
suites all call it.
Validation happens where a value enters: :class:`SpherePoint` and
:class:`TangentVector` hold one row ``(d,)`` or a stack ``(P, d)`` and
check unit length and tangency of every row on construction.  The typed
operations of ``connections`` and ``curvature`` take and return them; a
stack in gives a stack out, row for row with the bits of one-row calls.
Below them everything runs on stacks: :func:`on_stacks` lifts one row to
a stack of one on entry and unwraps the result on exit.

``reeb_all_raw`` and ``phi_all_raw`` give all three structures at once
(alpha on axis -2).  A triple with one entry +-1 per row (the round model)
is a gather of the blocks read, no BLAS call; any other, a dense product.
"""

from __future__ import annotations

from functools import wraps

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

def _each(f, a):
    """``f`` on each leaf of ``a`` through lists, tuples (a named tuple
    stays one) and dicts."""
    if isinstance(a, dict):
        return {k: _each(f, v) for k, v in a.items()}
    if not isinstance(a, (list, tuple)):
        return f(a)
    items = [_each(f, b) for b in a]
    return a._make(items) if hasattr(a, "_make") else type(a)(items)


def on_stacks(op):
    """``op``, a typed operation on stacks, also on one row.  The points
    and tangent vectors among the arguments (in lists and tuples too) must
    be at one point (else ``StructuralError``), of the ambient dimension of
    the structure among them, itself or a field's.  One row enters as a
    stack of one, and the result leaves as one row: a tangent vector at the
    caller's point, a float for a value of one entry, else the row."""
    @wraps(op)
    def typed(*args, **kwargs):
        s = next((t for a in args for t in (a, getattr(a, "structure", None))
                  if isinstance(t, ThreeSasakiStructure)), None)
        at = []  # the point, and its stack of one if it is one row

        def lift(a):
            x = getattr(a, "base", a)
            if not isinstance(x, SpherePoint):
                return a
            if not at:
                if s is not None and x.x.shape[-1] != s.ambient_dim:
                    raise StructuralError(f"a point of dimension {x.x.shape[-1]} for a "
                                          f"structure of ambient dimension {s.ambient_dim}")
                at[:] = x, SpherePoint(x.x[None]) if x.x.ndim == 1 else None
            elif not (x is at[0] or at[0].same_as(x)):
                raise StructuralError("tangent vectors live at different base points")
            p = at[1]
            return a if p is None else p if a is x else TangentVector(p, a.v[None])

        args, kwargs = _each(lift, (args, kwargs))
        out = op(*args, **kwargs)
        if not at or at[1] is None:
            return out
        return _each(lambda v: TangentVector(at[0], v.v[0]) if isinstance(v, TangentVector)
                     else (v.item() if v.size == 1 else v[0]) if isinstance(v, np.ndarray)
                     else v, out)
    return typed


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
        if not len(r):
            raise StructuralError("a stack of no points")
        # an error names the first bad row; a non-finite row is bad too
        bad = ~(np.abs(r - 1.0) <= UNIT_TOL)
        if bad.any():
            raise StructuralError(f"point norm {float(r[bad][0])!r} deviates "
                                  f"from 1 by more than {UNIT_TOL:g}")
        object.__setattr__(self, "x", x)

    @classmethod
    def normalized(cls, coords):
        coords = np.asarray(coords, dtype=float)
        r, m = _scaled_norm(coords)
        bad = ~np.isfinite(r)
        if bad.any():  # before the division, which would warn
            raise StructuralError(f"point norm {float(r[bad][0])!r} is not finite")
        if np.any(r < 1e-12):
            raise DegenerateInputError("cannot normalize the zero vector")
        return cls(coords / m / r)

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
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite: caught below
            r = np.abs(np.ravel(dot(v, base.x)))
        bad = ~(r <= TANGENT_TOL)
        if bad.any():
            raise StructuralError(f"vector is not tangent: <v, x> = "
                                  f"{r[bad][0]:.3e} exceeds {TANGENT_TOL:g}")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "v", v)

    @on_stacks
    def norm(self):
        r, m = _scaled_norm(self.v)
        with np.errstate(over="ignore"):  # past the largest float a norm is inf
            return m * r


def _scaled_norm(v):
    """``norm(v / m)`` and ``m``: the divisor of a row whose norm overflows
    though its entries are finite is its largest |entry|; of any other, 1."""
    with np.errstate(over="ignore"):
        r = norm(v)
    big = ~np.isfinite(r) & np.isfinite(v).all(axis=-1, keepdims=True)
    if not big.any():
        return r, 1.0
    m = np.where(big, np.abs(v).max(axis=-1, keepdims=True), 1.0)
    return norm(v / m), m


# ============================================================
# the structure
# ============================================================

def _signed(out, vals):  # a gather times its signs, + 0, in place (see _apply_all)
    return np.add(np.multiply(out, vals, out=out), 0, out=out)


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
        return _signed(v.take(self._gather[0], axis=-1), self._gather[1])

    def reeb_all_raw(self, y):
        return leafmap(lambda a: self.sign * self._apply_all(a), y)

    def phi_all_raw(self, w, y):
        return self.tangent_project_raw(leafmap(self._apply_all, w),
                                        leafmap(lambda a: a[..., None, :], y))

    def _apply(self, alpha, v):
        """I_alpha v, or for an integer array ``alpha`` of checked indices
        I_alpha[r] v_r on each row r (axis 0): a gather of that block alone (an
        array's by one flat index a call a leaf shape), else dense products."""
        if not isinstance(alpha, np.ndarray):
            M, k = self._I(alpha), alpha - 1
            return matvec(M, v) if self._gather is None else leafmap(
                lambda a: _signed(a.take(self._gather[0][k], axis=-1), self._gather[1][k]), v)
        at = {}  # leaf shape -> (each row's block,) or (flat index, signs)

        def per_row(a):
            if a.shape not in at:
                k = (alpha - 1).reshape(-1, *[1] * (a.ndim - 2))
                at[a.shape] = (k,) if self._gather is None else (self._gather[0][k] + np.arange(
                    0, a.size, a.shape[-1]).reshape(*a.shape[:-1], 1), self._gather[1][k])
            i, *vals = at[a.shape]
            return _signed(a.take(i), *vals) if vals else np.matmul(self.triple[i], a[..., None])[..., 0]
        return leafmap(per_row, v)

    def reeb_raw(self, alpha, y):
        return self.sign * self._apply(alpha, y)

    def phi_raw(self, alpha, w, y):
        Iw = self._apply(alpha, w)
        return Iw - dot(Iw, y) * y

    def eta_raw(self, alpha, w, y):
        return dot(self.reeb_raw(alpha, y), w)

    def omega_raw(self, alpha, u, w, y):
        return dot(u, self.phi_raw(alpha, w, y))

    def chunks(self, y, *vs):
        """``(y, *vs)`` in chunks of ``connections.CURVATURE_CHUNK // d`` rows
        of the stack ``y`` (None stays None), which bound the working set of
        the map values that the stated expansion, its gap tensor and the
        axioms make once per chunk."""
        from .connections import CURVATURE_CHUNK  # built on this module
        step = max(1, CURVATURE_CHUNK // self.ambient_dim)
        return [tuple(None if a is None else a[i:i + step] for a in (y, *vs))
                for i in range(0, len(y), step)]

    def tangent_project_raw(self, w, y):
        return w - dot(w, y) * y

    def project_h_raw(self, w, y):
        out, xs = self.tangent_project_raw(w, y), self.reeb_all_raw(y)
        for a in range(3):
            xi = leafmap(lambda v: v[..., a, :], xs)
            out = out - dot(xi, out) * xi
        return out

    # ---------------- frames ----------------

    @on_stacks
    def frame_H(self, x, seed):
        """Deterministic orthonormal basis of H at ``x``: a tuple of 4n
        tangent vectors, each a stack if ``x`` is (row i of each is the
        basis at row i of ``x``), from 4n seeded Gaussian draws projected
        to H and orthonormalized in draw order.  The one draw is used as
        drawn: a degenerate one raises ``DegenerateInputError``.

        Not cached, and not used by the Ricci trace, which traces over
        the projected ambient basis: it is an independent reference basis
        for the tests that check that trace.
        """
        rng = np.random.default_rng(np.random.SeedSequence([int(seed) & (2**63 - 1)]))
        w = rng.standard_normal((self.h_dim, self.ambient_dim))
        # all 4n draws projected at once, each at every point (axis 1)
        return tuple(TangentVector(x, v) for v in gram_schmidt(
            self.project_h_raw(w[:, None], x.x)))

    # ---------------- derived tensors ----------------

    @on_stacks
    def h_tensor(self, alpha, beta, X, scheme=EXACT_FORWARD):
        """Half the Lie derivative of phi_beta along xi_alpha, applied to X
        through its canonical extension (tensorial in X): one bracket pass."""
        from .connections import VectorField, _at, _h_tensor_plan  # built on this module
        plan = _h_tensor_plan(VectorField.reeb(self, alpha), beta,
                              VectorField.extension(self, X))
        return TangentVector(X.base, _at(plan, X.base, scheme))

    # ---------------- axiom checking ----------------

    @on_stacks
    def check_structure_axioms(self, sample, tol=1e-9):
        """Evaluate every pointwise structure axiom at the given sample
        points.  Returns one record per axiom family; failures are data,
        not exceptions.

        ``sample`` is a (SpherePoint, TangentVector, TangentVector) triple
        supplying the points and two tangent directions at each, one row
        or a stack; vectors at another point raise ``StructuralError``.
        """
        x, X, Y = sample
        return build_records("axioms", len(x.x),
                             self._axiom_residuals(x, X, Y), (tol, tol))

    def _axiom_residuals(self, x, X, Y):
        """(record id, residuals) pairs, one residual per sample row; the
        matrix-level relations come first, once."""
        I1, I2, I3 = self.triple
        ident = np.eye(self.ambient_dim)
        for gap in (I1 @ I2 - I3, I2 @ I3 - I1, I3 @ I1 - I2,
                    *(I @ I + ident for I in self.triple), *(I.T + I for I in self.triple)):
            yield "axioms.quaternion_products", np.abs(gap).max()
        for y, Xv, Yv in self.chunks(x.x, X.v, Y.v):  # the maps act row by row
            xi = {a: self.reeb_raw(a, y) for a in (1, 2, 3)}
            eX, eY = ({a: dot(xi[a], w) for a in (1, 2, 3)} for w in (Xv, Yv))
            pX, pY = ({a: self.phi_raw(a, w, y) for a in (1, 2, 3)} for w in (Xv, Yv))
            for a in (1, 2, 3):
                yield "axioms.unit_reeb", abs(dot(xi[a], xi[a]) - 1.0)
                yield "axioms.unit_reeb", abs(dot(xi[a], y))
                yield "axioms.phi_square", norm(self.phi_raw(a, pX[a], y) + Xv - eX[a] * xi[a])
                for b in (1, 2, 3):
                    dlt = 1.0 if a == b else 0.0
                    yield "axioms.eta_reeb", abs(dot(xi[a], xi[b]) - dlt)
                yield "axioms.compat", abs(dot(pX[a], pY[a]) - dot(Xv, Yv) + eX[a] * eY[a])
                yield "axioms.omega_skew", abs(dot(Xv, pX[a]))
                yield "axioms.omega_skew", abs(dot(Xv, pY[a]) + dot(Yv, pX[a]))
            for beta, gamma, theta in EVEN_PERMUTATIONS:
                yield "axioms.reeb_cross", norm(self.phi_raw(beta, xi[gamma], y) - xi[theta])
                yield "axioms.reeb_cross", norm(self.phi_raw(gamma, xi[beta], y) + xi[theta])
                comp = self.phi_raw(beta, pX[gamma], y) - eX[gamma] * xi[beta]
                yield "axioms.phi_compose", norm(comp - pX[theta])
                yield "axioms.eta_phi", abs(eX[theta] - dot(xi[beta], pX[gamma]))
                yield "axioms.eta_phi", abs(eX[theta] + dot(xi[gamma], pX[beta]))
            hX = self.project_h_raw(Xv, y)
            yield "axioms.projection", norm(self.project_h_raw(hX, y) - hX)
            yield "axioms.projection", abs(dot(hX, Yv) - dot(Xv, self.project_h_raw(Yv, y)))
            for a in (1, 2, 3):
                yield "axioms.projection", abs(dot(xi[a], hX))
