"""Ambient linear algebra and exact forward-mode directional differentiation.

Everything here operates on plain numpy arrays *or* on :class:`Dual`
values, so directional derivatives can be nested: the derivative of a
function that itself takes directional derivatives is again computable
with the same machinery.  That nesting is what makes curvature tensors
(second covariant derivatives) evaluable to machine precision without
finite-difference noise.

A point or a direction may also be a stack of vectors along leading
axes (vector-mode forward differentiation): ``dot``, ``norm``,
``matvec`` and ``gram_schmidt`` act on the last axis, so one evaluation
carries a value and a derivative per stacked row, each with the bits of
its one-row call.  A reduction keeps its axis: ``dot`` and ``norm`` give
shape ``(..., 1)``, ``(1,)`` for one row, which broadcasts against the
vectors it scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ============================================================
# error taxonomy
# ============================================================

class StructuralError(ValueError):
    """Shape, base-point, or index mismatch: the inputs do not fit together."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


class DegenerateInputError(ValueError):
    """Input data is rank-deficient or otherwise degenerate.

    ``index`` is the 1-based position of the offending element when one
    can be named.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class PreconditionError(ValueError):
    """A documented call precondition was violated."""


class InternalConsistencyError(RuntimeError):
    """Two internal computation routes that must agree did not."""


def is_count(v):
    """An int or a numpy integer: a bool or a float equal to an integer
    must not pass for a dimension, a count, a seed or an index."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


# ============================================================
# dual numbers (forward-mode differentiation, nestable)
# ============================================================

class Dual:
    """A value paired with its directional derivative.

    ``val`` and ``dot`` are numpy arrays, scalars, or further ``Dual``
    instances; nesting one level per differentiation order.  Arithmetic
    is the usual product/sum rule, written so that every operation on
    ``val``/``dot`` goes back through this class when they are duals
    themselves.

    ``__array_ufunc__ = None`` makes numpy defer to the reflected
    operators, so ``ndarray * Dual`` produces a ``Dual`` instead of an
    object array.
    """

    __slots__ = ("val", "dot")
    __array_ufunc__ = None

    def __init__(self, val, dot):
        self.val = val
        self.dot = dot

    def __repr__(self):
        return f"Dual(val={self.val!r}, dot={self.dot!r})"

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val + other.val, self.dot + other.dot)
        return Dual(self.val + other, self.dot)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val - other.val, self.dot - other.dot)
        return Dual(self.val - other, self.dot)

    def __rsub__(self, other):
        return Dual(other - self.val, -self.dot)

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.val * other.val,
                        self.dot * other.val + self.val * other.dot)
        return Dual(self.val * other, self.dot * other)

    __rmul__ = __mul__

    def __truediv__(self, other):  # a plain divisor, as a stencil's
        return Dual(self.val / other, self.dot / other)

    def __neg__(self):
        return Dual(-self.val, -self.dot)


def leafmap(f, v):
    """``f`` on every leaf of a (nested) dual, or on a plain ``v``: how a
    new stacking axis enters a dual, or a reduction over one leaves it."""
    if isinstance(v, Dual):
        return Dual(leafmap(f, v.val), leafmap(f, v.dot))
    return f(v)


def dot(u, v):
    """Euclidean inner product over the last axis, bilinear through any
    nesting of duals: shape ``(..., 1)``, ``(1,)`` for two vectors, which
    broadcasts against vectors.  A leaf is one ``np.vecdot``: one BLAS dot
    per row, each with the bits of ``np.dot`` on that row, in any layout.
    A Python-scalar leaf, as in a hand-built dual, is a vector of one
    entry."""
    if isinstance(u, Dual):
        return Dual(dot(u.val, v.val if isinstance(v, Dual) else v),
                    dot(u.dot, v.val if isinstance(v, Dual) else v)
                    + (dot(u.val, v.dot) if isinstance(v, Dual) else 0.0))
    if isinstance(v, Dual):
        return Dual(dot(u, v.val), dot(u, v.dot))
    try:
        return np.vecdot(u, v)[..., None]
    except ValueError:  # no last axis: a scalar (else the mismatch raises again)
        return np.vecdot([u], [v])[..., None]


def matvec(M, v):
    """Apply a constant matrix to each row of a vector or a stack of them
    (last axis), or of a dual of either: one matrix-vector product per
    row, so each row has the bits of ``M @ row`` (layout: see :func:`dot`)."""
    if isinstance(v, Dual):
        return Dual(matvec(M, v.val), matvec(M, v.dot))
    return np.matmul(M, v[..., None])[..., 0]


def norm(u):
    """Euclidean length over the last axis, per row as in :func:`dot`:
    shape ``(..., 1)``."""
    return np.sqrt(dot(u, u))


def _all_finite(obj):
    if isinstance(obj, Dual):
        return _all_finite(obj.val) and _all_finite(obj.dot)
    return np.isfinite(obj).all()


# ============================================================
# differentiation schemes
# ============================================================

@dataclass(frozen=True)
class DiffScheme:
    """How directional derivatives are evaluated.

    ``exact-forward`` pushes a dual number through the function and is
    exact to rounding; ``central-difference`` is the classical
    second-order stencil, kept as an independent cross-check.
    """

    kind: str = "exact-forward"
    step: float = 1e-5

    def __post_init__(self):
        if self.kind not in ("exact-forward", "central-difference"):
            raise StructuralError(f"unknown differentiation scheme kind {self.kind!r}")
        if self.kind == "central-difference" and not 0 < self.step < np.inf:
            raise StructuralError(
                "central-difference step must be positive and finite")


EXACT_FORWARD = DiffScheme("exact-forward")
CENTRAL_DIFFERENCE = DiffScheme("central-difference", 1e-5)


def _point_and_direction(x, v):
    """Plain arrays for plain inputs; ``v`` may be a stack of directions
    (its last axis matches the point)."""
    if isinstance(x, Dual) or isinstance(v, Dual):
        return x, v
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape[-1:] != v.shape[-1:]:
        raise StructuralError(
            f"point and direction shapes differ: {x.shape} vs {v.shape}")
    return x, v


def derivative_of(values, x, v, scheme=EXACT_FORWARD):
    """The derivative along ``v`` at ``x`` that :func:`value_and_derivative`
    forms from its evaluations ``values`` of a function: the dual part of
    the one (zeros for a plain one: the function is locally constant), or
    the central difference of the last two; non-finite at a plain x raises."""
    if scheme.kind == "exact-forward":
        out = values[-1]
        out = out.dot if isinstance(out, Dual) else np.zeros_like(np.asarray(out, dtype=float))
    else:
        out = (values[-2] - values[-1]) / (2.0 * scheme.step)
    if not isinstance(x, Dual) and not isinstance(v, Dual) and not _all_finite(out):
        raise NumericError(
            f"directional derivative produced non-finite values "
            f"(scheme={scheme.kind}, |x|={norm(x.ravel())[0]:.3e}, "
            f"|v|={norm(v.ravel())[0]:.3e})")
    return out


def value_and_derivative(f, x, v, scheme=EXACT_FORWARD):
    """``f(x)`` and the derivative of ``f`` at ``x`` along ``v``.

    Under the exact-forward scheme both come out of one evaluation of
    ``f`` on a dual input.  Under central difference the value costs one
    evaluation more than the stencil.
    """
    x, v = _point_and_direction(x, v)
    if scheme.kind == "exact-forward":
        out = f(Dual(x, v))
        return getattr(out, "val", out), derivative_of([out], x, v, scheme)
    values = [f(x), f(x + scheme.step * v), f(x - scheme.step * v)]
    return values[0], derivative_of(values, x, v, scheme)


def directional_derivative(f, x, v, scheme=EXACT_FORWARD):
    """Derivative of ``f`` at ``x`` along ``v``: d/dt f(x + t v) at t = 0.

    ``f`` must accept dual inputs when the exact-forward scheme is used
    (all polynomial/rational closures built in this package do).  The
    call nests: ``x`` and ``v`` may themselves be duals, in which case
    the result is a dual carrying the next derivative order.  ``v`` may
    be a stack of directions, one per leading index; the result is then
    stacked the same way.
    """
    if scheme.kind == "exact-forward":
        return value_and_derivative(f, x, v, scheme)[1]
    x, v = _point_and_direction(x, v)
    return derivative_of([f(x + scheme.step * v), f(x - scheme.step * v)], x, v, scheme)


# ============================================================
# orthonormalization
# ============================================================

PIVOT_TOL = 1e-10


def gram_schmidt(vectors):
    """Orthonormalize ``vectors`` with respect to the Euclidean inner
    product, each row of a stack of them on its own.

    Modified Gram-Schmidt.  Raises :class:`DegenerateInputError` naming
    the 1-based index of the first vector whose residual norm falls
    below ``PIVOT_TOL`` (on some row; the pivot shown is the first's).
    """
    out = []
    for i, v in enumerate(vectors):
        w = np.array(v, dtype=float, copy=True)
        for u in out:
            w = w - dot(u, w) * u
        pivot = norm(w)
        bad = np.ravel(pivot) < PIVOT_TOL
        if bad.any():
            raise DegenerateInputError(
                f"vector {i + 1} is linearly dependent on its predecessors "
                f"(pivot {np.ravel(pivot)[bad][0]:.3e} < {PIVOT_TOL:g})",
                index=i + 1)
        out.append(w / pivot)
    return out


# ============================================================
# quaternionic structure matrices
# ============================================================

# 4x4 blocks of right multiplication by the quaternion units on R^4 = H,
# oriented so that the even-permutation products hold: B1 @ B2 == B3,
# B2 @ B3 == B1, B3 @ B1 == B2.
_UNIT_BLOCKS = (
    np.array([[0, 1, 0, 0],
              [-1, 0, 0, 0],
              [0, 0, 0, -1],
              [0, 0, 1, 0]], dtype=float),
    np.array([[0, 0, 1, 0],
              [0, 0, 0, 1],
              [-1, 0, 0, 0],
              [0, -1, 0, 0]], dtype=float),
    np.array([[0, 0, 0, 1],
              [0, 0, -1, 0],
              [0, 1, 0, 0],
              [-1, 0, 0, 0]], dtype=float),
)


def quaternion_structures(n):
    """Block-diagonal complex-structure triple on R^{4(n+1)}, as one
    ``(3, d, d)`` stack I1, I2, I3.

    Each factor R^4 carries right quaternion multiplication by the three
    units; the triple satisfies the even-permutation products I1@I2 = I3,
    I2@I3 = I1, I3@I1 = I2 exactly.
    """
    if not is_count(n) or n < 0:
        raise StructuralError(f"n must be a nonnegative integer, got {n!r}")
    return np.stack([np.kron(np.eye(n + 1), B) for B in _UNIT_BLOCKS])
