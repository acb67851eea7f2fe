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
its one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StructuralError",
    "NumericError",
    "DegenerateInputError",
    "PreconditionError",
    "InternalConsistencyError",
    "Dual",
    "dot",
    "matvec",
    "norm",
    "DiffScheme",
    "EXACT_FORWARD",
    "CENTRAL_DIFFERENCE",
    "directional_derivative",
    "value_and_derivative",
    "gram_schmidt",
    "ComplexStructureTriple",
    "quaternion_structures",
    "PIVOT_TOL",
]


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

    def __neg__(self):
        return Dual(-self.val, -self.dot)


def dot(u, v):
    """Euclidean inner product over the last axis, bilinear through any
    nesting of duals.  Two 1-D (or scalar) leaves give a float; a stack
    of vectors on either side gives shape ``(..., 1)``, which broadcasts
    against vectors."""
    if isinstance(u, Dual):
        return Dual(dot(u.val, v.val if isinstance(v, Dual) else v),
                    dot(u.dot, v.val if isinstance(v, Dual) else v)
                    + (dot(u.val, v.dot) if isinstance(v, Dual) else 0.0))
    if isinstance(v, Dual):
        return Dual(dot(u, v.val), dot(u, v.dot))
    if getattr(u, "ndim", 0) > 1 or getattr(v, "ndim", 0) > 1:
        return np.matmul(u[..., None, :], v[..., :, None])[..., 0]
    return float(np.dot(u, v))


def matvec(M, v):
    """Apply a constant matrix to a vector, a stack of vectors (last
    axis), or a dual of either.  A stack is one matrix-vector product per
    row, so each row has the bits of ``M @ row``."""
    if isinstance(v, Dual):
        return Dual(matvec(M, v.val), matvec(M, v.dot))
    if v.ndim > 1:
        return np.matmul(M, v[..., None])[..., 0]
    return M @ v


def norm(u):
    """Euclidean length over the last axis, per row as in :func:`dot`: a
    float for one vector, shape ``(..., 1)`` for a stack."""
    sq = dot(u, u)
    return np.sqrt(sq) if isinstance(sq, np.ndarray) else float(np.sqrt(sq))


def _all_finite(obj):
    if isinstance(obj, Dual):
        return _all_finite(obj.val) and _all_finite(obj.dot)
    return bool(np.all(np.isfinite(obj)))


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
        return x, v, False
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape[-1:] != v.shape[-1:]:
        raise StructuralError(
            f"point and direction shapes differ: {x.shape} vs {v.shape}")
    return x, v, True


def _central(f, x, v, step):
    return (f(x + step * v) - f(x - step * v)) / (2.0 * step)


def _checked(out, plain, x, v, scheme):
    if plain and not _all_finite(out):
        raise NumericError(
            f"directional derivative produced non-finite values "
            f"(scheme={scheme.kind}, |x|={norm(x.ravel()):.3e}, "
            f"|v|={norm(v.ravel()):.3e})")
    return out


def value_and_derivative(f, x, v, scheme=EXACT_FORWARD):
    """``f(x)`` and the derivative of ``f`` at ``x`` along ``v``.

    Under the exact-forward scheme both come out of one evaluation of
    ``f`` on a dual input.  Under central difference the value costs one
    evaluation more than the stencil.
    """
    x, v, plain = _point_and_direction(x, v)
    if scheme.kind == "exact-forward":
        out = f(Dual(x, v))
        if isinstance(out, Dual):
            value, out = out.val, out.dot
        else:
            # f ignored the dual part, i.e. it is locally constant
            value, out = out, np.zeros_like(np.asarray(out, dtype=float))
    else:
        value, out = f(x), _central(f, x, v, scheme.step)
    return value, _checked(out, plain, x, v, scheme)


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
    x, v, plain = _point_and_direction(x, v)
    return _checked(_central(f, x, v, scheme.step), plain, x, v, scheme)


def bracket_raw(F, G, y, scheme=EXACT_FORWARD):
    """Lie bracket [F, G](y) of two ambient field closures:
    the derivative of G along F minus that of F along G."""
    return (directional_derivative(G, y, F(y), scheme)
            - directional_derivative(F, y, G(y), scheme))


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


@dataclass(frozen=True)
class ComplexStructureTriple:
    """Three anticommuting orthogonal complex structures on R^{4(n+1)}."""

    I1: np.ndarray
    I2: np.ndarray
    I3: np.ndarray

    @property
    def dim(self):
        return self.I1.shape[0]

    def as_tuple(self):
        return (self.I1, self.I2, self.I3)


def quaternion_structures(n):
    """Block-diagonal complex-structure triple on R^{4(n+1)}.

    Each factor R^4 carries right quaternion multiplication by the three
    units; the triple satisfies the even-permutation products I1@I2 = I3,
    I2@I3 = I1, I3@I1 = I2 exactly.
    """
    if n < 0:
        raise StructuralError("n must be a nonnegative integer")
    eye = np.eye(n + 1)
    I1, I2, I3 = (np.kron(eye, B) for B in _UNIT_BLOCKS)
    return ComplexStructureTriple(I1=I1, I2=I2, I3=I3)
