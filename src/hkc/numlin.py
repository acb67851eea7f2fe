"""Ambient linear algebra and exact forward-mode directional differentiation.

Everything here operates on plain numpy arrays *or* on :class:`Dual`
values, so directional derivatives can be nested: the derivative of a
function that itself takes directional derivatives is again computable
with the same machinery.  That nesting is what makes curvature tensors
(second covariant derivatives) evaluable to machine precision without
finite-difference noise.
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

    def reciprocal(self):
        r = self.val.reciprocal() if isinstance(self.val, Dual) else 1.0 / self.val
        return Dual(r, -(self.dot * r) * r)

    def __truediv__(self, other):
        if isinstance(other, Dual):
            return self * other.reciprocal()
        return Dual(self.val / other, self.dot / other)

    def __rtruediv__(self, other):
        return other * self.reciprocal()


def dot(u, v):
    """Euclidean inner product, bilinear through any nesting of duals."""
    if isinstance(u, Dual):
        return Dual(dot(u.val, v.val if isinstance(v, Dual) else v),
                    dot(u.dot, v.val if isinstance(v, Dual) else v)
                    + (dot(u.val, v.dot) if isinstance(v, Dual) else 0.0))
    if isinstance(v, Dual):
        return Dual(dot(u, v.val), dot(u, v.dot))
    return float(np.dot(u, v))


def matvec(M, v):
    """Apply a constant matrix to a vector or dual vector."""
    if isinstance(v, Dual):
        return Dual(matvec(M, v.val), matvec(M, v.dot))
    return M @ v


def norm(u):
    return float(np.sqrt(np.dot(u, u)))


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
        if self.kind == "central-difference" and not self.step > 0:
            raise StructuralError("central-difference step must be positive")


EXACT_FORWARD = DiffScheme("exact-forward")
CENTRAL_DIFFERENCE = DiffScheme("central-difference", 1e-5)


def directional_derivative(f, x, v, scheme=EXACT_FORWARD):
    """Derivative of ``f`` at ``x`` along ``v``: d/dt f(x + t v) at t = 0.

    ``f`` must accept dual inputs when the exact-forward scheme is used
    (all polynomial/rational closures built in this package do).  The
    call nests: ``x`` and ``v`` may themselves be duals, in which case
    the result is a dual carrying the next derivative order.
    """
    plain = not isinstance(x, Dual) and not isinstance(v, Dual)
    if plain:
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.shape != v.shape:
            raise StructuralError(
                f"point and direction shapes differ: {x.shape} vs {v.shape}")
    if scheme.kind == "exact-forward":
        out = f(Dual(x, v))
        if isinstance(out, Dual):
            out = out.dot
        else:
            # f ignored the dual part, i.e. it is locally constant
            out = np.zeros_like(np.asarray(out, dtype=float))
    else:
        h = scheme.step
        out = (f(x + h * v) - f(x - h * v)) / (2.0 * h)
    if plain and not _all_finite(out):
        raise NumericError(
            f"directional derivative produced non-finite values "
            f"(scheme={scheme.kind}, |x|={norm(x):.3e}, |v|={norm(v):.3e})")
    return out


def bracket_raw(F, G, y, scheme=EXACT_FORWARD):
    """Lie bracket [F, G](y) of two ambient field closures:
    the derivative of G along F minus that of F along G."""
    return (directional_derivative(G, y, F(y), scheme)
            - directional_derivative(F, y, G(y), scheme))


# ============================================================
# orthonormalization
# ============================================================

PIVOT_TOL = 1e-10


def gram_schmidt(vectors, inner=None):
    """Orthonormalize ``vectors`` with respect to the bilinear form ``inner``.

    Modified Gram-Schmidt.  Raises :class:`DegenerateInputError` naming
    the 1-based index of the first vector whose residual norm falls
    below ``PIVOT_TOL``.
    """
    if inner is None:
        inner = lambda u, w: float(np.dot(u, w))
    out = []
    for i, v in enumerate(vectors):
        w = np.array(v, dtype=float, copy=True)
        for u in out:
            w = w - inner(u, w) * u
        pivot = np.sqrt(max(inner(w, w), 0.0))
        if pivot < PIVOT_TOL:
            raise DegenerateInputError(
                f"vector {i + 1} is linearly dependent on its predecessors "
                f"(pivot {pivot:.3e} < {PIVOT_TOL:g})", index=i + 1)
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

    def validate(self):
        """Check orthogonality, skewness, squares, and the product cycle.

        The matrices have entries in {-1, 0, 1}, so all checks are exact
        in floating point; any nonzero residual raises.
        """
        ident = np.eye(self.dim)
        for k, I in enumerate(self.as_tuple(), start=1):
            if I.shape != (self.dim, self.dim):
                raise StructuralError(f"structure {k} is not square of size {self.dim}")
            if not np.array_equal(I.T, -I):
                raise StructuralError(f"structure {k} is not skew-symmetric")
            if not np.array_equal(I.T @ I, ident):
                raise StructuralError(f"structure {k} is not orthogonal")
            if not np.array_equal(I @ I, -ident):
                raise StructuralError(f"structure {k} does not square to -identity")
        I1, I2, I3 = self.as_tuple()
        for name, lhs, rhs in (("I1@I2 = I3", I1 @ I2, I3),
                               ("I2@I3 = I1", I2 @ I3, I1),
                               ("I3@I1 = I2", I3 @ I1, I2)):
            if not np.array_equal(lhs, rhs):
                raise StructuralError(f"product relation {name} violated")
        return True


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
