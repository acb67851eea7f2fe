import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hkc.numlin import (
    CENTRAL_DIFFERENCE,
    EXACT_FORWARD,
    DegenerateInputError,
    DiffScheme,
    Dual,
    StructuralError,
    NumericError,
    directional_derivative,
    dot,
    gram_schmidt,
    matvec,
    norm,
    quaternion_structures,
    value_and_derivative,
)


def e(i, dim=4):
    v = np.zeros(dim)
    v[i] = 1.0
    return v


# ============================================================
# dual arithmetic
# ============================================================

def test_dual_product_rule():
    a = Dual(3.0, 2.0)
    b = Dual(5.0, -1.0)
    p = a * b
    assert p.val == 15.0
    assert p.dot == 2.0 * 5.0 + 3.0 * (-1.0)


def test_dual_numpy_defers_to_reflected_ops():
    # ndarray * Dual must come back as a Dual, not an object array
    arr = np.array([1.0, 2.0])
    d = Dual(np.array([3.0, 4.0]), np.array([1.0, 0.0]))
    out = arr * d
    assert isinstance(out, Dual)
    assert np.allclose(out.val, [3.0, 8.0])
    assert np.allclose(out.dot, [1.0, 0.0])


def test_dot_is_bilinear_through_duals():
    u = Dual(np.array([1.0, 2.0]), np.array([0.5, 0.0]))
    v = np.array([3.0, -1.0])
    s = dot(u, v)
    assert isinstance(s, Dual)
    assert s.val == pytest.approx(1.0)
    assert s.dot == pytest.approx(1.5)


def test_matvec_passes_through_duals():
    M = np.array([[0.0, 1.0], [-1.0, 0.0]])
    d = Dual(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    out = matvec(M, d)
    assert isinstance(out, Dual)
    assert np.allclose(out.val, [0.0, -1.0])
    assert np.allclose(out.dot, [2.0, 0.0])


def test_dot_accepts_python_scalar_leaves():
    u = Dual(Dual(1.0, 2.0), Dual(3.0, 4.0))
    s = dot(u, u)
    # (a + b e1 + c e2 + d e1 e2)^2 with a, b, c, d = 1, 2, 3, 4
    assert (s.val.val, s.val.dot, s.dot.val, s.dot.dot) == (1.0, 4.0, 6.0, 20.0)
    assert dot(2.0, 3.5) == 7.0


@pytest.mark.parametrize("m", [3, 8])
def test_stacked_dot_and_matvec_match_rows(m):
    # m = 8 equals the dimension: a stack mistaken for a matrix would
    # still have a valid shape but give wrong rows
    rng = np.random.default_rng(m)
    d = 8
    M = rng.standard_normal((d, d))
    U = rng.standard_normal((m, d))
    V = rng.standard_normal((m, d))
    w = rng.standard_normal(d)
    # unstacked operands keep their plain numpy evaluation
    assert dot(w, w) == float(np.dot(w, w))
    assert np.array_equal(matvec(M, w), M @ w)
    # each stacked row has the bits of its unstacked evaluation, also for
    # a dense matrix, where the summation order shows in the last bits
    for got, want in ((dot(U, w), [np.dot(u, w) for u in U]),
                      (dot(w, U), [np.dot(w, u) for u in U]),
                      (dot(U, V), [np.dot(u, v) for u, v in zip(U, V)])):
        assert got.shape == (m, 1)
        assert np.array_equal(got[:, 0], want)
    # the length is per row as well, with the bits of a one-row call
    # (which are those of the 1-D np.linalg.norm)
    NU = norm(U)
    assert NU.shape == (m, 1)
    for got, u in zip(NU[:, 0], U):
        assert got == norm(u) == np.linalg.norm(u)
    assert type(norm(w)) is float
    MU = matvec(M, U)
    assert MU.shape == (m, d)
    for row, u in zip(MU, U):
        assert np.array_equal(row, M @ u)
    # stacked directions through a dual: rows are the per-row duals
    out = dot(Dual(w, U), Dual(w, V))
    for i in range(m):
        row = dot(Dual(w, U[i]), Dual(w, V[i]))
        assert out.val == row.val
        assert out.dot[i, 0] == pytest.approx(row.dot, abs=1e-13)


# ============================================================
# directional derivatives
# ============================================================

def test_derivative_of_linear_map_is_the_map():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((4, 4))
    x = rng.standard_normal(4)
    v = rng.standard_normal(4)
    out = directional_derivative(lambda y: matvec(A, y), x, v)
    assert np.allclose(out, A @ v, atol=1e-14)


def test_derivative_of_cubic_hand_value():
    # f(y) = <y,y> y at x = e1 along v = e2:
    # D f = 2<x,v> x + <x,x> v = e2 exactly
    f = lambda y: dot(y, y) * y
    out = directional_derivative(f, e(0), e(1))
    assert np.allclose(out, e(1), atol=1e-14)
    # cross-check against the independent finite-difference scheme
    fd = directional_derivative(f, e(0), e(1), CENTRAL_DIFFERENCE)
    assert np.max(np.abs(out - fd)) < 1e-8


def test_nested_second_derivative_hand_value():
    # f(y) = <y,c>^2; second derivative along (v, v) is 2<v,c>^2
    c = np.array([1.0, 2.0, 3.0, 4.0])
    v = np.array([0.5, -1.0, 0.25, 2.0])
    f = lambda y: dot(y, c) * dot(y, c)
    inner = lambda y: directional_derivative(f, y, v)
    out = directional_derivative(inner, e(0), v)
    assert out == pytest.approx(2.0 * np.dot(v, c) ** 2, abs=1e-10)


def test_exact_and_central_agree_on_low_degree_polynomials():
    rng = np.random.default_rng(29)
    a, b, c = rng.standard_normal((3, 4))
    f = lambda y: dot(y, a) * dot(y, b) * c + dot(y, y) * y
    worst = 0.0
    for _ in range(20):
        x = rng.standard_normal(4)
        v = rng.standard_normal(4)
        ex = directional_derivative(f, x, v)
        fd = directional_derivative(f, x, v, CENTRAL_DIFFERENCE)
        worst = max(worst, float(np.max(np.abs(ex - fd))))
    assert worst < 1e-8


@settings(max_examples=30, deadline=None)
@given(st.floats(-3.0, 3.0, allow_nan=False))
def test_derivative_linear_in_direction(scale):
    rng = np.random.default_rng(7)
    a = rng.standard_normal(4)
    f = lambda y: dot(y, a) * y
    x = rng.standard_normal(4)
    v = rng.standard_normal(4)
    w = rng.standard_normal(4)
    lhs = directional_derivative(f, x, scale * v + w)
    rhs = (scale * directional_derivative(f, x, v)
           + directional_derivative(f, x, w))
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_stacked_directions_give_stacked_derivatives():
    rng = np.random.default_rng(17)
    a = rng.standard_normal(5)
    f = lambda y: dot(y, a) * dot(y, y) * y
    x = rng.standard_normal(5)
    V = rng.standard_normal((5, 5))
    for scheme in (EXACT_FORWARD, CENTRAL_DIFFERENCE):
        out = directional_derivative(f, x, V, scheme)
        assert out.shape == (5, 5)
        for row, v in zip(out, V):
            assert np.allclose(row, directional_derivative(f, x, v, scheme),
                               rtol=0.0, atol=1e-9)


def test_value_and_derivative_is_one_evaluation():
    rng = np.random.default_rng(23)
    a = rng.standard_normal(4)
    calls = []

    def f(y):
        calls.append(y)
        return dot(y, a) * y

    x, v = rng.standard_normal((2, 4))
    value, deriv = value_and_derivative(f, x, v)
    assert len(calls) == 1
    assert np.array_equal(value, f(x))
    assert np.array_equal(deriv, directional_derivative(f, x, v))
    # the stencil needs no value: one evaluation more for the pair
    calls.clear()
    value, deriv = value_and_derivative(f, x, v, CENTRAL_DIFFERENCE)
    assert len(calls) == 3
    calls.clear()
    directional_derivative(f, x, v, CENTRAL_DIFFERENCE)
    assert len(calls) == 2


def test_derivative_shape_mismatch_raises():
    with pytest.raises(StructuralError):
        directional_derivative(lambda y: y, np.zeros(4), np.zeros(5))


def test_derivative_nonfinite_raises():
    with pytest.raises(NumericError):
        directional_derivative(lambda y: y * np.inf, np.ones(3), np.ones(3))


@pytest.mark.parametrize("scheme", [EXACT_FORWARD, CENTRAL_DIFFERENCE])
def test_stacked_point_nonfinite_raises(scheme):
    # a stack of points (one row per sample) reports the size of the whole
    # stack instead of failing to format a row-by-row inner product
    with pytest.raises(NumericError, match=r"\|x\|=4\.899e\+00"), \
            np.errstate(invalid="ignore"):
        directional_derivative(lambda y: y * np.inf, np.ones((3, 8)),
                               np.ones((3, 8)), scheme)


def test_scheme_validation():
    with pytest.raises(StructuralError):
        DiffScheme("backward")
    with pytest.raises(StructuralError):
        DiffScheme("central-difference", step=0.0)
    assert EXACT_FORWARD.kind == "exact-forward"


# ============================================================
# orthonormalization
# ============================================================

def test_gram_schmidt_rescales_and_keeps_orthogonal():
    out = gram_schmidt([2.0 * e(0), e(1)])
    assert np.allclose(out[0], e(0), atol=1e-14)
    assert np.allclose(out[1], e(1), atol=1e-14)


def test_gram_schmidt_eliminates():
    out = gram_schmidt([e(0), e(0) + e(1)])
    assert np.allclose(out[1], e(1), atol=1e-14)


def test_gram_schmidt_degenerate_named_index():
    with pytest.raises(DegenerateInputError) as exc:
        gram_schmidt([e(0), e(0)])
    assert exc.value.index == 2


def test_gram_schmidt_orthonormality_bound():
    rng = np.random.default_rng(3)
    for _ in range(10):
        vs = list(rng.standard_normal((5, 8)))
        out = gram_schmidt(vs)
        G = np.array(out)
        gram = G @ G.T
        assert np.max(np.abs(gram - np.eye(5))) < 1e-12


def test_stacked_gram_schmidt_matches_rows():
    # each row position of stacked vectors is orthonormalized on its own,
    # with the bits of its one-row call
    rng = np.random.default_rng(4)
    vs = list(rng.standard_normal((5, 8, 8)))
    out = gram_schmidt(vs)
    for i in range(8):
        for a, b in zip(out, gram_schmidt([v[i] for v in vs])):
            assert np.array_equal(a[i], b)
    # rows 2 and 6 of vector 4 depend on their predecessors: the error
    # names vector 4 and the pivot of row 2, as its one-row call does
    vs[3][2] = vs[0][2] + 1e-12 * vs[1][2]
    vs[3][6] = vs[1][6]
    with pytest.raises(DegenerateInputError) as exc:
        gram_schmidt(vs)
    with pytest.raises(DegenerateInputError) as alone:
        gram_schmidt([v[2] for v in vs])
    assert exc.value.index == alone.value.index == 4
    assert str(exc.value) == str(alone.value)
    with pytest.raises(DegenerateInputError) as later:
        gram_schmidt([v[6] for v in vs])
    assert str(later.value) != str(exc.value)


# ============================================================
# quaternionic structure matrices
# ============================================================

@pytest.mark.parametrize("n", [0, 1])
def test_quaternion_products_exact(n):
    T = quaternion_structures(n)
    assert np.array_equal(T.I1 @ T.I2, T.I3)
    assert np.array_equal(T.I2 @ T.I3, T.I1)
    assert np.array_equal(T.I3 @ T.I1, T.I2)
    for I in T.as_tuple():
        assert np.array_equal(I @ I, -np.eye(T.dim))


def test_quaternion_block_structure_n1():
    T = quaternion_structures(1)
    assert T.dim == 8
    for I in T.as_tuple():
        assert I.shape == (8, 8)
        assert np.array_equal(I.T, -I)
        assert np.array_equal(I.T @ I, np.eye(8))
        assert set(np.unique(I)) <= {-1.0, 0.0, 1.0}


def test_negative_n_rejected():
    with pytest.raises(StructuralError):
        quaternion_structures(-1)
