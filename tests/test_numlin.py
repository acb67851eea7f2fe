import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hkc
from hkc import connections, curvature, harness, numlin, sphere3s

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
    # a scalar leaf is a vector of one entry, so each leaf is shape (1,)
    u = Dual(Dual(1.0, 2.0), Dual(3.0, 4.0))
    s = dot(u, u)
    # (a + b e1 + c e2 + d e1 e2)^2 with a, b, c, d = 1, 2, 3, 4
    leaves = (s.val.val, s.val.dot, s.dot.val, s.dot.dot)
    assert [v.shape for v in leaves] == [(1,)] * 4
    assert np.array_equal(np.concatenate(leaves), [1.0, 4.0, 6.0, 20.0])
    assert dot(2.0, 3.5).shape == (1,) and dot(2.0, 3.5)[0] == 7.0


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
    # one row is a stack of one: a reduction keeps its axis, with the bits
    # of the plain numpy evaluation
    assert dot(w, w).shape == (1,) and dot(w, w)[0] == np.dot(w, w)
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
        assert got == norm(u)[0] == np.linalg.norm(u)
    assert norm(w).shape == (1,)
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


def _assert_dot_rows(d):
    """Each row of a stacked ``dot`` on broadcast and strided operands has
    the bits of ``np.dot`` on that row."""
    rng = np.random.default_rng(d)
    r = lambda *shape: rng.standard_normal(shape)
    for u, v in ((r(5, 1, 3, d), r(5, d, 1, d)),  # the alpha-stacked A on a basis
                 (r(5, 2 * d)[:, ::2], r(5, d, 3)[:, :, 1]),  # strided rows
                 (r(10, d)[::2], r(d)), (r(d), r(d, 5).T)):  # against one vector
        got = dot(u, v)
        U, V = np.broadcast_arrays(u, v)
        assert got.shape == U.shape[:-1] + (1,)
        for i in np.ndindex(U.shape[:-1]):
            assert got[i].tobytes() == np.dot(U[i], V[i]).tobytes(), (d, u.shape, i)


@pytest.mark.parametrize("d", [4, 8, 68])
def test_stacked_dot_rows_on_broadcast_and_strided_operands(d):
    _assert_dot_rows(d)


@pytest.mark.parametrize("coretype, core", [("Haswell", "Haswell"), ("Prescott", "Katmai")])
def test_stacked_dot_rows_under_other_blas_kernels(coretype, core):
    # the same check in a process whose OpenBLAS runs another kernel (it
    # names the kernel it loads on standard error at OPENBLAS_VERBOSE=2)
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2",
               PYTHONPATH=os.pathsep.join([str(here), str(here.parent / "src")]))
    code = "import test_numlin as t\nfor d in (4, 8, 68): t._assert_dot_rows(d)\nprint('ok')"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    if f"Core: {core}" not in out.stderr.splitlines():
        pytest.skip(f"OpenBLAS kernel {core} does not load here")
    assert out.returncode == 0 and out.stdout == "ok\n", out.stderr


@pytest.mark.parametrize("n, points", [(1, 6), (4, 3)])
def test_stacked_dot_bits_do_not_depend_on_layout(monkeypatch, n, points):
    # every stacked leaf of a whole run must give the bits it gives on
    # C-contiguous copies of its operands: a reduction whose kernel
    # followed the memory layout would keep the bits of one-row calls on
    # one layout only
    real = numlin.dot
    seen = {"stacked": 0, "strided": 0}

    def guarded(u, v):
        out = real(u, v)
        if isinstance(out, np.ndarray):
            seen["stacked"] += 1
            seen["strided"] += not (u.flags.c_contiguous and v.flags.c_contiguous)
            ref = real(np.ascontiguousarray(u), np.ascontiguousarray(v))
            assert ref.tobytes() == out.tobytes(), (u.strides, v.strides)
        return out

    for module in (numlin, sphere3s, connections, curvature, harness):
        monkeypatch.setattr(module, "dot", guarded)
    rep = harness.run_suites(hkc.RunConfig(n=n, points=points))
    assert rep.overall == "fail"  # the stated-value records stay red
    assert seen["stacked"] > 0


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


def test_central_difference_nests_on_a_dual_point():
    # the stencil divided at a dual point: its value leaf has the bits of
    # the stencil at the plain point
    rng = np.random.default_rng(31)
    a = rng.standard_normal(4)
    f = lambda y: dot(y, a) * dot(y, y) * y
    x, v = rng.standard_normal((2, 4))
    plain = directional_derivative(f, x, v, CENTRAL_DIFFERENCE)
    nested = directional_derivative(f, Dual(x, v), v, CENTRAL_DIFFERENCE)
    assert nested.val.tobytes() == plain.tobytes()
    value, deriv = value_and_derivative(f, Dual(x, v), v, CENTRAL_DIFFERENCE)
    assert deriv.val.tobytes() == plain.tobytes()
    assert value.val.tobytes() == f(x).tobytes()


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
    I1, I2, I3 = T = quaternion_structures(n)
    assert T.shape == (3, 4 * n + 4, 4 * n + 4)
    assert np.array_equal(I1 @ I2, I3)
    assert np.array_equal(I2 @ I3, I1)
    assert np.array_equal(I3 @ I1, I2)
    for I in T:
        assert np.array_equal(I @ I, -np.eye(4 * n + 4))


def test_quaternion_block_structure_n1():
    T = quaternion_structures(1)
    assert T.shape == (3, 8, 8)
    for I in T:
        assert np.array_equal(I.T, -I)
        assert np.array_equal(I.T @ I, np.eye(8))
        assert set(np.unique(I)) <= {-1.0, 0.0, 1.0}


def test_negative_n_rejected():
    for bad in (-1, 1.5, 1.0):
        with pytest.raises(StructuralError):
            quaternion_structures(bad)
