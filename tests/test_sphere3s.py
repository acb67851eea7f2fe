import numpy as np
import pytest

from hkc.numlin import (DegenerateInputError, Dual, StructuralError, dot,
                         gram_schmidt, leafmap, matvec, norm,
                         quaternion_structures)
from hkc.sphere3s import (
    EVEN_PERMUTATIONS,
    SpherePoint,
    TangentVector,
    ThreeSasakiStructure,
)
from hkc.connections import VectorField

from conftest import leaves, rand_point, rotated, stack_rows


def rand_tangent(struct, x, rng, in_h=False):
    w = rng.standard_normal(struct.ambient_dim)
    w = struct.project_h_raw(w, x.x) if in_h else struct.tangent_project_raw(w, x.x)
    return TangentVector(x, w / np.linalg.norm(w))


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(20240816)


@pytest.fixture(scope="module")
def stack(struct):
    """d sample rows, d the ambient dimension (a stack mistaken for a
    matrix keeps a valid shape there): points y, tangent vectors w and u,
    and distribution vectors h, one per point."""
    rng = np.random.default_rng(5)
    y, w, u, h = [], [], [], []
    for _ in range(struct.ambient_dim):
        x = rand_point(struct, rng)
        y.append(x.x)
        w.append(rand_tangent(struct, x, rng).v)
        u.append(rand_tangent(struct, x, rng).v)
        h.append(rand_tangent(struct, x, rng, in_h=True).v)
    return {k: np.array(v) for k, v in zip("ywuh", (y, w, u, h))}


def assert_rows_match(f, *stacks):
    """f on stacked rows gives, row for row, the bits of f on each row."""
    out = f(*stacks)
    assert len(out) == len(stacks[0])
    for i, row in enumerate(out):
        assert np.array_equal(row, np.reshape(f(*(a[i] for a in stacks)), -1))


# ============================================================
# points and tangent vectors
# ============================================================

def test_sphere_point_must_be_unit():
    with pytest.raises(StructuralError):
        SpherePoint(np.array([1.0, 1.0, 0.0, 0.0]))
    p = SpherePoint.normalized(np.array([3.0, 4.0, 0.0, 0.0]))
    assert np.allclose(p.x, [0.6, 0.8, 0.0, 0.0])
    # a stack checks every row, and the error names the first bad one
    rows = np.array([[1.0, 0, 0, 0], [0, 2.0, 0, 0], [0, 0, 3.0, 0]])
    with pytest.raises(StructuralError, match="point norm 2.0 "):
        SpherePoint(rows)
    assert np.allclose(SpherePoint.normalized(rows).x, np.eye(4)[:3])
    with pytest.raises(DegenerateInputError, match="cannot normalize the zero vector"):
        SpherePoint.normalized(np.zeros(8))


def test_tangent_vector_must_be_orthogonal():
    p = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(StructuralError):
        TangentVector(p, np.array([0.5, 1.0, 0.0, 0.0]))
    t = TangentVector(p, np.array([0.0, 2.0, 0.0, 0.0]))
    assert t.norm() == pytest.approx(2.0)
    # a stack at a stack of points: every row is checked, the error names
    # the first bad one, and a single point does not stand for a stack
    ps = SpherePoint(np.eye(4)[:3])
    with pytest.raises(StructuralError, match="= 5.000e-01 "):
        TangentVector(ps, np.array([[0, 1.0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.7, 0]]))
    with pytest.raises(StructuralError, match="wrong ambient dimension"):
        TangentVector(p, np.zeros((3, 4)))
    ts = TangentVector(ps, np.array([[0, 3.0, 0, 0], [4.0, 0, 0, 0], [0, 0, 0, 1.0]]))
    assert np.array_equal(ts.norm(), [[3.0], [4.0], [1.0]])


def test_non_finite_values_fail_the_edge_checks():
    with pytest.raises(StructuralError, match="point norm nan"):
        SpherePoint(np.full(8, np.nan))
    with pytest.raises(StructuralError, match="point norm inf"):
        SpherePoint(np.array([[1.0, 0, 0, 0], [np.inf, 0, 0, 0]]))
    with pytest.raises(StructuralError, match="point norm nan"):
        SpherePoint.normalized(np.full(8, np.nan))
    p = SpherePoint(np.eye(4)[0])
    with pytest.raises(StructuralError, match="= nan "):
        TangentVector(p, np.array([0.0, np.nan, 0.0, 0.0]))
    # rejected where they enter, before a division or a dot that would warn
    with pytest.raises(StructuralError, match="point norm inf is not finite"):
        SpherePoint.normalized(np.full(8, np.inf))
    with pytest.raises(StructuralError, match="= inf "):
        TangentVector(SpherePoint.normalized(np.ones(8)), np.full(8, 1e308))
    with pytest.raises(StructuralError, match="not finite"):
        VectorField.extension(ThreeSasakiStructure(n=1), np.full(8, np.inf))


def test_a_finite_row_whose_norm_overflows_is_scaled_first():
    # the norm of entries of 1e200 overflows (a warning, then "point norm
    # inf is not finite"); such a row is divided by its largest |entry|
    # before its norm, and no other row moves a bit
    assert np.array_equal(SpherePoint.normalized(np.full(8, 1e200)).x,
                          np.full(8, 1 / np.sqrt(8)))
    rows = np.array([[3.0, 4.0, 0.0, 0.0], [1e300, 0.0, 0.0, -1e300]])
    got = SpherePoint.normalized(rows).x
    assert np.array_equal(got[0], SpherePoint.normalized(rows[0]).x)
    assert np.array_equal(got[1], np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2))
    x = SpherePoint(np.eye(8)[0])
    big = TangentVector(x, np.r_[0.0, np.full(7, 1e200)])
    assert big.norm() == pytest.approx(np.sqrt(7) * 1e200, rel=1e-15)
    assert TangentVector(x, np.r_[0.0, np.full(7, 1e308)]).norm() == np.inf
    # a non-finite coordinate is not scaled, and still raises
    for bad in (np.r_[np.inf, np.full(7, 1e200)], np.r_[np.nan, np.full(7, 1e200)],
                np.array([[1.0, 0, 0, 0], [-np.inf, 1e300, 0, 0]])):
        with pytest.raises(StructuralError, match="is not finite"):
            SpherePoint.normalized(bad)


def test_an_empty_stack_of_points_is_rejected_where_it_enters():
    # a stack of no rows has no row to check; unchecked, it would reach the
    # operations, which divide a pass budget by its row count or join no
    # chunks, or return empty records
    for rows in (np.empty((0, 8)), np.empty((0, 4))):
        with pytest.raises(StructuralError, match="no points"):
            SpherePoint(rows)
        with pytest.raises(StructuralError, match="no points"):
            SpherePoint.normalized(rows)


# ============================================================
# the structure tensors
# ============================================================

def test_reeb_hand_value_plus_sign_n0():
    # with the + orientation, the first Reeb vector at e1 is the first
    # column of the first structure matrix: (0, -1, 0, 0)
    s = ThreeSasakiStructure(n=0, sign=+1)
    x = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))
    xi = s.reeb_raw(1, x.x)
    assert np.allclose(xi, [0.0, -1.0, 0.0, 0.0], atol=1e-15)
    # stacked over the d basis points e_i: row i is the i-th column
    E = np.eye(s.ambient_dim)
    assert_rows_match(lambda y: s.reeb_raw(1, y), E)
    assert np.array_equal(s.reeb_raw(1, E)[0], xi)


def test_reeb_tangency_and_unit_norm(struct, rng, stack):
    for _ in range(5):
        x = rand_point(struct, rng)
        for a in (1, 2, 3):
            xi = struct.reeb_raw(a, x.x)
            assert abs(np.dot(xi, x.x)) < 1e-14
            assert dot(xi, xi) == pytest.approx(1.0, abs=1e-14)
    for a in (1, 2, 3):
        assert_rows_match(lambda y: struct.reeb_raw(a, y), stack["y"])
        xi = struct.reeb_raw(a, stack["y"])
        assert np.max(np.abs(dot(xi, stack["y"]))) < 1e-14
        assert np.max(np.abs(dot(xi, xi) - 1.0)) < 1e-14


def test_phi_kills_its_own_reeb(struct, rng, stack):
    x = rand_point(struct, rng)
    for a in (1, 2, 3):
        assert norm(struct.phi_raw(a, struct.reeb_raw(a, x.x), x.x)) < 1e-14
        killed = lambda y: struct.phi_raw(a, struct.reeb_raw(a, y), y)
        assert_rows_match(killed, stack["y"])
        assert np.max(np.abs(killed(stack["y"]))) < 1e-14


def test_phi_cycles_reeb_fields(struct, rng, stack):
    x = rand_point(struct, rng)
    for beta, gamma, theta in EVEN_PERMUTATIONS:
        cycled = lambda y: (struct.phi_raw(beta, struct.reeb_raw(gamma, y), y)
                            - struct.reeb_raw(theta, y))
        assert norm(cycled(x.x)) < 1e-14
        assert_rows_match(cycled, stack["y"])


def test_phi_square_identity(struct, rng, stack):
    def residual(a, w, y):
        return (struct.phi_raw(a, struct.phi_raw(a, w, y), y) + w
                - struct.eta_raw(a, w, y) * struct.reeb_raw(a, y))

    for _ in range(5):
        x = rand_point(struct, rng)
        X = rand_tangent(struct, x, rng)
        for a in (1, 2, 3):
            assert norm(residual(a, X.v, x.x)) < 1e-13
    for a in (1, 2, 3):
        assert_rows_match(lambda w, y: residual(a, w, y), stack["w"], stack["y"])
        assert_rows_match(lambda w, y: struct.eta_raw(a, w, y),
                          stack["w"], stack["y"])


def test_phi_composition_even_permutations(struct, rng, stack):
    x = rand_point(struct, rng)
    X = rand_tangent(struct, x, rng, in_h=True)
    for beta, gamma, theta in EVEN_PERMUTATIONS:
        def residual(w, y):
            return (struct.phi_raw(beta, struct.phi_raw(gamma, w, y), y)
                    - struct.phi_raw(theta, w, y))
        assert norm(residual(X.v, x.x)) < 1e-13
        assert_rows_match(residual, stack["h"], stack["y"])


def test_metric_compatibility(struct, rng, stack):
    x = rand_point(struct, rng)
    X = rand_tangent(struct, x, rng)
    Y = rand_tangent(struct, x, rng)
    for a in (1, 2, 3):
        def lhs(w, u, y):
            return dot(struct.phi_raw(a, w, y), struct.phi_raw(a, u, y))

        def rhs(w, u, y):
            return dot(w, u) - struct.eta_raw(a, w, y) * struct.eta_raw(a, u, y)

        assert lhs(X.v, Y.v, x.x) == pytest.approx(rhs(X.v, Y.v, x.x), abs=1e-13)
        for f in (lhs, rhs):
            assert_rows_match(f, stack["w"], stack["u"], stack["y"])


def test_eta_through_phi(struct, rng, stack):
    x = rand_point(struct, rng)
    X = rand_tangent(struct, x, rng)
    for beta, gamma, theta in EVEN_PERMUTATIONS:
        assert struct.eta_raw(theta, X.v, x.x) == pytest.approx(
            struct.eta_raw(beta, struct.phi_raw(gamma, X.v, x.x), x.x), abs=1e-13)
        assert_rows_match(
            lambda w, y: struct.eta_raw(beta, struct.phi_raw(gamma, w, y), y),
            stack["w"], stack["y"])


def test_omega_values_on_h(struct, rng, stack):
    x = rand_point(struct, rng)
    X, y = rand_tangent(struct, x, rng, in_h=True).v, x.x
    for a in (1, 2, 3):
        PX = struct.phi_raw(a, X, y)
        assert struct.omega_raw(a, X, X, y) == pytest.approx(0.0, abs=1e-14)
        assert struct.omega_raw(a, X, PX, y) == pytest.approx(-1.0, abs=1e-13)
        assert_rows_match(lambda w, u, y: struct.omega_raw(a, w, u, y),
                          stack["h"], stack["u"], stack["y"])
    PX = struct.phi_raw(1, X, y)
    assert struct.omega_raw(1, PX, X, y) == pytest.approx(1.0, abs=1e-13)


def test_projection_to_h(struct, rng, stack):
    x = rand_point(struct, rng)
    y = x.x
    assert norm(struct.project_h_raw(struct.reeb_raw(2, y), y)) < 1e-14
    X = rand_tangent(struct, x, rng, in_h=True)
    assert norm(struct.project_h_raw(X.v, y) - X.v) < 1e-13
    Y = rand_tangent(struct, x, rng)
    pY = struct.project_h_raw(Y.v, y)
    for a in (1, 2, 3):
        assert abs(struct.eta_raw(a, pY, y)) < 1e-13
    assert_rows_match(struct.project_h_raw, stack["w"], stack["y"])
    assert_rows_match(struct.tangent_project_raw, stack["w"], stack["y"])


def test_alpha_index_validated(struct, rng, stack):
    x = rand_point(struct, rng)
    for y in (x.x, stack["y"]):
        with pytest.raises(StructuralError):
            struct.reeb_raw(0, y)
        with pytest.raises(StructuralError):
            struct.reeb_raw(4, y)
        # True and 1.0 hash like 1 but are no structure index
        for bad in ("1", None, [1], 1.5, True, 1.0, np.float64(2), np.bool_(True)):
            with pytest.raises(StructuralError):
                struct.phi_raw(bad, struct.reeb_raw(1, y), y)
            with pytest.raises(StructuralError):
                struct.reeb_raw(bad, y)
        for a in (1, 2, 3):
            assert np.array_equal(struct.reeb_raw(np.int64(a), y), struct.reeb_raw(a, y))


def _perturbed_i1(n):
    triple = quaternion_structures(n)
    triple[0, 0, 2] += 1e-6
    return ThreeSasakiStructure(n=n, triple=triple)


def _negated_i2(n):
    I1, I2, I3 = quaternion_structures(n)
    return ThreeSasakiStructure(n=n, triple=(I1, -I2, I3))


def test_points_and_tangent_vectors_are_immutable(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tangent(struct, x, rng)
    for value, name in ((x, "x"), (X, "v"), (X, "base")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        getattr(value, name)  # still set


def test_constructor_rejects_bad_n_and_triples():
    # n is an int or a numpy integer: 1.5 would build n = 1, and 1.0 or
    # True pass for 1 only by equality
    for bad in (-1, 1.5, 1.0, np.float64(1), True, "1", None):
        with pytest.raises(StructuralError, match="n must be"):
            ThreeSasakiStructure(n=bad)
    assert ThreeSasakiStructure(n=np.int64(1)).ambient_dim == 8
    I1, I2, I3 = quaternion_structures(1)
    for triple in ((I1, I2[:4, :4], I3), (I1, I2), quaternion_structures(2)):
        with pytest.raises(StructuralError, match="need three 8 x 8 structure matrices"):
            ThreeSasakiStructure(n=1, triple=triple)
    # any three d x d matrices are held as one stack
    s = ThreeSasakiStructure(n=1, triple=[I1, I2, I3])
    assert s.triple.shape == (3, 8, 8) and np.array_equal(s.triple, quaternion_structures(1))


def test_constructor_rejects_a_sign_that_is_not_an_integer():
    # True and 1.0 equal +1 and -1.0 equals -1, but a bool or a float must
    # not pass for an orientation, as for n
    for bad in (True, False, 1.0, -1.0, np.float64(-1), 0, 2, "1", None):
        with pytest.raises(StructuralError, match="sign must be"):
            ThreeSasakiStructure(n=1, sign=bad)
    s = ThreeSasakiStructure(n=1, sign=np.int64(-1))
    assert type(s.sign) is int and s.sign == -1


@pytest.mark.parametrize("make, gathers", [
    (lambda: ThreeSasakiStructure(n=0), True),
    (lambda: ThreeSasakiStructure(n=1), True),
    (lambda: ThreeSasakiStructure(n=16), True),
    (lambda: _negated_i2(1), True),
    (lambda: _perturbed_i1(1), False),
])
def test_signed_permutation_triples_gather(make, gathers):
    s = make()
    assert (s._gather is not None) == gathers
    if gathers:
        # the gather reproduces every matrix entry
        d = s.ambient_dim
        dense = np.zeros((3, d, d))
        cols, vals = s._gather
        np.put_along_axis(dense, cols[..., None], vals[..., None], -1)
        assert np.array_equal(dense, s.triple)


@pytest.mark.parametrize("perturbed", [False, True])
def test_all_structure_maps_have_the_bits_of_three_dense_products(perturbed):
    # the gather (and the dense fallback) against one dense matvec per
    # structure, compared by bytes: == cannot see the sign of a zero
    s = _perturbed_i1(1) if perturbed else ThreeSasakiStructure(n=1)
    rng = np.random.default_rng(11)
    r = lambda *shape: rng.standard_normal((*shape, 8))
    zeros = np.array([[0.0, -0.0, 1.5, 0.0, -2.0, -0.0, 0.0, 3.0]])
    nested = Dual(Dual(r(4), r(4)), Dual(r(4), np.zeros((4, 8))))
    for v in (r(), r(5), r(2, 3), zeros, nested):
        got = leafmap(s._apply_all, v)
        for leaf, out in zip(leaves(v), leaves(got)):
            want = np.stack([matvec(I, leaf) for I in s.triple], axis=-2)
            assert out.tobytes() == want.tobytes() and out.shape == want.shape
    # the all-structure forms against the per-structure ones
    x = rand_point(s, rng)
    w = rand_tangent(s, x, rng).v
    for y, u in ((x.x, w), (x.x, zeros[0]), (Dual(x.x, w), Dual(w, zeros[0]))):
        for got, want in ((s.reeb_all_raw(y), [s.reeb_raw(a, y) for a in (1, 2, 3)]),
                          (s.phi_all_raw(u, y), [s.phi_raw(a, u, y) for a in (1, 2, 3)])):
            for k, per in enumerate(want):
                for out, leaf in zip(leaves(got), leaves(per)):
                    assert out[..., k, :].tobytes() == np.asarray(leaf).tobytes()


def _dense_rows(s, alpha, leaf):
    """I_alpha on each row vector of ``leaf`` by one dense matvec, alpha one
    index or one per row of axis 0."""
    out = np.empty_like(leaf)
    for i in np.ndindex(leaf.shape[:-1]):
        out[i] = matvec(s.triple[(alpha if np.ndim(alpha) == 0 else alpha[i[0]]) - 1], leaf[i])
    return out


@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("dense", [False, True])
def test_one_and_per_row_alpha_have_the_bits_of_one_dense_matvec_per_row(n, dense):
    # I_alpha v for one alpha and for an array of one alpha per row (axis
    # 0), against one dense matvec per row vector, compared by bytes (==
    # cannot see the sign of a zero): one row, small and large stacks, a
    # middle axis, nested duals, a dual whose leaves differ in shape, and
    # rows of signed zeros; on the gather and on the dense fallback
    s = rotated(n) if dense else ThreeSasakiStructure(n=n)
    d, rng = s.ambient_dim, np.random.default_rng(12)
    r = lambda *shape: rng.standard_normal((*shape, d))
    zeros = np.resize([0.0, -0.0, 1.5, 0.0, -2.0, -0.0, 0.0, 3.0], d)
    nested = Dual(Dual(r(4), r(4)), Dual(r(4), np.zeros((4, d))))
    per = lambda R: rng.integers(1, 4, R)
    cases = [(a, v) for a in (1, 2, 3)
             for v in (r(), zeros, r(2), r(400), r(2, 3), zeros[None], nested)]
    cases += [(per(5), r(5)), (per(400), r(400)), (per(4), r(4, 3)),
              (np.array([1, 2, 3]), np.array([zeros, -zeros, zeros])),
              (per(4), nested), (per(4), Dual(r(4), r(4, 3)))]
    for alpha, v in cases:
        got = s._apply(alpha, v)
        for leaf, out in zip(leaves(v), leaves(got)):
            want = _dense_rows(s, alpha, leaf)
            assert out.tobytes() == want.tobytes() and out.shape == want.shape, (alpha, leaf.shape)


def test_gather_and_dense_products_part_on_non_finite_input():
    # validated points and vectors are finite; on an inf the dense product
    # makes 0 * inf = nan in every other entry, the gather keeps them
    # finite: for all three structures, one alpha and one alpha per row
    v = np.array([np.inf, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    s, p = ThreeSasakiStructure(n=1), _perturbed_i1(1)
    for form in (lambda t: t._apply_all(v), lambda t: np.array([t._apply(a, v) for a in (1, 2, 3)]),
                 lambda t: t._apply(np.array([1, 2, 3]), np.array([v, v, v]))):
        got = form(s)
        with np.errstate(invalid="ignore"):
            dense = form(p)
        assert np.isinf(got).sum(-1).tolist() == [1, 1, 1]
        assert np.isfinite(got).sum(-1).tolist() == [7, 7, 7]
        assert np.isnan(dense).sum(-1).tolist() == [7, 7, 7]


# ============================================================
# frames
# ============================================================

def test_frame_h_contract(struct, rng):
    x = rand_point(struct, rng)
    fr = struct.frame_H(x, seed=5)
    assert len(fr) == 4
    for i, Ei in enumerate(fr):
        assert Ei.base is x
        for a in (1, 2, 3):
            assert abs(struct.eta_raw(a, Ei.v, x.x)) < 1e-10
        for j, Ej in enumerate(fr):
            want = 1.0 if i == j else 0.0
            assert dot(Ei.v, Ej.v) == pytest.approx(want, abs=1e-10)


def test_frame_h_deterministic(struct, rng):
    x = rand_point(struct, rng)
    f1 = struct.frame_H(x, seed=77)
    f2 = struct.frame_H(x, seed=77)
    for a, b in zip(f1, f2):
        assert np.array_equal(a.v, b.v)


def test_frame_h_of_a_one_row_stack_has_the_bits_of_one_row(struct, rng):
    # the same point as one row and as a one-row stack: each call gets a
    # frame of its own shape, with the same bits
    x = rand_point(struct, rng)
    stacked = struct.frame_H(SpherePoint(x.x[None, :]), seed=6)
    alone = struct.frame_H(x, seed=6)
    for a, b in zip(stacked, alone):
        assert a.v.shape == (1, struct.ambient_dim)
        assert np.array_equal(a.v[0], b.v) and b.base is x


@pytest.mark.parametrize("n, points", [(1, None), (2, 3), (16, 2)])
def test_frame_h_keeps_the_bits_of_one_projection_per_draw(n, points):
    # the 4n draws are projected in one stacked call; each vector keeps
    # the bits of its own projection, orthonormalized in draw order
    s = ThreeSasakiStructure(n=n)
    y = np.random.default_rng(n).standard_normal(
        (s.ambient_dim,) if points is None else (points, s.ambient_dim))
    x = SpherePoint.normalized(y)
    draws = np.random.default_rng(np.random.SeedSequence([9])).standard_normal(
        (s.h_dim, s.ambient_dim))
    want = gram_schmidt([s.project_h_raw(w, x.x) for w in draws])
    got = s.frame_H(x, seed=9)
    assert len(got) == len(want)
    for E, v in zip(got, want):
        assert np.array_equal(E.v, v)


def test_frame_h_uses_its_one_draw_as_drawn(struct, rng, monkeypatch):
    # a degenerate draw (every row the same vector) raises, naming the
    # first dependent vector, and no second draw is made in its place
    x = rand_point(struct, rng)
    draws, make = [], np.random.default_rng

    class Degenerate:
        def standard_normal(self, shape):
            draws.append(shape)
            return np.broadcast_to(make(0).standard_normal(shape[-1]), shape).copy()

    monkeypatch.setattr(np.random, "default_rng", lambda *args: Degenerate())
    with pytest.raises(DegenerateInputError) as err:
        struct.frame_H(x, seed=3)
    assert err.value.index == 2 and len(draws) == 1


def test_frame_h_empty_for_n0():
    s = ThreeSasakiStructure(n=0)
    x = SpherePoint.normalized(np.array([0.5, 0.5, 0.5, 0.5]))
    assert s.frame_H(x, seed=1) == ()


# ============================================================
# the mixing tensor of the three structures
# ============================================================

def test_h_tensor_table(struct, rng):
    # expected: h_{aa} = 0, h_{12} = +phi3 = -h_{21},
    # h_{23} = +phi1 = -h_{32}, h_{31} = +phi2 = -h_{13}
    x = rand_point(struct, rng)
    X = rand_tangent(struct, x, rng)
    phi = {a: struct.phi_raw(a, X.v, x.x) for a in (1, 2, 3)}
    for a in (1, 2, 3):
        assert struct.h_tensor(a, a, X).norm() < 1e-9
    table = {(1, 2): phi[3], (2, 1): -1.0 * phi[3],
             (2, 3): phi[1], (3, 2): -1.0 * phi[1],
             (3, 1): phi[2], (1, 3): -1.0 * phi[2]}
    for (a, b), want in table.items():
        got = struct.h_tensor(a, b, X)
        assert norm(got.v - want) < 1e-9, (a, b)


# ============================================================
# axiom sweep
# ============================================================

def _sample_triples(struct, rng, count):
    out = []
    for _ in range(count):
        x = rand_point(struct, rng)
        out.append((x, rand_tangent(struct, x, rng), rand_tangent(struct, x, rng)))
    return stack_rows(out)


def test_axiom_records_all_pass(struct, rng):
    recs = struct.check_structure_axioms(_sample_triples(struct, rng, 20))
    assert len(recs) == 10
    for r in recs:
        assert r.passed, (r.id, r.max_residual)
        assert r.max_residual < 1e-9


def test_axiom_records_fail_for_flipped_structure(rng):
    broken = _negated_i2(1)
    recs = broken.check_structure_axioms(_sample_triples(broken, rng, 5))
    by_id = {r.id: r for r in recs}
    assert not by_id["axioms.quaternion_products"].passed
    assert by_id["axioms.quaternion_products"].max_residual == pytest.approx(2.0)


def test_non_finite_structure_fails_every_axiom(rng):
    # a NaN entry in I1 reaches every family through the Reeb fields and
    # the projection; a NaN residual fails its record
    triple = quaternion_structures(1)
    triple[0, 0, 1] = np.nan
    s = ThreeSasakiStructure(n=1, triple=triple)
    recs = s.check_structure_axioms(_sample_triples(s, rng, 3))
    assert len(recs) == 10
    for r in recs:
        assert r.passed is False and np.isnan(r.max_residual), r.id


def test_axioms_pass_for_n0(rng):
    s = ThreeSasakiStructure(n=0)
    recs = s.check_structure_axioms(_sample_triples(s, rng, 10))
    assert all(r.passed for r in recs)
