import numpy as np
import pytest

from hkc.numlin import ComplexStructureTriple, StructuralError, dot, norm
from hkc.sphere3s import (
    EVEN_PERMUTATIONS,
    SpherePoint,
    TangentVector,
    ThreeSasakiStructure,
)

from conftest import stack_rows


def rand_point(struct, rng):
    return SpherePoint.normalized(rng.standard_normal(struct.ambient_dim))


def rand_tangent(struct, x, rng, in_h=False):
    w = rng.standard_normal(struct.ambient_dim)
    w = struct.project_h_raw(w, x.x) if in_h else struct.tangent_project_raw(w, x.x)
    return TangentVector(x, w / np.linalg.norm(w))


@pytest.fixture(scope="module")
def struct():
    return ThreeSasakiStructure(n=1)


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
        for bad in ("1", None, [1], 1.5):
            with pytest.raises(StructuralError):
                struct.phi_raw(bad, struct.reeb_raw(1, y), y)


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


def test_frame_h_cache_keys_on_shape(struct, rng):
    # the same point as one row and as a one-row stack: each call gets a
    # frame of its own shape, with the same bits
    x = rand_point(struct, rng)
    stacked = struct.frame_H(SpherePoint(x.x[None, :]), seed=6)
    alone = struct.frame_H(x, seed=6)
    for a, b in zip(stacked, alone):
        assert a.v.shape == (1, struct.ambient_dim)
        assert np.array_equal(a.v[0], b.v) and b.base is x


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
    base = ThreeSasakiStructure(n=1)
    broken = ThreeSasakiStructure(
        n=1, triple=ComplexStructureTriple(
            I1=base.triple.I1, I2=-base.triple.I2, I3=base.triple.I3))
    recs = broken.check_structure_axioms(_sample_triples(broken, rng, 5))
    by_id = {r.id: r for r in recs}
    assert not by_id["axioms.quaternion_products"].passed
    assert by_id["axioms.quaternion_products"].max_residual == pytest.approx(2.0)


def test_non_finite_structure_fails_every_axiom(rng):
    # a NaN entry in I1 reaches every family through the Reeb fields and
    # the projection; a NaN residual fails its record
    base = ThreeSasakiStructure(n=1)
    I1 = base.triple.I1.copy()
    I1[0, 1] = np.nan
    s = ThreeSasakiStructure(n=1, triple=ComplexStructureTriple(
        I1=I1, I2=base.triple.I2, I3=base.triple.I3))
    recs = s.check_structure_axioms(_sample_triples(s, rng, 3))
    assert len(recs) == 10
    for r in recs:
        assert r.passed is False and np.isnan(r.max_residual), r.id


def test_axioms_pass_for_n0(rng):
    s = ThreeSasakiStructure(n=0)
    recs = s.check_structure_axioms(_sample_triples(s, rng, 10))
    assert all(r.passed for r in recs)
