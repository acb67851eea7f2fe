import numpy as np
import pytest

from hkc.numlin import ComplexStructureTriple, DegenerateInputError, StructuralError
from hkc.sphere3s import (
    EVEN_PERMUTATIONS,
    SpherePoint,
    TangentVector,
    ThreeSasakiStructure,
)


def rand_point(struct, rng):
    return struct.point(rng.standard_normal(struct.ambient_dim))


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


# ============================================================
# points and tangent vectors
# ============================================================

def test_sphere_point_must_be_unit():
    with pytest.raises(StructuralError):
        SpherePoint(np.array([1.0, 1.0, 0.0, 0.0]))
    p = SpherePoint.normalized(np.array([3.0, 4.0, 0.0, 0.0]))
    assert np.allclose(p.x, [0.6, 0.8, 0.0, 0.0])


def test_tangent_vector_must_be_orthogonal():
    p = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(StructuralError):
        TangentVector(p, np.array([0.5, 1.0, 0.0, 0.0]))
    t = TangentVector(p, np.array([0.0, 2.0, 0.0, 0.0]))
    assert t.norm() == pytest.approx(2.0)


def test_tangent_arithmetic_checks_base():
    p = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))
    q = SpherePoint(np.array([0.0, 1.0, 0.0, 0.0]))
    a = TangentVector(p, np.array([0.0, 1.0, 0.0, 0.0]))
    b = TangentVector(q, np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(StructuralError):
        a + b
    c = a + a
    assert c.norm() == pytest.approx(2.0)


# ============================================================
# the structure tensors
# ============================================================

def test_reeb_hand_value_plus_sign_n0():
    # with the + orientation, the first Reeb vector at e1 is the first
    # column of the first structure matrix: (0, -1, 0, 0)
    s = ThreeSasakiStructure(n=0, sign=+1)
    x = SpherePoint(np.array([1.0, 0.0, 0.0, 0.0]))
    xi = s.reeb(1, x)
    assert np.allclose(xi.v, [0.0, -1.0, 0.0, 0.0], atol=1e-15)


def test_reeb_tangency_and_unit_norm(struct, rng):
    for _ in range(5):
        x = rand_point(struct, rng)
        for a in (1, 2, 3):
            xi = struct.reeb(a, x)
            assert abs(np.dot(xi.v, x.x)) < 1e-14
            assert struct.metric(xi, xi) == pytest.approx(1.0, abs=1e-14)


def test_phi_kills_its_own_reeb(struct, rng):
    x = rand_point(struct, rng)
    for a in (1, 2, 3):
        assert struct.phi(a, struct.reeb(a, x)).norm() < 1e-14


def test_phi_cycles_reeb_fields(struct, rng):
    x = rand_point(struct, rng)
    xs = {a: struct.reeb(a, x) for a in (1, 2, 3)}
    for beta, gamma, theta in EVEN_PERMUTATIONS:
        assert (struct.phi(beta, xs[gamma]) - xs[theta]).norm() < 1e-14


def test_phi_square_identity(struct, rng):
    for _ in range(5):
        x = rand_point(struct, rng)
        X = rand_tangent(struct, x, rng)
        for a in (1, 2, 3):
            res = (struct.phi(a, struct.phi(a, X)) + X
                   - struct.eta(a, X) * struct.reeb(a, x))
            assert res.norm() < 1e-13


def test_phi_composition_even_permutations(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tangent(struct, x, rng, in_h=True)
    for beta, gamma, theta in EVEN_PERMUTATIONS:
        res = struct.phi(beta, struct.phi(gamma, X)) - struct.phi(theta, X)
        assert res.norm() < 1e-13


def test_metric_compatibility(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tangent(struct, x, rng)
    Y = rand_tangent(struct, x, rng)
    for a in (1, 2, 3):
        lhs = struct.metric(struct.phi(a, X), struct.phi(a, Y))
        rhs = struct.metric(X, Y) - struct.eta(a, X) * struct.eta(a, Y)
        assert lhs == pytest.approx(rhs, abs=1e-13)


def test_eta_through_phi(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tangent(struct, x, rng)
    for beta, gamma, theta in EVEN_PERMUTATIONS:
        assert struct.eta(theta, X) == pytest.approx(
            struct.eta(beta, struct.phi(gamma, X)), abs=1e-13)


def test_omega_values_on_h(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tangent(struct, x, rng, in_h=True)
    for a in (1, 2, 3):
        assert struct.omega(a, X, X) == pytest.approx(0.0, abs=1e-14)
        assert struct.omega(a, X, struct.phi(a, X)) == pytest.approx(-1.0, abs=1e-13)
    assert struct.omega(1, struct.phi(1, X), X) == pytest.approx(1.0, abs=1e-13)


def test_projection_to_h(struct, rng):
    x = rand_point(struct, rng)
    assert struct.project_H(struct.reeb(2, x)).norm() < 1e-14
    X = rand_tangent(struct, x, rng, in_h=True)
    assert (struct.project_H(X) - X).norm() < 1e-13
    Y = rand_tangent(struct, x, rng)
    pY = struct.project_H(Y)
    for a in (1, 2, 3):
        assert abs(struct.eta(a, pY)) < 1e-13


def test_alpha_index_validated(struct, rng):
    x = rand_point(struct, rng)
    with pytest.raises(StructuralError):
        struct.reeb(0, x)
    with pytest.raises(StructuralError):
        struct.reeb(4, x)
    for bad in ("1", None, [1], 1.5):
        with pytest.raises(StructuralError):
            struct.phi(bad, struct.reeb(1, x))


# ============================================================
# frames
# ============================================================

def test_frame_h_contract(struct, rng):
    x = rand_point(struct, rng)
    fr = struct.frame_H(x, seed=5)
    assert len(fr.vectors) == 4
    for i, Ei in enumerate(fr.vectors):
        for a in (1, 2, 3):
            assert abs(struct.eta(a, Ei)) < 1e-10
        for j, Ej in enumerate(fr.vectors):
            want = 1.0 if i == j else 0.0
            assert struct.metric(Ei, Ej) == pytest.approx(want, abs=1e-10)


def test_frame_h_deterministic(struct, rng):
    x = rand_point(struct, rng)
    f1 = struct.frame_H(x, seed=77)
    f2 = struct.frame_H(x, seed=77)
    for a, b in zip(f1.vectors, f2.vectors):
        assert np.array_equal(a.v, b.v)


def test_frame_h_empty_for_n0():
    s = ThreeSasakiStructure(n=0)
    x = s.point(np.array([0.5, 0.5, 0.5, 0.5]))
    assert s.frame_H(x, seed=1).vectors == ()


# ============================================================
# the mixing tensor of the three structures
# ============================================================

def test_h_tensor_table(struct, rng):
    # expected: h_{aa} = 0, h_{12} = +phi3 = -h_{21},
    # h_{23} = +phi1 = -h_{32}, h_{31} = +phi2 = -h_{13}
    x = rand_point(struct, rng)
    X = rand_tangent(struct, x, rng)
    phi = {a: struct.phi(a, X) for a in (1, 2, 3)}
    for a in (1, 2, 3):
        assert struct.h_tensor(a, a, X).norm() < 1e-9
    table = {(1, 2): phi[3], (2, 1): -1.0 * phi[3],
             (2, 3): phi[1], (3, 2): -1.0 * phi[1],
             (3, 1): phi[2], (1, 3): -1.0 * phi[2]}
    for (a, b), want in table.items():
        got = struct.h_tensor(a, b, X)
        assert (got - want).norm() < 1e-9, (a, b)


# ============================================================
# axiom sweep
# ============================================================

def _sample_triples(struct, rng, count):
    out = []
    for _ in range(count):
        x = rand_point(struct, rng)
        out.append((x, rand_tangent(struct, x, rng), rand_tangent(struct, x, rng)))
    return out


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


def test_axioms_pass_for_n0(rng):
    s = ThreeSasakiStructure(n=0)
    recs = s.check_structure_axioms(_sample_triples(s, rng, 10))
    assert all(r.passed for r in recs)
