import numpy as np
import pytest

from hkc.numlin import (
    CENTRAL_DIFFERENCE,
    EXACT_FORWARD,
    InternalConsistencyError,
    directional_derivative,
    dot,
    norm,
)
from hkc.connections import (
    ConnectionKind,
    VectorField,
    _cov_raw,
    cov_deriv,
    curvature,
    curvature4,
    h_form_gap,
    lie_bracket,
    nabla_bar_phi_defect,
    sasaki_defect,
    sphere_curvature_oracle,
    torsion,
)
from hkc.sphere3s import SpherePoint, TangentVector, ThreeSasakiStructure

LC = ConnectionKind.LEVI_CIVITA
HC = ConnectionKind.H_CONNECTION


@pytest.fixture(scope="module")
def struct():
    return ThreeSasakiStructure(n=1)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(416)


def rand_point(s, rng):
    return SpherePoint.normalized(rng.standard_normal(s.ambient_dim))


def rand_field(s, x, rng, in_h=False):
    w = rng.standard_normal(s.ambient_dim)
    w = s.project_h_raw(w, x.x) if in_h else s.tangent_project_raw(w, x.x)
    w = w / np.linalg.norm(w)
    return VectorField.extension(s, TangentVector(x, w))


# ============================================================
# lie brackets
# ============================================================

def test_reeb_bracket_doubles_the_third(struct, rng):
    x = rand_point(struct, rng)
    for (a, b, c) in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        br = lie_bracket(VectorField.reeb(struct, a),
                         VectorField.reeb(struct, b), x)
        want = 2.0 * struct.reeb_raw(c, x.x)
        assert np.allclose(br.v, want, atol=1e-12), (a, b, c)


def test_bracket_antisymmetry(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng)
    Y = rand_field(struct, x, rng)
    assert lie_bracket(X, X, x).norm() < 1e-13
    fwd = lie_bracket(X, Y, x)
    rev = lie_bracket(Y, X, x)
    assert norm(fwd.v + rev.v) < 1e-13


def test_bracket_guards_against_nontangent_fields(struct, rng):
    c = rng.standard_normal(struct.ambient_dim)
    c2 = rng.standard_normal(struct.ambient_dim)
    F = VectorField(struct, lambda y: c)  # deliberately not tangent
    G = VectorField(struct, lambda y: dot(y, c) * c2)
    x = rand_point(struct, rng)
    with pytest.raises(InternalConsistencyError):
        lie_bracket(F, G, x)


# ============================================================
# covariant derivatives
# ============================================================

def test_reeb_fields_obey_first_derivative_law(struct, rng):
    # nabla_X xi_a = -phi_a X under the shipped orientation
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng)
    for a in (1, 2, 3):
        d = cov_deriv(LC, X, VectorField.reeb(struct, a), x)
        want = -1.0 * struct.phi_raw(a, X(x.x), x.x)
        assert np.allclose(d.v, want, atol=1e-12)


def test_reeb_on_reeb_rotation(struct, rng):
    x = rand_point(struct, rng)
    d12 = cov_deriv(LC, VectorField.reeb(struct, 1), VectorField.reeb(struct, 2), x)
    d21 = cov_deriv(LC, VectorField.reeb(struct, 2), VectorField.reeb(struct, 1), x)
    xi3 = struct.reeb_raw(3, x.x)
    assert np.allclose(d12.v, xi3, atol=1e-12)
    assert np.allclose(d21.v, -xi3, atol=1e-12)


def test_adapted_connection_parallelizes_reeb(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng)
    for a in (1, 2, 3):
        d = cov_deriv(HC, X, VectorField.reeb(struct, a), x)
        assert d.norm() < 1e-12


def test_adapted_connection_forms_disagree_for_wrong_orientation(rng):
    # with the opposite Reeb orientation the first-derivative law fails,
    # and the two evaluation routes of the adapted connection split apart
    s = ThreeSasakiStructure(n=1, sign=+1)
    x = rand_point(s, rng)
    X = VectorField.reeb(s, 1)
    w = s.tangent_project_raw(rng.standard_normal(s.ambient_dim), x.x)
    Y = VectorField.extension(s, TangentVector(x, w / np.linalg.norm(w)))
    assert h_form_gap(X, Y, x) >= 1e-3


@pytest.mark.parametrize("scheme, evaluations", [
    (EXACT_FORWARD, {LC: (1, 1), HC: (1, 1)}),
    # the stencil evaluates the lower field twice; the adapted
    # connection needs its value too
    (CENTRAL_DIFFERENCE, {LC: (1, 2), HC: (1, 3)}),
])
def test_covariant_derivative_evaluates_each_field_once(struct, rng, scheme,
                                                        evaluations):
    x = rand_point(struct, rng)
    X, Y = rand_field(struct, x, rng), rand_field(struct, x, rng)
    for kind, want in evaluations.items():
        calls = {"X": 0, "Y": 0}

        def counted(name, field):
            def f(y):
                calls[name] += 1
                return field(y)
            return f

        _cov_raw(struct, kind, counted("X", X), counted("Y", Y), x.x, scheme)
        assert (calls["X"], calls["Y"]) == want


def test_metricity_of_both_connections(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng)
    Y = rand_field(struct, x, rng)
    Z = rand_field(struct, x, rng)
    dg = directional_derivative(lambda y: dot(Y(y), Z(y)), x.x, X(x.x))
    for kind in (LC, HC):
        lhs = dg - dot(cov_deriv(kind, X, Y, x).v, Z(x.x)) \
                 - dot(Y(x.x), cov_deriv(kind, X, Z, x).v)
        assert abs(lhs) < 1e-12, kind


def test_h_preservation(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng)
    Y = rand_field(struct, x, rng, in_h=True).project_H()
    d = cov_deriv(HC, X, Y, x)
    for a in (1, 2, 3):
        assert abs(struct.eta_raw(a, d.v, x.x)) < 1e-12


def test_bracket_in_terms_of_adapted_connection(struct, rng):
    # [X,Y] = nabla-bar_X Y - nabla-bar_Y X - 2 Omega^a(X,Y) xi_a
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng)
    Y = rand_field(struct, x, rng)
    br = lie_bracket(X, Y, x)
    rhs = cov_deriv(HC, X, Y, x).v - cov_deriv(HC, Y, X, x).v
    Xv, Yv = X(x.x), Y(x.x)
    for a in (1, 2, 3):
        rhs = rhs - 2.0 * struct.omega_raw(a, Xv, Yv, x.x) * struct.reeb_raw(a, x.x)
    assert np.allclose(br.v, rhs, atol=1e-12)


def test_first_derivative_defect_small_and_sign_sensitive(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng)
    Y = rand_field(struct, x, rng)
    for a in (1, 2, 3):
        assert sasaki_defect(a, X, Y, x).norm() < 1e-12
    # flipped orientation: for X = Y unit the defect has norm 2 exactly
    flipped = ThreeSasakiStructure(n=1, sign=+1)
    xf = SpherePoint.normalized(x.x)
    w = flipped.project_h_raw(rng.standard_normal(8), xf.x)
    U = VectorField.extension(flipped, TangentVector(xf, w / np.linalg.norm(w)))
    assert sasaki_defect(1, U, U, xf).norm() == pytest.approx(2.0, abs=1e-10)


def test_central_difference_agrees_on_first_derivatives(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng)
    exact = cov_deriv(LC, X, VectorField.reeb(struct, 1), x)
    fd = cov_deriv(LC, X, VectorField.reeb(struct, 1), x, scheme=CENTRAL_DIFFERENCE)
    assert norm(exact.v - fd.v) < 1e-8


# ============================================================
# torsion
# ============================================================

def test_levi_civita_torsion_free(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng)
    Y = rand_field(struct, x, rng)
    assert torsion(LC, X, Y, x).norm() < 1e-12


def test_adapted_torsion_table(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng, in_h=True)
    Y = rand_field(struct, x, rng, in_h=True)
    # on H: T(X,Y) = 2 Omega^a(X,Y) xi_a
    t = torsion(HC, X, Y, x)
    want = np.zeros(struct.ambient_dim)
    for a in (1, 2, 3):
        want = want + (2.0 * struct.omega_raw(a, X(x.x), Y(x.x), x.x)
                       * struct.reeb_raw(a, x.x))
    assert np.allclose(t.v, want, atol=1e-12)
    # mixed slot: T(X, xi_a) = 0
    for a in (1, 2, 3):
        assert torsion(HC, X, VectorField.reeb(struct, a), x).norm() < 1e-12
    # Reeb pair: T(xi_1, xi_2) = -2 xi_3
    t12 = torsion(HC, VectorField.reeb(struct, 1), VectorField.reeb(struct, 2), x)
    assert np.allclose(t12.v, -2.0 * struct.reeb_raw(3, x.x), atol=1e-12)


# ============================================================
# curvature
# ============================================================

def test_curvature_matches_sphere_oracle(struct, rng):
    worst = 0.0
    for _ in range(10):
        x = rand_point(struct, rng)
        X, Y, Z = (rand_field(struct, x, rng) for _ in range(3))
        direct = curvature(LC, X, Y, Z, x)
        closed = sphere_curvature_oracle(
            *(TangentVector(x, F(x.x)) for F in (X, Y, Z)))
        worst = max(worst, norm(direct.v - closed.v))
    assert worst < 1e-12


def test_curvature_reeb_slot_law_levi_civita(struct, rng):
    # R(X,Y) xi_a = eta^a(Y) X - eta^a(X) Y
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng)
    Y = rand_field(struct, x, rng)
    for a in (1, 2, 3):
        got = curvature(LC, X, Y, VectorField.reeb(struct, a), x)
        Xv, Yv = X(x.x), Y(x.x)
        want = (struct.eta_raw(a, Yv, x.x) * Xv
                - struct.eta_raw(a, Xv, x.x) * Yv)
        assert np.allclose(got.v, want, atol=1e-11)


def test_adapted_curvature_annihilates_reeb_slots(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng, in_h=True)
    Y = rand_field(struct, x, rng, in_h=True)
    xi = [VectorField.reeb(struct, a) for a in (1, 2, 3)]
    for a in (1, 2, 3):
        assert curvature(HC, X, Y, xi[a - 1], x).norm() < 1e-11
        assert curvature(HC, X, xi[a - 1], Y, x).norm() < 1e-11
        assert curvature(HC, xi[a - 1], X, Y, x).norm() < 1e-11
    assert curvature(HC, xi[0], xi[1], X, x).norm() < 1e-11
    assert curvature(HC, xi[0], xi[1], xi[2], x).norm() < 1e-11


def test_curvature4_slot_convention(struct, rng):
    # R4(X, Y, Z, W) = g(R(X,Y)W, Z); on the round sphere with the
    # resolved sign, R4(X, Y, X, Y) = +1 for orthonormal X, Y
    x = rand_point(struct, rng)
    fr = struct.frame_H(x, seed=3)
    X = VectorField.extension(struct, fr[0])
    Y = VectorField.extension(struct, fr[1])
    val = curvature4(LC, X, Y, X, Y, x)
    assert val == pytest.approx(1.0, abs=1e-11)


def test_phi_parallel_on_h(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng, in_h=True)
    Y = rand_field(struct, x, rng, in_h=True)
    for a in (1, 2, 3):
        assert nabla_bar_phi_defect(a, X, Y, x).norm() < 1e-11
        assert nabla_bar_phi_defect(a, X, X.phi(a), x).norm() < 1e-11


def test_phi_not_parallel_for_levi_civita(struct, rng):
    # the same defect evaluated with the Levi-Civita connection has
    # norm |g(X,Y)| (plus the eta term, zero on H): order one generically
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng, in_h=True)
    Y = rand_field(struct, x, rng, in_h=True)
    a = 1
    d_phiY = cov_deriv(LC, X, Y.phi(a), x)
    phi_dY = struct.phi_raw(a, cov_deriv(LC, X, Y, x).v, x.x)
    defect = norm(d_phiY.v - phi_dY)
    g_xy = abs(dot(X(x.x), Y(x.x)))
    assert defect == pytest.approx(g_xy, abs=1e-10)
    assert defect > 1e-3  # generically nonzero for random H-pairs
