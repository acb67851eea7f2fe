import itertools

import numpy as np
import pytest

from hkc.numlin import DegenerateInputError, PreconditionError, dot, norm
from hkc import sphere3s
from hkc.connections import (
    ConnectionKind,
    VectorField,
    cov_deriv,
    curvature,
    curvature4,
    h_form_gap,
    lie_bracket,
    nabla_bar_phi_defect,
    sasaki_defect,
    torsion,
)
from hkc.curvature import (
    CurvatureSample,
    cor_xxx_data,
    cross_check_rbar,
    holomorphic_sectional_bar,
    rbar_algebraic,
    rbar_difference_tensor,
    rbar_quaternionic_projective,
    ricci,
    sec_rela_data,
    sectional,
    theorem_sec_data,
    two_route_gap_form,
    verify_symmetries,
)
from hkc.harness import _SUITE_FUNCS, RunConfig, cross_check_families
from hkc.sphere3s import SpherePoint, TangentVector, ThreeSasakiStructure

from conftest import row, stack, stack_rows

LC = ConnectionKind.LEVI_CIVITA
HC = ConnectionKind.H_CONNECTION


@pytest.fixture(scope="module")
def struct():
    return ThreeSasakiStructure(n=1)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(90125)


def rand_point(s, rng):
    return SpherePoint.normalized(rng.standard_normal(s.ambient_dim))


def reeb_tv(s, a, x):
    return TangentVector(x, s.reeb_raw(a, x.x))


def phi_tv(s, a, X):
    return TangentVector(X.base, s.phi_raw(a, X.v, X.base.x))


def rand_tv(s, x, rng, in_h=False, unit=True):
    w = rng.standard_normal(s.ambient_dim)
    w = s.project_h_raw(w, x.x) if in_h else s.tangent_project_raw(w, x.x)
    if unit:
        w = w / np.linalg.norm(w)
    return TangentVector(x, w)


# ============================================================
# the algebraic route
# ============================================================

def test_algebraic_h_plane_value(struct, rng):
    # X unit in H, Y = Z = phi_1 X: the X-component of the expansion is 4
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    P = phi_tv(struct, 1, X)
    out = rbar_algebraic(struct, X, P, P)
    assert float(np.dot(out.v, X.v)) == pytest.approx(4.0, abs=1e-12)


def test_algebraic_matches_direct_zero_on_reeb_last_slot(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    Y = rand_tv(struct, x, rng, in_h=True)
    for a in (1, 2, 3):
        out = rbar_algebraic(struct, X, Y, reeb_tv(struct, a, x))
        assert out.norm() < 1e-12


def test_algebraic_vanishes_for_repeated_h_argument(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    Z = rand_tv(struct, x, rng)  # arbitrary tangent
    assert rbar_algebraic(struct, X, X, Z).norm() < 1e-12


def test_algebraic_repeated_mixed_argument_equals_gap_form(struct, rng):
    # for a repeated argument with Reeb content the expansion does NOT
    # cancel; its value is exactly the closed-form gap tensor
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng)
    Z = rand_tv(struct, x, rng)
    out = rbar_algebraic(struct, X, X, Z)
    gap = two_route_gap_form(struct, X, X, Z)
    assert out.norm() > 1e-3
    assert norm(out.v - gap.v) < 1e-12


# ============================================================
# two-route comparison
# ============================================================

def _cross(struct, samples):
    return cross_check_rbar(struct, stack_rows(samples))


def test_routes_agree_on_h_triples(struct, rng):
    samples = []
    for _ in range(8):
        x = rand_point(struct, rng)
        samples.append((x, *(rand_tv(struct, x, rng, in_h=True)
                             for _ in range(3))))
    assert np.max(_cross(struct, samples).residual) < 1e-9


def test_routes_agree_on_reeb_tail_and_reeb_pairs(struct, rng):
    samples = []
    for _ in range(4):
        x = rand_point(struct, rng)
        X = rand_tv(struct, x, rng, in_h=True)
        Y = rand_tv(struct, x, rng, in_h=True)
        xi = [reeb_tv(struct, a, x) for a in (1, 2, 3)]
        samples += [(x, X, Y, xi[0]),
                    (x, xi[0], xi[1], X),
                    (x, xi[0], xi[1], xi[2])]
    assert np.max(_cross(struct, samples).residual) < 1e-9


def test_routes_disagree_on_single_reeb_slot_by_exact_gap(struct, rng):
    worst_match = 0.0
    seen_disagreement = 0.0
    for _ in range(6):
        x = rand_point(struct, rng)
        X = rand_tv(struct, x, rng, in_h=True)
        Z = rand_tv(struct, x, rng, in_h=True)
        xi1 = reeb_tv(struct, 1, x)
        sample = cross_check_rbar(struct, (x, X, xi1, Z))
        seen_disagreement = max(seen_disagreement, sample.residual)
        gap = two_route_gap_form(struct, X, xi1, Z)
        match = np.linalg.norm(
            sample.value_algebraic - sample.value_direct - gap.v)
        worst_match = max(worst_match, float(match))
    assert seen_disagreement > 1e-2   # the routes genuinely split here
    assert worst_match < 1e-9         # and the split is exactly the gap form


def test_routes_disagree_generically_by_exact_gap(struct, rng):
    worst_match = 0.0
    for _ in range(6):
        x = rand_point(struct, rng)
        X, Y, Z = (rand_tv(struct, x, rng) for _ in range(3))
        sample = cross_check_rbar(struct, (x, X, Y, Z))
        gap = two_route_gap_form(struct, X, Y, Z)
        match = np.linalg.norm(
            sample.value_algebraic - sample.value_direct - gap.v)
        worst_match = max(worst_match, float(match))
    assert worst_match < 1e-9


def test_gap_form_n0_reeb_triple():
    # ambient dimension 4: H is trivial; the repeated-Reeb triple
    # (xi_1, xi_2, xi_1) gives a gap of norm exactly 3
    s = ThreeSasakiStructure(n=0)
    x = SpherePoint.normalized(np.array([0.5, -0.5, 0.5, 0.5]))
    xi1, xi2 = reeb_tv(s, 1, x), reeb_tv(s, 2, x)
    sample = cross_check_rbar(s, (x, xi1, xi2, xi1))
    assert np.linalg.norm(sample.value_direct) < 1e-12
    assert sample.residual == pytest.approx(3.0, abs=1e-12)
    gap = two_route_gap_form(s, xi1, xi2, xi1)
    assert np.linalg.norm(sample.value_algebraic - gap.v) < 1e-12


# ============================================================
# the difference-tensor route and the closed form
# ============================================================

def _route_triples(s, n):
    """Stacked (point, X, Y, Z) triples."""
    if n == 0:
        # S^3: H = 0, so every argument is a combination of Reeb vectors
        rng = np.random.default_rng(3)
        points = [rand_point(s, rng) for _ in range(2)]
        return [stack_rows(
            (x, *args) for x in points for args in
            itertools.product([reeb_tv(s, a, x) for a in (1, 2, 3)], repeat=3))]
    # the five cross-check families, Reeb content in every slot
    return list(cross_check_families(s, RunConfig(n=n, points=3, seed=7)).values())


@pytest.mark.parametrize("n", [0, 1, 2])
def test_routes_match_nested_curvature(n):
    # the difference-tensor route (first derivatives of A) and the HP^n(4)
    # closed form on H-parts (no A at all) against the nested derivative
    s = ThreeSasakiStructure(n=n)
    for x, X, Y, Z in _route_triples(s, n):
        nested = curvature(
            HC, *(VectorField.extension(s, V) for V in (X, Y, Z)), x)
        for route in (rbar_difference_tensor, rbar_quaternionic_projective):
            gap = np.max(norm(route(s, X, Y, Z).v - nested.v))
            assert gap <= 1e-12, (route.__name__, gap)


def test_stated_expansion_is_difference_tensor_route_plus_gap(struct):
    # the measured gap form is the exact difference between the stated
    # expansion and the curvature, with the same round term R in both
    rng = np.random.default_rng(31)
    for _ in range(6):
        x = rand_point(struct, rng)
        X, Y, Z = (rand_tv(struct, x, rng) for _ in range(3))
        for args in ((X, Y, Z), (X, reeb_tv(struct, 2, x), Z)):
            stated = rbar_algebraic(struct, *args)
            third = rbar_difference_tensor(struct, *args)
            gap = two_route_gap_form(struct, *args)
            assert norm(stated.v - gap.v - third.v) <= 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_difference_tensor_trace_is_four_n_plus_eight(n):
    # the trace constant from a route outside the nested engine:
    # S(X,Y) = sum_i g(Rbar(E_i,X)Y, E_i) over frame_H and the Reeb vectors
    s = ThreeSasakiStructure(n=n)
    rng = np.random.default_rng(40 + n)
    x = rand_point(s, rng)
    X, Y = (rand_tv(s, x, rng, in_h=True) for _ in range(2))

    def term(E, U, V):
        return float(np.dot(rbar_difference_tensor(s, E, U, V).v, E.v))

    for U, V in ((X, X), (X, Y)):
        h_part = sum(term(E, U, V) for E in s.frame_H(x, 5))
        reeb = [term(reeb_tv(s, a, x), U, V) for a in (1, 2, 3)]
        assert max(abs(r) for r in reeb) <= 1e-12
        trace = h_part + sum(reeb)
        assert trace == pytest.approx((4 * n + 8) * dot(U.v, V.v), abs=1e-12)
        assert trace == pytest.approx(ricci(s, HC, U, V, seed=5), abs=1e-12)


# ============================================================
# traces
# ============================================================

def test_round_metric_trace_is_six_g(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng)
    assert ricci(struct, LC, X, X, seed=2) == pytest.approx(6.0, abs=1e-10)
    Y = rand_tv(struct, x, rng)
    gXY = dot(X.v, Y.v)
    assert ricci(struct, LC, X, Y, seed=2) == pytest.approx(6.0 * gXY, abs=1e-10)


def test_adapted_trace_measures_twelve_g(struct, rng):
    # measured value on this model: (4n + 8) g, i.e. 12 g at n = 1
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    assert ricci(struct, HC, X, X, seed=2) == pytest.approx(12.0, abs=1e-10)
    Y = rand_tv(struct, x, rng, in_h=True)
    gXY = dot(X.v, Y.v)
    assert ricci(struct, HC, X, Y, seed=2) == pytest.approx(12.0 * gXY, abs=1e-10)


def test_adapted_trace_rejects_non_distribution_arguments(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    with pytest.raises(PreconditionError):
        ricci(struct, HC, reeb_tv(struct, 1, x), X)


@pytest.mark.parametrize("n", [1, 2, 16])
def test_stacked_trace_equals_per_vector_sum(n):
    # one nested pass over the stacked basis against one curvature4 call
    # per basis vector, summed in the same order
    s = ThreeSasakiStructure(n=n)
    rng = np.random.default_rng(60 + n)
    x = rand_point(s, rng)
    X, Y = (rand_tv(s, x, rng, in_h=True) for _ in range(2))
    basis = [*s.frame_H(x, 9), *(reeb_tv(s, a, x) for a in (1, 2, 3))]
    Xf, Yf = (VectorField.extension(s, V) for V in (X, Y))
    for kind in (LC, HC):
        per_vector = 0.0
        for E in basis:
            Ef = VectorField.extension(s, E)
            per_vector += curvature4(kind, Ef, Xf, Ef, Yf, x)
        assert ricci(s, kind, X, Y, seed=9) == pytest.approx(per_vector, abs=1e-12)


def test_ricci_sample_orthonormalizes_once(monkeypatch):
    # the four traces of the ricci suite share one stack of points and
    # one seed, so one frame serves them all, whatever the points
    calls = []
    real = sphere3s.gram_schmidt
    monkeypatch.setattr(sphere3s, "gram_schmidt",
                        lambda vs: calls.append(1) or real(vs))
    s = ThreeSasakiStructure(n=2)
    for points in (1, 4):
        calls.clear()
        records = _SUITE_FUNCS["ricci"](s, RunConfig(n=2, points=points, seed=4), {})
        assert [r.id for r in records] == [
            "ricci.einstein_lc", "ricci.h_connection", "ricci.h_connection_measured"]
        assert len(calls) == 1, points
    # a repeated call returns equal, fresh vectors
    x = rand_point(s, np.random.default_rng(1))
    f1, f2 = s.frame_H(x, 3), s.frame_H(x, 3)
    assert len(calls) == 2
    for a, b in zip(f1, f2):
        assert np.array_equal(a.v, b.v) and a.v is not b.v


def test_trace_is_basis_independent(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    a = ricci(struct, HC, X, X, seed=11)
    b = ricci(struct, HC, X, X, seed=12)
    assert a == pytest.approx(b, abs=1e-10)


# ============================================================
# sectional curvatures
# ============================================================

def test_sphere_sectional_is_plus_one_under_flipped_convention(struct, rng):
    x = rand_point(struct, rng)
    fr = struct.frame_H(x, seed=4)
    X, Y = fr[0], fr[1]
    # -R4/gram is -1 on a round plane; the selected normalization (-1)
    # flips it to +1
    assert sectional(struct, X, Y) == pytest.approx(-1.0, abs=1e-10)
    assert -sectional(struct, X, Y) == pytest.approx(1.0, abs=1e-10)


def test_sectional_plane_invariance(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng)
    Y = rand_tv(struct, x, rng)
    k1 = sectional(struct, X, Y)
    k2 = sectional(struct, TangentVector(x, 2.0 * X.v), TangentVector(x, X.v + Y.v))
    assert k1 == pytest.approx(k2, abs=1e-8)


def test_sectional_degenerate_plane(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng)
    with pytest.raises(DegenerateInputError):
        sectional(struct, X, X)
    # on a stack, the first degenerate row is named: row 1 (Gram
    # determinant at rounding level), not row 2 (about 1e-12)
    Y = rand_tv(struct, x, rng)
    near = TangentVector(x, X.v + 1e-6 * Y.v)
    with pytest.raises(DegenerateInputError) as err:
        sectional(struct, stack([X, X, X]), stack([Y, X, near]))
    assert abs(float(str(err.value).split()[-1].rstrip(")"))) < 1e-14


def test_holomorphic_values_are_four(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    vals = [holomorphic_sectional_bar(struct, a, X) for a in (1, 2, 3)]
    for v in vals:
        assert v == pytest.approx(4.0, abs=1e-10)
    assert sum(vals) == pytest.approx(12.0, abs=1e-10)


def test_holomorphic_preconditions(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    with pytest.raises(PreconditionError):
        holomorphic_sectional_bar(struct, 1, TangentVector(x, 2.0 * X.v))
    with pytest.raises(PreconditionError):
        holomorphic_sectional_bar(struct, 1, reeb_tv(struct, 2, x))


# ============================================================
# verifiers
# ============================================================

def test_sec_rela_holds_under_flipped_convention(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    for a in (1, 2, 3):
        data = sec_rela_data(struct, a, X)
        assert data["k"] == pytest.approx(4.0, abs=1e-10)
        assert data["residual"]["-1"] < 1e-10
        assert data["residual"]["+1"] == pytest.approx(2.0, abs=1e-9)
        best = min(data["residual"], key=data["residual"].get)
        assert best == "-1" and data["residual"][best] <= 1e-6


def test_cor_xxx_both_sides_vanish(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    lhs, rhs = cor_xxx_data(struct, X)
    assert abs(lhs) < 1e-10 and abs(rhs) < 1e-10
    assert abs(lhs - rhs) <= 1e-6


def test_theorem_sec_h_case(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    data = theorem_sec_data(struct, 1, X)
    assert data["residual"]["-1/-1"] < 1e-10
    best = min(data["residual"], key=data["residual"].get)
    assert best == "-1/-1" and data["residual"][best] <= 1e-6


def test_theorem_sec_mixed_angle_fails_all_combinations(struct, rng):
    # X = cos(t) u + sin(t) xi_2, t = pi/4, plane alpha = 1:
    # measured adapted plane value 4 - 8 s^2 + 4 s^4 = 1, while the
    # polynomial prediction under the globally selected convention is
    # 1.5; the best of all four convention combinations still misses
    # by 0.5
    x = rand_point(struct, rng)
    u = rand_tv(struct, x, rng, in_h=True)
    t = np.pi / 4.0
    X = TangentVector(x, float(np.cos(t)) * u.v
                      + float(np.sin(t)) * struct.reeb_raw(2, x.x))
    data = theorem_sec_data(struct, 1, X)
    assert data["kbar"]["-1"] == pytest.approx(1.0, abs=1e-10)
    assert data["predicted"]["-1"] == pytest.approx(1.5, abs=1e-10)
    best = min(data["residual"].values())
    assert best == pytest.approx(0.5, abs=1e-9)
    assert best > 1e-6


def test_theorem_sec_pure_reeb_direction(struct, rng):
    # X = xi_2 on the alpha = 1 plane: the adapted value is 0; only the
    # unflipped round convention reproduces it (predicted = K + 1 = 0)
    x = rand_point(struct, rng)
    X = reeb_tv(struct, 2, x)
    data = theorem_sec_data(struct, 1, X)
    assert data["kbar"]["+1"] == pytest.approx(0.0, abs=1e-10)
    assert data["residual"]["+1/+1"] < 1e-10
    assert data["residual"]["-1/-1"] == pytest.approx(2.0, abs=1e-9)


def test_measured_mixed_plane_curve(struct, rng):
    # the measured adapted plane value along X = cos(t) u + sin(t) xi_2
    # follows 4 - 8 sin^2 t + 4 sin^4 t under the selected convention
    x = rand_point(struct, rng)
    u = rand_tv(struct, x, rng, in_h=True)
    for t in (np.pi / 6.0, np.pi / 3.0):
        X = TangentVector(x, float(np.cos(t)) * u.v
                          + float(np.sin(t)) * struct.reeb_raw(2, x.x))
        data = theorem_sec_data(struct, 1, X)
        s2 = float(np.sin(t)) ** 2
        want = 4.0 - 8.0 * s2 + 4.0 * s2 ** 2
        assert data["kbar"]["-1"] == pytest.approx(want, abs=1e-9)


def test_symmetry_families_on_h(struct, rng):
    quads = []
    for _ in range(5):
        x = rand_point(struct, rng)
        quads.append((x, *(rand_tv(struct, x, rng, in_h=True)
                           for _ in range(4))))
    recs = verify_symmetries(struct, stack_rows(quads))
    assert len(recs) == 4
    for r in recs:
        assert r.passed, (r.id, r.max_residual)
        assert r.max_residual < 1e-10


# ============================================================
# stacked evaluation
# ============================================================

def _sweep_vectors(s, count, rng):
    # cos(t) u + sin(t) xi_2 at fresh points, t running over [0, pi/2]
    out = []
    for k in range(count):
        x = rand_point(s, rng)
        u = rand_tv(s, x, rng, in_h=True)
        t = k * np.pi / (2.0 * (count - 1))
        X = float(np.cos(t)) * u.v + float(np.sin(t)) * s.reeb_raw(2, x.x)
        out.append(TangentVector(x, X / np.linalg.norm(X)))
    return out


def _assert_row(stacked, alone, i):
    """Row i of a stacked result has the bits of the one-row result."""
    if isinstance(stacked, dict):
        assert stacked.keys() == alone.keys()
        for key in stacked:
            _assert_row(stacked[key], alone[key], i)
    elif isinstance(stacked, (list, tuple)):
        assert len(stacked) == len(alone)
        for a, b in zip(stacked, alone):
            _assert_row(a, b, i)
    elif isinstance(stacked, CurvatureSample):
        for name in ("value_direct", "value_algebraic", "residual"):
            _assert_row(getattr(stacked, name), getattr(alone, name), i)
    elif isinstance(stacked, TangentVector):
        assert np.array_equal(stacked.base.x[i], alone.base.x)
        assert np.array_equal(stacked.v[i], alone.v)
    else:
        assert np.array_equal(stacked[i], np.reshape(alone, -1))


def assert_rows_match_calls(f, *args):
    """f on stacked points and tangent vectors gives, row for row, the
    bits of f on each row alone."""
    first = args[0]
    count = len(first.x if isinstance(first, SpherePoint) else first.v)
    out = f(*args)
    for i in range(count):
        _assert_row(out, f(*(row(a, i) for a in args)), i)


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_rows_equal_one_at_a_time_calls(n):
    # every row of a stacked evaluation has the bits of the call on that
    # row alone; each batch is as long as the ambient dimension d, where a
    # stack mistaken for a matrix keeps a valid shape
    s = ThreeSasakiStructure(n=n)
    d = s.ambient_dim
    rng = np.random.default_rng(70 + n)
    ext = lambda V: VectorField.extension(s, V)

    # first-order operations, at d points
    x = stack([rand_point(s, rng) for _ in range(d)])
    X, Y, Xh, Yh = (stack([rand_tv(s, row(x, i), rng, in_h=h) for i in range(d)])
                    for h in (False, False, True, True))
    xi2 = VectorField.reeb(s, 2)
    # the trace: its stack is points by basis vectors
    for kind, U, V in ((LC, X, Y), (HC, Xh, Yh)):
        assert_rows_match_calls(lambda U, V: ricci(s, kind, U, V, seed=3), U, V)
    for kind in (LC, HC):
        assert_rows_match_calls(
            lambda x, X, Y: cov_deriv(kind, ext(X), ext(Y), x), x, X, Y)
        assert_rows_match_calls(
            lambda x, X: cov_deriv(kind, ext(X), xi2, x), x, X)
        assert_rows_match_calls(
            lambda x, X, Y: torsion(kind, ext(X), ext(Y), x), x, X, Y)
    assert_rows_match_calls(lambda x, X, Y: lie_bracket(ext(X), ext(Y), x), x, X, Y)
    assert_rows_match_calls(lambda x, X, Y: h_form_gap(ext(X), ext(Y), x), x, X, Y)
    for a in (1, 2, 3):
        assert_rows_match_calls(
            lambda x, X, Y: sasaki_defect(a, ext(X), ext(Y), x), x, X, Y)
        assert_rows_match_calls(
            lambda x, X, Y: nabla_bar_phi_defect(a, ext(X), ext(Y), x), x, Xh, Yh)
        for b in (1, 2, 3):
            assert_rows_match_calls(lambda X: s.h_tensor(a, b, X), X)

    # closed forms and both curvature routes on the five cross-check
    # families, d rows each and all 5d rows in one stack
    families = cross_check_families(s, RunConfig(n=n, points=d))
    together = stack_rows(tuple(row(V, i) for V in t)
                          for t in families.values() for i in range(d))
    for x, X, Y, Z in (*families.values(), together):
        assert_rows_match_calls(
            lambda x, X, Y, Z: cross_check_rbar(s, (x, X, Y, Z)), x, X, Y, Z)
        assert_rows_match_calls(
            lambda X, Y, Z: two_route_gap_form(s, X, Y, Z), X, Y, Z)
        assert_rows_match_calls(
            lambda X, Y, Z: rbar_quaternionic_projective(s, X, Y, Z), X, Y, Z)

    # plane values and the verifiers
    assert_rows_match_calls(lambda X: theorem_sec_data(s, 1, X),
                            stack(_sweep_vectors(s, d, rng)))
    Xh = stack([rand_tv(s, rand_point(s, rng), rng, in_h=True) for _ in range(d)])
    assert_rows_match_calls(lambda X: sec_rela_data(s, 2, X), Xh)
    assert_rows_match_calls(lambda X: cor_xxx_data(s, X), Xh)

    quads = []
    for _ in range(d):
        x = rand_point(s, rng)
        quads.append((x, *(rand_tv(s, x, rng, in_h=True) for _ in range(4))))
    quad = stack_rows(quads)
    assert_rows_match_calls(
        lambda x, X, Y, Z: curvature(HC, ext(X), ext(Y), ext(Z), x), *quad[:4])
    together = verify_symmetries(s, quad)
    alone = [verify_symmetries(s, q) for q in quads]
    for k, record in enumerate(together):
        assert record.samples == d
        assert record.max_residual == max(a[k].max_residual for a in alone)

