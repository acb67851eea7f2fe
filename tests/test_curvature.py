import itertools

import numpy as np
import pytest

from hkc.numlin import DegenerateInputError, PreconditionError
from hkc import sphere3s
from hkc.connections import ConnectionKind, VectorField, curvature, curvature4
from hkc.curvature import (
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
from hkc.sphere3s import TangentVector, ThreeSasakiStructure

LC = ConnectionKind.LEVI_CIVITA
HC = ConnectionKind.H_CONNECTION


@pytest.fixture(scope="module")
def struct():
    return ThreeSasakiStructure(n=1)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(90125)


def rand_point(s, rng):
    return s.point(rng.standard_normal(s.ambient_dim))


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
    P = struct.phi(1, X)
    out = rbar_algebraic(struct, X, P, P)
    assert float(np.dot(out.v, X.v)) == pytest.approx(4.0, abs=1e-12)


def test_algebraic_matches_direct_zero_on_reeb_last_slot(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    Y = rand_tv(struct, x, rng, in_h=True)
    for a in (1, 2, 3):
        out = rbar_algebraic(struct, X, Y, struct.reeb(a, x))
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
    assert (out - gap).norm() < 1e-12


# ============================================================
# two-route comparison
# ============================================================

def _cross(struct, samples):
    return cross_check_rbar(struct, samples)


def test_routes_agree_on_h_triples(struct, rng):
    samples = []
    for _ in range(8):
        x = rand_point(struct, rng)
        samples.append((x, *(rand_tv(struct, x, rng, in_h=True)
                             for _ in range(3))))
    res = _cross(struct, samples)
    assert max(s.residual for s in res) < 1e-9


def test_routes_agree_on_reeb_tail_and_reeb_pairs(struct, rng):
    samples = []
    for _ in range(4):
        x = rand_point(struct, rng)
        X = rand_tv(struct, x, rng, in_h=True)
        Y = rand_tv(struct, x, rng, in_h=True)
        xi = [struct.reeb(a, x) for a in (1, 2, 3)]
        samples += [(x, X, Y, xi[0]),
                    (x, xi[0], xi[1], X),
                    (x, xi[0], xi[1], xi[2])]
    res = _cross(struct, samples)
    assert max(s.residual for s in res) < 1e-9


def test_routes_disagree_on_single_reeb_slot_by_exact_gap(struct, rng):
    worst_match = 0.0
    seen_disagreement = 0.0
    for _ in range(6):
        x = rand_point(struct, rng)
        X = rand_tv(struct, x, rng, in_h=True)
        Z = rand_tv(struct, x, rng, in_h=True)
        xi1 = struct.reeb(1, x)
        (sample,) = _cross(struct, [(x, X, xi1, Z)])
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
        (sample,) = _cross(struct, [(x, X, Y, Z)])
        gap = two_route_gap_form(struct, X, Y, Z)
        match = np.linalg.norm(
            sample.value_algebraic - sample.value_direct - gap.v)
        worst_match = max(worst_match, float(match))
    assert worst_match < 1e-9


def test_gap_form_n0_reeb_triple():
    # ambient dimension 4: H is trivial; the repeated-Reeb triple
    # (xi_1, xi_2, xi_1) gives a gap of norm exactly 3
    s = ThreeSasakiStructure(n=0)
    x = s.point(np.array([0.5, -0.5, 0.5, 0.5]))
    xi1, xi2 = s.reeb(1, x), s.reeb(2, x)
    (sample,) = cross_check_rbar(s, [(x, xi1, xi2, xi1)])
    assert np.linalg.norm(sample.value_direct) < 1e-12
    assert sample.residual == pytest.approx(3.0, abs=1e-12)
    gap = two_route_gap_form(s, xi1, xi2, xi1)
    assert np.linalg.norm(sample.value_algebraic - gap.v) < 1e-12


# ============================================================
# the difference-tensor route and the closed form
# ============================================================

def _route_triples(s, n):
    if n == 0:
        # S^3: H = 0, so every argument is a combination of Reeb vectors
        rng = np.random.default_rng(3)
        points = [rand_point(s, rng) for _ in range(2)]
        return [(x, *args) for x in points for args in
                itertools.product([s.reeb(a, x) for a in (1, 2, 3)],
                                  repeat=3)]
    # the five cross-check families, Reeb content in every slot
    families = cross_check_families(s, RunConfig(n=n, points=3, seed=7))
    return [t for samples in families.values() for t in samples]


@pytest.mark.parametrize("n", [0, 1, 2])
def test_routes_match_nested_curvature(n):
    # the difference-tensor route (first derivatives of A) and the HP^n(4)
    # closed form on H-parts (no A at all) against the nested derivative
    s = ThreeSasakiStructure(n=n)
    for x, X, Y, Z in _route_triples(s, n):
        nested = curvature(
            HC, *(VectorField.extension(s, V) for V in (X, Y, Z)), x)
        for route in (rbar_difference_tensor, rbar_quaternionic_projective):
            gap = (route(s, X, Y, Z) - nested).norm()
            assert gap <= 1e-12, (route.__name__, gap)


def test_stated_expansion_is_difference_tensor_route_plus_gap(struct):
    # the measured gap form is the exact difference between the stated
    # expansion and the curvature, with the same round term R in both
    rng = np.random.default_rng(31)
    for _ in range(6):
        x = rand_point(struct, rng)
        X, Y, Z = (rand_tv(struct, x, rng) for _ in range(3))
        for args in ((X, Y, Z), (X, struct.reeb(2, x), Z)):
            stated = rbar_algebraic(struct, *args)
            third = rbar_difference_tensor(struct, *args)
            gap = two_route_gap_form(struct, *args)
            assert (stated - gap - third).norm() <= 1e-12


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
        h_part = sum(term(E, U, V) for E in s.frame_H(x, 5).vectors)
        reeb = [term(s.reeb(a, x), U, V) for a in (1, 2, 3)]
        assert max(abs(r) for r in reeb) <= 1e-12
        trace = h_part + sum(reeb)
        assert trace == pytest.approx((4 * n + 8) * s.metric(U, V), abs=1e-12)
        assert trace == pytest.approx(ricci(s, HC, U, V, seed=5), abs=1e-12)


# ============================================================
# traces
# ============================================================

def test_round_metric_trace_is_six_g(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng)
    assert ricci(struct, LC, X, X, seed=2) == pytest.approx(6.0, abs=1e-10)
    Y = rand_tv(struct, x, rng)
    gXY = struct.metric(X, Y)
    assert ricci(struct, LC, X, Y, seed=2) == pytest.approx(6.0 * gXY, abs=1e-10)


def test_adapted_trace_measures_twelve_g(struct, rng):
    # measured value on this model: (4n + 8) g, i.e. 12 g at n = 1
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    assert ricci(struct, HC, X, X, seed=2) == pytest.approx(12.0, abs=1e-10)
    Y = rand_tv(struct, x, rng, in_h=True)
    gXY = struct.metric(X, Y)
    assert ricci(struct, HC, X, Y, seed=2) == pytest.approx(12.0 * gXY, abs=1e-10)


def test_adapted_trace_rejects_non_distribution_arguments(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    with pytest.raises(PreconditionError):
        ricci(struct, HC, struct.reeb(1, x), X)


@pytest.mark.parametrize("n", [1, 2, 16])
def test_stacked_trace_equals_per_vector_sum(n):
    # one nested pass over the stacked basis against one curvature4 call
    # per basis vector, summed in the same order
    s = ThreeSasakiStructure(n=n)
    rng = np.random.default_rng(60 + n)
    x = rand_point(s, rng)
    X, Y = (rand_tv(s, x, rng, in_h=True) for _ in range(2))
    basis = [*s.frame_H(x, 9).vectors, *(s.reeb(a, x) for a in (1, 2, 3))]
    Xf, Yf = (VectorField.extension(s, V) for V in (X, Y))
    for kind in (LC, HC):
        per_vector = 0.0
        for E in basis:
            Ef = VectorField.extension(s, E)
            per_vector += curvature4(kind, Ef, Xf, Ef, Yf, x)
        assert ricci(s, kind, X, Y, seed=9) == pytest.approx(per_vector, abs=1e-12)


def test_ricci_sample_orthonormalizes_once(monkeypatch):
    # the four traces of one ricci sample share one point and one seed
    calls = []
    real = sphere3s.gram_schmidt
    monkeypatch.setattr(sphere3s, "gram_schmidt",
                        lambda vs: calls.append(1) or real(vs))
    s = ThreeSasakiStructure(n=2)
    records = _SUITE_FUNCS["ricci"](s, RunConfig(n=2, points=2, seed=4), {})
    assert [r.id for r in records] == [
        "ricci.einstein_lc", "ricci.h_connection", "ricci.h_connection_measured"]
    assert len(calls) == 2
    # a repeated call returns equal, fresh vectors
    x = rand_point(s, np.random.default_rng(1))
    f1, f2 = s.frame_H(x, 3), s.frame_H(x, 3)
    assert len(calls) == 3
    for a, b in zip(f1.vectors, f2.vectors):
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
    X, Y = fr.vectors[0], fr.vectors[1]
    # -R4/gram is -1 on a round plane; the selected normalization (-1)
    # flips it to +1
    assert sectional(struct, X, Y) == pytest.approx(-1.0, abs=1e-10)
    assert -sectional(struct, X, Y) == pytest.approx(1.0, abs=1e-10)


def test_sectional_plane_invariance(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng)
    Y = rand_tv(struct, x, rng)
    k1 = sectional(struct, X, Y)
    k2 = sectional(struct, 2.0 * X, X + Y)
    assert k1 == pytest.approx(k2, abs=1e-8)


def test_sectional_degenerate_plane(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng)
    with pytest.raises(DegenerateInputError):
        sectional(struct, X, X)


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
        holomorphic_sectional_bar(struct, 1, 2.0 * X)
    with pytest.raises(PreconditionError):
        holomorphic_sectional_bar(struct, 1, struct.reeb(2, x))


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
    X = float(np.cos(t)) * u + float(np.sin(t)) * struct.reeb(2, x)
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
    X = struct.reeb(2, x)
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
        X = float(np.cos(t)) * u + float(np.sin(t)) * struct.reeb(2, x)
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
    recs = verify_symmetries(struct, quads)
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
        X = float(np.cos(t)) * u + float(np.sin(t)) * s.reeb(2, x)
        out.append(TangentVector(x, X.v / np.linalg.norm(X.v)))
    return out


@pytest.mark.parametrize("n", [1, 2])
def test_stacked_rows_equal_one_at_a_time_calls(n):
    # every row of a stacked evaluation has the bits of the call on that
    # row alone; each family includes a batch as long as the ambient
    # dimension d, where a stack mistaken for a matrix keeps a valid shape
    s = ThreeSasakiStructure(n=n)
    d = s.ambient_dim
    rng = np.random.default_rng(70 + n)

    families = cross_check_families(s, RunConfig(n=n, points=3))
    triples = [t for rows in families.values() for t in rows]
    assert len(triples) > d
    for batch in (triples, triples[:d]):
        gaps = two_route_gap_form(s, *([t[k] for t in batch] for k in (1, 2, 3)))
        for t, row, gap in zip(batch, cross_check_rbar(s, batch), gaps):
            (alone,) = cross_check_rbar(s, [t])
            assert np.array_equal(row.value_direct, alone.value_direct)
            assert np.array_equal(row.value_algebraic, alone.value_algebraic)
            assert row.residual == alone.residual
            assert np.array_equal(gap.v, two_route_gap_form(s, *t[1:]).v)

    sweep = _sweep_vectors(s, d, rng)
    for X, row in zip(sweep, theorem_sec_data(s, 1, sweep)):
        assert row == theorem_sec_data(s, 1, X)

    Xh = [rand_tv(s, rand_point(s, rng), rng, in_h=True) for _ in range(d)]
    rela = sec_rela_data(s, 2, Xh)
    for X, row, cor in zip(Xh, rela, cor_xxx_data(s, Xh)):
        assert row == sec_rela_data(s, 2, X)
        assert cor == cor_xxx_data(s, X)

    quads = []
    for _ in range(d):
        x = rand_point(s, rng)
        quads.append((x, *(rand_tv(s, x, rng, in_h=True) for _ in range(4))))
    fields = [VectorField.extension(s, [q[k] for q in quads]) for k in (1, 2, 3)]
    stacked = curvature(HC, *fields, [q[0] for q in quads])
    together = verify_symmetries(s, quads)
    alone = [verify_symmetries(s, [q]) for q in quads]
    for i, (x, X, Y, Z, _) in enumerate(quads):
        want = curvature(HC, *(VectorField.extension(s, V) for V in (X, Y, Z)), x)
        assert np.array_equal(stacked[i].v, want.v)
    for k, record in enumerate(together):
        assert record.max_residual == max(a[k].max_residual for a in alone)
