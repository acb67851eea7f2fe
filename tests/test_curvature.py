import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hkc.numlin import (
    CENTRAL_DIFFERENCE,
    EXACT_FORWARD,
    DegenerateInputError,
    DiffScheme,
    Dual,
    PreconditionError,
    StructuralError,
    directional_derivative,
    dot,
    leafmap,
    norm,
    value_and_derivative,
)
from hkc import connections, curvature as curvature_module, sphere3s
from hkc.connections import (
    ConnectionKind,
    VectorField,
    _a_raw,
    _at,
    _phi_parallel_plan,
    _sasaki_plan,
    cov_deriv,
    curvature,
    h_form_gap,
    lie_bracket,
    torsion,
)
from hkc.curvature import (
    CurvatureSample,
    cross_check_rbar,
    holomorphic_sectional_bar,
    rbar_algebraic,
    rbar_difference_tensor,
    rbar_quaternionic_projective,
    ricci,
    sectional,
    theorem_sec_data,
    two_route_gap_form,
    verify_symmetries,
)
from hkc import harness
from hkc.harness import _SUITE_FUNCS, RunConfig, cross_check_families, resolve_conventions
from hkc.sphere3s import SpherePoint, TangentVector, ThreeSasakiStructure

from conftest import rotated, row, stack, stack_rows, stacked

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
        assert trace == pytest.approx(ricci(s, HC, U, V), abs=1e-12)


# ============================================================
# traces
# ============================================================

def test_round_metric_trace_is_six_g(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng)
    assert ricci(struct, LC, X, X) == pytest.approx(6.0, abs=1e-10)
    Y = rand_tv(struct, x, rng)
    gXY = dot(X.v, Y.v)
    assert ricci(struct, LC, X, Y) == pytest.approx(6.0 * gXY, abs=1e-10)


def test_adapted_trace_measures_twelve_g(struct, rng):
    # measured value on this model: (4n + 8) g, i.e. 12 g at n = 1
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    assert ricci(struct, HC, X, X) == pytest.approx(12.0, abs=1e-10)
    Y = rand_tv(struct, x, rng, in_h=True)
    gXY = dot(X.v, Y.v)
    assert ricci(struct, HC, X, Y) == pytest.approx(12.0 * gXY, abs=1e-10)


def test_adapted_trace_rejects_non_distribution_arguments(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    with pytest.raises(PreconditionError):
        ricci(struct, HC, reeb_tv(struct, 1, x), X)


@pytest.mark.parametrize("n", [1, 2, 16])
def test_stacked_trace_equals_per_vector_sum(n):
    # one nested pass over the projected ambient basis against one
    # g(R(E, X)Y, E) per vector E of another orthonormal basis of T_x:
    # frame_H and the Reeb vectors
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
            per_vector += dot(curvature(kind, Ef, Xf, Yf, x).v, E.v)
        assert ricci(s, kind, X, Y) == pytest.approx(per_vector, abs=1e-12)


@pytest.mark.parametrize("n", [1, 4])
def test_chunked_trace_has_the_bits_of_one_pass(monkeypatch, n):
    # chunks of 1 point, of 3 points (5 is no multiple) and of all points
    # against one pass over all points; no frame, no orthonormalization
    # and no random draw enters the trace
    s = ThreeSasakiStructure(n=n)
    rng = np.random.default_rng(80 + n)
    xs = [rand_point(s, rng) for _ in range(5)]
    X, Y = (stack([rand_tv(s, x, rng, in_h=True) for x in xs]) for _ in range(2))
    per_point = (4 * n + 4) * s.ambient_dim
    monkeypatch.setattr(connections, "CURVATURE_CHUNK", 5 * per_point)
    one_pass = {kind: ricci(s, kind, X, Y) for kind in (LC, HC)}

    def forbidden(*args, **kwargs):
        raise AssertionError("the trace must not call this")

    monkeypatch.setattr(ThreeSasakiStructure, "frame_H", forbidden)
    monkeypatch.setattr(sphere3s, "gram_schmidt", forbidden)
    monkeypatch.setattr(np.random, "default_rng", forbidden)
    for chunk in (1, 3 * per_point, 5 * per_point, 10 * per_point):
        monkeypatch.setattr(connections, "CURVATURE_CHUNK", chunk)
        for kind in (LC, HC):
            got = ricci(s, kind, X, Y)
            assert got.shape == (5, 1)
            assert got.tobytes() == one_pass[kind].tobytes(), (chunk, kind)
    # a one-row call still gives a float
    assert type(ricci(s, HC, row(X, 0), row(Y, 0))) is float


# ============================================================
# fused passes
# ============================================================

def _record_fused(monkeypatch):
    """Record every outermost fused pass (structure, kind, patterns, point,
    scheme and its values) through each module binding.  Setting
    ``budget[0]`` to a function of (patterns, d) sets the chunk budget of
    each later pass over rows of d floats (the trace's chunks are the
    business of its own tests)."""
    calls, budget, depth = [], [None], [0]
    original, default = connections._fused_pass, connections.CURVATURE_CHUNK

    def recorded(s, kind, patterns, y, scheme):
        if budget[0] is not None and depth[0] == 0:
            monkeypatch.setattr(connections, "CURVATURE_CHUNK", default if y.ndim > 2
                                else budget[0](len(patterns), s.ambient_dim))
        depth[0] += 1
        try:
            out = original(s, kind, patterns, y, scheme)
        finally:
            depth[0] -= 1
        if not depth[0]:
            calls.append((s, kind, patterns, y, scheme, out))
        return out

    for module in (connections, curvature_module, harness):
        monkeypatch.setattr(module, "_fused_pass", recorded)
    return calls, budget


def _separate(s, kind, pattern, y, scheme):
    """A pattern's value from the kernel's own nested pass over all rows:
    the curvature rows, their inner product with a field, or the norm of
    the curvature minus a target."""
    R = connections._curvature_raw(s, kind, *pattern[:3], y, scheme)
    if len(pattern) == 3:
        return R
    W = pattern[3]
    if isinstance(W, VectorField):
        return dot(R, W(y))
    return norm(R if W is None else R - W)


@pytest.mark.parametrize("n, scheme", [
    (1, EXACT_FORWARD), (4, EXACT_FORWARD),
    (1, DiffScheme(CENTRAL_DIFFERENCE.kind, 1e-4)),
    (4, DiffScheme(CENTRAL_DIFFERENCE.kind, 1e-4))])
def test_fused_passes_have_the_bits_of_separate_calls(monkeypatch, n, scheme):
    # every pattern block of every fused pass of the nested suites against
    # the kernel's own pass over all rows; each suite's values of each
    # pattern, joined over its passes of one kind (theorem-sec makes one a
    # row chunk), at the default budget against chunks of 1 sample, of 3
    # (5 is no multiple) and of all 5 samples, and against a budget of two
    # patterns of one row, which splits the patterns over passes (the
    # cross-check's one pattern runs over its 25 rows in chunks of 1, 3
    # and 5 rows)
    s = ThreeSasakiStructure(n=n)
    cfg = RunConfig(n=n, points=5, scheme=scheme)
    conventions = resolve_conventions(s, 0, scheme)
    calls, budget = _record_fused(monkeypatch)
    default, bits, passes = connections.CURVATURE_CHUNK, [], []
    for budget[0] in (lambda K, d: default, lambda K, d: 1, lambda K, d: 3 * K * d,
                      lambda K, d: 5 * K * d, lambda K, d: 2 * d):
        calls.clear()
        bits.append([])
        for suite in ("curvature", "cross-check", "sectional", "theorem-sec", "ricci"):
            if suite == "ricci":  # its basis blocks follow the budget it is called at
                monkeypatch.setattr(connections, "CURVATURE_CHUNK", default)
            start = len(calls)
            _SUITE_FUNCS[suite](s, cfg, conventions)
            joined = {}
            for _, kind, *_, out in calls[start:]:
                joined.setdefault(kind, []).append(out)
            bits[-1].append({kind: [np.concatenate(v).tobytes() for v in zip(*outs)]
                             for kind, outs in joined.items()})
        passes.append(len(calls))
    assert passes[0] == 10 and all(b == bits[0] for b in bits)
    for *args, patterns, y, scheme, out in calls:
        for p, v in zip(patterns, out):
            assert v.tobytes() == _separate(*args, p, y, scheme).tobytes()


@pytest.mark.parametrize("dense", [False, True])
def test_closed_forms_and_axioms_keep_their_bits_across_row_chunks(monkeypatch, dense):
    # the stated expansion (with and without R), the gap form, the axiom
    # records and the plane values and residuals of theorem-sec on 7 rows,
    # in chunks of 2, 2, 2 and 1 rows (a budget of 2 d floats) against one
    # chunk of all 7
    s = rotated(1) if dense else ThreeSasakiStructure(n=1)
    rng = np.random.default_rng(17)
    rows = []
    for _ in range(7):
        x = rand_point(s, rng)
        rows.append((x, *(rand_tv(s, x, rng) for _ in range(4))))
    x, X, Y, Z, R = stack_rows(rows)

    def values():
        return ([V.v.tobytes() for V in (rbar_algebraic(s, X, Y, Z),
                                         rbar_algebraic(s, X, Y, Z, R=R),
                                         two_route_gap_form(s, X, Y, Z))]
                + [repr(r.as_dict()) for r in s.check_structure_axioms((x, X, Y))]
                + [v.tobytes() for key in ("kbar", "k", "residual")
                   for v in theorem_sec_data(s, 2, X)[key].values()])

    whole = values()
    assert len(s.chunks(x.x)) == 1
    monkeypatch.setattr(connections, "CURVATURE_CHUNK", 2 * s.ambient_dim)
    assert [len(c[0]) for c in s.chunks(x.x)] == [2, 2, 2, 1]
    assert values() == whole


def _on_rows(F, c):
    """The field F on the rows ``c`` of its point: F itself if its vectors
    are one row, which serves every row."""
    v = F.vec
    if v is None or v.ndim < 2 or len(v) == 1:
        return F
    return VectorField(F.structure, vec=v[c], ops=F.ops)


@pytest.mark.parametrize("n, scheme, dense", [
    (1, EXACT_FORWARD, False), (4, EXACT_FORWARD, False),
    (1, DiffScheme(CENTRAL_DIFFERENCE.kind, 1e-4), False),
    (4, DiffScheme(CENTRAL_DIFFERENCE.kind, 1e-4), False),
    (1, EXACT_FORWARD, True), (1, DiffScheme(CENTRAL_DIFFERENCE.kind, 1e-4), True)])
def test_fused_first_order_passes_have_the_bits_of_separate_calls(monkeypatch, n,
                                                                  scheme, dense):
    # every read of every pattern block of the first-order pass of the
    # sasaki, connection and torsion suites (one a suite: D_X Y, and off it
    # nabla_X Y of either connection) against its definition on one row at
    # a time (D_X Y from value_and_derivative, nabla its tangent projection,
    # nabla-bar that plus A(X, Y)), in chunks of 1 sample (a budget of 1
    # float: one pattern of one row a pass), of 1, of 3 (5 is no multiple)
    # and of all 5 samples, and each bracket the plans read off two
    # patterns against two unfused derivatives; dense: on a triple the
    # structure maps multiply out
    s = rotated(n) if dense else ThreeSasakiStructure(n=n)
    cfg = RunConfig(n=n, points=5, scheme=scheme)
    conventions = resolve_conventions(s, 0, scheme)
    calls, budget = _record_fused(monkeypatch)
    bits = []
    for budget[0] in (lambda K, d: 1, lambda K, d: K * d, lambda K, d: 3 * K * d,
                      lambda K, d: 5 * K * d):
        calls.clear()
        for suite in ("sasaki", "connection", "torsion"):
            _SUITE_FUNCS[suite](s, cfg, conventions)
        bits.append([[r.tobytes() for v in out for r in v] for *_, out in calls])
    assert [kind for _, kind, *_ in calls] == [None, None, None]
    assert bits[0] == bits[1] == bits[2] == bits[3]
    brackets = 0
    for _, kind, patterns, y, scheme, out in calls:
        d = {}
        for (X, Y, reads), values in zip(patterns, out):
            for i in range(len(y)):
                c = slice(i, i + 1)
                yi, Xi, Yi = y[c], _on_rows(X, c), _on_rows(Y, c)
                Yv, D = value_and_derivative(Yi, yi, Xi(yi), scheme)
                want = {None: D, LC: s.tangent_project_raw(D, yi)}
                want[HC] = want[LC] + _a_raw(s, Xi(yi), Yv, yi)
                for r, v in zip(reads, values):
                    assert v[c].tobytes() == want[r].tobytes(), r
            d.update({(X, Y): v for r, v in zip(reads, values) if r is None})
        for (X, Y), v in d.items():
            if (Y, X) in d:
                brackets += 1
                want = (directional_derivative(Y, y, X(y), scheme)
                        - directional_derivative(X, y, Y(y), scheme))
                assert (v - d[Y, X]).tobytes() == want.tobytes()
    assert brackets == 2 * (3 + 13 + 8)  # sasaki, connection, torsion


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("scheme", [EXACT_FORWARD, DiffScheme(CENTRAL_DIFFERENCE.kind, 1e-4)])
def test_curvature_reads_the_bracket_off_its_nested_terms(monkeypatch, n, scheme):
    # the bracket inside a nested pass, formed from the evaluations of Y
    # and X its two nested terms made (under central difference the last
    # two of each; the adapted kind evaluates f(y) first), has the bytes
    # of D_X Y - D_Y X from two directional derivatives: for an extension,
    # a Reeb field and an H-projected phi field, on one row and on a stack
    s = ThreeSasakiStructure(n=n)
    rng = np.random.default_rng(90 + n)
    made, real = [], connections.derivative_of
    monkeypatch.setattr(connections, "derivative_of",
                        lambda *args: made.append(real(*args)) or made[-1])
    for shape in ((), (3,)):
        y = SpherePoint.normalized(rng.standard_normal(shape + (s.ambient_dim,))).x
        U, V, W = (VectorField.extension(s, s.tangent_project_raw(
            rng.standard_normal(y.shape), y)) for _ in range(3))
        fields = (U, VectorField.reeb(s, 2), V.phi(1).project_H())
        for (X, Y), kind in itertools.product(itertools.permutations(fields, 2), (LC, HC)):
            made.clear()
            connections._curvature_raw(s, kind, X, Y, W, y, scheme)
            want = (directional_derivative(Y, y, X(y), scheme)
                    - directional_derivative(X, y, Y(y), scheme))
            assert len(made) == 2 and (made[0] - made[1]).tobytes() == want.tobytes()


_TYPED = (
    lambda a, X, Y, Z, x: lie_bracket(X, Y, x),
    *(lambda a, X, Y, Z, x, k=k: cov_deriv(k, X, Y, x) for k in (LC, HC)),
    *(lambda a, X, Y, Z, x, k=k: torsion(k, X, Y, x) for k in (LC, HC)),
    lambda a, X, Y, Z, x: _at(_sasaki_plan(a, X, Y), stacked(x), EXACT_FORWARD),
    lambda a, X, Y, Z, x: _at(_phi_parallel_plan(a, X.project_H(), Y.project_H()),
                              stacked(x), EXACT_FORWARD),
    lambda a, X, Y, Z, x: h_form_gap(X, Y, x),
    *(lambda a, X, Y, Z, x, k=k: curvature(k, X, Y, Z, x) for k in (LC, HC)),
)

_field_specs = st.tuples(st.sampled_from(("one", "stack", "reeb")),
                         st.integers(1, 3),
                         st.lists(st.sampled_from((1, 2, 3, None)), max_size=2))


@settings(max_examples=20)
@given(dense=st.booleans(), specs=st.lists(_field_specs, min_size=3, max_size=3),
       alpha=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_typed_operations_on_stacks_have_the_bits_of_one_row_calls(dense, specs,
                                                                   alpha, seed):
    # the row rule: X, Y, Z each the extension of one vector or of a
    # stack, or a Reeb field, through phi_a and the projection
    # onto H; every typed operation on 3 rows against its one-row calls,
    # with a chunk budget of 2 rows (chunks of 2 and 1 rows, one pattern
    # a pass) and the default (the patterns of a pass merged)
    s = rotated(1) if dense else ThreeSasakiStructure(n=1)
    rng = np.random.default_rng(seed)
    P, d = 3, s.ambient_dim
    x = SpherePoint.normalized(rng.standard_normal((P, d)))
    V = rng.standard_normal((len(specs), P, d))

    def field(k, i):  # spec k's field on every row (i None), or for row i
        kind, a, ops = specs[k]
        if kind == "one":
            f = VectorField.extension(s, V[k, 0])
        elif kind == "stack":
            f = VectorField.extension(s, V[k] if i is None else V[k, i])
        else:
            f = VectorField.reeb(s, a)
        for op in ops:
            f = f.project_H() if op is None else f.phi(op)
        return f

    value = lambda r: np.asarray(getattr(r, "v", r))  # rows, a vector or a float
    with pytest.MonkeyPatch.context() as mp:
        for budget in (2 * d, connections.CURVATURE_CHUNK):
            mp.setattr(connections, "CURVATURE_CHUNK", budget)
            for op in _TYPED:
                got = value(op(alpha, *(field(k, None) for k in range(3)), x))
                for i in range(P):
                    want = value(op(alpha, *(field(k, i) for k in range(3)),
                                    SpherePoint(x.x[i])))
                    assert got[i].tobytes() == want.tobytes(), (op, i)


# every typed operation: (structure, point, four unit vectors in H at it,
# three fields of the structure) -> its value
_ALL_TYPED = {
    "lie_bracket": lambda s, x, V, F: lie_bracket(F[0], F[1], x),
    "cov_deriv": lambda s, x, V, F: cov_deriv(HC, F[0], F[1], x),
    "torsion": lambda s, x, V, F: torsion(HC, F[0], F[1], x),
    "h_form_gap": lambda s, x, V, F: h_form_gap(F[0], F[1], x),
    "curvature": lambda s, x, V, F: curvature(HC, *F, x),
    "ricci": lambda s, x, V, F: ricci(s, HC, V[0], V[1]),
    "sectional": lambda s, x, V, F: sectional(s, V[0], V[1]),
    "holomorphic_sectional_bar": lambda s, x, V, F: holomorphic_sectional_bar(s, 1, V[0]),
    "theorem_sec_data": lambda s, x, V, F: theorem_sec_data(s, 1, V[0]),
    "verify_symmetries": lambda s, x, V, F: verify_symmetries(s, (x, *V)),
    "rbar_algebraic": lambda s, x, V, F: rbar_algebraic(s, *V[:3]),
    "rbar_difference_tensor": lambda s, x, V, F: rbar_difference_tensor(s, *V[:3]),
    "rbar_quaternionic_projective":
        lambda s, x, V, F: rbar_quaternionic_projective(s, *V[:3]),
    "two_route_gap_form": lambda s, x, V, F: two_route_gap_form(s, *V[:3]),
    "cross_check_rbar": lambda s, x, V, F: cross_check_rbar(s, (x, *V[:3])),
    "frame_H": lambda s, x, V, F: s.frame_H(x, 0),
    "h_tensor": lambda s, x, V, F: s.h_tensor(1, 2, V[0]),
    "check_structure_axioms": lambda s, x, V, F: s.check_structure_axioms((x, *V[:2])),
}


@pytest.mark.parametrize("name", _ALL_TYPED)
def test_typed_operations_check_dimension_and_point_where_they_enter(name):
    # n = 1 fields at an n = 2 point, or n = 2 vectors given to an n = 1
    # structure, one row or a stack, raise StructuralError before numpy
    # sees them; so does a second vector at another point
    op, s = _ALL_TYPED[name], ThreeSasakiStructure(n=1)
    rng = np.random.default_rng(3)
    F = [VectorField.reeb(s, 1), VectorField.extension(s, rng.standard_normal(8)),
         VectorField.reeb(s, 2).phi(3)]

    def unit_h(t, x):
        v = t.project_h_raw(rng.standard_normal(x.x.shape), x.x)
        return TangentVector(x, v / norm(v))

    for n, points in ((1, None), (2, None), (2, 3)):
        t = ThreeSasakiStructure(n=n)
        x = SpherePoint.normalized(rng.standard_normal(
            (points, t.ambient_dim) if points else t.ambient_dim))
        V = [unit_h(t, x) for _ in range(4)]
        if n > 1:
            with pytest.raises(StructuralError, match="dimension"):
                op(s, x, V, F)
            continue
        op(s, x, V, F)  # it runs where the dimensions agree
        V[1] = unit_h(t, SpherePoint.normalized(rng.standard_normal(8)))
        if name in ("ricci", "sectional", "verify_symmetries", "rbar_algebraic",
                    "rbar_difference_tensor", "rbar_quaternionic_projective",
                    "two_route_gap_form", "cross_check_rbar", "check_structure_axioms"):
            with pytest.raises(StructuralError, match="different base points"):
                op(s, x, V, F)


def _leaves(v):
    return [*_leaves(v.val), *_leaves(v.dot)] if isinstance(v, Dual) else [v]


def _data(f):
    return f.vec, f.alpha, f.ops


@pytest.mark.parametrize("make", [lambda: ThreeSasakiStructure(n=1),
                                  lambda: ThreeSasakiStructure(n=4),
                                  lambda: rotated(1)])
def test_merged_fields_have_the_rows_of_one_alpha_each(make):
    # the data of Reeb fields of different alpha on adjacent row blocks,
    # and of phi_a of (projected) extensions, is one evaluator over the
    # stacked rows, whose block k has the bits of block k's own field, on
    # plain points and on nested duals, gathered (a signed permutation) or
    # multiplied out
    s = make()
    rng = np.random.default_rng(21)
    alphas, C, d = (2, 1, 3, 3, 2), 3, s.ambient_dim
    xs = [rand_point(s, rng) for _ in range(len(alphas) * C)]
    y = np.stack([x.x for x in xs])
    w = np.stack([rand_tv(s, x, rng).v for x in xs])
    points = (y, Dual(y, w), Dual(Dual(y, w), Dual(w, np.zeros_like(y))))
    V = [rng.standard_normal((C, d)) for _ in alphas]
    for fields in ([VectorField.reeb(s, a) for a in alphas],
                   [VectorField.extension(s, v).phi(a) for v, a in zip(V, alphas)],
                   [VectorField.extension(s, v).project_H().phi(a)
                    for v, a in zip(V, alphas)]):
        merged = connections._blocks(s, [_data(f) for f in fields],
                                     map(connections._form, fields), C)
        for q in points:
            got = _leaves(merged(q))
            for k, f in enumerate(fields):
                rows = leafmap(lambda a: a[k * C:(k + 1) * C], q)
                for g, want in zip(got, _leaves(f(rows))):
                    assert g[k * C:(k + 1) * C].tobytes() == want.tobytes()
    # a Reeb field's rows on points with an axis before the last, as a
    # trace's points have
    reeb = connections._blocks(s, [(None, a, ()) for a in alphas], [(1, ())] * len(alphas), C)
    got = reeb(y[:, None])
    for k, a in enumerate(alphas):
        want = s.reeb_raw(a, y[k * C:(k + 1) * C, None])
        assert got[k * C:(k + 1) * C].tobytes() == want.tobytes()
    # one alpha: the data of that alpha itself, not an array of each row's
    same = connections._blocks(s, [(None, 2, ())] * 3, [(1, ())] * 3, C)
    assert same.args[1:] == (None, 2, ())


@pytest.mark.parametrize("n", [1, 4])
def test_one_row_fused_values_are_floats_of_separate_bits(monkeypatch, n):
    s = ThreeSasakiStructure(n=n)
    rng = np.random.default_rng(70 + n)
    x = rand_point(s, rng)
    X, Y, Z, W = (rand_tv(s, x, rng, in_h=True) for _ in range(4))
    calls, _ = _record_fused(monkeypatch)
    verify_symmetries(s, (x, X, Y, Z, W))
    data = theorem_sec_data(s, 1, X)
    values = [sectional(s, X, Y), holomorphic_sectional_bar(s, 2, X),
              *ricci(s, HC, X, [X, Y]),
              *(v for key in ("kbar", "k", "predicted", "residual")
                for v in data[key].values())]
    assert all(type(v) is float for v in values)
    fields = [VectorField.extension(s, V) for V in (X, Y, Z)]
    assert curvature(HC, *fields, x).v.shape == (s.ambient_dim,)
    assert len(calls) == 7
    # below the typed operations every pass runs the one row as a stack of one
    for *args, patterns, y, scheme, out in calls:
        assert y.shape[0] == 1 and y.ndim in (2, 4)  # the trace's: (1, 1, 1, d)
        for p, v in zip(patterns, out):
            want = _separate(*args, p, y, scheme)
            assert v.shape == want.shape and v.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, budget, points", [(1, 160, 10), (16, None, 2)])
def test_every_nested_pass_of_a_run_holds_the_chunk_budget(monkeypatch, n, budget, points):
    # all nine suites and the sign resolution: a pass, nested or first
    # order (and each first derivative a nested pass takes on plain
    # points), holds at most CURVATURE_CHUNK floats per leaf, or one row
    # where that alone is larger, and never more than d^2 (the trace at
    # n = 16: one row of a block of 34 basis vectors and 2 Ys, 68 x 68
    # floats); at n = 1 a budget of 20 rows puts the cross-check's 50 rows
    # over 3 passes
    cfg = RunConfig(n=n, points=points, seed=2)
    want = harness.run_suites(cfg).to_json()
    if budget is not None:
        monkeypatch.setattr(connections, "CURVATURE_CHUNK", budget)
    passes = []

    def sized(kernel):
        def recorded(*args, **kwargs):
            R = kernel(*args, **kwargs)
            D = R[None] if isinstance(R, dict) else R  # a first-order pass: its D_X Y
            if isinstance(D, np.ndarray):  # not a nested pass's inner derivative
                passes.append((len(np.atleast_2d(D)), D.size))
            return R
        return recorded

    for name in ("_curvature_raw", "_cov_raw"):
        monkeypatch.setattr(connections, name, sized(getattr(connections, name)))
    report = harness.run_suites(cfg)
    assert report.to_json() == want
    assert {body["status"] for body in report.suites.values()} <= {"pass", "fail"}
    limit, d = connections.CURVATURE_CHUNK, 4 * n + 4
    assert [p for p in passes if p[0] > 1 and p[1] > limit] == []
    assert any(p[1] > limit for p in passes) == (n == 16)
    assert max(p[1] for p in passes) <= max(limit, d * d)


@pytest.mark.parametrize("n, dense, points", [
    pytest.param(1, False, 3, id="1"), pytest.param(4, False, 3, id="4"),
    pytest.param(16, False, 1, id="16"), pytest.param(1, True, 3, id="1-dense"),
    pytest.param(4, True, 3, id="4-dense")])
def test_ricci_pairs_in_one_call_have_the_bits_of_two_calls(monkeypatch, n, dense, points):
    # in one pass, and over two basis blocks where one Y's basis fills the
    # budget (at n = 16 at any budget: 2 blocks of 34), with the default
    # triple and a dense one
    s = rotated(n) if dense else ThreeSasakiStructure(n=n)
    rng = np.random.default_rng(60 + n)
    xs = [rand_point(s, rng) for _ in range(points)]
    X, Y = (stack([rand_tv(s, x, rng, in_h=True) for x in xs]) for _ in range(2))
    for kind, budget in itertools.product((LC, HC), (3200, (4 * n + 4) * s.ambient_dim)):
        monkeypatch.setattr(connections, "CURVATURE_CHUNK", budget)
        for A, B in ((X, Y), (row(X, points // 2), row(Y, points // 2))):
            both = ricci(s, kind, A, [A, B])
            apart = [ricci(s, kind, A, V) for V in (A, B)]
            assert [np.float64(v).tobytes() for v in both] == [
                np.float64(v).tobytes() for v in apart]
            assert {type(v) for v in both} == {type(apart[0])}
            assert ricci(s, kind, A, []) == []  # no Y, no traces


@pytest.mark.parametrize("n, points, blocks", [(16, 3, [34, 34]), (1, 10, [8])])
def test_ricci_passes_are_one_per_basis_block_and_row_chunk(monkeypatch, n, points, blocks):
    # both Ys on one axis of each pass: at n = 16 each pass is one row of
    # one basis block, d^2 floats per leaf, so 2 P passes per connection;
    # at n = 1 the whole basis and all rows are one pass per connection
    s = ThreeSasakiStructure(n=n)
    rng = np.random.default_rng(30 + n)
    xs = [rand_point(s, rng) for _ in range(points)]
    X, Y = (stack([rand_tv(s, x, rng, in_h=True) for x in xs]) for _ in range(2))
    d, shapes = s.ambient_dim, []
    kernel = connections._curvature_raw

    def recorded(*args):
        R = kernel(*args)
        shapes.append(R.shape)
        return R

    monkeypatch.setattr(connections, "_curvature_raw", recorded)
    for kind in (LC, HC):
        shapes.clear()
        ricci(s, kind, X, [X, Y])
        rows = 1 if n == 16 else points
        assert shapes == [(rows, 2, b, d) for b in blocks for _ in range(points // rows)]
        assert max(map(math.prod, shapes)) <= max(connections.CURVATURE_CHUNK, d * d)
    if n == 1:  # a run of every suite at n = 1 keeps its 11 nested passes
        shapes.clear()
        harness.run_suites(RunConfig(n=n, points=points))
        assert len(shapes) == 11


def test_ricci_memory_does_not_grow_with_points():
    # the suite's traced peak is about that of one chunk's pass, whatever
    # the points: at n = 16 one point fills a chunk, and at n = 1 every
    # pass is full from 100 points on
    for n, points in ((16, (2, 8)), (1, (100, 400))):
        s = ThreeSasakiStructure(n=n)
        run = lambda p: _SUITE_FUNCS["ricci"](s, RunConfig(n=n, points=p, seed=4), {})
        run(1)  # untraced: a first run allocates some state once only
        peaks = []
        for p in points:
            tracemalloc.start()
            try:
                run(p)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0], (n, peaks)


def test_trace_is_basis_independent():
    # against one g(R(E, X)U, E) per vector E of an orthonormal basis of
    # T_x made here by a QR factorization of [x, random vectors]; the
    # seed of a call does not enter the trace
    for n in (1, 4):
        s = ThreeSasakiStructure(n=n)
        rng = np.random.default_rng(100 + n)
        x = rand_point(s, rng)
        q, _ = np.linalg.qr(np.column_stack(
            [x.x, rng.standard_normal((s.ambient_dim, s.manifold_dim))]))
        basis = [VectorField.extension(s, TangentVector(x, e)) for e in q.T[1:]]
        for kind, in_h in ((LC, False), (HC, True)):
            X, Y = (rand_tv(s, x, rng, in_h=in_h) for _ in range(2))
            Xf, Yf = (VectorField.extension(s, V) for V in (X, Y))
            for U, Uf in ((X, Xf), (Y, Yf)):
                want = sum(dot(curvature(kind, E, Xf, Uf, x).v, E(x.x)) for E in basis)
                assert ricci(s, kind, X, U) == pytest.approx(want, abs=1e-12), (n, kind)
            assert ricci(s, kind, X, Y, seed=11).hex() == ricci(s, kind, X, Y, seed=12).hex()


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
    # the adapted holomorphic value k is the round plane value K of
    # span{X, phi_a X} plus 3, with K under each plane normalization
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    for a in (1, 2, 3):
        k = holomorphic_sectional_bar(struct, a, X)
        K = sectional(struct, X, phi_tv(struct, a, X))
        residual = {c: abs(k - 3.0 - sign * K) for c, sign in (("+1", 1), ("-1", -1))}
        assert k == pytest.approx(4.0, abs=1e-10)
        assert residual["-1"] < 1e-10
        assert residual["+1"] == pytest.approx(2.0, abs=1e-9)
        best = min(residual, key=residual.get)
        assert best == "-1" and residual[best] <= 1e-6


def _cor_xxx_sides(s, X):
    """R4(X, phi_1 X, phi_2 X, phi_3 X) = g(R(X, phi_1 X)phi_3 X, phi_2 X)
    of the adapted and of the round connection."""
    Xf = VectorField.extension(s, X)
    return [dot(curvature(kind, Xf, Xf.phi(1), Xf.phi(3), X.base).v,
                phi_tv(s, 2, X).v) for kind in (HC, LC)]


def test_cor_xxx_both_sides_vanish(struct, rng):
    x = rand_point(struct, rng)
    X = rand_tv(struct, x, rng, in_h=True)
    lhs, rhs = _cor_xxx_sides(struct, X)
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


def test_sample_tuples_must_hold_vectors_at_their_point(struct, rng):
    # distribution vectors at another 4-point stack than the sample's
    # point: neither the axioms nor the symmetry families may read them
    x, elsewhere = (stack([rand_point(struct, rng) for _ in range(4)]) for _ in range(2))
    X, Y, Z, W = (stack([rand_tv(struct, row(elsewhere, i), rng, in_h=True)
                         for i in range(4)]) for _ in range(4))
    with pytest.raises(StructuralError):
        struct.check_structure_axioms((x, X, Y))
    with pytest.raises(StructuralError):
        verify_symmetries(struct, (x, X, Y, Z, W))
    # at their own point both run
    assert len(struct.check_structure_axioms((elsewhere, X, Y))) == 10
    assert len(verify_symmetries(struct, (elsewhere, X, Y, Z, W))) == 4


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
        assert_rows_match_calls(lambda x, X, Y: _at(
            _sasaki_plan(a, ext(X), ext(Y)), stacked(x), EXACT_FORWARD), x, X, Y)
        assert_rows_match_calls(lambda x, X, Y: _at(_phi_parallel_plan(
            a, ext(X).project_H(), ext(Y).project_H()), stacked(x), EXACT_FORWARD), x, Xh, Yh)
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
    assert_rows_match_calls(lambda X: holomorphic_sectional_bar(s, 2, X), Xh)
    assert_rows_match_calls(lambda X: sectional(s, X, phi_tv(s, 2, X)), Xh)
    assert_rows_match_calls(lambda X: _cor_xxx_sides(s, X), Xh)

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

