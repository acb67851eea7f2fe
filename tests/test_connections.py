import numpy as np
import pytest

from hkc.numlin import (
    CENTRAL_DIFFERENCE,
    EXACT_FORWARD,
    Dual,
    InternalConsistencyError,
    StructuralError,
    directional_derivative,
    dot,
    norm,
)
from hkc.connections import (
    ConnectionKind,
    VectorField,
    _at,
    _cov_raw,
    _fused_pass,
    _phi_parallel_plan,
    _sasaki_plan,
    cov_deriv,
    curvature,
    h_form_gap,
    lie_bracket,
    sphere_curvature_oracle,
    torsion,
)
from hkc import connections
from hkc.sphere3s import SpherePoint, TangentVector, ThreeSasakiStructure
from conftest import stacked

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


def test_bracket_guards_against_nontangent_fields(struct, rng, monkeypatch):
    # with the tangent projection taken out, the extension of c is the
    # constant field c, which is not tangent: its bracket with a Reeb field
    # leaves the tangent space
    c = rng.standard_normal(struct.ambient_dim)
    x = rand_point(struct, rng)
    monkeypatch.setattr(struct, "tangent_project_raw", lambda w, y: w + 0.0 * y)
    F = VectorField.extension(struct, c)
    with pytest.raises(InternalConsistencyError):
        lie_bracket(F, VectorField.reeb(struct, 1), x)


def test_vector_fields_take_no_closure(struct):
    # a field is extension vectors or a Reeb index, not a function
    with pytest.raises(TypeError):
        VectorField(struct, lambda y: y)
    with pytest.raises(TypeError):
        VectorField(struct, vec=lambda y: y)


@pytest.mark.parametrize("make", [
    # an index array: -1 once wrapped to the last block, so this was xi_3
    lambda s: VectorField(s, alpha=np.array([0, 0])),
    lambda s: VectorField.reeb(s, 1).phi(np.array([1, 2])),
    lambda s: VectorField(s, vec=np.ones(s.ambient_dim), alpha=1),  # both
    lambda s: VectorField(s),  # neither
    lambda s: VectorField(s, vec=np.ones(12)),  # 12 is no ambient dimension at n = 1
    lambda s: VectorField(s, vec=np.ones((3, 4))),
    lambda s: VectorField(s, vec=1.0),
], ids=["alpha-array", "phi-array", "vec-and-alpha", "no-data", "vec-of-12", "rows-of-4",
        "scalar-vec"])
def test_a_field_is_checked_where_it_is_made(struct, make):
    with pytest.raises(StructuralError):
        make(struct)


def test_a_field_of_listed_vectors_is_the_field_of_their_array(struct, rng):
    # vec as a list is taken as its float array where the field is made
    x = rand_point(struct, rng)
    v = struct.tangent_project_raw(rng.standard_normal(struct.ambient_dim), x.x)
    F, G = VectorField(struct, vec=v.tolist()), VectorField(struct, vec=v)
    assert cov_deriv(HC, F, F, x).v.tobytes() == cov_deriv(HC, G, G, x).v.tobytes()


def test_merged_reeb_fields_check_each_alpha(struct, rng):
    # torsion's patterns (X, Y) and (Y, X) would put xi_bad and xi_1 on
    # adjacent blocks of one slot, one alpha a row: a bad alpha is stopped
    # where its field is made, before any pass
    x = rand_point(struct, rng)
    for bad in (0, -1, 4, 1.0):
        with pytest.raises(StructuralError):
            torsion(HC, VectorField.reeb(struct, bad), VectorField.reeb(struct, 1), x)


def _stacked(s, rng, rows):
    x = SpherePoint.normalized(rng.standard_normal((rows, s.ambient_dim)))
    w = s.tangent_project_raw(rng.standard_normal((rows, s.ambient_dim)), x.x)
    return x, TangentVector(x, w)


def _rows_of(x, *rows):
    return [SpherePoint(x.x[i]) for i in rows]


def test_one_vector_fields_serve_every_row_of_a_chunked_pass(struct, rng):
    # X1, the extension of one vector, at 1000 rows, which a pass cuts
    # into chunks of 400: rows of each chunk have the bits of one-row calls
    X1 = rand_field(struct, rand_point(struct, rng), rng)
    xi1 = VectorField.reeb(struct, 1)
    x, _ = _stacked(struct, rng, 1000)
    d, R = cov_deriv(LC, X1, xi1, x).v, curvature(LC, X1, xi1, X1, x).v
    rows = (0, 399, 400, 799, 800, 999)
    for i, xi in zip(rows, _rows_of(x, *rows)):
        assert d[i].tobytes() == cov_deriv(LC, X1, xi1, xi).v.tobytes(), i
        assert R[i].tobytes() == curvature(LC, X1, xi1, X1, xi).v.tobytes(), i


def test_one_vector_fields_merge_with_stacked_fields(struct, rng):
    # torsion's passes put X1 (one row) and Y (5 rows) on adjacent blocks
    # of one slot: X1 is repeated on each of its rows
    X1 = rand_field(struct, rand_point(struct, rng), rng)
    x, Yt = _stacked(struct, rng, 5)
    Y = VectorField.extension(struct, Yt)
    for kind in (LC, HC):
        T = torsion(kind, X1, Y, x).v
        for i, xi in enumerate(_rows_of(x, *range(5))):
            Yi = VectorField.extension(struct, Yt.v[i])
            assert T[i].tobytes() == torsion(kind, X1, Yi, xi).v.tobytes(), (kind, i)


def test_no_pass_makes_a_field_chunked_or_not(struct, rng, monkeypatch):
    # a pass cuts, merges and evaluates the data of its fields itself: it
    # makes no field, whether its one chunk spans all rows or its chunks
    # are one row each, and its rows have the bits of one-row chunks
    x, Yt = _stacked(struct, rng, 5)
    X1, Y = rand_field(struct, rand_point(struct, rng), rng), VectorField.extension(struct, Yt)
    xi1, Z = VectorField.reeb(struct, 1), Y.project_H()
    passes = ((None, [(X1, Y, (LC,))]), (None, [(Y, xi1, (HC, None)), (xi1, Y, (LC,))]),
              (None, [(xi1, Z, (None, HC))]), (HC, [(Y, xi1, Z)]), (LC, [(X1, Y, Z, xi1)]))
    made, init = [], VectorField.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(VectorField, "__init__", counted)
    whole = [_fused_pass(struct, kind, ps, x.x, EXACT_FORWARD) for kind, ps in passes]
    assert made == []
    monkeypatch.setattr(connections, "CURVATURE_CHUNK", 1)
    for (kind, ps), values in zip(passes, whole):
        for got, want in zip(_fused_pass(struct, kind, ps, x.x, EXACT_FORWARD), values):
            assert np.array(got).tobytes() == np.array(want).tobytes(), kind
    assert made == []


def test_fields_of_other_rows_or_structures_are_rejected(struct, rng):
    # a field of 5 rows serves only a point of 5 rows, and the fields of
    # one call belong to one structure
    _, Yt = _stacked(struct, rng, 5)
    Y, xi1 = VectorField.extension(struct, Yt), VectorField.reeb(struct, 1)
    other = VectorField.reeb(ThreeSasakiStructure(n=1), 2)
    with pytest.raises(StructuralError):
        cov_deriv(LC, other, xi1, rand_point(struct, rng))
    for rows in (3, 1, 7):
        x, _ = _stacked(struct, rng, rows)
        for at in (x, SpherePoint(x.x[0])) if rows == 1 else (x,):
            with pytest.raises(StructuralError):
                cov_deriv(LC, Y, xi1, at)
            with pytest.raises(StructuralError):
                torsion(HC, xi1, Y, at)
            with pytest.raises(StructuralError):
                curvature(HC, xi1, xi1, Y, at)



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
def test_covariant_derivative_evaluates_each_field_once(struct, rng, monkeypatch, scheme,
                                                        evaluations):
    # through the typed operation: its pass evaluates X once and hands the
    # kernel X's value
    x = rand_point(struct, rng)
    X, Y = rand_field(struct, x, rng), rand_field(struct, x, rng)
    calls, value = {}, connections._value

    def counted(s, vec, *data):  # each field's one-row vector, as the pass holds it
        calls["X" if vec is X.vec else "Y" if vec is Y.vec else None] += 1
        return value(s, vec, *data)

    monkeypatch.setattr(connections, "_value", counted)
    for kind, want in evaluations.items():
        calls.update(X=0, Y=0)
        cov_deriv(kind, X, Y, x, scheme)
        assert (calls["X"], calls["Y"]) == want


def _leaves(v):
    return [*_leaves(v.val), *_leaves(v.dot)] if isinstance(v, Dual) else [v]


def test_kernel_reads_without_the_adapted_one_have_its_call_bits(struct, monkeypatch):
    # on a dual point, as inside an exact-forward nested pass (a stencil's
    # points are plain), the kernel's reads of D_X Y and nabla_X Y on every
    # row have the bits of those of the adapted call, which reads
    # nabla-bar_X Y too; without it neither that read nor A is made
    scheme = EXACT_FORWARD
    rng = np.random.default_rng(23)
    P, d = 5, struct.ambient_dim
    x = SpherePoint.normalized(rng.standard_normal((P, d)))
    tangent = lambda: struct.tangent_project_raw(rng.standard_normal((P, d)), x.x)
    y = Dual(x.x, tangent())
    X = VectorField.extension(struct, tangent())
    for Y in (VectorField.extension(struct, tangent()).phi(2), VectorField.reeb(struct, 3)):
        full = _cov_raw(struct, X(y), Y, y, scheme, True)
        with monkeypatch.context() as mp:
            mp.setattr(connections, "_a_raw", None)  # a call would raise
            part = _cov_raw(struct, X(y), Y, y, scheme, False)
        assert part[HC] is None
        for kind in (None, LC, HC):
            assert [g.shape for g in _leaves(full[kind])] == [(P, d)] * 2
        for kind in (None, LC):
            got, want = _leaves(part[kind]), _leaves(full[kind])
            assert [g.tobytes() for g in got] == [w.tobytes() for w in want], kind


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
    defect = lambda a, X, Y, x: norm(_at(_sasaki_plan(a, X, Y), stacked(x), EXACT_FORWARD))
    for a in (1, 2, 3):
        assert defect(a, X, Y, x) < 1e-12
    # flipped orientation: for X = Y unit the defect has norm 2 exactly
    flipped = ThreeSasakiStructure(n=1, sign=+1)
    xf = SpherePoint.normalized(x.x)
    w = flipped.project_h_raw(rng.standard_normal(8), xf.x)
    U = VectorField.extension(flipped, TangentVector(xf, w / np.linalg.norm(w)))
    assert defect(1, U, U, xf) == pytest.approx(2.0, abs=1e-10)


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
    # resolved sign, R4(X, Y, X, Y) = g(R(X,Y)Y, X) = +1 for orthonormal X, Y
    x = rand_point(struct, rng)
    fr = struct.frame_H(x, seed=3)
    X = VectorField.extension(struct, fr[0])
    Y = VectorField.extension(struct, fr[1])
    val = dot(curvature(LC, X, Y, Y, x).v, fr[0].v)
    assert val == pytest.approx(1.0, abs=1e-11)


def test_phi_parallel_on_h(struct, rng):
    x = rand_point(struct, rng)
    X = rand_field(struct, x, rng, in_h=True)
    Y = rand_field(struct, x, rng, in_h=True)
    # the inputs forced into H by projection, as the connection suite's are
    defect = lambda a, X, Y: norm(_at(_phi_parallel_plan(a, X.project_H(), Y.project_H()),
                                      stacked(x), EXACT_FORWARD))
    for a in (1, 2, 3):
        assert defect(a, X, Y) < 1e-11
        assert defect(a, X, X.phi(a)) < 1e-11


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
