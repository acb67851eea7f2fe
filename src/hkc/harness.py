"""Verification harness and command-line entry point.

Runs the identity suites against a freshly built structure, collects the
residuals into a machine-readable report, and resolves the three sign
conventions empirically before any curvature suite is interpreted.  All
sampling is driven by counter-keyed seed sequences, so a report is a pure
function of its configuration.  Each suite draws its samples as a stack:
one generator per suite lane supplies all its Gaussian rows as one
block, each row used as drawn (the sectional suite alone redraws: its
coefficients, from a reserve); its checks run once over the stack and
yield one residual per sample row.  A suite runs one pass per kernel (a
covariant derivative or the nested curvature of one connection, or the
bracket), its slot patterns as row blocks, in chunks of samples.
"""

import os
import sys
from dataclasses import dataclass

import numpy as np

from .connections import (
    HC,
    LC,
    VectorField,
    _bracket_plan,
    _cov_plan,
    _form_gap_plan,
    _fused_pass,
    _h_tensor_plan,
    _phi_parallel_plan,
    _run,
    _sasaki_plan,
    _torsion_plan,
    cov_deriv,
    curvature,
    sphere_curvature_oracle,
)
from .curvature import (
    _cor_xxx,
    _holomorphic,
    _plane,
    _symmetry_patterns,
    _symmetry_residuals,
    cross_check_rbar,
    holomorphic_sectional_bar,
    ricci,
    theorem_sec_data,
    two_route_gap_form,
)
from .numlin import (
    CENTRAL_DIFFERENCE,
    EXACT_FORWARD,
    DiffScheme,
    NumericError,
    PreconditionError,
    StructuralError,
    directional_derivative,
    dot,
    is_count,
    norm,
)
from .records import SCHEMA, VerificationReport, build_records
from .sphere3s import (
    EVEN_PERMUTATIONS,
    SpherePoint,
    TangentVector,
    ThreeSasakiStructure,
)

SUITE_ORDER = (
    "axioms",
    "sasaki",
    "connection",
    "torsion",
    "curvature",
    "cross-check",
    "ricci",
    "sectional",
    "theorem-sec",
)

_SWEEP_ANGLES = (
    ("0", 0.0),
    ("pi/6", np.pi / 6.0),
    ("pi/4", np.pi / 4.0),
    ("pi/3", np.pi / 3.0),
    ("pi/2", np.pi / 2.0),
)

_CONVENTION_STREAM = 97  # spawn-key lane reserved for sign resolution
_CLI_STREAM = 98         # spawn-key lane for the curvature subcommand


# ============================================================
# configuration
# ============================================================

@dataclass(frozen=True)
class RunConfig:
    n: int = 1
    points: int = 25
    seed: int = 0
    tol_first: float = 1e-9
    tol_second: float = 1e-7
    scheme: DiffScheme = EXACT_FORWARD
    suites: tuple = SUITE_ORDER

    def __post_init__(self):
        for name, low, word in (("n", 0, "non-negative"), ("points", 1, "positive"),
                                ("seed", 0, "non-negative")):
            v = getattr(self, name)
            if not is_count(v) or v < low:
                raise StructuralError(f"{name} must be a {word} integer, got {v!r}")
        if not (0.0 < self.tol_first <= self.tol_second < np.inf):
            raise StructuralError(
                f"tolerances must be finite with 0 < tol_first <= tol_second, got "
                f"{self.tol_first!r} and {self.tol_second!r}")
        if not isinstance(self.scheme, DiffScheme):
            raise StructuralError("scheme must be a DiffScheme")
        unknown = [s for s in self.suites if s not in SUITE_ORDER]
        if unknown:
            raise StructuralError(f"unknown suites: {unknown}")
        if not self.suites:
            raise StructuralError("at least one suite must be requested")

    def run_order(self):
        return tuple(name for name in SUITE_ORDER if name in self.suites)

    def as_dict(self):
        return {
            "n": int(self.n),
            "points": int(self.points),
            "seed": int(self.seed),
            "tol_first": float(self.tol_first),
            "tol_second": float(self.tol_second),
            "scheme": {"kind": self.scheme.kind, "step": float(self.scheme.step)},
            "suites": list(self.run_order()),
        }


# ============================================================
# deterministic sampling
# ============================================================

def _stream(seed, *key):
    """Independent generator keyed by (seed, *key): a suite lane (suite
    position, sub-lane), the sectional lane's reserve (its key, then 1) or
    a reserved lane constant and 0, so no two draws share a stream."""
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=tuple(map(int, key))))


def _units(s, w, kinds, x=None):
    """The unit rows of raw Gaussian rows w (P, len(kinds), d), as one
    stack per row position k of kind ``kinds[k]``: a point ("p", then
    normalised twice, as ``SpherePoint.normalized`` would), a unit vector
    tangent at it ("t") or in H at it ("h"), each the row projected over
    its length.  A row is used as drawn: a projection no longer than 1e-6
    (by the chi law, a chance below 3e-19 a row) raises."""
    out = []
    for k, what in enumerate(kinds):
        if what == "h" and s.h_dim == 0:
            raise PreconditionError(
                "the distribution H is zero-dimensional for n = 0; "
                "no unit direction can be drawn from it")
        v = np.ascontiguousarray(w[:, k])  # row bits: see numlin.dot
        if what != "p":
            v = (s.tangent_project_raw if what == "t" else s.project_h_raw)(v, x)
        nv = norm(v)
        if not np.all(nv > 1e-6):
            raise PreconditionError("could not draw a usable sample row")
        u = v / nv
        u = u / norm(u) if what == "p" else u
        x = u if what == "p" else x
        out.append(u)
    return out


def _one_row(s, rng, what, x=None):
    return _units(s, rng.standard_normal((1, 1, s.ambient_dim)), what, x)[0][0]


def sample_point(structure, rng):
    return SpherePoint(_one_row(structure, rng, "p"))


def sample_unit_tangent(structure, x, rng):
    return TangentVector(x, _one_row(structure, rng, "t", x.x[None]))


def sample_unit_H(structure, x, rng):
    return TangentVector(x, _one_row(structure, rng, "h", x.x[None]))


def _draws(s, cfg, suite, kinds, sub=0):
    """A lane's samples, as the point stack and one vector stack per letter
    of ``kinds``, drawn as one block by the lane's generator, keyed (seed,
    suite position, sub-lane): sample p's raw Gaussians at [p], which numpy
    fills in C order, so they do not depend on the number of points."""
    w = _stream(cfg.seed, SUITE_ORDER.index(suite), sub).standard_normal(
        (cfg.points, 1 + len(kinds), s.ambient_dim))
    x, *vectors = _units(s, w, "p" + kinds)
    x = SpherePoint(x)
    return (x, *(TangentVector(x, v) for v in vectors))


_ext = VectorField.extension


# ============================================================
# sign-convention resolution
# ============================================================

def resolve_conventions(structure, seed, scheme=EXACT_FORWARD):
    """Measure the three sign conventions instead of assuming them.

    Each entry records the selected value, the residual it leaves, and a
    plain statement of what the value means.  Resolution happens on a
    dedicated sampling lane so it never perturbs suite draws.
    """
    rng = _stream(seed, _CONVENTION_STREAM, 0)
    x = sample_point(structure, rng)
    u = sample_unit_tangent(structure, x, rng)
    v = sample_unit_tangent(structure, x, rng)
    w = v.v - dot(v.v, u.v) * u.v
    v = TangentVector(x, w / norm(w))
    # u, v orthonormal; _plane rejects a vanishing Gram determinant
    (Uf, Vf, _, _), plane_value = _plane(structure, u, v)

    d_xi = cov_deriv(LC, Uf, VectorField.reeb(structure, 1), x, scheme)
    phi_u = structure.phi_raw(1, u.v, x.x)
    RXYY = curvature(LC, Uf, Vf, Vf, x, scheme)
    # the plane value of ``sectional`` from the same nested pass
    k = plane_value(dot(RXYY.v, Uf(x.x)))
    return {
        # orientation of the Reeb first-derivative law
        "reeb-orientation": _choose(
            "-1", norm(d_xi.v + phi_u), norm(d_xi.v - phi_u),
            "first derivative of each Reeb field along X equals "
            "(value) * phi_a X"),
        # sign of the round curvature operator, probed via R(u, v)v
        "curvature-sign": _choose(
            "+1", norm(RXYY.v - u.v), norm(RXYY.v + u.v),
            "round curvature operator equals (value) * "
            "(g(Y,Z) X - g(X,Z) Y); the quadrilinear table is "
            "r(X,Y,Z,W) = g(R(X,Y)W, Z)"),
        # the factor for which round planes measure +1
        "plane-normalization": _choose(
            "-1", abs(-k - 1.0), abs(k - 1.0),
            "plane measure = (value) * (-r(X,Y,X,Y)) / gram(X,Y); "
            "the selected value makes round planes measure +1"),
    }


def _choose(value, residual, other, meaning):
    """A convention entry: the sign ``value`` when its residual is at most
    ``other``, the residual of the opposite sign, else that sign."""
    return {"value": value if residual <= other else f"{-int(value):+d}",
            "residual": float(min(residual, other)), "meaning": meaning}


def selected_plane_convention(conventions):
    return int(conventions["plane-normalization"]["value"])


# ============================================================
# suites
# ============================================================

def _stack(*vectors):
    """One stack of the rows of tangent vectors (each one row or a stack),
    in order, every row at its own base point."""
    x = SpherePoint(np.vstack([V.base.x for V in vectors]))
    return TangentVector(x, np.vstack([V.v for V in vectors]))


def _suite_axioms(s, cfg, conventions):
    return s.check_structure_axioms(_draws(s, cfg, "axioms", "tt"),
                                    tol=cfg.tol_first)


def _suite_sasaki(s, cfg, conventions):
    x, Xt, Yt = _draws(s, cfg, "sasaki", "tt")
    y = x.x
    X, Y = _ext(s, Xt), _ext(s, Yt)
    xi = {a: VectorField.reeb(s, a) for a in (1, 2, 3)}
    # one pass per kernel: every Levi-Civita derivative, then every bracket
    defect, d_xi, br, rr, r_self = _run(s, (
        [_sasaki_plan(a, X, Y) for a in (1, 2, 3)],
        [_cov_plan(LC, X, xi[a]) for a in (1, 2, 3)],
        [_bracket_plan(xi[a], xi[b]) for a, b, _ in EVEN_PERMUTATIONS],
        [_cov_plan(LC, xi[a], xi[b]) for a, b, _ in EVEN_PERMUTATIONS],
        [_cov_plan(LC, xi[a], xi[a]) for a, _, _ in EVEN_PERMUTATIONS]), y, cfg.scheme)

    def residuals():
        for a in (1, 2, 3):
            yield "sasaki.defect", norm(defect[a - 1])
            yield "sasaki.reeb_covariant", norm(d_xi[a - 1] + s.phi_raw(a, X(y), y))
        for (a, b, c), bv, rv, sv in zip(EVEN_PERMUTATIONS, br, rr, r_self):
            yield "sasaki.reeb_bracket", norm(bv - 2.0 * s.reeb_raw(c, y))
            yield "sasaki.reeb_on_reeb", norm(rv - s.reeb_raw(c, y))
            yield "sasaki.reeb_on_reeb", norm(sv)

    info = {"kind": "info", "passed": True, "samples": 1, "details": conventions,
            "max_residual": max(v["residual"] for v in conventions.values())}
    return build_records("sasaki", cfg.points, residuals(),
                         (cfg.tol_first, cfg.tol_second), {"sasaki.conventions": info})


def _suite_connection(s, cfg, conventions):
    x, Xt, Zt, Xh_t, Yh_t = _draws(s, cfg, "connection", "tthh")
    y = x.x
    X, Z = _ext(s, Xt), _ext(s, Zt)
    Xh, Yh = _ext(s, Xh_t).project_H(), _ext(s, Yh_t).project_H()
    xi = {a: VectorField.reeb(s, a) for a in (1, 2, 3)}
    # one pass per kernel, shared rows evaluated once: nabla-bar_X Z, [xi_a, X]
    h = {(a, b): _h_tensor_plan(xi[a], b, X) for a in xi for b in xi}
    (gap, XX, XZ, ZX), reeb_par, (dY,), (br,), phi_par, h_values = _run(s, (
        [_form_gap_plan(X, Z), _cov_plan(HC, X, X),
         _cov_plan(HC, X, Z), _cov_plan(HC, Z, X)],
        [_cov_plan(HC, X, xi[a]) for a in (1, 2, 3)],
        [_cov_plan(HC, X, Yh)],
        [_bracket_plan(X, Z)],
        [_phi_parallel_plan(a, Xh, Yh) for a in (1, 2, 3)],
        list(h.values())), y, cfg.scheme)
    h = dict(zip(h, h_values))

    def residuals():
        yield "connection.two_forms_agree", gap

        # metric compatibility of the adapted derivative along itself:
        # differentiate g(X, Z) along X and compare with the product rule
        dg = directional_derivative(lambda q: dot(X(q), Z(q)), y, Xt.v, cfg.scheme)
        yield "connection.metricity", abs(dg - (dot(XX, Zt.v) + dot(Xt.v, XZ)))
        dg2 = directional_derivative(lambda q: dot(X(q), X(q)), y, Zt.v, cfg.scheme)
        yield "connection.metricity", abs(dg2 - 2.0 * dot(ZX, Xt.v))

        for d in reeb_par:
            yield "connection.reeb_parallel", norm(d)
        for a in (1, 2, 3):
            yield "connection.h_preserved", abs(s.eta_raw(a, dY, y))

        rhs_br = XZ - ZX
        for a in (1, 2, 3):
            rhs_br = rhs_br - 2.0 * s.omega_raw(a, Xt.v, Zt.v, y) * s.reeb_raw(a, y)
        yield "connection.bracket3", norm(br - rhs_br)

        for d in phi_par:
            yield "connection.phi_parallel", norm(d)

        # the comparison table h_aa = 0, h_ab = phi_c = -h_ba for even
        # (a, b, c) is exact for any tangent argument
        for a in (1, 2, 3):
            yield "connection.h_tensor_table", norm(h[a, a])
        for (a, b, c) in EVEN_PERMUTATIONS:
            phi_c = s.phi_raw(c, Xt.v, y)
            yield "connection.h_tensor_table", norm(h[a, b] - phi_c)
            yield "connection.h_tensor_table", norm(h[b, a] + phi_c)

    return build_records("connection", cfg.points, residuals(),
                         (cfg.tol_first, cfg.tol_second))


def _suite_torsion(s, cfg, conventions):
    x, Xt, Yt, Xh_t, Yh_t = _draws(s, cfg, "torsion", "tthh")
    y = x.x
    X, Y = _ext(s, Xt), _ext(s, Yt)
    Xh, Yh = _ext(s, Xh_t).project_H(), _ext(s, Yh_t).project_H()
    xi = {a: VectorField.reeb(s, a) for a in (1, 2, 3)}
    # one pass per kernel: nabla_X Y and nabla_Y X of each pair, its bracket
    (lc, t), mixed, reeb_pair = _run(s, (
        [_torsion_plan(LC, X, Y), _torsion_plan(HC, Xh, Yh)],
        [_torsion_plan(HC, Xh, xi[a]) for a in (1, 2, 3)],
        [_torsion_plan(HC, xi[a], xi[b]) for a, b, _ in EVEN_PERMUTATIONS]), y, cfg.scheme)

    def residuals():
        yield "torsion.lc_zero", norm(lc)

        want = np.zeros(s.ambient_dim)
        for a in (1, 2, 3):
            want = want + (2.0 * s.omega_raw(a, Xh_t.v, Yh_t.v, y)
                           * s.reeb_raw(a, y))
        yield "torsion.h_pair", norm(t - want)

        for tm in mixed:
            yield "torsion.mixed", norm(tm)
        for (a, b, c), tp in zip(EVEN_PERMUTATIONS, reeb_pair):
            yield "torsion.reeb_pair", norm(tp + 2.0 * s.reeb_raw(c, y))

    return build_records("torsion", cfg.points, residuals(),
                         (cfg.tol_first, cfg.tol_second))


def _suite_curvature(s, cfg, conventions):
    x, Xt, Yt, Zt, *quad = _draws(s, cfg, "curvature", "ttthhhh")
    y = x.x
    X, Y, Z = (_ext(s, V) for V in (Xt, Yt, Zt))
    xi = {a: VectorField.reeb(s, a) for a in (1, 2, 3)}
    # one nested pass per connection and chunk over every slot pattern:
    # the round ones against their closed forms, the adapted ones against
    # zero, then the six values of the symmetry families
    want = [s.eta_raw(a, Yt.v, y) * Xt.v - s.eta_raw(a, Xt.v, y) * Yt.v
            for a in (1, 2, 3)]
    lc = _fused_pass(s, LC, [(X, Y, Z, sphere_curvature_oracle(Xt, Yt, Zt).v)]
                     + [(X, Y, xi[a], want[a - 1]) for a in (1, 2, 3)],
                     y, cfg.scheme)
    hc = _fused_pass(s, HC, [(X, Y, xi[a], None) for a in (1, 2, 3)]
                     + [(X, xi[a], Z, None) for a in (1, 2, 3)]
                     + [(xi[a], xi[b], last, None)
                        for a, b, c in EVEN_PERMUTATIONS for last in (Z, xi[c])]
                     + _symmetry_patterns(s, quad), y, cfg.scheme)

    def residuals():
        yield "curvature.oracle_gate", lc[0]
        for a in (1, 2, 3):
            yield "curvature.reeb_curvature_lc", lc[a]
            yield "curvature.annihilation_last", hc[a - 1]
            yield "curvature.annihilation_middle", hc[a + 2]
        for res in hc[6:12]:
            yield "curvature.annihilation_pair", res
        yield from _symmetry_residuals(hc[12:])

    return build_records("curvature", cfg.points, residuals(),
                         (cfg.tol_first, cfg.tol_second))


def cross_check_families(s, cfg):
    """The five argument families of the cross-check suite, each a stacked
    (point, X, Y, Z) tuple of ``cfg.points`` rows drawn from the suite's
    own sampling lane: ``pure_h``, ``reeb_last``, ``reeb_pairs``,
    ``single_reeb`` and ``generic``.  Sample p's Reeb vectors are xi_a,
    xi_b (a = 1 + p % 3, b = a % 3 + 1) and, when p % 3 == 2, the third."""
    x, Xh, Yh, Zh, *generic = _draws(s, cfg, "cross-check", "hhhttt")
    p = np.arange(cfg.points)
    reeb = s.reeb_all_raw(x.x)
    xa, xb = (TangentVector(x, reeb[p, (p + k) % 3]) for k in (0, 1))
    tail = TangentVector(x, np.where((p % 3 == 2)[:, None],
                                     reeb[p, (p + 2) % 3], Zh.v))
    return {
        "pure_h": (x, Xh, Yh, Zh),
        "reeb_last": (x, Xh, Yh, xa),
        "reeb_pairs": (x, xa, xb, tail),
        "single_reeb": (x, Xh, xa, Zh),
        "generic": (x, *generic),
    }


def _suite_cross_check(s, cfg, conventions):
    families = cross_check_families(s, cfg)
    # one stack of all families: rows k*P .. (k+1)*P - 1 are family k
    X, Y, Z = (_stack(*(t[k] for t in families.values())) for k in (1, 2, 3))
    r = cross_check_rbar(s, (X.base, X, Y, Z), cfg.scheme)
    gap = norm(r.value_algebraic - r.value_direct
               - two_route_gap_form(s, X, Y, Z).v)

    def residuals():
        for k, name in enumerate(families):
            at = slice(k * cfg.points, (k + 1) * cfg.points)
            yield f"cross_check.{name}", r.residual[at]
            yield "gap", gap[at]

    def table(worst):
        return {"cross_check.gap_structure": {
            "kind": "info", "max_residual": worst["gap"],
            "samples": 5 * cfg.points,
            "details": {
                "family_residuals": {name: worst[f"cross_check.{name}"]
                                     for name in families},
                "note": "the difference between the algebraic expansion "
                        "and the differential evaluation is reproduced "
                        "exactly by a closed-form tensor built from the "
                        "Reeb components of the arguments; it vanishes "
                        "when the first two arguments lie in H",
            }}}

    return build_records("cross-check", cfg.points, residuals(),
                         (cfg.tol_first, cfg.tol_second), table)


def _suite_ricci(s, cfg, conventions):
    c_lc = float(4 * s.n + 2)
    c_claim = float(4 * s.n + 5)

    _, Xt, Yt, Xh, Yh = _draws(s, cfg, "ricci", "tthh")
    # both argument pairs of each kind in one trace call
    lc_diag, lc_off = ricci(s, LC, Xt, [Xt, Yt], cfg.scheme)
    diag, off = ricci(s, HC, Xh, [Xh, Yh], cfg.scheme)
    gxy_t, gxy = dot(Xt.v, Yt.v), dot(Xh.v, Yh.v)
    measured = diag[0, 0]  # the adapted trace of the first sample sets the factor

    def residuals():
        yield "ricci.einstein_lc", abs(lc_diag - c_lc)
        yield "ricci.einstein_lc", abs(lc_off - c_lc * gxy_t)
        yield "ricci.h_connection", abs(diag - c_claim)
        yield "ricci.h_connection", abs(off - c_claim * gxy)
        yield "ricci.h_connection_measured", abs(diag - measured)
        yield "ricci.h_connection_measured", abs(off - measured * gxy)

    return build_records("ricci", cfg.points, residuals(),
                         (cfg.tol_first, cfg.tol_second), {
        "ricci.einstein_lc": {"details": {"constant": c_lc}},
        "ricci.h_connection": {"details": {"stated_constant": c_claim}},
        "ricci.h_connection_measured": {
            "kind": "info", "details": {
                "measured_constant": float(measured),
                "stated_constant": c_claim,
                "note": "the adapted trace on distribution arguments "
                        "is proportional to the metric; the measured "
                        "factor matches 4 n + 8, which exceeds the "
                        "stated constant by 3",
            }},
    })


def _sectional_draws(s, cfg):
    """The sectional suite's samples, stacked: unit tangent vectors X, Y,
    combinations U, V of them by four coefficients of determinant at
    least 0.1, and a unit vector of H; from one block, sample p's point,
    X and Y rows, coefficients and H row, in the order of a one-row draw.
    A sample whose X and Y are nearly parallel (|<X, Y>| > 0.999) is
    dropped, its H row unused.  Coefficients of a kept sample whose
    determinant is below 0.1 are drawn again, in sample order, from the
    lane's reserve, made on first need."""
    key, d = (cfg.seed, SUITE_ORDER.index("sectional"), 0), s.ambient_dim
    block = _stream(*key).standard_normal((cfg.points, 4 * d + 4))
    x, X, Y = _units(s, block[:, :3 * d].reshape(-1, 3, d), "ptt")
    keep = np.ravel(np.abs(dot(X, Y)) <= 0.999)
    if not keep.any():
        return None
    x, X, Y, c = x[keep], X[keep], Y[keep], block[keep, 3 * d:3 * d + 4]
    H, = _units(s, block[keep, None, 3 * d + 4:], "h", x)
    det = lambda c: np.abs(c[..., 0] * c[..., 3] - c[..., 1] * c[..., 2])
    redo = np.flatnonzero(det(c) < 0.1)
    reserve = _stream(*key, 1) if len(redo) else None
    for p in redo:
        while det(c[p]) < 0.1:
            c[p] = reserve.standard_normal(4)
    x = SpherePoint(x)
    return (TangentVector(x, X), TangentVector(x, Y),
            TangentVector(x, c[:, :1] * X + c[:, 1:2] * Y),
            TangentVector(x, c[:, 2:3] * X + c[:, 3:] * Y),
            TangentVector(x, H))


def _suite_sectional(s, cfg, conventions):
    sel = selected_plane_convention(conventions)
    tol = (cfg.tol_first, cfg.tol_second)
    table = dict.fromkeys(
        ("sectional.sphere_constant", "sectional.sec_rela",
         "sectional.tanno_sum", "sectional.third_constant"),
        {"details": {"selected_convention": f"{sel:+d}"}})
    drawn = _sectional_draws(s, cfg)
    if drawn is None:  # every sample dropped: none is checked
        return build_records("sectional", 0, (), tol, table)
    Xt, Yt, U, V, Xh = drawn
    x = Xh.base
    # one nested pass per connection and chunk: round, the two spans of each
    # sample, the phi_a-planes of each Xh and the cross identity; adapted,
    # the holomorphic values of each Xh and the cross identity
    planes = [_plane(s, *pair) for pair in ((Xt, Yt), (U, V), *(
        (Xh, TangentVector(x, s.phi_raw(a, Xh.v, x.x))) for a in (1, 2, 3)))]
    cor = _cor_xxx(s, Xh)
    hc = _fused_pass(s, HC, [_holomorphic(s, a, Xh) for a in (1, 2, 3)] + [cor],
                     x.x, cfg.scheme)
    lc = _fused_pass(s, LC, [p for p, _ in planes] + [cor], x.x, cfg.scheme)
    # the selected sign times the plane value, as ``sectional``
    k = [sel * value(r) for r, (_, value) in zip(lc, planes)]

    def residuals():
        yield "sectional.sphere_constant", abs(k[0] - 1.0)
        yield "sectional.plane_invariance", abs(k[0] - k[1])
        total = tanno = 0.0
        for a in (1, 2, 3):
            ka = k[a + 1]
            total += hc[a - 1]
            tanno += ka
            yield "sectional.holomorphic_constant", abs(hc[a - 1] - 4.0)
            yield "sectional.sec_rela", abs(hc[a - 1] - 3.0 - ka)
            yield "sectional.third_constant", abs(ka - 1.0)
        yield "sectional.holomorphic_sum", abs(total - 12.0)
        yield "sectional.tanno_sum", abs(tanno - 3.0)
        yield "sectional.cor_xxx", abs(hc[3] - lc[5])

    return build_records("sectional", len(x.x), residuals(), tol, table)


def _theorem_sec_directions(s, cfg, axis):
    """The seven theorem-sec directions, rows k*P .. (k+1)*P - 1 direction
    k: the H case; the five sweep angles from H to the Reeb vector
    ``axis``, drawn on sub-lane 1; that axis, on sub-lane 2."""
    _, h_case = _draws(s, cfg, "theorem-sec", "h")
    x, u = _draws(s, cfg, "theorem-sec", "h", 1)
    sweep = []
    for _, theta in _SWEEP_ANGLES:
        co, si = float(np.cos(theta)), float(np.sin(theta))
        X = co * u.v + si * s.reeb_raw(axis, x.x)
        sweep.append(TangentVector(x, X / norm(X)))
    x, = _draws(s, cfg, "theorem-sec", "", 2)
    return _stack(h_case, *sweep, TangentVector(x, s.reeb_raw(axis, x.x)))


def _suite_theorem_sec(s, cfg, conventions):
    sel = selected_plane_convention(conventions)
    combo_sel = f"{sel:+d}/{sel:+d}"
    alpha, axis = 1, 2

    data = theorem_sec_data(s, alpha, _theorem_sec_directions(s, cfg, axis),
                            cfg.scheme)
    at = [slice(k * cfg.points, (k + 1) * cfg.points) for k in range(7)]

    def residuals():
        yield "theorem_sec.h_case", data["residual"][combo_sel][at[0]]
        # the sweep keys are (angle, combination)
        for (label, _), rows in zip(_SWEEP_ANGLES, at[1:6]):
            for combo, res in data["residual"].items():
                yield (label, combo), res[rows]
        yield "theorem_sec.reeb_case", data["residual"]["+1/+1"][at[6]]

    def table(worst):
        sweep = {label: {} for label, _ in _SWEEP_ANGLES}
        for key, res in worst.items():
            if isinstance(key, tuple):
                sweep[key[0]][key[1]] = float(res)
        least = [min(row.values()) for row in sweep.values()]
        return {
            "theorem_sec.h_case": {"details": {"convention_combination": combo_sel}},
            "theorem_sec.sweep": {
                "kind": "finding", "passed": all(m <= cfg.tol_second for m in least),
                "max_residual": max(least), "samples": 5 * cfg.points,
                "details": {
                    "angles": list(sweep),
                    "residuals": sweep,
                    # the first in the row's order within tolerance of its
                    # least, so that rounding cannot break ties
                    "best_combination": {label: next(
                        combo for combo, res in row.items()
                        if res - m <= cfg.tol_second)
                        for (label, row), m in zip(sweep.items(), least)},
                    "note": "for mixed directions the measured plane "
                            "value follows 4 - 8 sin^2 t + 4 sin^4 t "
                            "under the selected convention, while the "
                            "prediction carries a 6 sin^4 t quartic "
                            "term; no convention combination closes "
                            "the gap away from the endpoints",
                }},
            "theorem_sec.reeb_case": {
                "kind": "finding", "details": {
                    "convention_combination": "+1/+1",
                    "note": "along a pure Reeb axis the two sides agree "
                            "only when both plane measures are taken "
                            "with the unflipped factor",
                }},
        }

    return build_records("theorem-sec", cfg.points, residuals(),
                         (cfg.tol_first, cfg.tol_second), table)


_SUITE_FUNCS = {
    "axioms": _suite_axioms,
    "sasaki": _suite_sasaki,
    "connection": _suite_connection,
    "torsion": _suite_torsion,
    "curvature": _suite_curvature,
    "cross-check": _suite_cross_check,
    "ricci": _suite_ricci,
    "sectional": _suite_sectional,
    "theorem-sec": _suite_theorem_sec,
}

# a failing or errored foundation skips every later suite, for this reason
_FOUNDATIONS = {"axioms": "structure axioms did not hold",
                "sasaki": "first-derivative structure identities did not hold"}


# ============================================================
# runner
# ============================================================

def run_suites(config: RunConfig, structure=None) -> VerificationReport:
    """Execute the requested suites and assemble the report.

    A failing foundation gates everything it supports: broken axioms skip
    all later suites, a broken first-derivative layer skips the
    connection layer onward, and a failing curvature oracle gate skips
    every later suite, each of which interprets second derivatives.
    """
    s = structure if structure is not None else ThreeSasakiStructure(n=config.n)
    conventions = resolve_conventions(s, config.seed, config.scheme)
    order = config.run_order()
    results = {}
    blocked = {}

    for name in order:
        if name in blocked:
            results[name] = {"status": "skipped", "records": [],
                             "reason": blocked[name]}
            continue
        try:
            records = _SUITE_FUNCS[name](s, config, conventions)
            failed = any(r.kind == "check" and r.passed is False
                         for r in records)
            results[name] = {"status": "fail" if failed else "pass",
                             "records": records}
        except Exception as exc:
            results[name] = {"status": "errored", "records": [],
                             "reason": f"{type(exc).__name__}: {exc}"}

        status, reason = results[name]["status"], None
        if name in _FOUNDATIONS and status in ("fail", "errored"):
            reason = _FOUNDATIONS[name]
        elif name == "curvature":
            gate = next((r for r in results[name]["records"]
                         if r.id == "curvature.oracle_gate"), None)
            if gate is None or gate.passed is not True:
                reason = ("the curvature suite errored" if status == "errored"
                          else "the curvature oracle gate did not pass")
        if reason:  # an earlier reason takes precedence
            for later in order[order.index(name) + 1:]:
                blocked.setdefault(later, reason)

    overall = ("pass" if all(b["status"] in ("pass", "skipped")
                             for b in results.values()) else "fail")
    return VerificationReport(schema=SCHEMA, config=config.as_dict(),
                              conventions=conventions, suites=results,
                              overall=overall)


# ============================================================
# output formatting
# ============================================================

def format_text(report: VerificationReport) -> str:
    lines = [f"schema: {report.schema}"]
    cfg = report.config
    lines.append(
        "config: n={n} points={points} seed={seed} tol_first={tol_first:g} "
        "tol_second={tol_second:g} scheme={kind}".format(
            kind=cfg["scheme"]["kind"], **{k: cfg[k] for k in
            ("n", "points", "seed", "tol_first", "tol_second")}))
    lines.append("conventions:")
    for name in sorted(report.conventions):
        c = report.conventions[name]
        lines.append(f"  {name} = {c['value']}  (residual {c['residual']:.3e})")
    for suite, body in report.suites.items():
        head = f"suite {suite}: {body['status']}"
        if "reason" in body:
            head += f"  ({body['reason']})"
        lines.append(head)
        for r in body["records"]:
            mark = ("pass" if r.passed else "FAIL") if r.kind == "check" else r.kind
            res = "-" if r.max_residual is None else f"{r.max_residual:.3e}"
            tol = "-" if r.tolerance is None else f"{r.tolerance:.0e}"
            lines.append(f"  [{mark:>7}] {r.id:<34} max {res:>10}  tol {tol}")
    lines.append(f"overall: {report.overall}")
    return "\n".join(lines)


# ============================================================
# command line
# ============================================================

def _build_parser():
    import argparse  # only the command line needs it, not an import of hkc

    p = argparse.ArgumentParser(
        prog="hkc",
        description="verification tools for the adapted connection on the "
                    "total space of the quaternionic sphere fibration")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity suites and emit a report")
    v.add_argument("--n", type=int, default=RunConfig.n)
    v.add_argument("--points", type=int, default=RunConfig.points)
    v.add_argument("--seed", type=int, default=RunConfig.seed)
    v.add_argument("--tol-first", type=float, default=RunConfig.tol_first)
    v.add_argument("--tol-second", type=float, default=RunConfig.tol_second)
    v.add_argument("--scheme", choices=("exact", "fd"), default="exact")
    v.add_argument("--fd-step", type=float, default=CENTRAL_DIFFERENCE.step)
    v.add_argument("--suites", default=None,
                   help="comma-separated subset of: " + ", ".join(SUITE_ORDER))
    v.add_argument("--out", default=None, help="write the report to a file")
    v.add_argument("--format", choices=("json", "text"), default="json",
                   dest="fmt")

    c = sub.add_parser("curvature",
                       help="print the adapted holomorphic plane table")
    c.add_argument("--n", type=int, default=RunConfig.n)
    c.add_argument("--seed", type=int, default=RunConfig.seed)
    c.add_argument("--alpha", type=int, choices=(1, 2, 3), default=1)
    return p


def _resolve_seed(cli_seed):
    env = os.environ.get("HKC_SEED")
    try:
        seed = int(env) if env else cli_seed
    except ValueError:
        raise StructuralError(f"HKC_SEED must be an integer, got {env!r}")
    if seed < 0:
        raise StructuralError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


def _write(path, mode, text=""):
    try:
        with open(path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise StructuralError(f"cannot write the report to {path}: {exc.strerror}")


def _cmd_verify(args) -> int:
    suites = (SUITE_ORDER if args.suites is None  # "" names no suite, as " , " does
              else tuple(t.strip() for t in args.suites.split(",") if t.strip()))
    scheme = (EXACT_FORWARD if args.scheme == "exact"
              else DiffScheme(CENTRAL_DIFFERENCE.kind, step=args.fd_step))
    cfg = RunConfig(n=args.n, points=args.points, seed=_resolve_seed(args.seed),
                    tol_first=args.tol_first, tol_second=args.tol_second,
                    scheme=scheme, suites=suites)
    if args.out:  # fail on an unwritable path before the run, truncating nothing
        _write(args.out, "a")
    report = run_suites(cfg)
    payload = report.to_json() if args.fmt == "json" else format_text(report)
    if args.out:
        _write(args.out, "w", payload + "\n")
        print(f"overall: {report.overall}")
    else:
        print(payload)
    if any(body["status"] == "errored" for body in report.suites.values()):
        return 2
    return 0 if report.overall == "pass" else 1


def _cmd_curvature(args) -> int:
    s = ThreeSasakiStructure(n=args.n)
    rng = _stream(_resolve_seed(args.seed), _CLI_STREAM, 0)
    x = sample_point(s, rng)
    X = sample_unit_H(s, x, rng)
    vals = {a: holomorphic_sectional_bar(s, a, X) for a in (1, 2, 3)}
    total = sum(vals.values())
    print(f"adapted holomorphic plane values at a sampled point (n={args.n}):")
    for a in (1, 2, 3):
        mark = " *" if a == args.alpha else ""
        print(f"  alpha={a}: {vals[a]:+.12f}{mark}")
    ok = all(abs(v - 4.0) <= 1e-6 for v in vals.values())
    ok = ok and abs(total - 12.0) <= 1e-6
    print(f"  sum: {total:+.12f} (expected +12) -> {'ok' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and bad flags
        code = exc.code
        return int(code) if code is not None else 0
    try:
        # an overflowing difference step raises NumericError ahead of the
        # suites (convention resolution); numpy's warnings would repeat it
        with np.errstate(all="ignore"):
            if args.command == "verify":
                return _cmd_verify(args)
            return _cmd_curvature(args)
    except (StructuralError, PreconditionError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
