"""Verification harness and command-line entry point.

Runs the identity suites against a freshly built structure, collects the
residuals into a machine-readable report, and resolves the three sign
conventions empirically before any curvature suite is interpreted.  All
sampling is driven by counter-keyed seed sequences, so a report is a pure
function of its configuration.  Each suite draws all its samples first,
on its own lane, and stacks them; its checks then run once over the
stack (one nested pass per connection and slot pattern for curvature)
and yield one residual per sample row.
"""

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .connections import (
    ConnectionKind,
    VectorField,
    cov_deriv,
    curvature,
    h_form_gap,
    lie_bracket,
    nabla_bar_phi_defect,
    sasaki_defect,
    sphere_curvature_oracle,
    torsion,
)
from .curvature import (
    cor_xxx_data,
    cross_check_rbar,
    holomorphic_sectional_bar,
    ricci,
    sec_rela_data,
    sectional,
    theorem_sec_data,
    two_route_gap_form,
    verify_symmetries,
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
    norm,
)
from .records import SCHEMA, VerificationReport, build_records
from .sphere3s import (
    EVEN_PERMUTATIONS,
    SpherePoint,
    TangentVector,
    ThreeSasakiStructure,
)

LC = ConnectionKind.LEVI_CIVITA
HC = ConnectionKind.H_CONNECTION

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
        if int(self.n) != self.n or self.n < 0:
            raise StructuralError(f"n must be a non-negative integer, got {self.n!r}")
        if int(self.points) != self.points or self.points < 1:
            raise StructuralError(f"points must be a positive integer, got {self.points!r}")
        if int(self.seed) != self.seed or self.seed < 0:
            raise StructuralError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not (0.0 < self.tol_first <= self.tol_second):
            raise StructuralError(
                f"tolerances must satisfy 0 < tol_first <= tol_second, got "
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

def _stream(seed, lane, index):
    """Independent generator keyed by (seed, lane, index); the lane is a
    suite position or a reserved constant, so no two records share draws."""
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(int(lane), int(index))))


def _suite_stream(cfg, suite, index):
    return _stream(cfg.seed, SUITE_ORDER.index(suite), index)


def _draw_unit(structure, rng, project, make, what):
    """``make(w / |w|)`` for the first of ten Gaussian draws whose
    projection ``w`` is not too short."""
    for _ in range(10):
        w = project(rng.standard_normal(structure.ambient_dim))
        nw = norm(w)
        if nw > 1e-6:
            return make(w / nw)
    raise PreconditionError(f"could not draw a usable {what} direction")


def sample_point(structure, rng):
    return _draw_unit(structure, rng, lambda v: v, SpherePoint.normalized,
                      "ambient")


def sample_unit_tangent(structure, x, rng):
    return _draw_unit(structure, rng,
                      lambda w: structure.tangent_project_raw(w, x.x),
                      lambda w: TangentVector(x, w), "tangent")


def sample_unit_H(structure, x, rng):
    if structure.h_dim == 0:
        raise PreconditionError(
            "the distribution H is zero-dimensional for n = 0; "
            "no unit direction can be drawn from it")
    return _draw_unit(structure, rng, lambda w: structure.project_h_raw(w, x.x),
                      lambda w: TangentVector(x, w), "distribution")


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
    Xf = _ext(structure, u)

    # (1) orientation of the Reeb first-derivative law
    d_xi = cov_deriv(LC, Xf, VectorField.reeb(structure, 1), x, scheme)
    phi_u = structure.phi_raw(1, u.v, x.x)
    r_minus = norm(d_xi.v + phi_u)
    r_plus = norm(d_xi.v - phi_u)
    reeb_val = "-1" if r_minus <= r_plus else "+1"

    # (2) sign of the round curvature operator, probed on an orthonormal
    # tangent pair via R(X, Y)Y
    v = sample_unit_tangent(structure, x, rng)
    w = v.v - dot(v.v, u.v) * u.v
    v = TangentVector(x, w / norm(w))
    RXYY = curvature(LC, Xf, _ext(structure, v), _ext(structure, v), x, scheme)
    c_plus = norm(RXYY.v - u.v)
    c_minus = norm(RXYY.v + u.v)
    curv_val = "+1" if c_plus <= c_minus else "-1"

    # (3) plane normalization: the factor for which round planes measure +1
    k = sectional(structure, u, v, scheme)
    p_minus = abs(-k - 1.0)
    p_plus = abs(k - 1.0)
    plane_val = "-1" if p_minus <= p_plus else "+1"

    return {
        "reeb-orientation": {
            "value": reeb_val,
            "residual": float(min(r_minus, r_plus)),
            "meaning": "first derivative of each Reeb field along X equals "
                       "(value) * phi_a X",
        },
        "curvature-sign": {
            "value": curv_val,
            "residual": float(min(c_plus, c_minus)),
            "meaning": "round curvature operator equals (value) * "
                       "(g(Y,Z) X - g(X,Z) Y); the quadrilinear table is "
                       "r(X,Y,Z,W) = g(R(X,Y)W, Z)",
        },
        "plane-normalization": {
            "value": plane_val,
            "residual": float(min(p_minus, p_plus)),
            "meaning": "plane measure = (value) * (-r(X,Y,X,Y)) / gram(X,Y); "
                       "the selected value makes round planes measure +1",
        },
    }


def selected_plane_convention(conventions):
    return int(conventions["plane-normalization"]["value"])


# ============================================================
# suites
# ============================================================

def _samples(cfg, suite, draw):
    """``draw(rng, i)`` for each sample index i, on the suite's lane."""
    return (draw(_suite_stream(cfg, suite, i), i) for i in range(cfg.points))


def _stack(*vectors):
    """One stack of the rows of tangent vectors (each one row or a stack),
    in order, every row at its own base point."""
    x = SpherePoint(np.vstack([V.base.x for V in vectors]))
    return TangentVector(x, np.vstack([V.v for V in vectors]))


def _stacks(rows):
    """Per-sample tuples of tangent vectors, stacked by tuple position."""
    return [_stack(*col) for col in zip(*rows)]


def _draws(s, cfg, suite, tangents, distribution=0):
    """The suite's samples, stacked: at each sample point, ``tangents``
    unit tangent vectors, then ``distribution`` unit vectors of H."""
    def draw(rng, i):
        x = sample_point(s, rng)
        return (*(sample_unit_tangent(s, x, rng) for _ in range(tangents)),
                *(sample_unit_H(s, x, rng) for _ in range(distribution)))

    return _stacks(_samples(cfg, suite, draw))


def _suite_axioms(s, cfg, conventions):
    X, Y = _draws(s, cfg, "axioms", 2)
    return s.check_structure_axioms((X.base, X, Y), tol=cfg.tol_first)


def _suite_sasaki(s, cfg, conventions):
    Xt, Yt = _draws(s, cfg, "sasaki", 2)
    x, X, Y = Xt.base, _ext(s, Xt), _ext(s, Yt)

    def residuals():
        for a in (1, 2, 3):
            yield "sasaki.defect", sasaki_defect(a, X, Y, x, cfg.scheme).norm()
            d = cov_deriv(LC, X, VectorField.reeb(s, a), x, cfg.scheme)
            yield "sasaki.reeb_covariant", norm(d.v + s.phi_raw(a, X(x.x), x.x))
        for (a, b, c) in EVEN_PERMUTATIONS:
            xa, xb = VectorField.reeb(s, a), VectorField.reeb(s, b)
            br = lie_bracket(xa, xb, x, cfg.scheme)
            yield "sasaki.reeb_bracket", norm(br.v - 2.0 * s.reeb_raw(c, x.x))
            rr = cov_deriv(LC, xa, xb, x, cfg.scheme)
            yield "sasaki.reeb_on_reeb", norm(rr.v - s.reeb_raw(c, x.x))
            yield "sasaki.reeb_on_reeb", cov_deriv(LC, xa, xa, x, cfg.scheme).norm()

    return build_records("sasaki", cfg.points, residuals(), {
        "sasaki.defect": cfg.tol_second,
        "sasaki.reeb_covariant": cfg.tol_first,
        "sasaki.reeb_bracket": cfg.tol_first,
        "sasaki.reeb_on_reeb": cfg.tol_first,
        "sasaki.conventions": {
            "kind": "info", "passed": True, "samples": 1, "details": conventions,
            "max_residual": max(v["residual"] for v in conventions.values())},
    })


def _suite_connection(s, cfg, conventions):
    Xt, Zt, Xh_t, Yh_t = _draws(s, cfg, "connection", 2, 2)
    x, X, Z = Xt.base, _ext(s, Xt), _ext(s, Zt)
    # nabla_bar_phi_defect projects its fields onto H itself
    Xh, Yh = _ext(s, Xh_t), _ext(s, Yh_t)

    def residuals():
        yield "connection.two_forms_agree", h_form_gap(X, Z, x, cfg.scheme)

        # metric compatibility of the adapted derivative along itself:
        # differentiate g(X, Z) along X and compare with the product rule
        dg = directional_derivative(lambda y: dot(X(y), Z(y)), x.x, Xt.v,
                                    cfg.scheme)
        XX = cov_deriv(HC, X, X, x, cfg.scheme)
        XZ = cov_deriv(HC, X, Z, x, cfg.scheme)
        yield "connection.metricity", abs(dg - (dot(XX.v, Zt.v)
                                                + dot(Xt.v, XZ.v)))
        dg2 = directional_derivative(lambda y: dot(X(y), X(y)), x.x, Zt.v,
                                     cfg.scheme)
        ZX = cov_deriv(HC, Z, X, x, cfg.scheme)
        yield "connection.metricity", abs(dg2 - 2.0 * dot(ZX.v, Xt.v))

        for a in (1, 2, 3):
            yield "connection.reeb_parallel", cov_deriv(
                HC, X, VectorField.reeb(s, a), x, cfg.scheme).norm()

        dY = cov_deriv(HC, X, Yh.project_H(), x, cfg.scheme)
        for a in (1, 2, 3):
            yield "connection.h_preserved", abs(s.eta_raw(a, dY.v, x.x))

        br = lie_bracket(X, Z, x, cfg.scheme)
        rhs_br = XZ.v - ZX.v
        for a in (1, 2, 3):
            rhs_br = rhs_br - 2.0 * s.omega_raw(a, Xt.v, Zt.v, x.x) * s.reeb_raw(a, x.x)
        yield "connection.bracket3", norm(br.v - rhs_br)

        for a in (1, 2, 3):
            yield "connection.phi_parallel", nabla_bar_phi_defect(
                a, Xh, Yh, x, cfg.scheme).norm()

        # the comparison table h_aa = 0, h_ab = phi_c = -h_ba for even
        # (a, b, c) is exact for any tangent argument
        for a in (1, 2, 3):
            yield "connection.h_tensor_table", s.h_tensor(
                a, a, Xt, cfg.scheme).norm()
        for (a, b, c) in EVEN_PERMUTATIONS:
            phi_c = s.phi_raw(c, Xt.v, x.x)
            yield "connection.h_tensor_table", norm(
                s.h_tensor(a, b, Xt, cfg.scheme).v - phi_c)
            yield "connection.h_tensor_table", norm(
                s.h_tensor(b, a, Xt, cfg.scheme).v + phi_c)

    return build_records("connection", cfg.points, residuals(), {
        "connection.two_forms_agree": cfg.tol_first,
        "connection.metricity": cfg.tol_first,
        "connection.reeb_parallel": cfg.tol_first,
        "connection.h_preserved": cfg.tol_first,
        "connection.bracket3": cfg.tol_first,
        "connection.phi_parallel": cfg.tol_second,
        "connection.h_tensor_table": cfg.tol_first,
    })


def _suite_torsion(s, cfg, conventions):
    Xt, Yt, Xh_t, Yh_t = _draws(s, cfg, "torsion", 2, 2)
    x, X, Y = Xt.base, _ext(s, Xt), _ext(s, Yt)
    Xh, Yh = _ext(s, Xh_t).project_H(), _ext(s, Yh_t).project_H()

    def residuals():
        yield "torsion.lc_zero", torsion(LC, X, Y, x, cfg.scheme).norm()

        t = torsion(HC, Xh, Yh, x, cfg.scheme)
        want = np.zeros(s.ambient_dim)
        for a in (1, 2, 3):
            want = want + (2.0 * s.omega_raw(a, Xh_t.v, Yh_t.v, x.x)
                           * s.reeb_raw(a, x.x))
        yield "torsion.h_pair", norm(t.v - want)

        for a in (1, 2, 3):
            yield "torsion.mixed", torsion(
                HC, Xh, VectorField.reeb(s, a), x, cfg.scheme).norm()
        for (a, b, c) in EVEN_PERMUTATIONS:
            tp = torsion(HC, VectorField.reeb(s, a), VectorField.reeb(s, b),
                         x, cfg.scheme)
            yield "torsion.reeb_pair", norm(tp.v + 2.0 * s.reeb_raw(c, x.x))

    return build_records("torsion", cfg.points, residuals(), dict.fromkeys(
        ("torsion.lc_zero", "torsion.h_pair", "torsion.mixed",
         "torsion.reeb_pair"), cfg.tol_first))


def _suite_curvature(s, cfg, conventions):
    Xt, Yt, Zt, *quad = _draws(s, cfg, "curvature", 3, 4)
    x, y = Xt.base, Xt.base.x
    X, Y, Z = (_ext(s, V) for V in (Xt, Yt, Zt))
    xi = {a: VectorField.reeb(s, a) for a in (1, 2, 3)}

    def residuals():
        # one nested pass per connection and slot pattern, over all samples
        oracle = sphere_curvature_oracle(Xt, Yt, Zt)
        yield "curvature.oracle_gate", norm(
            curvature(LC, X, Y, Z, x, cfg.scheme).v - oracle.v)
        for a in (1, 2, 3):
            want = s.eta_raw(a, Yt.v, y) * Xt.v - s.eta_raw(a, Xt.v, y) * Yt.v
            yield "curvature.reeb_curvature_lc", norm(
                curvature(LC, X, Y, xi[a], x, cfg.scheme).v - want)
            yield "curvature.annihilation_last", curvature(
                HC, X, Y, xi[a], x, cfg.scheme).norm()
            yield "curvature.annihilation_middle", curvature(
                HC, X, xi[a], Z, x, cfg.scheme).norm()
        for a, b, c in EVEN_PERMUTATIONS:
            for last in (Z, xi[c]):
                yield "curvature.annihilation_pair", curvature(
                    HC, xi[a], xi[b], last, x, cfg.scheme).norm()

    records = build_records("curvature", cfg.points, residuals(), dict.fromkeys(
        ("curvature.oracle_gate", "curvature.reeb_curvature_lc",
         "curvature.annihilation_last", "curvature.annihilation_middle",
         "curvature.annihilation_pair"), cfg.tol_second))
    return records + verify_symmetries(s, (x, *quad), tol=cfg.tol_second,
                                       scheme=cfg.scheme)


def cross_check_families(s, cfg):
    """The five argument families of the cross-check suite, each a stacked
    (point, X, Y, Z) tuple of ``cfg.points`` rows drawn from the suite's
    own sampling lane: ``pure_h``, ``reeb_last``, ``reeb_pairs``,
    ``single_reeb`` and ``generic``."""
    def draw(rng, i):
        x = sample_point(s, rng)
        Xh = sample_unit_H(s, x, rng)
        Yh = sample_unit_H(s, x, rng)
        Zh = sample_unit_H(s, x, rng)
        xi = lambda c: TangentVector(x, s.reeb_raw(c, x.x))
        a = 1 + (i % 3)
        b = 1 + ((i + 1) % 3)
        pair_tail = xi(1 + ((i + 2) % 3)) if i % 3 == 2 else Zh
        return (Xh, Yh, Zh, xi(a), xi(b), pair_tail,
                *(sample_unit_tangent(s, x, rng) for _ in range(3)))

    Xh, Yh, Zh, xa, xb, tail, *generic = _stacks(
        _samples(cfg, "cross-check", draw))
    x = Xh.base
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
        family = {rid: res for rid, res in worst.items() if rid != "gap"}
        return {**dict.fromkeys(family, cfg.tol_second),
                "cross_check.gap_structure": {
                    "kind": "info", "max_residual": worst["gap"],
                    "tolerance": 1e-9, "samples": 5 * cfg.points,
                    "details": {
                        "family_residuals": {rid.split(".")[1]: float(res)
                                             for rid, res in family.items()},
                        "note": "the difference between the algebraic "
                                "expansion and the differential evaluation "
                                "is reproduced exactly by a closed-form "
                                "tensor built from the Reeb components of "
                                "the arguments; it vanishes when the first "
                                "two arguments lie in H",
                    }}}

    return build_records("cross-check", cfg.points, residuals(), table)


def _suite_ricci(s, cfg, conventions):
    c_lc = float(4 * s.n + 2)
    c_claim = float(4 * s.n + 5)

    Xt, Yt, Xh, Yh = _draws(s, cfg, "ricci", 2, 2)
    lc_diag, lc_off = (ricci(s, LC, Xt, U, cfg.seed, cfg.scheme) for U in (Xt, Yt))
    diag, off = (ricci(s, HC, Xh, U, cfg.seed, cfg.scheme) for U in (Xh, Yh))
    gxy_t, gxy = dot(Xt.v, Yt.v), dot(Xh.v, Yh.v)
    measured = diag[0, 0]  # the adapted trace of the first sample sets the factor

    def residuals():
        yield "ricci.einstein_lc", abs(lc_diag - c_lc)
        yield "ricci.einstein_lc", abs(lc_off - c_lc * gxy_t)
        yield "ricci.h_connection", abs(diag - c_claim)
        yield "ricci.h_connection", abs(off - c_claim * gxy)
        yield "ricci.h_connection_measured", abs(diag - measured)
        yield "ricci.h_connection_measured", abs(off - measured * gxy)

    return build_records("ricci", cfg.points, residuals(), {
        "ricci.einstein_lc": {"tolerance": cfg.tol_second,
                              "details": {"constant": c_lc}},
        "ricci.h_connection": {"tolerance": cfg.tol_second,
                               "details": {"stated_constant": c_claim}},
        "ricci.h_connection_measured": {
            "kind": "info", "tolerance": cfg.tol_second,
            "details": {
                "measured_constant": float(measured),
                "stated_constant": c_claim,
                "note": "the adapted trace on distribution arguments "
                        "is proportional to the metric; the measured "
                        "factor matches 4 n + 8, which exceeds the "
                        "stated constant by 3",
            }},
    })


def _suite_sectional(s, cfg, conventions):
    sel = selected_plane_convention(conventions)
    sel_key = f"{sel:+d}"

    def draw(rng, i):
        x = sample_point(s, rng)
        Xt = sample_unit_tangent(s, x, rng)
        Yt = sample_unit_tangent(s, x, rng)
        if abs(dot(Xt.v, Yt.v)) > 0.999:
            return None
        coeffs = rng.standard_normal(4)
        while abs(coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2]) < 0.1:
            coeffs = rng.standard_normal(4)
        U = TangentVector(x, float(coeffs[0]) * Xt.v + float(coeffs[1]) * Yt.v)
        V = TangentVector(x, float(coeffs[2]) * Xt.v + float(coeffs[3]) * Yt.v)
        return Xt, Yt, U, V, sample_unit_H(s, x, rng)

    conv = {"tolerance": cfg.tol_second,
            "details": {"selected_convention": sel_key}}
    table = {
        "sectional.sphere_constant": conv,
        "sectional.plane_invariance": cfg.tol_second,
        "sectional.sec_rela": conv,
        "sectional.holomorphic_constant": cfg.tol_second,
        "sectional.holomorphic_sum": cfg.tol_second,
        "sectional.tanno_sum": conv,
        "sectional.third_constant": conv,
        "sectional.cor_xxx": cfg.tol_second,
    }
    rows = [d for d in _samples(cfg, "sectional", draw) if d is not None]
    if not rows:
        return build_records("sectional", cfg.points, (), table)
    Xt, Yt, U, V, Xh = _stacks(rows)
    # the two spans of each sample in one round pass, then one
    # sec_rela_data call per structure for the holomorphic and phi_a-plane
    # values of each Xh
    planes = sel * sectional(s, _stack(Xt, U), _stack(Yt, V), cfg.scheme)
    rela = {a: sec_rela_data(s, a, Xh, cfg.scheme) for a in (1, 2, 3)}
    lhs, rhs = cor_xxx_data(s, Xh, cfg.scheme)

    def residuals():
        k, k2 = planes[:len(rows)], planes[len(rows):]
        yield "sectional.sphere_constant", abs(k - 1.0)
        yield "sectional.plane_invariance", abs(k - k2)
        total = tanno = 0.0
        for a in (1, 2, 3):
            r = rela[a]
            ka = r["K"][sel_key]
            total += r["k"]
            tanno += ka
            yield "sectional.holomorphic_constant", abs(r["k"] - 4.0)
            yield "sectional.sec_rela", r["residual"][sel_key]
            yield "sectional.third_constant", abs(ka - 1.0)
        yield "sectional.holomorphic_sum", abs(total - 12.0)
        yield "sectional.tanno_sum", abs(tanno - 3.0)
        yield "sectional.cor_xxx", abs(lhs - rhs)

    return build_records("sectional", cfg.points, residuals(), table)


def _suite_theorem_sec(s, cfg, conventions):
    sel = selected_plane_convention(conventions)
    combo_sel = f"{sel:+d}/{sel:+d}"
    alpha, axis = 1, 2

    def draw(rng, i):
        # the H case, the five sweep angles and the Reeb axis; the sweep
        # and the axis draw at sample indices 1000 + i and 2000 + i
        x = sample_point(s, rng)
        h_case = sample_unit_H(s, x, rng)
        rng = _suite_stream(cfg, "theorem-sec", 1000 + i)
        x = sample_point(s, rng)
        u = sample_unit_H(s, x, rng)
        sweep = []
        for _, theta in _SWEEP_ANGLES:
            co, si = float(np.cos(theta)), float(np.sin(theta))
            X = co * u.v + si * s.reeb_raw(axis, x.x)
            sweep.append(TangentVector(x, X / norm(X)))
        x = sample_point(s, _suite_stream(cfg, "theorem-sec", 2000 + i))
        return h_case, *sweep, TangentVector(x, s.reeb_raw(axis, x.x))

    # all seven directions of every sample in one stack: rows k*P ..
    # (k+1)*P - 1 are direction k
    data = theorem_sec_data(
        s, alpha, _stack(*_stacks(_samples(cfg, "theorem-sec", draw))),
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
            "theorem_sec.h_case": {
                "tolerance": cfg.tol_second,
                "details": {"convention_combination": combo_sel}},
            "theorem_sec.sweep": {
                "kind": "finding", "tolerance": cfg.tol_second,
                "passed": all(m <= cfg.tol_second for m in least),
                "max_residual": max(least), "samples": 5 * cfg.points,
                "details": {
                    "angles": list(sweep),
                    "residuals": sweep,
                    "best_combination": {label: min(row, key=row.get)
                                         for label, row in sweep.items()},
                    "note": "for mixed directions the measured plane "
                            "value follows 4 - 8 sin^2 t + 4 sin^4 t "
                            "under the selected convention, while the "
                            "prediction carries a 6 sin^4 t quartic "
                            "term; no convention combination closes "
                            "the gap away from the endpoints",
                }},
            "theorem_sec.reeb_case": {
                "kind": "finding", "tolerance": cfg.tol_second,
                "details": {
                    "convention_combination": "+1/+1",
                    "note": "along a pure Reeb axis the two sides agree "
                            "only when both plane measures are taken "
                            "with the unflipped factor",
                }},
        }

    return build_records("theorem-sec", cfg.points, residuals(), table)


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
_ORACLE_GATED = ("cross-check", "ricci", "sectional", "theorem-sec")


# ============================================================
# runner
# ============================================================

def run_suites(config: RunConfig, structure=None) -> VerificationReport:
    """Execute the requested suites and assemble the report.

    A failing foundation gates everything it supports: broken axioms skip
    all later suites, a broken first-derivative layer skips the
    connection layer onward, and a failing curvature oracle gate skips
    every suite that interprets second derivatives.
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

        status = results[name]["status"]
        if name in _FOUNDATIONS and status in ("fail", "errored"):
            for later in order[order.index(name) + 1:]:
                blocked.setdefault(later, _FOUNDATIONS[name])
        if name == "curvature":
            gate = next((r for r in results[name]["records"]
                         if r.id == "curvature.oracle_gate"), None)
            if gate is None or gate.passed is not True:
                reason = ("the curvature suite errored" if status == "errored"
                          else "the curvature oracle gate did not pass")
                for later in _ORACLE_GATED:
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
    p = argparse.ArgumentParser(
        prog="hkc",
        description="verification tools for the adapted connection on the "
                    "total space of the quaternionic sphere fibration")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run identity suites and emit a report")
    v.add_argument("--n", type=int, default=1)
    v.add_argument("--points", type=int, default=25)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--tol-first", type=float, default=1e-9)
    v.add_argument("--tol-second", type=float, default=1e-7)
    v.add_argument("--scheme", choices=("exact", "fd"), default="exact")
    v.add_argument("--fd-step", type=float, default=1e-5)
    v.add_argument("--suites", default=None,
                   help="comma-separated subset of: " + ", ".join(SUITE_ORDER))
    v.add_argument("--out", default=None, help="write the report to a file")
    v.add_argument("--format", choices=("json", "text"), default="json",
                   dest="fmt")

    c = sub.add_parser("curvature",
                       help="print the adapted holomorphic plane table")
    c.add_argument("--n", type=int, default=1)
    c.add_argument("--seed", type=int, default=0)
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


def _cmd_verify(args) -> int:
    suites = (tuple(t.strip() for t in args.suites.split(",") if t.strip())
              if args.suites else SUITE_ORDER)
    scheme = (EXACT_FORWARD if args.scheme == "exact"
              else DiffScheme(CENTRAL_DIFFERENCE.kind, step=args.fd_step))
    cfg = RunConfig(n=args.n, points=args.points, seed=_resolve_seed(args.seed),
                    tol_first=args.tol_first, tol_second=args.tol_second,
                    scheme=scheme, suites=suites)
    report = run_suites(cfg)
    payload = report.to_json() if args.fmt == "json" else format_text(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
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
