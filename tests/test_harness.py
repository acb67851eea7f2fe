import io
import json
import os
import subprocess
import sys
import contextlib
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from hkc import connections, harness, numlin, sphere3s
from hkc.connections import ConnectionKind
from hkc.curvature import verify_symmetries
from hkc.harness import (
    SUITE_ORDER,
    RunConfig,
    cross_check_families,
    format_text,
    main,
    resolve_conventions,
    run_suites,
    sample_point,
    sample_unit_H,
    sample_unit_tangent,
    _draws,
    _sectional_draws,
    _stream,
    _theorem_sec_directions,
    _units,
)
from hkc.numlin import (
    CENTRAL_DIFFERENCE,
    DiffScheme,
    PreconditionError,
    StructuralError,
    norm,
)
from hkc.records import IDENTITY_REGISTRY, build_records, canonical_json, registry_gaps
from hkc.sphere3s import SpherePoint, ThreeSasakiStructure

from conftest import rotated, stack_rows

LC = ConnectionKind.LEVI_CIVITA
HC = ConnectionKind.H_CONNECTION


@pytest.fixture(scope="module")
def small_report(struct):
    return run_suites(RunConfig(points=4))


def _broken(n=1):
    I1, I2, I3 = ThreeSasakiStructure(n=n).triple
    return ThreeSasakiStructure(n=n, triple=(I1, -I2, I3))


def _capture(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


# ============================================================
# configuration
# ============================================================

def test_config_defaults_and_echo():
    cfg = RunConfig()
    d = cfg.as_dict()
    assert d["n"] == 1 and d["points"] == 25 and d["seed"] == 0
    assert d["scheme"] == {"kind": "exact-forward", "step": 1e-5}
    assert tuple(d["suites"]) == SUITE_ORDER


def test_config_validation():
    with pytest.raises(StructuralError):
        RunConfig(points=0)
    with pytest.raises(StructuralError):
        RunConfig(tol_first=1e-6, tol_second=1e-8)
    with pytest.raises(StructuralError):
        RunConfig(seed=-3)
    with pytest.raises(StructuralError):
        RunConfig(suites=("axioms", "nonsense"))
    with pytest.raises(StructuralError):
        RunConfig(suites=())
    with pytest.raises(StructuralError):
        RunConfig(n=-1)
    with pytest.raises(StructuralError, match="scheme must be a DiffScheme"):
        RunConfig(scheme="exact")
    # counts are ints or numpy integers: points=3.0 would error every suite
    for name in ("n", "points", "seed"):
        for bad in (3.0, 1.5, np.float64(2), True, "3"):
            with pytest.raises(StructuralError, match=f"{name} must be"):
                RunConfig(**{name: bad})
        assert getattr(RunConfig(**{name: np.int64(2)}), name) == 2
    # an infinite or undefined tolerance would pass every residual
    for tols in ((1e-9, np.inf), (np.inf, np.inf), (np.nan, 1e-7), (1e-9, np.nan)):
        with pytest.raises(StructuralError):
            RunConfig(tol_first=tols[0], tol_second=tols[1])


def test_resolve_conventions_takes_its_seed_under_the_config_rule():
    # -1 reached numpy's SeedSequence (ValueError) and 1.5 ran as seed 1
    s = ThreeSasakiStructure(n=1)
    for bad in (-1, 1.5, np.float64(2), True):
        with pytest.raises(StructuralError, match="seed must be a non-negative integer"):
            resolve_conventions(s, bad)
    assert resolve_conventions(s, np.int64(1)) == resolve_conventions(s, 1)


def test_config_run_order_follows_suite_order():
    cfg = RunConfig(suites=("ricci", "axioms"))
    assert cfg.run_order() == ("axioms", "ricci")


# ============================================================
# sampling
# ============================================================

def test_samplers_contract(struct):
    rng = _stream(3, 50, 0)
    x = sample_point(struct, rng)
    assert abs(np.linalg.norm(x.x) - 1.0) < 1e-12
    t = sample_unit_tangent(struct, x, rng)
    assert abs(t.norm() - 1.0) < 1e-12
    assert abs(float(np.dot(t.v, x.x))) < 1e-12
    h = sample_unit_H(struct, x, rng)
    assert abs(h.norm() - 1.0) < 1e-12
    for a in (1, 2, 3):
        assert abs(struct.eta_raw(a, h.v, x.x)) < 1e-12


def test_sampler_determinism(struct):
    a = sample_point(struct, _stream(9, 1, 4))
    b = sample_point(struct, _stream(9, 1, 4))
    c = sample_point(struct, _stream(9, 1, 5))
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)


def test_sampler_isotropy(struct):
    rng = _stream(0, 60, 0)
    x = sample_point(struct, rng)
    mean = np.zeros(struct.ambient_dim)
    for _ in range(1000):
        mean += sample_unit_H(struct, x, rng).v
    assert np.linalg.norm(mean / 1000.0) < 0.2


def test_sample_unit_h_rejects_trivial_distribution():
    s = ThreeSasakiStructure(n=0)
    rng = _stream(0, 61, 0)
    x = sample_point(s, rng)
    with pytest.raises(PreconditionError):
        sample_unit_H(s, x, rng)


# ---------------- block drawing against one-row draws ----------------
#
# The references below walk a lane's block one sample and one row at a
# time, in the order a one-row sampler draws them, each row used as
# drawn, and take the sectional lane's new coefficients from its
# reserve; the samplers must give every row with the same bits.

def _lane_key(cfg, suite, sub=0):
    return cfg.seed, SUITE_ORDER.index(suite), sub


def _unit_row(w):
    """A projected raw row over its length."""
    return w / norm(w)


def _one_row(s, rng, kinds):
    """A point (normalised once more, as ``SpherePoint.normalized``
    does), then a unit vector at it per letter of ``kinds`` (t: tangent,
    h: in H), drawn one row at a time; as plain rows."""
    d = s.ambient_dim
    x = SpherePoint.normalized(_unit_row(rng.standard_normal(d))).x
    project = {"t": s.tangent_project_raw, "h": s.project_h_raw}
    return [x, *(_unit_row(project[k](rng.standard_normal(d), x)) for k in kinds)]


def _lane_rows(s, cfg, suite, kinds, sub=0):
    rng = harness._stream(*_lane_key(cfg, suite, sub))
    return [_one_row(s, rng, kinds) for _ in range(cfg.points)]


def _sectional_rows(s, cfg):
    key = _lane_key(cfg, "sectional")
    rng, reserve = harness._stream(*key), harness._stream(*key, 1)
    rows = []
    for _ in range(cfg.points):
        x, X, Y = _one_row(s, rng, "tt")
        c, h = rng.standard_normal(4), rng.standard_normal(s.ambient_dim)
        if abs(float(np.dot(X, Y))) > 0.999:
            continue
        while abs(c[0] * c[3] - c[1] * c[2]) < 0.1:
            c = reserve.standard_normal(4)
        rows.append((X, Y, float(c[0]) * X + float(c[1]) * Y,
                     float(c[2]) * X + float(c[3]) * Y,
                     _unit_row(s.project_h_raw(h, x))))
    return rows


def _theorem_sec_rows(s, cfg, axis=2):
    """Direction-major rows (seven directions, then the sample)."""
    rows = []
    for (_, h_case), (x, u), (reeb_x,) in zip(
            *(_lane_rows(s, cfg, "theorem-sec", kinds, sub)
              for sub, kinds in enumerate(("h", "h", "")))):
        sweep = [np.cos(t) * u + np.sin(t) * s.reeb_raw(axis, x)
                 for _, t in harness._SWEEP_ANGLES]
        rows.append([h_case, *(X / np.linalg.norm(X) for X in sweep),
                     s.reeb_raw(axis, reeb_x)])
    return [r for direction in zip(*rows) for r in direction]


def _cross_check_rows(s, cfg):
    rows = {name: [] for name in ("pure_h", "reeb_last", "reeb_pairs",
                                  "single_reeb", "generic")}
    for i, (x, Xh, Yh, Zh, *generic) in enumerate(
            _lane_rows(s, cfg, "cross-check", "hhhttt")):
        xa, xb = (s.reeb_raw(1 + (i + k) % 3, x) for k in (0, 1))
        tail = s.reeb_raw(1 + (i + 2) % 3, x) if i % 3 == 2 else Zh
        for name, row in (("pure_h", (x, Xh, Yh, Zh)),
                          ("reeb_last", (x, Xh, Yh, xa)),
                          ("reeb_pairs", (x, xa, xb, tail)),
                          ("single_reeb", (x, Xh, xa, Zh)),
                          ("generic", (x, *generic))):
            rows[name].append(row)
    return rows


def _rows_of(values):
    return [V.x if isinstance(V, SpherePoint) else V.v for V in values]


def _assert_same_rows(stacks, rows):
    """Stack k holds row k of every sample, bit for bit."""
    assert len(stacks) == len(rows[0])
    for k, stack in enumerate(_rows_of(stacks)):
        assert stack.shape == (len(rows), len(rows[0][k]))
        for i, row in enumerate(rows):
            assert np.array_equal(stack[i], row[k]), (k, i)


# the lanes and row kinds of the suites that draw through ``_draws``
_DRAWN = (("axioms", "tt"), ("sasaki", "tt"), ("connection", "tthh"),
          ("torsion", "tthh"), ("curvature", "ttthhhh"), ("ricci", "tthh"))


@pytest.mark.parametrize("n", [1, 2, 16])
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_stacked_samplers_match_one_row_draws(n, seed):
    s = ThreeSasakiStructure(n=n)
    cfg = RunConfig(n=n, points=5, seed=seed)
    for suite, kinds in _DRAWN:
        _assert_same_rows(_draws(s, cfg, suite, kinds),
                          _lane_rows(s, cfg, suite, kinds))

    families = cross_check_families(s, cfg)
    for name, rows in _cross_check_rows(s, cfg).items():
        _assert_same_rows(families[name], rows)

    rows = _sectional_rows(s, cfg)
    _assert_same_rows(_sectional_draws(s, cfg), rows)

    directions = _theorem_sec_directions(s, cfg, 2)
    assert np.array_equal(directions.v, np.array(_theorem_sec_rows(s, cfg)))


class _Forced:
    """A generator whose normals, counted over all its calls whatever
    their sizes, are those of ``rng``, except that the normals from
    number ``at`` on are ``overrides[at](normals drawn before)``."""

    def __init__(self, rng, overrides):
        self.rng, self.overrides, self.drawn = rng, overrides, np.empty(0)

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        start = len(self.drawn)
        self.drawn = np.concatenate([self.drawn, np.ravel(out)])
        for at, override in self.overrides.items():
            if start <= at < len(self.drawn):
                new = override(self.drawn[:at])
                assert at + len(new) <= len(self.drawn), "spans two calls"
                self.drawn[at:at + len(new)] = new
        return self.drawn[start:].reshape(np.shape(out))


def _force(monkeypatch, overrides):
    """Every stream made from now on, by its key (seed first), forced at
    ``overrides[key]`` if given; returns that map of the streams made."""
    real, made = harness._stream, {}

    def stream(*key):
        made[key] = _Forced(real(*key), overrides.get(key, {}))
        return made[key]

    monkeypatch.setattr(harness, "_stream", stream)
    return made


def _row_at(cfg, suite, sample, row, width, d):
    """The number of the first normal of a row (of ``d`` normals) of a
    lane's block of ``width`` normals per sample, and the lane's key."""
    return _lane_key(cfg, suite), sample * width + row * d


def _radial(cfg, suite, sample, at, width, d):
    """Overrides making the ``d`` normals from number ``at`` within a
    sample's block twice its point row: its projection onto T_x or H is
    rounding noise."""
    key, first = _row_at(cfg, suite, sample, 0, width, d)
    return key, {first + at: lambda drawn: 2.0 * drawn[first:first + d]}


_SHORT = "could not draw a usable sample row"


@pytest.mark.parametrize("suite, kinds", [*_DRAWN, ("cross-check", "hhhttt")])
def test_short_projection_raises_without_a_reserve(monkeypatch, suite, kinds):
    # the first vector row of sample 1 is radial: the lane uses it as
    # drawn and raises, making no reserve
    s = ThreeSasakiStructure(n=1)
    cfg = RunConfig(points=3, seed=4)
    d, width = s.ambient_dim, (1 + len(kinds)) * s.ambient_dim
    key, forced = _radial(cfg, suite, 1, d, width, d)
    made = _force(monkeypatch, {key: forced})
    with pytest.raises(PreconditionError, match=_SHORT):
        _draws(s, cfg, suite, kinds)
    assert set(made) == {key}


def _coefficients_at(cfg, sample, d, value):
    key, at = _row_at(cfg, "sectional", sample, 3, 4 * d + 4, d)
    return key, at, lambda drawn: value


@pytest.mark.parametrize("row", ["X", "H"])
def test_short_sectional_row_raises_without_a_reserve(monkeypatch, row):
    # sample 1's X row or H row is radial; sample 0's coefficients are
    # degenerate, yet the short row raises before any is drawn again
    s = ThreeSasakiStructure(n=1)
    cfg = RunConfig(points=3, seed=4)
    d = s.ambient_dim
    key, forced = _radial(cfg, "sectional", 1, {"X": d, "H": 3 * d + 4}[row],
                          4 * d + 4, d)
    _, at, zeros = _coefficients_at(cfg, 0, d, np.zeros(4))
    made = _force(monkeypatch, {key: {**forced, at: zeros}})
    with pytest.raises(PreconditionError, match=_SHORT):
        _sectional_draws(s, cfg)
    assert set(made) == {key}


def test_one_row_samplers_use_their_row_as_drawn(struct):
    # a zero point row, or a radial vector row, raises after one draw
    d = struct.ambient_dim
    x = sample_point(struct, _stream(0, 1, 0))
    for draw, row in ((lambda rng: sample_point(struct, rng), np.zeros(d)),
                      (lambda rng: sample_unit_tangent(struct, x, rng), 2.0 * x.x),
                      (lambda rng: sample_unit_H(struct, x, rng), 2.0 * x.x)):
        rng = _Forced(_stream(0, 1, 0), {0: lambda drawn, row=row: row})
        with pytest.raises(PreconditionError, match=_SHORT):
            draw(rng)
        assert len(rng.drawn) == d


def test_sectional_rejection_and_coefficient_redraw(monkeypatch):
    # sample 1 draws Y parallel to X and is dropped; sample 2's
    # coefficients are degenerate, and so are the reserve's first, so
    # they are drawn again twice.  The dropped sample's coefficients are
    # degenerate too, and draw nothing
    s = ThreeSasakiStructure(n=1)
    cfg = RunConfig(points=4, seed=2)
    d, width = s.ambient_dim, 4 * s.ambient_dim + 4
    key, at_y = _row_at(cfg, "sectional", 1, 2, width, d)
    forced = {at_y: lambda drawn: drawn[at_y - d:at_y]}
    for sample in (1, 2):
        _, at, zeros = _coefficients_at(cfg, sample, d, np.zeros(4))
        forced[at] = zeros
    made = _force(monkeypatch, {key: forced, (*key, 1): {0: lambda drawn: np.zeros(4)}})
    drawn = _sectional_draws(s, cfg)
    assert len(made[(*key, 1)].drawn) == 8
    rows = _sectional_rows(s, cfg)
    assert len(rows) == 3
    _assert_same_rows(drawn, rows)


def test_sectional_draws_nothing_after_a_dropped_sample(monkeypatch):
    # at n = 0 the unit vector of H cannot be drawn; a sample dropped as
    # near-parallel never asks for it, so all-dropped is no error
    s = ThreeSasakiStructure(n=0)
    cfg = RunConfig(n=0, points=2, seed=3)
    d, width = s.ambient_dim, 4 * s.ambient_dim + 4
    parallel = {}
    for sample in (0, 1):  # Y's raw row is X's
        key, at = _row_at(cfg, "sectional", sample, 2, width, d)
        parallel[at] = lambda drawn, at=at: drawn[at - d:at]
    _force(monkeypatch, {key: parallel})
    assert _sectional_draws(s, cfg) is None
    monkeypatch.undo()
    del parallel[at]  # sample 1 is kept
    _force(monkeypatch, {key: parallel})
    with pytest.raises(PreconditionError, match="zero-dimensional"):
        _sectional_draws(s, cfg)


@pytest.mark.parametrize("dropped", [(1,), (0, 1, 2)])
def test_sectional_records_count_the_samples_they_checked(monkeypatch, dropped):
    # a sample whose Y is drawn parallel to X is dropped, and not counted;
    # with every sample dropped all eight records remain, in registry order
    cfg = RunConfig(points=3, seed=2, suites=("sectional",))
    d = ThreeSasakiStructure(n=1).ambient_dim
    parallel = {}
    for sample in dropped:  # Y's raw row is X's
        key, at = _row_at(cfg, "sectional", sample, 2, 4 * d + 4, d)
        parallel[at] = lambda drawn, at=at: drawn[at - d:at]
    _force(monkeypatch, {key: parallel})
    recs = run_suites(cfg).suites["sectional"]["records"]
    assert [r.id for r in recs] == [rid for rid in IDENTITY_REGISTRY
                                    if rid.startswith("sectional.")]
    assert {r.samples for r in recs} == {3 - len(dropped)}


def _drawing_paths(s, cfg):
    """Every drawing path, as stacks of rows whose axis 0 runs over the
    samples (theorem-sec: one stack per direction)."""
    out = [V for suite, kinds in _DRAWN for V in _draws(s, cfg, suite, kinds)]
    out += [V for family in cross_check_families(s, cfg).values() for V in family]
    out += list(_sectional_draws(s, cfg))
    directions = _theorem_sec_directions(s, cfg, 2).v
    return [_rows_of(out), np.split(directions, 7)]


@pytest.mark.parametrize("n", [1, 16])
def test_first_samples_do_not_depend_on_the_number_of_points(monkeypatch, n):
    # sample p's rows, reserve rows included, are a function of (seed,
    # lane, p): the first P samples of a run at P + 3 points are those of
    # a run at P points.  Sectional samples 1 (inside P = 3) and 4 (beyond
    # it) draw degenerate coefficients; served in sample order, the
    # reserve gives sample 1 the same new ones in both runs
    s = ThreeSasakiStructure(n=n)
    d = s.ambient_dim
    forced = {}
    for sample in (1, 4):
        key, at, zeros = _coefficients_at(RunConfig(), sample, d, np.zeros(4))
        forced[at] = zeros
    made = _force(monkeypatch, {key: forced})
    small = _drawing_paths(s, RunConfig(n=n, points=3))
    assert len(made[(*key, 1)].drawn) == 4
    large = _drawing_paths(s, RunConfig(n=n, points=6))
    assert len(made[(*key, 1)].drawn) == 8
    assert [k for k in made if len(k) == 4] == [(*key, 1)]
    for a, b in zip(small, large):
        for stack_a, stack_b in zip(a, b):
            assert np.array_equal(stack_a, stack_b[:len(stack_a)])


def test_theorem_sec_families_never_share_a_point():
    # the H case, the sweep and the axis each draw on a sub-lane of their
    # own, so no sample count makes them overlap (lane indices p, 1000 + p
    # and 2000 + p did from 1001 points on)
    s = ThreeSasakiStructure(n=1)
    cfg = RunConfig(points=1001)
    x = _theorem_sec_directions(s, cfg, 2).base.x
    h_case, sweep, axis = (x[k * cfg.points:(k + 1) * cfg.points] for k in (0, 1, 6))
    points = np.concatenate([h_case, sweep, axis])
    assert len(np.unique(points, axis=0)) == 3 * cfg.points


def test_h_samplers_reject_n0_with_one_message():
    s = ThreeSasakiStructure(n=0)
    cfg = RunConfig(n=0, points=3, seed=1)
    message = ("the distribution H is zero-dimensional for n = 0; "
               "no unit direction can be drawn from it")
    for draw in (lambda: _draws(s, cfg, "connection", "tthh"),
                 lambda: cross_check_families(s, cfg),
                 lambda: _sectional_draws(s, cfg),
                 lambda: _theorem_sec_directions(s, cfg, 2),
                 lambda: sample_unit_H(s, sample_point(s, _stream(0, 1, 0)),
                                       _stream(0, 1, 0))):
        with pytest.raises(PreconditionError) as err:
            draw()
        assert str(err.value) == message
    # the tangent samplers still work there
    x, X = _draws(s, cfg, "axioms", "t")
    assert X.v.shape == (3, 4)


@pytest.mark.parametrize("n", [1, 2, 16])
def test_units_of_a_mixed_block_have_the_bits_of_one_call_per_kind(n):
    # the rows of one kind are projected and normalised as one stack: each
    # row position, stacked or one row, has the bytes of a call on it alone
    s = ThreeSasakiStructure(n=n)
    for points in (1, 6):
        w = np.random.default_rng(points + n).standard_normal((points, 5, s.ambient_dim))
        got = _units(s, w, "ptthh")
        x, = _units(s, w[:, :1], "p")
        want = [x] + [_units(s, w[:, k:k + 1], kind, x)[0]
                      for k, kind in enumerate("tthh", 1)]
        for g, v in zip(got, want):
            assert g.shape == v.shape == (points, s.ambient_dim)
            assert g.tobytes() == v.tobytes()
    with pytest.raises(PreconditionError) as err:
        _units(ThreeSasakiStructure(n=0), w[:, :, :4], "ptthh")
    assert str(err.value) == ("the distribution H is zero-dimensional for n = 0; "
                              "no unit direction can be drawn from it")


def test_one_row_sampler_calls_do_not_grow_with_points(monkeypatch):
    # the suites and the convention resolution draw their samples as
    # blocks: a run calls no one-row sampler.  A run makes one generator
    # per lane: nine suites, two more theorem-sec sub-lanes and the
    # convention lane, all keyed apart, and a reserve only for the
    # sectional lane, where it redraws coefficients
    calls = {}
    for name in ("sample_point", "sample_unit_tangent", "sample_unit_H"):
        real = getattr(harness, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] = calls.get(_name, 0) + 1
            return _real(*args)

        monkeypatch.setattr(harness, name, counted)
    real_stream, keys = harness._stream, []
    monkeypatch.setattr(harness, "_stream",
                        lambda *key: keys.append(key) or real_stream(*key))
    lanes, reserves = [], []
    for points in (2, 50):
        calls.clear()
        keys.clear()
        run_suites(RunConfig(points=points))
        assert calls == {}, points
        assert len(set(keys)) == len(keys)
        lanes.append(sorted(key for key in keys if len(key) == 3))
        reserves.append([key for key in keys if len(key) == 4])
    assert lanes[0] == lanes[1] and len(lanes[0]) == 12
    # at 50 points some sectional samples draw degenerate coefficients
    # (about one in ten) and take new ones from the lane's reserve
    sectional = (0, SUITE_ORDER.index("sectional"), 0)
    assert reserves == [[], [(*sectional, 1)]] and sectional in lanes[0]


def test_a_verify_run_makes_no_one_row_point(monkeypatch):
    # every point a run or ``hkc curvature`` makes is a stack: their
    # samples are drawn as blocks, one sample a stack of one, so no typed
    # call lifts a row
    made, init = [], SpherePoint.__init__

    def recorded(self, x):
        init(self, x)
        made.append(self.x.ndim)

    monkeypatch.setattr(SpherePoint, "__init__", recorded)
    run_suites(RunConfig(points=2))
    assert made and set(made) == {2}
    made.clear()
    assert _capture(["curvature", "--n", "1"])[0] == 0
    assert made and set(made) == {2}


# ============================================================
# convention resolution
# ============================================================

def test_resolved_conventions(struct):
    conv = resolve_conventions(struct, seed=0)
    assert conv["reeb-orientation"]["value"] == "-1"
    assert conv["curvature-sign"]["value"] == "+1"
    assert conv["plane-normalization"]["value"] == "-1"
    for entry in conv.values():
        assert entry["residual"] < 1e-12
        assert entry["meaning"]


# ============================================================
# full runs
# ============================================================

def test_full_run_statuses(small_report):
    rep = small_report
    assert rep.overall == "fail"  # two honest discrepancies, by design
    status = {name: body["status"] for name, body in rep.suites.items()}
    assert status == {
        "axioms": "pass", "sasaki": "pass", "connection": "pass",
        "torsion": "pass", "curvature": "pass", "cross-check": "fail",
        "ricci": "fail", "sectional": "pass", "theorem-sec": "pass",
    }


def test_full_run_covers_registry(small_report):
    assert registry_gaps(small_report) == []


def test_every_yielded_key_names_a_record_of_its_suite(monkeypatch):
    # a key is a registry id of its suite: a misspelt id cannot leave its
    # record at 0.0, and no table reads a key of its own
    yielded = {}

    def spy(suite, samples, pairs, tol, table=None):
        pairs = list(pairs)
        yielded[suite] = {key for key, _ in pairs}
        return build_records(suite, samples, pairs, tol, table)

    for module in (harness, sphere3s):
        monkeypatch.setattr(module, "build_records", spy)
    run_suites(RunConfig())
    assert list(yielded) == list(SUITE_ORDER)
    for suite, keys in yielded.items():
        prefix = suite.replace("-", "_") + "."
        assert keys <= {rid for rid in IDENTITY_REGISTRY if rid.startswith(prefix)}, suite


@pytest.mark.parametrize("cfg, make", [
    (RunConfig(), None),
    (RunConfig(scheme=DiffScheme("central-difference", 1e-4)), None),
    (RunConfig(), _broken),
    (RunConfig(), lambda: ThreeSasakiStructure(n=1, sign=+1)),
    (RunConfig(n=0), None),
], ids=["default", "fd1e-4", "broken-i2", "sign-plus", "n0"])
def test_every_record_is_judged_by_build_records_alone(monkeypatch, cfg, make):
    # a suite table gives a record its samples and details only; its kind
    # comes from the registry, and its worst residual and verdict from
    # build_records: passed is max_residual <= tolerance, so NaN fails
    tables = []

    def spy(suite, samples, pairs, tol, table=None):
        tables.append((suite, table or {}))
        return build_records(suite, samples, pairs, tol, table)

    for module in (harness, sphere3s):
        monkeypatch.setattr(module, "build_records", spy)
    report = run_suites(cfg, structure=make and make())
    assert tables
    for suite, table in tables:
        for rid, fields in table.items():
            assert set(fields) <= {"samples", "details"}, (suite, rid)
    for r in report.iter_records():
        assert r.kind == IDENTITY_REGISTRY[r.id][2], r.id
        tol = np.inf if r.tolerance is None else r.tolerance
        assert r.passed is bool(r.max_residual <= tol), r.id


@pytest.mark.parametrize("suite, key", [
    ("torsion", "torsion.lc_zer0"),  # misspelt
    ("torsion", "connection.metricity"),  # another suite's
    ("cross-check", "gap"),
    ("theorem-sec", ("0", "+1/+1")),
], ids=["misspelt", "other-suite", "gap", "sweep-pair"])
def test_a_residual_under_no_record_id_of_its_suite_raises(suite, key):
    # it was dropped without a word, and its record read 0.0 and passed
    with pytest.raises(KeyError, match="no record id"):
        build_records(suite, 3, [(key, 5.0)], (1e-9, 1e-7))


def _residual_arrays(monkeypatch, cfg, budget=None):
    """The report of ``run_suites(cfg)`` under a ``CURVATURE_CHUNK`` of
    ``budget`` floats (None: the default), and the residuals that
    ``build_records`` receives in it, as (suite, key, arrays) in the order
    of the first yield of each key: the j-th array is the j-th residual
    under that key of each sample, one row a sample (a float for a
    residual of the whole run).  A suite that yields row chunk by row chunk
    (the axioms) yields the same m arrays a chunk, so the j-th of a chunk
    is its rows of array j."""
    got = []

    def spy(suite, samples, pairs, tol, table=None):
        pairs, arrays = list(pairs), {}
        for key, v in pairs:
            arrays.setdefault(key, []).append(np.array(v))
        for key, vs in arrays.items():
            m = sum(map(len, vs)) // samples if vs[0].ndim else 1
            got.append((suite, key, [np.concatenate(vs[j::m]) if vs[j].ndim else vs[j]
                                     for j in range(m)]))
        return build_records(suite, samples, pairs, tol, table)

    with monkeypatch.context() as mp:
        for module in (harness, sphere3s):
            mp.setattr(module, "build_records", spy)
        if budget is not None:
            mp.setattr(connections, "CURVATURE_CHUNK", budget)
        return run_suites(cfg), got


@pytest.mark.parametrize("n", [1, 2])
def test_a_run_on_fewer_points_is_a_prefix_of_one_on_more(monkeypatch, n):
    # R1: at 4 points every residual array is the first rows of the one at
    # 13, bit for bit, so no record's worst residual falls as points grow.
    # Sample p's draws do not depend on the number of points; the stacked
    # families of cross-check and theorem-sec (rows k*P .. (k+1)*P - 1,
    # family k) are yielded one family at a time, each in sample order;
    # sectional's rows are its kept samples, and whether a sample is kept,
    # and what its reserve redraws, is settled in sample order; ricci's
    # measured constant reads sample 0.  A budget of 8 rows of d floats
    # puts the 13-point passes in cut chunks and the 4-point ones in one.
    d = 4 * n + 4
    small, few = _residual_arrays(monkeypatch, RunConfig(n=n, points=4, seed=5), 8 * d)
    large, many = _residual_arrays(monkeypatch, RunConfig(n=n, points=13, seed=5), 8 * d)
    assert [(s, k, len(v)) for s, k, v in few] == [(s, k, len(v)) for s, k, v in many]
    for (suite, key, a), (_, _, b) in zip(few, many):
        for u, v in zip(a, b):
            assert u.tobytes() == (v[:len(u)] if u.ndim else v).tobytes(), (suite, key)
    worst = {r.id: r.max_residual for r in large.iter_records()}
    for r in small.iter_records():
        assert r.max_residual <= worst[r.id], r.id


@pytest.mark.parametrize("n", [1, 2])
def test_a_run_has_the_bits_of_any_chunk_budget(monkeypatch, n):
    # R3: every residual array of a run is the same under a budget of 24
    # floats, of 56 and of 8 rows of d floats as under the default: how the
    # passes cut and merge their rows moves no bit of any record
    cfg, d = RunConfig(n=n, points=9, seed=2), 4 * n + 4
    _, want = _residual_arrays(monkeypatch, cfg)
    for budget in (24, 56, 8 * d):
        _, got = _residual_arrays(monkeypatch, cfg, budget)
        assert [(s, k, len(v)) for s, k, v in got] == [(s, k, len(v)) for s, k, v in want]
        for (suite, key, a), (_, _, b) in zip(got, want):
            assert [u.tobytes() for u in a] == [v.tobytes() for v in b], (budget, suite, key)


def _records(body):
    return body["status"], [r.as_dict() for r in body["records"]]


# every suite alone, and two subsets that move every suite's place in the run
_SUBSETS = [(name,) for name in SUITE_ORDER] + [
    ("sasaki", "torsion", "sectional"), ("connection", "cross-check", "ricci", "theorem-sec")]


@pytest.mark.parametrize("n", [1, 2])
def test_a_suite_subset_gives_the_records_of_the_full_run(n):
    # R2: a suite's lane is keyed by its place in SUITE_ORDER, not by its
    # place in the run, so the suites a run leaves out move none of its
    # records (no gate applies on the default structure)
    full = run_suites(RunConfig(n=n, points=5, seed=3))
    for suites in _SUBSETS:
        rep = run_suites(RunConfig(n=n, points=5, seed=3, suites=suites))
        assert rep.conventions == full.conventions
        assert list(rep.suites) == list(suites)
        for name, body in rep.suites.items():
            assert _records(body) == _records(full.suites[name]), (suites, name)


_GATE_REASONS = {"axioms": "structure axioms did not hold",
                 "sasaki": "first-derivative structure identities did not hold"}


def test_a_suite_subset_on_a_broken_structure_is_gated_as_documented():
    # R2 where a gate applies: with I2 negated the axioms and the sasaki
    # suite fail, and the first of them in a run skips every later suite
    # with its reason; a suite that runs has the records it has alone
    s, cfg = _broken(), lambda suites: RunConfig(n=1, points=5, seed=3, suites=suites)
    alone = {name: _records(run_suites(cfg((name,)), structure=s).suites[name])
             for name in SUITE_ORDER}
    assert alone["axioms"][0] == alone["sasaki"][0] == "fail"
    for suites, gate in ((SUITE_ORDER, "axioms"), (SUITE_ORDER[1:], "sasaki"),
                         (_SUBSETS[-2], "sasaki"), (SUITE_ORDER[2:], None)):
        rep = run_suites(cfg(suites), structure=s)
        for i, name in enumerate(suites):
            if gate in suites[:i]:
                assert rep.suites[name] == {"status": "skipped", "records": [],
                                            "reason": _GATE_REASONS[gate]}, (suites, name)
            else:
                assert _records(rep.suites[name]) == alone[name], (suites, name)


def _signature(report):
    """What a report concludes: each suite's status, gate reason and
    record verdicts, the selected conventions and the overall verdict."""
    return ({k: c["value"] for k, c in report.conventions.items()}, report.overall,
            {name: (body["status"], body.get("reason"),
                    [(r.id, r.kind, r.passed) for r in body["records"]])
             for name, body in report.suites.items()})


def _small_residuals(report):
    return {**{k: c["residual"] for k, c in report.conventions.items()},
            **{r.id: r.max_residual for r in report.iter_records()
               if r.max_residual is not None}}


@pytest.mark.parametrize("sign", [-1, 1])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_an_isometric_structure_gets_the_same_conclusions(n, sign):
    # R4: the triple Q I_a Q^T, Q orthogonal, is a 3-Sasakian structure on
    # the same sphere, isometric to the default one: the same verdicts,
    # and every residual that is rounding moves by rounding only
    cfg = RunConfig(n=n, points=5, seed=3)
    want = run_suites(cfg, structure=ThreeSasakiStructure(n=n, sign=sign))
    got = run_suites(cfg, structure=rotated(n, sign))
    assert _signature(got) == _signature(want)
    small, moved = _small_residuals(want), _small_residuals(got)
    assert small.keys() == moved.keys()
    for key, r in small.items():
        if r < 1e-3:
            assert abs(moved[key] - r) <= 1e-12, (key, r, moved[key])


def test_expected_failures_are_the_known_ones(small_report):
    failed = sorted(r.id for r in small_report.iter_records()
                    if r.kind == "check" and not r.passed)
    assert failed == ["cross_check.generic", "cross_check.single_reeb",
                      "ricci.h_connection"]


def test_ricci_records_carry_the_measurement(small_report):
    recs = {r.id: r for r in small_report.iter_records()}
    assert recs["ricci.einstein_lc"].passed
    assert recs["ricci.einstein_lc"].details["constant"] == 6.0
    claim = recs["ricci.h_connection"]
    assert claim.details["stated_constant"] == 9.0
    assert claim.max_residual == pytest.approx(3.0, abs=1e-9)
    meas = recs["ricci.h_connection_measured"]
    assert meas.kind == "info" and meas.passed
    assert meas.details["measured_constant"] == pytest.approx(12.0, abs=1e-9)


def test_gap_structure_info_matches_exactly(small_report):
    recs = {r.id: r for r in small_report.iter_records()}
    gap = recs["cross_check.gap_structure"]
    assert gap.kind == "info" and gap.passed
    assert gap.max_residual < 1e-9
    fams = gap.details["family_residuals"]
    assert fams["pure_h"] < 1e-9 and fams["single_reeb"] > 1e-2


def test_sweep_finding_documents_the_mismatch(small_report):
    recs = {r.id: r for r in small_report.iter_records()}
    sweep = recs["theorem_sec.sweep"]
    assert sweep.kind == "finding" and not sweep.passed
    table = sweep.details["residuals"]
    assert min(table["0"].values()) < 1e-9
    assert min(table["pi/2"].values()) < 1e-9
    assert min(table["pi/4"].values()) == pytest.approx(0.5, abs=1e-9)
    reeb = recs["theorem_sec.reeb_case"]
    assert reeb.kind == "finding" and reeb.passed
    assert reeb.details["convention_combination"] == "+1/+1"
    # findings never gate their suite
    assert small_report.suites["theorem-sec"]["status"] == "pass"


def test_best_combination_does_not_move_with_rounding(struct, monkeypatch):
    # the label is the first combination, in the row's order, within
    # tol_second of the row's least residual; min() broke exact ties
    # (0.5 and 0.5 at pi/4) and rounding-level ones (7.7e-16 and 2.8e-15
    # at pi/2) by noise
    conventions = resolve_conventions(struct, seed=0)
    real = harness.theorem_sec_data

    def labels():
        records = harness._suite_theorem_sec(struct, RunConfig(points=2),
                                             conventions)
        sweep = next(r for r in records if r.id == "theorem_sec.sweep")
        return sweep.details["best_combination"]

    want = labels()
    assert want == {"0": "-1/-1", "pi/6": "-1/-1", "pi/4": "+1/+1",
                    "pi/3": "+1/+1", "pi/2": "+1/+1"}
    for combo in ("+1/+1", "+1/-1", "-1/+1", "-1/-1"):
        for delta in (-1e-15, 1e-15):
            def perturbed(*args, combo=combo, delta=delta):
                data = real(*args)
                data["residual"][combo] = data["residual"][combo] + delta
                return data

            monkeypatch.setattr(harness, "theorem_sec_data", perturbed)
            assert labels() == want, (combo, delta)


def test_a_nan_in_the_sweep_fails_its_record_and_errors_no_suite(monkeypatch):
    # NaN rows at two sweep angles: at pi/6 in every row of the first
    # combination, where min() kept the NaN, no combination was within
    # tolerance of it, and the suite errored with StopIteration; at pi/3
    # in the last row of the last one, where min() dropped it
    real, P = harness.theorem_sec_data, 3

    def with_nan(*args):
        data = real(*args)
        res = data["residual"]
        first, *_, last = res
        res[first], res[last] = res[first].copy(), res[last].copy()
        res[first][2 * P:3 * P] = np.nan
        res[last][5 * P - 1] = np.nan
        return data

    cfg = RunConfig(points=P, suites=("theorem-sec",))
    want = {r.id: r for r in run_suites(cfg).iter_records()}
    monkeypatch.setattr(harness, "theorem_sec_data", with_nan)
    report = run_suites(cfg)
    body = report.suites["theorem-sec"]
    assert body["status"] != "errored", body.get("reason")
    got = {r.id: r for r in body["records"]}
    sweep = got["theorem_sec.sweep"]
    assert np.isnan(sweep.max_residual) and sweep.passed is False
    assert '"max_residual": "nan"' in canonical_json(sweep.as_dict())
    best = want["theorem_sec.sweep"].details["best_combination"]
    assert sweep.details["best_combination"] == {**best, "pi/6": None, "pi/3": None}
    for rid in ("theorem_sec.h_case", "theorem_sec.reeb_case"):
        assert got[rid].as_dict() == want[rid].as_dict()


def test_a_nan_convention_residual_fails_the_convention_record(struct):
    # max() over the three residuals dropped a NaN that was not first
    conventions = resolve_conventions(struct, seed=0)
    conventions["curvature-sign"] = {**conventions["curvature-sign"],
                                     "residual": float("nan")}
    rec, = [r for r in harness._suite_sasaki(struct, RunConfig(points=2), conventions)
            if r.id == "sasaki.conventions"]
    assert rec.kind == "info" and rec.tolerance is None and rec.samples == 1
    assert np.isnan(rec.max_residual) and rec.passed is False
    assert '"max_residual": "nan"' in canonical_json(rec.as_dict())


def test_reports_are_byte_identical():
    a = run_suites(RunConfig(points=3)).to_json()
    b = run_suites(RunConfig(points=3)).to_json()
    c = run_suites(RunConfig(points=3, seed=5)).to_json()
    assert a == b
    assert a != c
    parsed = json.loads(a)
    assert parsed["schema"] == "hkc-report/1"
    assert parsed["config"]["points"] == 3


def test_central_difference_run_agrees(struct):
    cfg = RunConfig(points=2, suites=("axioms", "sasaki"),
                    scheme=CENTRAL_DIFFERENCE, tol_first=1e-7)
    rep = run_suites(cfg)
    assert rep.overall == "pass"


def test_suite_subset_runs_alone():
    rep = run_suites(RunConfig(points=3, suites=("sectional",)))
    assert list(rep.suites) == ["sectional"]
    assert rep.overall == "pass"
    assert len(rep.suites["sectional"]["records"]) == 8


def test_broken_structure_gates_downstream():
    rep = run_suites(RunConfig(points=3), structure=_broken())
    assert rep.overall == "fail"
    assert rep.suites["axioms"]["status"] == "fail"
    for name in SUITE_ORDER[1:]:
        body = rep.suites[name]
        assert body["status"] == "skipped", name
        assert body["records"] == []
        assert "axioms" in body["reason"]


def test_a_structure_of_another_n_is_rejected():
    # the report states the config's n; a structure of n = 2 under n = 1
    # wrote "n": 1 beside the ricci constants of n = 2 (10, 13, measured 16)
    with pytest.raises(StructuralError, match="n = 2 .* n = 1"):
        run_suites(RunConfig(n=1, points=2), structure=ThreeSasakiStructure(n=2))
    with pytest.raises(StructuralError, match="n = 0 .* n = 1"):
        run_suites(RunConfig(points=2, suites=("axioms",)), structure=ThreeSasakiStructure(n=0))


def test_wrong_reeb_orientation_fails_two_forms_agree():
    # with the opposite Reeb orientation the two forms of the adapted
    # connection split apart; the suite records the gap instead of raising
    s = ThreeSasakiStructure(n=1, sign=+1)
    rep = run_suites(RunConfig(n=1, points=2, suites=("connection",)),
                     structure=s)
    body = rep.suites["connection"]
    assert body["status"] == "fail"
    recs = {r.id: r for r in body["records"]}
    assert recs["connection.two_forms_agree"].passed is False


# ============================================================
# command line
# ============================================================

def test_cli_default_run_exits_one(tmp_path):
    out = tmp_path / "report.json"
    rc, stdout = _capture(["verify", "--points", "3", "--out", str(out)])
    assert rc == 1
    assert stdout.strip() == "overall: fail"
    payload = json.loads(out.read_text())
    assert payload["overall"] == "fail"


@pytest.mark.parametrize("where", ["a directory", "a missing parent"])
def test_cli_unwritable_out_exits_two_before_the_run(where, tmp_path, monkeypatch,
                                                     capsys):
    # an unwritable --out is a configuration error, found before any
    # suite runs; exit 1 is kept for a failed check
    out = tmp_path if where == "a directory" else tmp_path / "missing" / "r.json"
    runs, real = [], harness.run_suites
    monkeypatch.setattr(harness, "run_suites", lambda cfg: runs.append(cfg) or real(cfg))
    rc = main(["verify", "--points", "1", "--suites", "axioms", "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == "" and runs == []
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("existing", [False, True])
def test_cli_failed_run_leaves_the_out_path_as_it_was(tmp_path, capsys, existing):
    # a run that exits before writing its report (an overflowing difference
    # step) leaves no file it made, and an existing file keeps its bytes
    out = tmp_path / "NEW.json"
    if existing:
        out.write_bytes(b"kept\n")
    rc = main(["verify", "--points", "1", "--suites", "axioms", "--scheme", "fd",
               "--fd-step", "1e300", "--out", str(out)])
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == "" and len(err.splitlines()) == 1
    assert out.read_bytes() == b"kept\n" if existing else not out.exists()
    assert sorted(tmp_path.iterdir()) == ([out] if existing else [])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_cli_failed_report_write_exits_two(capsys):
    # the path passes the check before the run and the write after it
    # fails: one error line and exit 2, as for the check
    rc = main(["verify", "--points", "1", "--suites", "axioms", "--out", "/dev/full"])
    stdout, err = capsys.readouterr()
    assert rc == 2 and stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: cannot write the report to /dev/full: ")


def test_cli_defaults_are_the_library_defaults():
    for argv in (["verify"], ["curvature"]):
        args = harness._build_parser().parse_args(argv)
        assert (args.n, args.seed) == (RunConfig.n, RunConfig.seed)
    args = harness._build_parser().parse_args(["verify"])
    assert (args.points, args.tol_first, args.tol_second) == (
        RunConfig.points, RunConfig.tol_first, RunConfig.tol_second)
    assert args.fd_step == CENTRAL_DIFFERENCE.step


def test_cli_green_subset_exits_zero():
    rc, stdout = _capture(["verify", "--points", "3",
                           "--suites", "axioms,sasaki,connection"])
    assert rc == 0
    assert json.loads(stdout)["overall"] == "pass"


def test_cli_text_format():
    rc, stdout = _capture(["verify", "--points", "3", "--format", "text",
                           "--suites", "axioms"])
    assert rc == 0
    assert "suite axioms: pass" in stdout
    assert "overall: pass" in stdout


def test_cli_text_format_names_skip_and_error_reasons():
    # at n = 0 the suites that draw from H error, and the curvature suite's
    # error skips every later suite: each head line gives its reason
    rc, stdout = _capture(["verify", "--n", "0", "--points", "2", "--format", "text"])
    assert rc == 2
    lines = stdout.splitlines()
    assert ("suite connection: errored  (PreconditionError: the distribution H is "
            "zero-dimensional for n = 0; no unit direction can be drawn from it)") in lines
    assert "suite cross-check: skipped  (the curvature suite errored)" in lines
    assert lines[-1] == "overall: fail"


def test_cli_structural_error_exits_two(capsys):
    rc = main(["verify", "--points", "0"])
    assert rc == 2
    assert "points" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan"])
def test_cli_rejects_tolerances_that_pass_everything(tol, capsys):
    # ricci.h_connection (residual 3) would otherwise pass, and the run
    # exit 0
    rc = main(["verify", "--suites", "ricci", "--points", "1",
               "--tol-first", tol, "--tol-second", tol])
    assert rc == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("value", ["", " , "])
def test_cli_empty_suite_list_exits_two(value, capsys):
    # a --suites value that names no suite is an error, the empty string
    # too: it must not run all nine
    rc = main(["verify", "--points", "1", "--suites", value])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err == "error: at least one suite must be requested\n"


def test_importing_hkc_leaves_out_argparse():
    # only the command line parses arguments: a fresh interpreter's
    # import of the package does not load argparse
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, hkc; print('argparse' in sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_cli_bad_flag_exits_two():
    buf = io.StringIO()
    with contextlib.redirect_stderr(buf):
        rc = main(["verify", "--scheme", "bogus"])
    assert rc == 2


def test_cli_seed_env_override(monkeypatch):
    rc1, base = _capture(["verify", "--points", "3", "--suites", "axioms"])
    monkeypatch.setenv("HKC_SEED", "123")
    rc2, over = _capture(["verify", "--points", "3", "--suites", "axioms"])
    rc3, direct = _capture(["verify", "--points", "3", "--seed", "123",
                            "--suites", "axioms"])
    monkeypatch.delenv("HKC_SEED")
    assert over == direct
    assert over != base
    assert json.loads(over)["config"]["seed"] == 123


def test_cli_seed_env_must_be_integer(monkeypatch, capsys):
    monkeypatch.setenv("HKC_SEED", "not-a-number")
    rc = main(["verify", "--points", "3", "--suites", "axioms"])
    assert rc == 2
    assert "HKC_SEED" in capsys.readouterr().err


def test_cli_curvature_subcommand():
    rc, out = _capture(["curvature", "--n", "1", "--seed", "3", "--alpha", "2"])
    assert rc == 0
    assert "alpha=2: +4.000000000000 *" in out
    assert "expected +12" in out and "ok" in out


@pytest.mark.parametrize("step", ["1e300", "inf"])
def test_cli_overflowing_fd_step_exits_two(step, capsys):
    # the sign conventions are resolved ahead of the suites, so an
    # overflowing step must surface as a configuration error there, and
    # numpy's overflow warnings must not add lines of their own
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--scheme", "fd", "--fd-step", step,
                   "--points", "1", "--suites", "axioms"])
    out, err = capsys.readouterr()
    assert rc == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cli_curvature_rejects_negative_seed(monkeypatch, capsys):
    assert main(["curvature", "--seed", "-1"]) == 2
    monkeypatch.setenv("HKC_SEED", "-1")
    assert main(["curvature"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: seed must be a non-negative integer, got -1"] * 2


def test_cli_curvature_rejects_trivial_distribution(capsys):
    rc = main(["curvature", "--n", "0"])
    assert rc == 2
    assert "zero-dimensional" in capsys.readouterr().err


def test_cli_errored_suites_exit_two(capsys):
    # at n = 0 the distribution H is empty: the suites that draw from it
    # error, and the suites behind the curvature gate say why they skipped
    rc = main(["verify", "--n", "0", "--points", "1"])
    assert rc == 2
    report = json.loads(capsys.readouterr().out)
    statuses = {name: body["status"] for name, body in report["suites"].items()}
    assert statuses == {
        "axioms": "pass", "sasaki": "pass", "connection": "errored",
        "torsion": "errored", "curvature": "errored",
        "cross-check": "skipped", "ricci": "skipped", "sectional": "skipped",
        "theorem-sec": "skipped"}
    for name in ("cross-check", "ricci", "sectional", "theorem-sec"):
        assert report["suites"][name]["reason"] == "the curvature suite errored"


@pytest.mark.parametrize("suites, gated", [
    (None, ("cross-check", "ricci", "sectional", "theorem-sec")),
    ("curvature,ricci", ("ricci",))])
def test_cli_failing_oracle_gate_skips_every_later_suite(capsys, suites, gated):
    # a difference step of 1e-5 leaves the round-curvature oracle above
    # tol_second: the gate fails, and every suite after it says so
    argv = ["verify", "--n", "1", "--points", "3", "--seed", "0",
            "--scheme", "fd", "--fd-step", "1e-5"]
    assert main(argv + (["--suites", suites] if suites else [])) == 1
    report = json.loads(capsys.readouterr().out)
    gate, = (r for r in report["suites"]["curvature"]["records"]
             if r["id"] == "curvature.oracle_gate")
    assert gate["passed"] is False and gate["max_residual"] > 1e-7
    later = SUITE_ORDER[SUITE_ORDER.index("curvature") + 1:]
    assert tuple(name for name in later if name in report["suites"]) == gated
    for name in gated:
        body = report["suites"][name]
        assert body["status"] == "skipped" and body["records"] == []
        assert body["reason"] == "the curvature oracle gate did not pass"


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "hkc", "verify", "--suites", "axioms",
         "--points", "1"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["overall"] == "pass"


def test_package_exports_are_not_modules():
    import hkc
    modules = [name for name in hkc.__all__
               if isinstance(getattr(hkc, name), types.ModuleType)]
    assert modules == []


def _count_curvature(monkeypatch):
    """Count the nested curvature passes (calls of the raw kernel, which
    every curvature value goes through) by kind, and the rows they
    return per kind."""
    passes, rows = [], {LC: 0, HC: 0}
    original = connections._curvature_raw

    def counted(s, kind, *args):
        passes.append(kind)
        out = original(s, kind, *args)
        rows[kind] += len(np.atleast_2d(out))
        return out

    monkeypatch.setattr(connections, "_curvature_raw", counted)
    return passes, rows


def test_each_curvature_value_is_evaluated_once(struct, monkeypatch):
    conventions = resolve_conventions(struct, seed=0)
    passes, rows = _count_curvature(monkeypatch)

    # per sample: two round planes, then for each of the three structures
    # the adapted holomorphic value and the round phi_a-plane value, then
    # the two sides of the cross identity
    harness._suite_sectional(struct, RunConfig(points=2), conventions)
    assert rows == {LC: 2 * 6, HC: 2 * 4}

    # six distinct quadrilinear values per quad, all quads in each pass
    passes.clear()
    rows.update({LC: 0, HC: 0})
    rng = _stream(0, 62, 0)
    quads = []
    for _ in range(2):
        x = sample_point(struct, rng)
        quads.append((x, *(sample_unit_H(struct, x, rng) for _ in range(4))))
    verify_symmetries(struct, stack_rows(quads))
    assert passes == [HC]
    assert rows == {LC: 0, HC: 2 * 6}


def _count_raw(monkeypatch):
    """Count the first-order passes (as None: one derivative kernel serves
    every kind) and their derivative rows (as None), and the rows that
    read a derivative of each connection (by kind).  The kernel's calls
    inside a first-order pass count; those of a nested pass do not."""
    passes, rows, first = [], {}, [False]
    kernel, fused = connections._cov_raw, connections._fused_pass

    def counted(s, Xf, Yf, y, *args, **kwargs):
        if first[0]:
            passes.append(None)
            rows[None] = rows.get(None, 0) + len(y)
        return kernel(s, Xf, Yf, y, *args, **kwargs)

    def reads(s, kind, patterns, y, scheme):
        for k in (LC, HC) if kind is None else ():
            rows[k] = rows.get(k, 0) + sum(k in p[2] for p in patterns) * len(np.atleast_2d(y))
        first[0] = kind is None
        try:
            return fused(s, kind, patterns, y, scheme)
        finally:
            first[0] = False

    monkeypatch.setattr(connections, "_cov_raw", counted)
    monkeypatch.setattr(connections, "_fused_pass", reads)
    return passes, rows


@pytest.mark.parametrize("suite, lc, hc", [
    # nested curvature passes
    ("curvature", 1, 1),
    ("cross-check", 1, 1),
    ("sectional", 1, 1),
    ("theorem-sec", 1, 1),
    ("ricci", 1, 1),
    # the first-order suites: one derivative pass each, which reads the
    # covariant derivatives of the Levi-Civita and of the adapted connection
    ("sasaki", 1, 0),
    ("connection", 1, 1),
    ("torsion", 1, 1),
])
def test_nested_passes_do_not_grow_with_points(struct, monkeypatch, suite,
                                               lc, hc):
    # one stacked pass per connection (all slot patterns in one pass per
    # chunk; first order: one pass, each distinct pair once) whatever the
    # number of sample points
    conventions = resolve_conventions(struct, seed=0)
    first_order = suite in ("sasaki", "connection", "torsion")
    passes, rows = (_count_raw if first_order else _count_curvature)(monkeypatch)
    for points in (1, 4):
        passes.clear()
        rows.update(dict.fromkeys(rows, 0))
        harness._SUITE_FUNCS[suite](struct, RunConfig(points=points),
                                    conventions)
        if first_order:
            assert passes == [None], points
            assert (bool(rows.get(LC)), bool(rows.get(HC))) == (lc, hc), points
        else:
            assert (passes.count(LC), passes.count(HC)) == (lc, hc), points
            assert passes.count(None) == 0, points


def test_a_default_run_makes_eleven_nested_passes(monkeypatch):
    # one pass per connection in each of the five nested suites, and one
    # in the sign resolution (41 with one pass per slot pattern)
    passes, _ = _count_curvature(monkeypatch)
    run_suites(RunConfig(n=1, points=10))
    assert len(passes) <= 11, len(passes)


@pytest.mark.parametrize("suite", ["connection", "curvature"])
def test_repeated_suite_runs_leave_few_blocks_behind(suite):
    # a tuple built from an iterator is cut to size in a new block, which
    # stays in CPython's free list for its size once freed; passes that
    # build theirs so leave some 12 (curvature) to 40 (connection) more
    # blocks a run, and a long-running process's memory creeps
    s = ThreeSasakiStructure(n=1)
    conventions = resolve_conventions(s, seed=0)
    run = lambda: harness._SUITE_FUNCS[suite](s, RunConfig(points=2, seed=4), conventions)
    for _ in range(3):
        run()
    before = sys.getallocatedblocks()
    for _ in range(100):
        run()
    assert sys.getallocatedblocks() - before < 1000


@pytest.mark.parametrize("suite", ["curvature", "sectional", "theorem-sec"])
def test_fused_suite_memory_does_not_grow_with_points(suite):
    # a chunk holds at most a fixed number of rows (at 100 points every
    # pass already fills one), so the traced peak is about that of one
    # chunk's pass plus the suite's own per-point data, whatever the points
    s = ThreeSasakiStructure(n=1)
    conventions = resolve_conventions(s, seed=0)
    run = lambda points: harness._SUITE_FUNCS[suite](
        s, RunConfig(points=points, seed=4), conventions)
    run(100)  # untraced: a first run allocates some state once only
    peaks = []
    for points in (100, 400):
        tracemalloc.start()
        try:
            run(points)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_definitional_form_is_evaluated_once_per_connection_sample(monkeypatch):
    # one evaluation of the definitional form of the adapted derivative
    # reads seven Levi-Civita derivatives: nabla_X Y, and nabla_X xi_a and
    # nabla_Y xi_a for a = 1, 2, 3.  Nothing else in the connection suite
    # reads one, so the Levi-Civita rows that the suite adds to a run
    # count its evaluations of that form: one per sample, in its one pass
    passes, rows = _count_raw(monkeypatch)
    for points in (1, 3):
        lc = []
        for suites in (("axioms", "sasaki"), ("axioms", "sasaki", "connection")):
            passes.clear()
            rows.clear()
            rep = run_suites(RunConfig(points=points, suites=suites))
            assert {b["status"] for b in rep.suites.values()} == {"pass"}
            lc.append((len(passes), rows[LC]))
        assert (lc[1][0] - lc[0][0], lc[1][1] - lc[0][1]) == (1, 7 * points)


@pytest.mark.parametrize("points", [1, 4, 10, 100])
def test_each_distinct_derivative_is_taken_once(struct, monkeypatch, points):
    # derivative rows per sample: each distinct pair of fields once (a
    # bracket's two orientations included, and the connection suite's
    # Reeb fields shared by all its plans), 16, 35 and 16; one first-order
    # pass a suite up to 10 points, and at 100 points as many as the chunk
    # budget needs, cut where the pairs that read nabla-bar end (torsion's
    # 14 of 16 in four passes, its other two in a fifth)
    groups = (1, 1, 1) if points <= 10 else (4, 9, 5)
    conventions = resolve_conventions(struct, seed=0)
    passes, rows = _count_raw(monkeypatch)
    for suite, want, k in zip(("sasaki", "connection", "torsion"), (16, 35, 16), groups):
        passes.clear()
        rows.clear()
        harness._SUITE_FUNCS[suite](struct, RunConfig(points=points), conventions)
        assert (len(passes), rows[None]) == (k, want * points), suite
    passes.clear()
    run_suites(RunConfig(points=points, suites=("sasaki", "connection", "torsion")))
    assert len(passes) == sum(groups) + 1  # and the sign resolution's one


@pytest.mark.parametrize("points, want", [
    (10, {"sasaki": (0, 0), "connection": (1, 350), "torsion": (1, 160)}),
    (100, {"sasaki": (0, 0), "connection": (3, 1100), "torsion": (4, 1400)}),
])
def test_a_is_made_only_in_passes_that_read_the_adapted_connection(struct, monkeypatch,
                                                                     points, want):
    # a first-order pass sorts its K distinct pairs by what they read, the h
    # that read nabla-bar first; only a pass that holds one of them makes
    # A, on all its rows.  K pairs within the budget's group make one pass;
    # more are cut where the h end, each run evened, so A is made on exactly
    # the rows of the h, in ceil(h / group) passes, once a chunk of rows
    # each.  The calls and rows of _a_raw follow from the suite's plans and
    # the budget
    conventions = resolve_conventions(struct, seed=0)
    made, plans = [], []
    a_raw, run = connections._a_raw, harness._run
    monkeypatch.setattr(connections, "_a_raw",
                        lambda s, u, w, y: made.append(len(y)) or a_raw(s, u, w, y))
    monkeypatch.setattr(harness, "_run",
                        lambda s, groups, y, scheme: plans.extend(groups) or run(s, groups, y, scheme))
    budget, d = connections.CURVATURE_CHUNK, struct.ambient_dim
    for suite in want:
        made.clear()
        plans.clear()
        harness._SUITE_FUNCS[suite](struct, RunConfig(points=points), conventions)
        pairs = {}
        for requests, _ in (plan for group in plans for plan in group):
            for kind, X, Y in requests:
                pairs.setdefault((X, Y), set()).add(kind)
        K, h = len(pairs), sum(HC in kinds for kinds in pairs.values())
        group = max(1, budget // (points * d))
        chunks = -(-points // max(1, budget // (group * d)))
        passes, rows = (-(-h // group), h) if K > group else (int(h > 0), K if h else 0)
        derived = (passes * chunks, rows * points)
        assert (len(made), sum(made)) == derived == want[suite], suite
        if K > group:  # A's rows are the rows that read nabla-bar
            assert sum(made) == h * points, suite


@pytest.mark.parametrize("n", [1, 16])
def test_the_default_triple_makes_no_blas_matvec(monkeypatch, n):
    # the default triple is a signed permutation, so every structure map
    # gathers, on one row and on a stack of any size: the first-order
    # suites at 100 points call no matvec.  A dense triple's one-alpha maps
    # do call it, so the count sees a call that is made
    calls, mv = [], sphere3s.matvec
    for module in (numlin, sphere3s):  # its own name and the structure's
        monkeypatch.setattr(module, "matvec", lambda M, v: calls.append(M) or mv(M, v))
    rep = run_suites(RunConfig(n=n, points=100,
                               suites=("axioms", "sasaki", "connection", "torsion")))
    assert rep.overall == "pass" and calls == []
    rotated(n).reeb_raw(1, np.eye(1, 4 * n + 4))
    assert len(calls) == 1


def test_text_format_lists_every_record(small_report):
    text = format_text(small_report)
    for r in small_report.iter_records():
        assert r.id in text


# ============================================================
# golden reports
# ============================================================

GOLDEN = Path(__file__).parent / "data"


# the suites from connection on: on the two failing structures below the
# foundation suites (axioms, sasaki) would fail and skip everything after
_FAILING_PATH_SUITES = SUITE_ORDER[2:]

# reports of failing records, each run on its own structure:
# connection, curvature, cross-check, ricci, sectional and theorem-sec fail
# under the wrong Reeb orientation, and connection, torsion, cross-check
# and ricci with I2 negated
_GOLDEN_STRUCTURES = {
    "report_n1_points3_seed0_sign_plus": lambda: ThreeSasakiStructure(n=1, sign=+1),
    "report_n1_points3_seed0_broken_i2": _broken,
}


@pytest.mark.parametrize("name, cfg", [
    ("report_n1_points4_seed0", RunConfig(n=1, points=4, seed=0)),
    ("report_n16_points2_seed1", RunConfig(n=16, points=2, seed=1)),
    ("report_n1_points3_seed0_fd1e-4", RunConfig(
        n=1, points=3, seed=0,
        scheme=DiffScheme("central-difference", 1e-4))),
    ("report_n1_points3_seed0_sign_plus", RunConfig(
        n=1, points=3, seed=0, suites=_FAILING_PATH_SUITES)),
    ("report_n1_points3_seed0_broken_i2", RunConfig(
        n=1, points=3, seed=0, suites=_FAILING_PATH_SUITES)),
])
def test_report_matches_golden_bytes(name, cfg):
    # the reports were written by an earlier revision; any refactor must
    # reproduce them byte for byte, every residual to the 17th digit
    structure = _GOLDEN_STRUCTURES.get(name)
    got = run_suites(cfg, structure=structure and structure()).to_json()
    want = (GOLDEN / f"{name}.json").read_text()
    if got != want:
        diff = field_diff(json.loads(want), json.loads(got))
        pytest.fail(f"{name}: report bytes differ in {len(diff)} field(s)\n"
                    + "\n".join(diff or ["(layout only: same fields, other bytes)"]))


def _leaves(obj, path=""):
    """(path, value) for every leaf of a parsed report; list items with an
    ``id`` are named by it."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _leaves(val, f"{path}.{key}" if path else key)
    elif isinstance(obj, list) and obj and all(
            isinstance(item, dict) and "id" in item for item in obj):
        for item in obj:
            yield from _leaves(item, f"{path}[{item['id']}]")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, obj


def field_diff(old, new):
    """One line per leaf that differs: path, old value, new value and,
    for two numbers, |delta|."""
    old, new = dict(_leaves(old)), dict(_leaves(new))
    lines = []
    for path in [*old, *(p for p in new if p not in old)]:
        a, b = old.get(path, "<absent>"), new.get(path, "<absent>")
        if a == b and type(a) is type(b):
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (a, b))
        delta = f"  |delta| {abs(b - a):.3e}" if numeric else ""
        lines.append(f"{path}: {a!r} -> {b!r}{delta}")
    return lines


def test_field_diff_names_each_moved_leaf():
    old = {"overall": "fail", "suites": {"ricci": {"status": "fail", "records": [
        {"id": "ricci.h_connection", "max_residual": 1.0, "passed": False}]}}}
    new = json.loads(json.dumps(old))
    new["suites"]["ricci"]["records"][0]["max_residual"] = 1.5
    new["overall"] = "pass"
    assert field_diff(old, old) == []
    assert field_diff(old, new) == [
        "overall: 'fail' -> 'pass'",
        "suites.ricci.records[ricci.h_connection].max_residual: "
        "1.0 -> 1.5  |delta| 5.000e-01",
    ]
