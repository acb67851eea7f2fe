import io
import json
import os
import subprocess
import sys
import contextlib
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from hkc import connections, harness
from hkc import curvature as curvature_module
from hkc.connections import ConnectionKind
from hkc.curvature import verify_symmetries
from hkc.harness import (
    SUITE_ORDER,
    RunConfig,
    format_text,
    main,
    resolve_conventions,
    run_suites,
    sample_point,
    sample_unit_H,
    sample_unit_tangent,
    _stream,
)
from hkc.numlin import (
    CENTRAL_DIFFERENCE,
    ComplexStructureTriple,
    DiffScheme,
    PreconditionError,
    StructuralError,
)
from hkc.records import registry_gaps
from hkc.sphere3s import ThreeSasakiStructure

from conftest import stack_rows

LC = ConnectionKind.LEVI_CIVITA
HC = ConnectionKind.H_CONNECTION


@pytest.fixture(scope="module")
def struct():
    return ThreeSasakiStructure(n=1)


@pytest.fixture(scope="module")
def small_report(struct):
    return run_suites(RunConfig(points=4))


def _broken(n=1):
    base = ThreeSasakiStructure(n=n)
    return ThreeSasakiStructure(
        n=n, triple=ComplexStructureTriple(
            I1=base.triple.I1, I2=-base.triple.I2, I3=base.triple.I3))


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


def test_cli_structural_error_exits_two(capsys):
    rc = main(["verify", "--points", "0"])
    assert rc == 2
    assert "points" in capsys.readouterr().err


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
    """Count the nested curvature passes (calls) through every module
    binding, and the values they return per kind (one per stacked row)."""
    passes, rows = [], {LC: 0, HC: 0}
    original = connections.curvature

    def counted(kind, *args, **kwargs):
        passes.append(kind)
        out = original(kind, *args, **kwargs)
        rows[kind] += len(np.atleast_2d(out.v))
        return out

    for module in (connections, curvature_module, harness):
        monkeypatch.setattr(module, "curvature", counted)
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
    assert passes == [HC] * 6
    assert rows == {LC: 0, HC: 2 * 6}


def _count_raw(monkeypatch, module, name):
    """Count the calls of the raw kernel ``module.name`` (a
    covariant-derivative or nested curvature pass) by kind."""
    kinds = []
    original = getattr(module, name)

    def counted(s, kind, *args):
        kinds.append(kind)
        return original(s, kind, *args)

    monkeypatch.setattr(module, name, counted)
    return kinds


@pytest.mark.parametrize("suite, lc, hc", [
    # nested curvature passes
    ("curvature", 4, 12 + 6),
    ("cross-check", 1, 1),
    ("sectional", 5, 4),
    ("theorem-sec", 1, 1),
    ("ricci", 2, 2),
    # covariant-derivative passes of the first-order suites
    ("sasaki", 15, 0),
    ("connection", 7, 14),
    ("torsion", 2, 14),
])
def test_nested_passes_do_not_grow_with_points(struct, monkeypatch, suite,
                                               lc, hc):
    # one stacked pass per connection and slot pattern, whatever the
    # number of sample points
    conventions = resolve_conventions(struct, seed=0)
    if suite in ("sasaki", "connection", "torsion"):
        passes = _count_raw(monkeypatch, connections, "_cov_raw")
    elif suite == "ricci":  # the trace calls the raw kernel
        passes = _count_raw(monkeypatch, curvature_module, "_curvature_raw")
    else:
        passes, _ = _count_curvature(monkeypatch)
    for points in (1, 4):
        passes.clear()
        harness._SUITE_FUNCS[suite](struct, RunConfig(points=points),
                                    conventions)
        assert (passes.count(LC), passes.count(HC)) == (lc, hc), points


def test_definitional_form_is_evaluated_once_per_connection_sample(monkeypatch):
    # one evaluation of the definitional form of the adapted derivative
    # takes seven Levi-Civita derivatives: nabla_X Y, and nabla_X xi_a and
    # nabla_Y xi_a for a = 1, 2, 3.  Nothing else in the connection suite
    # takes one, so the Levi-Civita derivatives that the suite adds to a
    # run count its evaluations of that form: one, over all samples
    kinds = _count_raw(monkeypatch, connections, "_cov_raw")
    for points in (1, 3):
        lc = []
        for suites in (("axioms", "sasaki"), ("axioms", "sasaki", "connection")):
            kinds.clear()
            rep = run_suites(RunConfig(points=points, suites=suites))
            assert {b["status"] for b in rep.suites.values()} == {"pass"}
            lc.append(kinds.count(LC))
        assert lc[1] - lc[0] == 7


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
