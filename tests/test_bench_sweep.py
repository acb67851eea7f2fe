"""The benchmark's scaling sweep, at n = 1 with one call of each kind.

It is the one path of ``bench/run.py`` that no other test runs, and it
calls the package through ``sample_point``, ``sample_unit_H``,
``connections.curvature`` and ``ricci(..., seed=)``.
"""

import importlib
from pathlib import Path

import hkc

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_scaling_sweep_runs_at_n1(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "SWEEP_N", (1,))
    monkeypatch.setattr(run, "SWEEP_CURVATURE_CALLS", 1)
    monkeypatch.setattr(run, "SWEEP_RICCI_CALLS", 1)
    out = run.scaling_sweep(hkc, 3)
    assert out.keys() == {"scaling.n1.connections.curvature.h.per_call_us",
                          "scaling.n1.curvature.ricci.h.total_s"}
    assert all(value > 0 for value, _ in out.values())
    assert [unit for _, unit in out.values()] == ["us", "s"]
