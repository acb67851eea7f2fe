"""Checks of the benchmark's tracer and correctness gate.

    python3 -m pytest -q bench/test_layers.py
"""

import importlib

from run import import_hkc
from layers import Tracer
from workloads import load_reference, mismatches, signature

hkc = import_hkc()
connections = importlib.import_module("hkc.connections")
numlin = importlib.import_module("hkc.numlin")


def bindings_of(func, tracer):
    """(namespace, attribute) pairs that the tracer's namespaces bind to func."""
    return sorted((ns.__name__, attr) for ns in tracer.namespaces
                  for attr, value in vars(ns).items() if value is func)


def test_tracer_rebinds_every_import_and_restores_it():
    func = connections.curvature
    tracer = Tracer()
    before = bindings_of(func, tracer)
    # the function is imported by name into these modules; the package
    # attribute hkc.curvature is the curvature module, not the function
    assert ("hkc.connections", "curvature") in before
    assert ("hkc.curvature", "curvature") in before
    assert ("hkc.harness", "curvature") in before
    assert ("hkc", "curvature") not in before
    with tracer:
        assert bindings_of(func, tracer) == []
    assert bindings_of(func, tracer) == before


def test_recursive_dot_calls_are_counted():
    Dual = numlin.Dual
    u = Dual(Dual(1.0, 2.0), Dual(3.0, 4.0))
    with Tracer() as tracer:
        numlin.dot(u, u)
    assert tracer.stats["numlin.dot"][0] > 1
    assert tracer.stats["numlin.Dual.created"][0] > 0


def test_traced_report_matches_untraced_and_splits_kinds():
    cfg = hkc.RunConfig(n=1, points=2, seed=3)
    plain = hkc.run_suites(cfg).to_json()
    with Tracer() as tracer:
        traced = hkc.run_suites(cfg).to_json()
    assert traced == plain
    stats = tracer.stats
    assert stats["connections.curvature.lc"][0] > 0
    assert stats["connections.curvature.h"][0] > 0
    assert stats["harness.suite.theorem-sec"][0] == 1
    for calls, total, self_s in stats.values():
        assert self_s <= total + 1e-9


def test_signature_mismatch_is_reported():
    report = hkc.run_suites(hkc.RunConfig(n=1, points=2, seed=3,
                                          suites=("axioms", "sasaki")))
    sig = signature(report)
    reference = load_reference("first_order")
    problems = mismatches(sig, reference)
    assert any("suites" in p for p in problems)
    assert mismatches(sig, sig) == []
