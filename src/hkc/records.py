"""Verification records, the report container, and canonical JSON output.

A record is one verified identity family: an id, an opaque cross-reference
``anchor`` token (stable identifiers consumed by downstream tooling), the
worst residual seen, the tolerance it was held to, and the verdict.

Record kinds:

* ``check``   - gates the overall status; ``passed`` is meaningful.
* ``info``    - measured quantities reported for the record, never gating.
* ``finding`` - a documented analysis outcome (e.g. residuals that no
                convention choice reconciles); never gating.
* ``skip``    - the suite or case did not run; never gating.

Reports serialize deterministically: sorted keys, floats at 17
significant digits, no timestamps.  Two runs with identical
configuration produce byte-identical documents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA = "hkc-report/1"

__all__ = [
    "SCHEMA",
    "VerificationRecord",
    "VerificationReport",
    "IDENTITY_REGISTRY",
    "make_record",
    "worst_residuals",
    "build_records",
    "canonical_json",
    "registry_gaps",
]


# ============================================================
# static identity registry: record id -> anchor token
# ============================================================

IDENTITY_REGISTRY = {
    # structure axioms
    "axioms.quaternion_products": "3-structure",
    "axioms.unit_reeb": "3-structure",
    "axioms.phi_square": "almost-contact",
    "axioms.eta_reeb": "almost-contact",
    "axioms.compat": "compat",
    "axioms.omega_skew": "fundamental-2form",
    "axioms.reeb_cross": "3-structure",
    "axioms.phi_compose": "3-structure",
    "axioms.eta_phi": "3-structure",
    "axioms.projection": "splitting",
    # single-structure differential identities
    "sasaki.defect": "sasaki-condition",
    "sasaki.reeb_covariant": "sas pro",
    "sasaki.reeb_bracket": "bracket xi",
    "sasaki.reeb_on_reeb": "levi1",
    "sasaki.conventions": "sas pro",
    # the distribution-adapted connection
    "connection.two_forms_agree": "new conn",
    "connection.metricity": "new comp.",
    "connection.reeb_parallel": "new comp.",
    "connection.h_preserved": "new comp.",
    "connection.bracket3": "bracket3",
    "connection.phi_parallel": "varphi",
    "connection.h_tensor_table": "h-table",
    # torsion
    "torsion.lc_zero": "torsion",
    "torsion.h_pair": "torsion",
    "torsion.mixed": "torsion",
    "torsion.reeb_pair": "torsion",
    # curvature of both connections
    "curvature.oracle_gate": "cur1",
    "curvature.reeb_curvature_lc": "sas pro",
    "curvature.annihilation_last": "curvature",
    "curvature.annihilation_middle": "curvature1",
    "curvature.annihilation_pair": "curvature1",
    "curvature.sym_first_pair": "cur pro",
    "curvature.sym_last_pair": "cur pro",
    "curvature.sym_pair_swap": "curvature2",
    "curvature.sym_bianchi": "curvature2",
    # algebraic vs differential curvature routes
    "cross_check.pure_h": "cur1 2",
    "cross_check.reeb_last": "cur1 2",
    "cross_check.reeb_pairs": "cur1 2",
    "cross_check.single_reeb": "cur1 2",
    "cross_check.generic": "cur1 2",
    "cross_check.gap_structure": "cur1 2",
    # traces
    "ricci.einstein_lc": "ric",
    "ricci.h_connection": "ric",
    "ricci.h_connection_measured": "Ricci",
    # sectional / holomorphic sectional
    "sectional.sphere_constant": "sectional-def",
    "sectional.plane_invariance": "sectional-def",
    "sectional.sec_rela": "sec rela",
    "sectional.holomorphic_constant": "sum H",
    "sectional.holomorphic_sum": "sum H",
    "sectional.tanno_sum": "tanno",
    "sectional.third_constant": "cons2",
    "sectional.cor_xxx": "X X1 X2 X3",
    # the plane-comparison polynomial
    "theorem_sec.h_case": "sec",
    "theorem_sec.sweep": "sec",
    "theorem_sec.reeb_case": "sec",
}


@dataclass
class VerificationRecord:
    id: str
    anchor: str
    suite: str
    kind: str = "check"
    passed: bool | None = None
    max_residual: float | None = None
    tolerance: float | None = None
    samples: int = 0
    details: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "id": self.id,
            "anchor": self.anchor,
            "suite": self.suite,
            "kind": self.kind,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "samples": self.samples,
            "details": self.details,
        }


def make_record(rec_id, suite, kind="check", passed=None, max_residual=None,
                tolerance=None, samples=0, details=None):
    """Build a record whose anchor comes from the static registry."""
    if rec_id not in IDENTITY_REGISTRY:
        raise KeyError(f"record id {rec_id!r} is not in the identity registry")
    return VerificationRecord(
        id=rec_id,
        anchor=IDENTITY_REGISTRY[rec_id],
        suite=suite,
        kind=kind,
        passed=passed,
        max_residual=None if max_residual is None else float(max_residual),
        tolerance=None if tolerance is None else float(tolerance),
        samples=samples,
        details=details or {},
    )


def worst_residuals(pairs):
    """The largest residual under each key, keys in the order of their
    first pair.  ``pairs`` yields ``(key, residuals)``, one residual per
    sample row (a float for one sample).  The maximum over floats is
    exact and commutative, so the order of the pairs does not change a
    value; a NaN residual propagates, so its record fails."""
    worst = {}
    for key, res in pairs:
        worst[key] = np.maximum(worst.get(key, 0.0), np.max(res))
    return {key: float(res) for key, res in worst.items()}


def build_records(suite, samples, pairs, table):
    """The records of one suite from its residual pairs.

    ``pairs`` yields ``(key, residuals)`` as for :func:`worst_residuals`.
    ``table`` maps each record id, in report order, to its tolerance or
    to :func:`make_record` fields that override the defaults (the worst
    residual under the id, its verdict against the tolerance, ``samples``
    samples).  A callable ``table`` gets the worst residuals first.
    """
    worst = worst_residuals(pairs)
    if callable(table):
        table = table(worst)
    records = []
    for rid, spec in table.items():
        spec = spec if isinstance(spec, dict) else {"tolerance": spec}
        fields = {"max_residual": worst.get(rid, 0.0), "samples": samples,
                  **spec}
        if "passed" not in fields:
            fields["passed"] = bool(fields["max_residual"] <= fields["tolerance"])
        records.append(make_record(rid, suite=suite, **fields))
    return records


@dataclass
class VerificationReport:
    schema: str
    config: dict
    conventions: dict
    suites: dict  # name -> {"status": str, "records": [VerificationRecord]}
    overall: str

    def as_dict(self):
        return {
            "schema": self.schema,
            "config": self.config,
            "conventions": self.conventions,
            "suites": {
                name: {
                    "status": body["status"],
                    "records": [r.as_dict() for r in body["records"]],
                    **({"reason": body["reason"]} if "reason" in body else {}),
                }
                for name, body in self.suites.items()
            },
            "overall": self.overall,
        }

    def to_json(self):
        return canonical_json(self.as_dict())

    def iter_records(self):
        for body in self.suites.values():
            yield from body["records"]


def registry_gaps(report):
    """Registry ids that never showed up in the report (should be empty
    for a full-suite run)."""
    seen = {r.id for r in report.iter_records()}
    return sorted(set(IDENTITY_REGISTRY) - seen)


# ============================================================
# canonical JSON
# ============================================================

def _fmt_float(x):
    if np.isnan(x):
        return '"nan"'
    if np.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def canonical_json(obj, indent=0):
    """Deterministic JSON: sorted object keys, floats at 17 significant
    digits, two-space indentation.  Byte-identical for equal inputs."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + canonical_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj):
            items.append(inner + json.dumps(str(k)) + ": "
                         + canonical_json(obj[k], indent + 1))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot canonicalize value of type {type(obj).__name__}")
