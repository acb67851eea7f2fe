"""Verification records, the report container, and canonical JSON output.

A record is one verified identity family: an id, an opaque cross-reference
``anchor`` token (stable identifiers consumed by downstream tooling), the
worst residual seen, the tolerance it was held to, and the verdict.
Each record's anchor and tolerance order are declared once, in
:data:`IDENTITY_REGISTRY`, whose order is the report order.

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

import math
from json.encoder import encode_basestring_ascii

import numpy as np

SCHEMA = "hkc-report/1"


# ============================================================
# static identity registry: record id -> (anchor token, tolerance order);
# order 1 is tol_first, 2 is tol_second, None no tolerance
# ============================================================

IDENTITY_REGISTRY = {
    # structure axioms
    "axioms.quaternion_products": ("3-structure", 1),
    "axioms.unit_reeb": ("3-structure", 1),
    "axioms.phi_square": ("almost-contact", 1),
    "axioms.eta_reeb": ("almost-contact", 1),
    "axioms.compat": ("compat", 1),
    "axioms.omega_skew": ("fundamental-2form", 1),
    "axioms.reeb_cross": ("3-structure", 1),
    "axioms.phi_compose": ("3-structure", 1),
    "axioms.eta_phi": ("3-structure", 1),
    "axioms.projection": ("splitting", 1),
    # single-structure differential identities
    "sasaki.defect": ("sasaki-condition", 2),
    "sasaki.reeb_covariant": ("sas pro", 1),
    "sasaki.reeb_bracket": ("bracket xi", 1),
    "sasaki.reeb_on_reeb": ("levi1", 1),
    "sasaki.conventions": ("sas pro", None),
    # the distribution-adapted connection
    "connection.two_forms_agree": ("new conn", 1),
    "connection.metricity": ("new comp.", 1),
    "connection.reeb_parallel": ("new comp.", 1),
    "connection.h_preserved": ("new comp.", 1),
    "connection.bracket3": ("bracket3", 1),
    "connection.phi_parallel": ("varphi", 2),
    "connection.h_tensor_table": ("h-table", 1),
    # torsion
    "torsion.lc_zero": ("torsion", 1),
    "torsion.h_pair": ("torsion", 1),
    "torsion.mixed": ("torsion", 1),
    "torsion.reeb_pair": ("torsion", 1),
    # curvature of both connections
    "curvature.oracle_gate": ("cur1", 2),
    "curvature.reeb_curvature_lc": ("sas pro", 2),
    "curvature.annihilation_last": ("curvature", 2),
    "curvature.annihilation_middle": ("curvature1", 2),
    "curvature.annihilation_pair": ("curvature1", 2),
    "curvature.sym_first_pair": ("cur pro", 2),
    "curvature.sym_last_pair": ("cur pro", 2),
    "curvature.sym_pair_swap": ("curvature2", 2),
    "curvature.sym_bianchi": ("curvature2", 2),
    # algebraic vs differential curvature routes
    "cross_check.pure_h": ("cur1 2", 2),
    "cross_check.reeb_last": ("cur1 2", 2),
    "cross_check.reeb_pairs": ("cur1 2", 2),
    "cross_check.single_reeb": ("cur1 2", 2),
    "cross_check.generic": ("cur1 2", 2),
    "cross_check.gap_structure": ("cur1 2", 1),
    # traces
    "ricci.einstein_lc": ("ric", 2),
    "ricci.h_connection": ("ric", 2),
    "ricci.h_connection_measured": ("Ricci", 2),
    # sectional / holomorphic sectional
    "sectional.sphere_constant": ("sectional-def", 2),
    "sectional.plane_invariance": ("sectional-def", 2),
    "sectional.sec_rela": ("sec rela", 2),
    "sectional.holomorphic_constant": ("sum H", 2),
    "sectional.holomorphic_sum": ("sum H", 2),
    "sectional.tanno_sum": ("tanno", 2),
    "sectional.third_constant": ("cons2", 2),
    "sectional.cor_xxx": ("X X1 X2 X3", 2),
    # the plane-comparison polynomial
    "theorem_sec.h_case": ("sec", 2),
    "theorem_sec.sweep": ("sec", 2),
    "theorem_sec.reeb_case": ("sec", 2),
}


class VerificationRecord:
    def __init__(self, id, anchor, suite, kind="check", passed=None,
                 max_residual=None, tolerance=None, samples=0, details=None):
        self.id, self.anchor, self.suite, self.kind = id, anchor, suite, kind
        self.passed, self.max_residual, self.tolerance = passed, max_residual, tolerance
        self.samples = samples
        self.details = {} if details is None else details

    def as_dict(self):
        return dict(vars(self))


def make_record(rec_id, suite, **fields):
    """Build a record whose anchor comes from the static registry; the
    other fields are those of :class:`VerificationRecord`, the residual
    and the tolerance as floats."""
    if rec_id not in IDENTITY_REGISTRY:
        raise KeyError(f"record id {rec_id!r} is not in the identity registry")
    for key in ("max_residual", "tolerance"):
        if fields.get(key) is not None:
            fields[key] = float(fields[key])
    return VerificationRecord(id=rec_id, anchor=IDENTITY_REGISTRY[rec_id][0],
                              suite=suite, **fields)


def worst_residuals(pairs):
    """The largest residual under each key, keys in the order of their
    first pair.  ``pairs`` yields ``(key, residuals)``, one residual per
    sample row (a float for one sample).  The maximum over floats is
    exact and commutative, so the order of the pairs does not change a
    value; a NaN residual propagates, so its record fails."""
    worst = {}
    for key, res in pairs:
        m = res if isinstance(res, float) else np.asarray(res).max()
        w = worst.get(key, 0.0)
        worst[key] = m if m > w or m != m else w  # a NaN wins and then stays
    return {key: float(res) for key, res in worst.items()}


def build_records(suite, samples, pairs, tol, table=None):
    """The records of one suite: every registry id under its prefix
    (``cross-check`` -> ``cross_check.``), in registry order.

    ``pairs`` yields ``(key, residuals)`` as for :func:`worst_residuals`,
    each key one of those ids (else ``KeyError``: a misspelt id would
    leave its record at 0.0).  A record holds the worst residual under
    its id (0.0 if none), the tolerance of its order from ``tol =
    (tol_first, tol_second)``, its verdict against that tolerance, and
    ``samples`` samples.  ``table`` maps an id to :func:`make_record`
    fields that override these.
    """
    worst, table = worst_residuals(pairs), table or {}
    ids = [rid for rid in IDENTITY_REGISTRY if rid.startswith(suite.replace("-", "_") + ".")]
    stray = [key for key in worst if key not in ids]
    if stray:
        raise KeyError(f"residuals under {stray[0]!r}, no record id of suite {suite!r}")
    records = []
    for rid in ids:
        order = IDENTITY_REGISTRY[rid][1]
        fields = {"max_residual": worst.get(rid, 0.0), "samples": samples,
                  "tolerance": None if order is None else tol[order - 1],
                  **table.get(rid, {})}
        if "passed" not in fields:
            fields["passed"] = bool(fields["max_residual"] <= fields["tolerance"])
        records.append(make_record(rid, suite=suite, **fields))
    return records


class VerificationReport:
    def __init__(self, schema, config, conventions, suites, overall):
        # suites: name -> {"status": str, "records": [VerificationRecord]}
        self.schema, self.config, self.conventions = schema, config, conventions
        self.suites, self.overall = suites, overall

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
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def canonical_json(obj, indent=0):
    """Deterministic JSON: sorted object keys, floats at 17 significant
    digits, two-space indentation.  Byte-identical for equal inputs."""
    t = type(obj)  # the common cases by exact type, then the general chain
    if t is str:
        return encode_basestring_ascii(obj)
    if t is float:
        return _fmt_float(obj)
    if t is dict or t is list:
        if not obj:
            return "{}" if t is dict else "[]"
        pad, inner = "  " * indent, "  " * (indent + 1)
        if t is list:
            items = [inner + canonical_json(v, indent + 1) for v in obj]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        items = [inner + encode_basestring_ascii(str(k)) + ": "
                 + canonical_json(obj[k], indent + 1) for k in sorted(obj)]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple, dict)):
        return canonical_json((dict if isinstance(obj, dict) else list)(obj), indent)
    raise TypeError(f"cannot canonicalize value of type {type(obj).__name__}")
