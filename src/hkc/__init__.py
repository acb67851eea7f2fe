"""Numerical verification of the adapted connection on round spheres
carrying three compatible contact structures.

The package builds the structure tensors exactly, differentiates them
with forward-mode dual numbers, and checks every identity of the adapted
connection and its curvature at randomly sampled points, reporting the
residuals in a deterministic machine-readable format.
"""

from .numlin import (
    CENTRAL_DIFFERENCE,
    EXACT_FORWARD,
    DegenerateInputError,
    DiffScheme,
    Dual,
    InternalConsistencyError,
    NumericError,
    PreconditionError,
    StructuralError,
    directional_derivative,
    dot,
    gram_schmidt,
    quaternion_structures,
)
from .records import (
    IDENTITY_REGISTRY,
    SCHEMA,
    VerificationRecord,
    VerificationReport,
    canonical_json,
    make_record,
    registry_gaps,
)
from .sphere3s import (
    SpherePoint,
    TangentVector,
    ThreeSasakiStructure,
)
# hkc.curvature is the submodule; the operator is hkc.connections.curvature
from .connections import (
    ConnectionKind,
    VectorField,
    cov_deriv,
    curvature4,
    h_form_gap,
    lie_bracket,
    nabla_bar_phi_defect,
    sasaki_defect,
    sphere_curvature_oracle,
    torsion,
)
from .curvature import (
    CurvatureSample,
    cor_xxx_data,
    cross_check_rbar,
    holomorphic_sectional_bar,
    rbar_algebraic,
    rbar_difference_tensor,
    rbar_quaternionic_projective,
    ricci,
    sec_rela_data,
    sectional,
    theorem_sec_data,
    two_route_gap_form,
    verify_symmetries,
)
from .harness import (
    RunConfig,
    SUITE_ORDER,
    format_text,
    main,
    resolve_conventions,
    run_suites,
    sample_point,
    sample_unit_H,
    sample_unit_tangent,
)

__version__ = "0.1.0"

__all__ = [
    "CENTRAL_DIFFERENCE",
    "EXACT_FORWARD",
    "IDENTITY_REGISTRY",
    "SCHEMA",
    "SUITE_ORDER",
    "ConnectionKind",
    "CurvatureSample",
    "DegenerateInputError",
    "DiffScheme",
    "Dual",
    "InternalConsistencyError",
    "NumericError",
    "PreconditionError",
    "RunConfig",
    "SpherePoint",
    "StructuralError",
    "TangentVector",
    "ThreeSasakiStructure",
    "VectorField",
    "VerificationRecord",
    "VerificationReport",
    "canonical_json",
    "cor_xxx_data",
    "cov_deriv",
    "cross_check_rbar",
    "curvature4",
    "directional_derivative",
    "dot",
    "format_text",
    "gram_schmidt",
    "h_form_gap",
    "holomorphic_sectional_bar",
    "lie_bracket",
    "main",
    "make_record",
    "nabla_bar_phi_defect",
    "quaternion_structures",
    "rbar_algebraic",
    "rbar_difference_tensor",
    "rbar_quaternionic_projective",
    "registry_gaps",
    "resolve_conventions",
    "ricci",
    "run_suites",
    "sample_point",
    "sample_unit_H",
    "sample_unit_tangent",
    "sasaki_defect",
    "sec_rela_data",
    "sectional",
    "sphere_curvature_oracle",
    "theorem_sec_data",
    "torsion",
    "two_route_gap_form",
    "verify_symmetries",
]
