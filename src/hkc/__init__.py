"""Numerical verification of the adapted connection on round spheres
carrying three compatible contact structures.

The package builds the structure tensors exactly, differentiates them
with forward-mode dual numbers, and checks every identity of the adapted
connection and its curvature at randomly sampled points, reporting the
residuals in a deterministic machine-readable format.
"""

from types import ModuleType as _ModuleType

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
    h_form_gap,
    lie_bracket,
    sphere_curvature_oracle,
    torsion,
)
from .curvature import (
    CurvatureSample,
    cross_check_rbar,
    holomorphic_sectional_bar,
    rbar_algebraic,
    rbar_difference_tensor,
    rbar_quaternionic_projective,
    ricci,
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

# every name imported above, none of them a submodule
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and not isinstance(value, _ModuleType))
