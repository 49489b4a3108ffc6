"""Exact-arithmetic toolkit for the enhanced adjoint action of GL_n.

The group GL_n acts on triples (B, C, A) of an n x p, a q x n and an n x n
matrix by g.(B, C, A) = (gB, C g^-1, g A g^-1).  This package evaluates the
generating invariants of that action, analyzes the quotient map (Jacobian
ranks, fiber reconstruction over regular semisimple spectra), and classifies
the null cone into its irreducible components with constructive
destabilization certificates.  Every computation is exact over the rationals;
no floating point, no root extraction.
"""

from ._kernels import backend_name
from .errors import (
    DegenerateSpectrumError,
    EadjointError,
    FiberConditionError,
    NotAMemberError,
    NotInNullConeError,
    ShapeError,
    SingularMatrixError,
)
from .invariants import (
    InvariantVector,
    Point,
    TangentVector,
    differential,
    evaluate_invariants,
    group_action,
    jacobian_matrix,
    jacobian_rank,
    nonclosed_image_demo,
    psi_map,
    sl_relation_check,
    word_invariants,
    zero_point,
)
from .linalg import (
    PolynomialCoeffs,
    RationalMatrix,
    Subspace,
    SubspaceRelation,
    char_poly,
    charpoly_from_power_sums,
    column_space,
    kernel_subspace,
    rref_decompose,
    subspace_compare,
    vandermonde_solve,
)
from .nullcone import (
    Certificate,
    ComponentInterval,
    OnePSG,
    UnstableSubset,
    Weight,
    adapted_certificate,
    check_certificate,
    component_certificates,
    component_interval,
    component_tangent_dim,
    enumerate_maximal_unstable,
    generic_orbit_witness,
    in_null_cone,
    nullcone_summary,
    sample_component,
    unstable_subspace,
    weights_of_W,
)
from .orbits import (
    StabilizerReport,
    is_regular_semisimple,
    reconstruct_fiber_point,
    same_closed_orbit,
    stabilizer,
)
from .verify import SUITE_NAMES, VerifyReport, run_suite, run_suites

__version__ = "0.1.0"

__all__ = [
    "backend_name",
    "DegenerateSpectrumError",
    "EadjointError",
    "FiberConditionError",
    "NotAMemberError",
    "NotInNullConeError",
    "ShapeError",
    "SingularMatrixError",
    "InvariantVector",
    "Point",
    "TangentVector",
    "differential",
    "evaluate_invariants",
    "group_action",
    "jacobian_matrix",
    "jacobian_rank",
    "nonclosed_image_demo",
    "psi_map",
    "sl_relation_check",
    "word_invariants",
    "zero_point",
    "PolynomialCoeffs",
    "RationalMatrix",
    "Subspace",
    "SubspaceRelation",
    "char_poly",
    "charpoly_from_power_sums",
    "column_space",
    "kernel_subspace",
    "rref_decompose",
    "subspace_compare",
    "vandermonde_solve",
    "Certificate",
    "ComponentInterval",
    "OnePSG",
    "UnstableSubset",
    "Weight",
    "adapted_certificate",
    "check_certificate",
    "component_certificates",
    "component_interval",
    "component_tangent_dim",
    "enumerate_maximal_unstable",
    "generic_orbit_witness",
    "in_null_cone",
    "nullcone_summary",
    "sample_component",
    "unstable_subspace",
    "weights_of_W",
    "StabilizerReport",
    "is_regular_semisimple",
    "reconstruct_fiber_point",
    "same_closed_orbit",
    "stabilizer",
    "SUITE_NAMES",
    "VerifyReport",
    "run_suite",
    "run_suites",
    "__version__",
]
