"""Return-map model, pair searches, and covering certificates for
coindex-1 heterodimensional cycle data.

Workflow: declare a `CycleSpec` (coefficients) and `Moduli` (arithmetic of
the conjugacy invariants), classify the case, search for return pairs whose
central coefficients accumulate correctly, certify the covering property,
and either simulate the certificate or, for fully rational moduli, check
the exclusion conditions that force simple hyperbolic dynamics instead.
"""

from .arithmetic import (
    PairSequence,
    ResidueWitness,
    SearchWindow,
    TorusTarget,
    check_A1,
    check_A2,
    eval_gh,
    search_pairs,
    target_admissible,
)
from .blender_certifier import (
    ActivationReport,
    BlenderCertificate,
    CoveringSimReport,
    certify,
    check_activation,
    recheck_witness,
    simulate_covering,
)
from .cycle_model import (
    CaseTag,
    CycleSpec,
    CycleType,
    DependenceRelation,
    IRRATIONAL,
    Moduli,
    RationalClass,
    ValidationReport,
    classify_case,
    compute_theta,
    load_spec_document,
    moduli_from_declarations,
    validate_nondegeneracy,
)
from .errors import (
    AmbiguousClassification,
    BandViolation,
    BlenderForgeError,
    CoverageGap,
    DomainError,
    KindMismatch,
    NoImageInCube,
    NotApplicable,
    NotRational,
    OutsideWindows,
    PoleError,
    WindowExhausted,
)
from .return_map import (
    ConeReport,
    CrossMapModel,
    ReturnCoeffs,
    build_model,
    coeffs,
    verify_cones,
)
from .simple_dynamics import (
    BruteScanResult,
    ExclusionReport,
    TruncationRanges,
    brute_scan,
    exclusion_elements,
    exclusion_sets,
    simple_verdict,
)
from .unfolding import (
    MuPoint,
    MuWindow,
    RelationReport,
    find_mu_sequence,
    homoclinic_report,
    window_s,
    window_u,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationReport", "AmbiguousClassification", "BandViolation",
    "BlenderCertificate", "BlenderForgeError", "BruteScanResult", "CaseTag",
    "ConeReport", "CoverageGap", "CoveringSimReport", "CrossMapModel",
    "CycleSpec", "CycleType", "DependenceRelation", "DomainError",
    "ExclusionReport", "IRRATIONAL", "KindMismatch",
    "Moduli", "MuPoint", "MuWindow", "NoImageInCube",
    "NotApplicable", "NotRational", "OutsideWindows", "PairSequence",
    "PoleError", "RationalClass", "RelationReport",
    "ResidueWitness", "ReturnCoeffs", "SearchWindow", "TorusTarget", "TruncationRanges", "ValidationReport", "WindowExhausted",
    "brute_scan", "build_model", "certify", "check_A1", "check_A2",
    "check_activation", "classify_case", "coeffs", "compute_theta",
    "eval_gh", "exclusion_elements", "exclusion_sets", "find_mu_sequence",
    "homoclinic_report", "load_spec_document", "moduli_from_declarations",
    "recheck_witness", "search_pairs", "simple_verdict", "simulate_covering",
    "target_admissible", "validate_nondegeneracy", "verify_cones",
    "window_s", "window_u",
]
