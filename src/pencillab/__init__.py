"""pencillab: singular pencils, Kronecker structure, Taylor spectra and
joint numerical ranges of complex matrix pairs, with every nontrivial
computation backed by an independent cross-check."""

from .config import DEFAULT_TOL, ToleranceConfig
from .errors import (
    DecompositionError,
    EqualityConditionFails,
    ImplicationViolated,
    InconsistentSingularityEvidence,
    InvalidMatrix,
    InvalidStructure,
    NotCommuting,
    NotInvertible,
    NotSingular,
    OracleDisagreement,
    PencilLabError,
    RankDecisionUnstable,
    SingularPencil,
    TransformUnavailable,
)
from .pencil import Pencil, as_matrix
from .linalg import (
    SpectrumList,
    determinant,
    eigenvalues,
    null_space,
    numerical_rank,
    pencil_eigenvalues,
    svd,
)
from .kronecker import (
    EquivalencePair,
    KroneckerStructure,
    SingularityEvidence,
    assemble,
    build_block,
    canonical_transforms,
    direct_sum,
    is_singular,
    normal_rank,
    scramble,
    staircase_structure,
    structures_match,
)
from .koszul import (
    ConditionMatrix,
    KoszulAssessment,
    TaylorSpectrum,
    check_commuting,
    commuting_analysis,
    commuting_structure,
    condition_matrix,
    invertible_shift_pair,
    koszul_at,
    shift_truncation_pair,
    spectra_match,
    spectrum_invertible_characterization,
    spectrum_via_singularity,
    taylor_spectrum,
)
from .numrange import (
    ConvHullMembership,
    InsideCertificate,
    IsotropicCertificate,
    SeparationCertificate,
    conv_hull_membership,
    is_doubly_commuting,
    isotropic_from_singular,
    isotropic_search,
    jnr_sample,
    nr_contains,
    pencil_nr_is_plane,
)
from .commuting import (
    IntertwinerPattern,
    MultiplierSearchResult,
    commuting_feasible,
    construct_multiplier,
    intertwiner_pattern,
    intertwiner_space,
    is_equality_case,
    matches_pattern,
    pattern_parameter_count,
    search_multiplier,
    verify_necessity,
)

__version__ = "0.1.0"
