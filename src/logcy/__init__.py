"""Exact combinatorial invariants of anti-canonical divisor cycles.

The package computes, with exact integer and rational arithmetic:
intersection forms and their signatures, boundary torus-bundle monodromy,
blow-up rewriting and bounded toric-equivalence search, the dual-cusp
construction for negative definite cycles, the convex/concave/no-boundary
trichotomy, and enumeration of anti-canonical sequences from the minimal
model catalog.
"""

from .divisor import (
    Descriptors,
    Divisor,
    InvalidDivisor,
    PreconditionError,
    SphereCycle,
    Torus,
    canonical_form,
    cycle,
    descriptors,
    dihedral_images,
    divisor_from_json,
    divisor_from_obj,
    divisor_to_obj,
    intersection_matrix,
    torus,
)
from .linalg import Inertia, determinant, inertia, nullspace, rank, solve_rational
from .monodromy import (
    BundleType,
    Monodromy,
    NotACycle,
    bundle_type,
    monodromy,
    nondegeneracy_by_trace,
)
from .moves import (
    LengthTooShort,
    Move,
    MoveWord,
    NonToricBlowUp,
    NotBlowDownable,
    ToricBlowDown,
    ToricBlowUp,
    apply_move,
    is_toric_minimal,
    moves_from_obj,
    moves_to_obj,
    non_toric_blow_up,
    toric_blow_down,
    toric_blow_up,
    toric_equivalent,
    toric_minimal_reduce,
)
from .homology import (
    AmbientBasis,
    LogCYPair,
    RuleCheck,
    check_constraints,
    complement_betti,
    pair_from_json,
    pair_from_obj,
    pair_to_obj,
    transport,
    validate_pair,
)
from .classify import (
    Classification,
    ContactType,
    DefinitenessPrediction,
    FillingProfile,
    RigidPattern,
    classification_report,
    classify,
    definiteness_shortcut,
    exact_on_boundary,
    filling_profile_check,
    i2_criterion,
    negative_definite,
    rigidity_witness,
)
from .duality import BlockForm, NotEligible, block_form, dual_cycle, elliptic_dual
from .enumeration import (
    Bounds,
    CatalogEntry,
    EnumRecord,
    ResourceLimit,
    UnknownWithinBounds,
    catalog,
    enumerate_anticanonical,
    is_anticanonical,
    minimal_model,
    sequence_obstructions,
    write_jsonl,
)

__version__ = "0.1.0"
