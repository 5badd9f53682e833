"""Constructive, verifiable relaxation of the ideal-Ohm constraint set.

The library answers three questions about field triples z = (B, u, E):

* membership: is z on the constraint set {E = B x u, |B| = r, |u| = s},
  in the oscillation cone, or in the relaxed (mixing) set?
* separation: which convex/cone-affine function certifies exclusion?
* construction: which two constraint-set states mix to give z, and do
  plane waves / staircase oscillations realise that mixing under the
  underlying conservation laws?
"""

from .core import (
    ConeKind,
    DEFAULT_TOLERANCES,
    HullParams,
    SeparationWitness,
    Tolerances,
    Triple,
    Vec3,
    eval_g1,
    eval_g2,
    eval_g3,
    hull_excess_bound,
    in_constraint_set,
    in_hull,
    in_wave_cone,
    separation_witness,
    unit_perpendicular,
    unit_perpendicular_to_all,
)
from .laminate import (
    Decomposition,
    DecompositionError,
    NotInHullError,
    VerificationReport,
    decompose,
    verify_decomposition,
)
from .oracle import (
    HullCheckReport,
    SampleConfig,
    sample_K,
    sample_first_laminate,
    sample_hull,
    sample_lambda_pair,
    two_sided_hull_check,
    write_samples_csv,
)
from .planewave import (
    GridResidualReport,
    GridSpec,
    LatticeError,
    NotInConeError,
    StaircaseReport,
    WaveVector,
    grid_residual,
    plane_wave_conditions,
    refinement_study,
    round_to_lattice,
    staircase_average,
    wave_vector_for,
)

__version__ = "0.1.0"

__all__ = [
    "ConeKind", "DEFAULT_TOLERANCES", "HullParams", "SeparationWitness",
    "Tolerances", "Triple", "Vec3", "eval_g1", "eval_g2", "eval_g3",
    "hull_excess_bound", "in_constraint_set", "in_hull", "in_wave_cone",
    "separation_witness", "unit_perpendicular", "unit_perpendicular_to_all",
    "Decomposition", "DecompositionError", "NotInHullError",
    "VerificationReport", "decompose", "verify_decomposition",
    "HullCheckReport", "SampleConfig",
    "sample_K", "sample_first_laminate", "sample_hull", "sample_lambda_pair",
    "two_sided_hull_check", "write_samples_csv",
    "GridResidualReport", "GridSpec", "LatticeError", "NotInConeError",
    "StaircaseReport", "WaveVector", "grid_residual", "plane_wave_conditions",
    "refinement_study", "round_to_lattice", "staircase_average",
    "wave_vector_for",
    "__version__",
]
