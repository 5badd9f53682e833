"""Constructive, verifiable relaxation of the ideal-Ohm constraint set.

The library answers three questions about field triples z = (B, u, E):

* membership: is z on the constraint set {E = B x u, |B| = r, |u| = s},
  in the oscillation cone, or in the relaxed (mixing) set?
* separation: which convex/cone-affine function certifies exclusion?
* construction: which two constraint-set states mix to give z, and do
  plane waves / staircase oscillations realise that mixing under the
  underlying conservation laws?

The per-point API, core and laminate, is imported with the package and
needs no numpy.  The samplers and the campaign (oracle), the plane-wave
layer (planewave) and the command line (cli) load on first use: each
submodule is registered unexecuted and runs when one of its attributes is
first read, and each of their names here is looked up in its module on
first access (PEP 562) and then bound, so numpy is imported only when a
sampler, a campaign or a grid asks for it.
"""

import importlib.util
import sys

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


def _lazy_submodule(name: str):
    """The submodule dynamohull.<name>, registered in sys.modules but executed
    only when one of its attributes is first read."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Registered rather than imported from __getattr__, so that code which looks a
# layer up in sys.modules, as perfbench/tracing.py does, finds all five.
cli, oracle, planewave = map(_lazy_submodule, ("cli", "oracle", "planewave"))

# The names defined by a lazy submodule, and which one.
_LAZY = {
    **dict.fromkeys(("HullCheckReport", "SampleConfig", "sample_K", "sample_first_laminate",
                     "sample_hull", "sample_lambda_pair", "two_sided_hull_check",
                     "write_samples_csv"), oracle),
    **dict.fromkeys(("GridResidualReport", "GridSpec", "LatticeError", "NotInConeError",
                     "StaircaseReport", "WaveVector", "grid_residual", "plane_wave_conditions",
                     "refinement_study", "round_to_lattice", "staircase_average",
                     "wave_vector_for"), planewave),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_LAZY[name], name)
    return value


def __dir__():
    return list(__all__)


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
