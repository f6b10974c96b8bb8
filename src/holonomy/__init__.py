"""Geometric phases for driven finite-dimensional quantum systems.

Abelian and non-Abelian, cyclic and noncyclic geometric phase factors
computed through smooth eigenframe transport and structure-preserving
unitary integration, with a closed-form spin-1 quadrupole solution as
built-in ground truth.  Units: hbar = 1 throughout; energies and times
in reciprocal units; angles in radians.
"""

from .errors import (
    AxisSingularityError,
    ConfigError,
    DomainError,
    HolonomyError,
    LevelCrossingError,
    ResolutionError,
    StructuralError,
)
from .linalg import expm_skew
from .frames import (
    Curve,
    FrameField,
    OperatorFamily,
    apply_gauge,
    curve_from_function,
    family_from_generators,
    transport_frames,
    verify_invariant,
)
from .propagate import (
    MatrixOdeProblem,
    PropagatorTrace,
    assemble_V,
    assemble_evolution,
    lewis_riesenfeld_u,
    propagate,
    propagate_final,
)
from .phase import LevelTrace, diagonal_decomposition, level_trace
from .adiabatic import (
    AdiabaticScenario,
    AdiabaticityReport,
    adiabatic_noncyclic_phase,
    adiabatic_propagator,
    adiabaticity_report,
    convergence_study,
)
from . import quadrupole

__all__ = [
    "AxisSingularityError",
    "ConfigError",
    "DomainError",
    "HolonomyError",
    "LevelCrossingError",
    "ResolutionError",
    "StructuralError",
    "expm_skew",
    "Curve",
    "FrameField",
    "OperatorFamily",
    "apply_gauge",
    "curve_from_function",
    "family_from_generators",
    "transport_frames",
    "verify_invariant",
    "MatrixOdeProblem",
    "PropagatorTrace",
    "assemble_V",
    "assemble_evolution",
    "lewis_riesenfeld_u",
    "propagate",
    "propagate_final",
    "LevelTrace",
    "diagonal_decomposition",
    "level_trace",
    "AdiabaticScenario",
    "AdiabaticityReport",
    "adiabatic_noncyclic_phase",
    "adiabatic_propagator",
    "adiabaticity_report",
    "convergence_study",
    "quadrupole",
]

__version__ = "0.1.0"
