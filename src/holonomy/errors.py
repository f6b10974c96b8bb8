"""Exception hierarchy shared across the library and mapped to CLI exit codes."""

from __future__ import annotations


class HolonomyError(Exception):
    """Base class for all library errors."""


class StructuralError(HolonomyError):
    """An input matrix violates a structural invariant (hermiticity, unitarity)."""


class DomainError(HolonomyError):
    """Arguments are outside the mathematical domain of an operation."""


class AxisSingularityError(DomainError):
    """Field point on the symmetry axis, where the eigenframe is undefined."""


class LevelCrossingError(HolonomyError):
    """Level multiplicity changed, or a spectral gap closed, along the curve."""


class ResolutionError(HolonomyError):
    """Sampling or step size too coarse for the requested computation."""


class ConfigError(HolonomyError):
    """Invalid or incomplete run configuration."""
