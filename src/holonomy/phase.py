"""Noncyclic geometric phase factors and their gauge-invariant scalars.

The central objects are, per degenerate level n,

    w^n     endpoint overlap matrix  w_ba = <b; start | a; end>
    Gamma^n holonomy matrix (path-ordered exponential of the connection)
    Gcheck  = w^n Gamma^n   the noncyclic geometric phase factor
    Pi^n    = trace(Gcheck) the gauge-invariant scalar

For a cyclic evolution w^n is the identity and Gcheck reduces to the cyclic
holonomy.  In the Abelian case (l_n = 1) the modulus of w is the visibility
and arg(Gcheck) the real noncyclic phase angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UndefinedPhaseError
from .linalg import require_unitary

VISIBILITY_FLOOR = 1e-12
OVERLAP_SINGULAR_TOL = 1e-10
IMAG_ROUNDOFF_FLOOR = 4 * np.finfo(float).eps  # absolute: the roundoff of a unit-scale trace
MODULUS_TIE_TOL = 1e-12  # eigenvalue moduli closer than this are ordered by argument


@dataclass(frozen=True)
class OverlapMatrix:
    """Endpoint frame overlap for one level; a contraction (singular values <= 1)."""

    level_index: int
    matrix: np.ndarray  # (l, l), w_ba = <b; start | a; end>

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)  # a copy: a view would keep its whole stack alive
        svals = np.linalg.svd(m, compute_uv=False)
        if svals.size and svals.max() > 1.0 + OVERLAP_SINGULAR_TOL:
            raise DomainError(f"overlap matrix has singular value {svals.max():.6f} > 1")
        object.__setattr__(self, "matrix", m)

    @property
    def multiplicity(self) -> int:
        return self.matrix.shape[0]


def overlap_matrix(
    frame_start: np.ndarray,
    frame_end: np.ndarray,
    level_index: int = 0,
) -> OverlapMatrix:
    """w_ba = <b; start | a; end> for two orthonormal frames of one level."""
    a = np.asarray(frame_start, dtype=complex)
    b = np.asarray(frame_end, dtype=complex)
    if a.shape != b.shape:
        raise DomainError(f"frame shapes differ: {a.shape} vs {b.shape}")
    return OverlapMatrix(level_index=level_index, matrix=a.conj().T @ b)


def wrap_angle(angle: float | np.ndarray) -> float | np.ndarray:
    """Reduce an angle, or each angle of an array, to (-pi, pi]."""
    out = np.mod(angle + np.pi, 2 * np.pi) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    return float(out) if np.ndim(angle) == 0 else out


def phase_angles(pi: complex | np.ndarray) -> float | np.ndarray:
    """arg of one Abelian phase factor, or of each of a stack, wrapped to (-pi, pi].

    An imaginary part smaller than IMAG_ROUNDOFF_FLOOR is roundoff of a real
    factor and reads as zero, so a negative real Pi reads +pi whatever the
    sign its roundoff took.  The floor is absolute: the roundoff of a
    product of unit-scale factors does not shrink with |Pi|.
    """
    pi = np.asarray(pi, dtype=complex)
    real = np.abs(pi.imag) < IMAG_ROUNDOFF_FLOOR
    return wrap_angle(np.angle(np.where(real, pi.real + 0j, pi)))


def unwrap_nearest_branch(angles: np.ndarray) -> np.ndarray:
    """Cumulative unwrapping: each angle shifted by 2*pi*k to follow its predecessor.

    Each step adds its jump rounded to whole turns, ties to even: a jump of
    exactly half a turn, with two equally near branches, adds none.
    """
    angles = np.asarray(angles, dtype=float)
    turns = np.concatenate([[0.0], np.cumsum(np.round(-np.diff(angles) / (2 * np.pi)))])
    return angles + 2 * np.pi * turns


def _sorted_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Eigenvalues ordered by descending modulus, then ascending argument.

    Neighbouring moduli closer than ``MODULUS_TIE_TOL`` count as equal, so the
    eigenvalues of a unitary, whose moduli are 1 up to roundoff, are ordered
    by argument alone.
    """
    ev = np.linalg.eigvals(m)
    ev = ev[np.argsort(-np.abs(ev), kind="stable")]
    tie_group = np.concatenate([[0], np.cumsum(-np.diff(np.abs(ev)) >= MODULUS_TIE_TOL)])
    return ev[np.lexsort((np.angle(ev), tie_group))]


@dataclass(frozen=True)
class PhaseReport:
    """Geometric-phase data for one level at one endpoint time."""

    level_index: int
    multiplicity: int
    gamma: np.ndarray                 # holonomy matrix (l, l)
    w: OverlapMatrix
    gamma_check: np.ndarray           # w * gamma
    pi: complex                       # trace(w * gamma)
    eigenvalues: np.ndarray           # eigenvalues of gamma_check, sorted
    # Abelian-only angles (radians); None for degenerate levels
    phase_angle: float | None = None      # arg(w * gamma)
    overlap_angle: float | None = None    # arg(w)
    holonomy_angle: float | None = None   # arg(gamma)
    visibility: float | None = None       # |w|
    dynamical_phase: float | None = None  # -integral of E^n, when supplied

    def to_record(self) -> dict:
        """Flat serializable record (complex values split into re_/im_)."""
        rec: dict = {
            "level": self.level_index,
            "multiplicity": self.multiplicity,
            "re_pi": self.pi.real,
            "im_pi": self.pi.imag,
            "abs_pi": abs(self.pi),
        }
        for i, ev in enumerate(self.eigenvalues, start=1):
            rec[f"re_eig{i}"] = ev.real
            rec[f"im_eig{i}"] = ev.imag
        if self.visibility is not None:
            rec["visibility"] = self.visibility
        if self.phase_angle is not None:
            rec["phase_angle"] = self.phase_angle
        if self.overlap_angle is not None:
            rec["overlap_angle"] = self.overlap_angle
        if self.holonomy_angle is not None:
            rec["holonomy_angle"] = self.holonomy_angle
        if self.dynamical_phase is not None:
            rec["dynamical_phase"] = self.dynamical_phase
        return rec


def noncyclic_phase(
    w: OverlapMatrix,
    gamma: np.ndarray,
    dynamical_phase: float | None = None,
) -> PhaseReport:
    """Combine an endpoint overlap with a holonomy into a phase report.

    Gcheck = w Gamma is generally not unitary (its eigenvalues live inside the
    unit disc); they are computed with a general complex eigensolver and
    ordered deterministically.
    """
    gamma = np.array(gamma, dtype=complex)  # a copy, as in OverlapMatrix
    if gamma.shape != w.matrix.shape:
        raise DomainError(f"gamma shape {gamma.shape} does not match overlap {w.matrix.shape}")
    gcheck = w.matrix @ gamma
    pi = complex(np.trace(gcheck))
    eigs = _sorted_eigenvalues(gcheck)
    l = w.multiplicity

    if l == 1:
        wval = complex(w.matrix[0, 0])
        gval = complex(gamma[0, 0])
        visibility = abs(wval)
        phase_angle, overlap_angle, holonomy_angle = map(float, phase_angles(np.array([wval * gval, wval, gval])))
        if visibility <= VISIBILITY_FLOOR:
            phase_angle = overlap_angle = None
        return PhaseReport(
            level_index=w.level_index,
            multiplicity=1,
            gamma=gamma,
            w=w,
            gamma_check=gcheck,
            pi=pi,
            eigenvalues=eigs,
            phase_angle=phase_angle,
            overlap_angle=overlap_angle,
            holonomy_angle=holonomy_angle,
            visibility=visibility,
            dynamical_phase=dynamical_phase,
        )

    return PhaseReport(
        level_index=w.level_index,
        multiplicity=l,
        gamma=gamma,
        w=w,
        gamma_check=gcheck,
        pi=pi,
        eigenvalues=eigs,
        dynamical_phase=dynamical_phase,
    )


def abelian_phase(w: complex, gamma: complex) -> tuple[float, float]:
    """(phase angle, visibility) for a nondegenerate level.

    The angle is arg(w * gamma) in (-pi, pi], the sum of the endpoint-overlap
    angle and the holonomy angle; the visibility is |w|.  A vanishing overlap
    leaves the angle undefined: a visibility at or below VISIBILITY_FLOOR raises.
    """
    visibility = abs(w)
    if visibility <= VISIBILITY_FLOOR:
        raise UndefinedPhaseError("endpoint states are orthogonal; the noncyclic phase is undefined")
    return phase_angles(w * gamma), visibility


def diagonal_decomposition(
    gamma: np.ndarray,
    frame_end: np.ndarray,
    frame_start: np.ndarray,
) -> list[tuple[float, complex]]:
    """Eigenphases of a unitary holonomy with their star-basis overlap weights.

    Returns pairs (gamma_a, weight_a) such that sum_a exp(i gamma_a) * weight_a
    equals trace(w Gamma); the weights are the diagonal endpoint overlaps in
    the basis where Gamma is diagonal.
    """
    gamma = require_unitary(np.asarray(gamma, dtype=complex), name="holonomy")
    w = overlap_matrix(frame_start, frame_end).matrix
    # LAPACK geev back-substitutes the Schur form T = Z^dag Gamma Z, so eig's vectors
    # are Z X with X upper triangular and their QR gives Z up to column phases.  Gamma
    # is normal, so T is diagonal and Z is an orthonormal eigenbasis, degenerate
    # eigenspaces included: the complex Schur decomposition without scipy.
    eigs, vecs = np.linalg.eig(gamma)
    s = np.linalg.qr(vecs)[0]
    w_star = s.conj().T @ w @ s
    pairs = [(wrap_angle(float(np.angle(eigs[a]))), complex(w_star[a, a])) for a in range(len(eigs))]
    pairs.sort(key=lambda p: (-abs(p[1]), p[0]))
    return pairs
