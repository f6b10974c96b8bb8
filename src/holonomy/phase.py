"""Noncyclic geometric phase factors and their gauge-invariant scalars.

The central objects are, per degenerate level n,

    w^n     endpoint overlap matrix  w_ba = <b; start | a; end>
    Gamma^n holonomy matrix (path-ordered exponential of the connection)
    Gcheck  = w^n Gamma^n   the noncyclic geometric phase factor
    Pi^n    = trace(Gcheck) the gauge-invariant scalar

For a cyclic evolution w^n is the identity and Gcheck reduces to the cyclic
holonomy.  In the Abelian case (l_n = 1) the modulus of w is the visibility
and arg(Gcheck) the real noncyclic phase angle.  One rule, ``level_trace``,
forms all of these from a level's w and Gamma stacks, one matrix per sample;
its endpoint record is their last row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .linalg import _stack_last, _stack_matmul, require_unitary, unitarity_defects

VISIBILITY_FLOOR = 1e-12
OVERLAP_SINGULAR_TOL = 1e-10
IMAG_ROUNDOFF_FLOOR = 4 * np.finfo(float).eps  # absolute: the roundoff of a unit-scale trace
MODULUS_TIE_TOL = 1e-12  # eigenvalue moduli closer than this are ordered by argument


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
class LevelTrace:
    """Per-sample phase data of one level along the run, and its endpoint record."""

    label: int                      # 1-based level label
    multiplicity: int
    times: np.ndarray
    pi: np.ndarray                  # complex, per sample
    unitarity_defects: np.ndarray
    record: dict                    # the summary.json level record, read from the last sample
    phase_angles: np.ndarray | None = None       # Abelian, wrapped
    phase_unwrapped: np.ndarray | None = None    # Abelian, cumulative
    visibilities: np.ndarray | None = None
    oracle_gamma_deviation: float | None = None
    oracle_trace_deviation: float | None = None
    min_overlap_singular_value: float | None = None  # transported frames only
    cyclic_misalignment: float | None = None         # transported frames on a loop


def level_trace(
    label: int,
    times: np.ndarray,
    w: np.ndarray,
    gammas: np.ndarray,
    dynamical_phase: float | None,
    **diagnostics,
) -> LevelTrace:
    """The phase data of one level from its overlap and holonomy stacks (m, l, l), whichever route made them.

    Pi = tr(w Gamma) per sample and the Gram defects of Gamma; an Abelian
    level adds arg(w Gamma), its nearest-branch unwrapping and the
    visibility |w|.  The endpoint record is the last row of these plus the
    eigenvalues of w Gamma there, which is generally not unitary (they lie
    in the unit disc), sorted deterministically.  The last w must be a
    contraction (singular values <= 1), and an Abelian record leaves out the
    phase and overlap angles of a visibility at or below VISIBILITY_FLOOR.
    """
    if w.shape != gammas.shape:
        raise DomainError(f"gamma stack shape {gammas.shape} does not match overlap stack {w.shape}")
    svals = np.linalg.svd(w[-1], compute_uv=False)
    if svals.max() > 1.0 + OVERLAP_SINGULAR_TOL:
        raise DomainError(f"overlap matrix has singular value {svals.max():.6f} > 1")
    # w Gamma with the stack axis innermost, where numpy's loops run over the samples, not per tiny matrix
    pis = np.trace(_stack_matmul(_stack_last(w), _stack_last(gammas)))
    pi = complex(pis[-1])
    record = {"level": label, "multiplicity": w.shape[1], "re_pi": pi.real, "im_pi": pi.imag, "abs_pi": abs(pi)}
    for i, ev in enumerate(_sorted_eigenvalues(w[-1] @ gammas[-1]), start=1):
        record[f"re_eig{i}"] = ev.real
        record[f"im_eig{i}"] = ev.imag
    if w.shape[1] == 1:
        angles = phase_angles(pis)
        visibilities = np.abs(w[:, 0, 0])
        diagnostics.update(phase_angles=angles, phase_unwrapped=unwrap_nearest_branch(angles), visibilities=visibilities)
        overlap_angle, holonomy_angle = map(float, phase_angles(np.array([w[-1, 0, 0], gammas[-1, 0, 0]])))
        record["visibility"] = float(visibilities[-1])
        if visibilities[-1] > VISIBILITY_FLOOR:
            record.update(phase_angle=float(angles[-1]), overlap_angle=overlap_angle)
        record["holonomy_angle"] = holonomy_angle
    if dynamical_phase is not None:
        record["dynamical_phase"] = dynamical_phase
    return LevelTrace(
        label=label,
        multiplicity=w.shape[1],
        times=times,
        pi=pis,
        unitarity_defects=unitarity_defects(gammas),
        record=record,
        **diagnostics,
    )


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
    a = np.asarray(frame_start, dtype=complex)
    b = np.asarray(frame_end, dtype=complex)
    if a.shape != b.shape:
        raise DomainError(f"frame shapes differ: {a.shape} vs {b.shape}")
    w = a.conj().T @ b
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
