"""Adiabatic-limit machinery: Berry frames, the slow propagator, diagnostics.

A driven system H(t) = H[R(t/tau)] on normalized time s = t/tau approaches,
for large tau, the adiabatic propagator

    U0(t) = sum_n sum_ab u0^n_ab(t) |n,a;t><n,b;0|,
    u0^n  = exp(i delta_n(t)) Gamma0^n(t),
    delta_n(t) = -integral_0^t E_n dt',

where Gamma0^n is the holonomy of the level's Berry connection.  U0 is
assembled from whatever smooth frame field is available; as an operator it is
independent of that gauge choice.  Every level follows one rule: its frames
come with their Gamma0, and no connection is integrated.

* in general, one ``transport_frames`` call follows all levels with
  parallel-transported eigenframes, whose connection vanishes, so Gamma0^n
  is the discrete Wilson line of the frames (``transport_holonomy``);
* a precessing drive H(s) = e^{-isG} H(0) e^{isG}, a scenario with a
  ``drive_generator`` G, is closed-form at any spin from one eigendecomposition
  of H(0): frames e^{-isG} F0, connection A = F0^dag G F0, Gamma0 = e^{isA}.

The energies E_n are the level eigenvalues the frames carry.  U(tau) follows
the same split: e^{-iG} e^{-i(tau H(0) - G)}, else this module's one
integration.  Frames and Gamma0 do not depend on tau: a ladder builds them once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import DomainError, LevelCrossingError, ResolutionError
from .frames import GENERATOR_CONSISTENCY_TOL, Curve, FrameField, OperatorFamily, transport_frames, transport_holonomy
from .linalg import HERMITICITY_TOL, _first_over_scale, eigh_many, expm_skew, level_bounds
from .phase import LevelTrace, level_trace
from .propagate import MatrixOdeProblem, PropagatorTrace, assemble_evolution, propagate_final

MIN_FULL_STEPS = 400  # the fewest steps the full propagator U(tau) takes


@dataclass(frozen=True)
class AdiabaticScenario:
    """Hamiltonian family along a normalized-time curve, traversed in duration tau."""

    family: OperatorFamily
    curve: Curve                      # parameterized by s in [0, 1]
    tau: float
    # optional Hermitian G (dim, dim) of a precessing drive H(s) = e^{-isG} H(0) e^{isG}: U0, U(tau) in closed form
    drive_generator: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise DomainError(f"tau must be finite and positive, got {self.tau!r}")
        if abs(self.curve.times[0]) > 1e-12 or abs(self.curve.times[-1] - 1.0) > 1e-12:
            raise DomainError("scenario curve must be parameterized by s in [0, 1]")
        if self.drive_generator is not None:  # held as a complex C-contiguous copy
            object.__setattr__(self, "drive_generator", np.array(self.drive_generator, dtype=complex))

    def with_tau(self, tau: float) -> "AdiabaticScenario":
        return replace(self, tau=tau)

    def s_grid(self, num_samples: int) -> np.ndarray:
        return np.linspace(0.0, 1.0, num_samples)

    def theta_at(self, ss: np.ndarray) -> np.ndarray:
        """Curve parameters at normalized times ss (m,) -> (m, N).

        Uses the curve's evaluator when present, otherwise linear
        interpolation between its samples.
        """
        ss = np.asarray(ss, dtype=float)
        if self.curve.evaluator is not None:
            return np.asarray(self.curve.evaluator(ss), dtype=float)
        pts, ts = self.curve.points, self.curve.times
        k = np.clip(np.searchsorted(ts, ss) - 1, 0, len(ts) - 2)
        w = ((ss - ts[k]) / (ts[k + 1] - ts[k]))[:, None]
        return (1 - w) * pts[k] + w * pts[k + 1]

    def hamiltonian_at(self, ss: np.ndarray) -> np.ndarray:
        """H at normalized times ss (m,) -> (m, dim, dim), one family call."""
        return self.family(self.theta_at(ss))

    def sampled_curve(self, num_samples: int) -> Curve:
        ss = self.s_grid(num_samples)
        return Curve(times=ss, points=self.theta_at(ss), cyclic=False, evaluator=self.curve.evaluator)


def _flow(ss: np.ndarray, k: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """exp(-i s K) rhs (d, l) at each s of ss (m,) as (m, d, l): phases (m, d) @ spectral terms (d, d * l)."""
    lam, vec = eigh_many(k)
    terms = vec.T[:, :, None] * (vec.conj().T @ rhs)[:, None, :]  # v_j v_j^dag rhs
    return (np.exp(-1j * np.outer(ss, lam)) @ terms.reshape(len(lam), -1)).reshape(len(ss), *rhs.shape)


def _level_holonomies(
    scenario: AdiabaticScenario,
    levels: Sequence[int] | None,
    num_samples: int,
) -> list[tuple[FrameField, np.ndarray]]:
    """Frames of each level (``None``: every level) on the s grid and their Gamma0 (m, l, l), by the one rule.

    A drive generator G must be finite, Hermitian, (dim, dim) and give the family at the curve's own
    samples, to GENERATOR_CONSISTENCY_TOL * max(1, max|G|) of each sample's scale.
    """
    if scenario.drive_generator is None:
        fields = transport_frames(scenario.family, scenario.sampled_curve(num_samples), levels)
        return [(f, transport_holonomy(f)) for f in fields]
    g, curve, dim = scenario.drive_generator, scenario.curve, scenario.family.dim
    if g.shape != (dim, dim) or not np.all(np.isfinite(g)) or _first_over_scale(
            np.abs(g - g.conj().T)[None], g[None], HERMITICITY_TOL) is not None:
        raise DomainError(f"drive_generator must be a finite Hermitian ({dim}, {dim}) matrix, got shape {g.shape}")
    hams = scenario.family(curve.points)
    rot = _flow(curve.times, g, np.eye(len(g), dtype=complex))
    mismatch = np.abs(rot @ hams[0] @ np.conj(np.swapaxes(rot, 1, 2)) - hams)
    k = _first_over_scale(mismatch, hams, GENERATOR_CONSISTENCY_TOL * max(1.0, float(np.max(np.abs(g)))))
    if k is not None:
        raise DomainError(f"drive_generator misses the family by {np.max(mismatch[k]):.3e} at s = {curve.times[k]:.6g}")
    vals, vecs = eigh_many(hams[0])
    bounds = level_bounds(vals[None])
    levels = range(len(bounds)) if levels is None else levels
    if bad := [level for level in levels if not 0 <= level < len(bounds)]:
        raise DomainError(f"level index {bad[0]} out of range; the family has {len(bounds)} levels")
    ss = scenario.s_grid(num_samples)
    frames = _flow(ss, g, vecs)  # e^{-isG} F0, every level at once
    out = []
    for level in levels:
        a, b = bounds[level]
        connection = vecs[:, a:b].conj().T @ g @ vecs[:, a:b]  # A, constant in s
        field = FrameField(level, b - a, ss, frames[:, :, a:b], np.full(len(ss), np.mean(vals[a:b])))
        out.append((field, _flow(ss, -connection, np.eye(b - a, dtype=complex))))  # Gamma0 = e^{isA}
    return out


def _dynamical_phases(scenario: AdiabaticScenario, frames: FrameField) -> np.ndarray:
    """delta_n(s_k) = -tau * integral_0^{s_k} E_n(s') ds', by the trapezoid rule."""
    e, ss = frames.eigenvalues, frames.times
    return -scenario.tau * np.concatenate([[0.0], np.cumsum(0.5 * (e[1:] + e[:-1]) * np.diff(ss))])


def _assemble_u0(scenario: AdiabaticScenario, fields: list[tuple[FrameField, np.ndarray]]) -> PropagatorTrace:
    """U0(t) on the grid t = tau * s from every level's frames, Gamma0 and dynamical phase."""
    phases = [np.exp(1j * _dynamical_phases(scenario, f))[:, None, None] for f, _ in fields]
    traces = [PropagatorTrace(f.times, gamma * u, "adiabatic", 0.0) for (f, gamma), u in zip(fields, phases)]
    trace_s = assemble_evolution([f for f, _ in fields], traces)
    return replace(trace_s, times=scenario.tau * trace_s.times)


def adiabatic_propagator(scenario: AdiabaticScenario, num_samples: int = 801) -> PropagatorTrace:
    """Assemble U0(t) on the grid t = tau * s from every level's frames, Gamma0 and dynamical phase."""
    return _assemble_u0(scenario, _level_holonomies(scenario, None, num_samples))


@dataclass(frozen=True)
class AdiabaticityReport:
    """Nonadiabatic couplings versus spectral gaps along the drive."""

    times: np.ndarray                       # physical times tau * s
    couplings: tuple[dict, ...]             # per sample: {(m, n): l_m x l_n matrix}
    min_gaps: np.ndarray                    # per sample: smallest |E_n - E_m|
    max_coupling: float                     # largest spectral norm of a coupling block
    summary_ratio: float                    # max over samples of that norm / min gap


def adiabaticity_report(scenario: AdiabaticScenario, num_samples: int = 201) -> AdiabaticityReport:
    """Couplings i <m,b| dH/dt |n,a> / (E_n - E_m) and the gap they compete with.

    Each coupling block is measured by its spectral norm, which a change of
    basis inside a degenerate level leaves unchanged; its largest entry would
    depend on the arbitrary basis that ``eigh_many`` returns.  One stacked
    ``eigh_many`` decomposes every sample, and ``level_bounds`` clusters its
    eigenvalues and raises at a level crossing.  A family of one level has no
    couplings: empty dicts, ``min_gaps`` inf and a ratio of 0.
    """
    if num_samples < 2:  # np.gradient's first-order edges need two samples
        raise ResolutionError("adiabaticity report needs at least 2 samples")
    ss = scenario.s_grid(num_samples)
    hams = scenario.hamiltonian_at(ss)  # validated by the family
    vals, vecs = eigh_many(hams)
    bounds = level_bounds(vals)
    energies = np.stack([np.mean(vals[:, a:b], axis=1) for a, b in bounds], axis=1)  # (m, levels)
    gaps = energies[:, None, :] - energies[:, :, None]  # gaps[k, m, n] = E_n - E_m
    off_diagonal = ~np.eye(len(bounds), dtype=bool)
    vanishing = np.argwhere((np.abs(gaps) < 1e-14) & off_diagonal)
    if vanishing.size:
        k, m, n = vanishing[0]
        raise LevelCrossingError(f"vanishing gap between levels {m} and {n} at sample {k}")

    dt = scenario.tau * np.gradient(ss)
    dh = np.gradient(hams, axis=0) / dt[:, None, None]
    frames = [vecs[:, :, a:b] for a, b in bounds]
    pairs = [(m, n) for m in range(len(bounds)) for n in range(len(bounds)) if m != n]
    blocks = [
        1j * (np.conj(np.swapaxes(frames[m], 1, 2)) @ dh @ frames[n]) / gaps[:, m, n, None, None]
        for m, n in pairs
    ]
    # the largest singular value of every block of every sample, (pairs, m); a single level has no pairs
    norms = np.reshape([np.linalg.svd(block, compute_uv=False)[:, 0] for block in blocks], (len(pairs), len(ss)))
    local_max = np.max(norms, axis=0, initial=0.0)
    min_gaps = np.min(np.abs(gaps[:, off_diagonal]), axis=1, initial=np.inf)
    return AdiabaticityReport(
        times=scenario.tau * ss,
        couplings=tuple({pair: block[k] for pair, block in zip(pairs, blocks)} for k in range(len(ss))),
        min_gaps=min_gaps,
        max_coupling=float(np.max(local_max)),
        summary_ratio=float(np.max(local_max / min_gaps)),
    )


def full_propagator(
    scenario: AdiabaticScenario,
    steps_per_time: float = 20.0,
    method: str = "magnus4",
) -> np.ndarray:
    """U(tau): e^{-iG} e^{-i(tau H(0) - G)} for a precessing drive, else an integration.

    The closed form trusts the scenario's ``drive_generator`` G (U0 checks it).
    Without G, i dU/dt = H(t) U is integrated over the full drive by ``method``
    on at least MIN_FULL_STEPS steps at ``steps_per_time``.
    """
    tau, g = scenario.tau, scenario.drive_generator
    if g is not None:
        rate = (g.view(float) / tau).view(complex)  # G / tau by real division, as numpy's complex one rounds apart
        return expm_skew(rate, tau) @ expm_skew(scenario.hamiltonian_at(np.zeros(1))[0] - rate, tau)
    steps = max(MIN_FULL_STEPS, int(np.ceil(tau * steps_per_time)))
    ts = np.linspace(0.0, tau, steps + 1)
    gen = lambda nodes: scenario.hamiltonian_at(nodes / tau)
    problem = MatrixOdeProblem(generator=gen, initial=np.eye(scenario.family.dim, dtype=complex), times=ts)
    return propagate_final(problem, method)


def convergence_study(
    scenario: AdiabaticScenario,
    tau_list: Sequence[float],
    num_samples: int = 801,
    steps_per_time: float = 20.0,
    method: str = "magnus4",
) -> list[tuple[float, float]]:
    """Defects |U(tau) - U0(tau)|_max along an increasing tau ladder.

    U(tau) comes from ``full_propagator``: closed-form for a precessing
    drive, or else ``method`` integrating the drive at ``steps_per_time``.
    U0's frames and Gamma0 are built once; each tau adds its dynamical phases.
    """
    taus = list(tau_list)
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise DomainError("tau_list must be increasing")
    fields = _level_holonomies(scenario, None, num_samples)
    out = []
    for tau in taus:
        scen = scenario.with_tau(tau)
        u_full = full_propagator(scen, steps_per_time=steps_per_time, method=method)
        u0 = _assemble_u0(scen, fields).final
        out.append((float(tau), float(np.max(np.abs(u_full - u0)))))
    return out


def adiabatic_noncyclic_phase(
    scenario: AdiabaticScenario,
    level: int,
    t: float | None = None,
    num_samples: int = 801,
) -> LevelTrace:
    """Noncyclic phase data of one level (0-based index) in the adiabatic limit up to time t.

    Built from the scenario's frame field up to the sample nearest t: w from
    the frames' overlaps with the first, Gamma by the module's one rule, and
    the dynamical phase at t from the energy quadrature; ``phase.level_trace``
    forms the rest, and its record holds the values at t.
    """
    if t is None:
        t = scenario.tau
    if not 0 <= t <= scenario.tau + 1e-12:
        raise DomainError("t must lie within the scenario duration")

    [(frames, gamma)] = _level_holonomies(scenario, (level,), num_samples)
    delta = _dynamical_phases(scenario, frames)
    n = int(np.argmin(np.abs(frames.times - t / scenario.tau))) + 1  # the samples up to the one nearest t
    f = frames.frames[:n]
    return level_trace(level + 1, scenario.tau * frames.times[:n], f[0].conj().T @ f, gamma[:n], float(delta[n - 1]))
