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

* without a hook, one ``transport_frames`` call follows all levels with
  parallel-transported eigenframes, whose connection vanishes, so Gamma0^n
  is the discrete Wilson line of the frames (``transport_holonomy``);
* a scenario's ``level_fn`` hook supplies analytic frames together with
  their Gamma0 in closed form.

The energies E_n are the level eigenvalues the frames carry.  The full
propagator U(tau) that U0 is compared with follows the same split: a
scenario's ``propagator_fn`` hook supplies it in closed form (the quadrupole's
rotating-frame product), and without the hook it is the one thing here that
runs an integrator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, LevelCrossingError, ResolutionError
from .frames import Curve, FrameField, OperatorFamily, transport_frames, transport_holonomy
from .linalg import eigh_many, level_bounds
from .phase import PhaseReport, noncyclic_phase, overlap_matrix
from .propagate import MatrixOdeProblem, PropagatorTrace, assemble_evolution, propagate_final

MIN_FULL_STEPS = 400  # the fewest steps the full propagator U(tau) takes


@dataclass(frozen=True)
class AdiabaticScenario:
    """Hamiltonian family along a normalized-time curve, traversed in duration tau."""

    family: OperatorFamily
    curve: Curve                      # parameterized by s in [0, 1]
    tau: float
    # optional analytic hook: (level, s grid (m,)) -> (the level's frames on the grid,
    # their holonomy Gamma0 (m, l, l) from s = 0)
    level_fn: Callable[[int, np.ndarray], tuple[FrameField, np.ndarray]] | None = None
    # optional analytic hook: tau -> the full propagator U(tau) (dim, dim) of the drive
    # traversed in duration tau; full_propagator returns it and integrates nothing
    propagator_fn: Callable[[float], np.ndarray] | None = None

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise DomainError(f"tau must be finite and positive, got {self.tau!r}")
        if abs(self.curve.times[0]) > 1e-12 or abs(self.curve.times[-1] - 1.0) > 1e-12:
            raise DomainError("scenario curve must be parameterized by s in [0, 1]")

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


def _level_holonomies(
    scenario: AdiabaticScenario,
    levels: Sequence[int],
    num_samples: int,
) -> list[tuple[FrameField, np.ndarray]]:
    """Frames of each level on the s grid and their holonomy Gamma0 (m, l, l), by the module's one rule."""
    if scenario.level_fn is None:
        fields = transport_frames(scenario.family, scenario.sampled_curve(num_samples), levels)
        return [(f, transport_holonomy(f)) for f in fields]
    ss = scenario.s_grid(num_samples)
    return [scenario.level_fn(level, ss) for level in levels]


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _dynamical_phases(scenario: AdiabaticScenario, frames: FrameField) -> np.ndarray:
    """delta_n(s_k) = -tau * integral_0^{s_k} E_n(s') ds'."""
    return -scenario.tau * _cumulative_trapezoid(frames.eigenvalues, frames.times)


def adiabatic_propagator(scenario: AdiabaticScenario, num_samples: int = 801) -> PropagatorTrace:
    """Assemble U0(t) on the grid t = tau * s from every level's frames, Gamma0 and dynamical phase."""
    num_levels = len(level_bounds(eigh_many(scenario.hamiltonian_at(np.zeros(1)))[0]))

    frame_fields: list[FrameField] = []
    traces: list[PropagatorTrace] = []
    for frames, gamma in _level_holonomies(scenario, range(num_levels), num_samples):
        u = gamma * np.exp(1j * _dynamical_phases(scenario, frames))[:, None, None]
        traces.append(PropagatorTrace(times=frames.times, matrices=u, method="adiabatic", max_step_norm=0.0))
        frame_fields.append(frames)
    trace_s = assemble_evolution(frame_fields, traces)
    return replace(trace_s, times=scenario.tau * trace_s.times)


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
    eigenvalues and raises at a level crossing.
    """
    if num_samples < 3:
        raise ResolutionError("adiabaticity report needs at least 3 samples")
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
    # the largest singular value of every block of every sample, (m, pairs)
    norms = np.stack([np.linalg.svd(block, compute_uv=False)[:, 0] for block in blocks], axis=1)
    local_max = np.max(norms, axis=1)
    min_gaps = np.min(np.abs(gaps[:, off_diagonal]), axis=1)
    return AdiabaticityReport(
        times=scenario.tau * ss,
        couplings=tuple(dict(zip(pairs, sample)) for sample in zip(*blocks)),
        min_gaps=min_gaps,
        max_coupling=float(np.max(local_max)),
        summary_ratio=float(np.max(local_max / min_gaps)),
    )


def full_propagator(
    scenario: AdiabaticScenario,
    steps_per_time: float = 20.0,
    method: str = "magnus4",
) -> np.ndarray:
    """U(tau): the scenario's ``propagator_fn`` hook when it has one, else an integration.

    Without the hook, i dU/dt = H(t) U is integrated over the full drive by
    ``method`` on at least MIN_FULL_STEPS steps; ``steps_per_time`` and
    ``method`` apply to that integration only.
    """
    if scenario.propagator_fn is not None:
        return scenario.propagator_fn(scenario.tau)
    steps = max(MIN_FULL_STEPS, int(np.ceil(scenario.tau * steps_per_time)))
    ts = np.linspace(0.0, scenario.tau, steps + 1)
    gen = lambda nodes: scenario.hamiltonian_at(nodes / scenario.tau)
    dim = scenario.family.dim
    problem = MatrixOdeProblem(generator=gen, initial=np.eye(dim, dtype=complex), times=ts)
    return propagate_final(problem, method)


def convergence_study(
    scenario: AdiabaticScenario,
    tau_list: Sequence[float],
    num_samples: int = 801,
    steps_per_time: float = 20.0,
    method: str = "magnus4",
) -> list[tuple[float, float]]:
    """Defects |U(tau) - U0(tau)|_max along an increasing tau ladder.

    U(tau) comes from ``full_propagator``: the scenario's closed-form hook,
    or else ``method`` integrating the drive at ``steps_per_time``.
    """
    taus = list(tau_list)
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise DomainError("tau_list must be increasing")
    out = []
    for tau in taus:
        scen = scenario.with_tau(tau)
        u_full = full_propagator(scen, steps_per_time=steps_per_time, method=method)
        u0 = adiabatic_propagator(scen, num_samples=num_samples).final
        out.append((float(tau), float(np.max(np.abs(u_full - u0)))))
    return out


def adiabatic_noncyclic_phase(
    scenario: AdiabaticScenario,
    level: int,
    t: float | None = None,
    num_samples: int = 801,
) -> PhaseReport:
    """Noncyclic phase report of one level in the adiabatic limit at time t.

    Built from the scenario's frame field: w from the endpoint frames, Gamma
    by the module's one rule, and the dynamical phase from the energy
    quadrature.
    """
    if t is None:
        t = scenario.tau
    if not 0 <= t <= scenario.tau + 1e-12:
        raise DomainError("t must lie within the scenario duration")

    [(frames, gamma)] = _level_holonomies(scenario, (level,), num_samples)
    delta = _dynamical_phases(scenario, frames)
    k = int(np.argmin(np.abs(frames.times - t / scenario.tau)))
    w = overlap_matrix(frames.frames[0], frames.frames[k], level_index=level)
    return noncyclic_phase(w, gamma[k], dynamical_phase=float(delta[k]))
