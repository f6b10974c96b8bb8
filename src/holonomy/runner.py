"""Run pipelines behind the CLI: phase traces, sweeps, ladders, gauge tests.

Every phase route hands ``phase.level_trace`` one level's overlap and
holonomy stacks w, Gamma (m, l, l) and its dynamical phase; that one rule
forms Pi = tr(w Gamma), the unitarity defects of Gamma, the Abelian angle,
unwrapped angle and visibility |w|, and the summary's level record from
their last sample.  The quadrupole route takes the nondegenerate level's w
and Gamma = exp(i (phi - phi0)) from closed forms, integrates the oracle
connection of the degenerate level, and, for ``phase``, reports deviations
from the closed-form holonomy and trace; ``sweep`` reports none, so it
computes neither them nor the adiabaticity ratio.  phi_final = phi0 is one
sample with identity stacks.  Custom operator families run the generic
route: one eigendecomposition, parallel transport of the frames, w from
their overlaps with the first frame and Gamma from their link phases (the
discrete Wilson line; no integrator).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import quadrupole as qd
from .adiabatic import AdiabaticScenario, adiabaticity_report, convergence_study
from .config import ScenarioConfig
from .errors import ConfigError
from .frames import Curve, OperatorFamily, transport_frames, transport_holonomy
from .gauges import random_smooth_gauge, transform_generator
from .io import read_curve_csv, read_generators_json
from .linalg import _tree_product, eigh_many, level_bounds, unitarity_defects
from .phase import LevelTrace, level_trace
from .propagate import _eval_nodes, _node_sets, _steps_at_nodes, propagate


@dataclass(frozen=True)
class RunResult:
    system: str
    levels: tuple[LevelTrace, ...]
    phis: np.ndarray | None = None      # quadrupole azimuths per sample
    adiabaticity_ratio: float | None = None
    max_step_norm: float = 0.0
    wall_time_s: float = 0.0

    @property
    def max_unitarity_defect(self) -> float:
        return max(float(np.max(lv.unitarity_defects)) for lv in self.levels)

    def summary(self, config_echo: dict | None = None) -> dict:
        levels = {}
        for lv in self.levels:
            rec = dict(lv.record)
            rec["convention"] = "oracle" if self.system == "quadrupole" else "parallel-transport"
            rec["max_unitarity_defect"] = float(np.max(lv.unitarity_defects))
            if lv.oracle_gamma_deviation is not None:
                rec["oracle_gamma_deviation"] = lv.oracle_gamma_deviation
            if lv.oracle_trace_deviation is not None:
                rec["oracle_trace_deviation"] = lv.oracle_trace_deviation
            if lv.min_overlap_singular_value is not None:
                rec["min_overlap_singular_value"] = lv.min_overlap_singular_value
                rec["cyclic_misalignment"] = lv.cyclic_misalignment  # None on an open curve
            levels[str(lv.label)] = rec
        out = {
            "system": self.system,
            "levels": levels,
            "diagnostics": {
                "max_unitarity_defect": self.max_unitarity_defect,
                "max_step_norm": self.max_step_norm,
            },
            "wall_time_s": self.wall_time_s,
        }
        if self.adiabaticity_ratio is not None:
            out["diagnostics"]["adiabaticity_ratio"] = self.adiabaticity_ratio
        if config_echo is not None:
            out["config"] = config_echo
        return out


def _quadrupole_level_labels(config_levels: tuple[int, ...] | None) -> tuple[int, ...]:
    if config_levels is None:
        return (1, 2)
    if any(l not in (1, 2) for l in config_levels):
        raise ConfigError("quadrupole levels are labeled 1 and 2")
    return config_levels


def run_quadrupole_phase(
    scenario: qd.PrecessionScenario,
    grid: int = 800,
    method: str = "magnus4",
    levels: tuple[int, ...] | None = None,
    diagnostics: bool = True,
) -> RunResult:
    """Level 1 from its closed forms, level 2 from the integrated oracle holonomy; phi_final = phi0 is one sample.

    ``diagnostics`` adds the run-level numbers that only ``phase``'s summary
    reports: the adiabaticity ratio and level 2's deviations from the
    closed-form holonomy and trace.
    """
    start = time.perf_counter()
    labels = _quadrupole_level_labels(levels)
    zero_length = scenario.duration == 0
    num_samples = grid + 1
    ts = np.zeros(1) if zero_length else scenario.times(num_samples)
    phis = np.array([scenario.phi0]) if zero_length else scenario.phi0 + scenario.omega * ts
    out: list[LevelTrace] = []
    max_step = 0.0

    for label in labels:
        if zero_length:  # identity overlaps and holonomies: the quadrupole level labeled l has multiplicity l
            eye = np.eye(label, dtype=complex)[None]
            lv = level_trace(label, ts, eye, eye, 0.0)
            gdev = pdev = 0.0
        elif label == 1:
            w = qd.w1_closed(scenario.theta, scenario.phi0, phis)[:, None, None].astype(complex)
            lv = level_trace(1, ts, w, qd.gamma1_closed(scenario.phi0, phis)[:, None, None], 0.0)
        else:
            trace = propagate(qd.level2_holonomy_problem(scenario, num_samples), method)
            max_step = trace.max_step_norm
            e2 = scenario.field_at(0.0).energy_split
            lv = level_trace(2, ts, qd.w2_closed(scenario.theta, scenario.phi0, phis), trace.matrices, -e2 * ts[-1])
            if diagnostics:
                gdev = float(np.max(np.abs(trace.matrices - qd.gamma2_closed(scenario.theta, scenario.phi0, phis))))
                pdev = float(np.max(np.abs(lv.pi - qd.pi2_closed(scenario.theta, scenario.phi0, phis))))
        if label == 2 and diagnostics:
            lv = replace(lv, oracle_gamma_deviation=gdev, oracle_trace_deviation=pdev)
        out.append(lv)

    ratio = None
    if diagnostics and not zero_length:
        ratio = adiabaticity_report(qd.adiabatic_scenario(scenario), num_samples=101).summary_ratio
    return RunResult(
        system="quadrupole",
        levels=tuple(out),
        phis=phis,
        adiabaticity_ratio=ratio,
        max_step_norm=max_step,
        wall_time_s=time.perf_counter() - start,
    )


def _custom_family(config: ScenarioConfig) -> tuple[OperatorFamily, Curve]:
    from .frames import family_from_generators

    gens = read_generators_json(config.generators_file)
    family = family_from_generators(gens)
    curve = read_curve_csv(config.curve_file, cyclic=config.cyclic)
    if curve.num_parameters != len(gens):
        raise ConfigError(
            f"curve has {curve.num_parameters} parameter columns, family has {len(gens)} generators"
        )
    return family, curve


def _custom_level_indices(config: ScenarioConfig, family: OperatorFamily, curve: Curve) -> tuple[int, ...] | None:
    """0-based indices of the configured level labels, checked against the level count at the first sample."""
    if config.levels is None:
        return None
    count = len(level_bounds(eigh_many(family(curve.points[:1]))[0]))
    for label in config.levels:
        if label > count:
            raise ConfigError(f"levels {config.levels} do not exist: "
                              f"level index {label - 1} out of range; the family has {count} levels")
    return tuple(label - 1 for label in config.levels)


def _normalized_scenario(family: OperatorFamily, curve: Curve) -> AdiabaticScenario:
    """The family along the curve in normalized time s = (t - t0) / (t1 - t0), traversed in tau = t1 - t0."""
    t0, t1 = curve.times[0], curve.times[-1]
    return AdiabaticScenario(
        family=family,
        curve=Curve(times=(curve.times - t0) / (t1 - t0), points=curve.points, cyclic=False),
        tau=float(t1 - t0),
    )


def run_custom_phase(config: ScenarioConfig) -> RunResult:
    start = time.perf_counter()
    family, curve = _custom_family(config)
    fields = transport_frames(family, curve, _custom_level_indices(config, family, curve))

    out: list[LevelTrace] = []
    for frames in fields:
        dyn = None
        if frames.multiplicity == 1:
            energies = frames.eigenvalues
            dyn = float(-np.sum(0.5 * (energies[1:] + energies[:-1]) * np.diff(frames.times)))
        out.append(level_trace(
            frames.level_index + 1,
            frames.times,
            frames.frames[0].conj().T @ frames.frames,
            transport_holonomy(frames),
            dyn,
            min_overlap_singular_value=frames.min_overlap_singular_value,
            cyclic_misalignment=frames.cyclic_misalignment,
        ))

    return RunResult(
        system="custom-family",
        levels=tuple(out),
        adiabaticity_ratio=adiabaticity_report(
            _normalized_scenario(family, curve), num_samples=min(201, curve.num_samples)
        ).summary_ratio,
        wall_time_s=time.perf_counter() - start,
    )


def run_phase(config: ScenarioConfig) -> RunResult:
    if config.system == "quadrupole":
        return run_quadrupole_phase(
            config.precession_scenario(),
            grid=config.grid,
            method=config.method,
            levels=config.levels,
        )
    return run_custom_phase(config)


SWEEP_PARAMETERS = ("theta", "phi_f", "omega", "tau")


def run_sweep(
    config: ScenarioConfig,
    parameter: str,
    start: float,
    stop: float,
    count: int,
) -> list[tuple[float, RunResult]]:
    """Evaluate the phase pipeline at ``count`` sweep points, one after another, in input order."""
    if config.system != "quadrupole":
        raise ConfigError("sweeps are defined for the quadrupole system")
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError(f"sweep parameter must be one of {SWEEP_PARAMETERS}")
    if count < 1:
        raise ConfigError("sweep count must be >= 1")
    values = np.linspace(start, stop, count) if count > 1 else np.array([start])
    base = config.precession_scenario()

    def scenario_at(value: float) -> qd.PrecessionScenario:
        if parameter == "tau":  # fix the duration, keep omega
            return replace(base, duration=value, phi_final=None)
        name = "phi_final" if parameter == "phi_f" else parameter
        return replace(base, **{name: value, "duration": None})  # the end azimuth fixes the duration

    return [
        (
            float(value),
            run_quadrupole_phase(
                scenario_at(float(value)),
                grid=config.grid,
                method=config.method,
                levels=config.levels,
                diagnostics=False,
            ),
        )
        for value in values
    ]


def run_adiabatic(config: ScenarioConfig, tau_list: list[float]) -> list[tuple[float, float, float]]:
    """(tau, defect, adiabaticity ratio) rows for a tau ladder; ``levels`` is checked as ``phase`` checks it."""
    if config.system == "quadrupole":
        _quadrupole_level_labels(config.levels)
        scen = qd.adiabatic_scenario(config.precession_scenario())
    else:
        family, curve = _custom_family(config)
        _custom_level_indices(config, family, curve)
        scen = _normalized_scenario(family, curve)

    defects = convergence_study(scen, tau_list, method=config.method)
    # dH/dt, and so every coupling over a fixed spectrum, scales as 1/tau: one report serves the ladder
    tau0 = defects[0][0]
    ratio0 = adiabaticity_report(scen.with_tau(tau0), num_samples=101).summary_ratio
    return [(tau, defect, ratio0 * (tau0 / tau)) for tau, defect in defects]


@dataclass(frozen=True)
class GaugeTestResult:
    deviations_pi: np.ndarray
    deviations_conjugation: np.ndarray
    tolerance: float
    max_step_norm: float  # largest |K| h of the base and every gauge integration

    @property
    def passed(self) -> bool:
        return bool(
            np.all(self.deviations_pi <= self.tolerance)
            and np.all(self.deviations_conjugation <= self.tolerance)
        )


def run_gauge_test(
    config: ScenarioConfig,
    count: int | None = None,
    tolerance: float = 1e-9,
) -> GaugeTestResult:
    """Seeded random smooth gauges on the quadrupole degenerate level.

    Each gauge transforms the holonomy problem's generator by the exact
    gauge law and the overlap by its endpoint values; the trace must be
    invariant and the noncyclic phase factor conjugated by the initial gauge
    value.  The integrations run magnus4 on at least 1600 steps, which keeps
    the integrator error well below the 1e-9 invariance tolerance.  The
    second-order ``midpoint_exp`` misses it by its own error (about 2e-5 at
    1600 steps) on any gauge, so it is a configuration error here.

    The base generator -omega A2 is evaluated once per node set; each gauge
    transforms those values (``gauges.transform_generator``), so its holonomy
    has the bits of ``propagate_final(transform_problem(problem, gauge))``.
    """
    if config.system != "quadrupole":
        raise ConfigError("the gauge test is defined for the quadrupole system")
    if config.method != "magnus4":
        raise ConfigError(
            f"the gauge test's 1e-9 invariance tolerance needs method magnus4, got {config.method}, "
            "whose own integration error exceeds it"
        )
    scenario = config.precession_scenario()
    count = config.gauge_count if count is None else count
    if count < 1:
        raise ConfigError(f"the gauge count must be >= 1, got {count}")
    num_samples = max(config.grid, 1600) + 1

    problem = qd.level2_holonomy_problem(scenario, num_samples)
    t_final = float(problem.times[-1])
    nodes, hs = _node_sets(problem.times, config.method)
    base = [_eval_nodes(problem.generator, ts) for ts in nodes]
    steps, max_step_norm = _steps_at_nodes(problem, base, hs)
    w_base = qd.w2_closed(scenario.theta, scenario.phi0, scenario.phi_at(t_final))
    gcheck_base = w_base @ _tree_product(steps, problem.initial)
    pi_base = np.trace(gcheck_base)

    seeds = np.random.SeedSequence(config.seed).spawn(count)
    dpi = np.empty(count)
    dconj = np.empty(count)
    for i, seq in enumerate(seeds):
        gauge = random_smooth_gauge(2, 0.0, t_final, seed=seq)
        transformed = [transform_generator(gauge, ts, k) for ts, k in zip(nodes, base)]
        steps, step_norm = _steps_at_nodes(problem, transformed, hs)
        max_step_norm = max(max_step_norm, step_norm)
        gamma_t = _tree_product(steps, problem.initial)
        v0, vt = gauge(np.array([0.0, t_final]))
        w_t = v0.conj().T @ w_base @ vt
        dpi[i] = abs(np.trace(w_t @ gamma_t) - pi_base)
        dconj[i] = float(np.max(np.abs(w_t @ gamma_t - v0.conj().T @ gcheck_base @ v0)))
    return GaugeTestResult(deviations_pi=dpi, deviations_conjugation=dconj, tolerance=tolerance,
                           max_step_norm=max_step_norm)


@dataclass(frozen=True)
class OracleCheck:
    name: str
    deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return bool(self.deviation <= self.tolerance)


def run_oracle_verify(config: ScenarioConfig, num_random: int = 1000) -> list[OracleCheck]:
    """Cross-checks of the closed-form quadrupole suite against the integrators.

    Covers: integrated holonomy vs closed form, brute-force overlaps vs the
    closed-form overlap matrix (both printed forms of its last entry), the
    trace identity, the coefficient identities, and the rotating-frame
    product.  Deviations are maxima over the run grid or the random draws.
    """
    if config.system != "quadrupole":
        raise ConfigError("oracle verification is defined for the quadrupole system")
    scenario = config.precession_scenario()
    checks: list[OracleCheck] = []
    rng = np.random.default_rng(config.seed)

    # 1. integrated holonomy against the closed form
    trace = propagate(qd.level2_holonomy_problem(scenario, config.grid + 1), config.method)
    ref = qd.gamma2_closed(scenario.theta, scenario.phi0, scenario.phi_at(trace.times))
    gdev = float(np.max(np.abs(trace.matrices - ref)))
    checks.append(OracleCheck("holonomy_ode_vs_closed_form", gdev, 1e-8))

    udev = float(np.max(unitarity_defects(trace.matrices)))
    checks.append(OracleCheck("holonomy_unitarity", udev, 1e-10))

    # 2. brute-force eigenvector overlaps against the closed form
    wdev = 0.0
    w22dev = 0.0
    for _ in range(num_random):
        theta = rng.uniform(0.05, np.pi - 0.05)
        phi0 = rng.uniform(-2 * np.pi, 2 * np.pi)
        phi = phi0 + rng.uniform(-4 * np.pi, 4 * np.pi)
        zeta = np.cos(theta) / np.sin(theta)
        fa = qd.level_frame(qd.FieldPoint(1.0, phi0, zeta), 1)
        fb = qd.level_frame(qd.FieldPoint(1.0, phi, zeta), 1)
        brute = fa.conj().T @ fb
        closed = qd.w2_closed(theta, phi0, phi)
        wdev = max(wdev, float(np.max(np.abs(brute - closed))))
        k = qd.connection_coeffs(theta)
        dphi = phi - phi0
        alt_w22 = 1 + (k.sigma + 0.75 * k.mu + 0.5) * (1 - np.cos(dphi)) + 1j * k.mu * np.sin(dphi)
        w22dev = max(w22dev, abs(closed[1, 1] - alt_w22))
    checks.append(OracleCheck("overlap_bruteforce_vs_closed_form", wdev, 1e-10))
    checks.append(OracleCheck("overlap_last_entry_dual_forms", w22dev, 1e-12))

    # 3. trace identity
    tdev = 0.0
    for _ in range(num_random):
        theta = rng.uniform(0.05, np.pi - 0.05)
        phi0 = rng.uniform(-2 * np.pi, 2 * np.pi)
        phi = phi0 + rng.uniform(-4 * np.pi, 4 * np.pi)
        lhs = qd.pi2_closed(theta, phi0, phi)
        rhs = np.trace(qd.w2_closed(theta, phi0, phi) @ qd.gamma2_closed(theta, phi0, phi))
        tdev = max(tdev, abs(lhs - rhs))
    checks.append(OracleCheck("trace_formula_vs_matrix_product", tdev, 1e-9))

    # 4. coefficient identities
    cdev = 0.0
    for _ in range(num_random):
        theta = rng.uniform(0.05, np.pi - 0.05)
        k = qd.connection_coeffs(theta)
        c = k.cos_theta
        cdev = max(cdev, abs(k.sigma + 0.75 * k.mu + 0.5 + (1 + c**4) / (1 + c**2)))
        delta_poly = np.sqrt(1 + 4 * c**2 * (4 + 8 * c**2 + 7 * c**4 + c**6)) / (2 * (1 + c**2))
        cdev = max(cdev, abs(k.delta - delta_poly))
    checks.append(OracleCheck("coefficient_identities", cdev, 1e-12))

    # 5. rotating-frame product
    _, reconstruct = qd.rotating_frame(scenario.theta)
    phis = scenario.phi_at(np.linspace(0.0, scenario.duration, 33))
    rebuilt = np.array([reconstruct(scenario.phi0, phi) for phi in phis])
    rdev = float(np.max(np.abs(rebuilt - qd.gamma2_closed(scenario.theta, scenario.phi0, phis))))
    checks.append(OracleCheck("rotating_frame_vs_closed_form", rdev, 1e-10))
    return checks
