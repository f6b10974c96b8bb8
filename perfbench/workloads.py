"""The four benchmark workloads: seeded inputs, CLI arguments and checks.

Every workload runs one ``holonomy`` CLI invocation on inputs drawn from a
workload seed.  The seed picks the polar angle theta and start azimuth phi0
from a fixed band away from the symmetry axis, and the gauge seed; it never
changes the size of the work.  Each workload's outputs are checked against a
reference that this file computes from elementary formulas, without calling
the functions being timed.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

THETA_BAND = (0.6, 1.4)            # radians, away from the axis at 0 and pi
OMEGA = 0.12566370614359174        # 2 pi / 50: one precession in 50 time units
TWO_PI = 2.0 * math.pi
SWEEP = dict(start=0.1, stop=3.04, count=50)
TAUS = (50.0, 100.0, 200.0, 400.0, 800.0)
GAUGE_COUNT = 100
GAUGE_TOLERANCE = 1e-9
CUSTOM_SAMPLES = 8001
CUSTOM_DURATION = 50.0

# spin-1 angular momentum matrices in the J3 eigenbasis (m = +1, 0, -1)
_S2 = math.sqrt(2.0)
J = (
    np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / _S2,
    np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex) / _S2,
    np.diag([1.0, 0.0, -1.0]).astype(complex),
)
# custom-loop generators (J_i J_j + J_j J_i)/2 for i <= j; H = (J.R)^2 is linear in R_i R_j
PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
GENERATORS = tuple((J[i] @ J[j] + J[j] @ J[i]) / 2 for i, j in PAIRS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    tolerance: float      # largest accepted result_error
    outputs: tuple[str, ...]  # files the invocation writes into its output directory


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "quad-sweep",
            "50-point theta sweep; scalar closed forms and per-sample validation dominate, frame transport is bypassed",
            1e-8,
            ("sweep.csv",),
        ),
        Workload(
            "custom-loop",
            "quadrupole as a 6-generator custom family, 8001 samples: the only generic route (eig, transport, "
            "finite-difference connection, spline, CSV write)",
            1e-6,
            ("phase.csv", "summary.json"),
        ),
        Workload(
            "adiabatic-ladder",
            "tau ladder 50..800: scalar OperatorFamily calls and the longest sequential step chains",
            1e-6,
            ("adiabatic.csv",),
        ),
        Workload(
            "gauge-batch",
            "100 seeded gauges: the only batched path (stacked einsum/eigh) and the only user of gauges",
            GAUGE_TOLERANCE,
            (),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    theta: float
    phi0: float
    gauge_seed: int


def draw_inputs(seed: int) -> Inputs:
    rng = random.Random(seed)
    return Inputs(
        theta=rng.uniform(*THETA_BAND),
        phi0=rng.uniform(0.0, TWO_PI),
        gauge_seed=rng.randrange(2**32),
    )


def quadrupole_config(inp: Inputs) -> str:
    return "\n".join(
        [
            "system = quadrupole",
            "coupling = 1.0",
            "rho = 1.0",
            f"theta = {inp.theta!r}",
            f"phi0 = {inp.phi0!r}",
            f"omega = {OMEGA!r}",
            f"phi_final = {inp.phi0 + TWO_PI!r}",
            "grid = 800",
            "method = magnus4",
            "levels = 1,2",
            f"seed = {inp.gauge_seed}",
            f"gauge_count = {GAUGE_COUNT}",
            "workers = 1",
            "",
        ]
    )


def custom_curve(inp: Inputs) -> tuple[np.ndarray, np.ndarray]:
    """Sample times and parameters R_i R_j of one closed precession (rho = 1)."""
    ts = np.linspace(0.0, CUSTOM_DURATION, CUSTOM_SAMPLES)
    phis = inp.phi0 + OMEGA * ts
    r = np.stack([np.cos(phis), np.sin(phis), np.full_like(phis, 1.0 / math.tan(inp.theta))], axis=1)
    params = np.stack([r[:, i] * r[:, j] * (1.0 if i == j else 2.0) for i, j in PAIRS], axis=1)
    params[-1] = params[0]  # close the loop exactly
    return ts, params


def work_dir(name: str, seed: int, trace: int) -> Path:
    """Directory of one run's inputs, outputs and ``result.json``, under the current directory."""
    return Path(".perfbench") / f"{name}-seed{seed}-trace{trace}"


def write_inputs(name: str, inp: Inputs, work: Path) -> dict:
    """Write the workload's input files into ``work``; return the invocation spec."""
    work.mkdir(parents=True, exist_ok=True)
    cfg = work / "run.cfg"
    if name == "custom-loop":
        ts, params = custom_curve(inp)
        curve = work / "curve.csv"
        with open(curve, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"r{i + 1}r{j + 1}" for i, j in PAIRS])
            for t, row in zip(ts, params):
                writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
        gens = work / "generators.json"
        gens.write_text(json.dumps({
            "dimension": 3,
            "generators": [[[[float(z.real), float(z.imag)] for z in row] for row in g] for g in GENERATORS],
        }), encoding="utf-8")
        cfg.write_text(
            f"system = custom-family\ngenerators_file = {gens}\ncurve_file = {curve}\n"
            "cyclic = true\nmethod = magnus4\nlevels = all\nworkers = 1\n",
            encoding="utf-8",
        )
        argv = ["phase", "--config", str(cfg)]
    else:
        cfg.write_text(quadrupole_config(inp), encoding="utf-8")
        if name == "quad-sweep":
            argv = ["sweep", "--config", str(cfg), "--param", "theta", "--start", str(SWEEP["start"]),
                    "--stop", str(SWEEP["stop"]), "--count", str(SWEEP["count"])]
        elif name == "adiabatic-ladder":
            argv = ["adiabatic", "--config", str(cfg), "--tau-list", ",".join(f"{t:g}" for t in TAUS)]
        else:
            argv = ["gauge-test", "--config", str(cfg), "--count", str(GAUGE_COUNT)]
    return {"argv": argv, "config": str(cfg), "reads_inputs": name == "custom-loop",
            "writes_output": bool(WORKLOADS[name].outputs)}


def check_generator_expansion(inp: Inputs) -> float:
    """Largest |sum_k p_k X_k - quadrupole.hamiltonian| over a subset of curve samples."""
    from holonomy import quadrupole as qd

    ts, params = custom_curve(inp)
    zeta = 1.0 / math.tan(inp.theta)
    worst = 0.0
    for k in range(0, CUSTOM_SAMPLES - 1, 400):
        h = sum(p * g for p, g in zip(params[k], GENERATORS))
        ref = qd.hamiltonian(qd.FieldPoint(1.0, inp.phi0 + OMEGA * ts[k], zeta))
        worst = max(worst, float(np.max(np.abs(h - ref))))
    return worst


# --- references from the elementary coefficient formulas --------------------

def coefficients(theta: float) -> tuple[float, float, float, float]:
    """(mu, nu, sigma, Delta) of the degenerate-level connection at polar angle theta."""
    c = math.cos(theta)
    mu = 2 * c * c / (1 + c * c)
    nu = -c * (1 - c * c) / (1 + c * c)
    sigma = -(1 + 2 * (1 + c * c) ** 2) / (2 * (1 + c * c))
    delta = math.sqrt((1 + sigma - mu) ** 2 + nu * nu)
    return mu, nu, sigma, delta


def cyclic_pi2(theta: float) -> complex:
    """Pi2 after one precession in the oracle convention: -2 e^{i pi (mu+sigma)} cos(pi Delta)."""
    mu, _, sigma, delta = coefficients(theta)
    return -2.0 * complex(math.cos(math.pi * (mu + sigma)), math.sin(math.pi * (mu + sigma))) * math.cos(math.pi * delta)


def frame_consistent_pi2(theta: float) -> float:
    """Gauge-invariant cyclic trace of the plain eigenframe: 2 cos(2 pi sqrt(mu^2 + nu^2))."""
    mu, nu, _, _ = coefficients(theta)
    return 2.0 * math.cos(TWO_PI * math.hypot(mu, nu))


def _hamiltonian(phi: float, zeta: float) -> np.ndarray:
    r = (math.cos(phi), math.sin(phi), zeta)
    jr = sum(ri * ji for ri, ji in zip(r, J))
    return jr @ jr


def _expm_hermitian(h: np.ndarray, s: float) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * s * w)) @ v.conj().T


def _frames(phi: float, zeta: float) -> tuple[np.ndarray, np.ndarray]:
    """Plain eigenframes: the zero level (3x1) and the degenerate level (3x2)."""
    e = complex(math.cos(phi), math.sin(phi))
    n1 = math.sqrt(2 * (1 + zeta**2))
    n2 = math.sqrt(1 + 2 * zeta**2)
    v1 = np.array([-1 / e, _S2 * zeta, e]) / n1
    v21 = np.array([_S2 * zeta / e, 1, 0]) / n2
    v22 = np.array([-1 / e, _S2 * zeta, -(1 + 2 * zeta**2) * e]) / (n1 * n2)
    return v1[:, None], np.column_stack([v21, v22])


def adiabatic_defect(theta: float, phi0: float, tau: float) -> float:
    """max|U(tau) - U0(tau)| for one precession of duration tau.

    U is the rotating-frame solution exp(-i w tau J3) exp(-i (H(phi0) - w J3) tau)
    with w = 2 pi / tau.  U0 is built from the plain eigenframes, the dynamical
    phase exp(-i E2 tau) and the holonomy exp(i 2 pi X), X = [[mu, nu], [nu, -mu]],
    which has the closed form cos(2 pi r) + i sin(2 pi r) X / r with r = |(mu, nu)|.
    """
    zeta = 1.0 / math.tan(theta)
    w = TWO_PI / tau
    u = _expm_hermitian(J[2], w * tau) @ _expm_hermitian(_hamiltonian(phi0, zeta) - w * J[2], tau)
    mu, nu, _, _ = coefficients(theta)
    r = math.hypot(mu, nu)
    x = np.array([[mu, nu], [nu, -mu]], dtype=complex)
    gamma = math.cos(TWO_PI * r) * np.eye(2) + 1j * math.sin(TWO_PI * r) * x / r
    e2 = 1.0 + zeta**2
    f1, f2 = _frames(phi0, zeta)  # the loop is closed, so start and end frames coincide
    u0 = f1 @ f1.conj().T + np.exp(-1j * e2 * tau) * (f2 @ gamma @ f2.conj().T)
    return float(np.max(np.abs(u - u0)))


# --- output checks ----------------------------------------------------------

class CheckError(Exception):
    """The outputs are malformed or disagree with the reference."""


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _cplx(row: dict, prefix: str) -> complex:
    return complex(float(row[f"{prefix}re_pi"]), float(row[f"{prefix}im_pi"]))


def result_error(name: str, inp: Inputs, out: Path, rc: int, stderr: str) -> float:
    """Largest absolute deviation of one invocation's outputs from the reference."""
    if rc != 0:
        raise CheckError(f"exit code {rc}: {stderr.strip()[-300:]}")
    if name == "quad-sweep":
        rows = _rows(out / "sweep.csv")
        thetas = np.linspace(SWEEP["start"], SWEEP["stop"], SWEEP["count"])
        if len(rows) != len(thetas):
            raise CheckError(f"sweep.csv has {len(rows)} rows, expected {len(thetas)}")
        err = 0.0
        for row, theta in zip(rows, thetas):
            if abs(float(row["theta"]) - theta) > 1e-15:
                raise CheckError(f"sweep row theta {row['theta']} != {theta!r}")
            err = max(err, abs(_cplx(row, "level1_") - 1.0), abs(_cplx(row, "level2_") - cyclic_pi2(theta)))
        return err
    if name == "custom-loop":
        rows = _rows(out / "phase.csv")
        if len(rows) != 2 * CUSTOM_SAMPLES:
            raise CheckError(f"phase.csv has {len(rows)} rows, expected {2 * CUSTOM_SAMPLES}")
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        if summary.get("system") != "custom-family":
            raise CheckError("summary.json does not describe a custom-family run")
        final = {row["level"]: row for row in rows}
        return max(abs(_cplx(final["1"], "") - 1.0), abs(_cplx(final["2"], "") - frame_consistent_pi2(inp.theta)))
    if name == "adiabatic-ladder":
        rows = _rows(out / "adiabatic.csv")
        if [float(r["tau"]) for r in rows] != list(TAUS):
            raise CheckError("adiabatic.csv does not list the tau ladder")
        if not all(float(r["adiabaticity_ratio"]) > 0 for r in rows):
            raise CheckError("adiabaticity ratios must be positive")
        return max(abs(float(r["defect"]) - adiabatic_defect(inp.theta, inp.phi0, float(r["tau"]))) for r in rows)
    # gauge-batch writes no files; its report line is the output
    m = re.search(r"(\d+) gauges: max \|delta Pi\| (\S+), max conjugation deviation (\S+)", stderr)
    if m is None or int(m.group(1)) != GAUGE_COUNT:
        raise CheckError(f"no report line for {GAUGE_COUNT} gauges in: {stderr.strip()[-300:]}")
    return max(float(m.group(2)), float(m.group(3)))


# which end-to-end metric each per-layer metric should move, on which workload
LAYER_MOVES = {
    "config.parse_s": "setup_s on all workloads",
    "io.read_s": "wall_s and cold_run_s on custom-loop",
    "io.write_s": "wall_s and cold_run_s on custom-loop; zero on gauge-batch",
    "io.rows_written": "wall_s and cold_run_s on custom-loop; zero on gauge-batch",
    "io.bytes_written": "wall_s and cold_run_s on custom-loop; zero on gauge-batch",
    "cli.self_s": "wall_s on custom-loop (row formatting)",
    "runner.self_s": "wall_s on quad-sweep and custom-loop",
    "quadrupole.calls": "wall_s on quad-sweep; zero on custom-loop",
    "quadrupole.self_s": "wall_s on quad-sweep; zero on custom-loop",
    "quadrupole.coeffs_per_theta": "wall_s on quad-sweep (wasted recomputation)",
    "frames.family_calls": "wall_s on adiabatic-ladder and custom-loop",
    "frames.family_s": "wall_s on adiabatic-ladder and custom-loop",
    "frames.transport_calls": "wall_s on custom-loop; about zero on quad-sweep and gauge-batch",
    "frames.transport_s": "wall_s on custom-loop; about zero on quad-sweep and gauge-batch",
    "frames.connection_s": "wall_s on custom-loop and adiabatic-ladder",
    "linalg.eig_calls": "wall_s on custom-loop and adiabatic-ladder",
    "linalg.eig_s": "wall_s on custom-loop and adiabatic-ladder",
    "linalg.validate_calls": "wall_s on adiabatic-ladder, custom-loop and quad-sweep",
    "linalg.validate_s": "wall_s on adiabatic-ladder, custom-loop and quad-sweep",
    "linalg.expm_s": "wall_s on gauge-batch",
    "propagate.calls": "wall_s on adiabatic-ladder and gauge-batch",
    "propagate.steps": "wall_s on adiabatic-ladder and gauge-batch",
    "propagate.self_s": "wall_s on adiabatic-ladder and gauge-batch",
    "propagate.nodes_s": "wall_s on adiabatic-ladder, custom-loop and gauge-batch (generator evaluation)",
    "phase.calls": "wall_s on quad-sweep",
    "phase.self_s": "wall_s on quad-sweep",
    "adiabatic.report_s": "wall_s on adiabatic-ladder and custom-loop",
    "adiabatic.full_s": "wall_s on adiabatic-ladder",
    "adiabatic.u0_s": "wall_s on adiabatic-ladder",
    "gauges.calls": "wall_s on gauge-batch only",
    "gauges.self_s": "wall_s on gauge-batch only",
    "tracing_overhead_s": "none: traced minus untraced wall_s of the same invocation",
}
