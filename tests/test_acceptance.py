"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` for the checklist view.  Every
tolerance is fixed here; nothing is calibrated at run time.
"""

import time

import numpy as np
import pytest

from holonomy.config import parse_config_text
from holonomy.frames import Curve
from holonomy.linalg import unitarity_defects
from holonomy.phase import level_trace, wrap_angle
from holonomy.propagate import propagate, propagate_final
from holonomy.runner import run_adiabatic, run_gauge_test
from holonomy import quadrupole as qd
from test_propagate import level1_holonomy_problem, transported_invariant_evolution

TYCKO = qd.TYCKO_THETA


def report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d} {'PASS' if passed else 'FAIL'}  {detail}")


def endpoint_record(label: int, w: np.ndarray, gamma: np.ndarray) -> dict:
    """The phase rule's record of a single (w, Gamma) pair, taken as one-sample stacks."""
    return level_trace(label, np.zeros(1), np.asarray(w, dtype=complex)[None], gamma[None], None).record


def test_criterion_01_oracle_equivalence():
    """Integrated holonomy matches the closed form at 800 steps over two cycles."""
    scenario = qd.PrecessionScenario(theta=TYCKO, phi0=0.0, omega=2 * np.pi / 40, phi_final=4 * np.pi)
    start = time.perf_counter()
    trace = propagate(qd.level2_holonomy_problem(scenario, 801), "magnus4")
    deviation = 0.0
    for k, t in enumerate(trace.times):
        ref = qd.gamma2_closed(TYCKO, 0.0, scenario.phi_at(t))
        deviation = max(deviation, float(np.max(np.abs(trace.matrices[k] - ref))))
    elapsed = time.perf_counter() - start
    passed = deviation <= 1e-8 and elapsed <= 5.0
    report(1, passed, f"max deviation {deviation:.3e} (<=1e-8), runtime {elapsed:.2f}s (<=5s)")
    assert deviation <= 1e-8
    assert elapsed <= 5.0


def test_criterion_02_splitting_value():
    """Delta at cos(theta) = 1/sqrt(3) equals sqrt(889)/24."""
    delta = qd.connection_coeffs(TYCKO).delta
    deviation = abs(delta - np.sqrt(889) / 24)
    report(2, deviation <= 1e-12, f"|Delta - sqrt(889)/24| = {deviation:.3e} (<=1e-12)")
    assert deviation <= 1e-12


def test_criterion_03_endpoint_identity():
    """The trace equals the level multiplicity at zero arc."""
    deviation = 0.0
    for phi0 in (0.0, 1.3, -2.0):
        deviation = max(deviation, abs(qd.pi2_closed(TYCKO, phi0, phi0) - 2.0))
        rec = endpoint_record(2, qd.w2_closed(TYCKO, phi0, phi0), qd.gamma2_closed(TYCKO, phi0, phi0))
        deviation = max(deviation, abs(complex(rec["re_pi"], rec["im_pi"]) - 2.0))
    report(3, deviation <= 1e-12, f"|Pi2(phi0) - 2| = {deviation:.3e} (<=1e-12)")
    assert deviation <= 1e-12


def _cyclic_report() -> tuple[complex, np.ndarray]:
    """Pi and the eigenvalues of w Gamma from the record of the integrated cyclic holonomy."""
    scenario = qd.PrecessionScenario(theta=TYCKO, phi0=0.0, omega=2 * np.pi / 40, phi_final=2 * np.pi)
    gamma = propagate_final(qd.level2_holonomy_problem(scenario, 1601), "magnus4")
    rec = endpoint_record(2, qd.w2_closed(TYCKO, 0.0, 2 * np.pi), gamma)
    return complex(rec["re_pi"], rec["im_pi"]), np.array([complex(rec[f"re_eig{i}"], rec[f"im_eig{i}"]) for i in (1, 2)])


def test_criterion_04_cyclic_results():
    """Cyclic trace and eigenphases of the degenerate-level holonomy."""
    pi, eigenvalues = _cyclic_report()
    k = qd.connection_coeffs(TYCKO)
    trace_dev = abs(pi - (-2 * np.exp(1j * np.pi * (k.mu + k.sigma)) * np.cos(np.pi * k.delta)))

    # eigenphases carry the determinant phase pi*(mu+sigma) on top of the
    # symmetric pair; compare after removing it, and check the raw values
    # against their closed form pi*(mu+sigma+1 +- Delta)
    raw = np.sort(np.angle(eigenvalues))
    raw_expected = np.sort([wrap_angle(p) for p in qd.cyclic_eigenphases(TYCKO)])
    raw_dev = float(np.max(np.abs(raw - raw_expected)))

    normalized = np.sort(np.angle(eigenvalues * np.exp(-1j * np.pi * (k.mu + k.sigma))))
    target = wrap_angle(np.pi * (k.delta + 1))
    norm_dev = float(np.max(np.abs(normalized - np.sort([-target, target]))))

    passed = trace_dev <= 1e-9 and raw_dev <= 1e-8 and norm_dev <= 1e-8
    report(
        4,
        passed,
        f"trace dev {trace_dev:.3e} (<=1e-9); eigenphase dev {raw_dev:.3e} vs "
        f"pi(mu+sigma+1+-Delta), {norm_dev:.3e} vs +-pi(Delta+1) after removing "
        f"the determinant phase (<=1e-8)",
    )
    assert trace_dev <= 1e-9
    assert raw_dev <= 1e-8
    assert norm_dev <= 1e-8


@pytest.mark.xfail(
    strict=True,
    reason=(
        "The eigenvalue pair exp(+-i pi (Delta+1)) omits the Abelian "
        "determinant phase exp(i pi (mu+sigma)) of the cyclic holonomy: "
        "det Gamma = exp(2 pi i (mu+sigma)) != 1, and the cyclic trace "
        "-2 exp(i pi (mu+sigma)) cos(pi Delta) is complex while a symmetric "
        "eigenphase pair would force a real trace.  The true eigenphases are "
        "pi (mu+sigma+1 +- Delta); the symmetric pair is recovered after "
        "removing the determinant phase (checked in criterion 4)."
    ),
)
def test_criterion_04_literal_eigenphases():
    """Literal reading: raw eigenphases equal +-pi(Delta+1) mod 2pi."""
    _, eigenvalues = _cyclic_report()
    k = qd.connection_coeffs(TYCKO)
    raw = np.sort(np.angle(eigenvalues))
    target = wrap_angle(np.pi * (k.delta + 1))
    assert np.max(np.abs(raw - np.sort([-target, target]))) <= 1e-8


def test_criterion_05_gauge_invariance():
    """100 seeded smooth gauges leave the trace invariant and conjugate Gcheck."""
    config = parse_config_text(
        "system = quadrupole\ntheta = tycko\nomega = 0.15707963267948966\n"
        "phi_final = 6.283185307179586\ngrid = 1600\nseed = 20240817\ngauge_count = 100\n"
    )
    result = run_gauge_test(config, count=100, tolerance=1e-9)
    worst_pi = float(np.max(result.deviations_pi))
    worst_conj = float(np.max(result.deviations_conjugation))
    report(
        5,
        result.passed,
        f"100 gauges: max |dPi| {worst_pi:.3e}, max conjugation dev {worst_conj:.3e} (<=1e-9)",
    )
    assert result.passed


def test_criterion_06_overlap_consistency():
    """Closed-form overlaps equal brute-force eigenvector overlaps."""
    rng = np.random.default_rng(606)
    w_dev = 0.0
    dual_dev = 0.0
    for _ in range(1000):
        theta = rng.uniform(0.05, np.pi - 0.05)
        phi0 = rng.uniform(-2 * np.pi, 2 * np.pi)
        phi = phi0 + rng.uniform(-4 * np.pi, 4 * np.pi)
        z = np.cos(theta) / np.sin(theta)
        fa = qd.level_frame(qd.FieldPoint(1.0, phi0, z), 1)
        fb = qd.level_frame(qd.FieldPoint(1.0, phi, z), 1)
        closed = qd.w2_closed(theta, phi0, phi)
        w_dev = max(w_dev, float(np.max(np.abs(fa.conj().T @ fb - closed))))
        k = qd.connection_coeffs(theta)
        alt = 1 + (k.sigma + 0.75 * k.mu + 0.5) * (1 - np.cos(phi - phi0)) + 1j * k.mu * np.sin(phi - phi0)
        dual_dev = max(dual_dev, abs(closed[1, 1] - alt))
    passed = w_dev <= 1e-10 and dual_dev <= 1e-12
    report(6, passed, f"1000 draws: brute-force dev {w_dev:.3e} (<=1e-10), dual-form dev {dual_dev:.3e} (<=1e-12)")
    assert w_dev <= 1e-10
    assert dual_dev <= 1e-12


def test_criterion_07_integrator_order():
    """Error-vs-step slopes sit in the stated bands; unitarity holds throughout."""
    scenario = qd.PrecessionScenario(theta=TYCKO, phi0=0.0, omega=2 * np.pi / 40, phi_final=2 * np.pi)
    bands = {"midpoint_exp": (2.5, 6.0), "magnus4": (8.0, 32.0)}
    lines = []
    worst_unitarity = 0.0
    ok = True
    for method, (lo, hi) in bands.items():
        ref = propagate_final(qd.level2_holonomy_problem(scenario, 6401), method)
        errs = []
        for steps in (80, 160, 320, 640):
            trace = propagate(qd.level2_holonomy_problem(scenario, steps + 1), method)
            errs.append(float(np.max(np.abs(trace.final - ref))))
            worst_unitarity = max(worst_unitarity, max(unitarity_defects(m)[0] for m in trace.matrices))
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        ok = ok and all(lo <= r <= hi for r in ratios)
        lines.append(f"{method} ratios {['%.1f' % r for r in ratios]} in [{lo},{hi}]")
    ok = ok and worst_unitarity <= 1e-10
    report(7, ok, "; ".join(lines) + f"; unitarity {worst_unitarity:.2e} (<=1e-10)")
    assert ok


def test_criterion_08_adiabatic_convergence():
    """Tau-doubling ladder: strictly decreasing defects with first-order ratios."""
    config = parse_config_text(
        "system = quadrupole\ntheta = tycko\ncoupling = 1.0\nrho = 1.0\n"
        "omega = 0.12566370614359174\nduration = 50.0\ngrid = 400\nseed = 8\n"
    )
    taus = [50.0, 100.0, 200.0, 400.0, 800.0]  # coupling * rho^2 * tau0 = 50, one precession each
    rows = run_adiabatic(config, taus)
    defects = [d for _, d, _ in rows]
    decreasing = all(a > b for a, b in zip(defects, defects[1:]))
    ratios = [a / b for a, b in zip(defects, defects[1:])]
    in_band = all(1.3 <= r <= 3.0 for r in ratios)
    passed = decreasing and in_band
    report(
        8,
        passed,
        f"defects {['%.3e' % d for d in defects]}, ratios {['%.2f' % r for r in ratios]} in [1.3,3.0]",
    )
    assert decreasing
    assert in_band


def test_criterion_09_pure_gauge_level1():
    """Nondegenerate-level holonomy closes to 1; quarter-turn phase and visibility."""
    scenario = qd.PrecessionScenario(theta=TYCKO, phi0=0.0, omega=0.2, phi_final=2 * np.pi)
    trace = propagate(level1_holonomy_problem(scenario, 513), "magnus4")
    cycle_dev = abs(trace.final[0, 0] - 1.0)

    theta_z1 = np.arccos(1 / np.sqrt(2))  # zeta = 1
    w = qd.w1_closed(theta_z1, 0.0, np.pi / 2)
    rec = endpoint_record(1, [[w]], np.array([[qd.gamma1_closed(0.0, np.pi / 2)]]))
    vis_dev = abs(rec["visibility"] - 0.5)
    ang_dev = abs(rec["phase_angle"] - np.pi / 2)
    passed = cycle_dev <= 1e-10 and vis_dev <= 1e-10 and ang_dev <= 1e-10
    report(
        9,
        passed,
        f"cycle holonomy dev {cycle_dev:.3e}; visibility dev {vis_dev:.3e}; angle dev {ang_dev:.3e} (<=1e-10)",
    )
    assert cycle_dev <= 1e-10
    assert vis_dev <= 1e-10
    assert ang_dev <= 1e-10


def test_criterion_10_solution_property():
    """Assembled states satisfy the Schroedinger equation at the truncation level.

    The frames come from an exact dynamical invariant of the precessing
    quadrupole (its eigenvalues are constant and simple, its eigenframes
    organize exact solutions).  Each level's coefficient is
    u^n = Gamma^n exp(-i int E^n dt): Gamma^n is the discrete Wilson line of
    the transported frames, and E^n = F^dag H F per sample is integrated by
    the trapezoid rule.  The central-difference residual of each assembled
    state is compared with the local truncation estimate from the same data.
    """
    scenario = qd.PrecessionScenario(theta=TYCKO, phi0=0.0, omega=2 * np.pi / 50, phi_final=2 * np.pi)
    family = qd.exact_invariant_family(scenario)
    num = 1001
    ts = scenario.times(num)
    curve = Curve(times=ts, points=ts[:, None], evaluator=lambda s: s[:, None])
    ham = lambda t: qd.hamiltonian(scenario.field_at(t))
    evolution = transported_invariant_evolution(family, curve, ham)

    h = ts[1] - ts[0]
    psis = evolution.matrices
    rhs = np.array([-1j * ham(t) @ psis[k] for k, t in enumerate(ts)])
    worst_ratio = 0.0
    for k in range(2, num - 2):
        residual = np.max(np.abs((psis[k + 1] - psis[k - 1]) / (2 * h) - rhs[k]))
        third = (rhs[k + 1] - 2 * rhs[k] + rhs[k - 1]) / h**2
        estimate = (h**2 / 6) * np.max(np.abs(third))
        worst_ratio = max(worst_ratio, residual / max(estimate, 1e-15))

    exact_dev = float(np.max(np.abs(evolution.final - qd.exact_propagator(scenario, float(ts[-1])))))
    passed = worst_ratio <= 10.0 and exact_dev <= 1e-5
    report(
        10,
        passed,
        f"residual <= {worst_ratio:.2f}x truncation estimate (<=10x); "
        f"assembled vs exact propagator {exact_dev:.2e} (<=1e-5)",
    )
    assert worst_ratio <= 10.0
    assert exact_dev <= 1e-5
