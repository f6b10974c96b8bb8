"""The generic custom-family route against a known non-trivial answer.

The spin-1 quadrupole H = (J.R)^2 is linear in the six products R_i R_j,
with the generators (J_i J_j + J_j J_i)/2.  Around one closed precession of R
at polar angle theta, the gauge-invariant cyclic trace of the degenerate
level is 2 cos(2 pi |(mu, nu)|), and that of the nondegenerate level is 1.
The route (one eigendecomposition, parallel transport of the frames, and the
discrete Wilson line of their endpoint overlaps) converges to it at second
order in the sample spacing.

A spin-1/2 family, H = sigma . R, gives the same route a 2x2 answer: around a
cone of polar angle theta, the level with spin projection m along R picks up
Berry's phase -m Omega, with Omega = 2 pi (1 - cos theta) the enclosed solid
angle: +pi (1 - cos theta) for the lower level and -pi (1 - cos theta) for
the upper one.
"""

import csv
import json

import numpy as np
import pytest

from holonomy import quadrupole as qd
from holonomy.cli import main
from holonomy.config import parse_config
from holonomy.runner import run_custom_phase

TYCKO = qd.TYCKO_THETA
PI2_CYCLIC = -1.768410921882  # 2 cos(2 pi |(mu, nu)|) at the Tycko angle

J = (qd.J1, qd.J2, qd.J3)
PAIRS = ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))
GENERATORS = tuple((J[i] @ J[j] + J[j] @ J[i]) / 2 for i, j in PAIRS)


def write_precession(tmp_path, num_samples, theta=TYCKO, phi0=0.3, duration=50.0, levels="all"):
    """Generator, curve and config files of one closed precession (rho = 1); returns the config path."""
    ts = np.linspace(0.0, duration, num_samples)
    phis = phi0 + 2 * np.pi * ts / duration
    r = np.stack([np.cos(phis), np.sin(phis), np.full_like(phis, 1.0 / np.tan(theta))], axis=1)
    params = np.stack([r[:, i] * r[:, j] * (1.0 if i == j else 2.0) for i, j in PAIRS], axis=1)
    return write_closed_loop(tmp_path, GENERATORS, ts, params, levels)


def write_closed_loop(tmp_path, generators, ts, params, levels="all"):
    """Generator, curve and config files of a closed curve through ``params``; returns the config path."""
    params = params.copy()
    params[-1] = params[0]  # close the loop exactly
    tmp_path.mkdir(parents=True, exist_ok=True)
    gens = tmp_path / "generators.json"
    gens.write_text(json.dumps({
        "dimension": len(generators[0]),
        "generators": [[[[z.real, z.imag] for z in row] for row in g] for g in generators],
    }))
    curve = tmp_path / "curve.csv"
    curve.write_text("".join(
        ",".join(repr(float(v)) for v in (t, *row)) + "\n" for t, row in zip(ts, params)
    ))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"system = custom-family\ngenerators_file = {gens}\ncurve_file = {curve}\n"
        f"cyclic = true\nmethod = magnus4\nlevels = {levels}\n"
    )
    return cfg


def cyclic_traces(tmp_path, num_samples):
    result = run_custom_phase(parse_config(write_precession(tmp_path, num_samples)))
    return {lv.label: lv.pi[-1] for lv in result.levels}


def test_reference_value():
    k = qd.connection_coeffs(TYCKO)
    assert 2 * np.cos(2 * np.pi * np.hypot(k.mu, k.nu)) == pytest.approx(PI2_CYCLIC, abs=1e-12)


def test_cyclic_traces_converge_at_second_order(tmp_path):
    coarse = cyclic_traces(tmp_path / "coarse", 101)
    fine = cyclic_traces(tmp_path / "fine", 401)
    err_coarse, err_fine = abs(coarse[2] - PI2_CYCLIC), abs(fine[2] - PI2_CYCLIC)
    assert err_fine <= 1e-4
    assert err_coarse / err_fine > 10  # four times the samples: 16x for second order
    assert abs(fine[1] - 1.0) <= 1e-12
    assert abs(coarse[1] - 1.0) <= 1e-12


def test_coarse_loop_phase_runs(tmp_path):
    assert main(["phase", "--config", str(write_precession(tmp_path, 41)), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a custom-family adiabatic run resamples the curve linearly between its samples; "
        "on 41 samples that leaves the family's manifold, splits the degenerate level and exits 3 "
        "with 'level structure changed at sample 1: (1, 2) -> (1, 1, 1)'"
    ),
)
def test_coarse_loop_adiabatic_runs(tmp_path):
    cfg = write_precession(tmp_path, 41)
    assert main(["adiabatic", "--config", str(cfg), "--out", str(tmp_path / "out"), "--tau-list", "50,100"]) == 0


def test_cli_phase_on_the_same_inputs(tmp_path):
    cfg = write_precession(tmp_path, 401)
    out = tmp_path / "out"
    assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "phase.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 401
    final = {row["level"]: row for row in rows}  # the last row of each level
    pi1 = complex(float(final["1"]["re_pi"]), float(final["1"]["im_pi"]))
    pi2 = complex(float(final["2"]["re_pi"]), float(final["2"]["im_pi"]))
    assert abs(pi1 - 1.0) <= 1e-12
    assert abs(pi2 - PI2_CYCLIC) <= 1e-4
    assert float(final["1"]["t"]) == float(final["2"]["t"]) == 50.0

    summary = json.loads((out / "summary.json").read_text())
    for label in ("1", "2"):
        rec = summary["levels"][label]
        # 401 samples of one precession: successive frames overlap almost perfectly
        assert 0.99 < rec["min_overlap_singular_value"] <= 1.0
    # transport around the loop returns level 1 to its start; level 2 comes back rotated by its holonomy
    assert summary["levels"]["1"]["cyclic_misalignment"] <= 1e-12
    assert summary["levels"]["2"]["cyclic_misalignment"] > 1e-3


SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@pytest.mark.parametrize("theta", [0.4, 1.1, 2.3])
def test_spin_half_cone_gives_half_the_solid_angle(tmp_path, theta):
    phis = np.linspace(0.0, 2 * np.pi, 401)
    r = np.column_stack([np.sin(theta) * np.cos(phis), np.sin(theta) * np.sin(phis), np.full_like(phis, np.cos(theta))])
    cfg = write_closed_loop(tmp_path, SIGMA, np.linspace(0.0, 10.0, 401), r)
    result = run_custom_phase(parse_config(cfg))
    pi = {lv.label: lv.pi[-1] for lv in result.levels}
    berry = np.pi * (1.0 - np.cos(theta))
    assert abs(pi[1] - np.exp(1j * berry)) <= 1e-4
    assert abs(pi[2] - np.exp(-1j * berry)) <= 1e-4
    assert abs(pi[1] - np.conj(pi[2])) <= 1e-12
