import csv
import dataclasses
import hashlib
import importlib
import io as stdio
import json
import re
import warnings

import numpy as np
import pytest

from holonomy.cli import _phase_rows, main
from holonomy.config import parse_config, parse_config_text, with_overrides
from holonomy.errors import ConfigError
from holonomy.io import fmt, read_curve_csv, read_generators_json, write_csv
from holonomy.linalg import unitarity_defects
from holonomy.phase import IMAG_ROUNDOFF_FLOOR, level_trace, phase_angles
from holonomy.propagate import propagate
from holonomy.runner import run_custom_phase, run_gauge_test, run_phase, run_quadrupole_phase
from holonomy import quadrupole as qd
from test_generic_route import SIGMA, write_closed_loop, write_precession

TYCKO = qd.TYCKO_THETA

BASE_CONFIG = """
system = quadrupole
theta = tycko
phi0 = 0.0
omega = 0.15707963267948966
phi_final = 6.283185307179586
grid = 400
method = magnus4
seed = 99
gauge_count = 5
"""


@pytest.fixture
def quad_config(tmp_path):
    path = tmp_path / "quad.cfg"
    path.write_text(BASE_CONFIG)
    return path


@pytest.fixture
def custom_inputs(tmp_path):
    # two-generator spin-1/2 family on a constant curve
    sx = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
    sz = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
    gen_path = tmp_path / "gens.json"
    gen_path.write_text(json.dumps({"dimension": 2, "generators": [sx, sz]}))
    ts = np.linspace(0.0, 4.0, 161)
    rows = ["t,theta1,theta2"] + [f"{t},0.3,1.0" for t in ts]
    curve_path = tmp_path / "curve.csv"
    curve_path.write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(
        f"system = custom-family\ngenerators_file = {gen_path}\ncurve_file = {curve_path}\n"
        "levels = all\ngrid = 64\nseed = 3\n"
    )
    return cfg


def _cell_by_cell_csv(header, rows) -> bytes:
    """The bytes of csv.writer writing each cell as fmt renders it."""
    expected = stdio.StringIO(newline="")
    writer = csv.writer(expected, quoting=csv.QUOTE_MINIMAL)
    writer.writerow(header)
    writer.writerows([fmt(v) for v in row] for row in rows)
    return expected.getvalue().encode()


class TestConfigParsing:
    def test_tycko_shortcut(self):
        cfg = parse_config_text(BASE_CONFIG)
        assert cfg.theta == pytest.approx(TYCKO, abs=1e-15)
        assert cfg.method == "magnus4"
        assert cfg.levels is None

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration keys"):
            parse_config_text(BASE_CONFIG + "\nbogus = 1\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing"):
            parse_config_text("system = quadrupole\ntheta = 1.0\n")

    def test_duration_and_phi_final_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config_text(BASE_CONFIG + "\nduration = 10\n")

    def test_grid_minimum(self):
        with pytest.raises(ConfigError, match="grid"):
            parse_config_text(BASE_CONFIG.replace("grid = 400", "grid = 8"))

    def test_seed_range(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text(BASE_CONFIG.replace("seed = 99", "seed = -1"))
        with pytest.raises(ConfigError, match="seed"):
            parse_config_text(BASE_CONFIG.replace("seed = 99", f"seed = {2**64}"))

    def test_levels_parsing(self):
        cfg = parse_config_text(BASE_CONFIG + "\nlevels = 1,2\n")
        assert cfg.levels == (1, 2)
        with pytest.raises(ConfigError):
            parse_config_text(BASE_CONFIG + "\nlevels = 0,1\n")

    def test_repeated_level_label_rejected(self):
        # a repeated label would write each of its rows twice to phase.csv
        with pytest.raises(ConfigError, match="levels must not repeat a label, got '1,1'"):
            parse_config_text(BASE_CONFIG + "\nlevels = 1,1\n")

    def test_method_alias(self):
        cfg = parse_config_text(BASE_CONFIG.replace("magnus4", "midpoint"))
        assert cfg.method == "midpoint_exp"

    def test_overrides_keep_the_file_pairs(self):
        cfg = parse_config_text(BASE_CONFIG)
        over = with_overrides(cfg, grid=64, method="midpoint", seed=None)
        assert (over.grid, over.method, over.seed) == (64, "midpoint_exp", 99)
        assert over.raw == cfg.raw and over.raw["grid"] == "400"

    @pytest.mark.parametrize("command, flag, value, file_line", [
        ("phase", "--grid", "-5", "grid = 400"),
        ("phase", "--grid", "0", "grid = 400"),
        ("gauge-test", "--seed", "-1", "seed = 99"),
    ])
    def test_cli_override_checked_as_its_file_key(self, quad_config, tmp_path, capsys, command, flag, value, file_line):
        out = ["--out", str(tmp_path / "o")]
        assert main([command, "--config", str(quad_config), flag, value] + out) == 2
        from_cli = capsys.readouterr().err
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BASE_CONFIG.replace(file_line, f"{flag[2:]} = {value}"))
        assert main([command, "--config", str(cfg)] + out) == 2
        assert from_cli == capsys.readouterr().err
        assert from_cli.startswith(f"configuration error: {flag[2:]} must")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text(BASE_CONFIG + "\ngrid = 32\n" + "grid = 64\n")

    def test_mixed_system_keys_rejected(self):
        with pytest.raises(ConfigError, match="not valid"):
            parse_config_text(BASE_CONFIG + "\ncurve_file = x.csv\n")

    def test_workers_key_accepted_and_checked(self):
        # older configs still carry ``workers``; runs are sequential, so only its range is checked
        cfg = parse_config_text(BASE_CONFIG + "\nworkers = 1\n")
        assert cfg.raw["workers"] == "1" and not hasattr(cfg, "workers")
        with pytest.raises(ConfigError, match="workers"):
            parse_config_text(BASE_CONFIG + "\nworkers = 0\n")

    def test_comments_and_blank_lines(self):
        cfg = parse_config_text("# run\n\n" + BASE_CONFIG + "\n# end\n")
        assert cfg.system == "quadrupole"


class TestIO:
    def test_curve_roundtrip_with_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,a,b\n0,1,2\n1,3,4\n2,5,6\n")
        curve = read_curve_csv(path)
        assert curve.num_samples == 3 and curve.num_parameters == 2
        assert np.allclose(curve.points[1], [3, 4])

    def test_curve_headerless(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("0,1\n1,2\n")
        curve = read_curve_csv(path)
        assert curve.num_samples == 2

    def test_curve_bad_cell(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("t,a\n0,1\n1,x\n")
        with pytest.raises(ConfigError):
            read_curve_csv(path)

    def test_curve_blank_lines_spaces_and_quotes(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text('\n"t","a"\n\n 0 , 1.5\n  \n,\n"1",-2e-3\r\n\n')
        curve = read_curve_csv(path)
        assert np.array_equal(curve.times, [0.0, 1.0])
        assert np.array_equal(curve.points, [[1.5], [-2e-3]])

    def test_curve_cells_parse_as_float(self, tmp_path):
        values = [0.1, 1 / 3, -2.5e-300, 6.02214076e23, 0.30000000000000004]
        path = tmp_path / "c.csv"
        path.write_text("".join(f"{k},{v!r}\n" for k, v in enumerate(values)))
        assert read_curve_csv(path).points[:, 0].tolist() == values

    @pytest.mark.parametrize(
        "text",
        [
            "",                        # empty
            "\n  \n,,\n",              # blank lines only
            "t,a\n",                   # a header row only
            "t,a\n0,1\n",              # one sample
            "0,1,2\n1,2\n2,3,4\n",     # ragged rows
            "0,1\n1,2,3\n",            # a longer row
            "0,1\n1,\n",               # an empty cell
            "0\n1\n2\n",               # no parameter column
        ],
    )
    def test_curve_rejects(self, tmp_path, text):
        path = tmp_path / "c.csv"
        path.write_text(text)
        with pytest.raises(ConfigError):
            read_curve_csv(path)

    def test_generators_validation(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"generators": [[[0, 1], [1, 0]]]}))
        with pytest.raises(ConfigError):
            read_generators_json(path)

    def test_csv_float_precision(self, tmp_path):
        path = tmp_path / "x.csv"
        value = 1.0 / 3.0
        write_csv(path, ["v"], [[value]])
        raw = path.read_bytes()
        assert f"{value:.17g}".encode() in raw
        assert b"\r\n" in raw  # RFC-4180 line endings

    def test_csv_columns_match_cell_by_cell_writer(self, tmp_path):
        # each run of same-typed rows is written with the bytes of formatting each cell with fmt
        rng = np.random.default_rng(4)
        floats = rng.normal(size=6) * 10.0 ** rng.integers(-300, 300, size=6)
        rows = [
            [float(floats[k]), floats[k], None if k % 2 else float(k), k, np.int64(k), bool(k % 2),
             np.float32(0.1 * k), "a,b" if k == 3 else 'q"t', complex(k, 1)]
            for k in range(6)
        ]
        rows[2][0] = float("nan")
        rows[4][1] = -np.inf
        rows[5][0] = -0.0
        # a phase-shaped table: an int label column, a float-only run, then a run with blank middle
        # columns; the runs change inside the first block and the table crosses the block edge
        phase = [(0.1 * k, 1, 0.5 * k, -k / 3.0, 1.0, 0.25, 0.25, 1.0, 1e-17 * k) for k in range(1500)]
        phase += [(0.1 * k, 2, k / 7.0, 0.5, 2.0, None, None, None, 4e-16) for k in range(1500)]
        # special values inside a fast run
        special = [float("nan"), np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e-300,
                   1e-300, -1e300, np.float64(np.nan), np.float64(-0.0), np.float64(4.9e-324)]
        special = [[0.5, v, 7, None, v] for v in special]
        # one odd cell inside an otherwise fast table takes the fallback and raises no % error
        odd = [[[1.5, 2, None]] * 3 + [[1.5, v, None]] + [[1.5, 2, None]] * 3
               for v in (True, np.int64(2), np.float32(0.1), complex(1, 2), "5%", "%s,%d", "a,b", 'q"t')]
        long = [[0.1 * k, None if k > 3000 else k, "a,b" if k == 4000 else 0.5] for k in range(5000)]  # several blocks
        blank = [[None, None, None], [None], [None], [1.5, None], [None, None]]
        for table in (rows, phase, special, *odd, blank, [[None], [1.5]], [[None], [None]], [["x", 2], [3]],
                      [[], [], [1.0, 2]], [], long):
            path = tmp_path / "x.csv"
            write_csv(path, ["a", "b"], iter(table))  # an iterator: read once
            assert path.read_bytes() == _cell_by_cell_csv(["a", "b"], table)

    def test_csv_blank_for_none(self, tmp_path):
        path = tmp_path / "x.csv"
        write_csv(path, ["a", "b"], [[None, 1.5]])
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[1][0] == ""


class TestPhaseCommand:
    def test_cyclic_summary_matches_closed_form(self, quad_config, tmp_path):
        out = tmp_path / "out"
        assert main(["phase", "--config", str(quad_config), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        lv2 = summary["levels"]["2"]
        expected = qd.pi2_cyclic(TYCKO)
        assert abs(complex(lv2["re_pi"], lv2["im_pi"]) - expected) <= 1e-8
        assert summary["levels"]["1"]["visibility"] == pytest.approx(1.0, abs=1e-12)
        assert lv2["oracle_gamma_deviation"] <= 1e-8
        assert [rec["convention"] for rec in summary["levels"].values()] == ["oracle", "oracle"]

    def test_zero_length_run_single_row(self, tmp_path):
        cfg = tmp_path / "z.cfg"
        cfg.write_text(BASE_CONFIG.replace("phi_final = 6.283185307179586", "phi_final = 0.0"))
        out = tmp_path / "out"
        assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "phase.csv").read_text().strip().splitlines()
        assert len(rows) == 3  # header + one row per level
        summary = json.loads((out / "summary.json").read_text())
        assert summary["levels"]["1"]["re_pi"] == pytest.approx(1.0)
        assert summary["levels"]["2"]["re_pi"] == pytest.approx(2.0)
        assert "adiabaticity_ratio" not in summary["diagnostics"]
        # both records come from the one level-record rule, on identity overlaps and holonomies
        scenario = qd.PrecessionScenario(theta=TYCKO, phi0=0.0, omega=0.15707963267948966, phi_final=0.0)
        result = run_quadrupole_phase(scenario)
        assert result.adiabaticity_ratio is None
        lv1, lv2 = result.levels
        assert np.array_equal(lv1.unitarity_defects, [0.0]) and np.array_equal(lv2.unitarity_defects, [0.0])
        assert np.array_equal(lv1.phase_angles, [0.0]) and np.array_equal(lv1.visibilities, [1.0])
        assert lv2.phase_angles is None and lv2.visibilities is None
        assert lv2.oracle_gamma_deviation == 0.0 and lv2.oracle_trace_deviation == 0.0

    # the configuration of the README example
    README_CONFIG = (
        "system = quadrupole\ncoupling = 1.0\nrho = 1.0\ntheta = tycko\nphi0 = 0.0\n"
        "omega = 0.12566370614359174\nphi_final = 6.2831853071795865\ngrid = 800\nmethod = magnus4\n"
        "levels = 1,2\nseed = 12345\ngauge_count = 100\n"
    )

    @pytest.mark.parametrize("run", ["readme-quadrupole", "spin-half-cone-0.4", "spin-half-cone-1.1"])
    def test_summary_record_is_the_last_csv_row(self, tmp_path, run):
        if run == "readme-quadrupole":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(self.README_CONFIG)
        else:
            theta, phis = float(run.rpartition("-")[2]), np.linspace(0.0, 2 * np.pi, 401)
            r = np.column_stack([np.sin(theta) * np.cos(phis), np.sin(theta) * np.sin(phis),
                                 np.full_like(phis, np.cos(theta))])
            cfg = write_closed_loop(tmp_path / "in", SIGMA, np.linspace(0.0, 10.0, 401), r)
        out = tmp_path / "out"
        assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        last = {}
        for row in csv.DictReader((out / "phase.csv").read_text().splitlines()):
            last[row["level"]] = row
        assert set(last) == set(summary["levels"]) == {"1", "2"}
        for label, rec in summary["levels"].items():
            keys = ["re_pi", "im_pi", "abs_pi"] + [k for k in ("visibility", "phase_angle") if k in rec]
            assert "visibility" in rec or last[label]["visibility"] == ""
            assert "phase_angle" in rec or last[label]["phase_angle"] == ""
            assert {k: rec[k] for k in keys} == {k: float(last[label][k]) for k in keys}, label

    def test_orthogonal_endpoints_leave_the_angles_out(self, tmp_path):
        # theta = pi/2 and a quarter turn: the nondegenerate level's endpoint states are orthogonal
        cfg = tmp_path / "o.cfg"
        cfg.write_text(BASE_CONFIG.replace("theta = tycko", "theta = 1.5707963267948966")
                       .replace("phi_final = 6.283185307179586", "phi_final = 1.5707963267948966"))
        out = tmp_path / "out"
        assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
        lv1 = json.loads((out / "summary.json").read_text())["levels"]["1"]
        assert lv1["visibility"] <= 1e-12
        assert "holonomy_angle" in lv1
        assert "phase_angle" not in lv1 and "overlap_angle" not in lv1

    def test_deterministic_csv_bytes(self, quad_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["phase", "--config", str(quad_config), "--out", str(out1)])
        main(["phase", "--config", str(quad_config), "--out", str(out2)])
        h1 = hashlib.sha256((out1 / "phase.csv").read_bytes()).hexdigest()
        h2 = hashlib.sha256((out2 / "phase.csv").read_bytes()).hexdigest()
        assert h1 == h2

    def test_custom_phase_csv_is_the_cell_by_cell_rendering(self, tmp_path):
        # a degenerate level's rows have blank angle columns; 2 x 2401 rows cross the block edge
        cfg = write_precession(tmp_path / "in", 2401)
        out = tmp_path / "out"
        assert main(["phase", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = _phase_rows(run_phase(parse_config(cfg)))
        assert {row[1] for row in rows} == {1, 2} and any(row[5] is None for row in rows)
        assert (out / "phase.csv").read_bytes() == _cell_by_cell_csv(header, rows)

    def test_custom_family_constant_curve(self, custom_inputs, tmp_path):
        out = tmp_path / "out"
        assert main(["phase", "--config", str(custom_inputs), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for label in ("1", "2"):
            rec = summary["levels"][label]
            assert complex(rec["re_pi"], rec["im_pi"]) == pytest.approx(1.0, abs=1e-9)
        assert summary["diagnostics"]["adiabaticity_ratio"] <= 1e-12

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("system = quadrupole\nwhat = 1\n")
        assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_level_crossing_exit_code(self, tmp_path, capsys):
        gen = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        gen_path = tmp_path / "g.json"
        gen_path.write_text(json.dumps({"generators": [gen]}))
        curve_path = tmp_path / "c.csv"
        ts = np.linspace(0, 1, 33)
        curve_path.write_text("\n".join(f"{t},{1.0 - 2.0 * t}" for t in ts) + "\n")
        cfg = tmp_path / "x.cfg"
        cfg.write_text(
            f"system = custom-family\ngenerators_file = {gen_path}\ncurve_file = {curve_path}\n"
        )
        assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_level_out_of_range_before_crossing(self, tmp_path, capsys):
        # the same crossing family asked for a third level: a configuration error, not a crossing
        gen = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
        gen_path = tmp_path / "g.json"
        gen_path.write_text(json.dumps({"generators": [gen]}))
        curve_path = tmp_path / "c.csv"
        ts = np.linspace(0, 1, 33)
        curve_path.write_text("\n".join(f"{t},{1.0 - 2.0 * t}" for t in ts) + "\n")
        cfg = tmp_path / "x.cfg"
        cfg.write_text(
            f"system = custom-family\ngenerators_file = {gen_path}\ncurve_file = {curve_path}\nlevels = 1,3\n"
        )
        assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "configuration error: levels (1, 3)" in capsys.readouterr().err

    def test_custom_summary_reports_transport_margins(self, custom_inputs, tmp_path):
        out = tmp_path / "out"
        assert main(["phase", "--config", str(custom_inputs), "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for rec in summary["levels"].values():
            assert rec["min_overlap_singular_value"] == pytest.approx(1.0, abs=1e-12)  # a constant curve
            assert rec["cyclic_misalignment"] is None  # an open curve has no closure to report
            assert rec["convention"] == "parallel-transport"


    def test_real_trace_angles_read_zero_or_pi(self, tmp_path):
        # a spin-1/2 field turning 1.8 times in a plane, in a complex basis: each level's Pi is
        # cos(a/2) up to roundoff, negative over a third of the samples; -|Pi| reads +pi, never -pi
        w = np.array([[np.exp(0.7j), 0], [0, 1]]) @ np.array(
            [[np.cos(0.4), -np.sin(0.4) * np.exp(-1.1j)], [np.sin(0.4) * np.exp(1.1j), np.cos(0.4)]]
        )
        gens = [w @ g @ w.conj().T for g in (np.diag([1.0, -1.0]), np.array([[0, 1.0], [1.0, 0]]))]
        gen_path = tmp_path / "gens.json"
        gen_path.write_text(json.dumps({"generators": [[[[z.real, z.imag] for z in row] for row in g] for g in gens]}))
        a = np.linspace(0.0, 3.6 * np.pi, 2001)
        curve_path = tmp_path / "curve.csv"
        curve_path.write_text("".join(
            f"{float(t)!r},{float(np.cos(x))!r},{float(np.sin(x))!r}\n" for t, x in zip(np.linspace(0, 10, 2001), a)
        ))
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(f"system = custom-family\ngenerators_file = {gen_path}\ncurve_file = {curve_path}\n")
        for lv in run_custom_phase(parse_config(cfg)).levels:
            assert np.max(np.abs(lv.pi - np.cos(a / 2))) <= 1e-6
            assert np.array_equal(lv.phase_angles, np.where(lv.pi.real < 0, np.pi, 0.0))
            assert np.array_equal(lv.phase_unwrapped, lv.phase_angles)

    def test_abelian_link_phases_keep_a_real_trace_real(self, tmp_path):
        # one closed precession with 8001 samples: level 1's Pi is real, negative in thousands of
        # samples; without the link phases of its transported frames, roundoff of the transport
        # chain lifts |Im Pi| above the floor there and an angle reads off 0 or pi
        cfg = write_precession(tmp_path, 8001, theta=1.3648274175113995, phi0=5.955375740432253)
        lv = run_custom_phase(parse_config(cfg)).levels[0]
        assert np.count_nonzero(lv.pi.real < 0) > 1000
        assert np.max(np.abs(lv.pi.imag)) < IMAG_ROUNDOFF_FLOOR
        assert np.all((lv.phase_angles == 0.0) | (lv.phase_angles == np.pi))


class TestLoggingAndWarnings:
    def test_holonomy_log_env_sets_level(self, quad_config, tmp_path, monkeypatch):
        import logging

        monkeypatch.setenv("HOLONOMY_LOG", "DEBUG")
        assert main(["phase", "--config", str(quad_config), "--out", str(tmp_path / "o")]) == 0
        assert logging.getLogger().level == logging.DEBUG
        monkeypatch.setenv("HOLONOMY_LOG", "WARNING")
        main(["phase", "--config", str(quad_config), "--out", str(tmp_path / "o2")])
        assert logging.getLogger().level == logging.WARNING

    def test_fast_drive_warns(self, tmp_path, capsys):
        # omega comparable to the gap: adiabaticity ratio above the 0.1 level
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(BASE_CONFIG.replace("omega = 0.15707963267948966", "omega = 1.2"))
        assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
        assert "adiabaticity ratio" in capsys.readouterr().err


class TestImport:
    @staticmethod
    def fresh_interpreter(code):
        """stdout of ``code`` run by a new Python process that imports this package."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import holonomy

        env = dict(os.environ, PYTHONPATH=str(Path(holonomy.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        return out.stdout.strip()

    def test_cli_import_leaves_scipy_linalg_out(self):
        # scipy.linalg is about half of the import time and no command needs it
        code = "import sys, holonomy.cli; print('scipy.linalg' in sys.modules)"
        assert self.fresh_interpreter(code) == "False"

    def test_custom_phase_leaves_scipy_out(self, tmp_path):
        # the custom route is eigendecomposition, frame transport and overlaps: no spline, no integrator
        argv = ["phase", "--config", str(write_precession(tmp_path, 41)), "--out", str(tmp_path / "out")]
        code = f"import sys; from holonomy.cli import main; print(main({argv!r}), 'scipy' in sys.modules)"
        assert self.fresh_interpreter(code) == "0 False"

    def test_custom_adiabatic_leaves_scipy_out(self, tmp_path):
        # U0 of a custom family takes Gamma from the transported frames: no connection spline
        # (801 curve samples: the U0 grid interpolates the curve linearly, which splits the doublet between samples)
        argv = [
            "adiabatic", "--config", str(write_precession(tmp_path, 801)), "--out", str(tmp_path / "out"),
            "--tau-list", "50,100",
        ]
        code = f"import sys; from holonomy.cli import main; print(main({argv!r}), 'scipy' in sys.modules)"
        assert self.fresh_interpreter(code) == "0 False"


class TestQuadrupoleRun:
    def test_level1_trace_equals_closed_forms(self):
        scenario = qd.PrecessionScenario(theta=1.1, phi0=0.4, omega=0.3, phi_final=5.0)
        lv = run_quadrupole_phase(scenario, grid=40, diagnostics=False).levels[0]
        phis = scenario.phi_at(scenario.times(41))
        w1 = qd.w1_closed(scenario.theta, scenario.phi0, phis)
        gamma1 = qd.gamma1_closed(scenario.phi0, phis)
        assert np.array_equal(lv.pi, w1 * gamma1)
        assert np.array_equal(lv.visibilities, np.abs(w1))
        assert np.array_equal(lv.phase_angles, phase_angles(lv.pi))
        # the Gram defect |conj(g) g - 1|, as on level 2 and the custom route
        assert np.array_equal(lv.unitarity_defects, unitarity_defects(gamma1[:, None, None]))

    def test_level2_trace_equals_per_sample_reference(self):
        # the stacked rule has the bytes of the same rule on one-sample stacks; the products run
        # stack-innermost, so against np.trace(w @ g), whose BLAS product may fuse multiply-adds,
        # Pi and the Gram defects stay within 4 ulp at the unit scale of their terms
        scenario = qd.PrecessionScenario(theta=1.1, phi0=0.4, omega=0.3, phi_final=5.0)
        result = run_quadrupole_phase(scenario, grid=40, diagnostics=True)
        lv = result.levels[1]
        trace = propagate(qd.level2_holonomy_problem(scenario, 41))
        pis, defects, blas_pis, blas_defects = [], [], [], []
        for t, phi, g in zip(lv.times, result.phis, trace.matrices):
            w = qd.w2_closed(scenario.theta, scenario.phi0, phi)
            one = level_trace(2, np.array([t]), w[None], g[None], None)
            pis.append(one.pi[0])
            defects.append(one.unitarity_defects[0])
            assert one.unitarity_defects[0] == unitarity_defects(g)[0]
            blas_pis.append(np.trace(w @ g))
            blas_defects.append(np.max(np.abs(g.conj().T @ g - np.eye(2))))
        assert np.array_equal(lv.pi, pis)
        assert np.array_equal(lv.unitarity_defects, defects)
        ulp = np.spacing(np.maximum(np.abs(np.array(blas_pis)), 1.0))
        assert np.all(np.abs(lv.pi - np.array(blas_pis)) <= 4 * ulp)
        assert np.all(np.abs(lv.unitarity_defects - np.array(blas_defects)) <= 4 * np.spacing(1.0))
        gdev = max(
            float(np.max(np.abs(g - qd.gamma2_closed(scenario.theta, scenario.phi0, phi))))
            for phi, g in zip(result.phis, trace.matrices)
        )
        assert lv.oracle_gamma_deviation == gdev
        # np.abs, as the runner uses: Python's abs(complex) can differ from it by 1 ulp
        closed = [qd.pi2_closed(scenario.theta, scenario.phi0, phi) for phi in result.phis]
        assert lv.oracle_trace_deviation == float(np.max(np.abs(np.array(pis) - np.array(closed))))

    def test_reports_own_their_matrices(self):
        # no LevelTrace field is a view of an (m, l, l) stack: a trace keeps no overlap or holonomy stack alive
        scenario = qd.PrecessionScenario(theta=1.1, phi0=0.4, omega=0.3, phi_final=5.0)
        for lv in run_quadrupole_phase(scenario, grid=40, diagnostics=False).levels:
            for field in dataclasses.fields(lv):
                value = getattr(lv, field.name)
                while isinstance(value, np.ndarray):
                    assert value.ndim < 3, field.name
                    value = value.base
            assert all(type(v) in (int, float, np.float64) for v in lv.record.values())


class TestOracleVerifyCommand:
    def test_default_passes(self, quad_config):
        assert main(["oracle-verify", "--config", str(quad_config), "--random-points", "100"]) == 0

    def test_json_report(self, quad_config, tmp_path):
        out = tmp_path / "out"
        assert main(["oracle-verify", "--config", str(quad_config), "--random-points", "20", "--out", str(out)]) == 0
        report = json.loads((out / "oracle_verify.json").read_text())
        assert report["passed"] is True
        assert all(check["passed"] is True for check in report["checks"].values())

    def test_coarse_grid_fails_with_diagnosis(self, quad_config, capsys):
        code = main([
            "oracle-verify", "--config", str(quad_config), "--grid", "16", "--random-points", "20",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "holonomy_ode_vs_closed_form" in err
        assert "grid" in err

    def test_equatorial_diagonal_path(self, tmp_path):
        cfg = tmp_path / "eq.cfg"
        cfg.write_text(BASE_CONFIG.replace("theta = tycko", "theta = 1.5707963267948966"))
        assert main(["oracle-verify", "--config", str(cfg), "--random-points", "50"]) == 0


class TestSweepCommand:
    def test_single_point_matches_phase_summary(self, quad_config, tmp_path):
        out = tmp_path / "s"
        assert main([
            "sweep", "--config", str(quad_config), "--out", str(out),
            "--param", "theta", "--start", str(TYCKO), "--stop", str(TYCKO), "--count", "1",
        ]) == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 1
        got = complex(float(rows[0]["level2_re_pi"]), float(rows[0]["level2_im_pi"]))
        assert abs(got - qd.pi2_cyclic(TYCKO)) <= 1e-8

    def test_theta_sweep_matches_closed_form(self, quad_config, tmp_path):
        out = tmp_path / "s"
        assert main([
            "sweep", "--config", str(quad_config), "--out", str(out),
            "--param", "theta", "--start", "0.4", "--stop", "2.7", "--count", "9",
        ]) == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 9
        for row in rows:
            theta = float(row["theta"])
            got = complex(float(row["level2_re_pi"]), float(row["level2_im_pi"]))
            assert abs(got - qd.pi2_cyclic(theta)) <= 1e-8

    def test_phi_f_sweep_spot_check(self, quad_config, tmp_path):
        out = tmp_path / "s"
        assert main([
            "sweep", "--config", str(quad_config), "--out", str(out),
            "--param", "phi_f", "--start", str(np.pi), "--stop", str(2 * np.pi), "--count", "3",
        ]) == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        last = rows[-1]
        got = complex(float(last["level2_re_pi"]), float(last["level2_im_pi"]))
        assert abs(got - qd.pi2_cyclic(TYCKO)) <= 1e-8

    def test_json_flag_emits_summary(self, quad_config, tmp_path):
        out = tmp_path / "s"
        assert main([
            "sweep", "--config", str(quad_config), "--out", str(out),
            "--param", "theta", "--start", "0.5", "--stop", "1.0", "--count", "2", "--json",
        ]) == 0
        payload = json.loads((out / "sweep.json").read_text())
        assert payload["parameter"] == "theta"
        assert len(payload["rows"]) == 2

    def test_sweep_forms_no_oracle_deviation(self, quad_config, tmp_path, monkeypatch):
        # sweep.csv and sweep.json report no deviation from the closed forms, so a sweep computes none
        def forbidden(*args, **kwargs):
            raise AssertionError("sweep evaluated an oracle closed form")

        monkeypatch.setattr(qd, "gamma2_closed", forbidden)
        monkeypatch.setattr(qd, "pi2_closed", forbidden)
        assert main([
            "sweep", "--config", str(quad_config), "--out", str(tmp_path / "s"),
            "--param", "theta", "--start", "0.5", "--stop", "1.0", "--count", "2", "--json",
        ]) == 0
        with pytest.raises(AssertionError, match="oracle closed form"):  # the patch reaches phase's deviations
            main(["phase", "--config", str(quad_config), "--out", str(tmp_path / "p")])

    def test_rows_equal_the_last_phase_sample(self, tmp_path):
        thetas = np.linspace(0.3, 2.9, 4)
        out = tmp_path / "s"
        cfg = tmp_path / "quad.cfg"
        cfg.write_text(BASE_CONFIG.replace("grid = 400", "grid = 120"))
        assert main([
            "sweep", "--config", str(cfg), "--out", str(out),
            "--param", "theta", "--start", "0.3", "--stop", "2.9", "--count", "4",
        ]) == 0
        rows = list(csv.DictReader((out / "sweep.csv").read_text().splitlines()))
        assert len(rows) == len(thetas)
        for theta, row in zip(thetas, rows):
            assert row["theta"] == fmt(float(theta))
            point = tmp_path / f"theta{theta!r}.cfg"
            point.write_text(cfg.read_text().replace("theta = tycko", f"theta = {float(theta)!r}"))
            assert main(["phase", "--config", str(point), "--out", str(tmp_path / "p")]) == 0
            samples = list(csv.DictReader((tmp_path / "p" / "phase.csv").read_text().splitlines()))
            last = {s["level"]: s for s in samples}  # the last row of each level
            for label in ("1", "2"):
                for key in ("re_pi", "im_pi", "abs_pi"):
                    assert row[f"level{label}_{key}"] == last[label][key], (theta, label, key)
            assert row["level1_phase_angle"] == last["1"]["phase_angle"]
            assert row["level1_visibility"] == last["1"]["visibility"]
            summary = json.loads((tmp_path / "p" / "summary.json").read_text())
            assert row["max_unitarity_defect"] == fmt(summary["diagnostics"]["max_unitarity_defect"])

    def test_bad_param_rejected(self, quad_config, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main([
                "sweep", "--config", str(quad_config), "--out", str(tmp_path / "s"),
                "--param", "rho", "--start", "1", "--stop", "2", "--count", "2",
            ])


class TestAdiabaticCommand:
    def test_quadrupole_ladder(self, quad_config, tmp_path):
        out = tmp_path / "a"
        assert main([
            "adiabatic", "--config", str(quad_config), "--out", str(out),
            "--tau-list", "50,100,200",
        ]) == 0
        rows = list(csv.DictReader((out / "adiabatic.csv").read_text().splitlines()))
        defects = [float(r["defect"]) for r in rows]
        ratios = [float(r["adiabaticity_ratio"]) for r in rows]
        assert defects[0] > defects[1] > defects[2]
        assert 1.3 <= defects[0] / defects[1] <= 3.0
        assert ratios[0] == pytest.approx(2 * ratios[1], rel=1e-6)

    def test_ratios_rescale_one_report(self, quad_config):
        # one report at the first tau, scaled by tau0 / tau, equals a report per tau
        from holonomy.adiabatic import adiabaticity_report
        from holonomy.runner import run_adiabatic

        config = parse_config_text(BASE_CONFIG)
        taus = [30.0, 70.0, 110.0]
        rows = run_adiabatic(config, taus)
        scen = qd.adiabatic_scenario(config.precession_scenario())
        for (tau, _, ratio), expected_tau in zip(rows, taus):
            assert tau == expected_tau
            expected = adiabaticity_report(scen.with_tau(tau), num_samples=101).summary_ratio
            assert ratio == pytest.approx(expected, rel=1e-15, abs=0.0)

    def test_constant_custom_family(self, custom_inputs, tmp_path):
        out = tmp_path / "a"
        assert main([
            "adiabatic", "--config", str(custom_inputs), "--out", str(out),
            "--tau-list", "4,8",
        ]) == 0
        rows = list(csv.DictReader((out / "adiabatic.csv").read_text().splitlines()))
        for row in rows:
            assert float(row["defect"]) <= 1e-9

    @pytest.mark.parametrize("system", ["quadrupole", "custom-family"])
    def test_missing_levels_rejected_as_by_phase(self, system, tmp_path, capsys):
        if system == "quadrupole":
            cfg = tmp_path / "quad.cfg"
            cfg.write_text(BASE_CONFIG + "levels = 1,3\n")
            message = "quadrupole levels are labeled 1 and 2"
        else:
            cfg = write_precession(tmp_path / "in", 801, levels="1,5")
            message = "levels (1, 5) do not exist: level index 4 out of range; the family has 2 levels"
        for argv in (["phase"], ["adiabatic", "--tau-list", "50,100"]):
            assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert f"configuration error: {message}" in capsys.readouterr().err

    # the CLI checks only that --tau-list parses; every other value is the library's own DomainError
    @pytest.mark.parametrize("tau_list", ["nope", "50,50", "0,50", "-5", "nan", "inf", "100,50"])
    def test_bad_tau_list(self, quad_config, tmp_path, capsys, tau_list):
        assert main([
            "adiabatic", "--config", str(quad_config), "--out", str(tmp_path / "a"),
            "--tau-list", tau_list,
        ]) == 2
        message = {
            "nope": "--tau-list must be comma-separated numbers, got 'nope'",
            "50,50": "tau_list must be increasing",
            "0,50": "tau must be finite and positive, got 0.0",
            "-5": "tau must be finite and positive, got -5.0",
            "nan": "tau must be finite and positive, got nan",
            "inf": "tau must be finite and positive, got inf",
            "100,50": "tau_list must be increasing",
        }[tau_list]
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.fixture
    def integration_forbidden(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the full propagator was integrated")

        # the package exports the function propagate under the module's name, so import the module itself
        monkeypatch.setattr(importlib.import_module("holonomy.propagate"), "_step_factors", forbidden)

    def test_quadrupole_ladder_integrates_nothing(self, quad_config, tmp_path, integration_forbidden):
        assert main([
            "adiabatic", "--config", str(quad_config), "--out", str(tmp_path / "a"),
            "--tau-list", "50,100",
        ]) == 0

    def test_custom_family_still_integrates(self, custom_inputs, tmp_path, integration_forbidden):
        with pytest.raises(AssertionError, match="integrated"):
            main(["adiabatic", "--config", str(custom_inputs), "--out", str(tmp_path / "a"), "--tau-list", "4"])


class TestGaugeTestCommand:
    def test_passes_and_writes_rows(self, quad_config, tmp_path):
        out = tmp_path / "g"
        assert main([
            "gauge-test", "--config", str(quad_config), "--out", str(out), "--count", "5",
        ]) == 0
        rows = list(csv.DictReader((out / "gauge_test.csv").read_text().splitlines()))
        assert len(rows) == 5
        for row in rows:
            assert float(row["abs_delta_pi"]) <= 1e-9

    def test_impossible_tolerance_fails(self, quad_config):
        assert main([
            "gauge-test", "--config", str(quad_config), "--count", "2", "--tolerance", "1e-18",
        ]) == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_invalid_count_is_config_error(self, quad_config, count):
        assert main(["gauge-test", "--config", str(quad_config), "--count", count]) == 2

    def test_json_reports_the_step_norm_margin(self, quad_config, tmp_path, capsys):
        out = tmp_path / "g"
        assert main([
            "gauge-test", "--config", str(quad_config), "--out", str(out), "--count", "3", "--json",
        ]) == 0
        report = json.loads((out / "gauge_test.json").read_text())
        result = run_gauge_test(parse_config(quad_config), count=3)
        assert report["max_step_norm"] == result.max_step_norm
        assert report["step_norm_limit"] == 1.0 and 0.0 < report["max_step_norm"] < 1.0
        # the CSV header and the report line carry no margin
        assert (out / "gauge_test.csv").read_text().splitlines()[0] == "gauge_index,abs_delta_pi,conjugation_deviation"
        err = capsys.readouterr().err
        assert re.fullmatch(r"3 gauges: max \|delta Pi\| \S+, max conjugation deviation \S+ \(tolerance 1\.0e-09\)\n", err)

    def test_midpoint_is_config_error(self, quad_config, capsys):
        # midpoint's own second-order error (~2e-5) would fail the 1e-9 invariance tolerance on any gauge
        assert main(["gauge-test", "--config", str(quad_config), "--count", "3", "--method", "midpoint"]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "1e-9 invariance tolerance needs method magnus4" in err


def _write_custom(tmp_path, generators, curve_rows, extra=""):
    """Config of a custom family from generator matrices and curve rows (t, theta...); returns its path."""
    gen_path = tmp_path / "g.json"
    gen_path.write_text(json.dumps({"generators": [[[[complex(z).real, complex(z).imag] for z in row] for row in g]
                                                   for g in generators]}))
    curve_path = tmp_path / "c.csv"
    curve_path.write_text("".join(",".join(map(str, row)) + "\n" for row in curve_rows))
    cfg = tmp_path / "custom.cfg"
    cfg.write_text(f"system = custom-family\ngenerators_file = {gen_path}\ncurve_file = {curve_path}\n{extra}")
    return cfg


SX = [[0, 1], [1, 0]]
SZ = [[1, 0], [0, -1]]
ARC = [(t, np.cos(t), np.sin(t)) for t in np.linspace(0.0, 1.0, 21)]
BACKWARD = BASE_CONFIG.replace("phi_final = 6.283185307179586", "phi_final = -1.0")
OMEGA_NAN = BASE_CONFIG.replace("omega = 0.15707963267948966", "omega = nan")
DURATION_INF = BASE_CONFIG.replace("phi_final = 6.283185307179586", "duration = inf")
PHI_FINAL_NAN = BASE_CONFIG.replace("phi_final = 6.283185307179586", "phi_final = nan")
ZERO_SWEEP = BASE_CONFIG.replace("phi_final = 6.283185307179586", "phi_final = 0.0")


def _quad(text):
    def write(tmp_path):
        path = tmp_path / "quad.cfg"
        path.write_text(text)
        return path
    return write


# (id, subcommand and its own flags, config writer, the owner's message)
INVALID_INPUTS = [
    ("backward-phase", ["phase"], _quad(BACKWARD), "scenario duration must be nonnegative"),
    ("backward-adiabatic", ["adiabatic", "--tau-list", "50,100"], _quad(BACKWARD),
     "scenario duration must be nonnegative"),
    ("backward-gauge-test", ["gauge-test", "--count", "2"], _quad(BACKWARD), "scenario duration must be nonnegative"),
    ("backward-oracle-verify", ["oracle-verify", "--random-points", "5"], _quad(BACKWARD),
     "scenario duration must be nonnegative"),
    ("rho-phase", ["phase"], _quad(BASE_CONFIG + "rho = -1\n"), "field point on the symmetry axis (rho must be > 0)"),
    ("rho-oracle-verify", ["oracle-verify", "--random-points", "5"], _quad(BASE_CONFIG + "rho = -1\n"),
     "field point on the symmetry axis (rho must be > 0)"),
    ("zero-coupling", ["phase"], _quad(BASE_CONFIG + "coupling = 0\n"), "coupling must be nonzero"),
    ("non-hermitian-generator", ["phase"], lambda tmp: _write_custom(tmp, [[[0, 1], [0, 0]], SZ], ARC),
     "generator is not Hermitian"),
    ("generators-of-two-sizes", ["phase"], lambda tmp: _write_custom(tmp, [SX, np.eye(3)], ARC),
     "generators must share one dimension"),
    ("curve-times-not-increasing", ["phase"],
     lambda tmp: _write_custom(tmp, [SX, SZ], [(0, 1, 0), (1, 1, 0.1), (0.5, 1, 0.2)]),
     "curve times must be strictly increasing"),
    ("cyclic-endpoints-differ", ["phase"], lambda tmp: _write_custom(tmp, [SX, SZ], ARC, "cyclic = true\n"),
     "cyclic curve endpoints differ beyond tolerance"),
    ("curve-cell-inf", ["phase"], lambda tmp: _write_custom(tmp, [SX, SZ], [(0, 1, 0), (1, "inf", 0.1), (2, 1, 0.2)]),
     "family value has non-finite entries"),
    ("sweep-theta-from-0", ["sweep", "--param", "theta", "--start", "0", "--stop", "1", "--count", "3"],
     _quad(BASE_CONFIG), "theta must lie strictly between 0 and pi"),
    ("sweep-omega-through-0", ["sweep", "--param", "omega", "--start", "0.2", "--stop", "-0.2", "--count", "3"],
     _quad(BASE_CONFIG), "omega must be nonzero for a precessing field"),
    ("omega-nan", ["phase"], _quad(OMEGA_NAN), "omega must be finite"),
    ("duration-inf", ["phase"], _quad(DURATION_INF), "duration must be finite"),
    ("phi-final-nan", ["phase"], _quad(PHI_FINAL_NAN), "phi_final must be finite"),
    ("zero-sweep-gauge-test", ["gauge-test", "--count", "2"], _quad(ZERO_SWEEP),
     "the doublet holonomy needs a nonzero sweep, got phi_final = phi0"),
    ("zero-sweep-oracle-verify", ["oracle-verify", "--random-points", "5"], _quad(ZERO_SWEEP),
     "the doublet holonomy needs a nonzero sweep, got phi_final = phi0"),
]


class TestExitCodeContract:
    @pytest.mark.parametrize("command, write_config, message",
                             [row[1:] for row in INVALID_INPUTS], ids=[row[0] for row in INVALID_INPUTS])
    def test_invalid_input_exits_2_with_its_owners_message(self, tmp_path, capsys, command, write_config, message):
        out = tmp_path / "out"
        argv = command[:1] + ["--config", str(write_config(tmp_path)), "--out", str(out)] + command[1:]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}"), err
        assert "Traceback" not in err
        assert not out.exists()

    def test_one_level_family_runs_phase_and_adiabatic(self, tmp_path):
        # a 1x1 family has no couplings: ratio 0, and U0 is U(tau) up to roundoff
        cfg = _write_custom(tmp_path, [[[2.0]]], [(t, 1.0 + t) for t in np.linspace(0.0, 1.0, 21)])
        assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
        summary = json.loads((tmp_path / "p" / "summary.json").read_text())
        assert summary["diagnostics"]["adiabaticity_ratio"] == 0.0
        assert list(summary["levels"]) == ["1"]
        assert main(["adiabatic", "--config", str(cfg), "--out", str(tmp_path / "a"), "--tau-list", "4,8"]) == 0
        rows = list(csv.DictReader((tmp_path / "a" / "adiabatic.csv").read_text().splitlines()))
        assert [float(row["adiabaticity_ratio"]) for row in rows] == [0.0, 0.0]
        assert all(float(row["defect"]) <= 1e-12 for row in rows)

    def test_two_sample_curve_runs_phase(self, tmp_path):
        # the adiabaticity report's np.gradient needs two samples, as frame transport does
        cfg = _write_custom(tmp_path, [SX, SZ], [(0.0, 1.0, 0.0), (1.0, 0.8, 0.6)])
        assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "p")]) == 0
        summary = json.loads((tmp_path / "p" / "summary.json").read_text())
        assert summary["diagnostics"]["adiabaticity_ratio"] > 0
        assert list(summary["levels"]) == ["1", "2"]
        assert main(["adiabatic", "--config", str(cfg), "--out", str(tmp_path / "a"), "--tau-list", "4,8"]) == 0
