"""Batch front end: parse scenario configs, run computations, emit reports.

Subcommands
-----------
phase          per-sample geometric-phase trace (CSV) plus a JSON summary
oracle-verify  closed-form cross-check suites; exit 0 iff all within tolerance
sweep          one summary row per sweep point of theta, phi_f, omega or tau
adiabatic      (tau, defect, adiabaticity ratio) rows for a tau ladder
gauge-test     seeded random smooth gauges; asserts trace invariance

Exit codes: 0 success, 1 tolerance breach, 2 invalid input, 3 numerical
failure.  The class of the error decides the code, and only :func:`main`
applies the rule: ``ConfigError``, ``DomainError`` (with
``AxisSingularityError``) and ``StructuralError`` are invalid input, printed
as ``configuration error: <message>`` with exit 2 (a bad curve file, a
non-Hermitian generator, a field on the axis, a backward sweep); every other
``HolonomyError`` (a level crossing, an under-resolved curve) is printed as
``numerical failure: <message>`` with exit 3.  Orthogonal endpoints are no
failure: the level record leaves out the angles they leave undefined.  Human
diagnostics go to stderr; stdout stays silent unless --progress is given.
Set HOLONOMY_LOG to DEBUG/INFO/WARNING to adjust verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .config import ScenarioConfig, parse_config, with_overrides
from .errors import ConfigError, DomainError, HolonomyError, StructuralError
from .io import write_csv, write_json
from .propagate import STEP_NORM_LIMIT
from .runner import (
    RunResult,
    run_adiabatic,
    run_gauge_test,
    run_oracle_verify,
    run_phase,
    run_sweep,
)

log = logging.getLogger("holonomy")

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


ADIABATICITY_WARNING_LEVEL = 0.1


def _setup_logging() -> None:
    level_name = os.environ.get("HOLONOMY_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s", force=True
    )


def _load_config(args: argparse.Namespace) -> ScenarioConfig:
    return with_overrides(parse_config(args.config), grid=args.grid, method=args.method, seed=args.seed)


def _phase_rows(result: RunResult) -> tuple[list[str], list[tuple]]:
    quad = result.system == "quadrupole"
    header = ["t"] + (["phi"] if quad else []) + [
        "level", "re_pi", "im_pi", "abs_pi",
        "phase_angle", "phase_angle_unwrapped", "visibility", "unitarity_defect",
    ]
    rows: list[tuple] = []
    for lv in result.levels:
        n = len(lv.times)
        optional = [
            [None] * n if column is None else column.tolist()
            for column in (lv.phase_angles, lv.phase_unwrapped, lv.visibilities)
        ]
        columns = [lv.times.tolist()] + ([result.phis.tolist()] if quad else []) + [
            [lv.label] * n,
            lv.pi.real.tolist(),
            lv.pi.imag.tolist(),
            list(map(abs, lv.pi.tolist())),  # libm hypot, as abs of each scalar; np.abs of the array rounds differently
            *optional,
            lv.unitarity_defects.tolist(),
        ]
        rows += zip(*columns)
    return header, rows


def cmd_phase(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = run_phase(config)
    out = Path(args.out)
    header, rows = _phase_rows(result)
    write_csv(out / "phase.csv", header, rows)
    write_json(out / "summary.json", result.summary(config_echo=config.raw))
    if args.progress:
        print(f"wrote {out / 'phase.csv'} and {out / 'summary.json'}")
    if result.adiabaticity_ratio is not None and result.adiabaticity_ratio > ADIABATICITY_WARNING_LEVEL:
        log.warning(
            "adiabaticity ratio %.3g exceeds %.1f: the drive is not slow "
            "compared with the spectral gaps",
            result.adiabaticity_ratio,
            ADIABATICITY_WARNING_LEVEL,
        )
    log.info("phase run complete: %d levels, max unitarity defect %.3e",
             len(result.levels), result.max_unitarity_defect)
    return EXIT_OK


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    config = _load_config(args)
    checks = run_oracle_verify(config, num_random=args.random_points)
    failed = [c for c in checks if not c.passed]
    for c in checks:
        status = "ok" if c.passed else "FAIL"
        print(f"{status:4s} {c.name}: max deviation {c.deviation:.3e} (tolerance {c.tolerance:.1e})",
              file=sys.stderr)
    if args.out:
        write_json(
            Path(args.out) / "oracle_verify.json",
            {
                "checks": {
                    c.name: {"deviation": c.deviation, "tolerance": c.tolerance, "passed": c.passed}
                    for c in checks
                },
                "passed": not failed,
            },
        )
    if failed:
        names = ", ".join(c.name for c in failed)
        print(
            f"oracle verification failed: {names}. "
            f"If the holonomy check failed, the grid ({config.grid} steps) may be too coarse "
            "for the requested tolerance; try a finer --grid.",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    points = run_sweep(config, args.param, args.start, args.stop, args.count)
    header = [args.param]
    want = [lv.label for lv in points[0][1].levels]
    for label in want:
        header += [f"level{label}_re_pi", f"level{label}_im_pi", f"level{label}_abs_pi"]
        if label == 1:
            header += ["level1_phase_angle", "level1_visibility"]
    header += ["max_unitarity_defect"]
    rows = []
    for value, result in points:
        row: list = [value]
        for lv in result.levels:
            row += [lv.pi[-1].real, lv.pi[-1].imag, abs(lv.pi[-1])]
            if lv.label == 1:
                row += [
                    None if lv.phase_angles is None else float(lv.phase_angles[-1]),
                    None if lv.visibilities is None else float(lv.visibilities[-1]),
                ]
        row.append(result.max_unitarity_defect)
        rows.append(row)
    out = Path(args.out)
    write_csv(out / "sweep.csv", header, rows)
    if args.json:
        write_json(out / "sweep.json", {
            "parameter": args.param,
            "rows": [dict(zip(header, [None if v is None else float(v) for v in row])) for row in rows],
        })
    if args.progress:
        print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def cmd_adiabatic(args: argparse.Namespace) -> int:
    config = _load_config(args)
    try:
        tau_list = [float(tok) for tok in args.tau_list.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"--tau-list must be comma-separated numbers, got {args.tau_list!r}") from None
    if not tau_list:
        raise ConfigError("--tau-list is empty")
    rows = run_adiabatic(config, tau_list)
    out = Path(args.out)
    write_csv(out / "adiabatic.csv", ["tau", "defect", "adiabaticity_ratio"], rows)
    if args.json:
        write_json(out / "adiabatic.json", {
            "rows": [
                {"tau": tau, "defect": defect, "adiabaticity_ratio": ratio}
                for tau, defect, ratio in rows
            ],
        })
    if args.progress:
        print(f"wrote {out / 'adiabatic.csv'}")
    return EXIT_OK


def cmd_gauge_test(args: argparse.Namespace) -> int:
    config = _load_config(args)
    result = run_gauge_test(config, count=args.count, tolerance=args.tolerance)
    if args.out:
        rows = [
            (i, result.deviations_pi[i], result.deviations_conjugation[i])
            for i in range(len(result.deviations_pi))
        ]
        write_csv(Path(args.out) / "gauge_test.csv",
                  ["gauge_index", "abs_delta_pi", "conjugation_deviation"], rows)
        if args.json:
            write_json(Path(args.out) / "gauge_test.json", {
                "count": len(result.deviations_pi),
                "max_abs_delta_pi": float(np.max(result.deviations_pi)),
                "max_conjugation_deviation": float(np.max(result.deviations_conjugation)),
                "tolerance": result.tolerance,
                "passed": result.passed,
                "max_step_norm": result.max_step_norm,
                "step_norm_limit": STEP_NORM_LIMIT,
            })
    worst_pi = float(np.max(result.deviations_pi))
    worst_conj = float(np.max(result.deviations_conjugation))
    print(
        f"{len(result.deviations_pi)} gauges: max |delta Pi| {worst_pi:.3e}, "
        f"max conjugation deviation {worst_conj:.3e} (tolerance {result.tolerance:.1e})",
        file=sys.stderr,
    )
    return EXIT_OK if result.passed else EXIT_TOLERANCE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holonomy",
        description="Geometric phases for driven finite-dimensional quantum systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_out: bool = True) -> None:
        p.add_argument("--config", required=True, help="path to a key-value configuration file")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")
        else:
            p.add_argument("--out", default=None, help="optional output directory")
        p.add_argument("--grid", type=int, default=None, help="override the integration grid size")
        p.add_argument("--method", choices=["midpoint", "magnus4"], default=None,
                       help="override the integrator")
        p.add_argument("--seed", type=int, default=None, help="override the random seed")
        p.add_argument("--progress", action="store_true", help="print progress lines to stdout")
        p.add_argument("--json", action="store_true", help="also emit JSON where applicable")

    p_phase = sub.add_parser("phase", help="per-sample phase trace and summary")
    common(p_phase)
    p_phase.set_defaults(func=cmd_phase)

    p_oracle = sub.add_parser("oracle-verify", help="closed-form cross-check suites")
    common(p_oracle, needs_out=False)
    p_oracle.add_argument("--random-points", type=int, default=1000,
                          help="random draws per statistical check")
    p_oracle.set_defaults(func=cmd_oracle_verify)

    p_sweep = sub.add_parser("sweep", help="parameter sweep with one summary row per point")
    common(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=["theta", "phi_f", "omega", "tau"])
    p_sweep.add_argument("--start", required=True, type=float)
    p_sweep.add_argument("--stop", required=True, type=float)
    p_sweep.add_argument("--count", required=True, type=int)
    p_sweep.set_defaults(func=cmd_sweep)

    p_ad = sub.add_parser("adiabatic", help="tau ladder: defects and adiabaticity ratios")
    common(p_ad)
    p_ad.add_argument("--tau-list", required=True, help="comma-separated increasing durations")
    p_ad.set_defaults(func=cmd_adiabatic)

    p_gauge = sub.add_parser("gauge-test", help="seeded random gauge invariance test")
    common(p_gauge, needs_out=False)
    p_gauge.add_argument("--count", type=int, default=None, help="number of gauges (default from config)")
    p_gauge.add_argument("--tolerance", type=float, default=1e-9)
    p_gauge.set_defaults(func=cmd_gauge_test)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DomainError, StructuralError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HolonomyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
