"""Benchmark of the ``holonomy`` CLI: time to a checked solution on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload quad-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off:

    wall_s       median warm wall time of one CLI invocation, outputs included
    cpu_s        median process CPU time of the same invocations
    setup_s      median over fresh interpreters of importing holonomy.cli,
                 parsing the config and reading the input files
    cold_run_s   median first invocation in a fresh process, right after its
                 set-up (pays lazy imports)
    peak_rss_mb  median peak resident memory of those processes, in MiB

The ``--seconds`` window is split into ROUNDS_PER_RUN rounds, so that every
metric is sampled across the whole window: a round is SETUPS_PER_ROUND
set-up-only interpreters, then one interpreter that sets up, makes the cold
invocation and warm ones until its share of the window is used (at least
one).  A warm invocation starts only if it is expected to end at most half
its length past that share.

``--trace 1`` runs untraced/traced pairs of invocations and reports the
per-layer metrics of tracer.py plus ``tracing_overhead_s``.  Every
invocation's outputs are checked against the workload's reference
(``result_error`` within its tolerance); an invocation that exits nonzero,
raises, or misses the tolerance counts as failed.  The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it list every metric by name and unit.  Work files go to
``.perfbench/`` under the current directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROUNDS_PER_RUN = 2
SETUPS_PER_ROUND = 2
WORKER_TIMEOUT_S = 150
MAX_SELF_TIME_GAP_S = 1e-6
# the cli.main span may miss at most this much of the invocation timed around it
MAX_ROOT_GAP_S = 0.005
MAX_ROOT_GAP_SHARE = 0.01
MAX_EXPANSION_MISMATCH = 1e-14

UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "cold_run_s": "s", "peak_rss_mb": "MiB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured window, cold invocation included")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def worker(mode: str, spec_path: Path, env: dict, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode, str(spec_path), *extra],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def output_digest(out: Path, files: tuple[str, ...]) -> dict:
    """Output contents; summary.json without its run-dependent wall_time_s."""
    digest = {"stderr.txt": (out / "stderr.txt").read_text(encoding="utf-8")}
    for name in files:
        text = (out / name).read_text(encoding="utf-8")
        if name == "summary.json":
            payload = json.loads(text)
            payload.pop("wall_time_s", None)
            text = json.dumps(payload, sort_keys=True)
        digest[name] = text
    return digest


def check_invocations(wl, inp, invocations: list[dict]) -> tuple[list[float], list[str]]:
    """Check every invocation; all must also produce the same outputs as the first."""
    errors, problems, reference = [], [], None
    for inv in invocations:
        out = Path(inv["out"])
        stderr = (out / "stderr.txt").read_text(encoding="utf-8")
        try:
            err = workloads.result_error(wl.name, inp, out, inv["rc"], stderr)
            if not err <= wl.tolerance:
                raise workloads.CheckError(f"result_error {err:.3e} exceeds tolerance {wl.tolerance:.0e}")
            digest = output_digest(out, wl.outputs)
            if reference is None:
                reference = digest
            elif digest != reference:
                changed = sorted(k for k in digest if digest[k] != reference.get(k))
                raise workloads.CheckError(f"outputs differ from the first invocation: {changed}")
        except (workloads.CheckError, OSError, KeyError, ValueError) as exc:
            problems.append(f"{out.name}: {exc}")
            continue
        errors.append(err)
    return errors, problems


def measure(args: argparse.Namespace, root: Path) -> tuple[dict, list[str]]:
    wl = workloads.WORKLOADS[args.workload]
    inp = workloads.draw_inputs(args.seed)
    work = workloads.work_dir(wl.name, args.seed, args.trace)
    shutil.rmtree(work, ignore_errors=True)
    spec = workloads.write_inputs(wl.name, inp, work)
    spec.update(work=str(work), seconds=args.seconds, round_seconds=args.seconds / ROUNDS_PER_RUN)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    src = root / "src"
    env = dict(os.environ, HOLONOMY_LOG="WARNING",
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))

    lines = [f"{wl.name} seed {args.seed}: theta {inp.theta:.6f}, phi0 {inp.phi0:.6f}, "
             f"gauge seed {inp.gauge_seed}; {wl.why}"]
    problems: list[str] = []
    if wl.name == "custom-loop":
        sys.path.insert(0, str(src))
        mismatch = workloads.check_generator_expansion(inp)
        lines.append(f"  generator expansion vs quadrupole.hamiltonian: {mismatch:.1e}")
        if mismatch > MAX_EXPANSION_MISMATCH:
            problems.append(f"generator expansion mismatch {mismatch:.1e}")

    detail: dict = {"workload": wl.name, "seed": args.seed, "inputs": vars(inp), "tolerance": wl.tolerance}
    if args.trace == 0:
        rounds, setups = [], []
        for k in range(ROUNDS_PER_RUN):
            setups += [worker("setup", spec_path, env) for _ in range(SETUPS_PER_ROUND)]
            rounds.append(worker("run", spec_path, env, f"r{k}"))
            setups.append(rounds[-1])
        if any(Path(s["package"]).resolve() != (src / "holonomy" / "cli.py").resolve() for s in setups):
            raise RuntimeError("holonomy was not imported from ./src")
        warm = [w for r in rounds for w in r["warm"]]
        cold = [r["cold"] for r in rounds]
        invocations = cold + warm
        metrics = {
            "wall_s": statistics.median(w["wall_s"] for w in warm),
            "cpu_s": statistics.median(w["cpu_s"] for w in warm),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "cold_run_s": statistics.median(c["wall_s"] for c in cold),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
        }
        units = UNITS
        detail.update(warm_wall_s=[w["wall_s"] for w in warm], cold_wall_s=[c["wall_s"] for c in cold],
                      setup_samples_s=[s["setup_s"] for s in setups], blas=rounds[0]["blas"])
        lines.append(f"  samples: {len(rounds)} rounds; {len(warm)} warm and {len(cold)} cold invocations, "
                     f"{len(setups)} fresh set-ups")
    else:
        res = worker("trace", spec_path, env)
        invocations = [res["cold"]] + [p[k] for p in res["pairs"] for k in ("plain", "traced")]
        keys = res["pairs"][0]["metrics"]
        metrics = {k: statistics.median(p["metrics"][k] for p in res["pairs"]) for k in keys}
        metrics["tracing_overhead_s"] = (statistics.median(p["traced"]["wall_s"] for p in res["pairs"])
                                         - statistics.median(p["plain"]["wall_s"] for p in res["pairs"]))
        units = {k: ("s" if k.endswith("_s") else "count") for k in metrics}
        gap = max(p["self_time_gap_s"] for p in res["pairs"])
        if gap > MAX_SELF_TIME_GAP_S:
            problems.append(f"self times miss the root span by {gap:.2e} s")
        root_gaps = [p["root_gap_s"] for p in res["pairs"]]
        if not all(0.0 <= g <= MAX_ROOT_GAP_S + MAX_ROOT_GAP_SHARE * p["traced"]["wall_s"]
                   for g, p in zip(root_gaps, res["pairs"])):
            problems.append(f"the cli.main root span does not cover the traced invocation: gaps {root_gaps} s")
        detail.update(self_time_gap_s=gap, root_gap_s=max(root_gaps))
        lines.append(f"  samples: {len(res['pairs'])} untraced/traced pairs after 1 cold run; "
                     f"self times sum to the root span within {gap:.1e} s; the root span is "
                     f"{max(root_gaps) * 1e3:.2f} ms at most shorter than the invocation; "
                     "traced outputs must equal untraced outputs")

    errors, failures = check_invocations(wl, inp, invocations)
    problems += failures
    fail_rate = len(failures) / len(invocations)
    result_err = max(errors) if errors else float("nan")
    for name, value in metrics.items():
        lines.append(f"  {name:28s} {value:.6g} {units[name]}")
    lines.append(f"  {'result_error':28s} {result_err:.3e} (tolerance {wl.tolerance:.0e}) "
                 f"{'ok' if result_err <= wl.tolerance else 'FAIL'}")
    lines.append(f"  {'fail_rate':28s} {len(failures)}/{len(invocations)} = {fail_rate:g}")
    lines += [f"  problem: {p}" for p in problems]

    detail.update(metrics=metrics, result_error=result_err, attempted=len(invocations),
                  failed=len(failures), problems=problems)
    (work / "result.json").write_text(json.dumps(detail, indent=1), encoding="utf-8")
    for out in work.glob("out-*"):
        shutil.rmtree(out)
    result = {
        "correct": not problems,
        "attempted": len(invocations),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "holonomy" / "cli.py").is_file():
        print("perfbench: run from the root of a holonomy checkout (src/holonomy/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    try:
        result, lines = measure(args, root)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:  # a worker died or hung: one failed attempt
        print(f"perfbench: {exc}", file=sys.stderr)
        result, lines = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}, [f"{args.workload}: failed"]
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
