"""Run every workload over several seeds, print each metric and its spread.

Run from the repository root:

    python3 perfbench/report.py --seeds 1-10 --trace-seed 1 [--write perfbench/baseline.json]

Each (workload, seed) is one ``run.py`` process of ``run_seconds``.  For
every end-to-end metric the table gives the median over seeds, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median
next to the metric's bound in BENCHMARK.json.  ``result_error`` is checked
against each workload's tolerance on every run.  ``--trace-seed`` adds one
traced run per workload for the per-layer metrics.  ``--write`` records the
machine, the workloads and all of the above as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy
import scipy

from workloads import LAYER_MOVES, WORKLOADS, work_dir

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
    if not proc.stdout.strip():
        raise RuntimeError(f"{' '.join(cmd)} printed nothing: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = json.loads((work_dir(workload, seed, trace) / "result.json").read_text(encoding="utf-8"))
    detail.update(result=result, exit_code=proc.returncode, run_s=time.perf_counter() - started)
    return detail


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10", help="inclusive range 'lo-hi'")
    p.add_argument("--trace-seed", type=int, default=None)
    p.add_argument("--write", default=None, help="write the baseline JSON here")
    args = p.parse_args(argv)

    bench = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = seed_range(args.seeds)
    load_at_start = os.getloadavg()
    started = time.time()
    out: dict = {}
    ok = True
    for name, wl in WORKLOADS.items():
        runs = [run_once(name, seed, seconds, 0) for seed in seeds]
        fails = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        worst_error = max(r["result_error"] for r in runs)
        correct = all(r["result"]["correct"] for r in runs)
        ok &= correct
        print(f"\n{name}: {len(seeds)} seeds x {seconds} s; {wl.why}")
        stats = {}
        for metric, spec in bounds.items():
            q = quartiles([r["metrics"][metric] for r in runs])
            stats[metric] = q
            verdict = "steady" if q["spread"] < spec["bound"] / 3 else (
                "within bound" if q["spread"] <= spec["bound"] else "WIDER THAN BOUND")
            print(f"  {metric:12s} median {q['median']:10.4f} {spec['unit']:3s} "
                  f"q1 {q['q1']:10.4f} q3 {q['q3']:10.4f} spread {q['spread']:.3f} "
                  f"(bound {spec['bound']}) {verdict}")
        samples = [len(r["warm_wall_s"]) for r in runs]
        print(f"  warm samples per run {min(samples)}-{max(samples)}; "
              f"run time {max(r['run_s'] for r in runs):.1f} s at most")
        print(f"  result_error max {worst_error:.3e} (tolerance {wl.tolerance:.0e}) "
              f"{'ok' if worst_error <= wl.tolerance else 'FAIL'}; fail_rate {fails}/{attempted}"
              f"{'' if correct else '; INCORRECT runs: ' + str([r['seed'] for r in runs if not r['result']['correct']])}")
        entry = {
            "why": wl.why,
            "tolerance": wl.tolerance,
            "result_error_max": worst_error,
            "result_error_by_seed": {r["seed"]: r["result_error"] for r in runs},
            "fail_rate": fails / attempted,
            "attempted": attempted,
            "warm_samples_per_run": samples,
            "end_to_end": stats,
        }
        if args.trace_seed is not None:
            traced = run_once(name, args.trace_seed, seconds, 1)
            ok &= traced["result"]["correct"]
            entry["per_layer"] = {"seed": args.trace_seed, "metrics": traced["metrics"],
                                  "self_time_gap_s": traced["self_time_gap_s"],
                                  "correct": traced["result"]["correct"]}
            print(f"  traced seed {args.trace_seed}: tracing_overhead_s "
                  f"{traced['metrics']['tracing_overhead_s']:.3f}, outputs identical and correct: "
                  f"{traced['result']['correct']}")
        entry["blas"] = runs[0]["blas"]
        out[name] = entry

    if args.write:
        first = next(iter(out.values()))
        baseline = {
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "blas": first["blas"],
                "loadavg_at_start": load_at_start,
                "platform": platform.platform(),
            },
            "run_seconds": seconds,
            "seeds": seeds,
            "wall_clock_s": time.time() - started,
            "workloads": out,
            "layer_moves": LAYER_MOVES,
        }
        Path(args.write).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
        print(f"\nwrote {args.write}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
