"""One measurement in a fresh interpreter; prints one JSON line to stdout.

    python3 worker.py setup SPEC      import holonomy.cli, parse the config, read the input files
    python3 worker.py run SPEC ROUND  set-up, one cold invocation, then warm invocations
    python3 worker.py trace SPEC      one cold invocation, then untraced/traced pairs

The run mode ends when SPEC["round_seconds"] have passed since the
interpreter started, the trace mode after SPEC["seconds"] of invocations;
both make at least one warm invocation or pair.  ROUND names the run's
output directories.

SPEC is a JSON file written by run.py.  The interpreter must find the
package under test first on its path (run.py sets PYTHONPATH to ``src``).
The set-up clock starts before any import but ``time``.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(spec: dict) -> dict:
    import holonomy.cli
    from holonomy.config import parse_config
    from holonomy.io import read_curve_csv, read_generators_json

    config = parse_config(spec["config"])
    if spec["reads_inputs"]:
        read_generators_json(config.generators_file)
        read_curve_csv(config.curve_file, cyclic=config.cyclic)
    elapsed = time.perf_counter() - _T0
    return {"setup_s": elapsed, "package": holonomy.cli.__file__}


def invoke(cli, spec: dict, out: Path) -> dict:
    """One CLI invocation with its stderr captured into ``out/stderr.txt``."""
    out.mkdir(parents=True, exist_ok=True)
    argv = list(spec["argv"]) + (["--out", str(out)] if spec["writes_output"] else [])
    err = io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse errors exit; a failed invocation, not a dead worker
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed invocation, reported with its traceback
            rc = -1
            traceback.print_exc()
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    (out / "stderr.txt").write_text(err.getvalue(), encoding="utf-8")
    return {"out": str(out), "rc": rc, "wall_s": wall, "cpu_s": cpu}


def _room_for_another(started: float, seconds: float, last: float) -> bool:
    """Start another invocation if it is expected to end at most half its length past the window."""
    return time.perf_counter() - started + last / 2 <= seconds


def run(spec: dict, round_tag: str) -> dict:
    result = setup(spec)
    import holonomy.cli as cli

    work = Path(spec["work"])
    cold = invoke(cli, spec, work / f"out-{round_tag}-cold")
    warm = []
    while not warm or _room_for_another(_T0, spec["round_seconds"], warm[-1]["wall_s"]):
        warm.append(invoke(cli, spec, work / f"out-{round_tag}-{len(warm)}"))
    return {
        **result,
        "cold": cold,
        "warm": warm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "blas": blas_info(),
    }


def trace(spec: dict) -> dict:
    import holonomy.cli as cli
    from tracer import Tracer

    work = Path(spec["work"])
    started = time.perf_counter()
    cold = invoke(cli, spec, work / "out-cold")
    pairs = []
    while not pairs or _room_for_another(started, spec["seconds"], pairs[-1]["pair_s"]):
        k = len(pairs)
        plain = invoke(cli, spec, work / f"out-plain-{k}")
        tracer = Tracer()
        tracer.install()
        try:
            traced = invoke(cli, spec, work / f"out-traced-{k}")
        finally:
            tracer.uninstall()
        (work / f"spans-{k}.json").write_text(json.dumps(tracer.dump()), encoding="utf-8")
        pairs.append({
            "plain": plain,
            "traced": traced,
            "pair_s": plain["wall_s"] + traced["wall_s"],
            "metrics": tracer.metrics(),
            "self_time_gap_s": tracer.check_self_times(),
            "root_gap_s": tracer.check_root(traced["wall_s"]),
        })
    return {"cold": cold, "pairs": pairs}


def blas_info() -> dict:
    """Name and thread count of the OpenBLAS that numpy loaded, read from the library."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return {"library": Path(lib).name, "threads": fn()}
    return {"library": None, "threads": None}


def main() -> int:
    mode, spec_path, *extra = sys.argv[1:]
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = {"setup": setup, "run": run, "trace": trace}[mode](spec, *extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
