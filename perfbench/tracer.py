"""Per-layer tracing of the ``holonomy`` package from outside it.

:class:`Tracer` replaces each public function of each package module, in
every module namespace that binds it (the package imports names with
``from .x import y``), with a wrapper that times the call; methods are
wrapped on their class.  Every call updates per-function counts, inclusive
time and self time (its duration minus that of wrapped calls it made).
Calls of functions outside ``HOT`` also keep a span (name, start, end,
parent span); ``HOT`` functions run more than 10k times per invocation and
keep counts and times only.  Everything stays in memory until written out.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter, defaultdict

MODULES = ("cli", "config", "io", "runner", "quadrupole", "frames", "linalg", "propagate",
           "phase", "adiabatic", "gauges")
# helpers whose time belongs to their caller: fmt formats each CSV cell inside
# write_csv, as_square_matrix is the first step of every validation function
SKIP = {"io.fmt", "linalg.as_square_matrix"}
# private functions and methods that are layer boundaries of their own
EXTRA = {
    "propagate": ("_eval_nodes",),
    "frames": ("OperatorFamily.__call__",),
    "gauges": ("SmoothGauge.generator", "SmoothGauge.generator_derivative", "SmoothGauge.value_and_derivative",
               "SmoothGauge.__call__", "SmoothGauge.derivative", "_TransformedConnectionEvaluator.many",
               "_TransformedConnectionEvaluator.__call__"),
}
HOT = {
    "frames.OperatorFamily.__call__", "linalg.eig_hermitian", "linalg.require_hermitian",
    "linalg.require_unitary", "linalg.hermiticity_defect", "linalg.unitarity_defect",
    "linalg.polar_unitary_factor", "quadrupole.connection_coeffs",
    "quadrupole.gamma2_closed", "quadrupole.w2_closed", "quadrupole.w1_closed", "quadrupole.pi2_closed",
    "quadrupole.hamiltonian", "phase.wrap_angle",
}
VALIDATION = ("linalg.require_hermitian", "linalg.require_unitary", "linalg.hermiticity_defect",
              "linalg.unitarity_defect")


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)   # inclusive seconds
        self.self_time: defaultdict = defaultdict(float)
        self.spans: list[list] = []                    # [name, start, end, parent index or -1]
        self.thetas: set[float] = set()                # distinct connection_coeffs arguments
        self.steps = 0                                 # propagate steps
        self.rows = 0                                  # CSV data rows written
        self.bytes = 0                                 # bytes of files written
        self._child = [0.0]                            # per active call: time spent in wrapped children
        self._span = -1
        self._restore: list[tuple[object, str, object]] = []

    # --- wrapping -----------------------------------------------------------

    def _targets(self):
        """(name, owner, attribute, original) for every function to wrap."""
        for short in MODULES:
            mod = sys.modules[f"holonomy.{short}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_")
                        and f"{short}.{attr}" not in SKIP):
                    yield f"{short}.{attr}", mod, attr, obj
            for path in EXTRA.get(short, ()):
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                yield f"{short}.{path}", owner, attr, vars(owner)[attr]

    def install(self) -> None:
        package = [m for n, m in sys.modules.items() if n == "holonomy" or n.startswith("holonomy.")]
        for name, owner, attr, original in self._targets():
            wrapper = self._wrap(name, original)
            if inspect.isclass(owner):
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in package:  # every namespace that imported the function
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        clock = time.perf_counter
        keep_span = name not in HOT
        pre = {
            "quadrupole.connection_coeffs": self._see_theta,
            "propagate.propagate": self._see_problem,
            "io.write_csv": self._count_rows,
        }.get(name)
        post = self._see_file if name in ("io.write_csv", "io.write_json") else None

        def wrapper(*args, **kwargs):
            if pre is not None:
                args = pre(args)
            parent = tracer._span
            if keep_span:
                index = len(tracer.spans)
                tracer.spans.append([name, 0.0, 0.0, parent])
                tracer._span = index
            tracer._child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                children = tracer._child.pop()
                tracer._child[-1] += elapsed
                tracer.calls[name] += 1
                tracer.total[name] += elapsed
                tracer.self_time[name] += elapsed - children
                if keep_span:
                    tracer.spans[index][1:3] = [start, end]
                    tracer._span = parent
                if post is not None:
                    post(args)

        return wrapper

    # --- argument observers ---------------------------------------------------

    def _see_theta(self, args):
        self.thetas.add(float(args[0]))
        return args

    def _see_problem(self, args):
        self.steps += len(args[0].times) - 1
        return args

    def _count_rows(self, args):
        def counted(rows):
            for row in rows:
                self.rows += 1
                yield row
        return (args[0], args[1], counted(args[2])) + tuple(args[3:])

    def _see_file(self, args):
        self.bytes += os.path.getsize(args[0])

    # --- results --------------------------------------------------------------

    def check_self_times(self) -> float:
        """|sum of self times - root span|; the root is the outermost call (cli.main)."""
        roots = [s for s in self.spans if s[3] == -1]
        root_total = sum(end - start for _, start, end, _ in roots)
        return abs(sum(self.self_time.values()) - root_total)

    def check_root(self, wall_s: float) -> float:
        """wall_s minus the single cli.main root span; wall_s is timed outside the tracer."""
        roots = [s for s in self.spans if s[3] == -1]
        if [s[0] for s in roots] != ["cli.main"]:
            return float("inf")
        return wall_s - (roots[0][2] - roots[0][1])

    def _module_sum(self, table, module: str) -> float:
        return sum(v for k, v in table.items() if k.startswith(module + "."))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; ``_s`` values are self times unless noted."""
        s, n = self.self_time, self.calls
        coeff_calls = n["quadrupole.connection_coeffs"]
        metrics = {
            "config.parse_s": self._module_sum(s, "config"),
            "io.read_s": s["io.read_curve_csv"] + s["io.read_generators_json"],
            "io.write_s": s["io.write_csv"] + s["io.write_json"],
            "io.rows_written": self.rows,
            "io.bytes_written": self.bytes,
            "cli.self_s": self._module_sum(s, "cli"),
            "runner.self_s": self._module_sum(s, "runner"),
            "quadrupole.calls": self._module_sum(n, "quadrupole"),
            "quadrupole.self_s": self._module_sum(s, "quadrupole"),
            "quadrupole.coeffs_per_theta": coeff_calls / len(self.thetas) if self.thetas else 0.0,
            "frames.family_calls": n["frames.OperatorFamily.__call__"],
            "frames.family_s": s["frames.OperatorFamily.__call__"],
            "frames.transport_calls": n["frames.transport_frame"],
            "frames.transport_s": s["frames.transport_frame"] + s["linalg.polar_unitary_factor"],
            "frames.connection_s": s["frames.connection_matrices"],
            "linalg.eig_calls": n["linalg.eig_hermitian"],
            "linalg.eig_s": s["linalg.eig_hermitian"],
            "linalg.validate_calls": sum(n[k] for k in VALIDATION),
            "linalg.validate_s": sum(s[k] for k in VALIDATION),
            "linalg.expm_s": s["linalg.expm_skew"] + s["linalg.expm_skew_many"],
            "propagate.calls": n["propagate.propagate"],
            "propagate.steps": self.steps,
            "propagate.self_s": s["propagate.propagate"],
            "propagate.nodes_s": s["propagate._eval_nodes"],
            "phase.calls": self._module_sum(n, "phase"),
            "phase.self_s": self._module_sum(s, "phase"),
            # stage times, inclusive of everything they call
            "adiabatic.report_s": self.total["adiabatic.adiabaticity_report"],
            "adiabatic.full_s": self.total["adiabatic.full_propagator"],
            "adiabatic.u0_s": self.total["adiabatic.adiabatic_propagator"],
            "gauges.calls": self._module_sum(n, "gauges"),
            "gauges.self_s": self._module_sum(s, "gauges"),
        }
        return {k: float(v) for k, v in metrics.items()}

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "functions": {
                k: {"calls": self.calls[k], "total_s": self.total[k], "self_s": self.self_time[k]}
                for k in sorted(self.calls)
            },
        }
