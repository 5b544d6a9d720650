"""One measurement in a fresh interpreter; prints one JSON line as its last
line of standard output.

    python3 child.py setup CONFIG            import memvisco.cli and parse CONFIG
    python3 child.py run   CONFIG OUT        `memvisco run CONFIG --out OUT`
    python3 child.py trace CONFIG OUT SPANS  the same with layer spans, written to SPANS
    python3 child.py sweep                   solver and ledger times over J and N

`setup` and `run` go through `memvisco.cli.main`, the code path of the
`memvisco` command.  The only instrument in them is a timer around the
`run_experiment` call that `main` makes, which splits set-up from the run.
`run` also times a fixed pure-Python loop (`reference`) three times in
the same process, as a measure of the host's speed: before the import,
between set-up and run, and after the run.  Its time is left out of
`setup_s` and `run_s`, and its CPU time out of `cpu_s`.
"""

from __future__ import annotations

import json
import math
import resource
import sys
import time
from importlib import import_module

perf_counter = time.perf_counter

# (module, attribute, span name).  Each wraps a public function at the name
# its caller looks up: the modules import names directly, so the grid
# gradient used by the ledger is `memvisco.diagnostics.dirichlet_gradient_sq`,
# not `memvisco.grid.dirichlet_gradient_sq`.  weak_residual imports
# `laplacian_array` from `memvisco.grid` when it runs, hence both Laplacians.
# The product-quadrature weight builders live in memvisco.solver; their work
# is kernel evaluation and weight assembly, so they report as `kernels.*`.
TARGETS = [
    ("memvisco.cli", "parse_config_file", "config.parse_config_file"),
    ("memvisco.cli", "run_experiment", "runner.run_experiment"),
    ("memvisco.runner", "run", "solver.run"),
    ("memvisco.convergence", "run", "solver.run"),
    ("memvisco.runner", "run_eps_sequence", "convergence.run_eps_sequence"),
    ("memvisco.runner", "cauchy_report", "convergence.cauchy_report"),
    ("memvisco.runner", "convergence_lemma_check", "convergence.convergence_lemma_check"),
    ("memvisco.runner", "energy_ledger", "diagnostics.energy_ledger"),
    ("memvisco.runner", "calibrate_decay_tolerance", "diagnostics.calibrate_decay_tolerance"),
    ("memvisco.runner", "check_energy_decay", "diagnostics.check_energy_decay"),
    ("memvisco.runner", "check_energy_bound", "diagnostics.check_energy_bound"),
    ("memvisco.runner", "weak_residual", "diagnostics.weak_residual"),
    ("memvisco.diagnostics", "dirichlet_gradient_sq", "grid.dirichlet_gradient_sq"),
    ("memvisco.solver", "laplacian_array", "grid.laplacian_array"),
    ("memvisco.grid", "laplacian_array", "grid.laplacian_array"),
    ("memvisco.expressions", "Forcing.sample", "expressions.Forcing.sample"),
    ("memvisco.solver", "interval_weights", "kernels.interval_weights"),
    ("memvisco.solver", "conv_weights", "kernels.conv_weights"),
    ("memvisco.diagnostics", "interval_weights", "kernels.interval_weights"),
    ("memvisco.diagnostics", "conv_weights", "kernels.conv_weights"),
    ("memvisco.diagnostics", "direct_weights", "kernels.direct_weights"),
    ("memvisco.convergence", "interval_weights", "kernels.interval_weights"),
    ("memvisco.convergence", "conv_weights", "kernels.conv_weights"),
]


class Tracer:
    """In-memory spans [name, parent index, start, end, info] of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]
        self.missing: list[str] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        solver = name == "solver.run"

        def traced(*args, **kwargs):
            span = [name, stack[-1], perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = perf_counter()
            if solver:
                spec = args[0]
                span[4] = [spec.n_steps, spec.grid.n_total, int(result.levels.nbytes)]
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in TARGETS:
            owner = import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, leaf, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, fn))

    def summary(self) -> dict:
        """Per-name [count, inclusive seconds, self seconds], plus solver sizes."""
        child_time = [0.0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        by_name: dict[str, list] = {}
        steps = node_steps = levels_bytes = 0
        for i, (name, parent, start, end, info) in enumerate(self.spans):
            entry = by_name.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child_time[i]
            if info is not None:
                steps += info[0]
                node_steps += info[0] * info[1]
                levels_bytes += info[2]
        return {
            "spans": by_name,
            "solver_steps": steps,
            "solver_node_steps": node_steps,
            "solver_levels_bytes": levels_bytes,
        }


def _rusage() -> dict:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"cpu_s": ru.ru_utime + ru.ru_stime, "peak_rss_mb": ru.ru_maxrss / 1024.0}


def reference() -> float:
    """Wall time of a fixed pure-Python loop that touches no memvisco code."""
    start = perf_counter()
    total, table = 0.0, {}
    for i in range(1_000_000):
        total += (i % 7) * 0.5
        table[i & 255] = total
    return perf_counter() - start


def cli_run(argv: list[str]) -> None:
    mode, config = argv[0], argv[1]
    out = argv[2] if len(argv) > 2 else "unused"
    references: list[float] = []
    reference_cpu_s = 0.0

    def time_reference() -> None:
        nonlocal reference_cpu_s
        if mode == "run":
            cpu_before = _rusage()["cpu_s"]
            references.append(reference())
            reference_cpu_s += _rusage()["cpu_s"] - cpu_before

    time_reference()
    t0 = perf_counter()
    import memvisco.cli as cli

    t_import = perf_counter()
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
    real_run = cli.run_experiment
    marks = {}

    def timed_run(*args, **kwargs):
        marks["setup_end"] = perf_counter()
        time_reference()
        marks["start"] = perf_counter()
        try:
            return 0 if mode == "setup" else real_run(*args, **kwargs)
        finally:
            marks["end"] = perf_counter()

    cli.run_experiment = timed_run
    code = cli.main(["run", config, "--out", out])
    result = {
        "exit": code,
        "import_s": t_import - t0,
        "setup_s": marks["setup_end"] - t0,
        "run_s": marks["end"] - marks["start"],
        **_rusage(),
    }
    result["cpu_s"] -= reference_cpu_s
    time_reference()
    if references:
        result["references"] = references
    if tracer is not None:
        if tracer.missing:
            print("trace targets not found: " + ", ".join(tracer.missing))
        result.update(tracer.summary())
        with open(argv[3], "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start", "end", "info"], "spans": tracer.spans}, fh)
    print(json.dumps(result))


def _median_time(fn, reps: int, min_total_s: float = 0.0) -> float:
    """Median wall time of at least `reps` calls, and of enough calls to
    take `min_total_s` together."""
    times = []
    while len(times) < reps or sum(times) < min_total_s:
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return sorted(times)[len(times) // 2]


def _slope(xs, ys) -> float:
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def sweep() -> None:
    """Solver and energy-ledger time against J (1D, n = 99) and the 3D solve
    against N (n = 15, 23 at one shared dt), for the scaling exponents."""
    from memvisco.diagnostics import energy_ledger
    from memvisco.expressions import Forcing, field_from_name
    from memvisco.grid import Field, Grid
    from memvisco.kernels import PronyKernel
    from memvisco.solver import ProblemSpec, cfl_time_step, run

    kernel = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))
    eps, horizon = 0.05, 2.0

    line = Grid.line(99)
    u1 = field_from_name(line, "sin_pi_product", {"amplitude": 1.0})
    j_points = []
    for cfl in (0.5, 0.25, 0.125):
        dt = cfl_time_step(line, kernel, eps, cfl, horizon)
        spec = ProblemSpec(kernel, line, horizon, dt, eps, Field.zero(line), u1)
        traj = run(spec)
        j_points.append(
            {
                "J": spec.n_steps,
                "solve_s": _median_time(lambda: run(spec), 5, 1.0),
                "ledger_s": _median_time(lambda: energy_ledger(traj, kernel, eps), 1),
            }
        )

    forcing = Forcing.from_dict("sin_pi_product", {"omega": 6.0})
    dt = cfl_time_step(Grid.box(23), kernel, eps, 0.5, horizon)
    n_points = []
    for n in (15, 23):
        box = Grid.box(n)
        u1 = field_from_name(box, "bump", {"radius": 0.3})
        spec = ProblemSpec(kernel, box, horizon, dt, eps, Field.zero(box), u1, forcing)
        n_points.append(
            {"n": n, "N": box.n_total, "J": spec.n_steps, "solve_s": _median_time(lambda: run(spec), 5, 1.0)}
        )

    print(
        json.dumps(
            {
                "j_points": j_points,
                "n_points": n_points,
                "solver_j_exponent": _slope([p["J"] for p in j_points], [p["solve_s"] for p in j_points]),
                "ledger_j_exponent": _slope([p["J"] for p in j_points], [p["ledger_s"] for p in j_points]),
                "solver_n_exponent": _slope([p["N"] for p in n_points], [p["solve_s"] for p in n_points]),
            }
        )
    )


if __name__ == "__main__":
    if sys.argv[1] == "sweep":
        sweep()
    else:
        cli_run(sys.argv[1:])
