"""memvisco benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; it runs `src/memvisco` there, with
no install step.  Every measurement is a fresh `python3` process running one
experiment, one at a time (closed loop, one client).

--trace 0 (end-to-end): whole experiments, one after another, until S
seconds have passed (at least three).  Reports the medians of run_s,
setup_s, cpu_s and peak_rss_mb, and success_rate.  The three times are
given at a nominal host speed: each is multiplied by REFERENCE_NOMINAL_S
over the time of a fixed loop run in the same process on either side of
the interval it measures (see child.py).  The raw medians are printed and
kept in result.json.
--trace 1 (per layer): one untraced and two traced experiments, an import
profile and the scaling sweep.  Reports the per-layer metrics.

Every experiment is checked (exit code, manifest verdicts, reference
scalars, output line counts; see workloads.py).  Human-readable lines come
first; the last line of standard output is the JSON result.  Spans and the
full result are written under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
DEADLINE_S = 170.0  # seconds from start by which every child has ended; a run may take 180

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, check_run  # noqa: E402

MIN_RUNS = 3

# The host's speed drifts by up to 1.5x, in phases seconds to minutes long,
# so raw times of runs made minutes apart differ by more than any useful
# bound.  A fixed loop timed in the same process right beside a measured
# interval slows with it (one timed in another process does not), so each
# time is scaled by the mean speed of the loops on either side of it.  The
# child times the loop before the import, between set-up and run, and after
# the run; SCALED maps each time to the indices of its loops.  The constant
# is the loop's typical time on the machine in README.md; any fixed value
# would do, it only keeps the scaled times close to seconds.
REFERENCE_NOMINAL_S = 0.17
SCALED = {"setup_s": (0, 1), "run_s": (1, 2), "cpu_s": (0, 1, 2)}

# Counters that are exact for a given seed and must repeat between runs.
EXACT_COUNTERS = (
    "grid.gradient_sq_calls",
    "grid.laplacian_calls",
    "solver.steps",
    "runner.output_bytes",
    "expressions.forcing_calls",
)


class Bench:
    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = work / "experiment.cfg"
        self.config.write_text(workload.config(seed), encoding="utf-8")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
        )
        self.started = time.monotonic()
        self.attempted = 0
        self.failures: list[str] = []
        self.runs = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def python(self, *args: str) -> subprocess.CompletedProcess:
        # subprocess.run kills and waits for the process when it times out.
        return subprocess.run(
            [sys.executable, *args],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(self.remaining(), 1.0),
        )

    def child(self, *args: str) -> dict | None:
        self.attempted += 1
        try:
            proc = self.python(str(CHILD), *args)
        except subprocess.TimeoutExpired:
            self.failures.append(f"{args[0]}: no result before the {DEADLINE_S:.0f} s deadline")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"{args[0]}: process exited {proc.returncode}: {tail[0]}")
            return None
        for line in lines[:-1]:
            if line.startswith("trace targets not found"):
                print(line)
        return json.loads(lines[-1])

    def warm_up(self) -> None:
        """Import and parse once, unmeasured: writes the bytecode cache."""
        try:
            self.python(str(CHILD), "setup", str(self.config))
        except subprocess.TimeoutExpired:
            pass

    def experiment(self, traced: bool = False) -> dict | None:
        """One checked experiment; its outputs are deleted after the check."""
        self.runs += 1
        out = self.work / f"out{self.runs}"
        if traced:
            result = self.child("trace", str(self.config), str(out), str(self.work / f"spans{self.runs}.json"))
        else:
            result = self.child("run", str(self.config), str(out))
        if result is None:
            return None
        problems = check_run(self.workload, self.seed, result["exit"], out)
        if problems:
            self.failures.append(f"run {self.runs}: " + "; ".join(problems))
            result = None
        else:
            result["output_bytes"] = sum(
                f.stat().st_size for f in out.iterdir() if f.name != "manifest.json"
            )
        shutil.rmtree(out, ignore_errors=True)
        return result


def median(values):
    return statistics.median(values) if values else 0.0


def tail_note(values) -> str:
    """Median, the highest percentile with ten samples beyond it, the count."""
    n = len(values)
    if n == 0:
        return "no samples"
    text = f"median {median(values):.6g}, n={n}"
    if n >= 20:
        k = n - 10  # the k-th smallest has ten samples above it
        text += f", p{100 * k // n}={sorted(values)[k - 1]:.6g}"
    else:
        text += ", no percentile above the median has ten samples beyond it"
    return text


def machine() -> dict:
    import numpy
    import scipy

    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": " ".join(str(blas.get("openblas configuration", "")).split()),
        "blas_threads": blas_threads(),
        "blas_threads_env": {
            key: os.environ.get(key, "unset")
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "src_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
        ),
    }


def blas_threads() -> int | str:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            path = next(line.split()[-1] for line in fh if "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return "unknown"
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype, fn.argtypes = ctypes.c_int, []
            return int(fn())
    return "unknown"


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    runs = []
    window = time.monotonic()
    while bench.runs < MIN_RUNS or time.monotonic() - window < seconds:
        if bench.remaining() < 30:
            break
        result = bench.experiment()
        if result is not None:
            runs.append(result)
    units = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
    raw = {name: [r[name] for r in runs] for name in SCALED}
    raw["reference_s"] = [t for r in runs for t in r["references"]]

    def scaled(r: dict, name: str) -> float:
        if name not in SCALED:
            return r[name]
        loops = [r["references"][i] for i in SCALED[name]]
        return r[name] * REFERENCE_NOMINAL_S * len(loops) / sum(loops)

    samples = {name: [scaled(r, name) for r in runs] for name in units}
    metrics = {name: {"value": median(v), "unit": units[name]} for name, v in samples.items()}
    ok = bench.attempted - len(bench.failures)
    metrics["success_rate"] = {"value": ok / max(bench.attempted, 1), "unit": "ratio"}
    for name, values in samples.items():
        print(f"{name} [{units[name]}]: {tail_note(values)}")
    for name, values in raw.items():
        print(f"{name} [s] unscaled: {tail_note(values)}")
    samples["raw"] = raw
    print(f"error_rate: {len(bench.failures)}/{bench.attempted} processes failed")
    return metrics, samples


def scipy_import_s(bench: Bench) -> float:
    """Cumulative import time of the outermost scipy modules under -X importtime."""
    proc = bench.python("-X", "importtime", "-c", "import memvisco.cli")
    rows = []
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
        if m:
            rows.append((len(m.group(3)), m.group(4), int(m.group(2))))
    total = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if not name.split(".")[0] == "scipy":
            continue
        # a line's parent is the next line with a smaller depth
        parent = next((r for r in rows[i + 1 :] if r[0] < depth), None)
        if parent is None or parent[1].split(".")[0] != "scipy":
            total += cumulative
    return total / 1e6


def per_layer(bench: Bench) -> tuple[dict, dict]:
    plain = bench.experiment()
    traced = [r for r in (bench.experiment(traced=True) for _ in range(2)) if r]
    if not traced:
        return {}, {}
    sweep = bench.child("sweep") or {}
    scipy_s = scipy_import_s(bench)

    def total(r, *names):
        return sum(r["spans"].get(n, [0, 0.0])[1] for n in names)

    def count(r, *names):
        return sum(r["spans"].get(n, [0])[0] for n in names)

    def layer(r) -> dict:
        diag = [n for n in r["spans"] if n.startswith("diagnostics.")]
        kern = [n for n in r["spans"] if n.startswith("kernels.")]
        solve = total(r, "solver.run")
        return {
            "grid.gradient_sq_calls": (count(r, "grid.dirichlet_gradient_sq"), "count"),
            "grid.gradient_sq_s": (total(r, "grid.dirichlet_gradient_sq"), "s"),
            "grid.laplacian_calls": (count(r, "grid.laplacian_array"), "count"),
            "grid.laplacian_s": (total(r, "grid.laplacian_array"), "s"),
            "diagnostics.ledger_s": (total(r, "diagnostics.energy_ledger"), "s"),
            "diagnostics.decay_calibration_s": (total(r, "diagnostics.calibrate_decay_tolerance"), "s"),
            "diagnostics.weak_residual_s": (total(r, "diagnostics.weak_residual"), "s"),
            "diagnostics.bound_s": (total(r, "diagnostics.check_energy_bound"), "s"),
            "diagnostics.audit_over_solve": (total(r, *diag) / solve if solve else 0.0, "ratio"),
            "solver.solve_s": (solve, "s"),
            "solver.steps": (r["solver_steps"], "count"),
            "solver.us_per_node_step": (
                1e6 * solve / r["solver_node_steps"] if r["solver_node_steps"] else 0.0,
                "us",
            ),
            "solver.levels_mb": (r["solver_levels_bytes"] / 1e6, "MB_computed"),
            "kernels.weights_calls": (count(r, *kern), "count"),
            "kernels.weights_s": (total(r, *kern), "s"),
            "convergence.sequence_s": (total(r, "convergence.run_eps_sequence"), "s"),
            "convergence.cauchy_s": (total(r, "convergence.cauchy_report"), "s"),
            "convergence.lemma_s": (total(r, "convergence.convergence_lemma_check"), "s"),
            "expressions.forcing_calls": (count(r, "expressions.Forcing.sample"), "count"),
            "expressions.forcing_s": (total(r, "expressions.Forcing.sample"), "s"),
            "runner.self_s": (r["spans"].get("runner.run_experiment", [0, 0.0, 0.0])[2], "s"),
            "runner.output_bytes": (r["output_bytes"], "bytes"),
            "cli.import_s": (r["import_s"], "s"),
            "config.parse_s": (total(r, "config.parse_config_file"), "s"),
            "trace.run_s": (r["run_s"], "s"),
        }

    per_run = [layer(r) for r in traced]
    metrics = {}
    for name, (_, unit) in per_run[0].items():
        values = [m[name][0] for m in per_run]
        metrics[name] = {"value": values[0] if unit in ("count", "bytes") else median(values), "unit": unit}
    mismatched = [
        name for name in EXACT_COUNTERS if len({m[name][0] for m in per_run}) > 1
    ]
    for name in mismatched:
        print(f"counter {name} differs between traced runs: {[m[name][0] for m in per_run]}")
    if len(per_run) < 2:
        print("counter repeat check skipped: fewer than two traced runs succeeded")
    metrics["trace.counter_mismatches"] = {"value": len(mismatched), "unit": "count"}
    untraced = plain["run_s"] if plain else 0.0
    metrics["trace.overhead_s"] = {"value": metrics["trace.run_s"]["value"] - untraced, "unit": "s"}
    metrics["cli.import_scipy_s"] = {"value": scipy_s, "unit": "s"}
    for key, name in (
        ("solver_j_exponent", "solver.j_exponent"),
        ("ledger_j_exponent", "diagnostics.ledger_j_exponent"),
        ("solver_n_exponent", "solver.n_exponent"),
    ):
        metrics[name] = {"value": sweep.get(key, 0.0), "unit": "1"}

    run_s = metrics["trace.run_s"]["value"]
    for name in ("diagnostics.ledger_s", "solver.solve_s", "runner.self_s", "diagnostics.bound_s"):
        print(f"{name}: {metrics[name]['value']:.4g} s = {metrics[name]['value'] / run_s:.1%} of traced run_s {run_s:.4g} s")
    for point in sweep.get("j_points", []) + sweep.get("n_points", []):
        print("sweep: " + json.dumps(point))
    return metrics, {"traced": traced, "untraced": plain, "sweep": sweep}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "memvisco" / "cli.py").is_file():
        print(f"error: no memvisco sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, args.seed, work)
    bench.warm_up()

    amplitude, mode = workload.draw(args.seed)
    print(f"workload {workload.name} seed {args.seed}: amplitude {amplitude}, mode {mode}")
    if args.trace:
        metrics, samples = per_layer(bench)
    else:
        metrics, samples = end_to_end(bench, args.seconds)
    for problem in bench.failures:
        print(f"FAILED {problem}")
    info = machine()  # after the measurements, so the parent loads no BLAS during them
    print("machine: " + json.dumps(info))

    result = {
        "correct": not bench.failures and bool(metrics),
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": metrics,
    }
    (work / "result.json").write_text(
        json.dumps({**result, "machine": info, "samples": samples}, indent=1), encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
