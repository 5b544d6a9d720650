"""Experiment orchestration and artifact output.

All data files are CSV with round-trip float formatting and no
timestamps, so identical configurations produce byte-identical outputs;
every file is written to a temporary name and atomically renamed.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import orjson

from memvisco import __version__
from memvisco.config import ExperimentConfig
from memvisco.convergence import (
    cauchy_report,
    convergence_lemma_check,
    eps_schedule,
    run_eps_sequence,
)
from memvisco.diagnostics import (
    HypothesisError,
    SingleRun,
    calibrate_decay_tolerance,
    check_bound_hypothesis,
    check_decay_hypothesis,
    check_energy_bound,
    check_energy_decay,
    check_ledger_hypothesis,
    energy_ledger,
    weak_residual,
)
from memvisco.expressions import field_from_name
from memvisco.grid import sine_transform
from memvisco.kernels import check_admissibility, check_fading_memory
from memvisco.solver import (
    CflViolation,
    ProblemSpec,
    RunRecord,
    SolverAbort,
    cfl_time_step,
    march,
    stable_time_step,
    stress_curve,
)

__all__ = ["run_experiment"]


def _dump(flat: np.ndarray) -> str:
    """orjson's comma-separated text of a float64 vector, without brackets."""
    return orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()


def _reprs(values: np.ndarray) -> list[str]:
    """repr(float(x)) for every entry of values, in C order.

    orjson prints the same shortest round-trip digits as repr, and the same
    text for |x| < 1e-9 (zeros and subnormals included) and for
    1e-4 <= |x| < 1e16.  For 1e-9 <= |x| < 1e-5 it writes one exponent
    digit where repr writes two (1e-7 for 1e-07): that class is dumped
    again as one vector, mended by one replace and scattered back.  The
    rest, 1e-5 <= |x| < 1e-4, |x| >= 1e16 and the non-finite entries, go
    to repr one by one.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    text = _dump(flat)
    out = text.split(",") if text else []
    mag = np.abs(flat)
    # the entries whose orjson text is not repr's; NaN fails every comparison
    odd = np.flatnonzero(((mag >= 1e-9) & (mag < 1e-4)) | ~(mag < 1e16))
    if odd.size:
        small = mag[odd] < 1e-5
        if small.any():
            index = odd[small]
            mended = _dump(flat[index]).replace("e-", "e-0").split(",")
            for i, entry in zip(index.tolist(), mended):
                out[i] = entry
        for i in odd[~small].tolist():
            out[i] = repr(float(flat[i]))
    return out


@contextmanager
def _atomic_file(path: Path):
    """A binary file under a temporary name: renamed to path when the block
    completes, removed when it raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_atomic(path: Path, text) -> None:
    """Write text, a string or an iterable of strings, as UTF-8."""
    with _atomic_file(path) as fh:
        for chunk in [text] if isinstance(text, str) else text:
            fh.write(chunk.encode("utf-8"))


def _csv_fields(values) -> list[str]:
    """The fields of one CSV column: None empty, ints as str, strings as
    they are and every other value as repr(float(x)), all of those in one
    _reprs call."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f":
        return _reprs(values)
    out, floats = [], []
    for v in values:
        if v is None:
            out.append("")
        elif isinstance(v, str):
            out.append(v)
        elif isinstance(v, (int, np.integer)):
            out.append(str(int(v)))
        else:
            floats.append(len(out))
            out.append(v)
    for i, text in zip(floats, _reprs(np.array([out[i] for i in floats], dtype=float))):
        out[i] = text
    return out


def _write_csv(path: Path, header: list[str], columns) -> None:
    """A CSV of the given columns, one sequence of values per header name."""
    fields = [_csv_fields(c) for c in columns]
    if len(fields) != len(header) or len({len(f) for f in fields}) > 1:
        raise ValueError("a CSV needs one column per header name, all of one length")
    lines = [",".join(header), *map(",".join, zip(*fields))]
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_manifest(out_dir: Path, payload: dict) -> None:
    # strict JSON (RFC 8259): each non-finite float is written as null
    strict = json.loads(json.dumps(payload), parse_constant=lambda _: None)
    text = json.dumps(strict, indent=2, sort_keys=True, allow_nan=False)
    _write_atomic(out_dir / "manifest.json", text + "\n")


class _Phases:
    """Wall time of each named phase of a run, summed over its repeats, and
    the time steps a phase marched, if any."""

    def __init__(self):
        self.seconds: dict[str, float] = {}
        self.steps: dict[str, int] = {}

    @contextmanager
    def __call__(self, name: str, steps: int = 0):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
            if steps:
                self.steps[name] = self.steps.get(name, 0) + steps

    def split(self, name: str, parts: dict) -> None:
        """Book parts, {phase: seconds} of work done inside phase name, to
        phases of their own."""
        for part, seconds in parts.items():
            self.seconds[name] -= seconds
            self.seconds[part] = self.seconds.get(part, 0.0) + seconds

    def report(self) -> dict:
        out = {name: {"seconds": round(sec, 6)} for name, sec in self.seconds.items()}
        for name, steps in self.steps.items():
            out[name]["n_steps"] = steps
            out[name]["seconds_per_step"] = self.seconds[name] / steps
        return out


def _process_usage() -> tuple[float, float]:
    """Peak resident MiB and user+sys CPU seconds of this process (ru_maxrss: KiB on Linux, bytes on macOS)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10), usage.ru_utime + usage.ru_stime


_PLOT_ENERGY = """\
#!/usr/bin/env python3
\"\"\"Plot the energy ledger produced by a single run.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).parent / "energy.csv")))
t = [float(r["t"]) for r in rows]
fig, (ax0, ax1) = plt.subplots(2, 1, sharex=True, figsize=(7, 7))
for key in ("stored", "kinetic", "elastic", "memory"):
    ax0.plot(t, [float(r[key]) for r in rows], label=key)
ax0.set_ylabel("energy")
ax0.legend()
res = [(float(r["t"]), float(r["residual"])) for r in rows if r["residual"]]
if res:
    ax1.semilogy(*zip(*res), label="|balance residual|")
ax1.set_xlabel("t")
ax1.legend()
fig.savefig(Path(__file__).parent / "energy.png", dpi=150)
print("wrote energy.png")
"""

_PLOT_CONVERGENCE = """\
#!/usr/bin/env python3
\"\"\"Plot the shift-sequence distances on log-log axes.\"\"\"
import csv
from pathlib import Path

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open(Path(__file__).parent / "convergence.csv")))
pairs = [(float(r["eps"]), float(r["distance_to_next"])) for r in rows if r["distance_to_next"]]
fig, ax = plt.subplots()
if pairs:
    ax.loglog(*zip(*pairs), "o-", label="successive distance")
sup = [(float(r["eps"]), float(r["kernel_sup_bound"])) for r in rows]
ax.loglog(*zip(*sup), "s--", label="kernel sup bound")
ax.set_xlabel("eps")
ax.legend()
fig.savefig(Path(__file__).parent / "convergence.png", dpi=150)
print("wrote convergence.png")
"""


def _resolve_dt(cfg: ExperimentConfig, eps_for_cfl: float) -> float:
    if cfg.dt is not None:
        return cfg.dt
    return cfl_time_step(cfg.grid, cfg.kernel, eps_for_cfl, cfg.cfl, cfg.horizon)


def _build_spec(cfg: ExperimentConfig, eps: float, dt: float) -> ProblemSpec:
    return ProblemSpec(
        kernel=cfg.kernel,
        grid=cfg.grid,
        horizon=cfg.horizon,
        dt=dt,
        eps=eps,
        u0=field_from_name(cfg.grid, cfg.u0_name, cfg.u0_params),
        u1=field_from_name(cfg.grid, cfg.u1_name, cfg.u1_params),
        forcing=cfg.forcing,
        formulation=cfg.formulation,
    )


# rows of trajectory.csv formatted and joined at a time: a level is written
# in slices of this many rows, so no level-sized list of strings is held
_SLICE_ROWS = 2048


def _trajectory_rows(grid):
    """(header, rows) of trajectory.csv: its header line, and rows(t, level,
    rate), the text of one level's rows at time text t, with nodal values
    level and velocities rate, grid.shape fields; one chunk per slice of at
    most _SLICE_ROWS rows."""
    axis_names = ["x", "y", "z"][: grid.dim]
    header = ",".join(["t", "node", *axis_names, "u", "u_t"]) + "\n"
    # "node,x[,y,z]," is the same at every level; nodes are row-major
    heads = [","]
    for a in range(grid.dim):
        tails = [x + "," for x in _reprs(grid.axis_coordinates(a))]
        heads = [head + x for head in heads for x in tails]
    for node, head in enumerate(heads):  # in place: one per-node table
        heads[node] = str(node) + head

    def rows(t, level, rate):
        u, v = level.ravel(), rate.ravel()
        for start in range(0, u.size, _SLICE_ROWS):
            stop = min(start + _SLICE_ROWS, u.size)
            # a row is the six slots "t," "node,x[,y,z]," u "," u_t "\n"
            out = [t + ",", "", "", ",", "", "\n"] * (stop - start)
            out[1::6] = heads[start:stop]
            out[2::6] = _reprs(u[start:stop])
            out[4::6] = _reprs(v[start:stop])
            yield "".join(out)

    return header, rows


@contextmanager
def _trajectory_export(out_dir: Path, cfg: ExperimentConfig, grid, times):
    """export(j, u_hat_j, v_hat_j) for SingleRun.reduce, which writes the
    levels as the march passes them: every snapshot_stride-th one to
    trajectory.csv and every one to trajectory.npy, as the config asks,
    then times.npy once the march is done.  A level's nodal values are
    formed once, for both files, and only for a level that one of them
    takes.  Each file is renamed into place when the block completes, and
    removed when it raises."""
    table = cfg.export_format in ("csv", "both")
    binary = cfg.export_format in ("binary", "both")
    stride = cfg.snapshot_stride
    one = (1, *grid.shape)
    with ExitStack() as files:
        if table:
            header, rows = _trajectory_rows(grid)
            stamps = _reprs(times[::stride])
            csv = files.enter_context(_atomic_file(out_dir / "trajectory.csv"))
            csv.write(header.encode("utf-8"))
        if binary:
            npy = files.enter_context(_atomic_file(out_dir / "trajectory.npy"))
            # the header np.save writes for the (J + 1, *grid.shape) float64 stack
            shape = (times.size, *grid.shape)
            np.lib.format.write_array_header_1_0(npy, {"descr": "<f8", "fortran_order": False, "shape": shape})

        def export(j, u, v):
            tabled = table and j % stride == 0
            if not (binary or tabled):
                return
            level = sine_transform(grid, u.reshape(one))[0]
            if binary:
                npy.write(level.tobytes())
            if tabled:
                rate = sine_transform(grid, v.reshape(one))[0]
                for chunk in rows(stamps[j // stride], level, rate):
                    csv.write(chunk.encode("utf-8"))

        yield export
    if binary:
        # np.save appends ".npy" to a name that lacks it, so it gets the file
        with _atomic_file(out_dir / "times.npy") as fh:
            np.save(fh, times)


def _export_ledger(out_dir: Path, ledger) -> None:
    """energy.csv: the level, then the ledger's fields in order, times as t."""
    columns = {"level": range(ledger.times.size)}
    columns.update(("t" if f.name == "times" else f.name, getattr(ledger, f.name)) for f in fields(ledger))
    # the residual is defined on the interior levels only
    columns["residual"] = [None, *ledger.residual, None]
    _write_csv(out_dir / "energy.csv", list(columns), columns.values())


def _write_entries(path: Path, entries) -> None:
    """A CSV of report entries, one column per dataclass field, in order."""
    names = [f.name for f in fields(entries[0])]
    _write_csv(path, names, [[getattr(e, name) for e in entries] for name in names])


def run_experiment(cfg: ExperimentConfig, out_dir) -> int:
    """Execute the configured mode; returns the process exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    verdicts: dict = {}
    runs: list = []
    phases = _Phases()
    abort_info = None

    try:
        if cfg.mode == "single_run":
            exit_code = _run_single(cfg, out_dir, verdicts, runs, phases)
        elif cfg.mode == "eps_sequence":
            exit_code = _run_sequence(cfg, out_dir, verdicts, runs, phases)
        elif cfg.mode == "admissibility":
            exit_code = _run_admissibility(cfg, out_dir, verdicts, phases)
        else:
            exit_code = _run_stress(cfg, out_dir, verdicts, phases)
    except (CflViolation, SolverAbort) as exc:
        abort_info = {
            "type": type(exc).__name__,
            "message": str(exc),
            "eps": getattr(exc, "eps", None),
        }
        verdicts["aborted"] = True
        exit_code = 3

    peak_rss_mib, cpu_seconds = _process_usage()
    manifest = {
        "tool": {"name": "memvisco", "version": __version__, "numpy": np.__version__},
        "mode": cfg.mode,
        "config": cfg.resolved,
        "defaults_applied": list(cfg.defaults_applied),
        "tolerances": cfg.tolerances,
        "timing_seconds": round(time.perf_counter() - started, 6),
        "cpu_seconds": round(cpu_seconds, 6),
        "phases": phases.report(),
        "peak_rss_mib": round(peak_rss_mib, 3),
        "verdicts": verdicts,
        "runs": runs,
        "abort": abort_info,
        "exit_code": exit_code,
    }
    _write_manifest(out_dir, manifest)
    return exit_code


def _run_record(cfg: ExperimentConfig, eps: float, dt: float, facts: RunRecord, levels_bytes: int) -> dict:
    """What the manifest keeps of one run, from its RunRecord facts.

    A leapfrog run records its stability margin, dt over the largest stable
    dt at the shift; a Volterra run its modal one, z_max, the self-weight
    times the largest eigenvalue of -lap.  A direct-backend run records the
    far history sums' fit: far_nodes terms (0 when summed directly) whose
    checked error is far_error of max |w|, w = Ksh or dG.  levels_bytes is
    the level bytes the run held: its march's buffer and the e_j stack of
    a ledger's lag passes (SingleRun.stack_bytes), or its share of a
    sequence's buffers.
    """
    record = {
        "eps": float(eps),
        "spec_fingerprint": facts.spec_fingerprint,
        "history_backend": facts.history_backend,
        "levels_bytes": int(levels_bytes),
    }
    if facts.z_max is not None:
        record["z_max"] = facts.z_max
    else:
        limit = stable_time_step(cfg.grid, cfg.kernel.modulus(float(eps)))
        record["dt_over_limit"] = dt / limit
    if facts.history_backend == "direct":
        record["far_nodes"] = facts.far_nodes
        record["far_error"] = facts.far_error
    return record


def _run_single(
    cfg: ExperimentConfig, out_dir: Path, verdicts: dict, runs: list, phases: _Phases
) -> int:
    dt = _resolve_dt(cfg, cfg.eps)
    spec = _build_spec(cfg, cfg.eps, dt)
    wanted = cfg.diagnostics

    # a diagnostic whose hypothesis the run does not meet is skipped, as the
    # spec decides before the march; the decay check, which reads the
    # ledger, goes with the ledger
    skipped = {}

    def holds(phase, names, check, *args) -> bool:
        """Whether check passes, timed as phase; else the wanted ones of names are skipped."""
        try:
            with phases(phase):
                check(*args)
        except HypothesisError as exc:
            skipped.update({name: {"skipped": str(exc)} for name in names if wanted[name] and name not in skipped})
            return False
        return True

    forced, displaced = spec.forcing is not None, bool(np.any(spec.u0.values))
    decay_on = wanted["energy_decay"] and holds("decay_calibration", ["energy_decay"], check_decay_hypothesis, forced)
    ledger_on = (wanted["energy_ledger"] or decay_on) and holds(
        "ledger", ["energy_ledger", "energy_decay"], check_ledger_hypothesis, cfg.kernel, cfg.eps
    )
    decay_on = decay_on and ledger_on
    bound_on = wanted["energy_bound"] and holds(
        "bound", ["energy_bound"], check_bound_hypothesis, cfg.kernel, cfg.eps, spec.horizon, displaced
    )

    # the march hands each block of levels to the reduction the audits and
    # the exports read: its time goes to their phases, the level sums' to
    # the ledger's, else the bound's, else the export's, with the time that
    # closes and renames the exported files
    with phases("solve", steps=spec.n_steps):
        with _trajectory_export(out_dir, cfg, spec.grid, spec.times) as export:
            (record,), levels, blocks = march(spec)
            sums = SingleRun.reduce(
                spec.grid, spec.times, blocks, spec.forcing if ledger_on else None,
                (cfg.kernel, cfg.eps) if ledger_on else None, battery=wanted["weak_residual"], export=export,
            )
            marched = time.perf_counter()
        parts = dict(sums.seconds, export=sums.seconds.get("export", 0.0) + time.perf_counter() - marched)
    summed = "ledger" if ledger_on else "bound" if bound_on else "export"
    parts[summed] = parts.get(summed, 0.0) + parts.pop("sums", 0.0)
    phases.split("solve", parts)
    runs.append(_run_record(cfg, cfg.eps, dt, record, levels.nbytes + sums.stack_bytes))
    verdicts.update(skipped)
    verdicts["dt"] = dt
    verdicts["n_steps"] = spec.n_steps
    ok = True

    if ledger_on:
        with phases("ledger"):
            ledger = energy_ledger(sums, cfg.kernel, cfg.eps, spec.forcing)
        with phases("export"):
            _export_ledger(out_dir, ledger)
            _write_atomic(out_dir / "plot_energy.py", _PLOT_ENERGY)
        verdicts["max_energy_residual"] = ledger.max_residual
        if decay_on:
            with phases("decay_calibration"):
                tol = calibrate_decay_tolerance(spec, cfg.tolerances["decay_safety"])
                decay = check_energy_decay(ledger, tol)
            verdicts["energy_decay"] = asdict(decay)
            ok = ok and decay.passed

    if bound_on:
        with phases("bound"):
            bound = check_energy_bound(sums, cfg.kernel, cfg.eps, spec.u1, spec.forcing)
        verdicts["energy_bound"] = {
            "passed": bound.passed,
            "gamma": bound.gamma,
            "bound": bound.bound,
            "max_ratio": bound.max_ratio,
        }
        ok = ok and bound.passed

    if wanted["weak_residual"]:
        with phases("weak_residual"):
            entries = weak_residual(sums, cfg.kernel, cfg.eps, spec.u0, spec.u1, spec.forcing)
        with phases("export"):
            _write_entries(out_dir / "weak_residuals.csv", entries)
        worst = max(max(abs(e.direct), abs(e.moved)) for e in entries)
        verdicts["weak_residual_max"] = worst
        ok = ok and worst <= cfg.tolerances["weak_tol"]

    return 0 if ok else 1


def _run_sequence(
    cfg: ExperimentConfig, out_dir: Path, verdicts: dict, runs: list, phases: _Phases
) -> int:
    eps_values = eps_schedule(cfg.eps0, cfg.ratio, cfg.count)
    dt = _resolve_dt(cfg, float(eps_values[-1]))
    base = _build_spec(cfg, float(eps_values[0]), dt)
    with phases("solve", steps=base.n_steps * (cfg.count + 1)):
        sequence = run_eps_sequence(base, cfg.eps0, cfg.ratio, cfg.count)
    # the sequence reduces each block of levels as the march hands it over:
    # that time goes to the phases that read the reductions
    reductions = sequence.seconds
    if not cfg.diagnostics["lemma_check"]:
        reductions = {"cauchy": reductions["cauchy"]}
    phases.split("solve", reductions)
    runs.extend(_run_record(cfg, e, dt, r, sequence.levels_bytes) for e, r in zip(eps_values, sequence.runs))
    with phases("cauchy"):
        report = cauchy_report(sequence, cfg.kernel, cfg.tolerances["cauchy_tol"])

    count = len(eps_values)
    with phases("export"):
        _write_csv(
            out_dir / "convergence.csv",
            ["h", "eps", "distance_to_next", "distance_to_finest", "kernel_sup_bound"],
            [
                range(count),
                eps_values,
                # a distance column is None past its last entry
                [*report.distances, *[None] * (count - report.distances.size)],
                [*report.tail_distances, *[None] * (count - report.tail_distances.size)],
                report.kernel_sup_bounds,
            ],
        )
        _write_atomic(out_dir / "plot_convergence.py", _PLOT_CONVERGENCE)
    verdicts["cauchy"] = {
        "passed": report.passed,
        "monotone": report.monotone,
        "fitted_rate": report.fitted_rate,
        "last_distance": float(report.distances[-1]),
        "tolerance": report.tolerance,
    }
    ok = report.passed
    print(
        f"cauchy verdict: monotone={report.monotone} "
        f"rate={report.fitted_rate:.4g} last_distance={report.distances[-1]:.4g} "
        f"passed={report.passed}"
    )

    if cfg.diagnostics["lemma_check"]:
        with phases("lemma_check"):
            entries = convergence_lemma_check(cfg.kernel, sequence)
        with phases("export"):
            _write_entries(out_dir / "lemma.csv", entries)
        within = all(e.within for e in entries)
        verdicts["lemma_check"] = {"passed": within, "entries": len(entries)}
        ok = ok and within

    return 0 if ok else 1


def _run_admissibility(
    cfg: ExperimentConfig, out_dir: Path, verdicts: dict, phases: _Phases
) -> int:
    report = check_admissibility(cfg.kernel, cfg.horizon, cfg.n_samples)
    with phases("export"):
        _write_csv(
            out_dir / "admissibility.csv",
            ["t", "modulus", "modulus_dt", "modulus_dtt"],
            [report.times, report.modulus_values, report.rate_values, report.curvature_values],
        )
    fade = check_fading_memory(cfg.kernel, history_norm_bound=1.0, tol=1e-3)
    verdicts["admissibility"] = {
        "passed": report.passed,
        "regime": report.regime,
        "modulus_positive": report.modulus_positive,
        "rate_nonpositive": report.rate_nonpositive,
        "curvature_nonnegative": report.curvature_nonnegative,
        "rate_integrable_at_zero": report.rate_integrable_at_zero,
        "integrable_on_window": report.integrable_on_window,
        "integrable_on_halfline": report.integrable_on_halfline,
        "fading_memory_shift_tol_1e-3": fade,
    }
    return 0 if report.passed else 1


def _run_stress(cfg: ExperimentConfig, out_dir: Path, verdicts: dict, phases: _Phases) -> int:
    # parse_config checked that dt divides the horizon into whole steps
    dt = cfg.dt
    n = round(cfg.horizon / dt)
    times = dt * np.arange(n + 1)
    amp = cfg.strain_amplitude
    if cfg.strain == "step":
        history = np.full(n + 1, amp)
        past = 0.0
        reference = cfg.kernel.modulus(times[1:]) * amp
    elif cfg.strain == "constant_forever":
        history = np.full(n + 1, amp)
        past = amp
        reference = np.full(n, cfg.kernel.value_at_inf * amp)
    else:  # ramp: the stress of E = amp t is amp K(t), K the integral of G
        history = amp * times
        past = 0.0
        reference = cfg.kernel.integral(times[1:]) * amp

    stress = stress_curve(cfg.kernel, history, dt, past)
    errors = np.abs(stress - reference)
    worst = float(errors.max())
    with phases("export"):
        _write_csv(
            out_dir / "stress.csv",
            ["t", "stress", "reference", "abs_error"],
            [times[1:], stress, reference, errors],
        )
    verdicts["stress"] = {"max_abs_error": worst}
    return 0 if worst <= cfg.tolerances["stress_tol"] else 1
