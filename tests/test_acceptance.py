"""End-to-end acceptance gate.

Each test covers one numbered criterion and emits exactly one pass/fail
line through helpers.record; the lines are echoed in the terminal summary.
Thresholds are pinned here and nowhere else.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from memvisco import cli
from memvisco.convergence import (
    cauchy_report,
    convergence_lemma_check,
    eps_schedule,
    run_eps_sequence,
)
from memvisco.diagnostics import (
    calibrate_decay_tolerance,
    check_energy_bound,
    check_energy_decay,
    energy_ledger,
)
from memvisco.expressions import Forcing, field_from_name
from memvisco.grid import Field, Grid
from memvisco.kernels import (
    PowerLawKernel,
    PronyKernel,
    kernel_diff_bound,
)
from memvisco.solver import ProblemSpec, cfl_time_step, run

from helpers import (
    l2q_error,
    manufactured_exact,
    manufactured_forcing,
    nodal_levels,
    random_kernel,
    random_prony,
    record,
    stored_reduction,
    trajectory_distance,
    unchecked_prony,
)

PRONY = PronyKernel(0.5, ((0.5, 2.0),))
EPS = 0.05

MAX_ELASTIC_ERROR = 5e-3
MIN_ELASTIC_FACTOR = 3.5
MAX_ELASTIC_SECONDS = 5.0
MIN_MMS_ORDER = 1.8
MIN_CROSS_FACTOR = 3.2
MIN_LEDGER_FACTOR = 1.8
POWERLAW_RATE_RANGE = (0.3, 0.7)
PRONY_RATE_RANGE = (0.8, 1.2)
SUP_BOUND_TOL = 1e-12
MAX_SEQUENCE_SECONDS = 60.0
STRESS_TOL = 1e-6
MAX_SMOKE_SECONDS = 120.0


def rest_spec(kernel, grid, horizon, dt, eps=EPS, forcing=None, **kw):
    """Problem started from rest shape with a unit sine velocity kick."""
    return ProblemSpec(
        kernel=kernel,
        grid=grid,
        horizon=horizon,
        dt=dt,
        eps=eps,
        u0=Field.zero(grid),
        u1=field_from_name(grid, "sin_pi_product", {}),
        forcing=forcing,
        **kw,
    )


@pytest.fixture(scope="module")
def volterra_sequences():
    """Shift sequences for the singular and the smooth kernel, shared dt."""
    out = {}
    grid = Grid.line(49)
    for label, kernel in (("powerlaw", PowerLawKernel(1.0, 0.5)), ("prony", PRONY)):
        base = rest_spec(
            kernel, grid, 1.0, 0.005, eps=0.1, formulation="integral_volterra"
        )
        started = time.perf_counter()
        sequence = run_eps_sequence(base, 0.1, 0.5, 6)
        out[label] = (sequence, time.perf_counter() - started)
    return out


def test_01_elastic_limit_accuracy():
    started = time.perf_counter()
    kernel = PronyKernel(1.0, ())

    def max_error(n):
        grid = Grid.line(n)
        dt = cfl_time_step(grid, kernel, 1.0, 0.5, 1.0)
        x = grid.axis_coordinates(0)
        spec = ProblemSpec(
            kernel=kernel,
            grid=grid,
            horizon=1.0,
            dt=dt,
            eps=1.0,
            u0=Field(grid, np.sin(np.pi * x)),
            u1=Field.zero(grid),
        )
        traj = run(spec)
        exact = np.sin(np.pi * x)[None, :] * np.cos(np.pi * traj.times)[:, None]
        return float(np.max(np.abs(nodal_levels(traj) - exact)))

    coarse = max_error(199)
    fine = max_error(399)
    elapsed = time.perf_counter() - started
    factor = coarse / fine
    passed = (
        coarse <= MAX_ELASTIC_ERROR
        and factor >= MIN_ELASTIC_FACTOR
        and elapsed < MAX_ELASTIC_SECONDS
    )
    record(
        1,
        "elastic limit accuracy",
        passed,
        f"max_err={coarse:.3e} refine_factor={factor:.2f} time={elapsed:.2f}s",
    )


def test_02_manufactured_solution_order():
    forcing = manufactured_forcing(PRONY, EPS)
    errors = []
    for n, dt in ((24, 0.025), (49, 0.0125), (99, 0.00625)):
        grid = Grid.line(n)
        x = grid.axis_coordinates(0)
        spec = ProblemSpec(
            kernel=PRONY,
            grid=grid,
            horizon=1.0,
            dt=dt,
            eps=EPS,
            u0=Field(grid, np.sin(np.pi * x)),
            u1=Field.zero(grid),
            forcing=forcing,
        )
        traj = run(spec)
        exact = manufactured_exact(grid, traj.times)
        errors.append(l2q_error(grid, nodal_levels(traj), exact, dt))
    orders = [float(np.log2(errors[k] / errors[k + 1])) for k in range(2)]
    passed = min(orders) >= MIN_MMS_ORDER
    record(
        2,
        "manufactured solution order",
        passed,
        f"errors={['%.3e' % e for e in errors]} orders={['%.2f' % o for o in orders]}",
    )


def test_03_cross_formulation_agreement():
    grid = Grid.line(24)
    worst = np.inf
    details = []
    for label, kernel in (("prony", PRONY), ("powerlaw", PowerLawKernel(1.0, 0.5))):
        dt0 = cfl_time_step(grid, kernel, EPS, 0.5, 1.0)
        dists = []
        for dt in (dt0, dt0 / 2):
            pair = [
                run(rest_spec(kernel, grid, 1.0, dt, formulation=form))
                for form in ("integrodifferential", "integral_volterra")
            ]
            dists.append(trajectory_distance(pair[0], pair[1]))
        factor = dists[0] / dists[1]
        worst = min(worst, factor)
        details.append(f"{label}={factor:.2f}")
    passed = worst >= MIN_CROSS_FACTOR
    record(3, "cross formulation agreement", passed, " ".join(details))


def test_04_energy_identity_refinement():
    rng = np.random.default_rng(2024)
    kernels = [random_prony(rng) for _ in range(5)]
    kernels += [PowerLawKernel(1.0, a) for a in (0.3, 0.5, 0.7)]
    factors = []
    for kernel in kernels:
        residuals = []
        dt0 = cfl_time_step(Grid.line(24), kernel, EPS, 0.5, 0.5)
        for n, dt in ((24, dt0), (49, dt0 / 2)):
            spec = rest_spec(kernel, Grid.line(n), 0.5, dt)
            ledger = energy_ledger(run(spec), kernel, EPS, None)
            residuals.append(ledger.max_residual)
        factors.append(residuals[0] / residuals[1])
    worst = min(factors)
    passed = worst >= MIN_LEDGER_FACTOR
    record(
        4,
        "energy identity refinement",
        passed,
        f"kernels={len(kernels)} worst_factor={worst:.2f}",
    )


def test_05_energy_bound_suite():
    rng = np.random.default_rng(2024)
    kernels = [random_kernel(rng) for _ in range(20)]
    forcings = (
        None,
        Forcing.from_dict("sin_pi_product", {"amplitude": 0.5}),
        Forcing.from_dict("constant", {"value": 0.3, "omega": 3.0}),
    )
    grids = (Grid.line(19), Grid.box(7))
    total = violations = 0
    for kernel in kernels:
        for grid in grids:
            dt = cfl_time_step(grid, kernel, EPS, 0.5, 0.5)
            for forcing in forcings:
                spec = rest_spec(kernel, grid, 0.5, dt, forcing=forcing)
                traj = run(spec)
                report = check_energy_bound(stored_reduction(traj), kernel, EPS, spec.u1, forcing)
                total += 1
                violations += 0 if report.passed else 1
    passed = violations == 0 and total == 120
    record(
        5,
        "energy bound suite",
        passed,
        f"runs={total} violations={violations}",
    )


def test_06_energy_decay_suite():
    rng = np.random.default_rng(2024)
    kernels = [random_kernel(rng) for _ in range(20)]
    grid = Grid.line(19)
    failures = 0
    for kernel in kernels:
        dt = cfl_time_step(grid, kernel, EPS, 0.5, 0.5)
        spec = rest_spec(kernel, grid, 0.5, dt)
        ledger = energy_ledger(run(spec), kernel, EPS, None)
        tol = calibrate_decay_tolerance(spec)
        if not check_energy_decay(ledger, tol).passed:
            failures += 1

    bad = unchecked_prony(1.5, ((-0.8, 0.5),))
    dt = cfl_time_step(grid, bad, EPS, 0.5, 0.5)
    spec = rest_spec(bad, grid, 0.5, dt)
    ledger = energy_ledger(run(spec), bad, EPS, None)
    control = check_energy_decay(ledger, calibrate_decay_tolerance(spec))

    passed = failures == 0 and not control.passed
    record(
        6,
        "energy decay suite",
        passed,
        f"failures={failures}/20 negative_control_detected={not control.passed}",
    )


def test_07_vanishing_shift_rates(volterra_sequences):
    eps_values = eps_schedule(0.1, 0.5, 6)
    details = []
    checks = []
    elapsed = 0.0
    for label, lo, hi in (
        ("powerlaw", *POWERLAW_RATE_RANGE),
        ("prony", *PRONY_RATE_RANGE),
    ):
        sequence, seconds = volterra_sequences[label]
        elapsed += seconds
        kernel = PowerLawKernel(1.0, 0.5) if label == "powerlaw" else PRONY
        report = cauchy_report(sequence, kernel, tolerance=1e-2)
        checks.append(report.monotone and lo <= report.fitted_rate <= hi)
        details.append(f"{label}_rate={report.fitted_rate:.3f}")

    sup_errors = []
    unit_prony = PronyKernel(0.0, ((1.0, 1.0),))
    s_grid = np.linspace(0.0, 1.0, 101)
    for e in eps_values:
        sup_errors.append(
            abs(kernel_diff_bound(PowerLawKernel(1.0, 0.5), float(e), 0.0)
                - 2.0 * np.sqrt(e))
        )
        sup_errors.append(
            float(np.max(np.abs(
                kernel_diff_bound(unit_prony, float(e), s_grid)
                - np.exp(-s_grid) * (1.0 - np.exp(-e))
            )))
        )
    closed_form_err = max(sup_errors)
    checks.append(closed_form_err <= SUP_BOUND_TOL)
    checks.append(elapsed < MAX_SEQUENCE_SECONDS)
    details.append(f"closed_form_err={closed_form_err:.1e} time={elapsed:.1f}s")
    record(7, "vanishing shift rates", all(checks), " ".join(details))


def test_08_shift_residual_majorant(volterra_sequences):
    eps_values = eps_schedule(0.1, 0.5, 6)
    checks = []
    details = []
    for label, kernel in (("powerlaw", PowerLawKernel(1.0, 0.5)), ("prony", PRONY)):
        sequence, _ = volterra_sequences[label]
        entries = convergence_lemma_check(kernel, sequence)
        dominated = all(
            abs(e.residual) <= e.majorant * (1 + 1e-9) + 1e-300 for e in entries
        )
        peak_res = [
            max(abs(e.residual) for e in entries if e.eps == eps)
            for eps in eps_values
        ]
        peak_maj = [
            max(e.majorant for e in entries if e.eps == eps) for eps in eps_values
        ]
        vanishing = peak_res[-1] < 0.5 * peak_res[0] and peak_maj[-1] < 0.5 * peak_maj[0]
        checks.append(dominated and vanishing)
        details.append(
            f"{label}: res {peak_res[0]:.1e}->{peak_res[-1]:.1e} "
            f"maj {peak_maj[0]:.1e}->{peak_maj[-1]:.1e}"
        )
    record(8, "shift residual under majorant", all(checks), "; ".join(details))


def test_09_stress_relaxation():
    from memvisco.solver import compute_stress

    amplitude = 0.75
    worst_step = worst_const = 0.0
    for kernel in (
        PronyKernel(0.5, ((0.3, 1.0), (0.2, 0.25))),
        PronyKernel(0.2, ((0.8, 2.0),)),
    ):
        dt = 0.01
        n_levels = 201
        history = np.full(n_levels, amplitude)
        for j in range(n_levels):
            step = compute_stress(kernel, history[: j + 1], dt)
            worst_step = max(
                worst_step, abs(step - kernel.modulus(j * dt) * amplitude)
            )
            held = compute_stress(
                kernel, history[: j + 1], dt, past_value=amplitude
            )
            worst_const = max(
                worst_const, abs(held - kernel.value_at_inf * amplitude)
            )
    passed = worst_step <= STRESS_TOL and worst_const <= STRESS_TOL
    record(
        9,
        "stress relaxation",
        passed,
        f"step_err={worst_step:.1e} held_err={worst_const:.1e}",
    )


def test_10_three_d_smoke():
    started = time.perf_counter()
    grid = Grid.box(16)
    dt = cfl_time_step(grid, PRONY, EPS, 0.5, 0.5)
    u1 = field_from_name(grid, "bump", {"radius": 0.3})
    spec = ProblemSpec(
        kernel=PRONY,
        grid=grid,
        horizon=0.5,
        dt=dt,
        eps=EPS,
        u0=Field.zero(grid),
        u1=u1,
    )
    traj = run(spec)
    finite = bool(np.all(np.isfinite(nodal_levels(traj))))
    bound = check_energy_bound(stored_reduction(traj), PRONY, EPS, u1)
    elapsed = time.perf_counter() - started
    passed = finite and bound.passed and elapsed < MAX_SMOKE_SECONDS
    record(
        10,
        "three dimensional smoke",
        passed,
        f"finite={finite} bound_ratio={bound.max_ratio:.3f} time={elapsed:.1f}s",
    )


def test_11_bundled_config_determinism(tmp_path):
    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))
    assert configs, "bundled configs missing"
    compared = 0
    identical = True
    for cfg in configs:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cfg.stem}_{tag}"
            code = cli.main(["run", str(cfg), "--out", str(out)])
            assert code == 0, f"{cfg.name} exited {code}"
            outs.append(out)
        names = sorted(p.name for p in outs[0].glob("*.csv"))
        assert names, f"{cfg.name} produced no CSV output"
        for name in names:
            compared += 1
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                identical = False
    record(
        11,
        "bundled config determinism",
        identical,
        f"configs={len(configs)} csv_files_compared={compared}",
    )
