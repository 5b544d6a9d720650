import contextlib
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    dirichlet_edge_differences,
    forced_box_spec,
    forcing_at,
    geometric_history,
    l2_spacetime,
    nodal_levels,
    nodal_velocities,
    oracle_specs,
    reference_bound_lhs,
    reference_decay_tolerance,
    reference_energy_ledger,
    reference_trajectory_csv,
    reference_weak_residual,
    small_march_blocks,
    stored_reduction,
    unchecked_prony,
    weak_term_magnitudes,
)
from memvisco.config import parse_config_file
from memvisco.diagnostics import (
    HypothesisError,
    ModeTestFunction,
    SingleRun,
    _lag_pass_sums,
    battery_columns,
    battery_projections,
    calibrate_decay_tolerance,
    check_energy_bound,
    check_energy_decay,
    default_battery,
    energy_ledger,
    weak_residual,
)
from memvisco.expressions import Forcing, field_from_name
from memvisco.grid import Field, Grid, l2_space
from memvisco.kernels import KernelSum, PowerLawKernel, PronyKernel, translate
from memvisco.runner import _build_spec, _resolve_dt
from memvisco.solver import (
    HistoryConvolution,
    ProblemSpec,
    RunRecord,
    TrajectorySolution,
    cfl_time_step,
    exponential_terms,
    run,
    stable_time_step,
)

PRONY = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))
CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# the bundled and drift configs whose single run calibrates the decay check
DECAY_CONFIGS = ("prony_single", "elastic_limit", "drift/kernel_sum_single", "drift/powerlaw_single_audits")


BUMP_99 = field_from_name(Grid.line(99), "bump", {"radius": 0.3})


def config_spec(path: Path) -> ProblemSpec:
    """The spec of a single-run config, as the runner builds it."""
    cfg = parse_config_file(path)
    return _build_spec(cfg, cfg.eps, _resolve_dt(cfg, cfg.eps))


def damped_spec(kernel=PRONY, n=21, eps=0.05, horizon=1.0, forcing=None, cfl=0.5):
    g = Grid.line(n)
    dt = cfl_time_step(g, kernel, eps, cfl, horizon)
    return ProblemSpec(
        kernel=kernel, grid=g, horizon=horizon, dt=dt, eps=eps,
        u0=Field.zero(g),
        u1=field_from_name(g, "sin_pi_product", {"amplitude": 1.0}),
        forcing=forcing,
    )


class TestEnergyLedger:
    def test_zero_trajectory_all_zero(self):
        g = Grid.line(15)
        spec = ProblemSpec(
            kernel=PRONY, grid=g, horizon=1.0, dt=0.02, eps=0.05,
            u0=Field.zero(g), u1=Field.zero(g),
        )
        led = energy_ledger(run(spec), PRONY, 0.05)
        for arr in (led.kinetic, led.elastic, led.memory, led.stored, led.residual):
            assert np.all(arr == 0.0)

    def test_constant_kernel_memory_inert(self):
        spec = damped_spec(kernel=PronyKernel(1.0, ()), eps=1.0)
        led = energy_ledger(run(spec), PronyKernel(1.0, ()), 1.0)
        assert np.all(led.memory == 0.0)
        assert np.all(led.rate_modulus == 0.0)
        assert np.all(led.rate_curvature == 0.0)
        # +0.0, not the -0.0 of scaling a zero sum by -0.5: the CSV keeps its bytes
        zeros = np.zeros(spec.n_steps + 1).tobytes()
        assert led.memory.tobytes() == zeros
        assert led.rate_curvature.tobytes() == zeros
        # without memory the stored energy is conserved up to O(dt^2) drift
        drift = np.abs(led.stored - led.stored[0]).max()
        assert drift < 2e-2 * led.stored[0]

    def test_memory_term_nonnegative(self):
        spec = damped_spec()
        led = energy_ledger(run(spec), PRONY, 0.05)
        assert np.all(led.memory >= -1e-15)

    def test_stored_nonnegative_and_terms_sum(self):
        spec = damped_spec()
        led = energy_ledger(run(spec), PRONY, 0.05)
        assert np.all(led.stored >= -1e-12)
        assert led.stored == pytest.approx(led.kinetic + led.elastic + led.memory)

    def test_residual_is_small_and_halves(self):
        res = []
        for n, cfl in ((21, 0.5), (43, 0.5)):
            spec = damped_spec(n=n, cfl=cfl)
            led = energy_ledger(run(spec), PRONY, 0.05)
            res.append(led.max_residual)
        assert res[1] < res[0] / 1.8

    def test_forcing_power_enters_balance(self):
        f = Forcing.from_dict("sin_pi_product", {"amplitude": 0.5})
        spec = damped_spec(forcing=f)
        led = energy_ledger(run(spec), PRONY, 0.05, forcing=f)
        assert np.abs(led.forcing_power).max() > 0.0
        assert led.max_residual < 0.05

    def test_eps_zero_needs_integrable_rate(self):
        # a nonincreasing modulus has a rate integrable at 0 exactly when
        # it is bounded there
        spec = damped_spec()
        traj = run(spec)
        with pytest.raises(HypothesisError, match="eps = 0 with a modulus unbounded at 0"):
            energy_ledger(traj, PowerLawKernel(c=1.0, alpha=0.5), 0.0)
        with pytest.raises(HypothesisError):
            energy_ledger(traj, KernelSum((PRONY, PowerLawKernel(c=1.0, alpha=0.5))), 0.0)

    def test_bounded_modulus_ledger_at_eps_zero(self):
        # eps = 0 is the kernel itself: a Volterra run of a Prony kernel
        # there balances its energy as well as a shifted run does, and its
        # residual halves with dt
        residuals = {}
        for n, dt in ((19, 0.01), (39, 0.005)):
            g = Grid.line(n)
            for eps in (0.0, 0.05):
                spec = ProblemSpec(
                    kernel=PRONY, grid=g, horizon=0.5, dt=dt, eps=eps,
                    u0=Field.zero(g),
                    u1=field_from_name(g, "sin_pi_product", {"amplitude": 1.0}),
                    formulation="integral_volterra",
                )
                led = energy_ledger(run(spec), PRONY, eps)
                assert np.all(led.memory >= 0.0)
                residuals[n, eps] = led.max_residual
        for n in (19, 39):
            assert residuals[n, 0.0] == pytest.approx(residuals[n, 0.05], rel=0.05)
        assert residuals[19, 0.0] > 1.9 * residuals[39, 0.0]

    def test_singular_kernel_ledger_via_volterra_run(self):
        k = PowerLawKernel(c=1.0, alpha=0.5)
        g = Grid.line(19)
        spec = ProblemSpec(
            kernel=k, grid=g, horizon=0.5, dt=0.01, eps=0.05,
            u0=Field.zero(g),
            u1=field_from_name(g, "sin_pi_product", {"amplitude": 1.0}),
            formulation="integral_volterra",
        )
        led = energy_ledger(run(spec), k, 0.05)
        assert np.all(np.isfinite(led.stored))
        assert np.all(led.memory >= -1e-12)


def _ledger_cases():
    power = PowerLawKernel(c=1.0, alpha=0.5)
    g19, box = Grid.line(19), Grid.box(5)
    forcing = Forcing.from_dict("sin_pi_product", {"amplitude": 0.5})
    return {
        "prony_1d": damped_spec(),
        "forced_prony_1d": damped_spec(forcing=forcing),
        "powerlaw_volterra_1d": ProblemSpec(
            kernel=power, grid=g19, horizon=0.5, dt=0.01, eps=0.05,
            u0=Field.zero(g19),
            u1=field_from_name(g19, "sin_pi_product", {"amplitude": 1.0}),
            formulation="integral_volterra",
        ),
        "prony_box3d": ProblemSpec(
            kernel=PRONY, grid=box, horizon=0.5,
            dt=cfl_time_step(box, PRONY, 0.05, 0.5, 0.5), eps=0.05,
            u0=Field.zero(box),
            u1=field_from_name(box, "sin_pi_product", {"amplitude": 1.0}),
        ),
    }


class TestLedgerMatchesReference:
    """The lag-pass ledger against the per-pair loop it replaced."""

    @pytest.mark.parametrize("case", sorted(_ledger_cases()))
    def test_every_column_within_1e12_of_column_max(self, case):
        spec = _ledger_cases()[case]
        traj = run(spec)
        led = energy_ledger(traj, spec.kernel, spec.eps, spec.forcing)
        ref = reference_energy_ledger(traj, spec.kernel, spec.eps, spec.forcing)
        assert np.abs(ref.memory).max() > 0.0  # the history sums are exercised
        for name in ref._fields:
            got, want = getattr(led, name), getattr(ref, name)
            assert got.shape == want.shape, name
            scale = float(np.abs(want).max())
            assert float(np.abs(got - want).max()) <= 1e-12 * scale, name
        if spec.forcing is None:
            # no zero field is summed, and the signs of the zeros stay
            assert led.forcing_power.tobytes() == ref.forcing_power.tobytes()


def _long_prony_spec(kernel, grid=Grid.line(99)):
    # the audit grid (1D, n = 99) over 1,591 levels; dt is PRONY's, whose
    # wave is the fastest here, so every kernel takes the same levels
    return ProblemSpec(
        kernel=kernel, grid=grid, horizon=8.0, dt=cfl_time_step(grid, PRONY, 0.05, 0.5, 8.0),
        eps=0.05, u0=Field.zero(grid),
        u1=field_from_name(grid, "sin_pi_product", {"amplitude": 1.0}),
    )


# two terms on 9^3 nodes over 276 levels
BOX_SPEC = _long_prony_spec(PronyKernel(0.3, ((0.4, 1.0), (0.3, 0.05))), Grid.box(9))


def _lag_pass_columns(spec, traj):
    """memory and rate_curvature by lag passes over the closed-form
    geometric weights, from the levels' edge differences."""
    J = traj.n_levels - 1
    edges = dirichlet_edge_differences(spec.grid, nodal_levels(traj))
    histories = [
        geometric_history(exponential_terms(translate(spec.kernel, spec.eps), spec.dt, order), J)
        for order in (1, 2)
    ]
    return -0.5 * _lag_pass_sums(edges, spec.grid.cell_volume, histories)


def _ledger_peak(spec):
    """The trajectory of spec, and the energy ledger's traced peak above
    entry."""
    import tracemalloc

    traj = run(spec)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        energy_ledger(traj, spec.kernel, spec.eps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return traj, peak - entry


class TestPronyRecursion:
    """The Prony ledger's difference-form recursion against lag passes over
    the same closed-form geometric weights."""

    @pytest.mark.parametrize(
        "spec, min_steps",
        [
            (_long_prony_spec(PRONY), 1500),
            (_long_prony_spec(PronyKernel(0.2, ((0.3, 0.02), (0.4, 0.7), (0.1, 20.0)))), 1500),
            (BOX_SPEC, 250),
        ],
        ids=["1-term", "3-term", "3d-2-term"],
    )
    def test_matches_lag_passes_at_long_horizon(self, spec, min_steps):
        traj = run(spec)
        assert traj.n_levels - 1 >= min_steps
        led = energy_ledger(traj, spec.kernel, spec.eps)
        memory, curvature = _lag_pass_columns(spec, traj)
        assert np.abs(memory).max() > 0.0
        for got, want in ((led.memory, memory), (led.rate_curvature, curvature)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        # the residual divides stored by 2 dt, so equal sums would still move
        # it by a few 1e-12 here
        stored = led.kinetic + led.elastic + memory
        residual = (stored[2:] - stored[:-2]) / (2 * spec.dt) - (
            led.forcing_power[1:-1] + led.rate_modulus[1:-1] + curvature[1:-1]
        )
        want = float(np.abs(residual).max())
        assert abs(led.max_residual - want) <= 1e-9 * want

    @pytest.mark.parametrize("block_levels", [1, 3])
    def test_state_crosses_every_block_edge(self, monkeypatch, block_levels):
        # pieces of a few levels (4 under a cap of 1 or 3): S and the Q
        # inflows carry over every piece edge
        import memvisco.solver as solver

        spec = BOX_SPEC
        monkeypatch.setattr(solver, "_BLOCK_BYTES", 8 * spec.grid.n_total * block_levels)
        traj = run(spec)
        assert solver.run_block(spec.grid.n_total, spec.n_steps + 1) == 4
        assert traj.n_levels / 4 > 60
        led = energy_ledger(traj, spec.kernel, spec.eps)
        memory, curvature = _lag_pass_columns(spec, traj)
        for got, want in ((led.memory, memory), (led.rate_curvature, curvature)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_holds_no_stack_beyond_edges(self):
        traj, peak = _ledger_peak(_long_prony_spec(PRONY))
        # blocks of sqrt(mu) u_hat, its differences and velocities, formed
        # from the coefficients, and one (terms, N) state; an edge stack
        # alone would be 1.0x, and the ledger held 1.44x with it
        assert peak < 0.5 * traj.coefficients.nbytes

    def test_holds_no_stack_beyond_edges_in_3d(self):
        traj, peak = _ledger_peak(BOX_SPEC)
        assert peak < 0.5 * traj.coefficients.nbytes


@pytest.mark.parametrize(
    "kernel",
    [PowerLawKernel(c=1.0, alpha=0.5), KernelSum((PRONY, PowerLawKernel(c=1.0, alpha=0.5)))],
    ids=["powerlaw", "sum"],
)
@pytest.mark.parametrize("grid", [Grid.line(21), Grid.box(7)], ids=["1d", "3d"])
def test_streamed_history_sums_are_the_lag_passes_bitwise(kernel, grid):
    # a leapfrog of J > 3 W steps marched into a ring and reduced as its
    # blocks pass: the e_j rows the reduction keeps are sqrt(mu) u_hat_j,
    # the product the lag passes over the stored run's coefficients take
    from memvisco.diagnostics import SingleRun, ledger_plan
    from memvisco.solver import march

    spec = ProblemSpec(
        kernel=kernel, grid=grid, horizon=4.0, dt=cfl_time_step(grid, kernel, 0.05, 0.5, 4.0), eps=0.05,
        u0=Field.zero(grid), u1=field_from_name(grid, "bump", {"radius": 0.3}),
    )
    histories = ledger_plan(kernel, spec.eps, spec.times)
    _, levels, blocks = march(spec)
    streamed = SingleRun.reduce(spec.grid, spec.times, blocks, ledger=(kernel, spec.eps))
    assert levels.shape[1] < spec.n_steps + 1  # a ring, not the stack
    traj = run(spec)
    edges = traj.coefficients.reshape(traj.n_levels, -1) * np.sqrt(grid.eigenvalues).ravel()
    want = _lag_pass_sums(edges, grid.cell_volume, histories)
    assert np.abs(want).max() > 0.0
    assert streamed.history_sums.tobytes() == want.tobytes()
    assert streamed.stack_bytes == edges.nbytes


class TestEnergyDecay:
    def test_admissible_kernel_passes(self):
        spec = damped_spec()
        led = energy_ledger(run(spec), PRONY, 0.05)
        tol = calibrate_decay_tolerance(spec)
        rep = check_energy_decay(led, tol)
        assert rep.passed
        assert rep.first_violation is None

    def test_negative_control_detected(self):
        bad = unchecked_prony(1.5, ((-0.8, 0.5),))
        spec = damped_spec(kernel=bad)
        led = energy_ledger(run(spec), bad, 0.05)
        tol = calibrate_decay_tolerance(spec)
        rep = check_energy_decay(led, tol)
        assert not rep.passed
        assert rep.first_violation is not None
        assert rep.max_increase > tol

    @pytest.mark.parametrize("omega", [None, 6.0], ids=["constant", "omega6"])
    def test_refuses_a_forced_run(self, omega):
        # the negative control, forced: the twin's tolerance grows with the
        # forcing's work, so the check passed (max increase 1.07e-2 against
        # 3.5e-2, and 6.9e-3 against 3.4e-2 at omega 6), where the unforced
        # run fails it (5.5e-3 against 3.7e-4); the tolerance here is the
        # unforced twin's, as calibrate_decay_tolerance refuses a forced spec
        bad = unchecked_prony(1.5, ((-0.8, 0.5),))
        params = {"amplitude": 0.5} if omega is None else {"amplitude": 0.5, "omega": omega}
        forcing = Forcing.from_dict("sin_pi_product", params)
        spec = damped_spec(kernel=bad, n=19, horizon=0.5, forcing=forcing)
        led = energy_ledger(run(spec), bad, 0.05, forcing)
        tol = calibrate_decay_tolerance(dataclasses.replace(spec, forcing=None))
        with pytest.raises(HypothesisError, match="^forced run"):
            check_energy_decay(led, tol)

    def test_tolerance_scales_with_safety(self):
        spec = damped_spec()
        assert calibrate_decay_tolerance(spec, safety=10.0) == pytest.approx(
            2.0 * calibrate_decay_tolerance(spec, safety=5.0), rel=1e-6, abs=1e-12
        )

    def test_calibration_positive(self):
        assert calibrate_decay_tolerance(damped_spec()) > 0.0

    @pytest.mark.parametrize(
        "spec",
        [
            damped_spec(),
            dataclasses.replace(forced_box_spec(7, 0.5), forcing=None),
            *(config_spec(CONFIGS / f"{name}.cfg") for name in DECAY_CONFIGS),
            *(dataclasses.replace(damped_spec(n=99, horizon=2.0, cfl=cfl), u1=BUMP_99) for cfl in (0.5, 1.0)),
            dataclasses.replace(damped_spec(), u0=field_from_name(Grid.line(21), "bump", {"radius": 0.3})),
        ],
        ids=["prony-1d", "box-3d", *DECAY_CONFIGS, "cfl-0.5", "cfl-1", "displaced"],
    )
    def test_matches_the_marched_twin(self, spec):
        # the closed form against the twin marched and ledgered: at most
        # 0.09 safety * floor here, 4.3e-14 on prony_single (1.4e-10
        # relative) and 6.6e-14 on elastic_limit (4.4e-8: its drift is
        # 3.0e-7 on a stored energy of 2.47)
        want, floor = reference_decay_tolerance(spec)
        assert want > 2.0 * floor  # a drift, not the floor alone
        assert abs(calibrate_decay_tolerance(spec) - want) <= 5.0 * floor

    def test_the_arcsin_form_keeps_the_low_modes_digits(self):
        # theta = arccos(1 - dt^2 P / 2) read 3.3e-13 off the marched twin
        # here, 0.65 safety * floor; theta = 2 arcsin h reads 4.3e-14, 0.09
        spec = config_spec(CONFIGS / "prony_single.cfg")
        want, floor = reference_decay_tolerance(spec)
        assert abs(calibrate_decay_tolerance(spec) - want) <= 0.2 * 5.0 * floor

    def test_refuses_a_volterra_dt_past_the_twins_limit(self):
        # the twin is the leapfrog, whose modes grow past dt^2 G mu_max = 4;
        # a Volterra run may step that far (here 4.76), a leapfrog may not
        spec = damped_spec(cfl=1.0)
        spec = dataclasses.replace(spec, formulation="integral_volterra", dt=spec.dt * 1.1, horizon=spec.horizon * 1.1)
        with pytest.raises(HypothesisError, match="^the memory-free twin's leapfrog needs .* got 4.75592$"):
            calibrate_decay_tolerance(spec)

    def test_a_run_at_rest_reads_the_floor(self):
        spec = dataclasses.replace(damped_spec(), u1=Field.zero(Grid.line(21)))
        assert calibrate_decay_tolerance(spec) == reference_decay_tolerance(spec)[0] == 1e-13

    @pytest.mark.parametrize(
        "spec",
        [
            damped_spec(n=49, forcing=Forcing.from_dict("sin_pi_product", {"amplitude": 1.0, "omega": 4.0})),
            forced_box_spec(7, 0.5),
        ],
        ids=["prony-1d-forced", "box-3d-forced"],
    )
    def test_refuses_a_forced_spec(self, spec):
        # the forced twin's tolerance (0.0314 on the 1D spec) was the
        # forcing's work, which check_energy_decay refuses to read
        with pytest.raises(HypothesisError, match="^forced run"):
            calibrate_decay_tolerance(spec)

    def test_holds_no_edge_stack(self):
        # the twin's stored energy in closed form holds one table of a block
        # of levels by the distinct mu, besides a few (J+1,) and (N,) vectors
        import tracemalloc

        spec = _long_prony_spec(PRONY)
        want = calibrate_decay_tolerance(spec)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            got = calibrate_decay_tolerance(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        edge_bytes = 8 * (spec.n_steps + 1) * (spec.grid.n[0] + 1)
        # a (64, 99) complex table and its temporaries: about 0.22x (the
        # marched twin's blocks read 0.21x); a whole ledger would hold the
        # edge stack and more
        assert peak - entry < 0.5 * edge_bytes


class TestEnergyBound:
    def test_gamma_uses_window_end_modulus(self):
        # G(T + 1) = e^{-2} for a unit exponential kernel and T = 1
        k = PronyKernel(g_inf=0.0, terms=((1.0, 1.0),))
        spec = damped_spec(kernel=k)
        traj = run(spec)
        rep = check_energy_bound(stored_reduction(traj), k, 0.05, spec.u1)
        assert rep.gamma == pytest.approx(math.exp(2.0), rel=1e-12)

    def test_gamma_floor_is_one(self):
        k = PronyKernel(5.0, ())
        spec = damped_spec(kernel=k, eps=1.0)
        traj = run(spec)
        rep = check_energy_bound(stored_reduction(traj), k, 1.0, spec.u1)
        assert rep.gamma == 1.0

    def test_zero_data_ratio_zero(self):
        g = Grid.line(15)
        spec = ProblemSpec(
            kernel=PRONY, grid=g, horizon=1.0, dt=0.02, eps=0.05,
            u0=Field.zero(g), u1=Field.zero(g),
        )
        rep = check_energy_bound(stored_reduction(run(spec)), PRONY, 0.05, spec.u1)
        assert rep.max_ratio == 0.0
        assert rep.passed

    def test_free_vibration_within_bound(self):
        spec = damped_spec()
        rep = check_energy_bound(stored_reduction(run(spec)), PRONY, 0.05, spec.u1)
        assert rep.passed
        assert rep.max_ratio < 1.0

    def test_forced_run_within_bound(self):
        f = Forcing.from_dict("sin_pi_product", {"amplitude": 1.0})
        spec = damped_spec(forcing=f)
        rep = check_energy_bound(stored_reduction(run(spec)), PRONY, 0.05, spec.u1, forcing=f)
        assert rep.passed
        assert rep.max_ratio < 1.0

    @pytest.mark.parametrize("block_levels", [1, 3, 10**6])
    def test_lhs_matches_per_level_oracle(self, monkeypatch, block_levels):
        import memvisco.solver as solver

        g = Grid((5, 4, 6), (1.0, 0.8, 1.2))
        monkeypatch.setattr(solver, "_BLOCK_BYTES", 8 * g.n_total * block_levels)
        f = Forcing.from_dict("sin_pi_product", {"amplitude": 1.0, "omega": 4.0})
        dt = cfl_time_step(g, PRONY, 0.05, 0.5, 1.0)
        spec = ProblemSpec(
            kernel=PRONY, grid=g, horizon=1.0, dt=dt, eps=0.05,
            u0=Field.zero(g), u1=field_from_name(g, "bump", {"radius": 0.3}), forcing=f,
        )
        traj = run(spec)
        assert traj.n_levels % 3 != 0  # a short last block
        rep = check_energy_bound(stored_reduction(traj), PRONY, 0.05, spec.u1, forcing=f)
        want = reference_bound_lhs(traj)
        assert np.all(want > 0.0)
        assert rep.lhs == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_blocks_hold_no_velocity_stack(self, monkeypatch):
        # a few levels of sqrt(mu) u_hat and velocities at a time, never
        # every level
        import tracemalloc

        import memvisco.solver as solver

        g = Grid.box(9)
        monkeypatch.setattr(solver, "_BLOCK_BYTES", 8 * g.n_total * 4)
        spec = ProblemSpec(
            kernel=PRONY, grid=g, horizon=6.0, dt=cfl_time_step(g, PRONY, 0.05, 0.5, 6.0),
            eps=0.05, u0=Field.zero(g), u1=field_from_name(g, "bump", {"radius": 0.3}),
        )
        traj = run(spec)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            rep = check_energy_bound(stored_reduction(traj), PRONY, 0.05, spec.u1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.passed
        assert rep.data_constant == 0.5 * l2_space(g, spec.u1) ** 2
        # a few blocks and buffers against 1.2 MB of levels; a velocity
        # stack alone would be the size of the levels
        assert peak - entry < 0.5 * traj.coefficients.nbytes

    def test_data_constant_matches_stacked_oracle(self):
        # |f|^2 is summed level by level; the oracle stacks every level
        g = Grid((5, 4, 6), (1.0, 0.8, 1.2))
        f = Forcing.from_dict("sin_pi_product", {"amplitude": 1.0, "omega": 4.0})
        dt = cfl_time_step(g, PRONY, 0.05, 0.5, 1.0)
        spec = ProblemSpec(
            kernel=PRONY, grid=g, horizon=1.0, dt=dt, eps=0.05,
            u0=Field.zero(g), u1=field_from_name(g, "bump", {"radius": 0.3}), forcing=f,
        )
        traj = run(spec)
        rep = check_energy_bound(stored_reduction(traj), PRONY, 0.05, spec.u1, forcing=f)
        f_levels = np.stack([forcing_at(f, g, t) for t in traj.times])
        want = 0.5 * l2_spacetime(g, f_levels, dt) ** 2 + 0.5 * l2_space(g, spec.u1) ** 2
        assert rep.data_constant == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_displaced_start_rejected(self):
        # the data constant covers u1 and f only, so a displaced start at
        # rest is refused rather than read as max_ratio = inf
        g = Grid.line(19)
        spec = ProblemSpec(
            kernel=PRONY, grid=g, horizon=1.0, dt=cfl_time_step(g, PRONY, 0.05, 0.5, 1.0),
            eps=0.05, u0=field_from_name(g, "sin_pi_product", {"amplitude": 1.0}),
            u1=Field.zero(g),
        )
        with pytest.raises(HypothesisError, match="^nonzero initial displacement$"):
            check_energy_bound(stored_reduction(run(spec)), PRONY, 0.05, spec.u1)

    def test_large_shift_rejected(self):
        spec = damped_spec()
        traj = run(spec)
        with pytest.raises(ValueError, match="eps"):
            check_energy_bound(stored_reduction(traj), PRONY, 1.5, spec.u1)


class TestModeTestFunction:
    def test_laplace_factor(self):
        g = Grid.line(9)
        v = ModeTestFunction(modes=(3,))
        assert v.laplace_factor(g) == pytest.approx(-9 * math.pi**2)
        g3 = Grid.box(4)
        v3 = ModeTestFunction(modes=(1, 2, 1))
        assert v3.laplace_factor(g3) == pytest.approx(-6 * math.pi**2)

    def test_time_profiles_vanish_at_ends(self):
        t = np.linspace(0.0, 1.0, 11)
        for profile in ("parabolic", "halfsine"):
            v = ModeTestFunction(modes=(1,), time_profile=profile)
            vals = v.time_values(t, 1.0)
            assert vals[0] == pytest.approx(0.0, abs=1e-15)
            assert vals[-1] == pytest.approx(0.0, abs=1e-15)
            assert vals[5] > 0.0

    @pytest.mark.parametrize("modes", [(0,), (1, -2), (1.0,)])
    def test_modes_must_be_positive_integers(self, modes):
        with pytest.raises(ValueError, match="mode numbers must be positive integers"):
            ModeTestFunction(modes=modes)

    def test_unknown_time_profile(self):
        with pytest.raises(ValueError, match="unknown time profile 'cubic'"):
            ModeTestFunction(modes=(1,), time_profile="cubic")

    def test_mode_count_must_match_the_grid(self):
        with pytest.raises(ValueError, match="mode count does not match grid dimension"):
            ModeTestFunction(modes=(1, 1)).space_values(Grid.line(9))

    def test_default_battery_sizes(self):
        assert len(default_battery(Grid.line(9))) == 6
        assert len(default_battery(Grid.box(4))) == 6


class TestWeakResidual:
    def test_zero_solution_zero_residuals(self):
        g = Grid.line(15)
        spec = ProblemSpec(
            kernel=PRONY, grid=g, horizon=1.0, dt=0.02, eps=0.05,
            u0=Field.zero(g), u1=Field.zero(g),
        )
        entries = weak_residual(stored_reduction(run(spec), battery=True), PRONY, 0.05, spec.u0, spec.u1)
        assert len(entries) == 6
        for e in entries:
            assert e.direct == pytest.approx(0.0, abs=1e-14)
            assert e.moved == pytest.approx(0.0, abs=1e-14)

    def test_real_run_residuals_small_and_refine(self):
        worsts = []
        for n in (21, 43):
            spec = damped_spec(n=n)
            entries = weak_residual(stored_reduction(run(spec), battery=True), PRONY, 0.05, spec.u0, spec.u1)
            worsts.append(max(max(abs(e.direct), abs(e.moved)) for e in entries))
        assert worsts[0] < 1e-2
        assert worsts[1] < worsts[0] / 2.0

    def test_volterra_trajectory_accepted(self):
        g = Grid.line(19)
        spec = ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=0.5,
            dt=0.01, eps=0.05, u0=Field.zero(g),
            u1=field_from_name(g, "sin_pi_product", {"amplitude": 1.0}),
            formulation="integral_volterra",
        )
        entries = weak_residual(stored_reduction(run(spec), battery=True), spec.kernel, 0.05, spec.u0, spec.u1)
        assert all(np.isfinite(e.direct) and np.isfinite(e.moved) for e in entries)


class TestWeakResidualProjection:
    """weak_residual tests projections of the levels, never whole stacks."""

    @pytest.mark.parametrize("case", sorted(oracle_specs()))
    def test_matches_stacked_oracle(self, case):
        spec = oracle_specs()[case]
        traj = run(spec)
        if case == "prony_leapfrog":
            assert traj.record.history_backend == "exponential"
        args = (traj, spec.kernel, spec.eps, spec.u0, spec.u1, spec.forcing)
        got = weak_residual(stored_reduction(traj, battery=True), *args[1:])
        want = reference_weak_residual(*args)
        # direct is a cancellation of O(1) terms: bound the deviation by
        # the size of the terms summed, not by the residual
        scales = weak_term_magnitudes(*args)
        assert [e.test_function for e in got] == [e.test_function for e in want]
        for g, w, scale in zip(got, want, scales):
            assert abs(g.direct - w.direct) <= 1e-12 * scale, g.test_function
            assert abs(g.moved - w.moved) <= 1e-12 * scale, g.test_function
        assert max(abs(e.moved) for e in want) > 1e-6  # not a trivial run

    def test_forced_run_holds_no_level_stack(self):
        import tracemalloc

        spec = forced_box_spec(9, 6.0)
        traj = run(spec)
        reduction = stored_reduction(traj, battery=True)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            entries = weak_residual(reduction, spec.kernel, spec.eps, spec.u0, spec.u1, spec.forcing)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(entries) == 6
        # vectors of J+1 projections against (J+1, 729) levels; the stacked form
        # held the Laplacians, two history sums and the ramp at full size
        assert peak - entry < 0.25 * traj.coefficients.nbytes


@pytest.mark.parametrize(
    "grid",
    [Grid.line(99), Grid.box(31), Grid((4, 5, 3), (1.0, 1.5, 0.8))],
    ids=["line99", "box31", "box453"],
)
def test_battery_projections_are_scaled_coefficient_columns(grid):
    # a battery function is a product of sine modes, a multiple of one
    # orthonormal DST-I mode, so projecting the nodal levels on it reads
    # one coefficient column
    coefficients = np.random.default_rng(3).standard_normal((3,) + grid.shape)
    traj = TrajectorySolution(grid, 0.1 * np.arange(3), coefficients, RunRecord(""))
    history = HistoryConvolution(np.ones(2), np.ones(2))
    flat = nodal_levels(traj).reshape(3, -1)
    columns = battery_columns(grid, traj.coefficients)
    assert columns.shape == (3, 3)
    for v, _, _, projected in battery_projections(grid, traj.times, columns, history):
        want = flat @ v.space_values(grid).ravel()
        assert np.abs(projected - want).max() <= 1e-13 * np.abs(want).max(), v.name


def _streamed_prony_spec(dim: int, forced: bool, n_steps: int) -> ProblemSpec:
    """A Prony leapfrog of exactly n_steps steps at half its stable dt."""
    g = Grid.line(21) if dim == 1 else Grid.box(7)
    dt = 0.5 * stable_time_step(g, PRONY.modulus(0.05))
    return ProblemSpec(
        kernel=PRONY, grid=g, horizon=n_steps * dt, dt=dt, eps=0.05,
        u0=Field.zero(g), u1=field_from_name(g, "bump", {"radius": 0.3}),
        forcing=Forcing.from_dict("sin_pi_product", {"amplitude": 1.0, "omega": 4.0}) if forced else None,
    )


class TestStreamedMatchesStored:
    """A single run marched into a ring, its blocks reduced as they pass,
    against its stored trajectory: every audit and the CSV export agree bit
    for bit.  J puts one or two levels in the last block, whose reduction
    takes the level before it along: a lone level's sums would be taken in
    another order."""

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("forced", [False, True], ids=["unforced", "forced"])
    @pytest.mark.parametrize(
        "rows, n_steps", [(None, 129), (None, 130), (5, 41), (5, 42)], ids=["W-last1", "W-last2", "5-last1", "5-last2"]
    )
    def test_every_audit_and_the_export(self, tmp_path, dim, forced, rows, n_steps):
        from types import SimpleNamespace

        from memvisco.diagnostics import SingleRun, ledger_plan
        from memvisco.solver import run_block
        from memvisco.runner import _trajectory_export
        from memvisco.solver import march

        spec = _streamed_prony_spec(dim, forced, n_steps)
        stride = 4
        cfg = SimpleNamespace(export_format="csv", snapshot_stride=stride)
        with contextlib.ExitStack() as stack:
            if rows is not None:
                stack.enter_context(small_march_blocks(rows))
            # the last block holds one level, or two
            assert (n_steps - 1) % run_block(spec.grid.n_total, n_steps + 1) + 1 == 2 - n_steps % 2
            histories = ledger_plan(spec.kernel, spec.eps, spec.times)
            assert histories[0].backend == "exponential"
            with _trajectory_export(tmp_path, cfg, spec.grid, spec.times) as export:
                _, levels, blocks = march(spec)
                ledger = (spec.kernel, spec.eps)
                streamed = SingleRun.reduce(spec.grid, spec.times, blocks, spec.forcing, ledger, battery=True, export=export)
            assert streamed.stack_bytes == 0
            assert levels.shape[1] < n_steps + 1  # a ring that wraps
            traj = run(spec)
            args = (spec.kernel, spec.eps)
            for got, want in zip(
                tuple(energy_ledger(streamed, *args, spec.forcing)),
                tuple(energy_ledger(traj, *args, spec.forcing)),
            ):
                assert got.tobytes() == want.tobytes()
            got = check_energy_bound(streamed, *args, spec.u1, spec.forcing)
            want = check_energy_bound(stored_reduction(traj), *args, spec.u1, spec.forcing)
            assert got.lhs.tobytes() == want.lhs.tobytes() and got.max_ratio == want.max_ratio
            residual_args = (spec.u0, spec.u1, spec.forcing)
            stored = stored_reduction(traj, battery=True)
            assert weak_residual(streamed, *args, *residual_args) == weak_residual(stored, *args, *residual_args)
            if not forced:  # a forced spec's calibration is refused
                want, floor = reference_decay_tolerance(spec)
                assert abs(calibrate_decay_tolerance(spec) - want) <= 5.0 * floor
        exported = range(0, traj.n_levels, stride)
        text = reference_trajectory_csv(
            spec.grid,
            traj.times[::stride],
            np.concatenate([nodal_levels(traj, j, j + 1) for j in exported]),
            np.concatenate([nodal_velocities(traj, j, j + 1) for j in exported]),
        )
        assert (tmp_path / "trajectory.csv").read_bytes() == text.encode()


class TestAuditsReadWhatTheRunHolds:
    """An audit handed a SingleRun reduced without a part it reads names
    that part.  Without forcing the ledger silently read zero forcing power
    (max_residual 0.680 against 0.0209), and without the ledger's pair or
    the battery the audits failed on None."""

    FORCING = Forcing.from_dict("sin_pi_product", {"amplitude": 1.0, "omega": 3.0})

    def reduced(self, histories=False, **asked):
        """The spec, and its march reduced with what is asked: the
        ledger's history sums if histories, else none."""
        from memvisco.solver import march

        spec = damped_spec(kernel=PRONY, n=49, forcing=self.FORCING)
        if histories:
            asked["ledger"] = (PRONY, spec.eps)
        return spec, SingleRun.reduce(spec.grid, spec.times, march(spec)[2], **asked)

    def test_ledger_refuses_a_run_reduced_without_forcing(self):
        spec, reduction = self.reduced(histories=True)
        assert reduction.power is None
        with pytest.raises(ValueError, match="energy_ledger reads a SingleRun reduced with forcing"):
            energy_ledger(reduction, PRONY, 0.05, self.FORCING)
        _, reduction = self.reduced(histories=True, forcing=self.FORCING)
        assert energy_ledger(reduction, PRONY, 0.05, self.FORCING).max_residual == pytest.approx(0.0209, abs=1e-4)

    def test_ledger_refuses_a_run_reduced_for_another_pair(self):
        # history sums reduced for eps = 5 and read as eps = 0.05's gave
        # max_residual 0.116, where the run's own read 0.0122, and raised
        # nothing
        from memvisco.solver import march

        spec = damped_spec(kernel=PRONY, n=49)

        def reduced(eps):
            return SingleRun.reduce(spec.grid, spec.times, march(spec)[2], ledger=(PRONY, eps))

        with pytest.raises(ValueError, match=r"energy_ledger of \(.*, 0\.05\) reads a SingleRun reduced for \(.*, 5\.0\)"):
            energy_ledger(reduced(5.0), PRONY, 0.05)
        assert energy_ledger(reduced(0.05), PRONY, 0.05).max_residual == pytest.approx(0.0122, abs=1e-4)

    def test_ledger_refuses_a_forced_run_read_without_its_forcing(self):
        # read without the forcing it was reduced with, the ledger took the
        # forcing power as zero: max_residual 0.571 where 0.0272 is right
        from memvisco.solver import march

        forcing = Forcing.from_dict("sin_pi_product", {"amplitude": 1.0, "omega": 4.0})
        spec = damped_spec(kernel=PRONY, n=49, forcing=forcing)
        reduction = SingleRun.reduce(spec.grid, spec.times, march(spec)[2], forcing, (PRONY, spec.eps))
        with pytest.raises(ValueError, match="^energy_ledger without forcing reads a SingleRun reduced with forcing$"):
            energy_ledger(reduction, PRONY, 0.05)
        assert energy_ledger(reduction, PRONY, 0.05, forcing).max_residual == pytest.approx(0.0272, abs=1e-4)

    def test_ledger_refuses_a_run_reduced_without_histories(self):
        _, reduction = self.reduced(forcing=self.FORCING)
        with pytest.raises(ValueError, match="energy_ledger reads a SingleRun reduced with ledger"):
            energy_ledger(reduction, PRONY, 0.05, self.FORCING)

    def test_weak_residual_refuses_a_run_reduced_without_the_battery(self):
        spec, reduction = self.reduced(forcing=self.FORCING)
        with pytest.raises(ValueError, match="weak_residual reads a SingleRun reduced with battery"):
            weak_residual(reduction, PRONY, 0.05, spec.u0, spec.u1, self.FORCING)
