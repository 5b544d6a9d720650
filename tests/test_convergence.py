import contextlib
import dataclasses
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    batch_runs,
    direct_sums,
    forced_box_spec,
    lemma_term_magnitudes,
    listed_cauchy_report,
    listed_lemma_check,
    listed_sequence,
    oracle_specs,
    reference_lemma_check,
    sequence_trajectories,
    small_march_blocks,
    trajectory_distance,
)
import memvisco.convergence as convergence_module
import memvisco.solver as solver_module
from memvisco.convergence import (
    ShiftSequence,
    _peak_bounds,
    cauchy_report,
    convergence_lemma_check,
    eps_schedule,
    run_eps_sequence,
)
from memvisco.config import parse_config_file
from memvisco.diagnostics import ModeTestFunction, default_battery
from memvisco.expressions import Forcing, field_from_name
from memvisco.grid import Field, Grid, level_squares, sine_transform
from memvisco.kernels import KernelSum, PowerLawKernel, PronyKernel
from memvisco.runner import _build_spec
from memvisco.solver import (
    CflViolation,
    HistoryConvolution,
    ProblemSpec,
    SolverAbort,
    cfl_time_step,
    march,
    run_block,
)

PRONY = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))


def sequence_base(kernel, n=25, horizon=0.5, dt=0.005, formulation="integral_volterra"):
    g = Grid.line(n)
    return ProblemSpec(
        kernel=kernel, grid=g, horizon=horizon, dt=dt, eps=0.1,
        u0=Field.zero(g),
        u1=field_from_name(g, "sin_pi_product", {"amplitude": 1.0}),
        formulation=formulation,
    )


class TestEpsSchedule:
    def test_values(self):
        vals = eps_schedule(0.1, 0.5, 3)
        assert vals == pytest.approx([0.1, 0.05, 0.025, 0.0125])

    def test_validation(self):
        with pytest.raises(ValueError):
            eps_schedule(0.0, 0.5, 3)
        with pytest.raises(ValueError):
            eps_schedule(0.1, 1.0, 3)
        with pytest.raises(ValueError):
            eps_schedule(0.1, 0.5, 0)


class TestRunEpsSequence:
    def test_produces_shared_grid_family(self):
        base = sequence_base(PRONY)
        seq = run_eps_sequence(base, 0.1, 0.5, 3)
        assert len(seq.runs) == 4 and np.array_equal(seq.eps_values, eps_schedule(0.1, 0.5, 3))
        assert seq.grid == base.grid and np.array_equal(seq.times, base.times)
        assert seq.next_squares.shape == seq.finest_squares.shape == (3, base.n_steps + 1)
        assert seq.columns.shape == (4, base.n_steps + 1, 3) and seq.peaks.shape == (4,)

    def test_constant_kernel_is_identity(self):
        base = sequence_base(
            PronyKernel(1.0, ()), formulation="integrodifferential", dt=0.01
        )
        seq = run_eps_sequence(base, 0.1, 0.5, 2)
        assert not seq.next_squares.any() and not seq.finest_squares.any()
        assert np.all(seq.columns[1:] == seq.columns[0]) and np.all(seq.peaks == seq.peaks[0])

    def test_infeasible_dt_names_requirement(self):
        # smallest shift pushes the modulus, and thus the CFL bound, up
        k = PowerLawKernel(c=1.0, alpha=0.5)
        g = Grid.line(25)
        base = ProblemSpec(
            kernel=k, grid=g, horizon=0.5, dt=cfl_time_step(g, k, 0.1, 0.9, 0.5),
            eps=0.1, u0=Field.zero(g),
            u1=field_from_name(g, "sin_pi_product", {"amplitude": 1.0}),
        )
        with pytest.raises(CflViolation, match="required dt"):
            run_eps_sequence(base, 0.1, 0.25, 4)


def test_bundled_shifts_approach_the_unshifted_run():
    # the paper's weak solution is the eps -> 0 limit: the distance of
    # each powerlaw_theorem1.cfg shift to the run at eps = 0 itself falls
    # with eps, at about the sqrt(eps) of sup|Ksh - K| ~ 2 sqrt(eps)
    cfg = parse_config_file(Path(__file__).resolve().parents[1] / "configs" / "powerlaw_theorem1.cfg")
    shifts = eps_schedule(cfg.eps0, cfg.ratio, cfg.count)
    *shifted, limit = batch_runs(_build_spec(cfg, float(shifts[0]), cfg.dt), [*shifts, 0.0])
    distances = np.array([trajectory_distance(traj, limit) for traj in shifted])
    assert np.all(np.diff(distances) < 0.0)
    rate = np.polyfit(np.log(shifts), np.log(distances), 1)[0]
    assert 0.4 <= rate <= 0.7


class TestCauchyReport:
    def test_needs_three_trajectories(self):
        base = sequence_base(PRONY)
        seq = run_eps_sequence(base, 0.1, 0.5, 1)
        with pytest.raises(ValueError, match="3"):
            cauchy_report(seq, PRONY, 1e-2)

    def test_identical_trajectories_trivially_pass(self):
        base = sequence_base(
            PronyKernel(1.0, ()), formulation="integrodifferential", dt=0.01
        )
        rep = cauchy_report(run_eps_sequence(base, 0.1, 0.5, 3), PronyKernel(1.0, ()), 1e-2)
        assert np.all(rep.distances == 0.0)
        assert rep.passed
        assert math.isnan(rep.fitted_rate)

    def test_zero_distances_are_monotone_until_one_grows(self):
        # 0 -> 0 is no increase: the verdict used to read monotone=False
        k = PronyKernel(1.0, ())
        eps_vals = eps_schedule(0.1, 0.5, 3)
        trajs = sequence_trajectories(sequence_base(k, formulation="integrodifferential", dt=0.01), eps_vals)
        rep = cauchy_report(listed_sequence(eps_vals, trajs), k, 1e-2)
        assert rep.monotone
        assert rep.first_nonmonotone is None
        # 0 -> positive is an increase
        trajs[3] = trajs[3]._replace(coefficients=trajs[3].coefficients + 1e-3)
        rep = cauchy_report(listed_sequence(eps_vals, trajs), k, 1e-2)
        assert not rep.monotone
        assert not rep.passed
        assert rep.first_nonmonotone == 2

    def test_prony_rate_near_one(self):
        rep = cauchy_report(run_eps_sequence(sequence_base(PRONY), 0.1, 0.5, 4), PRONY, 1e-2)
        assert rep.monotone
        assert rep.passed
        assert 0.8 <= rep.fitted_rate <= 1.2
        assert rep.first_nonmonotone is None

    def test_corrupted_trajectory_breaks_monotonicity_at_index(self):
        eps_vals = eps_schedule(0.1, 0.5, 3)
        trajs = sequence_trajectories(sequence_base(PRONY), eps_vals)
        rng = np.random.default_rng(0)
        # white noise in the sine coefficients is white noise on the nodes
        noisy = trajs[2].coefficients + 0.05 * rng.standard_normal(trajs[2].coefficients.shape)
        trajs[2] = trajs[2]._replace(coefficients=noisy)
        rep = cauchy_report(listed_sequence(eps_vals, trajs), PRONY, 1e-2)
        assert not rep.monotone
        assert not rep.passed
        assert rep.first_nonmonotone == 1

    def test_sup_bounds_evaluated_per_shift(self):
        eps_vals = eps_schedule(0.1, 0.5, 3)
        rep = cauchy_report(run_eps_sequence(sequence_base(PRONY), 0.1, 0.5, 3), PRONY, 1e-2)
        expected = [PRONY.integral(e) for e in eps_vals]
        assert rep.kernel_sup_bounds == pytest.approx(expected)

    def test_tail_distances_decrease(self):
        rep = cauchy_report(run_eps_sequence(sequence_base(PRONY), 0.1, 0.5, 4), PRONY, 1e-2)
        assert np.all(np.diff(rep.tail_distances) < 0.0)


class TestLemmaCheck:
    def test_constant_kernel_exactly_zero(self):
        k = PronyKernel(1.0, ())
        base = sequence_base(k, formulation="integrodifferential", dt=0.01)
        entries = convergence_lemma_check(k, run_eps_sequence(base, 0.1, 0.5, 2))
        assert len(entries) == 3 * 6
        for e in entries:
            # +0.0, not -0.0: the sign lands in lemma.csv
            assert math.copysign(1.0, e.residual) == 1.0 and e.residual == 0.0
            assert math.copysign(1.0, e.majorant) == 1.0 and e.majorant == 0.0
            assert e.within

    def test_tiny_shift_effect_is_computed(self):
        # a 1e-13 term moves the shifted tower by about 1e-14: both sides
        # are computed, not set to zero because they are small
        k = PronyKernel(1.0, ((1e-13, 1.0),))
        base = sequence_base(k, formulation="integrodifferential", dt=0.01)
        entries = convergence_lemma_check(k, run_eps_sequence(base, 0.1, 0.5, 2))
        assert len(entries) == 3 * 6
        for e in entries:
            assert e.majorant > 0.0
            assert e.within

    def test_forms_no_space_values(self, monkeypatch):
        # the residual reads each test function's projected coefficient
        # column, so no test function's nodal values are formed
        sequence = run_eps_sequence(sequence_base(PRONY), 0.1, 0.5, 2)
        monkeypatch.setattr(ModeTestFunction, "space_values", mock.Mock(side_effect=AssertionError))
        assert len(convergence_lemma_check(PRONY, sequence)) == 3 * 6

    def test_powerlaw_residual_below_majorant_and_vanishing(self):
        k = PowerLawKernel(c=1.0, alpha=0.5)
        base = sequence_base(k)
        entries = convergence_lemma_check(k, run_eps_sequence(base, 0.1, 0.5, 4))
        assert all(e.within for e in entries)
        by_eps = {}
        for e in entries:
            by_eps.setdefault(e.eps, []).append(e)
        res_peaks = [max(abs(e.residual) for e in by_eps[e_val]) for e_val in sorted(by_eps, reverse=True)]
        maj_peaks = [max(e.majorant for e in by_eps[e_val]) for e_val in sorted(by_eps, reverse=True)]
        assert np.all(np.diff(res_peaks) < 0.0)
        assert np.all(np.diff(maj_peaks) < 0.0)

    def test_prony_majorant_roughly_halves_with_shift(self):
        base = sequence_base(PRONY)
        entries = convergence_lemma_check(PRONY, run_eps_sequence(base, 0.1, 0.5, 3))
        m = {}
        for e in entries:
            if e.test_function == entries[0].test_function:
                m[e.eps] = e.majorant
        vals = [m[e] for e in sorted(m, reverse=True)]
        ratios = np.array(vals[1:]) / np.array(vals[:-1])
        assert np.all(np.abs(ratios - 0.5) < 0.05)

    @pytest.mark.parametrize("case", sorted(oracle_specs()))
    def test_matches_whole_convolution_oracle(self, case):
        base = oracle_specs()[case]
        eps_vals = eps_schedule(0.1, 0.5, 2)
        trajs = sequence_trajectories(base, eps_vals)
        battery = default_battery(base.grid)
        got = convergence_lemma_check(base.kernel, run_eps_sequence(base, 0.1, 0.5, 2))
        want = reference_lemma_check(base.kernel, eps_vals, battery, trajs)
        scales = lemma_term_magnitudes(base.kernel, eps_vals, battery, trajs)
        assert len(got) == len(want) == 3 * 6
        for g, w, scale in zip(got, want, scales):
            assert (g.eps, g.test_function) == (w.eps, w.test_function)
            assert g.majorant == w.majorant
            # the round-off entries (modes 2 and 3 against mode-1 data)
            # change in every digit: bound by the terms summed
            assert abs(g.residual - w.residual) <= 1e-12 * scale, g.test_function
        assert max(abs(e.residual) for e in want) > 1e-6

    def test_holds_no_level_stack(self):
        import tracemalloc

        base = forced_box_spec(9, 6.0)
        seq = run_eps_sequence(base, 0.1, 0.5, 1)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            entries = convergence_lemma_check(base.kernel, seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(entries) == 2 * 6
        # the whole convolution and |u| were each the size of one run's levels
        stack = 8 * (base.n_steps + 1) * base.grid.n_total
        assert seq.levels_bytes < stack
        assert peak - entry < 0.25 * stack

    def test_mismatched_lengths_rejected(self):
        # the shifts travel with the sequence; stored runs are reduced to
        # one only with a shift value each
        base = sequence_base(PRONY)
        trajs = sequence_trajectories(base, eps_schedule(0.1, 0.5, 2))
        with pytest.raises(ValueError):
            listed_sequence(eps_schedule(0.1, 0.5, 3), trajs)


def _streamed_case(grid, horizon, dt, forced):
    """A power-law integral_volterra base from a bump (3D) or sine mode 2
    (1D) at rest shape, with or without a forcing pulse."""
    u1 = (
        field_from_name(grid, "bump", {"radius": 0.3}) if grid.dim == 3
        else field_from_name(grid, "sine_mode", {"amplitude": -0.5, "modes": [2]})
    )
    return ProblemSpec(
        kernel=PowerLawKernel(1.0, 0.5), grid=grid, horizon=horizon, dt=dt, eps=0.1,
        u0=field_from_name(grid, "bump", {"radius": 0.2}), u1=u1,
        forcing=Forcing.from_dict("sin_pi_product", {"amplitude": 0.7, "omega": 5.0}) if forced else None,
        formulation="integral_volterra",
    )


_STREAMED = {
    # J = 200 > 2 W: far sums through the tail, a ring of 3 W + 1 levels
    "tail-1d": (Grid.line(17), 0.6, 0.003, True),
    "tail-3d": (Grid.box(7), 0.5, 0.0025, True),
    "tail-1d-unforced": (Grid.line(17), 0.6, 0.003, False),
    # J = 100 <= 2 W: no tail, the ring is the whole stack
    "short": (Grid.line(17), 0.3, 0.003, True),
    "short-3d": (Grid.box(7), 0.25, 0.0025, False),
}

# blocks of W = 5, 6 and 7 rows: with the tail, rings of 16, 19 and 22
# levels that wrap many times; with small_march_blocks, fits refused
_BLOCKS = {
    "W64": contextlib.nullcontext,
    "refused": direct_sums,
    **{f"W{w}-tail": (lambda w=w: mock.patch.object(solver_module, "_MARCH_ROWS", w)) for w in (5, 6, 7)},
    **{f"W{w}-direct": (lambda w=w: small_march_blocks(w)) for w in (5, 6, 7)},
}


class TestStreamedMatchesListedOracles:
    """A streamed sequence against the trajectory-list cauchy_report and
    lemma check on the stored runs of one batched march."""

    @staticmethod
    def check(base, count, blocks):
        kernel, grid, J = base.kernel, base.grid, base.n_steps
        eps = eps_schedule(0.1, 0.5, count)
        with blocks():
            W = solver_module._MARCH_ROWS
            seq = run_eps_sequence(base, 0.1, 0.5, count)
            trajs = sequence_trajectories(base, eps)
        for h in range(count):
            assert np.array_equal(seq.next_squares[h], level_squares(grid, trajs[h].coefficients - trajs[h + 1].coefficients))
            assert np.array_equal(seq.finest_squares[h], level_squares(grid, trajs[h].coefficients - trajs[-1].coefficients))
        if count >= 2:
            got, want = cauchy_report(seq, kernel, 1e-2), listed_cauchy_report(trajs, eps, kernel, 1e-2)
            assert np.array_equal(got.distances, want.distances)
            assert np.array_equal(got.tail_distances, want.tail_distances)
            assert got.fitted_rate == want.fitted_rate
            assert (got.monotone, got.passed) == (want.monotone, want.passed)
        got, want = convergence_lemma_check(kernel, seq), listed_lemma_check(kernel, eps, trajs)
        assert len(got) == len(want) == 6 * (count + 1)
        for g, w in zip(got, want):
            assert (g.eps, g.test_function, g.residual) == (w.eps, w.test_function, w.residual)
            # sup |u| comes from one transform of a shift's whole block, the
            # oracle's from a few levels at a time: a nodal value is a sum of
            # N <= 343 terms, and another product shape may sum them in
            # another order (measured: equal in every case here)
            assert abs(g.majorant - w.majorant) <= 1e-13 * w.majorant
        assert seq.runs == tuple(t.record for t in trajs)
        ring = min(J + 1, 3 * W + 1) if trajs[0].record.far_nodes else J + 1
        assert seq.levels_bytes == 8 * ring * grid.n_total
        return seq, trajs

    @pytest.mark.parametrize("blocks", sorted(_BLOCKS))
    @pytest.mark.parametrize("case", sorted(_STREAMED))
    def test_seven_shifts(self, case, blocks):
        self.check(_streamed_case(*_STREAMED[case]), 6, _BLOCKS[blocks])

    @pytest.mark.parametrize("case", ["tail-1d", "short-3d"])
    def test_two_shifts(self, case):
        self.check(_streamed_case(*_STREAMED[case]), 1, contextlib.nullcontext)

    def test_benchmark_sequence(self):
        # the benchmark's 7 shifts at J = 2,000 steps on 99 nodes: the ring
        # of 193 levels wraps ten times
        g = Grid.line(99)
        base = ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=1.0, dt=0.0005, eps=0.1,
            u0=Field.zero(g), u1=field_from_name(g, "sine_mode", {"amplitude": 1.0, "modes": [1]}),
            formulation="integral_volterra",
        )
        seq, trajs = self.check(base, 6, contextlib.nullcontext)
        assert trajs[0].record.far_nodes == 33
        assert seq.levels_bytes == 8 * 193 * 99

    def test_tail_and_ring_are_taken(self):
        # the cases above cover both sides: a fitted tail in a ring shorter
        # than the stack, and no tail with the whole stack
        base = _streamed_case(*_STREAMED["tail-1d"])
        seq = run_eps_sequence(base, 0.1, 0.5, 6)
        assert all(r.far_nodes > 0 for r in seq.runs) and seq.levels_bytes == 8 * 193 * 17
        with direct_sums():
            seq = run_eps_sequence(base, 0.1, 0.5, 6)
        assert all(r.far_nodes == 0 for r in seq.runs) and seq.levels_bytes == 8 * 201 * 17
        seq = run_eps_sequence(_streamed_case(*_STREAMED["short"]), 0.1, 0.5, 6)
        assert all(r.far_nodes == 0 for r in seq.runs) and seq.levels_bytes == 8 * 101 * 17


def _gated_peaks(base, count):
    """(peaks, oracle, transforms, blocks) of a sequence's reduction: its
    gated peaks, the max |u| of every shift's every block, the transforms
    the reduction took and the blocks it read."""
    eps = eps_schedule(0.1, 0.5, count)
    grid = base.grid
    runs, levels, blocks = march(base, eps)
    oracle = np.zeros(eps.size)
    seen = []

    def every_block():
        for j0, block in blocks:
            seen.append(j0)
            for k in range(eps.size):
                oracle[k] = max(oracle[k], np.abs(sine_transform(grid, block[k])).max())
            yield j0, block

    with mock.patch.object(convergence_module, "sine_transform", wraps=sine_transform) as spy:
        seq = ShiftSequence.reduce(grid, base.times, eps, runs, levels.nbytes // len(runs), every_block())
    return seq.peaks, oracle, spy.call_count, len(seen)


def _mode_one_base():
    # the benchmark sequence's data on a coarser grid: mode 1 at rest shape
    g = Grid.line(33)
    return ProblemSpec(
        kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=1.0, dt=0.002, eps=0.1,
        u0=Field.zero(g), u1=field_from_name(g, "sine_mode", {"amplitude": 1.0, "modes": [1]}),
        formulation="integral_volterra",
    )


def _multi_mode_base():
    # modes 1, 5 and 9 of unequal sizes in u0 and u1: max |u| rises and
    # falls as they beat, so later blocks raise the peak too
    g = Grid.line(25)
    x = g.axis_coordinates(0)
    return ProblemSpec(
        kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=1.0, dt=0.002, eps=0.1,
        u0=Field(g, 0.3 * np.sin(5 * np.pi * x)),
        u1=Field(g, np.sin(np.pi * x) - 2.0 * np.sin(9 * np.pi * x)),
        formulation="integral_volterra",
    )


class TestPeakGate:
    """ShiftSequence.reduce transforms a shift's block only when the bound
    on its max |u| can raise the peak."""

    @pytest.mark.parametrize(
        "base",
        [
            pytest.param(_mode_one_base, id="mode1-1d"),
            pytest.param(lambda: _streamed_case(*_STREAMED["tail-3d"]), id="box-3d"),
            pytest.param(_multi_mode_base, id="multi-mode-1d"),
        ],
    )
    def test_peaks_equal_every_block_oracle(self, base):
        # bitwise, with fewer transforms than the 7 shifts' blocks that an
        # ungated reduction takes
        peaks, oracle, transforms, blocks = _gated_peaks(base(), 6)
        assert peaks.tobytes() == oracle.tobytes()
        assert blocks > 2 and transforms < 7 * blocks

    def test_multi_mode_gate_fires_past_the_first_block(self):
        _, _, transforms, blocks = _gated_peaks(_multi_mode_base(), 6)
        assert 7 < transforms < 7 * blocks

    @given(
        dims=st.one_of(
            st.tuples(st.integers(3, 120)),
            st.tuples(st.integers(3, 9), st.integers(3, 9), st.integers(3, 9)),
        ),
        rows=st.integers(1, 4),
        kind=st.sampled_from(["random", "single", "aligned"]),
        exponent=st.integers(-60, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bound_holds_on_random_blocks(self, dims, rows, kind, exponent, seed):
        # "aligned" levels reach the bound at one node up to rounding: every
        # coefficient sits where that node's sine entry is largest, with its
        # sign (at the middle node of an odd n, every odd mode).  "single"
        # keeps one random coefficient.
        grid = Grid(dims, (1.0,) * len(dims))
        rng = np.random.default_rng(seed)
        block = np.abs(rng.standard_normal((1, rows) + grid.shape)) * 2.0**exponent
        if kind == "aligned":
            for axis, S in enumerate(grid.sine_matrices):
                column = S[:, (S.shape[0] - 1) // 2 if rng.integers(2) else rng.integers(S.shape[0])]
                along = [1] * block.ndim
                along[2 + axis] = -1
                block *= np.where(np.abs(column) == np.abs(S).max(), np.sign(column), 0.0).reshape(along)
        elif kind == "single":
            keep = np.zeros(block.size, dtype=bool)
            keep[rng.integers(block.size)] = True
            block[~keep.reshape(block.shape)] = 0.0
        else:
            block *= rng.choice([-1.0, 1.0], block.shape)
        bound = _peak_bounds(grid, block)
        assert bound.shape == (1,)
        assert bound[0] >= np.abs(sine_transform(grid, block[0])).max()


def _leapfrog_base(kernel, grid, steps, forced=True):
    """A leapfrog base of `steps` steps at the cfl time step of the
    schedule's finest shift, 0.1 * 0.5**3: a bump displaced, moving in
    sine mode 1 (1D) or as a wider bump (3D)."""
    dt = cfl_time_step(grid, kernel, 0.0125, 0.5, 1.0)
    u1 = field_from_name(grid, "bump", {"radius": 0.3}) if grid.dim == 3 else field_from_name(grid, "sin_pi_product", {})
    return ProblemSpec(
        kernel=kernel, grid=grid, horizon=steps * dt, dt=dt, eps=0.1,
        u0=field_from_name(grid, "bump", {"radius": 0.2}), u1=u1,
        forcing=Forcing.from_dict("sin_pi_product", {"amplitude": 0.7, "omega": 5.0}) if forced else None,
    )


_LEAPFROG = {
    # the exponential history: a ring of a block of run_block levels
    "prony-1d": (PronyKernel(0.5, ((0.5, 2.0),)), Grid.line(17), 300, True),
    "prony-3d": (PronyKernel(0.5, ((0.4, 2.0), (0.3, 0.1))), Grid.box(7), 100, True),
    "prony-unforced": (PronyKernel(0.5, ((0.5, 2.0),)), Grid.line(17), 50, False),
    # past 2 W steps: far sums through the tail, a ring of 3 W + 1 levels
    "powerlaw-tail": (PowerLawKernel(1.0, 0.5), Grid.line(17), 300, True),
    # up to 2 W steps: no tail, the ring is the whole stack
    "powerlaw-short": (PowerLawKernel(1.0, 0.5), Grid.line(17), 100, True),
    "sum": (KernelSum((PronyKernel(0.3, ((0.4, 0.5),)), PowerLawKernel(0.5, 0.3))), Grid.line(17), 300, False),
}


class TestStreamedLeapfrogSequence:
    """A leapfrog sequence marches its shifts in one stack: every reduction
    equals listed_sequence's, on the stored runs, bit for bit."""

    @pytest.mark.parametrize("case", sorted(_LEAPFROG))
    def test_matches_listed_oracle(self, case):
        base = _leapfrog_base(*_LEAPFROG[case])
        eps = eps_schedule(0.1, 0.5, 3)
        seq = run_eps_sequence(base, 0.1, 0.5, 3)
        want = listed_sequence(eps, sequence_trajectories(base, eps))
        for name in ("eps_values", "times", "next_squares", "finest_squares", "columns", "peaks"):
            assert getattr(seq, name).tobytes() == getattr(want, name).tobytes(), name
        assert seq.runs == want.runs
        rings = [march(dataclasses.replace(base, eps=float(e)))[1].nbytes for e in eps]
        assert seq.levels_bytes == sum(rings) // 4
        if case == "powerlaw-tail":
            assert all(r.far_nodes > 0 for r in seq.runs) and rings == [8 * 193 * 17] * 4
        if case == "powerlaw-short":
            assert seq.levels_bytes == want.levels_bytes

    def test_holds_no_level_stacks(self):
        # a forced Prony sequence of 4 shifts on 99 nodes at J = 1,000 and
        # 4,000: each shift's ring of 65 levels and O(K J) scalars of the
        # reduction, 18 doubles a level against the 396 of the K stacks
        # (measured: peaks of 0.20x and 0.081x the stacks, where the stored
        # runs peaked at 1.21x and 1.09x)
        g = Grid.line(99)
        peaks, stacks = [], []
        for J in (1000, 4000):
            base = _leapfrog_base(PronyKernel(0.5, ((0.5, 2.0),)), g, J)
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                seq = run_eps_sequence(base, 0.1, 0.5, 3)
                peaks.append(tracemalloc.get_traced_memory()[1] - entry)
            finally:
                tracemalloc.stop()
            assert seq.levels_bytes == 8 * 65 * g.n_total
            stacks.append(4 * 8 * (base.n_steps + 1) * g.n_total)
        assert peaks[1] < 0.2 * stacks[1]
        assert peaks[1] - peaks[0] < 0.1 * (stacks[1] - stacks[0])

    @pytest.mark.parametrize("case", ["prony-1d", "powerlaw-tail"])
    def test_one_history_sums_every_shift(self, monkeypatch, case):
        # the batch's one history holds a weight set per shift, and for a
        # direct history one tail fit serves them all
        real = HistoryConvolution.of
        calls = []

        def of(kernels, *args):
            calls.append(kernels)
            return real(kernels, *args)

        monkeypatch.setattr(HistoryConvolution, "of", of)
        march(_leapfrog_base(*_LEAPFROG[case]), eps_schedule(0.1, 0.5, 3))
        assert len(calls) == 1 and len(calls[0]) == 4

    def test_a_refused_fit_takes_the_whole_stack_for_every_shift(self):
        # a tolerance between the shifts' checked errors (7.4e-15 ..
        # 5.1e-13) passes the fits of the first two shifts and refuses the
        # last two: the batch's one history then has no tail, so every
        # shift sums directly in the whole stack, and each one's levels are
        # its lone march's with every fit refused
        base = _leapfrog_base(*_LEAPFROG["powerlaw-tail"])
        eps = eps_schedule(0.1, 0.5, 3)
        with mock.patch.object(solver_module, "_TAIL_TOLERANCE", 2e-13):
            seq = run_eps_sequence(base, 0.1, 0.5, 3)
        with direct_sums():
            want = listed_sequence(eps, sequence_trajectories(base, eps))
        assert [r.far_nodes for r in seq.runs] == [0, 0, 0, 0]
        assert seq.runs == want.runs
        assert seq.levels_bytes == 8 * (base.n_steps + 1) * 17
        for name in ("next_squares", "finest_squares", "columns", "peaks"):
            assert getattr(seq, name).tobytes() == getattr(want, name).tobytes(), name

    def test_abort_names_the_earliest_failing_block(self, monkeypatch):
        # a row of history sums turns NaN in shift 0 at row 100, in shift 3
        # at row 19 and in shift 2 at row 30, so a lone march of each stops
        # at step 101, 20 or 31.  The batch checks its blocks of 16 levels
        # for all shifts at once: the block of levels 17 .. 32 fails first,
        # and the batch names its earliest failing step, 20, and the first
        # shift that fails there, shift 3.  (Run shift by shift, the
        # sequence stopped at shift 0's step 101.)
        from memvisco.solver import _ExponentialHistory

        real = _ExponentialHistory.row_sums
        poisoned_rows = {0: 100, 2: 30, 3: 19}

        def row_sums(self, stack, j):
            sums = real(self, stack, j)
            return [total * np.nan if poisoned_rows.get(k) == j else total for k, total in enumerate(sums)]

        monkeypatch.setattr(_ExponentialHistory, "row_sums", row_sums)
        base = _leapfrog_base(PronyKernel(0.5, ((0.5, 2.0),)), Grid.line(17), 200)
        assert run_block(17, base.n_steps + 1) == 16
        eps = eps_schedule(0.1, 0.5, 3)
        with np.errstate(invalid="ignore"), pytest.raises(SolverAbort, match="non-finite") as got:
            run_eps_sequence(base, 0.1, 0.5, 3)
        assert (got.value.step, got.value.eps) == (20, float(eps[3]))


def test_volterra_abort_names_the_earliest_failing_step(monkeypatch):
    # the abort rule of a leapfrog batch, for the Volterra march: far sums
    # turned NaN in shift 0 at step 30 and in shift 2 at step 20, both in
    # the block of levels 1 .. 64, stop the batch at step 20 in shift 2
    real = HistoryConvolution.far_sums
    poisoned_steps = {0: 30, 2: 20}

    def far_sums(self, stack, j0, out):
        real(self, stack, j0, out)
        for k, step in poisoned_steps.items():
            if j0 <= step < j0 + out.shape[1]:
                out[k, step - j0] = np.nan
        return out

    monkeypatch.setattr(HistoryConvolution, "far_sums", far_sums)
    base = sequence_base(PowerLawKernel(1.0, 0.5))
    assert base.n_steps > solver_module._MARCH_ROWS
    eps = eps_schedule(0.1, 0.5, 3)
    with np.errstate(invalid="ignore"), pytest.raises(SolverAbort, match="non-finite") as got:
        run_eps_sequence(base, 0.1, 0.5, 3)
    assert (got.value.step, got.value.eps) == (20, float(eps[2]))


def test_vanishing_shift_in_three_dimensions():
    # the paper's own dimension: a power-law modulus on a 3D box, with
    # shifts 0.1 * 2^-h, h = 0 .. 6, and the limit eps = 0 in one batch.
    # The distances to the limit run fall monotonically, at a fitted rate
    # in rate_window (0.589 measured; the kernel distance sup |Ksh - K|
    # shrinks like 2 sqrt(eps), rate 0.5)
    rate_window = (0.5, 0.7)
    box = Grid.box(15)
    spec = ProblemSpec(
        kernel=PowerLawKernel(1.0, 0.5), grid=box, horizon=1.0, dt=0.005, eps=0.0,
        u0=Field.zero(box), u1=field_from_name(box, "bump", {"radius": 0.3}),
        formulation="integral_volterra",
    )
    shifts = [0.1 * 2.0**-h for h in range(7)]
    *runs, limit = batch_runs(spec, shifts + [0.0])
    distances = np.array([trajectory_distance(r, limit) for r in runs])
    assert np.all(np.diff(distances) < 0)
    rate = np.polyfit(np.log(shifts), np.log(distances), 1)[0]
    assert rate_window[0] <= rate <= rate_window[1]
