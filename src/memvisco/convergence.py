"""Vanishing-shift studies: Cauchy distances, rates, kernel-swap residuals.

A geometric shift schedule eps_h = eps0 * ratio**h produces a family of
trajectories on a shared grid and time step; successive space-time
distances d_h must shrink, their log-log slope estimates the rate, and the
kernel-difference residual must sit below its analytic majorant at every
shift.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from memvisco.diagnostics import battery_columns, battery_modes, battery_projections
from memvisco.grid import Grid, level_squares, sine_transform, trapezoid_weights
from memvisco.kernels import RelaxationKernel, kernel_diff_bound, translate
from memvisco.solver import HistoryConvolution, ProblemSpec, RunRecord, interval_weights, march

__all__ = [
    "eps_schedule",
    "ShiftSequence",
    "run_eps_sequence",
    "ConvergenceReport",
    "cauchy_report",
    "LemmaCheckEntry",
    "convergence_lemma_check",
]


def eps_schedule(eps0: float, ratio: float, count: int) -> np.ndarray:
    """Shifts eps0 * ratio**h for h = 0 .. count (count + 1 values)."""
    if not eps0 > 0:
        raise ValueError(f"eps0 must be positive, got {eps0}")
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if count < 1:
        raise ValueError("need count >= 1")
    return eps0 * ratio ** np.arange(count + 1, dtype=float)


class ShiftSequence(NamedTuple):
    """What a shift sequence keeps of its K runs: each run's record, its
    share of the level bytes the marches held, and what cauchy_report and
    convergence_lemma_check read.  next_squares[h] and finest_squares[h],
    (K - 1, J + 1), are each level's level_squares of u_h - u_{h+1} and
    of u_h - u_{K-1} (Parseval: in sine coefficients); columns[k] is run
    k's battery_columns and peaks[k] its max |u|.
    """

    grid: Grid
    times: np.ndarray
    eps_values: np.ndarray
    runs: tuple[RunRecord, ...]
    levels_bytes: int
    next_squares: np.ndarray
    finest_squares: np.ndarray
    columns: np.ndarray
    peaks: np.ndarray

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @classmethod
    def reduce(
        cls, grid: Grid, times: np.ndarray, eps_values, runs, levels_bytes: int, blocks, phases=nullcontext
    ) -> ShiftSequence:
        """The sequence of runs whose levels come in blocks (j0, the levels
        j0 .. j1 - 1 of every run), level 0 first, as run_eps_sequence hands
        them over; each block is read as it arrives, its work timed as
        phases(name) of the run's clock, by the phase that reads it: the
        "cauchy" squares, and the "lemma_check" columns and peaks."""
        eps_values = np.asarray(eps_values, dtype=float)
        K, n = eps_values.size, times.size
        next_squares, finest_squares = np.empty((2, K - 1, n))
        columns = np.empty((K, n, len(battery_modes(grid))))
        peaks = np.zeros(K)
        for j0, block in blocks:
            j1 = j0 + block.shape[1]
            with phases("cauchy"):
                next_squares[:, j0:j1] = level_squares(grid, block[:-1] - block[1:], overwrite=True)
                finest_squares[:, j0:j1] = level_squares(grid, block[:-1] - block[-1:], overwrite=True)
            with phases("lemma_check"):
                columns[:, j0:j1] = battery_columns(grid, block)
                # a shift's block is transformed, whole, only when the bound on its
                # max |u| can raise the peak: else max(peak, max |u|) is the peak
                for k in np.flatnonzero(_peak_bounds(grid, block) > peaks):
                    peaks[k] = max(peaks[k], np.abs(sine_transform(grid, block[k])).max())
        return cls(grid, times, eps_values, tuple(runs), levels_bytes, next_squares, finest_squares, columns, peaks)


def _peak_bounds(grid: Grid, block: np.ndarray) -> np.ndarray:
    """(K,) upper bounds on the nodal max |u| of each stack of sine
    coefficients in block, (K, levels, *grid.shape): grid.sine_bound times
    each level's sum |u_hat|, at its largest level."""
    levels = np.abs(block).reshape(block.shape[:2] + (-1,))
    # the level sums as one matrix-vector product: several times faster than
    # sum(axis=2) on rows of ~100 terms, and any order keeps the bound
    return grid.sine_bound * (levels @ np.ones(levels.shape[-1])).max(axis=1)


def run_eps_sequence(base: ProblemSpec, eps0: float, ratio: float, count: int, phases=nullcontext) -> ShiftSequence:
    """Run the base problem at every shift of the schedule, shared dt, and
    reduce the runs to a ShiftSequence, each block of levels as march
    hands it over, its work timed by phases as ShiftSequence.reduce says:
    an infeasible dt fails before any work happens, and a march that
    aborts stops the sequence.
    """
    eps_values = eps_schedule(eps0, ratio, count)
    runs, levels, blocks = march(base, eps_values)
    return ShiftSequence.reduce(base.grid, base.times, eps_values, runs, levels.nbytes // len(runs), blocks, phases)


class ConvergenceReport(NamedTuple):
    """Successive distances, fitted rate, and kernel-difference bounds.

    passed is True when the distances decrease strictly, or stay at
    exactly 0, and the last one sits below the tolerance; a run of
    exactly identical trajectories passes (the shift machinery is the
    identity for constant kernels).
    """

    eps_values: np.ndarray
    distances: np.ndarray
    tail_distances: np.ndarray
    fitted_rate: float
    kernel_sup_bounds: np.ndarray
    monotone: bool
    first_nonmonotone: int | None
    tolerance: float
    passed: bool


def cauchy_report(
    sequence: ShiftSequence,
    kernel: RelaxationKernel,
    tolerance: float,
) -> ConvergenceReport:
    """Each run's space-time L2 distance to the next and to the finest,
    from the sequence's level squares, trapezoid-weighted in time."""
    eps_values = sequence.eps_values
    if eps_values.size < 3:
        raise ValueError(f"need at least 3 runs to assess a limit, got {eps_values.size}")
    w = trapezoid_weights(sequence.times.size, sequence.dt)
    d = np.array([math.sqrt(float(np.dot(w, sq))) for sq in sequence.next_squares])
    tail = np.array([math.sqrt(float(np.dot(w, sq))) for sq in sequence.finest_squares])
    sup_bounds = np.array(
        [float(kernel_diff_bound(kernel, float(e), 0.0)) for e in eps_values]
    )

    # a step decreases strictly or stays at exactly 0 (identical trajectories)
    increases = np.nonzero(~((d[1:] < d[:-1]) | (d[1:] == 0.0)))[0]
    monotone = increases.size == 0
    first_nonmonotone = None if monotone else int(increases[0]) + 1
    if np.any(d == 0.0):
        rate = math.nan
    else:
        rate = np.polyfit(np.log(eps_values[:-1]), np.log(d), 1)[0]
    passed = monotone and float(d[-1]) <= tolerance
    return ConvergenceReport(
        eps_values=eps_values,
        distances=d,
        tail_distances=tail,
        fitted_rate=float(rate),
        kernel_sup_bounds=sup_bounds,
        monotone=monotone,
        first_nonmonotone=first_nonmonotone,
        tolerance=tolerance,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# kernel-difference residual against its analytic majorant
# ---------------------------------------------------------------------------


class LemmaCheckEntry(NamedTuple):
    """One row of lemma.csv; its fields, in order, are the columns."""

    eps: float
    test_function: str
    residual: float
    majorant: float

    @property
    def within(self) -> bool:
        return abs(self.residual) <= self.majorant * (1 + 1e-9) + 1e-300


def convergence_lemma_check(kernel: RelaxationKernel, sequence: ShiftSequence) -> list[LemmaCheckEntry]:
    """Residual of swapping the shifted kernel for the unshifted one.

    For each shift and test function v of the default battery:

        R = int_Q  lap v(x,t) * int_0^t [Ksh(s) - K(s)] u(t - s) ds  dx dt,

    where Ksh is the re-based integral of the shifted modulus; R must be
    dominated by  sup|lap v| * C * |Omega| * T * sup_s |Ksh - K|  with
    C = sup|u| / |Omega|.  Both sides vanish as the shift does, and both
    are exactly zero for constant kernels, whose shift is the kernel itself.
    R reads the sequence's battery columns and C its peaks.
    """
    grid, times, dt = sequence.grid, sequence.times, sequence.dt
    J = times.size - 1
    horizon = float(times[-1])
    vol = grid.cell_volume
    shifted = [translate(kernel, float(e)) for e in sequence.eps_values]

    # sup_s |Ksh(s) - K(s)| on [0, horizon]: increasing in s, peak at s = horizon
    s_grid = np.linspace(0.0, horizon, 257)
    base = kernel.integral(s_grid)
    sup_diffs = [float(np.max(np.abs(ksh.integral(s_grid) - base))) for ksh in shifted]
    # Ksh - K is no modulus, so HistoryConvolution.of cannot weigh it: its
    # weights come from the difference of the two towers at interval_weights'
    # nodes, the unshifted ones taken once, one weight set per shift
    nodes = np.arange(J + 1, dtype=float) * dt
    base2, base3 = kernel._tower(-2, nodes), kernel._tower(-3, nodes)
    pairs = [
        interval_weights(lambda s: ksh._tower(-2, s) - base2, lambda s: ksh._tower(-3, s) - base3, J, dt)
        for ksh in shifted
    ]
    left, right = np.array(pairs).swapaxes(0, 1)
    projections = list(battery_projections(grid, times, sequence.columns, HistoryConvolution(left, right)))

    out: list[LemmaCheckEntry] = []
    for k, (e, peak, sup_diff) in enumerate(zip(sequence.eps_values, sequence.peaks, sup_diffs)):
        c_level = float(peak) / grid.volume
        for v, _, y, projected in projections:
            # + 0.0: a constant modulus has zero weights, and -0.0 is not a residual
            residual = vol * v.laplace_factor(grid) * float(y[k] @ projected[k]) + 0.0
            # the time profiles peak at 1
            majorant = (
                abs(v.laplace_factor(grid))
                * c_level
                * grid.volume
                * horizon
                * sup_diff
            )
            out.append(
                LemmaCheckEntry(
                    eps=float(e),
                    test_function=v.name,
                    residual=residual,
                    majorant=majorant,
                )
            )
    return out
