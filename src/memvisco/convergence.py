"""Vanishing-shift studies: Cauchy distances, rates, kernel-swap residuals.

A geometric shift schedule eps_h = eps0 * ratio**h produces a family of
trajectories on a shared grid and time step; successive space-time
distances d_h must shrink, their log-log slope estimates the rate, and the
kernel-difference residual must sit below its analytic majorant at every
shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from memvisco.diagnostics import battery_projections, level_blocks
from memvisco.kernels import RelaxationKernel, kernel_diff_bound, translate
from memvisco.solver import (
    HistoryConvolution,
    ProblemSpec,
    TrajectorySolution,
    interval_weights,
    run,
    trajectory_distance,
)

__all__ = [
    "eps_schedule",
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


def run_eps_sequence(
    base: ProblemSpec,
    eps0: float,
    ratio: float,
    count: int,
) -> list[TrajectorySolution]:
    """Run the base problem at every shift of the schedule, shared dt.

    An integral_volterra sequence is marched as one stack of all its
    shifts.  A leapfrog one runs shift by shift; every shift's spec is
    built, and so checks its own time step, before any of them runs, so an
    infeasible dt fails before any work happens.
    """
    eps_values = eps_schedule(eps0, ratio, count)
    if base.formulation == "integral_volterra":
        return list(run(base, eps_values).trajectories)
    specs = [replace(base, eps=float(e)) for e in eps_values]
    return [run(spec) for spec in specs]


@dataclass(frozen=True)
class ConvergenceReport:
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
    trajectories: list[TrajectorySolution],
    eps_values,
    kernel: RelaxationKernel,
    tolerance: float,
) -> ConvergenceReport:
    eps_values = np.asarray(eps_values, dtype=float)
    if len(trajectories) < 3:
        raise ValueError(
            f"need at least 3 trajectories to assess a limit, got {len(trajectories)}"
        )
    if len(trajectories) != eps_values.size:
        raise ValueError("one shift value per trajectory required")

    d = np.array(
        [
            trajectory_distance(trajectories[h], trajectories[h + 1])
            for h in range(len(trajectories) - 1)
        ]
    )
    tail = np.array(
        [
            trajectory_distance(trajectories[h], trajectories[-1])
            for h in range(len(trajectories) - 1)
        ]
    )
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


@dataclass(frozen=True)
class LemmaCheckEntry:
    eps: float
    test_function: str
    residual: float
    majorant: float

    @property
    def within(self) -> bool:
        return abs(self.residual) <= self.majorant * (1 + 1e-9) + 1e-300


def convergence_lemma_check(
    kernel: RelaxationKernel,
    eps_values,
    trajectories: list[TrajectorySolution],
) -> list[LemmaCheckEntry]:
    """Residual of swapping the shifted kernel for the unshifted one.

    For each shift and test function v of the default battery:

        R = int_Q  lap v(x,t) * int_0^t [Ksh(s) - K(s)] u(t - s) ds  dx dt,

    where Ksh is the re-based integral of the shifted modulus; R must be
    dominated by  sup|lap v| * C * |Omega| * T * sup_s |Ksh - K|  with
    C = sup|u| / |Omega|.  Both sides vanish as the shift does, and both
    are exactly zero for constant kernels, whose shift is the kernel itself.
    """
    eps_values = np.asarray(eps_values, dtype=float)
    if len(trajectories) != eps_values.size:
        raise ValueError("one shift value per trajectory required")

    out: list[LemmaCheckEntry] = []
    for e, traj in zip(eps_values, trajectories):
        grid, dt = traj.grid, traj.dt
        J = traj.n_levels - 1
        horizon = float(traj.times[-1])
        shifted = translate(kernel, float(e))

        # sup_s |Ksh(s) - K(s)| on [0, horizon]: increasing in s, peak at s = horizon
        s_grid = np.linspace(0.0, horizon, 257)
        sup_diff = float(np.max(np.abs(shifted.integral(s_grid) - kernel.integral(s_grid))))
        # Ksh - K is no modulus, so HistoryConvolution.of cannot weigh it:
        # its weights come from the difference of the two towers
        weights = interval_weights(
            lambda s: shifted.integral2(s) - kernel.integral2(s),
            lambda s: shifted.integral3(s) - kernel.integral3(s),
            J, dt,
        )
        history = HistoryConvolution(*weights)
        # max |u| over the nodes, from two arrays of a few levels at a time
        blocks = level_blocks(traj, 2)
        c_level = max(float(np.abs(traj.nodal(a, b)).max()) for a, b in blocks) / grid.volume

        vol = grid.cell_volume
        for v, _, _, y, projected in battery_projections(traj, history):
            # + 0.0: a constant modulus has zero weights, and -0.0 is not a residual
            residual = vol * v.laplace_factor(grid) * float(y @ projected) + 0.0
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
