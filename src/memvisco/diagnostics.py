"""Energy bookkeeping, a-priori bound checks, and weak-form residuals.

The stored energy of a trajectory splits into kinetic, elastic, and memory
parts; its discrete time derivative has to match the forcing power plus two
nonpositive dissipation rates.  The residual of that balance is the primary
correctness signal for the integro-differential solver, since it probes the
solution and the kernel calculus together.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from memvisco.expressions import sin_product
from memvisco.grid import (
    Field,
    Grid,
    double_trapezoid,
    inner_space,
    l2_space,
    sine_transform,
    trapezoid_weights,
)
from memvisco.kernels import RelaxationKernel, translate
from memvisco.solver import (
    HistoryConvolution,
    ProblemSpec,
    TrajectorySolution,
    run_block,
    velocity_estimates,
)

__all__ = [
    "HypothesisError",
    "SingleRun",
    "ledger_plan",
    "check_ledger_hypothesis",
    "check_bound_hypothesis",
    "EnergyLedger",
    "energy_ledger",
    "DecayReport",
    "check_decay_hypothesis",
    "check_energy_decay",
    "calibrate_decay_tolerance",
    "BoundReport",
    "check_energy_bound",
    "ModeTestFunction",
    "default_battery",
    "battery_modes",
    "battery_columns",
    "battery_projections",
    "WeakResidualEntry",
    "weak_residual",
]


class HypothesisError(ValueError):
    """A diagnostic was asked of a run that does not meet its hypothesis."""


# ---------------------------------------------------------------------------
# energy ledger
# ---------------------------------------------------------------------------

class SingleRun(NamedTuple):
    """What the audits of one run keep of its levels.  Per level j, by
    Parseval and unscaled by the cell volume: grad_sq[j] = |e_j|^2 = sum mu
    u_hat_j^2, vel_sq[j] = |v_j|^2 and power[j] = v_j . p, e_j the edge
    differences, v_j the velocities and p the forcing profile.  columns
    holds the battery_columns, and history_sums the (2, J + 1) sums sum_i
    W_j(i) vol |e_j - e_{j-i}|^2 of ledger_plan(*ledger, times), ledger
    the run's (kernel, eps).  power, columns and ledger are None unless
    asked for (history_sums also without memory), and an audit that reads
    one refuses a run without it (require).  stack_bytes
    counts the e_j stack their lag passes read, 0 for a Prony modulus,
    whose sums step with the levels.  displaced tells whether level 0 is
    nonzero."""

    grid: Grid
    times: np.ndarray
    displaced: bool
    grad_sq: np.ndarray
    vel_sq: np.ndarray
    power: np.ndarray | None
    columns: np.ndarray | None
    history_sums: np.ndarray | None
    ledger: tuple | None
    stack_bytes: int

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def require(self, audit: str, **parts: bool) -> SingleRun:
        """self, or ValueError naming each of parts, reduce's forcing,
        ledger and battery, that audit reads (True) and the reduction was
        made without."""
        held = {"forcing": self.power, "ledger": self.ledger, "battery": self.columns}
        missing = [part for part, read in parts.items() if read and held[part] is None]
        if missing:
            raise ValueError(f"{audit} reads a SingleRun reduced with {' and '.join(missing)}, and this one was not")
        return self

    @classmethod
    def reduce(
        cls, grid, times, blocks, forcing=None, ledger=None, battery=False, export=None, phases=nullcontext
    ) -> SingleRun:
        """The reduction of a run whose levels come in blocks (j0, the levels
        j0 .. j1 - 1), level 0 first, as march hands them over for one
        shift, each read as (rows, N).  forcing gives the power; ledger,
        the run's (kernel, eps), the history sums of ledger_plan(kernel,
        eps, times), from the Prony inflows a level at a time for a Prony
        modulus, else by lag passes over a stack of every e_j once the last
        block is in.

        export(j0, u, v) is called once per piece with the levels it
        reduces: u and v, (rows, N), hold the sine coefficients of the
        levels j0 .. j0 + rows - 1 and of their velocities, views that the
        reduction writes over after the call.

        Each part of the work is timed as phases(name) of the run's clock:
        the level "sums", and the "ledger", "weak_residual" and "export"
        work; the rest, the march's included, is the caller's.

        Pieces of run_block levels are reduced, so a streamed run and its
        stored levels are summed alike.  A level is reduced once the next is
        known, for its centered velocity, and the last with its piece: every
        piece reduces two levels or more, as a lone level's sums would be
        taken in another order."""
        n, dt, vol = times.size, float(times[1] - times[0]), grid.cell_volume
        root_mu = np.sqrt(grid.eigenvalues).ravel()
        grad_sq, vel_sq = np.zeros(n), np.zeros(n)
        power = None if forcing is None else np.zeros(n)
        profile = None if forcing is None else sine_transform(grid, forcing.profile(grid)).ravel()
        columns = np.empty((n, len(battery_modes(grid)))) if battery else None
        histories, prony, edges = [], None, None
        if ledger:
            with phases("ledger"):
                histories = ledger_plan(*ledger, times)
                if histories and histories[0].backend == "exponential":
                    prony = _PronyInflows(histories[0].terms[0], n, grid.n_total, vol)
                elif histories:
                    edges = np.empty((n, grid.n_total))
        rows = run_block(grid.n_total, n)
        # the (at most) two levels before a piece, then the piece; and e,
        # then v, of the levels a piece reduces: buffers held for the whole
        # reduction, as fresh ones would take new pages every piece
        window, work = np.empty((2, rows + 2, grid.n_total))
        held = 0
        done = 0  # the levels 0 .. done - 1 are reduced
        displaced = False
        for j0, block in blocks:
            block = block.reshape(-1, grid.n_total)
            if j0 == 0:
                displaced = bool(np.any(block[0]))
            for a in range(j0, j0 + block.shape[0], rows):
                piece = block[a - j0 : a - j0 + rows]
                b = a + piece.shape[0]
                if battery:
                    with phases("weak_residual"):
                        columns[a:b] = battery_columns(grid, piece.reshape((-1, *grid.shape)))
                # the level sums hold the ledger's and the export's work, each
                # a phase of its own
                with phases("sums"):
                    # w holds the levels b - len(w) .. b - 1, of which done .. hi - 1
                    # are reduced: its rows r0 .. r1 - 1
                    w = window[: held + piece.shape[0]]
                    w[held:] = piece
                    hi = b if b == n else b - 1
                    r0, r1 = done - (b - w.shape[0]), hi - (b - w.shape[0])
                    if hi > done:
                        # e_{done - 1} .. e_{hi - 1}, the first for the Prony deltas
                        lead = min(r0, 1)
                        e = np.multiply(w[r0 - lead : r1], root_mu, out=work[: r1 - r0 + lead])
                        grad_sq[done:hi] = np.einsum("ij,ij->i", e[lead:], e[lead:])
                        if prony is not None:
                            with phases("ledger"):
                                prony.add(e, done, hi)
                        elif edges is not None:
                            with phases("ledger"):
                                edges[done:hi] = e[lead:]
                        v = velocity_estimates(w, dt, r0, r1, out=work[: r1 - r0])
                        vel_sq[done:hi] = np.einsum("ij,ij->i", v, v)
                        if profile is not None:
                            with phases("ledger"):
                                power[done:hi] = v @ profile
                        if export:
                            with phases("export"):
                                export(done, w[r0:r1], v)
                held = min(2, w.shape[0])
                window[:held] = w[-held:]
                done = hi
        history_sums = None
        if histories:
            with phases("ledger"):
                if prony is not None:
                    history_sums = _prony_history_sums(prony, vol, [h.terms[0] for h in histories])
                else:
                    history_sums = _lag_pass_sums(edges, vol, histories)
        stack_bytes = 0 if edges is None else edges.nbytes
        return cls(grid, times, displaced, grad_sq, vel_sq, power, columns, history_sums, ledger, stack_bytes)


class _PronyInflows:
    """The inflows of _prony_history_sums' filters per level, |delta_j|^2,
    delta_j . S_j per term and vol |e_j - e_0|^2, as the pieces of e_j =
    sqrt(mu) u_hat_j come in: S_j, one (terms, N) state, steps a level at a
    time.  terms are exponential_terms' (r, left[0], right[0]) per term;
    decay[t, j] = r_t^j (j <= J) and s[t, j] = sum_{k<=j} r_t^k (j < J) serve the filter too."""

    def __init__(self, terms, n_levels: int, n_total: int, vol: float):
        rates = np.array([r for r, _, _ in terms])
        self.rates, self._vol = rates, vol
        self.decay = rates[:, None] ** np.arange(n_levels)
        self.s = np.cumsum(self.decay[:, :-1], axis=1)
        self._state = np.zeros((rates.size, n_total))
        self.cross = np.empty((n_levels - 1, rates.size))
        self.delta_sq = np.empty(n_levels - 1)
        self.oldest = np.zeros(n_levels)

    def add(self, e: np.ndarray, done: int, hi: int) -> None:
        """Step over the levels done .. hi - 1 from e, which holds e_{done-1}
        .. e_{hi-1}, or e_0 .. e_{hi-1} when done = 0; e is overwritten."""
        if not done:
            self._first = e[0].copy()
        # delta_{m - 1} = e_m - e_{m - 1} for the levels m >= 1 here
        steps = slice(max(done, 1) - 1, hi - 1)
        delta = e[1:] - e[:-1]
        self.delta_sq[steps] = np.einsum("ke,ke->k", delta, delta)
        r_column = self.rates[:, None]
        for d, s_j, cross_j in zip(delta, self.s.T[steps, :, None], self.cross[steps]):
            np.matmul(self._state, d, out=cross_j)
            self._state += s_j * d
            self._state *= r_column
        d = np.subtract(e[1:], self._first, out=e[1:])
        self.oldest[max(done, 1) : hi] = self._vol * np.einsum("ke,ke->k", d, d)


def check_ledger_hypothesis(kernel: RelaxationKernel, eps: float) -> None:
    """HypothesisError unless the energy ledger can be formed at shift eps:
    not for eps = 0 with a modulus unbounded at 0."""
    if eps == 0.0 and kernel.singular_at_zero:
        raise HypothesisError("eps = 0 with a modulus unbounded at 0")


def ledger_plan(kernel: RelaxationKernel, eps: float, times: np.ndarray) -> list:
    """The histories by which energy_ledger weighs the lags of a run over
    times at shift eps, which SingleRun.reduce sums: the weights of w = dG
    and w = d2G, none for a modulus with dG = 0, which has no memory.
    HypothesisError where check_ledger_hypothesis raises it."""
    check_ledger_hypothesis(kernel, eps)
    kk = translate(kernel, eps)
    # a modulus with dG = 0 has no memory: its weights would be round-off
    if not np.any(kk.modulus_dt(times)):
        return []
    J, dt = times.size - 1, float(times[1] - times[0])
    return [HistoryConvolution.of(kk, order, J, dt) for order in (1, 2)]


class EnergyLedger(NamedTuple):
    """Per-level energy split and balance residual.

    stored = kinetic + elastic + memory.  The residual compares the
    centered time derivative of stored against forcing_power +
    rate_modulus + rate_curvature and is defined on interior levels
    1 .. n-1 (length n_levels - 2).  The fields, in order, are the
    columns of energy.csv after its level column, times written as t.
    """

    times: np.ndarray
    kinetic: np.ndarray
    elastic: np.ndarray
    memory: np.ndarray
    rate_modulus: np.ndarray
    rate_curvature: np.ndarray
    forcing_power: np.ndarray
    stored: np.ndarray
    residual: np.ndarray

    @property
    def max_residual(self) -> float:
        return float(np.max(np.abs(self.residual)))


def energy_ledger(
    run: TrajectorySolution | SingleRun,
    kernel: RelaxationKernel,
    eps: float,
    forcing=None,
) -> EnergyLedger:
    """Assemble the energy balance for a run of the shifted problem: a
    SingleRun reduced with forcing and ledger = (kernel, eps), or a stored
    trajectory, reduced here as level 0 and one block; ValueError for a
    SingleRun reduced for another pair, or with forcing where none is given.

    All modulus evaluations use the shifted kernel G(eps + .); eps = 0 is
    accepted only for a modulus bounded at 0.

    The memory and curvature columns weigh phi_j(i) = |grad(u_j - u_{j-i})|^2
    over every lag i of every level j, read off the sine coefficients as
    |sqrt(mu) (u_j - u_{j-i})|^2 (grid.py): they are -1/2 the reduction's
    history_sums.  A Prony modulus gets them from a recursion, linear in J
    (_prony_history_sums).  A power-law or summed modulus has no geometric
    weights, so it takes one pass per lag over a stack of every level,
    O(J^2 N) (_lag_pass_sums).  A modulus with dG = 0, such as a Prony
    kernel without terms, has no memory and takes neither.
    """
    if not isinstance(run, SingleRun):
        # kept for the benchmark's J sweep (perfbench/child.py), which hands a stored run(spec)
        blocks = [(0, run.coefficients[:1]), (1, run.coefficients[1:])]
        run = SingleRun.reduce(run.grid, run.times, blocks, forcing=forcing, ledger=(kernel, eps))
    run.require("energy_ledger", forcing=forcing is not None, ledger=True)
    if forcing is None and run.power is not None:
        raise ValueError("energy_ledger without forcing reads a SingleRun reduced with forcing")
    if run.ledger != (kernel, eps):
        raise ValueError(f"energy_ledger of {(kernel, eps)!r} reads a SingleRun reduced for {run.ledger!r}")
    kk = translate(kernel, eps)

    dt, times, vol = run.dt, run.times, run.grid.cell_volume
    J = times.size - 1

    g_now = kk.modulus(times)
    gdot_now = kk.modulus_dt(times)

    grad_sq = run.grad_sq * vol
    kinetic = run.vel_sq * (0.5 * vol)
    forcing_power = np.zeros(J + 1) if forcing is None else run.power * (vol * forcing.factor(times))
    elastic = 0.5 * g_now * grad_sq
    rate_modulus = 0.5 * gdot_now * grad_sq

    memory, rate_curvature = np.zeros((2, J + 1)) if run.history_sums is None else -0.5 * run.history_sums

    stored = kinetic + elastic + memory
    residual = (stored[2:] - stored[:-2]) / (2 * dt) - (
        forcing_power[1:-1] + rate_modulus[1:-1] + rate_curvature[1:-1]
    )

    return EnergyLedger(
        times=times,
        kinetic=kinetic,
        elastic=elastic,
        memory=memory,
        rate_modulus=rate_modulus,
        rate_curvature=rate_curvature,
        forcing_power=forcing_power,
        stored=stored,
        residual=residual,
    )


def _lag_pass_sums(edges: np.ndarray, vol: float, histories) -> np.ndarray:
    """sum_i W_j(i) phi_j(i) at every level j, one row per history, with
    phi_j(i) = vol |e_j - e_{j-i}|^2: e_j is sqrt(mu) times the sine
    coefficients of level j, or equally its edge differences.

    Level j weighs lag i by lags[i] for i < j and by the oldest-lag weight
    oldest[j - 1] at i = j, so one pass per lag serves all j: O(J^2 N).
    """
    J = len(edges) - 1
    out = np.zeros((len(histories), J + 1))
    # every history's weights as one row, so one product per lag serves them all
    lags, oldest = np.array([h.lags for h in histories]), np.array([h.oldest for h in histories])
    for i in range(1, J + 1):
        # phi_j(i) for j = i .. J at once
        d = edges[i:] - edges[:-i]
        phi = vol * np.einsum("ij,ij->i", d, d)
        out[:, i] += oldest[:, i - 1] * phi[0]
        out[:, i + 1 :] += lags[:, i, None] * phi[1:]
    return out


def _prony_history_sums(prony: _PronyInflows, vol: float, weights) -> np.ndarray:
    """_lag_pass_sums for a Prony modulus from a run's inflows, one row per
    weight set in weights, each the (r, left[0], right[0]) per term of
    exponential_terms.

    A term's lag weights are geometric: lags[i] = c r^(i-1) with
    c = r left[0] + right[0], and oldest[j - 1] = r^(j-1) right[0] =
    c r^(j-1) - r^j left[0].  So its share of level j is
    vol (c Q_j - r^j left[0] |e_j - e_0|^2) with

        Q_j = sum_{i=1}^{j} r^(i-1) |e_j - e_{j-i}|^2,
        S_j = sum_{i=1}^{j} r^i (e_j - e_{j-i}),

    and with delta_j = e_{j+1} - e_j and s_j = sum_{k=0}^{j} r^k these obey

        S_{j+1} = r (S_j + s_j delta_j),
        Q_{j+1} = s_j |delta_j|^2 + 2 delta_j . S_j + r Q_j.

    Every term is built from differences, so nothing large cancels, as it
    would in the expanded |e_j|^2 - 2 e_j . e_{j-i} + |e_{j-i}|^2.  S steps
    one level at a time in SingleRun.reduce, one (terms, N) state, which
    keeps the inflows |delta_j|^2, delta_j . S_j and vol |e_j - e_0|^2; Q is
    a scalar filter of them: O(terms J N) flops in O(J) Python steps.
    """
    delta_sq, cross, oldest, rs = prony.delta_sq, prony.cross, prony.oldest, prony.rates
    J, decay, s = delta_sq.size, prony.decay, prony.s
    inflow = 2.0 * cross.T + s * delta_sq
    # Q_{j+1} = r Q_j + inflow_j from Q_0 = 0, a scalar filter per term
    q = [
        np.fromiter(accumulate(inflow_t, lambda q_j, x, r=r: r * q_j + x, initial=0.0), float, J + 1)
        for inflow_t, r in zip(inflow.tolist(), rs.tolist())
    ]

    out = np.zeros((len(weights), J + 1))
    for row, terms in zip(out, weights):
        for q_t, decay_t, (r, left0, right0) in zip(q, decay, terms):
            row += (r * left0 + right0) * vol * q_t
            row -= left0 * decay_t * oldest
    return out


class DecayReport(NamedTuple):
    """The energy_decay verdict; its fields are the verdict's keys."""

    passed: bool
    tolerance: float
    max_increase: float
    first_violation: int | None


_FORCED = "forced run: the forcing's work can raise the stored energy"


def check_decay_hypothesis(spec: ProblemSpec) -> None:
    """HypothesisError for a forced spec, as the forcing's work may raise
    its energy, where check_ledger_hypothesis raises it, or for a spec whose
    memory-free twin (calibrate_decay_tolerance) is not a stable leapfrog,
    0 < dt^2 G(eps) mu_max < 4, which only a Volterra spec's dt can break."""
    if spec.forcing is not None:
        raise HypothesisError(_FORCED)
    check_ledger_hypothesis(spec.kernel, spec.eps)
    top = spec.dt * spec.dt * spec.kernel.modulus(spec.eps) * float(spec.grid.eigenvalues.max())
    if not 0.0 < top < 4.0:
        raise HypothesisError(f"the memory-free twin's leapfrog needs 0 < dt^2 G(eps) mu_max < 4, got {top:.6g}")


def check_energy_decay(ledger: EnergyLedger, tol: float) -> DecayReport:
    """Unforced runs must not gain stored energy beyond the drift tolerance;
    HypothesisError for a ledger with forcing power."""
    if np.any(ledger.forcing_power):
        raise HypothesisError(_FORCED)
    diffs = np.diff(ledger.stored)
    max_inc = float(np.max(diffs)) if diffs.size else 0.0
    bad = np.nonzero(diffs > tol)[0]
    return DecayReport(
        passed=bad.size == 0,
        tolerance=tol,
        max_increase=max_inc,
        first_violation=int(bad[0] + 1) if bad.size else None,
    )


def calibrate_decay_tolerance(spec: ProblemSpec, safety: float = 5.0) -> float:
    """Drift tolerance from a memory-free twin at matched wave speed: safety
    times the twin's worst per-step gain of stored energy, plus a round-off
    floor of 1e-13 max(stored_0, 1).

    The twin is the leapfrog with the kernel replaced by the constant
    G(eps): same grid, dt and data, so its gain measures the pure
    discretization drift at this resolution, and scales like dt^2 + h^2.
    Its stored energy has a closed form, so it is not marched.  With
    P = G(eps) mu, a sine mode steps u_{j+1} = (2 - dt^2 P) u_j - u_{j-1},
    so with h = dt sqrt(P) / 2, theta = 2 arcsin h and sin theta =
    2 h sqrt((1 - h)(1 + h)) (arccos(1 - dt^2 P / 2) loses the low modes'
    digits, and 1 - h^2 the top modes' near h = 1)

        u_j = a cos(j theta) + b sin(j theta),  a = u_hat_0,  b = dt v_hat_0 / sin theta,

    which is exact for the march's first step u_1 = u_0 + dt v_0 - dt^2 P
    u_0 / 2.  At an interior level the ledger's stored energy, 1/2 vol
    (|v_j|^2 + G |e_j|^2) with centered v_j, is per mode

        1/2 vol [(K + P) (a^2 + b^2) / 2
                 + dt^2 P^2 / 4 ((a^2 - b^2) cos 2j theta + 2 a b sin 2j theta) / 2],

    K = P - dt^2 P^2 / 4: a constant and an oscillation.  Modes of
    bitwise-equal mu share P and theta, so their a^2, b^2 and ab are
    summed first and the oscillation is Re sum w e^(2i j theta), one term
    per distinct mu (grouped by theta, modes of different P would merge),
    taken in blocks of levels: a table of e^(2i k theta) for a block's
    offsets k, no larger than run_block's levels of nodes, times the
    weights w turned to its first level.  Levels 0 and J take the
    ledger's one-sided velocities from u_j at j = 0, 1, 2 and J - 2,
    J - 1, J.

    A Volterra spec is calibrated by the same leapfrog twin: at n = 49 a
    marched Volterra twin's tolerance read 0.01-0.4% from it with sin(pi
    x) data, up to 6.9% from a bump.  HypothesisError where
    check_decay_hypothesis raises it: for a forced spec, and where the
    twin's leapfrog is unstable.
    """
    check_decay_hypothesis(spec)
    grid, dt, J, vol = spec.grid, spec.dt, spec.n_steps, spec.grid.cell_volume
    mu, group = np.unique(grid.eigenvalues.ravel(), return_inverse=True)
    p = spec.kernel.modulus(spec.eps) * mu
    h = 0.5 * dt * np.sqrt(p)
    theta = 2.0 * np.arcsin(h)
    a = sine_transform(grid, spec.u0.values).ravel()
    b = dt * sine_transform(grid, spec.u1.values).ravel() / (2.0 * h * np.sqrt((1.0 - h) * (1.0 + h)))[group]
    aa, bb, ab = (np.bincount(group, x, mu.size) for x in (a * a, b * b, a * b))
    q = 0.25 * dt * dt * p * p
    constant = 0.25 * vol * float(np.dot(2.0 * p - q, aa + bb))
    weights = 0.25 * vol * q * (aa - bb - 2j * ab)
    live = weights != 0
    turn, weights = 2.0 * theta[live], weights[live]

    # the stored energy less the constant, so the oscillation's differences
    # carry no rounding of it
    shifted = np.empty(J + 1)
    # complex entries are two floats each
    rows = run_block(2 * turn.size, J + 1)
    table = np.exp(1j * np.outer(np.arange(rows), turn))
    for j0 in range(1, J, rows):
        j1 = min(j0 + rows, J)
        # a product and a sum: a complex matrix product raised the run's peak RSS ~0.1 MiB
        shifted[j0:j1] = (table[: j1 - j0] * (weights * np.exp(1j * j0 * turn))).real.sum(axis=1)
    angle = np.outer([0, 1, 2, J - 2, J - 1, J], theta)
    u = a * np.cos(angle)[:, group] + b * np.sin(angle)[:, group]
    for j, ends, row in ((0, u[:3], 0), (J, u[3:], 2)):
        v = velocity_estimates(ends, dt, row, row + 1)[0]
        shifted[j] = 0.5 * vol * (v @ v + (p[group] * ends[row]) @ ends[row]) - constant
    drift = max(float(np.max(np.diff(shifted))), 0.0)
    floor = 1e-13 * max(float(shifted[0]) + constant, 1.0)
    return safety * drift + floor


# ---------------------------------------------------------------------------
# a-priori energy bound
# ---------------------------------------------------------------------------


class BoundReport(NamedTuple):
    """gamma e^T C bound versus the discrete gradient + velocity energy."""

    passed: bool
    gamma: float
    data_constant: float
    bound: float
    lhs: np.ndarray
    max_ratio: float


def check_bound_hypothesis(kernel: RelaxationKernel, eps: float, horizon: float, displaced: bool) -> float:
    """gamma = max(1 / G(T + 1), 1) of check_energy_bound at horizon T;
    HypothesisError for a run that starts displaced, eps > 1 or G(T + 1) <= 0."""
    if displaced:
        raise HypothesisError("nonzero initial displacement")
    if eps > 1.0:
        raise HypothesisError(f"bound requires eps <= 1, got {eps}")
    g_end = kernel.modulus(horizon + 1.0)
    if not g_end > 0:
        raise HypothesisError(f"bound requires G(T + 1) > 0, got {g_end!r}")
    return max(1.0 / g_end, 1.0)


def check_energy_bound(
    run: SingleRun,
    kernel: RelaxationKernel,
    eps: float,
    u1: Field,
    forcing=None,
) -> BoundReport:
    """Check  0.5 |grad u|^2 + 0.5 |u_t|^2 <= gamma e^T C  at every level
    of a reduced run.

    gamma = max(1 / G(T + 1), 1) uses the unshifted modulus; requires
    eps <= 1 so the shifted modulus dominates G(T + 1) on the window, and
    G(T + 1) > 0, which a Prony modulus can underflow.
    C = 0.5 |f|^2 (space-time) + 0.5 |u1|^2 (space) covers no initial
    displacement, so a run that starts displaced is refused.
    """
    T = float(run.times[-1])
    gamma = check_bound_hypothesis(kernel, eps, T, run.displaced)
    grid, dt = run.grid, run.dt

    # f = profile * factor: |f|^2 = |profile|^2 int factor^2
    f_spacetime_sq = 0.0
    if forcing is not None:
        profile = forcing.profile(grid)
        factor = forcing.factor(run.times)
        f_spacetime_sq = inner_space(grid, profile, profile) * float(
            np.dot(trapezoid_weights(run.times.size, dt), factor * factor)
        )
    c_data = 0.5 * f_spacetime_sq + 0.5 * l2_space(grid, u1) ** 2
    bound = gamma * math.exp(T) * c_data

    lhs = 0.5 * grid.cell_volume * run.grad_sq + 0.5 * grid.cell_volume * run.vel_sq
    peak = float(np.max(lhs))
    if bound == 0.0:
        max_ratio = 0.0 if peak == 0.0 else math.inf
    else:
        max_ratio = peak / bound
    return BoundReport(
        passed=max_ratio <= 1.0 + 1e-9,
        gamma=gamma,
        data_constant=c_data,
        bound=bound,
        lhs=lhs,
        max_ratio=max_ratio,
    )


# ---------------------------------------------------------------------------
# weak-form residual
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModeTestFunction:
    """Separable test function: product of sine modes times a time profile.

    Vanishes on the box boundary for any positive mode numbers; the
    Laplacian is available analytically, which is what makes the
    integration-by-parts cross-check meaningful.
    """

    modes: tuple[int, ...]
    time_profile: str = "parabolic"  # parabolic | halfsine

    def __post_init__(self):
        # True is an int but no mode number, as the initial data's modes say
        if not all(isinstance(m, int) and not isinstance(m, bool) and m >= 1 for m in self.modes):
            raise ValueError("mode numbers must be positive integers")
        if self.time_profile not in ("parabolic", "halfsine"):
            raise ValueError(f"unknown time profile '{self.time_profile}'")

    @property
    def name(self) -> str:
        # no comma: the name lands in CSV columns as-is
        return f"modes={'x'.join(map(str, self.modes))} {self.time_profile}"

    def space_values(self, grid: Grid) -> np.ndarray:
        if len(self.modes) != grid.dim:
            raise ValueError("mode count does not match grid dimension")
        return sin_product(grid, self.modes)

    def laplace_factor(self, grid: Grid) -> float:
        return -sum((m * np.pi / L) ** 2 for m, L in zip(self.modes, grid.extent))

    def time_values(self, times: np.ndarray, horizon: float) -> np.ndarray:
        if self.time_profile == "parabolic":
            return 4.0 * times * (horizon - times) / horizon**2
        return np.sin(np.pi * times / horizon)


def default_battery(grid: Grid) -> tuple[ModeTestFunction, ...]:
    if grid.dim == 1:
        mode_sets = [(1,), (2,), (3,)]
    else:
        mode_sets = [(1, 1, 1), (2, 1, 1), (1, 2, 1)]
    return tuple(
        ModeTestFunction(m, p) for m in mode_sets for p in ("parabolic", "halfsine")
    )


class WeakResidualEntry(NamedTuple):
    """One row of weak_residuals.csv; its fields, in order, are the columns."""

    test_function: str
    direct: float  # memory term tested with the discrete laplacian of u
    moved: float  # memory term moved onto the test function


def weak_residual(
    run: SingleRun,
    kernel: RelaxationKernel,
    eps: float,
    u0: Field,
    u1: Field,
    forcing=None,
) -> list[WeakResidualEntry]:
    """Integral-form defect tested against the default battery of smooth
    test functions.

    For each test function v the residual is

        int v (u - drive) dx dt,   drive = conv(Ksh, lap u) + u1 t + u0 + F2,

    once with the discrete Laplacian acting on u ('direct') and once with
    the convolution moved onto v via two integrations by parts ('moved').
    The two agree up to O(h^2) because the analytic Laplacian of v differs
    from the stencil by that amount.  It reads the battery columns of a
    run reduced with them.
    """
    grid, dt, times = run.grid, run.dt, run.times
    columns = run.require("weak_residual", battery=True).columns
    J = times.size - 1
    history = HistoryConvolution.of(translate(kernel, eps), -1, J, dt)
    if forcing is not None:
        # F2 = c2 * profile, c2 the time factor integrated twice
        c2 = double_trapezoid(forcing.factor(times), dt)
        profile = forcing.profile(grid).ravel()

    vol = grid.cell_volume
    out = []
    for v, a, y, projected in battery_projections(grid, times, columns, history):
        vx = v.space_values(grid).ravel()
        ramp = times * (u1.values.ravel() @ vx) + u0.values.ravel() @ vx
        if forcing is not None:
            ramp += c2 * (profile @ vx)
        rest = float(a @ (projected - ramp))
        # vx is a sine mode, which the stencil scales by -mu, so
        # (lap_h u) . vx = u . lap_h vx = -mu_m u . vx
        mu_m = grid.eigenvalues[tuple(m - 1 for m in v.modes)]
        direct = vol * (rest + mu_m * float(y[0] @ projected))
        moved = vol * (rest - v.laplace_factor(grid) * float(y[0] @ projected))
        out.append(WeakResidualEntry(test_function=v.name, direct=direct, moved=moved))
    return out


def battery_modes(grid: Grid) -> list[tuple[int, ...]]:
    """The mode sets of the default battery, each once, in its order."""
    return list(dict.fromkeys(v.modes for v in default_battery(grid)))


def battery_columns(grid: Grid, coefficients: np.ndarray) -> np.ndarray:
    """The sine coefficients of the battery's modes in a stack of levels
    (..., *grid.shape): (..., modes), one column per mode set."""
    return np.stack(
        [coefficients[(..., *(m - 1 for m in modes))] for modes in battery_modes(grid)], axis=-1
    )


def battery_projections(grid: Grid, times: np.ndarray, columns: np.ndarray, history: HistoryConvolution):
    """(v, a, y, projected) for each test function v of the default
    battery: a = w v(t) its time profile with the trapezoid weights; y,
    (K, n + 1), the history's adjoint of a, one row per weight set (K = 1
    for a single one), from one adjoint call for every time profile;
    projected = the levels at times projected on v's space values vx, from
    columns, their battery_columns (..., n, modes): (..., n).

    Every tested term is linear in u, so projecting the levels first leaves
    only scalar convolutions.  vx is the product of sine modes m, which is
    prod_axes sqrt((n + 1) / 2) times the orthonormal DST-I mode, so a
    level's projection on it is that multiple of its coefficient u_hat_m.
    """
    horizon = float(times[-1])
    scale = math.prod(math.sqrt((n + 1) / 2) for n in grid.n)
    wt = trapezoid_weights(times.size, float(times[1] - times[0]))
    index = {modes: i for i, modes in enumerate(battery_modes(grid))}
    battery = default_battery(grid)
    profiles = {v.time_profile: wt * v.time_values(times, horizon) for v in battery}
    # one call for every profile: (K, P, n + 1), one (K, n + 1) per profile
    ys = history.adjoint(np.array(list(profiles.values())))
    adjoints = dict(zip(profiles, ys.swapaxes(0, 1)))
    for v in battery:
        yield v, profiles[v.time_profile], adjoints[v.time_profile], scale * columns[..., index[v.modes]]
