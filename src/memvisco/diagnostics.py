"""Energy bookkeeping, a-priori bound checks, and weak-form residuals.

The stored energy of a trajectory splits into kinetic, elastic, and memory
parts; its discrete time derivative has to match the forcing power plus two
nonpositive dissipation rates.  The residual of that balance is the primary
correctness signal for the integro-differential solver, since it probes the
solution and the kernel calculus together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import accumulate

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
from memvisco.kernels import PronyKernel, RelaxationKernel, translate
from memvisco.solver import HistoryConvolution, ProblemSpec, TrajectorySolution, run

__all__ = [
    "HypothesisError",
    "EnergyLedger",
    "energy_ledger",
    "DecayReport",
    "check_energy_decay",
    "calibrate_decay_tolerance",
    "BoundReport",
    "check_energy_bound",
    "ModeTestFunction",
    "default_battery",
    "battery_modes",
    "battery_columns",
    "battery_projections",
    "level_blocks",
    "WeakResidualEntry",
    "weak_residual",
]


class HypothesisError(ValueError):
    """A diagnostic was asked of a run that does not meet its hypothesis."""


# ---------------------------------------------------------------------------
# energy ledger
# ---------------------------------------------------------------------------

# cap on each transient (block, N) buffer of a pass over a block of levels
_BLOCK_BYTES = 4 * 2**20
# the buffers of a block together hold at most this share of the levels
_BLOCK_SHARE = 8


def level_blocks(traj: TrajectorySolution, buffers: int) -> list[tuple[int, int]]:
    """(start, stop) of each block of a pass over traj's levels that holds
    `buffers` (block, N) arrays."""
    share = traj.n_levels // (_BLOCK_SHARE * buffers)
    block = max(1, min(share, _BLOCK_BYTES // (8 * traj.grid.n_total)))
    return [(m, min(m + block, traj.n_levels)) for m in range(0, traj.n_levels, block)]


@dataclass(frozen=True)
class EnergyLedger:
    """Per-level energy split and balance residual.

    stored = kinetic + elastic + memory.  The residual compares the
    centered time derivative of stored against forcing_power +
    rate_modulus + rate_curvature and is defined on interior levels
    1 .. n-1 (length n_levels - 2).
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
    traj: TrajectorySolution,
    kernel: RelaxationKernel,
    eps: float,
    forcing=None,
) -> EnergyLedger:
    """Assemble the energy balance for a trajectory of the shifted problem.

    All modulus evaluations use the shifted kernel G(eps + .); eps = 0 is
    accepted only for a modulus bounded at 0.

    The memory and curvature columns weigh phi_j(i) = |grad(u_j - u_{j-i})|^2
    over every lag i of every level j.  Every squared gradient is read off
    the sine coefficients as |sqrt(mu) (u_j - u_{j-i})|^2 (grid.py).  A
    Prony modulus gets the columns from a recursion, linear in J
    (_prony_history_sums).  A power-law or summed modulus has no geometric
    weights, so it takes one pass per lag, O(J^2 N) (_lag_pass_sums).  A
    modulus with dG = 0, such as a Prony kernel without terms, has no memory
    and takes neither.
    """
    if eps == 0.0 and kernel.singular_at_zero:
        raise HypothesisError("eps = 0 with a modulus unbounded at 0")
    kk = translate(kernel, eps)

    grid, dt = traj.grid, traj.dt
    J = traj.n_levels - 1
    vol = grid.cell_volume
    times = traj.times

    g_now = kk.modulus(times)
    gdot_now = kk.modulus_dt(times)

    profile = None if forcing is None else sine_transform(grid, forcing.profile(grid)).ravel()
    grad_sq, kinetic, forcing_power = _level_sums(traj, profile)
    grad_sq *= vol
    kinetic *= 0.5 * vol
    if forcing is not None:
        forcing_power *= vol * forcing.factor(times)
    elastic = 0.5 * g_now * grad_sq
    rate_modulus = 0.5 * gdot_now * grad_sq

    memory = np.zeros(J + 1)
    rate_curvature = np.zeros(J + 1)
    # a modulus with dG = 0 has no memory: its weights would be round-off
    if np.any(gdot_now):
        # weights of w = dG (memory) and w = d2G (curvature)
        histories = [HistoryConvolution.of(kk, order, J, dt) for order in (1, 2)]
        if histories[0].backend == "exponential":
            sums = _prony_history_sums(traj, [h.terms for h in histories])
        else:
            scaled = traj.coefficients.reshape(J + 1, -1) * np.sqrt(grid.eigenvalues).ravel()
            sums = _lag_pass_sums(scaled, vol, histories)
        memory, rate_curvature = -0.5 * sums

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


def _level_sums(traj: TrajectorySolution, profile: np.ndarray | None = None):
    """Per-level |e_j|^2, |v_j|^2 and v_j . profile (zeros without a profile),
    e_j the edge differences and v_j the velocities of level j, unscaled by
    the cell volume; profile holds sine coefficients.

    All three are read off the sine coefficients by Parseval, the DST-I
    being orthonormal: |e_j|^2 = sum mu u_hat_j^2, |v_j|^2 = sum v_hat_j^2
    and v_j . p = v_hat_j . p_hat.  They are taken a block of levels at a
    time, so no (J+1, N) stack is held.
    """
    n_levels = traj.n_levels
    root_mu = np.sqrt(traj.grid.eigenvalues).ravel()
    grad_sq = np.empty(n_levels)
    vel_sq = np.empty(n_levels)
    power = np.zeros(n_levels)
    for start, stop in level_blocks(traj, 2):
        e = traj.coefficients[start:stop].reshape(stop - start, -1) * root_mu
        v = traj.velocity_coefficients(start=start, stop=stop).reshape(stop - start, -1)
        if profile is not None:
            power[start:stop] = v @ profile
        grad_sq[start:stop] = np.einsum("ij,ij->i", e, e)
        vel_sq[start:stop] = np.einsum("ij,ij->i", v, v)
    return grad_sq, vel_sq, power


def _lag_pass_sums(edges: np.ndarray, vol: float, histories) -> np.ndarray:
    """sum_i W_j(i) phi_j(i) at every level j, one row per history, with
    phi_j(i) = vol |e_j - e_{j-i}|^2: e_j is sqrt(mu) times the sine
    coefficients of level j, or equally its edge differences.

    Level j weighs lag i by lags[i] for i < j and by the oldest-lag weight
    oldest[j - 1] at i = j, so one pass per lag serves all j: O(J^2 N).
    """
    J = len(edges) - 1
    out = np.zeros((len(histories), J + 1))
    for i in range(1, J + 1):
        # phi_j(i) for j = i .. J at once
        d = edges[i:] - edges[:-i]
        phi = vol * np.einsum("ij,ij->i", d, d)
        for row, history in zip(out, histories):
            row[i] += history.oldest[i - 1] * phi[0]
            row[i + 1 :] += history.lags[i] * phi[1:]
    return out


def _prony_history_sums(traj: TrajectorySolution, weights) -> np.ndarray:
    """_lag_pass_sums of traj for a Prony modulus, one row per weight set in
    weights, each the (r, left[0], right[0]) per term of exponential_terms.

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
    one level at a time, one (terms, N) state; Q is a scalar filter of the
    inflows.  e_j = sqrt(mu) u_hat_j is formed a block of levels at a time
    from the sine coefficients, plus e_0, so no second stack is held:
    O(terms J N) flops in O(J) Python steps.
    """
    J = traj.n_levels - 1
    vol = traj.grid.cell_volume
    coefficients = traj.coefficients.reshape(J + 1, -1)
    root_mu = np.sqrt(traj.grid.eigenvalues).ravel()
    rs = np.array([r for r, _, _ in weights[0]])
    r_column = rs[:, None]
    decay = r_column ** np.arange(J + 1)
    s = np.cumsum(decay[:, :J], axis=1)
    s_columns = s.T[:, :, None]
    state = np.zeros((rs.size, coefficients.shape[1]))  # S_j
    cross = np.empty((J, rs.size))  # delta_j . S_j
    delta_sq = np.empty(J)  # |delta_j|^2
    oldest = np.zeros(J + 1)  # vol |e_j - e_0|^2
    first = coefficients[0] * root_mu
    for start, stop in level_blocks(traj, 2):
        # e_{j0} .. e_{stop - 1} and delta_{j0} .. delta_{stop - 2}, j0 the
        # level before the block, so every delta falls in one block
        j0 = max(start - 1, 0)
        edges = coefficients[j0:stop] * root_mu
        delta = edges[1:] - edges[:-1]
        steps = slice(j0, stop - 1)
        delta_sq[steps] = np.einsum("ke,ke->k", delta, delta)
        for d, s_j, cross_j in zip(delta, s_columns[steps], cross[steps]):
            np.matmul(state, d, out=cross_j)
            state += s_j * d
            state *= r_column
        d = np.subtract(edges[1:], first, out=edges[1:])
        oldest[j0 + 1 : stop] = vol * np.einsum("ke,ke->k", d, d)

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


@dataclass(frozen=True)
class DecayReport:
    passed: bool
    tolerance: float
    max_increase: float
    first_violation: int | None


def check_energy_decay(ledger: EnergyLedger, tol: float) -> DecayReport:
    """Unforced runs must not gain stored energy beyond the drift tolerance."""
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
    """Drift tolerance from a memory-free twin run at matched wave speed.

    Replaces the kernel by the constant G(eps): same grid, dt, and data, so
    the twin's worst per-step energy increase measures the pure
    discretization drift at this resolution.  Scales like dt^2 + h^2.
    """
    g = spec.kernel.modulus(spec.eps)
    traj = run(replace(spec, kernel=PronyKernel(g, ()), eps=1.0))
    # the twin has no memory, so its stored energy is kinetic + elastic,
    # formed as energy_ledger forms them
    grad_sq, vel_sq, _ = _level_sums(traj)
    vol = traj.grid.cell_volume
    stored = 0.5 * vol * vel_sq + 0.5 * g * (vol * grad_sq)
    drift = max(float(np.max(np.diff(stored))), 0.0)
    floor = 1e-13 * max(float(stored[0]), 1.0)
    return safety * drift + floor


# ---------------------------------------------------------------------------
# a-priori energy bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """gamma e^T C bound versus the discrete gradient + velocity energy."""

    passed: bool
    gamma: float
    data_constant: float
    bound: float
    lhs: np.ndarray
    max_ratio: float


def check_energy_bound(
    traj: TrajectorySolution,
    kernel: RelaxationKernel,
    eps: float,
    u1: Field,
    forcing=None,
) -> BoundReport:
    """Check  0.5 |grad u|^2 + 0.5 |u_t|^2 <= gamma e^T C  at every level.

    gamma = max(1 / G(T + 1), 1) uses the unshifted modulus; requires
    eps <= 1 so the shifted modulus dominates G(T + 1) on the window, and
    G(T + 1) > 0, which a Prony modulus can underflow.
    C = 0.5 |f|^2 (space-time) + 0.5 |u1|^2 (space) covers no initial
    displacement, so a run that starts displaced is refused.
    """
    if np.any(traj.coefficients[0]):
        raise HypothesisError("nonzero initial displacement")
    if eps > 1.0:
        raise HypothesisError(f"bound requires eps <= 1, got {eps}")
    grid, dt = traj.grid, traj.dt
    T = float(traj.times[-1])
    g_end = kernel.modulus(T + 1.0)
    if not g_end > 0:
        raise HypothesisError(f"bound requires G(T + 1) > 0, got {g_end!r}")
    gamma = max(1.0 / g_end, 1.0)

    # f = profile * factor: |f|^2 = |profile|^2 int factor^2
    f_spacetime_sq = 0.0
    if forcing is not None:
        profile = forcing.profile(grid)
        factor = forcing.factor(traj.times)
        f_spacetime_sq = inner_space(grid, profile, profile) * float(
            np.dot(trapezoid_weights(traj.n_levels, dt), factor * factor)
        )
    c_data = 0.5 * f_spacetime_sq + 0.5 * l2_space(grid, u1) ** 2
    bound = gamma * math.exp(T) * c_data

    grad_sq, vel_sq, _ = _level_sums(traj)
    lhs = 0.5 * grid.cell_volume * grad_sq + 0.5 * grid.cell_volume * vel_sq
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
        if not all(isinstance(m, int) and m >= 1 for m in self.modes):
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


@dataclass(frozen=True)
class WeakResidualEntry:
    name: str
    direct: float  # memory term tested with the discrete laplacian of u
    moved: float  # memory term moved onto the test function


def weak_residual(
    traj: TrajectorySolution,
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
    from the stencil by that amount.
    """
    grid, dt = traj.grid, traj.dt
    J = traj.n_levels - 1
    history = HistoryConvolution.of(translate(kernel, eps), -1, J, dt)
    if forcing is not None:
        # F2 = c2 * profile, c2 the time factor integrated twice
        c2 = double_trapezoid(forcing.factor(traj.times), dt)
        profile = forcing.profile(grid).ravel()

    vol = grid.cell_volume
    out = []
    columns = battery_columns(grid, traj.coefficients)
    for v, vx, a, y, projected in battery_projections(grid, traj.times, columns, history):
        ramp = traj.times * (u1.values.ravel() @ vx) + u0.values.ravel() @ vx
        if forcing is not None:
            ramp += c2 * (profile @ vx)
        rest = float(a @ (projected - ramp))
        # vx is a sine mode, which the stencil scales by -mu, so
        # (lap_h u) . vx = u . lap_h vx = -mu_m u . vx
        mu_m = grid.eigenvalues[tuple(m - 1 for m in v.modes)]
        direct = vol * (rest + mu_m * float(y @ projected))
        moved = vol * (rest - v.laplace_factor(grid) * float(y @ projected))
        out.append(WeakResidualEntry(name=v.name, direct=direct, moved=moved))
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
    """(v, vx, a, y, projected) for each test function v of the default
    battery: vx its space values, flat; a = w v(t) its time profile with
    the trapezoid weights; y = history.adjoint(a), one transposed history
    sum per time profile; projected = the levels at times projected on vx,
    from their battery_columns, (n_levels, modes).

    Every tested term is linear in u, so projecting the levels first leaves
    only scalar convolutions.  vx is the product of sine modes m, which is
    prod_axes sqrt((n + 1) / 2) times the orthonormal DST-I mode, so a
    level's projection on it is that multiple of its coefficient u_hat_m.
    """
    horizon = float(times[-1])
    scale = math.prod(math.sqrt((n + 1) / 2) for n in grid.n)
    wt = trapezoid_weights(times.size, float(times[1] - times[0]))
    index = {modes: i for i, modes in enumerate(battery_modes(grid))}
    adjoints = {}
    for v in default_battery(grid):
        vx = v.space_values(grid).ravel()
        a = wt * v.time_values(times, horizon)
        if v.time_profile not in adjoints:
            adjoints[v.time_profile] = history.adjoint(a)
        yield v, vx, a, adjoints[v.time_profile], scale * columns[:, index[v.modes]]
