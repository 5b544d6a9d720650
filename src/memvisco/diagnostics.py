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

import numpy as np

from memvisco.grid import (
    Field,
    Grid,
    dirichlet_edge_differences,
    double_trapezoid,
    inner_space,
    l2_space,
    laplacian_array,
    trapezoid_weights,
)
from memvisco.kernels import PronyKernel, RelaxationKernel, translate
from memvisco.solver import (
    HistoryConvolution,
    ProblemSpec,
    TrajectorySolution,
    interval_weights,
    run,
)

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
    "WeakResidualEntry",
    "weak_residual",
]


class HypothesisError(ValueError):
    """A diagnostic was asked of a run that does not meet its hypothesis."""


# ---------------------------------------------------------------------------
# energy ledger
# ---------------------------------------------------------------------------


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
    """
    if eps == 0.0 and kernel.singular_at_zero:
        raise HypothesisError("eps = 0 with a modulus unbounded at 0")
    kk = translate(kernel, eps)

    grid, dt = traj.grid, traj.dt
    J = traj.n_levels - 1
    vol = grid.cell_volume
    v = traj.velocities().reshape(J + 1, -1)
    times = traj.times

    g_now = kk.modulus(times)
    gdot_now = kk.modulus_dt(times)
    hist_m = HistoryConvolution(*interval_weights(kk._modulus, kk._integral, J, dt))
    hist_c = HistoryConvolution(*interval_weights(kk._modulus_dt, kk._modulus, J, dt))

    edges = dirichlet_edge_differences(grid, traj.levels)
    grad_sq = vol * np.sum(edges * edges, axis=1)
    kinetic = 0.5 * vol * np.sum(v * v, axis=1)
    elastic = 0.5 * g_now * grad_sq
    rate_modulus = 0.5 * gdot_now * grad_sq

    memory = np.zeros(J + 1)
    rate_curvature = np.zeros(J + 1)
    # a modulus with dG = 0 has no memory: its weights would be round-off
    if np.any(gdot_now):
        # Level j weighs lag i by lags[i] for i < j and by the oldest-lag
        # weight oldest[j - 1] at i = j, so one pass per lag serves all j.
        for i in range(1, J + 1):
            # phi_j(i) = |grad(u(t_j) - u(t_j - s_i))|^2 for j = i .. J at once
            d = edges[i:] - edges[:-i]
            phi = vol * np.einsum("ij,ij->i", d, d)
            memory[i] += hist_m.oldest[i - 1] * phi[0]
            rate_curvature[i] += hist_c.oldest[i - 1] * phi[0]
            memory[i + 1 :] += hist_m.lags[i] * phi[1:]
            rate_curvature[i + 1 :] += hist_c.lags[i] * phi[1:]
        memory *= -0.5
        rate_curvature *= -0.5

    if forcing is None:
        forcing_power = np.zeros(J + 1)
    else:
        forcing_power = vol * forcing.factor(times) * (v @ forcing.profile(grid).ravel())

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
    twin = replace(spec, kernel=PronyKernel(spec.kernel.modulus(spec.eps), ()), eps=1.0)
    ledger = energy_ledger(run(twin), twin.kernel, twin.eps, twin.forcing)
    drift = max(float(np.max(np.diff(ledger.stored))), 0.0)
    floor = 1e-13 * max(float(ledger.stored[0]), 1.0)
    return safety * drift + floor


# ---------------------------------------------------------------------------
# a-priori energy bound
# ---------------------------------------------------------------------------


# cap on the transient edge-difference buffer of check_energy_bound
_EDGE_BLOCK_BYTES = 8 * 2**20


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
    eps <= 1 so the shifted modulus dominates G(T + 1) on the window.
    C = 0.5 |f|^2 (space-time) + 0.5 |u1|^2 (space).  Holds for zero
    initial displacement.
    """
    if eps > 1.0:
        raise HypothesisError(f"bound requires eps <= 1, got {eps}")
    grid, dt = traj.grid, traj.dt
    T = float(traj.times[-1])
    gamma = max(1.0 / kernel.modulus(T + 1.0), 1.0)

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

    vol = grid.cell_volume
    # edge differences and velocities of a block of levels at a time, at
    # most _EDGE_BLOCK_BYTES of edges, so a large grid needs neither a full
    # edge stack nor a full velocity stack
    n_edges = sum(grid.n_total // n * (n + 1) for n in grid.n)
    block = max(1, _EDGE_BLOCK_BYTES // (8 * n_edges))
    grad_sq = np.empty(traj.n_levels)
    kinetic = np.empty(traj.n_levels)
    for start in range(0, traj.n_levels, block):
        stop = start + block
        edges = dirichlet_edge_differences(grid, traj.levels[start:stop])
        grad_sq[start:stop] = np.einsum("ij,ij->i", edges, edges)
        v = traj.velocities(start=start, stop=stop).reshape(len(edges), -1)
        kinetic[start:stop] = 0.5 * vol * np.einsum("ij,ij->i", v, v)
    lhs = 0.5 * vol * grad_sq + kinetic
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
        out = np.ones(grid.shape)
        for m, x, L in zip(self.modes, grid.mesh(), grid.extent):
            out = out * np.sin(m * np.pi * x / L)
        return out

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
    horizon = float(traj.times[-1])
    battery = default_battery(grid)
    kk = translate(kernel, eps)
    history = HistoryConvolution(*interval_weights(kk._integral2, kk._integral3, J, dt))

    # Every term is linear in u, so project the levels on each test
    # function first and convolve scalars: y = W^T (wt vt) once per time
    # profile.  The stencil is symmetric with Dirichlet faces, so
    # vx . lap_h u = (lap_h vx) . u and no level needs a Laplacian.
    flat = traj.levels.reshape(J + 1, -1)
    space = [v.space_values(grid).ravel() for v in battery]
    if forcing is not None:
        # F2 = c2 * profile, c2 the time factor integrated twice
        c2 = double_trapezoid(forcing.factor(traj.times), dt)
        profile = forcing.profile(grid).ravel()

    wt = trapezoid_weights(J + 1, dt)
    vol = grid.cell_volume
    tested = {}
    out = []
    for v, vx in zip(battery, space):
        a = wt * v.time_values(traj.times, horizon)
        key = a.tobytes()
        if key not in tested:
            tested[key] = history.adjoint(a)
        y = tested[key]
        projected = flat @ vx
        ramp = traj.times * (u1.values.ravel() @ vx) + u0.values.ravel() @ vx
        if forcing is not None:
            ramp += c2 * (profile @ vx)
        rest = float(a @ (projected - ramp))
        lap_vx = laplacian_array(grid, vx.reshape(grid.shape)).ravel()
        direct = vol * (rest - float(y @ (flat @ lap_vx)))
        moved = vol * (rest - v.laplace_factor(grid) * float(y @ projected))
        out.append(WeakResidualEntry(name=v.name, direct=direct, moved=moved))
    return out
