"""Shared test utilities: oracles, random generators, validation bypasses."""

from __future__ import annotations

import contextlib
import math
import subprocess
import sys
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np

import memvisco.solver as solver_module
from memvisco.convergence import ConvergenceReport, LemmaCheckEntry, ShiftSequence
from memvisco.diagnostics import (
    EnergyLedger,
    SingleRun,
    WeakResidualEntry,
    battery_columns,
    battery_projections,
    default_battery,
    energy_ledger,
)
from memvisco.expressions import Forcing, field_from_name
from memvisco.grid import (
    Field,
    Grid,
    inner_space,
    l2_space,
    level_squares,
    sine_transform,
    trapezoid_weights,
)
from memvisco.kernels import (
    KernelSum,
    PowerLawKernel,
    PronyKernel,
    RelaxationKernel,
    kernel_diff_bound,
    translate,
)
from memvisco.solver import (
    HistoryConvolution,
    ProblemSpec,
    SolverAbort,
    TrajectorySolution,
    cfl_time_step,
    interval_weights,
    march,
    run,
    run_block,
    velocity_estimates,
)


# prints what the first of names that the OpenBLAS `import module` loads
# exports returns, called with no arguments as a ctypes restype, or "none"
# where no OpenBLAS is loaded or it exports none of names; the library is
# found in the process's own memory map, so run in a process of its own,
# where no other OpenBLAS (scipy's) is loaded
_OPENBLAS_CALL = """\
import ctypes, {module}
try:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        lib = ctypes.CDLL(next(line.split()[-1] for line in fh if "openblas" in line))
except (OSError, StopIteration):
    lib = None
fn = next((getattr(lib, name) for name in {names!r} if hasattr(lib, name)), None)
if fn is None:
    print("none")
else:
    fn.restype, fn.argtypes = ctypes.{restype}, []
    answer = fn()
    print(answer.decode() if isinstance(answer, bytes) else answer)
"""


def openblas_call(names, restype: str, module: str = "numpy", env=None) -> str | None:
    """The text of what the first of names, a function of no arguments of
    the OpenBLAS that `import module` loads, returns as ctypes.<restype>,
    asked in a child process with env; None where no OpenBLAS is loaded or
    it exports none of names."""
    script = _OPENBLAS_CALL.format(module=module, names=tuple(names), restype=restype)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    answer = proc.stdout.strip()
    return None if answer == "none" else answer


def direct_sums():
    """The Volterra march with every fit refused: its far sums go direct."""
    return mock.patch.object(solver_module, "_TAIL_TOLERANCE", 0.0)


@contextlib.contextmanager
def small_march_blocks(rows):
    """Both marchers' far sums in blocks of `rows` rows, summed directly: a
    tail fit from (rows - 1) dt on checks only to _TAIL_TOLERANCE."""
    with mock.patch.object(solver_module, "_MARCH_ROWS", rows), direct_sums():
        yield


# Populated by the acceptance tests, printed in the terminal summary.
ACCEPTANCE_LINES: list[str] = []


def record(num: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    line = f"criterion {num:02d} {name}: {verdict} ({detail})"
    ACCEPTANCE_LINES.append(line)
    assert passed, line


def unchecked_prony(g_inf: float, terms) -> PronyKernel:
    """Build a Prony kernel without invariant checks (negative controls)."""
    kernel = object.__new__(PronyKernel)
    object.__setattr__(kernel, "g_inf", float(g_inf))
    object.__setattr__(kernel, "terms", tuple((float(g), float(t)) for g, t in terms))
    return kernel


def random_prony(rng: np.random.Generator) -> PronyKernel:
    n_terms = int(rng.integers(1, 4))
    terms = tuple(
        (float(rng.uniform(0.05, 0.8)), float(rng.uniform(0.2, 3.0)))
        for _ in range(n_terms)
    )
    return PronyKernel(g_inf=float(rng.uniform(0.05, 1.0)), terms=terms)


def random_kernel(rng: np.random.Generator):
    """Admissible kernel from any family, weighted toward memory kernels."""
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return PronyKernel(float(rng.uniform(0.3, 2.0)), ())
    if kind == 1:
        return random_prony(rng)
    if kind == 2:
        return PowerLawKernel(
            c=float(rng.uniform(0.3, 1.5)), alpha=float(rng.uniform(0.15, 0.85))
        )
    return KernelSum(
        (
            PronyKernel(
                g_inf=float(rng.uniform(0.05, 0.5)),
                terms=((float(rng.uniform(0.1, 0.5)), float(rng.uniform(0.5, 2.0))),),
            ),
            PowerLawKernel(
                c=float(rng.uniform(0.2, 0.8)), alpha=float(rng.uniform(0.2, 0.8))
            ),
        )
    )


def prony_history_moment(kernel: PronyKernel, eps: float, t) -> np.ndarray:
    """Closed form of int_0^t d/dxi[G](eps+s) * (1+(t-s)^2) ds."""
    t = np.asarray(t, dtype=float)
    total = np.zeros_like(t)
    for g, tau in kernel.terms:
        a = 1.0 / tau
        head = -np.expm1(-a * t) / a
        tail = t**2 / a - 2 * t / a**2 + 2 / a**3 - 2 * np.exp(-a * t) / a**3
        total += -g * a * np.exp(-eps * a) * (head + tail)
    return total


class SeparableForcing:
    """Test double of Forcing: space(grid) times time(t), both callables."""

    def __init__(self, name: str, space, time):
        self.name = name
        self.params = ()
        self.space = space
        self.time = time

    def profile(self, grid: Grid) -> np.ndarray:
        return np.asarray(self.space(grid), dtype=float)

    def factor(self, times) -> np.ndarray:
        return np.asarray(self.time(np.asarray(times, dtype=float)), dtype=float)


def forcing_at(forcing, grid: Grid, t: float) -> np.ndarray:
    """The forcing field at time t, a zero field without forcing."""
    return np.zeros(grid.shape) if forcing is None else forcing.profile(grid) * forcing.factor(t)


def manufactured_forcing(kernel: PronyKernel, eps: float) -> SeparableForcing:
    """Forcing that makes sin(pi x)(1+t^2) the exact solution in 1D."""
    g_eps = kernel.modulus(eps)
    return SeparableForcing(
        "manufactured",
        lambda grid: np.sin(np.pi * grid.axis_coordinates(0)),
        lambda t: 2.0 + np.pi**2 * (g_eps * (1 + t * t) + prony_history_moment(kernel, eps, t)),
    )


def manufactured_exact(grid: Grid, times: np.ndarray) -> np.ndarray:
    x = grid.axis_coordinates(0)
    return np.sin(np.pi * x)[None, :] * (1.0 + times**2)[:, None]


def l2q_error(grid: Grid, levels: np.ndarray, exact: np.ndarray, dt: float) -> float:
    diff = levels - exact
    per_level = np.sum(diff.reshape(len(levels), -1) ** 2, axis=1) * grid.cell_volume
    weights = trapezoid_weights(len(levels), dt)
    return float(np.sqrt(np.sum(weights * per_level)))


def unchecked_spec(**fields) -> ProblemSpec:
    """ProblemSpec without validation, for exercising solver abort paths."""
    spec = object.__new__(ProblemSpec)
    defaults = {
        "forcing": None,
        "formulation": "integrodifferential",
    }
    for key, value in {**defaults, **fields}.items():
        object.__setattr__(spec, key, value)
    return spec


def history_row(history: HistoryConvolution, j: int) -> np.ndarray:
    """Level weights of row j >= 1 of history, indexed by level m = 0 .. j,
    read from the weights its sums use: oldest[j - 1] and the weight block
    of the levels 1 .. j; one row per shift."""
    oldest = np.atleast_2d(history.oldest)[:, j - 1 : j] + 0.0
    w = np.concatenate([oldest, history._block(j, j + 1, 1, j + 1)[:, 0]], axis=1)
    return w if history.lags.ndim > 1 else w[0]


def correlate_adjoint(history: HistoryConvolution, a) -> np.ndarray:
    """Oracle for HistoryConvolution.adjoint of one weight set and one time
    profile a, (n + 1,): y[m] = sum_j a[j] w_j[m], level 0 from oldest and
    the levels above it from one correlation of a against lags."""
    a = np.asarray(a, dtype=float)
    n = a.size - 1
    y = np.empty(n + 1)
    y[0] = a[1:] @ history.oldest[:n]
    y[1:] = np.correlate(a[1:], history.lags[:n], "full")[n - 1 : 2 * n - 1]
    return y


def conv_weights(left, right, j: int) -> np.ndarray:
    """Oracle for history_row: level weights for
    int_0^{t_j} w(s) p(t_j - s) ds, indexed by level m."""
    w = np.zeros(j + 1)
    if j:
        w[1:] += left[:j][::-1]
        w[:j] += right[:j][::-1]
    return w


def direct_weights(left, right, j: int) -> np.ndarray:
    """Sample weights for  int_0^{t_j} w(s) p(s) ds,  indexed by sample i."""
    w = np.zeros(j + 1)
    if j:
        w[:j] += left[:j]
        w[1:] += right[:j]
    return w


def geometric_history(terms, n: int) -> HistoryConvolution:
    """The lag table of a Prony modulus's closed-form weights over n
    intervals: left[d] = sum of r^d left[0] and right[d] = sum of r^d
    right[0] over the (r, left[0], right[0]) of solver.exponential_terms."""
    lag = np.arange(n)
    left, right = np.zeros(n), np.zeros(n)
    for r, left0, right0 in terms:
        left += left0 * r**lag
        right += right0 * r**lag
    return HistoryConvolution(left, right)


def row_wise_csv(header, rows) -> str:
    """Oracle for runner._write_csv: the CSV text formatted one value at a
    time, None empty, ints as str, strings as they are, any other value as
    repr(float(value))."""

    def field(value) -> str:
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return repr(float(value))

    lines = [",".join(header)] + [",".join(field(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def cumulative_trapezoid(levels: np.ndarray, dt: float) -> np.ndarray:
    """Running trapezoid integral along the first axis, 0 at level 0."""
    out = np.zeros_like(levels)
    np.cumsum(0.5 * dt * (levels[1:] + levels[:-1]), axis=0, out=out[1:])
    return out


def integrated_forcing(forcing, grid: Grid, times: np.ndarray, dt: float) -> np.ndarray:
    """int_0^t int_0^s f at every level as a (levels, N) stack, from a
    forcing field per level."""
    f = np.stack([forcing_at(forcing, grid, t).ravel() for t in times])
    return cumulative_trapezoid(cumulative_trapezoid(f, dt), dt)


def laplacian_array(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Second-order central Laplacian with implicit zero boundary: the
    nodal stencil oracle for the sine modes' -mu.

    values is one field of shape grid.shape or a stack (..., *grid.shape);
    the stencil acts on the trailing grid axes.  Each axis contributes
    (u[i-1] + u[i+1] - 2u) / h^2 with u = 0 outside the box, and the
    contributions are summed axis by axis starting from 0.0, so a stack
    gives bit for bit the per-field results.
    """
    twice = 2.0 * values
    term = np.empty_like(twice)
    for axis, h in enumerate(grid.spacing):
        rest = (slice(None),) * (grid.dim - 1 - axis)

        def at(index):
            return (..., index) + rest

        np.add(values[at(slice(None, -2))], values[at(slice(2, None))], out=term[at(slice(1, -1))])
        # at the faces the outside neighbour is 0.0
        term[at(0)] = values[at(1)]
        term[at(-1)] = values[at(-2)]
        term -= twice
        term /= h * h
        if axis == 0:
            out = term + 0.0
        else:
            out += term
    return out


def dirichlet_edge_differences(grid: Grid, levels: np.ndarray) -> np.ndarray:
    """Edge differences (u_b - u_a) / h of a level stack, with u = 0 outside.

    levels has shape (m, *grid.shape); the result has shape (m, n_edges),
    the edges of each axis in turn, so  cell_volume * sum(E[j] ** 2)  is
    the squared gradient norm of level j.
    """
    levels = np.asarray(levels, dtype=float)
    sizes = [grid.n_total // n * (n + 1) for n in grid.n]
    out = np.empty((levels.shape[0], sum(sizes)))
    start = 0
    for axis, (h, size) in enumerate(zip(grid.spacing, sizes), start=1):
        edge_shape = list(levels.shape)
        edge_shape[axis] += 1
        # views with the differenced axis second: (m, edges along axis, ...)
        block = np.moveaxis(out[:, start : start + size].reshape(edge_shape), axis, 1)
        u = np.moveaxis(levels, axis, 1)
        start += size
        np.subtract(u[:, 1:], u[:, :-1], out=block[:, 1:-1])
        block[:, 0] = u[:, 0]
        np.negative(u[:, -1], out=block[:, -1])
        block /= h
    return out


def dirichlet_gradient_sq(grid: Grid, values: np.ndarray) -> float:
    """Edge-based squared gradient norm, int |grad u|^2 with u = 0 outside.

    Adjoint to the Laplacian stencil: equals <-lap(u), u> * cell_volume
    exactly, which is what the energy bookkeeping relies on.
    """
    d = dirichlet_edge_differences(grid, np.asarray(values)[None])[0]
    return float(np.sum(np.square(d, out=d))) * grid.cell_volume


def reference_energy_ledger(
    traj: TrajectorySolution, kernel, eps: float, forcing=None
) -> EnergyLedger:
    """Per-pair loop oracle for energy_ledger: one gradient per (level, lag)."""
    if eps == 0.0 and kernel.singular_at_zero:
        raise ValueError("eps = 0 with a modulus unbounded at 0")
    kk = translate(kernel, eps)

    grid, dt = traj.grid, traj.dt
    J = traj.n_levels - 1
    u = nodal_levels(traj)
    v = nodal_velocities(traj)
    times = traj.times

    g_now = kk.modulus(times)
    gdot_now = kk.modulus_dt(times)
    left_m, right_m = interval_weights(partial(kk._tower, 0), partial(kk._tower, -1), J, dt)
    left_c, right_c = interval_weights(partial(kk._tower, 1), partial(kk._tower, 0), J, dt)

    grad_sq = np.array([dirichlet_gradient_sq(grid, u[j]) for j in range(J + 1)])
    kinetic = np.array([0.5 * l2_space(grid, v[j]) ** 2 for j in range(J + 1)])
    elastic = 0.5 * g_now * grad_sq
    rate_modulus = 0.5 * gdot_now * grad_sq

    memory = np.zeros(J + 1)
    rate_curvature = np.zeros(J + 1)
    # dG = 0: no memory, where the weights would be round-off
    if np.any(gdot_now):
        for j in range(1, J + 1):
            phi = np.empty(j + 1)
            phi[0] = 0.0
            for i in range(1, j + 1):
                phi[i] = dirichlet_gradient_sq(grid, u[j] - u[j - i])
            memory[j] = -0.5 * float(direct_weights(left_m, right_m, j) @ phi)
            rate_curvature[j] = -0.5 * float(direct_weights(left_c, right_c, j) @ phi)

    forcing_power = np.array(
        [
            inner_space(grid, forcing_at(forcing, grid, times[j]), v[j])
            for j in range(J + 1)
        ]
    )
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


def reference_decay_tolerance(spec: ProblemSpec, safety: float = 5.0) -> tuple[float, float]:
    """(tolerance, floor) of calibrate_decay_tolerance read off a whole
    energy ledger of the memory-free twin, marched in spec's own
    formulation: the oracle of the closed form, which must match its
    tolerance within safety * floor, the round-off floor."""
    twin = replace(spec, kernel=PronyKernel(spec.kernel.modulus(spec.eps), ()), eps=1.0)
    ledger = energy_ledger(run(twin), twin.kernel, twin.eps, twin.forcing)
    drift = max(float(np.max(np.diff(ledger.stored))), 0.0)
    floor = 1e-13 * max(float(ledger.stored[0]), 1.0)
    return safety * drift + floor, floor


def reference_laplacian(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Zero-padded oracle for laplacian_array on one field."""
    padded = np.pad(values, 1)
    core = (slice(1, -1),) * grid.dim
    out = np.zeros_like(values)
    for axis, h in enumerate(grid.spacing):
        lo = list(core)
        hi = list(core)
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        out += (padded[tuple(lo)] + padded[tuple(hi)] - 2.0 * values) / (h * h)
    return out


def reference_velocities(levels: np.ndarray, dt: float) -> np.ndarray:
    """Whole-stack oracle for TrajectorySolution.velocities."""
    u = levels
    v = np.empty_like(u)
    v[1:-1] = (u[2:] - u[:-2]) / (2 * dt)
    v[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * dt)
    v[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * dt)
    return v


def reference_integrodiff(spec: ProblemSpec) -> np.ndarray:
    """Level stack of a leapfrog run, one conv_weights vector per step."""
    grid, dt, J = spec.grid, spec.dt, spec.n_steps
    shifted = translate(spec.kernel, spec.eps)
    g0 = shifted.modulus(0.0)
    left, right = interval_weights(partial(shifted._tower, 0), partial(shifted._tower, -1), J, dt)

    shape = grid.shape
    levels = np.empty((J + 1,) + shape)
    lap_flat = np.empty((J + 1, grid.n_total))
    f_now = forcing_at(spec.forcing, grid, 0.0)
    levels[0] = spec.u0.values
    lap_flat[0] = reference_laplacian(grid, levels[0]).ravel()
    levels[1] = (
        levels[0]
        + dt * spec.u1.values
        + 0.5 * dt * dt * (g0 * lap_flat[0].reshape(shape) + f_now)
    )
    for j in range(1, J):
        lap_flat[j] = reference_laplacian(grid, levels[j]).ravel()
        w = conv_weights(left, right, j)
        memory = (w @ lap_flat[: j + 1]).reshape(shape)
        f_now = forcing_at(spec.forcing, grid, j * dt)
        levels[j + 1] = (
            2.0 * levels[j]
            - levels[j - 1]
            + dt * dt * (g0 * lap_flat[j].reshape(shape) + memory + f_now)
        )
    return levels


def reference_volterra(spec: ProblemSpec) -> np.ndarray:
    """Level stack of a one-shift Volterra run on the nodes, one conv_weights
    vector per step: step j solves (I - lags[0] lap) u_j = drive densely,
    with no sine transform, and stops where a level is not finite."""
    grid, dt, J = spec.grid, spec.dt, spec.n_steps
    kk = translate(spec.kernel, spec.eps)
    left, right = interval_weights(partial(kk._tower, -2), partial(kk._tower, -3), J, dt)

    shape = grid.shape
    identity = np.eye(grid.n_total)
    lap_matrix = np.stack(
        [reference_laplacian(grid, column.reshape(shape)).ravel() for column in identity], axis=1
    )
    levels = np.empty((J + 1,) + shape)
    lap_flat = np.empty((J + 1, grid.n_total))
    f_double = integrated_forcing(spec.forcing, grid, spec.times, dt)
    levels[0] = spec.u0.values
    lap_flat[0] = lap_matrix @ levels[0].ravel()
    for j in range(1, J + 1):
        w = conv_weights(left, right, j)
        drive = (
            w[:j] @ lap_flat[:j]
            + (spec.u1.values * (j * dt) + spec.u0.values).ravel()
            + f_double[j]
        )
        with np.errstate(invalid="ignore"):
            levels[j] = np.linalg.solve(identity - w[j] * lap_matrix, drive).reshape(shape)
        if not np.all(np.isfinite(levels[j])):
            raise SolverAbort(j, "non-finite values")
        lap_flat[j] = lap_matrix @ levels[j].ravel()
    return levels


def exact_unshifted_mode(kernel: PowerLawKernel, mu: float, u0: float, u1: float, times) -> np.ndarray:
    """The exact sine coefficient at times of a mode, scaled by -mu by the
    stencil, of the unshifted power-law problem G = c t^(-alpha):
    u'' + mu d/dt int_0^t G(t - s) u(s) ds = 0, u(0) = u0, u'(0) = u1.

    Its Laplace transform is F(s) = (s u0 + u1) / (s^2 + lam s^alpha),
    lam = mu c Gamma(1 - alpha).  u(t) is the residues of e^(st) F(s) at
    the two poles s^(2 - alpha) = -lam, arg s = +-pi / (2 - alpha), plus
    the branch cut -(1/pi) int_0^inf e^(-rt) Im F(r e^(i pi)) dr.  The cut
    integrand grows as r^(-alpha) at 0; with r = x^(1 / (1 - alpha)) it is
    smooth, and scipy's quad takes it at epsrel 1e-13, split at the poles'
    modulus.  For u0 = 0 this is the fractional oscillator
    u1 t E_(2-alpha),2(-lam t^(2-alpha)) (Mainardi, 2010).
    """
    from scipy.integrate import quad

    alpha = kernel.alpha
    lam = mu * kernel.c * math.gamma(1.0 - alpha)
    order = 2.0 - alpha
    poles = [lam ** (1.0 / order) * np.exp(sign * 1j * math.pi / order) for sign in (1, -1)]
    power = 1.0 / (1.0 - alpha)
    knee = lam ** (1.0 / (order * power))

    def cut(x, t):
        r = x**power
        F = (u1 - r * u0) / (r * r + lam * r**alpha * np.exp(1j * math.pi * alpha))
        return math.exp(-r * t) * F.imag * power * x ** (power - 1.0)

    out = []
    for t in times:
        residues = sum(np.exp(p * t) * (p * u0 + u1) / (2.0 * p + alpha * lam * p ** (alpha - 1.0)) for p in poles)
        branch = sum(quad(cut, a, b, args=(t,), epsrel=1e-13, epsabs=0.0, limit=400)[0] for a, b in ((0.0, knee), (knee, np.inf)))
        out.append(residues.real - branch / math.pi)
    return np.array(out)


def non_mode_one(grid: Grid, levels: np.ndarray) -> float:
    """Largest nodal value a 1D level stack keeps once its sine mode 1,
    sin(pi x / L), is projected out: round-off for a run that starts in
    mode 1, as the march is linear and diagonal in sine modes."""
    phi = np.sin(np.pi * grid.axis_coordinates(0) / grid.extent[0])
    phi /= np.linalg.norm(phi)
    return float(np.max(np.abs(levels - np.outer(levels @ phi, phi))))


def reference_bound_lhs(traj: TrajectorySolution) -> np.ndarray:
    """Per-level oracle for BoundReport.lhs."""
    u = nodal_levels(traj)
    v = reference_velocities(u, traj.dt)
    return np.array(
        [
            0.5 * dirichlet_gradient_sq(traj.grid, u[j])
            + 0.5 * l2_space(traj.grid, v[j]) ** 2
            for j in range(traj.n_levels)
        ]
    )


def node_coordinates(grid: Grid) -> np.ndarray:
    """(n_total, dim) array of interior node coordinates, row-major order."""
    full = np.meshgrid(*[grid.axis_coordinates(a) for a in range(grid.dim)], indexing="ij")
    return np.stack([f.ravel() for f in full], axis=1)


def reference_trajectory_csv(grid: Grid, times, nodal, velocities) -> str:
    """trajectory.csv text of the levels at times, from one row list over
    all exported nodes."""
    coords = node_coordinates(grid)
    axis_names = ["x", "y", "z"][: grid.dim]
    lines = [",".join(["t", "node", *axis_names, "u", "u_t"])]
    for t, level, rate in zip(times, nodal, velocities):
        flat_u = level.ravel()
        flat_v = rate.ravel()
        for node in range(coords.shape[0]):
            row = [t, node, *coords[node], flat_u[node], flat_v[node]]
            lines.append(
                ",".join(str(x) if isinstance(x, int) else repr(float(x)) for x in row)
            )
    return "\n".join(lines) + "\n"


def reference_full(history: HistoryConvolution, samples: np.ndarray) -> np.ndarray:
    """Row-loop oracle for the history sums: out[j] = row(j) @ samples[: j + 1]
    for every level; out[0] = 0."""
    out = np.zeros_like(samples)
    for j in range(1, samples.shape[0]):
        out[j] = history_row(history, j) @ samples[: j + 1]
    return out


def classical_stress_curve(kernel: RelaxationKernel, strain, dt: float, past_value: float = 0.0) -> np.ndarray:
    """Oracle for stress_curve in the classical form, for moduli bounded at 0:
    G(0) E(t) + int_0^t dG(tau) E(t - tau) dtau + past_value (G(inf) - G(t))
    at t = M dt, M = 1 .. n, with the dG weights exact on the strain interpolant."""
    E = np.asarray(strain, dtype=float)
    n = E.size - 1
    history = HistoryConvolution(*interval_weights(partial(kernel._tower, 0), partial(kernel._tower, -1), n, dt))
    g_t = kernel.modulus(dt * np.arange(1, n + 1))
    return kernel.modulus(0.0) * E[1:] + reference_full(history, E)[1:] + past_value * (kernel.value_at_inf - g_t)


def batch_runs(spec: ProblemSpec, shifts) -> list[TrajectorySolution]:
    """An integral_volterra spec marched at every shift eps in shifts as
    one batch, march's blocks drained into a (K, J + 1, *grid.shape)
    stack: one stored run per shift, a view of its slab."""
    records, _, blocks = march(spec, shifts)
    stack = np.empty((len(records), spec.n_steps + 1) + spec.grid.shape)
    for j0, block in blocks:
        stack[:, j0 : j0 + block.shape[1]] = block
    return [TrajectorySolution(spec.grid, spec.times, levels, record) for levels, record in zip(stack, records)]


def sequence_trajectories(base: ProblemSpec, eps_values) -> list[TrajectorySolution]:
    """Every run of a shift sequence, stored: one batch for an
    integral_volterra base, one leapfrog run per shift otherwise."""
    if base.formulation == "integral_volterra":
        return batch_runs(base, eps_values)
    return [run(replace(base, eps=float(e))) for e in eps_values]


def nodal_levels(traj: TrajectorySolution, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Nodal values of a stored run's levels start .. stop - 1."""
    return sine_transform(traj.grid, traj.coefficients[start:stop])


def velocity_coefficients(traj: TrajectorySolution, start: int = 0, stop: int | None = None) -> np.ndarray:
    """velocity_estimates of a stored run's levels start .. stop - 1, in
    sine coefficients."""
    stop = traj.n_levels if stop is None else min(stop, traj.n_levels)
    return velocity_estimates(traj.coefficients, traj.dt, start, max(start, stop))


def nodal_velocities(traj: TrajectorySolution, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Nodal values of velocity_coefficients(traj, start, stop)."""
    return sine_transform(traj.grid, velocity_coefficients(traj, start, stop))


def stored_reduction(traj: TrajectorySolution, **asked) -> SingleRun:
    """The SingleRun of a stored run, reduced with what is asked, its levels
    handed over as level 0 and one block of the rest."""
    blocks = [(0, traj.coefficients[:1]), (1, traj.coefficients[1:])]
    return SingleRun.reduce(traj.grid, traj.times, blocks, **asked)


def l2_spacetime(grid: Grid, levels: np.ndarray, dt: float, overwrite: bool = False) -> float:
    """Trapezoid-in-time, midpoint-in-space L2 norm of a level stack."""
    sq = level_squares(grid, levels, overwrite)
    return math.sqrt(float(np.dot(trapezoid_weights(sq.size, dt), sq)))


def trajectory_distance(a: TrajectorySolution, b: TrajectorySolution) -> float:
    """Oracle for the space-time L2 distance of two stored runs; requires
    matching grids and time levels.

    Taken on the sine coefficients: the DST-I is orthonormal, so each
    level's sum of squares is the nodal one (Parseval).
    """
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    if a.n_levels != b.n_levels or abs(a.dt - b.dt) > 1e-12 * a.dt:
        raise ValueError("trajectories use different time levels")
    return l2_spacetime(a.grid, a.coefficients - b.coefficients, a.dt, overwrite=True)


def stored_blocks(trajectories, rows: int):
    """The levels of stored runs on one grid and time axis, handed over as
    a march of blocks of `rows` levels hands them: (j0, every run's levels
    j0 .. j1 - 1), level 0 first."""
    n = trajectories[0].n_levels
    for j0, j1 in [(0, 1), *((j, min(j + rows, n)) for j in range(1, n, rows))]:
        yield j0, np.stack([t.coefficients[j0:j1] for t in trajectories])


def listed_sequence(eps_values, trajectories: list[TrajectorySolution]) -> ShiftSequence:
    """Oracle for run_eps_sequence: the ShiftSequence of stored runs on one
    grid and time axis, one per shift, their levels handed over at the
    march's block boundaries, _MARCH_ROWS for a Volterra run and
    run_block for a leapfrog one; levels_bytes is a run's whole stack."""
    if len(trajectories) != np.size(eps_values):
        raise ValueError("one shift value per trajectory required")
    first = trajectories[0]
    volterra = first.record.z_max is not None
    rows = solver_module._MARCH_ROWS if volterra else run_block(first.grid.n_total, first.n_levels)
    runs = [t.record for t in trajectories]
    blocks = stored_blocks(trajectories, rows)
    return ShiftSequence.reduce(first.grid, first.times, eps_values, runs, first.coefficients.nbytes, blocks)


def listed_cauchy_report(
    trajectories: list[TrajectorySolution],
    eps_values,
    kernel: RelaxationKernel,
    tolerance: float,
) -> ConvergenceReport:
    """Oracle for cauchy_report on a stored trajectory list: each distance
    is trajectory_distance of two stored runs."""
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


def listed_lemma_check(
    kernel: RelaxationKernel,
    eps_values,
    trajectories: list[TrajectorySolution],
) -> list[LemmaCheckEntry]:
    """Oracle for convergence_lemma_check on a stored trajectory list: the
    battery columns of each run's coefficients, and sup |u| from its nodal
    values, a few levels at a time."""
    eps_values = np.asarray(eps_values, dtype=float)
    if len(trajectories) != eps_values.size:
        raise ValueError("one shift value per trajectory required")

    out: list[LemmaCheckEntry] = []
    for e, traj in zip(eps_values, trajectories):
        grid, dt = traj.grid, traj.dt
        J = traj.n_levels - 1
        horizon = float(traj.times[-1])
        shifted = translate(kernel, float(e))

        s_grid = np.linspace(0.0, horizon, 257)
        sup_diff = float(np.max(np.abs(shifted.integral(s_grid) - kernel.integral(s_grid))))
        weights = interval_weights(
            lambda s: shifted.integral2(s) - kernel.integral2(s),
            lambda s: shifted.integral3(s) - kernel.integral3(s),
            J, dt,
        )
        history = HistoryConvolution(*weights)
        c_level = max(float(np.abs(nodal_levels(traj, a, a + 8)).max()) for a in range(0, J + 1, 8)) / grid.volume

        vol = grid.cell_volume
        columns = battery_columns(grid, traj.coefficients)
        for v, _, y, projected in battery_projections(grid, traj.times, columns, history):
            residual = vol * v.laplace_factor(grid) * float(y[0] @ projected) + 0.0
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


def reference_lemma_check(
    kernel: RelaxationKernel,
    eps_values,
    battery,
    trajectories: list[TrajectorySolution],
) -> list[LemmaCheckEntry]:
    """Whole-convolution oracle for convergence_lemma_check: the (J+1, N)
    history sums of every level, then tested against each function."""
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
        sup_diff = float(
            np.max(np.abs(shifted._tower(-1, s_grid) - kernel._tower(-1, s_grid)))
        )
        if sup_diff <= 1e-12 * max(1.0, float(kernel._tower(-1, horizon))):
            # the shift changes nothing (constant kernel): identically zero
            for v in battery:
                out.append(LemmaCheckEntry(float(e), v.name, 0.0, 0.0))
            continue

        weights = interval_weights(
            lambda s: shifted._tower(-2, s) - kernel._tower(-2, s),
            lambda s: shifted._tower(-3, s) - kernel._tower(-3, s),
            J, dt,
        )
        conv = reference_full(HistoryConvolution(*weights), nodal_levels(traj).reshape(J + 1, -1))
        c_level = float(np.max(np.abs(nodal_levels(traj)))) / grid.volume

        wt = trapezoid_weights(J + 1, dt)
        vol = grid.cell_volume
        for v in battery:
            vx = v.space_values(grid).ravel()
            vt = v.time_values(traj.times, horizon)
            lam = v.laplace_factor(grid)
            residual = vol * lam * float(np.dot(wt * vt, conv @ vx))
            majorant = (
                abs(lam)
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


def reference_weak_residual(
    traj: TrajectorySolution,
    kernel: RelaxationKernel,
    eps: float,
    u0: Field,
    u1: Field,
    forcing=None,
) -> list[WeakResidualEntry]:
    """Whole-stack oracle for weak_residual: the Laplacian of every level,
    both (J+1, N) history sums and the stacked defects, then tested."""
    grid, dt = traj.grid, traj.dt
    J = traj.n_levels - 1
    horizon = float(traj.times[-1])
    battery = default_battery(grid)
    kk = translate(kernel, eps)
    history = HistoryConvolution(*interval_weights(partial(kk._tower, -2), partial(kk._tower, -3), J, dt))

    flat = nodal_levels(traj).reshape(J + 1, -1)
    conv_lap = reference_full(history, laplacian_array(grid, nodal_levels(traj)).reshape(J + 1, -1))
    conv_u = reference_full(history, flat)

    f_double = integrated_forcing(forcing, grid, traj.times, dt)
    ramp = (
        np.outer(traj.times, u1.values.ravel())
        + u0.values.ravel()[None, :]
        + f_double
    )

    defect_direct = flat - conv_lap - ramp
    defect_rest = flat - ramp

    wt = trapezoid_weights(J + 1, dt)
    vol = grid.cell_volume
    out = []
    for v in battery:
        vx = v.space_values(grid).ravel()
        vt = v.time_values(traj.times, horizon)
        lam = v.laplace_factor(grid)
        direct = vol * float(np.dot(wt * vt, defect_direct @ vx))
        moved = vol * float(
            np.dot(wt * vt, defect_rest @ vx) - lam * np.dot(wt * vt, conv_u @ vx)
        )
        out.append(WeakResidualEntry(test_function=v.name, direct=direct, moved=moved))
    return out


def _abs_row_sums(left, right, samples: np.ndarray) -> np.ndarray:
    """Row-loop sums of |samples| under the weights |left|, |right|: a bound
    on the size of every term a history sum adds up."""
    return reference_full(HistoryConvolution(np.abs(left), np.abs(right)), np.abs(samples))


def lemma_term_magnitudes(kernel, eps_values, battery, trajectories) -> list[float]:
    """Per entry of convergence_lemma_check, in its order: the size of the
    terms its residual sums, vol |lam| sum_j |a_j| sum_m |row(j)[m]| |u_m| . |vx|
    with a = wt vt.  Round-off of any summation order stays below a small
    multiple of it, also where the residual itself cancels to round-off."""
    out = []
    for e, traj in zip(np.asarray(eps_values, dtype=float), trajectories):
        grid, dt = traj.grid, traj.dt
        J = traj.n_levels - 1
        horizon = float(traj.times[-1])
        shifted = translate(kernel, float(e))
        left, right = interval_weights(
            lambda s: shifted._tower(-2, s) - kernel._tower(-2, s),
            lambda s: shifted._tower(-3, s) - kernel._tower(-3, s),
            J, dt,
        )
        sums = _abs_row_sums(left, right, nodal_levels(traj).reshape(J + 1, -1))
        wt = trapezoid_weights(J + 1, dt)
        for v in battery:
            a = np.abs(wt * v.time_values(traj.times, horizon))
            vx = np.abs(v.space_values(grid).ravel())
            lam = abs(v.laplace_factor(grid))
            out.append(grid.cell_volume * lam * float(a @ (sums @ vx)))
    return out


def weak_term_magnitudes(traj, kernel, eps, u0, u1, forcing=None) -> list[float]:
    """Per entry of weak_residual: the size of the terms both of its
    residuals sum, vol sum_j |a_j| (|u_j| + |ramp_j| + history sums of
    |u|, |lap_h u| and |lam u|) . |vx| plus the history sums of |u| . |lap_h vx|."""
    grid, dt = traj.grid, traj.dt
    J = traj.n_levels - 1
    horizon = float(traj.times[-1])
    battery = default_battery(grid)
    kk = translate(kernel, eps)
    left, right = interval_weights(partial(kk._tower, -2), partial(kk._tower, -3), J, dt)
    flat = nodal_levels(traj).reshape(J + 1, -1)
    sums_u = _abs_row_sums(left, right, flat)
    sums_lap = _abs_row_sums(left, right, laplacian_array(grid, nodal_levels(traj)).reshape(J + 1, -1))
    f_double = integrated_forcing(forcing, grid, traj.times, dt)
    ramp = (
        np.outer(traj.times, np.abs(u1.values.ravel()))
        + np.abs(u0.values.ravel())[None, :]
        + np.abs(f_double)
    )
    wt = trapezoid_weights(J + 1, dt)
    out = []
    for v in battery:
        a = np.abs(wt * v.time_values(traj.times, horizon))
        vx = v.space_values(grid)
        lap_vx = np.abs(laplacian_array(grid, vx).ravel())
        vx = np.abs(vx.ravel())
        lam = abs(v.laplace_factor(grid))
        per_level = (np.abs(flat) + ramp + sums_lap + lam * sums_u) @ vx + sums_u @ lap_vx
        out.append(grid.cell_volume * float(a @ per_level))
    return out


PRONY_TWO_TERMS = PronyKernel(g_inf=0.5, terms=((0.4, 2.0), (0.3, 0.1)))


def forced_box_spec(n: int, horizon: float) -> ProblemSpec:
    """A forced Prony leapfrog on Grid.box(n) from a bump at rest shape."""
    box = Grid.box(n)
    return ProblemSpec(
        kernel=PRONY_TWO_TERMS, grid=box, horizon=horizon,
        dt=cfl_time_step(box, PRONY_TWO_TERMS, 0.1, 0.5, horizon), eps=0.1,
        u0=field_from_name(box, "bump", {"radius": 0.3}),
        u1=field_from_name(box, "sin_pi_product", {"amplitude": 1.0}),
        forcing=Forcing.from_dict("sin_pi_product", {"amplitude": 0.7, "omega": 5.0}),
    )


def oracle_specs() -> dict[str, ProblemSpec]:
    """Runs that pin the projected diagnostics against their oracles: a
    power-law Volterra run, a Prony leapfrog on the exponential backend and
    a forced 3D box."""
    line = Grid.line(25)
    wave = field_from_name(line, "sin_pi_product", {"amplitude": 1.0})
    return {
        "powerlaw_volterra": ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=line, horizon=0.5, dt=0.005,
            eps=0.1, u0=Field.zero(line), u1=wave, formulation="integral_volterra",
        ),
        "prony_leapfrog": ProblemSpec(
            kernel=PRONY_TWO_TERMS, grid=line, horizon=1.0,
            dt=cfl_time_step(line, PRONY_TWO_TERMS, 0.1, 0.5, 1.0), eps=0.1,
            u0=field_from_name(line, "bump", {"radius": 0.3}), u1=wave,
        ),
        "forced_box": forced_box_spec(7, 0.6),
    }
