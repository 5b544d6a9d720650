"""Time stepping for wave propagation with a convolution memory term.

Two equivalent formulations of the same shifted problem:

  * integro-differential:  u_tt = G(eps) lap u
        + int_0^t dG(eps + t - tau) lap u(tau) dtau + f,
    advanced by leapfrog with the memory term under product quadrature;

  * integral (Volterra):  u(t) = int_0^t Ksh(t - tau) lap u(tau) dtau
        + u1 t + u0 + int_0^t int_0^s f,
    with Ksh the re-based integral of the shifted modulus, marched
    explicitly (the self-weight vanishes with Ksh(0) = 0 up to one
    fixed-point correction).

All convolution weights integrate the kernel factor exactly over each
subinterval against a piecewise-linear interpolant of the smooth factor,
so steep kernels near s = 0 cost no quadrature accuracy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from memvisco.grid import Field, Grid, l2_spacetime, laplacian_array
from memvisco.kernels import RelaxationKernel, translate

__all__ = [
    "CflViolation",
    "SolverAbort",
    "KernelUnboundedError",
    "ProblemSpec",
    "TrajectorySolution",
    "stable_time_step",
    "cfl_time_step",
    "interval_weights",
    "HistoryConvolution",
    "run_integrodiff",
    "run_integral_volterra",
    "run",
    "trajectory_distance",
    "compute_stress",
]

FORMULATIONS = ("integrodifferential", "integral_volterra")


class CflViolation(ValueError):
    pass


class SolverAbort(RuntimeError):
    def __init__(self, step: int, reason: str):
        self.step = step
        self.reason = reason
        super().__init__(f"aborted at step {step}: {reason}")


class KernelUnboundedError(ValueError):
    """Raised when the classical stress form is asked for a modulus with no G(0)."""


def stable_time_step(grid: Grid, wave_speed_sq: float) -> float:
    """Largest leapfrog-stable dt for instantaneous modulus wave_speed_sq."""
    return grid.h_min / math.sqrt(grid.dim * wave_speed_sq)


def cfl_time_step(
    grid: Grid, kernel: RelaxationKernel, eps: float, cfl: float, horizon: float
) -> float:
    """dt = cfl * stable limit, rounded down so horizon / dt is an integer."""
    if not (0 < cfl <= 1):
        raise CflViolation(f"cfl number must be in (0, 1], got {cfl}")
    raw = cfl * stable_time_step(grid, kernel.modulus(eps))
    n = max(2, math.ceil(horizon / raw - 1e-12))
    return horizon / n


def _forcing_values(forcing, grid: Grid, t: float) -> np.ndarray:
    if forcing is None:
        return np.zeros(grid.shape)
    if hasattr(forcing, "sample"):
        return np.asarray(forcing.sample(grid, t), dtype=float)
    return np.asarray(forcing(grid, t), dtype=float)


def _forcing_tag(forcing) -> str:
    if forcing is None:
        return "none"
    if hasattr(forcing, "name"):
        return f"{forcing.name}:{getattr(forcing, 'params', '')}"
    return getattr(forcing, "profile_name", getattr(forcing, "__qualname__", repr(forcing)))


@dataclass(frozen=True)
class ProblemSpec:
    """One fully-specified run; validation happens at construction.

    eps > 0 is required for the integro-differential form (the modulus is
    evaluated at t = eps); the integral form also accepts eps = 0 because
    it only touches the integral tower, which stays finite for the
    singular families.
    """

    kernel: RelaxationKernel
    grid: Grid
    horizon: float
    dt: float
    eps: float
    u0: Field
    u1: Field
    forcing: object = None
    formulation: str = "integrodifferential"
    history_window: float | None = None

    def __post_init__(self):
        if self.formulation not in FORMULATIONS:
            raise ValueError(
                f"unknown formulation '{self.formulation}'; valid: {', '.join(FORMULATIONS)}"
            )
        if not (self.horizon > 0 and math.isfinite(self.horizon)):
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        n = self.horizon / self.dt
        if abs(n - round(n)) > 1e-6:
            raise ValueError(f"horizon/dt = {n} must be an integer number of steps")
        if round(n) < 2:
            raise ValueError("need at least 2 time steps")
        if not (self.eps >= 0 and math.isfinite(self.eps)):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if self.formulation == "integrodifferential":
            if self.eps <= 0:
                raise ValueError("integro-differential form needs eps > 0")
            limit = stable_time_step(self.grid, self.kernel.modulus(self.eps))
            if self.dt > limit * (1 + 1e-9):
                raise CflViolation(
                    f"dt = {self.dt:.6g} unstable at eps = {self.eps:.6g}; "
                    f"required dt <= {limit:.6g}"
                )
        if self.u0.grid != self.grid or self.u1.grid != self.grid:
            raise ValueError("initial data must live on the problem grid")
        if self.history_window is not None and not self.history_window > 0:
            raise ValueError("history window must be positive when given")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    @property
    def window_intervals(self) -> int | None:
        """The history window counted in whole time steps, rounded up."""
        return None if self.history_window is None else math.ceil(self.history_window / self.dt)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.kernel).encode())
        h.update(repr((self.grid.n, self.grid.extent)).encode())
        h.update(f"{self.horizon!r}|{self.dt!r}|{self.eps!r}|{self.formulation}".encode())
        h.update(f"|window={self.history_window!r}|".encode())
        h.update(self.u0.values.tobytes())
        h.update(self.u1.values.tobytes())
        h.update(_forcing_tag(self.forcing).encode())
        return h.hexdigest()[:16]


@dataclass(frozen=True)
class TrajectorySolution:
    grid: Grid
    times: np.ndarray
    levels: np.ndarray  # (n_levels, *grid.shape)
    formulation: str
    spec_fingerprint: str
    correction_residuals: np.ndarray | None = None

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_levels(self) -> int:
        return self.levels.shape[0]

    def level(self, j: int) -> Field:
        return Field(self.grid, self.levels[j])

    def velocities(self, stride: int = 1) -> np.ndarray:
        """Second-order time derivative estimates at levels 0, stride, 2 stride, ...

        Centered differences inside, one-sided ones at the first and last
        level; an estimate does not depend on which other levels are asked for.
        """
        u = self.levels
        dt = self.dt
        last = self.n_levels - 1
        v = np.empty((last // stride + 1,) + u.shape[1:])
        inner = v[1 : 1 + len(range(stride, last, stride))]
        np.subtract(u[stride + 1 :: stride], u[stride - 1 : last - 1 : stride], out=inner)
        inner /= 2 * dt
        v[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * dt)
        if last % stride == 0:
            v[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * dt)
        return v

    def l2_spacetime(self) -> float:
        return l2_spacetime(self.grid, self.levels, self.dt)


def trajectory_distance(a: TrajectorySolution, b: TrajectorySolution) -> float:
    """Space-time L2 distance; requires matching grids and time levels."""
    if a.grid != b.grid:
        raise ValueError("trajectories live on different grids")
    if a.n_levels != b.n_levels or abs(a.dt - b.dt) > 1e-12 * a.dt:
        raise ValueError("trajectories use different time levels")
    return l2_spacetime(a.grid, a.levels - b.levels, a.dt)


# ---------------------------------------------------------------------------
# product quadrature
# ---------------------------------------------------------------------------


def interval_weights(antiderivative, second_antiderivative, n_intervals: int, dt: float):
    """Exact-moment weights for  int w(s) p(s) ds  with p piecewise linear.

    The kernel factor w enters only through its antiderivatives, evaluated
    at the subinterval endpoints s_i = i dt; over [s_i, s_{i+1}] the rule is
    left[i] * p(s_i) + right[i] * p(s_{i+1}) with

        m0 = F(s_{i+1}) - F(s_i)                       (int w)
        m1 = dt F(s_{i+1}) - (FF(s_{i+1}) - FF(s_i))   (int (s - s_i) w)
        right = m1 / dt,  left = m0 - right.

    Exact for linear p, second-order otherwise, independent of how steep w
    is inside the subinterval.
    """
    s = np.arange(n_intervals + 1, dtype=float) * dt
    f = np.asarray(antiderivative(s), dtype=float)
    ff = np.asarray(second_antiderivative(s), dtype=float)
    m0 = np.diff(f)
    m1 = dt * f[1:] - np.diff(ff)
    right = m1 / dt
    left = m0 - right
    return left, right


class HistoryConvolution:
    """Product-quadrature weights of one causal convolution.

    Built from interval_weights' (left, right) over n subintervals, it
    weighs the samples p(t_0 .. t_j) of  int_0^{t_j} w(s) p(t_j - s) ds,
    j = 1 .. n, optionally cut to the last `window` subintervals.  Below
    the oldest lag k = min(j, window) level m of row j weighs lag
    d = j - m by lags[d] = left[d] + right[d - 1] (lags[0] = left[0]),
    whatever j is; the oldest lag itself weighs oldest[k - 1] = right[k - 1],
    and levels before it weigh nothing.
    """

    def __init__(self, left, right, window: int | None = None):
        n = len(left)
        self.oldest = right
        self.window = window
        self.lags = np.zeros(n + 1)
        self.lags[:n] += left
        self.lags[1:] += right
        self._reversed = self.lags[::-1]
        self._largest = max(np.abs(left).max(initial=0.0), np.abs(right).max(initial=0.0))

    def inert(self, g0: float) -> bool:
        """True when the weights are pure roundoff next to G(eps).

        A constant kernel has dG = 0, so its memory weights come out of the
        antiderivative differences as rounding noise; callers skip the
        memory term instead of summing that noise.
        """
        return self._largest <= 1e-13 * max(1.0, abs(g0))

    def _fill(self, w: np.ndarray, j: int) -> np.ndarray:
        k = j if self.window is None else min(j, self.window)
        w[j - k + 1 :] = self._reversed[len(self._reversed) - k :]
        w[j - k] = self.oldest[k - 1] + 0.0  # -0.0 -> 0.0, as in a zeroed row
        if k < j:
            w[: j - k] = 0.0
        return w

    def row(self, j: int) -> np.ndarray:
        """Level weights of row j >= 1, indexed by level m = 0 .. j."""
        return self._fill(np.empty(j + 1), j)

    def rows(self, n_rows: int):
        """Yield row(j) for j = 1 .. n_rows.

        Every row is a view of one buffer that the next row overwrites;
        read it, do not keep it.
        """
        buf = np.empty(n_rows + 1)
        for j in range(1, n_rows + 1):
            yield self._fill(buf[: j + 1], j)

    def full(self, samples: np.ndarray) -> np.ndarray:
        """out[j] = row(j) @ samples[: j + 1] for every level; out[0] = 0."""
        out = np.zeros_like(samples)
        for j, w in enumerate(self.rows(samples.shape[0] - 1), start=1):
            out[j] = w @ samples[: j + 1]
        return out


# ---------------------------------------------------------------------------
# integro-differential leapfrog
# ---------------------------------------------------------------------------


def run_integrodiff(spec: ProblemSpec) -> TrajectorySolution:
    if spec.formulation != "integrodifferential":
        raise ValueError("spec requests a different formulation")
    grid, dt, J = spec.grid, spec.dt, spec.n_steps
    shifted = translate(spec.kernel, spec.eps)
    g0 = shifted.modulus(0.0)
    # memory weights: kernel factor dG(eps + s), antiderivatives G, K
    weights = interval_weights(shifted._modulus, shifted._integral, J, dt)
    history = HistoryConvolution(*weights, spec.window_intervals)
    # constant kernel: weights are pure roundoff, skip the memory term
    inert = history.inert(g0)

    shape = grid.shape
    n_flat = grid.n_total
    levels = np.empty((J + 1,) + shape)
    lap_flat = np.empty((J + 1, n_flat))
    f_now = _forcing_values(spec.forcing, grid, 0.0)

    levels[0] = spec.u0.values
    lap_flat[0] = laplacian_array(grid, levels[0]).ravel()
    levels[1] = (
        levels[0]
        + dt * spec.u1.values
        + 0.5 * dt * dt * (g0 * lap_flat[0].reshape(shape) + f_now)
    )

    rows = history.rows(J - 1)
    for j in range(1, J):
        lap_flat[j] = laplacian_array(grid, levels[j]).ravel()
        if inert:
            memory = 0.0
        else:
            memory = (next(rows) @ lap_flat[: j + 1]).reshape(shape)
        f_now = _forcing_values(spec.forcing, grid, j * dt)
        levels[j + 1] = (
            2.0 * levels[j]
            - levels[j - 1]
            + dt * dt * (g0 * lap_flat[j].reshape(shape) + memory + f_now)
        )
        if not np.all(np.isfinite(levels[j + 1])):
            raise SolverAbort(j + 1, "non-finite values (instability or overflow)")

    return TrajectorySolution(
        grid=grid,
        times=spec.times,
        levels=levels,
        formulation=spec.formulation,
        spec_fingerprint=spec.fingerprint(),
    )


# ---------------------------------------------------------------------------
# integral (Volterra) march
# ---------------------------------------------------------------------------


def _integrated_forcing(forcing, grid: Grid, times: np.ndarray, dt: float) -> np.ndarray:
    """int_0^t int_0^s f at every level: the cumulative trapezoid rule twice."""
    out = np.stack([_forcing_values(forcing, grid, t) for t in times])
    for _ in range(2):
        integral = np.zeros_like(out)
        np.cumsum(0.5 * dt * (out[1:] + out[:-1]), axis=0, out=integral[1:])
        out = integral
    return out


def run_integral_volterra(spec: ProblemSpec) -> TrajectorySolution:
    if spec.formulation != "integral_volterra":
        raise ValueError("spec requests a different formulation")
    grid, dt, J = spec.grid, spec.dt, spec.n_steps
    kk = spec.kernel if spec.eps == 0.0 else translate(spec.kernel, spec.eps)
    # kernel factor Ksh(s); antiderivatives are the next two tower levels
    weights = interval_weights(kk._integral2, kk._integral3, J, dt)
    history = HistoryConvolution(*weights, spec.window_intervals)

    shape = grid.shape
    levels = np.empty((J + 1,) + shape)
    lap_flat = np.empty((J + 1, grid.n_total))
    resid = np.zeros(J + 1)

    f_double = _integrated_forcing(spec.forcing, grid, spec.times, dt)

    u0, u1 = spec.u0.values, spec.u1.values
    levels[0] = u0
    lap_flat[0] = laplacian_array(grid, u0).ravel()

    for j, w in enumerate(history.rows(J), start=1):
        drive = (w[:j] @ lap_flat[:j]).reshape(shape) + u1 * (j * dt) + u0 + f_double[j]
        self_weight = w[j]
        predicted = drive + self_weight * lap_flat[j - 1].reshape(shape)
        corrected = drive + self_weight * laplacian_array(grid, predicted)
        # NaN or inf whenever corrected is: no separate finiteness pass
        resid[j] = np.max(np.abs(corrected - predicted))
        if not math.isfinite(resid[j]):
            raise SolverAbort(j, "non-finite values in fixed-point correction")
        levels[j] = corrected
        lap_flat[j] = laplacian_array(grid, corrected).ravel()

    return TrajectorySolution(
        grid=grid,
        times=spec.times,
        levels=levels,
        formulation=spec.formulation,
        spec_fingerprint=spec.fingerprint(),
        correction_residuals=resid,
    )


def run(spec: ProblemSpec) -> TrajectorySolution:
    if spec.formulation == "integrodifferential":
        return run_integrodiff(spec)
    return run_integral_volterra(spec)


# ---------------------------------------------------------------------------
# uniaxial stress response
# ---------------------------------------------------------------------------


def compute_stress(
    kernel: RelaxationKernel,
    strain_history: np.ndarray,
    dt: float,
    past_value: float = 0.0,
    form: str = "classical",
) -> float:
    """Stress at t = (len(history) - 1) * dt for a sampled strain path.

    strain_history holds E(0), E(dt), ..., E(t) on a uniform grid; the
    strain equals past_value for all times < 0.  Two algebraically
    equivalent evaluations:

      * 'classical':   G(0) E(t) + int_0^t dG(tau) E(t - tau) dtau
                       + past_value * (G(inf) - G(t));
        needs a modulus that is bounded at 0.
      * 'integrated':  G(t) E(0) + int_0^t G(tau) dE(t - tau) dtau
                       + past_value * (G(inf) - G(t));
        works for unbounded moduli because only integrals of G appear
        (the strain rate of the interpolant is piecewise constant, so the
        quadrature is exact for it).
    """
    E = np.asarray(strain_history, dtype=float)
    if E.ndim != 1 or E.size < 1:
        raise ValueError("strain history must be a 1-d sample array")
    if not dt > 0:
        raise ValueError("dt must be positive")
    M = E.size - 1
    t = M * dt
    g_inf = kernel.value_at_inf

    if form == "classical":
        if kernel.singular_at_zero:
            raise KernelUnboundedError(
                "modulus unbounded at t = 0; use form='integrated'"
            )
        g0 = kernel.modulus(0.0)
        if M == 0:
            conv = 0.0
            g_t = g0
        else:
            weights = interval_weights(kernel._modulus, kernel._integral, M, dt)
            conv = float(HistoryConvolution(*weights).row(M) @ E)
            g_t = kernel.modulus(t)
        return g0 * E[-1] + conv + past_value * (g_inf - g_t)

    if form == "integrated":
        if M == 0:
            return kernel.modulus(t) * E[0] + past_value * (g_inf - kernel.modulus(t))
        slopes = np.diff(E) / dt
        increments = np.diff(kernel.integral(dt * np.arange(M + 1)))
        conv = float(np.dot(increments, slopes[::-1]))
        g_t = kernel.modulus(t)
        return g_t * E[0] + conv + past_value * (g_inf - g_t)

    raise ValueError(f"unknown form '{form}'; valid: classical, integrated")
