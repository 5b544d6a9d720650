"""Time stepping for wave propagation with a convolution memory term.

Two equivalent formulations of the same shifted problem:

  * integro-differential:  u_tt = G(eps) lap u
        + int_0^t dG(eps + t - tau) lap u(tau) dtau + f,
    advanced by leapfrog with the memory term under product quadrature;

  * integral (Volterra):  u(t) = int_0^t Ksh(t - tau) lap u(tau) dtau
        + u1 t + u0 + int_0^t int_0^s f,
    with Ksh the re-based integral of the shifted modulus, each step
    solving its self-term implicitly and exactly.

Both march in the sine modes of the box, where the Laplacian is -mu
(grid.py), and a trajectory stores its levels' sine coefficients; nodal
values are formed only where they are read.

All convolution weights integrate the kernel factor exactly over each
subinterval against a piecewise-linear interpolant of the smooth factor,
so steep kernels near s = 0 cost no quadrature accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

try:  # the lean builtin module, _sha2 from Python 3.12 on: hashlib would map OpenSSL into every run
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

from memvisco.expressions import Forcing
from memvisco.grid import Field, Grid, double_trapezoid, sine_transform
from memvisco.kernels import PronyKernel, RelaxationKernel, translate

__all__ = [
    "CflViolation",
    "SolverAbort",
    "ProblemSpec",
    "RunRecord",
    "TrajectorySolution",
    "stable_time_step",
    "time_step_shifts",
    "cfl_time_step",
    "interval_weights",
    "exponential_terms",
    "HistoryConvolution",
    "run",
    "march",
    "run_block",
    "velocity_estimates",
    "compute_stress",
    "stress_curve",
]

FORMULATIONS = ("integrodifferential", "integral_volterra")


class CflViolation(ValueError):
    pass


class SolverAbort(RuntimeError):
    """A march stopped at `step`; `eps` names the shift that failed."""

    def __init__(self, step: int, reason: str, eps: float | None = None):
        self.step = step
        self.reason = reason
        self.eps = eps
        at = "" if eps is None else f" of the run at eps = {eps!r}"
        super().__init__(f"aborted at step {step}{at}: {reason}")


def stable_time_step(grid: Grid, wave_speed_sq: float) -> float:
    """Largest leapfrog-stable dt for instantaneous modulus wave_speed_sq.

    Raises ValueError unless the modulus is positive: the limit divides by
    its square root, and a shift far down a Prony term can underflow it to 0.
    """
    if not wave_speed_sq > 0:
        raise ValueError(
            f"the stable time step h / sqrt(dim G(eps)) needs G(eps) > 0, got G(eps) = {wave_speed_sq!r}"
        )
    return grid.h_min / math.sqrt(grid.dim * wave_speed_sq)


def time_step_shifts(formulation: str, eps_values, dt: float | None) -> list[float]:
    """The shifts of a run whose G(eps) stable_time_step reads: the cfl rule
    reads the finest, the last, when no dt is given, and the leapfrog checks
    its dt at every shift it marches."""
    shifts = [float(e) for e in eps_values]
    if formulation == "integrodifferential":
        return shifts
    return shifts[-1:] if dt is None else []


def cfl_time_step(
    grid: Grid, kernel: RelaxationKernel, eps: float, cfl: float, horizon: float
) -> float:
    """dt = cfl * stable limit, rounded down so horizon / dt is an integer."""
    if not (0 < cfl <= 1):
        raise CflViolation(f"cfl number must be in (0, 1], got {cfl}")
    raw = cfl * stable_time_step(grid, kernel.modulus(eps))
    n = max(2, math.ceil(horizon / raw - 1e-12))
    return horizon / n


def _forcing_tag(forcing: Forcing | None) -> str:
    return "none" if forcing is None else f"{forcing.name}:{forcing.params}"


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
    forcing: Forcing | None = None
    formulation: str = "integrodifferential"

    def __post_init__(self):
        if self.formulation not in FORMULATIONS:
            raise ValueError(
                f"unknown formulation '{self.formulation}'; valid: {', '.join(FORMULATIONS)}"
            )
        self.check_steps(self.horizon, self.dt)
        self.check_shift(self.eps, self.formulation)
        if self.formulation == "integrodifferential":
            limit = stable_time_step(self.grid, self.kernel.modulus(self.eps))
            if self.dt > limit * (1 + 1e-9):
                raise CflViolation(
                    f"dt = {self.dt:.6g} unstable at eps = {self.eps:.6g}; "
                    f"required dt <= {limit:.6g}"
                )
        if self.u0.grid != self.grid or self.u1.grid != self.grid:
            raise ValueError("initial data must live on the problem grid")

    @staticmethod
    def check_steps(horizon: float, dt: float) -> None:
        """Raise ValueError unless dt divides the horizon into at least 2 whole steps."""
        if not (horizon > 0 and math.isfinite(horizon)):
            raise ValueError(f"horizon must be positive and finite, got {horizon}")
        if not (dt > 0 and math.isfinite(dt)):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        n = horizon / dt
        if abs(n - round(n)) > 1e-6:
            raise ValueError(f"horizon/dt = {n} must be an integer number of steps")
        if round(n) < 2:
            raise ValueError("need at least 2 time steps")

    @staticmethod
    def check_shift(eps: float, formulation: str) -> None:
        """Raise ValueError unless the formulation can run at shift eps."""
        if not (eps >= 0 and math.isfinite(eps)):
            raise ValueError(f"eps must be finite and >= 0, got {eps}")
        if formulation == "integrodifferential" and eps <= 0:
            raise ValueError("integro-differential form needs eps > 0")

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def forcing_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(profile, factor) with f(t_j) = factor[j] * profile; a zero
        profile without forcing."""
        if self.forcing is None:
            return np.zeros(self.grid.shape), np.zeros(self.n_steps + 1)
        return self.forcing.profile(self.grid), self.forcing.factor(self.times)

    def fingerprint(self) -> str:
        h = sha256()
        h.update(repr(self.kernel).encode())
        h.update(repr((self.grid.n, self.grid.extent)).encode())
        h.update(f"{self.horizon!r}|{self.dt!r}|{self.eps!r}|{self.formulation}".encode())
        h.update(self.u0.values.tobytes())
        h.update(self.u1.values.tobytes())
        h.update(_forcing_tag(self.forcing).encode())
        return h.hexdigest()[:16]


class RunRecord(NamedTuple):
    """What a run's manifest entry reads of it besides its levels; a
    streamed shift sequence keeps these and no trajectory."""

    spec_fingerprint: str
    # Volterra runs: the self-weight lags[0] times the top eigenvalue of -lap
    z_max: float | None = None
    # leapfrog runs: dt over the largest stable dt at the shift
    dt_over_limit: float | None = None
    history_backend: str = "direct"
    # direct-backend runs: the exponential terms of the far history sums and
    # their fit's checked error relative to max |w| (w = Ksh or dG); 0, 0.0 direct
    far_nodes: int = 0
    far_error: float = 0.0


class TrajectorySolution(NamedTuple):
    """Every level of a run, stored, as run returns it."""

    grid: Grid
    times: np.ndarray
    coefficients: np.ndarray  # (n_levels, *grid.shape): sine coefficients of each level
    record: RunRecord

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_levels(self) -> int:
        return self.coefficients.shape[0]


def velocity_estimates(u: np.ndarray, dt: float, start: int, stop: int, out=None) -> np.ndarray:
    """Second-order time derivative estimates at the rows start .. stop - 1
    of u, consecutive levels of a run, into out if given.

    Centered differences where a row has both neighbours in u, one-sided
    ones at u's first and last row, which are then the run's first and last
    level; an estimate does not depend on which other rows are asked for.
    """
    v = np.empty((stop - start,) + u.shape[1:]) if out is None else out
    if start == stop:
        return v
    lo = 1 if start == 0 else 0
    hi = stop - start - 1 if stop == u.shape[0] else stop - start
    if lo < hi:
        np.subtract(u[start + lo + 1 : start + hi + 1], u[start + lo - 1 : start + hi - 1], out=v[lo:hi])
        v[lo:hi] /= 2 * dt
    if lo:
        v[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * dt)
    if hi < stop - start:
        v[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * dt)
    return v


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


def _exponential_weights(a: float, tau: float, dt: float) -> tuple[float, float]:
    """interval_weights' (left[0], right[0]) for w(s) = (a / tau) e^{-s / tau}.

    In closed form: m0 = a (1 - e^{-x}) and right = a (1 - (1 + x) e^{-x}) / x
    with x = dt / tau.  For x < 1 the bracket is e^{-x} sum_{n >= 2} x^n / n!,
    a series of positive terms, so neither moment loses digits to the
    cancellation that antiderivative differences suffer when tau >> dt.
    """
    x = dt / tau
    if x < 1.0:
        term, series = x, 0.0
        for n in range(2, 20):  # x^19 / 19! < 1e-17
            term *= x / n
            series += term
        bracket = math.exp(-x) * series
    else:
        bracket = 1.0 - (1.0 + x) * math.exp(-x)
    right = a * bracket / x
    return -a * math.expm1(-x) - right, right


def exponential_terms(kernel: PronyKernel, dt: float, order: int = 1):
    """(r, left[0], right[0]) per term g e^{-t/tau} of a Prony kernel, for
    w(s) = dG(s) (order 1) or d2G(s) (order 2).

    Each term's share of w is (a / tau) e^{-s / tau}, so its interval
    weights are geometric in the lag: left[d] = r^d left[0] and right[d] =
    r^d right[0] with r = e^{-dt/tau}, and (left[0], right[0]) come from
    _exponential_weights' closed forms.
    """
    out = []
    for g, tau in kernel.terms:
        a = -g if order == 1 else g / tau
        out.append((math.exp(-dt / tau), *_exponential_weights(a, tau, dt)))
    return out


# The direct backend's far sums (HistoryConvolution.far_sums) come in
# blocks of _MARCH_ROWS rows, for both marchers.  Levels older than the
# previous block enter them through _ExponentialTail, a fit of each weight
# set's factor w whose checked error is at most _TAIL_TOLERANCE of max |w|;
# without one they are summed directly.  The fit places
# _TAIL_NODES_PER_DECADE decay rates per decade of its range and reads at
# most _TAIL_SAMPLES values of w, fewer where samples x (terms)^2 would
# pass _TAIL_FIT_SIZE.  The cap fixes the fitted terms and so the bundled
# CSVs' bytes; for a caller who imported numpy first, it also keeps the
# factorization off a second OpenBLAS thread, which spun for ~0.15 s of CPU.
_MARCH_ROWS = 64
# cap on the bytes of a single run's block: set by peak memory, not cache (run_block)
_BLOCK_BYTES = 2**20
_TAIL_TOLERANCE = 1e-10
_TAIL_NODES_PER_DECADE = 8
_TAIL_SAMPLES = 256
_TAIL_FIT_SIZE = 2**18
_TAIL_CHECK_CHUNK = 2048


def _slot(m: int, ring: int) -> int:
    """The slot of level m in a march's level buffer, (K, 1 + ring, ...)."""
    return 0 if m == 0 else 1 + (m - 1) % ring


class _ExponentialTail(NamedTuple):
    """w(s) ~ constant + slope s + sum_l coefficients[l] ratios[l]^(s / dt)
    on [start, horizon], one row of constant, slope and coefficients per
    weight set: exponentials e^(-x s) with ratios e^(-x dt) per step.  w is
    the factor of a direct history, the tower member at its order: Ksh for
    the Volterra march, dG for the leapfrog.

    The decay rates x are geometric on [0.1 / horizon, 40 / start], their
    number growing with the decades of that range; the terms are fitted by
    least squares to samples of w, geometric in s.  The fit is taken in
    the rounded ratios, the numbers the sums multiply by, so that a
    state aged d steps is no further off than one power of them.  error is
    each weight set's max |fit - w| over the half steps of [start, horizon],
    relative to max |w| there.  A lag weight is w integrated against a
    hat of width 2 dt, so a lag whose hat lies in [start, horizon] moves by
    at most error max|w| dt when the fit stands in for w.
    """

    dt: float
    ratios: np.ndarray  # (L,)
    constant: np.ndarray  # (K,)
    slope: np.ndarray  # (K,)
    coefficients: np.ndarray  # (K, L)
    error: np.ndarray  # (K,)

    @classmethod
    def fit(cls, factors, start: float, horizon: float, dt: float) -> _ExponentialTail:
        decades = math.log10(400.0 * horizon / start)
        rates = np.geomspace(0.1 / horizon, 40.0 / start, math.ceil(_TAIL_NODES_PER_DECADE * decades))
        ratios = np.exp(-rates * dt)

        def basis(s):
            return np.hstack([np.ones((s.size, 1)), s[:, None] / horizon, ratios ** (s[:, None] / dt)])

        # each weight set is fitted and checked by products of its own, so
        # that its terms do not depend on the other shifts of a batch
        samples = np.geomspace(start, horizon, min(_TAIL_SAMPLES, _TAIL_FIT_SIZE // (ratios.size + 2) ** 2))
        fit_basis = basis(samples)
        fitted = np.array([np.linalg.lstsq(fit_basis, w(samples), rcond=None)[0] for w in factors])
        halves = np.arange(round(2 * start / dt), round(2 * horizon / dt) + 1) * (0.5 * dt)
        worst, size = np.zeros(len(factors)), np.zeros(len(factors))
        for lo in range(0, halves.size, _TAIL_CHECK_CHUNK):
            s = halves[lo : lo + _TAIL_CHECK_CHUNK]
            terms = basis(s)
            for i, w in enumerate(factors):
                exact = w(s)
                worst[i] = max(worst[i], np.abs(terms @ fitted[i] - exact).max())
                size[i] = max(size[i], np.abs(exact).max())
        return cls(dt, ratios, fitted[:, 0], fitted[:, 1] / horizon, fitted[:, 2:], worst / size)

    def readout(self, lags: np.ndarray) -> np.ndarray:
        """(K, lags.size, L + 2) weights on the states at level M of the far
        sum of row j = M + lag.  The states are sum_m ratios[l]^(M - m) u_m
        per term, sum_m u_m and sum_m (M - m) u_m over the levels m <= M.

        Each term's lag weights come in closed form: constant dt, slope dt^2
        lag and c r^lag (left[0] + right[0] / r), (left[0], right[0]) from
        _exponential_weights.  So the readout of a lone level at M, whose
        states are (1, .., 1, 1, 0), is the fit's weight of that lag.
        """
        dt, r = self.dt, self.ratios
        hat = []
        for ratio in r:
            tau = -dt / math.log(ratio)
            left, right = _exponential_weights(tau, tau, dt)
            hat.append(left + right / ratio)
        lags = np.asarray(lags, dtype=float)
        out = np.empty(self.coefficients.shape[:1] + lags.shape + (r.size + 2,))
        out[..., :-2] = (self.coefficients * hat)[:, None, :] * r ** lags[:, None]
        out[..., -2] = self.constant[:, None] * dt + self.slope[:, None] * dt * dt * lags
        out[..., -1] = (self.slope * dt * dt)[:, None]
        return out

    def fold(self, width: int) -> tuple[np.ndarray, np.ndarray]:
        """(decay, weights): M moves on by width levels when each state
        takes decay times itself, the third one width times the second as
        well, plus weights (L + 2, width) @ the width levels M + 1 .. M + width."""
        age = np.arange(width - 1, -1, -1, dtype=float)
        weights = np.vstack([self.ratios[:, None] ** age, np.ones(width), age])
        return self.ratios**width, weights


class HistoryConvolution:
    """Product-quadrature weights of one causal convolution, and its sums.

    Built from interval_weights' (left, right) over n subintervals, it
    weighs the samples p(t_0 .. t_j) of  int_0^{t_j} w(s) p(t_j - s) ds,
    j = 1 .. n.  Its one table of lag weights is lags[d] = left[d] +
    right[d - 1] (lags[0] = left[0], lags[n] = right[n - 1]).  Row j weighs
    level m >= 1 by lags[j - m], and level 0 by oldest[j - 1] = right[j - 1].
    The table is held reversed, the order _block reads, with W (_MARCH_ROWS
    as the history is built) zero columns past either end: a lag up to W
    below 0 or above n reads as 0.  lags, (K, n + 1), and near, (K, W) the
    lags W - 1 .. 0, are views of it; far_sums, row_sums and adjoint each
    read windows of it.

    left and right may carry a leading shift axis, (K, n): one weight set
    per shift of a sequence, sharing n, as both marchers and the lemma
    check read them.  lags and oldest then carry that axis too, and
    adjoint transposes the sums of every weight set at once, (K, P, n + 1)
    for P time profiles.  factors (w of each weight set, as callables) and
    dt let the far sums fit a tail; without them every far sum is direct.

    Both marchers sum in blocks of W rows: far_sums gives a block's sums
    over the levels below it, and each row adds the block's own levels.
    With a tail a row's sum costs O(N) flops amortised, else
    O(j N).  The memory term is linear in the levels, so a marcher sums
    the levels themselves and applies any operator, such as the
    Laplacian, once to the sum.
    """

    backend = "direct"

    def __init__(self, left, right, factors=(), dt: float = 0.0):
        left = np.asarray(left, dtype=float)
        # a copy: a view would keep the caller's array of both halves alive
        right = np.array(right, dtype=float)
        n, W = left.shape[-1], _MARCH_ROWS
        self.oldest = right
        # lag d in column W + n - d, W zeros past either end of the lags
        table = np.zeros(left.shape[:-1] + (n + 1 + 2 * W,))
        self.lags = table[..., W : W + n + 1][..., ::-1]
        self.lags[..., :n] += left
        self.lags[..., 1:] += right
        self.near = table[..., n + 1 : n + 1 + W]
        self._table, self._pad = np.atleast_2d(table), W
        self._factors, self._dt = factors, dt

    @classmethod
    def of(cls, kernel, order: int, n: int, dt: float) -> HistoryConvolution | _ExponentialHistory:
        """The sums of w = the order-th time derivative of G over n steps of
        dt: order 1 the leapfrog's memory dG, 2 the ledger's curvature d2G,
        and -1 the Volterra factor int_0^s G.  kernel is a shifted modulus,
        bounded at 0, or a sequence of K of them for K weight sets, (K, n).

        The weights come from interval_weights on the two tower members
        below w, which the kernel's _tower reads by order, and the far
        sums' tail fits w itself, the member at the order.  The rate and
        curvature get the exponential backend, one term list per kernel,
        when every kernel is a PronyKernel, a constant modulus (no terms)
        included; a single kernel counts as a list of one.
        """
        single = isinstance(kernel, RelaxationKernel)
        kernels = [kernel] if single else kernel
        if order > 0 and all(isinstance(k, PronyKernel) for k in kernels):
            return _ExponentialHistory(kernels, order, dt)
        pairs = [
            interval_weights(partial(k._tower, order - 1), partial(k._tower, order - 2), n, dt)
            for k in kernels
        ]
        left, right = np.array(pairs).swapaxes(0, 1)
        factors = [partial(k._tower, order) for k in kernels]
        return cls(left[0], right[0], factors, dt) if single else cls(left, right, factors, dt)

    def adjoint(self, a: np.ndarray) -> np.ndarray:
        """y[k, p, m] = sum_j a[p, j] w_j[m] over the rows j = 1 .. n, w_j
        the level weights of row j of weight set k: (K, P, n + 1) for P
        time profiles a, (P, n + 1), and K = 1 for a single weight set;
        a[:, 0] weighs nothing.

        The transpose of the row-by-row sums, so a[p] @ (row sums of q)
        equals y[k, p] @ q for samples q of any shape: a diagnostic that
        only tests the sums against time profiles projects q first and
        never forms them.  Level 0 takes oldest[j - 1] from each row j, one
        (1, n) @ (n, P) product per weight set.  The levels above it form a
        Toeplitz product in blocks of B = W: block b of y gains a's block
        b + d @ M_d, M_d[s, r] = lags[d B + s - r], the _block of the rows
        d B + 1 .. (d + 1) B on the levels 1 .. B (the padding's zeros past
        either end of the lags), one product per offset d, batched over the
        weight sets.  A weight set's products, and so its bits, are its
        lone history's.
        """
        a = np.atleast_2d(np.asarray(a, dtype=float))
        P, n, B = a.shape[0], a.shape[1] - 1, self._pad
        nb, oldest, K = -(-n // B), np.atleast_2d(self.oldest), self._table.shape[0]
        # a's blocks, (nb, P, B): a[d:] is a row-major ((nb - d) P, B) matrix
        blocks = np.zeros((P, nb * B))
        blocks[:, :n] = a[:, 1:]
        blocks = blocks.reshape(P, nb, B).swapaxes(0, 1).copy()
        y = np.zeros((K, nb * P, B))
        for d in range(nb):
            # M_d, (K, B, B), one at a time: all of them would hold K nb B^2
            y[:, : (nb - d) * P] += blocks[d:].reshape(-1, B) @ self._block(d * B + 1, (d + 1) * B + 1, 1, B + 1)
        out = np.empty((K, P, n + 1))
        out[:, :, 0] = (oldest[:, None, :n] @ a[:, 1:].T)[:, 0]
        out[:, :, 1:] = y.reshape(K, nb, P, B).transpose(0, 2, 1, 3).reshape(K, P, nb * B)[:, :, :n]
        return out

    def _block(self, j0: int, j1: int, m0: int, m1: int) -> np.ndarray:
        """(K, j1 - j0, m1 - m0) weights of the rows j0 .. j1 - 1 on the
        levels m0 .. m1 - 1, a copy; lags j - m at most W outside 0 .. n
        read as 0, and IndexError for a lag past that."""
        # row j on level m weighs lag j - m, in column W + n - j + m: the
        # window starts at row j1 - 1, then a copy in row order for the product
        table, W = self._table, self._pad
        rows, cols, start = j1 - j0, m1 - m0, table.shape[1] - W - j1 + m0
        if not 0 <= start <= table.shape[1] + 1 - rows - cols:
            raise IndexError(f"the rows {j0} .. {j1 - 1} on the levels {m0} .. {m1 - 1} reach past the table")
        stride = table.strides
        window = np.lib.stride_tricks.as_strided(table[:, start:], (len(table), rows, cols), (*stride, stride[1]))
        return window[:, ::-1].copy()

    @cached_property
    def tail(self) -> _ExponentialTail | None:
        """The far sums' fit; None without factors, for n <= 2 W, where no
        row reaches past the previous block, and when any weight set's
        checked error passes _TAIL_TOLERANCE."""
        W, n, dt = self._pad, self.lags.shape[-1] - 1, self._dt
        if not self._factors or n <= 2 * W:
            return None
        tail = _ExponentialTail.fit(self._factors, (W - 1) * dt, n * dt, dt)
        return tail if np.all(tail.error <= _TAIL_TOLERANCE) else None

    def far_sums(self, stack: np.ndarray, j0: int, out: np.ndarray) -> np.ndarray:
        """The sums of the rows j0 .. j1 - 1 of a block on the levels 0 ..
        j0 - 1 of stack, (K, 1 + R, N), written into out, (K, j1 - j0, N).
        stack holds level m in _slot(m, R): R is 3 W, or a whole stack,
        which never wraps.

        A march asks for its blocks in turn, j0 = 1, 1 + W, 1 + 2 W, ....
        Row j weighs level 0 by oldest[j - 1], and the levels of the
        previous block by their lags, so with its own block every lag below
        2 W is exact.  The levels 1 .. M = j0 - W - 1 before them enter
        through the tail's L + 2 states per weight set, folded in W levels
        at a time and read out once per block, each one product per weight
        set; without a tail M stays 0 and the previous-block sums reach
        back to level 1, in chunks of W levels.
        """
        W, j1, ring = self._pad, j0 + out.shape[1], stack.shape[1] - 1

        def levels(m0, m1):
            # a chunk starts on a block's first level, so it never wraps
            start = _slot(m0, ring)
            return stack[:, start : start + m1 - m0]

        np.multiply(self.oldest[..., j0 - 1 : j1 - 1, None], stack[:, :1], out=out)
        M = j0 - W - 1 if j0 > 2 * W and self.tail is not None else 0
        if M:
            if M == W:
                # the first fold, of the levels 1 .. W, starts from zero states
                tail = self.tail
                states = np.zeros((out.shape[0], tail.ratios.size + 2, out.shape[2]))
                self._tail_sums = (tail.readout(np.arange(W + 1, 2 * W + 1)), *tail.fold(W), states)
            readout, decay, fold, states = self._tail_sums
            states[:, :-2] *= decay[:, None]
            states[:, -1] += W * states[:, -2]
            states += np.matmul(fold, levels(M - W + 1, M + 1))
            out += np.matmul(readout[:, : j1 - j0], states)
        for m0 in range(M + 1, j0, W):
            m1 = min(m0 + W, j0)
            out += np.matmul(self._block(j0, j1, m0, m1), levels(m0, m1))
        return out

    def row_sums(self, stack: np.ndarray, j: int) -> np.ndarray:
        """The sums of row j of every weight set on the levels 0 .. j of
        stack, (K, 1 + R, N) as far_sums reads it: (K, N), which the next
        call writes over.  The rows come in turn from j = 1.  A block's
        first row takes the block's far_sums, and each row then adds the
        block's levels up to its own by near's last lags, one product for
        all K."""
        W = self._pad
        first = j - (j - 1) % W
        if j == 1:
            self._far = np.empty((stack.shape[0], W, stack.shape[2]))
        if j == first:
            self.far_sums(stack, j, self._far[:, : min(W, self.lags.shape[-1] - j)])
        start, own = _slot(first, stack.shape[1] - 1), j + 1 - first
        near = np.matmul(self.near.reshape(-1, 1, W)[:, :, W - own :], stack[:, start : start + own])[:, 0]
        near += self._far[:, j - first]
        return near


class _ExponentialHistory:
    """Sums of w = dG (order 1) or d2G (order 2) for K Prony kernels, one
    weight set each, by recursion; HistoryConvolution.of builds it.

    A term g e^{-t/tau} of G has interval weights geometric in the lag,
    left[d] = r^d left[0] and right[d] = r^d right[0] with r = e^{-dt/tau},
    so its share of row j is

        C_j = r C_{j-1} + left[0] p_j + right[0] p_{j-1},   C_0 = 0,

    and row_sums returns the sum of C_j over each kernel's terms: O(terms N)
    per step and shift, reading only the two newest levels.  It holds one
    state C per term and no lag table, and needs no tail.  Without terms
    every sum is an exact zero.  terms holds exponential_terms' (r, left[0],
    right[0]) per term, one list per kernel.
    """

    backend = "exponential"
    tail = None

    def __init__(self, kernels, order: int, dt: float):
        self.terms = [exponential_terms(k, dt, order) for k in kernels]

    def row_sums(self, stack: np.ndarray, j: int) -> list:
        """The sums of row j of every weight set, K arrays (N,), from the
        levels j - 1 and j of stack, (K, 1 + R, N) as far_sums reads it.
        The rows come in turn from j = 1; the arrays may be reused, do not
        keep them."""
        newest, previous = (stack[:, _slot(m, stack.shape[1] - 1)] for m in (j, j - 1))
        if j == 1:
            # without terms the one zero state is every row's sum
            self._states = [[np.zeros(stack.shape[2]) for _ in range(max(1, len(t)))] for t in self.terms]
            self._product = np.empty(stack.shape[2])
        product = self._product
        for states, terms, new, old in zip(self._states, self.terms, newest, previous):
            for state, (r, left0, right0) in zip(states, terms):
                state *= r
                state += np.multiply(new, left0, out=product)
                state += np.multiply(old, right0, out=product)
        return [states[0] if len(states) == 1 else sum(states[1:], states[0]) for states in self._states]


def _finished(block: np.ndarray, j0: int, shifts) -> np.ndarray:
    """block, the levels j0 .. of every shift in shifts, (K, rows, ...),
    once every value is finite; else SolverAbort at its earliest non-finite
    step, naming the first shift that fails there.  The rows are scanned
    only where the sum is not finite, as it is unless a value is not."""
    if np.isfinite(block.sum()):
        return block
    finite = np.isfinite(block.reshape(block.shape[:2] + (-1,))).all(axis=2)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=0)))
        raise SolverAbort(j0 + row, "non-finite values", float(shifts[np.argmin(finite[:, row])]))
    return block


# ---------------------------------------------------------------------------
# integro-differential leapfrog
# ---------------------------------------------------------------------------


def _march_leapfrog(specs, history, levels: np.ndarray, rows: int, data):
    """March every spec of specs, one problem at K shifts, from march's
    flat data (p, factor, u0, u1), with history's weight set for each, into
    levels, (K, 1 + R, *grid.shape): per shift level m in _slot(m, R), R a
    multiple of rows or J.  A generator of the finished blocks, (j0, the
    levels j0 .. j1 - 1 of every shift), level 0 first, then rows at a time:
    views of levels that the march writes over later.  A block with a
    non-finite value aborts the march (_finished).

        u_{j+1} = 2 u_j - u_{j-1} + dt^2 (-mu (g0 u_j + H_j) + f_j)

    in sine coefficients on levels' flat (K, 1 + R, N) view, H_j =
    history.row_sums of the levels 0 .. j, one call for all K shifts.  Each
    step then takes the shifts one at a time, each with its own g0: at N =
    99 a step is mostly Python calls, and one product over a shift axis
    cost more than it saved.  An unforced spec's steps add no f_j: its
    zeros would only turn a -0.0 acceleration into +0.0 (a test holds the
    levels' bits against a zero forcing's), and cost 0.4 of the 3.7 ms of
    prony_single's march.
    """
    spec = specs[0]
    dt, J = spec.dt, spec.n_steps
    p, factor, u0, u1 = data
    ring = levels.shape[1] - 1
    stack = levels.reshape(len(specs), ring + 1, -1)
    shifts = [s.eps for s in specs]
    minus_mu = -spec.grid.eigenvalues.reshape(-1)
    moduli = [s.kernel.modulus(s.eps) for s in specs]
    stack[:, 0] = u0
    yield 0, _finished(levels[:, :1], 0, shifts)
    for lane, g0 in zip(stack, moduli):
        lane[1] = u0 + dt * u1 + 0.5 * dt * dt * (g0 * (minus_mu * u0) + factor[0] * p)
    accel, push = np.empty((2, stack.shape[2]))
    forced = spec.forcing is not None
    for j in range(1, J + 1):
        if j % rows == 0 or j == J:
            j0 = j - (j - 1) % rows
            slot = _slot(j0, ring)
            yield j0, _finished(levels[:, slot : slot + j + 1 - j0], j0, shifts)
        if j == J:
            return
        if forced:
            np.multiply(p, factor[j], out=push)
        previous, current, new = (stack[:, _slot(m, ring)] for m in (j - 1, j, j + 1))
        # the rows 1 .. J - 1: the last step reads no history sum
        for g0, h, older, now, newer in zip(moduli, history.row_sums(stack, j), previous, current, new):
            np.multiply(now, g0, out=accel)
            accel += h
            accel *= minus_mu
            if forced:
                accel += push
            accel *= dt * dt
            np.multiply(now, 2.0, out=newer)
            newer -= older
            newer += accel


def run_block(n_total: int, n_levels: int) -> int:
    """Levels a single run's march and audits take at a time: the largest
    divisor of _MARCH_ROWS of at least 3 levels that holds at most an
    eighth of the run's n_levels and whose levels of n_total nodes fit in
    _BLOCK_BYTES, else the smallest such divisor.  1 MiB was measured: 4
    levels of 31^3 nodes held 9 MiB less than 16, and were no faster."""
    W = _MARCH_ROWS
    sizes = [W // k for k in range(1, W // 3 + 1) if W % k == 0]
    fits = (b for b in sizes if 8 * b * n_total <= _BLOCK_BYTES and 8 * b <= n_levels)
    return next(fits, sizes[-1])


def march(spec: ProblemSpec, shifts=None):
    """(records, levels, blocks): spec marched at every shift eps in
    shifts, [spec.eps] by default, as one march of K shifts.  records
    holds each shift's RunRecord, levels is the level buffer, (K, 1 + R,
    *grid.shape), and blocks the march's generator of finished blocks,
    (j0, the levels j0 .. j1 - 1 of every shift), level 0 first: views
    that the march writes over later.

    One history, HistoryConvolution.of the K shifted kernels, sums every
    shift.  levels holds each shift's level 0 and a ring of the R slots
    the march reads: for the leapfrog's exponential history a block of
    run_block levels; for a direct history with a tail, the 3 _MARCH_ROWS
    levels the far sums reach.  A direct history without a tail reads
    every level, so where any shift's fit is refused every shift sums
    directly, in the whole stack, R = J.  Every shift's spec is built, and
    so checks its own time step, before any of them marches.  An abort
    stops every shift, and names the earliest non-finite step and the
    first shift that fails at it.
    """
    grid, J, dt = spec.grid, spec.n_steps, spec.dt
    shifts = [spec.eps] if shifts is None else [float(e) for e in shifts]
    specs = [spec if e == spec.eps else replace(spec, eps=e) for e in shifts]
    volterra = spec.formulation == "integral_volterra"
    # the Volterra factor Ksh(s), the integral of each shifted modulus, over
    # the J rows; the leapfrog's memory dG over the rows 1 .. J - 1, as the
    # last step reads no history sum
    order, n = (-1, J) if volterra else (1, J - 1)
    history = HistoryConvolution.of([translate(spec.kernel, e) for e in shifts], order, n, dt)
    # the margin, z_max of a Volterra run or dt_over_limit of a leapfrog's;
    # a tail's terms and each weight set's checked error
    top, tail = float(grid.eigenvalues.max()), history.tail
    records = [
        RunRecord(
            s.fingerprint(),
            float(history.lags[k, 0]) * top if volterra else None,
            None if volterra else dt / stable_time_step(grid, s.kernel.modulus(s.eps)),
            history.backend,
            *(() if tail is None else (tail.ratios.size, float(tail.error[k]))),
        )
        for k, s in enumerate(specs)
    ]
    rows = _MARCH_ROWS if volterra else run_block(grid.n_total, J + 1)
    # an exponential step reads the two newest levels and writes a third
    # slot, and a block holds four or more
    reach = rows if history.backend == "exponential" else J if tail is None else 3 * _MARCH_ROWS
    ring = min(reach, J)
    levels = np.empty((len(shifts), 1 + ring) + grid.shape)
    # either march's data: the forcing's factor, the flat sine coefficients of its profile, u0 and u1
    profile, factor = spec.forcing_parts()
    p, u0, u1 = (sine_transform(grid, f).reshape(-1) for f in (profile, spec.u0.values, spec.u1.values))
    data = p, factor, u0, u1
    if volterra:
        return records, levels, _march_volterra(spec, shifts, history, levels, data)
    return records, levels, _march_leapfrog(specs, history, levels, rows, data)


# ---------------------------------------------------------------------------
# integral (Volterra) march
# ---------------------------------------------------------------------------


def _march_volterra(spec: ProblemSpec, shifts, history: HistoryConvolution, levels: np.ndarray, data):
    """March spec at every shift eps in shifts at once, with history's
    weight set for each, into levels, (K, 1 + R, *grid.shape) as far_sums
    reads them, from march's flat data (p, factor, u0, u1): one step for
    all K shifts.  A generator of the finished blocks, (j0, the levels j0
    .. j1 - 1 of every shift), level 0 first.

    The box Laplacian is diagonal in sine modes, -mu, so step j solves its
    self-term lags[0] lap u_j exactly and needs no Laplacian:

        u_j = (-mu H_j + t_j u1 + u0 + F_j) / (1 + lags[0] mu),

    all in sine coefficients, with H_j the history sum of the levels before
    j and F_j = C2_j p the integrated forcing: p the profile's coefficients
    and C2 the factor integrated twice.

    The march steps in blocks of W = _MARCH_ROWS rows.  At a block's first
    row j0, HistoryConvolution.far_sums writes the sums of its rows over
    the levels 0 .. j0 - 1 straight into the block's own slots: exact lags
    for level 0 and the previous block, the tail's states for the levels
    before them.  Each slot then gains its row's data term over -mu,
    (t_j u1 + u0 + F_j) / (-mu), for all rows at once.

    Row i of the block is then three operations: the product of its
    weights lags[i] .. lags[1], 1 with the slots 0 .. i, which gives
    H_j + data / (-mu); that sum times -mu; and the division by
    1 + lags[0] mu into slot i.  The product by -mu comes before the
    division, as in the formula above: one factor -mu / (1 + lags[0] mu)
    stays finite where the product by -mu overflows, so a march that
    blows up would report inf some steps later (641 for 638 in the abort
    tests of TestVolterraTail).  Every operation acts on each shift's
    coefficients alone, as a one-shift march would, so a shift's levels
    do not depend on the other shifts, nor on where the ring keeps them.
    """
    grid, dt, J = spec.grid, spec.dt, spec.n_steps
    K, ring = levels.shape[0], levels.shape[1] - 1
    stack = levels.reshape(K, ring + 1, -1)

    W = _MARCH_ROWS
    mu = grid.eigenvalues.reshape(-1)
    minus_mu = -mu
    # the newest level of every row weighs lags[0]
    denominator = 1.0 + history.lags[:, :1, None] * mu
    # a row's weights on the block's levels, newest last: near's lags W - 1
    # .. 1 (0 past lag J) and 1 for the slot of its own far sum and data term
    table = history.near[:, None].copy()
    table[..., -1] = 1.0

    p, factor, u0, u1 = data
    c2 = double_trapezoid(factor, dt)
    times = spec.times
    stack[:, 0] = u0
    yield 0, _finished(levels[:, :1], 0, shifts)

    data = np.empty((W, stack.shape[2]))
    h = np.empty((K, 1, stack.shape[2]))
    for j0 in range(1, J + 1, W):
        j1 = min(j0 + W, J + 1)
        slot = _slot(j0, ring)
        rows = history.far_sums(stack, j0, stack[:, slot : slot + j1 - j0])
        # the data terms t_j u1 + u0 + C2_j p of every row, over -mu
        terms = data[: j1 - j0]
        np.multiply(times[j0:j1, None], u1, out=terms)
        terms += u0
        terms += c2[j0:j1, None] * p
        terms /= minus_mu
        rows += terms
        for i in range(j1 - j0):
            np.matmul(table[:, :, W - 1 - i :], rows[:, : i + 1], out=h)
            h *= minus_mu
            np.divide(h, denominator, out=rows[:, i : i + 1])
        yield j0, _finished(levels[:, slot : slot + j1 - j0], j0, shifts)


def run(spec: ProblemSpec) -> TrajectorySolution:
    """Solve spec; a TrajectorySolution of every level, its march's blocks
    copied as they come into a (J + 1, *grid.shape) stack: the march's
    buffer where it holds every level, else a fresh one."""
    (record,), levels, blocks = march(spec)
    stack = levels if levels.shape[1] == spec.n_steps + 1 else np.empty((1, spec.n_steps + 1) + spec.grid.shape)
    for j0, block in blocks:
        # a copy onto itself where the stack is the march's buffer: numpy skips it
        stack[:, j0 : j0 + block.shape[1]] = block
    return TrajectorySolution(spec.grid, spec.times, stack[0], record)


# ---------------------------------------------------------------------------
# uniaxial stress response
# ---------------------------------------------------------------------------


def _strain_samples(strain_history, dt: float) -> np.ndarray:
    E = np.asarray(strain_history, dtype=float)
    if E.ndim != 1 or E.size < 1:
        raise ValueError("strain history must be a 1-d sample array")
    if not dt > 0:
        raise ValueError("dt must be positive")
    return E


def compute_stress(
    kernel: RelaxationKernel,
    strain_history: np.ndarray,
    dt: float,
    past_value: float = 0.0,
) -> float:
    """Stress at t = (len(history) - 1) * dt for a sampled strain path.

    strain_history holds E(0), E(dt), ..., E(t) on a uniform grid; the
    strain equals past_value for all times < 0.  The stress is

        G(t) E(0) + int_0^t G(tau) dE(t - tau) dtau + past_value * (G(inf) - G(t)),

    which needs only integrals of G, so it holds for moduli unbounded at
    t = 0 too.  The strain rate of the piecewise-linear interpolant is
    piecewise constant, so the integral is exact for it.
    """
    E = _strain_samples(strain_history, dt)
    return float(_stresses(kernel, E, dt, past_value, [E.size - 1])[0])


def stress_curve(
    kernel: RelaxationKernel,
    strain_history: np.ndarray,
    dt: float,
    past_value: float = 0.0,
) -> np.ndarray:
    """compute_stress of every prefix strain_history[: M + 1], M = 1 .. n.

    Entry M - 1 equals compute_stress on that prefix bit for bit; the
    weights are built once for the whole path, not once per prefix.
    """
    E = _strain_samples(strain_history, dt)
    return _stresses(kernel, E, dt, past_value, range(1, E.size))


def _stresses(kernel, E: np.ndarray, dt: float, past_value: float, levels) -> np.ndarray:
    """Stress at t_M = M dt from the samples E[: M + 1], for each M in levels."""
    n = E.size - 1
    g_inf = kernel.value_at_inf
    slopes = np.diff(E) / dt
    increments = np.diff(kernel.integral(dt * np.arange(n + 1)))
    out = []
    for M in levels:
        g_t = kernel.modulus(M * dt)
        conv = float(np.dot(increments[:M], slopes[M - 1 :: -1])) if M else 0.0
        out.append(g_t * E[0] + conv + past_value * (g_inf - g_t))
    return np.array(out)
