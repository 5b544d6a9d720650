"""Relaxation-modulus families for materials with memory.

Every family exposes the modulus G(t), its first two time derivatives, and
the antiderivative tower

    integral(x)  = int_0^x G,
    integral2(x) = int_0^x integral,
    integral3(x) = int_0^x integral2,

all in closed form.  Closed forms keep the product-quadrature weights and
the admissibility checks free of numerical integration error, including
for moduli that blow up at t = 0 (power laws with exponent in (0, 1)).

Each family writes the six members once, as _tower(order, t) indexed by
derivative order: 2, 1 and 0 are G'', G' and G, and -1, -2 and -3 the
integrals.  The public methods check the domain and read it by order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "KernelDomainError",
    "RelaxationKernel",
    "PronyKernel",
    "PowerLawKernel",
    "KernelSum",
    "translate",
    "kernel_diff_bound",
    "AdmissibilityReport",
    "check_admissibility",
    "check_fading_memory",
    "KERNEL_KEYS",
    "finite_number",
    "kernel_from_dict",
]


class KernelDomainError(ValueError):
    """Kernel evaluated outside its time domain."""


class RelaxationKernel:
    """Base interface: pointwise modulus calculus plus its integrals.

    Pointwise evaluations accept scalars or arrays and reject negative
    times; families that are unbounded at t = 0 also reject t = 0.  The
    integral tower is defined for all x >= 0 even in the unbounded case.
    """

    # -- analytic structure flags ------------------------------------

    @property
    def singular_at_zero(self) -> bool:
        """Whether G is unbounded at t = 0.  G is nonincreasing, so
        int_0^1 |dG/dt| = G(0+) - G(1): this is also whether the rate
        fails to be integrable near 0, the one regularity the paper drops."""
        raise NotImplementedError

    @property
    def value_at_inf(self) -> float:
        """Equilibrium modulus, lim G(t) for t -> infinity."""
        raise NotImplementedError

    @property
    def integrable_on_halfline(self) -> bool:
        """Whether G is integrable on (0, infinity)."""
        raise NotImplementedError

    # -- raw closed forms, array-in/array-out ------------------------

    def _tower(self, order: int, t: np.ndarray) -> np.ndarray:
        """Tower member order at t, for order -3 .. 2: the order-th time
        derivative of G for 0 .. 2, and for -1 .. -3 the -order-fold
        integral of G from 0.  ValueError for any other order."""
        raise NotImplementedError

    # -- validated public evaluations --------------------------------

    def _eval(self, t, order: int):
        arr = np.asarray(t, dtype=float)
        if np.any(arr < 0.0):
            what = "integrated modulus is defined for x" if order < 0 else "modulus is defined for t"
            raise KernelDomainError(f"{what} >= 0 only")
        if order >= 0 and self.singular_at_zero and np.any(arr == 0.0):
            raise KernelDomainError(
                f"modulus is unbounded at t = 0 ({self!r}); "
                "evaluate at t > 0 or use a translated kernel"
            )
        out = self._tower(order, arr)
        return float(out) if np.ndim(t) == 0 else out

    def modulus(self, t):
        return self._eval(t, 0)

    def modulus_dt(self, t):
        return self._eval(t, 1)

    def modulus_dtt(self, t):
        return self._eval(t, 2)

    def integral(self, x):
        return self._eval(x, -1)

    def integral2(self, x):
        return self._eval(x, -2)

    def integral3(self, x):
        return self._eval(x, -3)


def _check_order(order: int) -> None:
    if order not in range(-3, 3):
        raise ValueError(f"tower order {order!r} is outside -3 .. 2")


@dataclass(frozen=True)
class PronyKernel(RelaxationKernel):
    """G(t) = g_inf + sum_i g_i exp(-t / tau_i).

    With no terms it is the constant modulus g_inf, the purely elastic
    degenerate member of the family.
    """

    g_inf: float
    terms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "terms", tuple((float(g), float(tau)) for g, tau in self.terms)
        )
        if not (self.g_inf >= 0 and math.isfinite(self.g_inf)):
            raise ValueError(f"g_inf must be finite and >= 0, got {self.g_inf}")
        for g, tau in self.terms:
            if not (g > 0 and math.isfinite(g)):
                raise ValueError(f"term weight must be positive and finite, got {g}")
            if not (tau > 0 and math.isfinite(tau)):
                raise ValueError(f"relaxation time must be positive and finite, got {tau}")
        if self.g_inf == 0 and not self.terms:
            raise ValueError("kernel would be identically zero")

    @property
    def singular_at_zero(self) -> bool:
        return False

    @property
    def value_at_inf(self) -> float:
        return self.g_inf

    @property
    def integrable_on_halfline(self) -> bool:
        return self.g_inf == 0.0

    def _tower(self, order, t):
        _check_order(order)
        if order >= 0:
            # d^order/dt^order of g e^{-t/tau} is (-1)^order g / tau^order e^{-t/tau}
            out = np.full_like(t, self.g_inf) if order == 0 else np.zeros_like(t)
            for g, tau in self.terms:
                out += (-1) ** order * (g / tau**order) * np.exp(-t / tau)
            return out
        if order == -1:
            out = self.g_inf * t
            for g, tau in self.terms:
                out += g * tau * (-np.expm1(-t / tau))
        elif order == -2:
            out = self.g_inf * t * t / 2.0
            for g, tau in self.terms:
                out += g * tau * (t - tau * (-np.expm1(-t / tau)))
        else:
            out = self.g_inf * t**3 / 6.0
            for g, tau in self.terms:
                out += g * tau * (t * t / 2.0 - tau * t + tau**2 * (-np.expm1(-t / tau)))
        return out


@dataclass(frozen=True, repr=False)
class PowerLawKernel(RelaxationKernel):
    """G(t) = c * (t + offset)**(-alpha) with 0 < alpha < 1.

    At offset 0, unbounded at t = 0, and dG/dt is not integrable near 0;
    still G is integrable on any finite window, which is what the integral
    tower and the solvers rely on.  A positive offset is a shift made by
    translate(): G is bounded, and the tower K, K2, K3 of c t**(-alpha) is
    re-based at e = offset so that integral(0) = 0,

        integral(x)  = K(e + x) - K(e)
        integral2(x) = K2(e + x) - K2(e) - K(e) x
        integral3(x) = K3(e + x) - K3(e) - K2(e) x - K(e) x^2 / 2.
    """

    c: float
    alpha: float
    offset: float = 0.0

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not (self.offset >= 0 and math.isfinite(self.offset)):
            raise KernelDomainError(f"shift must be finite and >= 0, got {self.offset}")

    def __repr__(self) -> str:
        # an unshifted power law reads as it always has: specs fingerprint it
        offset = f", offset={self.offset!r}" if self.offset else ""
        return f"PowerLawKernel(c={self.c!r}, alpha={self.alpha!r}{offset})"

    @property
    def singular_at_zero(self) -> bool:
        return self.offset == 0.0

    @property
    def value_at_inf(self) -> float:
        return 0.0

    @property
    def integrable_on_halfline(self) -> bool:
        return False

    def _at(self, t):
        """t + offset; t itself at offset 0, where t + 0.0 would turn a 0-d
        array into a scalar, whose ** 0.5 numpy takes as pow, not sqrt."""
        return t + self.offset if self.offset else t

    def _tower(self, order, t):
        _check_order(order)
        if order >= 0:
            # (-alpha)(-alpha - 1)... c, the derivatives' falling factorial
            scale = math.prod(-self.alpha - i for i in range(order)) * self.c
            with np.errstate(divide="ignore"):
                return scale * self._at(t) ** (-self.alpha - order)
        # the integrals re-based at the offset, their terms subtracted in
        # the order the class docstring writes them
        level = -order
        out = self._unshifted(self._at(t), level)
        if self.offset:
            e = np.asarray(self.offset, dtype=float)
            out = out - self._unshifted(e, level)
            if level > 1:
                out = out - self._unshifted(e, level - 1) * t
            if level > 2:
                out = out - self._unshifted(e, 1) * t * t / 2.0
        return out

    def _unshifted(self, x, level: int):
        """Level 1, 2 or 3 of the tower of c t**(-alpha) at x."""
        a = 1.0 - self.alpha
        return self.c * x ** (a + (level - 1)) / math.prod(a + i for i in range(level))


@dataclass(frozen=True)
class KernelSum(RelaxationKernel):
    """Sum of kernels; at most one power-law part so closed forms stay simple."""

    parts: tuple[RelaxationKernel, ...]

    def __post_init__(self):
        flat: list[RelaxationKernel] = []
        for p in self.parts:
            if isinstance(p, KernelSum):
                flat.extend(p.parts)
            elif isinstance(p, (PronyKernel, PowerLawKernel)):
                flat.append(p)
            else:
                raise ValueError(f"unsupported summand type {type(p).__name__}")
        if not flat:
            raise ValueError("sum needs at least one part")
        n_power = sum(isinstance(p, PowerLawKernel) for p in flat)
        if n_power > 1:
            raise ValueError(f"at most one power-law part allowed, got {n_power}")
        object.__setattr__(self, "parts", tuple(flat))

    @property
    def singular_at_zero(self) -> bool:
        return any(p.singular_at_zero for p in self.parts)

    @property
    def value_at_inf(self) -> float:
        return sum(p.value_at_inf for p in self.parts)

    @property
    def integrable_on_halfline(self) -> bool:
        return all(p.integrable_on_halfline for p in self.parts)

    def _tower(self, order, t):
        out = self.parts[0]._tower(order, t)
        for p in self.parts[1:]:
            out = out + p._tower(order, t)
        return out


def translate(kernel: RelaxationKernel, eps: float) -> RelaxationKernel:
    """G(eps + .) as a member of the kernel's own family, its integral tower
    re-based so that integral(0) = 0.  A Prony series takes the weights
    g e^{-eps/tau}; one that underflows to 0 keeps its term, which adds
    exact zeros, so the shift skips the checks that refuse zero weights of a
    given kernel.  A power law takes the shift as its offset, and a sum is
    the sum of its shifted parts.  A zero shift is the kernel itself, and so
    is any shift of a constant modulus.
    """
    if eps == 0.0:
        return kernel
    if not (eps > 0 and math.isfinite(eps)):
        raise KernelDomainError(f"shift must be positive and finite, got {eps}")
    if isinstance(kernel, KernelSum):
        return KernelSum(tuple(translate(p, eps) for p in kernel.parts))
    if isinstance(kernel, PowerLawKernel):
        return PowerLawKernel(kernel.c, kernel.alpha, kernel.offset + float(eps))
    if not kernel.terms:
        return kernel
    shifted = object.__new__(PronyKernel)
    object.__setattr__(shifted, "g_inf", kernel.g_inf)
    terms = tuple((g * math.exp(-eps / tau), tau) for g, tau in kernel.terms)
    object.__setattr__(shifted, "terms", terms)
    return shifted


def kernel_diff_bound(kernel: RelaxationKernel, eps: float, s) -> np.ndarray:
    """int_s^{s+eps} G(tau) dtau = K(s+eps) - K(s), per grid point.

    The quantity that controls how far the shifted problem sits from the
    unshifted one; nonincreasing in s, and -> 0 as eps -> 0.
    """
    if not eps > 0:
        raise KernelDomainError(f"shift must be positive, got {eps}")
    arr = np.asarray(s, dtype=float)
    if np.any(arr < 0):
        raise KernelDomainError("grid points must be >= 0")
    out = kernel._tower(-1, arr + eps) - kernel._tower(-1, arr)
    return float(out) if np.ndim(s) == 0 else out


# ---------------------------------------------------------------------------
# admissibility and fading memory
# ---------------------------------------------------------------------------


class AdmissibilityReport(NamedTuple):
    """Sign conditions sampled on a log grid, plus analytic regime flags."""

    times: np.ndarray
    modulus_values: np.ndarray
    rate_values: np.ndarray
    curvature_values: np.ndarray
    modulus_positive: bool
    rate_nonpositive: bool
    curvature_nonnegative: bool
    bounded_at_zero: bool
    rate_integrable_at_zero: bool
    integrable_on_window: bool
    integrable_on_halfline: bool

    @property
    def passed(self) -> bool:
        return self.modulus_positive and self.rate_nonpositive and self.curvature_nonnegative

    @property
    def regime(self) -> str:
        """'classical' when the modulus is bounded at t = 0, else 'singular'."""
        return "classical" if self.bounded_at_zero else "singular"


def check_admissibility(
    kernel: RelaxationKernel, horizon: float, n_samples: int = 200
) -> AdmissibilityReport:
    """Sample G > 0, dG/dt <= 0, d2G/dt2 >= 0 on a log-spaced grid in (0, horizon].

    A failing kernel yields a failing report rather than an exception, so
    deliberately broken kernels can be inspected.
    """
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    times = np.geomspace(horizon * 1e-12, horizon, n_samples)
    g, gd, gdd = (kernel._tower(order, times) for order in (0, 1, 2))
    return AdmissibilityReport(
        times=times,
        modulus_values=g,
        rate_values=gd,
        curvature_values=gdd,
        modulus_positive=bool(np.all(g > 0)),
        rate_nonpositive=bool(np.all(gd <= 0)),
        curvature_nonnegative=bool(np.all(gdd >= 0)),
        bounded_at_zero=not kernel.singular_at_zero,
        # for a nonincreasing G, int_0^1 |dG/dt| = G(0+) - G(1)
        rate_integrable_at_zero=not kernel.singular_at_zero,
        # G stays integrable on (0, horizon] for every family here; the
        # half-line question is the one that separates the families.
        integrable_on_window=True,
        integrable_on_halfline=kernel.integrable_on_halfline,
    )


def check_fading_memory(
    kernel: RelaxationKernel,
    history_norm_bound: float,
    tol: float,
) -> float:
    """Smallest shift a* past which bounded histories stop mattering.

    Uses the analytic tail int_a^inf |dG/dt| = G(a) - G(inf): returns the
    smallest a* with  history_norm_bound * (G(a*) - G(inf)) <= tol,  so any
    history bounded by history_norm_bound contributes less than tol beyond
    the shift.  Returns math.inf when no shift below 1e12 achieves the
    tolerance.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not history_norm_bound >= 0:
        raise ValueError("history bound must be nonnegative")
    g_inf = kernel.value_at_inf

    def tail(a: float) -> float:
        # a > 0 throughout: lo stops halving at 1e-30
        return history_norm_bound * (float(kernel._tower(0, np.asarray(a, float))) - g_inf)

    lo = 1.0
    while tail(lo) <= tol:
        lo /= 2.0
        if lo < 1e-30:
            return 0.0
    hi = 2.0 * lo
    while tail(hi) > tol:
        hi *= 2.0
        if hi > 1e12:
            return math.inf
    # tail(lo) > tol >= tail(hi): bisect down to adjacent floats, so hi is
    # the smallest float meeting the tolerance.
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if tail(mid) > tol:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# construction from config mappings
# ---------------------------------------------------------------------------

KERNEL_KEYS = {
    "constant": ("g0",),
    "prony": ("g_inf", "terms"),
    "powerlaw": ("c", "alpha"),
    "sum": ("parts",),
}


def finite_number(key: str, value) -> float:
    """A JSON number or numeric text, finite: a kernel number or a profile
    parameter.  TypeError for anything else that is not a number, bools
    included."""
    try:
        if isinstance(value, bool):
            raise TypeError
        number = float(value)
    except (TypeError, ValueError):
        raise TypeError(f"{key} = {value!r} is not a number") from None
    if not math.isfinite(number):
        raise ValueError(f"{key} = {number!r} is not finite")
    return number


def kernel_from_dict(spec: dict) -> RelaxationKernel:
    """Build a kernel from a {'family': ..., ...} mapping: a config's
    [kernel] section or one part of a sum, under the same rules.

    The family name must match a KERNEL_KEYS entry exactly, with exactly
    that family's keys.  A value of the wrong shape or type raises
    ValueError("malformed <family> kernel: ...").  Family 'constant' is
    the Prony kernel with g_inf = g0 and no terms.
    """
    if not isinstance(spec, dict):
        raise TypeError(f"a kernel is a {{'family': ...}} mapping, got {spec!r}")
    if "family" not in spec:
        raise ValueError("kernel mapping needs a 'family' key")
    family = spec["family"]
    if not isinstance(family, str) or family not in KERNEL_KEYS:
        import difflib  # on this error path only: its import costs every process ~1 ms

        near = difflib.get_close_matches(str(family), KERNEL_KEYS, n=1)
        hint = f"; nearest valid: '{near[0]}'" if near else ""
        raise ValueError(
            f"family = {family!r} not recognized (valid: {', '.join(KERNEL_KEYS)}){hint}"
        )
    names = KERNEL_KEYS[family]
    missing = [n for n in names if n not in spec]
    if missing:
        raise ValueError(f"{family} kernel needs keys: {', '.join(missing)}")
    extra = sorted(set(spec) - {"family", *names})
    if extra:
        raise ValueError(f"{family} kernel got unknown keys: {', '.join(extra)}")
    try:
        if family == "constant":
            g0 = finite_number("g0", spec["g0"])
            if not g0 > 0:
                raise ValueError(f"g0 must be positive, got {g0}")
            return PronyKernel(g_inf=g0, terms=())
        if family == "prony":
            terms = spec["terms"]
            if not isinstance(terms, (list, tuple)) or not all(
                isinstance(t, (list, tuple)) and len(t) == 2 for t in terms
            ):
                raise TypeError(f"terms = {terms!r} is not [[g, tau], ...]")
            return PronyKernel(
                g_inf=finite_number("g_inf", spec["g_inf"]),
                terms=tuple((finite_number("g", g), finite_number("tau", tau)) for g, tau in terms),
            )
        if family == "powerlaw":
            return PowerLawKernel(
                c=finite_number("c", spec["c"]), alpha=finite_number("alpha", spec["alpha"])
            )
        return KernelSum(parts=tuple(kernel_from_dict(p) for p in spec["parts"]))
    except TypeError as exc:
        raise ValueError(f"malformed {family} kernel: {exc}") from None
