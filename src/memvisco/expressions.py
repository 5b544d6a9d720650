"""Named closed-form initial data and forcing profiles.

Config files refer to these by name; everything vanishes on the Dirichlet
boundary except 'constant', which is intended for forcing terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from memvisco.grid import Field, Grid
from memvisco.kernels import finite_number

__all__ = ["space_values", "sin_product", "field_from_name", "Forcing", "SPACE_NAMES", "FORCING_NAMES"]

SPACE_NAMES = ("zero", "constant", "sin_pi_product", "sine_mode", "bump")
FORCING_NAMES = ("zero", "constant", "sin_pi_product")


def sin_product(grid: Grid, modes: tuple[int, ...]) -> np.ndarray:
    """prod_k sin(m_k pi x_k / L_k) at the grid nodes, one mode per axis."""
    out = np.ones(grid.shape)
    for axis, (x, L) in enumerate(zip(grid.mesh(), grid.extent)):
        out = out * np.sin(modes[axis] * np.pi * x / L)
    return out


def _normalize_modes(grid: Grid, modes) -> tuple[int, ...]:
    if modes is None:
        return (1,) * grid.dim
    if np.ndim(modes) == 0:
        modes = (modes,) * grid.dim
    out = []
    for m in modes:
        number = finite_number("modes", m)
        if not (number.is_integer() and number >= 1):
            raise ValueError(f"modes = {m!r} is not an integer >= 1")
        out.append(int(number))
    if len(out) != grid.dim:
        raise ValueError(f"need {grid.dim} mode numbers, got {len(out)}")
    return tuple(out)


def _param(params: dict, key: str, default: float) -> float:
    return finite_number(key, params.pop(key, default))


def space_values(grid: Grid, name: str, params: dict | None = None) -> np.ndarray:
    """A named profile on grid's nodes.  Every parameter is a finite number
    (a bool is not), a mode an integer >= 1 and a radius > 0."""
    params = dict(params or {})
    if name == "zero":
        _reject_extras(name, params)
        return np.zeros(grid.shape)
    if name == "constant":
        value = _param(params, "value", 1.0)
        _reject_extras(name, params)
        return np.full(grid.shape, value)
    if name == "sin_pi_product":
        amplitude = _param(params, "amplitude", 1.0)
        _reject_extras(name, params)
        return amplitude * sin_product(grid, (1,) * grid.dim)
    if name == "sine_mode":
        amplitude = _param(params, "amplitude", 1.0)
        modes = _normalize_modes(grid, params.pop("modes", None))
        _reject_extras(name, params)
        return amplitude * sin_product(grid, modes)
    if name == "bump":
        amplitude = _param(params, "amplitude", 1.0)
        center = _param(params, "center", 0.5)
        radius = _param(params, "radius", 0.35)
        if not radius > 0:
            raise ValueError(f"radius = {radius!r} is not > 0")
        _reject_extras(name, params)
        r2 = np.zeros(grid.shape)
        for x, L in zip(grid.mesh(), grid.extent):
            r2 = r2 + ((x - center * L) / (radius * L)) ** 2
        out = np.zeros(grid.shape)
        inside = r2 < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out
    raise ValueError(f"unknown space profile '{name}'; valid: {', '.join(SPACE_NAMES)}")


def _reject_extras(name: str, params: dict) -> None:
    if params:
        raise ValueError(f"profile '{name}' got unknown parameters: {', '.join(sorted(params))}")


def field_from_name(grid: Grid, name: str, params: dict | None = None) -> Field:
    return Field(grid, space_values(grid, name, params))


@dataclass(frozen=True)
class Forcing:
    """f(x, t) = profile(x) factor(t): a named space profile, optionally
    modulated in time by factor(t) = cos(omega t).

    A consumer reads the profile once per grid and the factor once per time
    axis.
    """

    name: str
    params: tuple[tuple[str, float], ...] = field(default=())

    def __post_init__(self):
        if self.name not in FORCING_NAMES:
            raise ValueError(
                f"unknown forcing '{self.name}'; valid: {', '.join(FORCING_NAMES)}"
            )
        params = ((str(k), finite_number(str(k), v)) for k, v in self.params)
        object.__setattr__(self, "params", tuple(sorted(params)))

    @classmethod
    def from_dict(cls, name: str, params: dict | None = None) -> "Forcing":
        return cls(name, tuple((params or {}).items()))

    @property
    def is_zero(self) -> bool:
        return self.name == "zero"

    def profile(self, grid: Grid) -> np.ndarray:
        """The space profile on grid's nodes."""
        params = {k: v for k, v in self.params if k != "omega"}
        return space_values(grid, self.name, params)

    def factor(self, times) -> np.ndarray:
        """The time factor at times: cos(omega t), or ones without omega."""
        times = np.asarray(times, dtype=float)
        omega = dict(self.params).get("omega", 0.0)
        return np.cos(omega * times) if omega else np.ones(times.shape)
