"""Uniform box grids with homogeneous Dirichlet boundaries.

Only interior nodes are stored; the boundary value 0 is implicit in the
stencils, so the discrete operators below satisfy a summation-by-parts
identity exactly: with E = dirichlet_edge_differences of u,
<-lap(u), u> * cell_volume == cell_volume * sum(E ** 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "laplacian_array",
    "dirichlet_edge_differences",
    "inner_space",
    "l2_space",
    "trapezoid_weights",
    "double_trapezoid",
    "l2_spacetime",
]


@dataclass(frozen=True)
class Grid:
    """Interior nodes of a box (0, extent)^dim; spacing h = extent / (n + 1)."""

    n: tuple[int, ...]
    extent: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "extent", tuple(float(v) for v in self.extent))
        if len(self.n) not in (1, 3):
            raise ValueError(f"dimension must be 1 or 3, got {len(self.n)}")
        if len(self.extent) != len(self.n):
            raise ValueError("n and extent must have the same length")
        for v in self.n:
            if v < 3:
                raise ValueError(f"need at least 3 interior nodes per axis, got {v}")
        for L in self.extent:
            if not (L > 0 and math.isfinite(L)):
                raise ValueError(f"extent must be positive and finite, got {L}")

    @classmethod
    def line(cls, n: int, length: float = 1.0) -> "Grid":
        return cls((n,), (length,))

    @classmethod
    def box(cls, n: int, length: float = 1.0) -> "Grid":
        return cls((n, n, n), (length, length, length))

    @property
    def dim(self) -> int:
        return len(self.n)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.n

    @property
    def n_total(self) -> int:
        return int(np.prod(self.n))

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / (m + 1) for L, m in zip(self.extent, self.n))

    @property
    def h_min(self) -> float:
        return min(self.spacing)

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.extent))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return h * np.arange(1, self.n[axis] + 1)

    def mesh(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        axes = [self.axis_coordinates(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij", sparse=True))


@dataclass(frozen=True)
class Field:
    """Interior nodal values on a grid; finite by construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValueError(f"values shape {vals.shape} != grid shape {self.grid.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.shape))


def laplacian_array(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Second-order central Laplacian with implicit zero boundary.

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
        # At the faces the outside neighbour is 0.0.  Adding it could only
        # turn -0.0 into 0.0, and such a zero reaches the result as
        # 0.0 + term or out + term with out never -0.0, so it is left out.
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


def inner_space(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    return grid.cell_volume * float(np.sum(a * b))


def l2_space(grid: Grid, u) -> float:
    """Midpoint-rule L2 norm over the box (weight cell_volume per node)."""
    vals = u.values if isinstance(u, Field) else np.asarray(u, dtype=float)
    return math.sqrt(grid.cell_volume * float(np.sum(vals * vals)))


def trapezoid_weights(n_levels: int, dt: float) -> np.ndarray:
    if n_levels < 2:
        raise ValueError("need at least two time levels")
    w = np.full(n_levels, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def double_trapezoid(samples, dt: float) -> np.ndarray:
    """int_0^t int_0^s of samples on a uniform time axis, at every level:
    the cumulative trapezoid rule twice, 0 at level 0."""
    out = np.asarray(samples, dtype=float)
    for _ in range(2):
        integral = np.zeros_like(out)
        np.cumsum(0.5 * dt * (out[1:] + out[:-1]), axis=0, out=integral[1:])
        out = integral
    return out


def l2_spacetime(grid: Grid, levels: np.ndarray, dt: float, overwrite: bool = False) -> float:
    """Trapezoid-in-time, midpoint-in-space L2 norm of a level stack.

    With overwrite, a float stack of the caller's is squared in place
    instead of into a second stack.
    """
    levels = np.asarray(levels, dtype=float)
    w = trapezoid_weights(levels.shape[0], dt)
    squares = np.square(levels, out=levels if overwrite else None)
    sq = grid.cell_volume * np.sum(squares.reshape(levels.shape[0], -1), axis=1)
    return math.sqrt(float(np.dot(w, sq)))
