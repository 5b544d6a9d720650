"""Uniform box grids with homogeneous Dirichlet boundaries.

Only interior nodes are stored; the boundary value 0 is implicit.  The
second-order stencil Laplacian lap_h of the box is diagonal in the
orthonormal DST-I of its axes: it scales sine mode k by -mu[k], with
mu[k] = sum over the axes of (4 / h^2) sin^2(pi k / (2 (n + 1))).  So with
u_hat = sine_transform(grid, u) and E the edge differences (u_b - u_a) / h
of u, zero outside, summation by parts reads

    <-lap_h u, u> = sum(E ** 2) = sum(mu * u_hat ** 2),

and the sine coefficients carry every sum of squares a nodal field does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "Field",
    "sine_transform",
    "inner_space",
    "l2_space",
    "trapezoid_weights",
    "double_trapezoid",
    "level_squares",
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
        return math.prod(self.n)

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
        return math.prod(self.extent)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return h * np.arange(1, self.n[axis] + 1)

    def mesh(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        axes = [self.axis_coordinates(a) for a in range(self.dim)]
        return list(np.meshgrid(*axes, indexing="ij", sparse=True))

    @cached_property
    def sine_matrices(self) -> tuple[np.ndarray, ...]:
        """The orthonormal DST-I of each axis, a symmetric (n, n) matrix that
        is its own inverse: entry (k - 1, i - 1) is sine mode k at node i.

        The angle pi k i / (n + 1) is reduced modulo 2 pi in integers first,
        which keeps the matrix orthonormal to a few ulps at any n."""
        out = []
        for n in self.n:
            k = np.arange(1, n + 1)
            turns = np.outer(k, k) % (2 * (n + 1))
            s = math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * turns / (n + 1))
            s.flags.writeable = False
            out.append(s)
        return tuple(out)

    @cached_property
    def sine_bound(self) -> float:
        """s with |sine_transform(grid, x)| <= s sum |x| at every node of a
        level x, rounding included.

        Exactly, |S x| <= prod_axes max |S_axis| sum |x|, S the product of
        the axes' sine matrices.  With u = 2^-53: each axis's product rounds
        within gamma_n = n u / (1 - n u) of |S_axis| |x|, so the computed
        transform is at most prod_axes (1 + gamma_{n_axis}) times the exact
        bound, and a computed bound (N - 1 roundings in the sum, dim - 1 in
        the product of maxima, one for the margin, one for the last
        product) is at least (1 - u)^(N + dim) times margin times it.  The
        margin 1 + 2 (N + dim) u covers both to first order, (sum_axes
        n_axis + N + dim) u <= (2 N + dim) u, leaving >= dim u for the
        second order, ~2.5 (N u)^2 < u up to N ~ 1e7.
        """
        bound = math.prod(float(np.abs(s).max()) for s in self.sine_matrices)
        return bound * (1.0 + 2.0 * (self.n_total + self.dim) * 2.0**-53)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """mu on grid.shape: the stencil Laplacian scales sine mode k by -mu[k]."""
        mu = np.zeros(self.shape)
        for axis, (n, h) in enumerate(zip(self.n, self.spacing)):
            along = [1] * self.dim
            along[axis] = n
            k = np.arange(1, n + 1)
            mu += (4.0 / (h * h) * np.sin(np.pi * k / (2 * (n + 1))) ** 2).reshape(along)
        mu.flags.writeable = False
        return mu


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


def sine_transform(grid: Grid, values: np.ndarray) -> np.ndarray:
    """The DST-I of a field or stack (..., *grid.shape) along its grid axes:
    nodal values to sine coefficients, or back, as it is its own inverse."""
    out = np.asarray(values, dtype=float)
    shape = out.shape
    first = out.ndim - grid.dim
    for axis, s in enumerate(grid.sine_matrices, start=first):
        # a product per axis; no view of the last result outlives it, so at
        # most two arrays of the input's size are held
        before, n, after = math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1 :])
        if after == 1:
            out = (out.reshape(before, n) @ s).reshape(shape)
        else:
            out = np.matmul(s, out.reshape(before, n, after)).reshape(shape)
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


def level_squares(grid: Grid, levels: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Midpoint-rule squared L2 norm of each level of a stack (..., *grid.shape).

    With overwrite, a float stack of the caller's is squared in place
    instead of into a second stack.
    """
    levels = np.asarray(levels, dtype=float)
    squares = np.square(levels, out=levels if overwrite else None)
    return grid.cell_volume * np.sum(squares.reshape(levels.shape[: levels.ndim - grid.dim] + (-1,)), axis=-1)

