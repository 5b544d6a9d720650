import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    cumulative_trapezoid,
    dirichlet_edge_differences,
    dirichlet_gradient_sq,
    l2_spacetime,
    laplacian_array,
    node_coordinates,
    reference_laplacian,
)
from memvisco.grid import (
    Field,
    Grid,
    double_trapezoid,
    inner_space,
    l2_space,
    sine_transform,
    trapezoid_weights,
)


class TestGrid:
    def test_line(self):
        g = Grid.line(99)
        assert g.dim == 1
        assert g.shape == (99,)
        assert g.spacing == (pytest.approx(0.01),)
        assert g.h_min == pytest.approx(0.01)
        assert g.cell_volume == pytest.approx(0.01)

    def test_box(self):
        g = Grid.box(7, length=2.0)
        assert g.dim == 3
        assert g.n_total == 343
        assert g.spacing == (pytest.approx(0.25),) * 3
        assert g.volume == pytest.approx(8.0)
        assert g.cell_volume == pytest.approx(0.25**3)

    @pytest.mark.parametrize(
        "g", [Grid.line(99), Grid.box(7, length=2.0), Grid((5, 7, 4), (1.3, 0.7, 2.9))], ids=["line", "box", "non-cubic"]
    )
    def test_sizes_are_plain_products(self, g):
        # read on every step of some loops, so they multiply plain Python
        # numbers: the values and types of numpy's product, bit for bit
        assert type(g.n_total) is int and g.n_total == int(np.prod(g.n))
        assert type(g.volume) is float and g.volume == float(np.prod(g.extent))

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((2,), (1.0,))
        with pytest.raises(ValueError):
            Grid((5, 5), (1.0, 1.0))
        with pytest.raises(ValueError):
            Grid((5,), (-1.0,))
        with pytest.raises(ValueError, match="n and extent must have the same length"):
            Grid((5,), (1.0, 1.0))

    def test_trapezoid_weights_need_two_levels(self):
        with pytest.raises(ValueError, match="need at least two time levels"):
            trapezoid_weights(1, 0.1)

    def test_axis_coordinates(self):
        g = Grid.line(3)
        assert g.axis_coordinates(0) == pytest.approx([0.25, 0.5, 0.75])

    def test_node_coordinates_shape(self):
        g = Grid.box(4)
        coords = node_coordinates(g)
        assert coords.shape == (64, 3)
        assert coords[0] == pytest.approx([0.2, 0.2, 0.2])


class TestField:
    def test_zero(self):
        g = Grid.line(5)
        f = Field.zero(g)
        assert f.values.shape == (5,)
        assert np.all(f.values == 0)

    def test_shape_checked(self):
        g = Grid.line(5)
        with pytest.raises(ValueError):
            Field(g, np.zeros(4))

    def test_finite_checked(self):
        g = Grid.line(5)
        with pytest.raises(ValueError):
            Field(g, np.array([0.0, 1.0, np.nan, 0.0, 0.0]))


class TestLaplacian:
    def test_quadratic_exact_1d(self):
        # central differences are exact on quadratics
        for n in (5, 23, 99):
            g = Grid.line(n)
            x = g.axis_coordinates(0)
            lap = laplacian_array(g, x * (1 - x))
            assert lap == pytest.approx(np.full(n, -2.0), abs=1e-10)

    def test_zero_field(self):
        g = Grid.box(5)
        assert np.all(laplacian_array(g, np.zeros(g.shape)) == 0)

    def test_sine_mode_error_bound_1d(self):
        # fourth-order Taylor remainder controls the stencil error
        g = Grid.line(99)
        x = g.axis_coordinates(0)
        u = np.sin(np.pi * x)
        lap = laplacian_array(g, u)
        h = g.h_min
        err = np.abs(lap + np.pi**2 * u).max()
        assert err <= np.pi**4 * h**2 / 12 * 1.1

    def test_sine_product_eigenfunction_3d(self):
        # discrete eigenvalue of the 7-point stencil, exact identity
        g = Grid.box(8)
        mesh = g.mesh()
        u = np.sin(np.pi * mesh[0]) * np.sin(np.pi * mesh[1]) * np.sin(np.pi * mesh[2])
        h = g.h_min
        lam = -3.0 * (2.0 / h**2) * (1.0 - math.cos(math.pi * h))
        assert laplacian_array(g, u) == pytest.approx(lam * u, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "grid", [Grid.line(9), Grid((4, 5, 6), (1.0, 2.0, 0.5))], ids=["1d", "3d"]
    )
    def test_stack_matches_padded_oracle_bitwise(self, grid):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((4,) + grid.shape)
        # signed zeros: on a checkerboard every interior stencil term is -0.0
        parity = sum(np.indices(grid.shape)) % 2
        stack[1] = np.where(parity == 1, -0.0, 0.0)
        stack[2] = np.where(parity == 0, -0.0, 0.0)
        stack[3][rng.random(grid.shape) < 0.5] = -0.0
        want = np.stack([reference_laplacian(grid, u) for u in stack])
        assert laplacian_array(grid, stack).tobytes() == want.tobytes()
        paired = stack.reshape((2, 2) + grid.shape)
        assert laplacian_array(grid, paired).tobytes() == want.tobytes()
        for u, w in zip(stack, want):
            assert laplacian_array(grid, u).tobytes() == w.tobytes()

    @given(st.integers(3, 20), st.integers(0, 2**32 - 1))
    def test_adjoint_identity_1d(self, n, seed):
        # sum |grad u|^2 over edges equals <-lap u, u> for zero boundary
        g = Grid.line(n)
        u = np.random.default_rng(seed).standard_normal(g.shape)
        lhs = dirichlet_gradient_sq(g, u)
        rhs = inner_space(g, -laplacian_array(g, u), u)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @given(st.integers(3, 6), st.integers(0, 2**32 - 1))
    def test_adjoint_identity_3d(self, n, seed):
        g = Grid.box(n)
        u = np.random.default_rng(seed).standard_normal(g.shape)
        lhs = dirichlet_gradient_sq(g, u)
        rhs = inner_space(g, -laplacian_array(g, u), u)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestEdgeDifferences:
    def test_line_includes_boundary_edges(self):
        g = Grid.line(3)  # h = 0.25
        edges = dirichlet_edge_differences(g, np.array([[1.0, 2.0, 3.0]]))
        assert edges.tolist() == [[4.0, 4.0, 4.0, -12.0]]

    def test_box_edge_count(self):
        g = Grid.box(4)
        edges = dirichlet_edge_differences(g, np.zeros((2,) + g.shape))
        assert edges.shape == (2, 3 * 5 * 4 * 4)

    @given(st.integers(3, 5), st.integers(0, 2**32 - 1))
    def test_stack_rows_are_single_levels(self, n, seed):
        g = Grid.box(n)
        levels = np.random.default_rng(seed).standard_normal((3,) + g.shape)
        stack = dirichlet_edge_differences(g, levels)
        for j in range(3):
            one = dirichlet_edge_differences(g, levels[j : j + 1])
            assert np.array_equal(stack[j], one[0])
            assert g.cell_volume * float(np.sum(stack[j] ** 2)) == pytest.approx(
                dirichlet_gradient_sq(g, levels[j]), rel=1e-14
            )


SINE_GRIDS = [Grid.line(99), Grid.box(31), Grid((4, 5, 3), (1.0, 1.5, 0.8))]


@pytest.mark.parametrize("grid", SINE_GRIDS, ids=["line99", "box31", "box453"])
class TestSineModes:
    """The stencil oracles against the sine coefficients the solvers keep:
    lap_h is -mu in sine modes, so the edge sum of squares is sum mu u_hat^2."""

    @staticmethod
    def _levels(grid):
        return np.random.default_rng(grid.n_total).standard_normal((3,) + grid.shape)

    def test_transform_is_its_own_inverse(self, grid):
        levels = self._levels(grid)
        back = sine_transform(grid, sine_transform(grid, levels))
        assert np.abs(back - levels).max() <= 1e-13 * np.abs(levels).max()

    def test_edge_squares_are_mu_weighted_coefficient_squares(self, grid):
        levels = self._levels(grid)
        edges = dirichlet_edge_differences(grid, levels)
        coefficients = sine_transform(grid, levels).reshape(3, -1)
        want = grid.cell_volume * np.sum(edges**2, axis=1)
        got = grid.cell_volume * (coefficients**2 @ grid.eigenvalues.ravel())
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_laplacian_is_minus_mu_in_sine_modes(self, grid):
        levels = self._levels(grid)
        want = laplacian_array(grid, levels)
        got = -sine_transform(grid, grid.eigenvalues * sine_transform(grid, levels))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestNorms:
    def test_sine_mode_norm_exact(self):
        # midpoint rule sums sin^2 exactly: norm is sqrt(1/2) for any n
        for n in (3, 10, 99):
            g = Grid.line(n)
            u = np.sin(np.pi * g.axis_coordinates(0))
            assert l2_space(g, u) == pytest.approx(math.sqrt(0.5), abs=1e-13)

    def test_zero_iff_zero(self):
        g = Grid.line(9)
        assert l2_space(g, np.zeros(9)) == 0.0
        u = np.zeros(9)
        u[4] = 1e-8
        assert l2_space(g, u) > 0.0

    def test_constant_3d(self):
        g = Grid.box(5)
        val = l2_space(g, np.full(g.shape, 2.0))
        # every interior cell carries h^3 weight; total measure is n^3 h^3
        assert val == pytest.approx(2.0 * math.sqrt(g.n_total * g.cell_volume))

    def test_trapezoid_weights(self):
        w = trapezoid_weights(5, 0.25)
        assert w == pytest.approx([0.125, 0.25, 0.25, 0.25, 0.125])
        assert w.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [(31,), (31, 4, 5)])
    def test_double_trapezoid_is_the_trapezoid_twice_bitwise(self, shape):
        samples = np.random.default_rng(2).standard_normal(shape)
        want = cumulative_trapezoid(cumulative_trapezoid(samples, 0.02), 0.02)
        assert double_trapezoid(samples, 0.02).tobytes() == want.tobytes()

    def test_double_trapezoid_of_a_line(self):
        # int_0^t int_0^s (1 + r) dr ds = t^2 / 2 + t^3 / 6; the first rule
        # is exact on the line, the second overshoots s^2 / 2 by t h^2 / 12
        h = 0.1
        t = h * np.arange(11)
        want = t**2 / 2 + t**3 / 6 + t * h**2 / 12
        assert double_trapezoid(1.0 + t, h) == pytest.approx(want, abs=1e-14)

    def test_spacetime_norm_separable(self):
        g = Grid.line(40)
        u = np.sin(np.pi * g.axis_coordinates(0))
        levels = np.repeat(u[None, :], 9, axis=0)
        val = l2_spacetime(g, levels, dt=0.125)
        assert val == pytest.approx(math.sqrt(0.5) * 1.0, abs=1e-12)
