import numpy as np
import pytest

from memvisco.expressions import (
    FORCING_NAMES,
    SPACE_NAMES,
    Forcing,
    field_from_name,
    space_values,
)
from memvisco.grid import Grid


class TestSpaceValues:
    def test_zero_and_constant(self):
        g = Grid.line(5)
        assert np.all(space_values(g, "zero", {}) == 0)
        assert np.all(space_values(g, "constant", {"value": 2.5}) == 2.5)

    def test_sin_pi_product_1d(self):
        g = Grid.line(9)
        vals = space_values(g, "sin_pi_product", {"amplitude": 2.0})
        assert vals == pytest.approx(2.0 * np.sin(np.pi * g.axis_coordinates(0)))

    def test_sin_pi_product_3d(self):
        g = Grid.box(4)
        vals = space_values(g, "sin_pi_product", {})
        mesh = g.mesh()
        expected = np.sin(np.pi * mesh[0]) * np.sin(np.pi * mesh[1]) * np.sin(np.pi * mesh[2])
        assert vals == pytest.approx(expected)

    def test_sine_mode(self):
        g = Grid.line(9)
        vals = space_values(g, "sine_mode", {"modes": [3]})
        assert vals == pytest.approx(np.sin(3 * np.pi * g.axis_coordinates(0)))

    def test_bump_compact_support(self):
        g = Grid.line(99)
        vals = space_values(g, "bump", {"amplitude": 1.0, "center": 0.5, "radius": 0.2})
        x = g.axis_coordinates(0)
        assert np.all(vals[np.abs(x - 0.5) >= 0.2] == 0.0)
        assert np.all(vals[np.abs(x - 0.5) < 0.19] > 0.0)
        assert vals.max() == pytest.approx(1.0, rel=1e-3)

    def test_unknown_name(self):
        g = Grid.line(5)
        with pytest.raises(ValueError, match="profile"):
            space_values(g, "sinpi", {})

    @pytest.mark.parametrize(
        "name, params, error",
        [
            ("sine_mode", {"modes": [1.5]}, ValueError),
            ("sine_mode", {"modes": 0}, ValueError),
            ("sine_mode", {"modes": [-2]}, ValueError),
            ("sine_mode", {"modes": [True]}, TypeError),
            ("bump", {"radius": 0}, ValueError),
            ("bump", {"radius": -0.3}, ValueError),
            ("constant", {"value": True}, TypeError),
            ("sin_pi_product", {"amplitude": float("inf")}, ValueError),
        ],
    )
    def test_bad_parameter_named(self, name, params, error):
        (key,) = params
        with pytest.raises(error, match=f"^{key} = "):
            space_values(Grid.line(5), name, params)

    def test_mode_count_checked(self):
        with pytest.raises(ValueError, match="need 1 mode numbers, got 2"):
            space_values(Grid.line(5), "sine_mode", {"modes": [1, 2]})
        with pytest.raises(ValueError, match="need 3 mode numbers, got 2"):
            space_values(Grid.box(4), "sine_mode", {"modes": [1, 2]})

    def test_whole_number_modes_accepted(self):
        g = Grid.line(9)
        want = space_values(g, "sine_mode", {"modes": [3]})
        assert space_values(g, "sine_mode", {"modes": 3.0}).tobytes() == want.tobytes()

    def test_unknown_param_rejected(self):
        g = Grid.line(5)
        with pytest.raises(ValueError):
            space_values(g, "constant", {"value": 1.0, "amp": 2.0})

    def test_field_from_name(self):
        g = Grid.line(5)
        f = field_from_name(g, "zero", {})
        assert f.grid is g
        assert np.all(f.values == 0)


class TestForcing:
    def test_names_registry(self):
        assert "sin_pi_product" in FORCING_NAMES
        assert set(FORCING_NAMES) <= set(SPACE_NAMES) | {"zero", "constant"}

    def test_static_sample(self):
        g = Grid.line(7)
        f = Forcing.from_dict("sin_pi_product", {"amplitude": 0.5})
        assert f.profile(g) == pytest.approx(0.5 * np.sin(np.pi * g.axis_coordinates(0)))
        assert f.factor([0.0, 10.0]).tolist() == [1.0, 1.0]

    def test_time_modulation(self):
        g = Grid.line(7)
        f = Forcing.from_dict("constant", {"value": 1.0, "omega": 2.0})
        assert f.profile(g) == pytest.approx(np.ones(7))
        t = 0.7
        assert f.factor([0.0, t]) == pytest.approx([1.0, np.cos(2.0 * t)])

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            Forcing.from_dict("ramp", {})

    @pytest.mark.parametrize("params", [{"value": True}, {"omega": False}, {"omega": float("nan")}])
    def test_bad_parameter_named(self, params):
        (key,) = params
        with pytest.raises((TypeError, ValueError), match=f"^{key} = "):
            Forcing.from_dict("constant", params)

    @pytest.mark.parametrize("params", [{"amplitude": 0.5}, {"amplitude": 0.5, "omega": 3.0}])
    def test_profile_times_factor(self, params):
        f = Forcing.from_dict("sin_pi_product", params)
        line, box = Grid.line(7), Grid.box(4)
        times = np.array([0.0, 0.3, 0.9])
        omega = params.get("omega", 0.0)
        assert f.factor(times) == pytest.approx(np.cos(omega * times))
        for grid in (line, box):
            profile = f.profile(grid)
            assert profile.tobytes() == space_values(grid, "sin_pi_product", {"amplitude": 0.5}).tobytes()
        # one time at a time reads the same factor as the whole axis
        for t, c in zip(times, f.factor(times)):
            assert f.factor(t) == c

    @pytest.mark.parametrize("formulation", ["integrodifferential", "integral_volterra"])
    def test_profile_read_once_per_consumer(self, monkeypatch, formulation):
        # a forced run, its ledger, bound and weak residual read the profile
        # once each, however many time levels the run has
        import memvisco.expressions as expressions
        from helpers import stored_reduction
        from memvisco.diagnostics import check_energy_bound, energy_ledger, weak_residual
        from memvisco.kernels import PronyKernel
        from memvisco.solver import ProblemSpec, run

        kernel = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))
        box = Grid.box(5)
        forcing = Forcing.from_dict("sin_pi_product", {"amplitude": 0.5, "omega": 3.0})
        specs = [
            ProblemSpec(
                kernel=kernel, grid=box, horizon=horizon, dt=0.02, eps=0.05,
                u0=field_from_name(box, "zero"), u1=field_from_name(box, "bump", {"radius": 0.3}),
                forcing=forcing, formulation=formulation,
            )
            for horizon in (0.2, 0.8)
        ]
        calls = []

        def counted(grid, name, p=None):
            calls.append(name)
            return space_values(grid, name, p)

        monkeypatch.setattr(expressions, "space_values", counted)
        counts = []
        for spec in specs:
            calls.clear()
            traj = run(spec)
            energy_ledger(traj, kernel, spec.eps, forcing)
            check_energy_bound(stored_reduction(traj), kernel, spec.eps, spec.u1, forcing)
            weak_residual(stored_reduction(traj, battery=True), kernel, spec.eps, spec.u0, spec.u1, forcing)
            counts.append(len(calls))
        assert counts == [4, 4]

    @pytest.mark.parametrize("params", [{"value": 2.0}, {"value": 2.0, "omega": 1.0}])
    def test_samples_are_fresh_arrays(self, params):
        g = Grid.line(5)
        f = Forcing.from_dict("constant", params)
        first, factor = f.profile(g), f.factor([0.0])
        first[:] = factor[:] = -1.0
        assert np.all(f.profile(g) == 2.0) and np.all(f.factor([0.0]) == 1.0)

    def test_hashable_for_fingerprints(self):
        f = Forcing.from_dict("constant", {"value": 1.0})
        g = Forcing.from_dict("constant", {"value": 1.0})
        assert f == g
        assert hash(f) == hash(g)
