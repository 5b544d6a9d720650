import dataclasses
import hashlib
import math
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from helpers import (
    SeparableForcing,
    batch_runs,
    classical_stress_curve,
    conv_weights,
    correlate_adjoint,
    direct_sums,
    direct_weights,
    exact_unshifted_mode,
    forced_box_spec,
    forcing_at,
    geometric_history,
    history_row,
    l2q_error,
    laplacian_array,
    listed_sequence,
    manufactured_exact,
    manufactured_forcing,
    nodal_levels,
    nodal_velocities,
    non_mode_one,
    reference_integrodiff,
    reference_laplacian,
    reference_velocities,
    reference_volterra,
    small_march_blocks,
    trajectory_distance,
    unchecked_spec,
    velocity_coefficients,
)
import memvisco.solver as solver_module
from memvisco.config import parse_config, parse_config_file
from memvisco.convergence import eps_schedule, run_eps_sequence
from memvisco.expressions import Forcing, field_from_name
from memvisco.grid import Field, Grid, sine_transform
from memvisco.kernels import (
    KernelSum,
    PowerLawKernel,
    PronyKernel,
    translate,
)
from memvisco.runner import _build_spec, _resolve_dt
from memvisco.solver import (
    CflViolation,
    HistoryConvolution,
    ProblemSpec,
    RunRecord,
    SolverAbort,
    TrajectorySolution,
    cfl_time_step,
    compute_stress,
    interval_weights,
    run,
    stress_curve,
    stable_time_step,
)

PRONY = PronyKernel(g_inf=0.5, terms=((0.5, 2.0),))
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
# the spec fingerprint of the first run of each config under CONFIGS that marches
CONFIG_FINGERPRINTS = {
    "elastic_limit": "4de1db9a69ecfba8",
    "powerlaw_theorem1": "7a7b8de2f510c9f0",
    "prony_single": "77552948685fe1aa",
    "drift/kernel_sum_single": "2dd7773fa62b6a20",
    "drift/powerlaw_leapfrog_sequence": "0ac510b7fbdb392c",
    "drift/powerlaw_single_audits": "ed9db1536c268eac",
    "drift/prony_forced_sequence": "9bc71ac2e5210d50",
    "drift/volterra_3d_singular": "e04f60dc1dcfe700",
}


def standing_wave_spec(n=49, cfl=0.5, horizon=1.0):
    g = Grid.line(n)
    k = PronyKernel(1.0, ())
    dt = cfl_time_step(g, k, 1.0, cfl, horizon)
    x = g.axis_coordinates(0)
    return ProblemSpec(
        kernel=k,
        grid=g,
        horizon=horizon,
        dt=dt,
        eps=1.0,
        u0=Field(g, np.sin(np.pi * x)),
        u1=Field.zero(g),
    )


class TestTimeSteps:
    def test_stable_time_step_formula(self):
        g = Grid.line(19)
        assert stable_time_step(g, 4.0) == pytest.approx(g.h_min / 2.0)
        g3 = Grid.box(7)
        assert stable_time_step(g3, 1.0) == pytest.approx(g3.h_min / math.sqrt(3.0))

    def test_cfl_time_step_divides_horizon(self):
        g = Grid.line(23)
        dt = cfl_time_step(g, PRONY, 0.05, 0.5, 1.3)
        steps = 1.3 / dt
        assert abs(steps - round(steps)) < 1e-9
        assert dt <= 0.5 * stable_time_step(g, PRONY.modulus(0.05)) * (1 + 1e-12)


class TestProblemSpec:
    def test_rejects_nonintegral_step_count(self):
        g = Grid.line(9)
        with pytest.raises(ValueError, match="integer"):
            ProblemSpec(
                kernel=PronyKernel(1.0, ()), grid=g, horizon=1.0, dt=0.3,
                eps=1.0, u0=Field.zero(g), u1=Field.zero(g),
            )

    def test_cfl_violation_names_required_dt(self):
        g = Grid.line(99)
        with pytest.raises(CflViolation, match="required dt"):
            ProblemSpec(
                kernel=PronyKernel(1.0, ()), grid=g, horizon=1.0, dt=0.5,
                eps=1.0, u0=Field.zero(g), u1=Field.zero(g),
            )

    def test_modulus_underflowed_to_zero_has_no_stable_step(self):
        # G(1) = exp(-1000) is 0.0 in double precision; the stable step
        # used to divide by its square root and raise ZeroDivisionError
        g = Grid.line(19)
        fast = PronyKernel(0.0, ((1.0, 0.001),))
        assert fast.modulus(1.0) == 0.0
        with pytest.raises(ValueError, match=r"needs G\(eps\) > 0, got G\(eps\) = 0.0"):
            cfl_time_step(g, fast, 1.0, 0.5, 1.0)
        with pytest.raises(ValueError, match=r"needs G\(eps\) > 0"):
            ProblemSpec(
                kernel=fast, grid=g, horizon=1.0, dt=0.01,
                eps=1.0, u0=Field.zero(g), u1=Field.zero(g),
            )

    def test_integrodiff_needs_positive_eps(self):
        g = Grid.line(9)
        with pytest.raises(ValueError, match="eps"):
            ProblemSpec(
                kernel=PRONY, grid=g, horizon=1.0, dt=0.01,
                eps=0.0, u0=Field.zero(g), u1=Field.zero(g),
            )

    def test_volterra_accepts_zero_eps(self):
        g = Grid.line(9)
        spec = ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=1.0,
            dt=0.1, eps=0.0, u0=Field.zero(g), u1=Field.zero(g),
            formulation="integral_volterra",
        )
        assert spec.n_steps == 10

    def test_data_must_live_on_grid(self):
        g = Grid.line(9)
        with pytest.raises(ValueError, match="grid"):
            ProblemSpec(
                kernel=PronyKernel(1.0, ()), grid=g, horizon=1.0, dt=0.01,
                eps=1.0, u0=Field.zero(Grid.line(11)), u1=Field.zero(g),
            )

    def test_fingerprint_sensitivity(self):
        a = standing_wave_spec()
        b = standing_wave_spec()
        assert a.fingerprint() == b.fingerprint()
        c = dataclasses.replace(a, dt=a.dt / 2)
        assert c.fingerprint() != a.fingerprint()

    @pytest.mark.parametrize(
        "forcing, fingerprint",
        [
            ('f = constant\nf_params = {"value": 0.3, "omega": 2.0}', "5c7f0b80ddcc7146"),
            ('f = sin_pi_product\nf_params = {"amplitude": 0.7}', "89a4af2e6945c483"),
        ],
    )
    def test_forced_config_fingerprint_is_pinned(self, forcing, fingerprint):
        # a forcing enters the fingerprint as "<name>:<sorted params>"; the
        # values were recorded before the forcing was read as profile times
        # factor, and earlier manifests must keep matching them
        cfg = parse_config(
            "[experiment]\nformulation = integral_volterra\n"
            "[kernel]\nfamily = prony\ng_inf = 0.5\nterms = [[0.5, 2.0]]\n"
            "[grid]\ndim = 1\nn = 49\nextent = 2.0\n"
            "[time]\nhorizon = 1.5\ndt = 0.005\n"
            f"[data]\nu0 = sin_pi_product\nu0_params = {{\"amplitude\": 0.5}}\n{forcing}\n"
            "[eps]\neps = 0.02\n"
        )
        assert _build_spec(cfg, cfg.eps, cfg.dt).fingerprint() == fingerprint

    def test_power_law_fingerprint_is_pinned(self):
        # the first run of configs/powerlaw_theorem1.cfg: the fingerprint
        # hashes repr(kernel), which the shift offset must leave alone
        g = Grid.line(49)
        spec = ProblemSpec(
            kernel=PowerLawKernel(1.0, 0.5), grid=g, horizon=1.0, dt=0.005, eps=0.1,
            u0=Field.zero(g), u1=field_from_name(g, "sin_pi_product", {"amplitude": 1.0}),
            formulation="integral_volterra",
        )
        assert spec.fingerprint() == "7a7b8de2f510c9f0"

    @pytest.mark.parametrize(
        "name", sorted(p.relative_to(CONFIGS).with_suffix("").as_posix() for p in CONFIGS.glob("**/*.cfg"))
    )
    def test_config_fingerprints_are_pinned(self, name):
        # the first run of each config that marches, as its manifests record it
        cfg = parse_config_file(CONFIGS / f"{name}.cfg")
        if cfg.mode not in ("single_run", "eps_sequence"):
            assert name not in CONFIG_FINGERPRINTS
            return
        if cfg.mode == "single_run":
            eps, dt = cfg.eps, _resolve_dt(cfg, cfg.eps)
        else:
            eps, dt = cfg.eps0, _resolve_dt(cfg, float(eps_schedule(cfg.eps0, cfg.ratio, cfg.count)[-1]))
        assert _build_spec(cfg, eps, dt).fingerprint() == CONFIG_FINGERPRINTS[name]

    def test_fingerprint_matches_hashlib_sha256(self):
        # the builtin sha256 the fingerprint takes agrees with OpenSSL's on
        # a forced 3D spec's payload
        spec = forced_box_spec(7, 0.5)
        builtin = spec.fingerprint()
        with mock.patch.object(solver_module, "sha256", hashlib.sha256):
            assert spec.fingerprint() == builtin


class TestProductQuadrature:
    @given(
        st.floats(0.05, 2.0),
        st.floats(-2.0, 2.0),
        st.floats(-2.0, 2.0),
        st.integers(2, 30),
    )
    def test_exact_for_linear_factor(self, tau, a, b, n):
        # weights integrate w(s) (a + b s) exactly when w = -d/ds e^{-s/tau}
        dt = 0.05
        modulus = lambda s: np.exp(-np.asarray(s) / tau)
        integral = lambda s: tau * (1.0 - np.exp(-np.asarray(s) / tau))
        left, right = interval_weights(modulus, integral, n, dt)
        samples = a + b * dt * np.arange(n + 1)
        # row n weighs level m by lag n - m: reversed samples give int w(s) p(s)
        got = float(history_row(HistoryConvolution(left, right), n) @ samples[::-1])
        t = n * dt
        exact = quad(lambda s: (-1.0 / tau) * math.exp(-s / tau) * (a + b * s), 0, t)[0]
        assert got == pytest.approx(exact, rel=1e-9, abs=1e-12)

    @given(st.integers(1, 40))
    def test_weights_telescope(self, n):
        dt = 0.03
        k = PRONY
        left, right = interval_weights(partial(k._tower, 0), partial(k._tower, -1), n, dt)
        total = float(np.sum(left) + np.sum(right))
        assert total == pytest.approx(k.modulus(n * dt) - k.modulus(0.0), abs=1e-12)

    def test_conv_weights_reverse_direct(self):
        # convolution weights are the direct weights seen from the far end
        k = PRONY
        left, right = interval_weights(partial(k._tower, 0), partial(k._tower, -1), 6, 0.1)
        j = 5
        assert history_row(HistoryConvolution(left, right), j) == pytest.approx(
            direct_weights(left, right, j)[::-1]
        )


def _signed_zero_weights(n, shifts=None):
    rng = np.random.default_rng(3)
    size = max(n, 7) if shifts is None else (shifts, max(n, 7))
    left, right = rng.standard_normal(size), rng.standard_normal(size)
    # signed zeros: conv_weights turns -0.0 + -0.0 and a lone -0.0 into 0.0
    left[..., 4] = right[..., 3] = -0.0
    right[..., 6] = -0.0
    return left[..., :n], right[..., :n]


def _power_law_memory_weights(shifts=None):
    # the memory weights the leapfrog builds for a power-law kernel over 11
    # steps of 0.05, one weight set per shift eps of a sequence
    kernel = PowerLawKernel(c=1.0, alpha=0.5)
    sets = [
        interval_weights(partial(shifted._tower, 0), partial(shifted._tower, -1), 11, 0.05)
        for shifted in (translate(kernel, eps) for eps in (0.1, 0.05, 0.025))
    ]
    left, right = (np.stack(part) for part in zip(*sets))
    return (left[0], right[0]) if shifts is None else (left[:shifts], right[:shifts])


class TestConvWeightRows:
    """HistoryConvolution against the conv_weights oracle, bitwise."""

    @pytest.mark.parametrize(
        "n, shifts",
        [
            pytest.param(n, shifts, id=str(n) if shifts is None else f"{n}-K{shifts}")
            for shifts in (None, 3)
            for n in (None, 1, 3, 11, 40)
        ],
    )
    def test_rows_equal_conv_weights_bitwise(self, n, shifts):
        # a run of n intervals; with a (K, n) weight set, row j of every
        # shift comes from the one shared table and equals that shift's own
        # oracle row.  n = None takes a power-law kernel's memory weights
        # over its whole run in place of the random signed-zero set
        if n is None:
            left, right = _power_law_memory_weights(shifts)
        else:
            left, right = _signed_zero_weights(n, shifts)
        history = HistoryConvolution(left, right)
        for j in range(1, left.shape[-1] + 1):
            w = history_row(history, j)
            assert w.shape == left.shape[:-1] + (j + 1,)
            for k in np.ndindex(left.shape[:-1]):
                expected = conv_weights(left[k], right[k], j)
                assert w[k].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n", [1, 3, 11, 40])
    @pytest.mark.parametrize("shape", [(), (5,)])
    def test_adjoint_transposes_row_loop(self, n, shape):
        # a @ (row sums of p) = adjoint(a) @ p over a run of n intervals,
        # the row sums taken by the conv_weights loop, for samples of any
        # trailing shape
        left, right = _signed_zero_weights(n)
        rng = np.random.default_rng(4)
        samples = rng.standard_normal((n + 1,) + shape)
        samples[min(3, n)] = -0.0
        a = rng.standard_normal(n + 1)
        sums = np.zeros_like(samples)
        magnitude = np.zeros(shape)
        for j in range(1, n + 1):
            w = conv_weights(left, right, j)
            sums[j] = w @ samples[: j + 1]
            magnitude += abs(a[j]) * (np.abs(w) @ np.abs(samples[: j + 1]))
        y = HistoryConvolution(left, right).adjoint(a)
        assert y.shape == (1, 1, n + 1)
        got = y[0, 0] @ samples
        assert np.all(np.abs(got - a @ sums) <= 1e-14 * magnitude)


@given(
    n=st.integers(1, 30),
    exponential=st.booleans(),
    zeros=st.lists(st.integers(0, 29), max_size=6),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_is_the_transposed_row_loop(n, exponential, zeros, seed):
    # <adjoint(a), p> = sum_j a_j (row(j) @ p[: j + 1]), also for the
    # geometric weights of a Prony rate
    rng = np.random.default_rng(seed)
    if exponential:
        kernel = PronyKernel(0.5, ((0.3, 1.0), (0.2, 0.1)))
        recursion = HistoryConvolution.of(translate(kernel, 0.05), 1, n, 0.1)
        assert recursion.backend == "exponential"
        history = geometric_history(recursion.terms[0], n)
    else:
        left, right = rng.standard_normal(n), rng.standard_normal(n)
        for i in zeros:
            left[i % n] = right[(i + 1) % n] = -0.0
        history = HistoryConvolution(left, right)
    a = rng.standard_normal(n + 1)
    p = rng.standard_normal((n + 1, 3))
    want = np.zeros(3)
    magnitude = np.zeros(3)
    for j in range(1, n + 1):
        w = history_row(history, j)
        want += a[j] * (w @ p[: j + 1])
        magnitude += abs(a[j]) * (np.abs(w) @ np.abs(p[: j + 1]))
    y = history.adjoint(a)
    assert y.shape == (1, 1, n + 1)
    got = y[0, 0] @ p
    assert np.all(np.abs(got - want) <= 1e-13 * magnitude)


def _random_weight_sets(shifts, n, seed=5):
    rng = np.random.default_rng(seed)
    left, right = rng.standard_normal((2, shifts, n))
    left[:, ::7] = -0.0
    return left, right


class TestBatchedAdjoint:
    """One adjoint call for K weight sets and P time profiles, at the
    block edges of its Toeplitz product (n = 63, 64, 65 with W = 64)."""

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200])
    @pytest.mark.parametrize("profiles", [1, 2])
    @pytest.mark.parametrize("shifts", [1, 7])
    def test_matches_the_correlation_oracle(self, shifts, profiles, n):
        left, right = _random_weight_sets(shifts, n)
        a = np.random.default_rng(n).standard_normal((profiles, n + 1))
        y = HistoryConvolution(left, right).adjoint(a)
        assert y.shape == (shifts, profiles, n + 1)
        for k in range(shifts):
            lone = HistoryConvolution(left[k], right[k])
            # the magnitude of the summed terms: the adjoint of |a| on |weights|
            scale = HistoryConvolution(np.abs(left[k]), np.abs(right[k]))
            for p in range(profiles):
                want = correlate_adjoint(lone, a[p])
                magnitude = correlate_adjoint(scale, np.abs(a[p]))
                assert np.all(np.abs(y[k, p] - want) <= 1e-14 * magnitude)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 200, 2000])
    @pytest.mark.parametrize("profiles", [1, 2])
    def test_each_shift_is_its_lone_history_bitwise(self, profiles, n):
        # the lemma check's one history of K weight sets gives each shift
        # the bits of that shift's own history: a single (K, n) @ (n, P)
        # product for level 0 would not
        left, right = _random_weight_sets(7, n)
        a = np.random.default_rng(n).standard_normal((profiles, n + 1))
        y = HistoryConvolution(left, right).adjoint(a)
        for k in range(7):
            lone = HistoryConvolution(left[k], right[k]).adjoint(a)
            assert lone.shape == (1, profiles, n + 1)
            assert y[k].tobytes() == lone[0].tobytes(), k


def _stream_sums(history, samples):
    """row_sums() of every row j >= 1 of one weight set on the levels 0 ..
    j, a whole stack of one shift; row 0 stays zero."""
    out = np.zeros_like(samples)
    for j in range(1, samples.shape[0]):
        out[j] = history.row_sums(samples[None], j)[0]
    return out


@given(
    rows=st.sampled_from([1, 2, 3, 5]),
    edge=st.sampled_from(["W-1", "W", "W+1", "2W+1"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_sums_match_the_row_loop(rows, edge, seed):
    # the blocked sums against the conv_weights row loop, with the run
    # ending on and around the block edges.  The blocks sum in another
    # order, so the bound is relative to sum |w| |p|, the size of the terms
    # each row adds up.
    n = max(1, {"W-1": rows - 1, "W": rows, "W+1": rows + 1, "2W+1": 2 * rows + 1}[edge])
    rng = np.random.default_rng(seed)
    left, right = rng.standard_normal((2, n))
    samples = rng.standard_normal((n + 1, 4))
    with mock.patch.object(solver_module, "_MARCH_ROWS", rows), direct_sums():
        got = _stream_sums(HistoryConvolution(left, right), samples)
    for j in range(1, n + 1):
        w = conv_weights(left, right, j)
        magnitude = np.abs(w) @ np.abs(samples[: j + 1])
        assert np.all(np.abs(got[j] - w @ samples[: j + 1]) <= 1e-13 * magnitude)


def test_blocked_sums_at_the_module_caps():
    # the same comparison with the shipped block, over three blocks
    n = 2 * solver_module._MARCH_ROWS + 1
    rng = np.random.default_rng(3)
    left, right = rng.standard_normal((2, n))
    samples = rng.standard_normal((n + 1, 5))
    got = _stream_sums(HistoryConvolution(left, right), samples)
    for j in range(1, n + 1):
        w = conv_weights(left, right, j)
        magnitude = np.abs(w) @ np.abs(samples[: j + 1])
        assert np.all(np.abs(got[j] - w @ samples[: j + 1]) <= 1e-13 * magnitude)


def _volterra_spec(grid, horizon, dt, forcing=None):
    return ProblemSpec(
        kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=grid, horizon=horizon, dt=dt, eps=0.1,
        u0=field_from_name(grid, "bump", {"radius": 0.3}),
        u1=field_from_name(grid, "sine_mode", {"amplitude": -0.5, "modes": 2}),
        forcing=forcing, formulation="integral_volterra",
    )


class TestShiftBatch:
    """march(spec, shifts): every shift of an integral_volterra spec in one
    march, drained into a stack by batch_runs."""

    SHIFTS = (0.1, 0.01, 0.0)

    def test_each_shift_is_its_lone_march_bitwise(self):
        # the products are issued per shift, so with the same block
        # length a shift's levels do not depend on the others
        pulse = Forcing.from_dict("sin_pi_product", {"amplitude": 0.7, "omega": 5.0})
        spec = _volterra_spec(Grid.line(17), 0.6, 0.01, pulse)
        with small_march_blocks(7):
            batch = batch_runs(spec, self.SHIFTS)
        assert [traj.coefficients.shape for traj in batch] == [(spec.n_steps + 1, 17)] * 3
        for eps, traj in zip(self.SHIFTS, batch):
            with small_march_blocks(7):
                alone = run(dataclasses.replace(spec, eps=eps))
            assert traj.coefficients.tobytes() == alone.coefficients.tobytes()
            assert traj.record.z_max == alone.record.z_max
            assert traj.record.spec_fingerprint == alone.record.spec_fingerprint

    def test_each_shift_is_its_lone_march_at_the_module_caps(self):
        # over three blocks of the shipped _MARCH_ROWS, the blocks of a
        # batch and of a lone run alike
        spec = _volterra_spec(Grid.line(17), 0.6, 0.6 / (2 * solver_module._MARCH_ROWS + 5))
        for eps, traj in zip(self.SHIFTS, batch_runs(spec, self.SHIFTS)):
            alone = run(dataclasses.replace(spec, eps=eps))
            assert traj.coefficients.tobytes() == alone.coefficients.tobytes()

    def test_each_shift_is_its_lone_march_bitwise_past_two_blocks(self):
        # from the third block on the far sums go through each shift's own
        # exponential fit, which the other shifts do not touch either
        pulse = Forcing.from_dict("sin_pi_product", {"amplitude": 0.7, "omega": 5.0})
        spec = _volterra_spec(Grid.line(17), 0.6, 0.003, pulse)
        for eps, traj in zip(self.SHIFTS, batch_runs(spec, self.SHIFTS)):
            alone = run(dataclasses.replace(spec, eps=eps))
            assert traj.record.far_nodes > 0
            assert (traj.record.far_nodes, traj.record.far_error) == (alone.record.far_nodes, alone.record.far_error)
            assert traj.coefficients.tobytes() == alone.coefficients.tobytes()

    def test_sequence_is_one_batch(self):
        # the streamed sequence reduces the levels of one batched march:
        # every reduction equals, byte for byte, that of the batch's
        # stored levels, and so does every run's record (J = 30 <= 2 W, so
        # the ring is the whole stack)
        spec = _volterra_spec(Grid.line(17), 0.3, 0.01)
        shifts = eps_schedule(0.1, 0.5, 2)
        seq = run_eps_sequence(spec, 0.1, 0.5, 2)
        batch = listed_sequence(shifts, batch_runs(spec, shifts))
        for name in ("eps_values", "times", "next_squares", "finest_squares", "columns", "peaks"):
            assert getattr(seq, name).tobytes() == getattr(batch, name).tobytes(), name
        assert (seq.runs, seq.levels_bytes) == (batch.runs, batch.levels_bytes)

    def test_abort_names_the_failing_shift(self):
        # the top grid mode under a large dt: of the shifts 0.1 .. 1e-4
        # (z_max 0.74, 2.1, 4.0, 5.4) the third overflows first and the
        # fourth later, while 0.1 and 0.01 stay finite; a batched march
        # stops for all shifts at the first failure and names that shift
        g = Grid.line(39)
        base = ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=22.5, dt=0.015, eps=0.1,
            u0=field_from_name(g, "sine_mode", {"amplitude": 1.0, "modes": [39]}),
            u1=Field.zero(g), formulation="integral_volterra",
        )
        shifts = eps_schedule(0.1, 0.1, 3)
        failing = float(shifts[2])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverAbort, match="non-finite") as got:
                run_eps_sequence(base, 0.1, 0.1, 3)
            with pytest.raises(SolverAbort) as alone:
                run(dataclasses.replace(base, eps=failing))
            with pytest.raises(SolverAbort) as finest:
                run(dataclasses.replace(base, eps=float(shifts[3])))
            assert np.all(np.isfinite(nodal_levels(run(dataclasses.replace(base, eps=float(shifts[1]))))))
        assert got.value.eps == failing
        assert f"eps = {failing!r}" in str(got.value)
        assert got.value.step == alone.value.step == 1342
        assert got.value.step < finest.value.step < base.n_steps


def _peak_above_entry(fn):
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


def test_volterra_sequence_holds_no_history():
    # the benchmark's 7-shift sequence at J = 2,000 and 8,000 steps.  The
    # march keeps a ring of 3 W + 1 levels per shift, and the reduction
    # O(K J) scalars: the weights, lags and oldest, and the per-level sums
    # and battery columns, about 61 doubles a level against the 693 of
    # the (K, J + 1, N) stack (measured: peaks of 0.29x and 0.14x the
    # stack; a sequence that kept every level peaked at 1.21x and 1.09x)
    g = Grid.line(99)
    peaks, stacks = [], []
    for J in (2000, 8000):
        base = ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=1.0, dt=1.0 / J, eps=0.1,
            u0=Field.zero(g), u1=field_from_name(g, "sine_mode", {"amplitude": 1.0, "modes": [1]}),
            formulation="integral_volterra",
        )
        seq, peak = _peak_above_entry(lambda: run_eps_sequence(base, 0.1, 0.5, 6))
        assert seq.levels_bytes == 8 * 193 * g.n_total
        peaks.append(peak)
        stacks.append(7 * 8 * (J + 1) * g.n_total)
    assert peaks[1] < 0.2 * stacks[1]
    assert peaks[1] - peaks[0] < 0.15 * (stacks[1] - stacks[0])


def test_history_weights_hold_no_pair_array():
    # the benchmark sequence's weights for its 7 shifts at J = 8,000 hold
    # two (K, J) tables, the lags (stored once, reversed, the order the
    # blocks read) and oldest, and the tail's few terms (measured: 2.02x
    # lags; 3.02x with a reversed copy of lags beside them, and 4.02x when
    # oldest was a view into interval_weights' (K, 2, J) pairs)
    J = 8000
    kernels = [translate(PowerLawKernel(c=1.0, alpha=0.5), 0.1 * 0.5**h) for h in range(7)]
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        history = HistoryConvolution.of(kernels, -1, J, 1.0 / J)
        # the weights of a block's rows, as the march reads them
        assert history.tail is not None and history._block(65, 129, 1, 65).shape == (7, 64, 64)
        held = tracemalloc.get_traced_memory()[0] - entry
    finally:
        tracemalloc.stop()
    assert held < 2.5 * history.lags.nbytes
    assert history.lags.base.shape == (7, J + 1)


def test_powerlaw_leapfrog_holds_no_history():
    # the direct backend kept a (J + 1, N) Laplacian stack the size of the
    # levels; the blocked sums on the levels hold under 0.35x of it here
    # (measured: a peak of 1.26x the levels, the tail's states and the
    # march's ring of 193 of the 1,467 levels beside run's stack included)
    g = Grid.box(9)
    kernel = PowerLawKernel(c=1.0, alpha=0.5)
    spec = ProblemSpec(
        kernel=kernel, grid=g, horizon=20.0, dt=cfl_time_step(g, kernel, 0.05, 0.5, 20.0),
        eps=0.05, u0=Field.zero(g), u1=field_from_name(g, "bump", {"radius": 0.3}),
    )
    traj, peak = _peak_above_entry(lambda: run(spec))
    levels_bytes = 8 * (spec.n_steps + 1) * g.n_total
    assert traj.record.history_backend == "direct"
    assert traj.coefficients.nbytes == levels_bytes
    assert peak < 1.35 * levels_bytes


_TERMS = {
    1: ((0.5, 1.0),),
    2: ((0.3, 1.0), (0.2, 0.1)),
    3: ((0.4, 1.0), (0.1, 7.0), (0.2, 0.03)),
}


class TestExponentialHistory:
    """The recursive Prony backend of HistoryConvolution."""

    @pytest.mark.parametrize("x", [1e-6, 1e-4, 0.01, 0.5, 0.999, 1.0, 2.0, 30.0])
    def test_first_interval_weights_match_quadrature(self, x):
        from memvisco.solver import _exponential_weights

        tau, a = 0.7, -1.3
        dt = x * tau
        w = lambda s: (a / tau) * math.exp(-s / tau)
        m0 = quad(w, 0.0, dt, epsabs=0.0, epsrel=2e-14)[0]
        m1 = quad(lambda s: s * w(s), 0.0, dt, epsabs=0.0, epsrel=2e-14)[0]
        left, right = _exponential_weights(a, tau, dt)
        assert right == pytest.approx(m1 / dt, rel=1e-13, abs=0.0)
        assert left == pytest.approx(m0 - m1 / dt, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    @pytest.mark.parametrize("ratio", [0.5, 30.0])
    def test_geometric_weights_match_interval_weights(self, n_terms, ratio):
        # the direct weights carry the round-off of antiderivative
        # differences, about eps * max|K| / dt, so the comparison stays at
        # moderate ratios and a short span
        k = PronyKernel(0.5, _TERMS[n_terms])
        dt, eps, n = 1.0 / ratio, 0.05, 40
        exponential = geometric_history(HistoryConvolution.of(translate(k, eps), 1, n, dt).terms[0], n)
        shifted = translate(k, eps)
        direct = HistoryConvolution(*interval_weights(partial(shifted._tower, 0), partial(shifted._tower, -1), n, dt))
        scale = np.abs(direct.lags).max()
        assert np.abs(exponential.lags - direct.lags).max() <= 1e-12 * scale
        assert np.abs(exponential.oldest - direct.oldest).max() <= 1e-12 * scale

    @pytest.mark.parametrize("n_terms", [1, 2, 3])
    @pytest.mark.parametrize("ratio", [0.5, 30.0, 1e4])
    @pytest.mark.parametrize("n", [7, 2000])
    def test_stream_matches_rows(self, n_terms, ratio, n):
        # the first term's tau / dt is `ratio`, the others' 0.03 to 7 times it
        k = PronyKernel(0.5, _TERMS[n_terms])
        dt = 1.0 / ratio
        history = HistoryConvolution.of(translate(k, 0.05), 1, n, dt)
        assert history.backend == "exponential"
        t = np.linspace(0.0, 1.0, n + 1)
        rough = np.random.default_rng(n_terms).standard_normal((n + 1, 2))
        smooth = np.stack([np.sin(3 * t), 1.0 + t * t], axis=1)
        samples = np.concatenate([rough, smooth], axis=1)
        rows = geometric_history(history.terms[0], n)
        want = np.zeros_like(samples)
        for j in range(1, n + 1):
            want[j] = history_row(rows, j) @ samples[: j + 1]
        got = _stream_sums(history, samples)
        scale = np.abs(want).max(axis=0)
        assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_backend_follows_kernel(self):
        n, dt, eps = 20, 0.05, 0.05
        power = PowerLawKernel(c=1.0, alpha=0.5)
        prony = translate(PRONY, eps)
        for order in (1, 2):
            assert HistoryConvolution.of(prony, order, n, dt).backend == "exponential"
            assert HistoryConvolution.of(translate(power, eps), order, n, dt).backend == "direct"
            summed = translate(KernelSum((PRONY, power)), eps)
            assert HistoryConvolution.of(summed, order, n, dt).backend == "direct"
        # the Volterra factor of any kernel is direct; a stack of Prony
        # shifts is exponential, one term list each, and any other stack direct
        assert HistoryConvolution.of(prony, -1, n, dt).backend == "direct"
        stacked = HistoryConvolution.of([prony, translate(PRONY, 0.1)], 1, n, dt)
        assert stacked.backend == "exponential" and len(stacked.terms) == 2
        assert HistoryConvolution.of([prony, translate(power, eps)], 1, n, dt).lags.shape == (2, n + 1)
        constant = HistoryConvolution.of(PronyKernel(1.0, ()), 1, n, dt)
        assert constant.backend == "exponential"
        # a modulus without terms has no memory: its sums are exact zeros
        levels = np.random.default_rng(5).standard_normal((n + 1, 3))
        sums = _stream_sums(constant, levels)
        assert sums.tobytes() == np.zeros_like(levels).tobytes()

    @pytest.mark.parametrize("kernel", [PRONY, PowerLawKernel(c=1.0, alpha=0.5)])
    def test_push_keeps_no_reference_to_the_caller_array(self, kernel):
        # each row_sums pushes the levels it is handed into the history's
        # sums or states; it may keep no view of the caller's storage
        samples = np.random.default_rng(9).standard_normal((12, 5))
        want = _stream_sums(HistoryConvolution.of(translate(kernel, 0.05), 1, 11, 0.02), samples)
        history = HistoryConvolution.of(translate(kernel, 0.05), 1, 11, 0.02)
        got = np.zeros_like(samples)
        for j in range(1, 12):
            levels = samples[None, : j + 1].copy()
            got[j] = history.row_sums(levels, j)[0]
            levels[:] = np.nan  # the caller's storage changes after the call
        assert got.tobytes() == want.tobytes()

    def test_holds_no_lag_table(self):
        # a state per term, formed on the first sum: no O(n) table of the
        # weights, which took tens of MB here
        prony = translate(PRONY, 0.05)
        history, peak = _peak_above_entry(lambda: HistoryConvolution.of(prony, 1, 10**6, 0.01))
        assert history.backend == "exponential"
        assert peak < 2**20

    def test_reads_a_ring_as_its_whole_rows(self):
        # level 0 and a ring of 3 slots, level m >= 1 in slot 1 + (m - 1) % 3,
        # as a march hands them over: the sums of the whole rows, bit for bit
        samples = np.random.default_rng(3).standard_normal((12, 5))
        want = _stream_sums(HistoryConvolution.of(translate(PRONY, 0.05), 1, 11, 0.02), samples)
        history = HistoryConvolution.of(translate(PRONY, 0.05), 1, 11, 0.02)
        ring = np.empty((4, 5))
        ring[0] = samples[0]
        for j in range(1, 12):
            ring[1 + (j - 1) % 3] = samples[j]
            assert history.row_sums(ring[None], j)[0].tobytes() == want[j].tobytes()


def test_prony_leapfrog_stores_no_history():
    # the levels are the only stack the march may hold: the direct backend
    # kept a second one of the same size for the Laplacians
    import tracemalloc

    g = Grid.box(11)
    dt = cfl_time_step(g, PRONY, 0.05, 0.5, 3.0)
    spec = ProblemSpec(
        kernel=PRONY, grid=g, horizon=3.0, dt=dt, eps=0.05,
        u0=Field.zero(g), u1=field_from_name(g, "bump", {"radius": 0.3}),
        forcing=Forcing.from_dict("sin_pi_product", {"amplitude": 1.0, "omega": 3.0}),
    )
    levels_bytes = 8 * (spec.n_steps + 1) * g.n_total
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        traj = run(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.record.history_backend == "exponential"
    assert traj.coefficients.nbytes == levels_bytes
    assert peak - entry < 1.25 * levels_bytes


def test_forced_volterra_holds_no_forcing_stack():
    # the march adds c2[j] * p, the profile's sine coefficients p times the
    # twice-integrated factor c2: forcing costs no per-level stack, where a
    # stack of J + 1 integrated forcing fields once took 30 MB more here
    box = Grid.box(23)
    peaks = []
    for forcing in (None, Forcing.from_dict("sin_pi_product", {"amplitude": 0.7, "omega": 5.0})):
        spec = ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=box, horizon=1.0, dt=0.005, eps=0.1,
            u0=Field.zero(box), u1=field_from_name(box, "bump", {"radius": 0.3}),
            forcing=forcing, formulation="integral_volterra",
        )
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            run(spec)
            peaks.append(tracemalloc.get_traced_memory()[1] - entry)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 2**20


def _march_cases():
    line = Grid.line(17)
    box = Grid((4, 5, 3), (1.0, 1.5, 0.8))
    pulse = Forcing.from_dict("sin_pi_product", {"amplitude": 0.7, "omega": 5.0})
    steady = Forcing.from_dict("constant", {"value": 0.3})
    power = PowerLawKernel(c=1.0, alpha=0.5)
    two_term = PronyKernel(g_inf=0.2, terms=((0.5, 2.0), (0.3, 0.07)))
    mixed = KernelSum((PronyKernel(g_inf=0.3, terms=((0.4, 0.5),)), PowerLawKernel(c=0.5, alpha=0.3)))
    cases = []
    for formulation, kernel, eps in (
        ("integrodifferential", PRONY, 0.05),
        ("integral_volterra", power, 0.0),
        ("integral_volterra", PRONY, 0.05),
        ("integrodifferential", two_term, 0.05),
        ("integrodifferential", power, 0.05),
        ("integrodifferential", mixed, 0.05),
    ):
        for grid, forcing in ((line, None), (line, pulse), (box, steady), (box, pulse)):
            cases.append(
                ProblemSpec(
                    kernel=kernel, grid=grid, horizon=0.6, dt=0.02, eps=eps,
                    u0=field_from_name(grid, "bump", {"radius": 0.3}),
                    u1=field_from_name(grid, "sine_mode", {"amplitude": -0.5, "modes": 2}),
                    forcing=forcing, formulation=formulation,
                )
            )
    return cases


class TestMarchersMatchReferenceLoops:
    """The marchers against their one-conv_weights-per-step loops.

    The levels must agree to 1e-12 of max|u|.  Both marchers run in sine
    coefficients, where their oracles step on the nodes with the stencil
    Laplacian, and the two differ by round-off; a Prony leapfrog also runs
    on the exponential recursion, whose sums differ from the weight rows
    by round-off.
    """

    @pytest.mark.parametrize("spec", _march_cases())
    def test_levels_bitwise(self, spec):
        traj = run(spec)
        leapfrog = spec.formulation == "integrodifferential"
        exponential = leapfrog and isinstance(spec.kernel, PronyKernel)
        assert traj.record.history_backend == ("exponential" if exponential else "direct")
        want = reference_integrodiff(spec) if leapfrog else reference_volterra(spec)
        scale = np.max(np.abs(want))
        assert scale > 0.1
        assert np.max(np.abs(nodal_levels(traj) - want)) <= 1e-12 * scale


@pytest.mark.parametrize("spec", _march_cases())
def test_blocked_marchers_match_reference_loops(spec):
    # the runs above fit one block of the shipped _MARCH_ROWS.  Blocks of
    # 4, 5 and 7 rows with direct far sums sum in other orders, so the
    # levels agree to round-off
    leapfrog = spec.formulation == "integrodifferential"
    want = reference_integrodiff(spec) if leapfrog else reference_volterra(spec)
    for rows in (4, 5, 7):
        with small_march_blocks(rows):
            traj = run(spec)
        assert np.max(np.abs(nodal_levels(traj) - want)) <= 1e-12 * np.max(np.abs(want))


def test_unforced_parts_are_zeros():
    # an unforced Volterra march, and the leapfrog's first step, add
    # factor[j] * profile = 0.0 * 0.0, as they added a zero field before:
    # -0.0 turns into 0.0
    grid = Grid((4, 5, 3), (1.0, 1.5, 0.8))
    spec = ProblemSpec(
        kernel=PRONY, grid=grid, horizon=0.6, dt=0.02, eps=0.05,
        u0=Field.zero(grid), u1=Field.zero(grid), formulation="integral_volterra",
    )
    profile, factor = spec.forcing_parts()
    assert profile.shape == grid.shape and factor.shape == (31,)
    field = np.full(grid.shape, -0.0)
    assert (field + factor[7] * profile).tobytes() == np.zeros(grid.shape).tobytes()


@pytest.mark.parametrize(
    "kernel", [PRONY, PowerLawKernel(1.0, 0.5), PronyKernel(1.0, ())], ids=["prony", "powerlaw", "elastic"]
)
@pytest.mark.parametrize("grid", [Grid.line(17), Grid((4, 5, 3), (1.0, 1.5, 0.8))], ids=["1d", "3d"])
@pytest.mark.parametrize("data", ["bump", "zero-u0", "rest"])
def test_an_unforced_leapfrog_marches_as_a_zero_forcing(kernel, grid, data):
    # an unforced leapfrog's steps add no zero forcing, and keep every bit
    # of the levels of the same spec marched with Forcing("zero"), whose
    # steps add its zeros: x + 0.0 is x for every x but -0.0.  Three shifts
    # march at once.  At rest every acceleration is -0.0 without the
    # forcing and 0.0 with it, and every level 0.0 either way
    bump = field_from_name(grid, "bump", {"radius": 0.4})
    u0, u1 = {
        "bump": (bump, field_from_name(grid, "sine_mode", {"amplitude": 0.3})),
        "zero-u0": (Field.zero(grid), bump),
        "rest": (Field.zero(grid), Field.zero(grid)),
    }[data]
    dt = cfl_time_step(grid, kernel, 0.02, 0.5, 0.4)
    spec = ProblemSpec(kernel=kernel, grid=grid, horizon=0.4, dt=dt, eps=0.02, u0=u0, u1=u1)
    zero = dataclasses.replace(spec, forcing=Forcing("zero"))
    shifts = (0.1, 0.02, 0.005)
    for got, want in zip(batch_runs(spec, shifts), batch_runs(zero, shifts)):
        assert got.coefficients.tobytes() == want.coefficients.tobytes()
        if data == "rest":
            assert got.coefficients.tobytes() == np.zeros(got.coefficients.shape).tobytes()


@pytest.mark.parametrize("params", [{"amplitude": 0.7, "omega": 5.0}, {"amplitude": 0.7}])
def test_forcing_parts_are_the_samples_bitwise(params):
    grid = Grid((4, 5, 3), (1.0, 1.5, 0.8))
    pulse = Forcing.from_dict("sin_pi_product", params)
    spec = ProblemSpec(
        kernel=PRONY, grid=grid, horizon=0.6, dt=0.02, eps=0.05,
        u0=Field.zero(grid), u1=Field.zero(grid), forcing=pulse,
    )
    profile, factor = spec.forcing_parts()
    for j, t in enumerate(spec.times):
        assert (factor[j] * profile).tobytes() == (pulse.profile(grid) * pulse.factor(t)).tobytes()


class TestIntegrodiff:
    def test_zero_data_stays_zero(self):
        g = Grid.line(19)
        spec = ProblemSpec(
            kernel=PRONY, grid=g, horizon=1.0, dt=0.02, eps=0.05,
            u0=Field.zero(g), u1=Field.zero(g),
        )
        traj = run(spec)
        assert np.all(nodal_levels(traj) == 0.0)

    def test_level_zero_is_u0(self):
        spec = standing_wave_spec()
        traj = run(spec)
        u0 = spec.u0.values
        assert traj.coefficients[0].tobytes() == sine_transform(spec.grid, u0).tobytes()
        # nodal values are the coefficients transformed back
        assert np.abs(nodal_levels(traj)[0] - u0).max() <= 1e-15 * np.abs(u0).max()

    def test_startup_rule(self):
        g = Grid.line(19)
        x = g.axis_coordinates(0)
        u0 = Field(g, np.sin(np.pi * x))
        u1 = Field(g, 0.3 * np.sin(2 * np.pi * x))
        forcing = SeparableForcing(
            "startup", lambda grid: np.cos(np.pi * grid.axis_coordinates(0)), lambda t: 1.0 + t
        )
        spec = ProblemSpec(
            kernel=PRONY, grid=g, horizon=1.0, dt=0.02, eps=0.05,
            u0=u0, u1=u1, forcing=forcing,
        )
        traj = run(spec)
        g_eps = PRONY.modulus(0.05)
        expected = (
            u0.values
            + 0.02 * u1.values
            + 0.5 * 0.02**2 * (g_eps * laplacian_array(g, u0.values) + forcing_at(forcing, g, 0.0))
        )
        assert nodal_levels(traj)[1] == pytest.approx(expected, abs=1e-15)

    def test_elastic_standing_wave(self):
        spec = standing_wave_spec(n=49)
        traj = run(spec)
        x = spec.grid.axis_coordinates(0)
        exact = np.sin(np.pi * x)[None, :] * np.cos(np.pi * traj.times)[:, None]
        assert np.abs(nodal_levels(traj) - exact).max() < 1e-3

    def test_constant_kernel_matches_plain_leapfrog(self):
        # the memory path must be exactly inert, not just small
        spec = standing_wave_spec(n=19, horizon=0.5)
        traj = run(spec)
        g = spec.grid
        dt = spec.dt
        u_prev = spec.u0.values.copy()
        u_curr = u_prev + dt * spec.u1.values + 0.5 * dt**2 * laplacian_array(g, u_prev)
        manual = [u_prev, u_curr]
        for _ in range(spec.n_steps - 1):
            u_next = 2 * u_curr - u_prev + dt**2 * laplacian_array(g, u_curr)
            u_prev, u_curr = u_curr, u_next
            manual.append(u_curr)
        assert nodal_levels(traj) == pytest.approx(np.array(manual), abs=1e-14)

    def test_manufactured_solution_second_order(self):
        errs = []
        for n in (24, 49):
            g = Grid.line(n)
            dt = cfl_time_step(g, PRONY, 0.05, 0.5, 1.0)
            x = g.axis_coordinates(0)
            spec = ProblemSpec(
                kernel=PRONY, grid=g, horizon=1.0, dt=dt, eps=0.05,
                u0=Field(g, np.sin(np.pi * x)), u1=Field.zero(g),
                forcing=manufactured_forcing(PRONY, 0.05),
            )
            traj = run(spec)
            errs.append(l2q_error(g, nodal_levels(traj), manufactured_exact(g, traj.times), traj.dt))
        order = math.log(errs[0] / errs[1]) / math.log(2.0)
        assert order > 1.8

    def test_abort_on_blowup(self):
        # highest grid mode under a far-too-large dt amplifies each step
        g = Grid.line(19)
        spec = unchecked_spec(
            kernel=PronyKernel(1.0, ()), grid=g, horizon=200.0, dt=2.0, eps=1.0,
            u0=Field(g, np.sin(19 * np.pi * g.axis_coordinates(0))), u1=Field.zero(g),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverAbort, match="non-finite"):
                run(spec)

    def test_wrong_formulation_rejected(self):
        # run dispatches on spec.formulation, so a name it does not know
        # must be stopped when the spec is built
        spec = standing_wave_spec()
        with pytest.raises(ValueError, match="unknown formulation 'volterra'; valid:"):
            dataclasses.replace(spec, formulation="volterra")


class TestVolterra:
    def test_zero_data_stays_zero(self):
        g = Grid.line(19)
        spec = ProblemSpec(
            kernel=PRONY, grid=g, horizon=1.0, dt=0.02, eps=0.05,
            u0=Field.zero(g), u1=Field.zero(g),
            formulation="integral_volterra",
        )
        traj = run(spec)
        assert np.all(nodal_levels(traj) == 0.0)
        # z_max: the self-weight lags[0] = left[0] times the top eigenvalue
        # of -lap, read off the stencil on the top sine mode
        left, _ = interval_weights(
            partial(translate(PRONY, 0.05)._tower, -2), partial(translate(PRONY, 0.05)._tower, -3), 50, 0.02
        )
        top = np.sin(19 * np.pi * g.axis_coordinates(0))
        mu_top = -reference_laplacian(g, top)[9] / top[9]
        assert traj.record.z_max == pytest.approx(left[0] * mu_top, rel=1e-12)

    def test_agrees_with_integrodiff(self):
        g = Grid.line(31)
        u1 = field_from_name(g, "sin_pi_product", {"amplitude": 1.0})
        spec_d = ProblemSpec(
            kernel=PRONY, grid=g, horizon=1.0, dt=0.005, eps=0.05,
            u0=Field.zero(g), u1=u1,
        )
        spec_i = dataclasses.replace(spec_d, formulation="integral_volterra")
        assert trajectory_distance(run(spec_d), run(spec_i)) < 5e-5

    def test_runs_at_zero_shift_for_singular_kernel(self):
        g = Grid.line(19)
        spec = ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=0.5,
            dt=0.01, eps=0.0, u0=Field.zero(g),
            u1=field_from_name(g, "sin_pi_product", {"amplitude": 1.0}),
            formulation="integral_volterra",
        )
        traj = run(spec)
        assert np.all(np.isfinite(nodal_levels(traj)))
        assert np.abs(nodal_levels(traj)).max() > 0.0

    def test_zero_shift_is_limit_of_small_shifts(self):
        g = Grid.line(19)
        k = PowerLawKernel(c=1.0, alpha=0.5)
        u1 = field_from_name(g, "sin_pi_product", {"amplitude": 1.0})
        def solve(eps):
            return run(ProblemSpec(
                kernel=k, grid=g, horizon=0.5, dt=0.01, eps=eps,
                u0=Field.zero(g), u1=u1, formulation="integral_volterra",
            ))
        at_zero = solve(0.0)
        d_coarse = trajectory_distance(solve(2e-3), at_zero)
        d_fine = trajectory_distance(solve(5e-4), at_zero)
        # distance to the unshifted run shrinks like sqrt(eps)
        assert d_fine < d_coarse
        assert 1.5 < d_coarse / d_fine < 3.0
        assert d_fine < 5e-3

    def test_abort_on_overflow(self):
        # the implicit step is not stable at every z: under a large dt,
        # z_max = 28, the highest grid mode grows until it overflows
        g = Grid.line(19)
        spec = ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=200.0, dt=0.2, eps=0.1,
            u0=Field(g, np.sin(19 * np.pi * g.axis_coordinates(0))), u1=Field.zero(g),
            formulation="integral_volterra",
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverAbort, match="non-finite") as got:
                run(spec)
            with pytest.raises(SolverAbort) as want:
                reference_volterra(spec)
        # the oracle overflows in its nodal Laplacians, up to 4 / h^2 = 1600
        # times the level, one step before the levels themselves do
        assert got.value.step == 638 < spec.n_steps
        assert got.value.eps == 0.1
        assert want.value.step == got.value.step - 1

    def test_z_max_shrinks_with_dt(self):
        # the self-weight of a bounded modulus is G(eps) dt^2 / 6 to leading
        # order, so halving dt quarters z_max
        g = Grid.line(19)
        u1 = field_from_name(g, "sin_pi_product", {"amplitude": 1.0})
        def z_max(dt):
            spec = ProblemSpec(
                kernel=PRONY, grid=g, horizon=0.5, dt=dt, eps=0.05,
                u0=Field.zero(g), u1=u1, formulation="integral_volterra",
            )
            return run(spec).record.z_max
        assert 3.9 < z_max(0.01) / z_max(0.005) < 4.1

    @pytest.mark.parametrize(
        "n, dt, eps, peak",
        [(49, 0.005, 0.0, 0.1274), (49, 0.005, 0.1 * 2**-8, 0.1327), (99, 0.00125, 0.0, 0.1273)],
    )
    def test_runs_in_the_singular_limit_stay_in_mode_one(self, n, dt, eps, peak):
        # a run that starts in sine mode 1 stays there; the explicit
        # corrector grew the round-off of the top modes to max|u| = 2.8e184,
        # 6.1e78 and 3.3e11 in these runs
        g = Grid.line(n)
        traj = run(ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=1.0, dt=dt, eps=eps,
            u0=Field.zero(g), u1=field_from_name(g, "sin_pi_product", {"amplitude": 1.0}),
            formulation="integral_volterra",
        ))
        assert np.max(np.abs(nodal_levels(traj))) == pytest.approx(peak, abs=1e-4)
        assert non_mode_one(g, nodal_levels(traj)) < 1e-14

    def test_bundled_shifts_stay_in_mode_one(self):
        # every shift of powerlaw_theorem1.cfg, h = 6 too, where the
        # explicit corrector had grown the other modes to 1.2e-5
        cfg = parse_config_file(CONFIGS / "powerlaw_theorem1.cfg")
        shifts = eps_schedule(cfg.eps0, cfg.ratio, cfg.count)
        for traj in batch_runs(_build_spec(cfg, float(shifts[0]), cfg.dt), shifts):
            assert non_mode_one(cfg.grid, nodal_levels(traj)) < 1e-14


_TAIL_FAMILIES = {
    "powerlaw": [PowerLawKernel(c=1.0, alpha=a) for a in (0.3, 0.5, 0.7)],
    "prony": [PronyKernel(0.5, ((0.5, 2.0),)), PronyKernel(0.2, ((0.5, 2.0), (0.3, 0.07)))],
    "sum": [KernelSum((PronyKernel(g_inf=0.3, terms=((0.4, 0.5),)), PowerLawKernel(c=0.5, alpha=0.3)))],
}


def _hat_integrals(factor, lags, dt):
    """Exact lag weights: the factor w (Ksh for the Volterra march, dG for
    the leapfrog) integrated against the hat on [s_{d-1}, s_{d+1}], by
    10-point Gauss-Legendre on each half, where w is smooth for d >= 1."""
    x, w = np.polynomial.legendre.leggauss(10)
    x, w = (x + 1) / 2, w / 2
    s = (np.asarray(lags)[:, None] - 1 + x) * dt
    return dt * (factor(s) * x + factor(s + dt) * (1 - x)) @ w


class TestVolterraTail:
    """The exponential fit that carries the far history sums of both marchers."""

    @pytest.mark.parametrize("J", [200, 2000, 8000])
    @pytest.mark.parametrize("family", sorted(_TAIL_FAMILIES))
    def test_fit_lag_weights_match_interval_weights(self, family, J):
        # a lag weight integrates Ksh against a hat of area dt, so the fit's
        # weights are within delta dt of the exact ones, delta the checked
        # error times max |Ksh|, plus the rounding of their own sum;
        # interval_weights' rounding is its distance from the exact weights
        # (up to 1e-7 relative at J = 8000)
        W, dt = solver_module._MARCH_ROWS, 1.0 / J
        kernels = [translate(k, e) for k in _TAIL_FAMILIES[family] for e in (0.0, 0.01, 0.1)]
        tail = solver_module._ExponentialTail.fit([partial(k._tower, -1) for k in kernels], (W - 1) * dt, 1.0, dt)
        assert np.all(tail.error <= solver_module._TAIL_TOLERANCE)
        lags = np.arange(W, J)  # lag J weighs only level 0, through oldest
        terms = tail.readout(lags)[..., :-1]  # a lone level at M: states (1, .., 1, 1, 0)
        fitted, magnitude = terms.sum(axis=-1), np.abs(terms).sum(axis=-1)
        table = HistoryConvolution.of(kernels, -1, J, dt).lags[:, W:J]
        for k, kernel in enumerate(kernels):
            exact = _hat_integrals(partial(kernel._tower, -1), lags, dt)
            delta = tail.error[k] * kernel._tower(-1, 1.0) * dt
            rounding = 8 * np.finfo(float).eps * (np.abs(exact) + magnitude[k])
            assert np.all(np.abs(fitted[k] - exact) <= delta + rounding)
            assert np.all(np.abs(fitted[k] - table[k]) <= delta + np.abs(table[k] - exact) + rounding)

    @pytest.mark.parametrize(
        "kernel, shifts, forced",
        [
            (PowerLawKernel(c=1.0, alpha=0.5), tuple(eps_schedule(0.1, 0.5, 6)), False),
            (PowerLawKernel(c=1.0, alpha=0.5), (0.0,), True),
            (_TAIL_FAMILIES["sum"][0], (0.0, 0.01), True),
            (_TAIL_FAMILIES["prony"][1], (0.05,), True),
        ],
        ids=["benchmark-sequence", "powerlaw-eps0", "sum", "prony2"],
    )
    def test_blocked_march_matches_direct_sums(self, kernel, shifts, forced):
        # the benchmark's grid and J = 2,000 steps, both marches on the exact
        # weights of the lags from W on: interval_weights' own rounding there
        # (4e-9 relative for the Prony kernel) would hide the fit's.  The fit
        # then moves every far sum by at most delta T max|u|, T = 1 and delta
        # the checked error times max |Ksh|.  The levels move by less than
        # that plus 1e-13 max|u|, the round-off of summing 2,000 rows in
        # another order (measured: under 0.1 of the sum, under 0.7 of the
        # first term alone)
        W, J = solver_module._MARCH_ROWS, 2000
        g = Grid.line(99)
        pulse = Forcing.from_dict("sin_pi_product", {"amplitude": 0.7, "omega": 5.0})
        spec = ProblemSpec(
            kernel=kernel, grid=g, horizon=1.0, dt=1.0 / J, eps=shifts[0],
            u0=Field.zero(g), u1=field_from_name(g, "sine_mode", {"amplitude": 1.0, "modes": [1]}),
            forcing=pulse if forced else None, formulation="integral_volterra",
        )
        weights = HistoryConvolution.of

        def exact_from_w(kernels, order, n, dt):
            history = weights(kernels, order, n, dt)
            for k, shifted in enumerate(kernels):
                history.lags[k, W:n] = _hat_integrals(partial(shifted._tower, -1), np.arange(W, n), dt)
            return history

        with mock.patch.object(HistoryConvolution, "of", exact_from_w):
            blocked = batch_runs(spec, shifts)
            with direct_sums():
                direct = batch_runs(spec, shifts)
        for eps, fast, slow in zip(shifts, blocked, direct):
            assert fast.record.far_nodes == 33 and slow.record.far_nodes == 0
            assert 0.0 < fast.record.far_error <= solver_module._TAIL_TOLERANCE
            scale = np.max(np.abs(slow.coefficients))
            bound = fast.record.far_error * translate(kernel, eps)._tower(-1, 1.0) + 1e-13
            assert np.max(np.abs(fast.coefficients - slow.coefficients)) <= bound * scale

    @pytest.mark.parametrize(
        "kernel, eps, forced",
        [
            (PowerLawKernel(c=1.0, alpha=0.5), 0.1, False),
            (PowerLawKernel(c=1.0, alpha=0.5), 0.01, True),
            (_TAIL_FAMILIES["sum"][0], 0.01, False),
        ],
        ids=["powerlaw-eps0.1", "powerlaw-eps0.01", "sum"],
    )
    def test_blocked_leapfrog_matches_direct_sums(self, kernel, eps, forced):
        # the leapfrog's far sums fit dG: the same comparison as above, at
        # J = 2,000 steps on exact weights of the lags from W on.  The fit
        # moves every far sum by at most delta T max|u|, delta the checked
        # error times max |dG| = |dG((W - 1) dt)|, and the bound on the
        # levels is that plus 1e-13 max|u| (measured: at most 0.16 of it)
        W, J = solver_module._MARCH_ROWS, 2000
        g = Grid.line(99)
        pulse = Forcing.from_dict("sin_pi_product", {"amplitude": 0.7, "omega": 5.0})
        spec = ProblemSpec(
            kernel=kernel, grid=g, horizon=1.0, dt=1.0 / J, eps=eps,
            u0=Field.zero(g), u1=field_from_name(g, "sine_mode", {"amplitude": 1.0, "modes": [1]}),
            forcing=pulse if forced else None,
        )
        weights = HistoryConvolution.of
        shifted = translate(kernel, eps)

        def exact_from_w(kernels, order, n, dt):
            history = weights(kernels, order, n, dt)
            history.lags[:, W:n] = _hat_integrals(partial(shifted._tower, 1), np.arange(W, n), dt)
            return history

        with mock.patch.object(HistoryConvolution, "of", exact_from_w):
            fast = run(spec)
            with direct_sums():
                slow = run(spec)
        assert fast.record.far_nodes > 0 and slow.record.far_nodes == 0
        assert 0.0 < fast.record.far_error <= solver_module._TAIL_TOLERANCE
        scale = np.max(np.abs(slow.coefficients))
        bound = fast.record.far_error * abs(shifted.modulus_dt((W - 1) * spec.dt)) + 1e-13
        assert np.max(np.abs(fast.coefficients - slow.coefficients)) <= bound * scale

    def test_short_and_refused_runs_sum_directly(self):
        g = Grid.line(19)
        long = _volterra_spec(g, 1.0, 0.005)  # J = 200 > 2 W
        traj = run(long)
        assert traj.record.far_nodes == 25 and 0.0 < traj.record.far_error <= solver_module._TAIL_TOLERANCE
        with direct_sums():
            refused = run(long)
        assert (refused.record.far_nodes, refused.record.far_error) == (0, 0.0)
        short = run(_volterra_spec(g, 0.64, 0.005))  # J = 128 = 2 W
        assert (short.record.far_nodes, short.record.far_error) == (0, 0.0)

    @pytest.mark.parametrize("rows", [5, 6, 7, 64])
    def test_abort_mid_block_reports_its_step(self, rows):
        # a block checks its levels once, after its last row; the step
        # reported is still the first non-finite one, for a lone run (638)
        # and for the shift it names in a batch (1342).  Both fall inside a
        # block, but with 7 rows step 638 is the first row of one
        g = Grid.line(19)
        lone = ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=200.0, dt=0.2, eps=0.1,
            u0=Field(g, np.sin(19 * np.pi * g.axis_coordinates(0))), u1=Field.zero(g),
            formulation="integral_volterra",
        )
        g = Grid.line(39)
        batch = ProblemSpec(
            kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=g, horizon=22.5, dt=0.015, eps=0.1,
            u0=field_from_name(g, "sine_mode", {"amplitude": 1.0, "modes": [39]}),
            u1=Field.zero(g), formulation="integral_volterra",
        )
        shifts = eps_schedule(0.1, 0.1, 3)
        with mock.patch.object(solver_module, "_MARCH_ROWS", rows), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SolverAbort) as one:
                run(lone)
            with pytest.raises(SolverAbort) as many:
                batch_runs(batch, shifts)
            with pytest.raises(SolverAbort) as streamed:
                run_eps_sequence(batch, 0.1, 0.1, 3)
        assert one.value.step == 638
        assert (many.value.step, many.value.eps) == (1342, float(shifts[2]))
        # the streamed sequence marches in a ring, and stops at the same step
        assert (streamed.value.step, streamed.value.eps) == (1342, float(shifts[2]))


def test_volterra_3d_run_holds_no_history():
    # one 3D run on 23^3 nodes, J = 200: beyond its level buffer the march
    # holds a block's far sums and one product, 2 W levels, and two sets of
    # the fit's states, 2 (L + 2) levels: 182 / 201 of the stack, a bound of
    # 0.95x (measured 0.81x); summing far levels from a (J, N) history
    # would add 1.0x.  The buffer is the ring of 3 W + 1 = 193 levels, and
    # run(spec) holds the stack it copies the blocks into as well
    box = Grid.box(23)
    spec = ProblemSpec(
        kernel=PowerLawKernel(c=1.0, alpha=0.5), grid=box, horizon=1.0, dt=0.005, eps=0.1,
        u0=Field.zero(box), u1=field_from_name(box, "bump", {"radius": 0.3}),
        formulation="integral_volterra",
    )

    def drained():
        (record,), levels, blocks = solver_module.march(spec)
        for _ in blocks:
            pass
        return record, levels.nbytes

    (record, ring), peak = _peak_above_entry(drained)
    stack = 8 * 201 * box.n_total
    assert record.far_nodes == 25 and ring == 8 * 193 * box.n_total
    assert peak < ring + 0.95 * stack
    traj, peak = _peak_above_entry(lambda: run(spec))
    assert traj.coefficients.nbytes == stack
    assert peak < ring + 1.95 * stack


def _transform_calls(fn):
    """fn() and the shapes of the fields the solver sine-transforms in it."""
    calls = []

    def counted(grid, values):
        calls.append(np.shape(values))
        return sine_transform(grid, values)

    with mock.patch.object(solver_module, "sine_transform", counted):
        return fn(), calls


@pytest.mark.parametrize("shifts", [None, (0.1, 0.01, 0.0)])
@pytest.mark.parametrize("grid", [Grid.line(17), Grid((4, 5, 3), (1.0, 1.5, 0.8))])
def test_volterra_march_takes_no_laplacian(grid, shifts):
    # the march runs in sine coefficients, where the Laplacian is -mu: it
    # transforms u0, u1 and the forcing profile once and nothing per step,
    # nor for the blocked history sums, whose levels older than the
    # previous block of _MARCH_ROWS rows are folded into the tail's states
    # from the stored coefficients
    n_steps = 2 * solver_module._MARCH_ROWS + 5
    spec = _volterra_spec(grid, 0.6, 0.6 / n_steps)
    result, calls = _transform_calls(lambda: [run(spec)] if shifts is None else batch_runs(spec, shifts))
    assert all(np.all(np.isfinite(traj.coefficients)) for traj in result)
    assert calls == [grid.shape] * 3
    assert not hasattr(solver_module, "laplacian_array")


@pytest.mark.parametrize(
    "kernel",
    [
        PowerLawKernel(c=1.0, alpha=0.5),
        KernelSum((PronyKernel(g_inf=0.3, terms=((0.4, 0.5),)), PowerLawKernel(c=0.5, alpha=0.3))),
        PRONY,
    ],
)
def test_leapfrog_takes_no_laplacian(kernel):
    # the leapfrog marches the sine coefficients too: step j scales
    # g0 u_j + H_j by -mu, also in runs past two blocks of _MARCH_ROWS rows,
    # whose far sums read the older levels through the tail's states, and
    # transforms nothing per step
    g = Grid.line(17)
    n_steps = 2 * solver_module._MARCH_ROWS + 5
    spec = ProblemSpec(
        kernel=kernel, grid=g, horizon=2.0, dt=2.0 / n_steps, eps=0.05,
        u0=Field.zero(g), u1=field_from_name(g, "bump", {"radius": 0.3}),
    )
    traj, calls = _transform_calls(lambda: run(spec))
    assert np.all(np.isfinite(traj.coefficients))
    assert calls == [g.shape] * 3
    assert (traj.record.far_nodes > 0) == (traj.record.history_backend == "direct")
    # the modal march is the nodal leapfrog: level 2 against one stencil step
    g0 = kernel.modulus(0.05)
    u = nodal_levels(traj)
    history = HistoryConvolution.of(translate(kernel, 0.05), 1, spec.n_steps, spec.dt)
    h1 = history.row_sums(traj.coefficients[None], 1)[0]
    want = 2 * u[1] - u[0] + spec.dt**2 * laplacian_array(g, g0 * u[1] + sine_transform(g, h1))
    assert np.abs(u[2] - want).max() <= 1e-13 * np.abs(want).max()


class TestVelocities:
    @pytest.mark.parametrize("n_levels", [3, 4, 10, 11])
    @pytest.mark.parametrize("stride", [1, 2, 3, 5, 12])
    def test_strided_levels_match_full_stack_bitwise(self, n_levels, stride):
        # a strided export asks for its levels one at a time
        g = Grid((3, 4, 3), (1.0, 1.0, 1.0))
        levels = np.random.default_rng(n_levels).standard_normal((n_levels,) + g.shape)
        traj = TrajectorySolution(g, 0.1 * np.arange(n_levels), levels, RunRecord(""))
        want = reference_velocities(levels, traj.dt)[::stride]
        got = np.concatenate([velocity_coefficients(traj, j, j + 1) for j in range(0, n_levels, stride)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", [1, 3])
    def test_level_ranges_match_full_stack_bitwise(self, seed):
        g = Grid((3, 4, 3), (1.0, 1.0, 1.0))
        levels = np.random.default_rng(seed).standard_normal((11,) + g.shape)
        traj = TrajectorySolution(g, 0.1 * np.arange(11), levels, RunRecord(""))
        full = reference_velocities(levels, traj.dt)
        for start, stop in [(0, 1), (0, 4), (1, 2), (3, 7), (9, 11), (10, 11), (4, 40), (5, 5)]:
            got = velocity_coefficients(traj, start, stop)
            assert got.tobytes() == full[start:stop].tobytes(), (start, stop)

    def test_exact_on_linear_trajectory(self):
        g = Grid.line(9)
        times = 0.25 * np.arange(5)
        ramp = np.outer(times, np.ones(9))
        traj = TrajectorySolution(g, times, sine_transform(g, 2.0 * ramp + 1.0), RunRecord(""))
        assert nodal_velocities(traj) == pytest.approx(np.full((5, 9), 2.0), abs=1e-12)


class TestTrajectoryDistance:
    def test_requires_matching_grids(self):
        a = run(standing_wave_spec(n=19, horizon=0.5))
        b = run(standing_wave_spec(n=23, horizon=0.5))
        with pytest.raises(ValueError):
            trajectory_distance(a, b)

    def test_zero_against_itself(self):
        a = run(standing_wave_spec(n=19, horizon=0.5))
        assert trajectory_distance(a, a) == 0.0


class TestStress:
    def test_step_strain_tracks_modulus(self):
        dt = 0.01
        n = 200
        history = np.ones(n + 1)
        for j in (1, 50, 200):
            stress = compute_stress(PRONY, history[: j + 1], dt)
            assert stress == pytest.approx(PRONY.modulus(j * dt), abs=1e-12)

    def test_ramp_strain_integrates_modulus(self):
        k = PronyKernel(g_inf=0.0, terms=((1.0, 1.0),))
        dt = 0.01
        times = dt * np.arange(101)
        history = times.copy()
        for j in (10, 100):
            stress = compute_stress(k, history[: j + 1], dt)
            assert stress == pytest.approx(k.integral(j * dt), abs=1e-12)

    def test_constant_forever_returns_equilibrium(self):
        dt = 0.01
        history = np.full(151, 2.0)
        stress = compute_stress(PRONY, history, dt, past_value=2.0)
        assert stress == pytest.approx(PRONY.value_at_inf * 2.0, abs=1e-12)

    def test_integrated_form_handles_singular_kernel(self):
        k = PowerLawKernel(c=1.0, alpha=0.5)
        history = np.ones(11)
        stress = compute_stress(k, history, 0.01)
        assert stress == pytest.approx(k.modulus(0.1), abs=1e-10)

    def test_forms_agree_for_smooth_kernel(self):
        # against the classical form G(0) E(t) + int dG E, which a modulus
        # bounded at 0 also admits; both are exact on the strain interpolant
        dt, n = 0.01, 120
        times = dt * np.arange(n + 1)
        strains = {"step": np.full(n + 1, 1.3), "ramp": 1.3 * times, "sine": np.sin(7 * times)}
        for kernel in (PRONY, PronyKernel(0.5, ((0.3, 1.0), (0.2, 0.25)))):
            for name, history in strains.items():
                for past in (0.0, 0.4):
                    curve = stress_curve(kernel, history, dt, past)
                    want = classical_stress_curve(kernel, history, dt, past)
                    assert np.abs(curve - want).max() <= 1e-13, (kernel, name, past)

    @pytest.mark.parametrize("strain", ["step", "ramp", "sine"])
    # ids number the kernels and name the integrated form the stress is taken in
    @pytest.mark.parametrize(
        "kernel",
        [
            pytest.param(PronyKernel(0.5, ((0.3, 1.0), (0.2, 0.25))), id="kernel0-integrated"),
            pytest.param(PRONY, id="kernel1-integrated"),
            pytest.param(PowerLawKernel(c=1.0, alpha=0.5), id="kernel2-integrated"),
            pytest.param(KernelSum((PRONY, PowerLawKernel(c=0.3, alpha=0.4))), id="kernel3-integrated"),
        ],
    )
    def test_curve_equals_prefix_stresses_bitwise(self, kernel, strain):
        dt, n = 0.01, 120
        times = dt * np.arange(n + 1)
        history = {"step": np.full(n + 1, 1.3), "ramp": 1.3 * times, "sine": np.sin(7 * times)}[strain]
        curve = stress_curve(kernel, history, dt, 0.4)
        want = [compute_stress(kernel, history[: m + 1], dt, 0.4) for m in range(1, n + 1)]
        assert curve.tobytes() == np.array(want).tobytes()



class TestExactAtZeroShift:
    """The Volterra march at eps = 0 against the exact modal solution of
    the semi-discrete power-law problem (exact_unshifted_mode)."""

    KERNEL = PowerLawKernel(c=1.0, alpha=0.5)

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("u0, u1", [(0.0, 1.0), (1.0, 0.0), (0.7, -1.3)])
    def test_oracle_matches_mittag_leffler_series(self, alpha, u0, u1):
        # mu makes lam = 0.3, so lam t^(2 - alpha) <= 0.3 on these times and
        # the series sum z^k / Gamma(ak + b) converges fast with no
        # cancellation: u = u0 E_a,1(-lam t^a) + u1 t E_a,2(-lam t^a), a = 2 - alpha
        kernel = PowerLawKernel(c=1.0, alpha=alpha)
        mu = 0.3 / math.gamma(1.0 - alpha)
        times = np.array([0.0, 0.01, 0.1, 0.5, 1.0])
        a = 2.0 - alpha

        def series(b, z):
            return sum(z**k / math.gamma(a * k + b) for k in range(40))

        want = np.array([u0 * series(1, -0.3 * t**a) + u1 * t * series(2, -0.3 * t**a) for t in times])
        got = exact_unshifted_mode(kernel, mu, u0, u1, times)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize(
        "mode, ceiling",
        # the relative max error at dt = 0.00125, measured 4.78e-6 and 1.76e-4
        [(1, 5.3e-6), (4, 1.95e-4)],
    )
    def test_volterra_march_is_second_order(self, mode, ceiling):
        # Grid.line(31); measured orders 1.9995-2.0063 at every halving,
        # errors 1.2e-3 and 4.5e-2 at dt 0.02
        orders, error = self._orders_and_error(Grid.line(31), [mode])
        assert np.all(orders >= 1.95), orders
        assert error < ceiling

    def test_volterra_march_is_second_order_in_three_dimensions(self):
        # Grid.box(9), mode (1, 1, 1); measured orders 1.9988-1.9999 at every
        # halving, errors 5.21e-3 at dt 0.02 and 2.04e-5 at dt 0.00125
        orders, error = self._orders_and_error(Grid.box(9), [1, 1, 1])
        assert np.all(orders >= 1.95), orders
        assert error < 2.25e-5

    def _orders_and_error(self, grid, modes):
        """The observed orders of the march at eps = 0 with u1 = one sine
        mode, horizon 2 and dt = 0.02 halved four times, and its error at
        dt = 0.00125.  Errors are taken at the 101 times of the coarsest
        run, relative to the exact coefficient's max there."""
        u1 = field_from_name(grid, "sine_mode", {"modes": modes})
        index = tuple(m - 1 for m in modes)
        exact = exact_unshifted_mode(
            self.KERNEL, grid.eigenvalues[index], 0.0, sine_transform(grid, u1.values)[index], np.linspace(0.0, 2.0, 101)
        )
        errors = []
        for h in range(5):
            spec = ProblemSpec(
                kernel=self.KERNEL, grid=grid, horizon=2.0, dt=0.02 / 2**h, eps=0.0,
                u0=Field.zero(grid), u1=u1, formulation="integral_volterra",
            )
            got = run(spec).coefficients[(slice(None, None, 2**h), *index)]
            errors.append(np.abs(got - exact).max() / np.abs(exact).max())
        return np.log2(np.array(errors[:-1]) / errors[1:]), errors[-1]

    def test_criterion_07_rate_measures_the_shift(self):
        # criterion 07's power-law sequence (Grid.line(49), horizon 1, dt
        # 0.005, u1 = sin pi x, shifts 0.1 2^-h for h = 0 .. 5) against the
        # exact eps = 0 solution, in trajectory_distance's norm: the march
        # at eps = 0 is 3.83e-6 from it, and the shifted runs 4.44e-2 ..
        # 7.09e-3, at a fitted rate of 0.532.  So the criterion's rate
        # measures the shift error; the march's own is 5.4e-4 of the least
        grid = Grid.line(49)
        u1 = field_from_name(grid, "sin_pi_product", {})
        spec = ProblemSpec(
            kernel=self.KERNEL, grid=grid, horizon=1.0, dt=0.005, eps=0.0,
            u0=Field.zero(grid), u1=u1, formulation="integral_volterra",
        )
        # sin pi x is sine mode 1 on the grid, so the limit has no other mode
        coefficients = np.zeros((spec.n_steps + 1, grid.n_total))
        coefficients[:, 0] = exact_unshifted_mode(
            self.KERNEL, grid.eigenvalues[0], 0.0, sine_transform(grid, u1.values)[0], spec.times
        )
        limit = TrajectorySolution(grid, spec.times, coefficients, RunRecord(""))
        unshifted = trajectory_distance(run(spec), limit)
        shifts = 0.1 * 0.5 ** np.arange(6)
        shifted = np.array([trajectory_distance(run(dataclasses.replace(spec, eps=float(e))), limit) for e in shifts])
        rate = np.polyfit(np.log(shifts), np.log(shifted), 1)[0]
        assert unshifted < 4.2e-6
        assert unshifted < 1e-3 * shifted.min()
        assert np.all(np.diff(shifted) < 0), shifted
        assert abs(rate - 0.5) <= 0.05, rate
