"""Config parsing: defaults, validation aggregation, nearest-key hints."""

import pytest

from memvisco.config import ConfigError, parse_config, parse_config_file
from memvisco.kernels import PowerLawKernel, PronyKernel

MINIMAL = """\
[kernel]
family = constant
g0 = 1.0

[grid]
n = 9
"""

FULL = """\
[experiment]
mode = single_run
formulation = integral_volterra

[kernel]
family = prony
g_inf = 0.5
terms = [[0.5, 2.0]]

[grid]
dim = 1
n = 49
extent = 2.0

[time]
horizon = 1.5
dt = 0.005
n_samples = 100

[data]
u0 = sin_pi_product
u0_params = {"amplitude": 0.5}
u1 = zero
f = constant
f_params = {"value": 0.3, "omega": 2.0}

[eps]
eps = 0.02

[diagnostics]
energy_ledger = true
energy_decay = yes
energy_bound = off
weak_residual = 0
lemma_check = false

[output]
snapshot_stride = 4
export_format = both

[tolerances]
cauchy_tol = 5e-3
decay_safety = 3.0
"""


def violations_of(text: str) -> list[str]:
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    return info.value.violations


class TestDefaults:
    def test_minimal_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mode == "single_run"
        assert cfg.formulation == "integrodifferential"
        assert cfg.kernel == PronyKernel(1.0, ())
        assert cfg.grid.n == (9,)
        assert cfg.dt is None and cfg.cfl == 0.5
        assert cfg.horizon == 1.0
        assert cfg.eps == 0.05

    def test_defaults_are_recorded(self):
        cfg = parse_config(MINIMAL)
        assert "time.cfl = 0.5" in cfg.defaults_applied
        assert "experiment.mode = 'single_run'" in cfg.defaults_applied
        assert "time.horizon = 1.0" in cfg.defaults_applied
        assert "diagnostics.energy_ledger = True" in cfg.defaults_applied

    def test_tolerance_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.tolerances == {
            "cauchy_tol": 1e-2,
            "stress_tol": 1e-6,
            "decay_safety": 5.0,
            "weak_tol": 1e-2,
        }

    def test_diagnostic_defaults_depend_on_mode(self):
        cfg = parse_config(MINIMAL)
        assert cfg.diagnostics["energy_ledger"] is True
        assert cfg.diagnostics["energy_bound"] is True
        assert cfg.diagnostics["lemma_check"] is False

        seq = MINIMAL + "\n[experiment]\nmode = eps_sequence\n"
        seq += "[eps]\neps0 = 0.1\nratio = 0.5\ncount = 3\n"
        cfg2 = parse_config(seq)
        assert cfg2.diagnostics["lemma_check"] is True

    def test_stress_test_needs_no_grid_and_defaults_dt(self):
        cfg = parse_config(
            "[experiment]\nmode = stress_test\n[kernel]\nfamily = constant\ng0 = 1.0\n"
        )
        assert cfg.grid is None
        assert cfg.dt == 0.01
        assert "time.dt = 0.01" in cfg.defaults_applied


class TestExplicitValues:
    def test_full_config(self):
        cfg = parse_config(FULL)
        assert cfg.formulation == "integral_volterra"
        assert cfg.kernel == PronyKernel(0.5, ((0.5, 2.0),))
        assert cfg.grid.extent == (2.0,)
        assert cfg.dt == 0.005 and cfg.cfl is None
        assert cfg.u0_name == "sin_pi_product"
        assert cfg.u0_params == {"amplitude": 0.5}
        assert cfg.forcing.name == "constant"
        assert not cfg.forcing.is_zero
        assert cfg.snapshot_stride == 4
        assert cfg.export_format == "both"

    def test_explicit_keys_leave_no_default_record(self):
        cfg = parse_config(FULL)
        joined = "\n".join(cfg.defaults_applied)
        assert "time.horizon" not in joined
        assert "experiment.mode" not in joined
        assert "tolerances.cauchy_tol" not in joined

    def test_boolean_spellings(self):
        cfg = parse_config(FULL)
        assert cfg.diagnostics["energy_ledger"] is True
        assert cfg.diagnostics["energy_decay"] is True
        assert cfg.diagnostics["energy_bound"] is False
        assert cfg.diagnostics["weak_residual"] is False

    def test_tolerances_override_defaults(self):
        cfg = parse_config(FULL)
        assert cfg.tolerances["cauchy_tol"] == 5e-3
        assert cfg.tolerances["decay_safety"] == 3.0
        assert cfg.tolerances["stress_tol"] == 1e-6

    def test_powerlaw_kernel(self):
        cfg = parse_config(
            "[kernel]\nfamily = powerlaw\nc = 1.0\nalpha = 0.5\n[grid]\nn = 9\n"
        )
        assert cfg.kernel == PowerLawKernel(1.0, 0.5)


class TestResolvedEcho:
    def test_resolved_mirrors_config(self):
        cfg = parse_config(MINIMAL)
        assert cfg.resolved["mode"] == "single_run"
        assert cfg.resolved["time"] == {
            "horizon": 1.0,
            "dt": None,
            "cfl": 0.5,
            "n_samples": 200,
        }
        assert cfg.resolved["kernel"] == repr(cfg.kernel)
        assert cfg.resolved["grid"] == {"n": (9,), "extent": (1.0,)}
        assert cfg.resolved["tolerances"] == cfg.tolerances


class TestViolations:
    def test_invalid_alpha_surfaces_kernel_message(self):
        bad = "[kernel]\nfamily = powerlaw\nc = 1.0\nalpha = 1.5\n[grid]\nn = 9\n"
        msgs = violations_of(bad)
        assert any("alpha must be in (0,1)" in m for m in msgs)

    def test_eps_sequence_names_missing_keys(self):
        bad = MINIMAL + "[experiment]\nmode = eps_sequence\n"
        msgs = violations_of(bad)
        assert "mode eps_sequence needs [eps] keys: eps0, ratio, count" in msgs

    def test_eps_sequence_reports_a_bad_key_once(self):
        # an out-of-range key is present: it used to be listed again as missing
        bad = MINIMAL + "[experiment]\nmode = eps_sequence\n[eps]\neps0 = 0.1\nratio = 1.5\ncount = 1\n"
        msgs = violations_of(bad)
        assert len(msgs) == 2
        assert any(m.startswith("[eps] ratio = 1.5 invalid") for m in msgs)
        assert any(m.startswith("[eps] count = 1 invalid") for m in msgs)

    def test_unknown_key_gets_nearest_hint(self):
        bad = MINIMAL + "[output]\nexport_fromat = csv\n"
        msgs = violations_of(bad)
        assert "unknown key 'export_fromat' in [output]; nearest valid: 'export_format'" in msgs

    @pytest.mark.parametrize(
        "kernel, message",
        [
            ("family = prony\ng_inf = 0.5\nterms = [[0.5, 2.0]]\nalpha = 0.5",
             "[kernel] prony kernel got unknown keys: alpha"),
            ("family = powerlaw\nc = 1.0\nalpha = 0.5\ng_inf = 3",
             "[kernel] powerlaw kernel got unknown keys: g_inf"),
        ],
        ids=["prony_alpha", "powerlaw_g_inf"],
    )
    def test_key_of_another_family_rejected(self, kernel, message):
        # these keys are valid in [kernel], but not for this family
        bad = MINIMAL.replace("family = constant\ng0 = 1.0", kernel)
        assert message in violations_of(bad)

    def test_unknown_section_gets_nearest_hint(self):
        bad = MINIMAL + "[grids]\nn = 5\n"
        msgs = violations_of(bad)
        assert "unknown section [grids]; nearest valid: [grid]" in msgs

    def test_dt_and_cfl_together_rejected(self):
        bad = MINIMAL + "[time]\ndt = 0.01\ncfl = 0.5\n"
        msgs = violations_of(bad)
        assert "[time] give either dt or cfl, not both" in msgs

    def test_invalid_json_terms(self):
        bad = "[kernel]\nfamily = prony\ng_inf = 0.5\nterms = [[0.5, 2.0\n[grid]\nn = 9\n"
        msgs = violations_of(bad)
        assert any("terms is not valid JSON" in m for m in msgs)

    def test_unknown_space_profile_hint(self):
        bad = MINIMAL + "[data]\nu0 = sine_pi_product\n"
        msgs = violations_of(bad)
        assert any("nearest valid: 'sin_pi_product'" in m for m in msgs)

    def test_bad_boolean(self):
        bad = MINIMAL + "[diagnostics]\nenergy_ledger = maybe\n"
        msgs = violations_of(bad)
        assert any("is not a boolean" in m for m in msgs)

    def test_violations_aggregate(self):
        bad = (
            "[kernel]\nfamily = powerlaw\nc = -1.0\nalpha = 1.5\n"
            "[grid]\nn = 2\n"
            "[time]\ndt = 0.01\ncfl = 0.5\n"
        )
        msgs = violations_of(bad)
        assert len(msgs) >= 2
        assert "[time] give either dt or cfl, not both" in msgs
        assert any("n = 2" in m for m in msgs)

    def test_message_lists_all_violations(self):
        bad = MINIMAL + "[time]\ndt = 0.01\ncfl = 0.5\n[grids]\nn = 5\n"
        with pytest.raises(ConfigError, match="invalid configuration:") as info:
            parse_config(bad)
        text = str(info.value)
        assert "not both" in text and "unknown section" in text

    def test_dim_must_be_one_or_three(self):
        bad = "[kernel]\nfamily = constant\ng0 = 1.0\n[grid]\ndim = 2\nn = 9\n"
        msgs = violations_of(bad)
        assert any("dim must be 1 or 3" in m for m in msgs)

    def test_missing_grid_for_single_run(self):
        msgs = violations_of("[kernel]\nfamily = constant\ng0 = 1.0\n")
        assert "missing required section [grid]" in msgs

    def test_missing_kernel_section(self):
        msgs = violations_of("[grid]\nn = 9\n")
        assert "missing required section [kernel]" in msgs

    def test_missing_grid_size(self):
        msgs = violations_of("[kernel]\nfamily = constant\ng0 = 1.0\n[grid]\ndim = 1\n")
        assert "missing required key 'n' in [grid]" in msgs

    def test_negative_tolerance_rejected(self):
        bad = MINIMAL + "[tolerances]\ncauchy_tol = -1.0\n"
        msgs = violations_of(bad)
        assert any("cauchy_tol" in m and "must be positive" in m for m in msgs)

    def test_unparseable_text(self):
        msgs = violations_of("this is not an ini file")
        assert any("cannot parse config text" in m for m in msgs)


class TestFileLoading:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(FULL, encoding="utf-8")
        assert parse_config_file(path) == parse_config(FULL)

    def test_bundled_configs_parse(self):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1] / "configs"
        names = sorted(p.name for p in root.glob("*.cfg"))
        assert "elastic_limit.cfg" in names
        assert "powerlaw_theorem1.cfg" in names
        for p in root.glob("*.cfg"):
            parse_config_file(p)

    def test_drift_configs_parse(self):
        # the byte checks' configs for the paths no bundled config runs;
        # none is a forced run with the decay check, which is skipped
        import pathlib

        paths = sorted((pathlib.Path(__file__).resolve().parents[1] / "configs" / "drift").glob("*.cfg"))
        assert len(paths) == 5
        for p in paths:
            cfg = parse_config_file(p)
            forced = cfg.forcing is not None and not cfg.forcing.is_zero
            assert not (forced and cfg.diagnostics["energy_decay"]), p.name
