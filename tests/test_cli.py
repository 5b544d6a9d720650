"""CLI behavior: exit codes, artifacts, manifest completeness."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from memvisco import __version__, cli
from memvisco.config import parse_config
from memvisco.solver import run_block

QUICK = """\
[kernel]
family = constant
g0 = 1.0

[grid]
n = 9

[time]
horizon = 0.2
cfl = 0.5

[data]
u1 = sin_pi_product
"""

PRONY_TERMS = QUICK.replace("family = constant\ng0 = 1.0", "family = prony\ng_inf = 0.5\nterms = {terms}")

SEQUENCE = """\
[experiment]
mode = eps_sequence

[kernel]
family = prony
g_inf = 0.5
terms = [[0.5, 1.0]]

[grid]
n = 9

[time]
horizon = 0.2
dt = 0.01

[data]
u1 = sin_pi_product

[eps]
eps0 = 0.1
ratio = 0.5
count = 3

[tolerances]
cauchy_tol = 0.5
"""

STRESS = """\
[experiment]
mode = stress_test

[kernel]
family = prony
g_inf = 0.5
terms = [[0.3, 1.0]]

[time]
horizon = 0.5
dt = 0.01
"""

ADMISSIBILITY = """\
[experiment]
mode = admissibility

[kernel]
family = powerlaw
c = 1.0
alpha = 0.5

[time]
n_samples = 50
"""

UNSTABLE = """\
[kernel]
family = constant
g0 = 1.0

[grid]
n = 199

[time]
horizon = 0.1
dt = 0.05
"""


# a Prony modulus whose one term fades within the shift: e^{-eps / tau} and
# e^{-(T + 1) / tau} underflow to 0
UNDERFLOW = """\
[experiment]
formulation = integral_volterra

[kernel]
family = prony
g_inf = 0
terms = [[1.0, 0.001]]

[grid]
n = 19

[time]
horizon = 0.5
dt = 0.01

[data]
u1 = sin_pi_product

[eps]
eps = 1
"""
LEAPFROG_UNDERFLOW = UNDERFLOW.replace("formulation = integral_volterra", "formulation = integrodifferential")
# G(eps) = 0 leaves no stable leapfrog step; this used to exit 1 with
# ZeroDivisionError
G_ZERO_MESSAGE = "[eps] at eps = 1.0: the stable time step h / sqrt(dim G(eps)) needs G(eps) > 0, got G(eps) = 0.0"


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


def write_cfg(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_manifest(out_dir):
    with open(out_dir / "manifest.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestVersion:
    def test_prints_version(self, capsys):
        assert cli.main(["version"]) == 0
        assert capsys.readouterr().out.strip() == f"memvisco {__version__}"


SRC = Path(__file__).resolve().parent.parent / "src"


class TestStartup:
    def test_cli_import_leaves_scipy_unloaded(self):
        code = (
            "import sys, memvisco.cli; "
            "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == "[]"


THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# prints the threads the loaded OpenBLAS will use, asked of the library
# itself, or "none" where no OpenBLAS is loaded
BLAS_THREADS = """\
import ctypes, {module}
try:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        lib = ctypes.CDLL(next(line.split()[-1] for line in fh if "openblas" in line))
except (OSError, StopIteration):
    lib = None
names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads")
fn = next((getattr(lib, name) for name in names if hasattr(lib, name)), None)
if fn is None:
    print("none")
else:
    fn.restype, fn.argtypes = ctypes.c_int, []
    print(fn())
"""


def thread_env(**settings) -> dict:
    """The test's environment with none of OpenBLAS's thread variables but settings."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    return {**env, "PYTHONPATH": str(SRC), **settings}


def blas_threads(module: str, **settings) -> int:
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_THREADS.format(module=module)],
        env=thread_env(**settings),
        capture_output=True,
        text=True,
        check=True,
    )
    if proc.stdout.strip() == "none":
        pytest.skip("no OpenBLAS is loaded")
    return int(proc.stdout)


class TestBlasThreads:
    def test_import_pins_one_thread(self):
        assert blas_threads("memvisco") == 1

    @pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    def test_caller_setting_wins(self, variable):
        # OpenBLAS caps its threads at the CPUs it sees
        if blas_threads("numpy", **{variable: "2"}) < 2:
            pytest.skip("OpenBLAS sees one CPU")
        assert blas_threads("memvisco", **{variable: "2"}) == 2

    @pytest.mark.parametrize("case", ["forced-3d", "volterra-sequence"])
    def test_results_do_not_depend_on_threads(self, tmp_path, case):
        text = {
            "forced-3d": STREAMED_3D.format(horizon=0.2),
            "volterra-sequence": SEQUENCE.replace("[experiment]\n", "[experiment]\nformulation = integral_volterra\n"),
        }[case]
        cfg = write_cfg(tmp_path, text)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            subprocess.run(
                [sys.executable, "-m", "memvisco.cli", "run", cfg, "--out", str(out)],
                env=thread_env(OPENBLAS_NUM_THREADS=threads),
                capture_output=True,
                check=True,
            )
            outs.append(out)
        csvs = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*.csv"))
        assert csvs and csvs == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*.csv"))
        for name in csvs:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        one, two = (read_manifest(out) for out in outs)
        assert (one["verdicts"], one["runs"]) == (two["verdicts"], two["runs"])


class TestRunSingle:
    def test_exit_zero_and_artifacts(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "trajectory.csv").exists()
        assert (out / "energy.csv").exists()
        assert (out / "plot_energy.py").exists()
        assert (out / "manifest.json").exists()
        assert "mode=single_run" in capsys.readouterr().out

    def test_manifest_is_complete(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "out"
        cli.main(["run", cfg, "--out", str(out)])
        manifest = read_manifest(out)
        assert manifest["tool"]["name"] == "memvisco"
        assert manifest["tool"]["version"] == __version__
        assert "numpy" in manifest["tool"]
        assert manifest["mode"] == "single_run"
        assert manifest["exit_code"] == 0
        assert manifest["abort"] is None
        assert manifest["timing_seconds"] >= 0
        assert set(manifest["tolerances"]) == {
            "cauchy_tol",
            "stress_tol",
            "decay_safety",
            "weak_tol",
        }
        assert "experiment.mode = 'single_run'" in manifest["defaults_applied"]
        assert manifest["config"]["mode"] == "single_run"
        assert manifest["verdicts"]["energy_bound"]["passed"] is True

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_config_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[kernel]\nfamily = nosuch\n[grid]\nn = 9\n")
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, key",
        [
            (QUICK.replace("horizon = 0.2", "horizon = inf"), "horizon"),
            (QUICK + "\n[tolerances]\ncauchy_tol = inf\n", "cauchy_tol"),
            (QUICK + "\n[eps]\neps = 1e999\n", "eps"),
        ],
    )
    def test_infinite_float_exits_two(self, tmp_path, capsys, text, key):
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert f"{key} = inf is not finite" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            (PRONY_TERMS.format(terms="5"), "[kernel] malformed prony kernel"),
            (PRONY_TERMS.format(terms="[[1, null]]"), "[kernel] malformed prony kernel"),
            (QUICK.replace("family = constant\ng0 = 1.0", "family = sum\nparts = [5]"),
             "[kernel] malformed sum kernel"),
            (QUICK + "f = constant\nf_params = [1, 2]\n", "[data] f_params = [1, 2] is not a JSON object"),
            (QUICK + "u1_params = [1, 2]\n", "[data] u1_params = [1, 2] is not a JSON object"),
            (QUICK.replace("u1 = sin_pi_product", 'u1 = sine_mode\nu1_params = {"modes": "ab"}'),
             "[data] u1_params: modes = 'ab' is not a number"),
            (QUICK.replace("u1 = sin_pi_product", 'u1 = sine_mode\nu1_params = {"amplitude": NaN}'),
             "[data] u1_params: amplitude = nan is not finite"),
            (QUICK + 'f = constant\nf_params = {"omega": NaN}\n', "[data] f_params: omega = nan is not finite"),
        ],
        ids=[
            "terms_int", "terms_null", "parts_int", "f_params_list", "u1_params_list", "modes_str",
            "amplitude_nan", "omega_nan",
        ],
    )
    def test_malformed_json_exits_two(self, tmp_path, capsys, text, message):
        # each of these used to escape parsing and crash with a traceback
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert message in err

    @pytest.mark.parametrize(
        "data, message",
        [
            ('u1 = sine_mode\nu1_params = {"modes": [1.5]}',
             "[data] u1_params: modes = 1.5 is not an integer >= 1"),
            ('u1 = sine_mode\nu1_params = {"modes": [0]}',
             "[data] u1_params: modes = 0 is not an integer >= 1"),
            ('u1 = sine_mode\nu1_params = {"modes": [-2]}',
             "[data] u1_params: modes = -2 is not an integer >= 1"),
            ('u1 = sine_mode\nu1_params = {"modes": true}', "[data] u1_params: modes = True is not a number"),
            ('u1 = bump\nu1_params = {"radius": 0}', "[data] u1_params: radius = 0.0 is not > 0"),
            ('u1 = bump\nu1_params = {"radius": -0.3}', "[data] u1_params: radius = -0.3 is not > 0"),
            ('u1 = sin_pi_product\nu1_params = {"amplitude": true}',
             "[data] u1_params: amplitude = True is not a number"),
            ('u1 = sin_pi_product\nf = constant\nf_params = {"value": true}',
             "[data] f_params: value = True is not a number"),
        ],
        ids=[
            "modes_fraction", "modes_zero", "modes_negative", "modes_bool", "radius_zero",
            "radius_negative", "amplitude_bool", "f_params_bool",
        ],
    )
    def test_bad_profile_parameter_exits_two(self, tmp_path, capsys, data, message):
        # each of these used to run: mode 1.5 as 1, mode 0 as a zero field,
        # mode -2 as mode 2 negated, radius 0 as a zero field, radius -0.3
        # as 0.3, and true as 1.0
        text = QUICK.replace("u1 = sin_pi_product", data)
        out = tmp_path / "out"
        assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert message in err
        assert not out.exists()

    def test_params_of_the_zero_forcing_exit_two(self, tmp_path, capsys):
        # the zero forcing is no forcing, but its params are still checked
        out = tmp_path / "out"
        text = QUICK + 'f = zero\nf_params = {"value": 1.0}\n'
        assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "[data] f_params: profile 'zero' got unknown parameters: value" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[experiment]\nhistory_window = 0.5\n" + QUICK, "unknown key 'history_window' in [experiment]"),
            (QUICK + "\n[eps]\neps = 0\n", "[eps] integro-differential form needs eps > 0"),
            (QUICK.replace("horizon = 0.2\ncfl = 0.5", "horizon = 0.5\ndt = 0.03"),
             "must be an integer number of steps"),
            (SEQUENCE.replace("horizon = 0.2\ndt = 0.01", "horizon = 0.5\ndt = 0.03"),
             "must be an integer number of steps"),
            (STRESS.replace("dt = 0.01", "dt = 0.03"), "must be an integer number of steps"),
            (QUICK.replace("family = constant\ng0 = 1.0", "family = powerlaw\nc = 1.0\nalpha = 0.5")
             + "\n[experiment]\nformulation = integral_volterra\n\n[eps]\neps = 0\n",
             "[time] the modulus is unbounded at eps = 0, so no cfl rule applies: give dt"),
            (SEQUENCE.replace("count = 3", "count = 1"), "need count >= 2"),
            (QUICK.replace("g0 = 1.0", "g0 = 0"), "[kernel] g0 must be positive, got 0.0"),
            (QUICK.replace("g0 = 1.0", "g0 = -1"), "[kernel] g0 must be positive, got -1.0"),
            (LEAPFROG_UNDERFLOW.replace("dt = 0.01", "cfl = 0.5"), G_ZERO_MESSAGE),
            (LEAPFROG_UNDERFLOW, G_ZERO_MESSAGE),
            (SEQUENCE.replace("g_inf = 0.5\nterms = [[0.5, 1.0]]", "g_inf = 0\nterms = [[1.0, 0.001]]")
             .replace("eps0 = 0.1", "eps0 = 1"), G_ZERO_MESSAGE),
        ],
        ids=[
            "history_window", "leapfrog_eps_zero", "single_run_dt", "eps_sequence_dt",
            "stress_test_dt", "singular_eps_zero_cfl", "count_one", "g0_zero", "g0_negative",
            "modulus_underflow_cfl", "modulus_underflow_dt", "modulus_underflow_sequence",
        ],
    )
    def test_config_that_cannot_run_exits_two(self, tmp_path, capsys, text, message):
        # the memory reaches back to t = 0, so there is no history window;
        # stress_test_dt used to run to t = 0.51 and exit 0, and the others
        # to parse, then crash with a traceback (exit 1)
        cfg = write_cfg(tmp_path, text)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert message in err

    def test_volterra_sequence_reads_the_modulus_at_its_finest_shift_only(self):
        # G(eps0 = 1) underflows to 0, but the Volterra march never reads it
        # and the cfl rule reads G at the finest shift, 1e-4
        text = (
            SEQUENCE.replace("g_inf = 0.5\nterms = [[0.5, 1.0]]", "g_inf = 0\nterms = [[1.0, 0.001]]")
            .replace("dt = 0.01", "cfl = 0.5")
            .replace("eps0 = 0.1\nratio = 0.5\ncount = 3", "eps0 = 1\nratio = 0.01\ncount = 2")
            .replace("mode = eps_sequence", "mode = eps_sequence\nformulation = integral_volterra")
        )
        assert parse_config(text).kernel.modulus(1.0) == 0.0

    @pytest.mark.parametrize(
        "part, message",
        [
            ('{"family": "constant", "g0": true}', "[kernel] malformed constant kernel: g0 = True is not a number"),
            ('{"family": "PowerLaw", "c": 1.0, "alpha": 0.5}', "nearest valid: 'powerlaw'"),
        ],
        ids=["g0_bool", "family_case"],
    )
    def test_sum_part_obeys_the_top_level_rules(self, tmp_path, capsys, part, message):
        # both parts used to run: g0 = true as 1.0, and the family lower-cased
        text = QUICK.replace("family = constant\ng0 = 1.0", f"family = sum\nparts = [{part}]")
        out = tmp_path / "out"
        assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("decay", [False, True])
    def test_ledger_is_skipped_at_a_singular_limit(self, tmp_path, decay):
        # a power-law Volterra run at eps = 0, the paper's singular limit:
        # the ledger needs a modulus bounded at 0, and the decay check
        # reads the ledger, so both are skipped and the bound still runs
        text = """\
[experiment]
formulation = integral_volterra

[kernel]
family = powerlaw
c = 1.0
alpha = 0.5

[grid]
n = 19

[time]
horizon = 0.5
dt = 0.01

[data]
u1 = sin_pi_product

[eps]
eps = 0
"""
        if decay:
            text += "\n[diagnostics]\nenergy_decay = true\n"
        cfg = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        verdicts = read_manifest(out)["verdicts"]
        skipped = {"skipped": "eps = 0 with a modulus unbounded at 0"}
        assert verdicts["energy_ledger"] == skipped
        assert verdicts.get("energy_decay") == (skipped if decay else None)
        assert "max_energy_residual" not in verdicts
        assert not (out / "energy.csv").exists()
        assert verdicts["energy_bound"]["passed"] is True
        assert verdicts["energy_bound"]["max_ratio"] == pytest.approx(0.50, abs=0.01)

    def test_bound_is_skipped_past_eps_one(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK + "\n[eps]\neps = 2\n")
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        verdicts = read_manifest(out)["verdicts"]
        assert verdicts["energy_bound"] == {"skipped": "bound requires eps <= 1, got 2.0"}
        assert "max_energy_residual" in verdicts

    def test_bound_is_skipped_for_a_displaced_start(self, tmp_path):
        # the bound refuses the run itself, inside its timed phase
        cfg = write_cfg(tmp_path, QUICK.replace("u1 = sin_pi_product", "u0 = sin_pi_product"))
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        manifest = read_manifest(out)
        assert manifest["verdicts"]["energy_bound"] == {"skipped": "nonzero initial displacement"}
        assert "bound" in manifest["phases"]

    def test_bound_is_skipped_when_the_modulus_underflows(self, tmp_path):
        # G(T + 1) = e^{-1500} is 0, so gamma = 1 / G(T + 1) has no value:
        # the bound is skipped, not a crash that reads like a failed verdict
        cfg = write_cfg(tmp_path, UNDERFLOW)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"), parse_constant=_refuse)
        assert manifest["verdicts"]["energy_bound"] == {"skipped": "bound requires G(T + 1) > 0, got 0.0"}
        # the shifted modulus is 0 too: the ledger balances to round-off
        assert manifest["verdicts"]["max_energy_residual"] <= 1e-12

    def test_a_shift_that_underflows_a_prony_weight_runs(self, tmp_path):
        # e^{-eps / tau} = e^{-1000} is 0: the shifted modulus is a Prony
        # series with a zero weight, so the march is the drive t u1 alone
        text = UNDERFLOW + "\n[diagnostics]\nenergy_bound = false\nenergy_ledger = false\n"
        out = tmp_path / "out"
        assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        rows = (out / "trajectory.csv").read_text(encoding="utf-8").splitlines()
        assert len(rows) == 1 + 51 * 19

    def test_cfl_refusal_exits_three(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, UNSTABLE)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 3
        manifest = read_manifest(out)
        assert manifest["abort"]["type"] == "CflViolation"
        assert "required dt" in manifest["abort"]["message"]
        assert manifest["exit_code"] == 3
        assert "exit=3" in capsys.readouterr().out


    def test_sequence_abort_names_its_shift(self, tmp_path):
        # the top grid mode under a large dt overflows first at eps = 0.001,
        # the third of the four shifts
        text = """\
[experiment]
mode = eps_sequence
formulation = integral_volterra

[kernel]
family = powerlaw
c = 1.0
alpha = 0.5

[grid]
n = 39

[time]
horizon = 22.5
dt = 0.015

[data]
u0 = sine_mode
u0_params = {"amplitude": 1.0, "modes": [39]}

[eps]
eps0 = 0.1
ratio = 0.1
count = 3
"""
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 3
        abort = read_manifest(out)["abort"]
        assert abort["type"] == "SolverAbort"
        assert abort["eps"] == pytest.approx(1e-3, rel=1e-12)
        assert abort["message"].startswith("aborted at step 1342 ")
        assert f"eps = {abort['eps']!r}" in abort["message"]


class TestToleranceOverrides:
    def test_override_lands_in_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "out"
        code = cli.main(
            ["run", cfg, "--out", str(out), "--tol-override", "decay_safety=7.5"]
        )
        assert code == 0
        assert read_manifest(out)["tolerances"]["decay_safety"] == 7.5

    def test_override_lands_in_the_resolved_config(self, tmp_path):
        # the manifest's resolved config used to keep the file's 5.0
        cfg = write_cfg(tmp_path, QUICK + "\n[tolerances]\ndecay_safety = 5.0\n")
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out), "--tol-override", "decay_safety=7.5"]) == 0
        assert read_manifest(out)["config"]["tolerances"]["decay_safety"] == 7.5

    def test_unknown_override_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        code = cli.main(["run", cfg, "--tol-override", "warp_factor=9"])
        assert code == 2
        assert "unknown key 'warp_factor' in [tolerances]" in capsys.readouterr().err

    def test_malformed_override_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        assert cli.main(["run", cfg, "--tol-override", "no_equals_sign"]) == 2
        assert "unknown key 'no_equals_sign' in [tolerances]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "pair", ["decay_safety=nan", "decay_safety=inf", "decay_safety=-1", "decay_safety=0",
                 "decay_safety=abc", "decay_safety"],
    )
    def test_bad_override_exits_two(self, tmp_path, capsys, pair):
        # an override obeys the [tolerances] rule, finite and > 0: a NaN
        # tolerance passed every decay check
        cfg = write_cfg(tmp_path, QUICK)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out), "--tol-override", pair]) == 2
        assert "[tolerances] decay_safety = " in capsys.readouterr().err
        assert not out.exists()


class TestOtherModes:
    def test_eps_sequence_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, SEQUENCE)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "convergence.csv").exists()
        assert (out / "lemma.csv").exists()
        assert (out / "plot_convergence.py").exists()
        manifest = read_manifest(out)
        assert manifest["verdicts"]["cauchy"]["passed"] is True

    def test_constant_modulus_sequence_is_exact(self, tmp_path):
        # a constant modulus is its own shift, so every Volterra run is the
        # same run; the re-based tower left 1e-17 noise and the Cauchy
        # report fitted a rate to it and failed (exit 1)
        text = SEQUENCE.replace("family = prony\ng_inf = 0.5\nterms = [[0.5, 1.0]]", "family = constant\ng0 = 1.0")
        text = text.replace("n = 9", "n = 19").replace("horizon = 0.2", "horizon = 0.5")
        text = text.replace("count = 3", "count = 6")
        text = text.replace("[experiment]\n", "[experiment]\nformulation = integral_volterra\n")
        out = tmp_path / "out"
        assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        rows = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()[1:]
        distances = [float(v) for row in rows for v in row.split(",")[2:4] if v]
        assert len(rows) == 7 and len(distances) == 12
        assert all(d == 0.0 for d in distances)

    @pytest.mark.parametrize("formulation", ["integral_volterra", "integrodifferential"])
    def test_both_constant_spellings_run_alike(self, tmp_path, formulation):
        # family = prony with no terms is the constant modulus; its Volterra
        # sequence used to re-base the tower, read 1e-17 distances as a
        # non-monotone rate and exit 1
        text = SEQUENCE.replace("n = 9", "n = 19").replace("horizon = 0.2", "horizon = 0.5")
        text = text.replace("count = 3", "count = 6")
        text = text.replace("[experiment]\n", f"[experiment]\nformulation = {formulation}\n")
        prony = "family = prony\ng_inf = 0.5\nterms = [[0.5, 1.0]]"
        spellings = {"constant": "family = constant\ng0 = 1", "prony": "family = prony\ng_inf = 1\nterms = []"}
        outputs = {}
        for name, kernel in spellings.items():
            out = tmp_path / name
            cfg = write_cfg(tmp_path, text.replace(prony, kernel), name=f"{name}.cfg")
            assert cli.main(["run", cfg, "--out", str(out)]) == 0, name
            cauchy = read_manifest(out)["verdicts"]["cauchy"]
            assert cauchy["passed"] is True and cauchy["monotone"] is True, name
            rows = (out / "convergence.csv").read_text(encoding="utf-8").splitlines()[1:]
            assert all(float(v) == 0.0 for row in rows for v in row.split(",")[2:4] if v), name
            outputs[name] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        assert sorted(outputs["constant"]) == ["convergence.csv", "lemma.csv"]
        assert outputs["constant"] == outputs["prony"]

    def test_manifest_is_strict_json(self, tmp_path):
        # a leapfrog constant-modulus sequence fits no rate, and a Prony
        # term with tau = 1e13 never fades: both used to write NaN / Infinity
        constant = SEQUENCE.replace("family = prony\ng_inf = 0.5\nterms = [[0.5, 1.0]]", "family = constant\ng0 = 1.0")
        slow = ADMISSIBILITY.replace("family = powerlaw\nc = 1.0\nalpha = 0.5", "family = prony\ng_inf = 0.5\nterms = [[0.5, 1e13]]")
        for name, text, key in (
            ("constant", constant, ("verdicts", "cauchy", "fitted_rate")),
            ("slow", slow, ("verdicts", "admissibility", "fading_memory_shift_tol_1e-3")),
        ):
            out = tmp_path / name
            assert cli.main(["run", write_cfg(tmp_path, text, name=f"{name}.cfg"), "--out", str(out)]) == 0
            value = json.loads((out / "manifest.json").read_text(encoding="utf-8"), parse_constant=_refuse)
            for part in key:
                value = value[part]
            assert value is None, name

    def test_stress_test_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, STRESS)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "stress.csv").exists()

    def test_ramp_stress_test_checks_amplitude_times_integral(self, tmp_path, monkeypatch):
        # the ramp used to write an empty reference, so max_abs_error read 0.0
        # whatever the stress was
        from memvisco import runner
        from memvisco.config import parse_config_file
        from memvisco.solver import stress_curve

        text = STRESS + "\n[stress]\nstrain = ramp\namplitude = 0.75\n"
        path = write_cfg(tmp_path, text)
        out = tmp_path / "out"
        assert cli.main(["run", path, "--out", str(out)]) == 0
        t, stress, reference, error = np.loadtxt(out / "stress.csv", delimiter=",", skiprows=1, unpack=True)
        assert reference == pytest.approx(0.75 * parse_config_file(path).kernel.integral(t), rel=1e-15)
        assert error.tobytes() == np.abs(stress - reference).tobytes()
        assert read_manifest(out)["verdicts"]["stress"] == {"max_abs_error": error.max()}

        monkeypatch.setattr(runner, "stress_curve", lambda *args: stress_curve(*args) + 1e-3)
        wrong = tmp_path / "wrong"
        assert cli.main(["run", path, "--out", str(wrong)]) == 1
        assert read_manifest(wrong)["verdicts"]["stress"]["max_abs_error"] == pytest.approx(1e-3)

    def test_constant_forever_stress_test_checks_the_relaxed_modulus(self, tmp_path):
        # a strain held at its amplitude since t = -inf has relaxed: the
        # stress is G(inf) amplitude at every time
        text = STRESS + "\n[stress]\nstrain = constant_forever\namplitude = 0.75\n"
        out = tmp_path / "out"
        assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        t, stress, reference, error = np.loadtxt(out / "stress.csv", delimiter=",", skiprows=1, unpack=True)
        assert t.size == 50
        assert np.all(reference == 0.5 * 0.75)
        assert error.tobytes() == np.abs(stress - reference).tobytes()
        assert read_manifest(out)["verdicts"]["stress"] == {"max_abs_error": error.max()}

    def test_stress_test_fails_on_a_nan_stress(self, tmp_path, monkeypatch):
        # the running max(worst, err) used to skip a NaN error and exit 0
        from memvisco import runner
        from memvisco.solver import stress_curve

        def with_nan(*args):
            stress = stress_curve(*args)
            stress[3] = np.nan
            return stress

        monkeypatch.setattr(runner, "stress_curve", with_nan)
        out = tmp_path / "out"
        assert cli.main(["run", write_cfg(tmp_path, STRESS), "--out", str(out)]) == 1
        assert read_manifest(out)["verdicts"]["stress"]["max_abs_error"] is None

    @pytest.mark.parametrize("strain", ["step", "ramp"])
    @pytest.mark.parametrize(
        "kernel",
        [
            "family = powerlaw\nc = 1.0\nalpha = 0.5",
            'family = sum\nparts = [{"family": "prony", "g_inf": 0.5, "terms": [[0.3, 1.0]]},'
            ' {"family": "powerlaw", "c": 0.5, "alpha": 0.3}]',
        ],
        ids=["powerlaw", "sum"],
    )
    def test_stress_test_of_a_modulus_unbounded_at_zero(self, tmp_path, kernel, strain):
        text = STRESS.replace("family = prony\ng_inf = 0.5\nterms = [[0.3, 1.0]]", kernel)
        text += f"\n[stress]\nstrain = {strain}\namplitude = 0.75\n"
        out = tmp_path / "out"
        assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        rows = (out / "stress.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 50 and all(row.split(",")[2] for row in rows)
        manifest = read_manifest(out)
        verdict = manifest["verdicts"]["stress"]
        assert set(verdict) == {"max_abs_error"}
        assert verdict["max_abs_error"] <= manifest["tolerances"]["stress_tol"]

    def test_admissibility_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, ADMISSIBILITY)
        out = tmp_path / "out"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        assert (out / "admissibility.csv").exists()

    def test_manifest_records_every_run(self, tmp_path):
        from memvisco.config import parse_config_file
        from memvisco.runner import _build_spec, _resolve_dt
        from memvisco.solver import march, run, stable_time_step

        cases = {
            "single": (QUICK, "exponential", [0.05]),
            "leapfrog": (SEQUENCE, "exponential", [0.1, 0.05, 0.025, 0.0125]),
            "volterra": (
                SEQUENCE.replace("[experiment]\n", "[experiment]\nformulation = integral_volterra\n"),
                "direct",
                [0.1, 0.05, 0.025, 0.0125],
            ),
            "stress": (STRESS, None, []),
        }
        for name, (text, backend, eps_values) in cases.items():
            path = write_cfg(tmp_path, text, name=f"{name}.cfg")
            out = tmp_path / name
            assert cli.main(["run", path, "--out", str(out)]) == 0, name
            runs = read_manifest(out)["runs"]
            assert [r["eps"] for r in runs] == pytest.approx(eps_values), name
            cfg = parse_config_file(path)
            for record in runs:
                eps = record["eps"]
                dt = _resolve_dt(cfg, eps_values[-1] if len(eps_values) > 1 else eps)
                assert record["spec_fingerprint"] == _build_spec(cfg, eps, dt).fingerprint()
                assert record["history_backend"] == backend
                # the level buffer of the run's march: every level of these
                # short runs, but for the leapfrog sequence, whose shifts
                # march one ring each, level 0 and a ring of 4
                levels_bytes = march(_build_spec(cfg, eps, dt))[1].nbytes
                assert record["levels_bytes"] == levels_bytes
                stack = run(_build_spec(cfg, eps, dt)).coefficients.nbytes
                assert stack == 8 * (round(cfg.horizon / dt) + 1) * cfg.grid.n_total
                assert levels_bytes == (8 * 5 * cfg.grid.n_total if name == "leapfrog" else stack)
                if name == "volterra":
                    # the self-weight times the top eigenvalue of -lap
                    assert record["z_max"] == run(_build_spec(cfg, eps, dt)).record.z_max
                    assert 0.0 < record["z_max"] < 1.0
                    assert "dt_over_limit" not in record
                elif backend is not None:
                    # dt over the leapfrog's stable limit at this shift
                    limit = stable_time_step(cfg.grid, cfg.kernel.modulus(eps))
                    assert record["dt_over_limit"] == dt / limit
                    assert 0.0 < record["dt_over_limit"] <= 1.0
                    assert "z_max" not in record
                # the far sums' fit is a direct-backend record
                assert ("far_nodes" in record) == (backend == "direct")

    def test_manifest_records_the_far_history_sums(self, tmp_path):
        # a run on the direct backend past two blocks of 64 steps sums its
        # far history through the exponential fit and records its terms and
        # checked error, a Volterra run and a power-law leapfrog alike (the
        # leapfrog as in criterion 03, n = 24 and J = 212); a shorter run
        # sums it directly and records 0 and 0.0
        from memvisco.config import parse_config_file
        from memvisco.runner import _build_spec
        from memvisco.solver import run

        volterra = SEQUENCE.replace("[experiment]\n", "[experiment]\nformulation = integral_volterra\n")
        leapfrog = (
            QUICK.replace("family = constant\ng0 = 1.0", "family = powerlaw\nc = 1.0\nalpha = 0.5")
            .replace("n = 9", "n = 24")
            .replace("horizon = 0.2\ncfl = 0.5", "horizon = 1.06\ndt = 0.005")
            + "\n[diagnostics]\nenergy_ledger = false\nenergy_bound = false\n"
        )
        cases = {
            "short": (volterra, 20, 0),
            "long": (volterra.replace("horizon = 0.2", "horizon = 1.5"), 150, 24),
            "leapfrog": (leapfrog, 212, 26),
        }
        for name, (text, steps, nodes) in cases.items():
            path = write_cfg(tmp_path, text, name=f"{name}.cfg")
            out = tmp_path / name
            assert cli.main(["run", path, "--out", str(out)]) == 0, name
            cfg = parse_config_file(path)
            assert round(cfg.horizon / cfg.dt) == steps
            for record in read_manifest(out)["runs"]:
                traj = run(_build_spec(cfg, record["eps"], cfg.dt))
                assert record["history_backend"] == "direct"
                assert (record["far_nodes"], record["far_error"]) == (traj.record.far_nodes, traj.record.far_error)
                assert record["far_nodes"] == nodes, name
                if nodes:
                    assert 0.0 < record["far_error"] <= 1e-10
                else:
                    assert record["far_error"] == 0.0

    def test_streamed_sequence_records_its_ring_share(self, tmp_path):
        # the bundled power-law sequence, J = 200 > 2 W: each run held its
        # share of the march's ring, 3 W + 1 = 193 levels, not all 201
        config = Path(__file__).resolve().parent.parent / "configs" / "powerlaw_theorem1.cfg"
        out = tmp_path / "seq"
        assert cli.main(["run", str(config), "--out", str(out)]) == 0
        runs = read_manifest(out)["runs"]
        assert len(runs) == 7
        assert all(r["levels_bytes"] == 8 * 193 * 49 and r["far_nodes"] == 25 for r in runs)

    def test_manifest_times_the_phases_that_ran(self, tmp_path):
        every = "[diagnostics]\nenergy_decay = true\nweak_residual = true\n"
        bare = "[diagnostics]\nenergy_ledger = false\nenergy_bound = false\n"
        # config, the phases it runs, and the steps it marches: QUICK takes
        # 4 steps of its CFL dt 0.05, SEQUENCE 4 shifts of 20 steps
        cases = {
            "single": (
                QUICK + every,
                {"solve", "ledger", "decay_calibration", "bound", "weak_residual", "export"},
                4,
            ),
            "bare": (QUICK + bare, {"solve", "export"}, 4),
            "sequence": (SEQUENCE, {"solve", "cauchy", "lemma_check", "export"}, 4 * 20),
            # the reductions for a lemma check that does not run stay in solve
            "sequence-bare": (
                SEQUENCE + "[diagnostics]\nlemma_check = false\n", {"solve", "cauchy", "export"}, 4 * 20
            ),
            "volterra-sequence": (
                SEQUENCE.replace("[experiment]\n", "[experiment]\nformulation = integral_volterra\n"),
                {"solve", "cauchy", "lemma_check", "export"},
                4 * 20,
            ),
            "stress": (STRESS, {"export"}, None),
        }
        for name, (text, expected, steps) in cases.items():
            path = write_cfg(tmp_path, text, name=f"{name}.cfg")
            out = tmp_path / name
            assert cli.main(["run", path, "--out", str(out)]) == 0, name
            manifest = read_manifest(out)
            phases = manifest["phases"]
            assert set(phases) == expected, name
            assert all(p["seconds"] >= 0.0 for p in phases.values())
            # the phases do not overlap and lie inside the timed run
            assert sum(p["seconds"] for p in phases.values()) <= manifest["timing_seconds"]
            assert manifest["peak_rss_mib"] > 0.0
            assert math.isfinite(manifest["cpu_seconds"]) and manifest["cpu_seconds"] > 0.0
            if steps is not None:
                solve = phases["solve"]
                assert solve["n_steps"] == steps, name
                # seconds is rounded to the microsecond
                assert abs(solve["seconds_per_step"] * steps - solve["seconds"]) <= 1e-6

    def test_csv_outputs_are_well_formed(self, tmp_path):
        import csv

        cfg = write_cfg(tmp_path, QUICK + "[diagnostics]\nweak_residual = true\n")
        out = tmp_path / "single"
        assert cli.main(["run", cfg, "--out", str(out)]) == 0
        seq = write_cfg(tmp_path, SEQUENCE, name="seq.cfg")
        out2 = tmp_path / "seq"
        assert cli.main(["run", seq, "--out", str(out2)]) == 0
        for path in (*out.glob("*.csv"), *out2.glob("*.csv")):
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            width = len(rows[0])
            assert rows and all(len(r) == width for r in rows), path.name


BOX3D_EXPORT = """\
[kernel]
family = prony
g_inf = 0.5
terms = [[0.5, 2.0]]

[grid]
dim = 3
n = 31

[time]
horizon = 2.0
cfl = 0.5

[data]
u1 = bump
u1_params = {"radius": 0.3}
f = sin_pi_product
f_params = {"omega": 6.0}

[eps]
eps = 0.05

[diagnostics]
energy_ledger = false
energy_decay = false
energy_bound = true
weak_residual = false

[output]
snapshot_stride = 40
"""


def test_three_dimensional_run_forms_no_nodal_stack(tmp_path):
    # a forced 3D run through solve, bound and CSV export of every 40th
    # level: the march writes into a ring of level 0 and one block of 4
    # levels (1 MiB at most), and hands each block to the bound's level sums
    # and to the export, which transforms its 6 levels back and writes them
    # in slices of rows.  What the run holds, the ring, the reduction's two
    # block buffers and the export's one table of per-node strings, was
    # measured at 0.21 of the (J+1, N) stack it no longer forms (0.40 with
    # 16-level blocks and two tables); a nodal, edge or velocity stack
    # formed at any step would add at least as much again
    import tracemalloc

    out = tmp_path / "out"
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        code = cli.main(["run", write_cfg(tmp_path, BOX3D_EXPORT), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    (record,) = read_manifest(out)["runs"]
    stack = 8 * 222 * 31**3
    assert stack >= 16 * 2**20  # at least 16x the block cap
    assert run_block(31**3, 223) == 4
    assert record["levels_bytes"] == 8 * 5 * 31**3
    with open(out / "trajectory.csv", "rb") as fh:
        assert sum(1 for _ in fh) == 1 + 6 * 31**3
    assert peak - entry < 0.3 * stack


STREAMED_3D = """\
[kernel]
family = prony
g_inf = 0.5
terms = [[0.5, 2.0], [0.2, 0.1]]

[grid]
dim = 3
n = 15

[time]
horizon = {horizon}
dt = 0.005

[data]
u1 = bump
u1_params = {{"radius": 0.3}}
f = sin_pi_product
f_params = {{"omega": 6.0}}

[eps]
eps = 0.05

[diagnostics]
energy_ledger = true
energy_decay = true
energy_bound = true
weak_residual = true

[output]
snapshot_stride = 400
"""


def test_streamed_single_run_holds_no_level_stack(tmp_path):
    # a forced 3D Prony run with every audit, at J = 600 and 2,400: the
    # march's ring (level 0 and a block of 32 levels), the reduction's two
    # block buffers and O(J) scalars per audit (measured: peaks of 0.28x and
    # 0.079x of the (J+1, N) stack, 4.60 and 5.10 MB), where the stored run
    # held the whole stack and more
    import tracemalloc

    peaks, stacks = [], []
    for J in (600, 2400):
        out = tmp_path / f"J{J}"
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            code = cli.main(["run", write_cfg(tmp_path, STREAMED_3D.format(horizon=J * 0.005)), "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        manifest = read_manifest(out)
        assert manifest["verdicts"]["n_steps"] == J
        assert manifest["runs"][0]["levels_bytes"] == 8 * 33 * 15**3
        peaks.append(peak - entry)
        stacks.append(8 * (J + 1) * 15**3)
    assert peaks[1] < 0.25 * stacks[1]
    assert peaks[1] - peaks[0] < 0.02 * (stacks[1] - stacks[0])


POWERLAW_LEDGER_3D = """\
[kernel]
family = powerlaw
c = 1.0
alpha = 0.5

[grid]
dim = 3
n = 15

[time]
horizon = 2.0
cfl = 0.5

[data]
u1 = bump
u1_params = {"radius": 0.3}

[eps]
eps = 0.05

[diagnostics]
energy_ledger = true
energy_bound = true

[output]
snapshot_stride = 40
"""


def test_power_law_ledger_run_holds_one_level_stack(tmp_path):
    # a 3D power-law run with the ledger and the bound at J = 235: the
    # march's ring of level 0 and 3 W slots, and the one stack of e_j =
    # sqrt(mu) u_hat_j that the reduction keeps for the ledger's lag passes
    # (measured: a peak of 4.03x the (J+1, N) stack; 4.87x when the run
    # kept a stack of its levels for the ledger, which formed e_j in a
    # second one)
    import tracemalloc

    out = tmp_path / "out"
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        code = cli.main(["run", write_cfg(tmp_path, POWERLAW_LEDGER_3D), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    manifest = read_manifest(out)
    J = manifest["verdicts"]["n_steps"]
    assert J == 235
    stack = 8 * (J + 1) * 15**3
    assert manifest["runs"][0]["levels_bytes"] == 8 * (1 + 192) * 15**3 + stack
    assert peak - entry < 4.5 * stack


def test_aborted_march_leaves_no_trajectory(tmp_path, monkeypatch):
    # a level turns non-finite mid-run while trajectory.csv is being
    # written as the levels pass: exit 3, the abort in the manifest, and
    # neither the CSV nor its temporary file left behind
    from memvisco.solver import _ExponentialHistory

    real = _ExponentialHistory.row_sums

    def poisoned(self, stack, j):
        # row 30 of the one shift
        sums = real(self, stack, j)
        return [total * np.nan for total in sums] if j == 30 else sums

    monkeypatch.setattr(_ExponentialHistory, "row_sums", poisoned)
    text = PRONY_TERMS.format(terms="[[0.5, 2.0]]").replace("horizon = 0.2", "horizon = 4.0")
    out = tmp_path / "out"
    with np.errstate(invalid="ignore"):
        assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 3
    manifest = read_manifest(out)
    assert manifest["abort"]["type"] == "SolverAbort"
    assert manifest["abort"]["message"] == "aborted at step 31 of the run at eps = 0.05: non-finite values"
    assert manifest["verdicts"] == {"aborted": True} and manifest["runs"] == []
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_audit_csv_headers_and_decay_keys_are_pinned(tmp_path):
    # energy.csv, weak_residuals.csv, lemma.csv and the energy_decay
    # verdict are written from the fields of their reports (EnergyLedger,
    # WeakResidualEntry, LemmaCheckEntry, DecayReport): a reordered or
    # renamed field must not change what a reader of the files finds
    every = "\n[diagnostics]\nenergy_ledger = true\nenergy_decay = true\nweak_residual = true\n"
    single = PRONY_TERMS.format(terms="[[0.5, 2.0]]") + every
    sequence = SEQUENCE + "\n[diagnostics]\nlemma_check = true\n"
    for name, text in (("single", single), ("sequence", sequence)):
        assert cli.main(["run", write_cfg(tmp_path, text, f"{name}.cfg"), "--out", str(tmp_path / name)]) == 0

    def header(path):
        return path.read_text(encoding="utf-8").split("\n", 1)[0]

    assert header(tmp_path / "single" / "energy.csv") == (
        "level,t,kinetic,elastic,memory,rate_modulus,rate_curvature,forcing_power,stored,residual"
    )
    assert header(tmp_path / "single" / "weak_residuals.csv") == "test_function,direct,moved"
    assert header(tmp_path / "sequence" / "lemma.csv") == "eps,test_function,residual,majorant"
    decay = read_manifest(tmp_path / "single")["verdicts"]["energy_decay"]
    assert list(decay) == ["first_violation", "max_increase", "passed", "tolerance"]


@pytest.mark.parametrize("export_format", ["binary", "both"])
def test_aborted_march_leaves_no_npy(tmp_path, monkeypatch, export_format):
    # trajectory.npy is written level by level as the march passes them: a
    # run stopped mid-march by SolverAbort (exit 3) leaves neither it, nor
    # times.npy, nor any temporary file behind
    from memvisco.solver import _ExponentialHistory

    real = _ExponentialHistory.row_sums

    def poisoned(self, stack, j):
        # row 30 of the one shift
        sums = real(self, stack, j)
        return [total * np.nan for total in sums] if j == 30 else sums

    monkeypatch.setattr(_ExponentialHistory, "row_sums", poisoned)
    text = PRONY_TERMS.format(terms="[[0.5, 2.0]]").replace("horizon = 0.2", "horizon = 4.0")
    text += f"\n[output]\nexport_format = {export_format}\n"
    out = tmp_path / "out"
    with np.errstate(invalid="ignore"):
        assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 3
    manifest = read_manifest(out)
    assert manifest["abort"]["message"].startswith("aborted at step 31 ")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]


def test_both_exports_write_one_answer(tmp_path):
    # prony_single.cfg with export_format = both: every exported level's u
    # in trajectory.csv is its row of trajectory.npy, bit for bit (977 of
    # the 7,920 entries differed in the last bit when the npy transformed
    # the whole stack at once)
    import csv

    config = Path(__file__).resolve().parent.parent / "configs" / "prony_single.cfg"
    text = config.read_text(encoding="utf-8") + "export_format = both\n"
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    levels = np.load(out / "trajectory.npy")
    with open(out / "trajectory.csv", newline="", encoding="utf-8") as fh:
        u = np.array([float(row["u"]) for row in csv.DictReader(fh)])
    assert levels.shape == (399, 99) and u.size == 80 * 99
    assert u.tobytes() == levels[::5].tobytes()
    assert np.array_equal(np.load(out / "times.npy"), read_manifest(out)["verdicts"]["dt"] * np.arange(399))


# a forced Prony run with the decay check: the forcing's work sets the
# forced twin's step gain, and so the tolerance, which read 0.0252, five
# times the twin's 0.00505, and passed whatever the run did
FORCED_DECAY = PRONY_TERMS.format(terms="[[0.5, 2.0]]") + "f = sin_pi_product\n[diagnostics]\nenergy_decay = true\n"
# a power-law Volterra run at eps = 0, the paper's singular limit
SINGULAR_LIMIT = QUICK.replace("family = constant\ng0 = 1.0", "family = powerlaw\nc = 1.0\nalpha = 0.5").replace(
    "cfl = 0.5", "dt = 0.01"
) + "\n[experiment]\nformulation = integral_volterra\n[eps]\neps = 0\n"


@pytest.mark.parametrize(
    "text, skipped, decider",
    [
        (QUICK.replace("u1 = sin_pi_product", "u0 = sin_pi_product"), ("energy_bound", "nonzero initial displacement"), "check_bound_hypothesis"),
        (QUICK + "\n[eps]\neps = 2\n", ("energy_bound", "bound requires eps <= 1, got 2.0"), "check_bound_hypothesis"),
        (UNDERFLOW, ("energy_bound", "bound requires G(T + 1) > 0, got 0.0"), "check_bound_hypothesis"),
        (SINGULAR_LIMIT, ("energy_ledger", "eps = 0 with a modulus unbounded at 0"), "check_ledger_hypothesis"),
        (FORCED_DECAY, ("energy_decay", "forced run: the forcing's work can raise the stored energy"), "check_decay_hypothesis"),
    ],
    ids=["displaced", "eps-past-one", "underflow", "singular-limit", "forced-decay"],
)
def test_skipped_audits_are_decided_before_the_march(tmp_path, monkeypatch, text, skipped, decider):
    # each hypothesis is read off the spec before the one march, so the
    # march's reduction is asked only for the audits that run, and the skip
    # keeps its text
    import memvisco.runner as runner

    calls = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("check_decay_hypothesis", "check_ledger_hypothesis", "check_bound_hypothesis", "march"):
        monkeypatch.setattr(runner, name, logged(name, getattr(runner, name)))
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    name, reason = skipped
    assert read_manifest(out)["verdicts"][name] == {"skipped": reason}
    assert calls.count("march") == 1 and calls.index(decider) < calls.index("march")


def test_streamed_run_records_its_ring_and_books_its_blocks(tmp_path, monkeypatch):
    # a Prony run of 400 steps on 9 nodes keeps level 0 and one block of 32
    # levels, the largest block of at most an eighth of its 401; the work
    # each block does for an audit or the export is booked to that phase,
    # so solve times the march alone.  Each phase's per-block work is
    # slowed by 20 ms a call here, far beyond the march's own time
    import time

    import memvisco.diagnostics as diagnostics
    import memvisco.runner as runner

    def slowed(fn):
        def wrapper(*args, **kwargs):
            time.sleep(0.02)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(diagnostics, "battery_columns", slowed(diagnostics.battery_columns))
    monkeypatch.setattr(diagnostics, "velocity_estimates", slowed(diagnostics.velocity_estimates))
    monkeypatch.setattr(diagnostics._PronyInflows, "add", slowed(diagnostics._PronyInflows.add))
    monkeypatch.setattr(runner, "sine_transform", slowed(runner.sine_transform))
    text = (
        PRONY_TERMS.format(terms="[[0.5, 2.0]]").replace("horizon = 0.2\ncfl = 0.5", "horizon = 4.0\ndt = 0.01")
        + "[diagnostics]\nweak_residual = true\n[output]\nsnapshot_stride = 100\n[tolerances]\nweak_tol = 1.0\n"
    )
    out = tmp_path / "out"
    assert cli.main(["run", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    manifest = read_manifest(out)
    assert manifest["runs"][0]["levels_bytes"] == 8 * 33 * 9
    phases = {name: p["seconds"] for name, p in manifest["phases"].items()}
    # 14 blocks: level 0 and 13 of at most 32 levels, 13 of which are
    # reduced; 5 exported levels, two transforms each
    slowed_phases = [phases["weak_residual"], phases["ledger"], phases["export"]]
    assert slowed_phases[0] >= 14 * 0.02
    assert slowed_phases[1] >= 13 * 2 * 0.02  # the inflows, and the level sums they share
    assert slowed_phases[2] >= 10 * 0.02
    # the slowed work, 1 s in all, would leave solve far above this
    assert phases["solve"] < 0.25 * min(slowed_phases)


class TestCheckKernel:
    def test_reports_admissible(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, ADMISSIBILITY)
        assert cli.main(["check-kernel", cfg]) == 0
        out = capsys.readouterr().out
        assert "regime: singular" in out
        assert "admissible: True" in out

    def test_classical_regime(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, QUICK)
        assert cli.main(["check-kernel", cfg]) == 0
        out = capsys.readouterr().out
        assert "regime: classical" in out
        assert "bounded at zero:          True" in out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "[kernel]\nfamily = constant\n[grid]\nn = 9\n")
        assert cli.main(["check-kernel", cfg]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["nope.cfg", "."])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, name):
        # a missing file and a directory are both unreadable
        path = tmp_path / name
        assert cli.main(["check-kernel", str(path)]) == 2
        assert f"error: cannot read {path}" in capsys.readouterr().err

