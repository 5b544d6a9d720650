"""The scripts under scripts/ import cleanly and run to the end, and
run_all_configs.py prints the digest of every CSV it writes.

Each script guards its work behind __main__, so importing it runs nothing
but resolves every name it takes from memvisco: a renamed or removed name
fails here instead of in the next run.

BUNDLED_DIGESTS holds the sha256 of each CSV that the five bundled configs
write, taken with numpy NUMPY on OpenBLAS's CORE kernels.  A CSV's last
digits follow the BLAS kernel that summed them, so the digests are compared
only where both match; elsewhere the test skips and names the mismatch.
Criterion 11 compares two runs of one tree, so it cannot see a drift that
a change brings.  This test does: a change that moves a CSV's bytes
updates its digest here, and that update is how the change declares the
drift.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import openblas_call

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))
NUMPY = "2.4.6"
CORE = "SkylakeX"
BUNDLED_DIGESTS = {
    "admissibility_powerlaw/admissibility.csv": "5357c0ed007a2a324e8517e39f09c1657d081637f40be4f5cb0af06cadfd76a8",
    "elastic_limit/energy.csv": "4155ff4b8fbe655ca9cda07cf7a80f7ca3ac2216da7845f8308a110ebbd0daa3",
    "elastic_limit/trajectory.csv": "90a1d9b16af2c1b07cced9066a11ad054745a166f2a0045c2904f1956185cb38",
    "powerlaw_theorem1/convergence.csv": "bcecab7f5b103043ab264392190daae7a6eb8ec4d1afee0d53a676e1dca1ce05",
    "powerlaw_theorem1/lemma.csv": "8dc09b40ddde55d708676b95e889d0334b390427ed60dd5f22feb8df65a7822a",
    "prony_single/energy.csv": "61f954fcaea62297454a84172682b745622db20b8f6bc4e3e096aba403c14408",
    "prony_single/trajectory.csv": "793ee1b4d5af90572513c2e82b57d13edd471b6bfd12626875cc634858bf27e8",
    "prony_single/weak_residuals.csv": "e7420fcb0e300566b1a803c9aa3f325dc760613704c5c112b5f833b6b62a0553",
    "stress_relaxation/stress.csv": "dd9f30b750e5486f748aa9172a145bd8fe9e8dedf27d7d8d28de96ab75d1d1ee",
}


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_as_module(path):
    spec = importlib.util.spec_from_file_location(f"study_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.__name__ != "__main__"


def run_script(name, *args, status=0):
    """stdout of scripts/<name> run to the end against this checkout's src,
    which must exit with status."""
    script = next(p for p in SCRIPTS if p.name == name)
    env = {**os.environ, "PYTHONPATH": str(script.parent.parent / "src")}
    proc = subprocess.run([sys.executable, str(script), *args], env=env, capture_output=True, text=True)
    assert proc.returncode == status, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def all_configs(tmp_path_factory):
    """(stdout, out-root) of one run_all_configs.py run."""
    out_root = tmp_path_factory.mktemp("configs")
    return run_script("run_all_configs.py", str(out_root)), out_root


def printed_digests(stdout, suffix):
    """{name: digest} of the `<sha256>  <name>` lines ending in suffix."""
    pairs = (line.split("  ") for line in stdout.splitlines() if line.endswith(suffix))
    return {name: digest for digest, name in pairs}


def test_run_all_configs_prints_a_digest_per_csv(all_configs):
    # every CSV the script writes gets a `<sha256>  <config>/<file>.csv`
    # line holding the digest of its bytes
    stdout, out_root = all_configs
    written = sorted(out_root.glob("*/*.csv"))
    assert len(written) == 9
    assert printed_digests(stdout, ".csv") == {
        f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in written
    }


def test_bundled_csvs_keep_their_digests(all_configs):
    names = ("scipy_openblas_get_corename64_", "openblas_get_corename64_", "openblas_get_corename")
    core = openblas_call(names, "c_char_p")
    if (np.__version__, core) != (NUMPY, CORE):
        pytest.skip(f"digests taken with numpy {NUMPY} on OpenBLAS core {CORE}, not numpy {np.__version__} on {core}")
    assert printed_digests(all_configs[0], ".csv") == BUNDLED_DIGESTS


def test_run_all_configs_prints_a_verdicts_digest_per_config(all_configs):
    # one `<sha256>  <config>/verdicts` line per config: the manifest's
    # verdicts and runs blocks as canonical JSON, free of timings
    stdout, out_root = all_configs
    manifests = sorted(out_root.glob("*/manifest.json"))
    assert len(manifests) == 5
    want = {}
    for path in manifests:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        assert manifest["verdicts"]
        blocks = {"runs": manifest["runs"], "verdicts": manifest["verdicts"]}
        text = json.dumps(blocks, sort_keys=True)
        assert "seconds" not in text
        want[f"{path.parent.name}/verdicts"] = hashlib.sha256(text.encode()).hexdigest()
    assert printed_digests(stdout, "/verdicts") == want


def test_run_all_configs_runs_extra_configs_beside_the_bundled_ones(tmp_path):
    # a config path after the out-root runs into <out-root>/<its stem>/ and
    # gets its digest lines; a copy of a bundled config digests alike
    bundled = SCRIPTS[0].parent.parent / "configs" / "stress_relaxation.cfg"
    extra = tmp_path / "extra_stress.cfg"
    extra.write_text(bundled.read_text(encoding="utf-8"), encoding="utf-8")
    out_root = tmp_path / "out"
    stdout = run_script("run_all_configs.py", str(out_root), str(extra))
    written = out_root / "extra_stress" / "stress.csv"
    csvs, verdicts = printed_digests(stdout, ".csv"), printed_digests(stdout, "/verdicts")
    assert csvs["extra_stress/stress.csv"] == hashlib.sha256(written.read_bytes()).hexdigest()
    assert csvs["extra_stress/stress.csv"] == csvs["stress_relaxation/stress.csv"]
    assert verdicts["extra_stress/verdicts"] == verdicts["stress_relaxation/verdicts"]
    assert len(verdicts) == 6
    assert stdout.splitlines()[-1] == "all configs passed"


def test_csv_drift_reports_changed_columns(tmp_path):
    # per CSV whose bytes differ, max |new - old| / max |old| of each
    # numeric column; text columns, byte-identical CSVs and CSVs under one
    # root only are not measured
    files = {
        "old/run/table.csv": "t,u,name,gap\n0.0,1.0,p,\n0.5,-4.0,q,0.0\n",
        "new/run/table.csv": "t,u,name,gap\n0.0,1.5,p,\n0.5,-4.0,r,1e-3\n",
        "old/run/same.csv": "a\n1\n",
        "new/run/same.csv": "a\n1\n",
        "new/run/extra.csv": "a\n1\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    old, new = tmp_path / "old", tmp_path / "new"
    assert run_script("csv_drift.py", str(old), str(new), status=1).splitlines() == [
        f"run/extra.csv: only under {new}",
        "run/table.csv",
        "  t  0",
        "  u  0.125",
        "  gap  0.001 (absolute)",
        "2 CSVs compared, 1 byte-identical",
        "0 .npy files compared, 0 byte-identical",
        "0 manifests compared, 0 with the same verdicts and runs",
    ]


def test_csv_drift_reports_changed_npy_files(tmp_path):
    # per .npy file whose bytes differ, max |new - old| / max |old| over the
    # whole array, the absolute change when old is all 0, or both shapes
    arrays = {
        "old/run/levels.npy": np.array([[1.0, -4.0], [2.0, 0.5]]),
        "new/run/levels.npy": np.array([[1.0, -4.0], [2.5, 0.5]]),
        "old/run/zero.npy": np.zeros(3),
        "new/run/zero.npy": np.array([0.0, 1e-3, 0.0]),
        "old/run/shape.npy": np.zeros((2, 3)),
        "new/run/shape.npy": np.zeros((3, 3)),
        "old/run/same.npy": np.arange(4.0),
        "new/run/same.npy": np.arange(4.0),
        "old/run/gone.npy": np.ones(2),
    }
    for name, array in arrays.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        np.save(tmp_path / name, array)
    old, new = tmp_path / "old", tmp_path / "new"
    assert run_script("csv_drift.py", str(old), str(new), status=1).splitlines() == [
        f"run/gone.npy: only under {old}",
        "run/levels.npy",
        "  0.125",
        "run/shape.npy",
        "  shape (2, 3) -> (3, 3)",
        "run/zero.npy",
        "  0.001 (absolute)",
        "0 CSVs compared, 0 byte-identical",
        "4 .npy files compared, 1 byte-identical",
        "0 manifests compared, 0 with the same verdicts and runs",
    ]


def test_csv_drift_reports_changed_manifest_leaves(tmp_path):
    # per manifest whose verdicts or runs differ, each changed leaf by its
    # dotted key; other blocks, such as the phase times, are not compared
    def manifest(gamma, passed, runs, seconds):
        return {"verdicts": {"bound": {"gamma": gamma, "passed": passed}, "dt": 0.5}, "runs": runs, "phases": {"solve": seconds}}

    trees = {
        "old/a": manifest(2.0, True, [{"eps": 0.1}], 1.0),
        "new/a": manifest(2.5, False, [{"eps": 0.1, "z_max": 0.0}, {"eps": 0.05}], 2.0),
        "old/b": manifest(1.0, True, [], 1.0),
        "new/b": manifest(1.0, True, [], 3.0),
        "old/c": manifest(0.0, True, [], 1.0),
        "new/c": manifest(1e-3, True, [], 1.0),
    }
    for name, payload in trees.items():
        (tmp_path / name).mkdir(parents=True)
        (tmp_path / name / "manifest.json").write_text(json.dumps(payload), encoding="utf-8")
    old, new = tmp_path / "old", tmp_path / "new"
    assert run_script("csv_drift.py", str(old), str(new), status=1).splitlines() == [
        "a/manifest.json",
        "  verdicts.bound.gamma  2.0 -> 2.5  (0.25)",
        "  verdicts.bound.passed  true -> false",
        "  runs.0.z_max  (absent) -> 0.0",
        "  runs.1.eps  (absent) -> 0.05",
        "c/manifest.json",
        "  verdicts.bound.gamma  0.0 -> 0.001  (0.001 absolute)",
        "0 CSVs compared, 0 byte-identical",
        "0 .npy files compared, 0 byte-identical",
        "3 manifests compared, 1 with the same verdicts and runs",
    ]


def test_csv_drift_exits_zero_only_on_identical_trees(tmp_path):
    # byte-identical CSVs and .npy files and equal manifest blocks exit 0;
    # a manifest under one root only is drift, and exits 1
    for root in ("old", "new"):
        run = tmp_path / root / "run"
        run.mkdir(parents=True)
        (run / "table.csv").write_text("t,u\n0.0,1.0\n", encoding="utf-8")
        np.save(run / "levels.npy", np.arange(3.0))
        (run / "manifest.json").write_text(json.dumps({"verdicts": {"dt": 0.5}, "runs": []}), encoding="utf-8")
    old, new = tmp_path / "old", tmp_path / "new"
    assert run_script("csv_drift.py", str(old), str(new)).splitlines() == [
        "1 CSVs compared, 1 byte-identical",
        "1 .npy files compared, 1 byte-identical",
        "1 manifests compared, 1 with the same verdicts and runs",
    ]
    (new / "extra").mkdir()
    (new / "extra" / "manifest.json").write_text("{}", encoding="utf-8")
    assert run_script("csv_drift.py", str(old), str(new), status=1).splitlines()[0] == (
        f"extra/manifest.json: only under {new}"
    )
