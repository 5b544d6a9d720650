"""The study scripts under scripts/ import cleanly, and run_all_configs.py
prints the digest of every CSV it writes.

Each script guards its work behind __main__, so importing it runs nothing
but resolves every name it takes from memvisco: a renamed or removed name
fails here instead of in the next study run.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_as_module(path):
    spec = importlib.util.spec_from_file_location(f"study_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.__name__ != "__main__"


def test_run_all_configs_prints_a_digest_per_csv(tmp_path):
    # every CSV the script writes gets a `<sha256>  <config>/<file>.csv`
    # line holding the digest of its bytes
    script = next(p for p in SCRIPTS if p.name == "run_all_configs.py")
    src = script.parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, str(script), str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    printed = {}
    for line in proc.stdout.splitlines():
        if line.endswith(".csv"):
            digest, name = line.split("  ")
            printed[name] = digest
    written = sorted(tmp_path.glob("*/*.csv"))
    assert len(written) == 9
    assert printed == {
        f"{p.parent.name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest() for p in written
    }
