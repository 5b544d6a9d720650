"""The study scripts under scripts/ import cleanly.

Each script guards its work behind __main__, so importing it runs nothing
but resolves every name it takes from memvisco: a renamed or removed name
fails here instead of in the next study run.
"""

import importlib.util
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
