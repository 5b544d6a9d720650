"""Module boundaries of the package: no src module imports a private name
of another, so every name that crosses a module is public."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "memvisco"


def private_imports(path: Path) -> list[str]:
    """`module.name` for every `from memvisco.<module> import _name` in path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("memvisco."):
            found += [
                f"{node.module}.{alias.name}"
                for alias in node.names
                if alias.name.startswith("_") and not alias.name.startswith("__")
            ]
    return found


def test_no_module_imports_a_private_name_of_another():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    found = {path.name: private_imports(path) for path in sources}
    assert {name: names for name, names in found.items() if names} == {}


def test_scan_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from memvisco.solver import run, _forcing_values\nfrom memvisco import __version__\n")
    assert private_imports(probe) == ["memvisco.solver._forcing_values"]
