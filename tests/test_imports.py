"""Module boundaries of the package: no src module imports a private name
of another, so every name that crosses a module is public, every
third-party module it imports is a declared dependency, and a run loads
no module it does not need."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "memvisco"
PYPROJECT = ROOT / "pyproject.toml"


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


OPENSSL_MODULES = ("_hashlib", "hashlib")


def loaded_after(code: str, names) -> set[str]:
    """The modules of names in sys.modules once code has run in a fresh
    interpreter with the sources on its path."""
    probe = f"import sys\n{code}\nprint(sorted(m for m in {tuple(names)!r} if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_a_run_leaves_openssl_unloaded(tmp_path):
    # hashlib maps OpenSSL's libcrypto for the fingerprint's sha256 alone,
    # ~3.6 MiB of every process's memory; the builtin module hashes the
    # same bytes.  Python 3.12 renamed it, and the fallback loads hashlib.
    pytest.importorskip("_sha256")
    config, out = ROOT / "configs" / "prony_single.cfg", tmp_path / "out"
    code = f"import memvisco.cli\nassert memvisco.cli.main(['run', {str(config)!r}, '--out', {str(out)!r}]) == 0"
    loaded = loaded_after(code, OPENSSL_MODULES)
    assert (out / "manifest.json").is_file()
    assert loaded <= loaded_after("", OPENSSL_MODULES)


def test_probe_sees_a_loaded_module():
    assert loaded_after("import hashlib", OPENSSL_MODULES) == set(OPENSSL_MODULES)


def third_party_imports(path: Path) -> set[str]:
    """Top-level modules path imports from outside the standard library and
    memvisco.  An import in the body of a try that catches ImportError is
    optional, not a dependency: the builtin sha256 module, say, that
    Python 3.12 renamed."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    optional = {
        id(stmt)
        for node in ast.walk(tree)
        if isinstance(node, ast.Try)
        and any(getattr(h.type, "id", None) in ("ImportError", "ModuleNotFoundError") for h in node.handlers)
        for stmt in node.body
    }
    found = set()
    for node in ast.walk(tree):
        if id(node) in optional:
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"memvisco"}


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    imported = set().union(*(third_party_imports(path) for path in SRC.glob("*.py")))
    assert "numpy" in imported
    assert imported - declared == set()


def test_scan_sees_a_third_party_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os.path\nimport numpy as np\nimport scipy.integrate\n"
        "from orjson import dumps\nfrom memvisco.grid import Grid\nfrom . import sibling\n"
        "try:\n    import yaml\nexcept ImportError:\n    yaml = None\n"
        "try:\n    import toml\nexcept ValueError:\n    toml = None\n"
    )
    assert third_party_imports(probe) == {"numpy", "scipy", "orjson", "toml"}


def unresolved_exports(module) -> list[str]:
    """The names in module.__all__ that the module does not define."""
    return [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]


def test_every_exported_name_resolves():
    import importlib

    names = [f"memvisco.{path.stem}".removesuffix(".__init__") for path in sorted(SRC.glob("*.py"))]
    modules = [importlib.import_module(name) for name in names]
    assert all(hasattr(module, "__all__") for module in modules)
    unresolved = {module.__name__: unresolved_exports(module) for module in modules}
    assert {name: missing for name, missing in unresolved.items() if missing} == {}


def test_scan_sees_an_unresolved_export():
    import types

    probe = types.ModuleType("probe")
    probe.__all__ = ["run", "march_shifts"]
    probe.run = print
    assert unresolved_exports(probe) == ["march_shifts"]


def unresolved_memvisco_imports(path: Path) -> list[str]:
    """`module` or `module.name` for each memvisco module that path imports,
    or name it imports from one, that does not resolve.  path is parsed,
    never run, so imports inside functions count too."""
    import importlib

    missing = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            wanted = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            wanted = [(node.module, alias.name) for alias in node.names]
        else:
            continue
        for module, name in wanted:
            if module.split(".")[0] != "memvisco":
                continue
            try:
                owner = importlib.import_module(module)
            except ImportError:
                missing.append(module)
                continue
            if name is not None and not hasattr(owner, name):
                missing.append(f"{module}.{name}")
    return missing


def test_every_memvisco_name_the_benchmark_child_imports_resolves():
    # the benchmark's J/N sweep imports its names inside a function that
    # only a full benchmark run calls
    child = ROOT / "perfbench" / "child.py"
    source = child.read_text(encoding="utf-8")
    assert "from memvisco.solver import" in source and "import memvisco.cli" in source
    assert unresolved_memvisco_imports(child) == []


def test_scan_sees_an_unresolved_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy\nimport memvisco.cli as cli\nimport memvisco.gone\n"
        "def sweep():\n    from memvisco.solver import run, march_shifts\n"
    )
    assert unresolved_memvisco_imports(probe) == ["memvisco.gone", "memvisco.solver.march_shifts"]


# the benchmark's tracer targets that resolve to nothing today, each of whose
# per-layer metrics reads 0; no other target may join them unnoticed
DEAD_TRACER_TARGETS = {
    "memvisco.runner.run",
    "memvisco.convergence.run",
    "memvisco.diagnostics.dirichlet_gradient_sq",
    "memvisco.solver.laplacian_array",
    "memvisco.grid.laplacian_array",
    "memvisco.expressions.Forcing.sample",
    "memvisco.solver.conv_weights",
    "memvisco.diagnostics.conv_weights",
    "memvisco.convergence.conv_weights",
    "memvisco.diagnostics.interval_weights",
    "memvisco.diagnostics.direct_weights",
}


def unresolved_tracer_targets(path: Path) -> list[str]:
    """`module.attr` for each (module, attr, name) of path's TARGETS list
    that does not resolve as the tracer walks it: the module imported, then
    each dotted part of attr read in turn.  path is parsed, never run."""
    import importlib

    tree = ast.parse(path.read_text(encoding="utf-8"))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    missing = []
    for module, attr, _ in ast.literal_eval(targets):
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    return missing


def test_the_benchmark_tracer_targets_stay_live():
    child = ROOT / "perfbench" / "child.py"
    missing = unresolved_tracer_targets(child)
    assert set(missing) <= DEAD_TRACER_TARGETS


def test_scan_sees_an_unresolved_tracer_target(tmp_path):
    probe = tmp_path / "child.py"
    probe.write_text(
        "import os\nTARGETS = [\n"
        '    ("memvisco.runner", "energy_ledger", "diagnostics.energy_ledger"),\n'
        '    ("memvisco.runner", "gone", "runner.gone"),\n'
        '    ("memvisco.expressions", "Forcing.sample", "expressions.Forcing.sample"),\n'
        "]\n"
    )
    assert unresolved_tracer_targets(probe) == ["memvisco.runner.gone", "memvisco.expressions.Forcing.sample"]
