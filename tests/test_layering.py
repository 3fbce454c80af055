"""Import layering and public exports of the package (imports read from
the source with ``ast``), unused imports in the package and the tests, and
the import graph of a cold CLI start."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import respsim

PACKAGE = pathlib.Path(respsim.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
ARBITERS = [pathlib.Path(__file__).parent / name
            for name in ("pauli_reference.py", "dense_reference.py",
                         "oracle_reference.py")]
# every package module but __init__.py, whose imports are re-exports, and
# every test module
IMPORTERS = [p for p in MODULES if p.name != "__init__.py"] + sorted(
    pathlib.Path(__file__).parent.glob("*.py"))


def _package_imports(path):
    """(imported module, name) for every ``from`` import of a package
    module, relative or absolute."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = "respsim" + ("." + node.module if node.module else "")
        elif node.module and node.module.split(".")[0] == "respsim":
            module = node.module
        else:
            continue
        out += [(module, alias.name) for alias in node.names]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_cross_modules(path):
    private = [f"{mod}.{name}" for mod, name in _package_imports(path)
               if name.startswith("_")]
    assert not private, f"{path.name} imports private names {private}"


@pytest.mark.parametrize("path", ARBITERS, ids=lambda p: p.name)
def test_arbiters_share_no_private_code_with_the_package(path):
    # a reference that reuses the package's internals is not independent
    private = [f"{mod}.{name}" for mod, name in _package_imports(path)
               if name.startswith("_")]
    assert not private, f"{path.name} imports private names {private}"


def test_measurement_layer_runs_on_the_spectrum_alone():
    imports = _package_imports(PACKAGE / "estimate.py")
    assert not [i for i in imports if i[0] == "respsim.models"]
    assert "diagonalize" not in {name for _, name in imports}


def test_filters_stand_apart_from_the_operator_layer():
    imports = _package_imports(PACKAGE / "chebfilter.py")
    assert not [i for i in imports if i[0] == "respsim.operators"]


def _import_roots(path):
    """Top-level names of the modules a file imports."""
    modules = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
    return {m.split(".")[0] for m in modules}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_never_imports_the_test_references(path):
    assert not _import_roots(path) & {"tests", "conftest", "dense_reference",
                                      "pauli_reference", "oracle_reference"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_errors_admits_numbers(path):
    # the type checks on chain axes, seeds and scalars live in errors.py;
    # a second module reaching for `numbers` is a second admission path
    assert path.name == "errors.py" or "numbers" not in _import_roots(path)


def _unused_imports(path):
    """Names a module imports (other than from __future__) but never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", IMPORTERS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_public_names_resolve_once():
    names = respsim.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(respsim, n)] == []


def test_cli_start_leaves_heavy_scipy_unloaded():
    # every CLI run is a fresh process, so what `import respsim.cli` pulls
    # in is paid on each call; the package needs scipy.fft and
    # scipy.special only
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse",
             "scipy.linalg", "scipy.spatial"]
    probe = ("import json, sys, respsim.cli; "
             f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))")
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert json.loads(out.stdout) == []
