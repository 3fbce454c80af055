"""Import layering and public exports of the package (imports read from
the source with ``ast``), and the import graph of a cold CLI start."""

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


def test_measurement_layer_runs_on_the_spectrum_alone():
    imports = _package_imports(PACKAGE / "estimate.py")
    assert not [i for i in imports if i[0] == "respsim.models"]
    assert "diagonalize" not in {name for _, name in imports}


def test_filters_stand_apart_from_the_operator_layer():
    imports = _package_imports(PACKAGE / "chebfilter.py")
    assert not [i for i in imports if i[0] == "respsim.operators"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_package_never_imports_the_test_references(path):
    modules = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.append(node.module)
    roots = {m.split(".")[0] for m in modules}
    assert not roots & {"tests", "conftest", "dense_reference"}


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
