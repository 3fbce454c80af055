"""Import layering of the package, read from the source with ``ast``."""

import ast
import pathlib

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
