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


@pytest.mark.parametrize("module", ["estimate.py", "assemble.py"])
def test_measurement_and_assembly_run_on_the_spectrum_alone(module):
    # a run measures one spectrum: neither layer reads a model or builds
    # a spectrum itself
    imports = _package_imports(PACKAGE / module)
    assert not [i for i in imports if i[0] == "respsim.models"]
    assert "diagonalize" not in {name for _, name in imports}


def test_spectrum_path_stays_off_the_reference_layer():
    # diagonalize takes its blocks and one-norms from the tensors; the
    # ladder operators, the Jordan-Wigner map and the Pauli one-norm are
    # the reference it is checked against, so no module falls back on them:
    # operators.py is a leaf that takes the model's conventions from
    # models.py, and __init__.py does not re-export it
    def imports_reference(path):
        modules = {alias.name for node in ast.walk(ast.parse(path.read_text()))
                   if isinstance(node, ast.Import) for alias in node.names}
        for module, name in _package_imports(path):
            modules |= {module, f"{module}.{name}"}
        return "respsim.operators" in modules
    assert [p.name for p in MODULES
            if p.name != "operators.py" and imports_reference(p)] == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_forms_a_spin_orbital_tensor(path):
    # a model holds spatial integrals and the spectrum is built on alpha
    # and beta strings: no module lifts a model (spin_orbital) or makes
    # the per-spin copies of a spatial tensor (np.kron); the lift is a
    # test-side reference (conftest.spin_orbital), and
    # test_spectra.test_diagonalize_forms_no_spin_orbital_tensor bounds
    # diagonalize's heap below the lifted V
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Attribute, ast.Name))}
    assert not names & {"spin_orbital", "kron"}


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


def _object_arrays(path):
    """Calls in a module that build an array of dtype object: a dtype=object
    keyword, or `object` passed to array, asarray or astype."""
    calls = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        args = [k.value for k in node.keywords if k.arg == "dtype"]
        if getattr(node.func, "attr", None) in ("array", "asarray", "astype"):
            args += node.args
        if any(isinstance(a, ast.Name) and a.id == "object" for a in args):
            calls.append(node.lineno)
    return calls


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_errors_admits_arrays_and_no_module_parses_argv(path):
    # frequency grids, triples and moments enter through
    # errors.check_reals, the one place that reads their entries as Python
    # objects; the CLI's getopt table hands its values to
    # check_run_options, so no module keeps a second set of argument types
    assert path.name == "errors.py" or _object_arrays(path) == []
    assert "argparse" not in _import_roots(path)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_chebfilter_imports_scipy(path):
    # the DCTs and erf of the filter build are the package's only scipy
    # use, so a numpy-only runtime stays a change to one module
    assert path.name == "chebfilter.py" or "scipy" not in _import_roots(path)


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


def test_cli_start_leaves_heavy_scipy_and_the_reference_unloaded():
    # every CLI run is a fresh process, so what `import respsim.cli` pulls
    # in is paid on each call; the package needs scipy.fft and
    # scipy.special only, and a run never needs the spin-orbital reference
    heavy = ["scipy.integrate", "scipy.optimize", "scipy.sparse",
             "scipy.linalg", "scipy.spatial", "respsim.operators"]
    probe = ("import json, sys, respsim.cli; "
             f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))")
    path = filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert json.loads(out.stdout) == []
