"""Golden outputs: seeded CLI runs must reproduce their committed files
byte for byte.

Each case's files under tests/golden/<name>/ were written by
``respsim <argv> --out tests/golden/<name>``, and the first line the run
prints is held in SUMMARY.  The spectra come from LAPACK
eigensolvers, so the bytes also depend on the LAPACK build (these come from
numpy 2.4 with OpenBLAS 0.3.31 on x86-64), as the frozen spectrum hashes in
test_spectra.py do; for spectra large enough for threaded BLAS, on its
thread count too.  A change that moves output bits on purpose regenerates
the affected directories (``python tests/test_golden.py NAME ...``, or every
case without names; each case's SUMMARY entry is printed above the line the
run printed, and every number that moved is printed as old -> new before
the files are overwritten), copies the new lines into SUMMARY and lists
each changed number; the comparison itself stays exact.
"""

import contextlib
import csv
import io
import itertools
import json
import pathlib
import re
import shutil
import sys
import tempfile

import pytest

from conftest import run_with_blas_threads
from respsim.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = {
    # README scenarios 1-3
    "readme-oracle": "--toy hubbard:t=1,U=2,d=0.5 --oracle-only --gamma 0.05"
                     " --grid 0:5.4:109",
    "readme-simulate": "--toy hubbard --simulate --gamma 0.1 --seed 7"
                       " --method ae --grid 0:5.4:41",
    "readme-order3": "--toy hubbard --simulate --order 3 --gamma 0.2"
                     " --method exact --grid 1.0:3.9:3 --axes xxxx",
    "random-n3-exact": "--toy random:n=3,ne=2,seed=4 --simulate"
                       " --method exact",
    "random-n4-oracle": "--toy random:n=4,ne=4,seed=1 --oracle-only",
    "hubbard-gamma005": "--toy hubbard --simulate --gamma 0.05",
    # the only case that writes frequency-domain pathway values to a file
    "random-n3-order3-oracle": "--toy random:n=3,ne=2,seed=4 --order 3"
                               " --axes xyzx --oracle-only --gamma 0.1"
                               " --grid 0.5:3:7",
    # order 1 with axis_in != axis_out
    "random-n2-yx": "--toy random:n=2,ne=2,seed=3 --simulate --axes yx"
                    " --gamma 0.4 --method exact",
    # order 3 over distinct chains: six searches, estimates at depth 1 only
    "random-n2-order3-yxxy": "--toy random:n=2,ne=2,seed=0 --simulate"
                             " --order 3 --axes yxxy --gamma 0.4"
                             " --method exact --grid 0.5:3:4",
}

# the first line each case prints on stdout
SUMMARY = {
    "readme-oracle": "oracle sum over states evaluated on 109 points",
    "readme-simulate": "simulated 1 window estimate(s); queries 1093991310",
    "readme-order3": "simulated 3 window estimate(s); queries 20109243072",
    "random-n3-exact": "simulated 0 window estimate(s); queries 2758572;"
                       " nothing assembled: a search found no spectral"
                       " weight",
    "random-n4-oracle": "oracle sum over states evaluated on 121 points",
    "hubbard-gamma005": "simulated 1 window estimate(s); queries 1884391014",
    "random-n3-order3-oracle": "oracle sum over states evaluated on 7 points",
    "random-n2-yx": "simulated 1 window estimate(s); queries 1676437468",
    "random-n2-order3-yxxy": "simulated 10 window estimate(s); queries"
                             " 2248767810; nothing assembled: a search"
                             " found no spectral weight",
}


def _run(name, out):
    assert main(CASES[name].split() + ["--out", str(out)]) == 0


def _assert_golden_bytes(name, out):
    want = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in out.iterdir()) == want
    for fname in want:
        got = (out / fname).read_bytes()
        assert got == (GOLDEN / name / fname).read_bytes(), fname


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_match_golden_bytes(name, tmp_path, capsys):
    _run(name, tmp_path)
    assert capsys.readouterr().out.splitlines()[0] == SUMMARY[name]
    _assert_golden_bytes(name, tmp_path)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_golden_bytes_do_not_depend_on_blas_threads(threads, tmp_path):
    """Filter evaluation runs one GEMM per point, and the dimer's
    six-state eigensystem is too small for threaded BLAS, so a fresh
    process with one or two BLAS threads writes the same bytes.  Larger
    spectra move with the thread count (test_spectra.py)."""
    argv = CASES["readme-order3"].split() + ["--out", str(tmp_path)]
    run_with_blas_threads(threads, "-m", "respsim.cli", *argv)
    _assert_golden_bytes("readme-order3", tmp_path)


def test_a_runs_files_agree_with_each_other(tmp_path, capsys):
    """For every golden argv: queries_total is the searches' queries plus
    the estimates'; response.csv has one row per grid point when the run
    is oracle-only or assembled a response, and none otherwise; a
    simulation keys its tables by depth and its traces by search name at
    either order."""
    for name, argv in CASES.items():
        out = tmp_path / name
        _run(name, out)
        summary = capsys.readouterr().out.splitlines()[0]
        manifest = json.loads((out / "manifest.json").read_text())
        rows = (out / "response.csv").read_text().splitlines()[1:]
        if "--oracle-only" in argv:
            assert len(rows) == manifest["grid"]["n"], name
            continue
        tables = json.loads((out / "response_table.json").read_text())
        traces = json.loads((out / "search_trace.json").read_text())
        assert sorted(tables) == [str(d) for d in
                                  range(1, manifest["order"] + 1)], name
        assert all(t["order"] == int(d) for d, t in tables.items()), name
        for trace_name, trace in traces.items():
            depth = trace["dims"]
            assert (trace_name == "depth3" and depth == 3 or re.fullmatch(
                rf"d{depth}_[xyz]{{{depth + 1}}}", trace_name)), name
        assert manifest["queries_total"] == sum(
            t["queries_total"] for t in traces.values()) + sum(
            e["meta"]["queries"] for t in tables.values()
            for e in t["entries"]), name
        assembled = all(t["entries"] for t in tables.values())
        assert len(rows) == (manifest["grid"]["n"] if assembled else 0), name
        assert ("nothing assembled" in summary) != assembled, name


ABSENT = "(absent)"


def _json_moves(old, new, path=""):
    """(path, old, new) for every JSON leaf that differs, a missing key or
    list item reading ABSENT; leaves compare by their JSON text."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            yield from _json_moves(old.get(k, ABSENT), new.get(k, ABSENT),
                                   f"{path}/{k}")
    elif isinstance(old, list) and isinstance(new, list):
        for i, (a, b) in enumerate(itertools.zip_longest(
                old, new, fillvalue=ABSENT)):
            yield from _json_moves(a, b, f"{path}[{i}]")
    else:
        a, b = (x if x is ABSENT else json.dumps(x) for x in (old, new))
        if a != b:
            yield path, a, b


def _csv_moves(old, new):
    """(row and column, old, new) for every CSV cell that differs; rows
    count from 1 below the header, columns are named by the new header."""
    old, new = (list(csv.reader(io.StringIO(t))) for t in (old, new))
    header = new[0] if new else old[0]
    for r, (a, b) in enumerate(itertools.zip_longest(old, new,
                                                     fillvalue=[])):
        for c, (x, y) in enumerate(itertools.zip_longest(
                a, b, fillvalue=ABSENT)):
            if x != y:
                col = header[c] if c < len(header) else str(c)
                yield (f"row {r} {col}" if r else f"header {c}"), x, y


def _file_moves(old: pathlib.Path, new: pathlib.Path):
    """Every number that moved between two versions of a golden file (each
    is JSON or CSV)."""
    if not old.exists() or not new.exists():
        return [("file", "present" if old.exists() else ABSENT,
                 "present" if new.exists() else ABSENT)]
    a, b = old.read_text(), new.read_text()
    if old.suffix == ".json":
        return list(_json_moves(json.loads(a), json.loads(b)))
    return list(_csv_moves(a, b))


def test_moves_list_every_changed_json_leaf_and_csv_cell():
    old = {"a": [1, 2.5], "b": {"c": 0.1}, "gone": 1, "int": 2}
    new = {"a": [1, 2.0, 3], "b": {"c": 0.1}, "added": "x", "int": 2.0}
    assert list(_json_moves(old, new)) == [
        ("/a[1]", "2.5", "2.0"), ("/a[2]", ABSENT, "3"),
        ("/added", ABSENT, '"x"'), ("/gone", "1", ABSENT),
        ("/int", "2", "2.0")]
    old = "omega,re,im\n0,1.5,0\n1,2,-1\n"
    new = "omega,re,im\n0,1.5,0\n1,2.25,-1\n2,3,0\n"
    assert list(_csv_moves(old, new)) == [
        ("row 2 re", "2", "2.25"), ("row 3 omega", ABSENT, "2"),
        ("row 3 re", ABSENT, "3"), ("row 3 im", ABSENT, "0")]


def _regenerate(names):
    """Rewrite each case's files; print its new first stdout line under the
    SUMMARY entry it replaces, so the entry can be copied over, and every
    number that moved in each file, before the old files are replaced."""
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / name
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                _run(name, out)
            print(f"{name}:\n  SUMMARY  {SUMMARY[name]}\n"
                  f"  printed  {buf.getvalue().splitlines()[0]}")
            old = GOLDEN / name
            files = sorted({p.name for p in out.iterdir()}
                           | ({p.name for p in old.iterdir()}
                              if old.exists() else set()))
            for fname in files:
                moves = _file_moves(old / fname, out / fname)
                if moves:
                    print(f"  {fname}: {len(moves)} moved")
                for where, a, b in moves:
                    print(f"    {where}: {a} -> {b}")
            shutil.rmtree(old, ignore_errors=True)
            shutil.copytree(out, old)


if __name__ == "__main__":
    _regenerate(sys.argv[1:] or CASES)
