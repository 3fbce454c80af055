"""Command-line interface parsing and exit codes."""

import tracemalloc
import warnings

import numpy as np
import pytest

from respsim import InputError, make_hubbard_dimer, write_fcidump_like
from respsim import assemble
from respsim.cli import _parse_axes, _parse_grid, _parse_toy, main


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def test_parse_toy_hubbard():
    m = _parse_toy("hubbard:t=2,U=1,d=0.25")
    assert m.T[0, 2] == pytest.approx(-2.0)
    assert m.dipole[0][0, 2] == pytest.approx(0.25)
    defaults = _parse_toy("hubbard")
    assert defaults.T[0, 2] == pytest.approx(-1.0)


def test_parse_toy_random():
    m = _parse_toy("random:n=2,ne=2,seed=5")
    assert m.n_orbitals == 4            # spin orbitals
    assert m.n_electrons == 2


def test_parse_toy_errors():
    with pytest.raises(InputError):
        _parse_toy("ising")
    with pytest.raises(InputError):
        _parse_toy("hubbard:t=")
    with pytest.raises(InputError):
        _parse_toy("hubbard:t=abc")
    # a mistyped key is refused, not silently replaced by its default
    with pytest.raises(InputError, match=r"u \(accepted: t, U, d\)"):
        _parse_toy("hubbard:u=7")
    with pytest.raises(InputError, match=r"e \(accepted: n, ne, seed\)"):
        _parse_toy("random:n=3,e=4")


def test_parse_axes():
    assert _parse_axes("xy", 1) == (0, 1)
    assert _parse_axes("XZzy", 3) == (0, 2, 2, 1)
    with pytest.raises(InputError):
        _parse_axes("x", 1)
    with pytest.raises(InputError):
        _parse_axes("xq", 1)
    with pytest.raises(InputError):
        _parse_axes("xx", 3)


def test_parse_grid():
    g = _parse_grid("0:5.4:28")
    assert np.allclose(g, np.linspace(0.0, 5.4, 28))
    with pytest.raises(InputError):
        _parse_grid("0:5.4")
    with pytest.raises(InputError):
        _parse_grid("5:1:10")
    with pytest.raises(InputError):
        _parse_grid("0:5:1")
    with pytest.raises(InputError):
        _parse_grid("a:b:c")
    for text in ("0:inf:5", "-inf:1:5", "nan:1:5", "0:nan:5"):
        with pytest.raises(InputError, match="finite|lo < hi"):
            _parse_grid(text)


# ---------------------------------------------------------------------------
# end-to-end invocations
# ---------------------------------------------------------------------------

def test_main_oracle_only(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["--toy", "hubbard", "--oracle-only", "--gamma", "0.1",
                 "--grid", "0:5.4:12", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr()
    assert "12 points" in captured.out
    assert (out / "response.csv").exists()
    assert (out / "manifest.json").exists()


def test_main_simulate(capsys):
    code = main(["--toy", "hubbard", "--simulate", "--gamma", "0.2",
                 "--grid", "0:5.4:8", "--method", "exact", "--seed", "3"])
    assert code == 0
    captured = capsys.readouterr()
    assert "window estimate(s)" in captured.out


def test_main_input_errors(tmp_path, capsys):
    assert main(["--toy", "heisenberg"]) == 2
    assert main(["--model", str(tmp_path / "missing.txt")]) == 2
    assert main(["--toy", "hubbard", "--grid", "5:1:10"]) == 2
    assert main(["--toy", "hubbard", "--axes", "qq"]) == 2
    missing_dip = str(tmp_path / "missing-dip.txt")
    assert main(["--toy", "hubbard", "--dipole", missing_dip,
                 "--oracle-only"]) == 2
    ints = tmp_path / "ints.txt"
    write_fcidump_like(make_hubbard_dimer(1.0, 2.0, 0.5), ints)
    assert main(["--model", str(ints), "--dipole", missing_dip,
                 "--oracle-only"]) == 2
    err = capsys.readouterr().err
    assert "input error" in err
    assert "dipole file not found" in err


def test_main_rejects_negative_seed(capsys):
    assert main(["--toy", "hubbard", "--simulate", "--gamma", "0.1",
                 "--seed", "-1", "--grid", "0:5.4:41"]) == 2
    assert "seed must be non-negative" in capsys.readouterr().err


def test_main_refuses_an_oversized_grid_before_allocating(capsys):
    # a 10^12-point grid would need 8 TB for the frequencies alone; the cap
    # refuses it from the parsed count, before np.linspace runs
    tracemalloc.start()
    try:
        rc = main(["--toy", "hubbard", "--oracle-only",
                   "--grid", "0:5:1000000000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert "resource cap" in capsys.readouterr().err
    assert peak < 1 << 20
    assert len(_parse_grid(f"0:5:{assemble.GRID_POINT_CAP}")) == \
        assemble.GRID_POINT_CAP


def test_main_resource_cap(tmp_path, capsys):
    # 8 spatial orbitals = 16 spin orbitals, beyond the dense-matrix cap
    assert main(["--toy", "random:n=8,ne=2", "--oracle-only"]) == 3
    assert "resource cap" in capsys.readouterr().err
    # the same size from a file is refused before any matrix is built
    ints, dip = tmp_path / "norb8.txt", tmp_path / "norb8-dip.txt"
    ints.write_text("&FCI NORB=8 NELEC=2\n&END\n")
    dip.write_text("")
    assert main(["--model", str(ints), "--dipole", str(dip),
                 "--oracle-only"]) == 3
    assert "resource cap" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["--simulate", "--oracle-only"])
def test_main_rejects_zero_hamiltonian_and_bad_eps(mode, monkeypatch,
                                                   capsys):
    # refused before any search starts, in both modes, with one message
    # and no warning about the (meaningless) spectrum
    def no_search(*args, **kwargs):
        raise AssertionError("search started on invalid input")

    monkeypatch.setattr(assemble, "binary_search_1d", no_search)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--toy", "hubbard:t=0,U=0", mode]) == 2
    assert [str(w.message) for w in caught] == []
    assert "Hamiltonian is zero" in capsys.readouterr().err
    for eps in ("0", "1", "-0.1"):
        assert main(["--toy", "hubbard", "--eps", eps, mode]) == 2
        assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--toy", "hubbard", "--gamma", "nan", "--oracle-only"],
    ["--toy", "hubbard", "--gamma", "inf", "--oracle-only"],
    ["--toy", "hubbard", "--gamma", "nan", "--simulate"],
    ["--toy", "hubbard", "--gamma", "inf", "--simulate"],
    ["--toy", "hubbard", "--grid", "0:inf:5", "--oracle-only"],
    ["--toy", "hubbard", "--grid", "nan:1:5", "--oracle-only"],
    ["--toy", "hubbard:t=nan", "--oracle-only"],
    ["--toy", "hubbard:t=-inf", "--oracle-only"],
    ["--toy", "hubbard:U=inf", "--oracle-only"],
    ["--toy", "hubbard:d=nan", "--oracle-only"],
], ids=lambda argv: " ".join(argv[1:]))
def test_main_rejects_non_finite_inputs(argv, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("which, line", [
    ("ints", "nan   1 1 0 0"), ("ints", "-inf   0 0 0 0"),
    ("dip", "x inf 1 2")])
def test_main_rejects_non_finite_model_files(which, line, tmp_path, capsys):
    files = {"ints": tmp_path / "ints.txt", "dip": tmp_path / "dip.txt"}
    write_fcidump_like(make_hubbard_dimer(1.0, 2.0, 0.5), files["ints"],
                       dipole_path=files["dip"])
    files[which].write_text(files[which].read_text() + line + "\n")
    assert main(["--model", str(files["ints"]), "--dipole",
                 str(files["dip"]), "--oracle-only"]) == 2
    assert capsys.readouterr().err.startswith("input error:")
