"""Command-line interface parsing and exit codes."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from oracle_reference import write_fcidump_like
from respsim import InputError, make_hubbard_dimer
from respsim import assemble, cli
from respsim.cli import _parse_axes, _parse_grid, _parse_toy, main


# ---------------------------------------------------------------------------
# argument parsing helpers
# ---------------------------------------------------------------------------

def test_parse_toy_hubbard():
    m = _parse_toy("hubbard:t=2,U=1,d=0.25")
    assert m.T[0, 1] == pytest.approx(-2.0)
    assert m.dipole[0][0, 1] == pytest.approx(0.25)
    defaults = _parse_toy("hubbard")
    assert defaults.T[0, 1] == pytest.approx(-1.0)


def test_parse_toy_random():
    m = _parse_toy("random:n=2,ne=2,seed=5")
    assert m.n_orbitals == 2            # spatial orbitals
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
    # letters map to axes; the chain's length is the run's to check
    assert _parse_axes("xy") == (0, 1)
    assert _parse_axes("XZzy") == (0, 2, 2, 1)
    assert _parse_axes("x") == (0,)
    with pytest.raises(InputError):
        _parse_axes("xq")


@pytest.mark.parametrize("argv", [["--axes", "x"],
                                  ["--order", "3", "--axes", "xx"]], ids=repr)
def test_main_refuses_a_chain_of_the_wrong_length(argv, capsys):
    assert main(["--toy", "hubbard", "--oracle-only", *argv]) == 2
    assert "need" in capsys.readouterr().err


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


def test_main_cost_report_states_the_system_size_bound(tmp_path, capsys):
    """cost_report.json carries N^(5n+1) eta^(n+1) / (gamma^n eps) with N
    the spin-orbital count and eta the electron count: N = 4 and eta = 2 on
    the dimer; a model with no electrons has no such bound."""
    def cost(toy):
        out = tmp_path / toy
        assert main(["--toy", toy, "--oracle-only", "--gamma", "0.1",
                     "--eps", "0.01", "--grid", "0:5.4:12",
                     "--out", str(out)]) == 0
        return json.loads((out / "cost_report.json").read_text())["cost"]

    assert cost("hubbard")["system_size_order_n"] == pytest.approx(
        4 ** 6 * 2 ** 2 / (0.1 * 0.01))
    assert cost("random:n=2,ne=0,seed=0")["system_size_order_n"] is None


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
    # a directory, or an empty path (the current directory), is no file
    for path in (str(tmp_path), ""):
        assert main(["--model", path, "--oracle-only"]) == 2
        assert main(["--model", str(ints), "--dipole", path]) == 2
    assert capsys.readouterr().err.count("file not found") == 4


# every long option, as the --help text must name it
LONG_OPTIONS = ("--model", "--dipole", "--toy", "--oracle-only", "--simulate",
                "--gamma", "--eps", "--order", "--axes", "--grid", "--seed",
                "--method", "--out", "--help")


@pytest.mark.parametrize("argv", [
    "--toy hubbard --bogus", "--oracle-only", "--model m.txt --toy hubbard",
    "--toy hubbard --oracle-only --simulate", "--toy hubbard --gamma abc",
    "--toy hubbard --eps abc", "--toy hubbard --order abc",
    "--toy hubbard --seed abc", "--toy hubbard --order 2",
    "--toy hubbard --method bogus", "--toy hubbard stray",
    "--toy hubbard --gamma", "--toy hubbard -x", "--toy hubbard --s 1"])
def test_malformed_command_lines_are_input_errors(argv, capsys):
    assert main(argv.split()) == 2
    assert capsys.readouterr().err.startswith("input error:")


@pytest.mark.parametrize("argv", ["--help", "-h", "--toy hubbard --help"])
def test_help_prints_every_option(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert out == cli.__doc__
    assert [o for o in LONG_OPTIONS if o not in out] == []


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
    # even the header's integral arrays: NORB=10000 would need 80 PB for
    # the spatial two-body tensor alone
    ints.write_text("&FCI NORB=10000 NELEC=2 / &END\n")
    tracemalloc.start()
    try:
        rc = main(["--model", str(ints), "--oracle-only"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert "resource cap" in capsys.readouterr().err
    assert peak < 1 << 20


@pytest.mark.parametrize("mode", ["--simulate", "--oracle-only"])
def test_main_rejects_zero_hamiltonian_and_bad_eps(mode, monkeypatch,
                                                   capsys):
    # refused before any search starts, in both modes, with one message
    # and no warning about the (meaningless) spectrum
    def no_search(*args, **kwargs):
        raise AssertionError("search started on invalid input")

    monkeypatch.setattr(assemble, "binary_search_nd", no_search)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--toy", "hubbard:t=0,U=0", mode]) == 2
    assert [str(w.message) for w in caught] == []
    assert "Hamiltonian is zero" in capsys.readouterr().err
    for eps in ("0", "1", "-0.1"):
        assert main(["--toy", "hubbard", "--eps", eps, mode]) == 2
        assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "--toy random:n=7,ne=6,seed=0 --oracle-only --gamma 0",
    "--toy hubbard:t=0,U=0 --simulate --gamma 0"])
def test_main_refuses_run_options_before_the_spectrum(argv, monkeypatch,
                                                      capsys):
    # the options need no spectrum, so a bad one is refused before
    # diagonalize runs, even on a model it would refuse (t = U = 0)
    def no_spectrum(*args, **kwargs):
        raise AssertionError("diagonalize ran on refused options")

    monkeypatch.setattr(cli, "diagonalize", no_spectrum)
    assert main(argv.split()) == 2
    assert "gamma must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("out", ["", "file", "file/run"], ids=repr)
def test_main_refuses_an_unusable_out_before_the_spectrum(out, tmp_path,
                                                          monkeypatch,
                                                          capsys):
    # an empty path, an existing file and a path under a file cannot hold
    # the outputs, so they are refused before diagonalize runs
    def no_spectrum(*args, **kwargs):
        raise AssertionError("diagonalize ran on a refused --out")

    monkeypatch.setattr(cli, "diagonalize", no_spectrum)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept\n")
    assert main(["--toy", "hubbard", "--oracle-only", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("input error:")
    assert (tmp_path / "file").read_text() == "kept\n"


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


# command lines that ended in OverflowError or ZeroDivisionError after the
# whole run, and what their refusal names
_OUT_OF_RANGE = {
    "--toy hubbard --simulate --method direct --eps 1e-9 --gamma 0.1 "
    "--grid 0:5.4:41 --seed 7": "direct shot count below 2^63",
    "--toy hubbard --simulate --method ae --eps 1e-300 --gamma 0.1 "
    "--grid 0:5.4:41": "steepness k outside the float range",
    "--toy hubbard --oracle-only --gamma 1e308": "entry total_queries",
    "--toy hubbard:t=1e200 --oracle-only": "entry bin_sorting",
    "--toy hubbard --oracle-only --gamma 1e-200 --eps 1e-200":
        "entry peak_height",
}


@pytest.mark.parametrize("argv, says", _OUT_OF_RANGE.items(),
                         ids=_OUT_OF_RANGE)
def test_main_refuses_counts_that_leave_the_float_range(argv, says, tmp_path,
                                                        capsys):
    out = tmp_path / "run"
    assert main(argv.split() + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and says in err
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
