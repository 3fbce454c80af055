"""respsim: windowed-filter simulator for molecular response functions.

Usage: respsim (--model FILE [--dipole FILE] | --toy SPEC) [options]

  --model FILE     integral file (orbital basis)
  --dipole FILE    dipole integral file for --model (default: zero dipoles)
  --toy SPEC       hubbard:t=1,U=2,d=0.5 or random:n=3,ne=2,seed=0 (defaults)
  --oracle-only    exact sum over states only, no simulation
  --simulate       run the search/estimate protocol (the default)
  --gamma G        line width / resolution target (default 0.05)
  --eps E          per-window estimation accuracy in (0, 1) (default 2e-3)
  --order K        response order, 1 or 3 (default 1)
  --axes CHAIN     dipole chain, order + 1 letters from xyz (default all x)
  --grid LO:HI:N   N >= 2 frequencies (default 121 from 0 to 1.2 x top level)
  --seed S         integer seed >= 0 (default 0)
  --method M       estimation backend: direct, ae or exact (default ae)
  --out DIR        output directory (default: write no files)
  -h, --help       print this text

Exit codes: 0 success (and --help), 2 bad input (a malformed command
line too), 3 resource cap exceeded, 4 statistical failure.
"""

from __future__ import annotations

import gc
import getopt
import math
import sys

import numpy as np

from .assemble import GRID_POINT_CAP, check_run_options, run_pipeline
from .errors import (AXIS_LETTERS, InputError, ResourceError, RespsimError,
                     StatisticalFailure)
from .models import load_fcidump_like, make_hubbard_dimer, make_random_model
from .spectra import diagonalize

# each toy model's builder and its parameters with their defaults, in the
# builder's argument order; a given value is converted by its default's type
_TOYS = {"hubbard": (make_hubbard_dimer, {"t": 1.0, "U": 2.0, "d": 0.5}),
         "random": (make_random_model, {"n": 3, "ne": 2, "seed": 0})}


def _parse_toy(text: str):
    kind, _, rest = text.partition(":")
    if kind not in _TOYS:
        raise InputError(f"unknown toy model {kind!r} (try hubbard or random)")
    builder, params = _TOYS[kind][0], dict(_TOYS[kind][1])
    for item in rest.split(",") if rest else ():
        key, _, val = (part.strip() for part in item.partition("="))
        if not key or not val:
            raise InputError(f"malformed toy parameter {item!r}")
        if key not in params:
            raise InputError(f"unknown {kind} parameter {key}"
                             f" (accepted: {', '.join(params)})")
        try:
            params[key] = type(params[key])(val)
        except ValueError as exc:
            raise InputError(f"bad {kind} parameter: {exc}") from exc
    return builder(*params.values())


def _parse_axes(text: str):
    text = text.strip().lower()
    if any(c not in AXIS_LETTERS for c in text):
        raise InputError(f"--axes takes letters from xyz, got {text!r}")
    return tuple(AXIS_LETTERS.index(c) for c in text)


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("--grid must look like lo:hi:n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad --grid value: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError("--grid bounds must be finite")
    if not lo < hi or n < 2:
        raise InputError("--grid needs lo < hi and n >= 2")
    if n > GRID_POINT_CAP:
        raise ResourceError(
            f"--grid asks for {n} points, above the cap of {GRID_POINT_CAP}")
    return np.linspace(lo, hi, n)


# each long option and the converter of its text (None: a flag); the run
# options, gamma to method, go to check_run_options as they are given
_OPTIONS = {"model": str, "dipole": str, "toy": str, "oracle-only": None,
            "simulate": None, "gamma": float, "eps": float, "order": int,
            "axes": _parse_axes, "grid": _parse_grid, "seed": int,
            "method": str, "out": str, "help": None}
_RUN_OPTIONS = {"gamma", "eps", "order", "axes", "grid", "seed", "method"}


def _parse_argv(argv) -> dict:
    """The options given in argv, by long name, as unconverted text; a
    malformed command line raises InputError."""
    try:
        opts, rest = getopt.getopt(argv, "h", [
            name if conv is None else name + "="
            for name, conv in _OPTIONS.items()])
    except getopt.GetoptError as exc:
        raise InputError(str(exc)) from None
    given = {("help" if opt == "-h" else opt[2:]): text for opt, text in opts}
    if rest:
        raise InputError(f"unexpected argument {rest[0]!r}")
    if "help" not in given:
        if ("model" in given) == ("toy" in given):
            raise InputError("give exactly one of --model and --toy")
        if "oracle-only" in given and "simulate" in given:
            raise InputError("give at most one of --oracle-only and "
                             "--simulate")
    return given


def main(argv=None) -> int:
    gc.freeze()   # one-shot run: what is imported by now lives until exit
    try:
        given = _parse_argv(sys.argv[1:] if argv is None else argv)
        if "help" in given:
            print(__doc__, end="")
            return 0
        if "toy" in given:
            if "dipole" in given:
                raise InputError("--dipole applies to --model, not --toy")
            model = _parse_toy(given["toy"])
        else:
            model = load_fcidump_like(given["model"],
                                      dipole_path=given.get("dipole"))
        options = {"gamma": 0.05,
                   "mode": "oracle" if "oracle-only" in given else "simulate",
                   "out_dir": given.get("out")}
        for name, text in given.items():
            if name in _RUN_OPTIONS:
                try:
                    options[name] = _OPTIONS[name](text)
                except ValueError as exc:
                    raise InputError(f"bad --{name} value: {exc}") from None
        check_run_options(**options)  # before the spectrum is built
        result = run_pipeline(diagonalize(model), **options)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except StatisticalFailure as exc:
        print(f"statistical failure: {exc}", file=sys.stderr)
        return 4
    except RespsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if options["mode"] == "oracle":
        print("oracle sum over states evaluated on "
              f"{len(result['oracle'].frequencies)} points")
    else:
        n_win = sum(len(t.entries) for t in result["tables"].values())
        empty = ("; nothing assembled: a search found no spectral weight"
                 if result["result"] is None else "")
        print(f"simulated {n_win} window estimate(s); "
              f"queries {result['manifest']['queries_total']}{empty}")
    if given.get("out"):
        print(f"wrote outputs under {given['out']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
