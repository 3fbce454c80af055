"""Command-line entry point.

Examples:
    respsim --toy hubbard:t=1,U=2,d=0.5 --gamma 0.05 --order 1 --axes xx \
            --grid 0:5.4:109 --seed 7 --out run1
    respsim --model fci.txt --dipole dip.txt --oracle-only --gamma 0.1

--axes names the dipole chain, one letter per axis; `run_pipeline` checks
its length (order + 1) and sets its default (all x).

Exit codes: 0 success, 2 bad input, 3 resource cap exceeded,
4 statistical failure.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

import numpy as np

from .assemble import GRID_POINT_CAP, check_run_options, run_pipeline
from .estimate import METHODS
from .errors import (AXIS_LETTERS, InputError, ResourceError, RespsimError,
                     StatisticalFailure)
from .models import load_fcidump_like, make_hubbard_dimer, make_random_model
from .spectra import diagonalize

_TOY_KEYS = {"hubbard": ("t", "U", "d"), "random": ("n", "ne", "seed")}


def _parse_toy(text: str):
    kind, _, rest = text.partition(":")
    if kind not in _TOY_KEYS:
        raise InputError(f"unknown toy model {kind!r} (try hubbard or random)")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, val = item.partition("=")
            if not key or not val:
                raise InputError(f"malformed toy parameter {item!r}")
            params[key.strip()] = val.strip()
    unknown = sorted(set(params) - set(_TOY_KEYS[kind]))
    if unknown:
        raise InputError(f"unknown {kind} parameter(s) {', '.join(unknown)}"
                         f" (accepted: {', '.join(_TOY_KEYS[kind])})")
    if kind == "hubbard":
        try:
            return make_hubbard_dimer(
                t=float(params.get("t", 1.0)),
                U=float(params.get("U", 2.0)),
                d01=float(params.get("d", 0.5)))
        except ValueError as exc:
            raise InputError(f"bad hubbard parameter: {exc}") from exc
    try:
        return make_random_model(
            n_orbitals=int(params.get("n", 3)),
            n_electrons=int(params.get("ne", 2)),
            seed=int(params.get("seed", 0)))
    except ValueError as exc:
        raise InputError(f"bad random-model parameter: {exc}") from exc


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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="respsim",
        description="Windowed-filter simulator for molecular response "
                    "functions.")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="integral file (orbital basis)")
    src.add_argument("--toy", help="built-in model, e.g. "
                     "hubbard:t=1,U=2,d=0.5 or random:n=3,ne=2,seed=7")
    p.add_argument("--dipole", help="dipole integral file for --model")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--oracle-only", action="store_true",
                      help="exact sum over states only, no simulation")
    mode.add_argument("--simulate", action="store_true",
                      help="run the search/estimate protocol (default)")
    p.add_argument("--gamma", type=float, default=0.05,
                   help="line width / resolution target (default 0.05)")
    p.add_argument("--eps", type=float, default=2e-3,
                   help="per-window estimation accuracy (default 2e-3)")
    p.add_argument("--order", type=int, choices=(1, 3), default=1)
    p.add_argument("--axes", default=None,
                   help="dipole chain, order + 1 letters (default all x)")
    p.add_argument("--grid", default=None, help="frequency grid lo:hi:n")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=METHODS,
                   default="ae", help="estimation backend (default ae)")
    p.add_argument("--out", default=None, help="output directory")
    return p


def main(argv=None) -> int:
    gc.freeze()   # one-shot run: what is imported by now lives until exit
    args = build_parser().parse_args(argv)
    try:
        if args.toy:
            if args.dipole is not None:
                raise InputError("--dipole applies to --model, not --toy")
            model = _parse_toy(args.toy)
        else:
            if not os.path.exists(args.model):
                raise InputError(f"model file not found: {args.model}")
            model = load_fcidump_like(args.model, dipole_path=args.dipole)
        options = dict(
            axes=None if args.axes is None else _parse_axes(args.axes),
            grid=_parse_grid(args.grid) if args.grid else None,
            gamma=args.gamma, eps=args.eps, order=args.order, seed=args.seed,
            method=args.method,
            mode="oracle" if args.oracle_only else "simulate")
        check_run_options(**options)  # before the spectrum is built
        result = run_pipeline(diagonalize(model), out_dir=args.out, **options)
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

    if args.oracle_only:
        print("oracle sum over states evaluated on "
              f"{len(np.atleast_1d(result['oracle'].frequencies))} points")
    else:
        n_win = sum(len(t.entries) for t in result["tables"].values())
        empty = ("; nothing assembled: a search found no spectral weight"
                 if result["result"] is None else "")
        print(f"simulated {n_win} window estimate(s); "
              f"queries {result['manifest']['queries_total']}{empty}")
    if args.out:
        print(f"wrote outputs under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
