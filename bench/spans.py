"""In-memory spans around the package's public functions.

Each wrapper is installed on the attribute its caller resolves the name
through (``respsim.assemble.diagonalize``, not ``respsim.spectra``'s
own), so the package runs unchanged.  A span records name, start, end,
parent span, op id and a few counts read from the call's arguments and
returned objects.  Spans stay in memory until the child writes its result.
"""

from __future__ import annotations

import importlib
import os
import time


def _size(path) -> int:
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _model_counts(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    return {"n_spatial": model.n_orbitals // 2,
            "sector_dim": int(len(result.eigenvalues))}


def _load_counts(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    dip = args[1] if len(args) > 1 else kwargs.get("dipole_path")
    return {"bytes": _size(path) + _size(dip)}


def _search_counts(args, kwargs, trace):
    cells = 0
    for lvl in trace.levels:
        n = 1
        for b in lvl["nbins"]:
            n *= b
        cells += n
    return {"levels": len(trace.levels), "cells": cells,
            "peaks": len(trace.peaks), "truncated": int(trace.truncated),
            "queries": int(trace.queries_total)}


def _estimate_counts(args, kwargs, est):
    return {"queries": int(est.queries)}


# (module, attribute path, span name, counts from (args, kwargs, result))
TARGETS = (
    ("respsim.cli", "main", "cli.main", None),
    ("respsim.cli", "load_fcidump_like", "models.load_fcidump_like",
     _load_counts),
    ("respsim.cli", "make_hubbard_dimer", "models.make_hubbard_dimer", None),
    ("respsim.cli", "run_pipeline", "assemble.run_pipeline", None),
    ("respsim.assemble", "diagonalize", "spectra.diagonalize", _model_counts),
    ("respsim.assemble", "alpha1", "spectra.oracle", None),
    ("respsim.assemble", "r_pathway_fd", "spectra.oracle", None),
    ("respsim.assemble", "binary_search_1d", "estimate.search",
     _search_counts),
    ("respsim.assemble", "binary_search_nd", "estimate.search",
     _search_counts),
    ("respsim.assemble", "estimate_window", "estimate.estimate",
     _estimate_counts),
    ("respsim.assemble", "estimate_box", "estimate.estimate",
     _estimate_counts),
    ("respsim.assemble", "assemble_alpha1", "assemble.assemble", None),
    ("respsim.assemble", "assemble_alpha3", "assemble.assemble", None),
    ("respsim.assemble", "_spawn_estimates", "assemble.spawn_estimates",
     lambda a, k, r: {"jobs": len(a[0] if a else k["jobs"])}),
    ("respsim.assemble", "_write_outputs", "assemble.write", None),
    ("respsim.estimate", "diagonalize", "spectra.diagonalize", _model_counts),
    ("respsim.estimate", "build_indicator", "chebfilter.build_indicator",
     lambda a, k, r: {"degree": int(r.degree)}),
    ("respsim.estimate", "jordan_wigner", "operators.jordan_wigner",
     lambda a, k, r: {"terms": len(r)}),
    ("respsim.estimate", "build_hamiltonian", "operators.build", None),
    ("respsim.estimate", "build_dipole", "operators.build", None),
    ("respsim.estimate", "lcu_one_norm", "operators.lcu_one_norm", None),
    ("respsim.spectra", "jordan_wigner", "operators.jordan_wigner",
     lambda a, k, r: {"terms": len(r)}),
    ("respsim.spectra", "build_hamiltonian", "operators.build", None),
    ("respsim.spectra", "build_dipole", "operators.build", None),
    ("respsim.operators", "PauliOperator.dense", "operators.pauli_dense",
     None),
    ("respsim.chebfilter", "ChebyshevFilter.eval", "chebfilter.eval", None),
)


class Tracer:
    def __init__(self, op: int):
        self.op = op
        self.spans = []
        self._stack = []
        self.missing = []

    def _wrap(self, fn, name, counts):
        def wrapper(*args, **kwargs):
            rec = {"name": name, "id": len(self.spans), "op": self.op,
                   "parent": self._stack[-1] if self._stack else None}
            self.spans.append(rec)
            self._stack.append(rec["id"])
            rec["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec["end"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                rec.update(counts(args, kwargs, result))
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Wrap every target; names the package no longer has are listed in
        ``missing`` so the report can say what went untraced."""
        for module, path, name, counts in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{path}")
                continue
            setattr(owner, attr, self._wrap(fn, name, counts))
