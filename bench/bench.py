"""respsim benchmark: cold-process CLI operations, end to end and per layer.

    python3 bench/bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (the directory holding ``src/respsim``).
Every operation is one ``respsim.cli.main(argv)`` call in a fresh child
interpreter (``bench/child.py``), one child at a time, so the package's
in-process filter/eval/norm caches start cold every time.  A run repeats
whole rounds of its workload's operations until the workload's minimum
number of rounds is done and the next round would end past ``--seconds``,
then checks every output and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the same
rounds again with spans around the package's public functions
(``bench/spans.py``) and reports the per-layer metrics.  ``--workload
all`` runs every workload and also times the tier-1 test suite once.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

import refmodel

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_ROOT = ".bench_work"
DEFAULT_SEED = 0
BUDGET_S = 165.0            # a run must end within 180 s
MIN_SETUPS = 15             # set-up samples per run, probes fill the gap
# pointwise tolerance against an exact reference: admits summation-order
# roundoff of a rebuilt Hamiltonian (~1e-13 seen) and rejects a wrong
# matrix element (a flipped two-body sign moves the response by ~0.2)
ROUNDOFF_TOL = 1e-8
CHILD_ENV = {
    "RESPSIM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
NO_WEIGHT = "found no spectral weight"


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Case:
    argv: list
    # reference response and how far an op may stray from it:
    # ("pointwise", tol) bounds max |sim - ref| / |ref|;
    # ("sup", tol) bounds max |sim - ref| / max |ref| (criterion 08)
    ref: np.ndarray = None
    limit: tuple = ("pointwise", ROUNDOFF_TOL)
    limit_note: str = ""
    stored: np.ndarray = None    # seed-commit response, default seed only
    # program seeds to move to after a failed op (see _next_seed)
    alt_seeds: list = field(default_factory=list)


@dataclass
class Workload:
    cases: dict
    rounds: list                 # case names making up one round
    min_rounds: int
    # oracle-only argv per case, run once before timing, whose response
    # becomes that case's reference (the in-run oracle)
    oracle_argv: dict = field(default_factory=dict)
    # independent check of that oracle: case -> exact reference values
    oracle_check: dict = field(default_factory=dict)
    stored_ref: str = ""
    notes: list = field(default_factory=list)


def _dimer_o1(seed: int, work: str) -> Workload:
    # Not listed in BENCHMARK.json: about 10% of program seeds exit 0 with
    # "found no spectral weight" (1-D search threshold, ROADMAP item 4), so
    # a run of it often reports correct: false.  It stays runnable by name
    # so the failure keeps showing until the search is fixed.
    common = ["--toy", "hubbard", "--gamma", "0.1", "--grid", "0:5.4:41"]
    exact = refmodel.alpha1(refmodel.solve(refmodel.hubbard_dimer()), 0, 0,
                            np.linspace(0.0, 5.4, 41), 0.1)
    alt = np.random.SeedSequence((seed, 1)).generate_state(8)
    case = Case(common + ["--simulate", "--method", "ae", "--seed",
                          str(seed)],
                limit=("pointwise", 0.10),
                limit_note="criterion 07: pointwise <= 10%",
                alt_seeds=[int(a) for a in alt])
    return Workload({"o1": case}, ["o1"], 4,
                    oracle_argv={"o1": common + ["--oracle-only"]},
                    oracle_check={"o1": exact},
                    notes=["not gated: ~10% of program seeds find no "
                           "spectral weight (ROADMAP item 4)"])


def _dimer_o3(seed: int, work: str) -> Workload:
    common = ["--toy", "hubbard", "--order", "3", "--gamma", "0.2",
              "--axes", "xxxx", "--grid", "1.0:3.9:3"]
    case = Case(common + ["--simulate", "--method", "exact", "--seed",
                          str(seed)],
                limit=("sup", 0.15),
                limit_note="criterion 08: max|err| <= 15% of max|ref|")
    return Workload({"o3": case}, ["o3"], 8,
                    oracle_argv={"o3": common + ["--oracle-only"]})


RANDOM_SIZES = (4, 5)         # spatial orbitals
RANDOM_ELECTRONS = 4          # even, so the ground state can be a singlet


def random_inputs(seed: int, work: str) -> dict:
    """Write the seed's models as integral/dipole files; return per size
    (argv, exact reference, input digest)."""
    out = {}
    for n in RANDOM_SIZES:
        model, spec = refmodel.seeded_random_model(seed, n, RANDOM_ELECTRONS)
        fci = os.path.join(work, f"random-n{n}.fcidump")
        dip = os.path.join(work, f"random-n{n}.dipole")
        with open(fci, "w") as fh:
            fh.write(model.fcidump)
        with open(dip, "w") as fh:
            fh.write(model.dipole_text)
        hi = f"{1.2 * float(spec.excitations[-1]):.6g}"
        ref = refmodel.alpha1(spec, 0, 0, np.linspace(0.0, float(hi), 121),
                              0.1)
        argv = ["--model", fci, "--dipole", dip, "--oracle-only",
                "--gamma", "0.1", "--grid", f"0:{hi}:121"]
        out[f"n{n}"] = (argv, ref, model.digest)
    return out


def _stored_path(seed: int) -> str:
    return os.path.join(HERE, "reference", f"random-oracle-seed{seed}.json")


def _random_oracle(seed: int, work: str) -> Workload:
    inputs = random_inputs(seed, work)
    cases = {name: Case(argv, ref, limit_note="independent exact solver")
             for name, (argv, ref, _) in inputs.items()}
    wl = Workload(cases, ["n4", "n5", "n4"], 1,
                  notes=["n5 runs once per round, so its bytes are "
                         "compared across processes only in runs of two "
                         "or more rounds"])
    path = _stored_path(seed)
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
        for name, (_, _, digest) in inputs.items():
            entry = stored[name]
            if entry["digest"] != digest:
                raise SystemExit(f"{path}: inputs for {name} changed; the "
                                 "stored reference no longer applies")
            cases[name].stored = np.array(entry["re"]) + 1j * np.array(
                entry["im"])
        wl.stored_ref = os.path.relpath(path)
    return wl


WORKLOADS = {
    "dimer-o1-ae": _dimer_o1,
    "dimer-o3-exact": _dimer_o3,
    "random-oracle": _random_oracle,
}


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

class Runner:
    """Spawns one child at a time and reaps it with wait4 for its rusage."""

    def __init__(self, checkout: str, work: str):
        self.src = os.path.join(checkout, "src")
        self.work = work
        self.t_start = time.monotonic()
        self.deadline = self.t_start + BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=self.src, **CHILD_ENV)
        self.count = 0

    def spawn(self, argv, trace: bool = False) -> dict:
        """Run child.py; argv None makes an import-only set-up probe."""
        self.count += 1
        tag = os.path.join(self.work, f"c{self.count:04d}")
        out_dir = tag + "-out" if argv is not None else None
        spec = {"argv": None if argv is None else argv + ["--out", out_dir],
                "src": self.src, "op": self.count, "trace": trace,
                "result": tag + ".json"}
        with open(tag + ".spec", "w") as fh:
            json.dump(spec, fh)
        rec = {"argv": argv, "out": out_dir, "traced": trace,
               "reasons": []}
        with open(tag + ".stdout", "wb") as so, \
                open(tag + ".stderr", "wb") as se:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"),
                 tag + ".spec"], stdout=so, stderr=se, env=self.env)
            status, usage = self._reap(proc)
        rec["exit"] = os.waitstatus_to_exitcode(status) if status is not None \
            else None
        rec["rss_mb"] = usage.ru_maxrss / 1024.0 if usage else None
        with open(tag + ".stdout", errors="replace") as fh:
            rec["stdout"] = fh.read()
        with open(tag + ".stderr", errors="replace") as fh:
            rec["stderr"] = fh.read()[-2000:]
        if status is None:
            rec["reasons"].append("killed at the run's time budget")
            return rec
        try:
            with open(tag + ".json") as fh:
                child = json.load(fh)
        except (OSError, ValueError):
            rec["reasons"].append(f"no child record (exit {rec['exit']})")
            return rec
        rec["setup_s"] = child["t_ready"] - t_spawn
        rec["versions"] = child["versions"]
        rec["wall_s"] = child.get("wall_s")
        rec["spans"] = child.get("spans")
        rec["untraced"] = child.get("untraced", [])
        return rec

    def _reap(self, proc):
        """(wait status, rusage), or (None, None) after killing a child that
        outlived the run's budget; an interrupt also kills and reaps it."""
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    proc.returncode = os.waitstatus_to_exitcode(status)
                    return status, usage
                if time.monotonic() > self.deadline:
                    break
                time.sleep(0.005)
        except BaseException:
            self._kill(proc)
            raise
        self._kill(proc)
        return None, None

    @staticmethod
    def _kill(proc):
        proc.send_signal(signal.SIGKILL)
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def read_response(out_dir: str) -> np.ndarray:
    with open(os.path.join(out_dir, "response.csv")) as fh:
        rows = list(csv.DictReader(fh))
    return np.array([complex(float(r["re"]), float(r["im"])) for r in rows])


def rel_err(got: np.ndarray, ref: np.ndarray, kind: str) -> float:
    if got.shape != ref.shape:
        return math.inf
    if kind == "sup":
        return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


def _output_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f))
               for f in os.listdir(out_dir))


def check_op(rec: dict, case: Case, first: dict) -> None:
    """Fill rec['reasons'] (empty = passed) and rec['max_rel_err']."""
    reasons = rec["reasons"]
    if reasons:
        return
    if rec["exit"] != 0:
        reasons.append(f"exit code {rec['exit']}: {rec['stderr'].strip()}")
        return
    if NO_WEIGHT in rec["stdout"]:
        reasons.append("exit 0 with 'found no spectral weight' while the "
                       "oracle has weight")
        return
    try:
        got = read_response(rec["out"])
    except (OSError, KeyError, ValueError) as exc:
        reasons.append(f"unreadable response.csv: {exc}")
        return
    if not np.all(np.isfinite(got)):
        reasons.append("non-finite response values")
        return
    rec["output_bytes"] = _output_bytes(rec["out"])
    if case.ref is None:
        reasons.append("no reference: the oracle op failed")
        return
    kind, tol = case.limit
    refs = {"reference": case.ref}
    if case.stored is not None:
        refs["stored seed-commit reference"] = case.stored
    rec["max_rel_err"] = max(rel_err(got, ref, "pointwise")
                             for ref in refs.values())
    for label, ref in refs.items():
        err = rel_err(got, ref, kind)
        if not err <= tol:
            reasons.append(f"{kind} relative error {err:.3g} vs {label} "
                           f"exceeds {tol:g} ({case.limit_note})")
    with open(os.path.join(rec["out"], "manifest.json"), "rb") as fh:
        manifest_bytes = fh.read()
    rec["queries"] = json.loads(manifest_bytes).get("queries_total", 0)
    if first is not None and first is not rec and "bytes" in first:
        for name in ("response.csv", "manifest.json"):
            if first["bytes"][name] != _read(rec["out"], name):
                reasons.append(f"{name} differs from the first op with the "
                               "same seed (criterion 10)")
    rec["bytes"] = {"response.csv": _read(rec["out"], "response.csv"),
                    "manifest.json": manifest_bytes}


def _next_seed(case: Case) -> None:
    """After a failed op, move the case to the next program seed of its
    stream.  The failure stays counted; the switch only lets the run time
    successful ops, since a failed op is no sample of time to solution."""
    if case.alt_seeds:
        i = case.argv.index("--seed")
        case.argv = case.argv[:i + 1] + [str(case.alt_seeds.pop(0))] \
            + case.argv[i + 2:]


def _read(out_dir: str, name: str) -> bytes:
    with open(os.path.join(out_dir, name), "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

PER_LAYER = (
    "chebfilter.build_indicator_s", "chebfilter.build_indicator_s.deg_lt_1k",
    "chebfilter.build_indicator_s.deg_1k_10k",
    "chebfilter.build_indicator_s.deg_ge_10k", "chebfilter.filters_built",
    "chebfilter.degree_max", "chebfilter.degree_sum", "chebfilter.eval_s",
    "chebfilter.eval_calls",
    "operators.jordan_wigner_s", "operators.jordan_wigner_calls",
    "operators.pauli_terms", "operators.pauli_dense_s",
    "operators.lcu_one_norm_s", "operators.build_s",
    "spectra.diagonalize_s", "spectra.diagonalize_s.n4",
    "spectra.diagonalize_s.n5", "spectra.sector_dim", "spectra.oracle_s",
    "models.load_s", "models.bytes_read",
    "estimate.search_s", "estimate.search_levels", "estimate.cells_scored",
    "estimate.search_s_per_level", "estimate.search_truncated",
    "estimate.search_peaks", "estimate.cells_per_filter",
    "estimate.search_queries", "estimate.estimate_s",
    "estimate.windows_estimated", "estimate.estimate_queries",
    "assemble.assemble_s", "assemble.write_s", "assemble.output_bytes",
    "assemble.estimate_jobs", "assemble.pipeline_self_s",
    "cli.main_s", "cli.self_s", "trace_overhead_s",
)
_MAX_METRICS = ("chebfilter.degree_max", "spectra.sector_dim")
# disjoint time metrics per module; together they cover the traced main()
LAYER_TIMES = {
    "chebfilter": ("chebfilter.build_indicator_s", "chebfilter.eval_s"),
    "operators": ("operators.jordan_wigner_s", "operators.pauli_dense_s",
                  "operators.lcu_one_norm_s", "operators.build_s"),
    "spectra": ("spectra.diagonalize_s", "spectra.oracle_s"),
    "models": ("models.load_s",),
    "estimate": ("estimate.search_s", "estimate.estimate_s"),
    "assemble": ("assemble.assemble_s", "assemble.write_s",
                 "assemble.pipeline_self_s"),
    "cli": ("cli.self_s",),
}


def layer_metrics(spans: list) -> dict:
    """Per-layer totals for one op; self time = duration minus the part
    covered by direct child spans (children never overlap: one thread)."""
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    by_id = {s["id"]: s for s in spans}

    def under_search(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == "estimate.search":
                return True
        return False

    m = defaultdict(float)
    search_filters = 0
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        own = dur - child_time[s["id"]]
        if name == "chebfilter.build_indicator":
            deg = s["degree"]
            bucket = ("deg_lt_1k" if deg < 1000 else
                      "deg_1k_10k" if deg < 10000 else "deg_ge_10k")
            m["chebfilter.build_indicator_s"] += dur
            m["chebfilter.build_indicator_s." + bucket] += dur
            m["chebfilter.filters_built"] += 1
            m["chebfilter.degree_max"] = max(m["chebfilter.degree_max"], deg)
            m["chebfilter.degree_sum"] += deg
            search_filters += under_search(s)
        elif name == "chebfilter.eval":
            m["chebfilter.eval_s"] += dur
            m["chebfilter.eval_calls"] += 1
        elif name == "operators.jordan_wigner":
            m["operators.jordan_wigner_s"] += dur
            m["operators.jordan_wigner_calls"] += 1
            m["operators.pauli_terms"] += s["terms"]
        elif name == "operators.pauli_dense":
            m["operators.pauli_dense_s"] += dur
        elif name == "operators.lcu_one_norm":
            m["operators.lcu_one_norm_s"] += dur
        elif name == "operators.build":
            m["operators.build_s"] += dur
        elif name == "spectra.diagonalize":
            m["spectra.diagonalize_s"] += own
            if s["n_spatial"] in (4, 5):
                m[f"spectra.diagonalize_s.n{s['n_spatial']}"] += own
            m["spectra.sector_dim"] = max(m["spectra.sector_dim"],
                                          s["sector_dim"])
        elif name == "spectra.oracle":
            m["spectra.oracle_s"] += dur
        elif name == "models.load_fcidump_like":
            m["models.load_s"] += dur
            m["models.bytes_read"] += s["bytes"]
        elif name == "estimate.search":
            m["estimate.search_s"] += own
            m["estimate.search_levels"] += s["levels"]
            m["estimate.cells_scored"] += s["cells"]
            m["estimate.search_truncated"] += s["truncated"]
            m["estimate.search_peaks"] += s["peaks"]
            m["estimate.search_queries"] += s["queries"]
        elif name == "estimate.estimate":
            m["estimate.estimate_s"] += own
            m["estimate.windows_estimated"] += 1
            m["estimate.estimate_queries"] += s["queries"]
        elif name == "assemble.assemble":
            m["assemble.assemble_s"] += dur
        elif name == "assemble.write":
            m["assemble.write_s"] += dur
        elif name == "assemble.spawn_estimates":
            m["assemble.estimate_jobs"] += s["jobs"]
        elif name == "assemble.run_pipeline":
            m["assemble.pipeline_self_s"] += own
        elif name == "cli.main":
            m["cli.main_s"] += dur
            m["cli.self_s"] += own
    m["search_filters"] = search_filters
    return m


def combine_layers(per_case: dict) -> dict:
    """Median over each case's traced ops, then summed over cases (maxima
    for the size metrics); ratios are formed from the combined totals."""
    total = defaultdict(float)
    for ops in per_case.values():
        keys = set().union(*ops)
        for k in keys:
            med = statistics.median(op.get(k, 0.0) for op in ops)
            if k in _MAX_METRICS:
                total[k] = max(total[k], med)
            else:
                total[k] += med
    lv = total["estimate.search_levels"]
    total["estimate.search_s_per_level"] = (
        total["estimate.search_s"] / lv if lv else 0.0)
    nf = total.pop("search_filters", 0.0)
    total["estimate.cells_per_filter"] = (
        total["estimate.cells_scored"] / nf if nf else 0.0)
    return {k: float(total.get(k, 0.0)) for k in PER_LAYER}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
         "queries_total": "count", "max_rel_err": "1", "failed_share": "1"}


def layer_unit(name: str) -> str:
    if name.endswith("per_level"):
        return "s/level"
    if name.endswith("per_filter"):
        return "cells/filter"
    if "bytes" in name:
        return "B"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def _case_median(ops, key, cases):
    return {c: statistics.median(op[key] for op in ops if op["case"] == c)
            for c in cases if any(op["case"] == c for op in ops)}


def _seed_of(argv: list) -> str:
    return f"(--seed {argv[argv.index('--seed') + 1]})" \
        if "--seed" in argv else ""


def _timing_ops(ops: list, cases: list) -> list:
    """Per case, the ops that passed their checks; a case none of whose
    ops passed falls back to every op whose main() returned, so a failing
    run still prints its costs next to ``correct: false``."""
    out = []
    for c in cases:
        done = [o for o in ops if o["case"] == c and o.get("wall_s")]
        out += [o for o in done if not o["reasons"]] or done
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 checkout: str) -> dict:
    work = os.path.join(checkout, WORK_ROOT, f"run-{os.getpid()}-{name}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(checkout, work)
        wl = WORKLOADS[name](seed, work)
        return _measure(name, wl, runner, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _measure(name, wl, runner, seconds, trace) -> dict:
    runner.spawn(None)                       # warm page cache and bytecode
    ops, setups = [], []

    def timed(case_name, traced) -> bool:
        case = wl.cases[case_name]
        rec = runner.spawn(case.argv, trace=traced)
        rec["case"] = case_name
        first = next((o for o in ops if o["argv"] == rec["argv"]
                      and "bytes" in o), None)
        check_op(rec, case, first)
        ops.append(rec)
        if not traced and "setup_s" in rec:
            setups.append(rec["setup_s"])
        if rec["reasons"]:
            _next_seed(case)
        return not rec["reasons"]

    # the in-run oracle: one oracle-only op per case, checked, not timed
    oracle_ops = []
    for case_name, argv in wl.oracle_argv.items():
        rec = runner.spawn(argv)
        oracle_ops.append(rec)
        if "setup_s" in rec:
            setups.append(rec["setup_s"])
        if rec["exit"] != 0 or rec["reasons"]:
            rec["reasons"].append(f"oracle op failed (exit {rec['exit']})")
            continue
        ref = read_response(rec["out"])
        if not np.all(np.isfinite(ref)) or not np.any(ref != 0):
            rec["reasons"].append("oracle response non-finite or empty")
            continue
        exact = wl.oracle_check.get(case_name)
        if exact is not None:
            err = rel_err(ref, exact, "pointwise")
            if not err <= ROUNDOFF_TOL:
                rec["reasons"].append(
                    f"oracle differs from the independent solver by {err:.3g}")
                continue
        wl.cases[case_name].ref = ref
    refs_ok = not any(rec["reasons"] for rec in oracle_ops)

    def rounds(traced, minimum, budget):
        """Whole rounds until `minimum` rounds had no failed op and the
        next round would end past `budget` seconds, judged by the last
        round's length; a run gives up after minimum + 2 failed rounds."""
        t0, good, tries, last = time.monotonic(), 0, 0, 0.0
        while ((good < minimum
                or time.monotonic() - t0 + last <= budget)
               and tries - good < minimum + 2
               and time.monotonic() < runner.deadline):
            t_round = time.monotonic()
            good += all([timed(c, traced) for c in wl.rounds])
            tries += 1
            last = time.monotonic() - t_round

    # a traced run needs per-layer shares, not tight medians: an untraced
    # and a traced pass of at least a round each share the run's seconds
    if trace:
        rounds(False, 1, seconds / 2)
        rounds(True, 1, seconds / 2)
    else:
        rounds(False, wl.min_rounds, seconds)
    while len(setups) < MIN_SETUPS and time.monotonic() < runner.deadline:
        rec = runner.spawn(None)
        if "setup_s" in rec:
            setups.append(rec["setup_s"])

    attempted = len(ops) + len(oracle_ops)
    failed = sum(bool(o["reasons"]) for o in ops + oracle_ops)
    cases = list(dict.fromkeys(wl.rounds))
    plain = _timing_ops([o for o in ops if not o["traced"]], cases)
    traced = _timing_ops([o for o in ops if o["traced"]], cases)
    complete = all(any(o["case"] == c for o in plain) for c in cases)
    correct = refs_ok and failed == 0 and complete and bool(setups)
    problems = [f"{o.get('case', 'oracle')} {_seed_of(o['argv'])}: "
                + "; ".join(o["reasons"])
                for o in ops + oracle_ops if o["reasons"]]
    if not complete:
        problems.append("an op kind has no op that ran to completion")

    versions = next((o["versions"] for o in ops + oracle_ops
                     if "versions" in o), {})
    info = {"versions": versions, "child_env": CHILD_ENV,
            "cpus": os.cpu_count(), "problems": problems,
            "stored_reference": wl.stored_ref or None, "notes": wl.notes,
            "ops": {c: sum(o["case"] == c and not o["traced"] for o in ops)
                    for c in cases},
            "traced_ops": {c: sum(o["case"] == c and o["traced"]
                                  for o in ops) for c in cases}}
    e2e = {}
    if complete and setups:
        walls = _case_median(plain, "wall_s", cases)
        rss = _case_median(plain, "rss_mb", cases)
        e2e = {"wall_s": sum(walls.values()),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": max(rss.values())}
        info["wall_s_by_case"] = walls
        info["setup_samples"] = len(setups)
    queries = [next((o["queries"] for o in plain
                     if o["case"] == c and "queries" in o), None)
               for c in cases]
    info["queries_total"] = None if None in queries else sum(queries)
    errs = [o["max_rel_err"] for o in ops if "max_rel_err" in o]
    info["max_rel_err"] = max(errs) if errs else None
    info["failed_share"] = failed / attempted if attempted else None

    layers = {}
    if trace and traced and e2e:
        per_case = defaultdict(list)
        for o in traced:
            m = layer_metrics(o["spans"])
            m["assemble.output_bytes"] = o.get("output_bytes", 0)
            per_case[o["case"]].append(m)
        layers = combine_layers(per_case)
        traced_wall = sum(_case_median(traced, "wall_s", cases).values())
        layers["trace_overhead_s"] = traced_wall - e2e["wall_s"]
        info["untraced_names"] = sorted(
            set().union(*(o["untraced"] for o in traced)))
        info["spans"] = {c: [o["spans"] for o in traced if o["case"] == c]
                         for c in cases}
    elif trace:
        correct = False
        problems.append("no successful traced op")
    info["elapsed_s"] = time.monotonic() - runner.t_start
    return {"workload": name, "correct": correct, "attempted": attempted,
            "failed": failed, "e2e": e2e, "layers": layers, "info": info}


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def print_report(res: dict, seed: int, trace: bool) -> None:
    info = res["info"]
    v = info["versions"]
    print(f"== {res['workload']}  seed={seed}  trace={int(trace)}")
    print(f"   python {v.get('python')}  numpy {v.get('numpy')}  "
          f"scipy {v.get('scipy')}  cpus={info['cpus']}  "
          + " ".join(f"{k}={val}" for k, val in CHILD_ENV.items()))
    print(f"   ops per case {info['ops']}  traced {info['traced_ops']}  "
          f"attempted {res['attempted']}  failed {res['failed']}  "
          f"elapsed {info['elapsed_s']:.1f} s")
    for k, val in res["e2e"].items():
        print(f"   {k:<14} {_fmt(val):>14} {UNITS[k]}")
    for k in ("queries_total", "max_rel_err", "failed_share"):
        print(f"   {k:<14} {_fmt(info[k]):>14} {UNITS[k]}   (checked, "
              "not gated)")
    if info.get("stored_reference"):
        print(f"   also checked against {info['stored_reference']}")
    for note in info["notes"]:
        print(f"   note: {note}")
    for p in info["problems"]:
        print(f"   FAILED {p}")
    if res["layers"]:
        for k, val in res["layers"].items():
            print(f"   {k:<42} {_fmt(val):>14} {layer_unit(k)}")
        main_s = res["layers"]["cli.main_s"]
        print("   share of traced main(): " + "  ".join(
            f"{layer} {sum(res['layers'][k] for k in keys) / main_s:.1%}"
            for layer, keys in LAYER_TIMES.items()))
        if info["untraced_names"]:
            print("   untraced (missing in this version): "
                  + ", ".join(info["untraced_names"]))


def result_line(res: dict, trace: bool) -> dict:
    if trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in res["layers"].items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in res["e2e"].items()}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def save(res: dict, seed: int, trace: bool, checkout: str) -> str:
    out = os.path.join(checkout, WORK_ROOT, "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{res['workload']}-seed{seed}-trace"
                             f"{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True, default=str)
    return path


def time_tier1(checkout: str) -> tuple:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests"], cwd=checkout, env=env, capture_output=True, text=True,
        timeout=900)
    lines = proc.stdout.strip().splitlines()
    return time.monotonic() - t0, proc.returncode, lines[-1] if lines else ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit so a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    checkout = os.getcwd()
    if not os.path.isfile(os.path.join(checkout, "src", "respsim", "cli.py")):
        print("bench: run from a checkout root holding src/respsim",
              file=sys.stderr)
        return 2
    trace = bool(args.trace)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, trace, checkout)
        res["path"] = save(res, args.seed, trace, checkout)
        print_report(res, args.seed, trace)
        print(f"   record: {os.path.relpath(res['path'], checkout)}")
        results.append(res)
    if args.workload != "all":
        print(json.dumps(result_line(results[0], trace)))
        return 0
    secs, rc, summary = time_tier1(checkout)
    print(f"== tier-1 suite: {secs:.1f} s (exit {rc}; {summary}); "
          "informational, not gated")
    metrics = {"tier1.wall_s": {"value": secs, "unit": "s"}}
    for res in results:
        for k, m in result_line(res, trace)["metrics"].items():
            metrics[f"{res['workload']}.{k}"] = m
    print(json.dumps({
        "correct": all(r["correct"] for r in results) and rc == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
