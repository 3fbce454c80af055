"""Acceptance gate: one test per release criterion.

Each criterion is a single test function so `pytest -v` prints one
pass/fail line per criterion.  Tolerances and budgets are asserted
exactly as stated; the relative-deviation checks for the end-to-end
pipelines use the pointwise maximum over the frequency grid.
"""

import itertools
import math
import time

import numpy as np
import pytest

from respsim import (
    binary_search_nd,
    build_indicator,
    estimate_box,
    nested_window_amplitude,
    run_pipeline,
)
from respsim.assemble import CostInputs, assemble_alpha3, cost_report, \
    qpe_baseline_report
from respsim.cli import main
from respsim.estimate import _relation_matrix, _sample_counts
from respsim.operators import FermionOperator, jordan_wigner
from respsim.spectra import r_pathway_fd

from conftest import oracle_tables
from oracle_reference import alpha3_terms, jump_error_integral

BRIGHT = 2.0 * math.sqrt(5.0)


def test_criterion_01_jordan_wigner_roundtrip():
    """20 random fermionic operators on <= 6 modes map to Pauli form with
    identical dense matrices (elementwise 1e-12), in under 10 s."""
    rng = np.random.default_rng(101)
    t0 = time.monotonic()
    for _ in range(20):
        n = int(rng.integers(1, 7))
        terms = {}
        for _ in range(5):
            length = int(rng.integers(0, 5))
            actions = tuple(
                (int(rng.integers(0, n)), int(rng.integers(0, 2)))
                for _ in range(length))
            terms[actions] = complex(rng.normal(), rng.normal())
        op = FermionOperator(n, terms)
        diff = np.max(np.abs(jordan_wigner(op).dense()
                             - op.dense()))
        assert diff <= 1e-12
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_indicator_three_region_contract():
    """For (delta, eps) in {0.1, 0.05} x {1e-2, 1e-3} the indicator filter
    is >= 1-eps inside, <= eps outside, and <= 1+eps everywhere on a
    10^4-point grid, for a centred and an off-centre window.  The filter
    is the centred indicator; a window with centre c and half-width h is
    placed on it through y = (x - c)/R, R = 1 + |c|, with half-width h/R
    and margin delta/R, so the grid stays inside the filter's domain."""
    grid = np.linspace(-1.0, 1.0, 10000)
    for (delta, eps), (a, b) in itertools.product(
            itertools.product((0.1, 0.05), (1e-2, 1e-3)),
            ((-0.3, 0.3), (0.15, 0.75))):
        c, h = (a + b) / 2.0, (b - a) / 2.0
        R = 1.0 + abs(c)
        f = build_indicator(h / R, delta / R, eps)
        vals = f.eval((grid - c) / R)
        inner = (grid >= a + delta) & (grid <= b - delta)
        outer = (grid <= a - delta) | (grid >= b + delta)
        assert np.min(vals[inner]) >= 1.0 - eps
        assert np.max(vals[outer]) <= eps
        assert np.max(vals) <= 1.0 + eps
        assert np.min(vals) >= 0.0


def test_criterion_03_jump_error_constant_and_linearity():
    """The unit ramp-error integral is 0.51394 +- 1e-4 and the accumulated
    error grows linearly: the least-squares slope of g(delta) over
    delta in [0.01, 0.3] matches that constant within 5%."""
    c1 = jump_error_integral(1.0)
    assert abs(c1 - 0.51394) <= 1e-4
    deltas = np.linspace(0.01, 0.3, 25)
    g = np.array([jump_error_integral(d) for d in deltas])
    slope = np.polyfit(deltas, g, 1)[0]
    assert abs(slope - c1) <= 0.05 * c1


def test_criterion_04_windowed_amplitude_oracle_equivalence(dimer,
                                                             dimer_sd):
    """Exact-backend depth-1 box estimates agree with the sum-over-states
    window amplitude within eps_filter plus the spectral mass in the
    delta-margins, for 10 windows, in under 30 s."""
    windows = [(4.4, 4.55), (4.3, 4.46), (4.46, 4.6), (1.0, 1.4),
               (2.0, 2.5), (3.0, 3.4), (0.5, 0.9), (3.1, 3.3),
               (4.0, 4.9), (1.15, 1.3)]
    t0 = time.monotonic()
    for k, (a, b) in enumerate(windows):
        est = estimate_box(dimer_sd, (0, 0), [(a, b)], 2e-3, method="exact",
                           seed=k)
        d = est.delta
        margin_mass = 0.0
        for j in range(1, dimer_sd.n_states):
            lam = dimer_sd.eigenvalues[j]
            if (a - d <= lam <= a + d) or (b - d <= lam <= b + d):
                margin_mass += abs(dimer_sd.transition_dipoles[0][0, j]
                                   * dimer_sd.transition_dipoles[0][j, 0])
        ref = nested_window_amplitude(dimer_sd, (0, 0), [(a, b)])
        assert abs(est.value - ref) <= est.eps_filter + margin_mass + 1e-12
    assert time.monotonic() - t0 < 30.0


def test_criterion_05_search_soundness_and_heisenberg_scaling(dimer,
                                                               dimer_sd):
    """The 1-D search localizes the bright line to width <= gamma with
    success rate >= 1 - eps_conf over 50 seeds for four gamma values, and
    the fitted log-log slope of charged queries vs 1/gamma is 1 +- 0.15."""
    gammas = [0.2, 0.1, 0.05, 0.025]
    mean_queries = []
    for g in gammas:
        hits = 0
        queries = []
        for seed in range(50):
            tr = binary_search_nd(dimer_sd, (0, 0), g, 0.02, seed=seed)
            if any(lo <= BRIGHT < hi and hi - lo <= g * (1 + 1e-9)
                   for ((lo, hi),) in tr.peaks):
                hits += 1
            queries.append(tr.queries_total)
        assert tr.config["N_s"] == 6213
        assert hits >= math.ceil((1.0 - tr.config["eps_conf"]) * 50)
        mean_queries.append(np.mean(queries))
    slope = np.polyfit(np.log(1.0 / np.asarray(gammas)),
                       np.log(mean_queries), 1)[0]
    assert 0.85 <= slope <= 1.15


def test_criterion_06_inequality_test_calibration():
    """At the sample-size bound N_s = ceil(log(4/eps_conf)/tau^2), the
    search's relation matrix orders two bins whose expected count gap is
    3*tau correctly in at least a 1 - eps_conf fraction of 300 seeded
    trials."""
    tau, eps_conf = 0.1, 1.0 / 3.0
    N_s = math.ceil(math.log(4.0 / eps_conf) / tau ** 2)
    assert N_s == 249
    # two re-quadrature bins: expected (counts_0 - counts_1)/N_s is
    # (0.7 - (-0.5)) / (2 * 2 bins) = 0.3 = 3 * tau
    x = np.array([0.7, -0.5])
    correct = 0
    for trial in range(300):
        rng = np.random.default_rng(trial)
        # scored as a search level scores its bins: elevation over the flat
        # background 1/(2B), compared pairwise
        scores = _sample_counts(rng, x, N_s) / N_s - 1.0 / (2 * len(x))
        R = _relation_matrix(np.subtract.outer(scores, scores), tau)
        if R[0, 1] == 1:
            correct += 1
    assert correct >= math.ceil((1.0 - eps_conf) * 300)


def test_criterion_07_end_to_end_alpha1(dimer_sd):
    """Simulated first-order pipeline vs the exact response at
    gamma = 0.05: pointwise relative deviation <= 10% on the default
    grid, deviation non-increasing under two successive window
    halvings, total runtime under 5 min."""
    t0 = time.monotonic()
    devs = []
    for halving in range(3):
        width = 0.025 / (2 ** halving)        # gamma/2 -> gamma/4 -> gamma/8
        res = run_pipeline(dimer_sd, gamma=0.05, seed=0, method="ae",
                           window_width=width)
        sim = res["result"].values
        orc = res["oracle"].values
        devs.append(float(np.max(np.abs(sim - orc) / np.abs(orc))))
    assert devs[2] <= devs[1] <= devs[0]
    assert devs[2] <= 0.10                     # the default-width setting
    assert time.monotonic() - t0 < 300.0


def test_criterion_08_third_order_pathway(dimer_sd):
    """Binned first-pathway response assembled from exact window tables
    matches the frequency-domain sum over states within 15% at
    gamma = 0.05, and the term enumerator yields exactly 48 terms."""
    tables, gd = oracle_tables(dimer_sd, (0, 0, 0, 0), 0.05)
    triples = [(1.1, 0.9, 1.0), (2.0, 1.0, 1.4), (4.4, -4.3, 4.35),
               (3.0, 1.4, 0.05), (0.3, 0.3, 0.3)]
    got = assemble_alpha3(tables, triples, 0.05, ground_dipoles=gd).values
    ref = r_pathway_fd(dimer_sd, (0, 0, 0, 0), triples, 0.05).values
    assert np.max(np.abs(got - ref)) <= 0.15 * np.max(np.abs(ref))
    assert len(list(alpha3_terms((0, 0, 0, 0), (1.1, 0.9, 1.0)))) == 48


def test_criterion_09_cost_ledger_laws():
    """Query-count formulas follow N^(5n+1) eta^(n+1) gamma^-n eps^-1
    (successive-order ratio N^5 eta / gamma, estimate = search / eps) and
    the filtered-vs-QPE advantage doubles when gamma halves."""
    N, eta, g, e = 4.0, 2.0, 0.1, 0.1
    reps = {n: cost_report(CostInputs(alpha=4.0, beta=2.0, gamma=g, eps=e,
                                      n_order=n, N=N, eta=eta))
            for n in (1, 2, 3)}
    assert reps[1]["system_size_order_n"] == pytest.approx(
        N ** 6 * eta ** 2 / (g * e))
    for n in (1, 2):
        assert (reps[n + 1]["system_size_order_n"]
                / reps[n]["system_size_order_n"]) == pytest.approx(
                    N ** 5 * eta / g)
        assert (reps[n + 1]["search_order_n"]
                / reps[n]["search_order_n"]) == pytest.approx(
                    4.0 ** 2 * 2.0 / g)
    for n in (1, 2, 3):
        assert reps[n]["estimate_order_n"] == pytest.approx(
            reps[n]["search_order_n"] / e)
    q1 = qpe_baseline_report(CostInputs(alpha=1.0, beta=1.0, gamma=0.1,
                                        eps=0.1))
    q2 = qpe_baseline_report(CostInputs(alpha=1.0, beta=1.0, gamma=0.05,
                                        eps=0.1))
    assert q1["total_queries"] == pytest.approx(1000.0)
    assert q2["advantage_of_filtering"] == pytest.approx(
        2.0 * q1["advantage_of_filtering"])


def test_criterion_10_determinism(tmp_path):
    """Two simulate runs with identical arguments and seed produce
    byte-identical CSV and JSON outputs."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        argv = ["--toy", "hubbard", "--simulate", "--gamma", "0.1",
                "--grid", "0:5.4:41", "--seed", "7", "--method", "ae",
                "--out", str(out)]
        assert main(argv) == 0
        outs.append(out)
    names = ["response.csv", "manifest.json", "cost_report.json",
             "response_table.json", "search_trace.json"]
    for fname in names:
        pa, pb = outs[0] / fname, outs[1] / fname
        assert pa.is_file() and pb.is_file()
        assert pa.read_bytes() == pb.read_bytes()
