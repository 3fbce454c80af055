"""Response assembly from binned estimates, cost reports, pipeline."""

import json
import math

import numpy as np
import pytest

from conftest import oracle_tables
from respsim import (
    CostInputs,
    InputError,
    ResourceError,
    ResponseTable,
    assemble_alpha1,
    assemble_alpha3,
    cost_report,
    qpe_baseline_report,
    r_pathway_fd,
    run_pipeline,
)
from respsim import assemble
from respsim.spectra import nested_window_amplitude
from respsim.assemble import _aligned_span, _ancestor_bin, _dedupe_windows
from respsim.estimate import SearchTrace


# ---------------------------------------------------------------------------
# response tables
# ---------------------------------------------------------------------------

def test_table_add_select():
    t = ResponseTable(order=1, margin=0.05)
    t.add({"axes": (0, 0), "window": (1.0, 2.0), "value": 0.3})
    t.add({"axes": (0, 0), "window": ((2.0, 3.0),), "value": np.float64(-0.1)})
    t.add({"axes": (0, 1), "window": (1.5, 2.5), "value": 0.7})
    got = t.select((0, 0))
    # a single-window nest is stored as the flat window; values are floats
    assert [(e["window"], e["value"]) for e in got] == [((1.0, 2.0), 0.3),
                                                       ((2.0, 3.0), -0.1)]
    assert all(type(e["value"]) is float for e in t.entries)
    assert [e["value"] for e in t.select((0, 1))] == [0.7]
    assert t.select((1, 0)) == []
    assert not hasattr(t, "lookup")


def test_table_rejects_overlap_beyond_margin():
    t = ResponseTable(order=1, margin=0.05)
    t.add({"axes": (0, 0), "window": (1.0, 2.0), "value": 0.3})
    t.add({"axes": (0, 0), "window": (1.95, 3.0), "value": 0.1})  # == margin
    with pytest.raises(InputError):
        t.add({"axes": (0, 0), "window": (1.90, 2.9), "value": 0.1})


def test_table_boxes_clash_only_when_all_axes_overlap():
    t = ResponseTable(order=2)
    t.add({"axes": (0, 0, 0), "window": ((0.0, 1.0), (0.0, 1.0)),
           "value": 0.1})
    t.add({"axes": (0, 0, 0), "window": ((0.0, 1.0), (2.0, 3.0)),
           "value": 0.2})
    with pytest.raises(InputError):
        t.add({"axes": (0, 0, 0), "window": ((0.5, 1.5), (0.5, 1.5)),
               "value": 0.3})


def test_table_depth_and_axes_validation():
    t = ResponseTable(order=1)
    with pytest.raises(InputError):
        t.add({"axes": (0, 0, 0), "window": ((1.0, 2.0), (1.0, 2.0)),
               "value": 0.1})
    with pytest.raises(InputError):
        t.add({"axes": (0, 0, 0), "window": (1.0, 2.0), "value": 0.1})
    with pytest.raises(InputError):
        ResponseTable(order=0)
    for margin in (-0.1, math.nan, math.inf):
        with pytest.raises(InputError, match="margin"):
            ResponseTable(order=1, margin=margin)


def test_table_serialization():
    t = ResponseTable(order=2)
    t.add({"axes": (0, 1, 0), "window": ((0.0, 1.0), (2.0, 3.0)),
           "value": -0.25, "note": "probe"})
    d = t.as_dict()
    assert d["order"] == 2
    e = d["entries"][0]
    assert e["axes"] == [0, 1, 0]
    assert e["window"] == [[0.0, 1.0], [2.0, 3.0]]
    assert e["value"] == -0.25
    assert "re" not in e and "im" not in e
    assert e["meta"] == {"note": "probe"}
    assert json.loads(json.dumps(d)) == d


# ---------------------------------------------------------------------------
# first-order assembly
# ---------------------------------------------------------------------------

def test_assemble_alpha1_single_entry():
    t = ResponseTable(order=1)
    t.add({"axes": (0, 0), "window": (4.4, 4.5), "value": 0.2})
    om = np.array([0.0, 1.0, 3.0])
    res = assemble_alpha1(t, om, 0.1)
    wt = 4.45
    expect = 0.2 / (wt - om - 0.1j) + 0.2 / (wt + om + 0.1j)
    assert np.allclose(res.values, expect, atol=1e-14)
    assert res.order == 1


def test_assemble_alpha1_mirrors_each_entry(random_sd):
    # a cross-axis entry serves its direct and its mirrored term, bit for
    # bit as the two divisions; the swapped chain is the same real number
    t = ResponseTable(order=1)
    t.add({"axes": (0, 1), "window": (2.0, 2.5), "value": -0.3})
    om = np.array([0.0, 1.0, 3.0])
    res = assemble_alpha1(t, om, 0.05)
    wt = 2.25
    expect = -0.3 / (wt - om - 0.05j) + -0.3 / (wt + om + 0.05j)
    assert np.array_equal(res.values, expect)
    assert res.axes == (0, 1)
    # at omega = 0 a real entry's two terms are conjugates
    assert res.values[0].imag == 0.0
    lines = random_sd.eigenvalues[1:]
    for lo in np.linspace(0.0, float(lines[-1]), 7):
        for ax_out, ax_in in ((0, 1), (1, 2), (0, 2)):
            win = [(lo, lo + 0.7)]
            assert nested_window_amplitude(random_sd, (ax_out, ax_in), win) \
                == pytest.approx(nested_window_amplitude(
                    random_sd, (ax_in, ax_out), win), abs=1e-12)


def test_assemble_alpha1_validation():
    t = ResponseTable(order=1)
    t.add({"axes": (0, 0), "window": (1.0, 2.0), "value": 0.1})
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(InputError):
            assemble_alpha1(t, [1.0], gamma)
    with pytest.raises(InputError):
        assemble_alpha1(ResponseTable(order=1), [1.0], 0.1)
    # each entry is its own mirror, so a second chain would be dropped
    t.add({"axes": (1, 0), "window": (1.0, 2.0), "value": 0.1})
    with pytest.raises(InputError, match="one dipole chain"):
        assemble_alpha1(t, [1.0], 0.1)
    t2 = ResponseTable(order=2)
    t2.add({"axes": (0, 0, 0), "window": ((1.0, 2.0), (1.0, 2.0)),
            "value": 0.1})
    with pytest.raises(InputError):
        assemble_alpha1(t2, [1.0], 0.1)


# ---------------------------------------------------------------------------
# third-order assembly
# ---------------------------------------------------------------------------

def test_assemble_alpha3_general_axes(random_sd):
    # exact amplitudes on a fine tiling must reproduce the pathway value;
    # mixed axes (0,1,2,0) exercise every chain-ordering convention at once
    axes = (0, 1, 2, 0)
    tabs, gd = oracle_tables(random_sd, axes, width=0.004)
    triples = [(0.9, 0.2, 0.3), (1.4, 0.5, 0.1), (0.4, 0.4, 0.4),
               (2.0, 0.3, 0.2)]
    gamma = 0.2
    got = assemble_alpha3(tabs, triples, gamma, ground_dipoles=gd).values
    ref = np.array([
        r_pathway_fd(random_sd, 1, axes, w1 + w2 + w3, w1 + w2, w1, gamma)
        for (w1, w2, w3) in triples])
    assert np.max(np.abs(got - ref)) <= 0.01 * np.max(np.abs(ref))


def test_assemble_alpha3_single_triple_squeezes(dimer_sd):
    tabs, gd = oracle_tables(dimer_sd, (0, 0, 0, 0), width=0.05)
    res = assemble_alpha3(tabs, (1.0, 0.2, 0.3), 0.1, ground_dipoles=gd)
    assert np.ndim(res.values) == 0
    ref = r_pathway_fd(dimer_sd, 1, (0, 0, 0, 0), 1.5, 1.2, 1.0, 0.1)
    assert res.values == pytest.approx(ref, rel=2e-2)


def test_assemble_alpha3_validation(dimer_sd):
    tabs, gd = oracle_tables(dimer_sd, (0, 0, 0, 0), width=0.05)
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(InputError):
            assemble_alpha3(tabs, [(1.0, 0.2, 0.3)], gamma, ground_dipoles=gd)
    with pytest.raises(InputError):
        assemble_alpha3({3: tabs[3], 2: tabs[2], 1: ResponseTable(order=1)},
                        [(1.0, 0.2, 0.3)], 0.1, ground_dipoles=gd)
    with pytest.raises(InputError):
        assemble_alpha3(tabs, [(1.0, 0.2)], 0.1, ground_dipoles=gd)


# ---------------------------------------------------------------------------
# cost reports
# ---------------------------------------------------------------------------

def test_cost_report_values():
    rep = cost_report(CostInputs(alpha=4.0, beta=2.0, gamma=0.1, eps=0.1))
    assert rep["bin_sorting"] == pytest.approx(640.0)
    assert rep["peak_height"] == pytest.approx(6400.0)
    assert rep["search_order_n"] == pytest.approx(640.0)
    assert rep["estimate_order_n"] == pytest.approx(6400.0)
    assert rep["system_size_order_n"] is None
    assert rep["ground_state_prep"] is None


def test_cost_report_order_ratios():
    base = dict(alpha=4.0, beta=2.0, gamma=0.1, eps=0.1)
    r1 = cost_report(CostInputs(**base, n_order=1))
    r2 = cost_report(CostInputs(**base, n_order=2))
    r3 = cost_report(CostInputs(**base, n_order=3))
    step = 4.0 ** 2 * 2.0 / 0.1
    assert r2["search_order_n"] / r1["search_order_n"] == pytest.approx(step)
    assert r3["search_order_n"] / r2["search_order_n"] == pytest.approx(step)
    assert r1["estimate_order_n"] == pytest.approx(
        r1["search_order_n"] / 0.1)


def test_cost_report_system_size_and_prep():
    c1 = CostInputs(alpha=1.0, beta=1.0, gamma=0.1, eps=0.1,
                    n_order=1, N=4.0, eta=2.0)
    c2 = CostInputs(alpha=1.0, beta=1.0, gamma=0.1, eps=0.1,
                    n_order=2, N=4.0, eta=2.0)
    s1 = cost_report(c1)["system_size_order_n"]
    s2 = cost_report(c2)["system_size_order_n"]
    assert s1 == pytest.approx(4.0 ** 6 * 2.0 ** 2 / (0.1 * 0.1))
    assert s2 / s1 == pytest.approx(4.0 ** 5 * 2.0 / 0.1)
    prep = cost_report(CostInputs(alpha=2.0, beta=1.0, gamma=0.1, eps=0.01,
                                  p0=0.25, gap=0.5))["ground_state_prep"]
    assert prep == pytest.approx(2.0 * np.log(100.0) / (0.5 * 0.5))
    with pytest.raises(InputError):
        cost_report(CostInputs(alpha=1.0, beta=1.0, gamma=0.1, eps=0.1,
                               p0=2.0, gap=0.5))


def test_cost_monotonicity():
    base = CostInputs(alpha=4.0, beta=2.0, gamma=0.1, eps=0.01)
    tighter_gamma = CostInputs(alpha=4.0, beta=2.0, gamma=0.05, eps=0.01)
    tighter_eps = CostInputs(alpha=4.0, beta=2.0, gamma=0.1, eps=0.005)
    assert cost_report(tighter_gamma)["search_order_n"] \
        > cost_report(base)["search_order_n"]
    assert cost_report(tighter_eps)["estimate_order_n"] \
        > cost_report(base)["estimate_order_n"]


def test_cost_inputs_validation():
    base = dict(alpha=1.0, beta=1.0, gamma=0.1, eps=0.1)
    for name in ("alpha", "beta", "gamma", "eps", "N", "eta"):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError, match=name):
                CostInputs(**{**base, name: bad})
    assert CostInputs(**base, N=4.0, eta=2.0).N == 4.0
    with pytest.raises(InputError):
        CostInputs(alpha=0.0, beta=1.0, gamma=0.1, eps=0.1)
    with pytest.raises(InputError):
        CostInputs(alpha=1.0, beta=1.0, gamma=0.1, eps=1.0)
    with pytest.raises(InputError):
        CostInputs(alpha=1.0, beta=1.0, gamma=0.1, eps=0.1, n_order=0)


def test_qpe_baseline():
    rep = qpe_baseline_report(CostInputs(alpha=1.0, beta=1.0, gamma=0.1,
                                         eps=0.1))
    assert rep["total_queries"] == pytest.approx(1000.0)
    assert rep["advantage_of_filtering"] == pytest.approx(10.0)
    assert 2.0 ** rep["k_star"] > 1.0 / 0.1 >= 2.0 ** (rep["k_star"] - 1)
    halved = qpe_baseline_report(CostInputs(alpha=1.0, beta=1.0, gamma=0.05,
                                            eps=0.1))
    assert halved["advantage_of_filtering"] == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# pipeline helpers
# ---------------------------------------------------------------------------

def test_dedupe_windows():
    merged = _dedupe_windows([(1.0, 1.2), (1.1, 1.3), (3.0, 3.2)], 0.5)
    assert merged == [(1.0, 1.3), (3.0, 3.2)]
    assert _dedupe_windows([], 0.5) == []


def test_aligned_span_is_dyadic():
    lo, hi = _aligned_span(7.236, 0.0125)
    assert lo == 0.0
    assert hi >= 7.236
    assert hi / 0.0125 == 2 ** round(np.log2(hi / 0.0125))


def test_ancestor_bin():
    lo, hi = _ancestor_bin(4.4721, 0.0125)
    assert lo <= 4.4721 < hi
    assert hi - lo == pytest.approx(0.0125)
    assert lo / 0.0125 == pytest.approx(round(lo / 0.0125))


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

def test_pipeline_oracle_mode(dimer):
    res = run_pipeline(dimer, gamma=0.1, mode="oracle",
                       grid=np.linspace(0.0, 5.4, 28))
    assert res["mode"] == "oracle"
    assert "traces" not in res and "tables" not in res
    rows = res["csv"].strip().split("\n")
    assert rows[0] == "omega,re,im,axis_in,axis_out,order,pathway"
    assert len(rows) == 29
    cells = rows[1].split(",")
    assert cells[3] == "x" and cells[4] == "x"
    assert cells[5] == "1" and cells[6] == ""
    vals = np.array([complex(float(r.split(",")[1]), float(r.split(",")[2]))
                     for r in rows[1:]])
    assert np.allclose(vals, res["oracle"].values, atol=1e-15)
    assert res["cost"]["bin_sorting"] == pytest.approx(6.0 ** 2 / 0.1)


def test_pipeline_simulate_order1(dimer):
    grid = np.linspace(0.0, 5.4, 31)
    res = run_pipeline(dimer, gamma=0.1, order=1, grid=grid, seed=0,
                       method="exact")
    assert res["result"] is not None
    windows = [e["window"] for e in res["tables"][1].entries]
    assert len(windows) >= 1
    assert any(lo <= 2 * np.sqrt(5.0) < hi for lo, hi in windows)
    dev = np.max(np.abs(res["result"].values - res["oracle"].values))
    assert dev <= 0.25 * np.max(np.abs(res["oracle"].values))
    assert res["manifest"]["queries_total"] > 0
    assert res["traces"]["d1_xx"].found


def test_pipeline_simulate_order3(dimer):
    grid = np.array([1.0, 2.4, 3.9])
    res = run_pipeline(dimer, gamma=0.2, order=3, axes=(0, 0, 0, 0),
                       grid=grid, seed=0, method="exact")
    assert res["result"] is not None
    assert set(res["tables"]) == {1, 2, 3}
    assert all(res["tables"][d].entries for d in (1, 2, 3))
    dev = np.max(np.abs(res["result"].values - res["oracle"].values))
    assert dev <= 0.2 * np.max(np.abs(res["oracle"].values))
    rows = res["csv"].strip().split("\n")
    cells = rows[1].split(",")
    assert cells[3] == "xxx" and cells[4] == "x"
    assert cells[5] == "3" and cells[6] == "R1"


def test_pipeline_order3_finds_weight_on_seeds_0_to_49(dimer):
    """README scenario 3 over the contiguous seeds 0..49: every seed finds
    weight and stays within criterion 08 (max|err| <= 15% of max|ref|) of
    the oracle computed in the same run."""
    misses = {}
    for seed in range(50):
        res = run_pipeline(dimer, gamma=0.2, order=3, axes=(0, 0, 0, 0),
                           grid=np.linspace(1.0, 3.9, 3), seed=seed,
                           method="exact")
        if res["result"] is None:
            misses[seed] = "no weight"
            continue
        ref = res["oracle"].values
        err = np.max(np.abs(res["result"].values - ref)) / np.max(np.abs(ref))
        if err > 0.15:
            misses[seed] = err
    assert misses == {}


def test_pipeline_writes_outputs(dimer, tmp_path):
    out = tmp_path / "run"
    run_pipeline(dimer, gamma=0.2, order=1, grid=np.linspace(0, 5.4, 12),
                 seed=1, method="exact", out_dir=str(out))
    names = {p.name for p in out.iterdir()}
    assert names == {"response.csv", "manifest.json", "cost_report.json",
                     "response_table.json", "search_trace.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["order"] == 1
    assert manifest["gamma"] == 0.2
    trace = json.loads((out / "search_trace.json").read_text())
    assert trace["found"] is True


def test_pipeline_order3_rejects_overlapping_boxes(dimer, monkeypatch):
    # two distinct depth-2 boxes on one chain that overlap beyond the
    # filter margin on both axes: the table must refuse the second one
    # rather than drop its weight
    def fake_search(sd, axes, config, seed=0):
        depth_n = len(axes) - 1
        if depth_n == 2:
            peaks = [[[4.4, 4.6], [4.4, 4.6]], [[4.45, 4.65], [4.45, 4.65]]]
        else:
            peaks = [[[4.4, 4.6]] * depth_n]
        return SearchTrace(config=config.as_dict(), seed=seed, dims=depth_n,
                           peaks=peaks)

    monkeypatch.setattr(assemble, "binary_search_nd", fake_search)
    with pytest.raises(InputError, match="overlaps"):
        run_pipeline(dimer, gamma=0.2, order=3, axes=(0, 0, 0, 0),
                     grid=np.linspace(1.0, 3.9, 3), method="exact")


def test_pipeline_validation(dimer):
    with pytest.raises(InputError):
        run_pipeline(dimer, gamma=0.0)
    with pytest.raises(InputError):
        run_pipeline(dimer, gamma=0.1, order=2)
    with pytest.raises(InputError):
        run_pipeline(dimer, gamma=0.1, mode="dream")
    with pytest.raises(InputError):
        run_pipeline(dimer, gamma=0.1, order=3, axes=(0, 0))


@pytest.mark.parametrize("mode", ["oracle", "simulate"])
def test_pipeline_rejects_unknown_method_before_any_work(dimer, monkeypatch,
                                                        mode):
    def no_work(model):
        raise AssertionError("diagonalize ran before method was checked")

    monkeypatch.setattr(assemble, "diagonalize", no_work)
    with pytest.raises(InputError, match="unknown method 'qpe'"):
        run_pipeline(dimer, gamma=0.1, method="qpe", mode=mode)


def test_pipeline_refuses_an_oversized_grid_before_any_work(dimer,
                                                            monkeypatch):
    def no_work(model):
        raise AssertionError("diagonalize ran before the grid was checked")

    monkeypatch.setattr(assemble, "diagonalize", no_work)
    grid = np.zeros(assemble.GRID_POINT_CAP + 1)
    with pytest.raises(ResourceError, match="grid points"):
        run_pipeline(dimer, gamma=0.1, grid=grid, mode="oracle")


@pytest.mark.parametrize("kwargs", [
    {"gamma": math.nan}, {"gamma": math.inf},
    {"grid": [0.0, 1.0, math.inf]}, {"grid": [math.nan, 1.0]},
    {"window_width": math.nan}, {"window_width": math.inf},
    {"window_width": 0.0}, {"window_width": -0.01},
], ids=repr)
def test_pipeline_rejects_non_finite_inputs(dimer, kwargs):
    with pytest.raises(InputError):
        run_pipeline(dimer, **{"gamma": 0.2, "method": "exact", **kwargs})
