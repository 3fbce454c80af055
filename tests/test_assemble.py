"""Response assembly from binned estimates, cost reports, pipeline."""

import hashlib
import itertools
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
    alpha1,
    assemble_alpha1,
    assemble_alpha3,
    binary_search_nd,
    choose_k,
    cost_report,
    diagonalize,
    estimate_box,
    make_random_model,
    qpe_baseline_report,
    r_pathway_fd,
    run_pipeline,
)
from respsim import assemble
from respsim.spectra import nested_window_amplitude
from respsim.assemble import _ancestor_bin, _dedupe_windows
from respsim.estimate import SearchTrace, WindowEstimate


# ---------------------------------------------------------------------------
# response tables
# ---------------------------------------------------------------------------

def test_table_add_select():
    t = ResponseTable(order=1, margin=0.05)
    t.add({"axes": (0, 0), "window": ((1.0, 2.0),), "value": 0.3})
    t.add({"axes": (0, 0), "window": [[2.0, 3.0]], "value": np.float64(-0.1)})
    t.add({"axes": (0, 1), "window": ((1.5, 2.5),), "value": 0.7})
    # a depth-1 window is one pair, as at every depth: the flat pair is
    # refused
    with pytest.raises(InputError, match="pairs"):
        t.add({"axes": (0, 0), "window": (4.0, 5.0), "value": 0.3})
    got = t.select((0, 0))
    # windows are stored as tuples of pairs; values are floats
    assert [(e["window"], e["value"]) for e in got] == [(((1.0, 2.0),), 0.3),
                                                       (((2.0, 3.0),), -0.1)]
    assert all(type(e["value"]) is float for e in t.entries)
    assert [e["value"] for e in t.select((0, 1))] == [0.7]
    assert t.select((1, 0)) == []
    assert not hasattr(t, "lookup")


def test_table_rejects_overlap_beyond_margin():
    t = ResponseTable(order=1, margin=0.05)
    t.add({"axes": (0, 0), "window": ((1.0, 2.0),), "value": 0.3})
    t.add({"axes": (0, 0), "window": ((1.95, 3.0),), "value": 0.1})  # margin
    with pytest.raises(InputError):
        t.add({"axes": (0, 0), "window": ((1.90, 2.9),), "value": 0.1})


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
        t.add({"axes": (0, 0, 0), "window": ((1.0, 2.0),), "value": 0.1})
    # a window is a sequence of finite (lo, hi) pairs with lo < hi: a flat
    # pair, a bare float and a 3-element pair are not, nor are a reversed,
    # an empty or a non-finite pair
    for window in ((1.0, 2.0), 1.5, ((1.0, 2.0, 3.0),), ((2.0, 1.0),),
                   ((1.0, 1.0),), ((1.0, math.inf),), ((math.nan, 2.0),)):
        with pytest.raises(InputError, match="window"):
            t.add({"axes": (0, 0), "window": window, "value": 0.1})
    for value in (math.nan, math.inf, -math.inf, "abc", "0.5", 0.5j, True,
                  None):
        with pytest.raises(InputError, match="value"):
            t.add({"axes": (0, 0), "window": ((1.0, 2.0),), "value": value})
    # axes are integers in {0, 1, 2} that are not bools: a fractional axis
    # is not truncated, and an out-of-range one is not stored; select reads
    # its query axes the same way, and a query needs order + 1 of them
    for axes in ((0.7, 1.2), (0.0, 1.0), (True, 0), (0, 7), (-1, 0), 1,
                 None, ("0", "1")):
        with pytest.raises(InputError, match="axes"):
            t.add({"axes": axes, "window": ((1.0, 2.0),), "value": 0.1})
        with pytest.raises(InputError, match="axes"):
            t.select(axes)
    with pytest.raises(InputError, match="axes"):
        t.select((0, 0, 0))
    for key in ("axes", "window", "value"):
        entry = {"axes": (0, 0), "window": ((1.0, 2.0),), "value": 0.1}
        del entry[key]
        with pytest.raises(InputError, match=key):
            t.add(entry)
    assert t.entries == []
    t.add({"axes": [np.int64(2), 1], "window": ((1.0, 2.0),),
           "value": np.float32(0.25)})
    assert t.entries[0]["axes"] == (2, 1)
    assert t.select([np.int64(2), 1]) == t.entries
    assert type(t.entries[0]["value"]) is float
    for order in (0, -1, 1.5, 1.0, True, "1"):
        with pytest.raises(InputError, match="order"):
            ResponseTable(order=order)
    assert ResponseTable(order=np.int64(3)).as_dict()["order"] == 3
    for margin in (-0.1, math.nan, math.inf, True):
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
    # stored entries fed to the constructor come back as they were
    assert ResponseTable(order=2, entries=t.entries).as_dict() == d
    # a depth-1 window is written as one pair too, and an estimate's meta
    # holds its bookkeeping without repeating axes, window or value
    t1 = ResponseTable(order=1)
    t1.add(WindowEstimate(window=((1.0, 2.0),), axes=(0, 0), value=0.5,
                          method="exact", shots=1, queries=2, eps_filter=0.1,
                          eps_stat=0.1, degree=3, rounds=1, delta=0.25,
                          zeta=1.0))
    e = t1.as_dict()["entries"][0]
    assert e["window"] == [[1.0, 2.0]]
    assert e["value"] == 0.5
    assert set(e["meta"]) == {"method", "shots", "queries", "eps_filter",
                              "eps_stat", "degree", "rounds", "delta", "zeta"}


# ---------------------------------------------------------------------------
# first-order assembly
# ---------------------------------------------------------------------------

def test_assemble_alpha1_single_entry():
    t = ResponseTable(order=1)
    t.add({"axes": (0, 0), "window": ((4.4, 4.5),), "value": 0.2})
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
    t.add({"axes": (0, 1), "window": ((2.0, 2.5),), "value": -0.3})
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
    t.add({"axes": (0, 0), "window": ((1.0, 2.0),), "value": 0.1})
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(InputError):
            assemble_alpha1(t, [1.0], gamma)
    with pytest.raises(InputError):
        assemble_alpha1(ResponseTable(order=1), [1.0], 0.1)
    # each entry is its own mirror, so a second chain would be dropped
    t.add({"axes": (1, 0), "window": ((1.0, 2.0),), "value": 0.1})
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
    # exact amplitudes on a fine tiling must reproduce the pathway value at
    # every one of the 81 axis patterns, so each segment orientation of
    # _ALPHA3_TERMS is checked against its own chain
    triples = [(0.9, 0.2, 0.3), (1.4, 0.5, 0.1), (0.4, 0.4, 0.4),
               (2.0, 0.3, 0.2)]
    gamma = 0.2
    worst = {}
    for axes in itertools.product(range(3), repeat=4):
        tabs, gd = oracle_tables(random_sd, axes, width=0.004)
        got = assemble_alpha3(tabs, triples, gamma, ground_dipoles=gd).values
        ref = np.array([
            r_pathway_fd(random_sd, 1, axes, w1 + w2 + w3, w1 + w2, w1, gamma)
            for (w1, w2, w3) in triples])
        worst[axes] = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert len(worst) == 81
    assert {a: e for a, e in worst.items() if not e <= 0.01} == {}


def test_assemble_alpha3_single_triple_squeezes(dimer_sd):
    tabs, gd = oracle_tables(dimer_sd, (0, 0, 0, 0), width=0.05)
    res = assemble_alpha3(tabs, (1.0, 0.2, 0.3), 0.1, ground_dipoles=gd)
    assert np.ndim(res.values) == 0
    ref = r_pathway_fd(dimer_sd, 1, (0, 0, 0, 0), 1.5, 1.2, 1.0, 0.1)
    assert res.values == pytest.approx(ref, rel=2e-2)


# sha256 of assemble_alpha3's value bytes on exact tables of
# make_random_model(2, 2, 0), whose ground dipoles are all nonzero, so every
# ground-pinned term runs: they pin the denominators' order of operations
# bit for bit.  The spectrum comes from LAPACK (numpy 2.4 with OpenBLAS
# 0.3.31 on x86-64), as in test_spectra.py's frozen hashes.
FROZEN_ALPHA3 = {
    ("yxxy", 0.1): "409d7a9eb0f69d472ff80768ccf6b2cf"
                   "e7110c5048738871e58814f4ea9e22d2",
    ("yxxy", 0.4): "49acfcef61a67737fdf668e630e98ebf"
                   "ec724cf5878ce6d8dec348996854d679",
    ("xyzx", 0.1): "a883df4f3cc1d5c99b91256ba13506fd"
                   "ef1cfbb5a23abc533425e5d412a1e07a",
    ("xyzx", 0.4): "08f2ef98408f7c097969b6202d68a49c"
                   "371fd2daeeb1ef1df3e95d2b3bf051e3",
}


@pytest.mark.parametrize("axes, width", sorted(FROZEN_ALPHA3))
def test_assemble_alpha3_frozen_bits(axes, width):
    sd = diagonalize(make_random_model(2, 2, 0))
    tabs, gd = oracle_tables(sd, tuple("xyz".index(a) for a in axes), width)
    assert all(gd.values())
    triples = [(0.9, 0.2, 0.3), (1.4, 0.5, 0.1), (0.4, 0.4, 0.4),
               (2.0, -0.3, 0.2)]
    vals = assemble_alpha3(tabs, triples, 0.1, ground_dipoles=gd).values
    assert hashlib.sha256(vals.tobytes()).hexdigest() \
        == FROZEN_ALPHA3[axes, width]


def _shifted(table, s):
    """A copy of `table` with every window pair moved up by s."""
    out = ResponseTable(order=table.order)
    for e in table.entries:
        out.add({"axes": e["axes"], "value": e["value"],
                 "window": [(lo + s, hi + s) for lo, hi in e["window"]]})
    return out


def test_every_line_position_comes_from_centres(monkeypatch):
    # moving _centres' positions up by s must equal moving every window up
    # by s, at both orders; a position that bypasses _centres stays put on
    # one side and moves on the other
    sd = diagonalize(make_random_model(2, 2, 0))
    tabs, gd = oracle_tables(sd, (1, 0, 0, 1), 0.1)
    t1 = ResponseTable(entries=tabs[1].select(tabs[1].entries[0]["axes"]))
    grid = np.linspace(0.0, 4.0, 9)
    triples = [(0.9, 0.2, 0.3), (1.4, 0.5, 0.1), (2.0, -0.3, 0.2)]
    s = 0.375
    base3 = assemble_alpha3(tabs, triples, 0.1, ground_dipoles=gd).values
    ref1 = assemble_alpha1(_shifted(t1, s), grid, 0.1).values
    ref3 = assemble_alpha3({d: _shifted(t, s) for d, t in tabs.items()},
                           triples, 0.1, ground_dipoles=gd).values
    centres = assemble._centres
    monkeypatch.setattr(assemble, "_centres",
                        lambda e: tuple(c + s for c in centres(e)))
    got1 = assemble_alpha1(t1, grid, 0.1).values
    got3 = assemble_alpha3(tabs, triples, 0.1, ground_dipoles=gd).values
    assert np.allclose(got1, ref1, rtol=1e-12, atol=0.0)
    assert np.allclose(got3, ref3, rtol=1e-12, atol=0.0)
    # the shift is large enough to show
    assert not np.allclose(got3, base3, rtol=1e-3)


def _without(table, chain):
    """A copy of `table` without the entries of `chain`."""
    return ResponseTable(order=table.order, entries=[
        e for e in table.entries if e["axes"] != chain])


def test_assemble_alpha3_refuses_a_depth3_table_of_two_chains():
    # the ground-pinned terms follow the first box's chain, so a box of
    # another chain would be summed against the wrong terms
    sd = diagonalize(make_random_model(2, 2, 0))
    tabs, gd = oracle_tables(sd, (1, 0, 0, 1), 0.1)
    triples = [(0.9, 0.2, 0.3)]
    assemble_alpha3(tabs, triples, 0.1, ground_dipoles=gd)
    tabs[3].add({"axes": (2, 2, 2, 2), "window": ((0.0, 0.1),) * 3,
                 "value": 0.5})
    with pytest.raises(InputError, match="one dipole chain"):
        assemble_alpha3(tabs, triples, 0.1, ground_dipoles=gd)


def test_assemble_alpha3_needs_the_chains_of_nonzero_moment_terms():
    # on make_random_model(2, 2, 0) every ground dipole is nonzero, so
    # every ground-pinned term needs its segments; xyzx makes the five
    # lower-depth chains distinct
    sd = diagonalize(make_random_model(2, 2, 0))
    i_tr, i3, i2, i1 = axes = (0, 1, 2, 0)
    tabs, gd = oracle_tables(sd, axes, 0.1)
    assert all(gd.values())
    triples = [(0.9, 0.2, 0.3), (1.4, 0.5, 0.1)]
    chains = {2: [(i2, i3, i_tr), (i1, i_tr, i3)],
              1: [(i_tr, i1), (i2, i3), (i3, i_tr)]}
    for depth, needed in chains.items():
        assert {e["axes"] for e in tabs[depth].entries} == set(needed)
        for chain in needed:
            cut = dict(tabs)
            cut[depth] = _without(tabs[depth], chain)
            name = "".join("xyz"[a] for a in chain)
            with pytest.raises(InputError, match=f"missing d{depth}_{name}"):
                assemble_alpha3(cut, triples, 0.1, ground_dipoles=gd)
    # with no ground moments the n-pinned chain is not needed, and its
    # entries add nothing
    full = assemble_alpha3(tabs, triples, 0.1, ground_dipoles={}).values
    cut = dict(tabs)
    cut[2] = _without(tabs[2], (i2, i3, i_tr))
    got = assemble_alpha3(cut, triples, 0.1, ground_dipoles={}).values
    assert np.array_equal(got, full)


def test_assemble_alpha3_checks_the_ground_moments_it_reads():
    sd = diagonalize(make_random_model(2, 2, 0))
    tabs, gd = oracle_tables(sd, (1, 0, 0, 1), 0.1)
    triples = [(0.9, 0.2, 0.3)]
    for bad in (math.nan, math.inf, "abc", "0.5", True, None, 0.5j):
        with pytest.raises(InputError, match="ground moments"):
            assemble_alpha3(tabs, triples, 0.1,
                            ground_dipoles={**gd, 0: bad})
    # the chain has no z axis, so its moment is never read
    want = assemble_alpha3(tabs, triples, 0.1, ground_dipoles=gd).values
    got = assemble_alpha3(tabs, triples, 0.1,
                          ground_dipoles={**gd, 2: "abc"}).values
    assert np.array_equal(got, want)


def test_assemble_alpha3_refuses_lower_depth_entries_no_term_reads():
    # axes (1, 0, 0, 1) read the depth-1 chains yy, xx, xy and the depth-2
    # chains xxy, yyx; an entry of any other chain would be dropped unread
    sd = diagonalize(make_random_model(2, 2, 0))
    tabs, gd = oracle_tables(sd, (1, 0, 0, 1), 0.1)
    triples = [(0.9, 0.2, 0.3)]
    assemble_alpha3(tabs, triples, 0.1, ground_dipoles=gd)
    for depth, chain in ((2, (2, 2, 2)), (2, (1, 0, 0)), (1, (2, 2)),
                         (1, (1, 0))):
        extra = dict(tabs)
        extra[depth] = ResponseTable(order=depth,
                                     entries=list(tabs[depth].entries))
        extra[depth].add({"axes": chain, "window": ((8.0, 8.1),) * depth,
                          "value": 5.0})
        name = "".join("xyz"[a] for a in chain)
        with pytest.raises(InputError, match=f"no term reads d{depth}_{name}"):
            assemble_alpha3(extra, triples, 0.1, ground_dipoles=gd)


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
        for bad in (0.0, -1.0, math.nan, math.inf, True):
            with pytest.raises(InputError, match=name):
                CostInputs(**{**base, name: bad})
    assert CostInputs(**base, N=4.0, eta=2.0).N == 4.0
    with pytest.raises(InputError):
        CostInputs(alpha=0.0, beta=1.0, gamma=0.1, eps=0.1)
    with pytest.raises(InputError):
        CostInputs(alpha=1.0, beta=1.0, gamma=0.1, eps=1.0)
    for n_order in (0, 2.5, 1.0, True):
        with pytest.raises(InputError, match="n_order"):
            CostInputs(**base, n_order=n_order)
    assert CostInputs(**base, n_order=np.int64(3)).n_order == 3
    # p0 and gap come together: 0 < p0 <= 1, gap positive and finite
    # (unchecked, gap=nan reported a NaN ground_state_prep, gap=inf 0.0,
    # and p0 alone was ignored)
    for p0, gap in ((0.5, None), (None, 1.0), (0.0, 1.0), (1.5, 1.0),
                    (math.nan, 1.0), (0.5, 0.0), (0.5, -1.0), (0.5, math.nan),
                    (0.5, math.inf)):
        with pytest.raises(InputError, match="p0|gap"):
            CostInputs(**base, p0=p0, gap=gap)


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
    # peaks come as one-pair boxes; the merged windows are (lo, hi) pairs
    merged = _dedupe_windows([[[1.0, 1.2]], [[1.1, 1.3]], [[3.0, 3.2]]], 0.5)
    assert merged == [(1.0, 1.3), (3.0, 3.2)]
    assert _dedupe_windows([], 0.5) == []


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
    assert any(lo <= 2 * np.sqrt(5.0) < hi for ((lo, hi),) in windows)
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
    def fake_search(sd, axes, gamma, tau, seed=0):
        depth_n = len(axes) - 1
        if depth_n == 2:
            peaks = [[[4.4, 4.6], [4.4, 4.6]], [[4.45, 4.65], [4.45, 4.65]]]
        else:
            peaks = [[[4.4, 4.6]] * depth_n]
        return SearchTrace(config={}, seed=seed, dims=depth_n,
                           peaks=peaks)

    monkeypatch.setattr(assemble, "binary_search_nd", fake_search)
    with pytest.raises(InputError, match="overlaps"):
        run_pipeline(dimer, gamma=0.2, order=3, axes=(0, 0, 0, 0),
                     grid=np.linspace(1.0, 3.9, 3), method="exact")


def test_pipeline_validation(dimer, monkeypatch):
    with pytest.raises(InputError):
        run_pipeline(dimer, gamma=0.0)
    with pytest.raises(InputError):
        run_pipeline(dimer, gamma=0.1, order=2)
    with pytest.raises(InputError, match="order"):     # before any search
        run_pipeline(dimer, gamma=0.1, order=1.0)
    with pytest.raises(InputError):
        run_pipeline(dimer, gamma=0.1, mode="dream")
    with pytest.raises(InputError):
        run_pipeline(dimer, gamma=0.1, order=3, axes=(0, 0))

    # the seed is an integer >= 0, checked before any work
    def no_work(model):
        raise AssertionError("diagonalize ran before the seed was checked")

    monkeypatch.setattr(assemble, "diagonalize", no_work)
    for seed in (-1, 1.5, 3.0, "7", None):
        for mode in ("oracle", "simulate"):
            with pytest.raises(InputError, match="seed"):
                run_pipeline(dimer, gamma=0.1, seed=seed, mode=mode)


@pytest.mark.parametrize("kwargs, field", [
    ({"order": True}, "order"),
    ({"seed": True}, "seed"),
    ({"axes": (True, 0)}, "axes"),
    ({"axes": (0.7, 0)}, "axes"),
    ({"axes": (0, 5)}, "axes"),
    ({"axes": (-1, 0)}, "axes"),
    ({"order": 3, "axes": (0, 0, 3, 0)}, "axes"),
], ids=repr)
@pytest.mark.parametrize("mode", ["oracle", "simulate"])
def test_pipeline_refuses_bad_order_seed_and_axes_before_any_work(
        dimer, monkeypatch, kwargs, field, mode):
    # each used to run: True as 1, 0.7 truncated to 0, -1 read as the z
    # axis, and 5 escaping as an IndexError after diagonalize
    def no_work(model):
        raise AssertionError(f"diagonalize ran before {field} was checked")

    monkeypatch.setattr(assemble, "diagonalize", no_work)
    with pytest.raises(InputError, match=field):
        run_pipeline(dimer, gamma=0.1, mode=mode, **kwargs)


@pytest.mark.parametrize("mode", ["oracle", "simulate"])
def test_pipeline_numpy_seed_writes_the_plain_seeds_bytes(dimer, tmp_path,
                                                          mode):
    # a numpy integer seed is carried on as a plain int, which json writes
    kw = dict(gamma=0.2, grid=np.linspace(0.0, 5.4, 12), method="exact",
              mode=mode)
    run_pipeline(dimer, seed=3, out_dir=str(tmp_path / "int"), **kw)
    res = run_pipeline(dimer, seed=np.int64(3), out_dir=str(tmp_path / "np"),
                       **kw)
    assert type(res["manifest"]["seed"]) is int
    names = sorted(p.name for p in (tmp_path / "int").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "np").iterdir())
    for name in names:
        assert (tmp_path / "np" / name).read_bytes() \
            == (tmp_path / "int" / name).read_bytes(), name


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
    {"window_width": 0.0}, {"window_width": -0.01}, {"window_width": True},
], ids=repr)
def test_pipeline_rejects_non_finite_inputs(dimer, kwargs):
    with pytest.raises(InputError):
        run_pipeline(dimer, **{"gamma": 0.2, "method": "exact", **kwargs})


# ---------------------------------------------------------------------------
# one admission check per input kind
# ---------------------------------------------------------------------------

def _table(depth, *entries):
    """A depth-`depth` table built from the constructor, one entry per
    dict: a chain of x axes on windows (1, 2) of value 0.1, updated by it."""
    return ResponseTable(order=depth, entries=[
        {"axes": (0,) * (depth + 1), "window": ((1.0, 2.0),) * depth,
         "value": 0.1, **e} for e in entries])


_WIN = [(4.35, 4.55)]

# every entry point admits chain axes, seeds, indices and positive scalars
# through the checks of respsim.errors; each probe used to pass (a
# fractional axis truncated, -1 read as the z axis, a bool as 1, a
# constructor's entries stored unchecked) or escape as another error
ADMISSION_PROBES = {
    "estimate_box axes (0.7, 0)":
        lambda sd: estimate_box(sd, (0.7, 0), _WIN, 1e-3),
    "estimate_box axes (-1, 0)":
        lambda sd: estimate_box(sd, (-1, 0), _WIN, 1e-3),
    "estimate_box axes (3, 0)":
        lambda sd: estimate_box(sd, (3, 0), _WIN, 1e-3),
    "estimate_box seed True":
        lambda sd: estimate_box(sd, (0, 0), _WIN, 1e-3, seed=True),
    "estimate_box eps True": lambda sd: estimate_box(sd, (0, 0), _WIN, True),
    "binary_search_nd axes (-1, 0)":
        lambda sd: binary_search_nd(sd, (-1, 0), 0.4, 0.02),
    "binary_search_nd axes (0.7, 0)":
        lambda sd: binary_search_nd(sd, (0.7, 0), 0.4, 0.02),
    "binary_search_nd axes (5, 0)":
        lambda sd: binary_search_nd(sd, (5, 0), 0.4, 0.02),
    "binary_search_nd seed True":
        lambda sd: binary_search_nd(sd, (0, 0), 0.4, 0.02, seed=True),
    "binary_search_nd gamma True":
        lambda sd: binary_search_nd(sd, (0, 0), True, 0.02),
    "binary_search_nd tau True":
        lambda sd: binary_search_nd(sd, (0, 0), 0.4, True),
    "nested_window_amplitude axes (5, 0)":
        lambda sd: nested_window_amplitude(sd, (5, 0), _WIN),
    "nested_window_amplitude axes (-1, 0)":
        lambda sd: nested_window_amplitude(sd, (-1, 0), _WIN),
    "alpha1 i -1": lambda sd: alpha1(sd, -1, 0, [1.0], 0.1),
    "alpha1 i 0.5": lambda sd: alpha1(sd, 0.5, 0, [1.0], 0.1),
    "alpha1 gamma True": lambda sd: alpha1(sd, 0, 0, [1.0], True),
    "r_pathway_fd nu 1.0":
        lambda sd: r_pathway_fd(sd, 1.0, (0, 0, 0, 0), 3.0, 2.0, 1.0, 0.1),
    "r_pathway_fd nu True":
        lambda sd: r_pathway_fd(sd, True, (0, 0, 0, 0), 3.0, 2.0, 1.0, 0.1),
    "r_pathway_fd axes (0, 0, 0, -1)":
        lambda sd: r_pathway_fd(sd, 1, (0, 0, 0, -1), 3.0, 2.0, 1.0, 0.1),
    "assemble_alpha1 gamma True":
        lambda sd: assemble_alpha1(_table(1, {}), [1.0], True),
    "assemble_alpha3 gamma True":
        lambda sd: assemble_alpha3({d: _table(d, {}) for d in (1, 2, 3)},
                                   [(1.0, 1.0, 1.0)], True, {}),
    "ResponseTable entry with a nan value":
        lambda sd: _table(1, {"value": math.nan}),
    "ResponseTable entries on one window": lambda sd: _table(1, {}, {}),
    "ResponseTable entry without value":
        lambda sd: ResponseTable(entries=[{"axes": (0, 0),
                                           "window": ((1.0, 2.0),)}]),
    "choose_k delta True": lambda sd: choose_k(True, 1e-3),
    "make_random_model seed True": lambda sd: make_random_model(2, 2, True),
    "make_random_model seed -1": lambda sd: make_random_model(2, 2, -1),
}


@pytest.mark.parametrize("probe", ADMISSION_PROBES.values(),
                         ids=ADMISSION_PROBES)
def test_entry_points_refuse_bad_axes_seeds_indices_and_scalars(dimer_sd,
                                                                probe):
    with pytest.raises(InputError):
        probe(dimer_sd)
