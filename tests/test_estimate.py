"""Measurement simulation: Hadamard tests, bin search, window estimates."""

import copy
import dataclasses
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_box_value
from respsim import (
    BinSearchConfig,
    InputError,
    binary_search_1d,
    binary_search_nd,
    build_dipole,
    build_hamiltonian,
    diagonalize,
    estimate_box,
    estimate_window,
    inequality_test,
    jordan_wigner,
    lcu_one_norm,
    nested_window_amplitude,
    run_pipeline,
    window_amplitude,
)
from respsim import estimate as estimate_mod
from respsim.estimate import P0_SLACK, _lcu_probabilities, _sample_counts

BRIGHT = 2.0 * np.sqrt(5.0)


# ---------------------------------------------------------------------------
# Hadamard tests
# ---------------------------------------------------------------------------

def test_channel_p0():
    # one Hadamard test is the one-bin LCU: each quadrature x of the
    # amplitude reads 0 with P(0) = (1 + x)/2, bit for bit, and the discard
    # entry is P(1)
    v = 0.3 + 0.7j + 0.1
    for x in (v.real, v.imag):
        p = _lcu_probabilities([x])
        assert p[0] == 0.5 * (1.0 + x)
        assert p[0] + p[1] == 1.0


def test_channel_validation():
    # mild filter overshoot is clipped, beyond the slack it is rejected
    assert _lcu_probabilities([1.0 + P0_SLACK / 2])[0] == 1.0
    assert _lcu_probabilities([-1.0 - P0_SLACK / 2])[0] == 0.0
    with pytest.raises(InputError, match="wrong zeta"):
        _lcu_probabilities([1.0 + 2 * P0_SLACK])


def test_channel_from_filtered_chain(dimer, dimer_sd):
    # the channel's amplitude is the ground-masked filtered dipole sandwich
    # over zeta, and the filter passes the bright line at weight ~1
    window, delta = (4.35, 4.55), 0.05
    u, u_raw, degree = estimate_mod._box_channel(dimer_sd, (0, 0), [window],
                                                 [delta], 1e-3)
    zeta = estimate_mod._zeta(dimer_sd, (0, 0))
    assert zeta == 1.0
    value = complex(u[0]) / zeta
    want = dense_box_value(dimer, dimer_sd, (0, 0), [window], [delta], 1e-3)
    assert abs(value - want) <= 1e-9 * abs(want)
    assert value.real == pytest.approx(
        window_amplitude(dimer_sd, 0, 0, *window).real, abs=2e-3)
    # the uncorrected image keeps the ground state's share
    assert abs(complex(u_raw[0]) - value) > 0
    # an estimate to eps builds its filter to eps / (2 zeta)
    assert degree == estimate_window(dimer_sd, (0, 0), window, 2e-3,
                                     method="exact", delta=delta).degree


# ---------------------------------------------------------------------------
# LCU distribution and inequality testing
# ---------------------------------------------------------------------------

def test_lcu_distribution_formula():
    p = _lcu_probabilities(np.array([0.4, -0.2, 0.0]))
    assert len(p) == 4                                # three bins + discard
    assert p[:3] == pytest.approx([(1 + 0.4) / 6, (1 - 0.2) / 6, 1.0 / 6])
    assert p.sum() == pytest.approx(1.0)
    assert p[-1] == pytest.approx(1.0 - (3 + 0.2) / 6)


def test_lcu_distribution_validation():
    with pytest.raises(InputError):
        _lcu_probabilities([])
    with pytest.raises(InputError):
        _lcu_probabilities([1.5])
    # every bin at the clip edge fills the distribution: nothing discarded
    p = _lcu_probabilities(np.full(3, 1.0 + P0_SLACK / 2))
    assert p[-1] == 0.0
    assert p[:3] == pytest.approx([1.0 / 3] * 3)


def test_sample_counts():
    rng = np.random.default_rng(7)
    counts = _sample_counts(rng, np.array([0.5, -0.5]), 10000)
    assert counts.shape == (2,)
    assert counts.sum() <= 10000                      # discards dropped
    assert counts[0] / 10000 == pytest.approx(1.5 / 4, abs=0.02)
    assert counts[1] / 10000 == pytest.approx(0.5 / 4, abs=0.02)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), B=st.integers(1, 9), n=st.integers(0, 10 ** 12),
       seed=st.integers(0, 2 ** 63 - 1))
def test_sample_counts_equal_numpy_multinomial(data, B, n, seed):
    """A level's counts are bit-identical to one rng.multinomial draw with
    the discard dropped and leave the generator in the same state; seeded
    outputs rely on it."""
    x = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0)),
        min_size=B, max_size=B)))
    p = _lcu_probabilities(x)
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    counts = _sample_counts(rng_a, x, n)
    ref = rng_b.multinomial(n, p)[:-1]
    assert counts.dtype == ref.dtype
    assert np.array_equal(counts, ref)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


def test_sample_counts_follow_the_multinomial_law():
    """Over 4000 draws from seeds 0..3999, the counts' mean is n p within
    4 standard errors per bin, and their covariance is n (diag p - p p^T)
    within 4 standard errors of a sample covariance per entry."""
    x = np.array([0.6, -0.6, 0.2, 0.0])
    p = _lcu_probabilities(x)                     # last entry: discard
    n, draws = 1000, 4000
    counts = np.array([_sample_counts(np.random.default_rng(s), x, n)
                       for s in range(draws)])
    q = p[:-1]
    cov = n * (np.diag(q) - np.outer(q, q))
    sd = np.sqrt(np.diag(cov))
    assert np.all(np.abs(counts.mean(axis=0) - n * q)
                  <= 4.0 * sd / np.sqrt(draws))
    # the sample covariance of near-normal counts has standard error
    # sqrt((s_i^2 s_j^2 + c_ij^2) / draws)
    se = np.sqrt((np.outer(sd, sd) ** 2 + cov ** 2) / draws)
    assert np.all(np.abs(np.cov(counts, rowvar=False) - cov) <= 4.0 * se)


def test_sample_counts_memory_does_not_grow_with_shots():
    x = np.array([0.5, -0.5, 0.1])
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        counts = _sample_counts(rng, x, 10 ** 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10
    assert counts.sum() <= 10 ** 12
    assert counts[0] / 1e12 == pytest.approx(1.5 / 6, abs=1e-5)


def test_inequality_test():
    assert inequality_test(300, 100, 1000, 0.1) == "greater"
    assert inequality_test(100, 300, 1000, 0.1) == "less"
    assert inequality_test(150, 100, 1000, 0.1) == "indistinguishable"
    with pytest.raises(InputError):
        inequality_test(1, 0, 0, 0.1)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), tau=st.floats(0.05, 0.5), extra=st.integers(0, 300))
def test_relation_matrix_is_the_pairwise_inequality_test(data, tau, extra):
    # the search scores bins with the criterion-06 test: the count gap is
    # divided by N_s once, so an exact tie at tau stays indistinguishable
    def relation(counts, N_s, tau):
        counts = np.array(counts)
        return estimate_mod._relation_matrix(
            np.subtract.outer(counts, counts) / N_s, tau)

    R = relation([80, 20, 50], 200, 0.15)
    assert R[0, 1] == 1 and R[1, 0] == -1             # gap 0.30 > tau
    assert R[0, 2] == 0 and R[2, 0] == 0              # gap 0.15, not > tau
    assert R[2, 1] == 0                               # gap 0.15
    assert np.array_equal(R, -R.T)
    assert np.all(np.diag(R) == 0)
    # on any counts the matrix is the pairwise inequality test
    N_s = BinSearchConfig(gamma=0.5, tau=tau).N_s + extra
    counts = data.draw(st.lists(st.integers(0, N_s), min_size=1,
                                max_size=9))
    sign = {"greater": 1, "less": -1, "indistinguishable": 0}
    expect = [[sign[inequality_test(a, b, N_s, tau)] for b in counts]
              for a in counts]
    assert relation(counts, N_s, tau).tolist() == expect


# ---------------------------------------------------------------------------
# search configuration
# ---------------------------------------------------------------------------

def test_config_defaults():
    cfg = BinSearchConfig(gamma=0.1)
    assert cfg.tau == pytest.approx(0.25)             # 1/(2*branching)
    assert cfg.N_s == int(np.ceil(np.log(12.0) / 0.25 ** 2))
    d = cfg.as_dict()
    assert d["gamma"] == 0.1 and d["N_s"] == cfg.N_s


def test_config_sample_bound():
    bound = int(np.ceil(np.log(12.0) / 0.02 ** 2))
    assert BinSearchConfig(gamma=0.1, tau=0.02).N_s == bound == 6213
    BinSearchConfig(gamma=0.1, tau=0.02, N_s=bound + 5)
    with pytest.raises(InputError):
        BinSearchConfig(gamma=0.1, tau=0.02, N_s=bound - 1)


def test_config_validation():
    with pytest.raises(InputError):
        BinSearchConfig(gamma=0.0)
    with pytest.raises(InputError):
        BinSearchConfig(gamma=0.1, branching=1)
    with pytest.raises(InputError):
        BinSearchConfig(gamma=0.1, overlap=0.6)
    with pytest.raises(InputError):
        BinSearchConfig(gamma=0.1, eps_conf=1.0)
    with pytest.raises(InputError):
        BinSearchConfig(gamma=0.1, filter_eps=0.5)
    with pytest.raises(InputError):
        BinSearchConfig(gamma=0.1, span=(3.0, 1.0))
    with pytest.raises(InputError):
        BinSearchConfig(gamma=0.1, span=(-1.0, 1.0))


# ---------------------------------------------------------------------------
# hierarchical searches
# ---------------------------------------------------------------------------

def test_search_1d_finds_bright_line(dimer_sd):
    cfg = BinSearchConfig(gamma=0.2, tau=0.02, span=(0.0, 6.4))
    trace = binary_search_1d(dimer_sd, (0, 0), cfg, seed=3)
    assert trace.found
    assert any(lo <= BRIGHT < hi for lo, hi in trace.peaks)
    for lo, hi in trace.peaks:
        assert hi - lo <= cfg.gamma * (1 + 1e-9)
    assert trace.queries_total == sum(trace.per_level_queries.values())
    assert trace.queries_total > 0
    lvl = trace.levels[0]
    assert set(lvl) >= {"box", "depth", "nbins", "counts", "R",
                        "prominent", "decision", "charge"}
    assert not trace.truncated


def test_search_1d_trace_is_deterministic(dimer_sd):
    cfg = BinSearchConfig(gamma=0.4, tau=0.05, span=(0.0, 6.4))
    a = binary_search_1d(dimer_sd, (0, 0), cfg, seed=11)
    b = binary_search_1d(dimer_sd, (0, 0), cfg, seed=11)
    assert a.to_json() == b.to_json()


def test_search_1d_dark_axis_finds_nothing(dimer_sd):
    cfg = BinSearchConfig(gamma=0.4, span=(0.0, 6.4))
    trace = binary_search_1d(dimer_sd, (1, 1), cfg, seed=0)
    assert not trace.found
    assert trace.peaks == []
    assert trace.levels[0]["decision"] == "empty"


def test_search_2d_finds_negative_amplitude_box(dimer, dimer_sd):
    # the only bright depth-2 box on the dimer has amplitude -0.179: the
    # two-quadrature deviation score must still flag it
    cfg = BinSearchConfig(gamma=0.2, tau=0.004, span=(0.0, 6.4))
    trace = binary_search_nd(dimer_sd, (0, 0, 0), cfg, seed=5)
    assert trace.dims == 2
    assert trace.found
    hit = [box for box in trace.peaks
           if all(lo <= BRIGHT < hi for lo, hi in box)]
    assert hit, f"no peak box contains the bright line twice: {trace.peaks}"
    amp = nested_window_amplitude(dimer_sd, (0, 0, 0), hit[0])
    assert amp.real < -0.1


def test_search_nd_validation(dimer_sd):
    cfg = BinSearchConfig(gamma=0.2)
    for axes in ((), (0,)):
        with pytest.raises(InputError):
            binary_search_nd(dimer_sd, axes, cfg)


# ---------------------------------------------------------------------------
# window estimation
# ---------------------------------------------------------------------------

def test_estimate_window_exact(dimer_sd):
    est = estimate_window(dimer_sd, (0, 0), (4.35, 4.55), 1e-3, method="exact")
    oracle = window_amplitude(dimer_sd, 0, 0, 4.35, 4.55)
    # margins are line-free, so only the filter ripple remains
    assert abs(est.value - oracle) <= est.eps_filter * abs(oracle) + 1e-12
    assert est.rounds >= 1
    assert est.queries == est.degree * est.shots * est.rounds
    assert est.zeta == pytest.approx(1.0)


def test_estimate_window_ae_within_budget(dimer_sd):
    exact = estimate_window(dimer_sd, (0, 0), (4.35, 4.55), 2e-3,
                            method="exact")
    ae = estimate_window(dimer_sd, (0, 0), (4.35, 4.55), 2e-3,
                         method="ae", seed=9)
    assert abs(ae.value - exact.value) <= 1e-3 + 1e-12   # eps_stat = eps/2
    assert ae.shots < exact.shots * 2 + 4


def test_estimate_window_direct(dimer_sd):
    eps = 2e-3
    exact = estimate_window(dimer_sd, (0, 0), (4.35, 4.55), eps,
                            method="exact")
    direct = estimate_window(dimer_sd, (0, 0), (4.35, 4.55), eps,
                             method="direct", seed=0)
    assert abs(direct.value - exact.value) <= eps
    assert direct.shots > exact.shots            # 1/eps^2 vs 1/eps scaling


def test_estimate_window_validation(dimer_sd):
    with pytest.raises(InputError):
        estimate_window(dimer_sd, (0, 0), (4.4, 4.5), 1e-3, method="qpe")
    with pytest.raises(InputError):
        estimate_window(dimer_sd, (0, 0), (4.4, 4.5), 0.0)
    with pytest.raises(InputError):
        estimate_window(dimer_sd, (0, 0), (4.5, 4.4), 1e-3)
    with pytest.raises(InputError):
        estimate_window(dimer_sd, (0, 0), (4.4, 4.5), 1e-3, delta=0.2)


def test_estimate_box_depth_one_matches_window(dimer_sd):
    w = (4.35, 4.55)
    a = estimate_window(dimer_sd, (0, 0), w, 1e-3, method="exact")
    b = estimate_box(dimer_sd, (0, 0), [w], 1e-3, method="exact")
    assert b.value == pytest.approx(a.value, abs=1e-12)
    assert (b.rounds, b.queries, b.degree) == (a.rounds, a.queries, a.degree)


def test_estimate_box_depth_three(dimer_sd):
    wins = [(4.4, 4.5)] * 3
    est = estimate_box(dimer_sd, (0, 0, 0, 0), wins, 2e-2, method="exact")
    oracle = nested_window_amplitude(dimer_sd, (0, 0, 0, 0), wins)
    assert oracle == pytest.approx(0.16, abs=1e-12)
    assert abs(est.value - oracle) <= 0.01


def test_estimate_box_validation(dimer_sd):
    with pytest.raises(InputError):
        estimate_box(dimer_sd, (0, 0, 0), [(4.4, 4.5)], 1e-3)
    with pytest.raises(InputError):
        estimate_box(dimer_sd, (0, 0), [(4.5, 4.4)], 1e-3)
    with pytest.raises(InputError):
        estimate_box(dimer_sd, (0, 0, 0), [(4.4, 4.5), (4.4, 4.5)], 1e-3,
                     delta=0.06)


@pytest.mark.parametrize("which", ["dimer", "random"])
@settings(max_examples=10, deadline=None)
@given(frac=st.floats(0.0, 1.0), width=st.floats(0.1, 0.8),
       ax_in=st.integers(0, 2), ax_out=st.integers(0, 2))
def test_estimate_window_is_the_depth_one_box(which, frac, width, ax_in,
                                              ax_out, dimer_sd, random_sd):
    sd = dimer_sd if which == "dimer" else random_sd
    lo = frac * float(sd.eigenvalues[-1])
    hi = lo + width
    a = estimate_window(sd, (ax_in, ax_out), (lo, hi), 2e-2, method="exact")
    b = estimate_box(sd, (ax_out, ax_in), [(lo, hi)], 2e-2, method="exact")
    assert (a.value, a.degree, a.rounds, a.queries) == \
        (b.value, b.degree, b.rounds, b.queries)
    # criterion 04's bound: filter error plus the mass in the delta-margins
    d = a.delta
    lam = sd.eigenvalues[1:]
    weights = np.abs(sd.transition_dipoles[ax_out][0, 1:]
                     * sd.transition_dipoles[ax_in][1:, 0])
    in_margin = ((lo - d <= lam) & (lam <= lo + d)) | \
        ((hi - d <= lam) & (lam <= hi + d))
    ref = window_amplitude(sd, ax_in, ax_out, lo, hi)
    assert abs(a.value - ref) <= (a.eps_filter + weights[in_margin].sum()
                                  + 1e-12)


# ---------------------------------------------------------------------------
# what the spectrum owns, and what a run leaves behind
# ---------------------------------------------------------------------------

def test_fresh_spectrum_gives_identical_estimate(dimer, dimer_sd):
    before = estimate_window(dimer_sd, (0, 0), (4.35, 4.55), 1e-3,
                             method="exact")
    fresh = diagonalize(dimer)
    assert not fresh.filter_values
    after = estimate_window(fresh, (0, 0), (4.35, 4.55), 1e-3, method="exact")
    assert after.as_dict() == before.as_dict()
    assert fresh.filter_values


@pytest.mark.parametrize("names", [("dimer", "dimer_sd"),
                                   ("random_model", "random_sd")])
def test_spectrum_carries_lcu_one_norms(request, names):
    model, sd = (request.getfixturevalue(n) for n in names)
    assert sd.alpha == lcu_one_norm(
        jordan_wigner(build_hamiltonian(model.T, model.V)))
    assert sd.betas == tuple(
        lcu_one_norm(jordan_wigner(build_dipole(model.dipole[ax])))
        for ax in range(3))
    assert sd.alpha > 0 and sd.betas[0] > 0
    if names[0] == "dimer":
        # only the x dipole is set: y and z encode with unit subnorm
        assert sd.betas[1:] == (0.0, 0.0)
        assert estimate_mod._zeta(sd, (1, 0, 2)) == sd.betas[0]


@pytest.mark.parametrize("names", [("dimer", "dimer_sd"),
                                   ("random_model", "random_sd")])
def test_measurement_ignores_the_nuclear_shift(request, names):
    # the nuclear shift moves every total energy and no excitation energy,
    # so searches and estimates on a shifted model are bit-identical
    model, sd = (request.getfixturevalue(n) for n in names)
    cfg = BinSearchConfig(gamma=sd.alpha_shift / 16.0, tau=0.05)
    lo = 0.5 * float(sd.eigenvalues[1])
    wins = [(lo, lo + 0.5)] * 2
    ref_trace = binary_search_1d(sd, (0, 0), cfg, seed=4).to_json()
    ref_box = estimate_box(sd, (0, 0, 0), wins, 2e-2, seed=2).as_dict()
    for shift in (0.0, 1.2345678901, -7.5):
        shifted = diagonalize(dataclasses.replace(model, nuclear_shift=shift))
        assert shifted.ground_energy == pytest.approx(
            sd.ground_energy + shift, abs=1e-12)
        assert shifted.alpha_shift == sd.alpha_shift
        assert binary_search_1d(shifted, (0, 0), cfg,
                                seed=4).to_json() == ref_trace
        assert estimate_box(shifted, (0, 0, 0), wins, 2e-2,
                            seed=2).as_dict() == ref_box


def test_a_run_leaves_no_module_state_behind(dimer):
    # filters and their values belong to one spectrum: a pipeline run at a
    # gamma no other test uses must leave every module-level container of
    # the package as it found it
    def snapshot():
        return {(mod_name, name): copy.copy(value)
                for mod_name, mod in list(sys.modules.items())
                if mod_name == "respsim" or mod_name.startswith("respsim.")
                for name, value in vars(mod).items()
                if not name.startswith("__")
                and isinstance(value, (dict, list, set))}

    before = snapshot()
    run_pipeline(dimer, gamma=0.137, seed=0, method="exact")
    assert snapshot() == before
