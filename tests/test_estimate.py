"""Measurement simulation: Hadamard tests, bin search, window estimates."""

import copy
import dataclasses
import functools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_reference import dense_box_value
from test_spectra import FROZEN_SPECTRA
from respsim import (
    ChebyshevFilter,
    InputError,
    SpectralData,
    binary_search_nd,
    build_dipole,
    build_hamiltonian,
    diagonalize,
    estimate_box,
    jordan_wigner,
    lcu_one_norm,
    make_random_model,
    nested_window_amplitude,
    run_pipeline,
)
from respsim import estimate as estimate_mod
from respsim.estimate import (EPS_CONF, MAX_BOXES, P0_SLACK, RESCALE_STEPS,
                              _filter_columns, _lcu_probabilities, _rescale,
                              _sample_counts)

BRIGHT = 2.0 * np.sqrt(5.0)


# ---------------------------------------------------------------------------
# Hadamard tests
# ---------------------------------------------------------------------------

def test_channel_p0():
    # one Hadamard test is the one-bin LCU: an amplitude x reads 0 with
    # P(0) = (1 + x)/2, bit for bit, and the discard entry is P(1)
    for x in (0.4, -0.7):
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
    u, degree = estimate_mod._chain_images(dimer_sd, (0, 0), [[window]],
                                           [delta], 1e-3)
    u_raw = estimate_mod._chain_images(dimer_sd, (0, 0), [[window]],
                                       [delta], 1e-3, ground=True)[0]
    zeta = estimate_mod._zeta(dimer_sd, (0, 0))
    assert zeta == 1.0
    value = float(u[0, 0]) / zeta
    want = dense_box_value(dimer, dimer_sd, (0, 0), [window], [delta], 1e-3)
    assert abs(value - want) <= 1e-9 * abs(want)
    assert value == pytest.approx(
        nested_window_amplitude(dimer_sd, (0, 0), [window]), abs=2e-3)
    # the uncorrected image keeps the ground state's share
    assert abs(float(u_raw[0, 0]) - value) > 0
    # an estimate to eps builds its filter to eps / (2 zeta)
    assert degree == estimate_box(dimer_sd, (0, 0), [window], 2e-3,
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
    # on any counts the matrix is the pairwise inequality test: +1 (-1)
    # when the empirical gap (a - b)/N_s is above tau (below -tau), else 0
    def inequality(a, b, N_s, tau):
        gap = (a - b) / N_s
        return 1 if gap > tau else -1 if gap < -tau else 0

    N_s = math.ceil(math.log(4.0 / EPS_CONF) / tau ** 2) + extra
    counts = data.draw(st.lists(st.integers(0, N_s), min_size=1,
                                max_size=9))
    expect = [[inequality(a, b, N_s, tau) for b in counts] for a in counts]
    assert relation(counts, N_s, tau).tolist() == expect


# ---------------------------------------------------------------------------
# search configuration
# ---------------------------------------------------------------------------

def test_config_defaults(dimer_sd):
    # a search is set by gamma and tau alone; its trace records the sample
    # count, the dyadic span and the fixed settings that follow
    trace = binary_search_nd(dimer_sd, (1, 1), 0.4, 0.25)
    assert trace.config == {
        "gamma": 0.4, "tau": 0.25, "branching": 2, "eps_conf": 1.0 / 3.0,
        "N_s": int(np.ceil(np.log(12.0) / 0.25 ** 2)),
        "span": [0.0, 0.4 * 2 ** 5],      # alpha_shift 7.236 < 0.4 * 2^5
        "overlap": 0.3, "filter_eps": 1e-2, "max_boxes": MAX_BOXES}


def test_config_sample_bound(dimer_sd):
    bound = int(np.ceil(np.log(12.0) / 0.02 ** 2))
    trace = binary_search_nd(dimer_sd, (1, 1), 0.4, 0.02)
    assert trace.config["N_s"] == bound == 6213
    assert trace.levels[0]["charge"] % bound == 0


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, 0.0, -0.1, 1e-10,
                                 1e-200])
def test_config_rejects_a_non_finite_or_non_positive_tau(dimer_sd, tau):
    # a tau whose sample count overflows a 64-bit integer (1e-10) or
    # tau^2 (1e-200) is refused with the non-positive ones
    with pytest.raises(InputError, match="tau"):
        binary_search_nd(dimer_sd, (0, 0), 0.1, tau)


def test_config_validation(dimer_sd):
    # 1e-320 passes as positive and finite, but alpha_shift/gamma
    # overflowed to an OverflowError in the span's level count
    for gamma in (0.0, -0.1, np.nan, np.inf, 1e-320):
        with pytest.raises(InputError, match="gamma"):
            binary_search_nd(dimer_sd, (0, 0), gamma, 0.02)


def test_search_span_is_dyadic(dimer_sd):
    # the span is the dyadic (0, gamma 2^L) covering [0, alpha_shift]
    gamma = 0.0125
    levels = math.ceil(math.log2(dimer_sd.alpha_shift / gamma))
    lo, hi = binary_search_nd(dimer_sd, (1, 1), gamma, 0.02).config["span"]
    assert (lo, hi, levels) == (0.0, gamma * 2 ** 10, 10)
    assert hi / 2 < dimer_sd.alpha_shift <= hi


@pytest.mark.parametrize("which", ["dimer", "random"])
@settings(max_examples=20, deadline=None)
@given(gamma=st.floats(0.1, 1.0), tau=st.sampled_from([0.02, 0.005, 0.002]),
       chain=st.lists(st.integers(0, 2), min_size=2, max_size=3),
       seed=st.integers(0, 2))
def test_search_depth_is_bounded_by_the_span(which, gamma, tau, chain, seed,
                                             dimer_sd, random_sd):
    # descend and merge both halve every axis's cell width, so the cells
    # of level d are span/2^(d+1) wide, no level lies below L - 1, and
    # peaks (found at level L - 1 only) are exactly gamma wide
    sd = dimer_sd if which == "dimer" else random_sd
    trace = binary_search_nd(sd, chain, gamma, tau, seed=seed)
    levels = max(1, math.ceil(math.log2(sd.alpha_shift / gamma)))
    hi = trace.config["span"][1]
    assert hi == gamma * 2 ** levels
    for lvl in trace.levels:
        for (a, b), nb in zip(lvl["box"], lvl["nbins"]):
            assert (b - a) / nb == pytest.approx(hi / 2 ** (lvl["depth"] + 1),
                                                 rel=1e-12)
    deepest = max(lvl["depth"] for lvl in trace.levels)
    assert deepest <= levels - 1
    assert deepest == levels - 1 or not trace.found
    # every peak and marked cell is a box of one pair per axis at every
    # depth, and a peak is exactly what estimate_box takes as its windows
    dims = len(chain) - 1
    assert trace.dims == dims
    for box in trace.peaks + trace.marked:
        assert len(box) == dims and all(len(pair) == 2 for pair in box)
    for peak in trace.peaks:
        for a, b in peak:
            assert b - a == pytest.approx(gamma, rel=1e-12)
        est = estimate_box(sd, chain, peak, 1e-2, method="exact")
        assert est.window == tuple(map(tuple, peak))
    assert not trace.truncated


def test_hubbard_gamma005_search_reaches_depth_10(dimer_sd):
    # the search of `respsim --toy hubbard --simulate --gamma 0.05`: width
    # gamma/8 over alpha_shift 7.236 gives L = 11 and a deepest level of 10
    width = 0.05 / 8.0
    trace = binary_search_nd(dimer_sd, (0, 0), width, 0.02)
    assert math.ceil(math.log2(dimer_sd.alpha_shift / width)) == 11
    assert trace.config["span"] == [0.0, width * 2 ** 11]
    assert max(lvl["depth"] for lvl in trace.levels) == 10
    assert trace.found


@pytest.mark.parametrize("seed", [-1, -(2 ** 40), 1.5, "0"])
def test_search_and_estimate_reject_a_bad_seed(dimer_sd, seed):
    with pytest.raises(InputError, match="seed"):
        binary_search_nd(dimer_sd, (0, 0), 0.4, 0.02, seed=seed)
    with pytest.raises(InputError, match="seed"):
        estimate_box(dimer_sd, (0, 0), WINDOW, 1e-3, seed=seed)


# ---------------------------------------------------------------------------
# hierarchical searches
# ---------------------------------------------------------------------------

def test_search_1d_finds_bright_line(dimer_sd):
    trace = binary_search_nd(dimer_sd, (0, 0), 0.2, 0.02, seed=3)
    assert trace.found
    assert any(lo <= BRIGHT < hi for ((lo, hi),) in trace.peaks)
    for ((lo, hi),) in trace.peaks:
        assert hi - lo == pytest.approx(0.2, rel=1e-12)
    assert trace.queries_total == sum(trace.per_level_queries.values())
    assert trace.queries_total > 0
    assert set(trace.levels[0]) == {"box", "depth", "nbins", "counts", "R",
                                    "prominent", "decision", "charge"}
    assert not trace.truncated


def test_search_1d_trace_is_deterministic(dimer_sd):
    a = binary_search_nd(dimer_sd, (0, 0), 0.4, 0.05, seed=11)
    b = binary_search_nd(dimer_sd, (0, 0), 0.4, 0.05, seed=11)
    assert a.as_dict() == b.as_dict()


def test_search_1d_dark_axis_finds_nothing(dimer_sd):
    trace = binary_search_nd(dimer_sd, (1, 1), 0.4, 0.25, seed=0)
    assert not trace.found
    assert trace.peaks == []
    assert trace.levels[0]["decision"] == "empty"


def test_search_1d_finds_negative_cross_axis_line():
    # on the chain (y, x) of this model the line at 1.970 carries the
    # weight d_y[0,j] d_x[j,0] = -1.67: it lowers its bin's frequency, and
    # the absolute deviation score must flag it as it flags a raised bin
    sd = diagonalize(make_random_model(2, 2, 15))
    j = int(np.argmin(np.abs(sd.eigenvalues - 1.970)))
    weight = sd.transition_dipoles[1][0, j] * sd.transition_dipoles[0][j, 0]
    assert weight == pytest.approx(-1.67, abs=5e-3)
    for seed in range(5):
        trace = binary_search_nd(sd, (1, 0), 0.4, 0.005, seed=seed)
        assert any(lo <= sd.eigenvalues[j] < hi
                   for ((lo, hi),) in trace.peaks), \
            f"seed {seed} missed the line: {trace.peaks}"


@pytest.mark.parametrize("chain", [(0, 0), (1, 0, 2), (0, 2, 1, 0)])
def test_chain_images_are_real_and_levels_hold_one_count_array(random_sd,
                                                               chain):
    # real dipoles and real filters give real images: a level draws one
    # count array and charges N_s per query of its cells
    bins = [[(0.5, 1.0), (1.0, 1.5)]] * (len(chain) - 1)
    u, degree = estimate_mod._chain_images(random_sd, chain, bins,
                                           [0.1] * len(bins), 1e-2)
    assert u.dtype == np.float64
    assert u.shape == (random_sd.n_states, 2 ** len(bins))
    trace = binary_search_nd(random_sd, chain, 1.0, 0.05, seed=1)
    for lvl in trace.levels:
        assert "counts_im" not in lvl
        assert len(lvl["counts"]) == math.prod(lvl["nbins"])
        assert lvl["charge"] % trace.config["N_s"] == 0


def test_search_2d_finds_negative_amplitude_box(dimer, dimer_sd):
    # the only bright depth-2 box on the dimer has amplitude -0.179: the
    # absolute deviation score must still flag it
    trace = binary_search_nd(dimer_sd, (0, 0, 0), 0.2, 0.004, seed=5)
    assert trace.dims == 2
    assert trace.found
    hit = [box for box in trace.peaks
           if all(lo <= BRIGHT < hi for lo, hi in box)]
    assert hit, f"no peak box contains the bright line twice: {trace.peaks}"
    amp = nested_window_amplitude(dimer_sd, (0, 0, 0), hit[0])
    assert amp < -0.1


def test_search_nd_validation(dimer_sd):
    for axes in ((), (0,)):
        with pytest.raises(InputError):
            binary_search_nd(dimer_sd, axes, 0.2, 0.25)


# ---------------------------------------------------------------------------
# window estimation
# ---------------------------------------------------------------------------

WINDOW = [(4.35, 4.55)]       # the dimer's bright line, margins line-free


def test_estimate_window_exact(dimer_sd):
    est = estimate_box(dimer_sd, (0, 0), WINDOW, 1e-3, method="exact")
    oracle = nested_window_amplitude(dimer_sd, (0, 0), WINDOW)
    # margins are line-free, so only the filter ripple remains
    assert abs(est.value - oracle) <= est.eps_filter * abs(oracle) + 1e-12
    assert est.rounds >= 1
    assert est.queries == est.degree * est.shots * est.rounds
    assert est.zeta == pytest.approx(1.0)


def test_estimate_window_ae_within_budget(dimer_sd):
    exact = estimate_box(dimer_sd, (0, 0), WINDOW, 2e-3, method="exact")
    ae = estimate_box(dimer_sd, (0, 0), WINDOW, 2e-3, method="ae", seed=9)
    assert abs(ae.value - exact.value) <= 1e-3 + 1e-12   # eps_stat = eps/2
    assert ae.shots < exact.shots * 2 + 4


def test_estimate_window_direct(dimer_sd):
    eps = 2e-3
    exact = estimate_box(dimer_sd, (0, 0), WINDOW, eps, method="exact")
    direct = estimate_box(dimer_sd, (0, 0), WINDOW, eps, method="direct",
                          seed=0)
    assert abs(direct.value - exact.value) <= eps
    assert direct.shots > exact.shots            # 1/eps^2 vs 1/eps scaling


def test_estimate_window_validation(dimer_sd):
    with pytest.raises(InputError):
        estimate_box(dimer_sd, (0, 0), [(4.4, 4.5)], 1e-3, method="qpe")
    with pytest.raises(InputError):
        estimate_box(dimer_sd, (0, 0), [(4.4, 4.5)], 0.0)
    with pytest.raises(InputError):
        estimate_box(dimer_sd, (0, 0), [(4.5, 4.4)], 1e-3)
    with pytest.raises(InputError):
        estimate_box(dimer_sd, (0, 0), [(4.4, 4.5)], 1e-3, delta=0.2)


def test_estimate_box_depth_one_matches_window(dimer, dimer_sd):
    # the exact depth-1 estimate is the filtered chain's amplitude: the
    # dense reference applies the same certified filter to the Fock matrices
    est = estimate_box(dimer_sd, (0, 0), WINDOW, 1e-3, method="exact")
    want = est.zeta * dense_box_value(dimer, dimer_sd, (0, 0), WINDOW,
                                      [est.delta], est.eps_filter / est.zeta)
    assert abs(est.value - want) <= 1e-9 * abs(want)
    assert est.queries == est.degree * est.shots * est.rounds


@pytest.mark.parametrize("which", ["dimer", "random"])
@settings(max_examples=10, deadline=None)
@given(frac=st.floats(0.0, 1.0), width=st.floats(0.1, 0.8),
       ax_in=st.integers(0, 2), ax_out=st.integers(0, 2))
def test_estimate_window_is_the_depth_one_box(which, frac, width, ax_in,
                                              ax_out, dimer_sd, random_sd):
    # a depth-1 box on the chain (ax_out, ax_in) estimates the window sum
    # of d_out[0,j] d_in[j,0] within criterion 04's bound: filter error
    # plus the mass in the delta-margins
    sd = dimer_sd if which == "dimer" else random_sd
    lo = frac * float(sd.eigenvalues[-1])
    hi = lo + width
    est = estimate_box(sd, (ax_out, ax_in), [(lo, hi)], 2e-2, method="exact")
    d = est.delta
    lam = sd.eigenvalues[1:]
    weights = np.abs(sd.transition_dipoles[ax_out][0, 1:]
                     * sd.transition_dipoles[ax_in][1:, 0])
    in_margin = ((lo - d <= lam) & (lam <= lo + d)) | \
        ((hi - d <= lam) & (lam <= hi + d))
    ref = nested_window_amplitude(sd, (ax_out, ax_in), [(lo, hi)])
    assert abs(est.value - ref) <= (est.eps_filter + weights[in_margin].sum()
                                    + 1e-12)


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


@pytest.mark.parametrize("windows", [[], [(4.4, 4.5, 4.6)], [4.4],
                                     [(4.4, 4.5), 4.6], None], ids=repr)
def test_estimate_box_rejects_windows_that_are_not_pairs(dimer_sd, windows):
    # unchecked, these escaped as IndexError, ValueError or TypeError
    with pytest.raises(InputError, match="window"):
        estimate_box(dimer_sd, (0, 0), windows, 1e-3)


@pytest.mark.parametrize("method", ["direct", "ae", "exact"])
@pytest.mark.parametrize("eps", [np.inf, np.nan, -np.inf, 0.0])
def test_estimate_box_rejects_a_non_finite_eps(dimer_sd, method, eps):
    # unchecked, an infinite eps gives nan (ae), ZeroDivisionError
    # (direct) or a zero-query estimate (exact)
    with pytest.raises(InputError, match="eps"):
        estimate_box(dimer_sd, (0, 0), WINDOW, eps, method=method)


# ---------------------------------------------------------------------------
# filters shared across cells
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(alpha_shift=st.floats(1e-3, 1e3), frac=st.floats(0.0, 1.0))
def test_rescale_rounds_up_by_less_than_one_step(alpha_shift, frac):
    wc = frac * alpha_shift
    tight = max(wc, alpha_shift - wc)
    s = _rescale(wc, alpha_shift)
    assert tight <= s < 2.0 ** (1.0 / RESCALE_STEPS) * tight
    k = RESCALE_STEPS * math.log2(s)
    assert abs(k - round(k)) < 1e-9


def _grid_spectrum(alpha_shift, points):
    """SpectralData whose 'eigenvalues' are the given excitation energies:
    the filter layer reads nothing else."""
    return SpectralData(
        eigenvalues=np.asarray(points), eigenvectors=None, basis_states=None,
        transition_dipoles=None, ground_energy=0.0, alpha=alpha_shift,
        alpha_shift=alpha_shift, betas=(1.0, 1.0, 1.0))


@settings(max_examples=25, deadline=None)
@given(alpha_shift=st.floats(0.5, 20.0), level=st.integers(1, 6),
       bins=st.lists(st.integers(0, 63), min_size=1, max_size=6),
       ramp=st.floats(0.1, 0.45), log_eps=st.floats(-3.0, -1.0))
def test_shared_filter_meets_each_cells_own_regions(alpha_shift, level, bins,
                                                    ramp, log_eps):
    """Cells of one width across [0, alpha_shift], as a search level splits
    it, share a polynomial whenever their rescales round alike; on a dense
    grid of excitation energies each cell's values meet the three-region
    bounds of its own window and margin."""
    width = alpha_shift / 2 ** level
    cells = [(i * width, (i + 1) * width)
             for i in dict.fromkeys(b % 2 ** level for b in bins)]
    delta, eps = ramp * width, 10.0 ** log_eps
    x = np.linspace(0.0, alpha_shift, 20001)
    sd = _grid_spectrum(alpha_shift, x)
    [(degrees, vals)] = _filter_columns(sd, [cells], [delta], eps)
    rescales = {_rescale((lo + hi) / 2.0, alpha_shift) for lo, hi in cells}
    assert len(sd.filters) == len(rescales) <= len(cells)
    assert set(degrees) == {f.degree for f in sd.filters.values()}
    for (lo, hi), v in zip(cells, vals.T):
        dist = np.abs(x - (lo + hi) / 2.0)
        inner = dist <= (hi - lo) / 2.0 - delta
        outer = dist >= (hi - lo) / 2.0 + delta
        assert np.min(v[inner]) >= 1.0 - eps
        if outer.any():
            assert np.max(v[outer]) <= eps
        assert np.min(v) >= 0.0 and np.max(v) <= 1.0 + eps


def test_readme_order3_builds_14_filters(dimer):
    # filters built on README scenario 3 when cells share polynomials by
    # shape; a change to the rescale rounding or the shape key moves them
    res = run_pipeline(dimer, gamma=0.2, order=3, axes=(0, 0, 0, 0),
                       grid=np.linspace(1.0, 3.9, 3), method="exact")
    filters = res["sd"].filters.values()
    assert len(filters) == 14
    assert sum(f.degree for f in filters) == 9222


def test_a_level_evaluates_each_shape_once(dimer, monkeypatch):
    # one eval call per filter shape over every window it serves, and none
    # for windows already evaluated on this spectrum
    calls = []
    real_eval = ChebyshevFilter.eval

    def counting_eval(self, x):
        calls.append(len(x))
        return real_eval(self, x)

    monkeypatch.setattr(ChebyshevFilter, "eval", counting_eval)
    sd = diagonalize(dimer)
    cells = [(i * 0.5, (i + 1) * 0.5) for i in range(8)]
    _filter_columns(sd, [cells], [0.1], 1e-2)
    assert len(calls) == len(sd.filters) < len(cells)
    assert sum(calls) == len(cells) * sd.n_states
    _filter_columns(sd, [cells[:3], cells[2:]], [0.1, 0.1], 1e-2)
    assert len(calls) == len(sd.filters)


# ---------------------------------------------------------------------------
# what the spectrum owns, and what a run leaves behind
# ---------------------------------------------------------------------------

def test_fresh_spectrum_gives_identical_estimate(dimer, dimer_sd):
    before = estimate_box(dimer_sd, (0, 0), WINDOW, 1e-3, method="exact")
    fresh = diagonalize(dimer)
    assert not fresh.filter_values
    after = estimate_box(fresh, (0, 0), WINDOW, 1e-3, method="exact")
    assert after.as_dict() == before.as_dict()
    assert fresh.filter_values


def _zero_y_dipole():
    model = make_random_model(3, 2, 4)
    dipole = model.dipole.copy()
    dipole[1] = 0.0
    return dataclasses.replace(model, dipole=dipole)


# beside the two fixtures: the frozen-spectrum models, the fillings 0, 1
# and N, and a model whose y dipole is all zero
ONE_NORM_MODELS = {
    **{"random-n{}-ne{}-s{}".format(*args): functools.partial(
        make_random_model, *args) for args in sorted(FROZEN_SPECTRA)},
    "filling-0": functools.partial(make_random_model, 3, 0, 2),
    "filling-1": functools.partial(make_random_model, 3, 1, 2),
    "filling-N": functools.partial(make_random_model, 3, 6, 2),
    "zero-y-dipole": _zero_y_dipole,
}


@pytest.mark.parametrize("names", [("dimer", "dimer_sd"),
                                   ("random_model", "random_sd")]
                         + [(name, None) for name in ONE_NORM_MODELS])
@pytest.mark.filterwarnings("ignore:ground state degenerate")  # filling 1
def test_spectrum_carries_lcu_one_norms(request, names):
    if names[1] is None:
        model = ONE_NORM_MODELS[names[0]]()
        sd = diagonalize(model)
    else:
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
    if names[0] == "zero-y-dipole":
        assert sd.betas[1] == 0.0 and sd.betas[2] > 0


@pytest.mark.parametrize("names", [("dimer", "dimer_sd"),
                                   ("random_model", "random_sd")])
def test_measurement_ignores_the_nuclear_shift(request, names):
    # the nuclear shift moves every total energy and no excitation energy,
    # so searches and estimates on a shifted model are bit-identical
    model, sd = (request.getfixturevalue(n) for n in names)
    gamma = sd.alpha_shift / 16.0
    lo = 0.5 * float(sd.eigenvalues[1])
    wins = [(lo, lo + 0.5)] * 2
    ref_trace = binary_search_nd(sd, (0, 0), gamma, 0.05, seed=4).as_dict()
    ref_box = estimate_box(sd, (0, 0, 0), wins, 2e-2, seed=2).as_dict()
    for shift in (0.0, 1.2345678901, -7.5):
        shifted = diagonalize(dataclasses.replace(model, nuclear_shift=shift))
        assert shifted.ground_energy == pytest.approx(
            sd.ground_energy + shift, abs=1e-12)
        assert shifted.alpha_shift == sd.alpha_shift
        assert binary_search_nd(shifted, (0, 0), gamma, 0.05,
                                seed=4).as_dict() == ref_trace
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
