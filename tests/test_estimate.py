"""Measurement simulation: Hadamard channels, bin search, window estimates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from respsim import (
    BinSearchConfig,
    HadamardChannel,
    InputError,
    binary_search_1d,
    binary_search_nd,
    build_hamiltonian,
    build_dipole,
    build_indicator,
    channel_from_chain,
    diagonalize,
    encode_lcu,
    estimate_box,
    estimate_window,
    filtered_chain,
    imaginary_part_channel,
    inequality_test,
    jordan_wigner,
    lcu_hadamard_distribution,
    lcu_one_norm,
    nested_window_amplitude,
    sample_hadamard,
    sort_bins,
    window_amplitude,
)
from respsim import estimate as estimate_mod
from respsim.estimate import FILTER_MEMO_CAP, P0_SLACK, prepare

BRIGHT = 2.0 * np.sqrt(5.0)


def _chan(value, variant="re", zeta=1.0, ground=0j, **kw):
    return HadamardChannel(value=complex(value), ground_term=ground,
                           zeta=zeta, variant=variant, **kw)


# ---------------------------------------------------------------------------
# Hadamard channels
# ---------------------------------------------------------------------------

def test_channel_p0():
    ch = _chan(0.3 + 0.7j, ground=0.1 + 0j)
    assert ch.p0 == pytest.approx(0.5 * (1.0 + 0.4))
    assert imaginary_part_channel(ch).p0 == pytest.approx(0.5 * (1.0 + 0.7))


def test_channel_validation():
    with pytest.raises(InputError):
        _chan(0.1, variant="abs")
    with pytest.raises(InputError):
        _chan(0.1, zeta=0.0)
    # mild filter overshoot is clipped, beyond the slack it is rejected
    assert _chan(1.0 + P0_SLACK / 2).p0 == 1.0
    with pytest.raises(InputError):
        _ = _chan(1.0 + 2 * P0_SLACK).p0


def test_sample_hadamard_is_seed_deterministic():
    ch = _chan(0.25, seed=42)
    assert sample_hadamard(ch, 1000) == sample_hadamard(ch, 1000)
    f = sample_hadamard(ch, 200000)
    assert f == pytest.approx(ch.p0, abs=5e-3)
    with pytest.raises(InputError):
        sample_hadamard(ch, 0)


def test_channel_from_filtered_chain(dimer, dimer_sd):
    # the chain's Hadamard amplitude is the filtered dipole sandwich / zeta
    n = dimer.n_orbitals
    U_H = encode_lcu(jordan_wigner(build_hamiltonian(dimer.T, dimer.V), n))
    U_D = encode_lcu(jordan_wigner(build_dipole(dimer.dipole[0]), n))
    omega = 3.0
    s = U_H.subnorm + omega
    filt = build_indicator(0.0, 0.06, 0.015, 1e-3)
    chain = filtered_chain(U_D, filt, U_H, U_D, omega=omega)

    lam, U = np.linalg.eigh(U_H.op.matrix)
    ground = U[:, 0]
    assert lam[0] == pytest.approx(dimer_sd.ground_energy, abs=1e-10)
    ch = channel_from_chain(chain, ground)

    E0 = dimer_sd.ground_energy
    expect = 0j
    for j in range(dimer_sd.n_states):
        pos = (dimer_sd.eigenvalues[j] + E0 - omega) / s
        expect += (filt.eval(pos)
                   * dimer_sd.transition_dipoles[0][0, j]
                   * dimer_sd.transition_dipoles[0][j, 0])
    assert ch.value == pytest.approx(expect / chain.zeta, abs=1e-9)
    # the bright line dominates and the filter passes it at weight ~1
    assert ch.value.real == pytest.approx(
        window_amplitude(dimer_sd, 0, 0, 4.4, 4.5).real, abs=2e-3)
    with pytest.raises(InputError):
        channel_from_chain(chain, 2.0 * ground)


# ---------------------------------------------------------------------------
# LCU distribution and inequality testing
# ---------------------------------------------------------------------------

def test_lcu_distribution_formula():
    chans = [_chan(0.4), _chan(-0.2), _chan(0.0)]
    dist = lcu_hadamard_distribution(chans)
    assert dist.n_bins == 3
    assert dist.probabilities[:3] == pytest.approx(
        [(1 + 0.4) / 6, (1 - 0.2) / 6, 1.0 / 6])
    assert dist.probabilities.sum() == pytest.approx(1.0)
    assert dist.probabilities[-1] == pytest.approx(
        1.0 - (3 + 0.2) / 6)


def test_lcu_distribution_respects_variants():
    z = 0.6 - 0.3j
    dist = lcu_hadamard_distribution([_chan(z, "re"), _chan(z, "im")])
    assert dist.probabilities[0] == pytest.approx((1 + 0.6) / 4)
    assert dist.probabilities[1] == pytest.approx((1 - 0.3) / 4)


def test_lcu_distribution_validation():
    with pytest.raises(InputError):
        lcu_hadamard_distribution([])
    with pytest.raises(InputError):
        lcu_hadamard_distribution([_chan(0.1, zeta=1.0),
                                   _chan(0.1, zeta=2.0)])
    with pytest.raises(InputError):
        lcu_hadamard_distribution([_chan(1.5)])


def test_sample_counts():
    dist = lcu_hadamard_distribution([_chan(0.5), _chan(-0.5)])
    rng = np.random.default_rng(7)
    counts = dist.sample_counts(rng, 10000)
    assert counts.shape == (2,)
    assert counts.sum() <= 10000                      # discards dropped
    assert counts[0] / 10000 == pytest.approx(1.5 / 4, abs=0.02)
    assert counts[1] / 10000 == pytest.approx(0.5 / 4, abs=0.02)


def test_inequality_test():
    assert inequality_test(300, 100, 1000, 0.1) == "greater"
    assert inequality_test(100, 300, 1000, 0.1) == "less"
    assert inequality_test(150, 100, 1000, 0.1) == "indistinguishable"
    with pytest.raises(InputError):
        inequality_test(1, 0, 0, 0.1)


@settings(max_examples=50, deadline=None)
@given(data=st.data(), tau=st.floats(0.05, 0.5), extra=st.integers(0, 300))
def test_sort_bins_relation_matrix(data, tau, extra):
    cfg = BinSearchConfig(gamma=0.5, branching=3, tau=0.15, N_s=200)
    R = sort_bins(None, cfg, counts=np.array([80, 20, 50]))
    assert R[0, 1] == 1 and R[1, 0] == -1             # gap 0.30 > tau
    assert R[0, 2] == 0 and R[2, 0] == 0              # gap 0.15, not > tau
    assert R[2, 1] == 0                               # gap 0.15
    assert np.array_equal(R, -R.T)
    assert np.all(np.diag(R) == 0)
    # on any counts the matrix is the pairwise inequality test
    n_min = BinSearchConfig(gamma=0.5, tau=tau).N_s
    cfg = BinSearchConfig(gamma=0.5, tau=tau, N_s=n_min + extra)
    counts = data.draw(st.lists(st.integers(0, cfg.N_s), min_size=1,
                                max_size=9))
    sign = {"greater": 1, "less": -1, "indistinguishable": 0}
    expect = [[sign[inequality_test(a, b, cfg.N_s, tau)] for b in counts]
              for a in counts]
    assert sort_bins(None, cfg, counts=np.array(counts)).tolist() == expect


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

def test_search_1d_finds_bright_line(dimer, dimer_sd):
    cfg = BinSearchConfig(gamma=0.2, tau=0.02, span=(0.0, 6.4))
    trace = binary_search_1d(dimer, (0, 0), cfg, seed=3, sd=dimer_sd)
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


def test_search_1d_trace_is_deterministic(dimer, dimer_sd):
    cfg = BinSearchConfig(gamma=0.4, tau=0.05, span=(0.0, 6.4))
    a = binary_search_1d(dimer, (0, 0), cfg, seed=11, sd=dimer_sd)
    b = binary_search_1d(dimer, (0, 0), cfg, seed=11, sd=dimer_sd)
    assert a.to_json() == b.to_json()


def test_search_1d_dark_axis_finds_nothing(dimer, dimer_sd):
    cfg = BinSearchConfig(gamma=0.4, span=(0.0, 6.4))
    trace = binary_search_1d(dimer, (1, 1), cfg, seed=0, sd=dimer_sd)
    assert not trace.found
    assert trace.peaks == []
    assert trace.levels[0]["decision"] == "empty"


def test_search_2d_finds_negative_amplitude_box(dimer, dimer_sd):
    # the only bright depth-2 box on the dimer has amplitude -0.179: the
    # two-quadrature deviation score must still flag it
    cfg = BinSearchConfig(gamma=0.2, tau=0.004, span=(0.0, 6.4))
    trace = binary_search_nd(dimer, (0, 0, 0), 2, cfg, seed=5, sd=dimer_sd)
    assert trace.dims == 2
    assert trace.found
    hit = [box for box in trace.peaks
           if all(lo <= BRIGHT < hi for lo, hi in box)]
    assert hit, f"no peak box contains the bright line twice: {trace.peaks}"
    amp = nested_window_amplitude(dimer_sd, (0, 0, 0), hit[0])
    assert amp.real < -0.1


def test_search_nd_validation(dimer):
    cfg = BinSearchConfig(gamma=0.2)
    with pytest.raises(InputError):
        binary_search_nd(dimer, (0, 0), 0, cfg)
    with pytest.raises(InputError):
        binary_search_nd(dimer, (0, 0), 2, cfg)


# ---------------------------------------------------------------------------
# window estimation
# ---------------------------------------------------------------------------

def test_estimate_window_exact(dimer, dimer_sd):
    est = estimate_window(dimer, (0, 0), (4.35, 4.55), 1e-3,
                          method="exact", sd=dimer_sd)
    oracle = window_amplitude(dimer_sd, 0, 0, 4.35, 4.55)
    # margins are line-free, so only the filter ripple remains
    assert abs(est.value - oracle) <= est.eps_filter * abs(oracle) + 1e-12
    assert est.rounds >= 1
    assert est.queries == est.degree * est.shots * est.rounds
    assert est.zeta == pytest.approx(1.0)


def test_estimate_window_ae_within_budget(dimer, dimer_sd):
    exact = estimate_window(dimer, (0, 0), (4.35, 4.55), 2e-3,
                            method="exact", sd=dimer_sd)
    ae = estimate_window(dimer, (0, 0), (4.35, 4.55), 2e-3,
                         method="ae", seed=9, sd=dimer_sd)
    assert abs(ae.value - exact.value) <= 1e-3 + 1e-12   # eps_stat = eps/2
    assert ae.shots < exact.shots * 2 + 4


def test_estimate_window_direct(dimer, dimer_sd):
    eps = 2e-3
    exact = estimate_window(dimer, (0, 0), (4.35, 4.55), eps,
                            method="exact", sd=dimer_sd)
    direct = estimate_window(dimer, (0, 0), (4.35, 4.55), eps,
                             method="direct", seed=0, sd=dimer_sd)
    assert abs(direct.value - exact.value) <= eps
    assert direct.shots > exact.shots            # 1/eps^2 vs 1/eps scaling


def test_estimate_window_validation(dimer, dimer_sd):
    with pytest.raises(InputError):
        estimate_window(dimer, (0, 0), (4.4, 4.5), 1e-3, method="qpe",
                        sd=dimer_sd)
    with pytest.raises(InputError):
        estimate_window(dimer, (0, 0), (4.4, 4.5), 0.0, sd=dimer_sd)
    with pytest.raises(InputError):
        estimate_window(dimer, (0, 0), (4.5, 4.4), 1e-3, sd=dimer_sd)
    with pytest.raises(InputError):
        estimate_window(dimer, (0, 0), (4.0, 4.5), 1e-3, gamma=0.2,
                        sd=dimer_sd)
    with pytest.raises(InputError):
        estimate_window(dimer, (0, 0), (4.4, 4.5), 1e-3, delta=0.2,
                        sd=dimer_sd)


def test_estimate_box_depth_one_matches_window(dimer, dimer_sd):
    w = (4.35, 4.55)
    a = estimate_window(dimer, (0, 0), w, 1e-3, method="exact", sd=dimer_sd)
    b = estimate_box(dimer, (0, 0), [w], 1e-3, method="exact", sd=dimer_sd)
    assert b.value == pytest.approx(a.value, abs=1e-12)
    assert (b.rounds, b.queries, b.degree) == (a.rounds, a.queries, a.degree)


def test_estimate_box_depth_three(dimer, dimer_sd):
    wins = [(4.4, 4.5)] * 3
    est = estimate_box(dimer, (0, 0, 0, 0), wins, 2e-2,
                       method="exact", sd=dimer_sd)
    oracle = nested_window_amplitude(dimer_sd, (0, 0, 0, 0), wins)
    assert oracle == pytest.approx(0.16, abs=1e-12)
    assert abs(est.value - oracle) <= 0.01


def test_estimate_box_validation(dimer, dimer_sd):
    with pytest.raises(InputError):
        estimate_box(dimer, (0, 0, 0), [(4.4, 4.5)], 1e-3, sd=dimer_sd)
    with pytest.raises(InputError):
        estimate_box(dimer, (0, 0), [(4.5, 4.4)], 1e-3, sd=dimer_sd)
    with pytest.raises(InputError):
        estimate_box(dimer, (0, 0, 0), [(4.4, 4.5), (4.4, 4.5)], 1e-3,
                     delta=0.06, sd=dimer_sd)


@pytest.mark.parametrize("which", ["dimer", "random"])
@settings(max_examples=10, deadline=None)
@given(frac=st.floats(0.0, 1.0), width=st.floats(0.1, 0.8),
       ax_in=st.integers(0, 2), ax_out=st.integers(0, 2))
def test_estimate_window_is_the_depth_one_box(which, frac, width, ax_in,
                                              ax_out, dimer, dimer_sd,
                                              random_model, random_sd):
    model, sd = ((dimer, dimer_sd) if which == "dimer"
                 else (random_model, random_sd))
    lo = frac * float(sd.eigenvalues[-1])
    hi = lo + width
    a = estimate_window(model, (ax_in, ax_out), (lo, hi), 2e-2,
                        method="exact", sd=sd)
    b = estimate_box(model, (ax_out, ax_in), [(lo, hi)], 2e-2,
                     method="exact", sd=sd)
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
# what the spectrum owns, and the process-wide filter memo
# ---------------------------------------------------------------------------

def test_fresh_spectrum_gives_identical_estimate(dimer, dimer_sd):
    before = estimate_window(dimer, (0, 0), (4.35, 4.55), 1e-3,
                             method="exact", sd=dimer_sd)
    fresh = diagonalize(dimer)
    assert not fresh.filter_values
    after = estimate_window(dimer, (0, 0), (4.35, 4.55), 1e-3,
                            method="exact", sd=fresh)
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
        prep = prepare(model, sd, (1, 0, 2))
        assert prep.betas == (1.0, sd.betas[0], 1.0)
        assert prep.zeta == sd.betas[0]


def test_filter_memo_evicts_oldest_at_cap(monkeypatch):
    built = []

    def fake_build(lo, hi, delta, eps):
        built.append(hi)
        return hi

    monkeypatch.setattr(estimate_mod, "_FILTER_MEMO", {})
    monkeypatch.setattr(estimate_mod, "build_indicator", fake_build)
    keys = [estimate_mod._cached_filter(0.1 + 1e-3 * k, 0.01, 1e-2)[0]
            for k in range(FILTER_MEMO_CAP + 1)]
    memo = estimate_mod._FILTER_MEMO
    assert len(memo) == FILTER_MEMO_CAP
    assert list(memo) == keys[1:]
    # a hit builds nothing; a rebuilt evictee pushes out the next oldest
    estimate_mod._cached_filter(0.1 + 1e-3, 0.01, 1e-2)
    assert len(built) == FILTER_MEMO_CAP + 1
    estimate_mod._cached_filter(0.1, 0.01, 1e-2)
    assert len(built) == FILTER_MEMO_CAP + 2
    assert len(memo) == FILTER_MEMO_CAP
    assert list(memo) == keys[2:] + keys[:1]
