"""Exact diagonalization layer and sum-over-states references."""

import csv
import json
import math
import time
import tracemalloc

import numpy as np
import pytest

from conftest import (naive_model_matrices, naive_sector_spectrum,
                      run_with_blas_threads)
from oracle_reference import alpha3, alpha3_terms, chi1_time, r_pathways
from respsim import (
    InputError,
    ModelSpec,
    ResourceError,
    alpha1,
    diagonalize,
    make_hubbard_dimer,
    make_random_model,
    nested_window_amplitude,
    operators,
    r_pathway_fd,
    spectra,
)
from respsim.operators import DEFAULT_MODE_CAP

SQRT5 = np.sqrt(5.0)


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------

def test_dimer_spectrum(dimer_sd):
    w = dimer_sd.eigenvalues
    assert w[0] == 0.0
    assert np.allclose(w[1:4], SQRT5 - 1.0, atol=1e-10)
    assert w[4] == pytest.approx(SQRT5 + 1.0, abs=1e-10)
    assert w[5] == pytest.approx(2.0 * SQRT5, abs=1e-10)
    assert dimer_sd.ground_energy == pytest.approx(1.0 - SQRT5, abs=1e-12)
    assert not dimer_sd.degenerate_ground
    assert dimer_sd.n_states == 6


def test_dimer_matches_naive_diagonalization(dimer, dimer_sd):
    w_naive, td_naive = naive_sector_spectrum(dimer)
    assert np.allclose(dimer_sd.eigenvalues, w_naive, atol=1e-10)
    # basis-independent quantities: ground moment and line strengths
    assert dimer_sd.transition_dipoles[0][0, 0] == pytest.approx(
        td_naive[0][0, 0], abs=1e-10)
    amps = dimer_sd.transition_dipoles[0][0, :] \
        * dimer_sd.transition_dipoles[0][:, 0]
    amps_naive = td_naive[0][0, :] * td_naive[0][:, 0]
    assert np.allclose(np.sort(amps), np.sort(amps_naive), atol=1e-10)


def test_dimer_ground_dipole(dimer_sd):
    assert dimer_sd.transition_dipoles[0][0, 0] == pytest.approx(
        2.0 / SQRT5, abs=1e-12)


def test_degenerate_ground_flag():
    flat = make_hubbard_dimer(t=0.0, U=2.0, d01=0.5)     # four-fold ground
    with pytest.warns(UserWarning, match="degenerate"):
        sd = diagonalize(flat)
    assert sd.degenerate_ground


def test_eigenvectors_live_on_the_sector_basis(random_model, random_sd):
    H, _ = naive_model_matrices(random_model)
    keep = random_sd.basis_states
    M = random_sd.n_states
    assert random_sd.eigenvectors.shape == (M, M)
    assert all(bin(int(b)).count("1") == random_model.n_electrons
               for b in keep)
    assert np.all(np.diff(keep) > 0)
    energies = random_sd.eigenvalues + random_sd.ground_energy
    vecs = random_sd.eigenvectors
    assert np.allclose(H[np.ix_(keep, keep)] @ vecs, vecs * energies,
                       atol=1e-10)


def test_diagonalize_builds_no_ladder_or_pauli_operator(monkeypatch, dimer,
                                                       random_model):
    # the sector blocks and one-norms come from the tensors; the
    # Jordan-Wigner map and both operator classes stay off the path
    def refuse(*args, **kwargs):
        raise AssertionError("diagonalize left the tensor path")

    want = [diagonalize(m) for m in (dimer, random_model)]
    monkeypatch.setattr(operators, "jordan_wigner", refuse)
    monkeypatch.setattr(spectra, "jordan_wigner", refuse, raising=False)
    monkeypatch.setattr(operators.PauliOperator, "dense", refuse)
    monkeypatch.setattr(operators.FermionOperator, "__init__", refuse)
    for m, sd in zip((dimer, random_model), want):
        got = diagonalize(m)
        assert got.alpha == sd.alpha and got.betas == sd.betas
        assert np.array_equal(got.eigenvalues, sd.eigenvalues)


def test_diagonalize_heap_peak():
    # 2.38 MiB at two BLAS threads; the Jordan-Wigner path peaked at 3.52
    model = make_random_model(5, 4, 0)
    tracemalloc.start()
    try:
        diagonalize(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2 ** 20


# alpha.hex(), betas, and sha256 of eigenvalues / transition_dipoles bytes.
# The one-norms are plain float sums of the Majorana-product sums, whose
# order of additions is the Jordan-Wigner map's, so they carry the Pauli
# one-norms' bits.  The spectra come from the sector blocks that
# sector_block builds from the tensors: one np.bincount adds each entry's
# (lower state, preimage, preimage) triples in order.  The hashes also
# depend on the LAPACK build (these come from numpy 2.4 with OpenBLAS
# 0.3.31 on x86-64) and on the BLAS thread count: np.linalg.eigh and
# evecs.T @ D @ evecs change bits with it, and at one thread (5, 4, 0) and
# (7, 4, 7) hash differently.  They were recorded with two threads, so a
# child process pinned to two recomputes them.
FROZEN_SPECTRA = {
    (3, 2, 4): ("0x1.cf2f188c30f9cp+3",
                ("0x1.b8aa1b4740af1p+2", "0x1.1b90c6d530605p+2",
                 "0x1.6cc40b2a6c752p+2"),
                "812119702507e1ef542ceab0fb555893de34c3fb6a2367b7297c133094d46a25",
                "7735bb8edb3d819557852f8d6cd6682eb7d3c4b6a848c235cc7af260409b9923"),
    (4, 4, 1): ("0x1.15ec581af04e2p+4",
                ("0x1.0a4f3a9366b40p+4", "0x1.1f6314199bf49p+3",
                 "0x1.6fef05a77b499p+3"),
                "b1856898c509c8fb690d9feb361f61ab3c5e0fcf159d654b4626c7e086bbcf12",
                "be94cde8cfbaeeeb97f8eff6b07b399be0b7c4f45e0d1b7a7b232c1b6ad2ca43"),
    (5, 4, 0): ("0x1.f99a75bf834edp+4",
                ("0x1.bd1068674945fp+3", "0x1.137e2ec1d1994p+4",
                 "0x1.272ba083d1589p+4"),
                "a1040c1d01e1dfad6a2d2c829a9c1a59526472d9764399dbe42e60b26261a43e",
                "ff2308571f498d1f1f29c850562272e78700fb66502823417e44422d7a973db2"),
    (7, 4, 7): ("0x1.1b5beaca06d50p+6",
                ("0x1.d68ab08980c27p+4", "0x1.26a5aeb6218f9p+5",
                 "0x1.055acaa546a99p+5"),
                "3a085c4e7e65d2dcb59bbbbf015510a67c5699f1a46fb74c404e4fb4dd9051ac",
                "3af34e645f543a2ef2e47884c9fe0e579e66f848baefa4bd169b8ec0660493d2"),
}


FROZEN_CHILD = """
import hashlib, json, sys
from respsim import diagonalize, make_random_model
out = []
for args in json.loads(sys.argv[1]):
    sd = diagonalize(make_random_model(*args))
    out.append([args, sd.alpha.hex(), [b.hex() for b in sd.betas],
                hashlib.sha256(sd.eigenvalues.tobytes()).hexdigest(),
                hashlib.sha256(sd.transition_dipoles.tobytes()).hexdigest()])
print(json.dumps(out))
"""


@pytest.fixture(scope="module")
def two_thread_spectra():
    """FROZEN_SPECTRA's fields as a two-thread child computes them."""
    proc = run_with_blas_threads(2, "-c", FROZEN_CHILD,
                                 json.dumps(sorted(FROZEN_SPECTRA)))
    return {tuple(args): (alpha, tuple(betas), ev, td)
            for args, alpha, betas, ev, td in json.loads(proc.stdout)}


@pytest.mark.parametrize("args", sorted(FROZEN_SPECTRA))
def test_diagonalize_frozen_bits(args, two_thread_spectra):
    alpha, betas, ev_sha, td_sha = two_thread_spectra[args]
    assert alpha == FROZEN_SPECTRA[args][0]
    assert betas == FROZEN_SPECTRA[args][1]
    assert ev_sha == FROZEN_SPECTRA[args][2]
    assert td_sha == FROZEN_SPECTRA[args][3]


def test_oracle_response_drift_across_blas_threads(tmp_path):
    """Byte-reproducibility holds at a fixed BLAS thread count only: an n=5
    oracle response from one and from two threads differs, but by at most
    1e-12 relative at any point (1.5e-13 seen)."""
    argv = "--toy random:n=5,ne=4,seed=0 --oracle-only".split()
    resp = {}
    for threads in (1, 2):
        out = tmp_path / str(threads)
        run_with_blas_threads(threads, "-m", "respsim.cli", *argv,
                              "--out", str(out))
        with open(out / "response.csv") as fh:
            rows = list(csv.DictReader(fh))
        resp[threads] = np.array([complex(float(r["re"]), float(r["im"]))
                                  for r in rows])
    assert len(resp[1]) == len(resp[2]) == 121
    assert np.max(np.abs(resp[1] - resp[2]) / np.abs(resp[2])) <= 1e-12


def test_diagonalize_enforces_mode_cap():
    n = DEFAULT_MODE_CAP + 1
    zero = ModelSpec(n, n // 2, np.zeros((n, n)), np.zeros((n,) * 4),
                     np.zeros((3, n, n)))
    with pytest.raises(ResourceError, match="cap"):
        diagonalize(zero)


def test_diagonalize_full_space_cap_allocates_nothing():
    # 20 modes: enumerating the full Fock space alone would take 8 MiB of
    # int64 states; the cap refuses before any of it is built
    n = 20
    zero = ModelSpec(n, 4, np.zeros((n, n)), np.zeros((n,) * 4),
                     np.zeros((3, n, n)))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="cap"):
            diagonalize(zero)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_random_models_up_to_the_cap_diagonalize_quickly():
    """5..7 spatial orbitals (7 fills the 14-mode cap) at four electrons,
    under 20 s of process CPU time in total (CPU time, so that other load
    on the host does not count against the budget)."""
    t0 = time.process_time()
    for n in (5, 6, 7):
        sd = diagonalize(make_random_model(n, 4, seed=n))
        assert sd.n_states == math.comb(2 * n, 4)
        assert sd.eigenvectors.shape == (sd.n_states, sd.n_states)
        assert np.isfinite(sd.alpha) and np.all(np.isfinite(sd.betas))
    assert time.process_time() - t0 < 20.0


# ---------------------------------------------------------------------------
# windowed amplitudes (a first-order window is the depth-1 chain)
# ---------------------------------------------------------------------------

def window(sd, ax_out, ax_in, a, b):
    return nested_window_amplitude(sd, (ax_out, ax_in), [(a, b)])


def test_bright_window_amplitude(dimer_sd):
    amp = window(dimer_sd, 0, 0, 4.4, 4.5)
    assert amp == pytest.approx(0.2, abs=1e-12)


def test_dark_windows(dimer_sd):
    # the triplet level and the odd singlet carry no dipole weight
    assert window(dimer_sd, 0, 0, 1.0, 1.5) == pytest.approx(0.0, abs=1e-12)
    assert window(dimer_sd, 0, 0, 3.0, 3.4) == pytest.approx(0.0, abs=1e-12)
    # zero-dipole axes give zero everywhere
    assert window(dimer_sd, 1, 1, 0.0, 6.0) == 0.0


def test_window_additivity_and_ground_exclusion(dimer_sd):
    # a tiling of the spectrum sums to the total excited-state weight
    total = window(dimer_sd, 0, 0, 0.0, 6.0)
    parts = sum(window(dimer_sd, 0, 0, a, a + 1.5)
                for a in np.arange(0.0, 6.0, 1.5))
    assert parts == pytest.approx(total, abs=1e-12)
    # <0|D^2|0> - <0|D|0>^2 = 0.2: the ground state never enters
    assert total == pytest.approx(0.2, abs=1e-12)


def test_window_validation(dimer_sd):
    with pytest.raises(InputError):
        window(dimer_sd, 0, 0, 2.0, 2.0)
    with pytest.raises(InputError):
        window(dimer_sd, 0, 0, 3.0, 2.0)


def test_nested_depth_two_value(dimer_sd):
    # 0 -> bright -> bright -> 0 through the diagonal dipole of the bright
    # state: (1/sqrt5)(-2/sqrt5)(1/sqrt5) * d01-scaling = -2/(5 sqrt5)
    val = nested_window_amplitude(dimer_sd, (0, 0, 0),
                                  ((4.4, 4.5), (4.4, 4.5)))
    assert val == pytest.approx(-2.0 / (5.0 * SQRT5), abs=1e-12)


def test_nested_depth_three_value(dimer_sd):
    val = nested_window_amplitude(dimer_sd, (0, 0, 0, 0),
                                  ((4.4, 4.5), (4.4, 4.5), (4.4, 4.5)))
    assert val == pytest.approx(0.16, abs=1e-12)
    # any window combination off the bright line vanishes
    assert nested_window_amplitude(
        dimer_sd, (0, 0, 0, 0),
        ((4.4, 4.5), (3.2, 3.3), (4.4, 4.5))) == pytest.approx(0.0, abs=1e-12)


def test_nested_validation(dimer_sd):
    with pytest.raises(InputError):
        nested_window_amplitude(dimer_sd, (0, 0), ((1.0, 2.0), (2.0, 3.0)))
    with pytest.raises(InputError):
        nested_window_amplitude(dimer_sd, (0, 0, 0), ((2.0, 1.0), (1.0, 2.0)))


# ---------------------------------------------------------------------------
# first order
# ---------------------------------------------------------------------------

def test_alpha1_frozen_values(dimer_sd):
    res = alpha1(dimer_sd, 0, 0, [0.0, 1.0, 3.2], 0.05)
    assert res.values[0] == pytest.approx(
        0.089431540157 + 0j, abs=1e-10)
    assert res.values[1] == pytest.approx(
        0.094135237135 + 0.000495383434j, abs=1e-10)
    assert res.values[2] == pytest.approx(
        0.183040660403 + 0.005999796295j, abs=1e-10)


def test_alpha1_matches_naive_sum(random_model, random_sd):
    w, td = naive_sector_spectrum(random_model)
    gamma = 0.07
    grid = np.array([0.0, 0.5, 1.3])
    expect = np.zeros(3, dtype=complex)
    for k, om in enumerate(grid):
        for n in range(1, len(w)):
            dd = td[0][0, n] * td[1][n, 0]
            expect[k] += dd / (w[n] - om - 1j * gamma)
            expect[k] += np.conj(dd / (w[n] + om - 1j * gamma))
    res = alpha1(random_sd, 0, 1, grid, gamma)
    assert np.allclose(res.values, expect, atol=1e-10)


def test_alpha1_validation(dimer_sd):
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(InputError):
            alpha1(dimer_sd, 0, 0, [1.0], gamma)


def test_chi1_time(dimer_sd, dimer):
    w, td = naive_sector_spectrum(dimer)
    gamma = 0.1
    s_grid = np.array([-0.5, 0.0, 0.7, 2.0])
    out = chi1_time(dimer_sd, 0, 0, s_grid, gamma)
    assert out[0] == 0.0
    for k, s in enumerate(s_grid):
        if s < 0:
            continue
        term = 1j * sum(td[0][0, n] * td[0][n, 0]
                        * np.exp((-1j * w[n] - gamma) * s)
                        for n in range(1, len(w)))
        assert out[k] == pytest.approx(term + np.conj(term), abs=1e-10)


# ---------------------------------------------------------------------------
# third-order pathways
# ---------------------------------------------------------------------------

def test_r1_time_domain_frozen(dimer_sd):
    val = r_pathways(dimer_sd, 1, (0, 0, 0, 0), 0.1, 0.2, 0.3, 0.1)
    assert val == pytest.approx(0.782645439404 - 0.095709868151j, abs=1e-10)


def test_pathways_superop_equals_sos(random_sd):
    rng = np.random.default_rng(21)
    for nu in (1, 2, 3, 4):
        for _ in range(3):
            s3, s2, s1 = rng.uniform(0.05, 1.5, size=3)
            a = r_pathways(random_sd, nu, (0, 1, 2, 0), s3, s2, s1, 0.1,
                           method="superop")
            b = r_pathways(random_sd, nu, (0, 1, 2, 0), s3, s2, s1, 0.1,
                           method="sos")
            assert a == pytest.approx(b, abs=1e-10)


def test_pathways_vanish_for_negative_delay(dimer_sd):
    assert r_pathways(dimer_sd, 1, (0, 0, 0, 0), -0.1, 0.2, 0.3, 0.1) == 0j


def test_pathway_validation(dimer_sd):
    with pytest.raises(InputError):
        r_pathways(dimer_sd, 5, (0, 0, 0, 0), 0.1, 0.1, 0.1, 0.1)
    with pytest.raises(InputError):
        r_pathways(dimer_sd, 1, (0, 0, 0), 0.1, 0.1, 0.1, 0.1)
    with pytest.raises(InputError):
        r_pathway_fd(dimer_sd, 5, (0, 0, 0, 0), 3.0, 2.0, 1.0, 0.1)
    with pytest.raises(InputError):
        r_pathway_fd(dimer_sd, 1, (0, 0, 0), 3.0, 2.0, 1.0, 0.1)
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(InputError):
            r_pathway_fd(dimer_sd, 1, (0, 0, 0, 0), 3.0, 2.0, 1.0, gamma)


def test_r1_frequency_domain_frozen(dimer_sd):
    val = r_pathway_fd(dimer_sd, 1, (0, 0, 0, 0), 3.3, 3.1, 3.0, 0.1)
    assert val == pytest.approx(0.068090306548 + 0.019057598257j, abs=1e-10)


def test_r1_frequency_domain_matches_naive_loop(random_model, random_sd):
    w, td = naive_sector_spectrum(random_model)
    i_tr, i3, i2, i1 = 0, 1, 2, 0
    g = 0.1
    O1, O2, O3 = 0.9, 1.7, 2.2
    K = len(w)
    expect = 0j
    for n in range(K):
        for l in range(K):
            for m in range(K):
                expect += (td[i1][n, 0] * td[i2][0, l] * td[i3][l, m]
                           * td[i_tr][m, n]
                           / ((w[n] - O1 - 1j * g)
                              * (w[n] - w[l] - O2 - 1j * g)
                              * (w[n] - w[m] - O3 - 1j * g)))
    got = r_pathway_fd(random_sd, 1, (i_tr, i3, i2, i1), O3, O2, O1, g)
    assert got == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# full third-order susceptibility
# ---------------------------------------------------------------------------

def test_enumerator_has_48_terms():
    omegas = (1.1, 0.9, 1.0)
    terms = list(alpha3_terms((0, 1, 2, 0), omegas))
    assert len(terms) == 48
    assert sum(1 for t in terms if t[3]) == 24      # half are conjugated
    # cumulative frequencies accumulate the permuted drive frequencies,
    # negated as a block on the conjugated half
    for nu, ax_time, (O1, O2, O3), conj in terms:
        assert nu in (1, 2, 3, 4)
        assert len(ax_time) == 3
        steps = (O1, O2 - O1, O3 - O2)
        assert np.allclose(sorted(abs(s) for s in steps), sorted(omegas))
        sign = -1.0 if conj else 1.0
        assert all(np.sign(s) == sign for s in steps)


def test_alpha3_symmetric_under_pair_permutation(dimer_sd):
    # exchanging (axis, frequency) pairs jointly leaves the average fixed
    a = alpha3(dimer_sd, (0, 0, 0, 0), (1.1, 0.9, 1.0), 0.1)
    b = alpha3(dimer_sd, (0, 0, 0, 0), (0.9, 1.0, 1.1), 0.1)
    assert a == pytest.approx(b, abs=1e-12)


def test_alpha3_is_the_symmetrized_pathway_sum(dimer_sd):
    axes = (0, 0, 0, 0)
    omegas = (1.2, 0.8, 1.0)
    gamma = 0.1
    total = 0j
    for nu, ax_time, (O1, O2, O3), conj in alpha3_terms(axes, omegas):
        val = r_pathway_fd(
            dimer_sd, nu, (axes[0], ax_time[2], ax_time[1], ax_time[0]),
            O3, O2, O1, gamma)
        total += np.conj(val) if conj else val
    assert alpha3(dimer_sd, axes, omegas, gamma) == pytest.approx(
        total / 6.0, abs=1e-12)
