"""Exact diagonalization layer and sum-over-states references."""

import csv
import dataclasses
import json
import math
import time
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (distinct_levels, naive_sector_spectrum,
                      run_with_blas_threads, spin_orbital)
from oracle_reference import (alpha3, alpha3_terms, chi1_time, pathway_fd,
                              r_pathways)
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
from respsim.models import DEFAULT_MODE_CAP, TWO_BODY_IMAGES
from respsim.operators import (build_dipole, build_hamiltonian, jordan_wigner,
                               lcu_one_norm)

SQRT5 = np.sqrt(5.0)


# ---------------------------------------------------------------------------
# diagonalization
# ---------------------------------------------------------------------------

def test_dimer_spectrum(dimer_sd):
    # the (N_alpha, N_beta) = (1, 1) block: the triplet keeps only its
    # M_S = 0 member
    w = dimer_sd.eigenvalues
    assert w[0] == 0.0
    assert w[1] == pytest.approx(SQRT5 - 1.0, abs=1e-10)
    assert w[2] == pytest.approx(SQRT5 + 1.0, abs=1e-10)
    assert w[3] == pytest.approx(2.0 * SQRT5, abs=1e-10)
    assert dimer_sd.ground_energy == pytest.approx(1.0 - SQRT5, abs=1e-12)
    assert not dimer_sd.degenerate_ground
    assert dimer_sd.n_states == 4


def test_dimer_matches_naive_diagonalization(dimer, dimer_sd):
    # the full sector holds the same distinct levels, the triplet three
    # times over; basis-independent quantities agree: the ground moment and
    # each level's line strength
    w_naive, td_naive = naive_sector_spectrum(dimer)
    levels = distinct_levels(dimer_sd.eigenvalues)
    assert np.allclose(levels, distinct_levels(w_naive), atol=1e-10)
    assert dimer_sd.transition_dipoles[0][0, 0] == pytest.approx(
        td_naive[0][0, 0], abs=1e-10)
    for w in levels:
        strength = [np.sum(td[0][0, near] * td[0][near, 0]) for td, near in
                    ((dimer_sd.transition_dipoles,
                      np.abs(dimer_sd.eigenvalues - w) < 1e-9),
                     (td_naive, np.abs(w_naive - w) < 1e-9))]
        assert strength[0] == pytest.approx(strength[1], abs=1e-10)


def test_dimer_ground_dipole(dimer_sd):
    assert dimer_sd.transition_dipoles[0][0, 0] == pytest.approx(
        2.0 / SQRT5, abs=1e-12)


def test_degenerate_ground_flag():
    flat = make_hubbard_dimer(t=0.0, U=2.0, d01=0.5)     # four-fold ground
    with pytest.warns(UserWarning, match="degenerate"):
        sd = diagonalize(flat)
    assert sd.degenerate_ground


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


def _diagonalize_peak(model):
    """diagonalize's tracemalloc heap peak, in bytes."""
    tracemalloc.start()
    try:
        diagonalize(model)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_diagonalize_heap_peak():
    # 0.42 MiB: the 100-state (N_alpha, N_beta) = (2, 2) block built on
    # 10 alpha and 10 beta strings, H freed after eigh, each rotated
    # dipole written in place; the bound leaves about 40% over that.  The
    # spin-orbital path (the lift, then one block structure for T and the
    # dipoles) peaked at 0.54 MiB, the whole 210-state sector at 2.09
    assert _diagonalize_peak(make_random_model(5, 4, 0)) <= 0.59 * 2 ** 20


def test_diagonalize_heap_peak_at_the_cap():
    # n = 7, eta = 7: the largest block, 35 x 35 strings, 1 225 states.
    # 58.6 MiB: the three rotated dipoles (34.3 MiB), the eigenvectors and
    # one (D_a x 1) U buffer (11.4 MiB each).  The spin-orbital path
    # peaked at 69.1 MiB here; a string build that kept a transposed copy
    # and made dense dipole temporaries, at 92.6
    assert _diagonalize_peak(make_random_model(7, 7, 0)) <= 62 * 2 ** 20


def test_diagonalize_forms_no_spin_orbital_tensor():
    # n = 7, eta = 1: a 7-state block on 7 alpha strings.  The lifted V
    # alone would be 14^4 doubles (300 KiB), and a list of the 2^14 Fock
    # states 128 KiB; the string build peaks at about 105 KiB (the
    # spin-orbital path at 1.33 MiB)
    assert _diagonalize_peak(make_random_model(7, 1, 0)) <= 14 ** 4 * 8 / 2


# alpha.hex(), betas, and sha256 of eigenvalues / transition_dipoles bytes.
# The one-norms are the spin-summed closed forms of spectra._one_norms,
# numpy sums over the spatial integrals' contractions, so they carry their
# bits, not the Pauli one-norms' (they differ at roundoff).  The spectra
# come from the string blocks: H from matrix products over the alpha and
# beta strings' excitation matrices, each dipole rotated through its
# D_a x 1 and 1 x D_b factors.  Re-recorded when the string blocks
# replaced the spin-orbital sector blocks, whose bits they move at
# roundoff: alpha by 1 ulp at (3, 2, 4) and (4, 4, 1) and by 3 at
# (5, 4, 0), two of the twelve betas by 1 ulp, and every hash.  The hashes also depend on
# the LAPACK build (these come from numpy 2.4 with OpenBLAS 0.3.31 on
# x86-64) and on the BLAS thread count: np.linalg.eigh and
# the rotations change bits with it, and at one thread (7, 4, 7)
# hashes differently.  They were recorded with two threads, so a child
# process pinned to two recomputes them.
FROZEN_SPECTRA = {
    (3, 2, 4): ("0x1.cf2f188c30f9bp+3",
                ("0x1.b8aa1b4740af2p+2", "0x1.1b90c6d530606p+2",
                 "0x1.6cc40b2a6c74fp+2"),
                "d98af40c067172ca08e2c33554a9d606323bf7336ca49219ecc327ab6ef5c0a3",
                "b75c86b92d63ce63ce69cf2a61aa746a2e923492d38edf0f23fe7743b75c9837"),
    (4, 4, 1): ("0x1.15ec581af04e7p+4",
                ("0x1.0a4f3a9366b41p+4", "0x1.1f6314199bf49p+3",
                 "0x1.6fef05a77b498p+3"),
                "ae4aec387616f776da91c32e42316646a3777fca136e5113521b900260b9ecd2",
                "29566a7da1d30bac4854257b1c758e2e721e7e5d896321ba8949f03b0dc19c49"),
    (5, 4, 0): ("0x1.f99a75bf83504p+4",
                ("0x1.bd1068674945cp+3", "0x1.137e2ec1d1995p+4",
                 "0x1.272ba083d158bp+4"),
                "6cb3d66443bc21395300e66396a83b826bc49c91458740a6b75712e5cf79da80",
                "7a30ee288706bfdc2a40c49090c59b30a5c736ebc31ad6be3426042cca3d41a0"),
    (7, 4, 7): ("0x1.1b5beaca06d7cp+6",
                ("0x1.d68ab08980c28p+4", "0x1.26a5aeb6218f9p+5",
                 "0x1.055acaa546a99p+5"),
                "98702f2938cc54d933211e2c17a06a495ac9d0a46cd792892fd762919fdd5a4b",
                "0b439474f88712143a1dab981acd81477938b0f3c26299bb815e2998c72b5317"),
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
    """Byte-reproducibility holds at a fixed BLAS thread count only: an n=6
    oracle response (a 225-state block) from one and from two threads
    differs, but by at most 1e-12 relative at any point (4.8e-14 seen).
    At n=5 the 100-state block gives the same bytes at both counts."""
    argv = "--toy random:n=6,ne=4,seed=0 --oracle-only".split()
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
    n = DEFAULT_MODE_CAP // 2 + 1          # spatial orbitals: 2n modes
    zero = ModelSpec(n, n // 2, np.zeros((n, n)), np.zeros((n,) * 4),
                     np.zeros((3, n, n)))
    with pytest.raises(ResourceError, match="cap"):
        diagonalize(zero)


def test_diagonalize_full_space_cap_allocates_nothing():
    # 20 modes: the (2, 2) block would hold 2 025 states, a 31 MiB H; the
    # cap refuses before any of it is built
    n = 10
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
        assert sd.n_states == math.comb(n, 2) ** 2
        assert sd.transition_dipoles.shape == (3, sd.n_states, sd.n_states)
        assert np.isfinite(sd.alpha) and np.all(np.isfinite(sd.betas))
    assert time.process_time() - t0 < 20.0


def pauli_sector_spectrum(model):
    """(excitations, transition_dipoles) on the model's whole eta-electron
    sector, ground level shifted to zero, from the sector blocks of the
    Jordan-Wigner images: the full-sector reference."""
    T, V, D = spin_orbital(model)
    keep = [b for b in range(2 ** len(T))
            if bin(b).count("1") == model.n_electrons]
    H = jordan_wigner(build_hamiltonian(T, V)).dense(states=keep).real
    vals, vecs = np.linalg.eigh(H)
    td = np.stack([vecs.T @ jordan_wigner(build_dipole(d)).dense(
        states=keep).real @ vecs for d in D])
    return vals - vals[0], td


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_block_spectrum_is_the_sector_spectrum(data, n, seed):
    # the (N_alpha, N_beta) block holds one member of every spin multiplet
    # of the eta-electron sector, and the dipoles never leave it
    eta = data.draw(st.integers(0, 2 * n), label="eta")
    model = make_random_model(n, eta, seed)
    sd = diagonalize(model)
    w, td = pauli_sector_spectrum(model)
    assert sd.n_states == math.comb(n, (eta + 1) // 2) * math.comb(n, eta // 2)
    gap = np.abs(np.subtract.outer(distinct_levels(w), sd.eigenvalues))
    assert np.all(gap.min(axis=1) < 1e-9)  # every sector level is there
    assert np.all(gap.min(axis=0) < 1e-9)  # and no other
    if sd.n_states > 1 and sd.eigenvalues[1] < 1e-9:
        # two multiplets share the ground level, so each side's ground
        # vector is its own mix of them
        event("ground level of two multiplets: responses not compared")
        return
    sector = dataclasses.replace(sd, eigenvalues=w, transition_dipoles=td)
    axes = data.draw(st.tuples(*[st.integers(0, 2)] * 4), label="axes")
    grid = np.linspace(0.0, 1.2 * w[-1] + 1.0, 25)
    want = alpha1(sector, *axes[:2], grid, 0.1).values
    got = alpha1(sd, *axes[:2], grid, 0.1).values
    # (1e-15 absolute where alpha1 vanishes: a triplet ground of two
    # electrons in two orbitals reaches no other triplet)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)) + 1e-15
    omega = data.draw(st.floats(0.0, 1.2 * w[-1] + 1.0), label="omega")
    want = r_pathway_fd(sector, axes, (omega,) * 3, 0.1).values[0]
    got = r_pathway_fd(sd, axes, (omega,) * 3, 0.1).values[0]
    # absolute up to |R| = 1; pathway values reach 4e4 near omega = 0,
    # where roundoff alone moves them by 1e-10
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


def _level_weights(w, td, ax, level):
    """sum over the states at `level` of td[ax][0, k] td[ax][k, 0]."""
    near = np.abs(w - level) < 1e-9
    return float(np.sum(td[ax][0, near] * td[ax][near, 0]))


def _chain(w, td, axes, levels):
    """<0| d_a0 P_1 d_a1 P_2 d_a2 P_3 d_a3 |0>, P_k onto the states within
    1e-9 of levels[k - 1] (never the ground state), as dense products."""
    v = td[axes[-1]][:, 0]
    for ax, level in zip(axes[-2::-1], levels[::-1]):
        v = td[ax] @ np.where(np.abs(w - level) < 1e-9, v, 0.0)
    return float(v[0])


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), seed=st.integers(0, 2 ** 16))
def test_string_spectrum_matches_the_naive_sector(data, n, seed):
    # the string block against the naive Fock matrices of the whole
    # eta-electron sector: the same levels, the same bright-line strength
    # at each, one order-3 chain amplitude, and one-norms equal to those
    # of the Jordan-Wigner images of the lifted operators
    eta = data.draw(st.integers(0, 2 * n), label="eta")
    model = make_random_model(n, eta, seed)
    sd = diagonalize(model)
    T, V, D = spin_orbital(model)
    want = [lcu_one_norm(jordan_wigner(build_hamiltonian(T, V)))]
    want += [lcu_one_norm(jordan_wigner(build_dipole(d))) for d in D]
    for got, ref in zip((sd.alpha, *sd.betas), want):
        assert abs(got - ref) <= 1e-12 * ref
    w, td = naive_sector_spectrum(model)
    levels = distinct_levels(w)
    gap = np.abs(np.subtract.outer(levels, sd.eigenvalues))
    assert np.all(gap.min(axis=1) < 1e-9) and np.all(gap.min(axis=0) < 1e-9)
    if sd.n_states > 1 and sd.eigenvalues[1] < 1e-9:
        event("ground level of two multiplets: amplitudes not compared")
        return
    scale = max(1.0, float(np.max(np.abs(td))) ** 4)
    for ax in range(3):
        for level in levels[1:]:
            assert abs(_level_weights(sd.eigenvalues, sd.transition_dipoles,
                                      ax, level)
                       - _level_weights(w, td, ax, level)) <= 1e-10 * scale
    if len(levels) > 1:
        axes = data.draw(st.tuples(*[st.integers(0, 2)] * 4), label="axes")
        chain = data.draw(st.lists(st.sampled_from(levels[1:]), min_size=3,
                                   max_size=3), label="levels")
        got = nested_window_amplitude(
            sd, axes, [(lvl - 1e-9, lvl + 1e-9) for lvl in chain])
        assert abs(got - _chain(w, td, axes, chain)) <= 1e-10 * scale


def string_basis(n, n_alpha, n_beta):
    """(Fock state, sign) of each product state |I, J>, in the order of the
    string blocks: alpha strings I, then beta strings J, in the order of
    itertools.combinations, alpha creators first.  The Fock state puts
    orbital p's alpha spin at mode 2p and its beta spin at 2p + 1, with its
    creators in ascending mode order (conftest), so the sign is the parity
    of the pairs of an alpha orbital above a beta one."""
    out = []
    for I in combinations(range(n), n_alpha):
        for J in combinations(range(n), n_beta):
            modes = [2 * p for p in I] + [2 * q + 1 for q in J]
            state = sum(1 << (2 * n - 1 - mode) for mode in modes)
            out.append((state, (-1) ** sum(q < p for p in I for q in J)))
    return out


def string_blocks(model, n_alpha, n_beta):
    """H and the three dipoles on the (n_alpha, n_beta) strings."""
    n = model.n_orbitals
    ea, eb = (spectra._excitations(n, c) for c in (n_alpha, n_beta))
    H = spectra._hamiltonian_block(model, ea, eb)
    D = [np.kron(np.tensordot(d, ea, 1), np.eye(eb.shape[1]))
         + np.kron(np.eye(ea.shape[1]), np.tensordot(d, eb, 1))
         for d in model.dipole.reshape(3, n * n)]
    return H, D


VALUES = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def spin_free_models(draw, values=VALUES, max_orbitals=4):
    """ModelSpecs on 1..max_orbitals spatial orbitals with a few entries:
    T and d symmetric, V set on all eight images of each entry."""
    n = draw(st.integers(1, max_orbitals))
    index = st.integers(0, n - 1)
    entries = st.lists(st.tuples(*[index] * 4, values), max_size=6)
    T, d, V = np.zeros((n, n)), np.zeros((3, n, n)), np.zeros((n,) * 4)
    for one in (T, *d):
        for p, q, _, _, v in draw(entries):
            one[p, q] = one[q, p] = v
    for *idx, v in draw(entries):
        for perm in TWO_BODY_IMAGES:
            V[tuple(idx[a] for a in perm)] = v
    return ModelSpec(n, 0, T, V, d)


@settings(max_examples=40, deadline=None)
@given(model=spin_free_models())
def test_string_block_is_the_fermion_matrix_restricted(model):
    # every (N_alpha, N_beta) block on strings is the ladder operators'
    # dense matrix restricted to the block's Fock states, after each
    # state's sign and the permutation to the string order
    T, V, D = spin_orbital(model)
    H = build_hamiltonian(T, V).dense()
    dense = [build_dipole(d).dense() for d in D]
    n = model.n_orbitals
    for n_alpha in range(n + 1):
        for n_beta in range(n + 1):
            states, signs = map(np.array, zip(*string_basis(n, n_alpha,
                                                            n_beta)))
            flip = np.outer(signs, signs)
            got_H, got_D = string_blocks(model, n_alpha, n_beta)
            for got, full in zip([got_H, *got_D], [H, *dense]):
                want = full[np.ix_(states, states)].real * flip
                assert np.max(np.abs(got - want)) <= \
                    1e-13 * max(1.0, np.max(np.abs(full)))


def test_string_block_at_the_cap_is_the_pauli_block():
    # 14 modes: the full matrix is refused, the Pauli block is not
    model = make_random_model(7, 4, 7)
    T, V, D = spin_orbital(model)
    states, signs = map(np.array, zip(*string_basis(7, 2, 2)))
    flip = np.outer(signs, signs)
    got = string_blocks(model, 2, 2)
    ops = [build_hamiltonian(T, V)] + [build_dipole(d) for d in D]
    for block, op in zip([got[0], *got[1]], ops):
        want = jordan_wigner(op).dense(states=states).real * flip
        assert np.max(np.abs(block - want)) <= 1e-13 * np.max(np.abs(want))


DYADIC = st.integers(-32, 32).map(lambda k: k / 16)


@settings(max_examples=60, deadline=None)
@given(model=spin_free_models(DYADIC, 3))
def test_closed_form_one_norms_are_exact_on_dyadic_integrals(model):
    # every sum of multiples of 1/16 this small is exact, so the closed
    # forms and the Pauli images' one-norms agree bit for bit
    T, V, D = spin_orbital(model)
    alpha, betas = spectra._one_norms(model)
    assert alpha == lcu_one_norm(jordan_wigner(build_hamiltonian(T, V)))
    assert betas == tuple(lcu_one_norm(jordan_wigner(build_dipole(d)))
                          for d in D)


def test_closed_form_drops_the_strings_the_image_prunes():
    # a 1.5e-14 entry passes the entry prune: lifted, its identity
    # coefficient (1.5e-14) stays and its two Z strings (7.5e-15 each)
    # fall to PRUNE_TOL, in the image as in the closed form; a 1e-14 entry
    # drops at once
    for t, want in ((1.5e-14, 1.5e-14), (1e-14, 0.0)):
        model = ModelSpec(2, 0, np.diag([t, 0.0]), np.zeros((2,) * 4),
                          np.zeros((3, 2, 2)))
        T, V, _ = spin_orbital(model)
        image = lcu_one_norm(jordan_wigner(build_hamiltonian(T, V)))
        assert spectra._one_norms(model)[0] == image == want


@pytest.mark.parametrize("args", [None, (3, 2, 4)],
                         ids=lambda a: "dimer" if a is None else "random")
def test_pauli_one_norms_are_checked_by_an_independent_map(args, monkeypatch):
    # the Pauli path checks the closed forms, so it must not reach them;
    # the two agree up to roundoff
    model = (make_hubbard_dimer(1.0, 2.0, 0.5) if args is None
             else make_random_model(*args))
    sd = diagonalize(model)

    def refuse(*_):
        raise AssertionError("the Pauli path reached the closed form")

    monkeypatch.setattr(spectra, "_one_norms", refuse)
    T, V, D = spin_orbital(model)
    got = [lcu_one_norm(jordan_wigner(build_hamiltonian(T, V)))]
    got += [lcu_one_norm(jordan_wigner(build_dipole(d))) for d in D]
    want = [sd.alpha, *sd.betas]
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-12 * w
    if args is None:  # the dimer's sums are exact: alpha 6, beta_x 1
        assert got == want == [6.0, 1.0, 0.0, 0.0]


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


def test_alpha1_heap_peak():
    # one complex (points x excited states) buffer, 16 B per pair, holds
    # each denominator and then its terms: 13.3 MiB here, and the bound
    # leaves 10% over the buffer.  A temporary per step peaked at 26.3 MiB
    sd = diagonalize(make_random_model(5, 4, 0))
    grid = np.linspace(0.0, 8.0, 4096)
    tracemalloc.start()
    try:
        alpha1(sd, 0, 1, grid, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * grid.size * (sd.n_states - 1) * 16


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
        r_pathway_fd(dimer_sd, (0, 0, 0), (1.0, 1.0, 1.0), 0.1)
    for gamma in (0.0, math.nan, math.inf):
        with pytest.raises(InputError):
            r_pathway_fd(dimer_sd, (0, 0, 0, 0), (1.0, 1.0, 1.0), gamma)


def test_r1_frequency_domain_frozen(dimer_sd):
    (val,) = r_pathway_fd(dimer_sd, (0, 0, 0, 0), (3.0, 0.1, 0.2), 0.1).values
    assert val == pytest.approx(0.068090306548 + 0.019057598257j, abs=1e-10)


def test_r1_frequency_domain_matches_naive_loop(random_model, random_sd):
    w, td = naive_sector_spectrum(random_model)
    i_tr, i3, i2, i1 = 0, 1, 2, 0
    g = 0.1
    triple = (0.9, 0.8, 0.5)
    O1, O2, O3 = np.cumsum(triple)
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
    (got,) = r_pathway_fd(random_sd, (i_tr, i3, i2, i1), triple, g).values
    assert got == pytest.approx(expect, abs=1e-10)


# pathway nu -> its summand at intermediate states (n, l, m): the dipole
# product and the coherence energy after each interaction, for the first,
# second and third interaction dipoles A, B, C and the closing dipole F
_PATHWAY_SUMMANDS = {
    1: lambda F, A, B, C, w, n, l, m: (F[m, n] * A[n, 0] * B[0, l] * C[l, m],
                                       (w[n], w[n] - w[l], w[n] - w[m])),
    2: lambda F, A, B, C, w, n, l, m: (F[m, n] * B[n, 0] * A[0, l] * C[l, m],
                                       (-w[l], w[n] - w[l], w[n] - w[m])),
    3: lambda F, A, B, C, w, n, l, m: (F[m, n] * C[n, 0] * A[0, l] * B[l, m],
                                       (-w[l], -w[m], w[n] - w[m])),
    4: lambda F, A, B, C, w, n, l, m: (F[0, l] * C[l, m] * B[m, n] * A[n, 0],
                                       (w[n], w[m], w[l])),
}


@pytest.mark.parametrize("nu", sorted(_PATHWAY_SUMMANDS))
def test_pathway_walk_matches_explicit_sums(random_model, random_sd, nu):
    # the reference walk of every pathway against its triple sum over the
    # states of an independent diagonalization of the whole sector
    w, td = naive_sector_spectrum(random_model)
    assert w[0] == 0.0
    i_tr, i3, i2, i1 = 0, 1, 2, 0
    g = 0.1
    Os = np.cumsum((0.9, 0.8, -0.5))
    expect = 0j
    for n, l, m in product(range(len(w)), repeat=3):
        num, energies = _PATHWAY_SUMMANDS[nu](
            td[i_tr], td[i1], td[i2], td[i3], w, n, l, m)
        expect += num / math.prod(x - O - 1j * g for x, O in zip(energies, Os))
    got = pathway_fd(random_sd, nu, (i_tr, i3, i2, i1), *Os[::-1], g)
    assert got == pytest.approx(expect, abs=1e-10)


def test_r1_is_the_reference_walk_bit_for_bit(dimer_sd):
    # README scenario 3: the default dimer, chain xxxx, gamma 0.2 and the
    # diagonal grid 1.0:3.9:3, where w + w and 2w + w are 2w and 3w
    grid = np.linspace(1.0, 3.9, 3)
    got = r_pathway_fd(dimer_sd, (0,) * 4, np.stack([grid] * 3, -1), 0.2)
    want = [pathway_fd(dimer_sd, 1, (0,) * 4, 3 * w, 2 * w, w, 0.2)
            for w in grid]
    assert got.values.tobytes() == np.array(want).tobytes()
    # random models at n = 1..4, empty to full, on random chains and
    # off-diagonal triples: R1 walks from the ground column, the reference
    # from a dense rho0
    rng = np.random.default_rng(43)
    for n in range(1, 5):
        for eta in sorted({0, 1, n, 2 * n - 1, 2 * n}):
            sd = diagonalize(make_random_model(n, eta, 10 * n + eta))
            for _ in range(4):
                axes = tuple(rng.integers(0, 3, 4).tolist())
                triples = rng.uniform(-3.0, 3.0, (3, 3))
                got = r_pathway_fd(sd, axes, triples, 0.2)
                want = [pathway_fd(sd, 1, axes, *np.cumsum(t)[::-1], 0.2)
                        for t in triples]
                assert got.values.tobytes() == np.array(want).tobytes(), (
                    n, eta, axes)


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
        val = pathway_fd(
            dimer_sd, nu, (axes[0], ax_time[2], ax_time[1], ax_time[0]),
            O3, O2, O1, gamma)
        total += np.conj(val) if conj else val
    assert alpha3(dimer_sd, axes, omegas, gamma) == pytest.approx(
        total / 6.0, abs=1e-12)
