"""Shared fixtures and an independent brute-force oracle.

The naive builders below construct Fock-space matrices with explicit bit
loops and no shared code with the package, so they can arbitrate when a
package routine and a test disagree.  Mode p occupies bit (n - 1 - p),
i.e. mode 0 is the most significant bit.
"""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import respsim
from respsim import diagonalize, make_hubbard_dimer
from respsim.assemble import ResponseTable
from respsim.spectra import nested_window_amplitude

PACKAGE_ROOT = pathlib.Path(respsim.__file__).parent.parent


def run_with_blas_threads(threads, *args):
    """``python args`` in a fresh process whose BLAS runs `threads` threads
    (OpenBLAS reads the count when numpy loads, and caps it at the core
    count); returns the completed process, stdout as text."""
    path = filter(None, [str(PACKAGE_ROOT), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path),
           "OPENBLAS_NUM_THREADS": str(threads)}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=300)


# ---------------------------------------------------------------------------
# naive Fock-space construction
# ---------------------------------------------------------------------------

def naive_occ(state, p, n):
    return (state >> (n - 1 - p)) & 1


def naive_apply(state, p, dagger, n):
    """(sign, new_state) after one ladder operator, or None if annihilated."""
    filled = naive_occ(state, p, n)
    if dagger and filled:
        return None
    if not dagger and not filled:
        return None
    sign = 1
    for j in range(p):
        if naive_occ(state, j, n):
            sign = -sign
    return sign, state ^ (1 << (n - 1 - p))


def naive_term_matrix(n, actions, states=None):
    """Dense matrix of one ladder-operator product (leftmost applied last)
    on the given basis states (all 2^n by default), which it must map
    into themselves or annihilate."""
    states = list(range(2 ** n)) if states is None else states
    row = {b: i for i, b in enumerate(states)}
    M = np.zeros((len(states),) * 2)
    for col, st in enumerate(states):
        sgn, dead = 1, False
        for p, d in reversed(actions):
            r = naive_apply(st, p, d, n)
            if r is None:
                dead = True
                break
            s, st = r
            sgn *= s
        if not dead:
            M[row[st], col] += sgn
    return M


def naive_dense(n, terms):
    """Dense matrix of a {actions: coeff} fermionic operator."""
    dim = 2 ** n
    M = np.zeros((dim, dim), dtype=complex)
    for actions, coeff in terms.items():
        M += coeff * naive_term_matrix(n, actions)
    return M


def spin_orbital(model):
    """(T, V, dipole) of a ModelSpec lifted to its 2n interleaved spin
    orbitals (alpha_0, beta_0, alpha_1, ...: spatial orbital p with spin
    sigma is mode 2p + sigma): T and the dipoles are replicated per spin,
    and V[p, q, r, s] moves spin sigma from s to p and tau from r to q.
    The package never forms these tensors; the references below and the
    Jordan-Wigner checks build on them."""
    eye2 = np.eye(2)
    T = np.kron(model.T, eye2)
    d = np.stack([np.kron(axis, eye2) for axis in model.dipole])
    V = np.zeros((2 * model.n_orbitals,) * 4)
    for sigma in (0, 1):
        for tau in (0, 1):
            V[sigma::2, tau::2, tau::2, sigma::2] = model.V
    return T, V, d


def naive_sector_states(model):
    """The Fock states of the model's eta-electron sector, ascending."""
    n = 2 * model.n_orbitals
    return [b for b in range(2 ** n)
            if bin(b).count("1") == model.n_electrons]


def naive_model_matrices(model):
    """(H, D) dense matrices on the eta-electron sector
    (naive_sector_states), built naively from the model's spin-orbital
    integrals."""
    T, V, dipole = spin_orbital(model)
    n = len(T)
    sector = naive_sector_states(model)
    dim = len(sector)
    H = np.zeros((dim, dim))
    for p in range(n):
        for q in range(n):
            if T[p, q] != 0.0:
                H += T[p, q] * naive_term_matrix(n, [(p, 1), (q, 0)], sector)
    nz = np.nonzero(np.abs(V) > 0)
    for p, q, r, s in zip(*nz):
        H += V[p, q, r, s] * naive_term_matrix(
            n, [(int(p), 1), (int(q), 1), (int(r), 0), (int(s), 0)], sector)
    D = np.zeros((3, dim, dim))
    for ax in range(3):
        for p in range(n):
            for q in range(n):
                if dipole[ax, p, q] != 0.0:
                    D[ax] += dipole[ax, p, q] * naive_term_matrix(
                        n, [(p, 1), (q, 0)], sector)
    return H, D


def naive_sector_spectrum(model):
    """(excitations, transition_dipoles) in the eta-electron sector,
    ground level shifted to zero - all via the naive builders."""
    H, D = naive_model_matrices(model)
    vals, vecs = np.linalg.eigh(H)
    w = vals - vals[0]
    td = np.stack([vecs.T @ D[ax] @ vecs for ax in range(3)])
    return w, td


# ---------------------------------------------------------------------------
# oracle-filled response tables (exact nested amplitudes on a tiling)
# ---------------------------------------------------------------------------

def distinct_levels(values, tol=1e-9):
    """The values, each kept unless within tol of one kept before it."""
    out = []
    for w in values:
        if not any(abs(w - d) < tol for d in out):
            out.append(float(w))
    return out


def distinct_lines(sd, tol=1e-9):
    return distinct_levels(sd.eigenvalues[1:], tol)


def _tile(x, width):
    k = math.floor(x / width)
    return (round(k * width, 12), round((k + 1) * width, 12))


def oracle_tables(sd, axes, width, cut=1e-12):
    """Exact depth-1/2/3 amplitude tables on a width-`width` tiling.

    axes = (i_tr, i3, i2, i1) as in the third-order pathway conventions;
    only tiling bins that contain a spectral line enter the loops, and only
    nonzero amplitudes are stored.  Returns ({1: t1, 2: t2, 3: t3}, gd).
    """
    i_tr, i3, i2, i1 = axes
    chain3 = (i1, i_tr, i3, i2)
    bins = sorted({_tile(w, width) for w in distinct_lines(sd)})
    t1 = ResponseTable(order=1)
    for chain in dict.fromkeys([(i_tr, i1), (i2, i3), (i3, i_tr)]):
        for b in bins:
            val = nested_window_amplitude(sd, chain, (b,))
            if abs(val) > cut:
                t1.add({"axes": chain, "window": (b,), "value": val})
    t2 = ResponseTable(order=2)
    for chain in dict.fromkeys([(i2, i3, i_tr), (i1, i_tr, i3)]):
        for b1 in bins:
            for b2 in bins:
                val = nested_window_amplitude(sd, chain, (b1, b2))
                if abs(val) > cut:
                    t2.add({"axes": chain, "window": (b1, b2), "value": val})
    t3 = ResponseTable(order=3)
    for b1 in bins:
        for b2 in bins:
            for b3 in bins:
                val = nested_window_amplitude(sd, chain3, (b1, b2, b3))
                if abs(val) > cut:
                    t3.add({"axes": chain3, "window": (b1, b2, b3),
                            "value": val})
    gd = {ax: float(sd.transition_dipoles[ax][0, 0]) for ax in set(axes)}
    return {1: t1, 2: t2, 3: t3}, gd


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def dimer():
    return make_hubbard_dimer(t=1.0, U=2.0, d01=0.5)


@pytest.fixture(scope="session")
def dimer_sd(dimer):
    return diagonalize(dimer)


@pytest.fixture(scope="session")
def random_model():
    from respsim import make_random_model
    return make_random_model(n_orbitals=2, n_electrons=2, seed=5)


@pytest.fixture(scope="session")
def random_sd(random_model):
    return diagonalize(random_model)
