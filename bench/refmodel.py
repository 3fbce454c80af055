"""Benchmark inputs and an independent reference for first-order responses.

The random models follow the recipe of ``respsim.models.make_random_model``
(symmetric normal one-body matrix, normal two-body tensor scaled by 0.5/n
and symmetrized over the eight real-orbital index images, symmetric normal
dipoles), but they are drawn here, so the benchmark's inputs do not change
when the package changes.  They reach the program only as FCIDUMP-style
integral and dipole files.

The reference solver shares no code with the package: it builds the
Hamiltonian and dipoles in the fixed-particle-number sector directly from
sector-restricted annihilation matrices (its own mode order and sign
convention), diagonalizes with ``numpy.linalg.eigh`` and evaluates the
sum over states.  A wrong matrix element in the package therefore shows as
a disagreement far above summation-order roundoff.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass

import numpy as np

# the eight real-orbital images of (pq|rs), as the integral files use them
_TWO_BODY_IMAGES = (
    (0, 1, 2, 3), (3, 1, 2, 0), (0, 2, 1, 3), (3, 2, 1, 0),
    (1, 0, 3, 2), (1, 3, 0, 2), (2, 0, 3, 1), (2, 3, 0, 1),
)

# smallest ground-state gap accepted for a generated model: with a
# degenerate ground state the response depends on which ground vector the
# solver happens to return, so no reference could be exact
MIN_GROUND_GAP = 1e-3


@dataclass
class Model:
    """Spatial-orbital integrals exactly as written to the input files."""

    T: np.ndarray          # (n, n)
    V: np.ndarray          # (n,)*4; V[p,q,r,s] multiplies a+_p a+_q a_r a_s
    dipole: np.ndarray     # (3, n, n)
    n_electrons: int
    fcidump: str
    dipole_text: str

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(self.fcidump.encode())
        h.update(self.dipole_text.encode())
        return h.hexdigest()


def _canonical(T, V, dipole, n_electrons) -> Model:
    """Write the integral records once per symmetry class and rebuild the
    arrays from those records, as a reader of the files will."""
    n = T.shape[0]
    lines = [f"&FCI NORB={n} NELEC={n_electrons}", "&END"]
    Tc = np.zeros_like(T)
    for i in range(n):
        for j in range(i, n):
            lines.append(f"{T[i, j]:.17g}   {i + 1} {j + 1} 0 0")
            Tc[i, j] = Tc[j, i] = T[i, j]
    Vc = np.zeros_like(V)
    seen = set()
    for idx in itertools.product(range(n), repeat=4):
        if idx in seen:
            continue
        images = {tuple(idx[a] for a in perm) for perm in _TWO_BODY_IMAGES}
        seen.update(images)
        val = V[idx]
        lines.append(f"{val:.17g}   " + " ".join(str(x + 1) for x in idx))
        for im in images:
            Vc[im] = val
    dlines = []
    dc = np.zeros_like(dipole)
    for ax, tag in enumerate("xyz"):
        for i in range(n):
            for j in range(i, n):
                dlines.append(f"{tag} {dipole[ax, i, j]:.17g} {i + 1} {j + 1}")
                dc[ax, i, j] = dc[ax, j, i] = dipole[ax, i, j]
    return Model(Tc, Vc, dc, n_electrons, "\n".join(lines) + "\n",
                 "\n".join(dlines) + "\n")


def random_model(n: int, n_electrons: int, seed: int) -> Model:
    rng = np.random.default_rng(seed)
    T = rng.normal(size=(n, n))
    T = (T + T.T) / 2
    V = rng.normal(size=(n, n, n, n)) * (0.5 / n)
    V = sum(V.transpose(perm) for perm in _TWO_BODY_IMAGES) / 8.0
    d = rng.normal(size=(3, n, n))
    d = (d + d.transpose(0, 2, 1)) / 2
    return _canonical(T, V, d, n_electrons)


def hubbard_dimer(t: float = 1.0, U: float = 2.0, d01: float = 0.5) -> Model:
    """The package's built-in two-site model (``--toy hubbard``)."""
    T = np.array([[0.0, -t], [-t, 0.0]])
    V = np.zeros((2, 2, 2, 2))
    V[0, 0, 0, 0] = V[1, 1, 1, 1] = U / 2
    d = np.zeros((3, 2, 2))
    d[0, 0, 1] = d[0, 1, 0] = d01
    return _canonical(T, V, d, 2)


def _sector(n_modes: int, n_particles: int) -> np.ndarray:
    states = np.arange(1 << n_modes)
    pop = np.array([bin(s).count("1") for s in states])
    return states[pop == n_particles]


def _annihilators(n_modes: int, n_particles: int) -> np.ndarray:
    """a_p restricted to the n_particles sector, as (modes, dim_{m-1}, dim_m)
    matrices; mode p is bit p and the sign counts occupied lower bits."""
    src = _sector(n_modes, n_particles)
    dst = _sector(n_modes, n_particles - 1)
    where = {int(s): k for k, s in enumerate(dst)}
    out = np.zeros((n_modes, len(dst), len(src)))
    for col, s in enumerate(src):
        s = int(s)
        for p in range(n_modes):
            if s >> p & 1:
                sign = -1.0 if bin(s & ((1 << p) - 1)).count("1") % 2 else 1.0
                out[p, where[s ^ (1 << p)], col] = sign
    return out


@dataclass
class Spectrum:
    excitations: np.ndarray      # ascending, excitations[0] == 0
    dipoles: np.ndarray          # (3, M, M) in the eigenbasis
    ground_gap: float


def solve(model: Model) -> Spectrum:
    """Exact sector eigensystem with interleaved spin-orbitals 2p + spin."""
    n = model.T.shape[0]
    modes, ne = 2 * n, model.n_electrons
    eye2 = np.eye(2)
    Ts = np.kron(model.T, eye2)
    ds = np.stack([np.kron(model.dipole[ax], eye2) for ax in range(3)])
    Vs = np.zeros((modes,) * 4)
    for s in (0, 1):
        for t in (0, 1):
            Vs[s::2, t::2, t::2, s::2] = model.V
    A = _annihilators(modes, ne)                     # (P, d1, d0)
    flat = A.reshape(-1, A.shape[2])

    def one_body(M):        # sum_pq M[p, q] a+_p a_q = sum_p A[p]^T (M A)[p]
        return flat.T @ np.tensordot(M, A, axes=(1, 0)).reshape(flat.shape)

    H = one_body(Ts)
    D = np.stack([one_body(ds[ax]) for ax in range(3)])
    if ne >= 2:
        A1 = _annihilators(modes, ne - 1)            # (P, d2, d1)
        # B[r, s] = a_r a_s; a+_p a+_q = B[q, p]^T
        B = np.matmul(A1[:, None], A[None, :])
        d2, d0 = B.shape[2], B.shape[3]
        W = Vs.transpose(1, 0, 2, 3).reshape(modes * modes, modes * modes)
        C = W @ B.reshape(modes * modes, d2 * d0)
        H = H + B.reshape(modes * modes * d2, d0).T @ C.reshape(
            modes * modes * d2, d0)
    H = (H + H.T) / 2
    evals, evecs = np.linalg.eigh(H)
    dips = np.stack([evecs.T @ D[ax] @ evecs for ax in range(3)])
    gap = float(evals[1] - evals[0]) if len(evals) > 1 else float("inf")
    return Spectrum(evals - evals[0], dips, gap)


def alpha1(sp: Spectrum, i: int, j: int, omegas, gamma: float) -> np.ndarray:
    """Sum over states with the package's convention: direct Lorentzian
    poles plus the conjugated mirrored ones."""
    w = sp.excitations[1:]
    dd = sp.dipoles[i][0, 1:] * sp.dipoles[j][1:, 0]
    om = np.asarray(omegas, dtype=float)[:, None]
    direct = np.sum(dd / (w - om - 1j * gamma), axis=1)
    mirrored = np.conj(np.sum(dd / (w + om - 1j * gamma), axis=1))
    return direct + mirrored


def seeded_random_model(workload_seed: int, n: int, n_electrons: int
                        ) -> tuple:
    """First model in the seed's stream with a non-degenerate ground state
    and nonzero x-axis spectral weight; returns (model, spectrum)."""
    for attempt in range(100):
        sub = int(np.random.SeedSequence(
            (workload_seed, n, attempt)).generate_state(1)[0])
        model = random_model(n, n_electrons, sub)
        sp = solve(model)
        weight = float(np.sum(sp.dipoles[0][0, 1:] ** 2))
        if sp.ground_gap >= MIN_GROUND_GAP and weight > 1e-6:
            return model, sp
    raise RuntimeError(f"no usable n={n} model for seed {workload_seed}")
