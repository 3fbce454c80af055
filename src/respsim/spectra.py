"""Exact sum-over-states reference layer.

Everything here works in the eigenbasis of the dense Hamiltonian: energies
are stored shifted so the ground level sits at 0 (i.e. eigenvalues[j] is the
excitation energy of state j), and transition dipoles are matrices in that
basis.  These routines are the ground truth the sampled estimates are
compared against, so they favour directness over speed: dense eigh, explicit
multi-index sums via einsum, no truncation.

Response conventions:

  alpha1(omega)  = sum_{n!=0} d_i[0,n] d_j[n,0] / (w_n - omega - i*gamma)
                   + (omega -> -omega)*
  chi1_time(s)   = theta(s) [ sum_{n!=0} i d_i[0,n] d_j[n,0]
                              e^{(-i w_n - gamma) s} + c.c. ]

Third order is organized in four double-sided pathways.  In time order
(first, second, third interaction), each pathway is a fixed pattern of
left/right dipole multiplications on rho0 = |0><0|, closed by Tr[d_i rho]:

  nu=1: (left, right, right)     nu=2: (right, left, right)
  nu=3: (right, right, left)     nu=4: (left, left, left)

Frequency-domain pathway values carry the i^3 prefactor folded in, so each
time integral contributes a plain resonance factor 1/(w - Omega - i*gamma).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError
from .models import ModelSpec
from .operators import (DEFAULT_MODE_CAP, build_dipole, build_hamiltonian,
                        jordan_wigner, lcu_one_norm)

DEGENERACY_TOL = 1e-10

# pathway nu -> (first, second, third) multiplication side
_PATHWAY_SIDES = {
    1: ("l", "r", "r"),
    2: ("r", "l", "r"),
    3: ("r", "r", "l"),
    4: ("l", "l", "l"),
}


@dataclass
class SpectralData:
    """Eigensystem of one model, restricted to a particle sector if asked,
    and everything derived from it.

    eigenvalues are ascending and shifted so eigenvalues[0] == 0.
    basis_states lists the Fock states the eigensystem lives on, as
    ascending basis-state integers (mode p is bit N-1-p); eigenvectors[:, j]
    holds eigenstate j's amplitudes on them, so both are sized by the
    sector, not by 2^N.  transition_dipoles[i] is the axis-i dipole in the
    eigenbasis.  alpha and betas[i] are the LCU one-norms of the
    Jordan-Wigner images of H and of the axis-i dipole (0 for an all-zero
    dipole): the block-encoding subnormalizations.  alpha_shift =
    alpha + |lowest electronic eigenvalue| bounds every excitation energy,
    since the electronic spectrum lies in [-alpha, alpha]; the measurement
    layer sizes its filter rescales and search span with it.  The nuclear
    shift moves no excitation energy and does not enter it.  filter_values
    holds filter polynomials evaluated at the eigenvalues, filled by the
    measurement layer and freed with the spectrum.
    """

    eigenvalues: np.ndarray          # (M,)
    eigenvectors: np.ndarray         # (M, M), columns orthonormal
    basis_states: np.ndarray         # (M,) Fock-state integers
    transition_dipoles: np.ndarray   # (3, M, M)
    sector: int | None
    ground_energy: float             # lowest eigenvalue + nuclear shift
    alpha: float
    alpha_shift: float               # alpha + |evals[0]|, electronic
    betas: tuple                     # (beta_x, beta_y, beta_z)
    degenerate_ground: bool = False
    label: str = ""
    filter_values: dict = field(default_factory=dict, repr=False,
                                compare=False)

    @property
    def n_states(self) -> int:
        return len(self.eigenvalues)


@dataclass
class SusceptibilityResult:
    order: int
    frequencies: np.ndarray
    values: np.ndarray               # complex, same leading shape as frequencies
    gamma: float
    axes: tuple


def _qubit_image(op, states: np.ndarray):
    """Real block on ``states`` and LCU one-norm of the Jordan-Wigner
    image."""
    pauli = jordan_wigner(op)
    return pauli.dense(states=states).matrix.real, lcu_one_norm(pauli)


def diagonalize(model: ModelSpec, fix_sector: bool = True) -> SpectralData:
    """Dense eigensystem of the model Hamiltonian plus eigenbasis dipoles
    and the one-norms of their qubit images.

    Only the particle-number sector's block of each qubit image is built
    (all 2^N states with fix_sector=False).  Models above DEFAULT_MODE_CAP
    modes raise ResourceError before anything is built.
    """
    n = model.n_orbitals
    if n > DEFAULT_MODE_CAP:
        raise ResourceError(
            f"{n} modes exceeds the diagonalization cap of {DEFAULT_MODE_CAP}")
    states = np.arange(1 << n, dtype=np.int64)
    if fix_sector:
        keep = np.flatnonzero(np.bitwise_count(states) == model.n_electrons)
        if keep.size == 0:
            raise InputError(f"no Fock states with {model.n_electrons} electrons")
    else:
        keep = states
    H, alpha = _qubit_image(build_hamiltonian(model.T, model.V), keep)
    evals, evecs = np.linalg.eigh(H)
    ground = float(evals[0]) + model.nuclear_shift
    degenerate = len(evals) > 1 and evals[1] - evals[0] < DEGENERACY_TOL
    if degenerate:
        warnings.warn(
            f"ground state degenerate within {DEGENERACY_TOL:g}; "
            "keeping the lowest-index eigenvector", stacklevel=2)
    dips = np.empty((3, len(keep), len(keep)))
    betas = []
    for ax in range(3):
        D, beta = _qubit_image(build_dipole(model.dipole[ax]), keep)
        betas.append(beta)
        dips[ax] = evecs.T @ D @ evecs
    return SpectralData(
        eigenvalues=evals - evals[0],
        eigenvectors=evecs,
        basis_states=keep,
        transition_dipoles=dips,
        sector=model.n_electrons if fix_sector else None,
        ground_energy=ground,
        alpha=alpha,
        alpha_shift=alpha + abs(float(evals[0])),
        betas=tuple(betas),
        degenerate_ground=degenerate,
        label=model.label,
    )


def _window_mask(sd: SpectralData, a: float, b: float) -> np.ndarray:
    """Boolean mask of excited states with excitation energy in [a, b)."""
    mask = (sd.eigenvalues >= a) & (sd.eigenvalues < b)
    mask[0] = False
    return mask


def window_amplitude(sd: SpectralData, axis_in: int, axis_out: int,
                     a: float, b: float) -> complex:
    """Sum of d_out[0,j] d_in[j,0] over excited states with energy in [a, b).

    Windows are half-open so a tiling of the spectrum counts every state
    exactly once; the ground state never contributes.
    """
    if not a < b:
        raise InputError(f"window [{a}, {b}) is empty or reversed")
    mask = _window_mask(sd, a, b)
    d_out = sd.transition_dipoles[axis_out]
    d_in = sd.transition_dipoles[axis_in]
    return complex(np.sum(d_out[0, mask] * d_in[mask, 0]))


def nested_window_amplitude(sd: SpectralData, axes, windows) -> complex:
    """Chain amplitude <0| d^{ax0} P_{W1} d^{ax1} P_{W2} ... d^{axK} |0>.

    axes has one more entry than windows; windows[k] = (lo, hi) restricts the
    k-th intermediate state sum to excitation energies in [lo, hi), ground
    state always excluded.  Depth 1 reduces to window_amplitude.
    """
    axes = tuple(axes)
    windows = [tuple(w) for w in windows]
    if len(axes) != len(windows) + 1:
        raise InputError("need len(axes) == len(windows) + 1")
    for lo, hi in windows:
        if not lo < hi:
            raise InputError(f"window [{lo}, {hi}) is empty or reversed")
    u = sd.transition_dipoles[axes[-1]][:, 0].astype(complex)
    for ax, (lo, hi) in zip(axes[-2::-1], windows[::-1]):
        u = u * _window_mask(sd, lo, hi)
        u = sd.transition_dipoles[ax] @ u
    return complex(u[0])


def alpha1(sd: SpectralData, i: int, j: int, omega_grid, gamma: float
           ) -> SusceptibilityResult:
    """Linear susceptibility on a frequency grid."""
    if gamma <= 0:
        raise InputError("gamma must be positive (poles would sit on the axis)")
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    w = sd.eigenvalues[1:]
    dd = sd.transition_dipoles[i][0, 1:] * sd.transition_dipoles[j][1:, 0]
    om = omega_grid[:, None]
    direct = np.sum(dd / (w - om - 1j * gamma), axis=1)
    mirrored = np.conj(np.sum(dd / (w + om - 1j * gamma), axis=1))
    return SusceptibilityResult(1, omega_grid, direct + mirrored, gamma, (i, j))


def chi1_time(sd: SpectralData, i: int, j: int, s_grid, gamma: float
              ) -> np.ndarray:
    """Time-domain linear response kernel; zero for s < 0."""
    if gamma < 0:
        raise InputError("gamma must be non-negative")
    s_grid = np.atleast_1d(np.asarray(s_grid, dtype=float))
    w = sd.eigenvalues[1:]
    dd = sd.transition_dipoles[i][0, 1:] * sd.transition_dipoles[j][1:, 0]
    s = s_grid[:, None]
    term = 1j * np.sum(dd * np.exp((-1j * w - gamma) * s), axis=1)
    out = term + np.conj(term)
    out[s_grid < 0] = 0.0
    return out


def _gamma_matrix(sd: SpectralData, gamma: float, gamma_map) -> np.ndarray:
    """Per-coherence decay rates; a uniform constant unless a map is given."""
    M = sd.n_states
    if gamma_map is None:
        return np.full((M, M), float(gamma))
    G = np.asarray(gamma_map, dtype=float)
    if G.shape != (M, M):
        raise InputError(f"gamma_map shape {G.shape} != ({M}, {M})")
    return G


def _pathway_factors(sd: SpectralData, nu: int, axes):
    """Shared bookkeeping for both r_pathways routes.

    Returns (F, ops) with F the trace-closing dipole and ops the
    (matrix, side) list in time order."""
    if nu not in _PATHWAY_SIDES:
        raise InputError(f"pathway index {nu} not in 1..4")
    axes = tuple(axes)
    if len(axes) != 4:
        raise InputError("axes must be (i, i3, i2, i1)")
    i, i3, i2, i1 = axes
    d = sd.transition_dipoles
    sides = _PATHWAY_SIDES[nu]
    ops = [(d[i1], sides[0]), (d[i2], sides[1]), (d[i3], sides[2])]
    return d[i], ops


def r_pathways(sd: SpectralData, nu: int, axes, s3: float, s2: float,
               s1: float, gamma: float, method: str = "superop",
               gamma_map=None) -> complex:
    """Time-domain third-order pathway nu at delays (s3, s2, s1).

    method="superop" walks the density matrix through the left/right dipole
    pattern with elementwise coherence evolution; method="sos" evaluates the
    equivalent explicit sum over states.  Both vanish if any delay is
    negative.
    """
    if min(s1, s2, s3) < 0:
        return 0j
    F, ops = _pathway_factors(sd, nu, axes)
    G = _gamma_matrix(sd, gamma, gamma_map)
    w = sd.eigenvalues
    if method == "superop":
        rho = np.zeros((sd.n_states, sd.n_states), dtype=complex)
        rho[0, 0] = 1.0
        for (mat, side), s in zip(ops, (s1, s2, s3)):
            rho = mat @ rho if side == "l" else rho @ mat
            rho = rho * np.exp((-1j * (w[:, None] - w[None, :]) - G) * s)
        return complex(np.trace(F @ rho))
    if method == "sos":
        # constant-gamma explicit forms (one per pathway pattern)
        if gamma_map is not None:
            raise InputError("sos route only supports constant gamma")
        A, B, C = ops[0][0], ops[1][0], ops[2][0]
        e1 = np.exp((-1j * w - gamma) * s1)        # e^{(-i w_x - g) s1}
        e1c = np.exp((+1j * w - gamma) * s1)       # coherence on the bra side
        if nu == 1:
            ph2 = np.exp((-1j * (w[:, None] - w[None, :]) - gamma) * s2)
            ph3 = np.exp((-1j * (w[:, None] - w[None, :]) - gamma) * s3)
            return complex(np.einsum(
                "mn,n,l,lm,n,nl,nm->", F, A[:, 0], B[0, :], C,
                e1, ph2, ph3, optimize=True))
        if nu == 2:
            ph2 = np.exp((-1j * (w[:, None] - w[None, :]) - gamma) * s2)
            ph3 = np.exp((-1j * (w[:, None] - w[None, :]) - gamma) * s3)
            return complex(np.einsum(
                "mn,n,l,lm,l,nl,nm->", F, B[:, 0], A[0, :], C,
                e1c, ph2, ph3, optimize=True))
        if nu == 3:
            e2 = np.exp((+1j * w - gamma) * s2)
            ph3 = np.exp((-1j * (w[:, None] - w[None, :]) - gamma) * s3)
            return complex(np.einsum(
                "mn,n,l,lm,l,m,nm->", F, C[:, 0], A[0, :], B,
                e1c, e2, ph3, optimize=True))
        # nu == 4
        e2 = np.exp((-1j * w - gamma) * s2)
        e3 = np.exp((-1j * w - gamma) * s3)
        return complex(np.einsum(
            "l,lm,mn,n,n,m,l->", F[0, :], C, B, A[:, 0],
            e1, e2, e3, optimize=True))
    raise InputError(f"unknown method {method!r}")


def r_pathway_fd(sd: SpectralData, nu: int, axes, Omega3: float,
                 Omega2: float, Omega1: float, gamma: float,
                 gamma_map=None) -> complex:
    """Frequency-domain pathway value (i^3 folded in) at cumulative
    frequencies Omega1, Omega2, Omega3."""
    if gamma <= 0:
        raise InputError("gamma must be positive")
    F, ops = _pathway_factors(sd, nu, axes)
    G = _gamma_matrix(sd, gamma, gamma_map)
    w = sd.eigenvalues
    wdiff = w[:, None] - w[None, :]
    rho = np.zeros((sd.n_states, sd.n_states), dtype=complex)
    rho[0, 0] = 1.0
    for (mat, side), Om in zip(ops, (Omega1, Omega2, Omega3)):
        rho = mat @ rho if side == "l" else rho @ mat
        rho = rho / (wdiff - Om - 1j * G)
    return complex(np.trace(F @ rho))


def alpha3_terms(axes, omegas):
    """Enumerate the 48 frequency-domain terms of the third-order response.

    axes = (i, i3, i2, i1), omegas = (w3, w2, w1).  Yields records
    (nu, time_axes, cumulative, conjugate) where time_axes is the
    (first, second, third) interaction axis tuple, cumulative the matching
    (Omega1, Omega2, Omega3), and conjugate marks the mirrored block whose
    value enters complex-conjugated.
    """
    i, i3, i2, i1 = axes
    w3, w2, w1 = omegas
    pairs = ((i1, w1), (i2, w2), (i3, w3))
    for conjugate in (False, True):
        sign = -1.0 if conjugate else 1.0
        for perm in itertools.permutations(pairs):
            ax_time = (perm[0][0], perm[1][0], perm[2][0])
            O1 = sign * perm[0][1]
            O2 = O1 + sign * perm[1][1]
            O3 = O2 + sign * perm[2][1]
            for nu in (1, 2, 3, 4):
                yield nu, ax_time, (O1, O2, O3), conjugate


def alpha3(sd: SpectralData, axes, omegas, gamma: float) -> complex:
    """Third-order susceptibility at one frequency triple.

    Averages the 3! orderings of the (axis, frequency) pairs over all four
    pathways and adds the conjugated mirror block: 48 terms, weight 1/6.
    """
    if gamma <= 0:
        raise InputError("gamma must be positive")
    i = axes[0]
    total = 0j
    for nu, ax_time, (O1, O2, O3), conjugate in alpha3_terms(axes, omegas):
        # time order (first, second, third) -> pathway axes (i, i3, i2, i1)
        val = r_pathway_fd(sd, nu, (i, ax_time[2], ax_time[1], ax_time[0]),
                           O3, O2, O1, gamma)
        total += np.conj(val) if conjugate else val
    return complex(total / 6.0)
