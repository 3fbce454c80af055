"""Exact sum-over-states reference layer.

Everything here works in the eigenbasis of the dense Hamiltonian: energies
are stored shifted so the ground level sits at 0 (i.e. eigenvalues[j] is the
excitation energy of state j), and transition dipoles are matrices in that
basis.  These routines are the ground truth the sampled estimates are
compared against, so they favour directness over speed: dense eigh, explicit
sums over states, no truncation.

Response conventions:

  alpha1(omega)  = sum_{n!=0} d_i[0,n] d_j[n,0] / (w_n - omega - i*gamma)
                   + (omega -> -omega)*

A windowed amplitude is a dipole chain, outermost axis first, with each
intermediate state sum restricted to an excitation window
(`nested_window_amplitude`); a first-order window sum over d_i[0,n] d_j[n,0]
is the depth-1 chain (i, j).

Third order is organized in four double-sided pathways.  In time order
(first, second, third interaction), each pathway is a fixed pattern of
left/right dipole multiplications on rho0 = |0><0|, closed by Tr[d_i rho]:

  nu=1: (left, right, right)     nu=2: (right, left, right)
  nu=3: (right, right, left)     nu=4: (left, left, left)

Frequency-domain pathway values carry the i^3 prefactor folded in, so each
time integral contributes a plain resonance factor 1/(w - Omega - i*gamma).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (InputError, ResourceError, check_axes, check_positive,
                     is_int)
from .models import ModelSpec
from .operators import (DEFAULT_MODE_CAP, majorana_one_norm, sector_block,
                        validate_dipole, validate_hamiltonian)

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
    """Spectrum of one model on its particle-number sector.

    A spectrum holds what the sum-over-states formulas and the measurement
    layer read: excitation energies, eigenbasis dipoles, one-norms and the
    filter caches, sized by the sector (M states), not by 2^N.
    eigenvalues are ascending and shifted so eigenvalues[0] == 0.
    transition_dipoles[i] is the axis-i dipole in the eigenbasis.  alpha
    and betas[i] are the LCU one-norms of the
    Jordan-Wigner images of H and of the axis-i dipole (0 for an all-zero
    dipole): the block-encoding subnormalizations, summed from Majorana
    products without forming a Pauli string.  The blocks behind the
    eigensystem and the dipoles come straight from the integral tensors.
    alpha_shift = alpha + |lowest electronic eigenvalue| bounds every
    excitation energy, since the electronic spectrum lies in
    [-alpha, alpha]; the measurement layer sizes its filter rescales and
    search span with it.  The nuclear
    shift moves no excitation energy and does not enter it.  The
    measurement layer fills two caches, freed with the spectrum: filters
    maps a filter shape (half-width and margin over the rescale, and eps)
    to its certified polynomial, and filter_values maps a shape placed at
    a window (its centre and rescale) to the values at the eigenvalues.
    """

    eigenvalues: np.ndarray          # (M,)
    transition_dipoles: np.ndarray   # (3, M, M)
    ground_energy: float             # lowest eigenvalue + nuclear shift
    alpha: float
    alpha_shift: float               # alpha + |evals[0]|, electronic
    betas: tuple                     # (beta_x, beta_y, beta_z)
    degenerate_ground: bool = False
    filters: dict = field(default_factory=dict, repr=False, compare=False)
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


def diagonalize(model: ModelSpec) -> SpectralData:
    """Dense eigenvalues of the model Hamiltonian plus eigenbasis dipoles
    and the LCU one-norms of their Jordan-Wigner images.

    Only the particle-number sector's block of each operator is built,
    straight from the integral tensors (sector_block), and the one-norms are
    summed from Majorana products (majorana_one_norm); no Pauli string is
    formed.  Models above DEFAULT_MODE_CAP modes raise ResourceError before
    anything is built; a zero Hamiltonian (alpha = 0) raises InputError
    before the spectrum is examined.
    """
    n, eta = model.n_orbitals, model.n_electrons
    if n > DEFAULT_MODE_CAP:
        raise ResourceError(
            f"{n} modes exceeds the diagonalization cap of {DEFAULT_MODE_CAP}")
    T, V = validate_hamiltonian(model.T, model.V)
    alpha = majorana_one_norm(T, V)
    if alpha == 0:
        raise InputError("the Hamiltonian is zero (alpha = 0)")
    H = sector_block(T, eta)
    H += sector_block(V, eta)
    evals, evecs = np.linalg.eigh(H)
    del H
    ground = float(evals[0]) + model.nuclear_shift
    degenerate = len(evals) > 1 and evals[1] - evals[0] < DEGENERACY_TOL
    if degenerate:
        warnings.warn(
            f"ground state degenerate within {DEGENERACY_TOL:g}; "
            "keeping the lowest-index eigenvector", stacklevel=2)
    dips = np.empty((3,) + evecs.shape)
    betas = []
    for ax in range(3):
        d = validate_dipole(model.dipole[ax])
        betas.append(majorana_one_norm(d))
        np.matmul(evecs.T @ sector_block(d, eta), evecs, out=dips[ax])
    return SpectralData(
        eigenvalues=evals - evals[0],
        transition_dipoles=dips,
        ground_energy=ground,
        alpha=alpha,
        alpha_shift=alpha + abs(float(evals[0])),
        betas=tuple(betas),
        degenerate_ground=degenerate,
    )


def _window_mask(sd: SpectralData, a: float, b: float) -> np.ndarray:
    """Boolean mask of excited states with excitation energy in [a, b)."""
    mask = (sd.eigenvalues >= a) & (sd.eigenvalues < b)
    mask[0] = False
    return mask


def nested_window_amplitude(sd: SpectralData, axes, windows) -> float:
    """Chain amplitude <0| d^{ax0} P_{W1} d^{ax1} P_{W2} ... d^{axK} |0>.

    axes has one more entry than windows; windows[k] = (lo, hi) restricts the
    k-th intermediate state sum to excitation energies in [lo, hi), ground
    state always excluded.  Depth 1 is a first-order window sum over
    d^{ax0}[0,j] d^{ax1}[j,0].
    """
    windows = [tuple(w) for w in windows]
    axes = check_axes(axes, len(windows) + 1)
    for lo, hi in windows:
        if not lo < hi:
            raise InputError(f"window [{lo}, {hi}) is empty or reversed")
    u = sd.transition_dipoles[axes[-1]][:, 0]
    for ax, (lo, hi) in zip(axes[-2::-1], windows[::-1]):
        u = u * _window_mask(sd, lo, hi)
        u = sd.transition_dipoles[ax] @ u
    return float(u[0])


def alpha1(sd: SpectralData, i: int, j: int, omega_grid, gamma: float
           ) -> SusceptibilityResult:
    """Linear susceptibility on a frequency grid."""
    i, j = check_axes((i, j), 2)
    check_positive("gamma", gamma)
    omega_grid = np.atleast_1d(np.asarray(omega_grid, dtype=float))
    w = sd.eigenvalues[1:]
    dd = sd.transition_dipoles[i][0, 1:] * sd.transition_dipoles[j][1:, 0]
    om = omega_grid[:, None]
    # one (points x states) buffer takes each denominator, then its terms
    den = np.empty((om.size, w.size), dtype=complex)
    sums = []
    for op in (np.subtract, np.add):
        op(w, om, out=den)
        den -= 1j * gamma
        np.divide(dd, den, out=den)
        sums.append(den.sum(axis=1))
    direct, mirrored = sums[0], np.conj(sums[1])
    return SusceptibilityResult(1, omega_grid, direct + mirrored, gamma, (i, j))


def r_pathway_fd(sd: SpectralData, nu: int, axes, Omega3: float,
                 Omega2: float, Omega1: float, gamma: float) -> complex:
    """Frequency-domain pathway value (i^3 folded in) at cumulative
    frequencies Omega1, Omega2, Omega3, for axes = (i, i3, i2, i1): the
    dipoles i1, i2, i3 act in time order on the sides pathway nu sets, and
    Tr[d_i rho] closes the trace."""
    check_positive("gamma", gamma)
    if not (is_int(nu) and nu in _PATHWAY_SIDES):
        raise InputError(f"pathway index {nu!r} is not an integer in 1..4")
    i, i3, i2, i1 = check_axes(axes, 4)
    d = sd.transition_dipoles
    w = sd.eigenvalues
    wdiff = w[:, None] - w[None, :]
    rho = np.zeros((sd.n_states, sd.n_states), dtype=complex)
    rho[0, 0] = 1.0
    for ax, side, Om in zip((i1, i2, i3), _PATHWAY_SIDES[nu],
                            (Omega1, Omega2, Omega3)):
        rho = d[ax] @ rho if side == "l" else rho @ d[ax]
        rho = rho / (wdiff - Om - 1j * gamma)
    return complex(np.trace(d[i] @ rho))
