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

Third order is the double-sided pathway R1 (`r_pathway_fd`): in time order
the dipoles multiply rho0 = |0><0| on the left, the right and the right,
Tr[d_i rho] closes the trace, and with i^3 folded in each time integral
gives a resonance factor 1/(w_a - w_b - W - i*gamma), W cumulative.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import (InputError, ResourceError, check_axes, check_positive,
                     check_reals, check_triples, check_windows)
from .models import DEFAULT_MODE_CAP, PRUNE_TOL, ModelSpec

DEGENERACY_TOL = 1e-10


@dataclass
class SpectralData:
    """Spectrum of one model on its ground state's spin block.

    A spectrum holds what the sum-over-states formulas, the measurement
    layer and a run's outputs read: excitation energies, eigenbasis
    dipoles, one-norms, the filter caches and three facts of its model,
    sized by the ground state's (N_alpha, N_beta) = (ceil(eta/2),
    floor(eta/2)) block of M = C(n, N_alpha) C(n, N_beta) states, not by
    2^N: it holds one member of every spin multiplet, so every level of
    the eta-electron sector, and no dipole leaves it.
    eigenvalues are ascending and shifted so eigenvalues[0] == 0.
    transition_dipoles[i] is the axis-i dipole in the eigenbasis.  alpha
    and betas[i] are the LCU one-norms of the Jordan-Wigner images of H
    and of the axis-i dipole on the 2n spin orbitals (0 for an all-zero
    dipole): the block-encoding subnormalizations, taken without forming
    a Pauli string in the spin-summed closed form of Koridon et al.
    (PRR 3, 033127 (2021)) from the spatial integrals,
      alpha = |E| + sum |h| + sum_{p<q, s<r} |V[pqrs] - V[pqsr]|
              + sum |V| / 2,    beta = |tr d| + sum |d|,
    E = tr T + sum V[pqqp] - sum V[pqpq] + sum V[ppss] / 2,
    h = T + J + J' - K, J[q, r] = sum_p V[pqrp], J'[p, s] = sum_q V[pqqs]
    and K[p, r] = sum_q V[pqrq].  They agree with the images' one-norms
    to roundoff.
    alpha_shift = alpha + |lowest electronic eigenvalue| bounds every
    excitation energy, since the electronic spectrum lies in
    [-alpha, alpha]; the measurement layer sizes its filter rescales and
    search span with it.  The nuclear shift moves no excitation energy
    and does not enter it.  The measurement layer fills two caches, freed
    with the spectrum: filters maps a filter shape (half-width and margin
    over the rescale, and eps) to its certified polynomial, and
    filter_values maps a shape placed at a window (its centre and
    rescale) to the values at the eigenvalues.
    """

    eigenvalues: np.ndarray          # (M,)
    transition_dipoles: np.ndarray   # (3, M, M)
    ground_energy: float             # lowest eigenvalue + nuclear shift
    alpha: float
    alpha_shift: float               # alpha + |evals[0]|, electronic
    betas: tuple                     # (beta_x, beta_y, beta_z)
    label: str                       # a manifest's "model"
    n_modes: int                     # spin-orbital count N = 2n
    n_electrons: int                 # eta
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
    """Dense eigenvalues of the model Hamiltonian on the ground state's
    spin block, eigenbasis dipoles, and the LCU one-norms of the
    Jordan-Wigner images, all from the spatial integrals.

    A model is spin-free, so H and the dipoles conserve N_alpha and
    N_beta; the block is the (ceil(eta/2), floor(eta/2)) one, in the
    product basis |I, J> of alpha strings I and beta strings J, every
    alpha creator ordered before every beta one (the determinant-FCI
    split of Knowles and Handy, CPL 111, 315 (1984)).  With
    E_k = a_p^dag a_q, k = (p, q), on one spin's strings and
    G[(p, s), (q, r)] = V[p, q, r, s], since
    a_p^dag a_q^dag a_r a_s = E_ps E_qr - delta_qs E_pr,
      H = h_a x 1 + 1 x h_b + sum_kl (G + G^T)[k, l] E^a_k x E^b_l,
      h_s = sum_k (T - K)[k] E^s_k + sum_kl G[k, l] E^s_k E^s_l,
    with K[p, r] = sum_q V[p, q, r, q], and a dipole axis is
    D_a x 1 + 1 x D_b, rotated into the eigenbasis through those factors.
    No spin-orbital tensor and no list of the 2^N Fock states is formed.
    A ground still degenerate in the block (a spatial degeneracy) warns
    and keeps the lowest-index eigenvector.  The one-norms are closed
    forms in the spatial integrals (SpectralData gives E and h):
      alpha = |E| + sum |h| + sum_{p<q, s<r} |V[pqrs] - V[pqsr]|
              + sum |V| / 2,    beta = |tr d| + sum |d|.
    Models above DEFAULT_MODE_CAP modes (N = 2n) raise ResourceError, and
    a zero Hamiltonian (alpha = 0) InputError, before any block is built.
    """
    n, eta = model.n_orbitals, model.n_electrons
    if 2 * n > DEFAULT_MODE_CAP:
        raise ResourceError(f"{2 * n} modes exceeds the diagonalization "
                            f"cap of {DEFAULT_MODE_CAP}")
    alpha, betas = _one_norms(model)
    if alpha == 0:
        raise InputError("the Hamiltonian is zero (alpha = 0)")
    ea = _excitations(n, (eta + 1) // 2)
    eb = ea if eta % 2 == 0 else _excitations(n, eta // 2)
    ma, mb = ea.shape[1], eb.shape[1]
    m = ma * mb
    H = _hamiltonian_block(model, ea, eb)
    evals, evecs = np.linalg.eigh(H)
    del H
    ground = float(evals[0]) + model.nuclear_shift
    degenerate = len(evals) > 1 and evals[1] - evals[0] < DEGENERACY_TOL
    if degenerate:
        warnings.warn(
            f"ground state degenerate within {DEGENERACY_TOL:g}; "
            "keeping the lowest-index eigenvector", stacklevel=2)
    d = model.dipole.reshape(3, n * n)
    da, db = ((d @ e.reshape(n * n, -1)).reshape(3, k, k)
              for e, k in ((ea, ma), (eb, mb)))
    dips = np.empty((3, m, m))
    du = np.empty((ma, mb, m))
    u = evecs.reshape(ma, mb, m)
    # (D_a x 1) U in one product, then (1 x D_b) U added alpha string by
    # alpha string, so no second m x m temporary is made
    for a, b, out in zip(da, db, dips):
        np.matmul(a, evecs.reshape(ma, -1), out=du.reshape(ma, -1))
        for row, ui in zip(du, u):
            row += b @ ui
        np.matmul(evecs.T, du.reshape(m, m), out=out)
    return SpectralData(
        eigenvalues=evals - evals[0],
        transition_dipoles=dips,
        ground_energy=ground,
        alpha=alpha,
        alpha_shift=alpha + abs(float(evals[0])),
        betas=betas,
        label=model.label or "unnamed",
        n_modes=2 * n,
        n_electrons=eta,
        degenerate_ground=degenerate,
    )


def _hamiltonian_block(model: ModelSpec, ea: np.ndarray,
                       eb: np.ndarray) -> np.ndarray:
    """H on the product of the alpha and beta strings that ea and eb (from
    _excitations) act on, |I, J> at row I * len(J strings) + J."""
    n = model.n_orbitals
    ma, mb = ea.shape[1], eb.shape[1]
    G = model.V.transpose(0, 3, 1, 2).reshape(n * n, n * n)
    H = (ea.reshape(n * n, -1).T @ ((G + G.T) @ eb.reshape(n * n, -1))
         ).reshape(ma, ma, mb, mb).transpose(0, 2, 1, 3).reshape(ma * mb, -1)
    one = (model.T - model.V.trace(axis1=1, axis2=3)).reshape(1, n * n)
    H4 = H.reshape(ma, mb, ma, mb)
    # h_a x 1 on the (b, b) diagonal of H4[a, b, c, d], 1 x h_b on (a, a)
    for e, diag in ((ea, H4.transpose(1, 3, 0, 2)),
                    (eb, H4.transpose(0, 2, 1, 3))):
        k = e.shape[1]
        h = (one @ e.reshape(n * n, -1)).reshape(k, k)
        h += e.transpose(1, 0, 2).reshape(k, -1) @ (
            G @ e.reshape(n * n, -1)).reshape(-1, k)
        same = np.arange(len(diag))
        diag[same, same] += h
    return H


def _excitations(n: int, k: int) -> np.ndarray:
    """E[p * n + q] = a_p^dag a_q on the C(n, k) strings of k electrons in
    n orbitals of one spin, as an (n * n, m, m) array; a string is
    a_i1^dag .. a_ik^dag |0> with i1 < .. < ik, strings in the order of
    itertools.combinations."""
    strings = np.array(list(combinations(range(n), k)), dtype=int)
    m = len(strings)
    occ = np.zeros((m, n), dtype=int)
    occ[np.arange(m)[:, None], strings] = 1
    below = np.cumsum(occ, axis=1) - occ
    masks = occ @ (1 << np.arange(n))
    index = np.zeros(1 << n, dtype=int)
    index[masks] = np.arange(m)
    p, q = np.arange(n)[:, None, None], np.arange(n)[None, :, None]
    # a_q needs q filled and a_p^dag then p empty, or p == q; the sign
    # counts the filled orbitals below q, then those below p without q
    live = (occ.T[None] == 1) & ((p == q) | (occ.T[:, None] == 0))
    target = index[masks ^ (1 << q) | (1 << p)]
    parity = below.T[None] + below.T[:, None] - (q < p)
    pi, qi, j = np.nonzero(live)
    E = np.zeros((n, n, m, m))
    E[pi, qi, target[pi, qi, j], j] = 1 - 2 * (parity[pi, qi, j] & 1)
    return E.reshape(n * n, m, m)


def _one_norms(model: ModelSpec) -> tuple:
    """alpha and (beta_x, beta_y, beta_z) in the closed forms that
    SpectralData states.  Entries at or below PRUNE_TOL drop first, as the
    ladder sums drop them; then each Jordan-Wigner string whose magnitude
    is at or below PRUNE_TOL drops, as the image drops it: the identity
    (|E|, |tr d|), and per spin |h| / 2, |d| / 2 and each same-spin pair
    difference over 2, and |V| / 2 for each opposite-spin term."""
    T, V, D = (np.where(np.abs(t) > PRUNE_TOL, t, 0.0)
               for t in (model.T, model.V, model.dipole))
    n = len(T)
    J, J1, K = (V.trace(axis1=a, axis2=b) for a, b in ((0, 3), (1, 2), (1, 3)))
    E = (np.trace(T) + np.trace(J) - np.trace(K)
         + np.trace(V.trace(axis1=0, axis2=1)) / 2)
    below = np.arange(n)[:, None] < np.arange(n)  # [p, q]: p < q
    pairs = (V - V.transpose(0, 1, 3, 2))[below[:, :, None, None]
                                          & below.T[None, None]]
    same_spin = np.concatenate(((T + J + J1 - K).ravel(), pairs)) / 2
    alpha = _string_norm(E, same_spin, same_spin, V / 2)
    return alpha, tuple(_string_norm(np.trace(d), d / 2, d / 2) for d in D)


def _string_norm(*magnitudes) -> float:
    """The sum of the string magnitudes above PRUNE_TOL."""
    mags = np.abs(np.concatenate([np.ravel(m) for m in magnitudes]))
    return float(mags[mags > PRUNE_TOL].sum())


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
    windows = check_windows(windows)
    axes = check_axes(axes, len(windows) + 1)
    u = sd.transition_dipoles[axes[-1]][:, 0]
    for ax, (lo, hi) in zip(axes[-2::-1], windows[::-1]):
        u = u * _window_mask(sd, lo, hi)
        u = sd.transition_dipoles[ax] @ u
    return float(u[0])


def alpha1(sd: SpectralData, i: int, j: int, omega_grid, gamma: float
           ) -> SusceptibilityResult:
    """Linear susceptibility on a grid of finite frequencies."""
    i, j = check_axes((i, j), 2)
    check_positive("gamma", gamma)
    omega_grid = np.atleast_1d(check_reals(omega_grid,
                                           "frequency grid points"))
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


def r_pathway_fd(sd: SpectralData, axes, omega_triples, gamma: float
                 ) -> SusceptibilityResult:
    """R1 in the frequency domain (i^3 folded in) at each frequency triple
    (w1, w2, w3), for axes = (i, i3, i2, i1): the dipoles i1, i2, i3 act in
    time order on the left, right and right of rho0 = |0><0|, each step
    followed by 1/(w_a - w_b - W_k - i gamma) at the cumulative frequencies
    W1 = w1, W2 = W1 + w2, W3 = W2 + w3, and Tr[d_i rho] closes the trace."""
    i, i3, i2, i1 = check_axes(axes, 4)
    check_positive("gamma", gamma)
    triples = check_triples(omega_triples)
    d = sd.transition_dipoles
    wdiff = sd.eigenvalues[:, None] - sd.eigenvalues[None, :]
    rho0 = np.zeros((sd.n_states, sd.n_states), dtype=complex)
    rho0[0, 0] = 1.0
    vals = np.empty(len(triples), dtype=complex)
    for k, (W1, W2, W3) in enumerate(np.cumsum(triples, axis=1).tolist()):
        rho = d[i1] @ rho0 / (wdiff - W1 - 1j * gamma)
        rho = rho @ d[i2] / (wdiff - W2 - 1j * gamma)
        rho = rho @ d[i3] / (wdiff - W3 - 1j * gamma)
        vals[k] = np.trace(d[i] @ rho)
    return SusceptibilityResult(3, triples, vals, gamma, (i, i3, i2, i1))
