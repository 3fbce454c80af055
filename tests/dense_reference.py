"""Dense reference for the filtered dipole chains of the measurement layer.

The chain is built on the particle-number sector of the naive Fock matrices
in conftest, and every filter is applied to the Hamiltonian matrix by the
three-term Chebyshev recurrence.  Nothing is taken from the package's Pauli
layer or eigenvectors: only the filter polynomial (`build_indicator`) and the
spectral bounds on SpectralData (alpha_shift, betas) are shared, so this can
arbitrate when the eigenbasis images `estimate._chain_images` and a test
disagree.
"""

import math

import numpy as np

from conftest import naive_model_matrices
from respsim import build_indicator


def dense_filter(filt, H):
    """p(H) by T_{j+1}(H) = 2 H T_j(H) - T_{j-1}(H), on the y-series of p:
    the stored half-series at even indices, zeros at odd ones."""
    Y = np.asarray(H)
    eye = np.eye(len(Y))
    c = np.zeros(filt.degree + 1)
    c[::2] = filt.coefficients
    out = c[0] * eye
    t_prev, t_cur = eye, Y
    for cj in c[1:]:
        out = out + cj * t_cur
        t_prev, t_cur = t_cur, 2.0 * Y @ t_cur - t_prev
    return out


def rescale(tight):
    """The smallest 2^(j/8) at or above tight, searched from below."""
    j = math.floor(8.0 * math.log2(tight)) - 2
    while 2.0 ** (j / 8.0) < tight:
        j += 1
    return 2.0 ** (j / 8.0)


def dense_box_value(model, sd, chain_axes, windows, deltas, eps):
    """<g| D_0 p_1(Y_1) Q D_1 ... p_n(Y_n) Q D_n |g> / zeta.

    chain_axes and windows are ordered as in nested window amplitudes;
    Y_k = (H - E0 - w_c)/s with s the smallest 2^(j/8), j an integer, at or
    above max(w_c, alpha_shift - w_c), p_k the certified indicator of
    [-h/s, h/s] with ramp delta/s, Q = I - |g><g|, and zeta the product of
    the chain's dipole one-norms (0 counts as 1).
    """
    H, D = naive_model_matrices(model)
    evals, evecs = np.linalg.eigh(H)
    g = evecs[:, 0]
    Q = np.eye(len(H)) - np.outer(g, g)
    v = D[chain_axes[-1]] @ g
    for ax, (lo, hi), delta in zip(chain_axes[-2::-1], windows[::-1],
                                   deltas[::-1]):
        wc, h = (lo + hi) / 2.0, (hi - lo) / 2.0
        s = rescale(max(wc, sd.alpha_shift - wc))
        p = build_indicator(h / s, delta / s, eps)
        Y = (H - (evals[0] + wc) * np.eye(len(H))) / s
        v = D[ax] @ (Q @ (dense_filter(p, Y) @ v))
    zeta = math.prod(sd.betas[ax] or 1.0 for ax in chain_axes)
    return complex(g @ v) / zeta
