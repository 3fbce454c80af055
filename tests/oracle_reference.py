"""Test-side physics references that no run of the package calls.

The time-domain linear kernel, the four third-order pathways in the time
domain (a density-matrix walk and the explicit sum over states, each the
other's check) and in the frequency domain (the same walk with resonance
factors), the full 48-term third-order susceptibility built from the
latter, the closed-form error integral of the indicator's smoothing ramp,
and the writer of the integral file format.  The package computes only
pathway 1, R1 (`respsim.r_pathway_fd`); the frequency-domain walk here is
checked against it bit for bit and against explicit sums over states for
every pathway.  The writer feeds round trips through the package's file
reader, and criterion 03 checks the ramp-error constant.  Only public
package names are imported.
"""

import itertools
import math
from pathlib import Path

import numpy as np

from respsim import InputError, ModelSpec, SpectralData
from respsim.models import TWO_BODY_IMAGES

# pathway nu -> (first, second, third) multiplication side
PATHWAY_SIDES = {
    1: ("l", "r", "r"),
    2: ("r", "l", "r"),
    3: ("r", "r", "l"),
    4: ("l", "l", "l"),
}


# ---------------------------------------------------------------------------
# time-domain response
# ---------------------------------------------------------------------------

def chi1_time(sd: SpectralData, i: int, j: int, s_grid, gamma: float
              ) -> np.ndarray:
    """Time-domain linear response kernel; zero for s < 0.

        chi1_time(s) = theta(s) [ sum_{n!=0} i d_i[0,n] d_j[n,0]
                                  e^{(-i w_n - gamma) s} + c.c. ]
    """
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


def _pathway_factors(sd: SpectralData, nu: int, axes):
    """Shared bookkeeping for the r_pathways routes and pathway_fd.

    Returns (F, ops) with F the trace-closing dipole and ops the
    (matrix, side) list in time order."""
    if nu not in PATHWAY_SIDES:
        raise InputError(f"pathway index {nu} not in 1..4")
    axes = tuple(axes)
    if len(axes) != 4:
        raise InputError("axes must be (i, i3, i2, i1)")
    i, i3, i2, i1 = axes
    d = sd.transition_dipoles
    sides = PATHWAY_SIDES[nu]
    ops = [(d[i1], sides[0]), (d[i2], sides[1]), (d[i3], sides[2])]
    return d[i], ops


def r_pathways(sd: SpectralData, nu: int, axes, s3: float, s2: float,
               s1: float, gamma: float, method: str = "superop") -> complex:
    """Time-domain third-order pathway nu at delays (s3, s2, s1).

    method="superop" walks the density matrix through the left/right dipole
    pattern with elementwise coherence evolution; method="sos" evaluates the
    equivalent explicit sum over states.  Both vanish if any delay is
    negative.
    """
    if min(s1, s2, s3) < 0:
        return 0j
    F, ops = _pathway_factors(sd, nu, axes)
    w = sd.eigenvalues
    if method == "superop":
        rho = np.zeros((sd.n_states, sd.n_states), dtype=complex)
        rho[0, 0] = 1.0
        for (mat, side), s in zip(ops, (s1, s2, s3)):
            rho = mat @ rho if side == "l" else rho @ mat
            rho = rho * np.exp((-1j * (w[:, None] - w[None, :]) - gamma) * s)
        return complex(np.trace(F @ rho))
    if method == "sos":
        # explicit forms, one per pathway pattern
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


# ---------------------------------------------------------------------------
# frequency-domain pathways and the full third-order susceptibility
# ---------------------------------------------------------------------------

def pathway_fd(sd: SpectralData, nu: int, axes, O3: float, O2: float,
               O1: float, gamma: float) -> complex:
    """Frequency-domain pathway nu (i^3 folded in) at cumulative
    frequencies (O1, O2, O3), for axes = (i, i3, i2, i1): the superop walk
    of r_pathways with each step's propagator replaced by its time
    integral, the resonance factor 1/(w_a - w_b - O - i gamma)."""
    F, ops = _pathway_factors(sd, nu, axes)
    w = sd.eigenvalues
    wdiff = w[:, None] - w[None, :]
    rho = np.zeros((sd.n_states, sd.n_states), dtype=complex)
    rho[0, 0] = 1.0
    for (mat, side), O in zip(ops, (O1, O2, O3)):
        rho = mat @ rho if side == "l" else rho @ mat
        rho = rho / (wdiff - O - 1j * gamma)
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
        val = pathway_fd(sd, nu, (i, ax_time[2], ax_time[1], ax_time[0]),
                         O3, O2, O1, gamma)
        total += np.conj(val) if conjugate else val
    return complex(total / 6.0)


# ---------------------------------------------------------------------------
# indicator ramp error
# ---------------------------------------------------------------------------

def jump_error_integral(delta: float, eps_cut: float = 0.0) -> float:
    """Accumulated indicator error across the smoothing ramp.

    Integrates |erf(x/delta) - 1| = erfc(x/delta) for x in [eps_cut, delta]
    in closed form:
        delta [F(1) - F(eps_cut/delta)],  F(u) = u erfc(u) - exp(-u^2)/sqrt(pi),
    F being an antiderivative of erfc.  With eps_cut = 0 this is delta times
    the unit constant integral_0^1 erfc(y) dy = 0.51394, so the result grows
    linearly in the ramp width.  When the cut lies within 1e-3 delta of the
    ramp's end, F(1) - F(u) loses digits to cancellation, so there the Taylor
    series in h = 1 - u of the same integral is summed instead:
        erfc(1) h + 2/(e sqrt(pi)) sum_n H_n(1) h^(n+2)/(n+2)!,
    H_n the Hermite polynomials; four terms keep it to roundoff.
    """
    if not (math.isfinite(delta) and delta > 0):
        raise InputError("delta must be positive and finite")
    if not 0 <= eps_cut < delta:
        raise InputError("eps_cut must lie in [0, delta)")
    h = (delta - eps_cut) / delta
    if h < 1e-3:
        series = h * h * (1 / 2 + h * (1 / 3 + h * (1 / 12 - h / 30)))
        ramp = math.erfc(1.0) * h + 2.0 / (math.e * math.sqrt(math.pi)) * series
    else:
        ramp = _erfc_antiderivative(1.0) - _erfc_antiderivative(eps_cut / delta)
    return delta * ramp


def _erfc_antiderivative(u: float) -> float:
    return u * math.erfc(u) - math.exp(-u * u) / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# integral-file writer
# ---------------------------------------------------------------------------

def write_fcidump_like(model: ModelSpec, path, dipole_path=None):
    """Write a model's spatial integrals in the integral file format."""
    T, V, dip = model.T, model.V, model.dipole
    norb = model.n_orbitals
    lines = [f"&FCI NORB={norb} NELEC={model.n_electrons}", "&END"]
    for i in range(norb):
        for j in range(i, norb):
            if abs(T[i, j]) > 0:
                lines.append(f"{T[i, j]:.17g}   {i + 1} {j + 1} 0 0")
    seen = set()
    for idx in zip(*np.nonzero(np.abs(V) > 0)):
        idx = tuple(int(x) for x in idx)
        if idx in seen:
            continue
        seen.update(tuple(idx[a] for a in perm) for perm in TWO_BODY_IMAGES)
        i, j, k, l = idx
        lines.append(f"{V[idx]:.17g}   {i + 1} {j + 1} {k + 1} {l + 1}")
    if model.nuclear_shift != 0.0:
        lines.append(f"{model.nuclear_shift:.17g}   0 0 0 0")
    Path(path).write_text("\n".join(lines) + "\n")
    if dipole_path is not None:
        dlines = []
        for ax, tag in enumerate("xyz"):
            for i in range(norb):
                for j in range(i, norb):
                    if abs(dip[ax, i, j]) > 0:
                        dlines.append(f"{tag} {dip[ax, i, j]:.17g} {i + 1} {j + 1}")
        Path(dipole_path).write_text("\n".join(dlines) + "\n")
