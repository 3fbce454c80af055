"""Measurement-protocol simulation: Hadamard tests, bin search, estimation.

The quantities being estimated are nested-window amplitudes of a dipole
chain D_0 p(H) D_1 ... p(H) D_n with one eigenstate filter between
consecutive dipoles; a first-order window sum
    d_[a,b] = sum_{excitation in [a,b)} d_out[0,j] d_in[j,0]
is the depth-1 case.  A hypothetical device starts in the ground state,
applies the encoded chain with each filter p((H - E0 - w_c I)/s) and reads
the ancilla of a Hadamard test: P(0) = (1 + x)/2, x = <0|chain|0>/zeta.
The models are real (real orbitals, symmetric dipoles, real filters), so
every chain amplitude is a real number of either sign, and one Hadamard
test per amplitude reads all of it.  Classically we have the eigensystem,
so x is computed through it and only the *statistics* are simulated.  The
ground state contributes to the raw chain through every filter slot; those
terms are classically known and are subtracted from estimates and from the
bin-search test statistics (the physical protocol would apply the same
correction to its empirical frequencies).

Hadamard tests run on plain arrays.  `_chain_images` returns the chain's
images of the ground state for every cell of a split box at once, as one
real array (an estimate's box is the one-cell split); a search level reads
its cells' amplitudes as the LCU of B Hadamard tests, P(i) = (1 + x_i)/(2B)
with the remainder discarded (`_lcu_probabilities`, the one place that
checks for a wrong zeta), and draws the level's counts in one multinomial
(`_sample_counts`).  A direct estimate is the one-bin case.  One search
engine (`binary_search_nd`) and one estimator (`estimate_box`) serve every
depth, and both take the dipole chain outermost axis first: a first-order
window is the depth-1 chain (axis_out, axis_in).  A bin scores the
absolute deviation of its frequency from the flat background 1/(2B) at
every depth, since a bright cell may raise or lower its probability, and a
search level ranks its bins by `_relation_matrix`: bin i outranks bin j
when its score exceeds j's by more than tau.  A search is set by its
resolution gamma and its threshold tau alone: the sample count, the dyadic
span and the depth follow from them, and the rest (BRANCHING, EPS_CONF,
OVERLAP, FILTER_EPS, MAX_BOXES) are module constants.

Every search and estimate takes the SpectralData of one model and nothing
else: the subnormalizations (alpha, beta per dipole axis), the excitation
bound alpha_shift that sets each filter's rescale, and the filters all
belong to it, so they live and die with one spectrum.  `chebfilter` builds
only the centred indicator of [-h, h] in its own variable; this module
alone places a window on the spectrum.  The filter of a window
[wc - h, wc + h) with margin delta is the indicator of the shape
(h/s, delta/s, eps) evaluated at (eigenvalues - wc)/s, with the rescale s
rounded up to a power of 2^(1/RESCALE_STEPS) (`_rescale`).  Cells of one
width whose rescales round alike share one polynomial, within a level and
across levels and searches: each shape is built once per spectrum and kept
in SpectralData.filters, and each window's values are evaluated once, in
one eval call per shape per level, and kept in SpectralData.filter_values.
No filter state is held at module level, and repeated searches over the
same spectrum rebuild and re-evaluate nothing.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .chebfilter import build_indicator
from .errors import (InputError, check_axes, check_positive, check_seed,
                     check_windows)
from .spectra import SpectralData

P0_SLACK = 0.05          # tolerated overshoot of |v| beyond 1 (filter bump)
RESCALE_STEPS = 8        # filter rescales per octave (see _rescale)
METHODS = ("direct", "ae", "exact")    # estimate_box backends
# the search's fixed settings: bins per axis, the per-level failure
# probability of the sample-size bound, the filter margin as a fraction of
# a bin's width, the filter error, and the most levels one search visits
BRANCHING = 2
EPS_CONF = 1.0 / 3.0
OVERLAP = 0.3
FILTER_EPS = 1e-2
MAX_BOXES = 2000


# ---------------------------------------------------------------------------
# per-spectrum filter values and chain subnormalization
# ---------------------------------------------------------------------------

def _rescale(wc: float, alpha_shift: float) -> float:
    """Rescale s of the filter centred at excitation energy wc.

    The filter acts on the shifted operator H - E0 - wc, rescaled by s.
    Excitation energies are certified to lie in [0, alpha_shift], so the
    shifted spectrum fits in [-s, s] for any s >= max(wc, alpha_shift - wc).
    That tight bound is rounded up to the next 2^(k/RESCALE_STEPS), so
    tight <= s < 2^(1/RESCALE_STEPS) tight: windows of one width whose
    tight bounds fall in one step share a filter shape, at a degree of
    about 2^(1/RESCALE_STEPS) times their own at most.  Windows start at
    wc >= half-width > 0, hence s >= half-width always.  The tight bound
    matters: the degree scales with s, and the generic alpha + |wc| would
    roughly double it.
    """
    tight = max(wc, alpha_shift - wc)
    k = math.ceil(RESCALE_STEPS * math.log2(tight))
    # log2 rounds; settle k so that 2^((k-1)/n) < tight <= 2^(k/n)
    while 2.0 ** (k / RESCALE_STEPS) < tight:
        k += 1
    while 2.0 ** ((k - 1) / RESCALE_STEPS) >= tight:
        k -= 1
    return 2.0 ** (k / RESCALE_STEPS)


def _filter_columns(sd: SpectralData, axis_bins, deltas, eps: float):
    """Per box axis, (degrees, values) of the indicator filters of its bins
    with that axis's margin: a degree per bin, and the values at
    sd.eigenvalues as the columns of a fresh (M, bins) array.

    The bin [wc - h, wc + h) gets the filter of shape (h/s, delta/s, eps)
    at the points (eigenvalues - wc)/s, s = `_rescale(wc)`.  Its
    three-region certificate, stated in units of s, is the bin's own.  Each
    shape's polynomial is built once per spectrum (sd.filters); the values
    of bins not yet in sd.filter_values come from one eval call per shape
    over all of them.
    """
    keys = []
    todo = {}
    for bins, delta in zip(axis_bins, deltas):
        row = []
        for lo, hi in bins:
            wc, h = (lo + hi) / 2.0, (hi - lo) / 2.0
            s = _rescale(wc, sd.alpha_shift)
            shape = (round(h / s, 12), round(delta / s, 12), float(eps))
            key = (shape, round(wc, 12), s)
            row.append(key)
            if key not in sd.filter_values:
                todo.setdefault(shape, {}).setdefault(key, (wc, h / s,
                                                            delta / s))
        keys.append(row)
    for shape, cells in todo.items():
        filt = sd.filters.get(shape)
        if filt is None:
            _, h, delta = next(iter(cells.values()))
            filt = sd.filters[shape] = build_indicator(h, delta, eps)
        x = np.concatenate([(sd.eigenvalues - wc) / s
                            for (_, _, s), (wc, _, _) in cells.items()])
        vals = filt.eval(x).reshape(len(cells), -1)
        sd.filter_values.update(zip(cells, vals))
    return [([sd.filters[key[0]].degree for key in row],
             np.array([sd.filter_values[key] for key in row]).T)
            for row in keys]


def chain_zeta(sd: SpectralData, chain_axes) -> float:
    """Subnormalization of the dipole chain: the product of its per-axis
    encoding norms, a zero dipole getting the unit encoding (the cost
    ledger's beta too)."""
    return math.prod(sd.betas[ax] or 1.0 for ax in chain_axes)


# ---------------------------------------------------------------------------
# chain images and the LCU-of-Hadamard-tests measurement
# ---------------------------------------------------------------------------

def _chain_images(sd: SpectralData, chain_axes, axis_bins, deltas,
                  eps: float, ground: bool = False):
    """Images of the ground state under the chain of every cell of a split
    box (a 1-D window is the depth-1 box, an unsplit box one bin per axis).

    axis_bins[k] lists the windows of box axis k, outermost first, and
    deltas[k] is their margin; the cells are the Cartesian product of the
    bins in `_split_box` order.  Each filter slot multiplies every image so
    far by each of its bins' filter values and applies the slot's dipole to
    them all in one product, so the images come back as the columns of an
    (M, cells) array.  With ground=False the ground state is zeroed at every
    depth (the classical subtraction applied once per nesting level), so
    entry 0 of a column over the chain's zeta is that cell's amplitude;
    with ground=True the images are uncorrected, and their norm sets the
    amplification rounds.  Also returns the summed filter degree charged
    per query of every cell, sum_k (cells / B_k) * sum_b deg(k, b).
    """
    ncells = math.prod(len(bins) for bins in axis_bins)
    u = sd.transition_dipoles[chain_axes[-1]][:, :1]
    degree = 0
    columns = _filter_columns(sd, axis_bins, deltas, eps)
    for ax, (degs, p) in zip(chain_axes[-2::-1], columns[::-1]):
        degree += ncells // len(degs) * sum(degs)
        if not ground:
            p[0] = 0.0
        u = sd.transition_dipoles[ax] @ (
            p[:, :, None] * u[:, None, :]).reshape(len(p), -1)
    return u, degree


def _lcu_probabilities(x) -> np.ndarray:
    """P(i) = (1 + x_i)/(2B) over B bins, the remainder last (discarded).

    x holds each bin's real amplitude over zeta; one Hadamard test is the
    B = 1 case, P(0) = (1 + x)/2.  A mild filter overshoot beyond [-1, 1]
    is clipped; a larger one means the caller divided by the wrong zeta
    and is rejected.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise InputError("need at least one bin")
    if (np.abs(x) > 1.0 + P0_SLACK).any():
        raise InputError("bin amplitude outside [-1, 1]: wrong zeta?")
    full = np.empty(x.size + 1)
    probs = full[:-1]
    np.minimum(np.maximum(x, -1.0), 1.0, out=probs)
    probs += 1.0
    probs /= 2.0 * x.size
    # each clipped bin holds at most 1/B, so only roundoff can push the
    # discard below 0
    full[-1] = max(1.0 - probs.sum(), 0.0)
    return full / full.sum()


def _sample_counts(rng, x, n: int) -> np.ndarray:
    """Counts per bin of n LCU shots over amplitudes x, discards dropped.

    The n shots are independent categorical draws, so their counts are one
    Multinomial(n, p) draw: O(B) time and memory whatever n is.  Seeded
    runs are byte-identical for as long as numpy keeps its
    ``Generator.multinomial`` stream; tests pin the equality.
    """
    return rng.multinomial(n, _lcu_probabilities(x))[:-1]


def _relation_matrix(gap, tau: float) -> np.ndarray:
    """R[i, j] = +1 (-1) when gap[i, j] = s_i - s_j exceeds tau (is below
    -tau), else 0; antisymmetric with a zero diagonal."""
    return (gap > tau).astype(int) - (gap < -tau).astype(int)


# ---------------------------------------------------------------------------
# search trace
# ---------------------------------------------------------------------------

@dataclass
class SearchTrace:
    """Everything one search run did, in visiting order."""

    config: dict
    seed: int
    dims: int
    levels: list = field(default_factory=list)
    peaks: list = field(default_factory=list)
    marked: list = field(default_factory=list)
    queries_total: int = 0
    per_level_queries: dict = field(default_factory=dict)
    truncated: bool = False

    @property
    def found(self) -> bool:
        return len(self.peaks) > 0

    def as_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "found": self.found}


# ---------------------------------------------------------------------------
# the search itself (one engine for every depth)
# ---------------------------------------------------------------------------

def _split_box(box, nbins):
    """Bins of a box; returns (per-axis bins, cells, per-axis widths).

    box: tuple of (lo, hi) per axis; nbins: per-axis subdivision counts.
    Cells are the Cartesian product of the bins, ordered lexicographically
    by axis indices.
    """
    widths = [(hi - lo) / nb for (lo, hi), nb in zip(box, nbins)]
    axis_bins = [[(lo + i * w, lo + (i + 1) * w) for i in range(nb)]
                 for (lo, _), nb, w in zip(box, nbins, widths)]
    return axis_bins, list(itertools.product(*axis_bins)), widths


def _adjacent_pair(i, j, nbins):
    """Axis along which flat cells i and j are face-adjacent, else None."""
    diff = np.abs(np.subtract(np.unravel_index(i, nbins),
                              np.unravel_index(j, nbins)))
    return int(np.argmax(diff)) if diff.sum() == 1 else None


def binary_search_nd(sd: SpectralData, chain_axes, gamma: float, tau: float,
                     seed: int = 0) -> SearchTrace:
    """Search over boxes of depth len(chain_axes) - 1 with nested window
    filters; peaks and marked cells come back as boxes, one [lo, hi] per
    axis at every depth (a depth-1 peak is a one-pair box, exactly what
    `estimate_box` takes as its windows), and peaks are exactly gamma wide.

    chain_axes is the dipole chain, ordered as in nested window amplitudes:
    outermost first, so a first-order search runs on (axis_out, axis_in).
    At least two axes (a depth-1 search) are needed.  Bin i outranks bin j
    when its score exceeds j's by more than tau, and each level draws the
    sample-size bound N_s = ceil(log(4/EPS_CONF)/tau^2) shots.  Every axis
    spans the dyadic (0, gamma 2^L) covering [0, alpha_shift], with
    L = max(1, ceil(log2(alpha_shift/gamma))): descending and merging both
    halve the cell width on every axis, so the cells of level d are
    span/2^(d+1) wide, a search ends at depth L - 1 at the latest, and
    MAX_BOXES levels bound its work (`truncated` reports a cut).
    """
    chain_axes = check_axes(chain_axes)
    if len(chain_axes) < 2:
        raise InputError("need at least two chain axes")
    check_positive("gamma", gamma)
    if not math.isfinite(sd.alpha_shift / gamma):
        raise InputError("alpha_shift/gamma must be finite")
    check_positive("tau", tau)
    # the multinomial draw takes N_s as a 64-bit integer
    if not tau ** 2 * 2.0 ** 63 > math.log(4.0 / EPS_CONF):
        raise InputError("tau must keep N_s below 2^63")
    seed = check_seed(seed)
    rng = np.random.default_rng(seed)
    ndim = len(chain_axes) - 1
    levels = max(1, math.ceil(math.log2(sd.alpha_shift / gamma)))
    span = (0.0, gamma * 2 ** levels)
    n_s = math.ceil(math.log(4.0 / EPS_CONF) / tau ** 2)
    config = {"gamma": float(gamma), "branching": BRANCHING,
              "tau": float(tau), "eps_conf": EPS_CONF, "N_s": n_s,
              "overlap": OVERLAP, "span": list(span),
              "filter_eps": FILTER_EPS, "max_boxes": MAX_BOXES}
    trace = SearchTrace(config=config, seed=seed, dims=ndim)
    split = (BRANCHING,) * ndim
    queue = deque([((span,) * ndim, 0, split)])
    seen_peaks = set()
    zeta = chain_zeta(sd, chain_axes)

    while queue:
        if len(trace.levels) >= MAX_BOXES:
            trace.truncated = True
            break
        box, depth, nbins = queue.popleft()
        axis_bins, cells, widths = _split_box(box, nbins)
        ncells = len(cells)
        deltas = [OVERLAP * w for w in widths]
        u, degree = _chain_images(sd, chain_axes, axis_bins, deltas,
                                  FILTER_EPS)
        counts = _sample_counts(rng, u[0] / zeta, n_s)
        charge = n_s * degree
        scores = np.abs(counts / n_s - 1.0 / (2.0 * ncells))
        R = _relation_matrix(np.subtract.outer(scores, scores), tau)
        trace.queries_total += charge
        lvl_key = str(depth)
        trace.per_level_queries[lvl_key] = \
            trace.per_level_queries.get(lvl_key, 0) + charge
        prominent = [i for i in range(ncells) if scores[i] > tau]
        terminal = max(widths) <= gamma * (1.0 + 1e-9)

        def record(decision):
            trace.levels.append({
                "box": [list(iv) for iv in box],
                "depth": depth,
                "nbins": list(nbins),
                "counts": [int(c) for c in counts],
                "R": R.tolist(),
                "prominent": prominent,
                "decision": decision,
                "charge": charge,
            })

        if not prominent:
            record("empty")
            continue
        if terminal:
            record("peaks")
            for i in prominent:
                key = tuple((round(a, 12), round(b, 12)) for a, b in cells[i])
                if key not in seen_peaks:
                    seen_peaks.add(key)
                    trace.peaks.append([list(iv) for iv in cells[i]])
            continue
        # each decision picks the box searched next and the cells it uses;
        # the other prominent cells are marked and queued behind
        dominant = [i for i in prominent
                    if all(R[i, j] == 1 for j in range(ncells) if j != i)]
        merge = None
        if not dominant:
            tied = ((i, j) for a, i in enumerate(prominent)
                    for j in prominent[a + 1:] if R[i, j] == 0)
            for i, j in tied:
                axis = _adjacent_pair(i, j, nbins)
                if axis is not None:
                    merge = (i, j, axis)
                    break
        if dominant:
            decision, used = "descend", (dominant[0],)
            first, first_nbins = cells[dominant[0]], split
        elif merge is not None:
            i, j, axis = merge
            lo = min(cells[i][axis][0], cells[j][axis][0])
            hi = max(cells[i][axis][1], cells[j][axis][1])
            decision, used = "merge", (i, j)
            first = tuple((lo, hi) if d == axis else cells[i][d]
                          for d in range(ndim))
            first_nbins = tuple(2 * BRANCHING if d == axis else BRANCHING
                                for d in range(ndim))
        else:
            pick = int(rng.choice(np.array(prominent)))
            decision, used = "random-pick", (pick,)
            first, first_nbins = cells[pick], split
        record(decision)
        queue.appendleft((first, depth + 1, first_nbins))
        for r in prominent:
            if r not in used:
                trace.marked.append([list(iv) for iv in cells[r]])
                queue.append((cells[r], depth + 1, split))

    return trace


# ---------------------------------------------------------------------------
# window estimation
# ---------------------------------------------------------------------------

@dataclass
class WindowEstimate:
    window: tuple
    axes: tuple
    value: float
    method: str
    shots: int
    queries: int
    eps_filter: float
    eps_stat: float
    degree: int
    rounds: int
    delta: float
    zeta: float

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def estimate_box(sd: SpectralData, chain_axes, windows, eps: float,
                 method: str = "ae", delta: float = None,
                 seed: int = 0) -> WindowEstimate:
    """Estimate a nested-window amplitude to additive accuracy eps (plus
    the unavoidable delta-margin mass).

    chain_axes is the dipole chain, one entry longer than `windows`, ordered
    as in nested window amplitudes; `windows` is a non-empty list of
    (lo, hi) pairs.  delta (default a quarter of each window's width) must
    lie inside every window's half-width.
    methods: "direct" Bernoulli Hadamard sampling (shots ~ 1/eps^2 < 2^63);
    "ae" idealized amplitude estimation (exact value + seeded perturbation
    bounded by the statistical budget, shots ~ 1/eps); "exact" the ae
    query accounting with the perturbation switched off.  Amplification
    rounds follow from the norm of the uncorrected filtered image.
    """
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    check_positive("eps", eps)
    rng = np.random.default_rng(check_seed(seed))
    windows = check_windows(windows)
    if not windows:
        raise InputError("need at least one window")
    for lo, hi in windows:
        if lo < 0:
            raise InputError(f"window [{lo}, {hi}) needs finite real edges, "
                             "0 <= lo < hi")
    if delta is None:
        deltas = [(hi - lo) / 4.0 for lo, hi in windows]
    else:
        check_positive("delta", delta)
        deltas = [delta] * len(windows)
    for (lo, hi), d in zip(windows, deltas):
        if not 0 < d < (hi - lo) / 2.0:
            raise InputError("delta must lie in (0, half-width)")
    chain_axes = check_axes(chain_axes, len(windows) + 1)
    zeta = chain_zeta(sd, chain_axes)
    eps_v = eps / (2.0 * zeta)
    # the direct method's binomial draw takes a 64-bit shot count
    direct_shots = 2.0 * math.log(12.0) / max(eps_v ** 2, math.ulp(0.0))
    if method == "direct" and not direct_shots < 2.0 ** 63:
        raise InputError("eps must keep the direct shot count below 2^63")
    eps_f = min(eps_v, 0.4)
    axis_bins = [[w] for w in windows]
    u, degree = _chain_images(sd, chain_axes, axis_bins, deltas, eps_f)
    u_raw = _chain_images(sd, chain_axes, axis_bins, deltas, eps_f,
                          ground=True)[0][:, 0]
    value = float(u[0, 0]) / zeta
    if method == "direct":
        # the device reads the raw chain, ground included, and the known
        # ground term is subtracted from what it reads
        ground = float(u_raw[0]) / zeta - value
        shots = math.ceil(direct_shots)
        p0 = _lcu_probabilities([value + ground])[0]
        v_hat = 2.0 * rng.binomial(shots, p0) / shots - 1.0 - ground
    else:
        shots = math.ceil(2.0 / eps_v)
        v_hat = value
        if method == "ae":
            v_hat += eps_v * rng.uniform(-1.0, 1.0)
    d_hat = min(max(zeta * v_hat, -zeta), zeta)
    xi = float(np.linalg.norm(u_raw))
    rounds = max(1, math.ceil(zeta / max(xi, eps_v * zeta)))
    queries = degree * shots * rounds
    return WindowEstimate(
        window=windows, axes=chain_axes,
        value=d_hat, method=method, shots=shots, queries=queries,
        eps_filter=eps / 2.0, eps_stat=eps / 2.0, degree=degree,
        rounds=rounds, delta=deltas[0], zeta=zeta)
