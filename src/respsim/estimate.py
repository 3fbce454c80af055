"""Measurement-protocol simulation: Hadamard tests, bin search, estimation.

The quantities being estimated are nested-window amplitudes of a dipole
chain D_0 p(H) D_1 ... p(H) D_n with one eigenstate filter between
consecutive dipoles; a first-order window sum
    d_[a,b] = sum_{excitation in [a,b)} d_out[0,j] d_in[j,0]
is the depth-1 case.  A hypothetical device starts in the ground state,
applies the encoded chain with each filter p((H - E0 - w_c I)/s) and reads
the ancilla of a Hadamard test: P(0) = (1 + x)/2, x the real or imaginary
part of v = <0|chain|0>/zeta.  Classically we have the eigensystem, so v is
computed through it and only the *statistics* are simulated.  The ground
state contributes to the raw chain through every filter slot; those terms
are classically known and are subtracted from estimates and from the
bin-search test statistics (the physical protocol would apply the same
correction to its empirical frequencies).

Hadamard tests run on plain arrays.  `_box_channel` returns the chain's
images of the ground state; a search level reads one quadrature of its
cells' amplitudes as the LCU of B Hadamard tests, P(i) = (1 + x_i)/(2B)
with the remainder discarded (`_lcu_probabilities`, the one place that
checks for a wrong zeta), and draws the level's counts in one multinomial
(`_sample_counts`).  A direct estimate is the one-bin case, read once per
quadrature.  One search engine (`_search`, whose 1-D and n-D forms differ
only in the quadratures sampled and the score) and one estimator
(`estimate_box`) serve every depth; `binary_search_1d` and
`estimate_window` are the depth-1 forms with first-order axis order.

Every search and estimate takes the SpectralData of one model and nothing
else: the subnormalizations (alpha, beta per dipole axis), the excitation
bound alpha_shift that sets each filter's rescale, and the filter values at
the eigenvalues all belong to it, so they live and die with one spectrum.
A filter is needed only as its degree and its values at the eigenvalues:
each one is built once per spectrum, evaluated, and only (degree, values)
is kept in SpectralData.filter_values; the polynomial is dropped.  No
filter state is held at module level, and repeated searches over the same
spectrum rebuild and re-evaluate nothing.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .chebfilter import build_indicator
from .errors import InputError
from .spectra import SpectralData

P0_SLACK = 0.05          # tolerated overshoot of |v| beyond 1 (filter bump)
METHODS = ("direct", "ae", "exact")    # estimate_box backends


# ---------------------------------------------------------------------------
# per-spectrum filter values and chain subnormalization
# ---------------------------------------------------------------------------

def _filter_values(sd: SpectralData, lo: float, hi: float, delta: float,
                   eps: float):
    """(degree, values at sd.eigenvalues) of the indicator filter for the
    excitation window [lo, hi) with margin delta, kept in sd.filter_values.

    The filter acts on the shifted operator H - E0 - wc, rescaled by s.
    Excitation energies are certified to lie in [0, alpha_shift], so the
    shifted spectrum fits in [-s, s] with s = max(wc, alpha_shift - wc).
    Windows start at wc >= half-width > 0, hence s >= half-width always.
    The tight bound matters: the filter degree scales with s, and the
    generic alpha + |wc| would roughly double it.
    """
    wc = (lo + hi) / 2.0
    h = (hi - lo) / 2.0
    s = max(wc, sd.alpha_shift - wc)
    key = (round(h / s, 12), round(delta / s, 12), float(eps),
           round(wc, 12), round(s, 12))
    hit = sd.filter_values.get(key)
    if hit is None:
        filt = build_indicator(-h / s, h / s, delta / s, eps)
        vals = np.asarray(filt.eval((sd.eigenvalues - wc) / s), dtype=float)
        hit = sd.filter_values[key] = (filt.degree, vals)
    return hit


def _zeta(sd: SpectralData, chain_axes) -> float:
    """Subnormalization of the dipole chain: the product of its per-axis
    encoding norms, a zero dipole getting the unit encoding."""
    return math.prod(sd.betas[ax] or 1.0 for ax in chain_axes)


# ---------------------------------------------------------------------------
# chain images and the LCU-of-Hadamard-tests measurement
# ---------------------------------------------------------------------------

def _box_channel(sd: SpectralData, chain_axes, windows, deltas, eps: float):
    """Images of the ground state under the chain of a depth-n box (a 1-D
    window is the depth-1 box): nested filters, ground zeroed at every depth
    (the classical subtraction applied once per nesting level).

    Returns (u, u_raw, degree): the ground-corrected image u, whose entry 0
    over the chain's zeta is the box amplitude; the uncorrected image u_raw,
    whose norm sets the amplification rounds; and the summed filter degree
    charged per query.
    """
    if len(chain_axes) != len(windows) + 1:
        raise InputError("chain axes must be one longer than the box depth")
    degree = 0
    u = sd.transition_dipoles[chain_axes[-1]][:, 0].astype(complex)
    u_raw = u.copy()
    for ax, (lo, hi), delta in zip(chain_axes[-2::-1], list(windows)[::-1],
                                   list(deltas)[::-1]):
        deg, pvals = _filter_values(sd, lo, hi, delta, eps)
        degree += deg
        u_raw = sd.transition_dipoles[ax] @ (u_raw * pvals)
        masked = pvals.copy()
        masked[0] = 0.0
        u = sd.transition_dipoles[ax] @ (u * masked)
    return u, u_raw, degree


def _lcu_probabilities(x) -> np.ndarray:
    """P(i) = (1 + x_i)/(2B) over B bins, the remainder last (discarded).

    x holds one quadrature (Re or Im) of each bin's amplitude over zeta;
    one Hadamard test is the B = 1 case, P(0) = (1 + x)/2.  A mild filter
    overshoot beyond [-1, 1] is clipped; a larger one means the caller
    divided by the wrong zeta and is rejected.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise InputError("need at least one bin")
    if np.any(np.abs(x) > 1.0 + P0_SLACK):
        raise InputError("bin amplitude outside [-1, 1]: wrong zeta?")
    probs = (1.0 + np.clip(x, -1.0, 1.0)) / (2.0 * x.size)
    # each clipped bin holds at most 1/B, so only roundoff can push the
    # discard below 0
    full = np.append(probs, max(1.0 - probs.sum(), 0.0))
    return full / full.sum()


def _sample_counts(rng, x, n: int) -> np.ndarray:
    """Counts per bin of n LCU shots over quadratures x, discards dropped.

    The n shots are independent categorical draws, so their counts are one
    Multinomial(n, p) draw: O(B) time and memory whatever n is.  Seeded
    runs are byte-identical for as long as numpy keeps its
    ``Generator.multinomial`` stream; tests pin the equality.
    """
    return rng.multinomial(n, _lcu_probabilities(x))[:-1]


def inequality_test(counts_i: int, counts_j: int, N_s: int, tau: float) -> str:
    """'greater' / 'less' when the empirical gap clears tau, else
    'indistinguishable'."""
    if N_s < 1:
        raise InputError("N_s must be positive")
    diff = (counts_i - counts_j) / N_s
    if diff > tau:
        return "greater"
    if diff < -tau:
        return "less"
    return "indistinguishable"


def _relation_matrix(gap, tau: float) -> np.ndarray:
    """R[i, j] = +1 (-1) when gap[i, j] = s_i - s_j exceeds tau (is below
    -tau), else 0; antisymmetric with a zero diagonal."""
    return (gap > tau).astype(int) - (gap < -tau).astype(int)


# ---------------------------------------------------------------------------
# bin-search configuration and trace
# ---------------------------------------------------------------------------

@dataclass
class BinSearchConfig:
    """Knobs of the hierarchical bin search.

    N_s defaults to the sample-size bound ceil(log(4/eps_conf)/tau^2);
    passing a smaller value is rejected.  tau defaults to 1/(2*branching).
    """

    gamma: float
    branching: int = 2
    tau: float = None
    eps_conf: float = 1.0 / 3.0
    N_s: int = None
    max_depth: int = 40
    overlap: float = 0.1
    span: tuple = None
    filter_eps: float = 1e-2
    max_boxes: int = 2000

    def __post_init__(self):
        if self.gamma <= 0:
            raise InputError("gamma must be positive")
        if self.branching < 2:
            raise InputError("branching factor must be at least 2")
        if not 0 < self.overlap < 0.5:
            raise InputError("overlap fraction must lie in (0, 0.5)")
        if not 0 < self.eps_conf < 1:
            raise InputError("eps_conf must lie in (0, 1)")
        if not 0 < self.filter_eps < 0.5:
            raise InputError("filter_eps must lie in (0, 0.5)")
        if self.tau is None:
            self.tau = 1.0 / (2.0 * self.branching)
        if self.tau <= 0:
            raise InputError("tau must be positive")
        n_min = math.ceil(math.log(4.0 / self.eps_conf) / self.tau ** 2)
        if self.N_s is None:
            self.N_s = n_min
        elif self.N_s < n_min:
            raise InputError(
                f"N_s={self.N_s} below the sample-size bound {n_min}")
        if self.span is not None:
            lo, hi = self.span
            if not 0 <= lo < hi:
                raise InputError(
                    "span must be an increasing pair of non-negative "
                    "excitation energies")
            self.span = (float(lo), float(hi))

    def as_dict(self) -> dict:
        return {
            "gamma": self.gamma, "branching": self.branching,
            "tau": self.tau, "eps_conf": self.eps_conf, "N_s": self.N_s,
            "max_depth": self.max_depth, "overlap": self.overlap,
            "span": list(self.span) if self.span else None,
            "filter_eps": self.filter_eps, "max_boxes": self.max_boxes,
        }


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

    def to_json(self) -> str:
        payload = {
            "config": self.config,
            "seed": self.seed,
            "dims": self.dims,
            "levels": self.levels,
            "peaks": self.peaks,
            "marked": self.marked,
            "queries_total": self.queries_total,
            "per_level_queries": self.per_level_queries,
            "truncated": self.truncated,
            "found": self.found,
        }
        return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------------
# the search itself (shared 1-D / n-D engine)
# ---------------------------------------------------------------------------

def _split_box(box, nbins):
    """Cartesian bins of a box; returns (cells, per-axis widths).

    box: tuple of (lo, hi) per axis; nbins: per-axis subdivision counts.
    Cells are ordered lexicographically by axis indices.
    """
    widths = [(hi - lo) / nb for (lo, hi), nb in zip(box, nbins)]
    axes_bins = [[(lo + i * w, lo + (i + 1) * w) for i in range(nb)]
                 for (lo, _), nb, w in zip(box, nbins, widths)]
    return list(itertools.product(*axes_bins)), widths


def _adjacent_pair(i, j, nbins):
    """Axis along which flat cells i and j are face-adjacent, else None."""
    diff = np.abs(np.subtract(np.unravel_index(i, nbins),
                              np.unravel_index(j, nbins)))
    return int(np.argmax(diff)) if diff.sum() == 1 else None


def _search(sd: SpectralData, chain_axes, config: BinSearchConfig,
            seed: int = 0) -> SearchTrace:
    ndim = len(chain_axes) - 1
    if config.span is None:
        span = (0.0, sd.alpha_shift)
    else:
        span = config.span
    rng = np.random.default_rng(seed)
    trace = SearchTrace(config=config.as_dict(), seed=seed, dims=ndim)
    split = (config.branching,) * ndim
    root = tuple((span[0], span[1]) for _ in range(ndim))
    queue = deque([(root, 0, split)])
    seen_peaks = set()
    zeta = _zeta(sd, chain_axes)
    # 1-D amplitudes are sums of |d|^2 weights, hence real and nonnegative:
    # one quadrature and the signed elevation over the flat background
    # suffice.  Nested box amplitudes are products of signed dipole matrix
    # elements and may sit anywhere in the complex plane, so a bright box
    # can just as well depress its bin probability: both quadratures are
    # sampled and a bin scores its largest absolute deviation.
    quadratures = ("re",) if ndim == 1 else ("re", "im")

    while queue:
        if len(trace.levels) >= config.max_boxes:
            trace.truncated = True
            break
        box, depth, nbins = queue.popleft()
        if depth > config.max_depth:
            trace.truncated = True
            continue
        cells, widths = _split_box(box, nbins)
        ncells = len(cells)
        deltas = [config.overlap * w for w in widths]
        amps, degree = [], 0
        for c in cells:
            u, _, deg = _box_channel(sd, chain_axes, c, deltas,
                                     config.filter_eps)
            amps.append(u[0])
            degree += deg
        amps = np.array(amps)
        base = 1.0 / (2.0 * ncells)
        level_counts = {}
        devs = []
        for q in quadratures:
            x = (amps.real if q == "re" else amps.imag) / zeta
            counts = _sample_counts(rng, x, config.N_s)
            level_counts["counts" if q == "re" else "counts_im"] = \
                [int(c) for c in counts]
            devs.append(counts / config.N_s - base)
        charge = len(quadratures) * config.N_s * degree
        scores = devs[0] if ndim == 1 else np.max(np.abs(devs), axis=0)
        R = _relation_matrix(np.subtract.outer(scores, scores), config.tau)
        trace.queries_total += charge
        lvl_key = str(depth)
        trace.per_level_queries[lvl_key] = \
            trace.per_level_queries.get(lvl_key, 0) + charge
        prominent = [i for i in range(ncells) if scores[i] > config.tau]
        terminal = max(widths) <= config.gamma * (1.0 + 1e-9)

        def record(decision):
            trace.levels.append({
                "box": [list(iv) for iv in box],
                "depth": depth,
                "nbins": list(nbins),
                **level_counts,
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
                    peak = [list(iv) for iv in cells[i]]
                    trace.peaks.append(peak if ndim > 1 else peak[0])
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
            first_nbins = tuple(2 * config.branching if d == axis
                                else config.branching for d in range(ndim))
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


def binary_search_1d(sd: SpectralData, axes, config: BinSearchConfig,
                     seed: int = 0) -> SearchTrace:
    """Hierarchical peak search on the excitation axis.

    axes = (axis_in, axis_out) of the dipole sandwich; peaks come back as
    (lo, hi) windows of width <= gamma.
    """
    ax_in, ax_out = axes
    return _search(sd, (ax_out, ax_in), config, seed=seed)


def binary_search_nd(sd: SpectralData, axes, config: BinSearchConfig,
                     seed: int = 0) -> SearchTrace:
    """Search over boxes of depth len(axes) - 1 with nested window filters.

    axes is the dipole chain, ordered as in nested window amplitudes:
    axes[0] couples the ground state to the first (innermost) windowed
    index.  At least two axes (a depth-1 search) are needed.
    """
    axes = tuple(axes)
    if len(axes) < 2:
        raise InputError("need at least two chain axes")
    return _search(sd, axes, config, seed=seed)


# ---------------------------------------------------------------------------
# window estimation
# ---------------------------------------------------------------------------

@dataclass
class WindowEstimate:
    window: tuple
    axes: tuple
    value: complex
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
        return {
            "window": list(self.window), "axes": list(self.axes),
            "re": self.value.real, "im": self.value.imag,
            "method": self.method, "shots": self.shots,
            "queries": self.queries, "eps_filter": self.eps_filter,
            "eps_stat": self.eps_stat, "degree": self.degree,
            "rounds": self.rounds, "delta": self.delta, "zeta": self.zeta,
        }


def estimate_window(sd: SpectralData, axes, window, eps: float,
                    method: str = "direct", delta: float = None,
                    seed: int = 0) -> WindowEstimate:
    """Depth-1 form of estimate_box for the sandwich D_out p D_in.

    axes = (axis_in, axis_out).  The result carries the window as (a, b)
    and the axes in this order.
    """
    ax_in, ax_out = axes
    est = estimate_box(sd, (ax_out, ax_in), [window], eps, method=method,
                       delta=delta, seed=seed)
    return dataclasses.replace(est, window=est.window[0],
                               axes=(int(ax_in), int(ax_out)))


def estimate_box(sd: SpectralData, chain_axes, windows, eps: float,
                 method: str = "ae", delta: float = None,
                 seed: int = 0) -> WindowEstimate:
    """Estimate a nested-window amplitude to additive accuracy eps (plus
    the unavoidable delta-margin mass).

    chain_axes is the dipole chain, one entry longer than `windows`, ordered
    as in nested window amplitudes.  delta (default a quarter of each
    window's width) must lie inside every window's half-width.
    methods: "direct" Bernoulli Hadamard sampling (shots ~ 1/eps^2);
    "ae" idealized amplitude estimation (exact value + seeded perturbation
    bounded by the statistical budget, shots ~ 1/eps); "exact" the ae
    query accounting with the perturbation switched off.  Amplification
    rounds follow from the norm of the uncorrected filtered image.
    """
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    if eps <= 0:
        raise InputError("eps must be positive")
    windows = [tuple(map(float, w)) for w in windows]
    for lo, hi in windows:
        if not 0 <= lo < hi:
            raise InputError(
                f"window [{lo}, {hi}) is empty, reversed or negative")
    if delta is None:
        deltas = [(hi - lo) / 4.0 for lo, hi in windows]
    else:
        deltas = [delta] * len(windows)
    for (lo, hi), d in zip(windows, deltas):
        if not 0 < d < (hi - lo) / 2.0:
            raise InputError("delta must lie in (0, half-width)")
    chain_axes = tuple(int(a) for a in chain_axes)
    zeta = _zeta(sd, chain_axes)
    eps_f = min(eps / (2.0 * zeta), 0.4)
    u, u_raw, degree = _box_channel(sd, chain_axes, windows, deltas, eps_f)
    value = complex(u[0]) / zeta
    rng = np.random.default_rng(seed)
    if method == "direct":
        # the device reads the raw chain, ground included, and the known
        # ground term is subtracted from what it reads
        ground = complex(u_raw[0]) / zeta - value
        v = value + ground
        eps_v = eps / (2.0 * math.sqrt(2.0) * zeta)
        shots_per = math.ceil(2.0 * math.log(12.0) / eps_v ** 2)
        f_re, f_im = (
            float(rng.binomial(shots_per, _lcu_probabilities([x])[0]))
            / shots_per for x in (v.real, v.imag))
        v_hat = complex(2.0 * f_re - 1.0, 2.0 * f_im - 1.0) - ground
    else:
        eps_v = eps / (2.0 * zeta)
        shots_per = math.ceil(2.0 / eps_v)
        if method == "ae":
            mag = eps_v * rng.uniform(0.0, 1.0)
            phase = 2.0 * math.pi * rng.uniform(0.0, 1.0)
            v_hat = value + mag * complex(math.cos(phase), math.sin(phase))
        else:
            v_hat = value
    d_hat = zeta * v_hat
    if abs(d_hat) > zeta:
        d_hat *= zeta / abs(d_hat)
    xi = float(np.linalg.norm(u_raw))
    rounds = max(1, math.ceil(zeta / max(xi, eps_v * zeta)))
    shots = 2 * shots_per
    queries = degree * shots * rounds
    return WindowEstimate(
        window=tuple(windows), axes=chain_axes,
        value=d_hat, method=method, shots=shots, queries=queries,
        eps_filter=eps / 2.0, eps_stat=eps / 2.0, degree=degree,
        rounds=rounds, delta=deltas[0], zeta=zeta)
