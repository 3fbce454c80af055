"""Measurement-protocol simulation: Hadamard tests, bin search, estimation.

The quantities being estimated are nested-window amplitudes of a dipole
chain D_0 p(H) D_1 ... p(H) D_n with one eigenstate filter between
consecutive dipoles; a first-order window sum
    d_[a,b] = sum_{excitation in [a,b)} d_out[0,j] d_in[j,0]
is the depth-1 case.  A hypothetical device starts in the ground state,
applies the encoded chain with each filter p((H - E0 - w_c I)/s) and reads
the ancilla of a Hadamard test: P(0) = (1 + Re v)/2 with
v = <0|chain|0>/zeta.  Classically we have the eigensystem, so v is computed
through it and only the *statistics* are simulated.  The ground state
contributes to the raw chain through every filter slot; those terms are
classically known and are subtracted from estimates and from the
bin-search test statistics (the physical protocol would apply the same
correction to its empirical frequencies).

One channel builder (`_box_channel`), one search engine (`_search`, whose
1-D and n-D forms differ only in the quadratures sampled and the score)
and one estimator (`estimate_box`) serve every depth; `binary_search_1d`
and `estimate_window` are the depth-1 forms with first-order axis order.

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
# Hadamard channels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HadamardChannel:
    """One Hadamard-test Bernoulli source.

    `value` is the ground-corrected amplitude (the estimation target);
    `ground_term` the classically known ground-state contribution.  The
    physical 0-outcome probability uses their sum.
    """

    value: complex
    ground_term: complex
    zeta: float
    variant: str = "re"        # "re" or "im"
    degree: int = 0            # filter degree charged per query

    def __post_init__(self):
        if self.variant not in ("re", "im"):
            raise InputError(f"unknown variant {self.variant!r}")
        if self.zeta <= 0:
            raise InputError("zeta must be positive")

    @property
    def p0(self) -> float:
        v = self.value + self.ground_term
        x = v.real if self.variant == "re" else v.imag
        if abs(x) > 1.0 + P0_SLACK:
            raise InputError(
                f"|amplitude| {abs(x):.4f} exceeds 1: wrong zeta?")
        return 0.5 * (1.0 + min(1.0, max(-1.0, x)))


def imaginary_part_channel(ch: HadamardChannel) -> HadamardChannel:
    """Phase-shifted variant reading Im instead of Re."""
    return dataclasses.replace(ch, variant="im")


def sample_hadamard(ch: HadamardChannel, shots: int, rng) -> float:
    """Empirical P(0) from `shots` Bernoulli draws of the generator `rng`."""
    if shots < 1:
        raise InputError("need at least one shot")
    return float(rng.binomial(shots, ch.p0)) / shots


def _box_channel(sd: SpectralData, chain_axes, windows, deltas, eps: float):
    """Channel for a depth-n box (a 1-D window is the depth-1 box): nested
    filters, ground zeroed at every depth (the classical subtraction applied
    once per nesting level).

    Returns the channel and the uncorrected image u_raw of the chain, whose
    norm sets the amplification rounds.
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
    zeta = _zeta(sd, chain_axes)
    v = complex(u[0]) / zeta
    g = complex(u_raw[0]) / zeta - v
    ch = HadamardChannel(value=v, ground_term=g, zeta=zeta, degree=degree)
    return ch, u_raw


# ---------------------------------------------------------------------------
# LCU-of-Hadamard-tests distribution and the inequality test
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LcuDistribution:
    """Categorical over bins 0..B-1 plus a terminal discard outcome."""

    probabilities: np.ndarray       # length B+1; last entry is the discard

    def sample_counts(self, rng, n: int) -> np.ndarray:
        """Counts per bin over n draws (discard outcome dropped).

        The n shots are independent categorical draws, so their counts are
        one Multinomial(n, p) draw: O(B) time and memory whatever n is.
        Seeded runs are byte-identical for as long as numpy keeps its
        ``Generator.multinomial`` stream; tests pin the equality.
        """
        return rng.multinomial(n, self.probabilities)[:-1]


def lcu_hadamard_distribution(channels) -> LcuDistribution:
    """P(i) = (1 + x_i)/(2B) over B channels, remainder discarded.

    x_i is the quadrature each channel is configured for (Re or Im of its
    amplitude).  Channels must share a subnormalization; probabilities
    outside [0,1] mean the caller divided by the wrong zeta and are
    rejected.
    """
    if not channels:
        raise InputError("need at least one channel")
    B = len(channels)
    zeta0 = channels[0].zeta
    for ch in channels:
        if abs(ch.zeta - zeta0) > 1e-9 * max(1.0, zeta0):
            raise InputError("channels must share one subnormalization")
    xs = np.array([ch.value.real if ch.variant == "re" else ch.value.imag
                   for ch in channels])
    if np.any(np.abs(xs) > 1.0 + P0_SLACK):
        raise InputError("bin amplitude outside [-1, 1]: wrong zeta?")
    xs = np.clip(xs, -1.0, 1.0)
    probs = (1.0 + xs) / (2.0 * B)
    residual = 1.0 - probs.sum()
    if residual < -1e-9:
        raise InputError("bin probabilities exceed 1")
    full = np.append(probs, max(residual, 0.0))
    full = full / full.sum()
    return LcuDistribution(full)


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
    root = tuple((span[0], span[1]) for _ in range(ndim))
    queue = deque([(root, 0, (config.branching,) * ndim)])
    seen_peaks = set()
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
        channels = [_box_channel(sd, chain_axes, c, deltas,
                                 config.filter_eps)[0] for c in cells]
        base = 1.0 / (2.0 * ncells)
        level_counts = {}
        devs = []
        for q in quadratures:
            dist = lcu_hadamard_distribution(
                channels if q == "re"
                else [imaginary_part_channel(ch) for ch in channels])
            counts = dist.sample_counts(rng, config.N_s)
            level_counts["counts" if q == "re" else "counts_im"] = \
                [int(c) for c in counts]
            devs.append(counts / config.N_s - base)
        charge = (len(quadratures) * config.N_s
                  * sum(ch.degree for ch in channels))
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
        dominant = [i for i in prominent
                    if all(R[i, j] == 1 for j in range(ncells) if j != i)]
        if dominant:
            i_star = dominant[0]
            rest = [i for i in prominent if i != i_star]
            record("descend")
            queue.appendleft((cells[i_star], depth + 1,
                              (config.branching,) * ndim))
            for r in rest:
                trace.marked.append([list(iv) for iv in cells[r]])
                queue.append((cells[r], depth + 1,
                              (config.branching,) * ndim))
            continue
        # ties among prominent bins
        tied = prominent
        merge = None
        for a_i in range(len(tied)):
            for b_i in range(a_i + 1, len(tied)):
                i, j = tied[a_i], tied[b_i]
                axis = _adjacent_pair(i, j, nbins)
                if axis is not None and R[i, j] == 0:
                    merge = (i, j, axis)
                    break
            if merge:
                break
        if merge is not None:
            i, j, axis = merge
            lo = min(cells[i][axis][0], cells[j][axis][0])
            hi = max(cells[i][axis][1], cells[j][axis][1])
            union = tuple(
                (lo, hi) if d == axis else cells[i][d]
                for d in range(ndim))
            nb_union = tuple(
                2 * config.branching if d == axis else config.branching
                for d in range(ndim))
            record("merge")
            queue.appendleft((union, depth + 1, nb_union))
            for r in tied:
                if r not in (i, j):
                    trace.marked.append([list(iv) for iv in cells[r]])
                    queue.append((cells[r], depth + 1,
                                  (config.branching,) * ndim))
            continue
        pick = int(rng.choice(np.array(tied)))
        rest = [i for i in tied if i != pick]
        record("random-pick")
        queue.appendleft((cells[pick], depth + 1,
                          (config.branching,) * ndim))
        for r in rest:
            trace.marked.append([list(iv) for iv in cells[r]])
            queue.append((cells[r], depth + 1, (config.branching,) * ndim))

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
    ch, u_raw = _box_channel(sd, chain_axes, windows, deltas, eps_f)
    rng = np.random.default_rng(seed)
    if method == "direct":
        eps_v = eps / (2.0 * math.sqrt(2.0) * zeta)
        shots_per = math.ceil(2.0 * math.log(12.0) / eps_v ** 2)
        f_re = sample_hadamard(ch, shots_per, rng)
        f_im = sample_hadamard(imaginary_part_channel(ch), shots_per, rng)
        v_hat = complex(2.0 * f_re - 1.0, 2.0 * f_im - 1.0) - ch.ground_term
    else:
        eps_v = eps / (2.0 * zeta)
        shots_per = math.ceil(2.0 / eps_v)
        if method == "ae":
            mag = eps_v * rng.uniform(0.0, 1.0)
            phase = 2.0 * math.pi * rng.uniform(0.0, 1.0)
            v_hat = ch.value + mag * complex(math.cos(phase),
                                             math.sin(phase))
        else:
            v_hat = ch.value
    d_hat = zeta * v_hat
    if abs(d_hat) > zeta:
        d_hat *= zeta / abs(d_hat)
    xi = float(np.linalg.norm(u_raw))
    rounds = max(1, math.ceil(zeta / max(xi, eps_v * zeta)))
    shots = 2 * shots_per
    queries = ch.degree * shots * rounds
    return WindowEstimate(
        window=tuple(windows), axes=chain_axes,
        value=d_hat, method=method, shots=shots, queries=queries,
        eps_filter=eps / 2.0, eps_stat=eps / 2.0, degree=ch.degree,
        rounds=rounds, delta=deltas[0], zeta=zeta)
