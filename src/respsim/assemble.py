"""Assembly of susceptibilities from windowed estimates, plus cost reports.

The measurement layer produces window amplitudes d_[a,b]; here they are
combined into response functions by replacing each resolvent denominator
with its value at the line positions of one rule, `_centres` (the window
midpoints).  Every table entry carries its dipole chain, outermost axis
first, and a window of one (lo, hi) pair per nesting level at every depth:
a first-order entry is the depth-1 chain (axis_out, axis_in) over one pair.
For the third-order pathway the ground state can appear as an intermediate
index, so the full binned expression mixes depth-3 boxes with ground-pinned
terms built from depth-2 and depth-1 amplitudes and the (classically known)
ground-state dipole moments, listed once in `_ALPHA3_TERMS`; assembly
rejects table sets missing a term's entries if its moments are nonzero, and
entries that no term reads.

cost_report / qpe_baseline_report emit the scaling formulas with unit
prefactors: they are order-of-growth statements for comparing regimes,
not literal gate counts.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (AXIS_LETTERS, InputError, ResourceError, check_axes,
                     check_positive, check_reals, check_seed, check_triples,
                     check_windows, is_finite_real, is_int)
from .estimate import (METHODS, OVERLAP, binary_search_nd, chain_zeta,
                       estimate_box)
from .spectra import (SpectralData, SusceptibilityResult, alpha1,
                      r_pathway_fd)

# most frequency points a run evaluates: alpha1 holds one complex
# (points x excited states) buffer, 16 B per pair, so about 80 MB at the
# cap on the largest accepted block (1 225 states: n = 7, eta = 6 to 8)
GRID_POINT_CAP = 4096


def _overlap_length(w1, w2):
    return min(w1[1], w2[1]) - max(w1[0], w2[0])


@dataclass
class ResponseTable:
    """Windowed amplitude estimates for one response order.

    An entry (a WindowEstimate or a dict) has `order` + 1 "axes" (see
    `check_axes`), a "window" of `order` finite (lo, hi) pairs with lo < hi
    and a finite real "value"; the rest is its "meta", with the keys of a
    stored entry's "meta" merged in.  Entries with identical axes must
    cover disjoint windows (boxes may overlap in some axes but not all), up
    to `margin`, mirroring the smoothing margins of the filters that
    produced them.  Entries given to the constructor are added one by one.
    """

    order: int = 1
    margin: float = 0.0
    entries: list = field(default_factory=list)

    def __post_init__(self):
        if not (is_int(self.order) and self.order >= 1):
            raise InputError("order must be an integer of at least 1")
        self.order = int(self.order)
        if not (is_finite_real(self.margin) and self.margin >= 0):
            raise InputError("margin must be non-negative and finite")
        entries, self.entries = self.entries, []
        for e in entries:
            self.add(e)

    def add(self, estimate) -> None:
        rec = self._normalize(estimate)
        for other in self.entries:
            if other["axes"] != rec["axes"]:
                continue
            if self._clashes(other["window"], rec["window"]):
                raise InputError(
                    f"window {rec['window']} overlaps an existing entry "
                    f"beyond the margin {self.margin}")
        self.entries.append(rec)

    def _normalize(self, est) -> dict:
        meta = est.as_dict() if hasattr(est, "as_dict") else dict(est)
        missing = [k for k in ("axes", "window", "value") if k not in meta]
        if missing:
            raise InputError(f"entry needs {', '.join(missing)}")
        axes = check_axes(meta.pop("axes"), self.order + 1)
        extra = meta.pop("meta", {})
        if not isinstance(extra, Mapping) or not extra.keys().isdisjoint(
                ("axes", "window", "value")):
            raise InputError("meta must be a mapping that names none of "
                             "axes, window and value")
        meta.update(extra)
        # checked again after rounding, which can close a narrow window
        window = check_windows([(round(lo, 12), round(hi, 12)) for lo, hi
                                in check_windows(meta.pop("window"))],
                               self.order)
        value = meta.pop("value")
        if not is_finite_real(value):
            raise InputError("value must be a finite real number")
        value = float(value)
        return {"axes": axes, "window": window, "value": value, "meta": meta}

    def _clashes(self, w1, w2) -> bool:
        return all(_overlap_length(a, b) > self.margin + 1e-12
                   for a, b in zip(w1, w2))

    def select(self, axes) -> list:
        axes = check_axes(axes, self.order + 1)
        return [e for e in self.entries if e["axes"] == axes]

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "margin": self.margin,
            "entries": [
                {"axes": list(e["axes"]),
                 "window": [list(w) for w in e["window"]],
                 "value": e["value"],
                 "meta": dict(e["meta"])}
                for e in self.entries],
        }


def _centres(entry) -> tuple:
    """Line position of each window axis of a table entry: its midpoint."""
    return tuple(0.5 * (lo + hi) for lo, hi in entry["window"])


# ---------------------------------------------------------------------------
# first order
# ---------------------------------------------------------------------------

def assemble_alpha1(table: ResponseTable, omega_grid, gamma: float
                    ) -> SusceptibilityResult:
    """Binned first-order response on a frequency grid.

    Entries carry the chain (axis_out, axis_in).  Each contributes
    value/(w~ - w - i gamma) with w~ the window midpoint (`_centres`), plus
    the mirrored term value/(w~ + w + i gamma): the swapped chain (axis_in,
    axis_out) on the same window sums d_in[0,j] d_out[j,0], the same real
    number for real symmetric dipoles.  A table mixing chains is rejected.
    """
    check_positive("gamma", gamma)
    if table.order != 1:
        raise InputError("first-order assembly needs a depth-1 table")
    if not table.entries:
        raise InputError("empty response table")
    ax_out, ax_in = table.entries[0]["axes"]
    if len(table.select((ax_out, ax_in))) != len(table.entries):
        raise InputError("first-order assembly needs one dipole chain")
    om = check_reals(omega_grid, "frequency grid points")
    vals = np.zeros(om.shape, dtype=complex)
    for e in table.entries:
        (wt,) = _centres(e)
        vals += e["value"] / (wt - om - 1j * gamma)
        vals += e["value"] / (wt + om + 1j * gamma)
    return SusceptibilityResult(order=1, frequencies=om, values=vals,
                                gamma=gamma, axes=(ax_out, ax_in))


# ---------------------------------------------------------------------------
# third order (one double-sided pathway, binned)
# ---------------------------------------------------------------------------

# The terms of d_c0[0,n] d_c1[n,m] d_c2[m,l] d_c3[l,0], chain (c0, c1, c2,
# c3) = (i1, i_tr, i3, i2), one per subset of (n, m, l) pinned to the ground
# state, in summation order: the ground moments in the order they multiply,
# then the segments as stored (a reversed chain is the same number, not the
# same bits), both as chain positions.
_ALPHA3_TERMS = (
    ((), ((0, 1, 2, 3),)),           # none pinned: the depth-3 boxes
    ((0,), ((3, 2, 1),)),            # n
    ((3,), ((0, 1, 2),)),            # l
    ((), ((1, 0), (3, 2))),          # m
    ((0, 1), ((3, 2),)),             # n, m
    ((0, 3), ((2, 1),)),             # n, l
    ((3, 2), ((1, 0),)),             # m, l
    ((0, 3, 2, 1), ()),              # n, m, l
)


def _alpha3_chains(chain) -> dict:
    """The distinct segment chains of _ALPHA3_TERMS for the box chain, in
    its order, as dict keys."""
    return dict.fromkeys(tuple(chain[p] for p in s)
                         for _, segments in _ALPHA3_TERMS for s in segments)


def assemble_alpha3(tables, omega_triples, gamma: float,
                    ground_dipoles: dict) -> SusceptibilityResult:
    """Binned third-order pathway response at frequency triples (a bare
    triple is one row, see `check_triples`).

    tables: {3: boxes, 2: depth-2 amplitudes, 1: depth-1 amplitudes}.
    The depth-3 entries carry one dipole chain (a0, a1, a2, a3) (a table
    mixing chains is rejected); windows run over the bra-side coherence
    index n (outermost), then m, then l.  Denominators use the line
    positions c of `_centres` (the window midpoints) at the cumulative
    driving frequencies W1, W2, W3 = w1, w1+w2, w1+w2+w3:

        (c_n - W1 - ig)((c_n - c_l) - W2 - ig)((c_n - c_m) - W3 - ig)

    Each term of `_ALPHA3_TERMS` adds its ground moments (`ground_dipoles`,
    {axis: moment}, 0 for an axis it lacks; each moment read must be a
    finite real number) times each product of its segments' entries, over
    the denominator with pinned positions at zero; if its moment product is
    nonzero, every segment needs entries.  A depth-1 or depth-2 entry whose
    chain no term reads is rejected.
    """
    check_positive("gamma", gamma)
    for depth in (1, 2, 3):
        if depth not in tables or not tables[depth].entries:
            raise InputError(f"missing nesting depth {depth} in tables")
    chain = tables[3].entries[0]["axes"]
    if len(tables[3].select(chain)) != len(tables[3].entries):
        raise InputError("third-order assembly needs one dipole chain")
    read = _alpha3_chains(chain)
    for e in tables[1].entries + tables[2].entries:
        if e["axes"] not in read:
            raise InputError(f"no term reads {_search_name(e['axes'])} entries")
    i1, i_tr, i3, i2 = chain
    gd = check_reals([ground_dipoles.get(ax, 0.0) for ax in chain],
                     "ground moments")
    if gd.shape != (4,):
        raise InputError("each ground moment must be one number")
    gd = gd.tolist()

    triples = check_triples(omega_triples)
    W1, W2, W3 = np.cumsum(triples, axis=1).T

    def den(cn, cm, cl):
        # a pinned index passes 0.0: x - 0.0 and 0.0 - x are exact
        return ((cn - W1 - 1j * gamma) * ((cn - cl) - W2 - 1j * gamma)
                * ((cn - cm) - W3 - 1j * gamma))

    vals = np.zeros(len(triples), dtype=complex)
    for moments, segments in _ALPHA3_TERMS:
        coef = math.prod(gd[p] for p in moments)
        picks = []
        for seg in (tuple(chain[p] for p in s) for s in segments):
            picks.append(tables[len(seg) - 1].select(seg))
            if coef != 0.0 and not picks[-1]:
                raise InputError(f"missing {_search_name(seg)} entries for "
                                 "a term with nonzero ground moments")
        for entries in itertools.product(*picks):
            centres = [0.0, 0.0, 0.0]        # n, m, l; pinned ones stay 0.0
            for s, e in zip(segments, entries):
                for a, b, c in zip(s, s[1:], _centres(e)):
                    centres[min(a, b)] = c      # the index between a and b
            vals += (math.prod((e["value"] for e in entries), start=coef)
                     / den(*centres))

    return SusceptibilityResult(order=3, frequencies=triples, values=vals,
                                gamma=gamma, axes=(i_tr, i3, i2, i1))


# ---------------------------------------------------------------------------
# cost reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostInputs:
    alpha: float                 # Hamiltonian encoding one-norm
    beta: float                  # dipole encoding one-norm
    gamma: float                 # target line width
    eps: float                   # target accuracy
    n_order: int = 1
    N: float = None              # spin-orbital count (optional)
    eta: float = None            # electron count (optional)
    p0: float = None             # ground-state overlap (optional)
    gap: float = None            # spectral gap (optional)

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "eps", "N", "eta", "p0", "gap"):
            x = getattr(self, name)
            if x is not None or name not in ("N", "eta", "p0", "gap"):
                check_positive(name, x)
        if self.eps >= 1:
            raise InputError("eps must be below 1")
        if not (is_int(self.n_order) and self.n_order >= 1):
            raise InputError("n_order must be an integer of at least 1")
        if (self.p0 is None) != (self.gap is None):
            raise InputError("p0 and gap must be given together")
        if self.p0 is not None and self.p0 > 1:
            raise InputError("p0 must lie in (0, 1]")


def _ledger(**formulas) -> dict:
    """Each named entry's formula evaluated as a float; InputError names an
    entry that overflows, divides by an underflowed zero or underflows."""
    out = {}
    for name, formula in formulas.items():
        try:
            out[name] = float(formula())
        except (OverflowError, ZeroDivisionError):
            out[name] = math.inf
        if not 0 < out[name] < math.inf:
            raise InputError(f"ledger entry {name} leaves the float range")
    return out


def cost_report(c: CostInputs) -> dict:
    """Query-count scaling formulas with unit prefactors; an entry outside
    the float range raises InputError."""
    a, b, g, e, n = c.alpha, c.beta, c.gamma, c.eps, c.n_order
    report = {"n_order": n, "system_size_order_n": None,
              "ground_state_prep": None, "note": "asymptotic orders with "
              "unit prefactors, not gate counts"}
    report.update(_ledger(
        bin_sorting=lambda: a ** 2 * b ** 2 / g,
        peak_height=lambda: a ** 2 * b ** 2 / (g * e),
        search_order_n=lambda: a ** (2 * n) * b ** (n + 1) / g ** n,
        estimate_order_n=lambda: a ** (2 * n) * b ** (n + 1) / (g ** n * e)))
    if c.N is not None and c.eta is not None:
        report.update(_ledger(system_size_order_n=lambda: (
            c.N ** (5 * n + 1) * c.eta ** (n + 1) / (g ** n * e))))
    if c.p0 is not None:
        report.update(_ledger(ground_state_prep=lambda: (
            a * math.log(1.0 / e) / (math.sqrt(c.p0) * c.gap))))
    return report


def qpe_baseline_report(c: CostInputs) -> dict:
    """Phase-estimation baseline for the same line-resolution task.

    The register needs k_star bits, the least k with 2^k > alpha/gamma;
    total cost to the same accuracy scales as
    alpha^2/(gamma^2 eps), a factor 1/gamma above the filtered approach.
    An entry outside the float range raises InputError.
    """
    a, g, e = c.alpha, c.gamma, c.eps
    (ratio,) = _ledger(k_star=lambda: a / g).values()
    k = max(1, math.floor(math.log2(ratio)) + 1)
    report = {"k_star": k, **_ledger(
        per_energy_queries=lambda: (2.0 ** k * a
                                    + k * k / max(math.log2(k), 1.0)),
        total_queries=lambda: a ** 2 / (g ** 2 * e),
        filtered_total_queries=lambda: a ** 2 / (g * e))}
    return dict(report, **_ledger(advantage_of_filtering=lambda: (
        report["total_queries"] / report["filtered_total_queries"])))


# ---------------------------------------------------------------------------
# end-to-end pipeline
# ---------------------------------------------------------------------------

def _dedupe_windows(peaks, min_sep):
    """Merge the windows of found depth-1 peaks (one-pair boxes) whose
    centres sit closer than min_sep; returns (lo, hi) windows."""
    if not peaks:
        return []
    spans = sorted((float(lo), float(hi)) for ((lo, hi),) in peaks)
    out = [spans[0]]
    for lo, hi in spans[1:]:
        plo, phi = out[-1]
        if (lo + hi) / 2 - (plo + phi) / 2 < min_sep:
            out[-1] = (plo, max(phi, hi))
        else:
            out.append((lo, hi))
    return out


def _ancestor_bin(center: float, width: float) -> tuple:
    """The width-`width` grid bin containing `center` (grids anchored at 0)."""
    k = math.floor(center / width)
    return (k * width, (k + 1) * width)


def _child_seed(seed: int, idx: int) -> int:
    return int(np.random.SeedSequence((seed, 7919 + idx)).generate_state(1)[0])


def check_run_options(gamma: float, eps: float = 2e-3, order: int = 1,
                      axes=None, grid=None, seed: int = 0, method: str = "ae",
                      mode: str = "simulate", window_width: float = None,
                      out_dir: str = None):
    """run_pipeline's options, checked without a spectrum, as (axes, grid,
    seed): axes all x when None, grid a float array or None.  The seed,
    axes, gamma, eps and window_width go through `respsim.errors`; a
    method outside METHODS, eps of 1 or more, an order other than 1 or 3,
    a grid not a non-empty 1-D sequence of finite reals or an out_dir that
    is empty, a file or under a file raise InputError, and a grid above
    GRID_POINT_CAP points ResourceError."""
    check_positive("gamma", gamma)
    check_positive("eps", eps)
    if eps >= 1:
        raise InputError("eps must lie in (0, 1)")
    if window_width is not None:
        check_positive("window_width", window_width)
    if not (is_int(order) and order in (1, 3)):
        raise InputError("order must be 1 or 3")
    if mode not in ("simulate", "oracle"):
        raise InputError("mode must be 'simulate' or 'oracle'")
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    seed = check_seed(seed)
    axes = (0,) * (order + 1) if axes is None else check_axes(axes, order + 1)
    if grid is not None:
        grid = check_reals(grid, "grid points")
        if grid.size > GRID_POINT_CAP:
            raise ResourceError(f"{grid.size} grid points exceeds the cap "
                                f"of {GRID_POINT_CAP}")
        if not (grid.ndim == 1 and grid.size):
            raise InputError("grid must be a non-empty list of finite reals")
    if out_dir is not None:
        path = out_dir  # its nearest existing ancestor, "" for the cwd
        while path and not os.path.lexists(path):
            path = os.path.dirname(path)
        if not out_dir or path and not os.path.isdir(path):
            raise InputError(f"output directory {out_dir!r} is empty, a "
                             "file or a path under a file")
    return axes, grid, seed


def run_pipeline(sd: SpectralData, gamma: float, eps: float = 2e-3,
                 order: int = 1, axes=None, grid=None, seed: int = 0,
                 method: str = "ae", mode: str = "simulate",
                 out_dir: str = None, window_width: float = None) -> dict:
    """Search, estimate and assemble a response function on a grid of the
    spectrum `sd`, whose filter caches every run on it shares.

    axes is the run's dipole chain, order + 1 axes (all x when None):
    (axis_out, axis_in) at order 1, searched, estimated and tabled as is;
    (i, i3, i2, i1) at order 3, where the grid is used diagonally,
    (w, w, w).  mode "oracle" skips the measurement simulation and reports
    the exact sum over states only.  Found windows are estimated one after
    another with seeds derived from `seed`; two estimates on one chain
    whose windows overlap beyond the filter margin raise InputError.
    window_width (order 1) sets the estimation window, default gamma/8.
    The options go through check_run_options before the spectrum is read,
    the cost reports (whose beta is chain_zeta's) before the oracle.
    Returns a dict: "oracle" (the exact SusceptibilityResult), "mode",
    "cost" and "qpe" (the cost reports), "manifest" (manifest.json's
    content, whose "queries_total" counts a simulation's search and
    estimate queries) and "csv" (response.csv's body: the oracle in mode
    "oracle", else the assembled response).
    A simulation adds "traces" ({search name: SearchTrace}; a search over
    a chain is named d<depth>_<axis letters>, the order-3 box search
    depth3), "tables" ({depth: ResponseTable}) and "result" (the
    assembled SusceptibilityResult, or None unless every table has
    entries).  Writes those as CSV/JSON files when out_dir is set.
    """
    axes, grid, seed = check_run_options(gamma, eps, order, axes, grid, seed,
                                         method, mode, window_width, out_dir)
    if grid is None:
        grid = np.linspace(0.0, 1.2 * float(sd.eigenvalues[-1]), 121)
    ci = CostInputs(alpha=sd.alpha, beta=chain_zeta(sd, axes[-1:]),
                    gamma=gamma, eps=eps, n_order=order, N=sd.n_modes,
                    eta=sd.n_electrons or None)
    cost, qpe = cost_report(ci), qpe_baseline_report(ci)

    oracle = (alpha1(sd, *axes, grid, gamma) if order == 1 else
              r_pathway_fd(sd, axes, np.stack([grid] * 3, -1), gamma))

    result = {"oracle": oracle, "mode": mode}
    manifest = {
        "mode": mode, "order": order, "axes": list(axes),
        "gamma": gamma, "eps": eps, "seed": seed, "method": method,
        "grid": {"lo": float(grid[0]), "hi": float(grid[-1]),
                 "n": int(len(grid))},
        "model": sd.label,
        "convention": "window denominators use the window midpoint",
    }

    if mode == "simulate":
        if order == 1:
            result.update(_simulate_alpha1(
                sd, gamma, eps, axes, grid, seed, method, window_width))
        else:
            result.update(_simulate_alpha3(
                sd, gamma, eps, axes, oracle.frequencies, seed, method))
        manifest["queries_total"] = sum(
            t.queries_total for t in result["traces"].values()) + sum(
            e["meta"]["queries"] for t in result["tables"].values()
            for e in t.entries)

    result.update(cost=cost, qpe=qpe,
                  manifest=dict(manifest, alpha=sd.alpha, beta=ci.beta))
    result["csv"] = _render_csv(
        oracle if mode == "oracle" else result["result"], axes)

    if out_dir is not None:
        _write_outputs(result, out_dir)
    return result


def _search_name(chain) -> str:
    """Name of a search over a dipole chain: its depth and axis letters."""
    return f"d{len(chain) - 1}_" + "".join(AXIS_LETTERS[a] for a in chain)


def _simulate_alpha1(sd, gamma, eps, axes, grid, seed, method, window_width):
    width = gamma / 8.0
    trace = binary_search_nd(sd, axes, width, 0.02, seed=seed)
    peaks = _dedupe_windows(trace.peaks, gamma / 2.0)
    est_width = window_width if window_width is not None else width
    windows = []
    for lo, hi in peaks:
        win = _ancestor_bin((lo + hi) / 2.0, est_width)
        if win not in windows:
            windows.append(win)
    table = ResponseTable(order=1, margin=OVERLAP * est_width)
    for idx, win in enumerate(windows):
        table.add(estimate_box(
            sd, axes, [win], eps, method=method,
            delta=(win[1] - win[0]) / 3.0, seed=_child_seed(seed, idx)))
    return {"traces": {_search_name(axes): trace}, "tables": {1: table},
            "result": (assemble_alpha1(table, grid, gamma)
                       if table.entries else None)}


def _simulate_alpha3(sd, gamma, eps, axes, triples, seed, method):
    chain = (axes[3],) + axes[:3]                      # (i1, i_tr, i3, i2)
    width = gamma
    # Nested amplitudes spread over BRANCHING**3 cells per box, so the
    # per-bin elevation is far smaller than in the 1-D search; a tighter
    # threshold (with its matching sample-size bound) keeps genuine boxes
    # above the noise floor.
    tau = 0.004
    # (trace name, chain, search seed): the box chain, then the distinct
    # segment chains of _ALPHA3_TERMS at depths 2 and 1, in its order
    chains = _alpha3_chains(chain)
    jobs = [("depth3", chain, seed)]
    for depth, first in ((2, seed + 1), (1, seed + 11)):
        jobs += [(_search_name(ch), ch, first + k) for k, ch in
                 enumerate(ch for ch in chains if len(ch) == depth + 1)]
    traces = {name: binary_search_nd(sd, ch, width, tau, seed=s)
              for name, ch, s in jobs}
    tables = {d: ResponseTable(order=d, margin=OVERLAP * width)
              for d in (3, 2, 1)}
    boxes = [(ch, box) for name, ch, _ in jobs for box in traces[name].peaks]
    for idx, (ch, box) in enumerate(boxes):
        tables[len(ch) - 1].add(estimate_box(
            sd, ch, box, eps, method=method, seed=_child_seed(seed, idx)))
    result = None
    if all(t.entries for t in tables.values()):
        gdip = {ax: float(sd.transition_dipoles[ax][0, 0])
                for ax in set(axes)}
        result = assemble_alpha3(tables, triples, gamma, ground_dipoles=gdip)
    return {"traces": traces, "tables": tables, "result": result}


def _render_csv(response, axes) -> str:
    """response.csv body: a header, then one row per frequency row of
    `response` (none when it is None): omega is the row's first entry, 17
    significant digits.  The dipole chain `axes` fills the rest: axis_out
    its first letter, axis_in the others, order its length less one, and
    pathway R1 for a third-order chain.  No field holds a comma, quote or
    newline, so rows are joined as a CSV writer would write them."""
    a_out, *a_in = (AXIS_LETTERS[a] for a in axes)
    tail = ",".join(["".join(a_in), a_out, str(len(axes) - 1),
                     "R1" if len(axes) == 4 else ""])
    rows = ["omega,re,im,axis_in,axis_out,order,pathway"]
    if response is not None:
        vals = response.values
        omegas = np.reshape(response.frequencies, (len(vals), -1))[:, 0]
        rows += [f"{w:.17g},{v.real:.17g},{v.imag:.17g},{tail}"
                 for w, v in zip(omegas.tolist(), vals.tolist())]
    return "\n".join(rows) + "\n"


def _json_text(obj, indent=None) -> str:
    return json.dumps(obj, sort_keys=True, indent=indent) + "\n"


def _write_outputs(result: dict, out_dir: str) -> None:
    texts = {
        "response.csv": result["csv"],
        "manifest.json": _json_text(result["manifest"], indent=2),
        "cost_report.json": _json_text({"cost": result["cost"],
                                        "qpe": result["qpe"]}, indent=2),
    }
    if "tables" in result:
        texts["response_table.json"] = _json_text(
            {str(d): t.as_dict() for d, t in result["tables"].items()})
        texts["search_trace.json"] = _json_text(
            {name: t.as_dict() for name, t in result["traces"].items()})
    os.makedirs(out_dir, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
