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

import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (InputError, ResourceError, check_axes, check_positive,
                     check_seed, is_finite_real, is_int)
from .estimate import METHODS, OVERLAP, binary_search_nd, estimate_box
from .models import AXIS_LETTERS, ModelSpec
from .spectra import (SusceptibilityResult, alpha1, diagonalize,
                      r_pathway_fd)

# most frequency points a run evaluates: alpha1 holds one complex
# (points x excited states) buffer, 16 B per pair, so about 225 MB at the
# cap on the largest accepted sector (3 432 states)
GRID_POINT_CAP = 4096


def _window_key(window):
    """Canonical hashable form of a window: a tuple of rounded (lo, hi)
    pairs, one per nesting level."""
    return tuple((round(float(a), 12), round(float(b), 12)) for a, b in window)


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
        meta.update(meta.pop("meta", {}))
        try:
            window = _window_key(meta.pop("window"))
        except (TypeError, ValueError):
            raise InputError("window must be a sequence of (lo, hi) "
                             "pairs") from None
        value = meta.pop("value")
        if not is_finite_real(value):
            raise InputError("value must be a finite real number")
        value = float(value)
        if not all(-math.inf < a < b < math.inf for a, b in window):
            raise InputError(f"window {window} needs finite pairs, lo < hi")
        if len(window) != self.order:
            raise InputError(f"entry has nesting depth {len(window)}, table "
                             f"holds {self.order}")
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
    om = np.asarray(omega_grid, dtype=float)
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
    """Binned third-order pathway response at frequency triples.

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
    gd = [ground_dipoles.get(ax, 0.0) for ax in chain]
    if not all(is_finite_real(m) for m in gd):
        raise InputError("ground moments must be finite real numbers")
    gd = [float(m) for m in gd]

    triples = np.asarray(omega_triples, dtype=float)
    squeeze = triples.ndim == 1
    triples = np.atleast_2d(triples)
    if triples.shape[-1] != 3:
        raise InputError("omega triples must have three components")
    W1 = triples[:, 0]
    W2 = triples[:, 0] + triples[:, 1]
    W3 = W1 + triples[:, 1] + triples[:, 2]

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

    if squeeze:
        triples, vals = triples[0], vals[0]
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
    N: float = None              # orbital count (optional)
    eta: float = None            # dipole norm scale (optional)
    p0: float = None             # ground-state overlap (optional)
    gap: float = None            # spectral gap (optional)

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "eps", "N", "eta", "gap"):
            x = getattr(self, name)
            if x is not None or name not in ("N", "eta", "gap"):
                check_positive(name, x)
        if self.eps >= 1:
            raise InputError("eps must be below 1")
        if not (is_int(self.n_order) and self.n_order >= 1):
            raise InputError("n_order must be an integer of at least 1")
        if (self.p0 is None) != (self.gap is None):
            raise InputError("p0 and gap must be given together")
        if self.p0 is not None and not 0 < self.p0 <= 1:
            raise InputError("p0 must lie in (0, 1]")


def cost_report(c: CostInputs) -> dict:
    """Query-count scaling formulas with unit prefactors."""
    a, b, g, e, n = c.alpha, c.beta, c.gamma, c.eps, c.n_order
    report = {
        "n_order": n,
        "bin_sorting": a ** 2 * b ** 2 / g,
        "peak_height": a ** 2 * b ** 2 / (g * e),
        "search_order_n": a ** (2 * n) * b ** (n + 1) / g ** n,
        "estimate_order_n": a ** (2 * n) * b ** (n + 1) / (g ** n * e),
        "system_size_order_n": None,
        "ground_state_prep": None,
        "note": "asymptotic orders with unit prefactors, not gate counts",
    }
    if c.N is not None and c.eta is not None:
        report["system_size_order_n"] = (
            c.N ** (5 * n + 1) * c.eta ** (n + 1) / (g ** n * e))
    if c.p0 is not None:
        report["ground_state_prep"] = (
            a * math.log(1.0 / e) / (math.sqrt(c.p0) * c.gap))
    return report


def qpe_baseline_report(c: CostInputs) -> dict:
    """Phase-estimation baseline for the same line-resolution task.

    The register needs k_star bits, the least k with 2^k > alpha/gamma;
    total cost to the same accuracy scales as
    alpha^2/(gamma^2 eps), a factor 1/gamma above the filtered approach.
    """
    a, g, e = c.alpha, c.gamma, c.eps
    k = max(1, math.floor(math.log2(a / g)) + 1)
    per_energy = 2.0 ** k * a + k * k / max(math.log2(k), 1.0)
    total = a ** 2 / (g ** 2 * e)
    filtered = a ** 2 / (g * e)
    return {
        "k_star": k,
        "per_energy_queries": per_energy,
        "total_queries": total,
        "filtered_total_queries": filtered,
        "advantage_of_filtering": total / filtered,
    }


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


def run_pipeline(model: ModelSpec, gamma: float, eps: float = 2e-3,
                 order: int = 1, axes=(0, 0), grid=None, seed: int = 0,
                 method: str = "ae", mode: str = "simulate",
                 out_dir: str = None, window_width: float = None) -> dict:
    """Search, estimate and assemble a response function on a grid.

    order 1: axes = (axis_out, axis_in), the depth-1 dipole chain that is
    searched, estimated and tabled as is; order 3: axes = (i, i3, i2, i1)
    and the grid is used diagonally, (w, w, w).  mode "oracle" skips the
    measurement simulation and reports the exact sum over states only.
    Found windows are estimated one after another with seeds derived from
    `seed`; two estimates on one chain whose windows overlap beyond the
    filter margin raise InputError.  window_width (order 1) sets the
    estimation window, default gamma/8.  Before any search, the seed, axes,
    gamma and window_width go through the checks of `respsim.errors`, and
    a method outside METHODS (in either mode), a zero Hamiltonian, eps
    outside (0, 1), an order other than 1 or 3 or a grid point that is not
    finite raise InputError; a grid of more than GRID_POINT_CAP points
    raises ResourceError.
    Returns a dict: "oracle" (the exact SusceptibilityResult), "mode",
    "sd" (the SpectralData), "cost" and "qpe" (the cost reports),
    "manifest" (manifest.json's content) and "csv" (response.csv's body).
    A simulation adds "traces" ({search name: SearchTrace}; a search over
    a chain is named d<depth>_<axis letters>, the order-3 box search
    depth3), "tables" ({depth: ResponseTable}) and "result" (the
    assembled SusceptibilityResult, or None unless every table has
    entries).  Writes those as CSV/JSON files when out_dir is set.
    """
    check_positive("gamma", gamma)
    if not 0 < eps < 1:
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
    axes = check_axes(axes, 2 if order == 1 else 4)
    if grid is not None:
        grid = np.asarray(grid, dtype=float)
        if grid.size > GRID_POINT_CAP:
            raise ResourceError(f"{grid.size} grid points exceeds the cap "
                                f"of {GRID_POINT_CAP}")
        if not np.all(np.isfinite(grid)):
            raise InputError("grid frequencies must be finite")
    sd = diagonalize(model)
    if grid is None:
        grid = np.linspace(0.0, 1.2 * float(sd.eigenvalues[-1]), 121)

    if order == 1:
        ax_out, ax_in = axes
        oracle = alpha1(sd, ax_out, ax_in, grid, gamma)
    else:
        oracle_vals = np.array([
            r_pathway_fd(sd, 1, axes, 3 * w, 2 * w, w, gamma) for w in grid])
        oracle = SusceptibilityResult(order=3,
                                      frequencies=np.stack([grid] * 3, -1),
                                      values=oracle_vals, gamma=gamma,
                                      axes=axes)

    result = {"oracle": oracle, "mode": mode, "sd": sd}
    manifest = {
        "mode": mode, "order": order, "axes": list(axes),
        "gamma": gamma, "eps": eps, "seed": seed, "method": method,
        "grid": {"lo": float(grid[0]), "hi": float(grid[-1]),
                 "n": int(len(grid))},
        "model": model.label or "unnamed",
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
            t.queries_total for t in result["traces"].values())

    beta = max(sd.betas[axes[-1]], 1e-12)
    ci = CostInputs(alpha=sd.alpha, beta=beta, gamma=gamma, eps=eps,
                    n_order=order)
    result["cost"] = cost_report(ci)
    result["qpe"] = qpe_baseline_report(ci)
    manifest["alpha"] = sd.alpha
    manifest["beta"] = beta
    result["manifest"] = manifest
    result["csv"] = _render_csv(result, axes, order)

    if out_dir is not None:
        _write_outputs(result, out_dir, order)
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


def _render_csv(result: dict, axes, order: int) -> str:
    """response.csv body: one row per grid frequency, 17 significant
    digits, simulated values when present and the oracle otherwise."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["omega", "re", "im", "axis_in", "axis_out", "order",
                     "pathway"])
    res = result.get("result") or result["oracle"]
    freqs = np.atleast_1d(res.frequencies)
    vals = np.atleast_1d(res.values)
    if order == 1:
        ax_out, ax_in = axes
        a_in, a_out = AXIS_LETTERS[ax_in], AXIS_LETTERS[ax_out]
        pathway = ""
        omegas = freqs
    else:
        a_out = AXIS_LETTERS[axes[0]]
        a_in = "".join(AXIS_LETTERS[a] for a in axes[1:])
        pathway = "R1"
        omegas = freqs[:, 0]
    for w, v in zip(omegas, vals):
        writer.writerow([f"{float(w):.17g}", f"{v.real:.17g}",
                         f"{v.imag:.17g}", a_in, a_out, str(order), pathway])
    return buf.getvalue()


def _json_text(obj, indent=None) -> str:
    return json.dumps(obj, sort_keys=True, indent=indent) + "\n"


def _write_outputs(result: dict, out_dir: str, order: int) -> None:
    texts = {
        "response.csv": result["csv"],
        "manifest.json": _json_text(result["manifest"], indent=2),
        "cost_report.json": _json_text({"cost": result["cost"],
                                        "qpe": result["qpe"]}, indent=2),
    }
    if "tables" in result:
        tables = {str(d): t.as_dict() for d, t in result["tables"].items()}
        traces = {name: t.as_dict() for name, t in result["traces"].items()}
        if order == 1:      # its one table and one search, written bare
            (tables,), (traces,) = tables.values(), traces.values()
        texts["response_table.json"] = _json_text(tables)
        texts["search_trace.json"] = _json_text(traces)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in texts.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
