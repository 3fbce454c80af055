"""Assembly of susceptibilities from windowed estimates, plus cost reports.

The measurement layer produces window amplitudes d_[a,b]; here they are
combined into response functions by replacing each resolvent denominator
with its value at the window centre.  Every table entry carries its dipole
chain, outermost axis first: a first-order entry is the depth-1 chain
(axis_out, axis_in) over one window; third-order tables hold nested boxes.
For the third-order pathway the ground state can appear as an intermediate
index, so the full binned expression mixes depth-3 boxes with ground-pinned
terms built from depth-2 and depth-1 amplitudes and the (classically known)
ground-state dipole moments; assembly rejects table sets missing a needed
depth.

cost_report / qpe_baseline_report emit the scaling formulas with unit
prefactors: they are order-of-growth statements for comparing regimes,
not literal gate counts.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ResourceError
from .estimate import METHODS, OVERLAP, binary_search_nd, estimate_box
from .models import AXIS_LETTERS, ModelSpec
from .spectra import (SusceptibilityResult, alpha1, diagonalize,
                      r_pathway_fd)

# most frequency points a run evaluates: alpha1 holds two complex
# (points x excited states) temporaries, 32 B per pair, so about 450 MB at
# the cap on the largest accepted sector (3 432 states)
GRID_POINT_CAP = 4096


def _window_key(window):
    """Canonical hashable form of a window or nested window tuple.

    A single-window nest ((a, b),) flattens to (a, b), so a depth-1 entry
    has one canonical shape whether it was given flat or nested.
    """
    w = np.asarray(window, dtype=float)
    if w.ndim == 2 and w.shape[0] == 1:
        w = w[0]
    if w.ndim == 1:
        return (round(float(w[0]), 12), round(float(w[1]), 12))
    return tuple((round(float(a), 12), round(float(b), 12)) for a, b in w)


def _overlap_length(w1, w2):
    return min(w1[1], w2[1]) - max(w1[0], w2[0])


@dataclass
class ResponseTable:
    """Windowed amplitude estimates for one response order.

    Entries with identical axes must cover disjoint windows (boxes may
    overlap in some axes but not all), up to `margin`, mirroring the
    smoothing margins of the filters that produced them.
    """

    order: int = 1
    margin: float = 0.0
    entries: list = field(default_factory=list)

    def __post_init__(self):
        if self.order < 1:
            raise InputError("order must be at least 1")
        if not (math.isfinite(self.margin) and self.margin >= 0):
            raise InputError("margin must be non-negative and finite")

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
        if hasattr(est, "as_dict"):
            axes = tuple(int(a) for a in est.axes)
            window = _window_key(est.window)
            value = float(est.value)
            meta = est.as_dict()
        else:
            axes = tuple(int(a) for a in est["axes"])
            window = _window_key(est["window"])
            value = float(est["value"])
            meta = {k: v for k, v in est.items()
                    if k not in ("axes", "window", "value")}
        depth = len(window) if isinstance(window[0], tuple) else 1
        if depth != self.order:
            raise InputError(
                f"entry has nesting depth {depth}, table holds {self.order}")
        if len(axes) != depth + 1:
            raise InputError(
                f"entry has {len(axes)} axes for depth {depth}")
        return {"axes": axes, "window": window, "value": value, "meta": meta}

    def _clashes(self, w1, w2) -> bool:
        if self.order == 1:
            return _overlap_length(w1, w2) > self.margin + 1e-12
        return all(_overlap_length(a, b) > self.margin + 1e-12
                   for a, b in zip(w1, w2))

    def select(self, axes) -> list:
        axes = tuple(int(a) for a in axes)
        return [e for e in self.entries if e["axes"] == axes]

    def as_dict(self) -> dict:
        return {
            "order": self.order,
            "margin": self.margin,
            "entries": [
                {"axes": list(e["axes"]),
                 "window": [list(w) for w in e["window"]]
                 if self.order > 1 else list(e["window"]),
                 "value": e["value"],
                 "meta": {k: v for k, v in e["meta"].items()
                          if k != "value"}}
                for e in self.entries],
        }


# ---------------------------------------------------------------------------
# first order
# ---------------------------------------------------------------------------

def assemble_alpha1(table: ResponseTable, omega_grid, gamma: float
                    ) -> SusceptibilityResult:
    """Binned first-order response on a frequency grid.

    Entries carry the chain (axis_out, axis_in).  Each contributes
    value/(w~ - w - i gamma) with w~ the window midpoint, plus the mirrored
    term value/(w~ + w + i gamma): the swapped chain (axis_in, axis_out) on
    the same window sums d_in[0,j] d_out[j,0], the same real number for
    real symmetric dipoles.  A table mixing chains is rejected.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise InputError("gamma must be positive and finite")
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
        a, b = e["window"]
        wt = 0.5 * (a + b)
        vals += e["value"] / (wt - om - 1j * gamma)
        vals += e["value"] / (wt + om + 1j * gamma)
    return SusceptibilityResult(order=1, frequencies=om, values=vals,
                                gamma=gamma, axes=(ax_out, ax_in))


# ---------------------------------------------------------------------------
# third order (one double-sided pathway, binned)
# ---------------------------------------------------------------------------

def assemble_alpha3(tables, omega_triples, gamma: float,
                    ground_dipoles: dict) -> SusceptibilityResult:
    """Binned third-order pathway response at frequency triples.

    tables: {3: boxes, 2: depth-2 amplitudes, 1: depth-1 amplitudes}.
    The depth-3 entries carry the dipole chain (a0, a1, a2, a3); windows
    run over the bra-side coherence index n (outermost), then m, then l.
    Box denominators use centre frequencies at the cumulative driving
    frequencies W1, W2, W3 = w1, w1+w2, w1+w2+w3:

        (c_n - W1 - ig)((c_n - c_l) - W2 - ig)((c_n - c_m) - W3 - ig)

    Terms where an intermediate index is the ground state are added from
    lower-depth amplitudes with the pinned centre frequency set to zero,
    multiplied by the ground-state dipole moments `ground_dipoles`
    ({axis: moment}, 0 for an axis it lacks).
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise InputError("gamma must be positive and finite")
    for depth in (1, 2, 3):
        if depth not in tables or not tables[depth].entries:
            raise InputError(f"missing nesting depth {depth} in tables")
    boxes = tables[3].entries
    a0, a1, a2, a3 = boxes[0]["axes"]
    i1, i_tr, i3, i2 = a0, a1, a2, a3
    gd = {ax: float(ground_dipoles.get(ax, 0.0)) for ax in (i_tr, i1, i2, i3)}

    t2_lm = tables[2].select((i2, i3, i_tr))     # windows (W_l, W_m)
    t2_nm = tables[2].select((i1, i_tr, i3))     # windows (W_n, W_m)
    t1_n = tables[1].select((i_tr, i1))          # window (W_n,)
    t1_l = tables[1].select((i2, i3))            # window (W_l,)
    t1_m = tables[1].select((i3, i_tr))          # window (W_m,)
    if not t1_n or not t1_l:
        raise InputError("missing depth-1 entries for the ground-connected "
                         "term (axes through the ground state)")
    if gd[i1] != 0.0 and not t2_lm:
        raise InputError("missing depth-2 entries for the pinned bra index")
    if gd[i2] != 0.0 and not t2_nm:
        raise InputError("missing depth-2 entries for the pinned ket index")
    if gd[i1] != 0.0 and gd[i2] != 0.0 and not t1_m:
        raise InputError("missing depth-1 entries for the doubly pinned term")

    triples = np.asarray(omega_triples, dtype=float)
    squeeze = triples.ndim == 1
    triples = np.atleast_2d(triples)
    if triples.shape[-1] != 3:
        raise InputError("omega triples must have three components")
    W1 = triples[:, 0]
    W2 = triples[:, 0] + triples[:, 1]
    W3 = W1 + triples[:, 1] + triples[:, 2]

    def D1(c):
        return c - W1 - 1j * gamma

    def D2(c):
        return c - W2 - 1j * gamma

    def D3(c):
        return c - W3 - 1j * gamma

    def mid(w):
        return 0.5 * (w[0] + w[1])

    vals = np.zeros(len(triples), dtype=complex)
    for e in boxes:
        cn, cm, cl = (mid(w) for w in e["window"])
        vals += e["value"] / (D1(cn) * D2(cn - cl) * D3(cn - cm))
    for e in t2_lm:                                    # n pinned
        cl, cm = (mid(w) for w in e["window"])
        vals += gd[i1] * e["value"] / (D1(0.0) * D2(-cl) * D3(-cm))
    for e in t2_nm:                                    # l pinned
        cn, cm = (mid(w) for w in e["window"])
        vals += gd[i2] * e["value"] / (D1(cn) * D2(cn) * D3(cn - cm))
    for en in t1_n:                                    # m pinned (no moment)
        cn = mid(en["window"])
        for el in t1_l:
            cl = mid(el["window"])
            vals += en["value"] * el["value"] / (
                D1(cn) * D2(cn - cl) * D3(cn))
    for e in t1_l:                                     # n and m pinned
        cl = mid(e["window"])
        vals += gd[i1] * gd[i_tr] * e["value"] / (D1(0.0) * D2(-cl) * D3(0.0))
    for e in t1_m:                                     # n and l pinned
        cm = mid(e["window"])
        vals += gd[i1] * gd[i2] * e["value"] / (D1(0.0) * D2(0.0) * D3(-cm))
    for e in t1_n:                                     # m and l pinned
        cn = mid(e["window"])
        vals += gd[i2] * gd[i3] * e["value"] / (D1(cn) * D2(cn) * D3(cn))
    vals += (gd[i1] * gd[i2] * gd[i3] * gd[i_tr]
             / (D1(0.0) * D2(0.0) * D3(0.0)))          # fully pinned

    if squeeze:
        return SusceptibilityResult(order=3, frequencies=triples[0],
                                    values=vals[0], gamma=gamma,
                                    axes=(i_tr, i3, i2, i1))
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
            if x is None and name in ("N", "eta", "gap"):
                continue
            if not (math.isfinite(x) and x > 0):
                raise InputError(f"{name} must be positive and finite")
        if self.eps >= 1:
            raise InputError("eps must be below 1")
        if not (isinstance(self.n_order, numbers.Integral)
                and self.n_order >= 1):
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
    """Merge found windows whose centres sit closer than min_sep."""
    if not peaks:
        return []
    spans = sorted((float(p[0]), float(p[1])) for p in peaks)
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
    estimation window, default gamma/8.  A method outside METHODS (in
    either mode), a model with a zero Hamiltonian (alpha = 0), eps outside
    (0, 1), a negative seed, or a gamma, window_width or grid point that is
    not finite (gamma and window_width must also be positive) raises
    InputError, and a grid of more than GRID_POINT_CAP points raises
    ResourceError, before any search.
    Returns a dict: "oracle" (the exact SusceptibilityResult), "mode",
    "sd" (the SpectralData), "cost" and "qpe" (the cost reports),
    "manifest" (manifest.json's content) and "csv" (response.csv's body).
    A simulation adds "traces" ({search name: SearchTrace}; a search over
    a chain is named d<depth>_<axis letters>, the order-3 box search
    depth3), "tables" ({depth: ResponseTable}) and "result" (the
    assembled SusceptibilityResult, or None unless every table has
    entries).  Writes those as CSV/JSON files when out_dir is set.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise InputError("gamma must be positive and finite")
    if not 0 < eps < 1:
        raise InputError("eps must lie in (0, 1)")
    if window_width is not None and not (math.isfinite(window_width)
                                         and window_width > 0):
        raise InputError("window_width must be positive and finite")
    if not (isinstance(order, numbers.Integral) and order in (1, 3)):
        raise InputError("order must be 1 or 3")
    if mode not in ("simulate", "oracle"):
        raise InputError("mode must be 'simulate' or 'oracle'")
    if method not in METHODS:
        raise InputError(f"unknown method {method!r}")
    if seed < 0:
        raise InputError("seed must be non-negative")
    axes = tuple(int(a) for a in axes)
    if len(axes) != (2 if order == 1 else 4):
        raise InputError(f"order {order} needs {2 if order == 1 else 4} axes")
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
        oracle = SusceptibilityResult(order=3, frequencies=grid,
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
                sd, gamma, eps, axes, grid, seed, method))
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


def _simulate_alpha3(sd, gamma, eps, axes, grid, seed, method):
    i_tr, i3, i2, i1 = axes
    width = gamma
    # Nested amplitudes spread over BRANCHING**3 cells per box, so the
    # per-bin elevation is far smaller than in the 1-D search; a tighter
    # threshold (with its matching sample-size bound) keeps genuine boxes
    # above the noise floor.
    tau = 0.004
    # (trace name, chain, search seed): the box chain, then the distinct
    # chains of the ground-pinned terms at depths 2 and 1
    jobs = [("depth3", (i1, i_tr, i3, i2), seed)]
    for chains, first in ((((i2, i3, i_tr), (i1, i_tr, i3)), seed + 1),
                          (((i_tr, i1), (i2, i3), (i3, i_tr)), seed + 11)):
        jobs += [(_search_name(ch), ch, first + k)
                 for k, ch in enumerate(dict.fromkeys(chains))]
    traces = {name: binary_search_nd(sd, ch, width, tau, seed=s)
              for name, ch, s in jobs}
    tables = {d: ResponseTable(order=d, margin=OVERLAP * width)
              for d in (3, 2, 1)}
    boxes = [(ch, box) for name, ch, _ in jobs for box in traces[name].peaks]
    for idx, (ch, box) in enumerate(boxes):
        tables[len(ch) - 1].add(estimate_box(
            sd, ch, box if len(ch) > 2 else (box,), eps, method=method,
            seed=_child_seed(seed, idx)))
    result = None
    if all(t.entries for t in tables.values()):
        gdip = {ax: float(sd.transition_dipoles[ax][0, 0])
                for ax in set(axes)}
        result = assemble_alpha3(tables, np.stack([grid, grid, grid], axis=-1),
                                 gamma, ground_dipoles=gdip)
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
        omegas = freqs if freqs.ndim == 1 else freqs[:, 0]
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
