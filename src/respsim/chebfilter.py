"""Chebyshev spectral-filter machinery.

ChebyshevFilter is the certified smoothed indicator of [-h, h] inside
[-1, 1], a function of its own variable y.  Its target
    F(y) = (erf(k (y + kappa)) + erf(k (kappa - y))) / 2,
kappa = h + delta/2, is even, so the filter polynomial is an even
Chebyshev series p(y) = sum c_2m T_2m(y).  It equals the half-series
q(t) = sum c_2m T_m(t) at t = 2 y^2 - 1, and a filter stores q only: its
degree in y is twice that of q.  The coefficients come from interpolation
at first-kind Chebyshev nodes in y (a DCT), which stays cheap at degrees
~1e5 where naive O(n^2) constructions are hopeless; their even entries
are q.  Placing a window of the spectrum on y, the shift by its centre and
the rescale, is the caller's: `estimate._filter_columns`.

Every constructed object is grid-certified before it is returned.  q is
synthesized once, with an inverse DCT, on a first-kind Chebyshev grid in t
of at least 16 points per degree of q (an FFT-friendly length).  Those
values serve twice: their minimum sets the constant added to c0 when
roundoff drags the floor below zero, and the lifted values must satisfy
the three-region contract
    >= 1 - eps  inside |y| <= h - delta   (t <= 2 (h - delta)^2 - 1),
    <= eps      outside |y| >= h + delta  (t >= 2 (h + delta)^2 - 1),
    in [0, 1 + eps] everywhere on the domain.
The margin budget (erf tail eps/4, interpolation eps/4) leaves room for
the lift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.fft import dct, idct, next_fast_len
from scipy.special import erf

from .errors import InputError, ResourceError, check_positive

DEGREE_CAP = 10 ** 5
CERT_GRID_PER_DEGREE = 16      # t-grid points per degree of the half-series
EPS_VALIDITY = math.sqrt(2.0 / (math.e * math.pi))   # choose_k upper bound
EVAL_BLOCK_DOUBLES = 2 ** 21   # temporaries of one eval block (16 MiB)
DOMAIN_TOL = 1e-12             # |y| beyond 1 that eval clamps as roundoff


def chebyshev_grid(n: int) -> np.ndarray:
    """First-kind Chebyshev nodes cos(pi (m + 1/2) / n), descending in x."""
    return np.cos((np.arange(n) + 0.5) * np.pi / n)


def _interpolate(fn, n_nodes: int) -> np.ndarray:
    """Chebyshev coefficients of the degree n_nodes-1 interpolant of fn."""
    samples = fn(chebyshev_grid(n_nodes))
    spec = dct(samples, type=2)
    coeffs = spec / n_nodes
    coeffs[0] = spec[0] / (2.0 * n_nodes)
    return coeffs


def choose_k(delta: float, eps: float) -> float:
    """Steepness k with |erf(k x) - sgn(x)| <= eps whenever |x| >= delta/2."""
    check_positive("delta", delta)
    if not 0 < eps < EPS_VALIDITY:
        raise InputError(
            f"eps must lie in (0, {EPS_VALIDITY:.4f}) for the tail bound")
    # pi eps^2 underflows to 0 below eps ~ 1e-162, and 2/(pi eps^2) or
    # 1/delta overflows a little above that
    tail = math.pi * eps * eps
    log_term = math.log(2.0 / tail) if tail else math.inf
    k = math.sqrt(2.0) / delta * math.sqrt(log_term)
    if not math.isfinite(k):
        raise InputError(f"delta={delta}, eps={eps} put the steepness k "
                         "outside the float range")
    return k


@dataclass
class ChebyshevFilter:
    """Even smoothed indicator of [-half_width, half_width] in [-1, 1].

    The filter is p(y) = q(2y^2 - 1); it stores the Chebyshev coefficients
    of the half-series q, whose entry m is the coefficient of T_2m(y) in p.
    """

    half_width: float
    eps: float
    coefficients: np.ndarray     # half-series q in t = 2y^2 - 1
    certificate: dict

    @property
    def degree(self) -> int:
        """Degree of p in y."""
        return 2 * (len(self.coefficients) - 1)

    def eval(self, y):
        """Values at the points y, in a fixed number of numpy steps per
        block of points.

        With t = 2y^2 - 1 = cos(theta), p(y) = sum_m c_2m cos(m theta).
        Splitting m = jB + b with B = ceil(sqrt(d/2 + 1)) gives
            p = Re sum_j e^{ijB theta} (C @ e^{ib theta})_j,
        C the half-series as a (giant j) x (baby b) matrix: a real GEMM of
        C with each point's baby table (its cos and sin as two columns),
        then one weighted sum over the giant rows.  One GEMM per point keeps
        every value a function of its own point: the other points, their
        order and their number do not move its bits, so values evaluated
        together can be cached and reused one by one.  Both tables are
        powers of a unit complex number, e^{i theta} = t + i 2y
        sqrt((1-y)(1+y)) and e^{iB theta}, built by repeated multiplication:
        no transcendental call, and no 1/sin(theta) error growth near
        t = +-1, where Clenshaw in t loses digits to the rounding of t.
        Points go through in blocks whose temporaries fit
        EVAL_BLOCK_DOUBLES.
        """
        shape = np.shape(y)
        y = np.asarray(y, dtype=float)
        if not np.all(np.abs(y) <= 1.0 + DOMAIN_TOL):
            raise InputError(
                f"filter evaluated outside its domain: |y| > 1 + {DOMAIN_TOL}")
        y = np.clip(y, -1.0, 1.0).ravel()
        q = self.coefficients
        baby = math.isqrt(len(q) - 1) + 1
        giant = -(-len(q) // baby)
        table = np.zeros(giant * baby)
        table[:len(q)] = q
        table = table.reshape(giant, baby)
        # complex baby and giant tables, the GEMM products, z and a few
        # point-sized temporaries, in doubles per point
        block = max(1, EVAL_BLOCK_DOUBLES // (2 * baby + 4 * giant + 12))
        out = np.empty(len(y))
        for lo in range(0, len(y), block):
            yb = y[lo:lo + block]
            z = np.empty(len(yb), dtype=complex)
            z.real = 2.0 * yb * yb - 1.0
            z.imag = 2.0 * yb * np.sqrt((1.0 - yb) * (1.0 + yb))
            babies = _powers(z, baby + 1)
            stack = babies[:, :baby].view(float).reshape(-1, baby, 2)
            prod = (table @ stack).view(complex)[..., 0]
            prod *= _powers(babies[:, baby], giant)
            out[lo:lo + block] = prod.real.sum(axis=1)
        return out.reshape(shape)


def _powers(z: np.ndarray, n: int) -> np.ndarray:
    """Columns z**k for k < n, shape (len(z), n), by repeated
    multiplication (one cumulative product per row)."""
    cols = np.empty((len(z), n), dtype=complex)
    cols[:, 0] = 1.0
    cols[:, 1:] = z[:, None]
    np.cumprod(cols[:, 1:], axis=1, out=cols[:, 1:])
    return cols


def _half_series_values(q: np.ndarray):
    """Values of the half-series at the t-grid nodes, as (t, q(t)), by an
    inverse DCT.

    The grid has CERT_GRID_PER_DEGREE points per degree of q, rounded up
    to a length that pocketfft transforms without a Bluestein plan (its
    plans for large prime factors cost memory).
    """
    n_grid = next_fast_len(CERT_GRID_PER_DEGREE * (len(q) - 1), real=True)
    spec = np.zeros(n_grid)
    spec[0] = 2.0 * n_grid * q[0]
    spec[1:len(q)] = n_grid * q[1:]
    return chebyshev_grid(n_grid), idct(spec, type=2)


def _certify_indicator(t, vals, half_width, delta, eps):
    """Three-region check of the values q(t) of the half-series, t = 2y^2-1.

    Returns (ok, cert_record) with the region extrema recorded.
    """
    lo_in = half_width - delta
    lo_out = half_width + delta
    inner = t <= 2.0 * lo_in * lo_in - 1.0
    outer = t >= 2.0 * lo_out * lo_out - 1.0
    inner_min = float(np.min(vals[inner])) if inner.any() else 1.0
    outer_max = float(np.max(vals[outer])) if outer.any() else 0.0
    global_min = float(np.min(vals))
    global_max = float(np.max(vals))
    ok = (inner_min >= 1.0 - eps and outer_max <= eps
          and global_min >= 0.0 and global_max <= 1.0 + eps)
    cert = {
        "grid_size": len(t),
        "inner_min": inner_min,
        "outer_max": outer_max,
        "global_min": global_min,
        "global_max": global_max,
        "eps": eps,
    }
    return ok, cert


def build_indicator(half_width: float, delta: float, eps: float
                    ) -> ChebyshevFilter:
    """Certified smoothed indicator of [-half_width, half_width] with
    transition width delta and error eps."""
    check_positive("half_width", half_width)
    check_positive("delta", delta)
    check_positive("eps", eps)
    if not (half_width <= 1.0 and delta < half_width and eps < 1.0):
        raise InputError(f"need half_width={half_width} <= 1, delta={delta} "
                         f"below it and eps={eps} below 1")
    k = choose_k(delta, eps / 4.0)
    kappa = half_width + delta / 2.0

    def target(y):
        return 0.5 * (erf(k * (y + kappa)) + erf(k * (kappa - y)))

    L = math.log(8.0 / eps)
    # an inf first guess stays a float: for delta below about 1e-153, k^2
    # and so the guess are inf
    guess = 1.1 * math.sqrt(2.0 * (k * k + L) * L)
    degree = max(32, int(guess) + 2) if guess < math.inf else guess
    while True:
        if degree > DEGREE_CAP:
            raise ResourceError(
                f"indicator degree {degree} exceeds cap {DEGREE_CAP} "
                f"(half-width {half_width}, delta={delta}, eps={eps})")
        q = _interpolate(target, degree + 1)[::2]
        last = np.max(np.nonzero(np.abs(q) > 0.0)[0], initial=0)
        q = q[:last + 1].copy()
        # lift a residual-negative floor back above zero with headroom: the
        # erf-pair target is strictly positive, but the interpolant
        # undershoots it by its residual, and the dips can land between the
        # nodes of any one grid.  The t-grid samples every oscillation of
        # the half-series many times, so its minimum is close to the true
        # one; lift by 3x the undershoot.  The shift is residual-sized, far
        # below the eps head-room of the other region bounds.
        t, vals = _half_series_values(q)
        vmin = float(np.min(vals))
        if vmin < 1e-13:
            lift = 3.0 * (1e-13 - vmin)
            q[0] += lift
            vals += lift
        ok, cert = _certify_indicator(t, vals, half_width, delta, eps)
        if ok:
            return ChebyshevFilter(half_width=half_width, eps=eps,
                                   coefficients=q, certificate=cert)
        # interpolation is cheap (one DCT), so grow gently and land close
        # to the smallest certifying degree
        degree = int(1.2 * degree) + 2

