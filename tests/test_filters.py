"""Smoothed-indicator polynomial construction and certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.special import erf, erfc

from respsim import (
    ChebyshevFilter,
    InputError,
    ResourceError,
    build_indicator,
    choose_k,
    jump_error_integral,
)


# ---------------------------------------------------------------------------
# steepness selection
# ---------------------------------------------------------------------------

def test_choose_k_frozen_value():
    assert choose_k(0.1, 1e-3) == pytest.approx(51.698990033993546, rel=1e-14)


def test_choose_k_tail_bound_holds():
    delta, eps = 0.1, 1e-3
    k = choose_k(delta, eps)
    x = np.linspace(delta / 2.0, 4.0, 20001)
    dev = np.max(np.abs(erf(k * x) - 1.0))
    assert dev <= eps
    assert dev > eps / 10.0          # the bound is not wastefully loose


def test_choose_k_validation():
    with pytest.raises(InputError):
        choose_k(0.0, 1e-3)
    with pytest.raises(InputError):
        choose_k(0.1, 0.9)           # beyond the tail-bound validity range
    with pytest.raises(InputError):
        choose_k(0.1, 0.0)


@pytest.mark.parametrize("delta, eps", [
    (math.inf, 0.1), (math.nan, 0.1), (-math.inf, 0.1),
    (0.1, math.nan), (0.1, math.inf)])
def test_choose_k_rejects_non_finite(delta, eps):
    with pytest.raises(InputError):
        choose_k(delta, eps)


# ---------------------------------------------------------------------------
# windowed indicator
# ---------------------------------------------------------------------------

def _check_three_regions(f: ChebyshevFilter, a, b, delta, eps):
    x = np.linspace(-1.0, 1.0, 4001)
    vals = f.eval(x)
    center, half = (a + b) / 2.0, (b - a) / 2.0
    inner = np.abs(x - center) <= half - delta
    outer = np.abs(x - center) >= half + delta
    assert np.min(vals[inner]) >= 1.0 - eps - 1e-12
    assert np.max(vals[outer]) <= eps + 1e-12
    assert np.min(vals) >= -1e-12
    assert np.max(vals) <= 1.0 + eps + 1e-12


def test_indicator_centered_window():
    a, b, delta, eps = -0.3, 0.3, 0.08, 1e-2
    f = build_indicator(a, b, delta, eps)
    assert np.all(f.coefficients[1::2] == 0.0)       # even polynomial in y
    assert f.window == pytest.approx((a, b))
    _check_three_regions(f, a, b, delta, eps)


def test_indicator_off_center_window():
    a, b, delta, eps = 0.2, 0.7, 0.05, 1e-3
    f = build_indicator(a, b, delta, eps)
    _check_three_regions(f, a, b, delta, eps)


def test_indicator_certificate_recorded():
    f = build_indicator(-0.2, 0.4, 0.1, 1e-2)
    cert = f.certificate
    assert cert["inner_min"] >= 1.0 - f.eps
    assert cert["outer_max"] <= f.eps
    assert cert["global_min"] >= 0.0
    assert cert["global_max"] <= 1.0 + f.eps
    assert cert["grid_size"] >= 2 * f.degree + 1


UNIFORM_FLOOR_GRID = np.linspace(-1.0, 1.0, 30001)
UNIFORM_CONTRACT_GRID = np.linspace(-1.0, 1.0, 200001)


@settings(max_examples=12, deadline=None)
@given(center=st.floats(-0.6, 0.6), half_frac=st.floats(0.1, 1.0),
       delta_frac=st.floats(0.05, 0.9), log_eps=st.floats(-4.0, -1.0))
def test_indicator_holds_on_uniform_grids(center, half_frac, delta_frac,
                                          log_eps):
    """The certificate comes from Chebyshev-grid values alone; uniform
    grids, an independent family of points, arbitrate.  The filter is >= 0
    on 30 001 points and meets the three-region contract on 200 001."""
    half = max(0.08, half_frac * (1.0 - abs(center)))
    delta = max(0.06, delta_frac * half)
    eps = 10.0 ** log_eps
    a, b = center - half, center + half
    f = build_indicator(a, b, delta, eps)
    assert np.min(f.eval(UNIFORM_FLOOR_GRID)) >= 0.0
    x = UNIFORM_CONTRACT_GRID
    vals = f.eval(x)
    inner = np.abs(x - center) <= half - delta
    outer = np.abs(x - center) >= half + delta
    assert np.min(vals[inner]) >= 1.0 - eps
    if outer.any():
        assert np.max(vals[outer]) <= eps
    assert np.min(vals) >= 0.0
    assert np.max(vals) <= 1.0 + eps


def test_indicator_certifies_without_pointwise_evaluation(monkeypatch):
    """Certification synthesizes values with one inverse DCT on an
    FFT-friendly grid; pointwise Clenshaw (chebval) is never called."""
    def tripwire(*args, **kwargs):
        raise AssertionError("chebval called during build_indicator")

    monkeypatch.setattr(np.polynomial.chebyshev, "chebval", tripwire)
    for a, b, delta, eps in ((-0.3, 0.3, 0.08, 1e-2), (0.2, 0.7, 0.05, 1e-3),
                             (-0.02, 0.02, 0.004, 1e-3)):
        f = build_indicator(a, b, delta, eps)
        n_grid = f.certificate["grid_size"]
        assert n_grid >= 8 * f.degree
        assert next_fast_len(n_grid, real=True) == n_grid


def test_indicator_validation():
    with pytest.raises(InputError):
        build_indicator(-1.2, 0.5, 0.1, 1e-2)        # outside [-1, 1]
    with pytest.raises(InputError):
        build_indicator(0.5, 0.2, 0.1, 1e-2)         # reversed window
    with pytest.raises(InputError):
        build_indicator(-0.1, 0.1, 0.2, 1e-2)        # ramp wider than window
    with pytest.raises(InputError):
        build_indicator(-0.1, 0.1, 0.05, 1.5)
    with pytest.raises(ResourceError):
        build_indicator(-0.1, 0.1, 1e-5, 1e-2)       # degree cap


# ---------------------------------------------------------------------------
# ramp-error integral
# ---------------------------------------------------------------------------

def test_jump_error_constant():
    assert jump_error_integral(1.0) == pytest.approx(
        0.5139350418877441, abs=1e-12)


def test_jump_error_scales_linearly():
    g1 = jump_error_integral(0.2)
    g2 = jump_error_integral(0.4)
    assert g2 == pytest.approx(2.0 * g1, rel=1e-10)


def test_jump_error_cut_and_validation():
    full = jump_error_integral(0.5)
    cut = jump_error_integral(0.5, eps_cut=0.1)
    assert 0.0 < cut < full
    with pytest.raises(InputError):
        jump_error_integral(0.0)
    with pytest.raises(InputError):
        jump_error_integral(0.5, eps_cut=-0.1)
    with pytest.raises(InputError):
        jump_error_integral(0.5, eps_cut=0.5)


@pytest.mark.parametrize("delta, eps_cut", [
    (math.inf, 0.0), (math.nan, 0.0), (0.5, math.nan), (0.5, math.inf),
    (math.inf, 1.0)])
def test_jump_error_rejects_non_finite(delta, eps_cut):
    with pytest.raises(InputError):
        jump_error_integral(delta, eps_cut)


def _ramp_quadrature(delta, eps_cut):
    return quad(lambda x: erfc(x / delta), eps_cut, delta)[0]


# quad warns about "bad integrand behavior" on a ramp cut a few ulps short
# of delta; its value there still agrees to 1e-13
quad_may_warn = pytest.mark.filterwarnings(
    "ignore::scipy.integrate.IntegrationWarning")


@quad_may_warn
@settings(max_examples=200, deadline=None)
@given(log_delta=st.floats(-4.0, 2.0), data=st.data())
def test_jump_error_matches_quadrature(log_delta, data):
    delta = 10.0 ** log_delta
    eps_cut = data.draw(st.floats(0.0, delta, exclude_max=True))
    assert jump_error_integral(delta, eps_cut) == pytest.approx(
        _ramp_quadrature(delta, eps_cut), rel=1e-10, abs=0.0)


@quad_may_warn
@pytest.mark.parametrize("delta", [1e-4, 0.37, 85.0])
@pytest.mark.parametrize("rest", [3e-3, 1e-3, 1e-5, 1e-8, 1e-12, 0.0])
def test_jump_error_near_the_cut_matches_quadrature(delta, rest):
    # the closed form cancels as eps_cut -> delta; rest = 0 is one ulp short
    eps_cut = min(delta * (1.0 - rest), np.nextafter(delta, 0.0))
    assert jump_error_integral(delta, eps_cut) == pytest.approx(
        _ramp_quadrature(delta, eps_cut), rel=1e-10, abs=0.0)
