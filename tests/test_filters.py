"""Smoothed-indicator polynomial construction and certification."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.special import erf, erfc

from oracle_reference import jump_error_integral
from respsim import (
    ChebyshevFilter,
    InputError,
    ResourceError,
    build_indicator,
    choose_k,
    diagonalize,
    make_hubbard_dimer,
    run_pipeline,
)
from respsim.chebfilter import DEGREE_CAP, EVAL_BLOCK_DOUBLES


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
    (0.1, 1e-300), (0.1, 5e-324),    # pi eps^2 underflows to 0
    (0.1, 1e-160),                   # 2 / (pi eps^2) overflows
    (1e-320, 0.1)])                  # 1 / delta overflows
def test_choose_k_refuses_a_steepness_beyond_the_float_range(delta, eps):
    # unchecked, these ended in ZeroDivisionError or an infinite k
    with pytest.raises(InputError, match="float range"):
        choose_k(delta, eps)


@pytest.mark.parametrize("eps", [1e-3, 1e-100, 1e-150, 1e-154])
def test_choose_k_keeps_its_formula_down_to_the_float_range(eps):
    assert choose_k(0.1, eps) == \
        math.sqrt(2.0) / 0.1 * math.sqrt(math.log(2.0 / (math.pi * eps * eps)))


@pytest.mark.parametrize("delta, eps", [
    (math.inf, 0.1), (math.nan, 0.1), (-math.inf, 0.1),
    (0.1, math.nan), (0.1, math.inf)])
def test_choose_k_rejects_non_finite(delta, eps):
    with pytest.raises(InputError):
        choose_k(delta, eps)


# ---------------------------------------------------------------------------
# windowed indicator
# ---------------------------------------------------------------------------

def _window_filter(a, b, delta, eps):
    """The filter of the window [a, b] inside [-1, 1] and the map x -> y
    that places it: the centred indicator of half-width h/R with margin
    delta/R, at y = (x - c)/R, with c and h the window's centre and
    half-width and R = 1 + |c|, so that [-1, 1] in x stays inside the
    filter's domain."""
    c, h = (a + b) / 2.0, (b - a) / 2.0
    R = 1.0 + abs(c)
    return (build_indicator(h / R, delta / R, eps),
            lambda x: (np.asarray(x, dtype=float) - c) / R)


def _check_three_regions(f: ChebyshevFilter, place, a, b, delta, eps):
    x = np.linspace(-1.0, 1.0, 4001)
    vals = f.eval(place(x))
    center, half = (a + b) / 2.0, (b - a) / 2.0
    inner = np.abs(x - center) <= half - delta
    outer = np.abs(x - center) >= half + delta
    assert np.min(vals[inner]) >= 1.0 - eps - 1e-12
    assert np.max(vals[outer]) <= eps + 1e-12
    assert np.min(vals) >= -1e-12
    assert np.max(vals) <= 1.0 + eps + 1e-12


def test_indicator_centered_window():
    half, delta, eps = 0.3, 0.08, 1e-2
    f = build_indicator(half, delta, eps)
    x = np.linspace(-1.0, 1.0, 401)
    assert np.array_equal(f.eval(x), f.eval(-x))     # even in y, bit for bit
    assert f.half_width == half
    _check_three_regions(f, lambda y: y, -half, half, delta, eps)


def test_indicator_off_center_window():
    a, b, delta, eps = 0.2, 0.7, 0.05, 1e-3
    f, place = _window_filter(a, b, delta, eps)
    _check_three_regions(f, place, a, b, delta, eps)


def test_indicator_certificate_recorded():
    f = _window_filter(-0.2, 0.4, 0.1, 1e-2)[0]
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
    f, place = _window_filter(a, b, delta, eps)
    assert np.min(f.eval(place(UNIFORM_FLOOR_GRID))) >= 0.0
    x = UNIFORM_CONTRACT_GRID
    vals = f.eval(place(x))
    inner = np.abs(x - center) <= half - delta
    outer = np.abs(x - center) >= half + delta
    assert np.min(vals[inner]) >= 1.0 - eps
    if outer.any():
        assert np.max(vals[outer]) <= eps
    assert np.min(vals) >= 0.0
    assert np.max(vals) <= 1.0 + eps


def test_indicator_certifies_without_pointwise_evaluation(monkeypatch):
    """Certification synthesizes values with one inverse DCT on an
    FFT-friendly grid, and eval has its own path: pointwise Clenshaw
    (chebval) is never called, in a build or in a whole pipeline run."""
    def tripwire(*args, **kwargs):
        raise AssertionError("chebval called from the package")

    monkeypatch.setattr(np.polynomial.chebyshev, "chebval", tripwire)
    for a, b, delta, eps in ((-0.3, 0.3, 0.08, 1e-2), (0.2, 0.7, 0.05, 1e-3),
                             (-0.02, 0.02, 0.004, 1e-3)):
        f = _window_filter(a, b, delta, eps)[0]
        n_grid = f.certificate["grid_size"]
        assert n_grid >= 8 * f.degree
        assert next_fast_len(n_grid, real=True) == n_grid
    sd = diagonalize(make_hubbard_dimer(1.0, 2.0, 0.5))
    assert run_pipeline(sd, 0.1, seed=7)["result"] is not None
    assert run_pipeline(sd, 0.2, order=3, axes=(0, 0, 0, 0),
                        grid=np.linspace(1.0, 3.9, 3),
                        method="exact")["result"] is not None


# ---------------------------------------------------------------------------
# pointwise evaluation
# ---------------------------------------------------------------------------

CHEB = np.polynomial.chebyshev


@settings(max_examples=12, deadline=None)
@given(center=st.floats(-0.6, 0.6), log_delta_y=st.floats(-3.35, -0.7),
       half_ratio=st.floats(1.2, 6.0), log_eps=st.floats(-3.5, -1.0),
       n_points=st.integers(1, 5000), seed=st.integers(0, 2 ** 32 - 1))
@example(center=0.0, log_delta_y=-3.35, half_ratio=1.2, log_eps=-3.5,
         n_points=5000, seed=0)
@example(center=0.0, log_delta_y=math.log10(2.8e-4), half_ratio=1e-3 / 2.8e-4,
         log_eps=-3.0, n_points=5000, seed=2)       # degree 94 620
@example(center=0.45, log_delta_y=-0.7, half_ratio=1.2, log_eps=-1.0,
         n_points=1, seed=1)
def test_eval_matches_clenshaw(center, log_delta_y, half_ratio, log_eps,
                               n_points, seed):
    """Degrees 32 to about 1e5 on up to 5 000 points, with +-1, 0, the
    window edges and a cluster on the steep ramp.  Clenshaw (chebval) on
    the half-series in t = 2y^2 - 1 is the arbiter.  They agree within
    eps (d sum|c| + |q'(t)|): d eps sum|c| for either algorithm, and
    eps |q'(t)| for the rounding of t, which Clenshaw pays (near t = -1,
    the window, it dominates) and eval, working from y, does not."""
    scale = 1.0 + abs(center)
    delta = 10.0 ** log_delta_y * scale
    half = min(half_ratio * delta, 1.0 - abs(center))
    f, place = _window_filter(center - half, center + half, delta,
                              10.0 ** log_eps)
    rng = np.random.default_rng(seed)
    edges = center + np.array([-half, half])
    x = np.concatenate([
        [-1.0, 0.0, 1.0, center], edges,
        rng.uniform(-1.0, 1.0, n_points),
        (edges[:, None] + delta * rng.uniform(-2.0, 2.0, (2, 50))).ravel()])
    x = x[np.abs(x) <= 1.0]
    y = place(x)
    t = 2.0 * y * y - 1.0
    half_series = f.coefficients
    want = CHEB.chebval(t, half_series)
    slope = np.abs(CHEB.chebval(t, CHEB.chebder(half_series)))
    bound = np.finfo(float).eps * (
        f.degree * np.sum(np.abs(f.coefficients)) + slope)
    assert 32 <= f.degree <= DEGREE_CAP
    assert np.all(np.abs(f.eval(y) - want) <= bound)


def test_eval_keeps_the_shape_and_takes_no_points():
    f = build_indicator(0.3, 0.08, 1e-2)
    grid = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
    assert f.eval(grid).shape == (3, 4)
    assert f.eval(grid).ravel().tolist() == f.eval(grid.ravel()).tolist()
    assert f.eval(0.25).shape == ()
    assert f.eval(np.empty(0)).shape == (0,)


def test_eval_values_do_not_depend_on_the_other_points():
    # a point's value is bit-identical alone, among other points and at
    # any position, so values evaluated together can be cached one by one
    rng = np.random.default_rng(5)
    for half, delta in ((0.3, 0.08), (0.01, 0.003)):
        f = build_indicator(half, delta, 1e-2)
        x = rng.uniform(-1.0, 1.0, 37)
        together = f.eval(x).tolist()
        assert [f.eval(x[i:i + 1])[0] for i in range(len(x))] == together
        assert f.eval(np.concatenate([x[::-1], x]))[37:].tolist() == together


def test_eval_memory_stays_in_its_block_budget():
    """200 001 points at a degree near DEGREE_CAP: unblocked, the baby and
    giant tables would take about 2 GB.  The peak is the block budget plus
    the clamped points, the output and the coefficient table."""
    f = build_indicator(1e-3, 2.8e-4, 1e-3)
    assert f.degree > 0.9 * DEGREE_CAP
    x = np.linspace(-1.0, 1.0, 200001)
    tracemalloc.start()
    try:
        vals = f.eval(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * EVAL_BLOCK_DOUBLES + 3 * x.nbytes
    assert vals[100000] >= 1.0 - f.eps and vals[0] <= f.eps


def test_eval_clamps_roundoff_and_refuses_points_beyond_it():
    f, place = _window_filter(0.2, 0.7, 0.05, 1e-3)  # y = (x - 0.45) / 1.45
    lo, hi = 0.45 - 1.45, 0.45 + 1.45
    assert f.eval(place(hi + 1e-14)) == f.eval(place(hi))
    assert f.eval(place(lo - 1e-14)) == f.eval(place(lo))
    for bad in (hi + 1e-9, lo - 1e-9, 3.0, np.nan, np.inf):
        with pytest.raises(InputError):
            f.eval(place(np.array([0.0, bad])))


def test_indicator_validation():
    with pytest.raises(InputError):
        build_indicator(1.2, 0.1, 1e-2)              # beyond [-1, 1]
    with pytest.raises(InputError):
        build_indicator(-0.15, 0.1, 1e-2)            # reversed window
    with pytest.raises(InputError):
        build_indicator(0.1, 0.2, 1e-2)              # ramp wider than window
    with pytest.raises(InputError):
        build_indicator(0.1, 0.05, 1.5)
    # degree cap; below delta ~ 1e-153 the first guess is inf
    for args in ((0.1, 1e-5, 1e-2), (0.5, 1e-150, 1e-3), (1.0, 1e-160, 0.1),
                 (1.0, 1e-200, 0.1)):
        with pytest.raises(ResourceError,
                           match=r"indicator degree (\d+|inf) exceeds cap"):
            build_indicator(*args)


@pytest.mark.parametrize("args", [
    (math.nan, 0.05, 1e-2), (math.inf, 0.05, 1e-2), (True, 0.05, 1e-2),
    ("0.1", 0.05, 1e-2), (0.1, math.nan, 1e-2), (0.1, 0.0, 1e-2),
    (0.1, 0.05, math.nan), (0.1, 0.05, 0.0), (0.1, 0.05, None)], ids=repr)
def test_indicator_admits_positive_finite_reals_only(args):
    with pytest.raises(InputError):
        build_indicator(*args)


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
