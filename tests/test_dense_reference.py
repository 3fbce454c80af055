"""The eigenbasis channel against the dense reference chain."""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dense_reference import dense_box_value, dense_filter
from respsim import build_indicator, diagonalize, make_random_model
from respsim.estimate import _box_channel, _zeta


def test_dense_filter_matches_eigendecomposition():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(12, 12))
    A = (A + A.T) / 2.0
    A /= 1.05 * np.linalg.norm(A, 2)
    f = build_indicator(-0.2, 0.4, 0.1, 1e-2)
    got = dense_filter(f, A)
    lam, U = np.linalg.eigh(A)
    assert np.allclose(got, (U * f.eval(lam)) @ U.T, atol=1e-10)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), n=st.integers(2, 3), seed=st.integers(0, 2 ** 16),
       depth=st.integers(1, 3))
def test_box_channel_matches_dense_chain(data, n, seed, depth):
    ne = 2 * data.draw(st.integers(1, n - 1), label="pairs")
    model = make_random_model(n, ne, seed)
    sd = diagonalize(model)
    assume(not sd.degenerate_ground)
    axes = tuple(data.draw(st.lists(st.integers(0, 2), min_size=depth + 1,
                                    max_size=depth + 1), label="axes"))
    # each window covers a drawn level (the ground level too, which puts
    # the masked ground state on the filter's ramp)
    windows, deltas = [], []
    for _ in range(depth):
        level = sd.eigenvalues[data.draw(
            st.integers(0, sd.n_states - 1), label="level")]
        width = data.draw(st.floats(0.1, 1.5), label="width")
        lo = max(0.0, level - data.draw(st.floats(0.0, 1.0)) * width)
        windows.append((lo, lo + width))
        deltas.append(width * data.draw(st.floats(0.25, 0.45), label="ramp"))
    eps = 0.2
    u = _box_channel(sd, axes, windows, deltas, eps)[0]
    got = complex(u[0]) / _zeta(sd, axes)
    want = dense_box_value(model, sd, axes, windows, deltas, eps)
    assert abs(got - want) <= 1e-9 * abs(want) + 1e-15
