"""Property tests: the SH fits against a least-squares oracle, and decode totality."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402
from hypothesis.extra.numpy import arrays  # noqa: E402

from rayvis.raydist import decode_arrays  # noqa: E402
from rayvis.shcolor import (  # noqa: E402
    SHBasis,
    SHRegularizer,
    WeightedColorSample,
    sh_basis_values,
    sh_color,
    sh_fit,
)
from test_shcolor import dual_colors, lstsq_fit, random_directions  # noqa: E402

WEIGHTS = st.one_of(st.just(0.0), st.just(1e-12), st.floats(0.01, 1.0))
PENALTIES = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), degree=st.integers(0, 3), data=st.data())
def test_sh_fits_match_lstsq_oracle(seed, degree, data):
    """Directions and colors come from ``seed``; weights include exact zeros
    and 1e-12, penalties include exact zeros."""
    n_views = data.draw(st.integers(1, 12), label="n_views")
    weights = np.array(data.draw(st.lists(WEIGHTS, min_size=n_views, max_size=n_views),
                                 label="weights"))
    penalties = tuple(data.draw(st.lists(PENALTIES, min_size=degree + 1, max_size=degree + 1),
                                label="penalties"))
    assume(weights.any() or any(penalties))  # sh_fit refuses the empty fit
    rng = np.random.default_rng(seed)
    dirs = random_directions(rng, n_views)
    query = random_directions(rng, 1)
    colors = rng.uniform(0, 1, size=(n_views, 3))
    theta, cond = lstsq_fit(dirs, weights, colors, degree, penalties)
    want = sh_basis_values(degree, query[0]) @ theta
    got, _ = dual_colors(dirs[None], weights[None], colors[None], query, degree, penalties)
    samples = [WeightedColorSample(d, c, float(w)) for d, c, w in zip(dirs, colors, weights)]
    fitted = sh_color(sh_fit(samples, SHBasis(degree), SHRegularizer(penalties)), query[0])
    # a backward-stable solve, the oracle's included, is good to a small
    # multiple of eps * cond * scale; where a 1e-12 weight alone pins a
    # direction, cond passes 1e6 and that term exceeds 1e-9 of the colors
    scale = max(np.max(np.abs(colors)), np.max(np.abs(want)))
    tol = 1e-9 * np.max(np.abs(colors)) + 50 * np.finfo(float).eps * cond * scale
    assert np.max(np.abs(got[0] - want)) <= tol
    assert np.max(np.abs(fitted - want)) <= tol


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(raw=arrays(np.float64, st.tuples(st.integers(1, 4), st.just(3), st.integers(1, 4)),
                  elements=FINITE),
       near=st.floats(1e-3, 10.0), span=st.floats(1e-3, 100.0))
def test_decode_is_total(raw, near, span):
    """Any finite raw array decodes to finite means in [near, far], positive
    scales and weights that sum to 1."""
    far = near + span
    mu, sig, w = decode_arrays(raw, near, far)
    assert np.all(np.isfinite(mu)) and np.all(np.isfinite(sig)) and np.all(np.isfinite(w))
    assert np.all((mu >= near) & (mu <= far))
    assert np.all(sig > 0)
    assert np.all(w >= 0)
    np.testing.assert_allclose(np.sum(w, axis=-1), 1.0, rtol=1e-12)
