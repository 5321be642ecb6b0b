"""Property tests: invariants checked over randomly drawn inputs rather than
at a few spot values."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mfbm import SampledPath, build_grid, sigma_matrix, spectrum


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(256, 1024),
       c=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
def test_spectrum_shifts_by_two_log_c_under_scaling(bump, seed, n, c):
    """Scaling a path by c scales every coefficient by c, so Y moves by 2 log c."""
    rng = np.random.default_rng(seed)
    path = SampledPath(delta=0.05, values=np.cumsum(rng.standard_normal(n)))
    grid = build_grid(n, path.delta, 0.6, 12.0, bump)
    base = spectrum(path, bump, grid)
    scaled = spectrum(SampledPath(path.delta, c * path.values), bump, grid)
    assert np.max(np.abs(scaled.y - base.y - 2.0 * np.log(c))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(hurst=st.floats(0.02, 0.98), f0=st.floats(0.05, 20.0),
       gaps=st.lists(st.floats(1.001, 3.0), min_size=2, max_size=6))
def test_sigma_matrix_symmetric_psd_banded(bump, hurst, f0, gaps):
    """Sigma is a covariance: symmetric and positive semidefinite, and exactly
    zero between refine frequencies whose bands are disjoint."""
    g = f0 * np.cumprod([1.0, *gaps])
    s = sigma_matrix(hurst, g, bump, 0.1)
    assert np.array_equal(s, s.T)
    eigs = np.linalg.eigvalsh(s)
    assert eigs[0] >= -1e-12 * eigs[-1]
    disjoint = g[None, :] / g[:, None] >= bump.ratio
    assert np.all(s[disjoint] == 0.0)
