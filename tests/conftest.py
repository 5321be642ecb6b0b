"""Shared fixtures: the default analyzing wavelet and a cached set of
production-size single-regime paths reused across test modules; shared
helpers: random models, and the covariance kernel read off sigma_matrix."""

import numpy as np
import pytest
from hypothesis import settings

from mfbm import ModelSpec, PathSampler, k_const, sigma_matrix
from mfbm.wavelet import BandWavelet

# property tests draw the same examples on every run, so a failure reproduces
settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")

FBM06 = dict(hurst=0.6, n=6000, delta=0.03, seed=101)


@pytest.fixture(scope="session")
def bump():
    w = BandWavelet.bump(5.0, 10.0)
    w.decay_reach()
    return w


@pytest.fixture(scope="session")
def fbm06_paths():
    """Ten paths of a single-regime model with H = 0.6 at the production grid."""
    sampler = PathSampler(ModelSpec.fbm(FBM06["hurst"], 1.0), FBM06["n"], FBM06["delta"])
    return [sampler.draw(FBM06["seed"], stream=s) for s in range(10)]


def random_model(rng, k=None):
    """Valid random model with well-separated change frequencies."""
    k = int(rng.integers(0, 3)) if k is None else k
    hurst = rng.uniform(0.15, 0.85, size=k + 1)
    sigma = rng.uniform(0.5, 2.5, size=k + 1)
    for i in range(k):
        while abs(hurst[i + 1] - hurst[i]) < 0.05:
            hurst[i + 1] = rng.uniform(0.15, 0.85)
    base = rng.uniform(0.05, 0.5)
    omega = base * (3.0 ** np.arange(1, k + 1)) if k else ()
    return ModelSpec(hurst=tuple(hurst), sigma=tuple(sigma), omega=tuple(np.atleast_1d(omega)))


def sigma_kernel(hurst, g_lo, g_hi, w, r=0.1):
    """The kernel integral 4 pi int_band W^2 of sigma_matrix's entry at the
    frequencies g_lo <= g_hi: the entry divided by its prefactor
    2 (g_lo g_hi)^(2H) / (K_H^2 (1 - 2r)), from a one-frequency matrix when
    g_lo == g_hi."""
    freqs = [g_lo] if g_lo == g_hi else [g_lo, g_hi]
    pref = 2.0 / k_const(w, hurst) ** 2 / (1.0 - 2.0 * r) * (g_lo * g_hi) ** (2.0 * hurst)
    return sigma_matrix(hurst, freqs, w, r)[0, -1] / pref
