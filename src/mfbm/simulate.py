"""Exact Gaussian synthesis of sample paths on a uniform grid.

The increments X((k+1) delta) - X(k delta) are stationary, so their n x n
covariance is Toeplitz. It is embedded in a circulant of size 2n, whose
eigenvalues one FFT gives (circulant embedding: Davies & Harte 1987; Wood &
Chan 1994); every draw is then one FFT of coloured complex white noise,
followed by a cumulative sum. Randomness comes from a counter-based
generator keyed by (seed, stream), so replication r of a Monte Carlo run
always uses stream r regardless of scheduling.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from .errors import SimulationError
from .model import ModelSpec, SampledPath, variogram

__all__ = [
    "PathSampler",
    "standard_normals",
    "uniform_stream",
]

_EIG_RTOL = 1e-12  # tolerated negative embedding eigenvalue, relative to the largest


def uniform_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream); streams never overlap."""
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def standard_normals(size: int, seed: int, stream: int = 0) -> np.ndarray:
    """i.i.d. N(0,1): the standard normal quantile (scipy's ndtri) of
    counter-based uniforms, clipped away from 0 and 1."""
    u = uniform_stream(seed, stream).random(size)
    return ndtri(np.clip(u, 2.0**-54, 1.0 - 2.0**-54))


class PathSampler:
    """Embed the increment covariance once, then draw many replications cheaply.

    The increment autocovariance on the uniform grid comes from n + 2
    variogram values; the sampler keeps only the 2n square-rooted circulant
    eigenvalues. Draws are pure functions of (seed, stream).
    """

    def __init__(self, model: ModelSpec, n: int, delta: float):
        if n < 2:
            raise ValueError("need at least two samples")
        if not delta > 0:
            raise ValueError("sampling step must be positive")
        self.model = model
        self.n = int(n)
        self.delta = float(delta)
        v = variogram(model, self.delta * np.arange(self.n + 2))
        k = np.arange(self.n + 1)
        gamma = 0.5 * (v[k + 1] + v[np.abs(k - 1)] - 2.0 * v[k])
        eig = np.fft.fft(np.concatenate((gamma, gamma[-2:0:-1]))).real
        if eig.min() < -_EIG_RTOL * eig.max():
            raise SimulationError(
                f"circulant embedding of the increment covariance is not nonnegative "
                f"(min/max eigenvalue {eig.min() / eig.max():.2e})"
            )
        self._scale = np.sqrt(np.maximum(eig, 0.0) / eig.size)

    def draw(self, seed: int, stream: int = 0) -> SampledPath:
        z = standard_normals(4 * self.n, seed, stream).view(complex)
        increments = np.fft.fft(self._scale * z).real[: self.n]
        return SampledPath(delta=self.delta, values=np.cumsum(increments))
