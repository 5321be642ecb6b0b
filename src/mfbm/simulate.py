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


# Rational approximation of the standard normal quantile (Acklam's
# coefficients, |relative error| < 1.2e-9); keeps draws identical across
# platforms and BLAS builds.
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def inverse_normal_cdf(u):
    """Standard normal quantile of u in (0, 1), vectorized."""
    u = np.asarray(u, dtype=float)
    out = np.empty_like(u)

    lo = u < _P_LOW
    hi = u > 1.0 - _P_LOW
    mid = ~(lo | hi)

    if np.any(mid):
        q = u[mid] - 0.5
        r = q * q
        num = ((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]
        den = (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r) + 1.0
        out[mid] = q * num / den
    for sel, tail in ((lo, u[lo]), (hi, 1.0 - u[hi])):
        if np.any(sel):
            q = np.sqrt(-2.0 * np.log(tail))
            num = ((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]
            den = ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q) + 1.0
            out[sel] = num / den
    if np.any(hi):
        out[hi] = -out[hi]
    return out


def standard_normals(size: int, seed: int, stream: int = 0) -> np.ndarray:
    """i.i.d. N(0,1) via inverse-CDF of counter-based uniforms."""
    u = uniform_stream(seed, stream).random(size)
    u = np.clip(u, 2.0**-54, 1.0 - 2.0**-54)
    return inverse_normal_cdf(u)


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
