"""Exact Gaussian synthesis of sample paths on a uniform grid.

The covariance of (X(delta), ..., X(N delta)) is assembled from the model
variogram and factorized once (Cholesky with a small jitter ladder); every
draw is then a single triangular matrix-vector product. Randomness comes
from a counter-based generator keyed by (seed, stream), so replication r
of a Monte Carlo run always uses stream r regardless of scheduling.
"""

from __future__ import annotations

import numpy as np

from .errors import ResourceLimitError, SimulationError
from .model import ModelSpec, SampledPath, variogram

__all__ = [
    "PathSampler",
    "standard_normals",
    "uniform_stream",
]

DEFAULT_MAX_N = 8192

_JITTER_LADDER = (0.0, 1e-12, 1e-10)  # relative to trace/n


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


def _cholesky_with_jitter(cov: np.ndarray):
    """Lower Cholesky factor, escalating diagonal jitter if needed."""
    n = cov.shape[0]
    scale = np.trace(cov) / n
    if scale == 0.0:
        if np.any(cov != 0.0):
            raise SimulationError("covariance has zero trace but nonzero entries")
        return np.zeros_like(cov)
    for level in _JITTER_LADDER:
        try:
            return np.linalg.cholesky(cov + (level * scale) * np.eye(n))
        except np.linalg.LinAlgError:
            continue
    min_eig = float(np.linalg.eigvalsh(cov)[0])
    raise SimulationError(
        f"covariance not positive definite within the jitter budget "
        f"(smallest eigenvalue ~ {min_eig:.3e}, trace/n = {scale:.3e})"
    )


class PathSampler:
    """Factor the path covariance once, then draw many replications cheaply.

    The covariance on the uniform grid depends only on lag, so it is built
    from N+1 variogram values. Draws are pure functions of (seed, stream).
    """

    def __init__(self, model: ModelSpec, n: int, delta: float, max_n: int = DEFAULT_MAX_N):
        if n < 2:
            raise ValueError("need at least two samples")
        if not delta > 0:
            raise ValueError("sampling step must be positive")
        if n > max_n:
            raise ResourceLimitError(
                f"n = {n} exceeds the cap {max_n} on the n x n Cholesky factorization "
                "of the path covariance; PathSampler(max_n=...) or mfbm simulate --max-n "
                "raise it"
            )
        self.model = model
        self.n = int(n)
        self.delta = float(delta)
        v = variogram(model, delta * np.arange(n + 1))
        idx = np.arange(1, n + 1)
        cov = 0.5 * (v[idx][:, None] + v[idx][None, :] - v[np.abs(idx[:, None] - idx[None, :])])
        self._lower = _cholesky_with_jitter(cov)

    def draw(self, seed: int, stream: int = 0) -> SampledPath:
        z = standard_normals(self.n, seed, stream)
        return SampledPath(delta=self.delta, values=self._lower @ z)
