"""Frequency-banded self-similar Gaussian models.

The process is centered, has stationary increments, X(0) = 0, and its
increment structure is driven by a piecewise power-law spectral weight:
on the band omega_i <= |xi| < omega_{i+1} the weight is
sigma_i^2 |xi|^(-(2 H_i + 1)), with omega_0 = 0 and omega_{K+1} = inf.
K = 0 recovers ordinary fractional Brownian motion (harmonizable
normalization, variogram 4 sigma^2 C(H) delta^(2H)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gamma as _gamma_fn

from .errors import AnalysisError

__all__ = [
    "ModelSpec",
    "SampledPath",
    "AsymptoteLine",
    "variogram_constant",
    "spectral_weight",
    "variogram",
    "variogram_asymptotes",
    "covariance",
    "covariance_matrix",
]


@dataclass(frozen=True)
class ModelSpec:
    """Model parameters: K change frequencies and K+1 regimes (H_i, sigma_i).

    hurst and sigma have length K+1; omega holds the K ascending positive
    change frequencies (empty for a single regime).
    """

    hurst: tuple
    sigma: tuple
    omega: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "hurst", tuple(float(h) for h in np.atleast_1d(self.hurst)))
        object.__setattr__(self, "sigma", tuple(float(s) for s in np.atleast_1d(self.sigma)))
        object.__setattr__(self, "omega", tuple(float(w) for w in np.atleast_1d(self.omega)) if len(np.atleast_1d(self.omega)) else ())
        k = len(self.omega)
        if len(self.hurst) != k + 1 or len(self.sigma) != k + 1:
            raise ValueError(
                f"need {k + 1} (hurst, sigma) pairs for {k} change frequencies, "
                f"got {len(self.hurst)} and {len(self.sigma)}"
            )
        if not all(0.0 < w < np.inf for w in self.omega):
            raise ValueError("change frequencies omega must be positive and finite")
        if any(b <= a for a, b in zip(self.omega, self.omega[1:])):
            raise ValueError("change frequencies must be strictly ascending")
        if any(not 0.0 < h < 1.0 for h in self.hurst):
            raise ValueError("every Hurst exponent must lie in (0, 1)")
        if not all(0.0 < s < np.inf for s in self.sigma):
            raise ValueError("every scale parameter sigma must be positive and finite")
        for i in range(k):
            dh = self.hurst[i + 1] - self.hurst[i]
            ds = self.sigma[i + 1] - self.sigma[i]
            if dh * dh + ds * ds == 0.0:
                raise ValueError(f"regimes {i} and {i + 1} are identical; drop the change at {self.omega[i]}")

    @property
    def k(self) -> int:
        """Number of change frequencies."""
        return len(self.omega)

    @property
    def band_edges(self) -> np.ndarray:
        """(0, omega_1, ..., omega_K, inf)."""
        return np.concatenate(([0.0], self.omega, [np.inf]))

    @classmethod
    def fbm(cls, hurst: float, sigma: float = 1.0) -> "ModelSpec":
        """Single-regime model (no change frequency)."""
        return cls(hurst=(hurst,), sigma=(sigma,))

    def check_analysis_band(self, alpha, beta, f_min, f_max):
        """Verify this model is identifiable with a wavelet of band ratio beta/alpha
        on the inspected frequency band; raises AnalysisError otherwise.

        Requires omega_{i+1} > (beta/alpha) omega_i and every omega inside
        (f_min, f_max).
        """
        ratio = beta / alpha
        edges = (f_min,) + self.omega + (f_max,)
        for w in self.omega:
            if not f_min < w < f_max:
                raise AnalysisError(f"change frequency {w} outside the inspected band ({f_min}, {f_max})")
        for a, b in zip(edges, edges[1:]):
            if b <= ratio * a:
                raise AnalysisError(
                    f"frequencies {a} and {b} are closer than the wavelet band ratio {ratio}; "
                    "changes this close cannot be separated"
                )


@dataclass(frozen=True)
class SampledPath:
    """Uniformly sampled trajectory X(delta), ..., X(n delta); X(0) = 0 implicit."""

    delta: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("need at least two samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("path contains non-finite samples")
        if not 0.0 < self.delta < np.inf:
            raise ValueError("sampling step delta must be positive and finite")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "delta", float(self.delta))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def times(self) -> np.ndarray:
        return self.delta * np.arange(1, self.n + 1)

    @property
    def duration(self) -> float:
        return self.n * self.delta


class AsymptoteLine(NamedTuple):
    """Line log V = slope * log delta + intercept, tagged with its regime."""

    slope: float
    intercept: float
    regime: str


def variogram_constant(hurst):
    """Integral of (1 - cos v) / v^(2H+1) over (0, inf).

    Closed form Gamma(2 - 2H) cos(pi H) / (2H (1 - 2H)), written with sinc
    so the removable singularity at H = 1/2 (value pi/2) stays finite.
    """
    h = np.asarray(hurst, dtype=float)
    if np.any(h <= 0) or np.any(h >= 1):
        raise ValueError("Hurst exponent must lie in (0, 1)")
    out = _gamma_fn(2.0 - 2.0 * h) * (np.pi / 2.0) * np.sinc(h - 0.5) / (2.0 * h)
    return out if out.ndim else float(out)


def spectral_weight(model: ModelSpec, xi):
    """Piecewise power-law weight sigma_i^2 |xi|^(-(2 H_i + 1)); even in xi.

    xi = 0 is a non-integrable pole and is rejected.
    """
    x = np.abs(np.asarray(xi, dtype=float))
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if np.any(x == 0.0):
        raise ValueError("spectral weight has a pole at xi = 0")
    idx = np.searchsorted(np.asarray(model.omega), x, side="right")
    h = np.asarray(model.hurst)[idx]
    s = np.asarray(model.sigma)[idx]
    out = s**2 * x ** (-(2.0 * h + 1.0))
    return float(out[0]) if scalar else out


# --- cumulative integral G_H(x) = int_0^x (1 - cos v) v^(-2H-1) dv ---------
#
# Series below v = 1 (handles the v^(1-2H) endpoint behavior exactly),
# Gauss-Legendre panels above; values are cached per call batch, not
# globally, so concurrent callers never share mutable state.

_SERIES_CUT = 1.0
_SERIES_TERMS = 14
_PANEL_MAX_LEN = 0.4
_GL_ORDER = 8
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)


def _cum_series(h, x):
    """Series for x <= 1: sum (-1)^(n+1) x^(2n-2H) / ((2n)! (2n-2H))."""
    out = np.zeros_like(x)
    fact = 1.0
    sign = 1.0
    for n in range(1, _SERIES_TERMS + 1):
        fact *= (2 * n - 1) * (2 * n)
        out += sign * x ** (2 * n - 2 * h) / (fact * (2 * n - 2 * h))
        sign = -sign
    return out


def _cum_panels(h, xs):
    """Cumulative integral from 1 to each xs (sorted ascending, all > 1).

    The gap from each x to the one before it is cut into equal panels no
    longer than _PANEL_MAX_LEN, with edges prev + k * step and the last edge
    pinned to x itself (the points np.linspace(prev, x, n_sub + 1)[1:]).
    """
    prev = np.concatenate(([_SERIES_CUT], xs[:-1]))
    n_sub = np.maximum(1, np.ceil((xs - prev) / _PANEL_MAX_LEN)).astype(np.intp)
    step = (xs - prev) / n_sub
    ends = np.cumsum(n_sub)
    owner = np.repeat(np.arange(xs.size), n_sub)
    k = np.arange(1, ends[-1] + 1) - np.repeat(ends - n_sub, n_sub)
    edges = k * step[owner] + prev[owner]
    edges[ends - 1] = xs
    edges = np.concatenate(([_SERIES_CUT], edges))
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = (1.0 - np.cos(nodes)) * nodes ** (-2.0 * h - 1.0)
    panel_sums = half * (vals @ _GL_WEIGHTS)
    cum = np.concatenate(([0.0], np.cumsum(panel_sums)))
    pos = np.searchsorted(edges, xs)
    return cum[pos]


def _cum_cos_power(h: float, x: np.ndarray) -> np.ndarray:
    """G_H at every x >= 0 (one Hurst value, vectorized over x)."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    small = x <= _SERIES_CUT
    if np.any(small):
        out[small] = _cum_series(h, x[small])
    if np.any(~small):
        big = x[~small]
        order = np.argsort(big)
        g1 = _cum_series(h, np.array([_SERIES_CUT]))[0]
        vals_sorted = g1 + _cum_panels(h, big[order])
        vals = np.empty_like(big)
        vals[order] = vals_sorted
        out[~small] = vals
    return out


def variogram(model: ModelSpec, delta):
    """E (X(t + delta) - X(t))^2, i.e. 4 sum_j sigma_j^2 delta^(2 H_j)
    int_{delta omega_j}^{delta omega_{j+1}} (1 - cos v) / v^(2 H_j + 1) dv.

    Accepts a scalar or an array of nonnegative lags.
    """
    d = np.asarray(delta, dtype=float)
    scalar = d.ndim == 0
    d = np.atleast_1d(d)
    if np.any(d < 0):
        raise ValueError("lag must be nonnegative")
    edges = model.band_edges
    out = np.zeros_like(d)
    pos = d > 0
    dp = d[pos]
    for j in range(model.k + 1):
        h = model.hurst[j]
        s2 = model.sigma[j] ** 2
        g_lo = 0.0 if edges[j] == 0.0 else _cum_cos_power(h, dp * edges[j])
        g_hi = variogram_constant(h) if np.isinf(edges[j + 1]) else _cum_cos_power(h, dp * edges[j + 1])
        out[pos] += 4.0 * s2 * dp ** (2.0 * h) * (g_hi - g_lo)
    return float(out[0]) if scalar else out


def variogram_asymptotes(model: ModelSpec):
    """The two log-log lines the variogram approaches.

    Returns (low_frequency, high_frequency): the delta -> inf line has slope
    2 H_0 and intercept log(4 sigma_0^2 C(H_0)); the delta -> 0 line has
    slope 2 H_K and intercept log(4 sigma_K^2 C(H_K)).
    """
    h0, hk = model.hurst[0], model.hurst[-1]
    s0, sk = model.sigma[0], model.sigma[-1]
    low = AsymptoteLine(2.0 * h0, float(np.log(4.0 * s0**2 * variogram_constant(h0))), "low-frequency")
    high = AsymptoteLine(2.0 * hk, float(np.log(4.0 * sk**2 * variogram_constant(hk))), "high-frequency")
    return low, high


def covariance(model: ModelSpec, s, t):
    """Cov(X(s), X(t)) = (V(s) + V(t) - V(|t - s|)) / 2 with X(0) = 0."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(s < 0) or np.any(t < 0):
        raise ValueError("times must be nonnegative")
    vs = variogram(model, s)
    vt = variogram(model, t)
    vd = variogram(model, np.abs(t - s))
    return 0.5 * (vs + vt - vd)


def covariance_matrix(model: ModelSpec, times) -> np.ndarray:
    """Covariance matrix of (X(t_1), ..., X(t_n)) for arbitrary nonnegative times."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1:
        raise ValueError("times must be one-dimensional")
    return covariance(model, t[:, None], t[None, :])
