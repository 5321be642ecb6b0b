"""Input paths for the fit workloads, independent of mfbm.simulate.

A path X(delta), ..., X(n delta) with X(0) = 0 is the cumulative sum of its
increments, which are stationary. Their autocovariance

    gamma(k) = (V((k+1) delta) + V(|k-1| delta) - 2 V(k delta)) / 2

comes from the variogram V computed here, and the increments are drawn by
exact circulant embedding (Davies & Harte 1987): embed gamma(0..n) in a
circulant of size 2n, check that its eigenvalues are nonnegative, and colour
complex white noise with their square roots through one FFT.

The variogram is the closed form 4 sigma^2 C(H) t^(2H) for one regime; for
one change frequency omega it is assembled from band integrals of
(1 - cos v) v^(-2H-1) evaluated with scipy.integrate.quad.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn


def variogram_constant(h: float) -> float:
    """C(H) = int_0^inf (1 - cos v) v^(-2H-1) dv, for H in (0, 1), H != 1/2."""
    return float(gamma_fn(2.0 - 2.0 * h) * np.cos(np.pi * h) / (2.0 * h * (1.0 - 2.0 * h)))


def _partial_integrals(h: float, x: np.ndarray) -> np.ndarray:
    """int_0^x (1 - cos v) v^(-2H-1) dv at each ascending x, by summing quad
    over consecutive short intervals (each one is resolved in a single step)."""
    def f(v):
        return 2.0 * np.sin(0.5 * v) ** 2 * v ** (-2.0 * h - 1.0)

    out = np.empty(x.size)
    total, lo = 0.0, 0.0
    for i, hi in enumerate(x):
        val, err = quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=100)
        if not err <= 1e-10 * max(val, 1e-300):
            raise ArithmeticError(f"variogram quadrature on [{lo}, {hi}] reached only {err:.1e}")
        total += val
        out[i] = total
        lo = hi
    return out


def variogram(hurst, sigma2, omega, t: np.ndarray) -> np.ndarray:
    """E (X(s + t) - X(s))^2 at positive ascending lags t.

    One regime: 4 sigma^2 C(H) t^(2H). With one change frequency omega,
    frequencies below omega carry (H_0, sigma_0^2) and those above carry
    (H_1, sigma_1^2):
        V(t) = 4 sigma_0^2 t^(2H_0) G_0(t omega)
             + 4 sigma_1^2 t^(2H_1) (C(H_1) - G_1(t omega)),
    with G_j(x) = int_0^x (1 - cos v) v^(-2H_j-1) dv.
    """
    t = np.asarray(t, dtype=float)
    if len(hurst) == 1:
        return 4.0 * sigma2[0] * variogram_constant(hurst[0]) * t ** (2.0 * hurst[0])
    if len(hurst) != 2 or len(omega) != 1:
        raise ValueError("the generator covers zero or one change frequency")
    (h0, h1), (s0, s1), (w,) = hurst, sigma2, omega
    low = 4.0 * s0 * t ** (2.0 * h0) * _partial_integrals(h0, t * w)
    high = 4.0 * s1 * t ** (2.0 * h1) * (variogram_constant(h1) - _partial_integrals(h1, t * w))
    return low + high


class CirculantPaths:
    """Exact sampler of n-point paths of a model on the grid delta, 2 delta, ..."""

    def __init__(self, hurst, sigma2, omega, n: int, delta: float):
        self.n = int(n)
        self.delta = float(delta)
        lags = self.delta * np.arange(1, self.n + 2)
        v = np.concatenate(([0.0], variogram(hurst, sigma2, omega, lags)))
        self.lag_variogram = v  # V(k delta), k = 0..n+1
        k = np.arange(self.n + 1)
        gam = 0.5 * (v[k + 1] + v[np.abs(k - 1)] - 2.0 * v[k])
        row = np.concatenate((gam, gam[-2:0:-1]))  # size 2n circulant row
        eig = np.fft.fft(row).real
        if eig.min() < -1e-12 * eig.max():
            raise ArithmeticError(
                f"circulant embedding is not nonnegative (min/max eigenvalue {eig.min() / eig.max():.2e})"
            )
        self._scale = np.sqrt(np.maximum(eig, 0.0) / eig.size)

    def draw(self, seed: int, index: int) -> np.ndarray:
        """Path values X(delta), ..., X(n delta) for (seed, index)."""
        rng = np.random.default_rng([int(seed), int(index)])
        z = rng.standard_normal(self._scale.size) + 1j * rng.standard_normal(self._scale.size)
        increments = np.fft.fft(self._scale * z).real[: self.n]
        return np.cumsum(increments)
