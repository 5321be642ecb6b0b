"""Parameter recovery, asymptotic covariance of the log-spectrum, FGLS,
and the chi-square goodness-of-fit test with recursive selection of the
number of frequency changes.

Per segment, the log-spectrum values at m regression frequencies g_1..g_m
follow a line in log frequency with slope -(2H+1) and intercept
log sigma^2 + log K_H. Their asymptotic covariance (after the sqrt(n delta)
scaling) has entries

    s_kl = pref * (g_k g_l)^(2H) / K_H^2
           * int ( int profile(xi/g_k) profile(xi/g_l) |xi|^-(2H+1)
                   e^(-i u xi) d xi )^2 du

with pref = 2 / (1 - 2r); the factor 1 / (1 - 2r) is the trimming of the
shifts, without which the statistic below is too large by that factor.
Entries vanish exactly when g_l / g_k >= beta / alpha (disjoint bands).
The weighted distance between the refine-point values and their FGLS line,
scaled by n delta, is asymptotically chi-square with (K+1)(m-2) degrees
of freedom.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import gammainc, gammaincc

from .changepoint import FrequencyGrid, Segmentation, build_grid, minimize_q, omega_hat, refine_points
from .errors import MfbmError, NumericError
from .model import SampledPath
from .wavelet import BandWavelet, WaveletSpectrum, _band_integral, k_const, spectrum

__all__ = [
    "SegmentEstimate",
    "FitResult",
    "ols_estimate",
    "sigma_matrix",
    "fgls_estimate",
    "test_statistic",
    "chi2_upper_tail",
    "chi2_cdf",
    "fit_fixed_k",
    "select_k",
]

H_CLAMP = (0.05, 0.95)
_COND_GUARD = 1e12


@dataclass(frozen=True)
class SegmentEstimate:
    """Per-segment parameter estimates from a regression on m refine points.

    lambda_cov is the asymptotic covariance of the (slope, intercept) vector
    under the sqrt(n delta) scaling. fgls_estimate sets it to
    (X' Sigma^-1 X)^-1, the inverse of the information it solves with;
    fit_fixed_k gives each OLS estimate the sandwich form under the same
    Sigma. A bare ols_estimate leaves it None.
    """

    hurst: float
    sigma2: float
    slope: float
    intercept: float
    points: np.ndarray
    freqs: np.ndarray
    flavor: str
    clamped: bool
    sigma: np.ndarray | None = field(default=None, repr=False)
    regularized: bool = False
    lambda_cov: np.ndarray | None = field(default=None, repr=False)

    def to_dict(self):
        out = {
            "H": self.hurst,
            "sigma2": self.sigma2,
            "slope": self.slope,
            "intercept": self.intercept,
            "points": [int(p) for p in self.points],
            "flavor": self.flavor,
            "clamped": self.clamped,
            "regularized": self.regularized,
        }
        if self.lambda_cov is not None:
            out["lambda_cov"] = [[float(v) for v in row] for row in self.lambda_cov]
        return out


@dataclass(frozen=True)
class FitResult:
    """Outcome of fitting a k-change model to one spectrum.

    `spectrum` is the WaveletSpectrum the model was fitted to. `rejected`
    holds the fits select_k made at K = 0 .. k-1 before this one, none of them
    accepted; a bare fit_fixed_k leaves it empty. Both are left out of
    to_dict, repr and comparisons.
    """

    k: int
    segmentation: Segmentation
    omegas: np.ndarray
    segments: tuple          # FGLS estimates, one per segment
    segments_ols: tuple      # the refine-point OLS estimates they started from
    t_stat: float
    dof: int
    p_value: float
    accepted: bool
    level: float
    r: float
    spectrum: WaveletSpectrum = field(repr=False, compare=False)
    rejected: tuple = field(default=(), repr=False, compare=False)

    def to_dict(self):
        return {
            "K": self.k,
            "breakpoints": [int(t) for t in self.segmentation.t],
            "omegas": [float(w) for w in self.omegas],
            "segments": [s.to_dict() for s in self.segments],
            "segments_ols": [s.to_dict() for s in self.segments_ols],
            "T_stat": self.t_stat,
            "dof": self.dof,
            "p_value": self.p_value,
            "accepted": self.accepted,
            "level": self.level,
            "r": self.r,
        }


def chi2_upper_tail(x: float, dof: int) -> float:
    """P(chi2_dof > x), via the regularized upper incomplete gamma function."""
    if x < 0:
        raise ValueError("statistic must be nonnegative")
    if dof < 1:
        raise ValueError("need at least one degree of freedom")
    return float(gammaincc(dof / 2.0, x / 2.0))


def chi2_cdf(x, dof: int):
    """P(chi2_dof <= x), vectorized."""
    if dof < 1:
        raise ValueError("need at least one degree of freedom")
    return gammainc(dof / 2.0, np.maximum(np.asarray(x, dtype=float), 0.0) / 2.0)


def _recover(slope: float, intercept: float, w: BandWavelet):
    """Invert (slope, intercept) -> (H, sigma^2); H clamped into H_CLAMP."""
    h_raw = -(slope + 1.0) / 2.0
    h = min(max(h_raw, H_CLAMP[0]), H_CLAMP[1])
    clamped = h != h_raw
    sigma2 = float(np.exp(intercept - np.log(k_const(w, h))))
    return h, sigma2, clamped


def ols_estimate(y: np.ndarray, grid: FrequencyGrid, points, w: BandWavelet) -> SegmentEstimate:
    """Ordinary least squares line through (log f_i, y_i) at the given grid
    indices, inverted to (H, sigma^2)."""
    points = np.asarray(points, dtype=int)
    if points.size < 3:
        raise ValueError("need at least three regression points")
    x = grid.log_f[points]
    if np.ptp(x) == 0.0:
        raise ValueError("regression design has zero variance")
    yv = np.asarray(y, dtype=float)[points]
    slope, intercept = np.polyfit(x, yv, 1)
    h, sigma2, clamped = _recover(float(slope), float(intercept), w)
    return SegmentEstimate(
        hurst=h, sigma2=sigma2, slope=float(slope), intercept=float(intercept),
        points=points, freqs=grid.f[points], flavor="ols", clamped=clamped,
    )


# --- asymptotic covariance of the log-spectrum ------------------------------

def sigma_matrix(hurst: float, freqs, w: BandWavelet, r: float) -> np.ndarray:
    """Asymptotic covariance matrix of the scaled log-spectrum at the given
    regression frequencies, for a regime with the given Hurst exponent,
    including the 1/(1-2r) trimming factor.

    By Plancherel the u-integral of s_kl (module docstring) is
    4 pi int W(xi)^2 dxi over the band [alpha g_l, beta g_k], g_k <= g_l, with
    W(xi) = profile(xi/g_k) profile(xi/g_l) |xi|^(-2H-1). The band is empty,
    and the entry exactly zero, when g_l / g_k >= beta/alpha; the bands of
    all other pairs go through one stacked band-rule evaluation.
    """
    if not 0.0 < hurst < 1.0:
        raise ValueError("Hurst exponent must lie in (0, 1)")
    g = np.asarray(freqs, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("need a one-dimensional list of frequencies")
    if np.any(g <= 0) or np.any(np.diff(g) <= 0):
        raise ValueError("frequencies must be ascending and positive")
    m = g.size
    kh = k_const(w, hurst)
    pref = 2.0 / kh**2 / (1.0 - 2.0 * r)
    i, j = np.triu_indices(m)
    live = g[j] / g[i] < w.ratio
    i, j = i[live], j[live]
    core = 4.0 * np.pi * _band_integral(
        lambda xi: (w.profile_values(xi / g[i, None]) * w.profile_values(xi / g[j, None])) ** 2
        * xi ** (-2.0 * (2.0 * hurst + 1.0)),
        w.alpha * g[j], w.beta * g[i], f"covariance kernel at H = {hurst:.6g}",
    )
    out = np.zeros((m, m))
    out[i, j] = out[j, i] = pref * (g[i] * g[j]) ** (2.0 * hurst) * core
    return out


def fgls_estimate(y: np.ndarray, grid: FrequencyGrid, points, sigma: np.ndarray,
                  w: BandWavelet) -> SegmentEstimate:
    """Generalized least squares line with weight matrix sigma^(-1), inverted
    to (H, sigma^2).

    If sigma's condition number exceeds 1e12 a small ridge (1e-10 trace/m) is
    added and the estimate is flagged as regularized.
    """
    points = np.asarray(points, dtype=int)
    if points.size < 3:
        raise ValueError("need at least three regression points")
    sigma = np.asarray(sigma, dtype=float)
    m = points.size
    if sigma.shape != (m, m):
        raise ValueError(f"covariance must be {m} x {m}")
    sigma_used, regularized = _guard_condition(sigma)
    x = np.column_stack([grid.log_f[points], np.ones(m)])
    yv = np.asarray(y, dtype=float)[points]
    chol = np.linalg.cholesky(sigma_used)
    wx = np.linalg.solve(chol, x)
    info = wx.T @ wx
    beta = np.linalg.solve(info, wx.T @ np.linalg.solve(chol, yv))
    slope, intercept = float(beta[0]), float(beta[1])
    h, sigma2, clamped = _recover(slope, intercept, w)
    return SegmentEstimate(
        hurst=h, sigma2=sigma2, slope=slope, intercept=intercept,
        points=points, freqs=grid.f[points], flavor="fgls", clamped=clamped,
        sigma=sigma_used, regularized=regularized, lambda_cov=np.linalg.inv(info),
    )


def _guard_condition(sigma: np.ndarray):
    eigs = np.linalg.eigvalsh(sigma)
    if eigs[0] > 0 and eigs[-1] / eigs[0] < _COND_GUARD:
        return sigma, False
    eps = 1e-10 * np.trace(sigma) / sigma.shape[0]
    if eps <= 0:
        raise NumericError(
            f"covariance is not usable even with ridge regularization "
            f"(eigenvalue range [{eigs[0]:.3e}, {eigs[-1]:.3e}])"
        )
    return sigma + eps * np.eye(sigma.shape[0]), True


def test_statistic(residuals, sigmas, n: int, delta: float):
    """(T, dof): T = n delta * sum_j r_j' sigma_j^(-1) r_j over segments,
    dof = (#segments)(m - 2)."""
    residuals = [np.asarray(r, dtype=float) for r in residuals]
    sigmas = list(sigmas)
    if not residuals or len(residuals) != len(sigmas):
        raise ValueError("need one covariance per residual vector")
    m = residuals[0].size
    if m < 3:
        raise ValueError("need at least three points per segment for a testable fit")
    total = 0.0
    for r_j, s_j in zip(residuals, sigmas):
        if r_j.size != m:
            raise ValueError("all segments must use the same number of points")
        z = np.linalg.solve(np.linalg.cholesky(np.asarray(s_j, dtype=float)), r_j)
        total += float(z @ z)
    dof = len(residuals) * (m - 2)
    return n * delta * total, dof


def _ols_sandwich(log_f: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Asymptotic covariance of the OLS (slope, intercept) under the
    sqrt(n delta) scaling: (X'X)^-1 X' Sigma X (X'X)^-1."""
    x = np.column_stack([log_f, np.ones(log_f.size)])
    xtx_inv = np.linalg.inv(x.T @ x)
    return xtx_inv @ x.T @ sigma @ x @ xtx_inv


def fit_fixed_k(spec: WaveletSpectrum, w: BandWavelet, k: int, m: int = 5,
                level: float = 0.05) -> FitResult:
    """Full fit of a k-change model to one spectrum: segmentation, refine-point
    OLS, covariance, FGLS and the goodness-of-fit statistic.

    Segmentation admits only segments with room for the m refine points
    (m + 1 regression indices). The test level must lie in (0, 1)."""
    if not 0.0 < level < 1.0:
        raise ValueError(f"test level must lie in (0, 1), got {level}")
    grid = spec.grid
    seg = minimize_q(spec.y, grid, k, min_points=m + 1)
    omegas = omega_hat(grid, seg.t)
    points = refine_points(seg.t, grid, m)

    ols_list, fgls_list, residuals, sigmas = [], [], [], []
    for pts in points:
        est = ols_estimate(spec.y, grid, pts, w)
        sig = sigma_matrix(est.hurst, grid.f[pts], w, spec.r)
        fin = fgls_estimate(spec.y, grid, pts, sig, w)
        ols_list.append(replace(est, lambda_cov=_ols_sandwich(grid.log_f[pts], fin.sigma)))
        fgls_list.append(fin)
        resid = spec.y[pts] - (fin.slope * grid.log_f[pts] + fin.intercept)
        residuals.append(resid)
        sigmas.append(fin.sigma)
    t_stat, dof = test_statistic(residuals, sigmas, grid.n, grid.delta)
    p = chi2_upper_tail(t_stat, dof)
    return FitResult(
        k=k, segmentation=seg, omegas=omegas, segments=tuple(fgls_list),
        segments_ols=tuple(ols_list), t_stat=float(t_stat), dof=dof,
        p_value=p, accepted=p >= level, level=level, r=spec.r, spectrum=spec,
    )


def select_k(path: SampledPath, w: BandWavelet, f_min: float, f_max: float,
             m: int = 5, r: float = 0.1, level: float = 0.05, k_max: int = 2) -> FitResult:
    """Recursive model-order selection: fit k = 0, 1, ... and stop at the first
    k whose goodness-of-fit test accepts at the given level.

    Returns the first accepted fit, or the k_max fit flagged as not accepted;
    either way its `rejected` holds the fits at the smaller K.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    grid = build_grid(path.n, path.delta, f_min, f_max, w)
    try:
        spec = spectrum(path, w, grid, r=r)
    except MfbmError as e:
        raise type(e)(f"[spectrum] {e}") from e
    fits = []
    for k in range(k_max + 1):
        try:
            fits.append(fit_fixed_k(spec, w, k, m=m, level=level))
        except MfbmError as e:
            raise type(e)(f"[K={k}] {e}") from e
        if fits[-1].accepted:
            break
    return replace(fits[-1], rejected=tuple(fits[:-1]))
