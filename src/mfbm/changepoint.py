"""Frequency grid construction and least-squares segmentation of the spectrum.

The log wavelet variance is piecewise affine in log frequency, with a
transition zone of tau_N grid steps after each change (the wavelet band
straddles the change frequency there). Segmentation minimizes the summed
per-segment OLS residuals over all admissible breakpoint vectors, skipping
the transition indices, by exact dynamic programming.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalysisError, SegmentTooShortError

__all__ = [
    "FrequencyGrid",
    "Segmentation",
    "build_grid",
    "minimize_q",
    "omega_hat",
    "refine_points",
]

MIN_SEGMENT_POINTS = 3  # an OLS line needs 2; 3 guards zero-variance degeneracy


@dataclass(frozen=True)
class FrequencyGrid:
    """Geometric frequency ladder f_k = (f_min / beta) q^k, k = 0..a_n.

    q is chosen so the ladder spans [f_min / beta, f_max / alpha] in
    a_n = round(n delta) steps; tau_n = floor(log(beta/alpha) / log q) is
    the number of grid steps covered by the wavelet band ratio.
    """

    f_min: float
    f_max: float
    alpha: float
    beta: float
    n: int
    delta: float
    a_n: int
    q: float
    tau_n: int
    f: np.ndarray = field(repr=False)

    @property
    def log_f(self) -> np.ndarray:
        return np.log(self.f)


def build_grid(n: int, delta: float, f_min: float, f_max: float, wavelet) -> FrequencyGrid:
    """Frequency grid for a length-n path sampled at step delta.

    Warns when n f_min / beta < 10 (too few shifts at the largest scale for
    the averages to be trustworthy) and when f_max / alpha > 1 / delta (the
    Riemann-sum coefficients degrade at the smallest scales).
    """
    if not 0 < f_min < f_max:
        raise ValueError("need 0 < f_min < f_max")
    alpha, beta = float(wavelet.alpha), float(wavelet.beta)
    if n * f_min / beta < 10:
        warnings.warn(
            f"n * f_min / beta = {n * f_min / beta:.2f} < 10; "
            "largest-scale averages will be unreliable, raise f_min or n",
            stacklevel=2,
        )
    if f_max / alpha > 1.0 / delta:
        warnings.warn(
            f"f_max / alpha = {f_max / alpha:.3g} exceeds 1/delta = {1.0 / delta:.3g}; "
            "smallest-scale coefficients are under-resolved, lower f_max",
            stacklevel=2,
        )
    a_n = int(round(n * delta))
    if a_n < 2:
        raise AnalysisError(f"n * delta = {n * delta:.3g} gives a {a_n}-point grid; nothing to regress on")
    q = (f_max / f_min * beta / alpha) ** (1.0 / a_n)
    tau_n = int(np.floor(np.log(beta / alpha) / np.log(q)))
    if tau_n < 1:
        raise AnalysisError("grid is coarser than the wavelet band ratio; widen [f_min, f_max]")
    if a_n < 2 * (tau_n + 1):
        raise AnalysisError(
            f"a_n = {a_n} with transition length tau_n = {tau_n}: "
            "band too narrow even for a no-change analysis"
        )
    f = (f_min / beta) * q ** np.arange(a_n + 1)
    return FrequencyGrid(
        f_min=float(f_min), f_max=float(f_max), alpha=alpha, beta=beta,
        n=int(n), delta=float(delta), a_n=a_n, q=float(q), tau_n=tau_n, f=f,
    )


@dataclass(frozen=True)
class Segmentation:
    """Breakpoints t_0 = 0 < t_1 < ... < t_K < t_{K+1} = a_n + tau_n and the
    least segmentation criterion they attain.

    Segment j is regressed on grid indices t_j + 1 .. t_{j+1} - tau_n; the
    tau_n indices before each breakpoint are the transition zone and carry
    no information about either neighboring regime.
    """

    t: tuple
    cost: float
    tau_n: int

    @property
    def k(self) -> int:
        return len(self.t) - 2


def _check_admissible(t, grid: FrequencyGrid):
    t = tuple(int(v) for v in t)
    if t[0] != 0 or t[-1] != grid.a_n + grid.tau_n:
        raise ValueError(
            f"breakpoints must start at 0 and end at a_n + tau_n = {grid.a_n + grid.tau_n}, got {t}"
        )
    for a, b in zip(t, t[1:]):
        if b - a <= grid.tau_n:
            raise ValueError(f"segment ({a}, {b}] shorter than the transition length {grid.tau_n}")
    return t


class _SegmentCosts:
    """O(1) OLS cost of any candidate segment via prefix sums over the grid.

    Index arguments refer to grid indices; segment (lo, hi] is regressed
    on lo+1 .. hi-tau, and anything with fewer than min_points regression
    points costs +inf.
    """

    def __init__(self, y, x, tau, min_points):
        one = np.ones_like(x)
        self._sums = np.concatenate(
            [np.zeros((6, 1)), np.cumsum([one, x, x * x, y, x * y, y * y], axis=1)], axis=1
        )
        self._tau = tau
        self._min_points = min_points
        self._last = x.size - 1

    def _moments(self, lo, hi):
        """Per-column sums over grid indices lo..hi inclusive (vectorized)."""
        return self._sums[:, np.minimum(hi, self._last) + 1] - self._sums[:, lo]

    def cost(self, t_lo, t_hi):
        """Residual sum of segment(s) (t_lo, t_hi]; either side may be an array."""
        t_lo, t_hi = np.broadcast_arrays(np.asarray(t_lo, dtype=int), np.asarray(t_hi, dtype=int))
        ok = (t_hi - t_lo - self._tau) >= self._min_points
        lo = t_lo + 1
        hi = t_hi - self._tau
        n, sx, sxx, sy, sxy, syy = self._moments(np.minimum(lo, self._last), np.maximum(hi, 0))
        with np.errstate(divide="ignore", invalid="ignore"):
            sxx_c = sxx - sx * sx / n
            sxy_c = sxy - sx * sy / n
            syy_c = syy - sy * sy / n
            res = np.maximum(syy_c - sxy_c * sxy_c / np.where(sxx_c > 0, sxx_c, np.nan), 0.0)
        out = np.where(ok & np.isfinite(res), res, np.inf)
        return out if out.ndim else float(out)


def minimize_q(y: np.ndarray, grid: FrequencyGrid, k: int,
               min_points: int = MIN_SEGMENT_POINTS) -> Segmentation:
    """Global minimizer of the segmentation criterion over all admissible
    breakpoint vectors with k changes, by exact dynamic programming.

    Candidate segments with fewer than min_points regression points are
    excluded. Ties resolve to the lexicographically smallest breakpoints.
    """
    if k < 0:
        raise ValueError("number of changes must be nonnegative")
    y = np.asarray(y, dtype=float)
    if y.size != grid.a_n + 1:
        raise ValueError(f"need {grid.a_n + 1} spectrum values, got {y.size}")
    tau, end = grid.tau_n, grid.a_n + grid.tau_n
    costs = _SegmentCosts(y, grid.log_f, tau, min_points)
    gap = tau + min_points
    u = np.arange(end + 1)
    # suffix[j][v] = least cost of segments j..k given t_j = v
    suffix = [None] * (k + 1)
    suffix[k] = costs.cost(u, end)
    for j in range(k - 1, 0, -1):
        nxt = suffix[j + 1]
        best = np.full(end + 1, np.inf)
        for v in range(j * gap, end - (k - j) * gap - gap + 1):
            tails = costs.cost(v, u[v + gap:]) + nxt[v + gap:]
            if tails.size:
                best[v] = tails.min()
        suffix[j] = best

    t = [0]
    for j in range(1, k + 1):
        prev = t[-1]
        cand = costs.cost(prev, u) + suffix[j]
        cand[: prev + gap] = np.inf
        if not np.isfinite(cand.min()):
            raise AnalysisError(f"no admissible segmentation with {k} changes on this grid")
        t.append(int(np.argmin(cand)))
    t.append(end)

    total = sum(float(costs.cost(t[j], t[j + 1])) for j in range(k + 1))
    if not np.isfinite(total):  # only at k = 0: for k > 0 every t_j above had a finite cost
        raise AnalysisError("grid too short for a single-segment fit")
    return Segmentation(t=tuple(t), cost=total, tau_n=tau)


def omega_hat(grid: FrequencyGrid, t) -> np.ndarray:
    """Estimated change frequencies alpha * f_{t_j} for the interior breakpoints."""
    t = tuple(int(v) for v in t)
    return grid.alpha * grid.f[np.array(t[1:-1], dtype=int)]


def refine_points(t, grid: FrequencyGrid, m: int):
    """m regression indices per segment, uniformly placed strictly inside the
    segment's regression zone: t_j + k * floor((t_{j+1} - t_j - tau_n) / (m+1)),
    k = 1..m.
    """
    if m < 3:
        raise ValueError("need at least three regression points per segment")
    t = _check_admissible(t, grid)
    out = []
    for j in range(len(t) - 1):
        step = (t[j + 1] - t[j] - grid.tau_n) // (m + 1)
        if step < 1:
            raise SegmentTooShortError(
                f"segment ({t[j]}, {t[j + 1]}] leaves no room for {m} points; "
                "widen the band or lower m"
            )
        out.append(t[j] + step * np.arange(1, m + 1))
    return out
