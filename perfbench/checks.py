"""Correctness checks that do not compare against stored program output.

- fit_invariants: the chi-square bookkeeping of one fit (dof, p-value,
  acceptance) and the position of every estimated change frequency.
- mean_within: the estimation bounds of acceptance criteria 1 and 2.
- direct_y: the log wavelet variance at a grid frequency from the literal
  coefficient sum, with psi computed here by Gauss-Legendre quadrature of
  the bump profile, for spot checks of the spectrum.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.stats import chi2

ALPHA, BETA = 5.0, 10.0  # bump wavelet band


def fit_invariants(k, dof, t_stat, p_value, accepted, omegas, m, level, f_min, f_max):
    """List of failed invariants for one fit (empty when all hold)."""
    bad = []
    if dof != (k + 1) * (m - 2):
        bad.append(f"dof {dof} != (K+1)(m-2) for K={k}")
    want = chi2.sf(t_stat, dof)
    if not abs(p_value - want) <= 1e-9 * max(want, 1e-300) + 1e-15:
        bad.append(f"p {p_value!r} != chi2.sf(T={t_stat!r}, {dof}) = {want!r}")
    if bool(accepted) != (p_value >= level):
        bad.append(f"accepted={accepted} but p={p_value} at level {level}")
    if len(omegas) != k:
        bad.append(f"{len(omegas)} change frequencies for K={k}")
    if not all(f_min < w < f_max for w in omegas):
        bad.append(f"change frequency outside ({f_min}, {f_max}): {list(omegas)}")
    return bad


def mean_within(label, values, target, half_width):
    """Failure message if mean(values) is not within half_width of target."""
    mean = float(np.mean(values))
    if abs(mean - target) <= half_width:
        return []
    return [f"mean {label} {mean:.3f} not within {half_width} of {target} ({len(values)} values)"]


def grid_frequencies(n, delta, f_min, f_max):
    """The geometric grid f_k = (f_min / beta) q^k, k = 0..a_n, a_n = round(n delta),
    that spans [f_min / beta, f_max / alpha]."""
    a_n = int(round(n * delta))
    q = (f_max / f_min * BETA / ALPHA) ** (1.0 / a_n)
    return (f_min / BETA) * q ** np.arange(a_n + 1)


def _bump_rule(panels=64):
    """Nodes xi and weights (1/pi) w(xi) profile(xi) with which
    psi(t) = sum_j weight_j cos(t xi_j) for the bump profile on [ALPHA, BETA]."""
    x, w = leggauss(16)
    edges = np.linspace(ALPHA, BETA, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    xi = (mid + half * x).ravel()
    wts = (half * w).ravel()
    profile = np.exp(-1.0 / ((xi - ALPHA) * (BETA - xi)))
    return xi, wts * profile / np.pi


def direct_y(values, delta, f, r=0.1):
    """log mean_k e(a, k)^2 at scale a = 1/f over the shifts
    k = floor(r n / a) .. floor((1 - r) n / a), with
    e(a, k) = (delta / sqrt(a)) sum_{p=1}^{n-1} psi(p delta / a - k delta) X(p delta).

    cos(u - v) = cos u cos v + sin u sin v separates the sum over p from the
    shift, so every coefficient is exact up to the psi quadrature.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    a = 1.0 / f
    m0, m1 = int(np.floor(r * n / a)), int(np.floor((1.0 - r) * n / a))
    xi, weight = _bump_rule()
    p = np.arange(1, n)
    x = values[: n - 1]
    c = np.empty(xi.size)
    s = np.empty(xi.size)
    for lo in range(0, xi.size, 128):
        phase = np.outer(xi[lo : lo + 128], p * (delta / a))
        c[lo : lo + 128] = np.cos(phase) @ x
        s[lo : lo + 128] = np.sin(phase) @ x
    shift = np.outer(np.arange(m0, m1 + 1) * delta, xi)
    e = (delta / np.sqrt(a)) * ((np.cos(shift) * c + np.sin(shift) * s) @ weight)
    return float(np.log(np.mean(e * e)))


def spectrum_spot_check(values, delta, f_min, f_max, f_got, y_got, r=0.1, tol=1e-8):
    """Compare the two coarsest grid frequencies and their Y with direct sums."""
    f = grid_frequencies(values.size, delta, f_min, f_max)
    bad = []
    if len(f_got) != f.size or not np.allclose(f_got, f, rtol=1e-12, atol=0.0):
        return [f"grid frequencies differ from the geometric grid ({len(f_got)} vs {f.size})"]
    for i in (0, 1):
        want = direct_y(values, delta, f[i], r)
        if not abs(y_got[i] - want) <= tol:
            bad.append(f"Y at f={f[i]:.6g}: {y_got[i]!r} vs direct sum {want!r}")
    return bad
