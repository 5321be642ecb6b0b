"""Slow reference implementations of what the library computes fast.

The library evaluates every wavelet band integral with one fixed
Gauss-Legendre rule (mfbm.wavelet._band_integral), stacked over all the
intervals of a quantity. The functions here compute the same quantities
independently: adaptive scipy quadrature with tight tolerances for psi(0),
the normalizing constant K_H, the wavelet variance and the covariance kernel
entries, and the covariance kernel once more through its oscillatory double
integral (no Plancherel step). The covariance matrix as a double loop with
one band-rule call per entry, the route the stacked call replaced, is
sigma_matrix_loop.

The library's variogram builds the panel edges of its cumulative
cos-power integral in one vectorized pass (mfbm.model._cum_panels); the
per-lag loop it replaced is here as cum_panels_loop.

The library's spectrum takes one zoom chirp-z transform of the path per
octave of scales and the mean square of each scale's coefficients in closed
form (mfbm.wavelet.spectrum), and its decay-reach scan evaluates psi by one
more chirp-z transform; both run through the library's own Bluestein
transform, whose reference is scipy.signal.czt (czt_reference). The
literal routes are here: the per-scale route that builds every coefficient
by two chirp-z transforms per scale and averages their squares
(per_scale_spectrum_reference, scale_coeffs_reference), psi as a dense
trapezoid sum over the band, the reach scan on that sum, psi tabulated in
the time domain and interpolated cubically, every coefficient summed over
the samples where psi is nonzero, and the log-variance spectrum built from
those sums. Tests compare the library against them.

Quantities the pipeline never computes but the tests check it with live
here too: the empirical variogram of a path, the segmentation criterion Q
for given lines, the limit frequencies of the refine points, and the
spectrum a path would have if its empirical wavelet variances equalled
their expectations (exact_spectrum). The per-row CSV loop that
mfbm.cli._write_csv replaced is write_csv_loop.

The library analyses with the bump profile only. meyer_shifted() is a
second profile for the tests: a window on [pi, 2 pi] that is only C^3 at
its band edges, so the band rule, the reach scan and the spectrum are
also checked on a profile rougher than the bump.
"""

import csv
import functools

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.signal import czt

from mfbm.changepoint import _check_admissible
from mfbm.errors import AnalysisError, DegeneratePathError, NumericError
from mfbm.model import _GL_NODES, _GL_WEIGHTS, _PANEL_MAX_LEN, _SERIES_CUT
from mfbm.wavelet import (
    _REACH_CAP,
    _TAIL_TOL,
    BandWavelet,
    WaveletSpectrum,
    _band_integral,
    _chirp_z,
    _profile_samples,
    _shift_range,
    k_const,
    theoretical_variance,
)


def _meyer_nu(x):
    """Smooth 0 -> 1 ramp with three vanishing derivatives at both ends."""
    x = np.clip(x, 0.0, 1.0)
    return x**4 * (35.0 - 84.0 * x + 70.0 * x**2 - 20.0 * x**3)


def meyer_shifted():
    """Window profile on [pi, 2*pi] (band ratio 2) built from the standard
    quartic ramp: sine quarter-wave up on [pi, 3*pi/2], cosine down after.
    """
    a, b = np.pi, 2.0 * np.pi
    mid = 1.5 * np.pi
    half = 0.5 * np.pi

    def profile(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        up = (x >= a) & (x <= mid)
        down = (x > mid) & (x <= b)
        out[up] = np.sin(0.5 * np.pi * _meyer_nu((x[up] - a) / half))
        out[down] = np.cos(0.5 * np.pi * _meyer_nu((x[down] - mid) / half))
        return out

    return BandWavelet(a, b, profile)


def cum_panels_loop(h, xs):
    """mfbm.model._cum_panels with one np.linspace of panel edges per lag."""
    edges = [np.array([_SERIES_CUT])]
    prev = _SERIES_CUT
    for x in xs:
        n_sub = max(1, int(np.ceil((x - prev) / _PANEL_MAX_LEN)))
        edges.append(np.linspace(prev, x, n_sub + 1)[1:])
        prev = x
    edges = np.concatenate(edges)
    lo, hi = edges[:-1], edges[1:]
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = (1.0 - np.cos(nodes)) * nodes ** (-2.0 * h - 1.0)
    panel_sums = half * (vals @ _GL_WEIGHTS)
    cum = np.concatenate(([0.0], np.cumsum(panel_sums)))
    pos = np.searchsorted(edges, xs)
    return cum[pos]


def _quad(fn, lo, hi):
    val, err = quad(fn, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)
    if not np.isfinite(val) or (val > 0 and err > 1e-8 * val):
        raise NumericError(f"reference quadrature on [{lo:.6g}, {hi:.6g}] reached only {err:.2e}")
    return val


def psi0_quad(w):
    """psi(0) = (1/pi) * integral of the profile over the band."""
    return _quad(w.profile_values, w.alpha, w.beta) / np.pi


def k_const_quad(w, hurst):
    """Twice the band integral of profile(u)^2 u^(-2H-1)."""
    return 2.0 * _quad(lambda u: float(w.profile_values(u)) ** 2 * u ** (-2.0 * hurst - 1.0),
                       w.alpha, w.beta)


def theoretical_variance_quad(model, w, a):
    """a * integral of |profile(a u)|^2 times the spectral weight, one regime at a time."""
    edges = model.band_edges
    total = 0.0
    for j in range(model.k + 1):
        lo = max(w.alpha, a * edges[j])
        hi = min(w.beta, a * edges[j + 1]) if np.isfinite(edges[j + 1]) else w.beta
        if hi <= lo:
            continue
        h = model.hurst[j]
        val = _quad(lambda v: float(w.profile_values(v)) ** 2 * v ** (-2.0 * h - 1.0), lo, hi)
        total += 2.0 * model.sigma[j] ** 2 * a ** (2.0 * h + 1.0) * val
    return total


def sigma_entry_quad(h, g_lo, g_hi, w):
    """4 pi times the band integral of (profile(xi/g_lo) profile(xi/g_hi))^2 xi^(-4H-2)
    over [alpha g_hi, beta g_lo]; zero when that interval is empty."""
    xi_lo = w.alpha * g_hi
    xi_hi = w.beta * g_lo
    if xi_hi <= xi_lo:
        return 0.0
    return 4.0 * np.pi * _quad(
        lambda xi: (float(w.profile_values(xi / g_lo)) * float(w.profile_values(xi / g_hi))) ** 2
        * xi ** (-2.0 * (2.0 * h + 1.0)),
        xi_lo, xi_hi,
    )


def sigma_matrix_loop(hurst, freqs, w, r):
    """mfbm.inference.sigma_matrix with one band-rule call per nonzero entry."""
    g = np.asarray(freqs, dtype=float)
    pref = 2.0 / k_const(w, hurst) ** 2 / (1.0 - 2.0 * r)
    out = np.zeros((g.size, g.size))
    for i in range(g.size):
        for j in range(i, g.size):
            if g[j] / g[i] >= w.ratio:
                continue
            core = 4.0 * np.pi * _band_integral(
                lambda xi: (w.profile_values(xi / g[i]) * w.profile_values(xi / g[j])) ** 2
                * xi ** (-2.0 * (2.0 * hurst + 1.0)),
                w.alpha * g[j], w.beta * g[i], "covariance kernel")[0]
            out[i, j] = out[j, i] = pref * (g[i] * g[j]) ** (2.0 * hurst) * core
    return out


_GL16_NODES, _GL16_WEIGHTS = leggauss(16)


def _gl_panels(lo: float, hi: float, n_panels: int):
    edges = np.linspace(lo, hi, n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * _GL16_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL16_WEIGHTS[None, :]).ravel()
    return nodes, weights


def sigma_entry_oscillatory(h, g_lo, g_hi, w):
    """Same integral computed the long way: the inner oscillatory transform on
    Gauss-Legendre panels (at least 8 nodes per period of e^(-i u xi)), the
    outer u-integral truncated where the modulus envelope falls below 1e-8 of
    its u = 0 value and integrated at matching node density, doubling the
    density until the value settles. Slow; kept as an independent check of
    the Plancherel route.
    """
    xi_lo = w.alpha * g_hi
    xi_hi = w.beta * g_lo
    if xi_hi <= xi_lo:
        return 0.0

    def weight_fn(xi):
        return (w.profile_values(xi / g_lo) * w.profile_values(xi / g_hi)
                * xi ** (-2.0 * h - 1.0))

    # envelope scan for the truncation point; the xi-rule is re-densified with
    # the scanned u-range so the phase e^(-i u xi) stays resolved
    width = xi_hi - xi_lo
    du = 0.25 * (2.0 * np.pi) / width
    u_max = None
    u_hi = 32.0 / width
    f0 = None
    while u_max is None:
        n_env = max(64, int(np.ceil(8.0 * width * u_hi / (2.0 * np.pi))))
        xi_env, wt_env = _gl_panels(xi_lo, xi_hi, max(1, -(-n_env // 16)))
        wf_env = weight_fn(xi_env) * wt_env
        f0 = float(np.sum(wf_env))
        if f0 <= 0.0:
            return 0.0
        us = np.arange(0.0, u_hi, du)
        env = np.empty(us.size)
        chunk = max(1, int(4e6) // xi_env.size)
        for i in range(0, us.size, chunk):
            env[i : i + chunk] = np.abs(np.exp(-1j * np.outer(us[i : i + chunk], xi_env)) @ wf_env)
        quiet = env < 1e-8 * f0
        if np.all(quiet[us > 0.5 * u_hi]):
            over = us[~quiet]
            u_max = float(over[-1]) + 2.0 * du if over.size else 2.0 * du
        else:
            u_hi *= 2.0
            if u_hi * xi_hi > 5e7:
                raise NumericError(
                    f"covariance kernel at frequencies ({g_lo:.4g}, {g_hi:.4g}) decays too slowly"
                )

    # inner xi-rule dense enough for the fastest phase e^(-i u_max xi)
    n_xi = max(n_env, int(np.ceil(8.0 * width * u_max / (2.0 * np.pi))))
    xi_nodes, xi_wts = _gl_panels(xi_lo, xi_hi, max(1, int(np.ceil(n_xi / 16))))
    wf = weight_fn(xi_nodes) * xi_wts

    def outer(density):
        n_u = max(64, int(np.ceil(density * u_max * xi_hi / np.pi)))
        u_nodes, u_wts = _gl_panels(0.0, u_max, max(1, int(np.ceil(n_u / 16))))
        total = 0.0
        chunk = max(1, int(4e6) // xi_nodes.size)
        for i in range(0, u_nodes.size, chunk):
            block = u_nodes[i : i + chunk]
            f_vals = 2.0 * (np.cos(np.outer(block, xi_nodes)) @ wf)
            total += float(u_wts[i : i + chunk] @ (f_vals * f_vals))
        return 2.0 * total  # even in u

    val = outer(8.0)
    refined = outer(12.0)
    if abs(refined - val) > 1e-6 * max(abs(refined), 1e-300):
        val = refined
        refined = outer(24.0)
        if abs(refined - val) > 1e-5 * max(abs(refined), 1e-300):
            raise NumericError(
                f"u-quadrature for the covariance kernel did not settle "
                f"(last refinement moved the value by {abs(refined - val):.2e})"
            )
    return refined


def fourier_sum(w, ts, guard):
    """(1/pi) * integral of profile * exp(-i t xi), anti-aliased out to guard.

    Uses a trapezoid sum over the band, evaluated densely as chunked outer
    products; spacing is chosen so the implied periodization images sit at
    least `guard` away from every |t| queried.
    """
    ts = np.asarray(ts, dtype=float)
    width = w.beta - w.alpha
    n_seg = max(128, int(np.ceil(width * guard / (2.0 * np.pi))) + 1)
    xi = np.linspace(w.alpha, w.beta, n_seg + 1)
    wts = np.full(n_seg + 1, xi[1] - xi[0])
    wts[0] *= 0.5
    wts[-1] *= 0.5
    coef = wts * w.profile_values(xi)
    out = np.empty(ts.size, dtype=complex)
    chunk = max(1, int(4e6) // (n_seg + 1))
    for i in range(0, ts.size, chunk):
        block = ts[i : i + chunk]
        out[i : i + chunk] = np.exp(-1j * np.outer(block, xi)) @ coef
    return out / np.pi


def dense_reach(w):
    """BandWavelet.decay_reach with the envelope taken from fourier_sum.

    Returns (reach, blocks); each block is (t_lo, step, ts, guard, envelope)
    for one doubling round of the scan. Raises NumericError at the same cap.
    """
    step = 0.5 * np.pi / (w.beta - w.alpha)
    threshold = _TAIL_TOL * w.psi0
    last_exceed = 0.0
    t_lo, t_hi = 0.0, 256.0
    blocks = []
    while t_hi <= _REACH_CAP:
        ts = np.arange(t_lo, t_hi, step)
        guard = 2.0 * t_hi + 128.0
        env = np.abs(fourier_sum(w, ts, guard))
        blocks.append((t_lo, step, ts, guard, env))
        over = env >= threshold
        if np.any(over):
            last_exceed = float(ts[over][-1])
        elif t_hi >= 2.0 * max(last_exceed, 128.0):
            return last_exceed + 2.0 * step, blocks
        t_lo, t_hi = t_hi, 2.0 * t_hi
    raise NumericError(f"dense reach scan hit the cap {_REACH_CAP}")


_TABLE_NODES_PER_PERIOD = 64


@functools.cache
def build_table(w):
    """psi on a uniform grid from t = 0 out to the decay reach, as (values, step).

    Built once per wavelet object (the bump on [5, 10] takes several seconds).
    """
    step = 2.0 * np.pi / (_TABLE_NODES_PER_PERIOD * w.beta)
    reach = w.decay_reach()
    ts = np.arange(0.0, reach + 4.0 * step, step)
    return np.real(fourier_sum(w, ts, guard=ts[-1] + reach + 64.0)), step


def psi_time(w, t):
    """psi(t), from the table with cubic interpolation; zero beyond the reach."""
    table, h = build_table(w)
    x = np.abs(np.asarray(t, dtype=float))
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    inside = x < (table.size - 2) * h
    xi = x[inside] / h
    i = xi.astype(np.int64)
    u = xi - i
    # Catmull-Rom weights on the uniform grid, even extension at t = 0
    y0 = table[np.abs(i - 1)]
    y1 = table[i]
    y2 = table[i + 1]
    y3 = table[np.minimum(i + 2, table.size - 1)]
    u2 = u * u
    u3 = u2 * u
    out[inside] = (
        y0 * (-0.5 * u + u2 - 0.5 * u3)
        + y1 * (1.0 - 2.5 * u2 + 1.5 * u3)
        + y2 * (0.5 * u + 2.0 * u2 - 1.5 * u3)
        + y3 * (-0.5 * u2 + 0.5 * u3)
    )
    return float(out[0]) if scalar else out


def empirical_coeff(path, w, a, k):
    """Riemann-sum wavelet coefficient at scale a and shift index k:
    (delta / sqrt(a)) * sum_p psi(p delta / a - k delta) X(p delta).

    The sum is restricted to the samples where the tabulated psi is nonzero.
    Sample p = 0 carries X(0) = 0 and never contributes.
    """
    if not a > 0:
        raise ValueError("scale must be positive")
    if k < 0:
        raise ValueError("shift index must be nonnegative")
    delta = path.delta
    n = path.n
    reach = w.decay_reach()
    # |p delta / a - k delta| <= reach  <=>  |p - a k| <= a * reach / delta
    center = a * k
    half = a * reach / delta
    p_lo = max(1, int(np.ceil(center - half)))
    p_hi = min(n - 1, int(np.floor(center + half)))
    if p_hi < p_lo:
        return 0.0
    p = np.arange(p_lo, p_hi + 1)
    args = (p * delta) / a - k * delta
    weights = psi_time(w, args)
    return float(delta / np.sqrt(a) * (weights @ path.values[p - 1]))


def direct_spectrum(path, w, grid, r=0.1):
    """mfbm.wavelet.spectrum with every coefficient summed in the time domain."""
    if not 0.0 < r < 1.0 / 3.0:
        raise ValueError("trimming fraction must lie in (0, 1/3)")
    n = path.n
    y = np.empty(grid.f.size)
    counts = np.empty(grid.f.size, dtype=int)
    for i, f in enumerate(grid.f):
        a = 1.0 / f
        m0, m1 = _shift_range(n, a, r)
        if m1 < m0:
            raise AnalysisError(
                f"no usable shifts at frequency {f:.6g} (scale {a:.6g}); "
                f"need n * f_min / beta >= 10, got {n * grid.f_min / grid.beta:.3g}"
            )
        e = np.array([empirical_coeff(path, w, a, k) for k in range(m0, m1 + 1)])
        j = float(np.mean(e * e))
        counts[i] = m1 - m0 + 1
        if not np.isfinite(j) or j <= 0.0:
            raise DegeneratePathError(
                f"zero wavelet energy at frequency {f:.6g}; the path carries no signal there"
            )
        y[i] = np.log(j)
    return WaveletSpectrum(grid=grid, y=y, r=r, counts=counts)


def scale_samples_reference(path, w, a, reach):
    """Stage 1 of the per-scale route at scale a: (phase0, phase_step, v) with
    e_k = (delta / (pi sqrt(a))) Re sum_q v_q exp(i (phase0 + q phase_step) k).

    The profile is sampled on its own uniform grid xi_q = alpha + q d_xi over the
    band, fine enough for the span n delta / a + reach + 16, and
    v_q = coef_q D_q with D_q = sum_p X(p delta) exp(-i xi_q p delta / a): one
    chirp-z transform of the path per scale.
    """
    delta = path.delta
    n = path.n
    d_xi, coef = _profile_samples(w, n * delta / a + reach + 16.0)
    step = delta / a
    xs = np.zeros(n)
    xs[1:] = path.values[: n - 1]  # X(0) = 0 occupies slot 0
    d = _chirp_z(xs, coef.size, d_xi * step, w.alpha * step)
    return w.alpha * delta, d_xi * delta, coef * d


def scale_coeffs_reference(path, w, a, m0, m1, reach):
    """All coefficients e(a, k delta), k = m0..m1, via two chirp-z transforms
    per scale: stage 1 (scale_samples_reference), then a second transform that
    evaluates the inner sum at every retained shift.

    Equivalent to the time-domain Riemann sum over |p delta / a - k delta| <=
    reach: the profile is sampled on a grid fine enough that the periodized
    kernel's images stay below the reach's tail tolerance over every argument
    the sum visits.
    """
    phase0, phase_step, v = scale_samples_reference(path, w, a, reach)
    inner = _chirp_z(v, m1 - m0 + 1, -phase_step, -phase_step * m0)
    k = np.arange(m0, m1 + 1)
    return (path.delta / (np.pi * np.sqrt(a))) * np.real(np.exp(1j * phase0 * k) * inner)


def per_scale_spectrum_reference(path, w, grid, r=0.1):
    """mfbm.wavelet.spectrum with every coefficient built, scale by scale, by
    scale_coeffs_reference, and the mean of their squares taken directly."""
    if not 0.0 < r < 1.0 / 3.0:
        raise ValueError("trimming fraction must lie in (0, 1/3)")
    n = path.n
    reach = w.decay_reach()
    y = np.empty(grid.f.size)
    counts = np.empty(grid.f.size, dtype=int)
    for i, f in enumerate(grid.f):
        a = 1.0 / f
        m0, m1 = _shift_range(n, a, r)
        if m1 < m0:
            raise AnalysisError(
                f"no usable shifts at frequency {f:.6g} (scale {a:.6g}); "
                f"need n * f_min / beta >= 10, got {n * grid.f_min / grid.beta:.3g}"
            )
        e = scale_coeffs_reference(path, w, a, m0, m1, reach)
        j = float(np.mean(e * e))
        counts[i] = m1 - m0 + 1
        if not np.isfinite(j) or j <= 0.0:
            raise DegeneratePathError(
                f"zero wavelet energy at frequency {f:.6g}; the path carries no signal there"
            )
        y[i] = np.log(j)
    return WaveletSpectrum(grid=grid, y=y, r=r, counts=counts)


def exact_spectrum(model, w, grid, r=0.1):
    """The spectrum with every empirical wavelet variance replaced by its
    expectation: Y = log theoretical_variance(model, w, 1/f) at each grid
    frequency, with the shift counts of mfbm.wavelet.spectrum."""
    y = np.log([theoretical_variance(model, w, 1.0 / f) for f in grid.f])
    counts = np.array([m1 - m0 + 1 for m0, m1 in (_shift_range(grid.n, 1.0 / f, r) for f in grid.f)])
    return WaveletSpectrum(grid=grid, y=y, r=r, counts=counts)


def czt_reference(x, m, theta, phi0):
    """mfbm.wavelet._chirp_z by scipy.signal.czt: sum_j x_j exp(-i (phi0 + theta k) j)."""
    return czt(x, m=m, w=np.exp(-1j * theta), a=np.exp(1j * phi0))


def empirical_variogram(path, lag):
    """Mean squared increment at integer lag: (N-lag)^-1 sum (X_(i+lag) - X_i)^2."""
    lag = int(lag)
    if not 1 <= lag < path.n:
        raise ValueError(f"lag must be in [1, {path.n - 1}], got {lag}")
    diff = path.values[lag:] - path.values[:-lag]
    return float(np.mean(diff**2))


def criterion_q(y, grid, t, lines):
    """Summed squared residuals sum_j sum_{i=t_j+1}^{t_{j+1}-tau_n} (y_i - slope_j log f_i - icept_j)^2."""
    t = _check_admissible(t, grid)
    if len(lines) != len(t) - 1:
        raise ValueError(f"need {len(t) - 1} lines for {len(t) - 2} changes, got {len(lines)}")
    y = np.asarray(y, dtype=float)
    x = grid.log_f
    total = 0.0
    for j, (slope, icept) in enumerate(lines):
        idx = np.arange(t[j] + 1, t[j + 1] - grid.tau_n + 1)
        resid = y[idx] - slope * x[idx] - icept
        total += float(resid @ resid)
    return total


def asymptotic_refine_targets(omega, f_min, f_max, alpha, beta, m):
    """Limit frequencies of the refine points as the grid refines.

    Segment j spans grid frequencies from L_j (f_min/beta for j = 0, else
    omega_j / alpha) up to R_j (omega_{j+1} / beta before a change,
    f_max / alpha for the last segment); point k sits at
    L_j (R_j / L_j)^(k / (m+1)).
    """
    omega = tuple(float(w) for w in np.atleast_1d(omega)) if np.size(omega) else ()
    k_changes = len(omega)
    targets = []
    ks = np.arange(1, m + 1)
    for j in range(k_changes + 1):
        lo = f_min / beta if j == 0 else omega[j - 1] / alpha
        hi = f_max / alpha if j == k_changes else omega[j] / beta
        targets.append(lo * (hi / lo) ** (ks / (m + 1.0)))
    return targets


def write_csv_loop(path, header, rows):
    """mfbm.cli._write_csv as a per-row loop that formats every float by repr."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
