"""Band-limited analyzing wavelets and the wavelet log-variance spectrum.

The analyzing function psi has an even, real, nonnegative Fourier profile
supported on [alpha, beta] in |xi|. All moments of psi vanish, and the
variance of its coefficients at scale a is an exact power law in a inside
a single spectral regime; that identity is what the whole estimation
pipeline regresses on.

The spectrum is the log mean square of the coefficients' Riemann sums
(delta / sqrt(a)) * sum_p psi(p delta / a - k delta) X(p delta) over the
retained shifts k, and no coefficient is ever formed. Sampling the Fourier
profile on a uniform grid of spacing d_xi (a trapezoid rule) makes the
effective time-domain kernel the 2*pi/d_xi-periodization of psi, so a d_xi
small enough keeps the wrap-around images below the tail tolerance that
defines the wavelet's decay reach. The samples need the path's Fourier sum
at frequencies xi delta / a; scales within a factor 2 of each other share
one zoom (chirp-z) transform of the path on a lattice fine enough for the
largest of them, and each scale takes the lattice nodes inside its band.
The mean square over the shifts is then exact algebra: the autocorrelation
and self-convolution of the scale's samples, from one FFT and one inverse
FFT, summed against Dirichlet kernels. Everything but the path's own
transform depends only on the wavelet, the grid (which carries n and delta;
a path must match them) and r. That plan is one lattice per octave group and
one record per scale: its node and shift ranges, its two Dirichlet kernels
and its profile weights with the recentring twist, three floats and one
complex per lattice node the scale uses. The wavelet keeps the plan of its
last spectrum and reuses it while grid and r stay the same, so repeated
spectra on one grid evaluate no kernel, profile sample or twist twice. The reach
itself is found by scanning |psi| on a uniform time grid, which is one more
chirp-z transform of profile samples: the library has a single route for
Fourier sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.fft import fft, ifft, next_fast_len

from .changepoint import FrequencyGrid
from .errors import DegeneratePathError, NumericError
from .model import ModelSpec, SampledPath

__all__ = [
    "BandWavelet",
    "WaveletSpectrum",
    "k_const",
    "theoretical_variance",
    "spectrum",
]

_TAIL_TOL = 1e-10
_REACH_CAP = 8192.0
# Fourier-side quadrature: at least this many trapezoid segments across the band
_MIN_SEGMENTS = 128
# spectrum: scales within this ratio of each other share one zoom transform of the path
_GROUP_RATIO = 2.0

# Band integrals: a composite Gauss-Legendre rule on 4 panels, checked against
# the same rule on 2 panels. Both rules' nodes on [0, 1] are precomputed and
# stacked, so an integrand is evaluated in one vectorized call. When the pair
# disagrees the panel count doubles, up to a cap, until two successive rules agree.
_GL_ORDER = 64
_GL_PANELS = 4
_GL_MAX_PANELS = 32
_GL_RTOL = 1e-8


@cache
def _unit_rule(panels: int):
    nodes, weights = leggauss(_GL_ORDER)
    half = 0.5 / panels
    mid = (np.arange(panels) + 0.5) / panels
    return (mid[:, None] + half * nodes).ravel(), np.tile(half * weights, panels)


_GL_X, _GL_W = _unit_rule(_GL_PANELS)
_GL_CHECK_X, _GL_CHECK_W = _unit_rule(_GL_PANELS // 2)
_GL_ALL_X = np.concatenate((_GL_X, _GL_CHECK_X))


def _band_integral(fn, lo, hi, what: str) -> np.ndarray:
    """Integrals of fn over the intervals [lo_i, hi_i] by composite
    Gauss-Legendre rules; fn, vectorized and smooth on each interval, gets
    the nodes of all of them at once, one row per interval.

    For the band integrands of the bump on [5, 10] the 4-panel rule agrees
    with its 2-panel check and with adaptive integration to about 1e-12
    relative. Steep edges (a bump wider than about 7) need more panels: while
    some row's pair disagrees the count doubles, and each row keeps the finer
    value of its first pair that agrees to _GL_RTOL relative. Raises
    NumericError naming `what` and the first interval whose pair does not
    agree up to _GL_MAX_PANELS panels (a jump or kink inside it).
    """
    lo, hi = np.atleast_1d(lo, hi)
    width = hi - lo
    vals = np.asarray(fn(lo[:, None] + width[:, None] * _GL_ALL_X), dtype=float)
    fine = width * (vals[:, : _GL_X.size] @ _GL_W)
    coarse = width * (vals[:, _GL_X.size :] @ _GL_CHECK_W)
    out = np.full(width.shape, np.nan)  # NaN until the row settles
    panels = _GL_PANELS
    while True:
        todo = np.isnan(out)
        settled = todo & np.isfinite(fine) & (np.abs(fine - coarse) <= _GL_RTOL * np.abs(fine))
        out[settled] = fine[settled]
        todo &= ~settled
        if not todo.any():
            return out
        bad = todo if panels >= _GL_MAX_PANELS else todo & ~np.isfinite(fine)
        if bad.any():
            i = int(np.argmax(bad))
            raise NumericError(
                f"{what}: band integral on [{lo[i]:.6g}, {hi[i]:.6g}] did not settle "
                f"({panels // 2}- and {panels}-panel Gauss-Legendre rules give "
                f"{coarse[i]:.10g} and {fine[i]:.10g}); the profile is too rough for the band rule"
            )
        panels *= 2
        x, wts = _unit_rule(panels)
        coarse, fine = fine, width * (np.asarray(fn(lo[:, None] + width[:, None] * x), dtype=float) @ wts)


class BandWavelet:
    """Analyzing wavelet with Fourier profile supported on [alpha, beta] in |xi|.

    Construct via bump() for the exponential bump profile, the analyzing
    wavelet of the pipeline, or via the constructor itself for any vectorized
    callable profile. The profile must be smooth enough for the band rule
    (_band_integral) and for a time-domain decay reach below _REACH_CAP.
    """

    def __init__(self, alpha: float, beta: float, profile):
        if not 0 < alpha < beta < np.inf:
            raise ValueError("band edges need 0 < alpha < beta < inf")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self._profile = profile
        self._psi0 = None
        self._reach = None
        self._plan = None  # (key, groups) of the last spectrum; see _spectrum_plan

    # -- constructors -------------------------------------------------------

    @classmethod
    def bump(cls, alpha: float = 5.0, beta: float = 10.0) -> "BandWavelet":
        """Profile exp(-1 / ((|xi| - alpha) (beta - |xi|))) on alpha < |xi| < beta."""

        def profile(x, _a=float(alpha), _b=float(beta)):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            inside = (x > _a) & (x < _b)
            xi = x[inside]
            out[inside] = np.exp(-1.0 / ((xi - _a) * (_b - xi)))
            return out

        return cls(alpha, beta, profile)

    # -- Fourier side --------------------------------------------------------

    @property
    def ratio(self) -> float:
        return self.beta / self.alpha

    def profile_values(self, xi):
        """Profile at |xi| (even extension), vectorized, zero outside the band."""
        x = np.abs(np.asarray(xi, dtype=float))
        scalar = x.ndim == 0
        vals = np.asarray(self._profile(np.atleast_1d(x)), dtype=float)
        return float(vals[0]) if scalar else vals

    @property
    def psi0(self) -> float:
        """psi(0) = (1/pi) * integral of the profile; also max |psi|. Raises
        NumericError when psi(0)^2, and so every wavelet energy, underflows to 0."""
        if self._psi0 is None:
            psi0 = _band_integral(self.profile_values, self.alpha, self.beta, "psi(0)")[0] / np.pi
            if psi0 * psi0 == 0.0:
                raise NumericError(f"psi(0) = {psi0:.3g} on the band [{self.alpha:.6g}, {self.beta:.6g}] "
                                   "underflows when squared; widen the band")
            self._psi0 = psi0
        return self._psi0

    # -- time-domain reach --------------------------------------------------

    def decay_reach(self) -> float:
        """Smallest R with |psi(t)| < 1e-10 * max|psi| for all |t| > R (estimated
        from the smooth modulus envelope of the analytic signal)."""
        if self._reach is not None:
            return self._reach
        step = 0.5 * np.pi / (self.beta - self.alpha)
        threshold = _TAIL_TOL * self.psi0
        last_exceed = 0.0
        t_lo, t_hi = 0.0, 256.0
        while t_hi <= _REACH_CAP:
            ts = np.arange(t_lo, t_hi, step)
            env = _envelope(self, t_lo, step, ts.size, span=2.0 * t_hi + 128.0)
            over = env >= threshold
            if np.any(over):
                last_exceed = float(ts[over][-1])
            elif t_hi >= 2.0 * max(last_exceed, 128.0):
                break
            t_lo, t_hi = t_hi, 2.0 * t_hi
        else:
            raise NumericError(
                f"wavelet tail does not fall below {_TAIL_TOL} * max|psi| within |t| <= {_REACH_CAP}; "
                "the profile is too rough for time-domain evaluation"
            )
        self._reach = last_exceed + 2.0 * step
        return self._reach


def _profile_samples(w: BandWavelet, span: float):
    """(d_xi, coef): trapezoid weights times the profile on a uniform grid over
    the band, so that sum_q coef_q exp(-i t xi_q) approximates pi * psi(t).

    The spacing d_xi <= 2*pi / span puts the images of the periodized sum at
    least `span` apart in t.
    """
    n_seg = max(_MIN_SEGMENTS, int(np.ceil((w.beta - w.alpha) * span / (2.0 * np.pi))) + 1)
    xi = np.linspace(w.alpha, w.beta, n_seg + 1)
    d_xi = xi[1] - xi[0]
    wts = np.full(n_seg + 1, d_xi)
    wts[0] *= 0.5
    wts[-1] *= 0.5
    return d_xi, wts * w.profile_values(xi)


def _chirp_z(x: np.ndarray, m: int, theta: float, phi0: float) -> np.ndarray:
    """Chirp-z transform sum_j x_j exp(-i (phi0 + theta k) j), k = 0..m-1.

    Bluestein's algorithm (Rabiner, Schafer and Rader 1969): with
    j k = (j^2 + k^2 - (k - j)^2) / 2 the sum becomes one linear convolution
    with the chirp exp(i theta l^2 / 2), done by FFTs of a fast length. The
    chirp is built from real phases, so each entry is exact to rounding of
    its phase.
    """
    n = x.size
    size = next_fast_len(n + m - 1)
    j = np.arange(max(n, m), dtype=float)
    half_phase = 0.5 * theta * j * j
    chirp = np.exp(-1j * half_phase)
    head = np.exp(-1j * (half_phase[:n] + phi0 * j[:n]))
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1:] = chirp[n - 1:0:-1].conj()
    return ifft(fft(x * head, size) * fft(kernel))[:m] * chirp[:m]


def _envelope(w: BandWavelet, t_lo: float, step: float, m: int, span: float) -> np.ndarray:
    """|psi(t)| at t = t_lo + k step, k = 0..m-1, as one chirp-z transform of
    the profile samples for `span` (the phase exp(-i t alpha) drops out)."""
    d_xi, coef = _profile_samples(w, span)
    return np.abs(_chirp_z(coef, m, step * d_xi, t_lo * d_xi)) / np.pi


def k_const(w: BandWavelet, hurst: float) -> float:
    """Normalizing constant: integral of |profile(u)|^2 / |u|^(2H+1) over the line,
    i.e. twice the integral over the positive band."""
    if not 0.0 < hurst < 1.0:
        raise ValueError("Hurst exponent must lie in (0, 1)")
    what = f"normalizing constant K_H at H = {hurst:.6g}"
    val = 2.0 * _band_integral(lambda u: w.profile_values(u) ** 2 * u ** (-2.0 * hurst - 1.0),
                               w.alpha, w.beta, what)[0]
    if val == 0.0:
        raise NumericError(f"{what} underflows to 0 on the band [{w.alpha:.6g}, {w.beta:.6g}]; "
                           "widen the band")
    return val


def theoretical_variance(model: ModelSpec, w: BandWavelet, a: float) -> float:
    """Variance of the wavelet coefficient at scale a:
    a * integral |profile(a u)|^2 * weight(u) du.

    Inside a single regime this equals a^(2H+1) sigma^2 K_H exactly. One
    stacked band-rule evaluation covers every regime the band meets at scale a.
    """
    if not a > 0:
        raise ValueError("scale must be positive")
    edges = model.band_edges
    lo = np.maximum(w.alpha, a * edges[:-1])
    hi = np.minimum(w.beta, a * edges[1:])
    live = hi > lo
    h, sigma = np.array(model.hurst)[live], np.array(model.sigma)[live]
    val = _band_integral(lambda v: w.profile_values(v) ** 2 * v ** (-2.0 * h[:, None] - 1.0),
                         lo[live], hi[live], f"wavelet variance at scale {a:.6g}")
    return float(np.sum(2.0 * sigma**2 * a ** (2.0 * h + 1.0) * val))


@dataclass(frozen=True)
class WaveletSpectrum:
    """Log empirical wavelet variances on a frequency grid."""

    grid: FrequencyGrid
    y: np.ndarray
    r: float
    counts: np.ndarray


def _shift_range(n: int, a: float, r: float):
    """Retained shift indices at scale a: floor(r n / a) .. floor((1-r) n / a)."""
    m0 = int(np.floor(r * n / a))
    m1 = int(np.floor((1.0 - r) * n / a))
    return m0, m1


def _dirichlet(x: np.ndarray, count: int) -> np.ndarray:
    """Dirichlet kernel sum_k exp(i x k) over `count` consecutive k centred on 0,
    i.e. sin(count x / 2) / sin(x / 2), at real x.

    Both sines are taken at x reduced by 2 pi j to [-pi, pi], with the sign
    (-1)^(j (count - 1)) that the reduction costs, and the limit count where
    the reduced x is zero.
    """
    turns = np.rint(x * (0.5 / np.pi))
    half = 0.5 * x - np.pi * turns
    sign = 1 - 2 * ((count - 1) % 2 * turns.astype(np.int64) % 2)
    den = np.sin(half)
    limit = np.full(x.shape, float(count))
    return sign * np.divide(np.sin(count * half), den, out=limit, where=den != 0.0)


def _scale_kernels(phase0: float, phase_step: float, m: int, count: int) -> np.ndarray:
    """The two Dirichlet kernels of a scale's mean square (3 m - 2 entries):
    D(d phase_step) for d = 1..m-1, then D(2 phase0 + s phase_step) for s = 0..2m-2."""
    steps = phase_step * np.arange(2 * m - 1)
    return np.concatenate((_dirichlet(steps[1:m], count), _dirichlet(2.0 * phase0 + steps, count)))


def _mean_square(v: np.ndarray, m0: int, m1: int, kernels: np.ndarray) -> float:
    """Mean over k = m0..m1 of (Re g_k)^2, g_k = sum_q v_q exp(i (phase0 + q phase_step) (k - c)),
    c = (m0 + m1) / 2, without forming any g_k. The samples v are already
    recentred on the centre c of the shifts (see _spectrum_plan), and
    `kernels` are the scale's _scale_kernels for phase0 and phase_step.

    (Re g)^2 = (|g|^2 + Re g^2) / 2. Summed over the shifts, the two terms are
    the autocorrelation R and the self-convolution P of v against real
    Dirichlet kernels: sum |g_k|^2 = sum_d Re R(d) D(d phase_step) and
    sum Re g_k^2 = sum_s Re P(s) D(2 phase0 + s phase_step). With S the FFT
    of v and S_ its reversal S(-j), Re R and Re P are the real and imaginary
    parts of one inverse FFT of (|S|^2 + |S_|^2) / 2 + i (S^2 + conj S_^2) / 2.
    """
    m = v.size
    count = m1 - m0 + 1
    spec = fft(v, next_fast_len(2 * m - 1))
    rev = np.concatenate((spec[:1], spec[:0:-1])).conj()  # conj S_
    # (|S|^2 + i S^2) / (1 + i) = (Re S - Im S) S, so `both` is the inverse FFT
    # above divided by (1 + i) / 2
    both = ifft((spec.real - spec.imag) * spec + (rev.real - rev.imag) * rev)
    auto = 0.5 * (both.real[:m] - both.imag[:m])  # Re R(d), d >= 0; Re R is even
    conv = 0.5 * (both.real[: 2 * m - 1] + both.imag[: 2 * m - 1])  # Re P(s)
    modulus = count * auto[0] + 2.0 * (auto[1:] @ kernels[: m - 1])
    return 0.5 * (modulus + conv @ kernels[m - 1 :]) / count


def _spectrum_plan(w: BandWavelet, grid: FrequencyGrid, r: float):
    """The path-independent part of `spectrum` on a grid, built for the grid's
    n and delta: a list of groups (lo, step, size, scales), one per octave of
    scales. A group's zoom lattice is lo + step q, q = 0..size-1, in
    omega = xi delta / a. Each of its scales is a record
    (grid index, q0, m0, m1, kernels, weights): the lattice nodes
    q0..q0 + weights.size - 1 inside the scale's band, its retained shifts
    m0..m1, its _scale_kernels (three floats per node) and its recentred
    trapezoid weights (one complex per node). The wavelet keeps the last plan
    it built, so repeated spectra on one grid share it; any other grid or r
    replaces it."""
    key = (grid.f.tobytes(), grid.n, grid.delta, r)
    if w._plan is not None and w._plan[0] == key:
        return w._plan[1]
    w._plan = None  # free the old plan before building the new one
    n, delta = grid.n, grid.delta
    # at scale a the kernel's images must lie n delta / a + reach + 16 apart in time:
    # a node spacing of at most 2 pi / (n + a pad) in omega = xi delta / a
    pad = (w.decay_reach() + 16.0) / delta
    scales = 1.0 / grid.f
    groups = []  # scales from the largest down; a group spans a ratio of at most _GROUP_RATIO
    for i in np.argsort(grid.f):
        if groups and _GROUP_RATIO * scales[i] >= scales[groups[-1][0]]:
            groups[-1].append(i)
        else:
            groups.append([i])
    plan = []
    for group in groups:
        a_hi = scales[group[0]]
        # one zoom DFT D(omega) = sum_p X(p delta) exp(-i omega p) on a lattice fine
        # enough for the largest scale of the group, hence for all of them
        step = min(2.0 * np.pi / (n + a_hi * pad), (w.beta - w.alpha) * delta / (_MIN_SEGMENTS * a_hi))
        lo = w.alpha * delta / a_hi
        size = int((w.beta * delta / scales[group[-1]] - lo) / step) + 2
        records = []
        for i in group:
            a = scales[i]
            # every lattice node inside the band [alpha, beta] in xi = omega a / delta
            q0 = max(0, int(np.ceil((w.alpha * delta / a - lo) / step)))
            q1 = int(np.floor((w.beta * delta / a - lo) / step))
            m0, m1 = _shift_range(n, a, r)
            phases = a * (lo + step * np.arange(q0, q1 + 1))  # xi_q delta
            kernels = _scale_kernels(phases[0], a * step, phases.size, m1 - m0 + 1)
            # e_k = (delta / (pi sqrt(a))) Re sum_q v_q exp(i xi_q k delta), v_q = weight_q D_q,
            # with the trapezoid weight step a / delta at every node. Counted from the
            # centre c = (m0 + m1) / 2 of the shifts, the sums over k in _mean_square meet
            # real Dirichlet kernels once the weight carries the twist exp(i c xi_q delta)
            twist = np.exp(0.5j * (m0 + m1) * (phases[0] + a * step * np.arange(phases.size)))
            weights = (step * a / delta) * w.profile_values(phases / delta) * twist
            records.append((int(i), q0, m0, m1, kernels, weights))
        plan.append((lo, step, size, records))
    w._plan = (key, plan)
    return plan


def spectrum(path: SampledPath, w: BandWavelet, grid: FrequencyGrid,
             r: float = 0.1) -> WaveletSpectrum:
    """Log empirical wavelet variance at every grid frequency.

    At each f the coefficients e(1/f, k delta) are averaged over the retained
    shift range (trimming fraction r on both sides) and the log is taken.
    The grid must have been built for the path's n and delta.
    """
    if not 0.0 < r < 1.0 / 3.0:
        raise ValueError("trimming fraction must lie in (0, 1/3)")
    if (path.n, path.delta) != (grid.n, grid.delta):
        raise ValueError(f"the path has (n, delta) = ({path.n}, {path.delta}) but the grid "
                         f"was built for ({grid.n}, {grid.delta}); build the grid from the path")
    n, delta = grid.n, grid.delta
    xs = np.zeros(n)
    xs[1:] = path.values[: n - 1]  # X(0) = 0 occupies slot 0
    y = np.empty(grid.f.size)
    counts = np.empty(grid.f.size, dtype=int)
    for lo, step, size, scales in _spectrum_plan(w, grid, r):
        d = _chirp_z(xs, size, step, lo)
        for i, q0, m0, m1, kernels, weights in scales:
            v = weights * d[q0 : q0 + weights.size]
            j = (delta / np.pi) ** 2 * grid.f[i] * _mean_square(v, m0, m1, kernels)
            counts[i] = m1 - m0 + 1
            if not np.isfinite(j) or j <= 0.0:
                raise DegeneratePathError(
                    f"zero wavelet energy at frequency {grid.f[i]:.6g}; the path carries no signal there"
                )
            y[i] = np.log(j)
    return WaveletSpectrum(grid=grid, y=y, r=r, counts=counts)
