"""Wavelet profiles, the time-domain reference table, normalizing constants,
coefficient sums, the log-variance spectrum and the decay reach (chirp-z
routes vs the literal dense-sum, per-scale and time-domain oracles)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.integrate import quad

import mfbm.wavelet as wavelet
from mfbm import ModelSpec, PathSampler, SampledPath, build_grid, k_const, spectrum, theoretical_variance
from mfbm.errors import DegeneratePathError, NumericError
from mfbm.wavelet import BandWavelet, _envelope, _mean_square, _scale_kernels, _shift_range

from oracles import (
    build_table,
    czt_reference,
    dense_reach,
    direct_spectrum,
    empirical_coeff,
    fourier_sum,
    meyer_shifted,
    per_scale_spectrum_reference,
    psi_time,
    scale_coeffs_reference,
    scale_samples_reference,
)

FIG3 = ModelSpec(hurst=(0.9, 0.2, 0.5), sigma=(5.0, 5.0, 5.0), omega=(0.05, 0.5))
M1 = ModelSpec(hurst=(0.2, 0.7), sigma=(np.sqrt(10.0), np.sqrt(5.0)), omega=(5.0,))
# the benchmark's grids: (model, n, band) at delta = 0.03
BENCH_GRIDS = {
    "m1-6000": (M1, 6000, (0.8, 16.0)),
    "fbm-6000": (ModelSpec.fbm(0.6, 1.0), 6000, (0.05, 20.0)),
    "m1-8192": (M1, 8192, (0.8, 16.0)),
}


def bump_table(samples):
    """The bump on [1, 2] tabulated uniformly strictly inside its band and
    linearly interpolated, pinned to zero at both band edges: a profile with a
    kink at every sample, whose time-domain tail decays only like 1/t^2."""
    xs = np.linspace(1.0, 2.0, samples + 2)
    vals = BandWavelet.bump(1.0, 2.0).profile_values(xs)  # zero at both edges
    return BandWavelet(1.0, 2.0, lambda x: np.interp(x, xs, vals, left=0.0, right=0.0))


class TestProfiles:
    def test_bump_outside_support(self, bump):
        assert bump.profile_values(11.0) == 0.0
        assert bump.profile_values(4.999) == 0.0
        assert bump.profile_values(5.0) == 0.0

    def test_bump_midpoint(self, bump):
        assert bump.profile_values(7.5) == pytest.approx(np.exp(-1.0 / 6.25), rel=1e-14)

    def test_evenness(self, bump):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-12, 12, 50)
        assert np.allclose(bump.profile_values(xs), bump.profile_values(-xs), rtol=0)

    def test_meyer_window(self):
        w = meyer_shifted()
        assert (w.alpha, w.beta) == (np.pi, 2 * np.pi)
        assert w.profile_values(np.pi) == 0.0
        assert w.profile_values(2 * np.pi) == pytest.approx(0.0, abs=1e-15)
        assert w.profile_values(1.5 * np.pi) == pytest.approx(1.0, rel=1e-12)
        xs = np.linspace(np.pi, 2 * np.pi, 101)
        vals = w.profile_values(xs)
        assert np.all(vals >= 0) and np.all(vals <= 1.0 + 1e-15)

    def test_table_density(self):
        """A linearly interpolated profile works only when dense: 100,000 samples
        of the bump on [1, 2] reproduce its reach and K_H, 1,000 fail the band
        rule at psi(0) and 20,000 the reach cap."""
        ref = BandWavelet.bump(1.0, 2.0)
        dense = bump_table(100_000)
        assert dense.decay_reach() == pytest.approx(ref.decay_reach(), rel=1e-8)
        for h in (0.2, 0.5, 0.8):
            assert k_const(dense, h) == pytest.approx(k_const(ref, h), rel=1e-8)
        with pytest.raises(NumericError, match=r"psi\(0\)"):
            bump_table(1_000).decay_reach()
        with pytest.raises(NumericError, match="does not fall below"):
            bump_table(20_000).decay_reach()


class TestTimeDomain:
    def test_positive_at_zero(self, bump):
        got = psi_time(bump, 0.0)
        want = quad(bump.profile_values, 5, 10)[0] / np.pi
        assert got > 0
        assert got == pytest.approx(want, rel=1e-9)

    def test_even(self, bump):
        rng = np.random.default_rng(2)
        ts = rng.uniform(0, 30, 40)
        assert np.allclose(psi_time(bump, ts), psi_time(bump, -ts), rtol=0)

    def test_matches_direct_quadrature(self, bump):
        for t in (0.3, 1.7, 6.55, 21.0):
            want = quad(lambda x: bump.profile_values(x) * np.cos(t * x), 5, 10,
                        limit=500, epsabs=1e-14)[0] / np.pi
            assert psi_time(bump, t) == pytest.approx(want, abs=3e-6)

    def test_zero_beyond_reach(self, bump):
        assert psi_time(bump, bump.decay_reach() + 5.0) == 0.0

    def test_moments_vanish(self, bump):
        """Integrals of t^m psi(t) vanish: exactly at m = 0 within the table
        tolerance, and at m = 2 up to the t^2-amplified tail truncation."""
        vals, h = build_table(bump)
        ts = np.arange(vals.size) * h
        scale = float(np.trapezoid(np.abs(vals), dx=h))  # ~ L1 mass of the positive half
        m0 = 2.0 * np.trapezoid(vals, dx=h)  # even extension doubles the half-line rule
        assert abs(m0) <= 1e-8 * scale
        m2 = 2.0 * np.trapezoid(ts**2 * vals, dx=h)
        assert abs(m2) <= 1e-6 * float(np.trapezoid(ts**2 * np.abs(vals), dx=h))
        # odd moments vanish identically by symmetry of the even extension


class TestKConst:
    def test_indicator_closed_forms(self):
        ind = BandWavelet(
            1.0, 2.0, lambda x: np.where((x >= 1.0) & (x <= 2.0), 1.0, 0.0)
        )
        assert k_const(ind, 0.5) == pytest.approx(1.0, rel=1e-10)
        assert k_const(ind, 0.25) == pytest.approx(4.0 * (1.0 - 2.0**-0.5), rel=1e-10)

    def test_bump_against_dense_trapezoid(self, bump):
        u = np.linspace(5.0, 10.0, 1_000_001)
        want = 2.0 * np.trapezoid(bump.profile_values(u) ** 2 * u ** (-2 * 0.6 - 1.0), u)
        assert k_const(bump, 0.6) == pytest.approx(want, rel=1e-8)

    def test_domain(self, bump):
        with pytest.raises(ValueError):
            k_const(bump, 1.0)

    def test_profile_with_a_jump_rejected(self):
        """The fixed band rule checks itself at half resolution; a profile that
        jumps inside the band fails that check (and has no finite decay reach)."""
        step = BandWavelet(
            1.0, 2.0,
            lambda x: np.where((x >= 1.0) & (x < 1.37), 1.0,
                               np.where((x >= 1.37) & (x <= 2.0), 0.5, 0.0)),
        )
        with pytest.raises(NumericError, match="normalizing constant"):
            k_const(step, 0.5)
        with pytest.raises(NumericError):
            step.decay_reach()


class TestTheoreticalVariance:
    def test_single_regime_closed_form(self, bump):
        m = ModelSpec.fbm(0.6, 2.0)
        got = theoretical_variance(m, bump, 1.0)
        assert got == pytest.approx(4.0 * k_const(bump, 0.6), rel=1e-10)

    def test_log_affinity_in_scale(self, bump):
        m = ModelSpec.fbm(0.45, 1.5)
        scales = np.geomspace(0.2, 2.0, 10)
        logv = np.log([theoretical_variance(m, bump, a) for a in scales])
        pred = (2 * 0.45 + 1) * np.log(scales) + np.log(1.5**2 * k_const(bump, 0.45))
        assert np.max(np.abs(logv - pred)) <= 1e-8

    def test_straddling_scale_between_regime_formulas(self, bump):
        # scale chosen so the band [5/a, 10/a] straddles omega_2 = 0.5
        a = 14.0
        got = theoretical_variance(FIG3, bump, a)
        lo = a ** (2 * 0.2 + 1) * 25.0 * k_const(bump, 0.2)
        hi = a ** (2 * 0.5 + 1) * 25.0 * k_const(bump, 0.5)
        assert min(lo, hi) < got < max(lo, hi)


class TestEmpiricalCoeff:
    def test_zero_path(self, bump):
        path = SampledPath(delta=0.01, values=np.zeros(500))
        assert empirical_coeff(path, bump, 1.0, 10) == 0.0

    def test_constant_path_near_cancellation(self, bump):
        c, n, delta, a = 4.0, 4096, 0.01, 1.0
        path = SampledPath(delta=delta, values=np.full(n, c))
        k = int(n / a * 0.5)
        e = empirical_coeff(path, bump, a, k)
        assert abs(e) <= 1e-3 * c * np.sqrt(a)

    def test_linear_path_near_cancellation(self, bump):
        n, delta, a = 4096, 0.01, 1.0
        path = SampledPath(delta=delta, values=delta * np.arange(1, n + 1))
        k = int(n / a * 0.5)
        e = empirical_coeff(path, bump, a, k)
        assert abs(e) <= 1e-3 * path.duration * np.sqrt(a)

    def test_argument_validation(self, bump):
        path = SampledPath(delta=0.01, values=np.ones(10))
        with pytest.raises(ValueError, match="scale"):
            empirical_coeff(path, bump, 0.0, 1)
        with pytest.raises(ValueError, match="shift"):
            empirical_coeff(path, bump, 1.0, -1)


@pytest.fixture(scope="module")
def small_path():
    rng = np.random.default_rng(8)
    return SampledPath(delta=0.05, values=np.cumsum(rng.standard_normal(512)) * 0.4)


class TestSpectrum:
    def test_engines_agree(self, bump, small_path):
        grid = build_grid(small_path.n, small_path.delta, 0.6, 12.0, bump)
        fast = spectrum(small_path, bump, grid, r=0.1)
        slow = direct_spectrum(small_path, bump, grid, r=0.1)
        # the direct route goes through the interpolated table (~1e-6 relative)
        assert np.max(np.abs(fast.y - slow.y)) <= 5e-5
        assert np.array_equal(fast.counts, slow.counts)

    def test_counts_match_shift_range(self, bump, small_path):
        grid = build_grid(small_path.n, small_path.delta, 0.6, 12.0, bump)
        sp = spectrum(small_path, bump, grid, r=0.1)
        n = small_path.n
        for f, c in zip(grid.f, sp.counts):
            a = 1.0 / f
            assert c == int(np.floor(0.9 * n / a)) - int(np.floor(0.1 * n / a)) + 1
            assert c >= 1

    def test_scale_equivariance(self, bump, small_path):
        grid = build_grid(small_path.n, small_path.delta, 0.6, 12.0, bump)
        base = spectrum(small_path, bump, grid)
        c = 3.7
        scaled = spectrum(SampledPath(small_path.delta, c * small_path.values), bump, grid)
        assert np.max(np.abs(scaled.y - base.y - 2.0 * np.log(c))) <= 1e-12

    def test_zero_path_degenerate(self, bump):
        path = SampledPath(delta=0.05, values=np.zeros(512))
        grid = build_grid(path.n, path.delta, 0.6, 12.0, bump)
        with pytest.raises(DegeneratePathError, match="zero wavelet energy"):
            spectrum(path, bump, grid)

    def test_single_shift_at_barely_covered_scale(self, bump):
        # floor((1-r) n/a) >= floor(r n/a) for r < 1/3, so the shift set is
        # never empty; at n f / beta < 1 it degenerates to a single shift
        # (and build_grid warns that the band is too low for the data size)
        rng = np.random.default_rng(15)
        path = SampledPath(delta=0.05, values=np.cumsum(rng.standard_normal(400)))
        with pytest.warns(UserWarning, match="f_min"):
            grid = build_grid(path.n, path.delta, 0.025, 12.0, bump)
        sp = spectrum(path, bump, grid)
        assert sp.counts[0] == 1
        assert np.all(sp.counts >= 1)

    def test_trimming_fraction_domain(self, bump, small_path):
        grid = build_grid(small_path.n, small_path.delta, 0.6, 12.0, bump)
        for bad in (0.0, 1.0 / 3.0, 0.5):
            with pytest.raises(ValueError, match="trimming"):
                spectrum(small_path, bump, grid, r=bad)

    def test_fbm_slope_recovers_hurst(self, bump, fbm06_paths):
        """OLS slope of the log-spectrum near -(2H+1) = -2.2 on the production grid."""
        path = fbm06_paths[0]
        grid = build_grid(path.n, path.delta, 0.05, 20.0, bump)
        sp = spectrum(path, bump, grid)
        slope = np.polyfit(grid.log_f, sp.y, 1)[0]
        assert slope == pytest.approx(-2.2, abs=0.15)

    def test_single_regime_law_over_replications(self, bump):
        """Monte Carlo mean of the empirical coefficient variance at one scale
        matches the exact value within 3 standard errors (200 replications)."""
        from mfbm import PathSampler

        model = ModelSpec.fbm(0.6, 1.0)
        n, delta, a = 1500, 0.03, 1.25
        sampler = PathSampler(model, n, delta)
        reach = bump.decay_reach()
        vals = []
        for s in range(200):
            path = sampler.draw(seed=71, stream=s)
            m0, m1 = _shift_range(n, a, 0.1)
            e = scale_coeffs_reference(path, bump, a, m0, m1, reach)
            vals.append(np.mean(e * e))
        want = theoretical_variance(model, bump, a)
        se = np.std(vals, ddof=1) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - want) <= 3.0 * se

    @pytest.mark.parametrize("a", [0.06, 0.25, 12.5, 200.0])
    def test_closed_form_mean_square(self, bump, fbm06_paths, a):
        """The Dirichlet-kernel mean square equals the mean of e^2 over the
        explicit per-shift coefficients built from the same profile samples."""
        path = fbm06_paths[0]
        reach = bump.decay_reach()
        m0, m1 = _shift_range(path.n, a, 0.1)
        e = scale_coeffs_reference(path, bump, a, m0, m1, reach)
        phase0, phase_step, v = scale_samples_reference(path, bump, a, reach)
        kernels = _scale_kernels(phase0, phase_step, v.size, m1 - m0 + 1, np.empty(3 * v.size - 2))
        got = (path.delta / np.pi) ** 2 / a * _mean_square(recentred(v, phase0, phase_step, m0, m1),
                                                            m0, m1, kernels)
        want = float(np.mean(e * e))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("m0, m1", [(0, 0), (3, 8), (4, 8), (10, 109)])
    @pytest.mark.parametrize("phase0, phase_step", [(0.3, 1e-3), (2.9, 1.3), (np.pi, np.pi / 2)])
    def test_mean_square_matches_explicit_sum(self, m0, m1, phase0, phase_step):
        """The closed form against the sum it replaces, with phases that wrap past
        2 pi and that hit multiples of 2 pi exactly, at odd and even shift counts."""
        rng = np.random.default_rng(m1)
        v = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        k = np.arange(m0, m1 + 1)
        g = np.exp(1j * np.outer(k, phase0 + phase_step * np.arange(v.size))) @ v
        kernels = _scale_kernels(phase0, phase_step, v.size, m1 - m0 + 1, np.empty(3 * v.size - 2))
        got = _mean_square(recentred(v, phase0, phase_step, m0, m1), m0, m1, kernels)
        assert got == pytest.approx(np.mean(g.real**2), rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("make", [BandWavelet.bump, meyer_shifted],
                             ids=["bump", "meyer-shifted"])
    @pytest.mark.parametrize("cell", list(BENCH_GRIDS))
    def test_matches_per_scale_reference(self, make, cell):
        """One zoom transform per octave of scales gives the per-scale two-stage
        spectrum to 5e-9 in Y: only the profile's quadrature nodes move, and
        both node sets keep the kernel's images below the tail tolerance."""
        model, n, band = BENCH_GRIDS[cell]
        w = make()
        path = PathSampler(model, n, 0.03).draw(seed=23, stream=0)
        grid = build_grid(n, 0.03, *band, w)
        fast = spectrum(path, w, grid)
        slow = per_scale_spectrum_reference(path, w, grid)
        assert np.max(np.abs(fast.y - slow.y)) <= 5e-9
        assert np.array_equal(fast.counts, slow.counts)

    def test_one_zoom_transform_per_octave(self, bump, fbm06_paths, monkeypatch):
        """On the fBm production grid (scales 0.25 to 200) the spectrum makes
        at most ceil(log2(a_max / a_min)) + 1 chirp-z transforms, against two
        per scale (362) for the per-scale route."""
        path = fbm06_paths[0]
        grid = build_grid(path.n, path.delta, 0.05, 20.0, bump)
        calls = recorded_chirp_z(monkeypatch)
        spectrum(path, bump, grid)
        assert len(calls) <= int(np.ceil(np.log2(grid.f[-1] / grid.f[0]))) + 1


class TestPlan:
    """The wavelet keeps the path-independent part of the last spectrum (zoom
    lattices, node and shift ranges, Dirichlet kernels, recentred profile
    weights) for the next one."""

    def test_reused_and_rebuilt_plans_are_bit_identical(self, fbm06_paths):
        w = BandWavelet.bump(5.0, 10.0)
        path = fbm06_paths[0]
        short = SampledPath(path.delta, path.values[:4000])
        grid_a = build_grid(path.n, path.delta, 0.8, 16.0, w)
        grid_b = build_grid(path.n, path.delta, 0.05, 20.0, w)
        grid_short = build_grid(short.n, short.delta, 0.8, 16.0, w)
        for p, grid, r in [(path, grid_a, 0.1), (path, grid_b, 0.1), (path, grid_a, 0.1),
                           (path, grid_a, 0.2), (short, grid_short, 0.2), (path, grid_a, 0.2)]:
            got = spectrum(p, w, grid, r=r)
            fresh = spectrum(p, BandWavelet.bump(5.0, 10.0), grid, r=r)
            assert np.array_equal(got.y, fresh.y)
            assert np.array_equal(got.counts, fresh.counts)

    def test_kernels_made_once_per_grid(self, fbm06_paths, monkeypatch):
        """The first spectrum on a grid makes the two Dirichlet kernels of every
        scale, a repeat on the same grid makes none."""
        w = BandWavelet.bump(5.0, 10.0)
        grid = build_grid(6000, 0.03, 0.8, 16.0, w)
        calls = []
        own = wavelet._dirichlet

        def counted(x, count):
            calls.append(count)
            return own(x, count)

        monkeypatch.setattr(wavelet, "_dirichlet", counted)
        spectrum(fbm06_paths[0], w, grid)
        assert len(calls) == 2 * grid.f.size
        spectrum(fbm06_paths[1], w, grid)
        assert len(calls) == 2 * grid.f.size

    def test_profile_sampled_once_per_grid(self, fbm06_paths, monkeypatch):
        """The first spectrum on a grid samples the profile once per scale and
        twists the samples once; a repeat on the same grid does neither, so its
        only exp calls are the two chirps of each zoom transform."""
        w = BandWavelet.bump(5.0, 10.0)
        w.decay_reach()
        grid = build_grid(6000, 0.03, 0.8, 16.0, w)
        profile_calls, exp_calls = [], []
        own_profile, own_exp = BandWavelet.profile_values, np.exp

        def counted_profile(self, xi):
            profile_calls.append(np.size(xi))
            return own_profile(self, xi)

        def counted_exp(x, *args, **kwargs):
            exp_calls.append(np.size(x))
            return own_exp(x, *args, **kwargs)

        monkeypatch.setattr(BandWavelet, "profile_values", counted_profile)
        monkeypatch.setattr(np, "exp", counted_exp)
        spectrum(fbm06_paths[0], w, grid)
        assert len(profile_calls) == grid.f.size
        profile_calls.clear()
        exp_calls.clear()
        spectrum(fbm06_paths[1], w, grid)
        assert profile_calls == []
        assert len(exp_calls) == 2 * len(wavelet._spectrum_plan(w, grid, 6000, 0.03, 0.1))

    def test_kernel_bytes_bounded_by_nodes(self, fbm06_paths):
        """At most three float64 per lattice node a scale uses."""
        plan, nodes = m1_plan_and_nodes(fbm06_paths[0])
        assert sum(g.kernels.nbytes for g in plan) <= 24 * nodes

    def test_weight_bytes_bounded_by_nodes(self, fbm06_paths):
        """At most one complex128 per lattice node a scale uses."""
        plan, nodes = m1_plan_and_nodes(fbm06_paths[0])
        assert sum(g.weights.nbytes for g in plan) <= 16 * nodes


def m1_plan_and_nodes(path):
    """The plan of a spectrum on the M1 benchmark grid, and the number of lattice
    nodes its scales use."""
    w = BandWavelet.bump(5.0, 10.0)
    grid = build_grid(6000, 0.03, 0.8, 16.0, w)
    spectrum(path, w, grid)
    plan = wavelet._spectrum_plan(w, grid, 6000, 0.03, 0.1)
    return plan, sum(q1 - q0 + 1 for g in plan for (_, q0, q1, _, _), _, _ in g.rows)


class TestReach:
    def test_reach_bounds_tail(self, bump):
        r = bump.decay_reach()
        ts = np.linspace(r, r + 50, 200)
        # envelope beyond the reach stays below the tolerance
        env = np.abs(fourier_sum(bump, ts, guard=2 * ts[-1] + 128))
        assert np.max(env) <= 2e-10 * bump.psi0

    @pytest.mark.parametrize("make, want", [
        (BandWavelet.bump, 773.3805087786604),
        (meyer_shifted, 298.0),
        (lambda: BandWavelet.bump(1.0, 2.0), 285.84513020910293),
        (lambda: BandWavelet.bump(0.5, 3.0), 470.25661897481547),
        (lambda: bump_table(50_000), 722.4867077905229),
    ], ids=["bump-5-10", "meyer-shifted", "bump-1-2", "bump-0.5-3", "table-50k"])
    def test_reach_matches_dense_scan(self, make, want):
        """The chirp-z reach scan gives the dense-sum scan's reach exactly, with
        envelopes within 1e-12 psi(0) on every block of the scan."""
        w = make()
        reach, blocks = dense_reach(w)
        for t_lo, step, ts, guard, env in blocks:
            fast = _envelope(w, t_lo, step, ts.size, span=guard)
            assert np.max(np.abs(fast - env)) <= 1e-12 * w.psi0
        assert w.decay_reach() == reach == want


def recentred(v, phase0, phase_step, m0, m1):
    """v times the twist exp(i c (phase0 + q phase_step)), c = (m0 + m1) / 2,
    that the spectrum plan folds into each scale's weights."""
    return v * np.exp(0.5j * (m0 + m1) * (phase0 + phase_step * np.arange(v.size)))


def recorded_chirp_z(monkeypatch):
    """Patch the library's chirp-z transform to log (x, m, theta, phi0, result)."""
    calls = []
    own = wavelet._chirp_z

    def record(x, m, theta, phi0):
        out = own(x, m, theta, phi0)
        calls.append((x, m, theta, phi0, out))
        return out

    monkeypatch.setattr(wavelet, "_chirp_z", record)
    return calls


def assert_matches_czt(calls, tol=1e-9):
    """Agreement relative to sum_j |x_j|, the bound on every output. The far
    blocks of the reach scan cancel down to 1e-11 of that bound, so their
    own maximum is no scale for rounding error."""
    for x, m, theta, phi0, out in calls:
        ref = czt_reference(x, m, theta, phi0)
        assert np.max(np.abs(out - ref)) <= tol * np.sum(np.abs(x))


class TestChirpZ:
    @pytest.mark.parametrize("f_min, f_max", [(0.05, 20.0), (0.8, 16.0), (2.0, 80.0)],
                             ids=["a-0.25-to-200", "a-0.3125-to-12.5", "a-0.0625-to-5"])
    def test_scale_stages_match_scipy(self, bump, fbm06_paths, monkeypatch, f_min, f_max):
        """Every zoom transform of one spectrum agrees with scipy.signal.czt:
        each runs over the n = 6000 path, starts at alpha delta / a_hi for the
        largest scale a_hi of its octave and steps at most 2 pi / n. The third
        band reaches scale 0.0625, where the octave's transform has m about 4700."""
        path = fbm06_paths[0]
        grid = build_grid(path.n, path.delta, f_min, f_max, bump)
        calls = recorded_chirp_z(monkeypatch)
        spectrum(path, bump, grid)
        starts = np.array([phi0 for _, _, _, phi0, _ in calls])
        assert all(x.size == path.n for x, *_ in calls)
        assert all(0.0 < theta <= 2.0 * np.pi / path.n for _, _, theta, _, _ in calls)
        assert starts[0] == pytest.approx(bump.alpha * path.delta * grid.f[0])
        assert np.all(np.diff(starts) > 0)
        assert_matches_czt(calls)

    def test_reach_scan_matches_scipy(self, monkeypatch):
        """Every block of a fresh decay-reach scan agrees with scipy.signal.czt."""
        calls = recorded_chirp_z(monkeypatch)
        BandWavelet.bump(5.0, 10.0).decay_reach()
        assert len(calls) >= 3
        assert_matches_czt(calls)

    @pytest.mark.parametrize("n, m", [(1, 4), (4, 1), (7, 7), (100, 513)])
    def test_small_shapes_match_scipy(self, n, m):
        rng = np.random.default_rng(n * 1000 + m)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = wavelet._chirp_z(x, m, 0.37, -1.1)
        assert out.shape == (m,)
        assert_matches_czt([(x, m, 0.37, -1.1, out)])

    def test_import_leaves_scipy_signal_out(self):
        """Neither the library nor its CLI loads scipy.signal (about 0.9 s of import)."""
        assert_import_leaves_out("scipy.signal")

    def test_import_leaves_scipy_linalg_out(self):
        """Neither the library nor its CLI loads scipy.linalg: FGLS and the test
        statistic whiten with numpy's Cholesky factor."""
        assert_import_leaves_out("scipy.linalg")


def assert_import_leaves_out(module):
    """`import mfbm, mfbm.cli` in a fresh interpreter does not load `module`."""
    src = os.path.dirname(os.path.dirname(wavelet.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = f"import mfbm, mfbm.cli, sys; assert {module!r} not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
