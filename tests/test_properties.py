"""Property tests: invariants checked over randomly drawn inputs rather than
at a few spot values."""

import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import mfbm.cli as cli
from mfbm import (ModelSpec, PathSampler, SampledPath, build_grid, refine_points, select_k,
                  sigma_matrix, spectrum)
from mfbm.errors import AnalysisError
from mfbm.wavelet import BandWavelet, _chirp_z

from oracles import czt_reference, meyer_shifted, per_scale_spectrum_reference

FIT_KEYS = {"K", "breakpoints", "omegas", "segments", "segments_ols", "T_stat", "dof",
            "p_value", "accepted", "level", "r"}
SEGMENT_KEYS = {"H", "sigma2", "slope", "intercept", "points", "flavor", "clamped",
                "regularized", "lambda_cov"}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(256, 1024),
       c=st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False))
def test_spectrum_shifts_by_two_log_c_under_scaling(bump, seed, n, c):
    """Scaling a path by c scales every coefficient by c, so Y moves by 2 log c."""
    rng = np.random.default_rng(seed)
    path = SampledPath(delta=0.05, values=np.cumsum(rng.standard_normal(n)))
    grid = build_grid(n, path.delta, 0.6, 12.0, bump)
    base = spectrum(path, bump, grid)
    scaled = spectrum(SampledPath(path.delta, c * path.values), bump, grid)
    assert np.max(np.abs(scaled.y - base.y - 2.0 * np.log(c))) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(hurst=st.floats(0.02, 0.98), f0=st.floats(0.05, 20.0),
       gaps=st.lists(st.floats(1.001, 3.0), min_size=2, max_size=6))
def test_sigma_matrix_symmetric_psd_banded(bump, hurst, f0, gaps):
    """Sigma is a covariance: symmetric and positive semidefinite, and exactly
    zero between refine frequencies whose bands are disjoint."""
    g = f0 * np.cumprod([1.0, *gaps])
    s = sigma_matrix(hurst, g, bump, 0.1)
    assert np.array_equal(s, s.T)
    eigs = np.linalg.eigvalsh(s)
    assert eigs[0] >= -1e-12 * eigs[-1]
    disjoint = g[None, :] / g[:, None] >= bump.ratio
    assert np.all(s[disjoint] == 0.0)


@settings(max_examples=15, deadline=None)
@given(hurst=st.floats(0.05, 0.95), sigma2=st.floats(0.01, 100.0), n=st.integers(2, 2500),
       delta=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1), stream=st.integers(0, 99))
def test_simulate_csv_round_trip(hurst, sigma2, n, delta, seed, stream):
    """`mfbm simulate` writes every value so that reading the CSV back gives
    the drawn path exactly, step included."""
    want = PathSampler(ModelSpec.fbm(hurst, float(np.sqrt(sigma2))), n, delta).draw(seed, stream)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "path.csv"
        rc = cli.main(["simulate", "--hurst", repr(hurst), "--sigma2", repr(sigma2),
                       "--n", str(n), "--delta", repr(delta), "--seed", str(seed),
                       "--stream", str(stream), "--out", str(out)])
        assert rc == 0
        got = cli._read_path_csv(out, None)
    assert got.delta == delta
    assert np.array_equal(got.values, want.values)


@settings(max_examples=10, deadline=None)
@given(hurst=st.floats(0.1, 0.9), n=st.integers(1000, 2500), seed=st.integers(0, 2**32 - 1),
       k_max=st.integers(0, 1))
def test_fit_report_json_round_trip(bump, hurst, n, seed, k_max):
    """A fit report survives JSON unchanged, with exactly the documented keys."""
    path = PathSampler(ModelSpec.fbm(hurst, 1.0), n, 0.03).draw(seed)
    report = select_k(path, bump, f_min=0.5, f_max=16.0, k_max=k_max).to_dict()
    assert json.loads(json.dumps(report)) == report
    assert set(report) == FIT_KEYS
    for seg in report["segments"] + report["segments_ols"]:
        assert set(seg) == SEGMENT_KEYS


@settings(max_examples=200, deadline=None)
@given(n=st.integers(100, 50000), delta=st.floats(0.001, 0.2), f_min=st.floats(0.01, 2.0),
       span=st.floats(1.5, 200.0), alpha=st.floats(0.5, 10.0), ratio=st.floats(1.05, 4.0),
       m=st.integers(3, 8), data=st.data())
def test_refine_points_of_adjacent_segments_have_disjoint_bands(n, delta, f_min, span, alpha,
                                                                ratio, m, data):
    """Refine points of adjacent segments sit at least tau_n + 2 grid steps
    apart, and q^(tau_n + 1) > beta/alpha, so their frequency ratio reaches
    the band ratio on every grid and for every admissible segmentation with
    room for m points: no covariance entry couples two segments."""
    w = BandWavelet.bump(alpha, alpha * ratio)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            grid = build_grid(n, delta, f_min, f_min * span, w)
        except AnalysisError:
            assume(False)
    shortest = grid.tau_n + m + 1  # refine_points needs a step of at least 1
    end = grid.a_n + grid.tau_n
    assume(end >= shortest)
    k = data.draw(st.integers(0, min(end // shortest - 1, 4)), label="k")
    slack = end - (k + 1) * shortest
    cuts = sorted(data.draw(st.lists(st.integers(0, slack), min_size=k, max_size=k), label="cuts"))
    lengths = shortest + np.diff([0, *cuts, slack])
    t = tuple(int(v) for v in np.concatenate(([0], np.cumsum(lengths))))
    points = refine_points(t, grid, m)
    for prev, nxt in zip(points, points[1:]):
        assert nxt[0] - prev[-1] >= grid.tau_n + 2
        assert grid.f[nxt[0]] / grid.f[prev[-1]] >= w.ratio


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(alpha=st.floats(1.0, 8.0), ratio=st.floats(1.3, 3.0), meyer=st.booleans(),
       n=st.integers(300, 2500), delta=st.floats(0.01, 0.1), shifts=st.floats(10.0, 40.0),
       span=st.floats(4.0, 40.0), r=st.floats(0.02, 0.32), seed=st.integers(0, 2**32 - 1))
def test_spectrum_matches_per_scale_reference(alpha, ratio, meyer, n, delta, shifts, span, r, seed):
    """The zoom-transform spectrum with its kept plan against the per-scale route
    that builds every coefficient, to 5e-9 in Y, on random wavelets, paths,
    grids and trimming fractions. f_min puts `shifts` times beta / n shifts
    at the largest scale; f_max = span f_min."""
    w = meyer_shifted() if meyer else BandWavelet.bump(alpha, alpha * ratio)
    f_min = shifts * w.beta / n
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # f_max / alpha may pass 1 / delta; both routes share it
        try:
            grid = build_grid(n, delta, f_min, span * f_min, w)
        except AnalysisError:
            assume(False)
    rng = np.random.default_rng(seed)
    path = SampledPath(delta=delta, values=np.cumsum(rng.standard_normal(n)))
    fast = spectrum(path, w, grid, r=r)
    slow = per_scale_spectrum_reference(path, w, grid, r=r)
    assert np.max(np.abs(fast.y - slow.y)) <= 5e-9
    assert np.array_equal(fast.counts, slow.counts)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 1500), m=st.integers(1, 1500), theta=st.floats(-1.0, 1.0),
       phi0=st.floats(-10.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_chirp_z_matches_scipy(n, m, theta, phi0, seed):
    """The library's Bluestein transform against scipy.signal.czt on random
    shapes and phases, to 1e-9 of sum |x_j|, the bound on every output."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = _chirp_z(x, m, theta, phi0)
    assert out.shape == (m,)
    assert np.max(np.abs(out - czt_reference(x, m, theta, phi0))) <= 1e-9 * np.sum(np.abs(x))
