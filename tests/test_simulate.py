"""Gaussian synthesis: stream determinism, the circulant embedding against
the model covariance, and distributional checks of the drawn paths."""

import numpy as np
import pytest

from mfbm import ModelSpec, PathSampler, covariance_matrix
from mfbm.errors import SimulationError
from mfbm.simulate import standard_normals

from conftest import FBM06
from oracles import empirical_variogram


class TestStreams:
    def test_determinism(self):
        a = standard_normals(1000, seed=5, stream=2)
        b = standard_normals(1000, seed=5, stream=2)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = standard_normals(1000, seed=5, stream=0)
        b = standard_normals(1000, seed=5, stream=1)
        c = standard_normals(1000, seed=6, stream=0)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestGaussianVector:
    """The N(0, I) normals that every Gaussian draw colours."""

    def test_identity_statistics(self):
        z = standard_normals(30_000, seed=1)
        assert abs(z.mean()) < 0.05
        assert abs(z.var() - 1.0) < 0.05


class TestSimulatePath:
    def test_bitwise_determinism(self):
        a = PathSampler(ModelSpec.fbm(0.7, 1.0), 64, 0.1).draw(seed=9)
        b = PathSampler(ModelSpec.fbm(0.7, 1.0), 64, 0.1).draw(seed=9)
        assert np.array_equal(a.values, b.values)

    def test_rejects_bad_grid(self):
        """The grid is checked before any covariance is built."""
        model = ModelSpec.fbm(0.5, 1.0)
        with pytest.raises(ValueError, match="two samples"):
            PathSampler(model, 1, 0.01)
        with pytest.raises(ValueError, match="positive"):
            PathSampler(model, 64, 0.0)

    def test_brownian_increments_uncorrelated(self):
        sampler = PathSampler(ModelSpec.fbm(0.5, 1.0), 2000, 0.05)
        for s in range(10):
            inc = np.diff(sampler.draw(seed=31, stream=s).values)
            r1 = np.corrcoef(inc[:-1], inc[1:])[0, 1]
            assert abs(r1) <= 3.0 / np.sqrt(inc.size)

    def test_empirical_variogram_slope(self, fbm06_paths):
        """log V_N vs log lag over lags 1..100 has slope near 2H = 1.2."""
        lags = np.unique(np.geomspace(1, 100, 25).astype(int))
        slopes = []
        for path in fbm06_paths:
            v = [empirical_variogram(path, int(lag)) for lag in lags]
            slopes.append(np.polyfit(np.log(lags), np.log(v), 1)[0])
        assert abs(np.mean(slopes) - 2 * FBM06["hurst"]) <= 0.1

    @pytest.mark.parametrize("model, delta", [
        (ModelSpec.fbm(FBM06["hurst"], 1.0), FBM06["delta"]),
        (ModelSpec(hurst=(0.3, 0.7), sigma=(1.0, 0.5), omega=(2.0,)), 0.21),
    ], ids=["fbm06", "two-regime"])
    def test_embedding_covariance_exact(self, model, delta):
        """The covariance that the stored circulant eigenvalues give the path
        equals the model covariance matrix."""
        n = 64
        sampler = PathSampler(model, n, delta)
        # Re fft(scale * z) has autocovariance sum_k scale_k^2 cos(2 pi m k / 2n)
        row = np.fft.fft(sampler._scale**2).real[:n]
        increments = row[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
        cumulate = np.tril(np.ones((n, n)))
        implied = cumulate @ increments @ cumulate.T
        cov = covariance_matrix(model, delta * np.arange(1, n + 1))
        assert np.max(np.abs(implied - cov)) <= 1e-12 * np.max(np.abs(cov))

    def test_negative_embedding_rejected(self, monkeypatch):
        """A variogram that is no variogram (t^2.5) gives an embedding with a
        negative eigenvalue; the error names the min/max ratio."""
        monkeypatch.setattr("mfbm.simulate.variogram", lambda model, t: np.asarray(t) ** 2.5)
        with pytest.raises(SimulationError, match=r"min/max eigenvalue -\d\.\d\de-\d\d"):
            PathSampler(ModelSpec.fbm(0.5, 1.0), 64, 0.1)

    def test_sample_covariance_matches_model(self):
        """Entrywise agreement with the exact covariance within 5 standard errors."""
        model = ModelSpec(hurst=(0.3, 0.7), sigma=(1.0, 0.5), omega=(2.0,))
        n, draws = 24, 50_000
        sampler = PathSampler(model, n, 0.21)
        sample = np.stack([sampler.draw(seed=17, stream=s).values for s in range(draws)], axis=1)
        emp = (sample @ sample.T) / draws
        cov = covariance_matrix(model, 0.21 * np.arange(1, n + 1))
        se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / draws)
        assert np.max(np.abs(emp - cov) / se) <= 5.0

    def test_stationary_increments(self):
        """Variance of the lag-4 increment does not depend on its position."""
        model = ModelSpec(hurst=(0.25, 0.6), sigma=(1.0, 1.0), omega=(1.0,))
        n, draws, lag, groups = 64, 4000, 4, 6
        sampler = PathSampler(model, n, 0.1)
        sample = np.stack([sampler.draw(seed=23, stream=s).values for s in range(draws)], axis=1)
        inc = sample[lag:, :] - sample[:-lag, :]
        positions = np.linspace(0, inc.shape[0] - 1, groups).astype(int)
        variances = inc[positions].var(axis=1, ddof=1)
        # Bartlett-style homogeneity statistic ~ chi2(groups - 1) under equality
        pooled = variances.mean()
        stat = draws * np.sum(np.log(pooled / variances) + variances / pooled - 1.0)
        from mfbm.inference import chi2_upper_tail

        assert chi2_upper_tail(float(stat), groups - 1) > 0.01
