"""Kolmogorov-Smirnov helper and the replication harness."""

import json

import numpy as np
import pytest

from mfbm import ModelSpec
from mfbm.errors import ConfigError
from mfbm.inference import chi2_cdf
from mfbm.montecarlo import ReplicationStudy, StudyResult, ks_statistic, make_wavelet, run_study
from mfbm.simulate import uniform_stream


class TestKsStatistic:
    def test_exact_quantile_samples(self):
        n = 40
        samples = (np.arange(1, n + 1) - 0.5) / n  # identity cdf quantiles
        d, _ = ks_statistic(samples, lambda x: x)
        assert d == pytest.approx(0.5 / n, rel=1e-12)

    def test_point_mass_at_zero(self):
        d, p = ks_statistic(np.zeros(20), lambda x: chi2_cdf(x, 3))
        assert d == pytest.approx(1.0)
        assert p < 1e-6

    def test_uniform_samples_pass(self):
        u = uniform_stream(42, 0).random(100)
        d, p = ks_statistic(u, lambda x: np.clip(x, 0.0, 1.0))
        assert p > 0.05

    def test_needs_five_samples(self):
        with pytest.raises(ValueError, match="five"):
            ks_statistic([0.1, 0.2], lambda x: x)

    def test_p_matches_series(self):
        # asymptotic series 2 sum (-1)^(k-1) exp(-2 k^2 lambda^2)
        samples = np.linspace(0.03, 0.93, 25)
        d, p = ks_statistic(samples, lambda x: np.clip(x, 0, 1))
        lam = np.sqrt(samples.size) * d
        series = 2.0 * sum((-1) ** (k - 1) * np.exp(-2.0 * k**2 * lam**2) for k in range(1, 80))
        assert p == pytest.approx(series, rel=1e-10)


class TestMakeWavelet:
    def test_bump_keyed_by_band(self):
        assert make_wavelet("bump", 5.0, 10.0) is make_wavelet("bump")
        assert make_wavelet("bump", 8.0, 16.0) is not make_wavelet("bump")

    def test_unknown_kind(self):
        for kind in ("haar", "meyer-shifted"):
            with pytest.raises(ConfigError, match="unknown wavelet kind"):
                make_wavelet(kind)


@pytest.fixture(scope="module")
def tiny_study():
    return ReplicationStudy(
        model=ModelSpec.fbm(0.5, 1.0), n=1200, delta=0.03,
        f_min=0.5, f_max=16.0, m=5, seed=42, replications=4,
    )


@pytest.fixture(scope="module")
def two_regime_result():
    study = ReplicationStudy(
        model=ModelSpec(hurst=(0.2, 0.7), sigma=(np.sqrt(10), np.sqrt(5)), omega=(5.0,)),
        n=2000, delta=0.03, f_min=0.8, f_max=16.0, seed=7, replications=2,
    )
    return run_study(study)


class TestRunStudy:
    def test_sequential_run_and_stats(self, tiny_study):
        result = run_study(tiny_study)
        assert len(result.ok) == 4
        assert result.failures == []
        stats = result.stats()
        assert stats["completed"] == 4
        assert stats["k_true"] == 0
        assert len(stats["H_fgls_mean"]) == 1
        assert 0.2 < stats["H_fgls_mean"][0] < 0.8
        assert stats["T_dof"] == 3
        assert len(stats["T_samples"]) == 4
        assert stats["ks_D"] is None  # KS needs at least five samples

    def test_workers_reproduce_sequential(self, tiny_study):
        seq = run_study(tiny_study, workers=1)
        par = run_study(tiny_study, workers=2)
        for a, b in zip(seq.records, par.records):
            assert a["fits"][0].t_stat == b["fits"][0].t_stat
            assert ([s.hurst for s in a["fits"][0].segments]
                    == [s.hurst for s in b["fits"][0].segments])

    def test_replication_floor(self):
        with pytest.raises(ConfigError, match="two replications"):
            ReplicationStudy(
                model=ModelSpec.fbm(0.5, 1.0), n=1200, delta=0.03,
                f_min=0.5, f_max=16.0, replications=1,
            )

    @pytest.mark.parametrize("band, want", [
        pytest.param((8, 16), (8.0, 16.0), id="bump-band2-want2"),
    ])
    def test_study_holds_the_band_it_analyses(self, band, want):
        """A study's alpha and beta are those of its wavelet, as floats."""
        study = ReplicationStudy(
            model=ModelSpec.fbm(0.5, 1.0), n=1200, delta=0.03, f_min=0.5, f_max=16.0,
            alpha=band[0], beta=band[1], replications=2,
        )
        w = study.wavelet()
        assert (study.alpha, study.beta) == (w.alpha, w.beta) == want
        assert type(study.alpha) is float and type(study.beta) is float

    def test_two_regime_selection_fields(self, two_regime_result):
        stats = two_regime_result.stats()
        assert stats["k_true"] == 1
        assert "omega_mean" in stats
        assert stats["T_dof"] == 6
        assert len(stats["H_fgls_mean"]) == 2

    def test_one_completed_replication_is_strict_json(self, two_regime_result):
        """With one replication completed and one failed, every sd is None
        rather than NaN, so the table is strict JSON."""
        ok = two_regime_result.records[0]
        result = StudyResult(two_regime_result.study, [ok, {"stream": 1, "error": "forced"}])
        stats = result.stats()
        assert (stats["completed"], stats["failures"]) == (1, 1)
        assert stats["H_fgls_sd"] is stats["H_ols_sd"] is stats["omega_sd"] is None
        assert json.loads(json.dumps(stats, allow_nan=False)) == stats

    def test_fits_reach_the_true_order_past_k_max(self):
        """With k_max below the true order, selection stops at K = 0 and each
        replication still carries the fit at the true order."""
        study = ReplicationStudy(
            model=ModelSpec(hurst=(0.2, 0.7), sigma=(np.sqrt(10), np.sqrt(5)), omega=(5.0,)),
            n=2000, delta=0.03, f_min=0.8, f_max=16.0, k_max=0, seed=7, replications=2,
        )
        result = run_study(study)
        assert len(result.ok) == 2
        for rec in result.records:
            assert [f.k for f in rec["fits"]] == [0, 1]
            assert rec["selected_k"] == (0 if rec["fits"][0].accepted else None)
