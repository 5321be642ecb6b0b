"""Replication harness: simulate, fit, and tabulate estimator statistics.

Each replication r of a run draws its path from stream r of the run seed,
so results are identical whether replications execute sequentially or on a
worker pool. Per-replication failures are recorded and counted, never fatal.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import kolmogorov

from .changepoint import build_grid
from .errors import ConfigError, MfbmError
from .inference import chi2_cdf, fit_fixed_k
from .model import ModelSpec, SampledPath
from .simulate import PathSampler
from .wavelet import BandWavelet, spectrum

__all__ = ["ks_statistic", "ReplicationStudy", "StudyResult", "run_study"]


def ks_statistic(samples, cdf):
    """Kolmogorov-Smirnov distance of the sample against a continuous cdf,
    with the asymptotic-series p-value at lambda = sqrt(n) D."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n < 5:
        raise ValueError("need at least five samples for a meaningful distance")
    f = np.asarray(cdf(x), dtype=float)
    i = np.arange(1, n + 1)
    d = float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))
    p = float(kolmogorov(np.sqrt(n) * d))
    return d, p


_WAVELET_CACHE: dict = {}


def make_wavelet(kind: str, alpha: float = 5.0, beta: float = 10.0) -> BandWavelet:
    """Process-local wavelet cache. A bump is keyed by its band; the Meyer
    wavelet's band is always [pi, 2 pi], so it is keyed by kind alone and
    alpha and beta are ignored for it."""
    if kind not in ("bump", "meyer-shifted"):
        raise ConfigError(f"unknown wavelet kind {kind!r} (use bump or meyer-shifted)")
    key = (kind, float(alpha), float(beta)) if kind == "bump" else (kind,)
    if key not in _WAVELET_CACHE:
        _WAVELET_CACHE[key] = (BandWavelet.bump(alpha, beta) if kind == "bump"
                               else BandWavelet.meyer_shifted())
    return _WAVELET_CACHE[key]


@dataclass(frozen=True)
class ReplicationStudy:
    """One Monte Carlo cell: a model, a sampling grid, and analysis settings."""

    model: ModelSpec
    n: int
    delta: float
    f_min: float
    f_max: float
    wavelet_kind: str = "bump"
    alpha: float = 5.0
    beta: float = 10.0
    m: int = 5
    r: float = 0.1
    level: float = 0.05
    k_max: int = 2
    seed: int = 0
    replications: int = 30

    def __post_init__(self):
        if self.replications < 2:
            raise ConfigError("need at least two replications")
        w = self.wavelet()  # the study holds the band it analyses: Meyer's is always [pi, 2 pi]
        object.__setattr__(self, "alpha", w.alpha)
        object.__setattr__(self, "beta", w.beta)

    def wavelet(self) -> BandWavelet:
        return make_wavelet(self.wavelet_kind, self.alpha, self.beta)


@dataclass
class StudyResult:
    study: ReplicationStudy
    records: list
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return [r for r in self.records if r is not None]

    def stats(self) -> dict:
        """Parameter means/sds at the true order, pooled test statistics with
        their KS check, and selection tallies."""
        k_true = self.study.model.k
        ok = self.ok
        out = {
            "replications": self.study.replications,
            "completed": len(ok),
            "failures": len(self.failures),
            "k_true": k_true,
        }
        if not ok:
            return out
        h_fgls = np.array([r["fits"][k_true]["H_fgls"] for r in ok])
        h_ols = np.array([r["fits"][k_true]["H_ols"] for r in ok])
        out["H_fgls_mean"] = h_fgls.mean(axis=0).tolist()
        out["H_fgls_sd"] = h_fgls.std(axis=0, ddof=1).tolist()
        out["H_ols_mean"] = h_ols.mean(axis=0).tolist()
        out["H_ols_sd"] = h_ols.std(axis=0, ddof=1).tolist()
        if k_true > 0:
            om = np.array([r["fits"][k_true]["omegas"] for r in ok])
            out["omega_mean"] = om.mean(axis=0).tolist()
            out["omega_sd"] = om.std(axis=0, ddof=1).tolist()
        t_true = np.array([r["fits"][k_true]["T"] for r in ok])
        dof = ok[0]["fits"][k_true]["dof"]
        out["T_samples"] = t_true.tolist()
        out["T_dof"] = dof
        if t_true.size >= 5:
            d, p = ks_statistic(t_true, lambda x: chi2_cdf(x, dof))
            out["ks_D"] = d
            out["ks_p"] = p
        else:
            out["ks_D"] = out["ks_p"] = None
        out["reject_k0_rate"] = float(np.mean([not r["fits"][0]["accepted"] for r in ok]))
        out["accept_ktrue_rate"] = float(np.mean([r["fits"][k_true]["accepted"] for r in ok]))
        out["selected_k"] = [r["selected_k"] for r in ok]
        return out


def _replicate(args) -> dict:
    """Worker body: analyze one already-simulated path."""
    values, study, stream = args
    w = study.wavelet()
    path = SampledPath(delta=study.delta, values=values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        grid = build_grid(path.n, path.delta, study.f_min, study.f_max, w)
        spec = spectrum(path, w, grid, r=study.r)
        k_top = max(study.k_max, study.model.k)
        fits = {}
        selected = None
        for k in range(k_top + 1):
            fit = fit_fixed_k(spec, w, k, m=study.m, level=study.level)
            fits[k] = {
                "T": fit.t_stat,
                "dof": fit.dof,
                "p": fit.p_value,
                "accepted": fit.accepted,
                "H_fgls": [s.hurst for s in fit.segments],
                "H_ols": [s.hurst for s in fit.segments_ols],
                "sigma2_fgls": [s.sigma2 for s in fit.segments],
                "omegas": [float(v) for v in fit.omegas],
                "clamped": any(s.clamped for s in fit.segments),
            }
            if selected is None and fit.accepted and k <= study.k_max:
                selected = k
            if k >= study.model.k and selected is not None:
                break
    return {"stream": stream, "fits": fits, "selected_k": selected}


def _replicate_safe(args):
    try:
        return _replicate(args), None
    except MfbmError as e:
        return None, f"{type(e).__name__}: {e}"


def run_study(study: ReplicationStudy, workers: int = 1) -> StudyResult:
    """Simulate and analyze all replications of one cell.

    Paths are drawn in the parent process (one circulant embedding per cell);
    the analyses fan out to `workers` processes when workers > 1.
    """
    w = study.wavelet()
    study.model.check_analysis_band(w.alpha, w.beta, study.f_min, study.f_max)
    sampler = PathSampler(study.model, study.n, study.delta)
    jobs = [(sampler.draw(study.seed, stream=rep).values, study, rep)
            for rep in range(study.replications)]
    records: list = [None] * study.replications
    failures = []
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_replicate_safe, jobs))
    else:
        outcomes = [_replicate_safe(job) for job in jobs]
    for rep, (rec, err) in enumerate(outcomes):
        records[rep] = rec
        if err is not None:
            failures.append({"stream": rep, "error": err})
    return StudyResult(study=study, records=records, failures=failures)
