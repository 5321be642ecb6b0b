"""Replication harness: simulate, fit, and tabulate estimator statistics.

Each replication r of a run draws its path from stream r of the run seed,
so results are identical whether replications execute sequentially or on a
worker pool. Each path runs through select_k, the selection `mfbm fit`
runs, and keeps the FitResults it made. Per-replication failures are
recorded and counted, never fatal.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import kolmogorov

from .errors import ConfigError, MfbmError
from .inference import chi2_cdf, fit_fixed_k, select_k
from .model import ModelSpec, SampledPath
from .simulate import PathSampler
from .wavelet import BandWavelet

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
    """Process-local cache of bump wavelets keyed by band, so every fit in a
    process shares one wavelet's decay reach and spectrum plan. The bump is
    the only kind; `kind` stays because perfbench/workloads.py warms this
    cache with make_wavelet("bump", 5.0, 10.0) before timing `mfbm fit`."""
    if kind != "bump":
        raise ConfigError(f"unknown wavelet kind {kind!r} (the only kind is bump)")
    key = (float(alpha), float(beta))
    if key not in _WAVELET_CACHE:
        _WAVELET_CACHE[key] = BandWavelet.bump(alpha, beta)
    return _WAVELET_CACHE[key]


@dataclass(frozen=True)
class ReplicationStudy:
    """One Monte Carlo cell: a model, a sampling grid, and analysis settings."""

    model: ModelSpec
    n: int
    delta: float
    f_min: float
    f_max: float
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
        object.__setattr__(self, "alpha", float(self.alpha))  # floats, as its wavelet holds them
        object.__setattr__(self, "beta", float(self.beta))

    def wavelet(self) -> BandWavelet:
        return make_wavelet("bump", self.alpha, self.beta)


@dataclass
class StudyResult:
    """The records of one cell, one per replication in stream order.

    A completed replication is {"stream", "fits", "selected_k"}: `fits[K]` is
    the FitResult at K for K = 0 up to the larger of the order select_k
    stopped at and the true order, and `selected_k` is the accepted K, or
    None when no K up to k_max was accepted. A failed replication is
    {"stream", "error"}.
    """

    study: ReplicationStudy
    records: list

    @property
    def ok(self):
        return [r for r in self.records if "error" not in r]

    @property
    def failures(self):
        return [r for r in self.records if "error" in r]

    def stats(self) -> dict:
        """Parameter means/sds at the true order, pooled test statistics with
        their KS check, and selection tallies. The sds are None below two
        completed replications, and the KS check below five."""
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

        def sd(x):
            return x.std(axis=0, ddof=1).tolist() if len(x) > 1 else None

        at_true = [r["fits"][k_true] for r in ok]
        h_fgls = np.array([[s.hurst for s in f.segments] for f in at_true])
        h_ols = np.array([[s.hurst for s in f.segments_ols] for f in at_true])
        out["H_fgls_mean"] = h_fgls.mean(axis=0).tolist()
        out["H_fgls_sd"] = sd(h_fgls)
        out["H_ols_mean"] = h_ols.mean(axis=0).tolist()
        out["H_ols_sd"] = sd(h_ols)
        if k_true > 0:
            om = np.array([f.omegas for f in at_true])
            out["omega_mean"] = om.mean(axis=0).tolist()
            out["omega_sd"] = sd(om)
        t_true = np.array([f.t_stat for f in at_true])
        dof = at_true[0].dof
        out["T_samples"] = t_true.tolist()
        out["T_dof"] = dof
        if t_true.size >= 5:
            d, p = ks_statistic(t_true, lambda x: chi2_cdf(x, dof))
            out["ks_D"] = d
            out["ks_p"] = p
        else:
            out["ks_D"] = out["ks_p"] = None
        out["reject_k0_rate"] = float(np.mean([not r["fits"][0].accepted for r in ok]))
        out["accept_ktrue_rate"] = float(np.mean([f.accepted for f in at_true]))
        out["selected_k"] = [r["selected_k"] for r in ok]
        return out


def _replicate(args) -> dict:
    """Worker body: select K on one already-simulated path, then fit each K
    up to the true order that selection stopped short of."""
    values, study, stream = args
    w = study.wavelet()
    path = SampledPath(delta=study.delta, values=values)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fit = select_k(path, w, study.f_min, study.f_max, study.m, study.r, study.level,
                       study.k_max)
        fits = [*fit.rejected, fit]
        fits += [fit_fixed_k(fit.spectrum, w, k, m=study.m, level=study.level)
                 for k in range(len(fits), study.model.k + 1)]
    return {"stream": stream, "fits": fits, "selected_k": fit.k if fit.accepted else None}


def _replicate_safe(args) -> dict:
    try:
        return _replicate(args)
    except MfbmError as e:
        return {"stream": args[2], "error": f"{type(e).__name__}: {e}"}


def run_study(study: ReplicationStudy, workers: int = 1) -> StudyResult:
    """Simulate all replications of one cell and run each path through
    select_k; StudyResult describes the records.

    Paths are drawn in the parent process (one circulant embedding per cell);
    the analyses fan out to `workers` processes when workers > 1.
    """
    w = study.wavelet()
    study.model.check_analysis_band(w.alpha, w.beta, study.f_min, study.f_max)
    sampler = PathSampler(study.model, study.n, study.delta)
    jobs = [(sampler.draw(study.seed, stream=rep).values, study, rep)
            for rep in range(study.replications)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_replicate_safe, jobs))
    else:
        records = [_replicate_safe(job) for job in jobs]
    return StudyResult(study=study, records=records)
