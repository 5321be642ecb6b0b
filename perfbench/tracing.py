"""Spans and counts at the layer boundaries of mfbm, recorded from outside.

Tracer.install() replaces each public mfbm function listed in FUNCTIONS (and
the methods in METHODS) by a timing wrapper, under every name by which an
mfbm module sees it: `spectrum` is patched in mfbm.wavelet, and also in
mfbm.inference, mfbm.cli and mfbm.montecarlo, which import it by name.
uninstall() puts the originals back.

A span is (id, name, start, end, parent, op, pid); ids are (pid, sequence).
Spans and counts stay in memory. A process forked while the tracer is
installed (a Monte Carlo pool worker) starts with empty buffers, keeps the
spans open at the fork as parents, and appends its buffers as one JSON line
to worker-<pid>.jsonl whenever its outermost span closes, because forked pool
workers end through os._exit and never run atexit handlers.
"""

from __future__ import annotations

import json
import os
import time
from collections import Counter
from pathlib import Path

import mfbm
from mfbm import changepoint, cli, inference, model, montecarlo, simulate, wavelet

MODULES = (mfbm, model, simulate, wavelet, changepoint, inference, montecarlo, cli)

# (module that defines the function, attribute, span name)
FUNCTIONS = (
    (model, "variogram", "model.variogram"),
    (wavelet, "spectrum", "wavelet.spectrum"),
    (wavelet, "k_const", "wavelet.k_const"),
    (changepoint, "build_grid", "changepoint.build_grid"),
    (changepoint, "minimize_q", "changepoint.minimize_q"),
    (inference, "select_k", "inference.select_k"),
    (inference, "fit_fixed_k", "inference.fit_fixed_k"),
    (inference, "sigma_matrix", "inference.sigma_matrix"),
    (montecarlo, "run_study", "montecarlo.run_study"),
    (cli, "main", "cli.main"),
)

# (class, method, span name); PathSampler.__init__ is where the covariance
# is assembled and factored.
METHODS = (
    (simulate.PathSampler, "__init__", "simulate.factor"),
    (simulate.PathSampler, "draw", "simulate.draw"),
)


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._base = 0
        self._seq = 0
        self._pid = os.getpid()
        self._owner = self._pid
        self._patches: list = []
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording ------------------------------------------------------------

    def _after_fork(self):
        if not self._patches:
            return
        self._pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self._base = len(self._stack)

    def _enter(self, name):
        self._seq += 1
        span_id = (self._pid, self._seq)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return [span_id, name, time.perf_counter(), None, parent, self.op, self._pid]

    def _exit(self, span):
        span[3] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)
        if self._pid != self._owner and len(self._stack) == self._base:
            self._flush_worker()

    def _flush_worker(self):
        line = json.dumps({"spans": self.spans, "counts": dict(self.counts)})
        with open(self.out_dir / f"worker-{self._pid}.jsonl", "a") as fh:
            fh.write(line + "\n")
        self.spans = []
        self.counts = Counter()

    def _timed(self, name, func, name_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = tracer._enter(name_of(args, kwargs) if name_of else name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._exit(span)

        return wrapper

    # -- installing -------------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        for home, attr, name in FUNCTIONS:
            original = getattr(home, attr)
            name_of = None
            if name == "inference.fit_fixed_k":
                def name_of(args, kwargs):
                    k = kwargs["k"] if "k" in kwargs else args[2]
                    return f"inference.fit_fixed_k.k{int(k)}"
            wrapper = self._timed(name, original, name_of)
            for module in MODULES:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)
        for cls, attr, name in METHODS:
            self._patch(cls, attr, self._timed(name, getattr(cls, attr)))

        tracer = self
        decay_reach = wavelet.BandWavelet.decay_reach
        prepare = self._timed("wavelet.prepare", decay_reach)
        profile_values = wavelet.BandWavelet.profile_values

        def traced_decay_reach(w, *args, **kwargs):
            # only a call that computes the reach (not the cached value) is preparation
            cached = getattr(w, "_reach", None) is not None
            return (decay_reach if cached else prepare)(w, *args, **kwargs)

        def counted_profile_values(w, xi):
            tracer.counts["wavelet.profile_values"] += 1
            return profile_values(w, xi)

        self._patch(wavelet.BandWavelet, "decay_reach", traced_decay_reach)
        self._patch(wavelet.BandWavelet, "profile_values", counted_profile_values)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- reading ------------------------------------------------------------------

    def collect_workers(self):
        """Move the spans and counts that worker processes wrote into memory."""
        for path in sorted(self.out_dir.glob("worker-*.jsonl")):
            with open(path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    self.spans.extend(rec["spans"])
                    self.counts.update(rec["counts"])
            path.unlink()

    def dump(self, path: Path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def summarize(spans, counts, scales: dict, paths: int, workers: int, owner_pid: int) -> dict:
    """Per-layer metrics from the spans and counts of the operations whose
    host-speed factors are `scales` (operation -> factor) and that analysed
    `paths` paths. Span seconds are host-corrected with the factor of their
    operation. Seconds and calls are per operation, except
    inference.fit_fixed_k_s.kK, the mean seconds of one fit at that K."""
    ops = len(scales)
    # (id, name, corrected duration, parent, pid)
    spans = [(tuple(s[0]), s[1], (s[3] - s[2]) * scales[s[5]], tuple(s[4]) if s[4] else None, s[6])
             for s in spans]
    by_name: dict = {}
    children: dict = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
        if s[3] is not None and s[3][0] == s[4]:  # same-process parent
            children.setdefault(s[3], []).append(s)

    def total(name):
        return sum(s[2] for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def self_total(name):
        """Durations minus the part their same-process child spans cover."""
        return sum(s[2] - sum(c[2] for c in children.get(s[0], ())) for s in by_name.get(name, ()))

    worker_busy = sum(s[2] for s in spans
                      if s[4] != owner_pid and (s[3] is None or s[3][0] != s[4]))
    wait = self_total("montecarlo.run_study")
    fit_calls = sum(calls(f"inference.fit_fixed_k.k{k}") for k in range(3))

    def per_op(v):
        return v / ops

    seconds = {
        "model.variogram_s": per_op(total("model.variogram")),
        "simulate.factor_s": per_op(total("simulate.factor")),
        "simulate.draw_s": per_op(total("simulate.draw")),
        "wavelet.prepare_s": per_op(total("wavelet.prepare")),
        "wavelet.spectrum_s": per_op(total("wavelet.spectrum")),
        "wavelet.k_const_s": per_op(total("wavelet.k_const")),
        "changepoint.build_grid_s": per_op(total("changepoint.build_grid")),
        "changepoint.minimize_q_s": per_op(total("changepoint.minimize_q")),
        "inference.select_k_s": per_op(total("inference.select_k")),
        "inference.sigma_matrix_s": per_op(total("inference.sigma_matrix")),
        "montecarlo.run_study_s": per_op(total("montecarlo.run_study")),
        "montecarlo.wait_s": per_op(wait),
        "montecarlo.worker_busy_s": per_op(worker_busy),
        "cli.self_s": per_op(self_total("cli.main")),
    }
    for k in range(3):
        name = f"inference.fit_fixed_k.k{k}"
        seconds[f"inference.fit_fixed_k_s.k{k}"] = total(name) / calls(name) if calls(name) else 0.0
    count = {
        "simulate.factor_calls": per_op(calls("simulate.factor")),
        "wavelet.prepare_calls": per_op(calls("wavelet.prepare")),
        "wavelet.k_const_calls": per_op(calls("wavelet.k_const")),
        "wavelet.profile_calls": per_op(counts.get("wavelet.profile_values", 0)),
        "changepoint.minimize_q_calls": per_op(calls("changepoint.minimize_q")),
        "inference.sigma_matrix_calls": per_op(calls("inference.sigma_matrix")),
    }
    ratio = {
        "wavelet.spectra_per_path": calls("wavelet.spectrum") / paths,
        "inference.fits_per_path": fit_calls / paths,
        "montecarlo.worker_util": worker_busy / (workers * wait) if wait > 0 else 0.0,
    }
    out = {name: {"value": v, "unit": "s"} for name, v in seconds.items()}
    out.update({name: {"value": v, "unit": "count"} for name, v in count.items()})
    out.update({name: {"value": v, "unit": "ratio"} for name, v in ratio.items()})
    return out
