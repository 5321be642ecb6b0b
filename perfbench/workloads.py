"""The measuring process of one benchmark run; run.py starts it with the
BLAS/OpenMP thread count pinned to one.

    python3 perfbench/workloads.py --workload W --seed N --seconds S --trace 0|1 --out DIR
    python3 perfbench/workloads.py --workload W --setup-only

The process first times its own set-up (import mfbm plus the preparation
later operations reuse), so nothing but the standard library may be imported
before setup(). It then runs operations of the workload in a closed loop,
one at a time, until their summed wall time reaches S seconds and a round is
complete, checks every output, and prints one JSON line: correct, attempted,
failed and the metrics. With --trace 1 it runs the same operations twice,
first untraced and then traced, and reports the per-layer metrics and the
difference between the two passes (the tracing overhead).
"""

import argparse
import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

N, DELTA = 6000, 0.03
M, R, LEVEL = 5, 0.1, 0.05
# Every workload passes K_max = its true number of changes, not the cells' 2:
# mfbm raises SegmentTooShortError on some paths when it fits a change the
# data do not have (a breakpoint close to a band edge), so with K_max = 2 the
# failures would depend on the seed.
M1 = dict(hurst=(0.2, 0.7), sigma2=(10.0, 5.0), omega=(5.0,))
FBM06 = dict(hurst=(0.6,), sigma2=(1.0,), omega=())
MC_WORKERS = 2
MC_REPLICATIONS = 2  # even: one replication per worker


def setup(workload):
    """Import mfbm and do the program's one-time preparation; return
    (prepared wavelet or None, import seconds, preparation seconds), both
    host-corrected with samples taken between and after the two steps."""
    t0 = time.perf_counter()
    import mfbm
    if workload != "fit-m1":
        import mfbm.cli  # noqa: F401
    t1 = time.perf_counter()
    import hostspeed
    between = hostspeed.sample()
    t2 = time.perf_counter()
    wavelet = None
    if workload == "fit-m1":
        wavelet = mfbm.BandWavelet.bump(5.0, 10.0)
        wavelet.decay_reach()
    elif workload == "cli-fit-fbm":
        # the process-local cache that `mfbm fit` looks the wavelet up in
        mfbm.montecarlo.make_wavelet("bump", 5.0, 10.0).decay_reach()
    # mc-sweep: `mfbm montecarlo` prepares the wavelet inside its workers
    t3 = time.perf_counter()
    scale = hostspeed.factor(between, hostspeed.sample())
    return wavelet, (t1 - t0) * scale, (t3 - t2) * scale


class Outcome:
    """What one operation did: wall seconds, paths analysed, whether it
    failed; measure() adds the host-speed factor `host` of hostspeed."""

    def __init__(self, seconds, paths, failed=False):
        self.seconds, self.paths, self.failed = seconds, paths, failed
        self.host = 1.0


class FitM1:
    """select_k from the library on fresh paths of the two-regime model M1."""

    round = 1
    corrected = True  # one process, about 2 s per operation
    f_min, f_max = 0.8, 16.0

    def __init__(self, seed, out_dir, wavelet):
        import mfbm
        import synth
        self.mfbm, self.seed, self.wavelet = mfbm, seed, wavelet
        self.gen = synth.CirculantPaths(M1["hurst"], M1["sigma2"], M1["omega"], N, DELTA)
        self.problems = variogram_check(self.gen, M1)
        self.estimates = {}

    def path(self, i):
        return self.mfbm.SampledPath(delta=DELTA, values=self.gen.draw(self.seed, i))

    def op(self, i):
        from checks import fit_invariants
        path = self.path(i)
        t = time.perf_counter()
        try:
            fit = self.mfbm.inference.select_k(path, self.wavelet, self.f_min, self.f_max, m=M, r=R,
                                               level=LEVEL, k_max=1)
        except self.mfbm.MfbmError as e:
            print(f"op {i} failed: {type(e).__name__}: {e}", file=sys.stderr)
            return Outcome(time.perf_counter() - t, 0, failed=True)
        seconds = time.perf_counter() - t
        self.problems += [f"op {i}: {p}" for p in fit_invariants(
            fit.k, fit.dof, fit.t_stat, fit.p_value, fit.accepted, fit.omegas,
            M, LEVEL, self.f_min, self.f_max)]
        if fit.k == 1:
            self.estimates[i] = (fit.segments[0].hurst, fit.segments[1].hurst, float(fit.omegas[0]))
        return Outcome(seconds, 1)

    def finish(self, ops):
        from checks import mean_within, spectrum_spot_check
        k1 = list(self.estimates.values())
        if not k1:
            return self.problems + [f"no K=1 fit among {ops} paths of M1"]
        h0, h1, om = zip(*k1)
        bad = mean_within("H0", h0, 0.2, 0.15) + mean_within("H1", h1, 0.7, 0.10)
        if not 4.0 <= statistics.fmean(om) <= 6.5:
            bad.append(f"mean omega {statistics.fmean(om):.3f} outside [4.0, 6.5]")
        path = self.path(ops - 1)
        grid = self.mfbm.build_grid(N, DELTA, self.f_min, self.f_max, self.wavelet)
        spec = self.mfbm.spectrum(path, self.wavelet, grid, r=R)
        bad += spectrum_spot_check(path.values, DELTA, self.f_min, self.f_max, grid.f, spec.y, r=R)
        return self.problems + bad


class CliFitFbm:
    """`mfbm fit --overlay` through mfbm.cli.main on CSV files of fBm H = 0.6."""

    round = 1
    corrected = True
    f_min, f_max = 0.05, 20.0

    def __init__(self, seed, out_dir, wavelet):
        import mfbm.cli
        import synth
        self.cli, self.seed = mfbm.cli, seed
        self.gen = synth.CirculantPaths(FBM06["hurst"], FBM06["sigma2"], FBM06["omega"], N, DELTA)
        self.problems = variogram_check(self.gen, FBM06)
        self.estimates = {}
        self.csv = out_dir / "path.csv"
        self.report = out_dir / "report.json"
        self.overlay = out_dir / "overlay.csv"

    def op(self, i):
        import csv
        import numpy as np
        from checks import fit_invariants, spectrum_spot_check
        values = self.gen.draw(self.seed, i)
        with open(self.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["time", "value"])
            writer.writerows((repr(DELTA * (j + 1)), repr(float(v))) for j, v in enumerate(values))
        argv = ["fit", "--input", str(self.csv), "--f-min", str(self.f_min), "--f-max", str(self.f_max),
                "--k-max", "0", "--out", str(self.report), "--overlay", str(self.overlay)]
        with redirect_stdout(StringIO()):
            t = time.perf_counter()
            rc = self.cli.main(argv)
            seconds = time.perf_counter() - t
        if rc not in (0, 3):
            print(f"op {i} failed: mfbm fit exited {rc}", file=sys.stderr)
            return Outcome(seconds, 0, failed=True)
        with open(self.report) as fh:
            rep = json.load(fh)
        bad = fit_invariants(rep["K"], rep["dof"], rep["T_stat"], rep["p_value"], rep["accepted"],
                             rep["omegas"], M, LEVEL, self.f_min, self.f_max)
        if (rc == 0) != rep["accepted"]:
            bad.append(f"exit code {rc} with accepted={rep['accepted']}")
        with open(self.overlay) as fh:
            rows = list(csv.reader(fh))[1:]
        a_n = round(N * DELTA)
        if len(rows) != a_n + 1:
            bad.append(f"overlay has {len(rows)} rows, want a_n + 1 = {a_n + 1}")
        elif i == 0:
            f = np.array([float(row[1]) for row in rows])
            y = np.array([float(row[3]) for row in rows])
            bad += spectrum_spot_check(values, DELTA, self.f_min, self.f_max, f, y, r=R)
        self.problems += [f"op {i}: {p}" for p in bad]
        if rep["K"] == 0:
            self.estimates[i] = rep["segments"][0]["H"]
        return Outcome(seconds, 1)

    def finish(self, ops):
        from checks import mean_within
        if not self.estimates:
            return self.problems + [f"no K=0 fit among {ops} paths of fBm"]
        return self.problems + mean_within("H", list(self.estimates.values()), 0.6, 0.08)


class McSweep:
    """`mfbm montecarlo --workers 2 --raw` through mfbm.cli.main, one cell per
    operation; a round is the three cells."""

    CELLS = (  # (label, model flags, n, f_min, f_max, true H per regime)
        ("fbm-h0.3", ["--hurst", "0.3", "--sigma2", "1"], 6000, 0.05, 20.0, (0.3,)),
        ("fbm-h0.8", ["--hurst", "0.8", "--sigma2", "1"], 6000, 0.05, 20.0, (0.8,)),
        ("m1-n8192", ["--hurst", "0.2,0.7", "--sigma2", "10,5", "--omega", "5"], 8192, 0.8, 16.0,
         (0.2, 0.7)),
    )
    round = len(CELLS)
    # A cell runs 6-19 s on both cores (parent, then two workers); host
    # samples taken in the parent before and after it do not track its speed,
    # and correcting with them widened the run-to-run spread.
    corrected = False

    def __init__(self, seed, out_dir, wavelet):
        import mfbm.cli
        self.cli, self.seed = mfbm.cli, seed
        self.table = out_dir / "table.json"
        self.raw = out_dir / "raw.csv"
        self.problems = []
        self.fbm_errors = {}

    def op(self, i):
        import csv
        from checks import fit_invariants
        label, model, n, f_min, f_max, hurst = self.CELLS[i % self.round]
        k_true = len(hurst) - 1
        argv = ["montecarlo", *model, "--n", str(n), "--delta", str(DELTA),
                "--f-min", str(f_min), "--f-max", str(f_max),
                "--k-max", str(k_true), "--replications", str(MC_REPLICATIONS),
                "--seed", str(self.seed * 1000 + i),
                "--workers", str(MC_WORKERS), "--out", str(self.table), "--raw", str(self.raw)]
        with redirect_stdout(StringIO()):
            t = time.perf_counter()
            rc = self.cli.main(argv)
            seconds = time.perf_counter() - t
        if rc != 0:
            print(f"op {i} ({label}) failed: mfbm montecarlo exited {rc}", file=sys.stderr)
            return Outcome(seconds, 0, failed=True)
        with open(self.table) as fh:
            stats = json.load(fh)["stats"]
        bad = []
        if not stats["completed"] == stats["replications"] == MC_REPLICATIONS:
            bad.append(f"completed {stats['completed']} of {stats['replications']} replications")
        with open(self.raw) as fh:
            rows = list(csv.reader(fh))[1:]
        if len(rows) != MC_REPLICATIONS:
            bad.append(f"raw table has {len(rows)} rows")
        errors = []
        for row in rows:
            t0, p0, acc0, tk, pk, acck = map(float, row[2:8])
            bad += fit_invariants(0, M - 2, t0, p0, acc0 == 1, [], M, LEVEL, f_min, f_max)
            omegas = [float(v) for v in row[8 + 2 * (k_true + 1): 8 + 2 * (k_true + 1) + k_true]]
            bad += fit_invariants(k_true, stats["T_dof"], tk, pk, acck == 1, omegas, M, LEVEL,
                                  f_min, f_max)
            h_fgls = [float(v) for v in row[8 + k_true + 1: 8 + 2 * (k_true + 1)]]
            errors += [h - want for h, want in zip(h_fgls, hurst)]
        if k_true == 0:
            self.fbm_errors[i] = errors
        self.problems += [f"op {i} ({label}): {p}" for p in bad]
        return Outcome(seconds, stats["completed"])

    def finish(self, ops):
        from checks import mean_within
        # Criterion 1's bound on the fBm cells pooled (2 x 2 replications per
        # round, per-path sd of H about 0.035). The M1 cell has too few
        # replications for criterion 2: the per-path sd of H_0 is about 0.13.
        errors = [e for errs in self.fbm_errors.values() for e in errs]
        return self.problems + mean_within("H - H_true over the fBm cells", errors, 0.0, 0.08)


WORKLOADS = {"fit-m1": FitM1, "cli-fit-fbm": CliFitFbm, "mc-sweep": McSweep}


def variogram_check(gen, spec):
    """The generator's variogram must agree with mfbm.variogram at a few lags."""
    import numpy as np
    from mfbm import ModelSpec, variogram
    model = ModelSpec(hurst=spec["hurst"], sigma=tuple(np.sqrt(spec["sigma2"])), omega=spec["omega"])
    bad = []
    for k in (1, 10, 100, 1000, N):
        ours, theirs = gen.lag_variogram[k], variogram(model, k * DELTA)
        if not abs(ours - theirs) <= 1e-9 * theirs:
            bad.append(f"generator variogram {ours!r} vs mfbm.variogram {theirs!r} at lag {k * DELTA:g}")
    return bad


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def measure(work, seconds=None, n_ops=None, tracer=None):
    """Closed loop of whole rounds: until the summed operation time reaches
    `seconds`, or for exactly `n_ops` operations. Each operation is
    bracketed by host-speed samples."""
    import hostspeed
    outcomes = []
    busy = 0.0
    i = 0
    while i % work.round or (busy < seconds if n_ops is None else i < n_ops):
        if tracer is not None:
            tracer.op = i
        before = hostspeed.sample()
        out = work.op(i)
        out.host = hostspeed.factor(before, hostspeed.sample())
        print(f"op {i}: {out.seconds:.4f} s wall, host factor {out.host:.3f}", file=sys.stderr)
        outcomes.append(out)
        busy += out.seconds
        i += 1
    return outcomes


def end_to_end(outcomes, corrected):
    ok = [o for o in outcomes if not o.failed]
    if not ok:
        return {}
    seconds = [o.seconds * (o.host if corrected else 1.0) for o in ok]
    return {
        "op_p50_s": statistics.median(seconds),
        "paths_per_s": sum(o.paths for o in ok) / sum(seconds),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    wavelet, import_s, prepare_s = setup(args.workload)
    if args.setup_only:
        print(json.dumps({"setup_s": import_s + prepare_s}))
        return 0

    work = WORKLOADS[args.workload](args.seed, args.out, wavelet)
    outcomes = measure(work, seconds=args.seconds)
    metrics = {}
    if args.trace:
        import os
        import tracing
        tracer = tracing.Tracer(args.out)
        tracer.install()
        try:
            traced = measure(work, n_ops=len(outcomes), tracer=tracer)
        finally:
            tracer.uninstall()
        tracer.collect_workers()
        tracer.dump(args.out.parent / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = tracing.summarize(tracer.spans, tracer.counts,
                                    scales={i: o.host if work.corrected else 1.0
                                            for i, o in enumerate(traced)},
                                    paths=sum(o.paths for o in traced), workers=MC_WORKERS,
                                    owner_pid=os.getpid())
        metrics["host.slowdown"] = {
            "value": statistics.median(1.0 / o.host for o in outcomes + traced), "unit": "ratio"}
        plain, spanned = end_to_end(outcomes, work.corrected), end_to_end(traced, work.corrected)
        if plain and spanned:
            metrics["trace.overhead_op_p50_s"] = {
                "value": spanned["op_p50_s"] - plain["op_p50_s"], "unit": "s"}
            metrics["trace.overhead_paths_per_s"] = {
                "value": spanned["paths_per_s"] - plain["paths_per_s"], "unit": "1/s"}
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        metrics["setup.prepare_s"] = {"value": prepare_s, "unit": "s"}
        outcomes += traced
    else:
        rss = peak_rss_mb()
        e2e = end_to_end(outcomes, work.corrected)
        print(f"uncorrected wall time: {json.dumps(end_to_end(outcomes, False))}; median host "
              f"slowdown {statistics.median(1.0 / o.host for o in outcomes):.3f}", file=sys.stderr)
        metrics = {"op_p50_s": {"value": e2e["op_p50_s"], "unit": "s"},
                   "paths_per_s": {"value": e2e["paths_per_s"], "unit": "1/s"}} if e2e else {}
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        metrics["setup_s"] = {"value": import_s + prepare_s, "unit": "s"}

    distinct = len(outcomes) if not args.trace else len(outcomes) // 2
    problems = work.finish(distinct)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
