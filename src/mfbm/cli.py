"""Command-line front end: simulate paths, compute spectra, fit models, and
run Monte Carlo tables.

Flags can be preloaded from a flat key=value config file (--config); explicit
flags override it. Every report echoes the complete effective configuration,
and all randomness flows from --seed via documented stream indices
(replication r uses stream r), so identical invocations produce identical
output bytes.

Exit codes: 0 success/accepted, 2 configuration or input error, 3 model
selection exhausted K_max without acceptance, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings

import numpy as np

from .changepoint import build_grid
from .errors import (
    AnalysisError,
    ConfigError,
    MfbmError,
    NumericError,
    SimulationError,
)
from .inference import select_k
from .model import ModelSpec, SampledPath
from .montecarlo import ReplicationStudy, make_wavelet, run_study
from .simulate import PathSampler
from .wavelet import spectrum

DEFAULTS = {"alpha": 5.0, "beta": 10.0, "r": 0.1, "m": 5, "level": 0.05, "k_max": 2}


def _float_list(text):
    try:
        return tuple(float(v) for v in str(text).split(",") if v.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _add_wavelet_flags(p):
    p.add_argument("--alpha", type=float, default=DEFAULTS["alpha"],
                   help="lower band edge for the bump wavelet (default 5)")
    p.add_argument("--beta", type=float, default=DEFAULTS["beta"],
                   help="upper band edge for the bump wavelet (default 10)")


def _add_band_flags(p):
    p.add_argument("--f-min", type=float, required=True, help="lower edge of the inspected band")
    p.add_argument("--f-max", type=float, required=True, help="upper edge of the inspected band")
    p.add_argument("--r", type=float, default=DEFAULTS["r"],
                   help="shift trimming fraction in (0, 1/3) (default 0.1)")


def _add_model_flags(p):
    p.add_argument("--hurst", type=_float_list, required=True,
                   help="comma-separated Hurst exponents, one per regime")
    p.add_argument("--sigma2", type=_float_list, required=True,
                   help="comma-separated scale variances, one per regime")
    p.add_argument("--omega", type=_float_list, default=(),
                   help="comma-separated ascending change frequencies (empty for one regime)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mfbm",
        description="Simulate and identify multiscale fractional Brownian motion.",
    )
    parser.add_argument("--config", default=None,
                        help="flat key=value file supplying defaults for any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="draw one path and write it as CSV")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True, help="number of samples")
    p.add_argument("--delta", type=float, required=True, help="sampling step")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0, help="replication stream index")
    p.add_argument("--out", required=True, help="output CSV (time,value)")

    p = sub.add_parser("analyze", help="compute the wavelet log-variance spectrum of a path")
    p.add_argument("--input", required=True, help="path CSV: value column, or time,value")
    p.add_argument("--delta", type=float, default=None,
                   help="sampling step (required for single-column input)")
    _add_band_flags(p)
    _add_wavelet_flags(p)
    p.add_argument("--out", required=True, help="spectrum CSV (f, log_f, Y, count)")

    p = sub.add_parser("fit", help="estimate changes and parameters, test goodness of fit")
    p.add_argument("--input", required=True)
    p.add_argument("--delta", type=float, default=None)
    _add_band_flags(p)
    _add_wavelet_flags(p)
    p.add_argument("--m", type=int, default=DEFAULTS["m"], help="regression points per segment")
    p.add_argument("--level", type=float, default=DEFAULTS["level"], help="test level")
    p.add_argument("--k-max", type=int, default=DEFAULTS["k_max"], help="largest order tried")
    p.add_argument("--out", required=True, help="report JSON")
    p.add_argument("--overlay", default=None, help="optional per-frequency overlay CSV")

    p = sub.add_parser("montecarlo", help="replicate simulate+fit and tabulate statistics")
    _add_model_flags(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    _add_band_flags(p)
    _add_wavelet_flags(p)
    p.add_argument("--m", type=int, default=DEFAULTS["m"])
    p.add_argument("--level", type=float, default=DEFAULTS["level"])
    p.add_argument("--k-max", type=int, default=DEFAULTS["k_max"])
    p.add_argument("--replications", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="summary table JSON")
    p.add_argument("--raw", default=None, help="optional per-replication CSV")

    return parser


def _load_config_args(path):
    """Turn a key=value file into a flag list (prepended, so real flags win)."""
    out = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"config line {line!r} is not key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            out += [f"--{key.replace('_', '-')}", value]
    return out


def _model_from_args(args) -> ModelSpec:
    if len(args.hurst) != len(args.sigma2):
        raise ConfigError(f"got {len(args.hurst)} Hurst values but {len(args.sigma2)} variances")
    if any(v <= 0 for v in args.sigma2):
        raise ConfigError("variances must be positive")
    try:
        return ModelSpec(hurst=args.hurst,
                         sigma=tuple(float(np.sqrt(v)) for v in args.sigma2),
                         omega=args.omega)
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _read_path_csv(path, delta_flag):
    """Accept a single value column or (time, value) rows; header optional."""
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(csv.reader(fh)):
            if not line:
                continue
            try:
                rows.append([float(v) for v in line])
            except ValueError:
                if line_no == 0:
                    continue  # header
                raise ConfigError(f"{path}: non-numeric data at line {line_no + 1}")
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ConfigError(f"{path}: inconsistent column count")
    data = np.asarray(rows, dtype=float)
    values = data[:, -1]
    if values.size and np.ptp(values) == 0.0:
        raise ConfigError(f"{path}: value column is constant; degenerate path carries no signal")
    if width == 1:
        if delta_flag is None:
            raise ConfigError("single-column input needs --delta")
        return SampledPath(delta=delta_flag, values=data[:, 0])
    if width != 2:
        raise ConfigError(f"{path}: expected 1 or 2 columns, got {width}")
    times, values = data[:, 0], data[:, 1]
    steps = np.diff(times)
    if steps.size == 0 or steps[0] <= 0:
        raise ConfigError(f"{path}: time column must be increasing")
    if np.max(np.abs(steps - steps[0])) > 1e-9 * abs(steps[0]):
        raise ConfigError(f"{path}: time column is not uniformly spaced (tolerance 1e-9 relative)")
    delta = float(steps[0])
    if delta_flag is not None and abs(delta_flag - delta) > 1e-9 * delta:
        raise ConfigError(f"--delta {delta_flag} contradicts the time column step {delta}")
    return SampledPath(delta=delta, values=values)


def _echo(args, keys):
    return {key: getattr(args, key) for key in keys}


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, rows):
    """csv writes a float field as its repr, so values round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _cmd_simulate(args) -> int:
    model = _model_from_args(args)
    sampler = PathSampler(model, args.n, args.delta)
    path = sampler.draw(args.seed, stream=args.stream)
    _write_csv(args.out, ["time", "value"], zip(path.times.tolist(), path.values.tolist()))
    meta = {
        "command": "simulate",
        "model": {"hurst": list(args.hurst), "sigma2": list(args.sigma2),
                  "omega": list(args.omega)},
        "n": args.n, "delta": args.delta, "seed": args.seed, "stream": args.stream,
    }
    _write_json(args.out + ".meta.json", meta)
    print(f"wrote {args.n} samples to {args.out}")
    return 0


_ANALYSIS_KEYS = ("input", "delta", "f_min", "f_max", "r", "alpha", "beta")


def _cmd_analyze(args) -> int:
    path = _read_path_csv(args.input, args.delta)
    w = make_wavelet("bump", args.alpha, args.beta)
    grid = build_grid(path.n, path.delta, args.f_min, args.f_max, w)
    spec = spectrum(path, w, grid, r=args.r)
    rows = [(float(f), float(lf), float(y), int(c))
            for f, lf, y, c in zip(grid.f, grid.log_f, spec.y, spec.counts)]
    _write_csv(args.out, ["f", "log_f", "Y", "count"], rows)
    print(f"wrote {len(rows)} spectrum rows to {args.out}")
    return 0


def _overlay_rows(fit):
    spec = fit.spectrum
    seg = fit.segmentation
    refine = {int(i): j for j, est in enumerate(fit.segments) for i in est.points}
    rows = []
    for i, (f, lf, y) in enumerate(zip(spec.grid.f, spec.grid.log_f, spec.y)):
        segment = role = ""
        fit_ols = fit_fgls = ""
        for j in range(seg.k + 1):
            if seg.t[j] < i <= seg.t[j + 1]:
                segment = j
                role = "regression" if i <= seg.t[j + 1] - seg.tau_n else "transition"
                break
        else:
            role = "excluded"
        if segment != "":
            o, g = fit.segments_ols[segment], fit.segments[segment]
            fit_ols = float(o.slope * lf + o.intercept)
            fit_fgls = float(g.slope * lf + g.intercept)
        if i in refine:
            role = "refine"
        rows.append((i, float(f), float(lf), float(y), segment, role, fit_ols, fit_fgls))
    return rows


def _cmd_fit(args) -> int:
    path = _read_path_csv(args.input, args.delta)
    w = make_wavelet("bump", args.alpha, args.beta)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = select_k(path, w, f_min=args.f_min, f_max=args.f_max, m=args.m,
                       r=args.r, level=args.level, k_max=args.k_max)
    report = fit.to_dict()
    report["config"] = _echo(args, _ANALYSIS_KEYS + ("m", "level", "k_max"))
    report["warnings"] = sorted({str(c.message) for c in caught})
    _write_json(args.out, report)
    if args.overlay:
        _write_csv(args.overlay, ["k", "f", "log_f", "Y", "segment", "role", "fit_ols", "fit_fgls"],
                   _overlay_rows(fit))
    verdict = "accepted" if fit.accepted else f"not accepted up to K_max={args.k_max}"
    print(f"K={fit.k} {verdict}: T={fit.t_stat:.3f} dof={fit.dof} p={fit.p_value:.4f} -> {args.out}")
    return 0 if fit.accepted else 3


def _cmd_montecarlo(args) -> int:
    model = _model_from_args(args)
    study = ReplicationStudy(
        model=model, n=args.n, delta=args.delta, f_min=args.f_min, f_max=args.f_max,
        alpha=args.alpha, beta=args.beta, m=args.m,
        r=args.r, level=args.level, k_max=args.k_max, seed=args.seed,
        replications=args.replications,
    )
    result = run_study(study, workers=args.workers)
    stats = result.stats()
    table = {
        "command": "montecarlo",
        "config": _echo(args, ("hurst", "sigma2", "omega", "n", "delta", "f_min", "f_max",
                               "r", "m", "level", "k_max", "alpha", "beta", "seed",
                               "replications", "workers")),
        "stats": stats,
    }
    _write_json(args.out, table)
    if args.raw:
        k_true = model.k
        header = (["stream", "selected_k", "T_k0", "p_k0", "accepted_k0",
                   f"T_k{k_true}", f"p_k{k_true}", f"accepted_k{k_true}"]
                  + [f"H{j}_ols" for j in range(k_true + 1)]
                  + [f"H{j}_fgls" for j in range(k_true + 1)]
                  + [f"omega{j + 1}" for j in range(k_true)]
                  + ["error"])
        rows = []
        for rec in result.records:
            if "error" in rec:
                rows.append([rec["stream"]] + [""] * (len(header) - 2) + [rec["error"]])
                continue
            f0 = rec["fits"][0]
            ft = rec["fits"][k_true]
            rows.append(
                [rec["stream"], rec["selected_k"] if rec["selected_k"] is not None else "",
                 f0.t_stat, f0.p_value, int(f0.accepted), ft.t_stat, ft.p_value, int(ft.accepted)]
                + [s.hurst for s in ft.segments_ols] + [s.hurst for s in ft.segments]
                + ft.omegas.tolist() + [""]
            )
        _write_csv(args.raw, header, rows)
    done = stats.get("completed", 0)
    print(f"{done}/{args.replications} replications completed "
          f"({stats.get('failures', 0)} failures) -> {args.out}")
    return 0


_HANDLERS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "fit": _cmd_fit,
    "montecarlo": _cmd_montecarlo,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # let a config file supply defaults; explicit flags override because they come later
    pre = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
    pre.add_argument("--config")
    try:
        known, argv = pre.parse_known_args(argv)
    except argparse.ArgumentError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if known.config:
        try:
            extra = _load_config_args(known.config)
        except OSError as e:
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return 2
        except ConfigError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        if argv and not argv[0].startswith("-"):
            argv = [argv[0]] + extra + argv[1:]
        else:
            argv = extra + argv
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (ConfigError, AnalysisError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericError, SimulationError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 4
    except MfbmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
