"""Benchmark entry point for mfbm; run from the root of a checkout:

    python3 perfbench/run.py --workload fit-m1|cli-fit-fbm|mc-sweep \
        --seed N --seconds S --trace 0|1

Every measured process is a fresh interpreter whose BLAS/OpenMP pools are
pinned to one thread through its environment, with the checkout's src/ on
PYTHONPATH. setup_s is the median over SETUP_PROBES set-up-only processes
and the measuring process itself. The last line of standard output is the
result as one JSON object; see perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_PROBES = 2
DEADLINE_S = 170.0
PINNED = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def run_child(argv, env, timeout):
    """Run a child in its own process group; kill the whole group on timeout.
    Returns the last stdout line parsed as JSON."""
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: {' '.join(argv[1:3])} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:3])} exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise SystemExit("error: measuring process printed no result")
    return json.loads(lines[-1])


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("fit-m1", "cli-fit-fbm", "mc-sweep"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "mfbm" / "__init__.py").is_file():
        print(f"error: no mfbm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    pythonpath = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, **PINNED, PYTHONPATH=pythonpath)
    script = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload]
    setup = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup.append(run_child(script + ["--setup-only"], env, 60.0)["setup_s"])
    OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        result = run_child(
            script + ["--seed", str(args.seed), "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--out", str(work_dir)],
            env, DEADLINE_S - (time.monotonic() - start))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not args.trace:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
