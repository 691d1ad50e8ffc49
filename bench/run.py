"""Benchmark of contact9: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run starts fresh Python processes
with the program's source on the path, single-threaded BLAS/OpenMP and a
fixed hash seed.  With ``--trace 0`` it prints the end-to-end metrics
(set-up time as the median of five fresh set-ups, the time of one round and
the median operation latency, both scaled to a fixed machine speed, peak
resident set); with ``--trace 1`` it prints
the per-layer metrics of a separate traced run.  The last line of output is
one JSON object.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("declared", "triangulated", "cocycles", "documents")
SETUPS = 5
CHILD_TIMEOUT_S = 150

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _child(args, extra: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = SRC
    env["BENCH_T_SPAWN"] = repr(time.monotonic())
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "contact9", "__init__.py")):
        print(f"error: no program source under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        setups = []
        if not args.trace:
            setups = [_child(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUPS - 1)]
        result = _child(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    units = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
    if args.trace:
        from spans import metric_unit
        units = {m: metric_unit(m) for m in result["metrics"]}
    result["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
