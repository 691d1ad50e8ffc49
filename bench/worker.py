"""One benchmark run of one workload, in a fresh process.

Started by ``run.py`` with a pinned environment; not meant to be run by
hand.  ``BENCH_T_SPAWN`` holds the monotonic clock reading taken just before
this process was started, so the set-up time includes interpreter start and
imports.  Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from time import perf_counter

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")

# The shared machine's speed drifts, over minutes and from one round to the
# next: one process running the same cocycles round read from 0.66 to 1.01 s
# per 24-second window.  A fixed reference loop that uses no program code
# drifts with it, so the timed phase runs the loop between operations, for
# REFERENCE_SHARE of the operations' time, and scales each round's latencies
# by the loop's nominal time over its median in that round: the times
# reported are seconds at a fixed machine speed.  Each workload gets the
# loop that tracks its kind of work best (see bench/README.md).
REFERENCE_SHARE = 0.04
_OBJECT_MATRIX = np.arange(36, dtype=object).reshape(6, 6)
_INT_MATRIX = np.arange(36, dtype=np.int64).reshape(6, 6)
_DENSE_MATRIX = np.random.default_rng(0).integers(-3, 4, size=(300, 300))


def small_reference_loop() -> float:
    """Pure-Python dictionary work and 6x6 numpy products, timed once.

    Tracks rounds of many short calls: over twenty 24-second windows it took
    the spread of wall_s from 0.22 to 0.03 on cocycles and from 0.14 to 0.06
    on documents.
    """
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i * i % 7
    for _ in range(60):
        (_OBJECT_MATRIX @ _OBJECT_MATRIX) % 5
        (_INT_MATRIX @ _INT_MATRIX) % 5
    return perf_counter() - start


def dense_reference_loop() -> float:
    """Eight elimination steps on a 300x300 int64 matrix, timed once.

    Tracks the large dense eliminations of triangulated, which the small loop
    does not (scaling by it raised the spread of wall_s from 0.11 to 0.18);
    this loop lowered it to 0.06.
    """
    start = perf_counter()
    m = _DENSE_MATRIX.copy()
    for r in range(8):
        m[r + 1 :, :] -= np.outer(m[r + 1 :, r] // 3, m[r, :])
    return perf_counter() - start


# Per workload: the reference loop and its nominal time, about the loop's
# median in the timed phase on the machine in bench/README.md.
REFERENCES = {
    "declared": (small_reference_loop, 0.0015),
    "triangulated": (dense_reference_loop, 0.0013),
    "cocycles": (small_reference_loop, 0.0015),
    "documents": (small_reference_loop, 0.0015),
}


def main(argv=None) -> int:
    t_spawn = float(os.environ["BENCH_T_SPAWN"])
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    tracer = None
    if args.trace:
        import contact9.cli  # noqa: F401  (loads every module the tracer patches)
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import workloads

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, workdir)
        setup_s = time.monotonic() - t_spawn
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if tracer is not None:
            tracer.start_timed_phase()
        result = _measure(ops, args.seconds, *REFERENCES[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    faults = result.pop("faults")
    scale = result.pop("scale")
    reference_calls = result.pop("reference_calls")
    problems = result.pop("problems")
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    for fault, count in sorted(faults.items()):
        print(f"failed through a known fault ({count}): {fault}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {result['rounds']} rounds of {len(ops)} operations, "
        f"wall_s {result['wall_s']:.4f}, op_p50_s {result['op_p50_s']:.6f}, setup_s {setup_s:.4f}, "
        f"median speed scale {scale:.3f} from {reference_calls} reference calls",
        file=sys.stderr,
    )
    if tracer is not None:
        tracer.rounds = result["rounds"]
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": result["wall_s"],
            "op_p50_s": result["op_p50_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _measure(ops, seconds: float, reference_loop, nominal_s: float) -> dict:
    """Run whole rounds until ``seconds`` have passed; check every output.

    After each operation ``reference_loop`` runs until it has taken
    REFERENCE_SHARE of the operations' time, and each round's latencies are
    scaled by ``nominal_s`` over the loop's median in that round.  ``wall_s``
    is the time of one round, every operation once: the sum over operations
    of each one's median scaled latency across the rounds.  ``op_p50_s`` is
    the median over operations of the same per-operation medians.  Taking
    the median per operation keeps a burst of load on the shared machine,
    which slows a few operations of one round, out of the figure.
    """
    latencies: list[list[float]] = [[] for _ in ops]
    rounds = 0
    first: list = [None] * len(ops)
    problems: list[str] = []
    faults: dict[str, int] = {}
    failed = 0
    scales: list[float] = []
    reference_calls = 0
    owed = 0.0
    t0 = perf_counter()
    while True:
        round_latencies: list[float] = []
        reference: list[float] = []
        for i, op in enumerate(ops):
            exc = None
            out = None
            start = perf_counter()
            try:
                out = op.run()
            except Exception as e:  # noqa: BLE001  (a failure is an outcome to check)
                exc = e
            round_latencies.append(perf_counter() - start)
            owed += REFERENCE_SHARE * round_latencies[-1]
            while owed > 0:
                reference.append(reference_loop())
                owed -= reference[-1]
            summary = op.summarize(out) if exc is None else None
            fault, found = op.check(summary, exc)
            if not rounds:
                first[i] = (summary, type(exc).__name__ if exc else None)
            elif first[i] != (summary, type(exc).__name__ if exc else None):
                found = found + [f"{op.name}: output differs from the first round"]
            if exc is not None or fault is not None or found:
                failed += 1
            if fault is not None:
                faults[fault] = faults.get(fault, 0) + 1
            problems += found
        scales.append(nominal_s / statistics.median(reference))
        reference_calls += len(reference)
        for op_latencies, t in zip(latencies, round_latencies):
            op_latencies.append(scales[-1] * t)
        rounds += 1
        if perf_counter() - t0 >= seconds:
            break
    op_medians = [statistics.median(op_latencies) for op_latencies in latencies]
    return {
        "rounds": rounds,
        "attempted": rounds * len(ops),
        "failed": failed,
        "wall_s": sum(op_medians),
        "op_p50_s": statistics.median(op_medians),
        "scale": statistics.median(scales),
        "reference_calls": reference_calls,
        "faults": faults,
        "problems": problems,
    }


if __name__ == "__main__":
    sys.exit(main())
