"""Steadiness check: do two sets of runs of the same code agree?

    python3 bench/steadiness.py [--runs 10]

Runs ``bench/run.py`` (untraced) ``--runs`` times per workload in each of two
sets, each run with its own seed, the second set started a minute after the
first ends.  For each workload and end-to-end metric it prints each set's
median and quartiles (``statistics.quantiles(n=4)``), the spread (quartile
distance over median) and whether the sets agree within the bound in
BENCHMARK.json: every spread but set-up time's within the bound, the two
medians apart by no more than the bound (in either direction), and the same
share of failed operations in every run.  Every run is also appended to a
JSON-lines file under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETS = 2
GAP_S = 60.0


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=200)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def report(runs: list[dict], bench: dict) -> bool:
    ok = True
    for workload in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in runs if r["workload"] == workload]
        shares = {r["failed"] / r["attempted"] for r in mine}
        incorrect = sum(1 for r in mine if not r["correct"])
        print(f"\n{workload}: {len(mine)} runs, failed shares {sorted(shares)}, incorrect runs {incorrect}")
        ok = ok and len(shares) == 1 and not incorrect
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [summarize([r["metrics"][name]["value"] for r in mine if r["set"] == s])
                     for s in range(1, SETS + 1)]
            first, second = stats[0]["median"], stats[1]["median"]
            change = (second - first) / first
            # Set-up time is the median of a run's own set-ups and is not
            # scaled, so only its medians must agree, not its spread.
            agree = abs(change) <= bound and (
                name == "setup_s" or all(st["spread"] <= bound for st in stats))
            ok = ok and agree
            cells = "; ".join(f"set {s}: {st['median']:.5g} [{st['q1']:.5g}, {st['q3']:.5g}] "
                              f"spread {st['spread']:.3f}" for s, st in enumerate(stats, 1))
            third = " (spread above a third of the bound)" if any(
                st["spread"] > bound / 3 for st in stats) else ""
            print(f"  {name:12s} bound {bound}: {cells}  second changed by {change:+.3f} -> "
                  f"{'agree' if agree else 'DISAGREE'}{third}")
    print("\nsteady" if ok else "\nNOT steady")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, time.strftime("steadiness-%Y%m%d-%H%M%S.jsonl"))
    runs = []
    with open(path, "a") as log:
        for s in range(1, SETS + 1):
            if s > 1:
                time.sleep(GAP_S)
            for i in range(args.runs):
                for workload in [w["name"] for w in bench["workloads"]]:
                    seed = 1000 * s + i
                    result = run_once(workload, seed, bench["run_seconds"])
                    result.update(set=s, workload=workload, seed=seed)
                    runs.append(result)
                    log.write(json.dumps(result) + "\n")
                    log.flush()
                    print(f"set {s} {workload} seed {seed}: " + ", ".join(
                        f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    print(f"runs saved to {os.path.relpath(path, ROOT)}")
    return 0 if report(runs, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
