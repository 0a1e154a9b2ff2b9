#!/usr/bin/env python3
"""Run one workload k times and summarise each metric's spread.

    python3 flexbench/repeat.py --workload W --runs 10 [--seed0 1]
        [--seconds 5] [--trace 0] [--other PATH] [--json OUT]

Run i uses seed ``seed0 + i``.  Each metric is printed with its median,
first and third quartile (``statistics.quantiles(n=4)``) and spread,
the distance between the quartiles as a share of the median, plus the
failed share of attempted operations.  With ``--other PATH`` (the root
of a second checkout carrying the same benchmark) every seed runs on
both checkouts as a pair, alternating which runs first, and the
per-metric medians of the two sides and the pairs each side won are
printed too.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "flexbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"run failed in {root} (seed {seed}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0, "values": vals}
    return out


def print_summary(label: str, results: list[dict]) -> dict:
    s = summary(results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"== {label}: {len(results)} runs, correct={all(r['correct'] for r in results)}, "
          f"failed/attempted={sorted(shares)}")
    print(f"{'metric':36}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}")
    for name, m in s.items():
        print(f"{name:36}{m['median']:>14.6g}{m['q1']:>14.6g}{m['q3']:>14.6g}{m['spread']:>9.3f}")
    return s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--other", type=Path, help="root of a second checkout to pair with")
    ap.add_argument("--json", type=Path, help="write every result and the summaries here")
    args = ap.parse_args(argv)

    roots = [ROOT] + ([args.other.resolve()] if args.other else [])
    results: dict[Path, list] = {r: [] for r in roots}
    for i in range(args.runs):
        seed = args.seed0 + i
        order = roots if i % 2 == 0 else roots[::-1]
        for root in order:
            results[root].append(run_once(root, args.workload, seed, args.seconds, args.trace))
            print(f"seed {seed} {root}: {json.dumps(results[root][-1])}", flush=True)

    summaries = {str(r): print_summary(str(r), results[r]) for r in roots}
    if args.other:
        a, b = results[roots[0]], results[roots[1]]
        print(f"== pairs won by {roots[0]} (ties count for neither)")
        for name in a[0]["metrics"]:
            wins = sum(x["metrics"][name]["value"] < y["metrics"][name]["value"]
                       for x, y in zip(a, b))
            print(f"{name:36} lower in {wins}/{len(a)} pairs")
    if args.json:
        args.json.write_text(json.dumps({"results": {str(k): v for k, v in results.items()},
                                         "summaries": summaries}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
