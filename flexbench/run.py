#!/usr/bin/env python3
"""Run one flexbench workload and print its metrics.

    python3 flexbench/run.py --workload interactive --seed 1 --seconds 5 --trace 0

Run from the root of a checkout; the program is imported from its
``src/``.  The workload is set up ``SETUPS`` times (the median set-up
counts), warmed up with one untimed round, then runs whole rounds of
operations with a single closed-loop client until ``--seconds`` have
passed and at least the workload's ``MIN_ROUNDS`` are done.  The last
line of standard output is the JSON result.  With ``--trace 1`` every
odd round runs with the tracer on (and at least twice ``MIN_ROUNDS``
rounds run), and the per-layer metrics are printed instead of the
end-to-end ones.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("interactive", "olap", "learning")
SETUPS = 3


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"flexbench: program source {src / 'repro'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # The whole run, the Spark JVM included (it inherits the mask), on one
    # processor.  Free to use all four of a shared host's processors, the
    # Spark process followed the host's speed: ten runs spread 0.26-0.34
    # in ops_per_s and read_p50_ms.  On one they spread 0.04, with medians
    # inside the range of the unpinned runs.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])

    import harness
    import sparkenv
    from tracing import Tracer, overhead_ratio

    wl = importlib.import_module(f"wl_{args.workload}")
    tracer = Tracer() if args.trace else None
    traced = tracer if tracer is not None else nullcontext()
    spark = None
    try:
        with traced:
            if tracer is not None:
                tracer.begin_op("boot", "setup")
            if wl.SPARK:
                spark = sparkenv.start(OUT)
            t_boot = time.perf_counter() - T_START
            builds = []
            for i in range(SETUPS):
                state = None  # one set-up in memory at a time (peak_rss_mb)
                if spark is not None:
                    spark.catalog.clearCache()  # drop the previous set-up's frames
                if tracer is not None:
                    tracer.begin_op(f"setup{i}", "setup")
                t0 = time.perf_counter()
                state = wl.build(args.seed, spark)
                builds.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.end_op()
            wl.attach_model(state)  # the benchmark's own reference, not timed
            warm = harness.Recorder(wl.READ_KINDS, wl.WRITE_KINDS, spark=spark)
            wl.run_round(state, -1, warm)
        setup_s = t_boot + statistics.median(builds) + warm.call_s

        plain = harness.Recorder(wl.READ_KINDS, wl.WRITE_KINDS, tracer=tracer, spark=spark)
        recs = [plain]
        if tracer is not None:
            recs.append(harness.Recorder(wl.READ_KINDS, wl.WRITE_KINDS, tracer=tracer, spark=spark))
        footprint = frames = None
        min_rounds = wl.MIN_ROUNDS * len(recs)  # traced: as many rounds of each parity
        deadline = time.perf_counter() + args.seconds
        r = 0
        while r < min_rounds or time.perf_counter() < deadline:
            rec = recs[r % len(recs)]
            with tracer if rec is not plain else nullcontext():
                wl.run_round(state, r, rec)
            r += 1
            if r == wl.MIN_ROUNDS:
                footprint = wl.footprint(state, spark)
                frames = sparkenv.persisted_frames(spark) if spark is not None else 0

        attempted = sum(sum(x.attempted.values()) for x in recs)
        failed = sum(sum(x.failed.values()) for x in recs)
        wrong = warm.wrong + sum(x.wrong for x in recs)
        if tracer is None:
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_s": (plain.ops_per_s(), "1/s"),
                "read_p50_ms": (plain.geo_p50_ms(wl.READ_KINDS), "ms"),
                "write_p50_ms": (plain.geo_p50_ms(wl.WRITE_KINDS), "ms"),
                "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
                "cached_mb": (footprint / 2**20, "MB"),
            }
        else:
            metrics = tracer.layer_metrics(frames)
            metrics["trace.overhead_ratio"] = (overhead_ratio(plain, recs[1]), "ratio")
            tracer.dump(OUT / f"trace-{args.workload}-s{args.seed}.json")

        print(f"flexbench {args.workload} seed={args.seed} rounds={r} trace={args.trace} "
              f"setup: boot={t_boot:.3f}s builds={[round(b, 3) for b in builds]} warm={warm.call_s:.3f}s")
        for rec, label in zip(recs, ("untraced rounds", "traced rounds")):
            print(f"-- {label}")
            for line in rec.kind_table():
                print(line)
            if spark is not None:
                print("spark jobs per kind:", dict(rec.jobs))
        errors, first = Counter(), {}
        for rec in [warm, *recs]:
            errors.update(rec.errors)
            first = {**rec.first_error, **first}
        for (kind, what), n in sorted(errors.items()):
            print(f"failed {kind} x{n} ({what}), first: {first[(kind, what)]}")
        OUT.mkdir(parents=True, exist_ok=True)
        (OUT / f"run-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps({"spark_jobs": [dict(rec.jobs) for rec in recs],
                        "metrics": {k: v for k, (v, _) in metrics.items()}})
        )
        result = {
            "correct": wrong == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        if spark is not None:
            sparkenv.stop(spark)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
