"""Table 2 / Exp-5 — real-time fraud detection throughput.

Paper (Table 2): 10/20/30/40 threads -> 98,907 / 184,826 / 279,005 /
355,813 ops/s (near-linear).  Our sweep runs the same worker counts as
OS processes over HiActor+GART state, so scaling can be near-linear
only up to the host's core count and saturates beyond it; each row
records ``os.cpu_count()``.
"""
import os

from benchmarks._bench_utils import record

from repro.usecases import fraud

PAPER = {10: 98_907, 20: 184_826, 30: 279_005, 40: 355_813}


def test_table2_fraud_throughput(benchmark):
    pg, seeds = fraud.fraud_graph(n_accounts=2000, seed=1, n_seeds=60)

    def run():
        return fraud.throughput_sweep(
            pg, seeds, worker_counts=(10, 20, 30, 40), duration=1.5
        )

    out = benchmark.pedantic(run, rounds=1, iterations=1)
    base = out[10]
    for w in (10, 20, 30, 40):
        record(
            "Table 2: fraud detection throughput (ops/s)",
            workers=w,
            host_cores=os.cpu_count(),
            paper_ops_s=f"{PAPER[w]:,}",
            paper_scaling=f"{PAPER[w] / PAPER[10]:.2f}x",
            measured_ops_s=f"{out[w]:,.0f}",
            measured_scaling=f"{out[w] / base:.2f}x",
        )
    assert out[20] > out[10] * 1.3, "throughput should scale with workers"
