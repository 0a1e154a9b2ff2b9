"""Benchmark-tier plumbing.

* Spark tuning for medium (SF~0.1) data.
* Terminal-summary hook printing every row recorded through
  ``benchmarks._bench_utils.record`` as paper-vs-measured tables (so
  ``bench_output.txt`` contains the reproduced tables), plus a
  ``benchmarks/results.json`` dump of the same rows.
"""
import json
import os
from pathlib import Path

os.environ.setdefault("SPARK_SHUFFLE_PARTITIONS", "16")

from benchmarks._bench_utils import RESULTS  # noqa: E402


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not RESULTS:
        return
    tr = terminalreporter
    tr.write_line("")
    tr.write_sep("=", "REPRODUCTION TABLES (paper vs measured)")
    by: dict[str, list[dict]] = {}
    for r in RESULTS:
        by.setdefault(r["table"], []).append(r)
    for table, rows in by.items():
        tr.write_sep("-", table)
        cols = [c for c in rows[0] if c != "table"]
        widths = {
            c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in cols
        }
        tr.write_line("  ".join(c.ljust(widths[c]) for c in cols))
        for r in rows:
            tr.write_line(
                "  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols)
            )
    out = Path(__file__).parent / "results.json"
    out.write_text(json.dumps(RESULTS, indent=1, default=str))
    tr.write_line(f"\n[bench] rows dumped to {out}")
