"""olap: BI queries on GART while edges stream in, and GRAPE analytics on
Vineyard, in one Spark session.

The two halves are ``wl_bi_stream`` (GART, Gaia, RBO/CBO) and
``wl_analytics`` (Vineyard, GRAPE); each keeps its own store, inputs and
checks.  One round is a BI round followed by an analytics round.  They
share one workload because a Spark process spends about 40 s before its
first timed operation (session start, three set-ups, warm-up), which two
separate Spark workloads would pay twice on every run.  Kinds keep the
halves' names, so the per-kind table still tells them apart.
"""
from __future__ import annotations

from dataclasses import dataclass

import sparkenv
import wl_analytics as analytics
import wl_bi_stream as bi_stream

SPARK = True
READ_KINDS = bi_stream.READ_KINDS + analytics.READ_KINDS
WRITE_KINDS = bi_stream.WRITE_KINDS + analytics.WRITE_KINDS
MIN_ROUNDS = 1  # cached_mb and storage.gart.cached_frames are taken here


@dataclass
class State:
    bi: bi_stream.State
    an: analytics.State


def build(seed: int, spark) -> State:
    return State(bi=bi_stream.build(seed, spark), an=analytics.build(seed, spark))


def attach_model(st: State) -> None:
    bi_stream.attach_model(st.bi)
    analytics.attach_model(st.an)


def run_round(st: State, r: int, rec) -> None:
    bi_stream.run_round(st.bi, r, rec)
    analytics.run_round(st.an, r, rec)


def footprint(st: State, spark) -> int:
    """Bytes Spark holds in cached frames."""
    return sparkenv.cached_bytes(spark)
