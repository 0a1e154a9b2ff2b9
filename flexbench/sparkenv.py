"""The Spark session the ``olap`` workload runs on, and its clean shutdown.

Settings are fixed here so that every run and every checkout measures
the same engine: ``local[2]`` (two task threads in one JVM), two
shuffle partitions, a 2 GiB driver heap, Arrow transfers on, broadcast
joins off (as in the repository's own test session), adaptive query
execution off (fixed plans; it would split every GRAPE superstep into
three times as many Spark jobs), the JVM's client JIT only
(``-XX:TieredStopAtLevel=1``: the same operation times on these
short-lived JVMs, 2-4 s less set-up), the serial garbage collector and
thread pools sized for two processors (``-XX:+UseSerialGC
-XX:ActiveProcessorCount=2``: the same operation medians, set-up lower
in 6 of 6 paired runs, median 26 s against 31 s), no UI and no console
progress bar.  Spark's scratch space and the JVM's temporary files are
kept under ``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import os
from pathlib import Path

MASTER = "local[2]"
SHUFFLE_PARTITIONS = 2
DRIVER_MEMORY = "2g"


def start(out_dir: Path):
    """Create the session; the JVM is launched here."""
    tmp = out_dir / "tmp"
    local = out_dir / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={local} "
        f"--conf spark.driver.extraJavaOptions='-Djava.io.tmpdir={tmp} -XX:TieredStopAtLevel=1 -XX:+UseSerialGC -XX:ActiveProcessorCount=2' "
        "pyspark-shell"
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("flexbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.warehouse.dir", str(out_dir / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _cached_data(spark):
    seq = spark._jsparkSession.sharedState().cacheManager().cachedData()
    return [seq.apply(i) for i in range(seq.length())]


def cached_bytes(spark) -> int:
    """Bytes materialised by the DataFrames marked cached (``cache`` /
    ``persist``).  RDDs kept by ``localCheckpoint`` are not counted: they
    are freed whenever the JVM's garbage collector gets to them."""
    return sum(
        int(cd.cachedRepresentation().cacheBuilder().sizeInBytesStats().value())
        for cd in _cached_data(spark)
    )


def persisted_frames(spark) -> int:
    """Number of DataFrames currently marked cached."""
    return len(_cached_data(spark))


def stop(spark) -> None:
    """Stop the session and wait for the JVM process to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()
        proc.wait(timeout=60)
