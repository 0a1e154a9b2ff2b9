#!/usr/bin/env python3
"""Checks of the benchmark itself.

    python3 flexbench/selfcheck.py checkers [--workload W]
        Runs one operation of every kind, perturbs its result (or the
        benchmark's model, to simulate a lost write) and requires the
        kind's checker to reject it.  Exit code 1 if any checker accepts
        a perturbed result.

    python3 flexbench/selfcheck.py trace-jobs --workload W [--seed N]
        Runs the workload traced, ``MIN_ROUNDS`` untraced and as many
        traced rounds (the same operations, other parameters), and
        requires the same Spark job count per kind in both halves, i.e.
        that tracing launches no Spark job.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pandas as pd

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def _rejects(name: str, fn) -> bool:
    from harness import CheckFailed

    try:
        fn()
    except CheckFailed:
        print(f"  rejected  {name}")
        return True
    print(f"  ACCEPTED  {name}  <- checker missed a perturbed result")
    return False


def interactive_cases(spark):
    import wl_interactive as w
    from repro.query import snb_interactive as si

    st = w.build(SEED, spark)
    w.attach_model(st)
    m = st.model
    p, a = int(st.persons[0]), int(st.accounts[0])
    post = int(st.pg.vertices["Post"].id.iloc[0])
    c1 = si.c1_friends_in_city(st.da, p, "paris") or [(p, "nobody")]
    c3 = si.c3_city_counts(st.da, p)
    c5 = si.c5_common_friends(st.da, p)
    s1 = si.s1_profile(st.da, p)
    s2 = si.s2_last_posts(st.da, p)
    s3 = si.s3_friends(st.da, p)
    fr = st.detector.check(a)
    cy = w._query(st, w.CYPHER_COPURCHASE.format(v=a), w.cypher.parse_cypher)
    gr = w._query(st, w.GREMLIN_COBUYERS.format(v=a),
                  lambda t: w.gremlin.parse_gremlin(t, st.pg.edge_signatures))
    c2 = si.c2_recent_posts(st.da, p, w.C2_MAX_DATE)
    yield "C1 name changed", lambda: w.check_c1(m, p, "paris", [(c1[0][0], "x")] + c1[1:])
    yield "C2 date shifted", lambda: w.check_c2(m, p, [(c2[0][0] + 1, *c2[0][1:])] + c2[1:])
    yield "C3 count +1", lambda: w.check_c3(m, p, {**c3, next(iter(c3)): c3[next(iter(c3))] + 1})
    yield "C4 average +0.001", lambda: w.check_c4(m, p, si.c4_liked_length_avg(st.da, p) + 1e-3)
    yield "C5 row dropped", lambda: w.check_c5(m, p, c5[1:] if c5 else [(p, 1)])
    yield "S1 city changed", lambda: w.check_vertex(m, "person", p, {**s1, "city": "nowhere"}, "S1")
    yield "S2 post dropped", lambda: w.check_s2(m, p, s2[1:] if s2 else [{"id": 0, "creationDate": 0, "length": 0}])
    yield "S3 friend dropped", lambda: w.check_s3(m, p, s3[1:])
    yield "S4 length changed", lambda: w.check_vertex(
        m, "post", post, {**si.s4_post(st.da, post), "length": -1}, "S4")
    yield "fraud cnt1 +1", lambda: w.check_fraud(m, st.detector, a, (fr[0], fr[1] + 1, fr[2]))
    yield "cypher count +1", lambda: w.check_cypher(m, a, cy.assign(common=cy["common"] + 1))
    yield "gremlin count +1", lambda: w.check_gremlin(m, a, gr.assign(cnt=gr["cnt"] + 1))

    def lost_write():  # the model sees a KNOWS edge the program never got
        m.append("knows", pd.DataFrame([{"src": p, "dst": int(st.persons[1]), "creationDate": 1}]))
        w.check_s3(m, p, si.s3_friends(st.da, p))

    yield "U3 write lost", lost_write


def learning_cases(spark):
    import wl_learning as w

    st = w.build(SEED, spark)
    w.attach_model(st)
    seeds = st.pool[: w.BATCH]
    layers, feats = w._sample(st, seeds)
    bad = [x.copy() for x in layers]
    v = int(bad[0][0])
    non_nbrs = np.setdiff1d(st.body, st.dst[st.src == v])
    if st.deg[v]:
        bad[1][0] = non_nbrs[0]
    else:
        bad[1][0] = (v + 1) % st.n
    yield "sample: not an out-neighbour", lambda: w.check_sample(st, seeds, (bad, feats))
    f2 = [x.copy() for x in feats]
    f2[2][0, 0] += 1.0
    yield "gather: feature changed", lambda: w.check_sample(st, seeds, (layers, f2))
    yield "train_step: loss NaN", lambda: w.check_train((float("nan"), 0.5))
    yield "train_step: accuracy > 1", lambda: w.check_train((1.0, 1.5))
    csr = w._rebuild(st)
    st.deg[0] += 1  # the benchmark expects an edge the CSR lacks
    yield "add_edges: degree differs", lambda: w.check_csr(st, csr)


def analytics_cases(spark):
    import wl_analytics as w
    from repro.analytics import algorithms

    st = w.build(SEED, spark)
    w.attach_model(st)
    pr = algorithms.pagerank(st.plain, alpha=w.ALPHA, num_iter=w.PR_ITERS).toPandas()
    bfs = algorithms.bfs(st.plain, source=st.source).toPandas()
    sssp = algorithms.sssp(st.weighted, source=st.source).toPandas()
    wcc = algorithms.wcc(st.undirected).toPandas()

    def bump(df, col, delta):
        out = df.copy()
        i = out[col].first_valid_index()
        out.loc[i, col] = out.loc[i, col] + delta
        return out

    yield "pagerank rank x(1+1e-6)", lambda: w.check_pagerank(st, bump(pr, "rank", pr["rank"].iloc[0] * 1e-6))
    yield "bfs dist +1", lambda: w._check_dist(st, "bfs", bump(bfs, "dist", 1))
    yield "sssp dist +0.01", lambda: w._check_dist(st, "sssp", bump(sssp, "dist", 0.01))
    yield "wcc component +1", lambda: w.check_wcc(st, bump(wcc, "component", 1))
    yield "bfs vertex dropped", lambda: w._check_dist(st, "bfs", bfs.iloc[1:])

    class Short:
        num_vertices = st.n - 1

    yield "load vertex count", lambda: w.check_load(st, Short())


def bi_stream_cases(spark):
    import wl_bi_stream as w

    st = w.build(SEED, spark)
    w.attach_model(st)
    m = st.model
    sigs = st.pg.edge_signatures
    person = int(st.pg.edges["KNOWS"].src.iloc[0])
    account = int(st.pg.edges["BUY"].src.iloc[0])
    cases = {
        "likes_by_city": (w.Q_LIKES_BY_CITY.format(city="paris"), w.cypher.parse_cypher, "paris"),
        "copurchase": (w.Q_COPURCHASE.format(v=account), w.cypher.parse_cypher, account),
        "fof_posts": (w.Q_FOF_POSTS.format(v=person), w.cypher.parse_cypher, person),
        "category_buyers": (w.G_CATEGORY_BUYERS.format(cat="book"),
                            lambda t: w.gremlin.parse_gremlin(t, sigs), "book"),
    }
    for kind, (text, parse, param) in cases.items():
        rows = [tuple(r) for r in w._run_query(st, text, parse)]
        bad = [(*rows[0][:-1], rows[0][-1] + 1)] + rows[1:]
        yield f"{kind} count +1", lambda kind=kind, param=param, bad=bad: w.check_query(m, kind, param, bad)
    k = st.pg.edges["KNOWS"]
    gone = k[k.src == person][["src", "dst"]].head(1)

    def lost_delete():  # the model drops a KNOWS edge the store still has
        m.delete("knows", gone)
        text, parse, param = cases["fof_posts"]
        w.check_query(m, "fof_posts", param, w._run_query(st, text, parse))

    yield "delete lost", lost_delete
    yield "write version", lambda: w.check_version(st.store.write_version + 2, st.store.insert_edges(
        "KNOWS", pd.DataFrame({"src": [person], "dst": [person], "creationDate": [1]})))


CASES = {"interactive": [interactive_cases], "learning": [learning_cases],
         "olap": [bi_stream_cases, analytics_cases]}


def run_checkers(workloads) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import sparkenv

    spark = None
    ok = True
    try:
        for name in workloads:
            mod = __import__(f"wl_{name}")
            if mod.SPARK and spark is None:
                spark = sparkenv.start(ROOT / ".bench_out")
            print(f"{name}:")
            for cases in CASES[name]:
                for case, fn in cases(spark):
                    ok &= _rejects(case, fn)
    finally:
        if spark is not None:
            sparkenv.stop(spark)
    print("all checkers reject perturbed results" if ok else "SOME CHECKERS ACCEPT PERTURBED RESULTS")
    return 0 if ok else 1


def trace_jobs(workload: str, seed: int) -> int:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
    )
    out = json.loads((ROOT / ".bench_out" / f"run-{workload}-s{seed}-t1.json").read_text())
    plain, traced = out["spark_jobs"]
    print(f"{workload} seed={seed} Spark jobs per kind: untraced rounds {plain}, traced rounds {traced}")
    same = plain == traced
    print("tracing adds no Spark jobs" if same else "TRACING CHANGED THE SPARK JOB COUNT")
    return 0 if same else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("check", choices=("checkers", "trace-jobs"))
    ap.add_argument("--workload", choices=tuple(CASES))
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.check == "checkers":
        return run_checkers([args.workload] if args.workload else list(CASES))
    if args.workload is None:
        ap.error("trace-jobs needs --workload")
    return trace_jobs(args.workload, args.seed)


if __name__ == "__main__":
    sys.exit(main())
