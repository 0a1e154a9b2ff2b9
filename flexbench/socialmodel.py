"""The benchmark's own model of an SNB-lite graph, held in DuckDB.

Both SNB workloads feed every write they send to the program into this
model as well, and check each read against SQL over the model, so a
result that misses a write (or sees a deleted edge) fails its check.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

TABLES = {  # table name -> (vertex label or edge label, is_edge)
    "person": ("Person", False),
    "post": ("Post", False),
    "item": ("Item", False),
    "account": ("Account", False),
    "knows": ("KNOWS", True),
    "created": ("CREATED", True),
    "likes": ("LIKES", True),
    "buy": ("BUY", True),
    "aknows": ("AKNOWS", True),
}


class SocialModel:
    """DuckDB tables initialised from the generated pandas frames."""

    def __init__(self, pg, fraud_seeds=()):
        self.con = duckdb.connect()
        for name, (label, is_edge) in TABLES.items():
            df = pg.edges[label] if is_edge else pg.vertices[label]
            self.con.register("_init", df)
            self.con.execute(f"CREATE TABLE {name} AS SELECT * FROM _init")
            self.con.unregister("_init")
        seeds = pd.DataFrame({"id": np.asarray(fraud_seeds, dtype=np.int64)})
        self.con.register("_init", seeds)
        self.con.execute("CREATE TABLE seeds AS SELECT * FROM _init")
        self.con.unregister("_init")

    def append(self, name: str, rows: pd.DataFrame) -> None:
        self.con.register("_rows", rows)
        self.con.execute(f"INSERT INTO {name} BY NAME SELECT * FROM _rows")
        self.con.unregister("_rows")

    def delete(self, name: str, keys: pd.DataFrame) -> None:
        self.con.register("_keys", keys[["src", "dst"]])
        self.con.execute(
            f"DELETE FROM {name} WHERE (src, dst) IN (SELECT (src, dst) FROM _keys)"
        )
        self.con.unregister("_keys")

    def rows(self, sql: str, params=()) -> list[tuple]:
        return self.con.execute(sql, list(params)).fetchall()

    def vertex(self, table: str, vid: int) -> dict | None:
        cur = self.con.execute(f"SELECT * FROM {table} WHERE id = ?", [vid])
        names = [d[0] for d in cur.description]
        hit = cur.fetchall()
        return dict(zip(names, hit[0])) if hit else None
