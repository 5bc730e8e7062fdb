"""Driver-style correctness sweep: run every queries() entry and its DuckDB
oracle side-by-side at a given sf, compare row count + schema + value hash
(columns sorted by name, rows sorted by all columns — mirrors the driver).
Every ``ok`` line ends with the query's own value hash, so a diff of two
sweep logs (say, a parent commit's and a change's) covers the rows-only
entries too.

Usage: python tools/correctness_sweep.py [sf_dir] [--only name1,name2,...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

import duckdb
import pandas as pd

TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    payload = df.to_csv(index=False, float_format="%.17g").encode()
    return hashlib.md5(payload).hexdigest()


def own_hash(df: pd.DataFrame) -> str:
    """``value_hash`` of a query's own result, for a diff of two sweep
    logs; object columns that do not sort (lists, dicts) hash by their
    text form."""
    try:
        return value_hash(df)
    except TypeError:
        return value_hash(df.assign(**{
            c: df[c].astype(str) for c in df.columns
            if df[c].dtype == object}))


def normalize(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    if hasattr(obj, "to_pandas"):
        return obj.to_pandas()
    raise TypeError(type(obj))


def main() -> int:
    argv = list(sys.argv[1:])
    only: set[str] | None = None
    if "--only" in argv:
        i = argv.index("--only")
        only = set(argv[i + 1].split(","))
        del argv[i:i + 2]
    sf_dir = argv[0] if argv else "/root/testdata/sf0.01"
    import ray
    if not ray.is_initialized():
        # workers import the package too: put the repo root on their
        # path, or a run from outside the repo fails every Ray task
        path = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        ray.init(address="local", num_cpus=len(os.sched_getaffinity(0)),
                 include_dashboard=False,
                 runtime_env={"env_vars": {"PYTHONPATH": path}})
    import __ray_entry__ as e
    qs, sqls = e.queries(), e.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    if only is not None:
        missing = only - set(qs)
        if missing:
            print(f"unknown query names: {sorted(missing)}")
            return 1
        qs = {k: v for k, v in qs.items() if k in only}

    # one untimed run first: the session's cold start (worker start-up and
    # imports) would otherwise land in the first query's seconds
    try:
        next(iter(qs.values()))(sf_dir)
    except Exception:  # noqa: BLE001 - the timed run reports it
        pass

    n_fail = 0
    for name, fn in qs.items():
        t0 = time.perf_counter()
        try:
            mine = normalize(fn(sf_dir))
        except Exception as exc:  # noqa: BLE001
            print(f"FAIL {name}: query raised {type(exc).__name__}: {exc}")
            n_fail += 1
            continue
        dt = time.perf_counter() - t0
        sql = sqls.get(name)
        if sql is None:
            print(f"ok   {name}: rows={len(mine)} ({dt:.2f}s) [rows-only] "
                  f"{own_hash(mine)}")
            continue
        try:
            gold = con.execute(sql).df()
        except duckdb.Error as exc:
            # one twin that cannot run (say, out of spill space) must not
            # end the sweep: the rest still get checked and hashed
            print(f"FAIL {name}: oracle raised {type(exc).__name__}: {exc} "
                  f"{own_hash(mine)}")
            n_fail += 1
            continue
        problems = []
        if len(mine) != len(gold):
            problems.append(f"rows {len(mine)} vs {len(gold)}")
        if sorted(mine.columns) != sorted(gold.columns):
            problems.append(f"cols {sorted(mine.columns)} vs {sorted(gold.columns)}")
        else:
            # dtype-kind parity: the driver's hash distinguishes 3 from 3.0
            # (the r02 pack_blocks HUGEINT->float64 lesson); %.17g CSV alone
            # would mask an int-vs-float divergence, so check kinds first.
            bad_kinds = [
                c for c in mine.columns
                if mine[c].dtype.kind != gold[c].dtype.kind
                and {mine[c].dtype.kind, gold[c].dtype.kind} <= {"i", "u", "f"}
            ]
            if bad_kinds:
                problems.append(
                    "dtype mismatch: " + ", ".join(
                        f"{c} {mine[c].dtype}!={gold[c].dtype}" for c in bad_kinds))
            elif value_hash(mine) != value_hash(gold):
                problems.append("value-hash mismatch")
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)}")
            n_fail += 1
        else:
            print(f"ok   {name}: rows={len(mine)} ({dt:.2f}s) [hash match] "
                  f"{own_hash(mine)}")
    print(f"\n{'ALL GREEN' if n_fail == 0 else f'{n_fail} FAILURES'}")
    ray.shutdown()
    return 1 if n_fail else 0


if __name__ == "__main__":
    sys.exit(main())
