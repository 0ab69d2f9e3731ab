"""Local stand-in for the driver's correctness gate.

Runs every ``__ray_entry__.queries()`` entry at the given sf_dir, runs the
matching ``oracle_sql()`` in DuckDB over the same parquet tables, and
compares row count + (name-sorted) schema + order-insensitive values.
Each ``ok``/``FAIL`` line carries the entry's wall time (the entry call
plus the fetch of its result), so a plan-shape change can be re-timed
from one run. An entry that raises ``ray.exceptions.RaySystemError`` (a
transient Ray-core failure such as a raylet CHECK) is run once more, and
the retry is printed as ``retry <name>: <error>``; a second failure
counts.

Every verdict line is flushed as soon as it is printed. With ``--resume
LOG`` each verdict line is also appended to LOG, and the entries that
already have an ``ok`` line there are skipped, so a sweep killed by a
Ray-core abort (a C++ CHECK ends the process; no Python handler runs)
finishes by running the same command again. Names after the sf_dir run
only those entries; the names of all entries are the keys of
``__ray_entry__.queries()``.

Usage:  python tools/selfcheck.py [sf_dir] [name ...] [--resume LOG]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(obj) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data
    if isinstance(obj, ray.data.Dataset):
        return obj.to_pandas()
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="stable").reset_index(drop=True)


def compare(name: str, ours: pd.DataFrame, oracle: pd.DataFrame) -> list[str]:
    problems = []
    if len(ours) != len(oracle):
        problems.append(f"rows: ray={len(ours)} sql={len(oracle)}")
    a, b = canon(ours), canon(oracle)
    if list(a.columns) != list(b.columns):
        problems.append(f"cols: ray={list(a.columns)} sql={list(b.columns)}")
        return problems
    if len(a) == len(b):
        for c in a.columns:
            av, bv = a[c].to_numpy(), b[c].to_numpy()
            if av.dtype.kind == "f" or bv.dtype.kind == "f":
                ok = np.allclose(av.astype(np.float64), bv.astype(np.float64),
                                 rtol=0, atol=0, equal_nan=True)
            else:
                ok = (av == bv).all()
            if not ok:
                bad = (av != bv) if av.dtype.kind != "f" else ~np.isclose(
                    av.astype(np.float64), bv.astype(np.float64), rtol=0, atol=0)
                i = int(np.nonzero(bad)[0][0])
                problems.append(
                    f"col {c}: {int(bad.sum())} diffs, first at row {i}: "
                    f"ray={av[i]!r} sql={bv[i]!r}")
    return problems


def run_entry(name: str, fn, sf_dir: str) -> pd.DataFrame:
    """``fn(sf_dir)`` as a DataFrame, retried once on RaySystemError."""
    from ray.exceptions import RaySystemError
    try:
        return to_pandas(fn(sf_dir))
    except RaySystemError as ex:
        print(f"retry {name}: {ex}", flush=True)
        return to_pandas(fn(sf_dir))


def ok_in_log(path: str) -> set[str]:
    """Names with an ``ok`` verdict line in the resume log (none if the log
    does not exist yet)."""
    if not os.path.exists(path):
        return set()
    with open(path) as f:
        return {line.split()[1] for line in f if line.startswith("ok ")}


def sweep(entries: dict, oracles: dict, con, sf_dir: str,
          only: set[str] = frozenset(), log: str | None = None) -> int:
    """Judge each entry against its oracle SQL on ``con``; returns the
    number of failures. With ``log``, entries ok there are skipped and
    every verdict line is appended to it."""
    done = ok_in_log(log) if log else set()

    def verdict(line: str) -> None:
        print(line, flush=True)
        if log:
            with open(log, "a") as f:
                f.write(line + "\n")

    failures = skipped = 0
    for name, fn in entries.items():
        if only and name not in only:
            continue
        if name in done:
            skipped += 1
            continue
        t0 = time.perf_counter()
        try:
            ours = run_entry(name, fn, sf_dir)
        except Exception as ex:
            verdict(f"FAIL {name} ({time.perf_counter() - t0:.2f} s): "
                    f"ray raised {type(ex).__name__}: {ex}")
            failures += 1
            continue
        secs = f"({time.perf_counter() - t0:.2f} s)"
        if name not in oracles:
            verdict(f"ok   {name} {secs}: rows-only ({len(ours)} rows, "
                    f"cols {sorted(ours.columns)})")
            continue
        try:
            oracle = con.execute(oracles[name]).df()
        except Exception as ex:
            verdict(f"FAIL {name} {secs}: sql raised "
                    f"{type(ex).__name__}: {ex}")
            failures += 1
            continue
        problems = compare(name, ours, oracle)
        if problems:
            failures += 1
            verdict(f"FAIL {name} {secs}: " + "; ".join(problems))
        else:
            verdict(f"ok   {name} {secs}: {len(ours)} rows match oracle")
    if skipped:
        print(f"{skipped} entries skipped: ok in {log}", flush=True)
    print(f"{failures} failures", flush=True)
    return failures


def main(argv: list[str] | None = None) -> int:
    import argparse
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("sf_dir", nargs="?", default="/root/testdata/sf0.01")
    p.add_argument("names", nargs="*")
    p.add_argument("--resume", metavar="LOG")
    args = p.parse_args(argv)
    import ray
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True)
    import __ray_entry__ as e
    con = duckdb.connect()
    for t in TABLES:
        path = os.path.join(args.sf_dir, f"{t}.parquet")
        if os.path.exists(path):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"read_parquet('{path}')")
    failures = sweep(e.queries(), e.oracle_sql(), con, args.sf_dir,
                     set(args.names), args.resume)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
