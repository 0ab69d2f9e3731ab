"""Event-stream operators over the ``events`` table — the windowed /
sessionized custom-operator family.

The reference has NO streaming features (SURVEY.md §2.11) — its only
incremental loop is the crawler BFS frontier. These operators are the
engine's extension for event-log inputs, built as Ray-Data compositions
(map_batches + one hash shuffle per stage). Every user-keyed shuffle is
``common.grouped_aggregate``: coarse hash partitions, and inside each one
a single vectorized pass over all its users.

One operator per semantic. Where a user's (or a type's) whole history
may not fit in a worker, the operator takes an optional shard parameter;
``None`` is the one-shuffle plan, a value adds a time- or arrival-shard to
the wide shuffle key plus a second, tiny merge shuffle over per-shard
partials. Both plans run the same kernels and give identical output:

  sessionize              ``shard_us``      run-coalescing kernel
  streaming_windowed_agg  ``shard_events``  local lateness + carry-in
  asof_join_prior         ``shard_us``      latest prior right per run
  global_value_rank /     ``num_buckets``   broadcast histogram ranks, or
  global_percent_rank                       a range-bucketed rank table

Monetary-style doubles are exchanged as scaled integers
(round(value·100) — exact, order-insensitive sums) so results hash-match
the DuckDB oracles bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from searchengine_ray.pipelines.common import grouped_aggregate

WINDOW_US = 3_600_000_000  # 1 hour in microseconds


def windowed_agg(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Tumbling 1-hour windows per event_type.

    Columns: window_start_us (int64 epoch µs), event_type, n_events,
    sum_value_c (Σ round(value·100), int64). Partial aggregation inside
    each batch → the shuffle moves at most |windows × types| rows per
    batch, never raw events.
    """
    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        win = (ts // WINDOW_US) * WINDOW_US
        val_c = np.round(batch["value"].to_numpy(zero_copy_only=False)
                         * 100.0).astype(np.int64)
        t = pa.table({
            "window_start_us": pa.array(win),
            "event_type": pc.cast(batch["event_type"], pa.string()),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            "v": pa.array(val_c),
        })
        return (t.group_by(["window_start_us", "event_type"],
                           use_threads=False)
                 .aggregate([("n", "sum"), ("v", "sum")])
                 .rename_columns(["window_start_us", "event_type",
                                  "n", "v"]))

    def reduce_part(part: pa.Table) -> pa.Table:
        g = (part.group_by(["window_start_us", "event_type"],
                           use_threads=False)
             .aggregate([("n", "sum"), ("v", "sum")]))
        return pa.table({
            "window_start_us": pc.cast(g["window_start_us"], pa.int64()),
            "event_type": pc.cast(g["event_type"], pa.string()),
            "n_events": pc.cast(g["n_sum"], pa.int64()),
            "sum_value_c": pc.cast(g["v_sum"], pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["window_start_us", "event_type"],
                             reduce_part)


def sql_windowed_agg() -> str:
    return f"""
SELECT (epoch_us(ts) // {WINDOW_US}) * {WINDOW_US} AS window_start_us,
       event_type,
       count(*)::BIGINT AS n_events,
       sum(round(value * 100)::BIGINT)::BIGINT AS sum_value_c
FROM events GROUP BY 1, 2
"""


def _i64(col) -> np.ndarray:
    return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)


def _cents(col) -> np.ndarray:
    """round(value·100) as int64 — the exact scaled-integer value."""
    return np.round(col.to_numpy(zero_copy_only=False)
                    * 100.0).astype(np.int64)


def _run_heads(*keys: np.ndarray) -> np.ndarray:
    """Rows sorted by ``keys``: True where a row opens a new run of equal
    keys."""
    head = np.zeros(len(keys[0]), dtype=bool)
    head[:1] = True
    for k in keys:
        head[1:] |= k[1:] != k[:-1]
    return head


def _run_starts(head: np.ndarray) -> np.ndarray:
    """Index of each row's run head."""
    return np.maximum.accumulate(np.where(head, np.arange(len(head)), 0))


def _coalesce_sessions(t: pa.Table, keys: list[str], gap_us: int,
                       final: bool) -> pa.Table:
    """The one run-coalescing kernel of :func:`sessionize`. Rows are
    (user_id[, shard], start_us, end_us, n) sorted by (keys, start_us); a
    row joins the previous row's session when the keys match and its
    start lies within ``gap_us`` of that row's end. An event is a
    one-event session (start = end = ts); per-shard partial sessions are
    time-disjoint, so the previous row's end is the session's end so
    far. Returns the coalesced partials, or with ``final`` the output
    columns."""
    k = [t[c].to_numpy(zero_copy_only=False) for c in keys]
    start = t["start_us"].to_numpy(zero_copy_only=False)
    order = np.lexsort((start, *k[::-1]))
    k = [a[order] for a in k]
    start = start[order]
    end = t["end_us"].to_numpy(zero_copy_only=False)[order]
    head = _run_heads(*k)
    head[1:] |= start[1:] - end[:-1] > gap_us
    at = np.flatnonzero(head)
    end = np.maximum.reduceat(end, at)
    n = np.add.reduceat(t["n"].to_numpy(zero_copy_only=False)[order], at)
    start = start[at]
    if final:
        return pa.table({"user_id": k[0][at], "session_start_us": start,
                         "n_events": n, "duration_us": end - start})
    return pa.table({"user_id": k[0][at], "start_us": start, "end_us": end,
                     "n": n})


def sessionize(ds: "ray.data.Dataset", gap_us: int = 1_800_000_000,
               shard_us: int | None = None) -> "ray.data.Dataset":
    """Gap-based sessions per user (new session when the gap to the
    previous event exceeds ``gap_us``; default 30 min).

    Columns: user_id, session_start_us, n_events, duration_us (all int64).

    ``shard_us=None``: ONE ``grouped_aggregate`` shuffle keyed by user;
    inside a coarse partition all users sessionize in one lexsort +
    break-mask + reduceat pass (a per-user map_groups is a Python call per
    user; measured 4× slower). A user's events land in one partition, so
    this assumes a user's history fits in a worker.

    ``shard_us`` set (skew-safe, the 10^12-row path): the wide shuffle is
    keyed by (user, ts // shard_us), so no unit of work exceeds a
    user-shard of events; the same kernel emits per-shard partial
    sessions, and a SECOND, tiny user-keyed shuffle over those partials
    (never events) re-runs it to merge sessions that span shard
    boundaries. Output is identical for every shard size (tested).
    """
    keys = ["user_id"] if shard_us is None else ["user_id", "shard"]

    def events(batch: pa.Table) -> pa.Table:
        ts = _i64(batch["ts"])
        cols = {"user_id": _i64(batch["user_id"]), "start_us": ts,
                "end_us": ts, "n": np.ones(len(ts), dtype=np.int64)}
        if shard_us is not None:
            cols["shard"] = ts // shard_us
        return pa.table(cols)

    runs = grouped_aggregate(
        ds.map_batches(events, batch_format="pyarrow"), keys,
        lambda p: _coalesce_sessions(p, keys, gap_us, shard_us is None))
    if shard_us is None:
        return runs
    return grouped_aggregate(
        runs, ["user_id"],
        lambda p: _coalesce_sessions(p, ["user_id"], gap_us, True))


def sql_sessionize(gap_us: int = 1_800_000_000) -> str:
    return f"""
WITH e AS (
  SELECT user_id, epoch_us(ts) AS t,
         CASE WHEN epoch_us(ts) - lag(epoch_us(ts))
                   OVER (PARTITION BY user_id ORDER BY epoch_us(ts))
                   > {gap_us} OR lag(epoch_us(ts))
                   OVER (PARTITION BY user_id ORDER BY epoch_us(ts)) IS NULL
              THEN 1 ELSE 0 END AS is_new
  FROM events),
s AS (
  SELECT user_id, t,
         sum(is_new) OVER (PARTITION BY user_id ORDER BY t
                           ROWS UNBOUNDED PRECEDING) AS sess
  FROM e)
SELECT user_id::BIGINT AS user_id,
       min(t)::BIGINT AS session_start_us,
       count(*)::BIGINT AS n_events,
       (max(t) - min(t))::BIGINT AS duration_us
FROM s GROUP BY user_id, sess
"""


def streaming_windowed_agg(ds: "ray.data.Dataset",
                           lateness_us: int = 60_000_000,
                           window_us: int = WINDOW_US,
                           shard_events: int | None = None
                           ) -> "ray.data.Dataset":
    """Tumbling windows under STREAMING semantics with a watermark and an
    allowed-lateness policy — the streaming-window custom operator (the
    reference has no streaming features at all, SURVEY.md §2.11).

    Arrival order is the stream order (= ascending event_id; the testdata's
    ts jitter makes arrival ≠ event time, i.e. real out-of-orderness). Per
    event_type the watermark is the running max event-time seen so far
    minus ``lateness_us``; an event whose window has already been passed by
    the watermark AT ITS ARRIVAL is late → excluded from the window's
    aggregate and counted under is_late=1. Deterministic and exactly
    restated in SQL (a running-max window function), so the policy itself
    is oracle-checked.

    Columns: window_start_us, event_type, is_late (int64 0/1), n_events,
    sum_value_c.

    The watermark at an event decomposes over contiguous arrival shards
    as max(carry_in, local running max), carry_in being the max ts of all
    earlier shards. So an event is late iff it is late under its shard's
    local running max, OR carry_in ≥ win_end + lateness. One kernel
    applies the local policy per shard and emits (window, late) partials
    with the shard's max ts; one finisher flips partials by carry_in.

    ``shard_events=None``: one shard per event_type — ONE shuffle keyed
    by type, both kernels run in the same group call (carry_in =
    int64.min). ``shard_events`` set (skew-safe, the 10^12-row path): the
    wide shuffle keys on (event_type, event_id // shard_events) — type is
    a low-cardinality, skewed key — and a SECOND, tiny type-keyed shuffle
    over the partials (never events) runs the finisher. Output is
    identical for every shard size (tested).
    """
    lo = np.iinfo(np.int64).min

    def local(group: pa.Table) -> pa.Table:
        order = np.argsort(_i64(group["event_id"]), kind="stable")
        ts = _i64(group["ts"])[order]
        win = (ts // window_us) * window_us
        late = (win + window_us) <= (np.maximum.accumulate(ts) - lateness_us)
        g = (pa.table({
            "window_start_us": win,
            "is_late": late.astype(np.int64),
            "n": np.ones(len(ts), dtype=np.int64),
            "v": np.where(late, 0, _cents(group["value"])[order]),
        }).group_by(["window_start_us", "is_late"], use_threads=False)
          .aggregate([("n", "sum"), ("v", "sum")]))
        shard = group["shard"][0].as_py() if shard_events is not None else 0
        k = len(g)
        return pa.table({
            "event_type": pa.array([group["event_type"][0].as_py()] * k,
                                   type=pa.string()),
            "shard": np.full(k, shard, dtype=np.int64),
            "shard_max_ts": np.full(k, ts.max(), dtype=np.int64),
            "window_start_us": g["window_start_us"],
            "is_late": g["is_late"],
            "n_events": g["n_sum"],
            "sum_value_c": g["v_sum"],
        })

    def finish(part: pa.Table) -> pa.Table:
        shard, inv = np.unique(part["shard"].to_numpy(zero_copy_only=False),
                               return_inverse=True)
        smax = np.full(len(shard), lo, dtype=np.int64)
        np.maximum.at(smax, inv, part["shard_max_ts"]
                      .to_numpy(zero_copy_only=False))
        # exclusive prefix max of shard maxima, in shard order
        carry = np.concatenate([[lo], np.maximum.accumulate(smax)[:-1]])[inv]
        win = part["window_start_us"].to_numpy(zero_copy_only=False)
        # lateness on the RIGHT side: carry_in is int64.min for the first
        # shard and subtracting would wrap
        late = ((part["is_late"].to_numpy(zero_copy_only=False) == 1)
                | (carry >= win + window_us + lateness_us))
        v = part["sum_value_c"].to_numpy(zero_copy_only=False)
        g = (pa.table({
            "window_start_us": win,
            "is_late": late.astype(np.int64),
            "n": part["n_events"],
            "v": np.where(late, 0, v),
        }).group_by(["window_start_us", "is_late"], use_threads=False)
          .aggregate([("n", "sum"), ("v", "sum")]))
        return pa.table({
            "window_start_us": g["window_start_us"],
            "event_type": pa.array([part["event_type"][0].as_py()] * len(g),
                                   type=pa.string()),
            "is_late": g["is_late"],
            "n_events": g["n_sum"],
            "sum_value_c": g["v_sum"],
        })

    if shard_events is None:
        return ds.groupby("event_type").map_groups(
            lambda g: finish(local(g)), batch_format="pyarrow")

    def add_shard(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "shard", pa.array(_i64(batch["event_id"]) // shard_events))

    return (ds.map_batches(add_shard, batch_format="pyarrow")
              .groupby(["event_type", "shard"])
              .map_groups(local, batch_format="pyarrow")
              .groupby("event_type")
              .map_groups(finish, batch_format="pyarrow"))


def sql_streaming_windowed_agg(lateness_us: int = 60_000_000,
                               window_us: int = WINDOW_US) -> str:
    return f"""
WITH e AS (
  SELECT event_type, event_id, epoch_us(ts) AS t,
         round(value * 100)::BIGINT AS vc,
         max(epoch_us(ts)) OVER (PARTITION BY event_type ORDER BY event_id
                                 ROWS UNBOUNDED PRECEDING) AS wm
  FROM events),
flagged AS (
  SELECT event_type, (t // {window_us}) * {window_us} AS window_start_us,
         CASE WHEN (t // {window_us}) * {window_us} + {window_us}
                   <= wm - {lateness_us} THEN 1 ELSE 0 END AS is_late,
         vc
  FROM e)
SELECT window_start_us, event_type, is_late::BIGINT AS is_late,
       count(*)::BIGINT AS n_events,
       sum(CASE WHEN is_late = 1 THEN 0 ELSE vc END)::BIGINT AS sum_value_c
FROM flagged GROUP BY window_start_us, event_type, is_late
"""


def value_quantiles(ds: "ray.data.Dataset",
                    qs: tuple[float, ...] = (0.5, 0.9, 0.99),
                    num_buckets: int = 32,
                    fetch_threshold: int = 4096) -> pa.Table:
    """EXACT per-type value quantiles + distinct-user counts via
    ITERATIVE DISTRIBUTED SELECTION (:func:`value_quantile_exact`'s
    engine): every requested quantile refines TOGETHER — each round is
    ONE streaming column scan that bins all still-active
    (type, quantile) intervals into ``num_buckets`` sub-buckets, and
    the driver only ever accumulates (type, quantile, bucket, count)
    digests. The round-4 shape — a driver-side (type x distinct-cents)
    histogram — was exact but unbounded on a wide/unquantized value
    domain; this one's driver traffic is O(types x qs x buckets) per
    round regardless of value cardinality. Distinct users ride
    hash-partitioned pair-dedup partials (<= partitions x types rows).

    Columns: event_type, n_events, n_users, p{50,90,99}_value_c — the
    quantile convention matches DuckDB quantile_disc: sorted value at
    index max(0, ceil(q*n) - 1)."""
    proj = _project_type_cents(ds)
    tags = [f"p{int(round(q * 100))}_value_c" for q in qs]
    # exact ceil(q*n) in integer math (q as parts-per-million —
    # int(0.99*1e6) would TRUNCATE to 989999)
    stats, result = _select_quantiles(
        proj, {tag: (int(round(q * 1_000_000)), 1_000_000)
               for q, tag in zip(qs, tags)}, num_buckets, fetch_threshold)

    def upart(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "event_type": pc.cast(batch["event_type"], pa.string()),
            "user_id": pc.cast(batch["user_id"], pa.int64()),
        })
        return (t.group_by(["event_type", "user_id"], use_threads=False)
                .aggregate([]))

    def ureduce(part: pa.Table) -> pa.Table:
        d = (part.group_by(["event_type", "user_id"], use_threads=False)
             .aggregate([]))
        g = (d.group_by(["event_type"], use_threads=False)
             .aggregate([("user_id", "count")]))
        return pa.table({"event_type": pc.cast(g["event_type"], pa.string()),
                         "pu": pc.cast(g["user_id_count"], pa.int64())})

    users = grouped_aggregate(
        ds.select_columns(["event_type", "user_id"])
          .map_batches(upart, batch_format="pyarrow"),
        ["event_type", "user_id"], ureduce)

    u_by_type: dict[str, int] = {}
    for r in users.take_all():        # bounded: <= partitions x types rows
        u_by_type[r["event_type"]] = u_by_type.get(r["event_type"], 0) \
            + int(r["pu"])

    tys = sorted(stats)
    out: dict[str, list] = {
        "event_type": tys,
        "n_events": [int(stats[t][0]) for t in tys],
        "n_users": [u_by_type.get(t, 0) for t in tys],
    }
    for tag in tags:
        out[tag] = [result[(t, tag)] for t in tys]
    return pa.table({k: pa.array(v, type=pa.string() if k == "event_type"
                                 else pa.int64())
                     for k, v in out.items()})


def sql_value_quantiles(qs: tuple[float, ...] = (0.5, 0.9, 0.99)) -> str:
    cols = ", ".join(
        f"quantile_disc(round(value * 100)::BIGINT, {q})::BIGINT "
        f"AS p{int(round(q * 100))}_value_c" for q in qs)
    return (f"SELECT event_type, count(*)::BIGINT AS n_events, "
            f"count(DISTINCT user_id)::BIGINT AS n_users, {cols} "
            f"FROM events GROUP BY event_type")


def props_extract(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Extract the integer ``k`` from the JSON-ish props column with an RE2
    kernel (reference has no JSON functions, SURVEY.md §2.10 — this is the
    engine extension; a real pipeline would swap in a JSON parser in the
    same map_batches slot). Columns: event_id, props_k (int64, -1 when
    absent)."""
    def fn(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(pc.cast(batch["props"], pa.string()),
                             r'"k": (?P<k>\d+)')
        k = pc.struct_field(m, "k")
        out = pc.if_else(pc.is_valid(k),
                         pc.cast(k, pa.int64()),
                         pa.scalar(-1, type=pa.int64()))
        return pa.table({
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "props_k": out,
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def sql_props_extract() -> str:
    return ("SELECT event_id, CASE WHEN regexp_extract(props, '\"k\": (\\d+)', 1) = '' "
            "THEN -1 ELSE regexp_extract(props, '\"k\": (\\d+)', 1)::BIGINT END "
            "AS props_k FROM events")


# ---------------------------------------------------------------------------
# custom joins the Dataset API lacks: as-of join + range join
# ---------------------------------------------------------------------------

def _asof_runs(t: pa.Table, keys: list[str], side: bool) -> pa.Table:
    """The one "latest prior right in this run" kernel of
    :func:`asof_join_prior`. Rows (user_id[, shard], ts, event_id,
    is_left) sort by (keys, ts, event_id); a running maximum over
    right-row positions gives each row the latest right at a strictly
    earlier position, and a carry from an earlier run (below the run's
    head) means no match. Matched lefts come out as (event_id, user_id,
    prior_event_id, gap_us).

    With ``side`` (per-shard runs), each run also emits its unresolved
    lefts and its last right, marked ``side``: the user-keyed merge
    re-runs this kernel over them. A pending left has no right before it
    in its own shard, so that shard's last right sorts after it and only
    earlier shards' last rights can precede it."""
    k = [t[c].to_numpy(zero_copy_only=False) for c in keys]
    ts = t["ts"].to_numpy(zero_copy_only=False)
    eid = t["event_id"].to_numpy(zero_copy_only=False)
    order = np.lexsort((eid, ts, *k[::-1]))
    uid, ts, eid = k[0][order], ts[order], eid[order]
    is_left = t["is_left"].to_numpy(zero_copy_only=False)[order]
    head = _run_heads(*(a[order] for a in k))
    prior = np.full(len(eid), -1, dtype=np.int64)
    prior[1:] = np.maximum.accumulate(
        np.where(is_left, -1, np.arange(len(eid))))[:-1]
    ok = is_left & (prior >= _run_starts(head))
    keep = ok
    if side:
        run = np.cumsum(head)
        right = np.flatnonzero(~is_left)
        keep = is_left.copy()
        keep[right[np.diff(run[right], append=0) != 0]] = True
    matched = ok[keep]
    pi = np.maximum(prior[keep], 0)
    out = {"event_id": eid[keep], "user_id": uid[keep],
           "prior_event_id": np.where(matched, eid[pi], -1),
           "gap_us": np.where(matched, ts[keep] - ts[pi], 0)}
    if side:
        out.update(ts=ts[keep], is_left=is_left[keep], side=~matched)
    return pa.table(out)


def asof_join_prior(ds: "ray.data.Dataset", left_type: str = "purchase",
                    right_type: str = "view",
                    shard_us: int | None = None) -> "ray.data.Dataset":
    """AS-OF JOIN (inner): for every ``left_type`` event, the most recent
    STRICTLY-PRIOR ``right_type`` event of the same user — "which view
    preceded this purchase". Deterministic prior order is (ts, event_id)
    lexicographic (event_id breaks ts ties; ids are unique), so results
    are engine-independent.

    Ray-Data-first plan (there is no join primitive): inside a coarse
    partition ALL runs resolve in one vectorized pass of
    :func:`_asof_runs` — no per-user Python, no per-row loops.

    ``shard_us=None``: ONE ``grouped_aggregate`` shuffle keyed by user (a
    user's events fit in one partition; the run is the user).
    ``shard_us`` set (skew-safe, the 10^12-row path): the wide shuffle
    keys on (user, ts // shard_us), so no unit of work exceeds a
    user-shard; stage 1 resolves every left whose prior lies in its own
    shard, and a SECOND, small user-keyed shuffle over the side rows only
    (pending lefts + each shard's last right) resolves the rest. Output
    is identical for every shard size (tested).

    Columns: event_id, user_id, prior_event_id, gap_us (all int64).
    """
    keys = ["user_id"] if shard_us is None else ["user_id", "shard"]

    def events(batch: pa.Table) -> pa.Table:
        et = pc.cast(batch["event_type"], pa.string())
        b = batch.filter(pc.is_in(et, value_set=pa.array([left_type,
                                                          right_type])))
        ts = _i64(b["ts"])
        cols = {"user_id": _i64(b["user_id"]), "ts": ts,
                "event_id": _i64(b["event_id"]),
                "is_left": pc.equal(pc.cast(b["event_type"], pa.string()),
                                    left_type)}
        if shard_us is not None:
            cols["shard"] = ts // shard_us
        return pa.table(cols)

    runs = grouped_aggregate(
        ds.map_batches(events, batch_format="pyarrow"), keys,
        lambda p: _asof_runs(p, keys, shard_us is not None))
    if shard_us is None:
        return runs

    def merge(part: pa.Table) -> pa.Table:
        side = part["side"]
        done = part.filter(pc.invert(side)).select(
            ["event_id", "user_id", "prior_event_id", "gap_us"])
        return pa.concat_tables([done, _asof_runs(part.filter(side),
                                                  ["user_id"], False)])

    return grouped_aggregate(runs, ["user_id"], merge)


def sql_asof_join_prior(left_type: str = "purchase",
                        right_type: str = "view") -> str:
    return f"""
WITH e AS (SELECT event_id::BIGINT AS event_id, user_id::BIGINT AS user_id,
                  epoch_us(ts) AS ts_us, event_type FROM events),
l AS (SELECT * FROM e WHERE event_type = '{left_type}'),
r AS (SELECT * FROM e WHERE event_type = '{right_type}'),
j AS (
  SELECT l.event_id, l.user_id, r.event_id AS prior_event_id,
         l.ts_us - r.ts_us AS gap_us,
         row_number() OVER (PARTITION BY l.event_id
                            ORDER BY r.ts_us DESC, r.event_id DESC) AS rn
  FROM l JOIN r ON l.user_id = r.user_id
   AND (r.ts_us < l.ts_us
        OR (r.ts_us = l.ts_us AND r.event_id < l.event_id)))
SELECT event_id, user_id, prior_event_id, gap_us FROM j WHERE rn = 1
"""


# Deterministic irregular value buckets for the range join — quadratic
# boundaries over the testdata's value domain [0, 500). Float literals
# repr-roundtrip exactly into DuckDB, so containment decisions are
# bit-identical across engines.
RANGE_BUCKETS: list[tuple[int, float, float]] = [
    (j, 7.7 * j * j, 7.7 * (j + 1) * (j + 1)) for j in range(9)
]


def value_range_join(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """RANGE JOIN (inner) of events against the small irregular interval
    table ``RANGE_BUCKETS`` (bucket_id, lo, hi): each event joins the
    bucket with lo ≤ value < hi.

    Ray-Data-first plan: the interval table is the BROADCAST SMALL SIDE —
    intervals are sorted, non-overlapping constants captured in the task
    closure (ray.put-equivalent for kB-scale constants), and each batch
    resolves containment with ONE vectorized ``np.searchsorted`` over the
    boundary array — never a shuffle, never a per-row loop. This is the
    house pattern for any small-side join at 100 TB (dimension tables,
    config ranges): broadcast + per-batch binary search.

    Columns: event_id, bucket_id (int64), lo_c, hi_c (scaled-int
    boundaries ×100, exact in both engines).
    """
    los = np.array([b[1] for b in RANGE_BUCKETS], dtype=np.float64)
    his = np.array([b[2] for b in RANGE_BUCKETS], dtype=np.float64)
    assert (los[1:] >= his[:-1] - 1e-12).all(), "intervals must not overlap"

    def fn(batch: pa.Table) -> pa.Table:
        v = pc.cast(batch["value"], pa.float64()).to_numpy(
            zero_copy_only=False)
        # bucket candidate: rightmost lo ≤ value
        j = np.searchsorted(los, v, side="right") - 1
        ok = (j >= 0) & (v < his[np.clip(j, 0, len(his) - 1)])
        j = j[ok]
        return pa.table({
            "event_id": pc.cast(batch["event_id"], pa.int64())
            .filter(pa.array(ok)),
            "bucket_id": pa.array(j.astype(np.int64)),
            "lo_c": pa.array(np.round(los[j] * 100).astype(np.int64)),
            "hi_c": pa.array(np.round(his[j] * 100).astype(np.int64)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def sql_value_range_join() -> str:
    # ::DOUBLE — bare decimal literals parse as DECIMAL and overflow on
    # the ×100 scale; doubles also match numpy's comparisons bit-for-bit
    rows = ", ".join(f"({j}, {lo!r}::DOUBLE, {hi!r}::DOUBLE)"
                     for j, lo, hi in RANGE_BUCKETS)
    return f"""
WITH buckets(bucket_id, lo, hi) AS (VALUES {rows})
SELECT e.event_id::BIGINT AS event_id, b.bucket_id::BIGINT AS bucket_id,
       round(b.lo * 100)::BIGINT AS lo_c, round(b.hi * 100)::BIGINT AS hi_c
FROM events e JOIN buckets b ON e.value >= b.lo AND e.value < b.hi
"""


def rolling_user_window(ds: "ray.data.Dataset",
                        k: int = 5) -> "ray.data.Dataset":
    """Per-user rolling ROWS-window aggregate — for each event, the
    count and Σ value over the ``k`` most recent events of that user
    (current + k−1 preceding, ordered by (ts, event_id); SQL
    ``ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW``). The feature-
    engineering staple ("user's spend over their last 5 actions").

    Columns: event_id, user_id, roll_n, roll_sum_c (Σ round(value·100)
    over the window — integer end-to-end, so window sums are exact and
    order-insensitive across engines).

    ONE ``grouped_aggregate`` shuffle keyed by user (the house pattern: a
    user's rows co-locate; partitions hold many users). Inside a
    partition ALL users resolve in one lexsort + prefix-sum pass: rolling
    sum = cumsum[i] − cumsum[lo−1] with lo clamped to the user's run
    start — no per-user or per-row Python. Skew: a hot user's rows land
    in one partition; a user that exceeds a worker needs the time-shard
    split of ``sessionize(shard_us=)`` / ``asof_join_prior(shard_us=)``.
    """
    def events(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": _i64(batch["user_id"]),
            "ts": _i64(batch["ts"]),
            "event_id": _i64(batch["event_id"]),
            "vc": _cents(batch["value"]),
        })

    def per_part(group: pa.Table) -> pa.Table:
        uid, ts, eid, vc = (group[c].to_numpy(zero_copy_only=False)
                            for c in ("user_id", "ts", "event_id", "vc"))
        order = np.lexsort((eid, ts, uid))
        uid, eid, vc = uid[order], eid[order], vc[order]
        idx = np.arange(len(uid))
        lo = np.maximum(idx - (k - 1), _run_starts(_run_heads(uid)))
        cs = np.cumsum(vc)
        prev = np.where(lo > 0, cs[np.maximum(lo - 1, 0)], 0)
        return pa.table({
            "event_id": eid,
            "user_id": uid,
            "roll_n": idx - lo + 1,
            "roll_sum_c": cs - prev,
        })

    return grouped_aggregate(ds.map_batches(events, batch_format="pyarrow"),
                             ["user_id"], per_part)


def sql_rolling_user_window(k: int = 5) -> str:
    """Exact twin of rolling_user_window: integer window sums over
    round(value·100) — order-insensitive, no float in the window math."""
    return f"""
SELECT event_id::BIGINT AS event_id, user_id::BIGINT AS user_id,
       CAST(count(*) OVER w AS BIGINT) AS roll_n,
       CAST(sum(round(value * 100)::BIGINT) OVER w AS BIGINT) AS roll_sum_c
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts), event_id
             ROWS BETWEEN {k - 1} PRECEDING AND CURRENT ROW)
"""


# ---------------------------------------------------------------------------
# HyperLogLog distinct-user sketch (the mergeable-sketch custom operator)
# ---------------------------------------------------------------------------
HLL_P = 8                      # 2^8 = 256 registers
HLL_M = 1 << HLL_P
_HLL_WBITS = 64 - HLL_P        # 56 low bits feed the rank
_HLL_WMASK = np.uint64((1 << _HLL_WBITS) - 1)
_HLL_SCALE = 1 << (_HLL_WBITS + 1)   # 2^57: S = Σ 2^(57−M_j) is integer-exact


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """Exact vectorized bit_length for uint64 (no float round-trip — a
    2^k−ε value must NOT round up across the power-of-two boundary)."""
    bl = np.zeros(w.shape, dtype=np.int64)
    v = w.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= np.uint64(1 << s)
        bl[m] += s
        v[m] >>= np.uint64(s)
    bl[v > 0] += 1
    return bl


def hll_distinct_users(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Approximate distinct user_id per event_type via a deterministic
    HyperLogLog sketch (Flajolet et al. 2007), p=8 / 256 registers,
    hash = first 8 bytes (big-endian) of md5(str(user_id)) — the repo's
    SQL-reproducible hash discipline, so the estimate is EXACTLY
    restatable in the DuckDB oracle.

    Mergeable-sketch shape: each batch emits ≤ types×256 (event_type,
    bucket, max-rank) partial registers — the shuffle moves registers,
    never users; register merge is max, so the sketch is associative /
    re-aggregable at any fan-in (the 100-TB property). The estimator is
    integer-exact cross-engine: Σ 2^(−M_j) is carried as the integer
    S = Σ 2^(57−M_j) (absent registers contribute 2^57), so the only
    float ops are one division and (in the small-range branch) one ln —
    identical operation order both sides, round(·,6) emitted.

    Columns: event_type (string), est_r (float64).
    """
    import hashlib

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(uid, return_inverse=True)
        h = np.fromiter(
            (int.from_bytes(
                hashlib.md5(str(int(u)).encode()).digest()[:8], "big")
             for u in uniq),
            dtype=np.uint64, count=len(uniq))[codes]
        bucket = (h >> np.uint64(_HLL_WBITS)).astype(np.int64)
        w = h & _HLL_WMASK
        rho = (_HLL_WBITS + 1) - _bit_length_u64(w)
        t = pa.table({
            "event_type": pc.cast(batch["event_type"], pa.string()),
            "bucket": pa.array(bucket),
            "rho": pa.array(rho),
        })
        g = t.group_by(["event_type", "bucket"], use_threads=False) \
             .aggregate([("rho", "max")])
        return pa.table({"event_type": g["event_type"],
                         "bucket": g["bucket"],
                         "rho": pc.cast(g["rho_max"], pa.int64())})

    def estimate(part: pa.Table) -> pa.Table:
        g = part.group_by(["event_type", "bucket"], use_threads=False) \
                .aggregate([("rho", "max")])
        types = g["event_type"].to_pylist()
        rhos = g["rho_max"].to_numpy(zero_copy_only=False)
        out_t, out_e = [], []
        for et in sorted(set(types)):
            mj = [int(r) for t, r in zip(types, rhos) if t == et]
            zeros = HLL_M - len(mj)
            s = sum(1 << (_HLL_WBITS + 1 - m) for m in mj) \
                + zeros * _HLL_SCALE
            est = (0.7213 / (1.0 + 1.079 / 256.0)) * 65536.0 \
                * float(_HLL_SCALE) / float(s)
            if est <= 2.5 * HLL_M and zeros > 0:
                est = 256.0 * np.log(256.0 / zeros)
            out_t.append(et)
            out_e.append(round(est, 6))
        return pa.table({"event_type": pa.array(out_t, type=pa.string()),
                         "est_r": pa.array(out_e, type=pa.float64())})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["event_type"], estimate)


def sql_hll_distinct_users() -> str:
    """Exact twin of hll_distinct_users (same hash, same integer S, same
    float operation order)."""
    wbits, scale = _HLL_WBITS, _HLL_SCALE
    wmask = (1 << wbits) - 1
    return f"""
WITH h AS (
  SELECT event_type,
         ('0x' || substr(md5(CAST(user_id AS VARCHAR)), 1, 16))::UBIGINT AS h
  FROM events),
r AS (
  SELECT event_type, CAST(h >> {wbits} AS BIGINT) AS bucket,
         CASE WHEN (h & {wmask}::UBIGINT) = 0 THEN {wbits + 1}
              ELSE {wbits + 1} - length(bin(h & {wmask}::UBIGINT)) END AS rho
  FROM h),
m AS (SELECT event_type, bucket, max(rho) AS mj FROM r GROUP BY 1, 2),
s AS (SELECT event_type,
             sum(CAST(1 AS BIGINT) << ({wbits + 1} - mj))
               + (256 - count(*))::HUGEINT * {scale}::HUGEINT AS s_int,
             CAST(256 - count(*) AS DOUBLE) AS zeros
      FROM m GROUP BY 1)
SELECT event_type,
       round(CASE WHEN est <= 640.0 AND zeros > 0
                  THEN 256.0 * ln(256.0 / zeros) ELSE est END, 6) AS est_r
FROM (SELECT event_type, zeros,
             (0.7213 / (1.0 + 1.079 / 256.0)) * 65536.0
               * CAST({scale} AS DOUBLE) / CAST(s_int AS DOUBLE) AS est
      FROM s) t
"""


_RANK_SCHEMA = pa.schema([("event_id", pa.int64()), ("rnk", pa.int64())])


def _value_histogram(ds: "ray.data.Dataset",
                     by: list[str]) -> "ray.data.Dataset":
    """Exact (*by, vc, n) histogram of vc = round(value·100): partial per
    batch, one digest-sized ``grouped_aggregate`` shuffle."""
    keys = [*by, "vc"]

    def hpart(batch: pa.Table) -> pa.Table:
        t = pa.table({**{c: batch[c] for c in by},
                      "vc": _cents(batch["value"])})
        g = t.group_by(keys, use_threads=False).aggregate([("vc", "count")])
        return pa.table({**{c: g[c] for c in keys},
                         "n": pc.cast(g["vc_count"], pa.int64())})

    def hreduce(part: pa.Table) -> pa.Table:
        g = part.group_by(keys, use_threads=False).aggregate([("n", "sum")])
        return pa.table({**{c: g[c] for c in keys}, "n": g["n_sum"]})

    return grouped_aggregate(ds.map_batches(hpart, batch_format="pyarrow"),
                             keys, hreduce)


def _ranks_of(vc: np.ndarray, n: np.ndarray,
              above: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values ``vc`` with counts ``n``, ``above`` rows valued
    higher than all of them → (ascending order, rank() by value DESC of
    ``vc[order]``): 1 + above + rows valued strictly higher."""
    order = np.argsort(vc, kind="stable")
    na = n[order]
    return order, above + 1 + (int(na.sum()) - np.cumsum(na))


def _rank(ds: "ray.data.Dataset", num_buckets: int | None,
          group: str | None = None) -> tuple["ray.data.Dataset", int]:
    """rank() by value DESC [PARTITION BY ``group``] of every event, plus
    N (the histogram's total count). Both plans start from the exact
    :func:`_value_histogram` and never sort the corpus.

    ``num_buckets=None`` (broadcast, ungrouped only): the histogram
    reaches the driver, its ranks are broadcast once via ``ray.put`` and
    one streaming searchsorted pass assigns them — bounded by the number
    of DISTINCT values, the right plan for a quantized domain.

    ``num_buckets`` set (ranged, for a continuous domain): nothing
    O(distinct-values) reaches the driver.
      1. the histogram stays a DISTRIBUTED (materialized) Dataset;
      2. its rows range-bucket by split points from a bounded per-block
         sample (the splits only steer partitioning — output is
         independent of them); per-([group,] bucket) TOTALS are the only
         other driver fetch (≤ groups × num_buckets scalars), whose DESC
         exclusive prefix gives each bucket its rank offset;
      3. one grouped pass ranks each ([group,] bucket) locally → a
         DISTRIBUTED ([group,] vc, rnk) table;
      4. events co-partition with it by hash([group,] vc) in a
         union-shuffle; one in-partition sort puts each rank row ahead
         of its events and carries its rank onto them.
    """
    by = [group] if group else []
    hist = _value_histogram(ds, by)
    if num_buckets is None:
        parts = list(hist.iter_batches(batch_format="pyarrow"))
        vals, cnts = (np.concatenate(
            [b[c].to_numpy(zero_copy_only=False) for b in parts]
            or [np.empty(0, dtype=np.int64)]) for c in ("vc", "n"))
        if not len(vals):
            return ray.data.from_arrow(_RANK_SCHEMA.empty_table()), 0
        order, rnk = _ranks_of(vals, cnts)
        ref = ray.put((vals[order], rnk))

        def lookup(batch: pa.Table) -> pa.Table:
            v_asc, r_asc = ray.get(ref)
            return pa.table({
                "event_id": pc.cast(batch["event_id"], pa.int64()),
                "rnk": r_asc[np.searchsorted(v_asc, _cents(batch["value"]))],
            })

        return (ds.map_batches(lookup, batch_format="pyarrow"),
                int(cnts.sum()))

    hist = hist.materialize()

    # split points from a bounded per-block quantile sample (≤
    # num_buckets + 1 values per block reach the driver — a SAMPLE, not
    # the table; split quality affects balance only, never output values)
    def sample(batch: pa.Table) -> pa.Table:
        vc = batch["vc"].to_numpy(zero_copy_only=False)
        if len(vc):
            vc = np.quantile(vc, np.linspace(0, 1, num_buckets + 1),
                             method="nearest").astype(np.int64)
        return pa.table({"s": np.unique(vc)})

    samp = np.unique(np.concatenate(
        [b["s"].to_numpy(zero_copy_only=False) for b in
         hist.map_batches(sample, batch_format="pyarrow")
             .iter_batches(batch_format="pyarrow")] or
        [np.empty(0, dtype=np.int64)]))
    if len(samp) == 0:
        return ray.data.from_arrow(_RANK_SCHEMA.empty_table()), 0
    splits = np.unique(np.quantile(
        samp, np.linspace(0, 1, num_buckets + 1)[1:-1],
        method="nearest").astype(np.int64))

    def bucket_of(vc) -> np.ndarray:
        return np.searchsorted(splits, vc.to_numpy(zero_copy_only=False),
                               side="right").astype(np.int64)

    def add_bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("b", pa.array(bucket_of(batch["vc"])))

    # per-([group,] bucket) totals — the ONLY other driver fetch
    def btot(batch: pa.Table) -> pa.Table:
        return add_bucket(batch).group_by([*by, "b"], use_threads=False) \
            .aggregate([("n", "sum")])

    nb = len(splits) + 1
    tot: dict[tuple, np.ndarray] = {}
    for b in hist.map_batches(btot, batch_format="pyarrow") \
                 .iter_batches(batch_format="pyarrow"):
        for *key, bk, n in zip(*(b[c].to_pylist()
                                 for c in [*by, "b", "n_sum"])):
            tot.setdefault(tuple(key), np.zeros(nb, dtype=np.int64))[bk] += n
    # DESC rank offsets: bucket k (values ≤ splits[k]) is OUTRANKED by
    # every value of its group in higher buckets
    above = {key: np.cumsum(t[::-1])[::-1] - t for key, t in tot.items()}

    def rank_bucket(part: pa.Table) -> pa.Table:
        key = tuple(part[c][0].as_py() for c in by)
        order, rnk = _ranks_of(
            part["vc"].to_numpy(zero_copy_only=False),
            part["n"].to_numpy(zero_copy_only=False),
            int(above[key][part["b"][0].as_py()]))
        return part.select([*by, "vc"]).take(order) \
            .append_column("rnk", pa.array(rnk))

    ranks = (hist.map_batches(add_bucket, batch_format="pyarrow")
             .groupby([*by, "b"])
             .map_groups(rank_bucket, batch_format="pyarrow"))

    def tag_events(batch: pa.Table) -> pa.Table:
        return pa.table({**{c: batch[c] for c in by},
                         "vc": _cents(batch["value"]),
                         "event_id": pc.cast(batch["event_id"], pa.int64()),
                         "rnk": pa.nulls(len(batch), type=pa.int64())})

    def tag_ranks(batch: pa.Table) -> pa.Table:
        return pa.table({**{c: batch[c] for c in by}, "vc": batch["vc"],
                         "event_id": pa.nulls(len(batch), type=pa.int64()),
                         "rnk": batch["rnk"]})

    def assign(part: pa.Table) -> pa.Table:
        # sort by ([group,] vc), each rank row ahead of its events, and
        # carry the rank row forward onto them
        ev = pc.is_valid(part["event_id"]).to_numpy(zero_copy_only=False)
        keys = [part["vc"].to_numpy(zero_copy_only=False)]
        if group:
            keys.append(pc.index_in(part[group], value_set=pc.unique(
                part[group])).to_numpy(zero_copy_only=False))
        order = np.lexsort((ev, *keys))
        ev = ev[order]
        src = order[np.maximum.accumulate(
            np.where(ev, 0, np.arange(len(ev))))]
        return pa.table({
            "event_id": part["event_id"].take(order[ev]),
            "rnk": part["rnk"].take(src[ev]),
        })

    unioned = (ds.map_batches(tag_events, batch_format="pyarrow")
               .union(ranks.map_batches(tag_ranks, batch_format="pyarrow")))
    return (grouped_aggregate(unioned, [*by, "vc"], assign),
            sum(int(t.sum()) for t in tot.values()))


def global_value_rank(ds: "ray.data.Dataset",
                      num_buckets: int | None = None) -> "ray.data.Dataset":
    """Global rank of every event by value DESC (``rank()`` semantics:
    1 + count of strictly greater values; ties share a rank) — the
    distributed-global-sort-rank operator, WITHOUT a global sort.
    ``num_buckets=None`` broadcasts the (value, rank) table (bounded by
    distinct values); an int runs the range-bucketed plan for a
    continuous domain (see :func:`_rank`). Columns: event_id, rnk (int64),
    identical on both plans.
    """
    return _rank(ds, num_buckets)[0]


def sql_global_value_rank() -> str:
    return ("SELECT event_id, CAST(rank() OVER (ORDER BY "
            "CAST(round(value * 100) AS BIGINT) DESC) AS BIGINT) AS rnk "
            "FROM events")


def value_zscore(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-event z-score of value within its event_type — feature
    normalization as a two-phase broadcast-stats pipeline: phase 1
    aggregates EXACT integer moments (n, Σc, Σc²) per type (partial per
    batch, shuffle moves ≤ types rows per batch); phase 2 streams the
    normalization. All float ops happen in one shared operation order on
    integer inputs (population variance), so the SQL twin is bit-exact
    before the shared round(·,6). Columns: event_id, z_r (float64).
    """
    import ray

    def mpart(batch: pa.Table) -> pa.Table:
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        t = pa.table({
            "event_type": pc.cast(batch["event_type"], pa.string()),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            "s": pa.array(vc),
            "ss": pa.array(vc * vc),
        })
        g = (t.group_by(["event_type"], use_threads=False)
             .aggregate([("n", "sum"), ("s", "sum"), ("ss", "sum")]))
        return pa.table({"event_type": g["event_type"], "n": g["n_sum"],
                         "s": g["s_sum"], "ss": g["ss_sum"]})

    def mreduce(part: pa.Table) -> pa.Table:
        g = (part.group_by(["event_type"], use_threads=False)
             .aggregate([("n", "sum"), ("s", "sum"), ("ss", "sum")]))
        return pa.table({"event_type": g["event_type"], "n": g["n_sum"],
                         "s": g["s_sum"], "ss": g["ss_sum"]})

    mom = pa.concat_tables(
        [pa.table(b) for b in
         grouped_aggregate(ds.map_batches(mpart, batch_format="pyarrow"),
                           ["event_type"], mreduce)
         .iter_batches(batch_format="pyarrow")])
    stats = {}
    for et, n, s, ss in zip(mom["event_type"].to_pylist(),
                            mom["n"].to_pylist(), mom["s"].to_pylist(),
                            mom["ss"].to_pylist()):
        # shared float operation order with the SQL twin
        mean = float(s) / float(n)
        var = (float(ss) - float(s) * float(s) / float(n)) / float(n)
        stats[et] = (mean, var ** 0.5)
    ref = ray.put(stats)

    def assign(batch: pa.Table) -> pa.Table:
        st = ray.get(ref)
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        ets = batch["event_type"].to_pylist()
        z = np.empty(len(vc), dtype=np.float64)
        # per-distinct-type vectorized (types are few)
        ets_arr = np.array(ets, dtype=object)
        for et in set(ets):
            mean, sd = st[et]
            m = ets_arr == et
            z[m] = np.round((vc[m].astype(np.float64) - mean) / sd, 6)
        return pa.table({
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "z_r": pa.array(z),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


def sql_value_zscore() -> str:
    """Twin of value_zscore: identical integer moments, identical float
    operation order (population variance), round(·,6)."""
    return """
WITH c AS (SELECT event_id, event_type,
                  CAST(round(value * 100) AS BIGINT) AS vc FROM events),
m AS (SELECT event_type,
             CAST(count(*) AS BIGINT) AS n,
             CAST(sum(vc) AS BIGINT) AS s,
             CAST(sum(vc * vc) AS BIGINT) AS ss
      FROM c GROUP BY event_type)
SELECT c.event_id,
       round((CAST(c.vc AS DOUBLE) - CAST(m.s AS DOUBLE) / CAST(m.n AS DOUBLE))
             / sqrt((CAST(m.ss AS DOUBLE)
                     - CAST(m.s AS DOUBLE) * CAST(m.s AS DOUBLE)
                       / CAST(m.n AS DOUBLE)) / CAST(m.n AS DOUBLE)), 6)
         AS z_r
FROM c JOIN m USING (event_type)
"""


FUNNEL_STEPS = ("view", "click", "purchase")


def funnel(ds: "ray.data.Dataset",
           steps: tuple[str, ...] = FUNNEL_STEPS) -> "ray.data.Dataset":
    """Ordered-funnel analysis: for every user, the furthest step of
    ``steps`` reached IN ORDER — step k counts only if it happens
    STRICTLY AFTER the user's earliest completion of step k−1 (the
    classic min-ts funnel; re-orderings don't count).

    ONE hash(user) shuffle (coarse partitions), then every user in a
    partition resolves vectorized: per-step masked ``np.minimum.at``
    builds the earliest-completion time against the previous step's
    per-user bound — no per-user Python loop. Columns: user_id, stage
    (int64: 0 = never did step 1, len(steps) = completed the funnel).
    """
    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "ts": pc.cast(batch["ts"], pa.int64()),
            "event_type": pc.cast(batch["event_type"], pa.string()),
        })

    def per_part(part: pa.Table) -> pa.Table:
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        ts = pc.cast(part["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        et = np.array(part["event_type"].to_pylist(), dtype=object)
        users, uidx = np.unique(uid, return_inverse=True)
        bound = np.full(len(users), -(1 << 62), dtype=np.int64)
        stage = np.zeros(len(users), dtype=np.int64)
        for k, step in enumerate(steps):
            t = np.full(len(users), 1 << 62, dtype=np.int64)
            m = (et == step) & (ts > bound[uidx]) & (stage == k)[uidx]
            np.minimum.at(t, uidx[m], ts[m])
            done = t < (1 << 62)
            stage[done & (stage == k)] += 1
            bound = np.where(done & (stage == k + 1), t, bound)
        return pa.table({"user_id": pa.array(users),
                         "stage": pa.array(stage)})

    return grouped_aggregate(ds.map_batches(project, batch_format="pyarrow"),
                             ["user_id"], per_part)


def sql_funnel(steps: tuple[str, ...] = FUNNEL_STEPS) -> str:
    """Twin of funnel(): chained min-ts CTEs, one per step."""
    ctes, prev = [], None
    for k, step in enumerate(steps):
        name = f"s{k + 1}"
        if prev is None:
            ctes.append(
                f"{name} AS (SELECT user_id, min(epoch_us(ts)) AS t "
                f"FROM events WHERE event_type = '{step}' GROUP BY user_id)")
        else:
            ctes.append(
                f"{name} AS (SELECT e.user_id, min(epoch_us(e.ts)) AS t "
                f"FROM events e JOIN {prev} USING (user_id) "
                f"WHERE e.event_type = '{step}' AND epoch_us(e.ts) > {prev}.t "
                f"GROUP BY e.user_id)")
        prev = name
    joins = " ".join(f"LEFT JOIN s{k + 1} USING (user_id)"
                     for k in range(len(steps)))
    stage = " + ".join(
        f"(CASE WHEN s{k + 1}.t IS NOT NULL THEN 1 ELSE 0 END)"
        for k in range(len(steps)))
    return (f"WITH " + ",\n".join(ctes) + f"\n"
            f"SELECT u.user_id, CAST({stage} AS BIGINT) AS stage\n"
            f"FROM (SELECT DISTINCT user_id FROM events) u {joins}")


WEEK_US = 7 * 86_400_000_000


def retention(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Cohort retention: users cohort by the epoch-week of their FIRST
    event; each cell (cohort_week, week_offset) counts the distinct
    users active that many weeks later — the analytics-warehouse
    staple, as ONE wide shuffle: (user, ts) pairs ride a coarse
    hash(user) exchange once, each partition derives its users'
    cohorts and distinct (cohort, offset, user) triples vectorized
    (lexsort + run masks), and only the digest-sized distinct-triple
    table reaches the final (cohort, offset) count.

    Columns: cohort_week, week_offset, n_users (all int64).
    """
    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "w": pa.array(pc.cast(batch["ts"], pa.int64())
                          .to_numpy(zero_copy_only=False) // WEEK_US),
        })

    def per_user_part(part: pa.Table) -> pa.Table:
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        w = part["w"].to_numpy(zero_copy_only=False)
        users, uidx = np.unique(uid, return_inverse=True)
        cohort = np.full(len(users), 1 << 62, dtype=np.int64)
        np.minimum.at(cohort, uidx, w)
        off = w - cohort[uidx]
        # distinct (user, cohort, offset): lexsort + run mask
        order = np.lexsort((off, uidx))
        ui, of = uidx[order], off[order]
        first = np.empty(len(order), dtype=bool)
        if len(order):
            first[0] = True
            first[1:] = (ui[1:] != ui[:-1]) | (of[1:] != of[:-1])
        t = pa.table({
            "cohort_week": pa.array(cohort[ui[first]]),
            "week_offset": pa.array(of[first]),
            "n": pa.array(np.ones(int(first.sum()), dtype=np.int64)),
        })
        g = (t.group_by(["cohort_week", "week_offset"], use_threads=False)
             .aggregate([("n", "sum")]))
        return pa.table({"cohort_week": g["cohort_week"],
                         "week_offset": g["week_offset"],
                         "n": g["n_sum"]})

    partials = grouped_aggregate(
        ds.map_batches(project, batch_format="pyarrow"),
        ["user_id"], per_user_part)

    def final(part: pa.Table) -> pa.Table:
        g = (part.group_by(["cohort_week", "week_offset"],
                           use_threads=False).aggregate([("n", "sum")]))
        return pa.table({
            "cohort_week": pc.cast(g["cohort_week"], pa.int64()),
            "week_offset": pc.cast(g["week_offset"], pa.int64()),
            "n_users": pc.cast(g["n_sum"], pa.int64()),
        })

    return grouped_aggregate(partials, ["cohort_week", "week_offset"],
                             final)


def sql_retention() -> str:
    return f"""
WITH f AS (SELECT user_id, min(epoch_us(ts)) // {WEEK_US} AS cw
           FROM events GROUP BY user_id),
a AS (SELECT DISTINCT e.user_id, f.cw,
             (epoch_us(e.ts) // {WEEK_US}) - f.cw AS off
      FROM events e JOIN f USING (user_id))
SELECT cw AS cohort_week, off AS week_offset,
       CAST(count(*) AS BIGINT) AS n_users
FROM a GROUP BY cw, off
"""


def interarrival(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-event inter-arrival gap: microseconds since the SAME user's
    previous event (lag() semantics; −1 for a user's first event; ts
    ties broken by event_id, matching the oracle's ORDER BY ts,
    event_id). One coarse hash(user) shuffle; every user in a partition
    resolves in one lexsort + masked diff. Columns: event_id,
    gap_us (int64)."""
    def project(batch: pa.Table) -> pa.Table:
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "ts": pc.cast(batch["ts"], pa.int64()),
        })

    def per_part(part: pa.Table) -> pa.Table:
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        ts = part["ts"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u_s, e_s, t_s = uid[order], eid[order], ts[order]
        gap = np.empty(len(order), dtype=np.int64)
        if len(order):
            gap[0] = -1
            same = u_s[1:] == u_s[:-1]
            gap[1:] = np.where(same, t_s[1:] - t_s[:-1], -1)
        return pa.table({"event_id": pa.array(e_s),
                         "gap_us": pa.array(gap)})

    return grouped_aggregate(ds.map_batches(project, batch_format="pyarrow"),
                             ["user_id"], per_part)


def sql_interarrival() -> str:
    return """
SELECT event_id,
       coalesce(epoch_us(ts) - lag(epoch_us(ts)) OVER
                  (PARTITION BY user_id ORDER BY ts, event_id),
                -1)::BIGINT AS gap_us
FROM events
"""


def global_percent_rank(ds: "ray.data.Dataset",
                        num_buckets: int | None = None
                        ) -> "ray.data.Dataset":
    """percent_rank() by value DESC over all events, sort-free:
    :func:`global_value_rank` (either plan) plus one float finisher
    ((rank−1)/(N−1), round 6 — computed from exact integer ranks,
    identical op order both engines; N is the histogram's total count).
    Columns: event_id, prank_r."""
    ranked, n = _rank(ds, num_buckets)
    if not n:
        return ray.data.from_arrow(pa.schema(
            [("event_id", pa.int64()), ("prank_r", pa.float64())])
            .empty_table())
    denom = float(max(n - 1, 1))

    def to_pr(batch: pa.Table) -> pa.Table:
        rnk = batch["rnk"].to_numpy(zero_copy_only=False)
        return pa.table({"event_id": batch["event_id"],
                         "prank_r": np.round((rnk - 1).astype(np.float64)
                                             / denom, 6)})

    return ranked.map_batches(to_pr, batch_format="pyarrow")


def sql_global_percent_rank() -> str:
    return ("SELECT event_id, round(percent_rank() OVER (ORDER BY "
            "CAST(round(value * 100) AS BIGINT) DESC), 6) AS prank_r "
            "FROM events")


def distinct_users_exact(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """EXACT distinct users per event_type — the exact twin of
    :func:`hll_distinct_users` (reference A10 cardinality stats,
    app.py:246-274 health counts, restated as a distributed op).

    Three-level combiner cascade, never a row-level global shuffle of
    the raw events: (1) per-batch dedup of (type, user) pairs inside
    ``map_batches`` (the partial/combiner discipline — repeat users
    collapse before anything moves); (2) ONE hash(type, user) shuffle of
    the already-deduped pairs, per-partition dedup + per-type partial
    counts (a pair lands in exactly one partition, so partials are
    disjoint); (3) a tiny final sum over ≤ partitions × |types| rows.
    At 100 TB the exchanged table is bounded by the true pair
    cardinality, not the event count. Columns: event_type,
    distinct_users (int64).
    """
    def pairs(batch: pa.Table) -> pa.Table:
        return (batch.select(["event_type", "user_id"])
                .group_by(["event_type", "user_id"], use_threads=False)
                .aggregate([]))

    def partial_counts(part: pa.Table) -> pa.Table:
        d = part.group_by(["event_type", "user_id"],
                          use_threads=False).aggregate([])
        c = d.group_by(["event_type"], use_threads=False) \
             .aggregate([("user_id", "count")])
        return pa.table({"event_type": c["event_type"],
                         "partial": pc.cast(c["user_id_count"], pa.int64())})

    partials = grouped_aggregate(
        ds.map_batches(pairs, batch_format="pyarrow"),
        ["event_type", "user_id"], partial_counts)

    def final_sum(part: pa.Table) -> pa.Table:
        g = part.group_by(["event_type"], use_threads=False) \
                .aggregate([("partial", "sum")])
        return pa.table({"event_type": g["event_type"],
                         "distinct_users": pc.cast(g["partial_sum"],
                                                   pa.int64())})

    return grouped_aggregate(partials, ["event_type"], final_sum)


def sql_distinct_users_exact() -> str:
    return ("SELECT event_type, count(DISTINCT user_id)::BIGINT AS "
            "distinct_users FROM events GROUP BY event_type")


def running_total(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Per-user RUNNING cumulative value (``sum() OVER (PARTITION BY
    user ORDER BY ts)`` semantics) — the unbounded-preceding window
    twin of :func:`rolling_user_window`. Integer cents throughout
    (order-insensitive sums). One coarse hash(user) shuffle; every user
    in a partition resolves in one lexsort + cumsum with vectorized
    group-boundary rebase. Columns: event_id, running_c (int64)."""
    def project(batch: pa.Table) -> pa.Table:
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        return pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "ts": pc.cast(batch["ts"], pa.int64()),
            "vc": pa.array(vc),
        })

    def per_part(part: pa.Table) -> pa.Table:
        uid = part["user_id"].to_numpy(zero_copy_only=False)
        eid = part["event_id"].to_numpy(zero_copy_only=False)
        ts = part["ts"].to_numpy(zero_copy_only=False)
        vc = part["vc"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts, uid))
        u_s, e_s, v_s = uid[order], eid[order], vc[order]
        cs = np.cumsum(v_s)
        if len(order):
            starts = np.flatnonzero(np.r_[True, u_s[1:] != u_s[:-1]])
            base = np.repeat(np.r_[np.int64(0), cs[starts[1:] - 1]],
                             np.diff(np.r_[starts, len(order)]))
            run = cs - base
        else:
            run = cs
        return pa.table({"event_id": pa.array(e_s),
                         "running_c": pa.array(run.astype(np.int64))})

    return grouped_aggregate(ds.map_batches(project, batch_format="pyarrow"),
                             ["user_id"], per_part)


def sql_running_total() -> str:
    return """
SELECT event_id,
       sum(CAST(round(value * 100) AS BIGINT)) OVER
           (PARTITION BY user_id ORDER BY ts, event_id)::BIGINT AS running_c
FROM events
"""


def value_histogram(ds: "ray.data.Dataset",
                    bin_width_c: int = 500) -> "ray.data.Dataset":
    """Fixed-width value histogram per event_type (bin = floor(cents /
    width)) — the profiling op that sizes the quantile/median bucket
    machinery. Pure combiner shape: per-batch partial histograms (the
    only thing that ever moves is (type, bin, n) digests), then ONE
    hash(type, bin) shuffle summing disjoint partials. Columns:
    event_type, bin, n (int64)."""
    def hpart(batch: pa.Table) -> pa.Table:
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        b = np.floor_divide(vc, bin_width_c)
        t = batch.select(["event_type"]).append_column("bin", pa.array(b))
        g = t.group_by(["event_type", "bin"], use_threads=False) \
             .aggregate([("bin", "count")])
        return pa.table({"event_type": g["event_type"], "bin": g["bin"],
                         "n": pc.cast(g["bin_count"], pa.int64())})

    def hsum(part: pa.Table) -> pa.Table:
        g = part.group_by(["event_type", "bin"], use_threads=False) \
                .aggregate([("n", "sum")])
        return pa.table({"event_type": g["event_type"], "bin": g["bin"],
                         "n": pc.cast(g["n_sum"], pa.int64())})

    return grouped_aggregate(ds.map_batches(hpart, batch_format="pyarrow"),
                             ["event_type", "bin"], hsum)


def sql_value_histogram(bin_width_c: int = 500) -> str:
    return (f"SELECT event_type, CAST(floor(CAST(round(value * 100) AS "
            f"BIGINT) / {bin_width_c}.0) AS BIGINT) AS bin, "
            f"count(*)::BIGINT AS n FROM events GROUP BY event_type, bin")


def value_median_exact(ds: "ray.data.Dataset", num_buckets: int = 32,
                       fetch_threshold: int = 4096) -> "ray.data.Dataset":
    """EXACT per-type lower median (q = 1/2; see
    :func:`value_quantile_exact` for the algorithm). Columns:
    event_type, median_c (int64)."""
    return value_quantile_exact(ds, 1, 2, "median_c",
                                num_buckets, fetch_threshold)


def value_quantile_exact(ds: "ray.data.Dataset", q_num: int = 1,
                         q_den: int = 2, out_col: str = "median_c",
                         num_buckets: int = 32,
                         fetch_threshold: int = 4096
                         ) -> "ray.data.Dataset":
    """EXACT per-type q-quantile — the k-th smallest cents value with
    k = ceil(q*n) = (q_num*n + q_den - 1) // q_den — by ITERATIVE
    DISTRIBUTED SELECTION (:func:`_iterative_select`), never a sort
    and never an O(distinct-values) structure on the driver. Columns:
    event_type, <out_col> (int64)."""
    stats, result = _select_quantiles(_project_type_cents(ds),
                                      {out_col: (q_num, q_den)},
                                      num_buckets, fetch_threshold)
    tys = sorted(stats)
    return _table_dataset(pa.table({
        "event_type": pa.array(tys, type=pa.string()),
        out_col: pa.array([result[(t, out_col)] for t in tys],
                          type=pa.int64()),
    }))


def _project_type_cents(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """(event_type, vc=round(value*100)) projection the selection scans
    re-stream per round — at 100 TB each round re-reads two id-width
    columns from storage rather than pinning a projection in the
    object store."""
    def project(batch: pa.Table) -> pa.Table:
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        return pa.table({"event_type": batch["event_type"],
                         "vc": pa.array(vc)})

    return ds.select_columns(["event_type", "value"]) \
             .map_batches(project, batch_format="pyarrow")


def _type_value_stats(proj: "ray.data.Dataset"
                      ) -> dict[str, tuple[int, int, int]]:
    """One streaming pass -> {event_type: (n, min_vc, max_vc)} from
    digest-sized per-batch partials."""
    def stats_part(batch: pa.Table) -> pa.Table:
        g = batch.group_by(["event_type"], use_threads=False).aggregate(
            [("vc", "count"), ("vc", "min"), ("vc", "max")])
        return pa.table({"event_type": g["event_type"],
                         "n": pc.cast(g["vc_count"], pa.int64()),
                         "lo": g["vc_min"], "hi": g["vc_max"]})

    agg: dict[str, list[int]] = {}
    for b in proj.map_batches(stats_part, batch_format="pyarrow") \
                 .iter_batches(batch_format="pyarrow"):
        for ty, n, lo, hi in zip(b["event_type"].to_pylist(),
                                 b["n"].to_pylist(), b["lo"].to_pylist(),
                                 b["hi"].to_pylist()):
            cur = agg.setdefault(ty, [0, lo, hi])
            cur[0] += n
            cur[1] = min(cur[1], lo)
            cur[2] = max(cur[2], hi)
    return {ty: (int(n), int(lo), int(hi))
            for ty, (n, lo, hi) in agg.items()}


def _select_quantiles(proj: "ray.data.Dataset",
                      qs: dict[str, tuple[int, int]],
                      num_buckets: int, fetch_threshold: int
                      ) -> tuple[dict[str, tuple[int, int, int]],
                                 dict[tuple[str, str], int]]:
    """Per-type k-th smallest vc, k = max(1, ceil(q_num·n / q_den)),
    for every ``tag: (q_num, q_den)`` of ``qs``: one stats pass, then
    ONE :func:`_iterative_select` run in which all targets refine in
    the same scans. Returns (stats, {(type, tag): value})."""
    stats = _type_value_stats(proj)
    active = {(ty, tag): (lo - 1, hi, max(1, (qn * n + qd - 1) // qd))
              for ty, (n, lo, hi) in stats.items()
              for tag, (qn, qd) in qs.items()}
    counts = {key: stats[key[0]][0] for key in active}
    return stats, _iterative_select(proj, active, counts, num_buckets,
                                    fetch_threshold)


def _iterative_select(proj: "ray.data.Dataset",
                      active: dict[tuple[str, str], tuple[int, int, int]],
                      counts: dict[tuple[str, str], int],
                      num_buckets: int = 32,
                      fetch_threshold: int = 4096
                      ) -> dict[tuple[str, str], int]:
    """Iterative distributed selection over (event_type, vc) rows for
    MANY targets at once: ``active[(type, tag)] = (lo_excl, hi_incl,
    k)`` asks for the k-th smallest vc in (lo, hi] among rows of that
    type. Each refinement round is ONE streaming column scan: every
    batch bins its in-interval values for EVERY still-active target
    into ``num_buckets`` sub-buckets and emits (type, tag, bucket,
    count) digests — the ONLY thing the driver ever accumulates
    (<= targets x buckets scalars per block). The driver walks the
    cumulative counts, narrows each target's interval, and re-scans;
    a target stops when its interval holds <= ``fetch_threshold``
    values (fetched once; ``np.partition`` gives the exact order
    statistic) or collapses to a single integer. Rounds are
    O(log_buckets(value_range)) — the slowest target bounds the scan
    count, so p50/p90/p99 together cost the same passes as one."""
    active = dict(active)
    counts = dict(counts)
    result: dict[tuple[str, str], int] = {}
    to_fetch: dict[tuple[str, str], tuple[int, int, int]] = {}

    while active:
        for key in list(active):
            lo, hi, k = active[key]
            if hi - lo == 1:          # single integer left — done
                result[key] = hi
                del active[key]
            elif counts[key] <= fetch_threshold:
                to_fetch[key] = active.pop(key)
        if not active:
            break
        # integer sub-edges per target (inner edges, ascending)
        spec = {}
        for key, (lo, hi, _k) in active.items():
            edges = np.unique(np.linspace(lo, hi, num_buckets + 1)
                              .astype(np.int64))[1:-1]
            spec[key] = (lo, hi, edges)

        def bucket_pass(batch: pa.Table, _spec=spec) -> pa.Table:
            vc = batch["vc"].to_numpy(zero_copy_only=False)
            by_ty: dict[str, list] = {}
            for (ty, tag), s in _spec.items():
                by_ty.setdefault(ty, []).append((tag, s))
            tys, tags, bks, cts = [], [], [], []
            for ty, specs in by_ty.items():
                tm = pc.equal(batch["event_type"], ty).to_numpy(
                    zero_copy_only=False)
                if not tm.any():
                    continue
                for tag, (lo, hi, edges) in specs:
                    m = tm & (vc > lo) & (vc <= hi)
                    if not m.any():
                        continue
                    bk = np.searchsorted(edges, vc[m], side="left")
                    u, c = np.unique(bk, return_counts=True)
                    tys.extend([ty] * len(u))
                    tags.extend([tag] * len(u))
                    bks.append(u.astype(np.int64))
                    cts.append(c.astype(np.int64))
            if not tys:
                z = pa.array([], type=pa.int64())
                return pa.table({"event_type":
                                 pa.array([], type=pa.string()),
                                 "tag": pa.array([], type=pa.string()),
                                 "bk": z, "c": z})
            return pa.table({"event_type": pa.array(tys),
                             "tag": pa.array(tags),
                             "bk": pa.array(np.concatenate(bks)),
                             "c": pa.array(np.concatenate(cts))})

        hist: dict[tuple[str, str], np.ndarray] = {
            key: np.zeros(len(spec[key][2]) + 1, dtype=np.int64)
            for key in spec}
        for b in proj.map_batches(bucket_pass, batch_format="pyarrow") \
                     .iter_batches(batch_format="pyarrow"):
            for ty, tag, bk, c in zip(b["event_type"].to_pylist(),
                                      b["tag"].to_pylist(),
                                      b["bk"].to_pylist(),
                                      b["c"].to_pylist()):
                hist[(ty, tag)][bk] += c
        for key in list(active):
            lo, hi, k = active[key]
            edges = spec[key][2]
            cum = np.cumsum(hist[key])
            j = int(np.searchsorted(cum, k, side="left"))
            k_new = k - (int(cum[j - 1]) if j else 0)
            all_edges = np.concatenate([[lo], edges, [hi]])
            active[key] = (int(all_edges[j]), int(all_edges[j + 1]), k_new)
            counts[key] = int(hist[key][j])

    if to_fetch:
        fspec = dict(to_fetch)

        def fetch(batch: pa.Table, _f=fspec) -> pa.Table:
            vc = batch["vc"].to_numpy(zero_copy_only=False)
            by_ty: dict[str, list] = {}
            for (ty, tag), s in _f.items():
                by_ty.setdefault(ty, []).append((tag, s))
            tys, tags, vals = [], [], []
            for ty, specs in by_ty.items():
                tm = pc.equal(batch["event_type"], ty).to_numpy(
                    zero_copy_only=False)
                if not tm.any():
                    continue
                for tag, (lo, hi, _k) in specs:
                    m = tm & (vc > lo) & (vc <= hi)
                    if not m.any():
                        continue
                    nm = int(m.sum())
                    tys.extend([ty] * nm)
                    tags.extend([tag] * nm)
                    vals.append(vc[m])
            if not tys:
                return pa.table({"event_type":
                                 pa.array([], type=pa.string()),
                                 "tag": pa.array([], type=pa.string()),
                                 "vc": pa.array([], type=pa.int64())})
            return pa.table({"event_type": pa.array(tys),
                             "tag": pa.array(tags),
                             "vc": pa.array(np.concatenate(vals))})

        vals: dict[tuple[str, str], list[np.ndarray]] = {
            key: [] for key in fspec}
        for b in proj.map_batches(fetch, batch_format="pyarrow") \
                     .iter_batches(batch_format="pyarrow"):
            t = b["event_type"].to_numpy(zero_copy_only=False)
            g = b["tag"].to_numpy(zero_copy_only=False)
            v = b["vc"].to_numpy(zero_copy_only=False)
            for ty, tag in fspec:
                m = (t == ty) & (g == tag)
                if m.any():
                    vals[(ty, tag)].append(v[m])
        for key, (_lo, _hi, k) in fspec.items():
            v = (np.concatenate(vals[key]) if vals[key]
                 else np.empty(0, dtype=np.int64))
            result[key] = int(np.partition(v, k - 1)[k - 1])
    return result


def _table_dataset(tbl: pa.Table) -> "ray.data.Dataset":
    import ray
    return ray.data.from_arrow(tbl)


def sql_value_median_exact() -> str:
    return sql_value_quantile_exact(1, 2, "median_c")


def sql_value_quantile_exact(q_num: int = 1, q_den: int = 2,
                             out_col: str = "median_c") -> str:
    return f"""
SELECT event_type, vc AS {out_col} FROM (
  SELECT event_type, vc,
         row_number() OVER (PARTITION BY event_type
                            ORDER BY vc, event_id) AS rn,
         count(*) OVER (PARTITION BY event_type) AS n
  FROM (SELECT event_id, event_type,
               CAST(round(value * 100) AS BIGINT) AS vc FROM events)
) WHERE rn = ({q_num} * n + {q_den} - 1) // {q_den}
"""


TOP_N_DEFAULT = 100


def top_n_by_value(ds: "ray.data.Dataset",
                   n: int = TOP_N_DEFAULT) -> "ray.data.Dataset":
    """Global top-N events by value (DESC, event_id ASC tie-break)
    WITHOUT a global sort: every batch pre-aggregates its own top-N
    (lexsort + head — ≤ N rows leave each batch), one single-key reduce
    finishes. The shuffle moves ≤ N × blocks digest rows; the corpus is
    never re-ordered. Columns: rnk, event_id, vc (int64)."""
    def _head(eid: np.ndarray, vc: np.ndarray, emit_rank: bool
              ) -> pa.Table:
        order = np.lexsort((eid, -vc))[:n]
        cols = {}
        if emit_rank:
            cols["rnk"] = pa.array(np.arange(1, len(order) + 1,
                                             dtype=np.int64))
        cols["event_id"] = pa.array(eid[order])
        cols["vc"] = pa.array(vc[order])
        return pa.table(cols)

    def partial(batch: pa.Table) -> pa.Table:
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        eid = pc.cast(batch["event_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        t = _head(eid, vc, emit_rank=False)
        return t.append_column("k", pa.array(
            np.zeros(len(t), dtype=np.int64)))

    def final(part: pa.Table) -> pa.Table:
        return _head(part["event_id"].to_numpy(zero_copy_only=False),
                     part["vc"].to_numpy(zero_copy_only=False),
                     emit_rank=True)

    return grouped_aggregate(ds.map_batches(partial,
                                            batch_format="pyarrow"),
                             ["k"], final)


def sql_top_n_by_value(n: int = TOP_N_DEFAULT) -> str:
    return (f"SELECT CAST(row_number() OVER (ORDER BY "
            f"CAST(round(value * 100) AS BIGINT) DESC, event_id) AS BIGINT)"
            f" AS rnk, event_id, CAST(round(value * 100) AS BIGINT) AS vc "
            f"FROM events ORDER BY rnk LIMIT {n}")


def type_value_rank_ranged(ds: "ray.data.Dataset",
                           num_buckets: int = 32) -> "ray.data.Dataset":
    """GROUPED window rank — ``rank() OVER (PARTITION BY event_type
    ORDER BY value DESC)`` — for a CONTINUOUS value domain: the ranged
    plan of :func:`_rank` grouped by event_type (per-(type, bucket)
    totals are the only driver fetch besides the split sample).
    Columns: event_id, rnk (int64).
    """
    return _rank(ds, num_buckets, "event_type")[0]


def sql_type_value_rank() -> str:
    return ("SELECT event_id, CAST(rank() OVER (PARTITION BY event_type "
            "ORDER BY CAST(round(value * 100) AS BIGINT) DESC) AS BIGINT)"
            " AS rnk FROM events")


PIVOT_TYPES = ("signup", "click", "error", "view", "purchase")


def pivot_type_counts(ds: "ray.data.Dataset",
                      types: tuple[str, ...] = PIVOT_TYPES
                      ) -> "ray.data.Dataset":
    """PIVOT / one-hot feature matrix: one row per user with one count
    column per event type (``n_<type>``) plus ``n_total`` — the classic
    crosstab used to turn an event log into a per-entity feature table.

    Pure combiner: each batch pre-aggregates indicator columns with
    Arrow's C++ group_by, so the exchange moves ≤ |users-in-batch| rows
    of int64 counts per batch and the final ``grouped_aggregate`` sums
    partials per coarse hash(user) partition. The pivoted type set is a
    fixed argument (as in SQL PIVOT) — unknown types count only toward
    ``n_total``, keeping the output schema static at any scale.
    """
    cols = [f"n_{t}" for t in types]

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"]
        d = {"user_id": pc.cast(batch["user_id"], pa.int64())}
        for t, c in zip(types, cols):
            d[c] = pc.cast(pc.equal(et, t), pa.int64())
        d["n_total"] = pa.array(np.ones(len(batch), dtype=np.int64))
        t_ = pa.table(d)
        g = (t_.group_by(["user_id"], use_threads=False)
             .aggregate([(c, "sum") for c in cols + ["n_total"]]))
        return g.rename_columns(["user_id"] + cols + ["n_total"])

    def final(part: pa.Table) -> pa.Table:
        g = (part.group_by(["user_id"], use_threads=False)
             .aggregate([(c, "sum") for c in cols + ["n_total"]]))
        out = {"user_id": pc.cast(g["user_id"], pa.int64())}
        for c in cols + ["n_total"]:
            out[c] = pc.cast(g[f"{c}_sum"], pa.int64())
        return pa.table(out)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["user_id"], final)


def sql_pivot_type_counts(types: tuple[str, ...] = PIVOT_TYPES) -> str:
    filt = ", ".join(
        f"count(*) FILTER (WHERE event_type = '{t}')::BIGINT AS n_{t}"
        for t in types)
    return (f"SELECT user_id, {filt}, count(*)::BIGINT AS n_total "
            f"FROM events GROUP BY user_id")


def user_value_median(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """GROUPED exact median at HIGH key cardinality — ``median(value)
    GROUP BY user_id`` — the shape where per-group iterative selection
    (value_median_exact's per-TYPE loop) would not amortize.

    One coarse hash(user) shuffle; inside each partition ALL users'
    medians compute in a single vectorized pass (lexsort by (user, vc),
    run-length segment bounds, gather the two middle elements per run).
    Groups never span partitions, so this is exact; the driver never
    sees raw rows. Columns: user_id, median_c2 (int64 — the median in
    HALF-cents: lo+hi of the two middles, = 2·median, so even-count
    averages stay integers and order-insensitive).
    """
    def med(part: pa.Table) -> pa.Table:
        uid = pc.cast(part["user_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        vc = np.round(part["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        if uid.size == 0:
            z = pa.array([], type=pa.int64())
            return pa.table({"user_id": z, "median_c2": z})
        order = np.lexsort((vc, uid))
        uid, vc = uid[order], vc[order]
        new = np.empty(uid.size, dtype=bool)
        new[0] = True
        new[1:] = uid[1:] != uid[:-1]
        starts = np.flatnonzero(new)
        counts = np.diff(np.r_[starts, uid.size])
        lo = vc[starts + (counts - 1) // 2]
        hi = vc[starts + counts // 2]
        return pa.table({"user_id": pa.array(uid[starts]),
                         "median_c2": pa.array(lo + hi)})

    return grouped_aggregate(ds, ["user_id"], med)


def sql_user_value_median() -> str:
    # 2·median of integer cents == the sum of the two middle elements,
    # integer-exact on both engines (DuckDB median interpolates halves)
    return ("SELECT user_id, CAST(round(2 * median("
            "CAST(round(value * 100) AS BIGINT))) AS BIGINT) AS median_c2 "
            "FROM events GROUP BY user_id")


def type_transitions(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Markov TRANSITION MATRIX of consecutive event types per user —
    ``(event_type, lead(event_type) OVER (PARTITION BY user ORDER BY
    ts, event_id))`` counted globally. Columns: prev_type, next_type, n.

    One coarse hash(user) shuffle (a user's events co-locate, so every
    consecutive pair is visible in exactly one partition); inside each
    partition ALL users' transitions extract in a single lexsorted
    shift-compare pass, pre-counted per partition, then a tiny
    (type × type)-row reduce. The sequence step never leaves the
    partition — only the ≤ |types|² digest rows move twice.
    """
    def per_part(part: pa.Table) -> pa.Table:
        uid = pc.cast(part["user_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = pc.cast(part["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = pc.cast(part["event_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        et = part["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        if uid.size == 0:
            e = pa.array([], type=pa.string())
            return pa.table({"prev_type": e, "next_type": e,
                             "pn": pa.array([], type=pa.int64())})
        order = np.lexsort((eid, ts, uid))
        same_user = uid[order][1:] == uid[order][:-1]
        oa = pa.array(order)
        t = pa.table({
            "prev_type": et.take(oa[:-1]),
            "next_type": et.take(oa[1:]),
        }).filter(pa.array(same_user))
        g = (t.group_by(["prev_type", "next_type"], use_threads=False)
             .aggregate([([], "count_all")]))
        return pa.table({"prev_type": g["prev_type"],
                         "next_type": g["next_type"],
                         "pn": pc.cast(g["count_all"], pa.int64())})

    def final(part: pa.Table) -> pa.Table:
        g = (part.group_by(["prev_type", "next_type"], use_threads=False)
             .aggregate([("pn", "sum")]))
        return pa.table({
            "prev_type": pc.cast(g["prev_type"], pa.string()),
            "next_type": pc.cast(g["next_type"], pa.string()),
            "n": pc.cast(g["pn_sum"], pa.int64()),
        })

    partials = grouped_aggregate(ds, ["user_id"], per_part)
    return grouped_aggregate(partials, ["prev_type", "next_type"], final)


def sql_type_transitions() -> str:
    return """
WITH seq AS (
  SELECT event_type,
         lead(event_type) OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) AS nxt
  FROM events)
SELECT event_type AS prev_type, nxt AS next_type, count(*)::BIGINT AS n
FROM seq WHERE nxt IS NOT NULL GROUP BY 1, 2
"""


def latest_per_user(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """LATEST-RECORD-PER-KEY materialization (the CDC/state-table
    pattern: reduce an append-only log to each key's current row).
    Columns: user_id, event_id, ts_us, event_type, vc — the row of the
    user's latest event (max ts; ties → max event_id).

    Per-batch pre-reduction keeps only each user's in-batch latest row
    (≤ |users-in-batch| rows leave every batch), then ONE coarse
    hash(user) shuffle and a vectorized per-partition take-last finish.
    Never a global sort; the log's full width rides only the digest
    rows.
    """
    def take_latest(t: pa.Table) -> pa.Table:
        uid = pc.cast(t["user_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = pc.cast(t["ts_us"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = pc.cast(t["event_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        if uid.size == 0:
            return t
        order = np.lexsort((eid, ts, uid))
        last = np.empty(uid.size, dtype=bool)
        sorted_uid = uid[order]
        last[:-1] = sorted_uid[1:] != sorted_uid[:-1]
        last[-1] = True
        return t.take(pa.array(order[last]))

    def partial(batch: pa.Table) -> pa.Table:
        t = pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "ts_us": pc.cast(batch["ts"], pa.int64()),
            "event_type": pc.cast(batch["event_type"], pa.string()),
            "vc": pa.array(np.round(
                batch["value"].to_numpy(zero_copy_only=False) * 100.0
            ).astype(np.int64)),
        })
        return take_latest(t)

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["user_id"], take_latest)


def sql_latest_per_user() -> str:
    return """
SELECT user_id, event_id, ts_us, event_type, vc FROM (
  SELECT user_id, event_id, epoch_us(ts) AS ts_us, event_type,
         CAST(round(value * 100) AS BIGINT) AS vc,
         row_number() OVER (PARTITION BY user_id
                            ORDER BY ts DESC, event_id DESC) AS rn
  FROM events) WHERE rn = 1
"""


def value_outliers(ds: "ray.data.Dataset",
                   num_buckets: int = 32,
                   fetch_threshold: int = 4096) -> "ray.data.Dataset":
    """Per-type IQR OUTLIER counts — Tukey fences from EXACT p25/p75
    (the iterative-distributed-selection machinery composed twice), in
    doubled integer cents so the 1.5·IQR arithmetic stays exact:
    low: 2·vc < 2·p25 − 3·(p75−p25); high: 2·vc > 2·p75 + 3·(p75−p25).
    Columns: event_type, n_low, n_high.

    The two selection passes ship only (type, bucket, count) digests;
    the fences (≤ |types| scalars) broadcast into a final counting
    pass — one partial per batch, one tiny reduce.
    """
    q25 = {r["event_type"]: int(r["p_c"]) for r in
           value_quantile_exact(ds, 1, 4, "p_c", num_buckets,
                                fetch_threshold).take_all()}
    q75 = {r["event_type"]: int(r["p_c"]) for r in
           value_quantile_exact(ds, 3, 4, "p_c", num_buckets,
                                fetch_threshold).take_all()}
    types = sorted(q25)
    type_arr = pa.array(types, type=pa.string())
    lo_arr = np.array([2 * q25[t] - 3 * (q75[t] - q25[t])
                       for t in types], dtype=np.int64)
    hi_arr = np.array([2 * q75[t] + 3 * (q75[t] - q25[t])
                       for t in types], dtype=np.int64)

    def partial(batch: pa.Table) -> pa.Table:
        et = pc.cast(batch["event_type"], pa.string())
        idx = pc.index_in(et, type_arr).to_numpy(zero_copy_only=False)
        vc2 = 2 * np.round(batch["value"].to_numpy(zero_copy_only=False)
                           * 100.0).astype(np.int64)
        t = pa.table({
            "event_type": et,
            "l": pa.array((vc2 < lo_arr[idx]).astype(np.int64)),
            "h": pa.array((vc2 > hi_arr[idx]).astype(np.int64)),
        })
        return (t.group_by(["event_type"], use_threads=False)
                 .aggregate([("l", "sum"), ("h", "sum")])
                 .rename_columns(["event_type", "l", "h"]))

    def final(part: pa.Table) -> pa.Table:
        g = (part.group_by(["event_type"], use_threads=False)
             .aggregate([("l", "sum"), ("h", "sum")]))
        return pa.table({
            "event_type": pc.cast(g["event_type"], pa.string()),
            "n_low": pc.cast(g["l_sum"], pa.int64()),
            "n_high": pc.cast(g["h_sum"], pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["event_type"], final)


def sql_value_outliers() -> str:
    q25 = sql_value_quantile_exact(1, 4, "p25_c")
    q75 = sql_value_quantile_exact(3, 4, "p75_c")
    return f"""
WITH f AS (
  SELECT a.event_type,
         2 * a.p25_c - 3 * (b.p75_c - a.p25_c) AS lo2,
         2 * b.p75_c + 3 * (b.p75_c - a.p25_c) AS hi2
  FROM ({q25}) a JOIN ({q75}) b USING (event_type))
SELECT e.event_type,
       sum(CASE WHEN 2 * CAST(round(e.value * 100) AS BIGINT) < f.lo2
                THEN 1 ELSE 0 END)::BIGINT AS n_low,
       sum(CASE WHEN 2 * CAST(round(e.value * 100) AS BIGINT) > f.hi2
                THEN 1 ELSE 0 END)::BIGINT AS n_high
FROM events e JOIN f USING (event_type)
GROUP BY e.event_type
"""


THROTTLE_GAP_US = 86_400_000_000  # 1 day


def throttle(ds: "ray.data.Dataset",
             gap_us: int = THROTTLE_GAP_US) -> "ray.data.Dataset":
    """DEBOUNCE / THROTTLE: keep an event iff no PREVIOUS event of the
    same (user_id, event_type) occurred within ``gap_us`` (lag
    semantics — each event compares to the immediately preceding RAW
    event of its key, the dedup used for retry storms and duplicate
    beacons). Columns: event_id, kept (bool) — a mask, so the caller
    can either filter or audit.

    One coarse hash(user, type) shuffle; inside a partition all keys
    debounce in a single lexsorted shift-compare (a key's events
    co-locate, so the lag never crosses partitions).
    """
    def per_part(part: pa.Table) -> pa.Table:
        uid = pc.cast(part["user_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = pc.cast(part["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = pc.cast(part["event_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        et = part["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        if uid.size == 0:
            return pa.table({"event_id": pa.array([], type=pa.int64()),
                             "kept": pa.array([], type=pa.bool_())})
        codes = np.asarray(et.dictionary_encode().indices,
                           dtype=np.int64)
        order = np.lexsort((eid, ts, codes, uid))
        u, c, t = uid[order], codes[order], ts[order]
        kept = np.empty(u.size, dtype=bool)
        kept[0] = True
        kept[1:] = (u[1:] != u[:-1]) | (c[1:] != c[:-1]) \
            | ((t[1:] - t[:-1]) > gap_us)
        return pa.table({"event_id": pa.array(eid[order]),
                         "kept": pa.array(kept)})

    return grouped_aggregate(ds, ["user_id", "event_type"], per_part)


def sql_throttle(gap_us: int = THROTTLE_GAP_US) -> str:
    return f"""
WITH s AS (
  SELECT event_id,
         epoch_us(ts) - lag(epoch_us(ts)) OVER (
           PARTITION BY user_id, event_type
           ORDER BY ts, event_id) AS d
  FROM events)
SELECT event_id, (d IS NULL OR d > {gap_us}) AS kept FROM s
"""


def throttle_chained(ds: "ray.data.Dataset",
                     gap_us: int = THROTTLE_GAP_US) -> "ray.data.Dataset":
    """CHAINED debounce: keep an event iff its ts is more than ``gap_us``
    after the last KEPT event of the same (user_id, event_type) — the
    first event of a key is always kept. Unlike :func:`throttle` (lag
    semantics, compares to the previous RAW event) this recurrence is
    prefix-dependent: whether event i survives depends on which earlier
    events survived, so no window function expresses it (the oracle is
    a recursive CTE). Columns: event_id, kept (bool).

    Distribution: the same ONE coarse hash(user, type) shuffle as
    :func:`throttle` — a key's events co-locate, so the chain never
    crosses partitions. Inside a partition every key advances in
    LOCKSTEP: round r visits each still-active key's r-th event with
    one vectorized compare against the per-key kept anchor (segments
    sorted by length descending, so round r's active keys are a prefix
    and total work is O(rows), never a Python loop over events). Skew:
    a single key with K events costs K lockstep rounds — the same
    co-location assumption sessionize documents; salt hot keys
    upstream if one key dominates.
    """
    def per_part(part: pa.Table) -> pa.Table:
        uid = pc.cast(part["user_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = pc.cast(part["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        eid = pc.cast(part["event_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        et = part["event_type"]
        if isinstance(et, pa.ChunkedArray):
            et = et.combine_chunks()
        if uid.size == 0:
            return pa.table({"event_id": pa.array([], type=pa.int64()),
                             "kept": pa.array([], type=pa.bool_())})
        codes = np.asarray(et.dictionary_encode().indices,
                           dtype=np.int64)
        order = np.lexsort((eid, ts, codes, uid))
        u, c, t = uid[order], codes[order], ts[order]
        n = u.size
        change = np.empty(n, dtype=bool)
        change[0] = True
        change[1:] = (u[1:] != u[:-1]) | (c[1:] != c[:-1])
        seg_starts = np.flatnonzero(change)
        seg_len = np.diff(np.append(seg_starts, n))
        # longest segments first: round r's active keys are a prefix
        by_len = np.argsort(-seg_len, kind="stable")
        seg_starts = seg_starts[by_len]
        seg_len = seg_len[by_len]
        anchors = t[seg_starts].copy()
        kept = np.zeros(n, dtype=bool)
        kept[seg_starts] = True
        max_len = int(seg_len[0])
        for r in range(1, max_len):
            a_cnt = int(np.searchsorted(-seg_len, -(r + 1), side="right"))
            idx = seg_starts[:a_cnt] + r
            k = (t[idx] - anchors[:a_cnt]) > gap_us
            kept[idx[k]] = True
            anchors[:a_cnt][k] = t[idx[k]]
        return pa.table({"event_id": pa.array(eid[order]),
                         "kept": pa.array(kept)})

    return grouped_aggregate(ds, ["user_id", "event_type"], per_part)


def sql_throttle_chained(gap_us: int = THROTTLE_GAP_US) -> str:
    # prefix-dependent keep -> recursive CTE stepping row_number chains;
    # e MATERIALIZED so each recursion level scans a pinned row set
    return f"""
WITH RECURSIVE e AS MATERIALIZED (
  SELECT user_id, event_type, event_id, epoch_us(ts) AS t,
         row_number() OVER (PARTITION BY user_id, event_type
                            ORDER BY ts, event_id) AS rn
  FROM events),
chain AS (
  SELECT user_id, event_type, event_id, t, rn, t AS anchor, TRUE AS kept
  FROM e WHERE rn = 1
  UNION ALL
  SELECT e.user_id, e.event_type, e.event_id, e.t, e.rn,
         CASE WHEN e.t - c.anchor > {gap_us} THEN e.t ELSE c.anchor END,
         e.t - c.anchor > {gap_us}
  FROM e JOIN chain c
    ON e.user_id = c.user_id AND e.event_type = c.event_type
   AND e.rn = c.rn + 1)
SELECT event_id, kept FROM chain
"""


_QUARTILE_SCHEMA = pa.schema([("event_id", pa.int64()),
                              ("quartile", pa.int64())])
_QUARTILES = {"p25": (1, 4), "p50": (1, 2), "p75": (3, 4)}


def value_quartile(ds: "ray.data.Dataset",
                   num_buckets: int = 32,
                   fetch_threshold: int = 4096) -> "ray.data.Dataset":
    """QUANTILE BINNING feature transform: each event labeled with its
    per-type quartile (0-3) against the EXACT p25/p50/p75 order
    statistics (k = ceil(q·n)-th smallest). Columns: event_id, quartile.

    One projection, one stats pass and ONE iterative-distributed-
    selection run with three targets per type: every round bins all
    three cuts in the same scan, shipping only (type, tag, bucket,
    count) digests. The ≤ |types|×3 cut points broadcast into one
    vectorized labeling pass (pc.index_in type lookup + three
    compares).
    """
    stats, cuts = _select_quantiles(_project_type_cents(ds), _QUARTILES,
                                    num_buckets, fetch_threshold)
    if not stats:
        return _table_dataset(_QUARTILE_SCHEMA.empty_table())
    types = sorted(stats)
    type_arr = pa.array(types, type=pa.string())
    cut_mat = np.array([[cuts[(t, tag)] for tag in _QUARTILES]
                        for t in types], dtype=np.int64)   # (types, 3)

    def label(batch: pa.Table) -> pa.Table:
        et = pc.cast(batch["event_type"], pa.string())
        idx = pc.index_in(et, type_arr).to_numpy(zero_copy_only=False)
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        c = cut_mat[idx]
        quart = ((vc > c[:, 0]).astype(np.int64)
                 + (vc > c[:, 1]) + (vc > c[:, 2]))
        return pa.table([pc.cast(batch["event_id"], pa.int64()),
                         pa.array(quart)], schema=_QUARTILE_SCHEMA)

    return ds.map_batches(label, batch_format="pyarrow")


def sql_value_quartile() -> str:
    p25 = sql_value_quantile_exact(1, 4, "p25_c")
    p50 = sql_value_quantile_exact(1, 2, "p50_c")
    p75 = sql_value_quantile_exact(3, 4, "p75_c")
    return f"""
WITH c AS (
  SELECT a.event_type, a.p25_c, b.p50_c, d.p75_c
  FROM ({p25}) a JOIN ({p50}) b USING (event_type)
  JOIN ({p75}) d USING (event_type))
SELECT e.event_id,
       (CAST(CAST(round(e.value * 100) AS BIGINT) > c.p25_c AS BIGINT)
        + CAST(CAST(round(e.value * 100) AS BIGINT) > c.p50_c AS BIGINT)
        + CAST(CAST(round(e.value * 100) AS BIGINT) > c.p75_c AS BIGINT))
         ::BIGINT AS quartile
FROM events e JOIN c USING (event_type)
"""


def value_mad_outliers(ds: "ray.data.Dataset", k_mult: int = 3,
                       num_buckets: int = 32,
                       fetch_threshold: int = 4096
                       ) -> "ray.data.Dataset":
    """ROBUST outlier flags via the Median-Absolute-Deviation rule
    (Hampel): per event_type, flag events with |vc − median| >
    k·MAD where MAD = median(|vc − median|) — the robust sibling of
    the IQR/z-score detectors, immune to the outliers it hunts.
    Columns: event_id, is_outlier (bool). All-integer (cents), so the
    comparison is exact on both engines.

    TWO chained iterative-distributed-selection passes — the second
    selects over a derived column (|vc − med|) no storage column holds:
    (1) per-type medians (digest-only driver traffic), broadcast as ≤
    |types| scalars; (2) the same machinery over the absolute
    deviations, computed on the fly inside the scan's projection; then
    one vectorized flagging pass. Nothing user- or event-sized ever
    reaches the driver.
    """
    med = {r["event_type"]: int(r["median_c"])
           for r in value_quantile_exact(ds, 1, 2, "median_c",
                                         num_buckets,
                                         fetch_threshold).take_all()}
    types = sorted(med)
    type_arr = pa.array(types, type=pa.string())
    med_arr = np.array([med[t] for t in types], dtype=np.int64)

    def project_ad(batch: pa.Table) -> pa.Table:
        et = pc.cast(batch["event_type"], pa.string())
        idx = pc.index_in(et, type_arr).to_numpy(zero_copy_only=False)
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        return pa.table({"event_type": et,
                         "vc": pa.array(np.abs(vc - med_arr[idx]))})

    proj = ds.select_columns(["event_type", "value"]) \
             .map_batches(project_ad, batch_format="pyarrow")
    _, mad_res = _select_quantiles(proj, {"mad": (1, 2)}, num_buckets,
                                   fetch_threshold)
    mad_arr = np.array([mad_res[(t, "mad")] for t in types],
                       dtype=np.int64)

    def flag(batch: pa.Table) -> pa.Table:
        et = pc.cast(batch["event_type"], pa.string())
        idx = pc.index_in(et, type_arr).to_numpy(zero_copy_only=False)
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        out = np.abs(vc - med_arr[idx]) > k_mult * mad_arr[idx]
        return pa.table({
            "event_id": pc.cast(batch["event_id"], pa.int64()),
            "is_outlier": pa.array(out),
        })

    return ds.map_batches(flag, batch_format="pyarrow")


def sql_value_mad_outliers(k_mult: int = 3) -> str:
    return f"""
WITH e AS (
  SELECT event_id, event_type,
         CAST(round(value * 100) AS BIGINT) AS vc
  FROM events),
m AS (SELECT event_type, quantile_disc(vc, 0.5) AS med
      FROM e GROUP BY 1),
d AS (SELECT e.event_id, e.event_type, abs(e.vc - m.med) AS ad
      FROM e JOIN m USING (event_type)),
mad AS (SELECT event_type, quantile_disc(ad, 0.5) AS mad
        FROM d GROUP BY 1)
SELECT d.event_id, (d.ad > {k_mult} * mad.mad) AS is_outlier
FROM d JOIN mad USING (event_type)
"""


DAY_US = 86_400_000_000


def daily_leaderboard(ds: "ray.data.Dataset", k: int = 5
                      ) -> "ray.data.Dataset":
    """Per-day top-k users by total value (the windowed grouped-top-k
    dashboard shape). Columns: day_us, user_id, total_c, rank (1..k;
    ties broken user_id-ascending — deterministic, shared with SQL).

    Two digest shuffles: (1) hash(day, user) pre-aggregate — exact
    per-(day,user) cent sums, the only pass that reads the log; (2) a
    day-keyed coarse shuffle whose per-partition top-k is ONE lexsort +
    run-boundary rank over ALL days in the partition (no per-day
    Python, no global sort). Output ≤ days × k rows.
    """
    def part(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        tbl = pa.table({
            "day": pa.array((t // DAY_US) * DAY_US),
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "vc": pa.array(vc),
        })
        g = (tbl.group_by(["day", "user_id"], use_threads=False)
             .aggregate([("vc", "sum")]))
        return pa.table({"day": g["day"], "user_id": g["user_id"],
                         "vc": pc.cast(g["vc_sum"], pa.int64())})

    def sum_pairs(p: pa.Table) -> pa.Table:
        g = (p.group_by(["day", "user_id"], use_threads=False)
             .aggregate([("vc", "sum")]))
        return pa.table({"day": g["day"], "user_id": g["user_id"],
                         "vc": pc.cast(g["vc_sum"], pa.int64())})

    sums = grouped_aggregate(
        ds.select_columns(["user_id", "ts", "value"])
          .map_batches(part, batch_format="pyarrow"),
        ["day", "user_id"], sum_pairs)

    def topk(p: pa.Table) -> pa.Table:
        day = pc.cast(p["day"], pa.int64()).to_numpy(zero_copy_only=False)
        uid = pc.cast(p["user_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        vc = pc.cast(p["vc"], pa.int64()).to_numpy(zero_copy_only=False)
        if day.size == 0:
            z = pa.array([], type=pa.int64())
            return pa.table({"day_us": z, "user_id": z, "total_c": z,
                             "rank": z})
        order = np.lexsort((uid, -vc, day))
        d = day[order]
        start = np.empty(d.size, dtype=bool)
        start[0] = True
        start[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(start)
        rank = np.arange(d.size) - np.repeat(
            starts, np.diff(np.append(starts, d.size))) + 1
        keep = rank <= k
        sel = order[keep]
        return pa.table({"day_us": pa.array(day[sel]),
                         "user_id": pa.array(uid[sel]),
                         "total_c": pa.array(vc[sel]),
                         "rank": pa.array(rank[keep])})

    return grouped_aggregate(sums, ["day"], topk)


def sql_daily_leaderboard(k: int = 5) -> str:
    return f"""
WITH du AS (
  SELECT (epoch_us(ts) // {DAY_US}) * {DAY_US} AS day_us, user_id,
         sum(CAST(round(value * 100) AS BIGINT))::BIGINT AS total_c
  FROM events GROUP BY 1, 2),
r AS (SELECT *, row_number() OVER (PARTITION BY day_us
                                   ORDER BY total_c DESC, user_id)
               AS rank FROM du)
SELECT day_us::BIGINT AS day_us, user_id, total_c, rank::BIGINT AS rank
FROM r WHERE rank <= {k}
"""


SLIDE_WIDTH_US = 86_400_000_000      # 1-day window
SLIDE_STEP_US = 21_600_000_000       # 6-hour step (width % step == 0)


def sliding_distinct_users(ds: "ray.data.Dataset",
                           width_us: int = SLIDE_WIDTH_US,
                           step_us: int = SLIDE_STEP_US
                           ) -> "ray.data.Dataset":
    """SLIDING-window distinct users (rolling DAU): for every step-grid
    window [w·step, w·step + width) the count of distinct user_ids with
    an event inside. Columns: window_start_us, n_users (int64).

    An event at t belongs to exactly the ``width/step`` windows
    ``w = t//step − k, k ∈ [0, width/step)`` (integer identity — no
    boundary predicate needed), so the plan is: per-batch explode ×
    (width/step) into (window, user) pairs DEDUPED inside the batch,
    ONE hash(window, user) shuffle whose reduce dedups exactly and
    emits per-window counts — the same pair-dedup digest shape as
    ``value_quantiles``' n_users. Nothing user-sized ever reaches the
    driver; output rows = number of windows.
    """
    assert width_us % step_us == 0
    fan = width_us // step_us

    def explode(batch: pa.Table) -> pa.Table:
        t = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        u = pc.cast(batch["user_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        base = t // step_us
        win = (base[:, None] - np.arange(fan, dtype=np.int64)[None, :]) \
            .ravel()
        uu = np.repeat(u, fan)
        tbl = pa.table({"win": pa.array(win), "user_id": pa.array(uu)})
        return (tbl.group_by(["win", "user_id"], use_threads=False)
                .aggregate([]))

    def dedup_count(part: pa.Table) -> pa.Table:
        # a (win, user) pair lands in exactly ONE partition — the dedup
        # is exact here; the per-win count is PARTIAL (a win's users
        # spread across partitions under the pair-keyed hash)
        d = (part.group_by(["win", "user_id"], use_threads=False)
             .aggregate([]))
        g = (d.group_by(["win"], use_threads=False)
             .aggregate([("user_id", "count")]))
        return pa.table({"win": pc.cast(g["win"], pa.int64()),
                         "pu": pc.cast(g["user_id_count"], pa.int64())})

    def win_sum(part: pa.Table) -> pa.Table:
        g = (part.group_by(["win"], use_threads=False)
             .aggregate([("pu", "sum")]))
        return pa.table({
            "window_start_us": pc.multiply(
                pc.cast(g["win"], pa.int64()),
                pa.scalar(step_us, type=pa.int64())),
            "n_users": pc.cast(g["pu_sum"], pa.int64()),
        })

    partials = grouped_aggregate(
        ds.map_batches(explode, batch_format="pyarrow"),
        ["win", "user_id"], dedup_count)
    # second, digest-sized shuffle: ≤ partitions × windows partial rows
    return grouped_aggregate(partials, ["win"], win_sum)


def sql_sliding_distinct_users(width_us: int = SLIDE_WIDTH_US,
                               step_us: int = SLIDE_STEP_US) -> str:
    fan = width_us // step_us
    return f"""
WITH x AS (
  SELECT (epoch_us(ts) // {step_us}) - k.k AS win, user_id
  FROM events, (SELECT unnest(range(0, {fan})) AS k) k)
SELECT (win * {step_us})::BIGINT AS window_start_us,
       count(DISTINCT user_id)::BIGINT AS n_users
FROM x GROUP BY win
"""


def user_rfm(ds: "ray.data.Dataset", num_buckets: int = 32,
             fetch_threshold: int = 4096) -> "ray.data.Dataset":
    """RFM SEGMENTATION — the classic user-feature composite: per user
    recency (max event ts, µs), frequency (event count) and monetary
    (sum cents), each quartile-binned against the EXACT global p25/p50/
    p75 order statistics. Columns: user_id, r_bin, f_bin, m_bin
    (int64, 0-3; bin = Σ(value > cut), the value_quartile convention).

    Scale shape: (1) ONE user-keyed shuffle reduces the log to a
    distinct-user-bounded (user, r, f, m) digest, pinned once —
    consumed by the selection scans and the labeling pass; (2) all NINE
    cut points (3 dims × 3 quantiles) refine together in a single
    :func:`_iterative_select` run over a (dim, value) projection of the
    digest — the driver only ever accumulates (dim, quantile, bucket,
    count) rows, never a user-sized structure; (3) one vectorized
    labeling pass against the 9 broadcast scalars.
    """
    def part(batch: pa.Table) -> pa.Table:
        vc = np.round(batch["value"].to_numpy(zero_copy_only=False)
                      * 100.0).astype(np.int64)
        t = pa.table({
            "user_id": pc.cast(batch["user_id"], pa.int64()),
            "ts_us": pc.cast(batch["ts"], pa.int64()),
            "vc": pa.array(vc),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
        })
        g = (t.group_by(["user_id"], use_threads=False)
             .aggregate([("ts_us", "max"), ("vc", "sum"), ("n", "sum")]))
        return pa.table({"user_id": g["user_id"],
                         "r": pc.cast(g["ts_us_max"], pa.int64()),
                         "f": pc.cast(g["n_sum"], pa.int64()),
                         "m": pc.cast(g["vc_sum"], pa.int64())})

    def combine(p: pa.Table) -> pa.Table:
        g = (p.group_by(["user_id"], use_threads=False)
             .aggregate([("r", "max"), ("f", "sum"), ("m", "sum")]))
        return pa.table({"user_id": g["user_id"],
                         "r": pc.cast(g["r_max"], pa.int64()),
                         "f": pc.cast(g["f_sum"], pa.int64()),
                         "m": pc.cast(g["m_sum"], pa.int64())})

    rfm = grouped_aggregate(
        ds.select_columns(["user_id", "ts", "value"])
          .map_batches(part, batch_format="pyarrow"),
        ["user_id"], combine).materialize()

    def project_dims(batch: pa.Table) -> pa.Table:
        dims, vals = [], []
        for d in ("r", "f", "m"):
            v = pc.cast(batch[d], pa.int64()) \
                .to_numpy(zero_copy_only=False)
            dims.extend([d] * len(v))
            vals.append(v)
        return pa.table({"event_type": pa.array(dims, type=pa.string()),
                         "vc": pa.array(np.concatenate(vals))})

    proj = rfm.map_batches(project_dims, batch_format="pyarrow")
    _, cuts = _select_quantiles(proj, _QUARTILES, num_buckets,
                                fetch_threshold)
    cut_mat = {d: np.array([cuts[(d, tag)] for tag in _QUARTILES],
                           dtype=np.int64)
               for d in ("r", "f", "m")}

    def label(batch: pa.Table) -> pa.Table:
        out = {"user_id": pc.cast(batch["user_id"], pa.int64())}
        for d in ("r", "f", "m"):
            v = pc.cast(batch[d], pa.int64()) \
                .to_numpy(zero_copy_only=False)
            c = cut_mat[d]
            out[f"{d}_bin"] = pa.array(
                (v > c[0]).astype(np.int64) + (v > c[1]) + (v > c[2]))
        return pa.table(out)

    return rfm.map_batches(label, batch_format="pyarrow")


def sql_user_rfm() -> str:
    # quantile_disc == the engine's k = ceil(q·n)-th smallest
    # (sorted value at max(0, ceil(q·n)−1)) — the certified convention
    dims = {"r": "r", "f": "f", "m": "m"}
    cut_cols = ", ".join(
        f"quantile_disc({c}, {q}) AS {d}{int(q * 100)}"
        for d, c in dims.items() for q in (0.25, 0.5, 0.75))
    bin_cols = ", ".join(
        f"((u.{c} > c.{d}25)::BIGINT + (u.{c} > c.{d}50)::BIGINT "
        f"+ (u.{c} > c.{d}75)::BIGINT)::BIGINT AS {d}_bin"
        for d, c in dims.items())
    return f"""
WITH u AS MATERIALIZED (
  SELECT user_id, epoch_us(max(ts))::BIGINT AS r,
         count(*)::BIGINT AS f,
         sum(CAST(round(value * 100) AS BIGINT))::BIGINT AS m
  FROM events GROUP BY user_id),
c AS (SELECT {cut_cols} FROM u)
SELECT u.user_id, {bin_cols}
FROM u CROSS JOIN c
"""


HOUR_US = 3_600_000_000


def hourly_seasonality(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """CALENDAR FEATURE EXTRACTION: event counts per (hour-of-day,
    event_type) — the seasonality profile (UTC; hour = epoch-µs //
    3600s mod 24, identical to SQL ``extract(hour ...)`` for UTC
    timestamps). Columns: hour, event_type, n_events. Pure combiner:
    ≤ 24×|types| digest rows per batch.
    """
    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        hour = (ts // HOUR_US) % 24
        t = pa.table({
            "hour": pa.array(hour),
            "event_type": pc.cast(batch["event_type"], pa.string()),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
        })
        return (t.group_by(["hour", "event_type"], use_threads=False)
                 .aggregate([("n", "sum")])
                 .rename_columns(["hour", "event_type", "n"]))

    def final(part: pa.Table) -> pa.Table:
        g = (part.group_by(["hour", "event_type"], use_threads=False)
             .aggregate([("n", "sum")]))
        return pa.table({
            "hour": pc.cast(g["hour"], pa.int64()),
            "event_type": pc.cast(g["event_type"], pa.string()),
            "n_events": pc.cast(g["n_sum"], pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["hour", "event_type"], final)


def sql_hourly_seasonality() -> str:
    return ("SELECT CAST(extract(hour FROM ts) AS BIGINT) AS hour, "
            "event_type, count(*)::BIGINT AS n_events "
            "FROM events GROUP BY 1, 2")


def conversion_time(ds: "ray.data.Dataset",
                    from_type: str = "signup",
                    to_type: str = "purchase") -> "ray.data.Dataset":
    """TIME-TO-CONVERT: for each user, the delay from their FIRST
    ``from_type`` event to their first ``to_type`` event at-or-after it
    (the product-analytics "signup → purchase latency"). Columns:
    user_id, delta_us — one row per CONVERTED user.

    One coarse hash(user) shuffle; inside a partition every user's
    anchor (min from-ts) and converted target (min to-ts ≥ anchor)
    compute with two ``np.minimum.at`` passes — no sort, no per-user
    loop. A user's events co-locate, so the anchor is always visible
    to the target pass.
    """
    def per_part(part: pa.Table) -> pa.Table:
        uid = pc.cast(part["user_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        ts = pc.cast(part["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        et = part["event_type"].to_numpy(zero_copy_only=False)
        empty = pa.table({"user_id": pa.array([], type=pa.int64()),
                          "delta_us": pa.array([], type=pa.int64())})
        if uid.size == 0:
            return empty
        users = np.unique(uid)
        pos = np.searchsorted(users, uid)
        big = np.iinfo(np.int64).max
        anchor = np.full(users.size, big, dtype=np.int64)
        fmask = et == from_type
        np.minimum.at(anchor, pos[fmask], ts[fmask])
        target = np.full(users.size, big, dtype=np.int64)
        tmask = (et == to_type) & (anchor[pos] != big) \
            & (ts >= anchor[pos])
        np.minimum.at(target, pos[tmask], ts[tmask])
        conv = target != big
        if not conv.any():
            return empty
        return pa.table({
            "user_id": pa.array(users[conv]),
            "delta_us": pa.array(target[conv] - anchor[conv]),
        })

    return grouped_aggregate(ds, ["user_id"], per_part)


def sql_conversion_time(from_type: str = "signup",
                        to_type: str = "purchase") -> str:
    return f"""
WITH s AS (
  SELECT user_id, min(epoch_us(ts)) AS a FROM events
  WHERE event_type = '{from_type}' GROUP BY user_id),
p AS (
  SELECT e.user_id, min(epoch_us(e.ts)) AS t
  FROM events e JOIN s USING (user_id)
  WHERE e.event_type = '{to_type}' AND epoch_us(e.ts) >= s.a
  GROUP BY e.user_id)
SELECT s.user_id, (p.t - s.a)::BIGINT AS delta_us
FROM s JOIN p USING (user_id)
"""


TREND_T0_MIN = 28_401_120  # epoch MINUTES of 2024-01-01T00:00:00Z
TREND_SCALE = 1_000_000


def trend_slope(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """DISTRIBUTED LEAST SQUARES: per-type OLS slope of value-cents over
    time — drift detection as a pure moment aggregate. Columns:
    event_type, n_events, slope_u (int64 =
    trunc((n·Σty − Σt·Σy) · 10⁶ / (n·Σt² − (Σt)²)), t in MINUTES since
    a FIXED epoch — minute resolution keeps the per-batch int64 moment
    sums safe even for a decade-spanning log at 4k-row batches).

    Each batch emits per-type integer moment partials (n, Σt, Σy, Σty,
    Σt²) — order-insensitive int64 sums (per-batch magnitudes bounded);
    ONE tiny reduce combines in PYTHON ints (the cross terms exceed
    int64; the SQL twin uses HUGEINT) and finishes with the same
    truncate-toward-zero division DuckDB's ``//`` performs.
    """
    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        t = ts // 60_000_000 - TREND_T0_MIN
        y = np.round(batch["value"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        tb = pa.table({
            "event_type": pc.cast(batch["event_type"], pa.string()),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            "st": pa.array(t),
            "sy": pa.array(y),
            "sty": pa.array(t * y),
            "stt": pa.array(t * t),
        })
        return (tb.group_by(["event_type"], use_threads=False)
                .aggregate([("n", "sum"), ("st", "sum"), ("sy", "sum"),
                            ("sty", "sum"), ("stt", "sum")])
                .rename_columns(["event_type", "n", "st", "sy", "sty",
                                 "stt"]))

    def final(part: pa.Table) -> pa.Table:
        g = (part.group_by(["event_type"], use_threads=False)
             .aggregate([("n", "sum"), ("st", "sum"), ("sy", "sum"),
                         ("sty", "sum"), ("stt", "sum")]))
        types, ns, slopes = [], [], []
        for i in range(len(g)):
            n = int(g["n_sum"][i].as_py())
            st = int(g["st_sum"][i].as_py())
            sy = int(g["sy_sum"][i].as_py())
            sty = int(g["sty_sum"][i].as_py())
            stt = int(g["stt_sum"][i].as_py())
            num = (n * sty - st * sy) * TREND_SCALE
            den = n * stt - st * st
            if den == 0:
                continue   # constant-t group: slope undefined
            q = abs(num) // den          # den > 0 (variance)
            slope = q if num >= 0 else -q   # trunc toward zero (SQL //)
            types.append(g["event_type"][i].as_py())
            ns.append(n)
            slopes.append(slope)
        return pa.table({
            "event_type": pa.array(types, type=pa.string()),
            "n_events": pa.array(ns, type=pa.int64()),
            "slope_u": pa.array(slopes, type=pa.int64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["event_type"], final)


def sql_trend_slope() -> str:
    return f"""
WITH b AS (
  SELECT event_type,
         (epoch_us(ts) // 60000000 - {TREND_T0_MIN}) AS t,
         CAST(round(value * 100) AS BIGINT) AS y
  FROM events),
m AS (
  SELECT event_type, count(*)::HUGEINT AS n,
         sum(t)::HUGEINT AS st, sum(y)::HUGEINT AS sy,
         sum(t * y)::HUGEINT AS sty, sum(t * t)::HUGEINT AS stt
  FROM b GROUP BY event_type)
SELECT event_type, n::BIGINT AS n_events,
       CAST(((n * sty - st * sy) * {TREND_SCALE})
            // (n * stt - st * st) AS BIGINT) AS slope_u
FROM m WHERE n * stt - st * st != 0
"""


def value_time_corr(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """PEARSON CORRELATION per type between time and value — the
    normalized twin of :func:`trend_slope`, same exact integer moment
    sums plus Σy². Columns: event_type, n_events, corr_r
    (round(num / (√d₁·√d₂), 6); num and the two variance terms are
    EXACT python ints on the engine side / HUGEINT in SQL, converted to
    double by the identical round-to-nearest cast in both engines, so
    the final rounded double matches bit-for-bit).
    """
    import math

    def partial(batch: pa.Table) -> pa.Table:
        ts = pc.cast(batch["ts"], pa.int64()).to_numpy(zero_copy_only=False)
        t = ts // 60_000_000 - TREND_T0_MIN
        y = np.round(batch["value"].to_numpy(zero_copy_only=False)
                     * 100.0).astype(np.int64)
        tb = pa.table({
            "event_type": pc.cast(batch["event_type"], pa.string()),
            "n": pa.array(np.ones(len(batch), dtype=np.int64)),
            "st": pa.array(t),
            "sy": pa.array(y),
            "sty": pa.array(t * y),
            "stt": pa.array(t * t),
            "syy": pa.array(y * y),
        })
        return (tb.group_by(["event_type"], use_threads=False)
                .aggregate([("n", "sum"), ("st", "sum"), ("sy", "sum"),
                            ("sty", "sum"), ("stt", "sum"),
                            ("syy", "sum")])
                .rename_columns(["event_type", "n", "st", "sy", "sty",
                                 "stt", "syy"]))

    def final(part: pa.Table) -> pa.Table:
        g = (part.group_by(["event_type"], use_threads=False)
             .aggregate([("n", "sum"), ("st", "sum"), ("sy", "sum"),
                         ("sty", "sum"), ("stt", "sum"), ("syy", "sum")]))
        types, ns, corrs = [], [], []
        for i in range(len(g)):
            n = int(g["n_sum"][i].as_py())
            st = int(g["st_sum"][i].as_py())
            sy = int(g["sy_sum"][i].as_py())
            sty = int(g["sty_sum"][i].as_py())
            stt = int(g["stt_sum"][i].as_py())
            syy = int(g["syy_sum"][i].as_py())
            num = n * sty - st * sy
            d1 = n * stt - st * st
            d2 = n * syy - sy * sy
            if d1 == 0 or d2 == 0:
                continue
            corr = round(float(num)
                         / (math.sqrt(float(d1)) * math.sqrt(float(d2))),
                         6)
            types.append(g["event_type"][i].as_py())
            ns.append(n)
            corrs.append(corr)
        return pa.table({
            "event_type": pa.array(types, type=pa.string()),
            "n_events": pa.array(ns, type=pa.int64()),
            "corr_r": pa.array(corrs, type=pa.float64()),
        })

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return grouped_aggregate(partials, ["event_type"], final)


def sql_value_time_corr() -> str:
    return f"""
WITH b AS (
  SELECT event_type,
         (epoch_us(ts) // 60000000 - {TREND_T0_MIN}) AS t,
         CAST(round(value * 100) AS BIGINT) AS y
  FROM events),
m AS (
  SELECT event_type, count(*)::HUGEINT AS n,
         sum(t)::HUGEINT AS st, sum(y)::HUGEINT AS sy,
         sum(t * y)::HUGEINT AS sty, sum(t * t)::HUGEINT AS stt,
         sum(y * y)::HUGEINT AS syy
  FROM b GROUP BY event_type)
SELECT event_type, n::BIGINT AS n_events,
       round((n * sty - st * sy)::DOUBLE
             / (sqrt((n * stt - st * st)::DOUBLE)
                * sqrt((n * syy - sy * sy)::DOUBLE)), 6) AS corr_r
FROM m WHERE n * stt - st * st != 0 AND n * syy - sy * sy != 0
"""
