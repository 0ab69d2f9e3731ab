"""Distributed equi-join — the general-purpose relational join the
Dataset API lacks (SURVEY.md §2.6: the reference joins only via in-heap
dict lookups, indexer.py:330-341).

One operator, ``equi_join``, one plan: tag each side, union, ONE coarse
shuffle keyed by hash(key) (both sides of a key land in the same
partition), then a fully vectorized per-partition sort-merge: right rows
sort by key, each left key finds its right-run via searchsorted, and
many-to-many expansion is a ``np.repeat`` over run lengths — no per-row
or per-key Python. The broadcast small-side variant (no shuffle at all)
lives in ``events.value_range_join``; this operator is the
both-sides-big path.

Key forms. A column NAME is an integer key (cast to int64, output column
``key``), routed by ``key·_MIX``. A LIST of names is a composite key
(any int / string mix; output columns named after the left keys; the
right side may use other names), routed by ``common._hash_key_columns``.
A name is a composite of arity 1 inside the partition: equality is
decided on an exact mixed-radix code of dense per-column ranks, so a
64-bit hash collision only co-locates distinct keys, never joins them.

Skew: a hot key's rows land in one partition under plain routing.
``detect_hot_keys`` returns the routing hashes of the hot keys; passed as
``hot_keys``, hot left rows spread across ``replicate`` salts and hot
right rows replicate per salt (output row-identical, asserted in tests).
The salt XORs ``salt·_SALT_MIX`` into the routing hash; non-hot rows ride
salt 0, so the plain join IS the salted join with an empty hot set.

Co-partitioned work. The shuffle puts every row of a key in one
partition, so work keyed by the join key can run there instead of in a
shuffle of its own. ``right_reduce`` folds a partition's right rows
before the merge: a right side that is an aggregate ships per-batch
partials through the join's shuffle and is finished here. Salting keeps
it exact, because a hot key's right rows replicate to every salt.
``finish`` runs on a partition's join output (e.g. a sum keyed by the
join key); salting would spread one key's left rows over several
partitions, so ``finish`` refuses a non-empty ``hot_keys``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from searchengine_ray.pipelines.common import _hash_key_columns

NUM_JOIN_PARTITIONS = 64
_MIX = np.uint64(0x9E3779B97F4A7C15)
_SALT_MIX = np.uint64(0xC2B2AE3D27D4EB4F)


def _key_list(key: str | list[str]) -> list[str]:
    return [key] if isinstance(key, str) else list(key)


def _routing_hash(batch: pa.Table, key: str | list[str]) -> np.ndarray:
    """uint64 routing hash per row: ``key·_MIX`` for a column name (odd
    multiplier, so a bijection on int64 keys), the multi-column mix for
    a list."""
    if isinstance(key, str):
        k = pc.cast(batch[key], pa.int64()).to_numpy(zero_copy_only=False)
        with np.errstate(over="ignore"):
            return k.astype(np.uint64) * _MIX
    return _hash_key_columns(batch, key)


def _route(h: np.ndarray, hot: np.ndarray, replicate: int,
           spread: bool) -> tuple[np.ndarray, np.ndarray]:
    """(row index, partition) of one side's shuffle rows. Rows whose
    hash is in the sorted ``hot`` set are salted: with ``spread`` (left
    side) each takes ONE salt round-robin over ``replicate``; otherwise
    (right side) each repeats once per salt, so every (key, salt)
    partition holds the key's full right side. Other rows ride salt 0."""
    hs = h.view(np.int64)
    is_hot = (hot[np.minimum(np.searchsorted(hot, hs), hot.size - 1)]
              == hs) if hot.size else np.zeros(len(h), dtype=bool)
    if spread:
        idx = np.arange(len(h), dtype=np.int64)
        salt = np.where(is_hot, idx % replicate, 0)
    else:
        reps = np.where(is_hot, replicate, 1).astype(np.int64)
        idx = np.repeat(np.arange(len(h), dtype=np.int64), reps)
        salt = np.arange(len(idx), dtype=np.int64) - \
            np.repeat(np.cumsum(reps) - reps, reps)
    with np.errstate(over="ignore"):
        mixed = h[idx] ^ (salt.astype(np.uint64) * _SALT_MIX)
    return idx, (mixed % np.uint64(NUM_JOIN_PARTITIONS)).astype(np.int32)


def _split_null_keys(batch: pa.Table, keys: list[str], side: int,
                     how: str):
    """(valid_rows, null_rows | None) — a row with ANY null key column
    can never match (SQL semantics); only left/anti keep left ones."""
    valid = None
    for c in keys:
        v = pc.is_valid(batch[c])
        valid = v if valid is None else pc.and_(valid, v)
    if len(batch) == 0 or bool(pc.all(valid).as_py()):
        return batch, None
    null_rows = batch.filter(pc.invert(valid)) \
        if side == 0 and how in ("left", "anti") else None
    return batch.filter(valid), null_rows


def _composite_code(group: pa.Table, arity: int) -> np.ndarray:
    """Exact mixed-radix code of each row's key columns from dense
    per-column ranks: equal codes ⇔ equal keys, and code order is key
    order (so an arity-1 integer key sorts exactly like the raw key)."""
    code = np.zeros(len(group), dtype=np.int64)
    for i in range(arity):
        rank = pc.rank(group[f"k{i}"], tiebreaker="dense") \
            .to_numpy().astype(np.int64)
        card = int(rank.max(initial=0)) + 1
        if code.max(initial=0) > (1 << 62) // card:
            raise ValueError("equi_join: composite key cardinality "
                             "overflows the mixed-radix code; split the "
                             "join")
        code = code * card + rank
    return code


def _merge_fn(out_keys: list[str], left_cols: list[str],
              right_cols: list[str], r_schema: pa.Schema, how: str):
    """Per-partition vectorized sort-merge. ``side == 2`` rows are
    NULL-KEY left rows (only sent for left/anti): they never compare and
    append as unmatched output."""
    with_right = how in ("inner", "left")
    none = np.empty(0, dtype=np.int64)

    def emit(group: pa.Table, lidx: np.ndarray,
             ridx: np.ndarray | None = None) -> pa.Table:
        """Keys and left columns at ``lidx``; right columns (inner/left
        only) at ``ridx``, or typed NULLs when ``ridx`` is None."""
        lt = pa.array(lidx, type=pa.int64())
        cols = {c: pc.take(group[f"k{i}"], lt)
                for i, c in enumerate(out_keys)}
        for c in left_cols:
            cols[c] = pc.take(group[f"l_{c}"], lt)
        if with_right:
            for c in right_cols:
                cols[c] = (pa.nulls(len(lidx), type=r_schema.field(c).type)
                           if ridx is None else
                           pc.take(group[f"r_{c}"], pa.array(ridx)))
        return pa.table(cols)

    def merge(group: pa.Table) -> pa.Table:
        side = group["side"].to_numpy(zero_copy_only=False)
        li, ri, ni = (np.nonzero(side == s)[0] for s in (0, 1, 2))
        lidx = ridx = semi = none
        unmatched = li          # left rows in input order when no merge
        if li.size and ri.size:
            # deterministic: stable sort both sides by key code
            code = _composite_code(group, len(out_keys))
            lo = li[np.argsort(code[li], kind="stable")]
            ro = ri[np.argsort(code[ri], kind="stable")]
            lk, rk = code[lo], code[ro]
            starts = np.searchsorted(rk, lk, side="left")
            counts = np.searchsorted(rk, lk, side="right") - starts
            hit = counts > 0
            semi, unmatched = lo[hit], lo[~hit]
            starts, counts = starts[hit], counts[hit]
            # many-to-many expansion: left row i repeats counts[i] times,
            # right indices are each run's consecutive positions
            lidx = np.repeat(semi, counts)
            ridx = ro[np.arange(int(counts.sum())) -
                      np.repeat(np.cumsum(counts) - counts, counts) +
                      np.repeat(starts, counts)]
        if how == "inner":
            return emit(group, lidx, ridx)
        if how == "semi":
            return emit(group, semi)
        unmatched = np.concatenate([unmatched, ni])
        if how == "anti":
            return emit(group, unmatched)
        return pa.concat_tables([emit(group, lidx, ridx),
                                 emit(group, unmatched)])

    return merge


def equi_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              left_key: str | list[str], right_key: str | list[str],
              left_cols: list[str], right_cols: list[str],
              how: str = "inner",
              hot_keys: np.ndarray | None = None,
              replicate: int = 8,
              left_schema: "pa.Schema | None" = None,
              right_schema: "pa.Schema | None" = None,
              right_reduce: Callable[[pa.Table], pa.Table] | None = None,
              finish: Callable[[pa.Table], pa.Table] | None = None
              ) -> "ray.data.Dataset":
    """Distributed equi-join; ``how`` ∈ inner / left / semi / anti.

    inner — keys + left_cols + right_cols; many-to-many keys expand to
        the full cross product of their rows, ordered deterministically
        (left row order × right row order within key).
    left  — inner plus unmatched left rows with typed-null right cols.
    semi  — left rows (keys + left_cols) having ≥1 right match, each
        emitted ONCE (no expansion — the "has an embedding?" filter).
    anti  — left rows with NO right match (the "missing dimension
        row" audit). semi/anti never materialize the cross product.

    Keys: a column name each (int64 key, output column ``key``) or a
    list of names each (composite key, output columns named after
    ``left_key``). A NULL in any key column matches nothing (SQL).

    ``hot_keys``: routing hashes from :func:`detect_hot_keys`. Hot left
    rows spread across ``replicate`` salts, hot right rows replicate to
    every salt; the output holds the same rows as without salting, at
    the cost of |hot right rows| × ``replicate`` extra shuffled rows —
    small when hot keys are few and the hot side is the LEFT (the
    fact-table-joins-dimension shape this targets).

    ``left_schema`` / ``right_schema``: pass the side's (statically
    known) Arrow schema to SKIP the ``Dataset.schema()`` probe — when a
    side's lineage contains a prior shuffle (a join or grouped
    aggregate), the probe EXECUTES that whole upstream pipeline once
    and the join run executes it again (measured: q3's semi-join ran
    2.5 s as a probe before the real run). Chained joins should either
    pass schemas or ``materialize()`` the digest intermediate.

    ``right_reduce(tbl) -> tbl``: runs on each partition's right rows
    (``right_key`` names + ``right_cols``, same types) before the merge
    and returns rows of the same columns — typically a group-by sum
    that finishes per-batch partials, so an aggregated right side needs
    no shuffle of its own. Each partition holds every right row of its
    keys (hot keys replicate per salt), so the reduce sees whole keys.

    ``finish(tbl) -> tbl``: runs on each partition's join output, which
    holds every output row of its keys; the result is the partition's
    output. Raises with a non-empty ``hot_keys``: salting spreads one
    key's left rows over several partitions.
    """
    assert how in ("inner", "left", "semi", "anti"), how
    overlap = set(left_cols) & set(right_cols)
    assert not overlap, f"column name collision: {sorted(overlap)}"
    l_schema = left_schema if left_schema is not None \
        else left.schema().base_schema
    r_schema = right_schema if right_schema is not None \
        else right.schema().base_schema
    lkeys, rkeys = _key_list(left_key), _key_list(right_key)
    assert len(lkeys) == len(rkeys), (lkeys, rkeys)
    if isinstance(left_key, str):
        out_keys, key_types = ["key"], [pa.int64()]
    else:
        out_keys = lkeys
        key_types = [l_schema.field(c).type for c in lkeys]
    assert not set(out_keys) & (set(left_cols) | set(right_cols))
    hot = np.sort(np.asarray(hot_keys if hot_keys is not None else [],
                             dtype=np.int64))
    if finish is not None and hot.size:
        raise ValueError("equi_join: finish needs every row of a key in "
                         "one partition; salting (hot_keys) spreads them")
    R = max(int(replicate), 1)

    def rows(batch: pa.Table, side: int, keys: list[str],
             part: np.ndarray) -> pa.Table:
        n = len(batch)
        out = {"part": pa.array(part),
               "side": pa.array(np.full(n, side, dtype=np.int64))}
        for i, c in enumerate(keys):
            out[f"k{i}"] = pc.cast(batch[c], key_types[i])
        for c in left_cols:
            out[f"l_{c}"] = pa.nulls(n, type=l_schema.field(c).type) \
                if side == 1 else batch[c]
        for c in right_cols:
            out[f"r_{c}"] = batch[c] if side == 1 else \
                pa.nulls(n, type=r_schema.field(c).type)
        return pa.table(out)

    def tag(batch: pa.Table, side: int) -> pa.Table:
        key, keys = (left_key, lkeys) if side == 0 else (right_key, rkeys)
        batch, null_rows = _split_null_keys(batch, keys, side, how)
        idx, part = _route(_routing_hash(batch, key), hot, R,
                           spread=side == 0)
        if len(idx) != len(batch):
            batch = batch.take(pa.array(idx))
        t = rows(batch, side, keys, part)
        if null_rows is not None and len(null_rows):
            # unmatched by construction: spread uniformly over partitions
            n = len(null_rows)
            t = pa.concat_tables([t, rows(
                null_rows, 2, keys,
                (np.arange(n) % NUM_JOIN_PARTITIONS).astype(np.int32))])
        return t

    merge = _merge_fn(out_keys, left_cols, right_cols, r_schema, how)

    def per_part(group: pa.Table) -> pa.Table:
        if right_reduce is not None:
            is_r = pc.equal(group["side"], 1)
            r = group.filter(is_r)
            if len(r):
                red = right_reduce(pa.table(
                    {**{c: r[f"k{i}"] for i, c in enumerate(rkeys)},
                     **{c: r[f"r_{c}"] for c in right_cols}}))
                group = pa.concat_tables([
                    group.filter(pc.invert(is_r)),
                    rows(red, 1, rkeys, np.zeros(len(red), np.int32))])
        out = merge(group)
        return out if finish is None else finish(out)

    unioned = (left.map_batches(lambda b: tag(b, 0), batch_format="pyarrow")
               .union(right.map_batches(lambda b: tag(b, 1),
                                        batch_format="pyarrow")))
    return unioned.groupby("part").map_groups(per_part,
                                              batch_format="pyarrow")


def detect_hot_keys(ds: "ray.data.Dataset", key: str | list[str],
                    threshold: int) -> np.ndarray:
    """Routing hashes (sorted int64) of the keys whose row count ≥
    ``threshold`` — the bounded hot set for ``equi_join(...,
    hot_keys=...)``; ``key`` takes either key form. For a column name
    the hash is a bijection, so the set names exactly the hot keys; for
    a list a collision can only mark a cold key hot, which salts it
    (a few extra replicated right rows), never changes the output.
    Per-batch partial counts (the shuffle moves ≤ distinct-keys-per-batch
    rows), tiny groupby sum, then a driver fetch bounded by the number
    of HOT keys (few by definition — a key is hot because rows
    concentrate on it)."""
    keys = _key_list(key)

    def partial(batch: pa.Table) -> pa.Table:
        # null-key rows can never join (SQL semantics) — never hot
        batch, _ = _split_null_keys(batch, keys, side=1, how="inner")
        u, c = np.unique(_routing_hash(batch, key).view(np.int64),
                         return_counts=True)
        return pa.table({"key": pa.array(u),
                         "cnt": pa.array(c.astype(np.int64))})

    tot = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("key").sum("cnt"))

    def filt(b: pa.Table) -> pa.Table:
        c = b["sum(cnt)"].to_numpy(zero_copy_only=False)
        return pa.table({"key": b.filter(pa.array(c >= threshold))["key"]})

    hot = []
    for b in tot.map_batches(filt, batch_format="pyarrow") \
               .iter_batches(batch_format="pyarrow"):
        hot.append(b["key"].to_numpy(zero_copy_only=False))
    return np.sort(np.concatenate(hot)) if hot else \
        np.empty(0, dtype=np.int64)
