"""End-to-end training-corpus preparation — THE pipeline an LLM data
team runs before tokenization, composed from the repo's distributed
operators in one deterministic, oracle-exact chain:

  1. curate         exact-dedup keeper ∧ quality gate (one sha shuffle —
                    the only stage where document text rides an exchange)
  2. decontaminate  drop benchmark docs themselves (doc_id % bench_mod
                    == 0) and any doc whose distinct word-n-gram overlap
                    with the bench side reaches tau (broadcast shingle
                    set, zero shuffle) — n_tokens is computed in the
                    same pass so text never travels again
  3. cap-per-source no domain dominates: keep the cap_k smallest-md5
                    docs per source (id-width rows only from here on)
  4. pack           token-budget bins per training shard (prefix-sum
                    packing in doc_id order, the pack_token_budget
                    discipline)

Scale shape: text is read once and shuffled once (curate); every later
exchange moves (doc_id, n_tokens, source)-width rows — at 100 TB the
pipeline's bytes-through-exchange is ~1× corpus + ~3× id-table.

Columns out: doc_id, source, part, bin_id, n_tokens.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from searchengine_ray.pipelines.analysis import ws_quality_stats
from searchengine_ray.pipelines.common import grouped_aggregate
from searchengine_ray.pipelines.curate import curate, sql_curate
from searchengine_ray.pipelines.decontam import (CONTAM_SCALE,
                                                 bench_shingle_set)
from searchengine_ray.pipelines.dedup import _shingle_batch
from searchengine_ray.pipelines.join import equi_join


def prepare_corpus(docs: "ray.data.Dataset", *, bench_mod: int = 37,
                   n: int = 3, tau_u: int = 20_000, cap_k: int = 12,
                   capacity: int = 2048,
                   pack_parts: int = 32) -> "ray.data.Dataset":
    """See module docstring. ``docs`` needs doc_id, text, source."""
    kept = curate(docs.select_columns(["doc_id", "text"]))

    def bench_rows(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch["doc_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        return batch.filter(pa.array(ids % bench_mod == 0))

    bench = docs.select_columns(["doc_id", "text"]).map_batches(
        bench_rows, batch_format="pyarrow")
    ref = ray.put(bench_shingle_set(bench, n))

    def clean(batch: pa.Table) -> pa.Table:
        """Bench-exclusion + contamination gate + n_tokens, one pass."""
        vs = ray.get(ref)
        ids = pc.cast(batch["doc_id"], pa.int64()) \
            .to_numpy(zero_copy_only=False)
        n_ws, _, _, _ = ws_quality_stats(batch["text"])
        sh = _shingle_batch(batch, n, "text", "doc_id")
        n_sh = np.zeros(len(batch), dtype=np.int64)
        n_hit = np.zeros(len(batch), dtype=np.int64)
        if sh.num_rows:
            order = np.argsort(ids, kind="stable")
            sh_ids = sh["doc_id"].to_numpy(zero_copy_only=False)
            row = order[np.searchsorted(ids[order], sh_ids)]
            hit = np.asarray(pc.is_in(sh["shingle"], value_set=vs)
                             .to_numpy(zero_copy_only=False), dtype=np.int64)
            np.add.at(n_sh, row, 1)
            np.add.at(n_hit, row, hit)
        contam = np.where(n_sh > 0, (n_hit * CONTAM_SCALE) //
                          np.maximum(n_sh, 1), 0)
        keep = (ids % bench_mod != 0) & (contam < tau_u)
        return pa.table({"doc_id": pa.array(ids[keep]),
                         "n_tokens": pa.array(n_ws[keep])})

    surv = kept.map_batches(clean, batch_format="pyarrow")

    def doc_source(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(batch["doc_id"], pa.int64()),
                         "source": pc.cast(batch["source"], pa.string())})

    # static schemas skip the join's schema probes; the left one would
    # EXECUTE the whole curate shuffle a second time (text shipped twice)
    joined = equi_join(surv, docs.map_batches(doc_source,
                                              batch_format="pyarrow"),
                       "doc_id", "doc_id", ["n_tokens"], ["source"],
                       left_schema=pa.schema([("doc_id", pa.int64()),
                                              ("n_tokens", pa.int64())]),
                       right_schema=pa.schema([("doc_id", pa.int64()),
                                               ("source", pa.string())]))

    def cap_partial(batch: pa.Table) -> pa.Table:
        ids = batch["key"].to_numpy(zero_copy_only=False)
        nt = batch["n_tokens"].to_numpy(zero_copy_only=False)
        src = np.array(batch["source"].to_pylist(), dtype=object)
        h = np.fromiter(
            (int.from_bytes(hashlib.md5(str(int(i)).encode()).digest()[:4],
                            "big") for i in ids),
            dtype=np.int64, count=len(ids))
        order = np.lexsort((ids, h, src))
        s_s = src[order]
        newg = np.empty(len(order), dtype=bool)
        if len(order):
            newg[0] = True
            newg[1:] = s_s[1:] != s_s[:-1]
        pos = np.arange(len(order), dtype=np.int64)
        rank = pos - np.maximum.accumulate(np.where(newg, pos, 0)) + 1
        sel = order[rank <= cap_k]
        return pa.table({
            "doc_id": pa.array(ids[sel]),
            "n_tokens": pa.array(nt[sel]),
            "source": pa.array(src[sel].astype(str), type=pa.string()),
            "h": pa.array(h[sel]),
        })

    def cap_final(part: pa.Table) -> pa.Table:
        # identical pick over the forwarded candidates, then re-key the
        # rows by PACK shard so the packing stage can shuffle on it
        t = cap_partial(pa.table({
            "key": part["doc_id"], "n_tokens": part["n_tokens"],
            "source": part["source"]}))
        return t.drop_columns(["h"])

    capped = grouped_aggregate(
        joined.map_batches(cap_partial, batch_format="pyarrow"),
        ["source"], cap_final)

    def pack_part(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column(
            "part", pa.array((ids % pack_parts).astype(np.int64)))

    def pack_final(group: pa.Table) -> pa.Table:
        ids = group["doc_id"].to_numpy(zero_copy_only=False)
        nt = group["n_tokens"].to_numpy(zero_copy_only=False)
        src = group["source"].to_pylist()
        part = group["part"].to_numpy(zero_copy_only=False)
        # all pack shards of this partition at once: lexsort by
        # (part, doc_id), prefix sums reset per part run
        order = np.lexsort((ids, part))
        ids, nt, part = ids[order], nt[order], part[order]
        src = [src[i] for i in order]
        cum = np.cumsum(nt)
        before = np.concatenate([[0], cum[:-1]])
        newp = np.empty(len(order), dtype=bool)
        if len(order):
            newp[0] = True
            newp[1:] = part[1:] != part[:-1]
        run_base = np.maximum.accumulate(np.where(newp, before, 0))
        before = before - run_base
        return pa.table({
            "doc_id": pa.array(ids),
            "source": pa.array(src, type=pa.string()),
            "part": pa.array(part),
            "bin_id": pa.array(before // capacity),
            "n_tokens": pa.array(nt),
        })

    return grouped_aggregate(
        capped.map_batches(pack_part, batch_format="pyarrow"),
        ["part"], pack_final)


def sql_prepare_corpus(bench_mod: int = 37, n: int = 3,
                       tau_u: int = 20_000, cap_k: int = 12,
                       capacity: int = 2048, pack_parts: int = 32) -> str:
    """Exact composed twin: curate CTE → shingle-overlap gate (bench =
    raw docs with doc_id % mod = 0) → md5 cap per source → prefix-sum
    pack window."""
    from searchengine_ray.functions.tokenizer import sql_tokens_expr
    toks = sql_tokens_expr("text")
    nt = ("len(list_filter(regexp_split_to_array(k.text, '\\s+'), "
          "x -> x != ''))")
    return f"""
WITH kept AS ({sql_curate()}),
benchlists AS (SELECT doc_id, {toks} AS L FROM documents
               WHERE doc_id % {bench_mod} = 0),
bench AS (
  SELECT DISTINCT shingle FROM (
    SELECT unnest(list_transform(range(1, greatest(len(L) - {n} + 2, 1)),
                                 i -> array_to_string(L[i:i+{n - 1}], ' ')))
           AS shingle
    FROM benchlists)),
trainlists AS (SELECT doc_id, {toks} AS L FROM kept
               WHERE doc_id % {bench_mod} != 0),
sh AS (
  SELECT DISTINCT doc_id, shingle FROM (
    SELECT doc_id,
           unnest(list_transform(range(1, greatest(len(L) - {n} + 2, 1)),
                                 i -> array_to_string(L[i:i+{n - 1}], ' ')))
           AS shingle
    FROM trainlists)),
agg AS (
  SELECT s.doc_id, count(*)::BIGINT AS n_sh,
         sum(CASE WHEN b.shingle IS NOT NULL THEN 1 ELSE 0 END)::BIGINT
           AS n_hit
  FROM sh s LEFT JOIN bench b USING (shingle) GROUP BY s.doc_id),
surv AS (
  SELECT k.doc_id, {nt}::BIGINT AS n_tokens, d.source
  FROM kept k
  JOIN documents d USING (doc_id)
  LEFT JOIN agg a ON a.doc_id = k.doc_id
  WHERE k.doc_id % {bench_mod} != 0
    AND coalesce((a.n_hit * {CONTAM_SCALE}) // a.n_sh, 0) < {tau_u}),
capped AS (
  SELECT doc_id, n_tokens, source FROM surv
  QUALIFY row_number() OVER (PARTITION BY source ORDER BY
      ('0x' || substr(md5(doc_id::VARCHAR), 1, 8))::BIGINT, doc_id)
    <= {cap_k})
SELECT doc_id, source, doc_id % {pack_parts} AS part,
       ((sum(n_tokens) OVER (PARTITION BY doc_id % {pack_parts}
                             ORDER BY doc_id
                             ROWS UNBOUNDED PRECEDING) - n_tokens)
        // {capacity})::BIGINT AS bin_id,
       n_tokens
FROM capped
"""
