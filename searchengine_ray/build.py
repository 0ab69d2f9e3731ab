"""Index-build orchestrator — Ray-Data-native lifecycle (SURVEY.md §3.4).

    read_parquet(source).select_columns(["content"])
      .limit(ceil(HOT_PROBE_HITS / hot_term_df_ratio))   # 500 docs at 5 %
      → map_batches(tokenize + df over     # hot-term probe: one np.unique
                    dictionary codes,      #   of doc × V + code, bincount
                    batch_size=ROWS_PER_TASK)
      → take_all                           # distinct terms + 1 sentinel
                                           #   row per batch
    read_parquet(source)
      → map_batches(PackRuns, pyarrow,     # ONE read, ONE tokenize, bundled
                    batch_size=ROWS_PER_TASK)  # to ~ROWS_PER_TASK docs/task:
                                           #   ExplodePostings + docstats_batch,
                                           #   packed per (batch, partition)
      → groupby("part").map_groups(WriteRuns)   # the ONE shuffle:
                                           #   SegmentWriter | DocstoreWriter
      → take_all                           # one manifest row per written
                                           #   partition → manifest.json

Segments (term-hash partitions), lengths and docstore (doc_id-range
partitions) share one partition-id space, so a single shuffle routes all
three. Replaces the reference's single-process in-heap build
(/root/reference/search_engine/indexer/indexer.py:109-167). Never calls
ray.init/shutdown — the caller owns the session (driver contract).

Both maps take ``batch_size=ROWS_PER_TASK``: Ray Data bundles consecutive
read blocks into one task of about that many docs, so a task's fixed
scheduling cost is paid per ~ROWS_PER_TASK docs, not per read block, and
the shuffle's sort gets one block per bundle, so the writer stage has as
few tasks. One map call holds at most ROWS_PER_TASK docs: its memory is
bounded by ROWS_PER_TASK × the largest doc (its source text, tokens and
packed postings).

The hot-term probe is a serial prefix of every fresh build, so it is sized
to the decision it makes: a term at the threshold ratio r is expected in
HOT_PROBE_HITS sampled docs, which takes ceil(HOT_PROBE_HITS / r) docs, and
its map gets only ``content``, the one column it tokenizes. (Ray Data
applies that projection after the limit, not in the parquet read, so the
read still decodes every source column of the blocks it touches.) A
prefix sample is enough because over-salting a cold term costs one more
query-side probe, and missing a hot one only leaves its partition
larger.

Both driver fetches are bounded independently of the corpus size. The
probe returns each batch's distinct terms plus one sentinel row per batch,
and its sample depends only on the ratio: at the default 5 % the 500 docs
are one batch (≤ ROWS_PER_TASK), so the fetch is at most the distinct
terms of 500 docs plus one row. The build returns one manifest row per
written partition (at most num_partitions + num_length_partitions +
num_docstore_partitions).

The manifest's ``build_stats`` are informational and never compared on
resume: the probe's sampled docs and seconds, the partition skew (max /
median segment rows) and the number of salted terms.

Resume: partitions listed done in manifest.json (with their files present)
are dropped in the map *before* the shuffle, so a restarted build re-reads
the source but re-shuffles and re-writes only missing partitions; when only
docstore partitions are missing it does not tokenize.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from typing import Any

import numpy as np
import pyarrow as pa

import ray.data

from searchengine_ray.codec import CODEC_VERSION
from searchengine_ray.config import IndexConfig
from searchengine_ray.functions.arrow_tokenize import tokenize_column
from searchengine_ray.stages.postings import PackRuns, WriteRuns
from searchengine_ray.state.manifest import (
    TOKENIZER_VERSION,
    done_parts,
    load_manifest,
    save_manifest,
)


# Docs per map call of the fused build map and the hot-term probe (module
# docstring). The smallest of a 1024/2048/4096 sweep within noise of the
# best (BASELINE.md), so a large corpus still has several tasks per CPU.
# Bundling changes only which rows share a task; every writer sorts its own
# partition, so the index bytes do not depend on it.
ROWS_PER_TASK = 2048


# A term at the hot threshold is expected in this many sampled docs: the
# probe reads ceil(HOT_PROBE_HITS / cfg.hot_term_df_ratio) docs (500 at the
# default 5 %).
HOT_PROBE_HITS = 25


def sample_df(source: "ray.data.Dataset", cfg: IndexConfig
              ) -> tuple[dict[str, int], int]:
    """Per-term document frequency over a bounded prefix of ``source``'s
    ``content`` column, and the number of docs sampled.

    The prefix is ``ceil(HOT_PROBE_HITS / cfg.hot_term_df_ratio)`` docs, and
    only ``content`` reaches the map. Each batch counts df over dictionary
    codes: one ``np.unique`` of ``doc × V + code`` (V distinct terms) gives
    the distinct (doc, term) pairs and a ``bincount`` of their codes the df.
    A batch returns its distinct terms plus one sentinel row (term=None)
    that carries its doc count."""
    limit = math.ceil(HOT_PROBE_HITS / cfg.hot_term_df_ratio)
    sample = source.select_columns(["content"]).limit(limit)

    def partial_df(batch: pa.Table) -> pa.Table:
        di, toks = tokenize_column(batch["content"], cfg)
        dic = toks.dictionary_encode()
        vocab = max(1, len(dic.dictionary))
        pairs = np.unique(di * vocab + dic.indices.to_numpy(zero_copy_only=False))
        df = np.bincount(pairs % vocab, minlength=len(dic.dictionary))
        return pa.table({
            "term": pa.concat_arrays([dic.dictionary,
                                      pa.nulls(1, pa.string())]),
            "doc_count": pa.array(np.append(df, len(batch)).astype(np.int64)),
        })

    rows = sample.map_batches(partial_df, batch_format="pyarrow",
                              batch_size=ROWS_PER_TASK).take_all()
    n = 0
    df: dict[str, int] = {}
    for r in rows:
        if r["term"] is None:
            n += int(r["doc_count"])
        else:
            df[r["term"]] = df.get(r["term"], 0) + int(r["doc_count"])
    return df, n


def select_hot_terms(df: dict[str, int], n: int,
                     cfg: IndexConfig) -> dict[str, int]:
    """Terms whose sampled df-ratio exceeds cfg.hot_term_df_ratio, each with
    its salt count: proportional to its hotness, at least 2, at most
    cfg.num_partitions."""
    n = max(1, n)
    hot: dict[str, int] = {}
    for term, c in df.items():
        ratio = c / n
        if ratio > cfg.hot_term_df_ratio:
            hot[term] = int(min(cfg.num_partitions,
                                max(2, round(ratio / cfg.hot_term_df_ratio))))
    return hot


def estimate_hot_terms(source: "ray.data.Dataset",
                       cfg: IndexConfig) -> dict[str, int]:
    """Sampling pre-pass for skew: estimate per-term document frequency on a
    bounded prefix sample (``sample_df``); terms with df-ratio above
    cfg.hot_term_df_ratio are salted across sub-partitions proportional to
    their hotness. Over-salting a cold term costs nothing but an extra
    query-side probe, so prefix (rather than uniform) sampling bias is
    acceptable (SURVEY.md §4)."""
    return select_hot_terms(*sample_df(source, cfg), cfg)


def build_index(source: "ray.data.Dataset", index_dir: str,
                cfg: IndexConfig = IndexConfig(), *,
                resume: bool = True,
                salt_hot_terms: bool = True,
                only_parts: set[int] | None = None,
                hot_terms_override: dict[str, int] | None = None) -> dict[str, Any]:
    """Build (or resume) the index at ``index_dir``; returns the manifest.

    ``only_parts`` is a test hook simulating a mid-build crash: only those
    shuffle partitions are written this run (FIXTURES.md §5 resume fixture).
    ``hot_terms_override`` pins the salt routing — required when building a
    DELTA index that will be merged into a base (merge.py needs identical
    hot-term routing across sources).
    """
    os.makedirs(index_dir, exist_ok=True)
    if not resume:
        # a non-resume build OWNS the directory: clear stale artifacts so a
        # previous corpus's partition files can never leak into this index
        # (SegmentWriter only writes partitions that have rows)
        import shutil
        for sub in ("segments", "lengths", "docstore"):
            shutil.rmtree(os.path.join(index_dir, sub), ignore_errors=True)
        mpath = os.path.join(index_dir, "manifest.json")
        if os.path.exists(mpath):
            os.remove(mpath)
    prior = load_manifest(index_dir) if resume else None
    if prior is not None:
        # resuming onto an incompatible layout would mix two partition
        # numberings / term spaces into one index — refuse loudly
        for key, want in (("num_partitions", cfg.num_partitions),
                          ("num_length_partitions", cfg.num_length_partitions),
                          ("num_docstore_partitions",
                           cfg.num_docstore_partitions),
                          ("codec_version", CODEC_VERSION),
                          ("lengths_layout", "range"),
                          ("stemmer", cfg.stemmer),
                          ("tokenizer",
                           getattr(cfg, "tokenizer", "split")),
                          ("tokenizer_version", TOKENIZER_VERSION)):
            # pre-tokenizer-field manifests (no "tokenizer" key) were all
            # built with the whitespace split — resume them under "split"
            have = prior.get(key, "split" if key == "tokenizer" else None)
            if have != want:
                raise ValueError(
                    f"resume mismatch at {index_dir}: manifest {key}={have} "
                    f"but this build uses {want}; pass resume=False to "
                    f"rebuild from scratch")
    done = done_parts(prior, index_dir)

    docstore_dir = os.path.join(index_dir, "docstore")
    docstore_done = bool(prior and prior.get("docstore_done")
                         and os.path.isdir(docstore_dir))
    if (prior and prior.get("complete") and docstore_done
            and only_parts is None):
        return prior  # full build already checkpointed, artifacts intact

    total_parts = cfg.num_partitions + cfg.num_length_partitions
    docstore_ids = set(range(total_parts,
                             total_parts + cfg.num_docstore_partitions))
    skip = set(done)
    if only_parts is not None:
        skip |= (set(range(total_parts)) | docstore_ids) - set(only_parts)
    if docstore_done:
        skip |= docstore_ids
    if prior and prior.get("complete") and only_parts is None:
        # every segment and length partition is checkpointed — only the
        # docstore needs rebuilding, so the map does not tokenize
        skip |= set(range(total_parts))

    # the probe that chose hot_terms: none when they are pinned or carried
    # from a prior run (whose own probe figures are kept)
    probe = {"hot_probe_docs": 0, "hot_probe_s": 0.0}
    if hot_terms_override is not None:
        hot_terms = {t: int(n) for t, n in hot_terms_override.items()}
    elif prior and prior.get("hot_terms") is not None:
        hot_terms = {t: int(n) for t, n in prior["hot_terms"].items()}
        probe = {k: prior.get("build_stats", {}).get(k, v)
                 for k, v in probe.items()}
    elif salt_hot_terms:
        t0 = time.perf_counter()
        df, n = sample_df(source, cfg)
        hot_terms = select_hot_terms(df, n, cfg)
        probe = {"hot_probe_docs": n,
                 "hot_probe_s": time.perf_counter() - t0}
    else:
        hot_terms = {}

    manifest_rows: list = []
    if not (set(range(total_parts)) | docstore_ids) <= skip:
        # deterministic file names + atomic writes: a crashed run's rerun
        # overwrites a partition, never duplicates it
        writer = WriteRuns(index_dir, cfg)
        manifest_rows = (
            source.map_batches(PackRuns(cfg, hot_terms, skip),
                               batch_format="pyarrow",
                               batch_size=ROWS_PER_TASK)
            .groupby("part")
            .map_groups(lambda g: writer(g), batch_format="pyarrow")
            .take_all()
        )

    partitions = dict(prior.get("partitions", {})) if prior else {}
    for row in manifest_rows:
        partitions[str(int(row["part"]))] = {
            "kind": row["kind"], "path": row["path"], "rows": int(row["rows"]),
            "terms": int(row["terms"]), "bytes": int(row["bytes"]),
            "sum_doc_len": float(row["sum_doc_len"]), "status": row["status"],
        }
    sum_doc_len = sum(e["sum_doc_len"] for e in partitions.values()
                      if e["kind"] == "lengths")
    # N = one length row per doc — no driver-side footer scan needed
    num_docs = sum(e["rows"] for e in partitions.values()
                   if e["kind"] == "lengths")
    num_terms = sum(e["terms"] for e in partitions.values()
                    if e["kind"] == "segment")
    seg_rows = [e["rows"] for e in partitions.values()
                if e["kind"] == "segment"]
    # complete requires: a full (non-only_parts) run, actual documents
    # observed (guards a resume against an empty/mis-pathed source being
    # marked complete), and every recorded partition done
    complete = (only_parts is None and num_docs > 0
                and all(p["status"] == "done" for p in partitions.values()))
    manifest = {
        "num_docs": num_docs,
        "avg_doc_len": (sum_doc_len / num_docs) if num_docs else 0.0,
        "num_terms": num_terms,
        "num_partitions": cfg.num_partitions,
        "num_length_partitions": cfg.num_length_partitions,
        "num_docstore_partitions": cfg.num_docstore_partitions,
        "bm25": {"k1": cfg.k1, "b": cfg.b},
        "boosts": {"title": cfg.title_boost, "meta": cfg.meta_boost,
                   "content": cfg.content_boost},
        "codec_version": CODEC_VERSION,
        "lengths_layout": "range",
        "stemmer": cfg.stemmer,
        "tokenizer": getattr(cfg, "tokenizer", "split"),
        "tokenizer_version": TOKENIZER_VERSION,
        "hot_terms": hot_terms,
        # done unless an only_parts run deliberately excluded docstore
        # partitions (the crash-simulation hook) — then the next resume
        # reruns exactly the missing ones
        "docstore_done": bool(docstore_done or not (docstore_ids & skip
                                                    - set(done))),
        "complete": complete,
        "partitions": partitions,
        # informational (the resume check above compares none of these):
        # the hot-term probe's sampled docs and wall, max/median segment
        # rows, and how many terms are salted
        "build_stats": {
            **probe,
            "partition_skew": (max(seg_rows) / statistics.median(seg_rows)
                               if seg_rows else 0.0),
            "salted_terms": len(hot_terms),
        },
    }
    save_manifest(index_dir, manifest)
    return manifest


def filter_new_docs(source: "ray.data.Dataset",
                    base_index_dir: str) -> "ray.data.Dataset":
    """Incremental-ingest content filter: the subset of ``source`` whose
    sha256(content) does NOT already exist in ``base_index_dir``'s
    docstore, with exact-duplicate rows WITHIN the incoming batch also
    collapsed to one (min doc_key per sha — deterministic).

    Exact distributed anti-join on the full 32-byte sha: both sides ride
    a coarse hash shuffle keyed by the sha's first 8 bytes, and each
    partition takes the exact byte-level set difference — hash-prefix
    collisions cannot create false drops. Only the base docstore's
    content_sha256 COLUMN is read (column-pruned; 32 bytes/doc), while
    incoming rows ride the shuffle once with their payload — the right
    trade for the incremental case where the delta ≪ the base corpus.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from searchengine_ray.functions.hashing import sha256_array
    from searchengine_ray.pipelines.common import grouped_aggregate
    from searchengine_ray.stages.docstats import doc_keys

    src_schema = source.schema().base_schema
    payload_cols = [f.name for f in src_schema]

    def _key64(sha: pa.Array) -> pa.Array:
        b = np.frombuffer(b"".join(sha.to_pylist()), dtype=">u8") \
            .reshape(-1, 4)[:, 0].astype(np.int64) \
            if len(sha) else np.empty(0, dtype=np.int64)
        return pa.array(b)

    def tag_base(batch: pa.Table) -> pa.Table:
        sha = batch["content_sha256"].combine_chunks() \
            if isinstance(batch["content_sha256"], pa.ChunkedArray) \
            else batch["content_sha256"]
        out = {"sha_key": _key64(sha), "sha": sha,
               "side": pa.array(np.zeros(len(batch), dtype=np.int64)),
               "doc_key": pa.nulls(len(batch), type=pa.string())}
        for c in payload_cols:
            out[c] = pa.nulls(len(batch), type=src_schema.field(c).type)
        return pa.table(out)

    def tag_src(batch: pa.Table) -> pa.Table:
        content = batch["content"]
        sha = pa.array(sha256_array(content), type=pa.binary())
        out = {"sha_key": _key64(sha), "sha": sha,
               "side": pa.array(np.ones(len(batch), dtype=np.int64)),
               "doc_key": doc_keys(batch)}
        for c in payload_cols:
            out[c] = batch[c]
        return pa.table(out)

    base = ray.data.read_parquet(
        os.path.join(base_index_dir, "docstore"),
        columns=["content_sha256"]).map_batches(
            tag_base, batch_format="pyarrow")
    incoming = source.map_batches(tag_src, batch_format="pyarrow")

    def diff(part: pa.Table) -> pa.Table:
        side = part["side"].to_numpy(zero_copy_only=False)
        shas = part["sha"].to_pylist()
        existing = {s for s, sd in zip(shas, side) if sd == 0}
        keys = part["doc_key"].to_pylist()
        best: dict[bytes, int] = {}
        for i, (s, sd) in enumerate(zip(shas, side)):
            if sd == 0 or s in existing:
                continue
            j = best.get(s)
            if j is None or keys[i] < keys[j]:
                best[s] = i
        if not best:
            return part.select(payload_cols).slice(0, 0)
        take = pa.array(sorted(best.values()), type=pa.int64())
        return part.select(payload_cols).take(take)

    return grouped_aggregate(base.union(incoming), ["sha_key"], diff)


def build_delta_index(source: "ray.data.Dataset", base_index_dir: str,
                      delta_index_dir: str,
                      cfg: IndexConfig = IndexConfig()) -> dict[str, Any]:
    """Incremental indexing, end to end: index ONLY the content of
    ``source`` not already in the base (filter_new_docs), pinning the
    base's hot-term salt routing so the delta stays mergeable
    (merge_indexes) and federable (FederatedQueryEngine / Manager) with
    it. Returns the delta manifest; a delta with zero new docs still
    writes a valid empty index."""
    base_manifest = load_manifest(base_index_dir)
    hot = {t: int(n) for t, n in
           (base_manifest.get("hot_terms") or {}).items()}
    fresh = filter_new_docs(source, base_index_dir)
    return build_index(fresh, delta_index_dir, cfg,
                       hot_terms_override=hot)
