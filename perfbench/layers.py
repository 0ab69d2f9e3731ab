"""The traced layer probe: per-layer numbers for every workload.

Every traced run ends with the same probe over its seed's inputs, so each
workload reports the full per-layer set:

* build: the stages of ``build_index`` replayed one by one, each as its own
  materialized Ray Data step, next to one ``build_index`` wall;
* codec: ``decode_postings`` and ``encode_postings_batch`` over the built
  segments (re-encoding must give back the stored bytes);
* query: ``prepare_query``, ``term_df`` and uncached ``term_blobs`` +
  ``decode_postings`` on a fresh engine, then ``search_raw``, ``search`` and
  ``search_wand(stats=)`` on a warmed engine;
* pipelines: one pass of the suite, with each entry's ``Dataset.stats()``.
"""

from __future__ import annotations

import os
import statistics

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from inputs import (QueryStreams, TOP_K, corpus_expectations, write_corpus,
                    write_tables)
from workloads import (SUITE, PipelineSuite, Samples, percentile,
                       result_key)

BUILD_STAGES = ("sources.read", "build.hot_probe", "stages.docstats",
                "build.docstore_write", "stages.explode",
                "build.shuffle_write")
PROBE_COLD_QUERIES = 64
CODEC_REPS = 3


def replay_build(tr, corpus: str, out: str, cfg) -> None:
    """build_index's passes as separate materialized steps, reading the
    source once: the spans give each stage's own wall."""
    from searchengine_ray.build import estimate_hot_terms
    from searchengine_ray.sources.corpus import read_source
    from searchengine_ray.stages.docstats import docstats_batch
    from searchengine_ray.stages.postings import (DocstoreWriter,
                                                  ExplodePostings,
                                                  SegmentWriter,
                                                  docstore_part_ids)

    def add_dpart(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column("dpart",
                                   pa.array(docstore_part_ids(ids, cfg)))

    docstore_writer = DocstoreWriter(out)
    segment_writer = SegmentWriter(out, cfg)
    with tr.span("build.replay"):
        with tr.span("sources.read"):
            src = read_source(corpus).materialize()
        with tr.span("build.hot_probe") as a:
            hot = estimate_hot_terms(src, cfg)
            a["hot_terms"] = len(hot)
        with tr.span("stages.docstats"):
            docs = src.map_batches(docstats_batch,
                                   batch_format="pyarrow").materialize()
        with tr.span("build.docstore_write"):
            (docs.map_batches(add_dpart, batch_format="pyarrow")
             .groupby("dpart")
             .map_groups(lambda g: docstore_writer(g), batch_format="pyarrow")
             .take_all())
        with tr.span("stages.explode") as a:
            exploded = src.map_batches(ExplodePostings(cfg, hot),
                                       batch_format="pyarrow").materialize()
            a["posting_rows"] = exploded.count()
        with tr.span("build.shuffle_write"):
            (exploded.groupby("part")
             .map_groups(lambda g: segment_writer(g), batch_format="pyarrow")
             .take_all())


def build_counts(manifest: dict, source_bytes: int) -> dict[str, float]:
    parts = list(manifest["partitions"].values())
    seg_rows = sorted(e["rows"] for e in parts if e["kind"] == "segment")
    return {
        "build.posting_rows": sum(seg_rows),
        "build.segment_bytes": sum(e["bytes"] for e in parts
                                   if e["kind"] == "segment"),
        "build.docstore_bytes": sum(e["bytes"] for e in parts
                                    if e["kind"] == "docstore"),
        "build.num_terms": manifest["num_terms"],
        "build.hot_terms": len(manifest.get("hot_terms") or {}),
        "build.partition_skew": seg_rows[-1] / statistics.median(seg_rows),
        "build.index_bytes_per_source_byte":
            sum(e["bytes"] for e in parts) / source_bytes,
    }


def probe_codec(run, tr, index_dir: str) -> dict[str, float]:
    from searchengine_ray.codec import decode_postings, encode_postings_batch
    seg_dir = os.path.join(index_dir, "segments")
    parts = [pq.read_table(os.path.join(seg_dir, f), columns=["postings"])
             ["postings"].to_pylist()
             for f in sorted(os.listdir(seg_dir)) if f.endswith(".parquet")]
    in_bytes = sum(len(b) for p in parts for b in p)
    decoded = [[decode_postings(b) for b in p] for p in parts]
    runs = []
    for lists in decoded:
        lens = np.array([ids.size for ids, _ in lists], dtype=np.int64)
        ends = np.cumsum(lens)
        runs.append((np.concatenate([ids for ids, _ in lists]),
                     np.concatenate([tfs for _, tfs in lists]),
                     ends - lens, ends))
    dec, enc = [], []
    for rep in range(CODEC_REPS):
        with tr.span("codec.decode", bytes=in_bytes):
            for p in parts:
                for b in p:
                    decode_postings(b)
        dec.append(in_bytes / 1e6 / tr.durations("codec.decode")[-1])
        with tr.span("codec.encode") as a:
            encoded = [encode_postings_batch(ids, tfs, starts, ends,
                                             run.cfg.block_size)
                       for ids, tfs, starts, ends in runs]
        out_bytes = sum(len(b) for p in encoded for b in p)
        a["bytes"] = out_bytes
        enc.append(out_bytes / 1e6 / tr.durations("codec.encode")[-1])
        run.attempted += 1
        if encoded != parts:
            run.fail("codec: re-encoding decoded postings changed the bytes")
    return {"codec.decode_mb_per_s": statistics.median(dec),
            "codec.encode_mb_per_s": statistics.median(enc)}


def probe_query(run, tr, index_dir: str, streams: QueryStreams
                ) -> dict[str, float]:
    from searchengine_ray.codec import decode_postings
    from searchengine_ray.functions.tokenizer import prepare_query
    from searchengine_ray.query import QueryEngine
    queries = list(dict.fromkeys(
        streams.pool + streams.cold[:PROBE_COLD_QUERIES]))
    fresh = QueryEngine(index_dir, run.cfg)
    for j, q in enumerate(queries):
        rid = f"probe{j}"
        with tr.span("query.prepare", request=rid):
            filtered, _, _ = prepare_query(q, run.cfg)
        terms = list(dict.fromkeys(filtered))
        with tr.span("query.dictionary", request=rid):
            for t in terms:
                fresh.term_df(t)
        with tr.span("query.decode", request=rid):
            for t in terms:
                for blob, _ in fresh.term_blobs(t):
                    decode_postings(blob)
    fresh.close()

    warm = QueryEngine(index_dir, run.cfg)
    for q in queries:
        warm.search(q, top_k=TOP_K)
    cands, nonempty, blocks, decoded = [], 0, 0, 0
    for j, q in enumerate(queries):
        rid = f"probe{j}"
        with tr.span("query.search_raw", request=rid) as a:
            ids, _ = warm.search_raw(q)
            a["candidates"] = int(ids.size)
        cands.append(int(ids.size))
        with tr.span("query.search", request=rid):
            res = warm.search(q, top_k=TOP_K)
        nonempty += bool(res)
        stats: dict = {}
        with tr.span("wand.search_wand", request=rid) as a:
            res_w = warm.search_wand(q, top_k=TOP_K, stats=stats)
            a.update(stats)
        blocks += stats.get("blocks_total", 0)
        decoded += stats.get("blocks_decoded", 0)
        run.attempted += 1
        if result_key(res) != result_key(res_w):
            run.fail(f"probe query {q!r}: search and search_wand differ")
    warm.close()
    cands.sort()
    return {
        "query.prepare_ms": tr.median_ms("query.prepare"),
        "query.dictionary_ms": tr.median_ms("query.dictionary"),
        "query.decode_ms": tr.median_ms("query.decode"),
        "query.search_raw_ms": tr.median_ms("query.search_raw"),
        "query.search_ms": tr.median_ms("query.search"),
        "query.candidates_p50": percentile(cands, 50),
        "query.candidates_p99": percentile(cands, 99),
        "query.nonempty_ratio": nonempty / len(queries),
        "wand.blocks_decoded_ratio": decoded / max(1, blocks),
        "workload.repeat_term_share": streams.repeat_term_share,
    }


def probe(run, tr, wl) -> tuple[dict[str, float], dict]:
    """All per-layer metrics for this run, plus the Ray Data stats texts."""
    from searchengine_ray.build import build_index
    from searchengine_ray.sources.corpus import read_source
    corpus = getattr(wl, "corpus", None) or write_corpus(
        run.path("probe", "corpus"), run.seed)
    _, source_bytes = corpus_expectations(corpus)
    replay_build(tr, corpus, run.path("probe", "replay"), run.cfg)
    index_dir = run.path("probe", "index")
    with tr.span("build.wall"):
        manifest = build_index(read_source(corpus), index_dir, run.cfg,
                               resume=False)
    metrics = {f"{name}_s": tr.total(name) for name in BUILD_STAGES}
    metrics["build.stage_sum_s"] = sum(tr.total(n) for n in BUILD_STAGES)
    metrics["build.wall_s"] = tr.total("build.wall")
    metrics.update(build_counts(manifest, source_bytes))
    metrics.update(probe_codec(run, tr, index_dir))
    streams = getattr(wl, "streams", None) or QueryStreams(
        index_dir, corpus, run.seed)
    metrics.update(probe_query(run, tr, index_dir, streams))

    suite = wl if isinstance(wl, PipelineSuite) else PipelineSuite()
    if not isinstance(wl, PipelineSuite):
        suite.tables = write_tables(run.path("probe", "tables"), run.seed)
        suite.prepare_checks(run)
    stats: dict = {}
    suite.run_pass(run, tr, Samples(), "probe_pass", stats)
    for name in SUITE:
        metrics[f"pipelines.{name}_s"] = tr.durations(f"pipelines.{name}")[-1]
    return metrics, stats
