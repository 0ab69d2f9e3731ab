"""Postings explode + segment build — the one wide shuffle of the engine.

Replaces the reference's single-heap inverted-index accumulation
(/root/reference/search_engine/indexer/indexer.py:44-46, 149-150 — SURVEY.md
§2.6 A1) with:

  explode (stateless map_batches, Arrow):  source rows →
      (part:int32, term:string, doc_id:uint64, wtf:float32) posting rows
      PLUS one doc-length row per doc (term=None, wtf=doc_len) routed to
      length partitions — doc_len computed locally per batch (a doc never
      spans batches), so no extra tokenize pass and no extra shuffle.
  segment writer (map_groups):  per partition, sort (term, doc_id),
      varbyte-delta encode each term's postings with block-max metadata,
      write ``part-NNNNN.parquet`` atomically (tmp → rename), return ONE
      manifest row. The returned dataset is tiny; the driver folds it into
      manifest.json (checkpoint/resume lineage).

``PackRuns`` and ``WriteRuns`` fuse these stages with the docstore stage
(``docstats_batch`` → ``DocstoreWriter``) into one pass and one shuffle:
each source batch is read and tokenized once, and every (batch, partition)
slice of posting, length and docstore rows travels as ONE packed row
(part, Arrow IPC payload). The shuffle then moves ~batches×partitions rows
instead of one row per posting — its cost scales with the number of rows
moved, not with bytes.

Skew: hot terms (df above cfg.hot_term_df_ratio, estimated by a sampling
pre-pass) are salted across ``n_salts`` sub-partitions keyed by doc_id hash;
the query engine merges the salted sub-lists (SURVEY.md §4).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from searchengine_ray.codec import block_max_tf_batch, encode_postings_batch
from searchengine_ray.config import IndexConfig
from searchengine_ray.functions.arrow_tokenize import weighted_term_counts
from searchengine_ray.functions.hashing import hash64, hash64_array
from searchengine_ray.stages.docstats import (doc_keys, docstats_batch,
                                              str_col)

# Shuffle row: part + term string + doc_id + wtf float32 — wtf values are
# integral sums of the boost constants bounded far below 2^24, so f32 is
# exact (cast back to f64 at the reducer). term stays a plain string:
# dictionary encoding was measured SLOWER end-to-end (dictionary
# unification during shuffle concat dominates the byte savings).
POSTING_SCHEMA = pa.schema([
    ("part", pa.int32()),
    ("term", pa.string()),
    ("doc_id", pa.uint64()),
    ("wtf", pa.float32()),
])

SEGMENT_SCHEMA = pa.schema([
    ("term", pa.string()),
    ("term_hash", pa.uint64()),
    ("df", pa.uint32()),
    ("postings", pa.large_binary()),
    ("block_max", pa.binary()),
])

LENGTHS_SCHEMA = pa.schema([
    ("doc_id", pa.uint64()),
    ("doc_len", pa.float64()),
])

MANIFEST_ROW_SCHEMA = pa.schema([
    ("part", pa.int32()),
    ("kind", pa.string()),
    ("path", pa.string()),
    ("rows", pa.int64()),
    ("terms", pa.int64()),
    ("bytes", pa.int64()),
    ("sum_doc_len", pa.float64()),
    ("status", pa.string()),
])

# Shuffle row of the fused build: one (source batch, partition) slice of
# posting, length or docstore rows as an Arrow IPC stream.
PACKED_SCHEMA = pa.schema([
    ("part", pa.int32()),
    ("payload", pa.large_binary()),
])


def salt_of(term: str, salt: int) -> str:
    return f"{term}\x00{salt}"


class ExplodePostings:
    """Stateless-per-batch callable; constructed once per task with the
    (small) hot-term dict captured in the closure — broadcast-not-reshipped
    because Ray serializes the callable once per worker."""

    def __init__(self, cfg: IndexConfig, hot_terms: dict[str, int] | None = None):
        self.cfg = cfg
        self.hot_terms = hot_terms or {}
        # salt → partition routing tables, hashed ONCE per hot term here
        # (not per posting row): hot term t with n salts routes row r to
        # partition table[t][doc_id(r) % n]
        self._hot_parts = {
            t: np.array([hash64(salt_of(t, s)) % cfg.num_partitions
                         for s in range(n)], dtype=np.int32)
            for t, n in self.hot_terms.items()
        }

    def __call__(self, batch: pa.Table,
                 ids: np.ndarray | None = None) -> pa.Table:
        """``ids``: the batch's doc ids, when the caller has hashed them."""
        cfg = self.cfg
        if ids is None:
            ids = hash64_array(doc_keys(batch))
        counts = weighted_term_counts(
            [
                (str_col(batch, "path"), cfg.title_boost),
                (pc.binary_join_element_wise(
                    str_col(batch, "repo"),
                    str_col(batch, "lang"), " "), cfg.meta_boost),
                (str_col(batch, "content"), cfg.content_boost),
            ],
            cfg,
        )
        doc_index = counts["doc_index"].to_numpy(zero_copy_only=False)
        post_doc_ids = ids[doc_index]
        wtf = counts["wtf"].to_numpy(zero_copy_only=False)
        dic = counts["term"].combine_chunks()
        codes = dic.indices.to_numpy(zero_copy_only=False)
        uniq = dic.dictionary.to_pylist()
        # partition by hash of the DISTINCT term, gathered through codes
        uniq_hash = np.fromiter((hash64(u) for u in uniq), dtype=np.uint64,
                                count=len(uniq))
        parts = (uniq_hash % np.uint64(cfg.num_partitions)).astype(
            np.int32)[codes]
        if self._hot_parts:
            # Salt hot terms: sub-partition by doc_id. One LUT build over
            # the batch's DISTINCT terms (Python touches only the few
            # thousand uniques), then a single vectorized gather per row:
            # part = LUT[code, doc_id % salts[code]].
            nsalts = np.zeros(len(uniq), dtype=np.uint64)
            max_salt = max((len(t) for t in self._hot_parts.values()), default=1)
            lut = np.zeros((len(uniq), max_salt), dtype=np.int32)
            for code, u in enumerate(uniq):
                table = self._hot_parts.get(u)
                if table is not None:
                    nsalts[code] = len(table)
                    lut[code, :len(table)] = table
            row_salts = nsalts[codes]
            hot_rows = np.nonzero(row_salts > 0)[0]
            if hot_rows.size:
                salt_idx = (post_doc_ids[hot_rows]
                            % row_salts[hot_rows]).astype(np.int64)
                parts[hot_rows] = lut[codes[hot_rows], salt_idx]
        # Per-doc length rows (doc_len = sum of weighted tfs, indexer.py:144-146).
        # RANGE partitioned by doc_id (uniform hash64 ids → balanced), so
        # each lengths file covers a disjoint id range and a doc-range
        # shard loads only its files (same contract as the docstore).
        doc_len = np.zeros(len(batch), dtype=np.float64)
        np.add.at(doc_len, doc_index, wtf)
        len_parts = (cfg.num_partitions
                     + range_partition_ids(ids, cfg.num_length_partitions)
                     ).astype(np.int32)
        return pa.Table.from_arrays(
            [
                pa.array(np.concatenate([parts, len_parts])),
                pa.concat_arrays([dic.dictionary.take(dic.indices),
                                  pa.nulls(len(batch), type=pa.string())]),
                pa.array(np.concatenate([post_doc_ids, ids])),
                pa.array(np.concatenate([wtf, doc_len]).astype(np.float32)),
            ],
            schema=POSTING_SCHEMA,
        )


def range_partition_ids(ids: np.ndarray, num_parts: int) -> np.ndarray:
    """0-based RANGE partition index per uint64 id: slice N covers
    N·step..(N+1)·step with step = 2^64//P + 1 (shared math with the
    query-side file prune, QueryEngine._select_range_files). P == 1 is
    guarded — 2^64+1 overflows uint64."""
    if num_parts <= 1:
        return np.zeros(len(ids), dtype=np.int64)
    step = np.uint64(2 ** 64 // num_parts + 1)
    return (ids.astype(np.uint64) // step).astype(np.int64)


def docstore_part_ids(doc_ids: np.ndarray, cfg: IndexConfig) -> np.ndarray:
    """Docstore partition id per doc: RANGE partition of the uint64 doc_id
    space into cfg.num_docstore_partitions equal slices, offset past the
    segment+length ids. doc_ids are hash64 values (uniform over uint64), so
    range slices are balanced AND every docstore file covers a disjoint
    doc_id range — lazy_docstore fetches prune whole files."""
    base = cfg.num_partitions + cfg.num_length_partitions
    return (base + range_partition_ids(doc_ids, cfg.num_docstore_partitions)
            ).astype(np.int32)


class DocstoreWriter:
    """map_groups callable for docstore rows: one group = one doc_id
    range partition. Sorts by doc_id, writes ``docstore/part-NNNNN.parquet``
    atomically (tmp → rename, deterministic name — a crashed run's rerun
    overwrites rather than duplicating), returns a manifest lineage row —
    the same checkpoint/resume contract as SegmentWriter."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def __call__(self, group: pa.Table) -> pa.Table:
        part = int(group["dpart"][0].as_py())
        g = group.drop_columns(["dpart"]).combine_chunks().sort_by("doc_id")
        rel = f"docstore/part-{part:05d}.parquet"
        path = os.path.join(self.out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        # bounded row groups + doc_id sort → tight min/max stats per group
        pq.write_table(g, tmp, compression="zstd", row_group_size=1024)
        os.replace(tmp, path)
        return pa.Table.from_pylist(
            [{"part": part, "kind": "docstore", "path": rel, "rows": len(g),
              "terms": 0, "bytes": os.path.getsize(path), "sum_doc_len": 0.0,
              "status": "done"}],
            schema=MANIFEST_ROW_SCHEMA,
        )


class SegmentWriter:
    """map_groups callable: one group = one partition. Writes the partition
    file atomically and returns its manifest row."""

    def __init__(self, out_dir: str, cfg: IndexConfig):
        self.out_dir = out_dir
        self.cfg = cfg

    def _write(self, table: pa.Table, rel: str) -> tuple[str, int]:
        path = os.path.join(self.out_dir, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        # bounded row groups: term-sorted segments + row-group min/max
        # stats make single-term predicate-pushdown reads touch ~1 group
        # (QueryEngine lazy_segments mode)
        pq.write_table(table, tmp, compression="zstd", row_group_size=1024)
        os.replace(tmp, path)
        return rel, os.path.getsize(path)

    def __call__(self, group: pa.Table) -> pa.Table:
        cfg = self.cfg
        part = int(group["part"][0].as_py())
        if part < cfg.num_partitions:
            return self._build_segment(group, part)
        return self._build_lengths(group, part)

    def _build_segment(self, group: pa.Table, part: int) -> pa.Table:
        cfg = self.cfg
        term_col = group["term"].combine_chunks()
        if pa.types.is_dictionary(term_col.type):
            term_col = term_col.cast(pa.string())
        # (term, doc_id) order without per-row string comparisons: rank the
        # DISTINCT terms once, then lexsort integer keys. The sorted codes
        # also give the term-run boundaries.
        dic = term_col.dictionary_encode()
        rank = pc.rank(dic.dictionary, sort_keys="ascending").to_numpy()
        codes = dic.indices.to_numpy(zero_copy_only=False)
        doc_ids = group["doc_id"].to_numpy()
        order = np.lexsort((doc_ids, rank[codes]))
        codes = codes[order]
        doc_ids = doc_ids[order]
        wtf = group["wtf"].to_numpy().astype(np.float64)[order]
        boundaries = np.nonzero(np.diff(codes))[0] + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(codes)]])
        uniq_terms = dic.dictionary.take(
            pa.array(codes[starts], type=dic.indices.type)).to_pylist()
        rows_hash = [hash64(t) for t in uniq_terms]
        rows_df = (ends - starts).tolist()
        rows_post = encode_postings_batch(doc_ids, wtf, starts, ends,
                                          cfg.block_size)
        rows_bm = block_max_tf_batch(wtf, starts, ends, cfg.block_size)
        seg = pa.Table.from_arrays(
            [
                pa.array(uniq_terms, type=pa.string()),
                pa.array(np.array(rows_hash, dtype=np.uint64)),
                pa.array(np.array(rows_df, dtype=np.uint32)),
                pa.array(rows_post, type=pa.large_binary()),
                pa.array(rows_bm, type=pa.binary()),
            ],
            schema=SEGMENT_SCHEMA,
        )
        rel, size = self._write(seg, f"segments/part-{part:05d}.parquet")
        return pa.Table.from_pylist(
            [{"part": part, "kind": "segment", "path": rel, "rows": len(group),
              "terms": len(uniq_terms), "bytes": size, "sum_doc_len": 0.0,
              "status": "done"}],
            schema=MANIFEST_ROW_SCHEMA,
        )

    def _build_lengths(self, group: pa.Table, part: int) -> pa.Table:
        flat = pa.table({
            "doc_id": group["doc_id"].combine_chunks() if isinstance(
                group["doc_id"], pa.ChunkedArray) else group["doc_id"],
            "wtf": pc.cast(group["wtf"], pa.float64()),
        })
        order = pc.sort_indices(flat, sort_keys=[("doc_id", "ascending")])
        g = flat.take(order)
        lens = pa.Table.from_arrays(
            [g["doc_id"].combine_chunks() if isinstance(g["doc_id"], pa.ChunkedArray)
             else g["doc_id"],
             g["wtf"].combine_chunks() if isinstance(g["wtf"], pa.ChunkedArray)
             else g["wtf"]],
            schema=LENGTHS_SCHEMA,
        )
        rel, size = self._write(lens, f"lengths/part-{part:05d}.parquet")
        sum_len = float(pc.sum(g["wtf"]).as_py() or 0.0)
        return pa.Table.from_pylist(
            [{"part": part, "kind": "lengths", "path": rel, "rows": len(g),
              "terms": 0, "bytes": size, "sum_doc_len": sum_len,
              "status": "done"}],
            schema=MANIFEST_ROW_SCHEMA,
        )


def pack_by_part(table: pa.Table, parts: np.ndarray,
                 skip: np.ndarray) -> tuple[np.ndarray, pa.Array]:
    """One packed row per distinct partition id of ``table``'s rows (ids in
    ``skip`` dropped): the partition id and the Arrow IPC stream of its
    slice. All streams go to one buffer, so the payload column is built
    without copying them."""
    keep = np.nonzero(~np.isin(parts, skip))[0]
    key = parts[keep]
    if key.size and key.max() <= np.iinfo(np.int16).max:
        # numpy's stable argsort of 16-bit ints is a radix sort: linear,
        # ~7x faster than on the int32 ids, and the same permutation
        key = key.astype(np.int16)
    order = keep[np.argsort(key, kind="stable")]
    ids, starts = np.unique(parts[order], return_index=True)
    ends = np.append(starts[1:], len(order))
    rows = table.take(pa.array(order))
    sink = pa.BufferOutputStream()
    offsets = [0]
    for s, e in zip(starts.tolist(), ends.tolist()):
        with pa.ipc.new_stream(sink, rows.schema) as w:
            w.write_table(rows.slice(s, e - s))
        offsets.append(sink.tell())
    payload = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), len(ids),
        [None, pa.py_buffer(np.array(offsets, dtype=np.int64)),
         sink.getvalue()])
    return ids.astype(np.int32), payload


class PackRuns:
    """map_batches callable of the fused build: reads each source batch
    once and returns its ``PACKED_SCHEMA`` rows — the ``ExplodePostings``
    posting and length rows and the ``docstats_batch`` docstore rows
    (tagged ``dpart`` = ``docstore_part_ids``), packed per partition.

    Partitions in ``skip`` (checkpointed, or left out of this run) are
    dropped before packing. A stage whose partitions are all skipped does
    not run, so a docstore-only resume does not tokenize."""

    def __init__(self, cfg: IndexConfig, hot_terms: dict[str, int] | None,
                 skip: set[int] = frozenset()):
        self.cfg = cfg
        total = cfg.num_partitions + cfg.num_length_partitions
        self.skip = np.array(sorted(skip), dtype=np.int32)
        self.explode = (None if set(range(total)) <= set(skip)
                        else ExplodePostings(cfg, hot_terms))
        self.docstore = not set(range(
            total, total + cfg.num_docstore_partitions)) <= set(skip)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = hash64_array(doc_keys(batch))
        ids, payloads = [], []
        if self.explode is not None:
            posts = self.explode(batch, doc_ids)
            i, p = pack_by_part(posts, posts["part"].to_numpy(), self.skip)
            ids.append(i)
            payloads.append(p)
        if self.docstore:
            docs = docstats_batch(batch, doc_ids)
            dpart = docstore_part_ids(docs["doc_id"].to_numpy(), self.cfg)
            i, p = pack_by_part(docs.append_column("dpart", pa.array(dpart)),
                                dpart, self.skip)
            ids.append(i)
            payloads.append(p)
        return pa.Table.from_arrays(
            [pa.array(np.concatenate(ids)), pa.concat_arrays(payloads)],
            schema=PACKED_SCHEMA)


class WriteRuns:
    """map_groups callable of the fused build: one group = one partition's
    packed rows. Unpacks them and hands the rows to ``SegmentWriter``
    (segment and length ids) or ``DocstoreWriter`` (docstore ids); returns
    that writer's manifest row."""

    def __init__(self, out_dir: str, cfg: IndexConfig):
        self.total = cfg.num_partitions + cfg.num_length_partitions
        self.segments = SegmentWriter(out_dir, cfg)
        self.docstore = DocstoreWriter(out_dir)

    def __call__(self, group: pa.Table) -> pa.Table:
        part = int(group["part"][0].as_py())
        rows = pa.concat_tables([
            pa.ipc.open_stream(v.as_buffer()).read_all()
            for chunk in group["payload"].chunks for v in chunk])
        writer = self.segments if part < self.total else self.docstore
        return writer(rows)
