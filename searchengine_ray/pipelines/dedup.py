"""Deduplication operators — the training-data-pipeline extension family.

The reference's only dedup is the crawler's exact visited-URL set
(/root/reference/search_engine/crawler/crawler.py:245-247 — SURVEY.md §2.8
D1); everything here generalises that to content-level exact and near-dup
detection at corpus scale:

  exact_dedup          sha256(content) hash-partition + per-group min  (D1↑)
  ngram_jaccard_pairs  exact n-gram-shingle Jaccard via shingle inverted index
  simhash              64-bit SimHash signatures (Charikar, STOC'02)
  simhash_neardup      banded SimHash candidate pairs ≤ max hamming
  minhash_lsh_pairs    MinHash signatures + banded LSH (Broder '97 / MMDS ch.3)

Scale notes (100 TB): every op is one explode `map_batches` (stateless,
Arrow-vectorized — shingling and hashing never loop over Python rows) plus
ONE wide shuffle keyed by content-hash / shingle / band-bucket. Pair
emission inside a shingle/bucket group is quadratic in group size, so hot
groups are capped (`max_df` / `max_bucket`) — the cap is part of the
operator contract and mirrored in the SQL oracle. There is NO driver-side
or `ray.put` side table anywhere in this module: the per-doc distinct-
shingle count `ngram_jaccard_pairs` needs rides along as a column computed
locally in the explode (a document row never spans batches, so the count
is known inside the batch), and the |intersection| and |union| reductions
happen in the pair shuffle itself (asserted by test_no_driver_side_table).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from searchengine_ray.config import IndexConfig

JACCARD_SCALE = 1_000_000  # scaled-integer jaccard: exact in Ray AND SQL


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def exact_dedup(ds: "ray.data.Dataset", text_col: str = "text",
                id_col: str = "doc_id") -> "ray.data.Dataset":
    """Exact duplicate groups: key = sha256(text); keeper = min doc_id.

    Columns: content_sha (hex string), keeper_id (int64), n_copies (int64).
    One wide shuffle on the 32-byte digest (uniform — no skew by
    construction). The digest, not the text, crosses the shuffle.
    """
    from searchengine_ray.pipelines.common import grouped_aggregate

    def key_batch(batch: pa.Table) -> pa.Table:
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        shas = [hashlib.sha256((t or "").encode("utf-8")).hexdigest()
                for t in texts]
        return pa.table({
            "content_sha": pa.array(shas, type=pa.string()),
            "doc_id": pc.cast(batch[id_col], pa.int64()),
        })

    def reduce_part(part: pa.Table) -> pa.Table:
        g = (part.group_by(["content_sha"], use_threads=False)
             .aggregate([("doc_id", "min"), ("doc_id", "count")]))
        return pa.table({
            "content_sha": pc.cast(g["content_sha"], pa.string()),
            "keeper_id": pc.cast(g["doc_id_min"], pa.int64()),
            "n_copies": pc.cast(g["doc_id_count"], pa.int64()),
        })

    keyed = ds.map_batches(key_batch, batch_format="pyarrow")
    return grouped_aggregate(keyed, ["content_sha"], reduce_part)


def dedup_keep_mask(ds: "ray.data.Dataset", text_col: str = "text",
                    id_col: str = "doc_id") -> "ray.data.Dataset":
    """Per-doc keep flag — the form a training pipeline consumes: keep=1
    iff the doc is its exact-dup group's keeper (min doc_id for its
    sha256). Columns: doc_id, keep (int64 0/1). Same single shuffle as
    exact_dedup, rows re-emitted per doc."""
    from searchengine_ray.pipelines.common import grouped_aggregate

    def key_batch(batch: pa.Table) -> pa.Table:
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        shas = [hashlib.sha256((t or "").encode("utf-8")).hexdigest()
                for t in texts]
        return pa.table({
            "content_sha": pa.array(shas, type=pa.string()),
            "doc_id": pc.cast(batch[id_col], pa.int64()),
        })

    def reduce_part(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False)
        g = (part.group_by(["content_sha"], use_threads=False)
             .aggregate([("doc_id", "min")]))
        keeper = dict(zip(g["content_sha"].to_pylist(),
                          g["doc_id_min"].to_pylist()))
        shas = part["content_sha"].to_pylist()
        keep = np.fromiter((1 if int(i) == keeper[s] else 0
                            for i, s in zip(ids, shas)),
                           dtype=np.int64, count=len(ids))
        return pa.table({"doc_id": pa.array(ids.astype(np.int64)),
                         "keep": pa.array(keep)})

    keyed = ds.map_batches(key_batch, batch_format="pyarrow")
    return grouped_aggregate(keyed, ["content_sha"], reduce_part)


def source_dup_rate(ds: "ray.data.Dataset", text_col: str = "text",
                    id_col: str = "doc_id",
                    source_col: str = "source") -> "ray.data.Dataset":
    """Per-source exact-duplicate rate — the curation dashboard metric
    that decides which feeds get dedup attention. A doc is a duplicate
    iff it is NOT its sha256 group's keeper (min doc_id — the
    dedup_keep_mask rule; cross-source groups charge the duplicate to
    the non-keeper's own source). Columns: source, n_docs, n_dups,
    dup_rate_ppm (int64; n_dups·10⁶ // n_docs — exact integers).

    Same single digest-keyed shuffle as dedup_keep_mask with the source
    riding along; the per-source rollup is a second digest-sized
    shuffle (≤ partitions × sources partial rows).
    """
    from searchengine_ray.pipelines.common import grouped_aggregate

    def key_batch(batch: pa.Table) -> pa.Table:
        texts = pc.cast(batch[text_col], pa.string()).to_pylist()
        shas = [hashlib.sha256((t or "").encode("utf-8")).hexdigest()
                for t in texts]
        return pa.table({
            "content_sha": pa.array(shas, type=pa.string()),
            "doc_id": pc.cast(batch[id_col], pa.int64()),
            "source": pc.cast(batch[source_col], pa.string()),
        })

    def mark(part: pa.Table) -> pa.Table:
        ids = part["doc_id"].to_numpy(zero_copy_only=False)
        g = (part.group_by(["content_sha"], use_threads=False)
             .aggregate([("doc_id", "min")]))
        keeper = dict(zip(g["content_sha"].to_pylist(),
                          g["doc_id_min"].to_pylist()))
        shas = part["content_sha"].to_pylist()
        dup = np.fromiter((0 if int(i) == keeper[s] else 1
                           for i, s in zip(ids, shas)),
                          dtype=np.int64, count=len(ids))
        t = pa.table({"source": part["source"],
                      "dup": pa.array(dup),
                      "n": pa.array(np.ones(len(ids), dtype=np.int64))})
        g2 = (t.group_by(["source"], use_threads=False)
              .aggregate([("dup", "sum"), ("n", "sum")]))
        return pa.table({"source": pc.cast(g2["source"], pa.string()),
                         "dups": pc.cast(g2["dup_sum"], pa.int64()),
                         "n": pc.cast(g2["n_sum"], pa.int64())})

    partials = grouped_aggregate(
        ds.map_batches(key_batch, batch_format="pyarrow"),
        ["content_sha"], mark)

    def rollup(part: pa.Table) -> pa.Table:
        g = (part.group_by(["source"], use_threads=False)
             .aggregate([("dups", "sum"), ("n", "sum")]))
        dups = g["dups_sum"].to_numpy(zero_copy_only=False)
        n = g["n_sum"].to_numpy(zero_copy_only=False)
        return pa.table({
            "source": pc.cast(g["source"], pa.string()),
            "n_docs": pa.array(n.astype(np.int64)),
            "n_dups": pa.array(dups.astype(np.int64)),
            "dup_rate_ppm": pa.array(
                (dups.astype(np.int64) * 1_000_000)
                // np.maximum(n.astype(np.int64), 1)),
        })

    return grouped_aggregate(partials, ["source"], rollup)


# ---------------------------------------------------------------------------
# shingling (shared by jaccard + minhash)
# ---------------------------------------------------------------------------

def _shingle_batch(batch: pa.Table, n: int, text_col: str, id_col: str,
                   cfg: IndexConfig | None = None) -> pa.Table:
    """Distinct (doc_id, shingle) rows for a batch — fully Arrow-vectorized:
    tokenize the column, then join each token with its n-1 successors
    (masking joins that cross document boundaries). No Python row loop."""
    from searchengine_ray.functions.arrow_tokenize import tokenize_column

    di, toks = tokenize_column(batch[text_col], cfg, apply_filter=False)
    ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
    if len(di) < n:
        return pa.table({"doc_id": pa.array([], type=pa.int64()),
                         "shingle": pa.array([], type=pa.string())})
    toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    m = len(di) - n + 1
    parts = [toks.slice(k, m) for k in range(n)]
    shingles = pc.binary_join_element_wise(*parts, " ")
    same_doc = di[: m] == di[n - 1:]
    t = pa.table({
        "doc_id": pa.array(ids[di[:m][same_doc]]),
        "shingle": pc.filter(shingles, pa.array(same_doc)),
    })
    g = t.group_by(["doc_id", "shingle"], use_threads=False).aggregate([])
    return g.select(["doc_id", "shingle"])


def _shingle_hash_batch(batch: pa.Table, n: int, text_col: str,
                        id_col: str) -> tuple[np.ndarray, np.ndarray]:
    """Distinct (doc_id, shingle_hash u64) for a batch WITHOUT building
    shingle strings: token hashes come from the batch's DISTINCT tokens
    (dictionary-encoded, hashed once each), shingle hash is an
    order-sensitive polynomial mix over the window — fully vectorized.
    Used by MinHash (which only needs shingle identity, not the string)."""
    from searchengine_ray.functions.arrow_tokenize import tokenize_column
    from searchengine_ray.functions.hashing import hash64_array

    di, toks = tokenize_column(batch[text_col], None, apply_filter=False)
    ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
    if len(di) < n:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint64)
    th = hash64_array(toks)  # per-DISTINCT-token blake2b, gathered
    m = len(di) - n + 1
    poly = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        h = th[:m].copy()
        for k in range(1, n):
            h = h * poly + th[k:k + m]
    same_doc = di[:m] == di[n - 1:]
    doc = ids[di[:m][same_doc]]
    sh = h[same_doc]
    # distinct per doc
    pair = np.stack([doc.astype(np.uint64), sh], axis=1)
    pair = np.unique(pair, axis=0)
    return pair[:, 0].view(np.int64), pair[:, 1]


def shingles(ds: "ray.data.Dataset", n: int = 3, text_col: str = "text",
             id_col: str = "doc_id") -> "ray.data.Dataset":
    """Distinct word-n-gram shingles per document (tokenize() token space)."""
    return ds.map_batches(
        lambda b: _shingle_batch(b, n, text_col, id_col),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# exact n-gram Jaccard via shingle inverted index
# ---------------------------------------------------------------------------

NUM_PAIR_PARTITIONS = 64


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Per-element popcount of a uint64 array (numpy<2 fallback via bytes)."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.int64)
    b = np.ascontiguousarray(x).view(np.uint8).reshape(len(x), 8)
    return np.unpackbits(b, axis=1).sum(axis=1).astype(np.int64)


def _run_boundaries(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, ends) of equal-value runs in a sorted code array."""
    b = np.nonzero(np.diff(codes))[0] + 1
    return np.concatenate([[0], b]), np.concatenate([b, [len(codes)]])


def _emit_run_pairs(ids: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """For each key-run in ``ids``, all pair POSITIONS (pa, pb) such that
    ids[pa] < ids[pb] (runs longer than ``cap`` dropped) — positions let
    callers gather id/size/signature columns without per-row dict lookups."""
    outs_a, outs_b = [], []
    for s, e in zip(starts, ends):
        k = e - s
        if k < 2 or k > cap:
            continue
        pos = s + np.argsort(ids[s:e], kind="stable")
        iu = np.triu_indices(k, 1)
        outs_a.append(pos[iu[0]])
        outs_b.append(pos[iu[1]])
    if not outs_a:
        z = np.empty(0, dtype=np.int64)
        return z, z
    return np.concatenate(outs_a), np.concatenate(outs_b)


def ngram_jaccard_pairs(ds: "ray.data.Dataset", n: int = 3,
                        tau_u: int = 100_000, max_df: int = 200,
                        text_col: str = "text",
                        id_col: str = "doc_id") -> "ray.data.Dataset":
    """All document pairs with n-gram-shingle Jaccard ≥ tau_u/1e6.

    Columns: a_id, b_id, inter, uni, jaccard_u (all int64;
    jaccard_u = inter*1e6 // uni — integer arithmetic, exact vs SQL).

    Plan: shingle explode (each row carries its doc's total distinct-shingle
    count — a doc never spans batches, so the count is known locally; no
    separate sizes pass or broadcast) → (shuffle 1) shingle-hash-partitioned
    groups (NUM_PAIR_PARTITIONS coarse partitions, not one Ray group per
    shingle — per-shingle runs are found by an in-partition sort) emit
    candidate pairs; per-shingle groups larger than ``max_df`` are dropped —
    a hot shingle carries no dedup signal and would emit O(df²) pairs →
    (shuffle 2) pair-count = |intersection|, sz_sum rides along → exact
    Jaccard filter.
    """
    def explode(batch: pa.Table) -> pa.Table:
        from searchengine_ray.functions.hashing import hash64_array
        sh = _shingle_batch(batch, n, text_col, id_col)
        ids = sh["doc_id"].to_numpy(zero_copy_only=False)
        # per-doc distinct-shingle count, dense over this batch's rows
        uniq, inv, counts = np.unique(ids, return_inverse=True,
                                      return_counts=True)
        h = hash64_array(sh["shingle"])
        return pa.table({
            "part": pa.array((h % np.uint64(NUM_PAIR_PARTITIONS))
                             .astype(np.int32)),
            "shingle": sh["shingle"],
            "doc_id": sh["doc_id"],
            "sz": pa.array(counts[inv]),
        })

    def emit_pairs(group: pa.Table) -> pa.Table:
        t = group.sort_by("shingle")
        codes = (t["shingle"].combine_chunks().dictionary_encode()
                 .indices.to_numpy(zero_copy_only=False))
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        sz = t["sz"].to_numpy(zero_copy_only=False)
        starts, ends = _run_boundaries(codes)
        pa_pos, pb_pos = _emit_run_pairs(ids, starts, ends, max_df)
        a, b = ids[pa_pos], ids[pb_pos]
        # Ray's multi-key aggregate is Python-level (measured 14s on 1.3M
        # pair rows); route pairs through a coarse hash partition and
        # reduce with Arrow's C++ group_by in the next stage instead.
        with np.errstate(over="ignore"):
            mix = (a.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
                   + b.astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F))
        return pa.table({"ppart": pa.array((mix % np.uint64(NUM_PAIR_PARTITIONS))
                                           .astype(np.int32)),
                         "a_id": pa.array(a),
                         "b_id": pa.array(b),
                         "sz_sum": pa.array((sz[pa_pos] + sz[pb_pos])
                                            .astype(np.int64))})

    def reduce_pairs(group: pa.Table) -> pa.Table:
        g = (group.select(["a_id", "b_id", "sz_sum"])
             .group_by(["a_id", "b_id"], use_threads=False)
             .aggregate([("sz_sum", "count"), ("sz_sum", "min")]))
        a = g["a_id"].to_numpy(zero_copy_only=False)
        b = g["b_id"].to_numpy(zero_copy_only=False)
        inter = g["sz_sum_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        sz_sum = g["sz_sum_min"].to_numpy(zero_copy_only=False).astype(np.int64)
        uni = sz_sum - inter
        jac = np.where(uni > 0, (inter * JACCARD_SCALE) // np.maximum(uni, 1), 0)
        keep = jac >= tau_u
        return pa.table({
            "a_id": pa.array(a[keep].astype(np.int64)),
            "b_id": pa.array(b[keep].astype(np.int64)),
            "inter": pa.array(inter[keep]),
            "uni": pa.array(uni[keep]),
            "jaccard_u": pa.array(jac[keep]),
        })

    return (ds.map_batches(explode, batch_format="pyarrow")
              .groupby("part")
              .map_groups(emit_pairs, batch_format="pyarrow")
              .groupby("ppart")
              .map_groups(reduce_pairs, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def _md5_64(token: str) -> int:
    """First 8 bytes (big-endian) of md5 — reproducible in the SQL oracle as
    ('0x' || substr(md5(t),1,16))::UBIGINT."""
    return int.from_bytes(hashlib.md5(token.encode("utf-8")).digest()[:8], "big")


def simhash(ds: "ray.data.Dataset", cfg: IndexConfig = IndexConfig(),
            text_col: str = "text", id_col: str = "doc_id") -> "ray.data.Dataset":
    """64-bit SimHash per doc over filtered-token tf (Charikar, STOC'02).

    Columns: doc_id (int64), sh0..sh3 (int64, 16-bit chunks, little-chunk
    order: bit j of the signature lives in sh{j//16} bit {j%16}). Integer
    arithmetic end-to-end → exactly reproducible in SQL via md5. A bit is 1
    iff the tf-weighted ±1 sum over token-hash bits is > 0.
    """
    from searchengine_ray.functions.arrow_tokenize import tokenize_column

    def fn(batch: pa.Table) -> pa.Table:
        di, toks = tokenize_column(batch[text_col], cfg, apply_filter=True)
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        nb = len(batch)
        # tf per (doc, term) via arrow group_by; hash each DISTINCT term once
        t = pa.table({"d": pa.array(di), "t": toks})
        g = t.group_by(["d", "t"], use_threads=False).aggregate([("d", "count")])
        gd = g["d"].to_numpy(zero_copy_only=False)
        tf = g["d_count"].to_numpy(zero_copy_only=False).astype(np.int64)
        dic = g["t"].combine_chunks().dictionary_encode()
        uniq = dic.dictionary.to_pylist()
        codes = dic.indices.to_numpy(zero_copy_only=False)
        hvals = np.fromiter((_md5_64(u) for u in uniq), dtype=np.uint64,
                            count=len(uniq))[codes]
        # bit matrix (rows × 64) of ±tf contributions, accumulated per doc
        bits = ((hvals[:, None] >> np.arange(64, dtype=np.uint64)[None, :])
                & np.uint64(1)).astype(np.int64)
        contrib = (2 * bits - 1) * tf[:, None]
        acc = np.zeros((nb, 64), dtype=np.int64)
        np.add.at(acc, gd, contrib)
        sig_bits = (acc > 0).astype(np.int64)
        chunks = [
            (sig_bits[:, 16 * c:16 * (c + 1)]
             << np.arange(16, dtype=np.int64)[None, :]).sum(axis=1)
            for c in range(4)
        ]
        return pa.table({
            "doc_id": pa.array(ids),
            "sh0": pa.array(chunks[0]), "sh1": pa.array(chunks[1]),
            "sh2": pa.array(chunks[2]), "sh3": pa.array(chunks[3]),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


def simhash_neardup_pairs(ds: "ray.data.Dataset",
                          max_hamming: int = 3,
                          cfg: IndexConfig = IndexConfig(),
                          max_bucket: int = 500,
                          text_col: str = "text",
                          id_col: str = "doc_id") -> "ray.data.Dataset":
    """Near-dup pairs with SimHash hamming distance ≤ max_hamming.

    Banding: with 4 chunks of 16 bits, any pair within hamming ≤ 3 shares at
    least one exact chunk (pigeonhole) → candidates share a (band, chunk
    value) bucket; buckets are coarsely hash-partitioned and found by an
    in-partition sort (no per-bucket Ray group). Exact hamming is verified
    on the candidates; duplicates across bands are removed by the final
    (a,b) groupby. Columns: a_id, b_id, hamming (int64).
    """
    sigs = simhash(ds, cfg, text_col, id_col)

    def explode_bands(batch: pa.Table) -> pa.Table:
        n = len(batch)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        chunks = [batch[f"sh{c}"].to_numpy(zero_copy_only=False)
                  for c in range(4)]
        sig = (chunks[0].astype(np.uint64)
               | (chunks[1].astype(np.uint64) << np.uint64(16))
               | (chunks[2].astype(np.uint64) << np.uint64(32))
               | (chunks[3].astype(np.uint64) << np.uint64(48)))
        bucket = (np.repeat(np.arange(4, dtype=np.int64), n) << np.int64(16)) \
            | np.concatenate([c.astype(np.int64) for c in chunks])
        return pa.table({
            "part": pa.array((bucket % NUM_PAIR_PARTITIONS).astype(np.int32)),
            "bucket": pa.array(bucket),
            "doc_id": pa.array(np.tile(ids, 4)),
            "sig": pa.array(np.tile(sig, 4)),
        })

    def emit(group: pa.Table) -> pa.Table:
        t = group.sort_by([("bucket", "ascending"), ("doc_id", "ascending")])
        codes = t["bucket"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        sig = t["sig"].to_numpy(zero_copy_only=False)
        starts, ends = _run_boundaries(codes)
        pa_pos, pb_pos = _emit_run_pairs(ids, starts, ends, max_bucket)
        if len(pa_pos) == 0:
            return pa.table({"a_id": pa.array([], type=pa.int64()),
                             "b_id": pa.array([], type=pa.int64()),
                             "hamming": pa.array([], type=pa.int64())})
        ham = _popcount64(sig[pa_pos] ^ sig[pb_pos])
        keep = ham <= max_hamming
        return pa.table({"a_id": pa.array(ids[pa_pos[keep]].astype(np.int64)),
                         "b_id": pa.array(ids[pb_pos[keep]].astype(np.int64)),
                         "hamming": pa.array(ham[keep])})

    from searchengine_ray.pipelines.common import grouped_aggregate

    def dedup_pairs(part: pa.Table) -> pa.Table:
        g = (part.group_by(["a_id", "b_id"], use_threads=False)
             .aggregate([("hamming", "min")]))
        return pa.table({
            "a_id": pc.cast(g["a_id"], pa.int64()),
            "b_id": pc.cast(g["b_id"], pa.int64()),
            "hamming": pc.cast(g["hamming_min"], pa.int64()),
        })

    candidates = (sigs.map_batches(explode_bands, batch_format="pyarrow")
                      .groupby("part")
                      .map_groups(emit, batch_format="pyarrow"))
    return grouped_aggregate(candidates, ["a_id", "b_id"], dedup_pairs)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------

_EMPTY_SENTINEL = np.uint64(0xFFFFFFFFFFFFFFFF)


def _sig_list_array(mat: np.ndarray) -> pa.ListArray:
    """(rows, w) int64 matrix → list<int64> column without Python lists."""
    n, w = mat.shape
    return pa.ListArray.from_arrays(
        pa.array(np.arange(0, (n + 1) * w, w, dtype=np.int32)),
        pa.array(np.ascontiguousarray(mat).ravel()))


def _sig_matrix(col) -> np.ndarray:
    """list<int64> column → (rows, w) int64 matrix. ``flatten()`` (not
    ``.values``) so sliced arrays keep their offset alignment."""
    arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = arr.flatten().to_numpy(zero_copy_only=False)
    return flat.reshape(len(arr), -1)


def _minhash_params(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """num_perm (a, b) pairs for the multiply-add family
    h_j(x) = (a_j·x + b_j) mod 2^64 with a_j odd — native uint64 wraparound,
    fully vectorizable, deterministic across processes (seeded, no Python
    hash())."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64) * np.uint64(2) \
        + np.uint64(1)
    b = rng.integers(0, 1 << 63, size=num_perm, dtype=np.uint64)
    return a, b


MERSENNE31 = (1 << 31) - 1


def _minhash_params_m31(num_perm: int, seed: int = 42) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) pairs for the classical universal family
    h_j(x) = (a_j·x + b_j) mod (2^31 − 1). All values < 2^31, so a·x < 2^62
    fits int64 EXACTLY — in numpy AND in DuckDB BIGINT arithmetic, which is
    what makes the m31 family's banded-LSH output SQL-oracle-checkable."""
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE31, size=num_perm, dtype=np.int64)
    b = rng.integers(0, MERSENNE31, size=num_perm, dtype=np.int64)
    return a, b


def _md5_32(s: str) -> int:
    """First 4 bytes (big-endian) of md5 — SQL twin:
    ('0x' || substr(md5(s), 1, 8))::BIGINT."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:4], "big")


def minhash_signatures(ds: "ray.data.Dataset", n: int = 3, num_perm: int = 64,
                       seed: int = 42, text_col: str = "text",
                       id_col: str = "doc_id",
                       family: str = "wrap64") -> "ray.data.Dataset":
    """MinHash signatures over n-gram shingles. Columns: doc_id,
    sig (list<int64>). Docs with no shingles get the all-sentinel
    signature. The (shingles × perms) hash is one numpy outer product per
    batch.

    ``family``: "wrap64" (default, fastest — numeric shingles, uint64
    wraparound perms) or "m31" (md5 shingle strings + mod-(2^31−1) perms —
    slower but exactly restatable in SQL; the driver oracle uses it).
    """
    if family == "m31":
        a31, b31 = _minhash_params_m31(num_perm, seed)
    else:
        a_arr, b_arr = _minhash_params(num_perm, seed)

    def fn(batch: pa.Table) -> pa.Table:
        ids = pc.cast(batch[id_col], pa.int64()).to_numpy(zero_copy_only=False)
        nb = len(batch)
        if family == "m31":
            sh = _shingle_batch(batch, n, text_col, id_col)
            doc_ids = sh["doc_id"].to_numpy(zero_copy_only=False)
            # md5 each DISTINCT shingle once, gather through codes (the
            # fingerprint lesson: per-occurrence hashlib is the hot cost)
            dic = sh["shingle"].combine_chunks().dictionary_encode()
            codes = dic.indices.to_numpy(zero_copy_only=False)
            uniq = dic.dictionary.to_pylist()
            x = (np.fromiter((_md5_32(u) for u in uniq), dtype=np.int64,
                             count=len(uniq))[codes] % MERSENNE31
                 if len(uniq) else np.empty(0, dtype=np.int64))
            sentinel = np.int64(MERSENNE31)
        else:
            doc_ids, x = _shingle_hash_batch(batch, n, text_col, id_col)
            sentinel = _EMPTY_SENTINEL
        id_pos = {int(d): i for i, d in enumerate(ids)}
        rows = np.fromiter((id_pos[int(d)] for d in doc_ids), dtype=np.int64,
                           count=len(doc_ids))
        if family == "m31":
            sigs = np.full((nb, num_perm), sentinel, dtype=np.int64)
            if len(doc_ids):
                hv = (x[:, None] * a31[None, :] + b31[None, :]) % MERSENNE31
                np.minimum.at(sigs, rows, hv)
            sig_col = _sig_list_array(sigs)
        else:
            sigs = np.full((nb, num_perm), sentinel, dtype=np.uint64)
            if len(doc_ids):
                with np.errstate(over="ignore"):
                    hv = x[:, None] * a_arr[None, :] + b_arr[None, :]
                np.minimum.at(sigs, rows, hv)
            sig_col = _sig_list_array(sigs.view(np.int64))
        return pa.table({"doc_id": pa.array(ids), "sig": sig_col})

    return ds.map_batches(fn, batch_format="pyarrow")


def minhash_lsh_pairs(ds: "ray.data.Dataset", n: int = 3, num_perm: int = 64,
                      bands: int = 16, tau: float = 0.5, seed: int = 42,
                      max_bucket: int = 500, text_col: str = "text",
                      id_col: str = "doc_id",
                      family: str = "wrap64") -> "ray.data.Dataset":
    """Candidate near-dup pairs via banded MinHash-LSH, filtered by the
    signature-estimated Jaccard ≥ tau.

    Columns: a_id, b_id, est_matches (int64; matching minhash count of
    num_perm). bands must divide num_perm; rows/band r = num_perm//bands →
    LSH s-curve threshold ≈ (1/bands)^(1/r). One (band, bucket-hash) keyed
    shuffle; per-bucket pair emission capped at max_bucket docs.
    """
    assert num_perm % bands == 0
    r = num_perm // bands
    sigs = minhash_signatures(ds, n, num_perm, seed, text_col, id_col,
                              family=family)
    # vectorized band-bucket key: polynomial multiply-add over the band's
    # sig rows in wrapping uint64 (equal band-signatures → equal keys;
    # 64-bit collisions are negligible vs the estimate filter downstream)
    _POLY = np.uint64(0x9E3779B97F4A7C15)

    def explode(batch: pa.Table) -> pa.Table:
        nb = len(batch)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        sig = _sig_matrix(batch["sig"])
        sig_u = sig.view(np.uint64)
        out = []
        with np.errstate(over="ignore"):
            for bidx in range(bands):
                key = np.full(nb, np.uint64(bidx * 2 + 1), dtype=np.uint64)
                for c in range(bidx * r, (bidx + 1) * r):
                    key = key * _POLY + sig_u[:, c]
                out.append(key)
        keys = np.concatenate(out)
        return pa.table({
            "part": pa.array((keys % np.uint64(NUM_PAIR_PARTITIONS))
                             .astype(np.int32)),
            "bucket": pa.array(keys.view(np.int64)),
            "doc_id": pa.array(np.tile(ids, bands), type=pa.int64()),
            "sig": _sig_list_array(np.tile(sig, (bands, 1))),
        })

    min_matches = int(np.ceil(tau * num_perm))

    def emit(group: pa.Table) -> pa.Table:
        t = group.sort_by([("bucket", "ascending"), ("doc_id", "ascending")])
        codes = t["bucket"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        starts, ends = _run_boundaries(codes)
        pa_pos, pb_pos = _emit_run_pairs(ids, starts, ends, max_bucket)
        empty = pa.table({"a_id": pa.array([], type=pa.int64()),
                          "b_id": pa.array([], type=pa.int64()),
                          "est_matches": pa.array([], type=pa.int64())})
        if len(pa_pos) == 0:
            return empty
        # dedup candidate position-pairs within the partition before the
        # (wide) signature compare
        ab = np.unique(np.stack([pa_pos, pb_pos], axis=1), axis=0)
        pa_pos, pb_pos = ab[:, 0], ab[:, 1]
        sig = _sig_matrix(t["sig"])
        matches = (sig[pa_pos] == sig[pb_pos]).sum(axis=1).astype(np.int64)
        keep = matches >= min_matches
        return pa.table({"a_id": pa.array(ids[pa_pos[keep]].astype(np.int64)),
                         "b_id": pa.array(ids[pb_pos[keep]].astype(np.int64)),
                         "est_matches": pa.array(matches[keep])})

    from searchengine_ray.pipelines.common import grouped_aggregate

    def dedup_pairs(part: pa.Table) -> pa.Table:
        g = (part.group_by(["a_id", "b_id"], use_threads=False)
             .aggregate([("est_matches", "max")]))
        return pa.table({
            "a_id": pc.cast(g["a_id"], pa.int64()),
            "b_id": pc.cast(g["b_id"], pa.int64()),
            "est_matches": pc.cast(g["est_matches_max"], pa.int64()),
        })

    candidates = (sigs.map_batches(explode, batch_format="pyarrow")
                      .groupby("part")
                      .map_groups(emit, batch_format="pyarrow"))
    return grouped_aggregate(candidates, ["a_id", "b_id"], dedup_pairs)


def _emit_run_cross_pairs(side: np.ndarray, starts: np.ndarray,
                          ends: np.ndarray, cap: int
                          ) -> tuple[np.ndarray, np.ndarray]:
    """For each key-run, all CROSS pair positions (p_new, p_old) — the
    asymmetric sibling of :func:`_emit_run_pairs` (runs over ``cap``
    dropped, runs lacking either side skipped)."""
    outs_a, outs_b = [], []
    for s, e in zip(starts, ends):
        k = e - s
        if k < 2 or k > cap:
            continue
        seg = np.arange(s, e)
        nw = seg[side[s:e] == 1]
        od = seg[side[s:e] == 0]
        if nw.size == 0 or od.size == 0:
            continue
        outs_a.append(np.repeat(nw, od.size))
        outs_b.append(np.tile(od, nw.size))
    if not outs_a:
        z = np.empty(0, dtype=np.int64)
        return z, z
    return np.concatenate(outs_a), np.concatenate(outs_b)


def incremental_neardup(new_docs: "ray.data.Dataset",
                        corpus_docs: "ray.data.Dataset",
                        n: int = 3, num_perm: int = 64, bands: int = 16,
                        tau: float = 0.5, seed: int = 42,
                        max_bucket: int = 500, text_col: str = "text",
                        id_col: str = "doc_id",
                        family: str = "wrap64") -> "ray.data.Dataset":
    """INCREMENTAL-ingest near-dup check: flag every NEW doc that is a
    MinHash-LSH near-duplicate of an EXISTING corpus doc — the nightly
    shape where the new batch is small and the corpus is 100 TB: both
    sides' signatures ride the SAME banded bucket shuffle, but buckets
    emit only NEW × CORPUS cross pairs — never corpus × corpus (the
    quadratic the full pair operator pays), so per-bucket cost is
    |new∩bucket| × |corpus∩bucket| and a batch with no bucket
    collisions costs one signature scan of itself plus the bucket keys
    of the corpus. Columns: new_id, corpus_id, est_matches.
    """
    assert num_perm % bands == 0
    r = num_perm // bands
    _POLY = np.uint64(0x9E3779B97F4A7C15)
    min_matches = int(np.ceil(tau * num_perm))

    def tagged(ds, side_val):
        sigs = minhash_signatures(ds, n, num_perm, seed, text_col,
                                  id_col, family=family)

        def explode(batch: pa.Table) -> pa.Table:
            nb = len(batch)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False)
            sig = _sig_matrix(batch["sig"])
            sig_u = sig.view(np.uint64)
            out = []
            with np.errstate(over="ignore"):
                for bidx in range(bands):
                    key = np.full(nb, np.uint64(bidx * 2 + 1),
                                  dtype=np.uint64)
                    for c in range(bidx * r, (bidx + 1) * r):
                        key = key * _POLY + sig_u[:, c]
                    out.append(key)
            keys = np.concatenate(out)
            return pa.table({
                "part": pa.array((keys % np.uint64(NUM_PAIR_PARTITIONS))
                                 .astype(np.int32)),
                "bucket": pa.array(keys.view(np.int64)),
                "doc_id": pa.array(np.tile(ids, bands), type=pa.int64()),
                "side": pa.array(np.full(nb * bands, side_val,
                                         dtype=np.int64)),
                "sig": _sig_list_array(np.tile(sig, (bands, 1))),
            })

        return sigs.map_batches(explode, batch_format="pyarrow")

    unioned = tagged(new_docs, 1).union(tagged(corpus_docs, 0))

    def emit(group: pa.Table) -> pa.Table:
        t = group.sort_by([("bucket", "ascending"),
                           ("doc_id", "ascending")])
        codes = t["bucket"].to_numpy(zero_copy_only=False)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        side = t["side"].to_numpy(zero_copy_only=False)
        starts, ends = _run_boundaries(codes)
        pn, po = _emit_run_cross_pairs(side, starts, ends, max_bucket)
        empty = pa.table({"new_id": pa.array([], type=pa.int64()),
                          "corpus_id": pa.array([], type=pa.int64()),
                          "est_matches": pa.array([], type=pa.int64())})
        if len(pn) == 0:
            return empty
        ab = np.unique(np.stack([pn, po], axis=1), axis=0)
        pn, po = ab[:, 0], ab[:, 1]
        sig = _sig_matrix(t["sig"])
        matches = (sig[pn] == sig[po]).sum(axis=1).astype(np.int64)
        keep = matches >= min_matches
        return pa.table({
            "new_id": pa.array(ids[pn[keep]].astype(np.int64)),
            "corpus_id": pa.array(ids[po[keep]].astype(np.int64)),
            "est_matches": pa.array(matches[keep]),
        })

    from searchengine_ray.pipelines.common import grouped_aggregate

    def dedup_pairs(part: pa.Table) -> pa.Table:
        g = (part.group_by(["new_id", "corpus_id"], use_threads=False)
             .aggregate([("est_matches", "max")]))
        return pa.table({
            "new_id": pc.cast(g["new_id"], pa.int64()),
            "corpus_id": pc.cast(g["corpus_id"], pa.int64()),
            "est_matches": pc.cast(g["est_matches_max"], pa.int64()),
        })

    candidates = unioned.groupby("part").map_groups(
        emit, batch_format="pyarrow")
    return grouped_aggregate(candidates, ["new_id", "corpus_id"],
                             dedup_pairs)


def neardup_cluster_keep(docs: "ray.data.Dataset",
                         pairs: "ray.data.Dataset | None" = None
                         ) -> "ray.data.Dataset":
    """The canonical near-dedup curation step: near-dup CLUSTERS → keep
    exactly ONE representative per cluster (longest text wins,
    doc_id-ascending tie-break — a deterministic quality rule shared with
    the SQL oracle).

    Composition of three existing distributed operators, no new shuffle
    primitive: minhash_lsh_pairs (m31 family) → graph.connected_components
    → equi_join back to per-doc char lengths → per-cluster vectorized
    argmax inside coarse hash partitions (grouped_aggregate — the
    per-cluster pick is a lexsort + run-boundary mask over the whole
    partition, not a per-group Python loop).

    Columns: doc_id (int64), keep (bool). Isolated docs (no near-dup) are
    their own cluster → keep=true.

    ``pairs``: optionally pass a precomputed (ideally materialized)
    MinHash-LSH pair set so a gate/suite sharing the pair set across
    entries computes the signatures once (driver_api.shared_minhash_pairs).
    """
    from searchengine_ray.pipelines.common import grouped_aggregate
    from searchengine_ray.pipelines.graph import connected_components
    from searchengine_ray.pipelines.join import equi_join

    if pairs is None:
        pairs = minhash_lsh_pairs(docs, family="m31")
    comp = connected_components(pairs, docs.select_columns(["doc_id"]))

    def lens(batch: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "nchars": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
        })

    # static schemas skip the probes; the left one would run part of
    # connected_components' lazy shuffle chain before the real run
    joined = equi_join(comp, docs.map_batches(lens, batch_format="pyarrow"),
                       "doc_id", "doc_id", ["component_id"], ["nchars"],
                       left_schema=pa.schema([("doc_id", pa.int64()),
                                              ("component_id", pa.int64())]),
                       right_schema=pa.schema([("doc_id", pa.int64()),
                                               ("nchars", pa.int64())]))

    def pick(part: pa.Table) -> pa.Table:
        ids = part["key"].to_numpy(zero_copy_only=False)
        comp_ids = part["component_id"].to_numpy(zero_copy_only=False)
        nch = part["nchars"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, -nch, comp_ids))
        first = np.empty(len(order), dtype=bool)
        first[0:1] = True
        first[1:] = comp_ids[order[1:]] != comp_ids[order[:-1]]
        keep = np.empty(len(order), dtype=bool)
        keep[order] = first
        return pa.table({"doc_id": pa.array(ids),
                         "keep": pa.array(keep)})

    return grouped_aggregate(joined, ["component_id"], pick)


def lsh_verified_pairs(ds: "ray.data.Dataset", n: int = 3,
                       num_perm: int = 64, bands: int = 16,
                       tau: float = 0.5, seed: int = 42,
                       max_bucket: int = 500, tau_u: int = 500_000,
                       text_col: str = "text", id_col: str = "doc_id",
                       family: str = "wrap64",
                       cands: "ray.data.Dataset | None" = None,
                       sh: "ray.data.Dataset | None" = None
                       ) -> "ray.data.Dataset":
    """The PRODUCTION near-dup pipeline: MinHash-LSH candidate
    generation followed by EXACT n-gram-Jaccard verification of just
    the candidates (SlimPajama/RefinedWeb's two-phase recipe — the
    sketch recalls, the exact check decides).

    Candidate cost is :func:`minhash_lsh_pairs` (banded, capped).
    Verification is one int64 equi-join plus ONE doc-keyed shuffle:
    the join ships each candidate pair's a-side shingle rows once (the
    inherent verify cost, pairs × shingles/doc), and those probe rows,
    addressed to the b-side doc, ride one ``grouped_aggregate`` keyed by
    doc together with every corpus shingle row. A partition then holds
    all of b's shingles and every probe aimed at b, so the exact answer
    is local: |a| = the pair's probe rows (the join carries all of a's
    distinct shingles), |b| = b's corpus rows, |a ∩ b| = probes that
    hit b's (doc, shingle-code) keys (in-partition dictionary-encode +
    structured-key searchsorted, no Python loop), and
    ``jaccard_u = inter·10^6 // uni ≥ tau_u`` with uni = |a| + |b| −
    inter. Pairs with no common shingle are dropped, as the oracle's
    inner join drops them. Candidate pairs must be distinct (as
    :func:`minhash_lsh_pairs` emits them). Skew: a doc that is the
    b-side of many pairs receives all their probe rows; ``max_bucket``
    bounds the pairs a bucket emits.

    Columns: a_id, b_id, inter, uni, jaccard_u (int64).
    """
    from searchengine_ray.pipelines.common import grouped_aggregate
    from searchengine_ray.pipelines.join import equi_join

    # both inputs feed two stages (cands the join; sh the join AND the
    # verify union) — materialize once or each consumer re-executes the
    # tokenize/LSH upstream. Both accept precomputed MATERIALIZED handles
    # so a gate/suite shares them across entries (driver_api.shared_*).
    if cands is None:
        cands = minhash_lsh_pairs(ds, n, num_perm, bands, tau, seed,
                                  max_bucket, text_col, id_col,
                                  family).materialize()
    if sh is None:
        sh = shingles(ds, n, text_col, id_col).materialize()

    # pinned so that no branch of the union below carries its own
    # shuffle: at one CPU a union whose branch is a lazy all-to-all can
    # wait on itself (the labels-plan stall of graph.connected_components)
    expanded = equi_join(cands, sh, "a_id", "doc_id",
                         ["b_id"], ["shingle"]).materialize()

    # probe rows carry their a-side id; corpus rows carry a NULL one
    def tag_probe(batch: pa.Table) -> pa.Table:
        return pa.table({"doc": pc.cast(batch["b_id"], pa.int64()),
                         "shingle": batch["shingle"],
                         "a_id": pc.cast(batch["key"], pa.int64())})

    def tag_corpus(batch: pa.Table) -> pa.Table:
        return pa.table({"doc": pc.cast(batch["doc_id"], pa.int64()),
                         "shingle": batch["shingle"],
                         "a_id": pa.nulls(len(batch), type=pa.int64())})

    def _pack2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        k = np.empty(len(a), dtype=[("a", np.int64), ("b", np.int64)])
        k["a"], k["b"] = a, b
        return k

    def verify(part: pa.Table) -> pa.Table:
        is_probe = pc.is_valid(part["a_id"])
        probe = is_probe.to_numpy(zero_copy_only=False)
        doc = part["doc"].to_numpy(zero_copy_only=False)
        code = pc.dictionary_encode(part["shingle"].combine_chunks()) \
            .indices.to_numpy(zero_copy_only=False).astype(np.int64)
        corpus_keys = np.sort(_pack2(doc[~probe], code[~probe]))
        probe_keys = _pack2(doc[probe], code[probe])
        pos = np.minimum(np.searchsorted(corpus_keys, probe_keys),
                         len(corpus_keys) - 1)
        hit = (corpus_keys[pos] == probe_keys) if len(corpus_keys) else \
            np.zeros(len(probe_keys), dtype=bool)
        a = part["a_id"].filter(is_probe).to_numpy(zero_copy_only=False)
        pairs, inv = np.unique(_pack2(a, probe_keys["a"]),
                               return_inverse=True)
        sz_a = np.bincount(inv, minlength=len(pairs))
        inter = np.bincount(inv[hit], minlength=len(pairs))
        cdoc = corpus_keys["a"]          # sorted: b's rows are one run
        sz_b = (np.searchsorted(cdoc, pairs["b"], side="right")
                - np.searchsorted(cdoc, pairs["b"], side="left"))
        uni = sz_a + sz_b - inter
        jac = (inter * JACCARD_SCALE) // uni    # uni ≥ |a| ≥ 1
        keep = (inter > 0) & (jac >= tau_u)
        return pa.table({
            "a_id": pa.array(pairs["a"][keep], type=pa.int64()),
            "b_id": pa.array(pairs["b"][keep], type=pa.int64()),
            "inter": pa.array(inter[keep], type=pa.int64()),
            "uni": pa.array(uni[keep], type=pa.int64()),
            "jaccard_u": pa.array(jac[keep], type=pa.int64()),
        })

    unioned = (expanded.map_batches(tag_probe, batch_format="pyarrow")
               .union(sh.map_batches(tag_corpus, batch_format="pyarrow")))
    return grouped_aggregate(unioned, ["doc"], verify)


PAIR_PACK = np.int64(1) << np.int64(32)


def leakage_safe_split(docs: "ray.data.Dataset",
                       pairs: "ray.data.Dataset | None" = None
                       ) -> "ray.data.Dataset":
    """Near-dup-LEAKAGE-SAFE train/val/test split: every near-duplicate
    CLUSTER is assigned to one split atomically — the md5-fence
    assignment (analysis.train_split's 80/10/10 convention) is keyed by
    the cluster's component_id (min reachable doc_id) instead of the
    doc_id, so two near-duplicates can never straddle train and test
    (the dedup-leakage failure mode the C4/RedPajama/Dolma reports
    document: eval contamination through duplicated text). Isolated
    docs are their own cluster and split exactly like train_split.
    Columns: doc_id, split (string).

    Composition of existing operators: MinHash-LSH pairs (pass a shared
    materialized set via ``pairs``) → connected components → one
    vectorized md5-per-DISTINCT-component pass (dictionary-encode +
    gather; the md5-of-decimal-string contract is shared with the SQL
    oracle)."""
    from searchengine_ray.pipelines.graph import connected_components

    if pairs is None:
        pairs = minhash_lsh_pairs(docs, family="m31")
    comp = connected_components(pairs, docs.select_columns(["doc_id"]))

    def fn(batch: pa.Table) -> pa.Table:
        import hashlib
        from searchengine_ray.pipelines.analysis import (_SPLIT_TRAIN_HI,
                                                         _SPLIT_VAL_HI)
        cid = batch["component_id"]
        if isinstance(cid, pa.ChunkedArray):
            cid = cid.combine_chunks()
        dic = cid.dictionary_encode()
        codes = dic.indices.to_numpy(zero_copy_only=False)
        md5 = hashlib.md5
        fb = int.from_bytes
        uniq = dic.dictionary.to_numpy(zero_copy_only=False) \
            .astype(np.int64)
        hu = np.fromiter(
            (fb(md5(b).digest()[:4], "big") for b in uniq.astype("S")),
            dtype=np.int64, count=len(uniq))
        h = hu[codes] if len(uniq) else np.empty(0, dtype=np.int64)
        split = np.where(h < _SPLIT_TRAIN_HI, "train",
                         np.where(h < _SPLIT_VAL_HI, "val", "test"))
        return pa.table({
            "doc_id": pc.cast(batch["doc_id"], pa.int64()),
            "split": pa.array(split.tolist(), type=pa.string()),
        })

    return comp.map_batches(fn, batch_format="pyarrow")


def consensus_pairs(docs: "ray.data.Dataset",
                    max_hamming: int = 3,
                    cfg: "IndexConfig | None" = None,
                    family: str = "m31",
                    mh_pairs: "ray.data.Dataset | None" = None,
                    sh_pairs: "ray.data.Dataset | None" = None
                    ) -> "ray.data.Dataset":
    """Two-family CONSENSUS near-dup pairs: (a, b) flagged by BOTH the
    MinHash-LSH (shingle-set space) and the SimHash banding (weighted
    bit-fingerprint space) — the production pattern where one cheap
    recall family is confirmed by an independent one before destructive
    dedup, suppressing each family's solo false positives.
    Columns: a_id, b_id, est_matches, hamming.

    The two pair sets join on a PACKED int64 key (a·2³² + b) through the
    generic hash ``equi_join`` — pair-set intersection is an id-width
    inner join, no pairwise work, one shuffle over digest rows. Requires
    ids < 2³¹ (checked loudly); wider id spaces route the same join on a
    two-column key via ``common.grouped_aggregate``'s multi-column hash.

    (An embedding-modality twin would be the same join against
    ``similarity.embedding_neardup_lsh`` — degenerate on this testdata,
    whose embeddings are independent of the text duplicates.)
    """
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.pipelines.join import equi_join
    cfg = cfg or IndexConfig()

    def pack(batch: pa.Table, payload: str) -> pa.Table:
        a = pc.cast(batch["a_id"], pa.int64()).to_numpy(zero_copy_only=False)
        b = pc.cast(batch["b_id"], pa.int64()).to_numpy(zero_copy_only=False)
        if len(a) and (a.max() >= PAIR_PACK // 2
                       or b.max() >= PAIR_PACK // 2):
            raise ValueError("consensus_pairs: id >= 2^31; use a "
                             "two-column-key join for this id space")
        return pa.table({"pk": pa.array(a * PAIR_PACK + b),
                         payload: pc.cast(batch[payload], pa.int64())})

    # both pair sets pinned: equi_join's schema probes would otherwise
    # execute each fingerprint pipeline once more (digest-width outputs);
    # mh_pairs / sh_pairs let a gate sharing the pair sets across entries
    # compute each fingerprint family once (driver_api.shared_*_pairs)
    if mh_pairs is None:
        mh_pairs = minhash_lsh_pairs(docs, family=family)
    if sh_pairs is None:
        sh_pairs = simhash_neardup_pairs(docs, max_hamming, cfg,
                                         max_bucket=1 << 30)
    mh = mh_pairs.map_batches(
        lambda b: pack(b, "est_matches"),
        batch_format="pyarrow").materialize()
    sh = sh_pairs.map_batches(
        lambda b: pack(b, "hamming"),
        batch_format="pyarrow").materialize()
    joined = equi_join(mh, sh, "pk", "pk", ["est_matches"], ["hamming"])

    def unpack(batch: pa.Table) -> pa.Table:
        k = pc.cast(batch["key"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "a_id": pa.array(k // PAIR_PACK),
            "b_id": pa.array(k % PAIR_PACK),
            "est_matches": pc.cast(batch["est_matches"], pa.int64()),
            "hamming": pc.cast(batch["hamming"], pa.int64()),
        })

    return joined.map_batches(unpack, batch_format="pyarrow")


def triangle_count(docs: "ray.data.Dataset",
                   family: str = "m31",
                   edges: "ray.data.Dataset | None" = None
                   ) -> "ray.data.Dataset":
    """TRIANGLE COUNT over the near-dup pair graph — the classic
    distributed graph aggregate (cluster-density / transitivity check on
    dedup candidates: triangles ⇒ true duplicate groups, open wedges ⇒
    likely LSH false positives). Columns: one row, n_triangles (int64).

    Plan (all digest-width): edges (a<b) from MinHash-LSH materialize
    once; a self ``equi_join`` on the lower endpoint expands each node's
    neighbor set into wedges (b, c), b < c (the in-partition cross
    product is bounded by the LSH bucket caps upstream); wedges then
    SEMI-join the packed edge set (b·2³²+c) — a wedge that is itself an
    edge closes a triangle, counted once by its lowest vertex. The
    driver receives ONE scalar.
    """
    from searchengine_ray.pipelines.join import equi_join

    # ``edges``: optionally a precomputed MATERIALIZED pair set shared
    # across gate entries (driver_api.shared_minhash_pairs)
    if edges is None:
        edges = minhash_lsh_pairs(docs, family=family).materialize()

    def side(out_col: str):
        def fn(batch: pa.Table) -> pa.Table:
            return pa.table({"a_id": pc.cast(batch["a_id"], pa.int64()),
                             out_col: pc.cast(batch["b_id"], pa.int64())})
        return fn

    def schema(*cols: str) -> pa.Schema:
        return pa.schema([(c, pa.int64()) for c in cols])

    # static side schemas: the join probes no lazy side for its schema
    wedges = equi_join(edges.map_batches(side("b_id"),
                                         batch_format="pyarrow"),
                       edges.map_batches(side("c_id"),
                                         batch_format="pyarrow"),
                       "a_id", "a_id", ["b_id"], ["c_id"],
                       left_schema=schema("a_id", "b_id"),
                       right_schema=schema("a_id", "c_id"))

    def pack_wedge(batch: pa.Table) -> pa.Table:
        b = pc.cast(batch["b_id"], pa.int64()).to_numpy(zero_copy_only=False)
        c = pc.cast(batch["c_id"], pa.int64()).to_numpy(zero_copy_only=False)
        keep = b < c
        return pa.table({"pk": pa.array((b * PAIR_PACK + c)[keep])})

    def pack_edge(batch: pa.Table) -> pa.Table:
        a = pc.cast(batch["a_id"], pa.int64()).to_numpy(zero_copy_only=False)
        b = pc.cast(batch["b_id"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"pk": pa.array(a * PAIR_PACK + b)})

    # wedges pinned, so no union branch of the closing join carries the
    # wedge join's own shuffle (edges are already materialized above)
    closed = equi_join(wedges.map_batches(
                           pack_wedge,
                           batch_format="pyarrow").materialize(),
                       edges.map_batches(pack_edge,
                                         batch_format="pyarrow"),
                       "pk", "pk", [], [], how="semi",
                       right_schema=schema("pk"))
    # count() ships one scalar to the driver (the result IS a scalar)
    n = closed.count()
    return ray.data.from_arrow(pa.table({
        "n_triangles": pa.array([n], type=pa.int64())}))
