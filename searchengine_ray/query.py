"""BM25 top-k query engine over the on-disk index.

Scoring is the reference pipeline (SURVEY.md §2.9; /root/reference/
search_engine/indexer/indexer.py:280-443) vectorized with numpy, with every
floating-point operation performed in the same order as the oracle so
results are bit-identical, not merely close:

  per term (in filtered-query order): idf = max(0, ln((N-n+0.5)/(n+0.5)));
  importance 1.8 for original-query tokens; tf_comp = ((k1+1)·tf) /
  (k1·(1-b+b·dl/avgdl)+tf); scores[doc] += idf·tf_comp·importance
  → multiplicative metadata boosts (phrase-in-title/desc/snippet 1.8/1.5/1.3,
  graduated pct boosts, proximity 1.25) in reference order
  → normalize by max → sort by (-score, doc_id) → head-k → score > 0.05.

State pattern (SURVEY.md §2.4 ST4): everything loaded once in __init__
(manifest, doc lengths, docstore arrays); posting segments are read lazily
per partition and cached. ``make_query_actor`` runs this class as a Ray
actor for serving; tests and the driver use the in-process class.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow.parquet as pq

from searchengine_ray.codec import (CODEC_VERSION, decode_postings,
                                    decode_postings_range)
from searchengine_ray.config import IndexConfig, QueryConfig
from searchengine_ray.functions.hashing import hash64
from searchengine_ray.functions.tokenizer import (
    filter_tokens,
    generate_relevant_snippet,
    prepare_query,
    tokenize,
)
from searchengine_ray.stages.postings import salt_of
from searchengine_ray.state.manifest import load_manifest

# threads of an engine's boost pool (QueryEngine._match)
_BOOST_WORKERS = min(8, os.cpu_count() or 1)


def _byte_trigrams(arr, chunk: int = 1 << 16) -> frozenset:
    """Every 3-byte window of a string array's UTF-8 data, as ``bytes``,
    folded into the distinct codes ``chunk`` bytes at a time, so the build
    holds at most one chunk beyond the distinct trigrams. Windows that
    cross a value boundary stay in: a superset is still a sound absence
    filter."""
    import pyarrow as pa
    codes = np.empty(0, dtype=np.uint32)
    _, offsets, data = arr.buffers()
    if data is not None and len(arr):
        wide = np.int64 if pa.types.is_large_string(arr.type) else np.int32
        at = arr.offset
        lo, hi = np.frombuffer(offsets, wide)[[at, at + len(arr)]]
        b = np.frombuffer(data, np.uint8)[lo:hi]
        for s in range(0, len(b) - 2, chunk):
            w = b[s:s + chunk + 2].astype(np.uint32)
            codes = np.union1d(codes, w[:-2] << 16 | w[1:-1] << 8 | w[2:])
    return frozenset(c.to_bytes(3, "big") for c in codes.tolist())


def _paginate(search_fn, query: str, page: int, per_page: int,
              exclude_repos: list[str] | None) -> dict:
    """THE reference /search handler pagination semantics (app.py:128-185:
    fetch a FIXED results_per_page*3 regardless of page, excluded-domain
    filter, slice [start:start+per_page], total_pages = ceil and 0 when
    empty) — one implementation shared by QueryEngine.search_page (which
    every serving tier runs) and serve.SearchApp."""
    import math
    page = max(1, int(page))
    per_page = max(1, int(per_page))
    fetched = search_fn(query, top_k=per_page * 3)
    if exclude_repos:
        # Reference app.py:146 lowercases the URL before the excluded-domain
        # substring check; we lowercase the exclusion entries too so a
        # caller-supplied 'GitHub.com' behaves identically.
        excl = [x.lower() for x in exclude_repos]
        fetched = [r for r in fetched
                   if not any(x in r["url"].lower() for x in excl)]
    total = len(fetched)
    start = (page - 1) * per_page
    return {
        "query": query,
        "page": page,
        "total_pages": math.ceil(total / per_page) if total > 0 else 0,
        "total_results": total,
        "results": fetched[start:start + per_page],
    }


def _levenshtein_banded(a: str, b: str, cap: int) -> int:
    """Unit-cost Levenshtein distance (insert/delete/substitute), early-out
    to ``cap + 1`` once a full DP row exceeds ``cap`` — matches DuckDB's
    ``levenshtein`` on the reachable range."""
    if a == b:
        return 0
    la, lb = len(a), len(b)
    if abs(la - lb) > cap:
        return cap + 1
    prev = list(range(lb + 1))
    for i in range(1, la + 1):
        cur = [i] + [0] * lb
        ca = a[i - 1]
        for j in range(1, lb + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != b[j - 1]))
        if min(cur) > cap:
            return cap + 1
        prev = cur
    return min(prev[lb], cap + 1)


def _no_candidates(stats: dict | None) -> list[dict]:
    """Empty result of a query with nothing scorable; its ``stats`` still
    reports the counters (0 where no phase ran)."""
    if stats is not None:
        for k in ("blocks_total", "boost_candidates", "boost_snippet_rows",
                  "boost_snippet_scanned", "boost_patterns_absent"):
            stats.setdefault(k, 0)
    return []


class QueryEngine:
    def __init__(self, index_dir: str, cfg: IndexConfig = IndexConfig(),
                 qcfg: QueryConfig = QueryConfig(), *,
                 lazy_segments: bool = False,
                 lazy_docstore: bool = False,
                 preload_segments: bool = False,
                 doc_range: tuple[int, int] | None = None,
                 query_embedder=None):
        """Huge-index modes (results identical to eager — asserted in tests;
        eager is faster for small/warm indexes):

        ``lazy_segments=True``: term lookups use parquet predicate pushdown
        (row-group stats on the term column — segments are term-sorted, so
        a lookup touches ~1 row group) instead of loading whole partition
        files into memory.

        ``preload_segments=True``: the opposite serving posture — load
        EVERY segment partition at construction (threaded parquet reads)
        so the first query per term pays no partition-file I/O. Startup
        cost ∝ index size; right for a long-lived serving process whose
        shard fits in memory (pair with doc_range sharding above that).

        ``lazy_docstore=True``: only the docstore's doc_id column is
        resident (8 B/doc); the heavy string columns (title/meta/snippet,
        ~100× the bytes) are fetched per query for the boost-phase
        candidates via doc_id predicate pushdown (docstore batches are
        written doc_id-sorted). The remaining resident arrays (doc ids,
        lengths) shard by doc_id range across serving actors at 10^12 docs
        (ROADMAP.md)."""
        self.index_dir = index_dir
        self.cfg = cfg
        self.qcfg = qcfg
        self.lazy_segments = lazy_segments
        self.lazy_docstore = lazy_docstore
        # query-time model for the hybrid path: MUST be the same model the
        # index's embeddings were built with (embeddings.TextEmbedder —
        # e.g. SentenceTransformerModel on a real cluster). None = the
        # default HashedBowModel semantics (embed_text).
        self._query_embedder = query_embedder
        self._query_embedder_loaded = False
        # doc_range=(lo, hi): this engine scores only docs with lo ≤ id < hi
        # — the range-sharded serving tier (ShardedQueryService). Posting
        # decode is BLOCK-GRANULAR via the codec's restart directory: each
        # shard decodes only the blocks intersecting its range.
        self.doc_range = doc_range
        manifest = load_manifest(index_dir)
        if manifest is None:
            raise FileNotFoundError(f"no manifest in {index_dir}")
        have_codec = int(manifest.get("codec_version", 1))
        if have_codec != CODEC_VERSION:
            raise ValueError(
                f"index at {index_dir} uses codec v{have_codec}; this "
                f"engine reads v{CODEC_VERSION} — rebuild the index")
        have_stem = manifest.get("stemmer", "none")
        if have_stem != getattr(cfg, "stemmer", "none"):
            raise ValueError(
                f"index at {index_dir} was built with stemmer="
                f"{have_stem!r} but the query config uses "
                f"{cfg.stemmer!r} — term spaces would disagree")
        have_wt = manifest.get("tokenizer", "split")
        if have_wt != getattr(cfg, "tokenizer", "split"):
            raise ValueError(
                f"index at {index_dir} was built with tokenizer="
                f"{have_wt!r} but the query config uses "
                f"{getattr(cfg, 'tokenizer', 'split')!r} — term spaces "
                f"would disagree")
        self.manifest = manifest
        self.N = int(manifest["num_docs"])
        self.avgdl = float(manifest["avg_doc_len"])
        self.num_partitions = int(manifest["num_partitions"])
        self.hot_terms: dict[str, int] = manifest.get("hot_terms", {})

        lengths_dir = os.path.join(index_dir, "lengths")
        import pyarrow as _pa
        ltables = [
            pq.read_table(os.path.join(lengths_dir, f))
            for f in self._select_range_files(
                lengths_dir, int(manifest["num_partitions"]),
                manifest.get("num_length_partitions")
                if manifest.get("lengths_layout") == "range" else None)]
        if ltables:
            lengths = _pa.concat_tables(ltables)
            len_ids = lengths["doc_id"].to_numpy(zero_copy_only=False)
            len_vals = lengths["doc_len"].to_numpy(zero_copy_only=False)
        else:  # a shard whose whole range fell in never-written files
            len_ids = np.empty(0, dtype=np.uint64)
            len_vals = np.empty(0, dtype=np.float64)
        if self.doc_range is not None:
            # row-level residency filter (also covers the legacy hash
            # layout; under the range layout whole files were already
            # pruned by name and this just trims the boundary files)
            lo, hi = self.doc_range
            m = len_ids >= np.uint64(lo)
            if hi <= 2 ** 64 - 1:
                m &= len_ids < np.uint64(hi)
            len_ids, len_vals = len_ids[m], len_vals[m]
        order = np.argsort(len_ids, kind="stable")
        self._len_ids = len_ids[order]
        self._len_vals = len_vals[order]

        self._docstore_dir = os.path.join(index_dir, "docstore")
        self._docstore_files = self._select_docstore_files()
        if self.lazy_docstore:
            ids = self._read_docstore(columns=["doc_id"])["doc_id"] \
                .to_numpy(zero_copy_only=False)
            self._doc_ids = np.sort(ids)
        else:
            store = self._read_docstore(
                columns=["doc_id", "doc_key", "title", "meta", "snippet"])
            ids = store["doc_id"].to_numpy(zero_copy_only=False)
            order = np.argsort(ids, kind="stable")
            self._doc_ids = ids[order]
            import pyarrow as pa
            import pyarrow.compute as pc
            take = pa.array(order)
            cols = {c: pc.take(store[c].combine_chunks(), take)
                    for c in ("doc_key", "title", "meta", "snippet")}
            # doc_id-ordered object arrays for result formatting: one
            # vectorized gather per column (_doc_meta)
            self._doc_key = cols["doc_key"].to_numpy(zero_copy_only=False)
            self._title = cols["title"].to_numpy(zero_copy_only=False)
            self._meta = cols["meta"].to_numpy(zero_copy_only=False)
            self._snippet = cols["snippet"].to_numpy(zero_copy_only=False)
            # Arrow-kernel copies for the boost stage (pc.match_substring
            # is the hot path — C++ substring scan, no Python object loop)
            self._title_lower = pc.utf8_lower(cols["title"])
            self._meta_lower = pc.utf8_lower(cols["meta"])
            self._snippet_lower = pc.utf8_lower(cols["snippet"])
            self._index_fields()

        self._segments: dict[int, dict[str, int]] = {}
        self._segment_tables: dict[int, object] = {}
        # decoded-postings cache (term → (ids, tfs) | _ABSENT); serving
        # actors are long-lived, so hot query terms decode once
        self._postings_cache: dict[str, object] = {}
        self._df_cache: dict[tuple[int, str], int | None] = {}
        self._postings_cache_cap = 100_000
        # boost-phase token-mask cache: (field, pattern) → packbits mask
        # over the FULL resident field array (see _apply_boosts)
        import collections
        import threading
        self._field_mask_cache: "collections.OrderedDict" = \
            collections.OrderedDict()
        self._meta_mask_cache = collections.OrderedDict()  # _mask_for
        self._mask_scan_rows: dict[tuple, int] = {}
        # guards cache get/insert/evict sequences: the threaded HTTP
        # server shares one engine, and a check-then-use across an
        # eviction would otherwise KeyError
        self._mask_lock = threading.Lock()
        self._load_mask_cache()
        if preload_segments and not lazy_segments:
            import concurrent.futures as _cf
            with _cf.ThreadPoolExecutor(max_workers=8) as pool:
                list(pool.map(self._load_part,
                              range(self.num_partitions)))

    # -- mask-cache persistence (cold-p95 lever) ----------------------------
    # The packbits boost masks are deterministic per (field, pattern) given
    # the resident docstore, so an engine that learned them can write them
    # next to the index and every FRESH engine (new process, new round)
    # starts with a warm boost phase instead of re-scanning the fields.
    def _mask_store_path(self) -> str:
        tag = ("full" if self.doc_range is None
               else f"{self.doc_range[0]}-{self.doc_range[1]}")
        return os.path.join(self.index_dir, "mask_cache",
                            f"masks-{tag}.parquet")

    def _docstore_fingerprint(self) -> str:
        """Cheap staleness guard for persisted masks: the docstore file
        list + byte sizes + mtime_ns (a rewrite that happens to preserve
        every file size — e.g. a same-shape delta merge — still bumps
        mtime; round-4 advice)."""
        parts = []
        for f in self._docstore_files:
            try:
                st = os.stat(os.path.join(self._docstore_dir, f))
                parts.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
            except OSError:
                parts.append(f"{f}:?")
        return f"n={len(self._doc_ids)};" + ",".join(parts)

    def persist_mask_cache(self) -> int:
        """Write the accumulated packbits masks to the index dir
        (atomic tmp→rename; parquet: field int8, pattern string, packed
        binary). Returns the number of entries written (0 = nothing to
        persist / lazy docstore). Idempotent; safe to call any time."""
        if self.lazy_docstore:
            return 0
        with self._mask_lock:
            items = list(self._field_mask_cache.items())
        if not items:
            return 0
        import pyarrow as pa
        path = self._mask_store_path()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t = pa.table({
            "field": pa.array([k[0] for k, _ in items], type=pa.int8()),
            "pattern": pa.array([k[1] for k, _ in items],
                                type=pa.string()),
            "packed": pa.array([v.tobytes() for _, v in items],
                               type=pa.binary()),
        })
        t = t.replace_schema_metadata(
            {b"docstore_fingerprint":
             self._docstore_fingerprint().encode()})
        tmp = path + ".tmp"
        pq.write_table(t, tmp)
        os.replace(tmp, path)
        return len(items)

    def _load_mask_cache(self) -> int:
        """Seed the mask cache from a persisted file (if present and its
        docstore fingerprint still matches). Returns entries loaded."""
        if self.lazy_docstore:
            return 0
        path = self._mask_store_path()
        if not os.path.exists(path):
            return 0
        try:
            t = pq.read_table(path)
        except Exception:
            return 0  # unreadable/corrupt → treat as absent
        meta = (t.schema.metadata or {}).get(b"docstore_fingerprint")
        if meta is None or meta.decode() != self._docstore_fingerprint():
            return 0  # docstore changed since persist → stale, ignore
        want = (len(self._doc_ids) + 7) // 8
        n = 0
        with self._mask_lock:
            for fi, pat, packed in zip(t["field"].to_pylist(),
                                       t["pattern"].to_pylist(),
                                       t["packed"].to_pylist()):
                if len(packed) != want or fi == 1:
                    continue  # meta answers come from its dictionary
                self._field_mask_cache[(int(fi), pat)] = \
                    np.frombuffer(packed, dtype=np.uint8)
                n += 1
                if n >= self._MASK_CACHE_CAP:
                    break
        return n

    def _select_range_files(self, dir_path: str, part_base: int,
                            num_parts: int | None) -> list[str]:
        """File names in a RANGE-partitioned dir this engine needs: a
        doc_range engine reads ONLY files whose id slice intersects its
        range (file part-(base+N) covers N·step..(N+1)·step — whole-file
        pruning from the name alone). Merged/legacy layouts (num_parts
        None) and unranged engines fall back to all files."""
        files = sorted(f for f in os.listdir(dir_path)
                       if f.endswith(".parquet"))
        if self.doc_range is None or not num_parts:
            return files
        step = 2 ** 64 // int(num_parts) + 1
        lo, hi = self.doc_range
        keep = []
        for f in files:
            try:
                d = int(f.split("-")[1].split(".")[0]) - part_base
            except (IndexError, ValueError):
                keep.append(f)  # unrecognized name: keep (safe fallback)
                continue
            if d * step < hi and (d + 1) * step > lo:
                keep.append(f)
        return keep

    def _select_docstore_files(self) -> list[str]:
        return self._select_range_files(
            self._docstore_dir,
            int(self.manifest["num_partitions"])
            + int(self.manifest["num_length_partitions"]),
            self.manifest.get("num_docstore_partitions"))

    def _read_docstore(self, columns=None):
        import pyarrow as pa
        tables = [pq.read_table(os.path.join(self._docstore_dir, f),
                                columns=columns)
                  for f in self._docstore_files]
        if not tables:
            # Typed empty table (doc_id uint64, content_sha256 binary, rest
            # string) — a null-typed pa.array([]) would refuse to concat with
            # typed shards or convert to typed pandas Series downstream.
            types = {"doc_id": pa.uint64(), "content_sha256": pa.binary()}
            return pa.table({c: pa.array([], type=types.get(c, pa.string()))
                             for c in (columns or [])})
        return pa.concat_tables(tables)

    # -- posting access ----------------------------------------------------
    def _part_path(self, part: int) -> str:
        return os.path.join(self.index_dir, "segments",
                            f"part-{part:05d}.parquet")

    def _load_part(self, part: int):
        if part in self._segments:
            return
        path = self._part_path(part)
        if not os.path.exists(path):
            self._segments[part] = {}
            self._segment_tables[part] = None
            return
        t = pq.read_table(path)
        self._segments[part] = {term: i for i, term in
                                enumerate(t["term"].to_pylist())}
        self._segment_tables[part] = t

    def _lazy_row(self, part: int, term: str, columns: list[str]):
        """Predicate-pushdown single-term read: row groups whose term
        min/max excludes the term are never touched."""
        path = self._part_path(part)
        if not os.path.exists(path):
            return None
        t = pq.read_table(path, columns=columns,
                          filters=[("term", "==", term)])
        return t if len(t) else None

    def _decode(self, buf: bytes):
        if self.doc_range is not None:
            return decode_postings_range(buf, *self.doc_range)
        return decode_postings(buf)

    def _lookup_in_part(self, part: int, term: str):
        if self.lazy_segments:
            t = self._lazy_row(part, term, ["term", "postings"])
            if t is None:
                return None
            return self._decode(t["postings"][0].as_py())
        self._load_part(part)
        row = self._segments[part].get(term)
        if row is None:
            return None
        t = self._segment_tables[part]
        return self._decode(t["postings"][row].as_py())

    def _blobs_in_part(self, part: int, term: str):
        """(postings_buf, block_max_buf) WITHOUT decoding — the WAND
        scorer reads block metadata first and decodes selectively."""
        if self.lazy_segments:
            t = self._lazy_row(part, term,
                               ["term", "postings", "block_max"])
            if t is None:
                return None
            return t["postings"][0].as_py(), t["block_max"][0].as_py()
        self._load_part(part)
        row = self._segments[part].get(term)
        if row is None:
            return None
        t = self._segment_tables[part]
        return (t["postings"][row].as_py(), t["block_max"][row].as_py())

    def term_blobs(self, term: str) -> list[tuple[bytes, bytes]]:
        """Raw (postings, block_max) blob pairs for a term — one pair
        normally, several for a salted hot term (same probe plan as
        :meth:`postings`, no decode)."""
        n_salts = self.hot_terms.get(term)
        if not n_salts:
            b = self._blobs_in_part(
                int(hash64(term) % self.num_partitions), term)
            return [b] if b is not None else []
        probe = sorted({int(hash64(salt_of(term, s)) % self.num_partitions)
                        for s in range(n_salts)})
        found = [b for b in (self._blobs_in_part(p, term) for p in probe)
                 if b is not None]
        if not found:
            b = self._blobs_in_part(
                int(hash64(term) % self.num_partitions), term)
            return [b] if b is not None else []
        return found

    # -- docstore access ---------------------------------------------------
    def _fetch_doc_rows(self, ids_sorted: np.ndarray, columns: list[str]):
        """Lazy-docstore fetch: rows for the given SORTED doc_ids via
        per-file doc_id predicate pushdown (docstore batches are written
        doc_id-sorted → row-group stats prune). Returns a table sorted by
        doc_id, exactly one row per requested id."""
        import pyarrow as pa
        import pyarrow.compute as pc
        # typed expression keeps uint64 ids intact (a plain Python list
        # would coerce through int64 and overflow)
        expr = pc.field("doc_id").isin(pa.array(ids_sorted))
        parts = []
        for f in self._docstore_files:
            t = pq.read_table(os.path.join(self._docstore_dir, f),
                              columns=["doc_id"] + columns,
                              filters=expr)
            if len(t):
                parts.append(t)
        merged = pa.concat_tables(parts)
        order = np.argsort(merged["doc_id"].to_numpy(zero_copy_only=False),
                           kind="stable")
        merged = merged.take(pa.array(order))
        assert len(merged) == len(ids_sorted), "docstore missing doc rows"
        return merged

    def _doc_fields_lower(self, ids: np.ndarray):
        """(title, meta, snippet) lowercased Arrow arrays aligned to ids."""
        import pyarrow as pa
        import pyarrow.compute as pc
        if not self.lazy_docstore:
            take = pa.array(np.searchsorted(self._doc_ids, ids))
            return (pc.take(self._title_lower, take),
                    pc.take(self._meta_lower, take),
                    pc.take(self._snippet_lower, take))
        sort_idx = np.argsort(ids, kind="stable")
        fetched = self._fetch_doc_rows(ids[sort_idx],
                                       ["title", "meta", "snippet"])
        inv = np.empty_like(sort_idx)
        inv[sort_idx] = np.arange(len(ids))
        take = pa.array(inv)
        return tuple(
            pc.take(pc.utf8_lower(fetched[c].combine_chunks()), take)
            for c in ("title", "meta", "snippet"))

    def _doc_meta(self, ids: np.ndarray) -> list[dict]:
        """Result-formatting metadata rows aligned to ids: one gather per
        column (resident arrays, or one doc_id-pushdown fetch)."""
        if not self.lazy_docstore:
            j = np.searchsorted(self._doc_ids, ids)
            cols = [c[j].tolist() for c in (self._doc_key, self._title,
                                            self._meta, self._snippet)]
        else:
            import pyarrow as pa
            sort_idx = np.argsort(ids, kind="stable")
            fetched = self._fetch_doc_rows(
                ids[sort_idx], ["doc_key", "title", "meta", "snippet"])
            inv = np.empty_like(sort_idx)
            inv[sort_idx] = np.arange(len(ids))
            fetched = fetched.take(pa.array(inv))
            cols = [fetched[c].to_pylist()
                    for c in ("doc_key", "title", "meta", "snippet")]
        return [{"url": u, "title": t, "meta": m, "snippet": s}
                for u, t, m, s in zip(*cols)]

    def _postings_single(self, term: str):
        return self._lookup_in_part(int(hash64(term) % self.num_partitions), term)

    def postings(self, term: str):
        """(doc_ids ascending, tfs) for a term, merging salted sub-lists for
        hot terms; None when absent.

        Salting routes a hot term's postings to partitions
        ``hash(term#salt) % P`` while keeping the ORIGINAL term as the
        segment key (the explode stage only rewrites the partition column) —
        so each distinct salted partition is probed once for the plain term
        and the sub-lists merged by doc_id."""
        cached = self._postings_cache.get(term, "miss")
        if not isinstance(cached, str):
            return cached
        res = self._postings_uncached(term)
        if len(self._postings_cache) < self._postings_cache_cap:
            self._postings_cache[term] = res
        return res

    def _df_in_part(self, part: int, term: str) -> int | None:
        if self.lazy_segments:
            key = (part, term)
            if key in self._df_cache:
                return self._df_cache[key]
            t = self._lazy_row(part, term, ["term", "df"])
            df = int(t["df"][0].as_py()) if t is not None else None
            if len(self._df_cache) < self._postings_cache_cap:
                self._df_cache[key] = df
            return df
        self._load_part(part)
        row = self._segments[part].get(term)
        if row is None:
            return None
        return int(self._segment_tables[part]["df"][row].as_py())

    def term_df(self, term: str) -> int | None:
        """Document frequency from the segment df column — no posting
        decode. Salted hot terms sum their sub-list dfs."""
        n_salts = self.hot_terms.get(term)
        if not n_salts:
            return self._df_in_part(int(hash64(term) % self.num_partitions),
                                    term)
        probe = sorted({int(hash64(salt_of(term, s)) % self.num_partitions)
                        for s in range(n_salts)})
        found = [d for d in (self._df_in_part(p, term) for p in probe)
                 if d is not None]
        if not found:
            return self._df_in_part(int(hash64(term) % self.num_partitions),
                                    term)
        return sum(found)

    def _postings_uncached(self, term: str):
        n_salts = self.hot_terms.get(term)
        if not n_salts:
            return self._postings_single(term)
        probe_parts = sorted({int(hash64(salt_of(term, s)) % self.num_partitions)
                              for s in range(n_salts)})
        found = [p for p in (self._lookup_in_part(pt, term) for pt in probe_parts)
                 if p is not None]
        if not found:
            return self._postings_single(term)
        ids = np.concatenate([p[0] for p in found])
        tfs = np.concatenate([p[1] for p in found])
        order = np.argsort(ids, kind="stable")
        return ids[order], tfs[order]

    # -- scoring -----------------------------------------------------------
    def _score_candidates(self, query: str):
        """Accumulated (pre-boost) BM25 base scores for every candidate doc
        (in this engine's doc_range when set). Returns (acc_ids, acc_scores,
        original_tokens, original_query) or None when the query yields no
        candidates. idf uses the GLOBAL df from the segment df column — in
        unranged mode it equals the decoded posting length; in ranged mode
        the decode is a range slice but idf must stay corpus-wide."""
        cfg, qcfg = self.cfg, self.qcfg
        filtered, original_tokens, original_query = prepare_query(query, cfg)
        if not filtered:
            return None
        id_parts: list[np.ndarray] = []
        contrib_parts: list[np.ndarray] = []
        original_set = set(original_tokens)
        for qt in filtered:
            df = self.term_df(qt)
            if df is None:
                continue
            if self.N - df + 0.5 <= df + 0.5:
                # clamped idf = 0 (term in > half the corpus): contributes 0
                # to every score — skip the decode entirely. Docs matching
                # ONLY zero-idf terms score 0 and are dropped by the
                # min-score filter either way (asserted vs naive in tests).
                continue
            post = self.postings(qt)
            if post is None:
                continue
            ids, tfs = post
            idf = max(0.0, math.log((self.N - df + 0.5) / (df + 0.5)))
            importance = qcfg.term_importance if qt in original_set else 1.0
            dl = self._len_vals[np.searchsorted(self._len_ids, ids)]
            tf = tfs.astype(np.float64)
            tf_comp = ((cfg.k1 + 1) * tf) / (
                cfg.k1 * (1 - cfg.b + cfg.b * dl / self.avgdl) + tf)
            contrib = idf * tf_comp * importance
            id_parts.append(ids)
            contrib_parts.append(contrib)
        if not id_parts:
            return None
        # One grouped sum over all terms' contributions. np.add.at applies
        # additions in flattened-array order = term order per doc, so the
        # float accumulation order matches the oracle exactly (bit-equal).
        all_ids = np.concatenate(id_parts)
        all_contribs = np.concatenate(contrib_parts)
        acc_ids, inv = np.unique(all_ids, return_inverse=True)
        acc_scores = np.zeros(acc_ids.size, dtype=np.float64)
        np.add.at(acc_scores, inv, all_contribs)
        if acc_ids.size == 0:
            return None
        return acc_ids, acc_scores, original_tokens, original_query

    def search_raw(self, query: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, UNNORMALIZED boosted scores) for every candidate —
        the shard-side half of a range-sharded search: the merger
        concatenates shards, normalizes by the global max and applies
        top-k + min-score (ShardedQueryService.search)."""
        scored = self._score_candidates(query)
        if scored is None:
            return (np.empty(0, dtype=np.uint64),
                    np.empty(0, dtype=np.float64))
        acc_ids, acc_scores, original_tokens, original_query = scored
        boosted = self._apply_boosts(acc_ids, acc_scores, original_tokens,
                                     original_query)
        return acc_ids, boosted

    def search(self, query: str, top_k: int | None = None,
               stats: dict | None = None) -> list[dict]:
        """BM25 top-k with the reference's metadata boosts. ``stats``
        (optional dict) receives the boost-phase counters of
        :meth:`_boost_topk`."""
        top_k = self.qcfg.top_k if top_k is None else top_k
        if top_k <= 0:
            return []
        scored = self._score_candidates(query)
        if scored is None:
            return _no_candidates(stats)
        acc_ids, acc_scores, original_tokens, original_query = scored
        return self._finish_search(acc_ids, acc_scores, original_tokens,
                                   original_query, top_k, stats)

    def _finish_search(self, acc_ids, acc_scores, original_tokens,
                       original_query, top_k: int,
                       stats: dict | None = None) -> list[dict]:
        """Shared tail of search()/search_wand(): boost what can reach
        the top-k, max-normalize, top-k + min-score, fetch meta."""
        acc_ids, scores = self._boost_topk(
            acc_ids, acc_scores, original_tokens, original_query, top_k,
            stats)
        max_score = scores.max()
        if max_score > 0:
            scores = scores / max_score
        # deterministic tie-break (-score, doc_id)
        order = np.lexsort((acc_ids, -scores))[:top_k]
        picked = [(int(acc_ids[i]), float(scores[i])) for i in order
                  if float(scores[i]) > self.qcfg.min_score]
        if not picked:
            return []
        metas = self._doc_meta(np.array([p[0] for p in picked],
                                        dtype=np.uint64))
        return [{
            "doc_id": doc_id,
            "url": meta["url"],
            "title": meta["title"],
            "description": meta["meta"],
            "content_snippet": generate_relevant_snippet(
                meta["snippet"], original_tokens, self.qcfg),
            "score": score,
        } for (doc_id, score), meta in zip(picked, metas)]

    def search_wand(self, query: str, top_k: int | None = None,
                    stats: dict | None = None) -> list[dict]:
        """BM25 top-k via BLOCK-MAX WAND (north star): block-max
        metadata + the v2 restart directory let the scorer decode only
        posting blocks that could still place a doc in the top-k —
        results are EXACTLY ``search()``'s (same docs, bit-identical
        scores; asserted in tests). Pruning bounds fold the metadata
        boost ceiling ``MAX_BOOST`` (see wand.py module docstring), so
        skipping power appears on skewed tf distributions / long lists;
        worst case degenerates to one full decode. ``stats`` (optional
        dict) receives blocks_total / blocks_decoded / rounds and the
        boost-phase boost_candidates / boost_snippet_rows.

        Range-sharded engines (``doc_range``) already decode only their
        block slice — they delegate to the plain path."""
        top_k = self.qcfg.top_k if top_k is None else top_k
        if top_k <= 0:
            return []
        if self.doc_range is not None:
            return self.search(query, top_k, stats)
        got = self._wand_candidates(query, top_k, self.MAX_BOOST, stats)
        if got is None:
            return _no_candidates(stats)
        acc_ids, acc_scores, original_tokens, original_query = got
        return self._finish_search(acc_ids, acc_scores, original_tokens,
                                   original_query, top_k, stats)

    def search_wand_base(self, query: str, top_k: int | None = None,
                         stats: dict | None = None
                         ) -> list[tuple[int, float]]:
        """Top-k by PURE BM25 base score (no metadata boost ladder, no
        normalization) via block-max WAND with ceiling 1.0 — the
        boost-free tier where classic skipping power applies (the
        admissible ceiling for the boosted ladder is ``MAX_BOOST`` ≈
        13.5×, which at BM25's saturation constants almost never lets a
        block skip — an honest mathematical consequence, see wand.py).
        Returns [(doc_id, base_score)] ordered by (-score, doc_id);
        exact vs brute base scoring (asserted in tests)."""
        top_k = self.qcfg.top_k if top_k is None else top_k
        if top_k <= 0:
            return []
        if self.doc_range is not None:
            scored = self._score_candidates(query)
            if scored is None:
                return []
            acc_ids, acc_scores = scored[0], scored[1]
        else:
            got = self._wand_candidates(query, top_k, 1.0, stats)
            if got is None:
                return []
            acc_ids, acc_scores = got[0], got[1]
        order = np.lexsort((acc_ids, -acc_scores))[:top_k]
        return [(int(acc_ids[i]), float(acc_scores[i])) for i in order]

    def _dl_range_min(self, lo_ids: np.ndarray, hi_ids: np.ndarray
                      ) -> np.ndarray:
        """Min doc-length over every corpus doc with id in [lo, hi] —
        one sparse-table (range-min) lookup per block. The table is
        O(n log n) engine-side metadata over the dense length arrays
        (doc_id-sorted), built lazily once; at cluster scale it is
        per-shard metadata like the term dictionary."""
        if getattr(self, "_dl_rmq", None) is None:
            v = self._len_vals.astype(np.float64)
            levels = [v]
            k = 1
            while (1 << k) <= len(v):
                p = levels[-1]
                levels.append(np.minimum(p[:len(p) - (1 << (k - 1))],
                                         p[(1 << (k - 1)):]))
                k += 1
            self._dl_rmq = levels
        levels = self._dl_rmq
        j_lo = np.searchsorted(self._len_ids, lo_ids, side="left")
        j_hi = np.searchsorted(self._len_ids, hi_ids, side="right")
        n = np.maximum(j_hi - j_lo, 1)   # block holds ≥1 of its own docs
        k = np.floor(np.log2(n)).astype(np.int64)
        out = np.empty(len(j_lo), dtype=np.float64)
        for kk in np.unique(k):
            m = k == kk
            lvl = levels[int(kk)]
            a = np.minimum(j_lo[m], len(lvl) - 1)
            bpos = np.minimum(j_hi[m] - (1 << int(kk)), len(lvl) - 1)
            out[m] = np.minimum(lvl[a], lvl[np.maximum(bpos, 0)])
        return out

    def _wand_candidates(self, query: str, top_k: int,
                         boost_ceiling: float, stats: dict | None):
        from searchengine_ray.wand import ListState, wand_select
        cfg, qcfg = self.cfg, self.qcfg
        filtered, original_tokens, original_query = prepare_query(query,
                                                                  cfg)
        if not filtered:
            return None
        original_set = set(original_tokens)
        # physical lists per DISTINCT scorable term (duplicate query
        # occurrences share the list; mult carries the multiplicity)
        by_term: dict[str, list] = {}
        order: list[str] = []       # filtered order, scorable terms only
        for qt in filtered:
            if qt in by_term:
                for ls in by_term[qt]:
                    ls.mult += 1
                order.append(qt)
                continue
            df = self.term_df(qt)
            if df is None or self.N - df + 0.5 <= df + 0.5:
                continue            # absent or idf clamps to 0 — skip
            blobs = self.term_blobs(qt)
            if not blobs:
                continue
            idf = max(0.0, math.log((self.N - df + 0.5) / (df + 0.5)))
            imp = qcfg.term_importance if qt in original_set else 1.0

            def make_contrib(idf=idf, imp=imp):
                # EXACT per-posting contribution, same float expression
                # as _score_candidates: (idf · tf_comp) · importance
                def contrib(ids, tfs):
                    dl = self._len_vals[np.searchsorted(self._len_ids,
                                                        ids)]
                    tf = tfs.astype(np.float64)
                    tf_comp = ((cfg.k1 + 1) * tf) / (
                        cfg.k1 * (1 - cfg.b + cfg.b * dl / self.avgdl)
                        + tf)
                    return idf * tf_comp * imp
                return contrib

            states = []
            for buf, bm_buf in blobs:
                ls = ListState(term=qt, buf=buf, idf=idf,
                               importance=imp, mult=1,
                               contrib_fn=make_contrib())
                ls.prepare(bm_buf, cfg.k1, cfg.b, avgdl=self.avgdl,
                           dl_bound_fn=self._dl_range_min)
                states.append(ls)
            by_term[qt] = states
            order.append(qt)
        if not by_term:
            return None
        lists = [ls for states in by_term.values() for ls in states]
        survivors, _cand = wand_select(lists, top_k, boost_ceiling,
                                       stats=stats)
        if survivors.size == 0:
            return None
        # exact re-accumulation in _score_candidates' order: per query
        # OCCURRENCE (filtered order); fragment contributions were
        # computed at decode time with the same float expression —
        # bit-identical sums
        term_arrays: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for qt, states in by_term.items():
            frag_i = [f[1] for ls in states for f in ls.frags]
            frag_c = [f[3] for ls in states for f in ls.frags]
            ids = np.concatenate(frag_i) if frag_i else \
                np.empty(0, dtype=np.uint64)
            contrib = np.concatenate(frag_c) if frag_c else \
                np.empty(0, dtype=np.float64)
            term_arrays[qt] = (ids, contrib)
        id_parts = [term_arrays[qt][0] for qt in order]
        contrib_parts = [term_arrays[qt][1] for qt in order]
        all_ids = np.concatenate(id_parts)
        all_contribs = np.concatenate(contrib_parts)
        acc_ids, inv = np.unique(all_ids, return_inverse=True)
        acc_scores = np.zeros(acc_ids.size, dtype=np.float64)
        np.add.at(acc_scores, inv, all_contribs)
        # survivors only: partially-decoded docs are provably below the
        # k-th boosted score (wand_select's invariant) — masking after
        # the accumulate keeps per-doc float order identical
        keep = np.isin(acc_ids, survivors, assume_unique=True)
        acc_ids, acc_scores = acc_ids[keep], acc_scores[keep]
        if acc_ids.size == 0:
            return None
        return acc_ids, acc_scores, original_tokens, original_query

    def boolean_search(self, query: str, mode: str = "and",
                       exclude: str = "") -> np.ndarray:
        """Set retrieval over the inverted index (no scoring): ascending
        doc_ids whose indexed term set matches the query's filtered
        tokens under ``mode`` ("and" = conjunction, "or" = disjunction),
        minus every document containing any token of ``exclude``.

        Membership spans ALL indexed fields (title/meta/content — the
        same term space BM25 scores over). Postings lists are
        doc-id-sorted unique arrays, so conjunction intersects
        smallest-list-first with early exit, disjunction is one
        unique-of-concat, and exclusion a sorted set difference — no
        scoring pass, no docstore touch. The reference engine is
        BM25-only (app.py /search); boolean mode is an extension the
        posting layout gives for free.
        """
        if mode not in ("and", "or"):
            raise ValueError(f"mode must be 'and' or 'or', got {mode!r}")
        stem = getattr(self.cfg, "stemmer", "none")
        wt = getattr(self.cfg, "tokenizer", "split")
        toks = list(dict.fromkeys(
            filter_tokens(tokenize(query, stem, wt), self.cfg)))
        empty = np.empty(0, dtype=np.uint64)
        plists = []
        for t in toks:
            p = self.postings(t)
            if p is None:
                if mode == "and":
                    return empty
            else:
                plists.append(p[0])
        if not plists:
            return empty
        if mode == "and":
            plists.sort(key=len)
            cur = plists[0]
            for ids in plists[1:]:
                cur = cur[np.isin(cur, ids, assume_unique=True)]
                if cur.size == 0:
                    return cur
        else:
            cur = np.unique(np.concatenate(plists))
        if exclude:
            ex_toks = list(dict.fromkeys(
                filter_tokens(tokenize(exclude, stem, wt), self.cfg)))
            ex = [self.postings(t) for t in ex_toks]
            ex_ids = [e[0] for e in ex if e is not None]
            if ex_ids:
                cur = cur[~np.isin(cur, np.concatenate(ex_ids))]
        return cur

    def phrase_search(self, phrase: str) -> np.ndarray:
        """Phrase retrieval over the serving fields: ascending doc_ids
        that (a) contain EVERY filtered token of ``phrase`` in their
        indexed term set — inverted-index candidate narrowing via
        :meth:`boolean_search` — and (b) whose lowercased title, meta or
        snippet contains the lowercased phrase as a substring.

        (b) is the reference's exact phrase-boost check
        (indexer.py:380-395: ``original_query in title/desc/snippet``)
        promoted from a ×1.8/1.5/1.3 score multiplier to a retrieval
        mode; the docstore stores no full content, so — like the
        reference — content-body phrases are out of scope here (use
        ``pipelines.analysis.phrase_match`` for a full-content scan).
        The narrowing makes the scan per-candidate, not per-corpus:
        only postings-qualified docs ever touch the docstore.
        """
        cand = self.boolean_search(phrase, mode="and")
        needle = phrase.lower().strip()
        if cand.size == 0 or not needle:
            return np.empty(0, dtype=np.uint64)
        import pyarrow as pa
        import pyarrow.compute as pc
        title_l, meta_l, snip_l = self._doc_fields_lower(cand)
        m = pc.or_(pc.or_(pc.match_substring(title_l, needle),
                          pc.match_substring(meta_l, needle)),
                   pc.match_substring(snip_l, needle))
        if isinstance(m, pa.ChunkedArray):
            m = m.combine_chunks()
        return cand[m.to_numpy(zero_copy_only=False)]

    def facet_counts(self, query: str, fields: tuple[str, ...] = ("repo", "lang"),
                     top_k: int = 1 << 30) -> list[tuple[str, str, int]]:
        """Facet counts over a query's BM25 result set: for each docstore
        field in ``fields``, the number of hits per distinct value —
        the standard search-UI sidebar (results by repo / language).

        The result set is the scored set (normalized score > min_score,
        the same set `search` returns); facet values come from a
        doc_id-pushdown docstore fetch of ONLY the facet columns, so the
        scan is per-hit and column-pruned, never per-corpus. Returns
        (field, value, count) rows, (field, value)-sorted.
        """
        res = self.search(query, top_k=top_k)
        if not res:
            return []
        ids = np.sort(np.array([r["doc_id"] for r in res], dtype=np.uint64))
        t = self._fetch_doc_rows(ids, list(dict.fromkeys(fields)))
        out = []
        for f in dict.fromkeys(fields):
            col = t[f].to_pylist()
            vals, counts = np.unique(np.array(col, dtype=object),
                                     return_counts=True)
            out += [(f, str(v), int(c)) for v, c in zip(vals, counts)]
        return out

    def more_like_this(self, doc_id: int, top_k: int = 10,
                       n_terms: int = 5) -> list[dict]:
        """Related documents for a seed doc — Lucene-MLT-style over the
        STORED fields: re-tokenize the seed's title/meta/snippet (the
        docstore carries no full content, same constraint as the
        reference's serving tier), score each distinct term by scaled
        integer tf·(N·10^6 // df) with df from the segment df column (no
        posting decode), take the top ``n_terms`` (score DESC, term ASC),
        and run the standard BM25 search on that derived query with the
        seed itself excluded. Returns the usual search() result rows."""
        query = self._mlt_query(doc_id, n_terms)
        if not query:
            return []
        res = self.search(query, top_k=top_k + 1)
        seed = np.uint64(doc_id)
        return [r for r in res if np.uint64(r["doc_id"]) != seed][:top_k]

    def _mlt_query(self, doc_id: int, n_terms: int = 5) -> str:
        """The derived more-like-this query for a seed doc (top-n stored-
        field terms by scaled integer tf·idf) — shared by the single
        engine and the sharded tier (which searches across ALL shards
        after the owning shard derives the query)."""
        from searchengine_ray.functions.tokenizer import (filter_tokens,
                                                          tokenize)
        seed = np.uint64(doc_id)
        if not self.lazy_docstore:
            j = int(np.searchsorted(self._doc_ids, seed))
            if j >= len(self._doc_ids) or self._doc_ids[j] != seed:
                raise KeyError(f"unknown doc_id {doc_id}")
        meta = self._doc_meta(np.array([seed], dtype=np.uint64))[0]
        stem = getattr(self.cfg, "stemmer", "none")
        wt = getattr(self.cfg, "tokenizer", "split")
        text = " ".join((meta["title"], meta["meta"], meta["snippet"]))
        toks = filter_tokens(tokenize(text, stem, wt), self.cfg)
        if not toks:
            return ""
        tf: dict[str, int] = {}
        for t in toks:
            tf[t] = tf.get(t, 0) + 1
        scored = []
        for t, c in tf.items():
            df = self.term_df(t)
            if df:
                scored.append((c * ((self.N * 1_000_000) // df), t))
        scored.sort(key=lambda r: (-r[0], r[1]))
        return " ".join(t for _, t in scored[:n_terms])

    # -- term-dictionary serving (suggest / fuzzy) -------------------------
    def _term_dictionary(self):
        """(term, df) over all posting partitions — a column-pruned scan of
        the two smallest segment columns (the postings blobs never leave
        disk). Salted hot terms appear once per salted partition with a
        partial df, so the scan ends in a per-term df sum. Cached: the
        dictionary is the index's vocabulary, immutable for an engine's
        lifetime. At cluster scale this is per-shard metadata (terms are
        ≤20 chars, df is 4 bytes — orders of magnitude below the postings)."""
        if getattr(self, "_term_dict", None) is not None:
            return self._term_dict
        import pyarrow as pa
        import pyarrow.compute as pc
        parts = []
        for part in range(self.num_partitions):
            p = self._part_path(part)
            if os.path.exists(p):
                parts.append(pq.read_table(p, columns=["term", "df"]))
        if parts:
            t = (pa.concat_tables(parts)
                 .group_by(["term"], use_threads=False)
                 .aggregate([("df", "sum")]))
            t = pa.table({"term": pc.cast(t["term"], pa.string()),
                          "df": pc.cast(t["df_sum"], pa.int64())})
        else:
            t = pa.table({"term": pa.array([], type=pa.string()),
                          "df": pa.array([], type=pa.int64())})
        self._term_dict = t
        return t

    def suggest(self, prefix: str, k: int = 10) -> list[tuple[str, int]]:
        """Prefix autocomplete over the index vocabulary: top-``k``
        (term, df) with term starting with ``prefix`` (lowercased — the
        term space is lowercase by construction), ordered by
        (df DESC, term ASC) — a deterministic total order shared with the
        SQL oracle."""
        import pyarrow.compute as pc
        prefix = prefix.lower().strip()
        if not prefix:
            return []
        t = self._term_dictionary()
        t = t.filter(pc.starts_with(t["term"], prefix))
        terms = np.asarray(t["term"].to_pandas(), dtype=object)
        dfs = t["df"].to_numpy(zero_copy_only=False)
        order = np.lexsort((terms, -dfs))[:k]
        return [(str(terms[i]), int(dfs[i])) for i in order]

    def fuzzy_terms(self, token: str, max_dist: int = 1
                    ) -> list[tuple[str, int]]:
        """All index terms within Levenshtein distance ``max_dist`` of
        ``token`` (unit-cost insert/delete/substitute — DuckDB/PostgreSQL
        ``levenshtein`` semantics), with df, term-ascending. The length
        band |len(term) − len(token)| ≤ max_dist prunes the dictionary
        before the DP runs (distance is bounded below by the length gap)."""
        import pyarrow.compute as pc
        token = token.lower().strip()
        if not token:
            return []
        t = self._term_dictionary()
        lens = pc.utf8_length(t["term"])
        band = pc.and_(pc.greater_equal(lens, len(token) - max_dist),
                       pc.less_equal(lens, len(token) + max_dist))
        t = t.filter(band)
        out = []
        for term, df in zip(t["term"].to_pylist(),
                            t["df"].to_pylist()):
            if _levenshtein_banded(token, term, max_dist) <= max_dist:
                out.append((term, int(df)))
        out.sort()
        return out

    def corrected_query(self, query: str, max_dist: int = 1) -> str:
        """Did-you-mean: rewrite each filtered query token that has NO
        postings to its best dictionary neighbor — smallest Levenshtein
        distance (≤ ``max_dist``), then highest df, then term ASC — and
        leave known/uncorrectable tokens as typed. Returns the corrected
        query string ('' if nothing survives); deterministic."""
        from searchengine_ray.functions.tokenizer import (filter_tokens,
                                                          tokenize)
        stem = getattr(self.cfg, "stemmer", "none")
        wt = getattr(self.cfg, "tokenizer", "split")
        toks = filter_tokens(tokenize(query, stem, wt), self.cfg)
        out = []
        for t in dict.fromkeys(toks):
            # term_df (not postings): the dictionary is index-global even
            # on a range shard, so correction works on the sharded tier
            if self.term_df(t):
                out.append(t)
                continue
            cands = self.fuzzy_terms(t, max_dist)
            if not cands:
                out.append(t)
                continue
            best = min(cands, key=lambda r: (
                _levenshtein_banded(t, r[0], max_dist), -r[1], r[0]))
            out.append(best[0])
        return " ".join(out)

    def search_corrected(self, query: str, top_k: int | None = None,
                         max_dist: int = 1) -> tuple[list[dict], str]:
        """Search with did-you-mean fallback: if the query as typed has
        zero results, retry with :meth:`corrected_query`. Returns
        (results, query_used) — query_used == the original when no
        correction fired."""
        res = self.search(query, top_k=top_k)
        if res:
            return res, query
        fixed = self.corrected_query(query, max_dist)
        if not fixed or fixed == query:
            return res, query
        return self.search(fixed, top_k=top_k), fixed

    # Ceiling of the multiplicative metadata boosts (§2.9.7): phrase 1.8 ×
    # title-pct (1+1·2.0) × desc-pct (1+1·1.0) × proximity 1.25. Only the
    # WAND scorer still prunes with it — its block bounds cannot see the
    # fields; _boost_topk bounds each candidate from its own fields.
    MAX_BOOST = 1.8 * 3.0 * 2.0 * 1.25

    def _boost_topk(self, ids: np.ndarray, base: np.ndarray,
                    original_tokens: list[str], original_query: str,
                    top_k: int, stats: dict | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Exact top-k boosting that reads a candidate's snippet only
        while the candidate can still reach the top-k.

        Stage 1 answers the title and meta patterns (short fields) for
        every candidate and runs ``_boost_math_from`` once over two
        copies of the base scores, with every snippet pattern answered
        true in the first and false in the second: an upper and a lower
        bound per candidate. They take the exact multiplication
        order of the real score and base scores are ≥ 0, so by monotone
        rounding they bound it in floating point too; where they agree
        the snippet cannot move the score and the lower bound IS it.
        Stage 2 scores the rest in descending-upper-bound prefix rounds,
        scanning only those rows' snippets. The k-th best known score
        (seeded free by the lower bounds) rises per round; the loop stops
        at the first upper bound strictly below it, with one ulp of slack
        down (boosting a doc extra is always admissible) and never on
        equality (a tie can still win on doc_id). A pruned doc is
        strictly below the k-th score, so it can neither enter the top-k
        nor set the normalization max. Returns (ids, exact boosted
        scores) of the resolved docs, a superset of the top-k: results
        are bit-identical to boosting everything (asserted in tests).
        ``stats`` receives boost_candidates, boost_snippet_rows (the
        candidates whose snippet was gathered or scanned) and
        boost_snippet_scanned (rows scanned or bit-gathered for snippet
        patterns, summed over patterns) and boost_patterns_absent (the
        (field, pattern) questions a trigram summary answered)."""
        n = len(ids)
        on, scanned, absent = self._boost_fields(ids)
        every = on()

        def tiled(fi: int, pat: str, sub=None) -> np.ndarray:
            if fi == 2:
                return sub < n
            got = every(fi, pat)
            return np.concatenate([got, got])

        both = self._boost_math_from(np.concatenate([base, base]), tiled,
                                     original_tokens, original_query)
        ub, score = both[:n], both[n:]  # score: exact where it meets ub
        done = ub == score
        todo = np.flatnonzero(~done)
        todo = todo[np.argsort(-ub[todo], kind="stable")]
        neg_ub = -ub[todo]        # ascending
        # geometric round growth: early rounds stay small so a steep
        # distribution tightens the k-th score before a big scan; flat
        # ones escalate to large rounds within ~3 steps
        round_cap = max(4 * top_k, 8192)
        i = 0
        while i < len(todo):
            hi = len(todo)
            if n >= top_k:
                kth = np.partition(score, n - top_k)[n - top_k]
                tau = np.nextafter(kth, -np.inf)
                hi = int(np.searchsorted(neg_ub, -tau, side="right"))
                if hi <= i:
                    break
            hi = min(hi, i + round_cap)
            rows = todo[i:hi]
            score[rows] = self._boost_math_from(
                base[rows], on(rows), original_tokens, original_query)
            done[rows] = True
            i = hi
            round_cap *= 4
        if stats is not None:
            stats["boost_candidates"] = n
            stats["boost_snippet_rows"] = i
            stats["boost_snippet_scanned"] = scanned[2]
            stats["boost_patterns_absent"] = len(absent)
        return ids[done], score[done]

    # Scans of at least this many rows are sliced across a thread pool:
    # the substring kernel (Arrow) releases the GIL and is elementwise
    # per doc, so slicing is bit-identical (asserted in tests).
    _BOOST_PARALLEL_MIN = 4096

    def close(self) -> None:
        """Stop and join the lazily created boost thread pool. Safe to
        call more than once; the engine remains usable (the pool
        re-creates on the next large scan)."""
        pool = getattr(self, "_boost_pool", None)
        if pool is not None:
            pool.shutdown(wait=True)
            self._boost_pool = None

    def _match(self, arr, pat: str) -> np.ndarray:
        """``pc.match_substring(arr, pat)`` as a bool array, sliced
        across the boost pool when it is large and the host has cores."""
        import pyarrow.compute as pc

        def scan(a) -> np.ndarray:
            return pc.match_substring(a, pat).to_numpy(zero_copy_only=False)

        nw = min(_BOOST_WORKERS,
                 len(arr) // (self._BOOST_PARALLEL_MIN // 2))
        if len(arr) < self._BOOST_PARALLEL_MIN or nw < 2:
            return scan(arr)
        if getattr(self, "_boost_pool", None) is None:
            import concurrent.futures as cf
            self._boost_pool = cf.ThreadPoolExecutor(
                max_workers=_BOOST_WORKERS)
        bounds = np.linspace(0, len(arr), nw + 1).astype(np.int64)
        return np.concatenate(list(self._boost_pool.map(
            scan, [arr.slice(s, e - s)
                   for s, e in zip(bounds[:-1], bounds[1:])])))

    # Token-mask cache (the multi-pattern lever for repeated patterns):
    # the boost phase is a DRAM-bound substring scan whose patterns repeat
    # across queries (token vocab). Cumulative per-(field, pattern) counts
    # of the rows actually scanned decide when caching pays: once a
    # pattern has scanned ≥ N rows in total, its FULL-array match mask is
    # computed once (same pc.match_substring kernel — exact by
    # construction, asserted by the bm25/hybrid oracle entries and the
    # equality test), stored as a packbits bitmap (N/8 bytes), and every
    # later lookup of that pattern becomes an O(candidates) bit-gather
    # instead of an O(candidates × bytes) scan.
    _MASK_CACHE_CAP = 4096         # ≈ N/8 bytes per entry (packbits)

    @staticmethod
    def _gather_bits(packed: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """bool[pos] from a packbits bitmap WITHOUT unpacking the full
        array — O(candidates) work and allocation, as advertised."""
        return ((packed[pos >> 3] >> (7 - (pos & 7))) & 1).astype(bool)

    def _index_fields(self) -> None:
        """Dictionary-code ``_meta_lower`` (one ``_meta_codes`` entry per
        doc into ``_meta_dict``, its few distinct values) and summarize
        each array ``contains`` reads (title, meta dictionary, snippet)
        by its set of byte trigrams, ``_trigrams``."""
        import pyarrow.compute as pc
        coded = pc.dictionary_encode(self._meta_lower)
        self._meta_codes, self._meta_dict = (coded.indices.to_numpy(),
                                             coded.dictionary)
        self._trigrams = tuple(map(_byte_trigrams, (
            self._title_lower, self._meta_dict, self._snippet_lower)))

    def _absent(self, fi: int, pat: str) -> bool:
        """True only if no value of resident field ``fi`` contains
        ``pat``: one of its 3-byte windows occurs nowhere in the field
        (substring kernels compare bytes; UTF-8 is self-synchronizing).
        Patterns under 3 bytes are never proved absent."""
        grams, b = self._trigrams[fi], pat.encode()
        return any(b[i:i + 3] not in grams for i in range(len(b) - 2))

    def _peek_mask(self, key: tuple, cache):
        with self._mask_lock:
            packed = cache.get(key)
            if packed is not None:
                cache.move_to_end(key)
            return packed

    def _mask_for(self, key: tuple) -> np.ndarray:
        """Cached packbits mask for (field, pattern) — builds (outside
        the lock; scans are idempotent) and inserts on miss. A meta mask
        covers ``_meta_dict`` and has its own LRU, outside promotion and
        persistence; the others cover the full resident field."""
        cache = self._meta_mask_cache if key[0] == 1 \
            else self._field_mask_cache
        packed = self._peek_mask(key, cache)
        if packed is not None:
            return packed
        import pyarrow.compute as pc
        fields = (self._title_lower, self._meta_dict, self._snippet_lower)
        mask = pc.match_substring(fields[key[0]], key[1]).to_numpy(
            zero_copy_only=False)
        packed = np.packbits(mask)
        with self._mask_lock:
            cache[key] = packed
            if len(cache) > self._MASK_CACHE_CAP:
                cache.popitem(last=False)
        return packed

    def _promoted_mask(self, key: tuple, rows: int):
        """The cached full-array mask for ``key``. On a miss, count the
        ``rows`` about to be scanned and build the mask once the pattern
        has scanned ≥ N rows in total; None means: scan the rows."""
        packed = self._peek_mask(key, self._field_mask_cache)
        if packed is not None:
            return packed
        with self._mask_lock:
            c = self._mask_scan_rows.get(key, 0) + rows
            build = c >= len(self._doc_ids)
            if build:
                self._mask_scan_rows.pop(key, None)
            elif len(self._mask_scan_rows) < self._postings_cache_cap:
                self._mask_scan_rows[key] = c
        return self._mask_for(key) if build else None

    def _boost_fields(self, ids: np.ndarray):
        """The per-query ``contains`` provider of the boost phase,
        per-field counts of the rows it scanned or bit-gathered, and the
        set of (field, pattern) questions a trigram summary answered.

        ``on(rows)`` returns ``contains(field_idx, pattern, sub=None) ->
        bool[...]`` (0=title, 1=meta, 2=snippet) over the candidates
        ``ids[rows]`` (``rows=None``: all of them), or only over their
        positions ``sub``, for ``_boost_math_from``. Each answer comes
        from the cheapest exact source, in this order: this query's memo
        of whole-candidate answers (a subset answer is never memoized),
        the field's trigram summary proving the pattern absent (all
        false, nothing read), the meta dictionary's mask gathered by
        code, a promoted full-array mask (bit-gather; promotion counts
        only scanned rows), or a substring scan of just these rows. The
        lazy-docstore tier has no summaries: it fetches the three fields
        of all candidates once, on first need, and scans them."""
        resident = not self.lazy_docstore
        # each candidate's row in the resident arrays, or in ``fetched``
        pos = (np.searchsorted(self._doc_ids, ids) if resident
               else np.arange(len(ids)))
        fetched: list = []
        whole: dict = {}
        scanned = [0, 0, 0]
        absent: set = set()

        def on(rows: np.ndarray | None = None):
            at = pos if rows is None else pos[rows]
            taken: dict = {}
            memo = whole if rows is None else {}

            def field(fi: int, sel: np.ndarray, sub):
                if sub is None and fi in taken:
                    return taken[fi]
                if not (resident or fetched):
                    fetched.extend(self._doc_fields_lower(ids))
                got = (fetched or (self._title_lower, self._meta_lower,
                                   self._snippet_lower))[fi].take(sel)
                if sub is None:
                    taken[fi] = got
                return got

            def contains(fi: int, pat: str, sub=None) -> np.ndarray:
                key = (fi, pat)
                if sub is not None and len(sub) == len(at):
                    sub = None
                if key in memo or (rows is not None and key in whole):
                    got = memo[key] if key in memo else whole[key][rows]
                    return got if sub is None else got[sub]
                sel = at if sub is None else at[sub]
                proved = resident and self._absent(fi, pat)
                scanned[fi] += 0 if proved else len(sel)
                if proved:
                    absent.add(key)
                    got = np.zeros(len(sel), dtype=bool)
                elif resident and fi == 1:  # the dictionary's mask, by code
                    got = self._gather_bits(self._mask_for(key),
                                            self._meta_codes[sel])
                else:
                    packed = (self._promoted_mask(key, len(sel))
                              if resident else None)
                    got = (self._match(field(fi, sel, sub), pat)
                           if packed is None else
                           self._gather_bits(packed, sel))
                if sub is None:
                    memo[key] = got
                return got

            return contains

        return on, scanned, absent

    def _apply_boosts(self, ids: np.ndarray, scores: np.ndarray,
                      original_tokens: list[str], original_query: str
                      ) -> np.ndarray:
        """Exact boosted scores of EVERY candidate — the unpruned boost
        phase (search_raw; range shards merge before any top-k)."""
        return self._boost_math_from(scores, self._boost_fields(ids)[0](),
                                     original_tokens, original_query)

    def _boost_math_from(self, scores: np.ndarray, contains,
                         original_tokens: list[str],
                         original_query: str) -> np.ndarray:
        """Reference indexer.py:405-441 boost chain over any
        ``contains(field_idx, pattern, sub=None) -> bool[...]`` provider
        (0=title, 1=desc, 2=snippet); multiplication order matches the
        oracle exactly (phrase → title pct → desc pct → prox). Snippet
        patterns are asked only at the row positions ``sub`` whose answer
        can change a score: the phrase where neither title nor desc holds
        it (``np.where`` reads it nowhere else), each token where every
        token before it holds (all-tokens-in-snippet)."""
        n = len(scores)
        in_title = contains(0, original_query)
        in_desc = contains(1, original_query)
        in_snip = np.zeros(n, dtype=bool)
        rest = np.flatnonzero(~(in_title | in_desc))
        in_snip[rest] = contains(2, original_query, rest)
        out = np.where(in_title, scores * 1.8,
                       np.where(in_desc, scores * 1.5,
                                np.where(in_snip, scores * 1.3, scores)))
        if original_tokens:
            k = len(original_tokens)
            # Pass-count pruning (exact, measured p95 lever — the boost
            # substring scan is DRAM-bound, so fewer passes = less wall):
            #   - the all-tokens-in-snippet boost only exists for k > 1
            #     (reference indexer.py:437-439), so skip those passes at
            #     k == 1 instead of computing-and-discarding them;
            #   - a single token equal to the query string scans the same
            #     pattern the phrase pass just did — reuse those masks.
            if k == 1 and original_tokens[0] == original_query:
                t_hits = in_title.astype(np.int64)
                d_hits = in_desc.astype(np.int64)
            else:
                t_hits = np.zeros(n, dtype=np.int64)
                d_hits = np.zeros(n, dtype=np.int64)
                live = np.arange(n)     # rows holding every token so far
                for tkn in original_tokens:
                    t_hits += contains(0, tkn)
                    d_hits += contains(1, tkn)
                    if k > 1 and live.size:
                        live = live[contains(2, tkn, live)]
                all_in_snip = np.zeros(n, dtype=bool)
                all_in_snip[live] = True
            t_pct = t_hits / k
            d_pct = d_hits / k
            out = np.where(t_pct > 0, out * (1.0 + t_pct * 2.0), out)
            out = np.where(d_pct > 0, out * (1.0 + d_pct * 1.0), out)
            if k > 1:
                out = np.where(all_in_snip, out * 1.25, out)
        return out

    # -- hybrid BM25 ⊕ embedding path (reference parity) -------------------
    HYBRID_BM25_WEIGHT = 0.7   # optimized_indexer.py:139-140
    HYBRID_VEC_WEIGHT = 0.3

    def _load_embeddings(self) -> bool:
        if not hasattr(self, "_emb"):
            from searchengine_ray.pipelines.embeddings import \
                load_doc_embeddings
            emb = load_doc_embeddings(self.index_dir)
            if emb is not None and self.doc_range is not None:
                ids, mat = emb
                lo, hi = self.doc_range
                m = ids >= np.uint64(lo)
                if hi <= 2 ** 64 - 1:
                    m &= ids < np.uint64(hi)
                emb = (ids[m], mat[m])
            self._emb = emb
        return self._emb is not None

    def _encode_query(self, query: str) -> np.ndarray:
        """Query vector via the injected TextEmbedder (loaded lazily,
        once) or the default HashedBow semantics."""
        if self._query_embedder is None:
            from searchengine_ray.pipelines.embeddings import embed_text
            return embed_text(query)
        if not self._query_embedder_loaded:
            self._query_embedder.load()
            self._query_embedder_loaded = True
        return np.asarray(self._query_embedder.encode([query])[0],
                          dtype=np.float64)

    def vector_search(self, query: str, top_k: int) -> list[tuple[int, float]]:
        """Reference bert_embeddings.search semantics (bert_embeddings.py:
        204-225): embed the raw query, L2 distance over unit vectors,
        similarity = 1/(1+d); top-k by similarity (tie: doc_id)."""
        if not self._load_embeddings():
            return []
        ids, mat = self._emb
        q = self._encode_query(query)
        if mat.size and q.shape[0] != mat.shape[1]:
            raise ValueError(
                f"index embeddings have dim {mat.shape[1]} but the query "
                f"embedder produced dim {q.shape[0]} — pass the model the "
                f"embeddings were built with via "
                f"QueryEngine(query_embedder=...)")
        cos = mat @ q
        d = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * cos))
        sim = 1.0 / (1.0 + d)
        order = np.lexsort((ids, -sim))[:top_k]
        return [(int(ids[i]), float(sim[i])) for i in order]

    def hybrid_search(self, query: str, top_k: int | None = None) -> list[dict]:
        """Reference hybrid pipeline (optimized_indexer.py:172-203 +
        combine_results :119-170): BM25 over-fetch ×2, vector top-k,
        INTERSECTION joined with combined = 0.7·bm25_norm + 0.3·sim, sorted
        desc (deterministic tie-break by doc_id), head-k. Falls back to
        plain BM25 when no embeddings exist (reference :188-190)."""
        top_k = self.qcfg.top_k if top_k is None else top_k
        bm25 = self.search(query, top_k=top_k * 2)
        if not self._load_embeddings() or not bm25:
            return bm25[:top_k]
        vec = dict(self.vector_search(query, top_k))
        combined = []
        for r in bm25:
            sim = vec.get(r["doc_id"])
            if sim is None:
                continue
            row = dict(r)
            row["score"] = (self.HYBRID_BM25_WEIGHT * r["score"]
                            + self.HYBRID_VEC_WEIGHT * sim)
            row["search_method"] = "Hybrid BM25+Embedding"
            combined.append(row)
        combined.sort(key=lambda x: (-x["score"], x["doc_id"]))
        return combined[:top_k]

    def search_page(self, query: str, page: int = 1, per_page: int = 15,
                    exclude_repos: list[str] | None = None) -> dict:
        """Web-serving wrapper: reference /search handler semantics,
        matched EXACTLY — see the shared ``_paginate`` helper (fixed
        per_page*3 over-fetch regardless of page, repo-exclusion filter
        as the F4 analogue, total_pages 0 on empty results; deep pages
        past the fixed over-fetch return empty, as in the reference)."""
        return _paginate(self.search, query, page, per_page, exclude_repos)

    def stats(self) -> dict:
        return {"num_docs": self.N, "num_terms": self.manifest["num_terms"],
                "avg_doc_len": self.avgdl}


def _engine_method(name: str) -> str:
    """``name`` when it is a public method of :class:`QueryEngine`, else
    AttributeError — the one rule by which the serving tiers forward
    calls, so ``hasattr(tier, m)`` answers as it would on an engine."""
    if name.startswith("_") or not callable(getattr(QueryEngine, name,
                                                    None)):
        raise AttributeError(name)
    return name


class QueryService:
    """Round-robin pool of long-lived query actors — the serving tier.

    Reference analogue: the gunicorn worker pool, which pins ONE sync
    worker and restarts it after every request to cap memory
    (web/utils/gunicorn.conf.py:50, 79-80). Here each actor
    (:func:`make_query_actor`) holds the warm index, postings cache and
    docstore once; requests fan out round-robin and can be issued async
    (``submit`` → ObjectRef) for pipelining.

    ``search`` adds the result LRU. Every other public
    :class:`QueryEngine` method (``hybrid_search``, ``corrected_query``,
    ``facet_counts``, ...) runs on the next actor through one
    ``__getattr__`` and returns what the engine returns.
    """

    def __init__(self, index_dir: str, cfg: IndexConfig = IndexConfig(),
                 qcfg: QueryConfig = QueryConfig(), num_actors: int = 2,
                 cache_size: int = 0, preload_segments: bool = False):
        """``cache_size`` > 0 enables a serving-tier result LRU keyed by
        (query, top_k) — the reference's search-cache analogue (S9: the
        deployed artifact caches search results per query). The cache
        lives in the SERVICE (not the engines), so cold-path latency
        benchmarks measure the engine, and repeat traffic is absorbed
        here. The index is immutable per service instance, so entries
        never go stale. ``preload_segments`` warms every actor at spawn
        (QueryEngine docstring)."""
        self._actors = [make_query_actor(index_dir, cfg, qcfg,
                                         preload_segments=preload_segments)
                        for _ in range(num_actors)]
        self._next = 0
        import collections
        self._cache: "collections.OrderedDict[tuple, list]" = \
            collections.OrderedDict()
        self._cache_size = cache_size
        self.cache_hits = 0
        self.cache_misses = 0

    def _pick(self):
        a = self._actors[self._next % len(self._actors)]
        self._next += 1
        return a

    def __getattr__(self, name: str):
        _engine_method(name)

        def call(*args, **kwargs):
            import ray
            return ray.get(getattr(self._pick(), name).remote(*args,
                                                              **kwargs))
        return call

    def submit(self, query: str, top_k: int | None = None):
        """Async search → ObjectRef (callers batch ray.get for throughput;
        bypasses the result cache)."""
        return self._pick().search.remote(query, top_k)

    def search(self, query: str, top_k: int | None = None) -> list[dict]:
        import ray
        if self._cache_size > 0:
            key = (query, top_k)
            if key in self._cache:
                self._cache.move_to_end(key)
                self.cache_hits += 1
                # Defensive copy: the reference app mutates result rows
                # (result["source"] = ...); handing out the cached objects
                # would let one caller corrupt every later hit.
                return [dict(r) for r in self._cache[key]]
            res = ray.get(self.submit(query, top_k))
            self.cache_misses += 1
            self._cache[key] = [dict(r) for r in res]
            if len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
            return res
        return ray.get(self.submit(query, top_k))

    def shutdown(self) -> None:
        import ray
        for a in self._actors:
            ray.kill(a)
        self._actors = []


class FederatedQueryEngine(QueryEngine):
    """Query N indexes (disjoint doc_id spaces — e.g. a base plus fresh
    delta indexes) as ONE logical index, bit-identical to querying the
    merged index (asserted in tests): corpus scalars combine exactly
    (N = ΣN_i, avgdl = Σ(avgdl_i·N_i)/N), per-term df and postings
    concatenate across children, and the resident docstore/length arrays
    are the sorted union. This is the serving-side half of incremental
    indexing: deltas become queryable the moment they finish building,
    while ``merge_indexes`` compacts in the background."""

    def __init__(self, engines: list[QueryEngine]):
        assert engines, "need at least one engine"
        e0 = engines[0]
        for e in engines:
            assert e.cfg == e0.cfg, "federated engines must share cfg"
            assert not e.lazy_docstore and e.doc_range is None, \
                "federated children must be eager, unranged engines " \
                "(their resident docstore/length arrays are concatenated)"
        self.engines = engines
        self.cfg, self.qcfg = e0.cfg, e0.qcfg
        self.index_dir = None
        self.doc_range = None
        self.lazy_segments = False
        self.lazy_docstore = False
        self.N = sum(e.N for e in engines)
        sum_len = sum(e.avgdl * e.N for e in engines)
        self.avgdl = (sum_len / self.N) if self.N else 0.0
        # num_terms across children is not a sum (terms overlap) — stats()
        # reports the distinct-per-child sum upper bound explicitly
        self.manifest = {
            "num_docs": self.N,
            "avg_doc_len": self.avgdl,
            "num_terms": sum(e.manifest["num_terms"] for e in engines),
            "federated_from": [e.index_dir for e in engines],
        }
        self.hot_terms = {}

        self._len_ids = np.concatenate([e._len_ids for e in engines])
        self._len_vals = np.concatenate([e._len_vals for e in engines])
        order = np.argsort(self._len_ids, kind="stable")
        self._len_ids = self._len_ids[order]
        self._len_vals = self._len_vals[order]

        import pyarrow as pa
        import pyarrow.compute as pc
        ids = np.concatenate([e._doc_ids for e in engines])
        order = np.argsort(ids, kind="stable")
        self._doc_ids = ids[order]
        for attr in ("_doc_key", "_title", "_meta", "_snippet"):
            setattr(self, attr, np.concatenate(
                [getattr(e, attr) for e in engines])[order])
        take = pa.array(order)
        for attr in ("_title_lower", "_meta_lower", "_snippet_lower"):
            combined = pa.concat_arrays(
                [getattr(e, attr).combine_chunks()
                 if isinstance(getattr(e, attr), pa.ChunkedArray)
                 else getattr(e, attr) for e in engines])
            setattr(self, attr, pc.take(combined, take))
        self._index_fields()
        self._postings_cache = {}
        self._postings_cache_cap = 100_000
        import collections
        import threading
        self._field_mask_cache = collections.OrderedDict()
        self._meta_mask_cache = collections.OrderedDict()
        self._mask_scan_rows = {}
        self._mask_lock = threading.Lock()

    def term_df(self, term: str) -> int | None:
        dfs = [d for d in (e.term_df(term) for e in self.engines)
               if d is not None]
        return sum(dfs) if dfs else None

    def _term_dictionary(self):
        """Union of the children's dictionaries with per-term df re-sum
        (terms overlap across children — doc spaces don't)."""
        if getattr(self, "_term_dict", None) is not None:
            return self._term_dict
        import pyarrow as pa
        import pyarrow.compute as pc
        t = (pa.concat_tables([e._term_dictionary() for e in self.engines])
             .group_by(["term"], use_threads=False)
             .aggregate([("df", "sum")]))
        t = pa.table({"term": pc.cast(t["term"], pa.string()),
                      "df": pc.cast(t["df_sum"], pa.int64())})
        self._term_dict = t
        return t

    def _fetch_doc_rows(self, ids_sorted: np.ndarray, columns: list[str]):
        """Route each doc_id to the child that owns it (disjoint doc
        spaces), fetch per child, and re-sort the concatenation — the
        same contract as the single-index implementation (used by
        facet_counts; result formatting uses the resident arrays)."""
        import pyarrow as pa
        parts = []
        for e in self.engines:
            pos = np.searchsorted(e._doc_ids, ids_sorted)
            pos = np.clip(pos, 0, max(len(e._doc_ids) - 1, 0))
            mine = ids_sorted[(len(e._doc_ids) > 0)
                              & (e._doc_ids[pos] == ids_sorted)] \
                if len(e._doc_ids) else ids_sorted[:0]
            if mine.size:
                parts.append(e._fetch_doc_rows(mine, columns))
        assert parts, "no federated child owns the requested ids"
        merged = pa.concat_tables(parts)
        order = np.argsort(merged["doc_id"].to_numpy(zero_copy_only=False),
                           kind="stable")
        merged = merged.take(pa.array(order))
        assert len(merged) == len(ids_sorted), "docstore missing doc rows"
        return merged

    def postings(self, term: str):
        cached = self._postings_cache.get(term, "miss")
        if not isinstance(cached, str):
            return cached
        found = [p for p in (e.postings(term) for e in self.engines)
                 if p is not None]
        if not found:
            res = None
        else:
            ids = np.concatenate([p[0] for p in found])
            tfs = np.concatenate([p[1] for p in found])
            order = np.argsort(ids, kind="stable")
            res = ids[order], tfs[order]
        if len(self._postings_cache) < self._postings_cache_cap:
            self._postings_cache[term] = res
        return res

    def _load_embeddings(self) -> bool:
        if not hasattr(self, "_emb"):
            embs = []
            for e in self.engines:
                if not e._load_embeddings():
                    self._emb = None
                    return False
                embs.append(e._emb)
            ids = np.concatenate([x[0] for x in embs])
            mat = np.concatenate([x[1] for x in embs])
            order = np.argsort(ids, kind="stable")
            self._emb = (ids[order], mat[order])
        # NOT a bare True: a failed first load sets _emb = None and
        # hasattr() would otherwise report success on every later call
        return self._emb is not None

    def stats(self) -> dict:
        return {"num_docs": self.N,
                "num_terms": self.manifest["num_terms"],
                "avg_doc_len": self.avgdl}


class FederationManager:
    """Serving-side lifecycle for incremental indexing with a BOUNDED
    delta list: a base index plus accumulating delta indexes served as
    one :class:`FederatedQueryEngine`, compacting automatically once more
    than ``max_deltas`` deltas accumulate — ``merge_indexes`` (byte-
    identical to a one-shot build, asserted in test_merge) folds
    base+deltas into a new generation directory under ``work_dir`` and
    serving swaps to the compacted single engine. Queries stay available
    throughout: the pre-compaction federation serves until the swap, and
    results are rank-identical across the boundary because the merged
    index reproduces the federation's scores exactly.

    Deltas MUST be built with ``build_index(...,
    hot_terms_override=base_manifest['hot_terms'])`` so salted posting
    routing matches (merge_indexes asserts this)."""

    def __init__(self, base_dir: str, work_dir: str,
                 cfg: IndexConfig = IndexConfig(),
                 qcfg: QueryConfig = QueryConfig(), *,
                 max_deltas: int = 4):
        assert max_deltas >= 1
        os.makedirs(work_dir, exist_ok=True)
        self.cfg, self.qcfg = cfg, qcfg
        self.work_dir = work_dir
        self.max_deltas = max_deltas
        self.base_dir = base_dir
        self.delta_dirs: list[str] = []
        self.generation = 0
        # child engines are immutable readers — reused across add_delta
        # calls so each add loads ONLY the new delta's resident state
        self._children: list[QueryEngine] = [QueryEngine(base_dir, cfg,
                                                         qcfg)]
        self._engine: QueryEngine = self._children[0]

    @property
    def engine(self) -> QueryEngine:
        """The currently serving engine (federated or compacted)."""
        return self._engine

    def __getattr__(self, name: str):
        """Every public QueryEngine method (``search``, ``search_page``,
        ``stats``, ...) runs on the currently serving engine."""
        return getattr(self._engine, _engine_method(name))

    def add_delta(self, delta_dir: str) -> bool:
        """Make a freshly built delta queryable immediately; compact when
        the delta list exceeds ``max_deltas``. Returns True when this add
        triggered a compaction."""
        self.delta_dirs.append(delta_dir)
        self._children.append(QueryEngine(delta_dir, self.cfg, self.qcfg))
        self._engine = FederatedQueryEngine(list(self._children))
        if len(self.delta_dirs) > self.max_deltas:
            self._compact()
            return True
        return False

    def _compact(self) -> None:
        from searchengine_ray.merge import merge_indexes
        self.generation += 1
        out = os.path.join(self.work_dir, f"gen-{self.generation:04d}")
        # the federation keeps serving while the merge runs; the swap to
        # the compacted engine is a plain attribute assignment
        merge_indexes([self.base_dir, *self.delta_dirs], out, self.cfg)
        self.base_dir = out
        self.delta_dirs = []
        for c in self._children:
            c.close()
        self._children = [QueryEngine(out, self.cfg, self.qcfg)]
        self._engine = self._children[0]


class ShardedQueryService:
    """Doc-id-range-sharded query tier — the 10^12-doc serving structure
    (ROADMAP "shard query actors by doc_id range"), enabled by the codec's
    per-block restart directory: each shard decodes only the posting
    BLOCKS intersecting its uint64 doc_id slice (block-granular decode
    skipping), scores its own candidates exactly (idf/avgdl/N are global
    manifest scalars, boosts are per-doc), and the merger concatenates,
    normalizes by the global max and applies top-k + min-score. Results
    are BIT-IDENTICAL to a single QueryEngine (asserted in tests).

    ``self.shards`` holds one ``QueryEngine(doc_range=r)`` per range, or
    with ``use_actors=True`` one :func:`make_query_actor` handle per range
    (per-actor resident state = only that shard's docstore partition
    files, length rows and embedding rows). Both modes run the same code:
    every shard call goes through :meth:`_call`, which submits all actor
    calls before one ``ray.get``. The merge rule per method:

    - fan-out and merge: ``search`` (raw scores), ``vector_search``
      (global vector top-k), ``boolean_search`` and ``phrase_search``
      (range-ascending shards partition the sorted answer);
    - owner routing (:meth:`_owner`): result meta, ``_fetch_doc_rows``
      and ``_mlt_query`` read the shard whose range holds the doc;
    - any shard: ``suggest``, ``fuzzy_terms``, ``corrected_query`` and
      ``stats`` — the term dictionary and manifest scalars are
      index-global;
    - ``search_page``, ``search_corrected``, ``facet_counts``,
      ``more_like_this`` and ``hybrid_search`` are the engine's own
      methods, run over the primitives above."""

    _ANY_SHARD = frozenset({"suggest", "fuzzy_terms", "corrected_query",
                            "stats"})

    def __init__(self, index_dir: str, cfg: IndexConfig = IndexConfig(),
                 qcfg: QueryConfig = QueryConfig(), num_shards: int = 2,
                 use_actors: bool = False):
        self._step = 2 ** 64 // num_shards + 1
        self.cfg = cfg
        self.qcfg = qcfg
        self.use_actors = use_actors
        make = make_query_actor if use_actors else QueryEngine
        self.shards = [make(index_dir, cfg, qcfg,
                            doc_range=(i * self._step,
                                       min(2 ** 64, (i + 1) * self._step)))
                       for i in range(num_shards)]

    def _call(self, name: str, args: dict[int, tuple], **kwargs) -> list:
        """``QueryEngine.<name>(*args[i], **kwargs)`` on each shard ``i``
        of ``args``, results in ``args`` order. Actor calls are all
        submitted before the one ``ray.get``, so the shards run in
        parallel."""
        if self.use_actors:
            import ray
            return ray.get([getattr(self.shards[i], name).remote(
                *a, **kwargs) for i, a in args.items()])
        return [getattr(self.shards[i], name)(*a, **kwargs)
                for i, a in args.items()]

    def _fanout(self, name: str, *args) -> list:
        return self._call(name, dict.fromkeys(range(len(self.shards)), args))

    def _owner(self, ids: np.ndarray) -> dict[int, np.ndarray]:
        """Positions in ``ids`` (uint64) per owning shard, shards
        ascending; shards that own none of them are left out."""
        step_u = np.uint64(min(self._step, 2 ** 64 - 1))  # 1-shard step
        owner = np.minimum(ids // step_u, len(self.shards) - 1)
        return {int(si): np.flatnonzero(owner == si)
                for si in np.unique(owner)}

    def __getattr__(self, name: str):
        if name not in self._ANY_SHARD:
            raise AttributeError(name)
        return lambda *args, **kwargs: self._call(name, {0: args},
                                                  **kwargs)[0]

    def search(self, query: str, top_k: int | None = None) -> list[dict]:
        top_k = self.qcfg.top_k if top_k is None else top_k
        if top_k <= 0:
            return []
        parts = self._fanout("search_raw", query)
        ids = np.concatenate([p[0] for p in parts])
        scores = np.concatenate([p[1] for p in parts])
        if ids.size == 0:
            return []
        max_score = scores.max()
        if max_score > 0:
            scores = scores / max_score
        order = np.lexsort((ids, -scores))[:top_k]
        picked = [(int(ids[i]), float(scores[i])) for i in order
                  if float(scores[i]) > self.qcfg.min_score]
        if not picked:
            return []
        picked_ids = np.array([p[0] for p in picked], dtype=np.uint64)
        routes = self._owner(picked_ids)
        metas: list = [None] * len(picked)
        got = self._call("_doc_meta", {si: (picked_ids[pos],)
                                       for si, pos in routes.items()})
        for pos, rows in zip(routes.values(), got):
            for j, m in zip(pos, rows):
                metas[j] = m
        from searchengine_ray.functions.tokenizer import prepare_query
        _, original_tokens, _ = prepare_query(query, self.cfg)
        return [{
            "doc_id": doc_id,
            "url": meta["url"],
            "title": meta["title"],
            "description": meta["meta"],
            "content_snippet": generate_relevant_snippet(
                meta["snippet"], original_tokens, self.qcfg),
            "score": score,
        } for (doc_id, score), meta in zip(picked, metas)]

    def vector_search(self, query: str,
                      top_k: int) -> list[tuple[int, float]]:
        """Global vector top-k merged from the shards' partials (each
        shard holds only its range's embedding rows; per-row dots equal
        the full-matrix ones)."""
        allv = [t for part in self._fanout("vector_search", query, top_k)
                for t in part]
        allv.sort(key=lambda t: (-t[1], t[0]))
        return allv[:top_k]

    def _load_embeddings(self) -> bool:
        return any(self._fanout("_load_embeddings"))

    def boolean_search(self, query: str, mode: str = "and",
                       exclude: str = "") -> np.ndarray:
        """Each shard's range-decoded postings yield exactly its doc
        slice of every set (decode_postings_range is bit-identical to
        filtering a full decode), so concatenating range-ascending shards
        IS the sorted global answer."""
        return np.concatenate(self._fanout("boolean_search", query, mode,
                                           exclude))

    def phrase_search(self, phrase: str) -> np.ndarray:
        """Per-shard candidate narrowing + shard-resident docstore
        verify, concatenated (same partition argument as
        boolean_search)."""
        return np.concatenate(self._fanout("phrase_search", phrase))

    def _fetch_doc_rows(self, ids_sorted: np.ndarray, columns: list[str]):
        """Docstore rows of sorted ids, each from its owning shard;
        shards are range-ascending, so the concatenation stays sorted."""
        import pyarrow as pa
        routes = self._owner(ids_sorted)
        return pa.concat_tables(self._call(
            "_fetch_doc_rows", {si: (ids_sorted[pos], columns)
                                for si, pos in routes.items()}))

    def _mlt_query(self, doc_id: int, n_terms: int = 5) -> str:
        """The owning shard derives the query from its resident stored
        fields (global df and N)."""
        (si,) = self._owner(np.array([doc_id], dtype=np.uint64))
        return self._call("_mlt_query", {si: (doc_id, n_terms)})[0]

    # The engine's composite methods, run over this tier's primitives
    # above — one implementation, so the tiers cannot drift apart.
    HYBRID_BM25_WEIGHT = QueryEngine.HYBRID_BM25_WEIGHT
    HYBRID_VEC_WEIGHT = QueryEngine.HYBRID_VEC_WEIGHT
    hybrid_search = QueryEngine.hybrid_search
    search_page = QueryEngine.search_page
    search_corrected = QueryEngine.search_corrected
    facet_counts = QueryEngine.facet_counts
    more_like_this = QueryEngine.more_like_this

    def shutdown(self) -> None:
        """Kill every shard actor, or release each in-process engine's
        thread pool."""
        if self.use_actors:
            import ray
            for a in self.shards:
                ray.kill(a)
        else:
            self._fanout("close")
        self.shards = []


def make_query_actor(index_dir: str, cfg: IndexConfig = IndexConfig(),
                     qcfg: QueryConfig = QueryConfig(), **engine_kwargs):
    """Long-lived serving actor (reference analogue: the Flask worker that
    lazy-loads the whole index once, app.py:72-102): a
    ``QueryEngine(index_dir, cfg, qcfg, **engine_kwargs)`` run as a Ray
    actor. Every engine method, single-underscore ones included, is
    callable as ``handle.<method>.remote(...)`` and returns what the
    in-process engine returns. ``preload_segments=True`` front-loads
    every segment partition at spawn, so the first request is already
    warm; ``doc_range=(lo, hi)`` makes a range-shard actor
    (:class:`ShardedQueryService`)."""
    import ray
    return ray.remote(QueryEngine).remote(index_dir, cfg, qcfg,
                                          **engine_kwargs)
