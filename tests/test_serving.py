"""Serving layer (actor, pagination, CLI) + events pipelines."""

from __future__ import annotations

import json

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# serving actor (ST4) + pagination / filters (K5/K6/F4)
# ---------------------------------------------------------------------------

def test_query_actor_matches_inprocess(built):
    import ray
    from searchengine_ray.query import QueryEngine, make_query_actor
    eng = QueryEngine(built.index_dir, built.cfg)
    actor = make_query_actor(built.index_dir, built.cfg)
    try:
        for q in ["queue71", "py org2"]:
            a = ray.get(actor.search.remote(q, 10))
            b = eng.search(q, top_k=10)
            assert a == b
        assert ray.get(actor.stats.remote()) == eng.stats()
    finally:
        ray.kill(actor)


def test_query_keeps_one_engine_actor_and_one_fanout():
    """Regrowth audit for query.py's serving tiers: every actor is
    ``ray.remote(QueryEngine)`` (make_query_actor), never a hand-written
    ``@ray.remote`` class of forwarders, and the sharded tier's
    actor/in-process split stays in at most 3 branches (construction,
    the one shard-call helper, shutdown)."""
    import ast
    import inspect

    from searchengine_ray import query

    tree = ast.parse(inspect.getsource(query))
    remote_classes = [
        n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)
        and any("remote" in ast.unparse(d) for d in n.decorator_list)]
    assert not remote_classes, remote_classes
    branches = [n.lineno for n in ast.walk(tree)
                if isinstance(n, (ast.If, ast.IfExp))
                and "use_actors" in ast.unparse(n.test)]
    assert len(branches) <= 3, branches


def test_search_page_slices_and_filters(built):
    from searchengine_ray.query import QueryEngine
    eng = QueryEngine(built.index_dir, built.cfg)
    full = eng.search("py org2", top_k=90)
    p1 = eng.search_page("py org2", page=1, per_page=15)
    p2 = eng.search_page("py org2", page=2, per_page=15)
    assert p1["results"] == full[:15]
    assert p2["results"] == full[15:30]
    assert p1["total_results"] == len(eng.search("py org2", top_k=45))
    # F4 analogue: repo exclusion drops every matching url
    excl = eng.search_page("py org2", per_page=15, exclude_repos=["org2/"])
    assert all("org2/" not in r["url"] for r in excl["results"])


def test_boolean_search_matches_bruteforce(built):
    """boolean_search (and/or/exclude over the postings sets) vs a
    per-document brute force over the SAME tokenize+filter term space the
    index was built from (title=path ×, meta=repo+' '+lang, content)."""
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    from searchengine_ray.query import QueryEngine
    eng = QueryEngine(built.index_dir, built.cfg)

    t = built.table
    cols = {c: t[c].to_pylist() for c in ("repo", "path", "lang", "content")}
    from conftest import oracle_docs
    ids = [d["doc_id"] for d in oracle_docs(t)]
    tsets = {}
    for i, doc_id in enumerate(ids):
        toks = []
        for field in (cols["path"][i],
                      cols["repo"][i] + " " + cols["lang"][i],
                      cols["content"][i]):
            toks += filter_tokens(tokenize(field), built.cfg)
        tsets[doc_id] = set(toks)

    cases = [("queue71 py", "and", ""), ("queue71 org2", "or", ""),
             ("py", "and", "org2"), ("zzznope py", "and", ""),
             ("zzznope", "or", ""), ("", "and", ""),
             ("py py queue71", "and", ""),       # duplicate-token query
             ("py", "or", "zzznope missing")]    # unindexed exclude terms
    for q, mode, ex in cases:
        qt = set(filter_tokens(tokenize(q), built.cfg))
        ext = set(filter_tokens(tokenize(ex), built.cfg))
        if not qt:
            expect = set()
        elif mode == "and":
            expect = {i for i, s in tsets.items() if qt <= s}
        else:
            expect = {i for i, s in tsets.items() if qt & s}
        expect = {i for i in expect if not (ext & tsets[i])}
        got = eng.boolean_search(q, mode=mode, exclude=ex)
        assert got.dtype == np.uint64, (q, mode)
        assert list(got) == sorted(expect), (q, mode, ex)
    with pytest.raises(ValueError):
        eng.boolean_search("py", mode="xor")


def test_sharded_service_bit_identical(built):
    """Doc-range-sharded serving (block-granular decode skipping via the
    codec v2 restart directory) must return BIT-identical results to a
    single engine, for 1/2/5 shards, and each shard must decode strictly
    fewer postings than the full list (the skip actually skips)."""
    from searchengine_ray.query import QueryEngine, ShardedQueryService
    eng = QueryEngine(built.index_dir, built.cfg)
    for num_shards in (1, 2, 5):
        svc = ShardedQueryService(built.index_dir, built.cfg,
                                  num_shards=num_shards)
        for q in ("queue71", "py org2", "tokenStream", "java parse",
                  "nosuchterm"):
            assert svc.search(q, top_k=10) == eng.search(q, top_k=10), \
                (num_shards, q)
    # decode-skip evidence: per-shard candidate counts partition the total
    svc = ShardedQueryService(built.index_dir, built.cfg, num_shards=4)
    full_ids, _ = eng.search_raw("py org2")
    shard_sizes = [s.search_raw("py org2")[0].size for s in svc.shards]
    assert sum(shard_sizes) == full_ids.size
    assert all(0 < sz < full_ids.size for sz in shard_sizes)
    # docstore residency: each shard loads only its range-partitioned
    # docstore files, and together they cover all of them
    all_files = set(eng._docstore_files)
    per_shard = [set(s._docstore_files) for s in svc.shards]
    assert all(fs < all_files for fs in per_shard)
    assert set().union(*per_shard) == all_files
    # lengths residency: range layout → per-shard resident rows partition
    # the corpus and each shard holds a strict subset
    n_total = eng._len_ids.size
    shard_rows = [s._len_ids.size for s in svc.shards]
    assert sum(shard_rows) == n_total
    assert all(0 < r < n_total for r in shard_rows)


def test_sharded_hybrid_and_actor_mode(built, tmp_path):
    """Sharded hybrid_search (global vector top-k merged from per-shard
    partials) and the actor-backed deployment must both be bit-identical
    to the single engine. Uses its OWN index copy: the shared fixture must
    stay embeddings-free for the hybrid-fallback conformance test."""
    from searchengine_ray.build import build_index
    from searchengine_ray.pipelines.embeddings import build_doc_embeddings
    from searchengine_ray.query import QueryEngine, ShardedQueryService
    from searchengine_ray.sources.corpus import read_source
    index_dir = str(tmp_path / "sharded_hybrid_index")
    build_index(read_source(built.corpus_dir), index_dir, built.cfg,
                salt_hot_terms=False)
    build_doc_embeddings(index_dir)
    eng = QueryEngine(index_dir, built.cfg)
    svc = ShardedQueryService(index_dir, built.cfg, num_shards=3)
    for q in ("queue71", "py org2", "java parse"):
        assert svc.hybrid_search(q, top_k=10) == \
            eng.hybrid_search(q, top_k=10), q
    asvc = ShardedQueryService(index_dir, built.cfg, num_shards=3,
                               use_actors=True)
    for q in ("queue71", "py org2", "nosuchterm"):
        assert asvc.search(q, top_k=10) == eng.search(q, top_k=10), q
        assert asvc.hybrid_search(q, top_k=10) == \
            eng.hybrid_search(q, top_k=10), q
    # serving-surface parity: pagination + stats through both modes
    assert svc.search_page("py org2", page=2, per_page=5) == \
        eng.search_page("py org2", page=2, per_page=5)
    assert svc.stats() == eng.stats() == asvc.stats()


def test_cli_query_and_stats(built, capsys):
    from searchengine_ray import cli
    rc = cli.main(["stats", "--index", built.index_dir, "--partitions", "8"])
    assert rc == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["num_docs"] == 400
    rc = cli.main(["query", "--index", built.index_dir, "--partitions", "8",
                   "--q", "queue71", "--top-k", "3"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out and out[0]["score"] == 1.0
    rc = cli.main(["query", "--index", built.index_dir, "--partitions", "8",
                   "--q", "py org2", "--page", "1", "--per-page", "5"])
    assert rc == 0
    page = json.loads(capsys.readouterr().out)
    assert len(page["results"]) == 5 and page["page"] == 1


def test_cli_build_roundtrip(tmp_path, capsys):
    from searchengine_ray import cli
    from searchengine_ray.sources.corpus import write_corpus
    src = str(tmp_path / "corpus")
    idx = str(tmp_path / "index")
    write_corpus(src, 120, rows_per_file=60)
    rc = cli.main(["build", "--source", src, "--index", idx,
                   "--partitions", "8"])
    assert rc == 0
    m = json.loads(capsys.readouterr().out)
    assert m["num_docs"] == 120 and m["complete"]


# ---------------------------------------------------------------------------
# events pipelines vs pandas oracles (driver testdata, read-only)
# ---------------------------------------------------------------------------

def events_df() -> pd.DataFrame:
    return pd.read_parquet(f"{SF}/events.parquet")


@pytest.fixture(scope="module")
def events_ds():
    import ray.data
    return ray.data.read_parquet(f"{SF}/events.parquet")


def test_windowed_agg(events_ds):
    from searchengine_ray.pipelines.events import WINDOW_US, windowed_agg
    rows = windowed_agg(events_ds).take_all()
    got = {(r["window_start_us"], r["event_type"]):
           (r["n_events"], r["sum_value_c"]) for r in rows}
    df = events_df()
    us = df["ts"].astype("int64") // 1000 if df["ts"].dtype.kind == "M" else None
    # ts is timestamp[us] → int64 view is µs already via .view
    us = df["ts"].values.astype("datetime64[us]").astype("int64")
    win = (us // WINDOW_US) * WINDOW_US
    vc = np.round(df["value"].to_numpy() * 100).astype("int64")
    want: dict = {}
    for w, t, v in zip(win, df["event_type"], vc):
        k = (int(w), t)
        n, s = want.get(k, (0, 0))
        want[k] = (n + 1, s + int(v))
    assert got == want


def test_sessionize(events_ds):
    from searchengine_ray.pipelines.events import sessionize
    gap = 1_800_000_000
    rows = sessionize(events_ds).take_all()
    got = {(r["user_id"], r["session_start_us"]):
           (r["n_events"], r["duration_us"]) for r in rows}
    df = events_df()
    us = df["ts"].values.astype("datetime64[us]").astype("int64")
    want: dict = {}
    for uid, g in pd.DataFrame({"u": df["user_id"], "t": us}).groupby("u"):
        ts = np.sort(g["t"].to_numpy())
        new = np.concatenate([[True], np.diff(ts) > gap])
        sid = np.cumsum(new) - 1
        for s in range(sid[-1] + 1):
            seg = ts[sid == s]
            want[(int(uid), int(seg[0]))] = (len(seg), int(seg[-1] - seg[0]))
    assert got == want


def test_props_extract(events_ds):
    import re
    from searchengine_ray.pipelines.events import props_extract
    rows = props_extract(events_ds).take_all()
    got = {r["event_id"]: r["props_k"] for r in rows}
    df = events_df()
    for eid, props in zip(df["event_id"], df["props"]):
        m = re.search(r'"k": (\d+)', props)
        assert got[int(eid)] == (int(m.group(1)) if m else -1)


def test_lazy_segments_identical(built):
    from searchengine_ray.query import QueryEngine
    eager = QueryEngine(built.index_dir, built.cfg)
    lazy = QueryEngine(built.index_dir, built.cfg, lazy_segments=True)
    for q in ["queue71", "py org2", "parse token stream", "unknownterm9"]:
        assert eager.search(q, top_k=20) == lazy.search(q, top_k=20), q


def test_query_service_pool(built):
    import ray
    from searchengine_ray.query import QueryEngine, QueryService
    eng = QueryEngine(built.index_dir, built.cfg)
    svc = QueryService(built.index_dir, built.cfg, num_actors=2)
    try:
        qs = ["queue71", "py org2", "parse token stream", "rust engine"] * 3
        refs = [svc.submit(q, 10) for q in qs]       # async fan-out
        results = ray.get(refs)
        for q, got in zip(qs, results):
            assert got == eng.search(q, top_k=10), q
        assert svc.stats()["num_docs"] == 400
    finally:
        svc.shutdown()


def test_query_service_result_lru(built):
    """The S9 search-cache analogue: repeat queries hit the LRU with
    identical results; the cache is bounded; cold path unaffected."""
    from searchengine_ray.query import QueryEngine, QueryService
    eng = QueryEngine(built.index_dir, built.cfg)
    svc = QueryService(built.index_dir, built.cfg, num_actors=1,
                       cache_size=2)
    try:
        a1 = svc.search("queue71", top_k=5)
        a2 = svc.search("queue71", top_k=5)   # hit
        assert a1 == a2 == eng.search("queue71", top_k=5)
        assert (svc.cache_hits, svc.cache_misses) == (1, 1)
        svc.search("py org2", top_k=5)        # miss, fills slot 2
        svc.search("rust engine", top_k=5)    # miss, evicts queue71
        assert len(svc._cache) == 2
        svc.search("queue71", top_k=5)        # miss again (evicted)
        assert svc.cache_misses == 4 and svc.cache_hits == 1
        # different top_k is a different key
        assert svc.search("py org2", top_k=3) == eng.search("py org2",
                                                            top_k=3)
    finally:
        svc.shutdown()


# ---------------------------------------------------------------------------
# hybrid BM25 ⊕ embedding path (reference optimized_indexer semantics)
# ---------------------------------------------------------------------------

def test_hybrid_search_reference_semantics(built):
    import numpy as np
    from searchengine_ray.pipelines.embeddings import (build_doc_embeddings,
                                                       embed_text)
    from searchengine_ray.query import QueryEngine

    eng0 = QueryEngine(built.index_dir, built.cfg)
    # fallback before embeddings exist = plain BM25 (reference :188-190)
    assert eng0.hybrid_search("queue71", 5) == eng0.search("queue71", 10)[:5]

    build_doc_embeddings(built.index_dir, concurrency=2)
    eng = QueryEngine(built.index_dir, built.cfg)
    for q in ["queue71", "py org2", "rust engine"]:
        k = 5
        got = eng.hybrid_search(q, k)
        # in-test oracle: reference combine_results reimplemented
        bm25 = eng.search(q, top_k=2 * k)
        vec = dict(eng.vector_search(q, k))
        want = []
        for r in bm25:
            if r["doc_id"] in vec:
                want.append((r["doc_id"],
                             0.7 * r["score"] + 0.3 * vec[r["doc_id"]]))
        want.sort(key=lambda x: (-x[1], x[0]))
        want = want[:k]
        assert [(g["doc_id"], g["score"]) for g in got] == want, q
        assert all(g["search_method"] == "Hybrid BM25+Embedding" for g in got)

    # the embedder really embeds: identical texts → identical vectors,
    # disjoint-vocab texts → orthogonal
    a = embed_text("alpha beta gamma")
    assert np.allclose(a, embed_text("alpha beta gamma"))
    assert abs(float(a @ embed_text("zzz9 qqq8 yyy7"))) < 0.7


def test_verify_index_healthy_and_detects_damage(built, tmp_path):
    import os
    import shutil
    from searchengine_ray.verify_index import verify_index
    rep = verify_index(built.index_dir)
    assert rep["ok"], rep["problems"]
    assert rep["num_docs"] == 400
    # damaged copy: drop a segment file → flagged
    dmg = str(tmp_path / "damaged")
    shutil.copytree(built.index_dir, dmg)
    segs = sorted(os.listdir(os.path.join(dmg, "segments")))
    os.remove(os.path.join(dmg, "segments", segs[0]))
    rep2 = verify_index(dmg)
    assert not rep2["ok"]
    assert any("missing artifact" in p for p in rep2["problems"])


def test_value_quantiles_matches_quantile_disc(ray_session):
    """Histogram-exact quantiles must match DuckDB quantile_disc semantics
    (sorted value at max(0, ceil(q·n)−1)) on skewed synthetic data and
    on single-row / all-equal groups."""
    import duckdb
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import (sql_value_quantiles,
                                                   value_quantiles)
    rng = np.random.default_rng(5)
    n = 3000
    t = pa.table({
        "event_type": pa.array(
            ["a"] * 1500 + ["b"] * 1499 + ["single"]),
        "user_id": pa.array(rng.integers(0, 40, size=n), type=pa.int64()),
        "value": pa.array(
            np.concatenate([rng.exponential(1.0, 1500),
                            np.full(1499, 2.0), [7.77]]),
            type=pa.float64()),
    })
    got = value_quantiles(ray.data.from_arrow(t)).to_pylist()
    con = duckdb.connect()
    con.register("events", t)
    want = con.execute(sql_value_quantiles()
                       + " ORDER BY event_type").fetch_arrow_table() \
        .to_pylist()
    assert sorted(got, key=lambda r: r["event_type"]) == want


def test_value_quantiles_driver_fetch_is_digest_bounded(ray_session,
                                                        monkeypatch):
    """Round-4 verdict: the old finalize shipped a (type × distinct-cents)
    histogram to the driver — unbounded on a continuous value domain. The
    iterative-selection rewrite must keep every driver fetch digest-sized:
    total driver-visible rows stay far below the distinct-value count,
    while the result remains quantile_disc-exact."""
    import duckdb
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import (sql_value_quantiles,
                                                   value_quantiles)
    rng = np.random.default_rng(11)
    n = 60_000
    t = pa.table({
        "event_type": pa.array(np.repeat(["a", "b", "c"], n // 3)),
        "user_id": pa.array(rng.integers(0, 50, size=n), type=pa.int64()),
        "value": pa.array(rng.uniform(0.0, 500.0, size=n),
                          type=pa.float64()),
    })
    distinct = len(np.unique(
        np.round(t["value"].to_numpy() * 100.0).astype(np.int64)))
    assert distinct > 20_000  # the old path would ship every one of these

    fetched = []
    real_take_all = ray.data.Dataset.take_all
    real_iter = ray.data.Dataset.iter_batches

    def spy_take_all(self, *a, **kw):
        rows = real_take_all(self, *a, **kw)
        fetched.append(len(rows))
        return rows

    def spy_iter(self, *a, **kw):
        for b in real_iter(self, *a, **kw):
            fetched.append(b.num_rows if hasattr(b, "num_rows") else len(b))
            yield b

    monkeypatch.setattr(ray.data.Dataset, "take_all", spy_take_all)
    monkeypatch.setattr(ray.data.Dataset, "iter_batches", spy_iter)
    got = value_quantiles(ray.data.from_arrow(t), num_buckets=8,
                          fetch_threshold=64).to_pylist()
    con = duckdb.connect()
    con.register("events", t)
    want = con.execute(sql_value_quantiles()
                       + " ORDER BY event_type").fetch_arrow_table() \
        .to_pylist()
    assert sorted(got, key=lambda r: r["event_type"]) == want
    assert sum(fetched) < distinct // 4, (sum(fetched), distinct)


def test_streaming_window_late_policy(ray_session):
    """Hand-built out-of-order stream: the watermark (running max event
    time − lateness) must drop exactly the straggler that arrives after
    its window is finalized, and keep the one inside allowed lateness."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import streaming_windowed_agg
    H = 3_600_000_000  # 1h in µs
    rows = [
        # (event_id = arrival order, ts, value)
        (0, 10 * H + 100, 1.0),          # window 10h
        (1, 11 * H + 100, 2.0),          # window 11h → watermark 11h+100-60s
        (2, 10 * H + 200, 4.0),          # LATE: window 10h ended before wm
        (3, 11 * H + 50, 8.0),           # window 11h, fine
        (4, 12 * H - 30_000_000, 16.0),  # window 11h, within lateness
        (5, 12 * H + 10, 32.0),          # window 12h
        (6, 11 * H + 60, 64.0),          # LATE now (wm = 12h+10-60s > 12h end? no → 11h end=12h <= 12h+10-60s? 12h+10-60e6 < 12h → NOT late)
    ]
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
        "event_type": pa.array(["x"] * len(rows)),
        "value": pa.array([r[2] for r in rows], type=pa.float64()),
    })
    out = streaming_windowed_agg(ray.data.from_arrow(t),
                                 lateness_us=60_000_000).take_all()
    got = {(r["window_start_us"] // H, r["is_late"]):
           (r["n_events"], r["sum_value_c"]) for r in out}
    # event 2 is the only late one: 10h window end (11h) <= wm(11h+100-60s)?
    # 11h <= 11h+100-60e6 is FALSE (60e6 ≫ 100) → with 60s lateness event 2
    # survives; tighten: rerun with lateness 0 to force the drop
    out0 = streaming_windowed_agg(ray.data.from_arrow(t),
                                  lateness_us=0).take_all()
    got0 = {(r["window_start_us"] // H, r["is_late"]):
            (r["n_events"], r["sum_value_c"]) for r in out0}
    assert got0[(10, 0)] == (1, 100)        # event 0 on time
    assert got0[(10, 1)] == (1, 0)          # event 2 dropped (sum zeroed)
    # event 6: wm at arrival = 12h+10; 11h-window end = 12h <= 12h+10 → late
    assert got0[(11, 1)] == (1, 0)
    assert got0[(11, 0)] == (3, 2600)       # events 1,3,4 → 200+800+1600
    assert got0[(12, 0)] == (1, 3200)
    # with 60s allowed lateness nothing here is late
    assert all(k[1] == 0 for k in got)
    assert got[(11, 0)] == (4, 9000)        # 1,3,4,6 → 200+800+1600+6400


def test_streaming_window_salted_identical(ray_session):
    """The skew-safe (event_type, arrival-shard) variant must be output-
    identical to the plain operator — on a hand-built out-of-order stream
    with boundary-straddling lateness, for every shard size (1 event per
    shard up to one giant shard), and on the real events table."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import streaming_windowed_agg
    H = 3_600_000_000
    rng = np.random.default_rng(11)
    n = 400
    ids = np.arange(n, dtype=np.int64)
    # event time wanders forward with heavy jitter → real out-of-orderness
    ts = (10 * H + np.cumsum(rng.integers(0, 120_000_000, size=n))
          + rng.integers(-90_000_000, 90_000_000, size=n))
    t = pa.table({
        "event_id": pa.array(ids),
        "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
        "event_type": pa.array([f"t{i % 3}" for i in range(n)]),
        "value": pa.array(rng.uniform(0, 5, size=n), type=pa.float64()),
    })

    def key(rows):
        return {(r["window_start_us"], r["event_type"], r["is_late"]):
                (r["n_events"], r["sum_value_c"]) for r in rows}

    for lateness in (0, 60_000_000):
        want = key(streaming_windowed_agg(
            ray.data.from_arrow(t), lateness_us=lateness).take_all())
        for shard_events in (1, 7, 64, 10**9):
            got = key(streaming_windowed_agg(
                ray.data.from_arrow(t), lateness_us=lateness,
                shard_events=shard_events).take_all())
            assert got == want, (lateness, shard_events)

    # real events table (ts monotone — exercises the no-late fast case)
    ev = ray.data.read_parquet(
        SF + "/events.parquet",
        columns=["event_id", "event_type", "ts", "value"])
    want = key(streaming_windowed_agg(ev).take_all())
    got = key(streaming_windowed_agg(ev, shard_events=128).take_all())
    assert got == want


def test_streaming_window_cross_block_arrival_matches_duckdb(ray_session):
    """Arrival order (event_id) interleaves across several Arrow blocks,
    each block stored out of arrival order, and stragglers land just
    behind hour boundaries: every shard size equals the SQL oracle run
    by DuckDB, late rows included."""
    import duckdb
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import (
        sql_streaming_windowed_agg, streaming_windowed_agg)
    H = 3_600_000_000
    rng = np.random.default_rng(5)
    n = 600
    ids = np.arange(n, dtype=np.int64)
    # whole minutes, so the watermark often sits exactly on a window end
    # plus the lateness — the boundary of the late rule
    M = 60_000_000
    ts = 10 * H + M * np.cumsum(rng.integers(0, 3, size=n))
    # every 9th arrival is a straggler from up to 4 min before a boundary
    strag = ids % 9 == 4
    ts[strag] = (ts[strag] // H) * H - M * rng.integers(0, 5,
                                                        size=strag.sum())
    t = pa.table({
        "event_id": pa.array(ids),
        "ts": pa.array(ts, type=pa.int64()).cast(pa.timestamp("us")),
        "event_type": pa.array([f"t{i % 2}" for i in range(n)]),
        "value": pa.array(rng.uniform(0, 5, size=n), type=pa.float64()),
    })
    blocks = [t.take(rng.permutation(np.flatnonzero(ids % 4 == b)))
              for b in range(4)]
    ds = ray.data.from_arrow(blocks)
    assert ds.num_blocks() == 4

    def key(rows):
        return sorted((int(r["window_start_us"]), r["event_type"],
                       int(r["is_late"]), int(r["n_events"]),
                       int(r["sum_value_c"])) for r in rows)

    con = duckdb.connect()
    con.register("events", t)
    for lateness in (0, M):
        want = key(con.execute(sql_streaming_windowed_agg(lateness))
                   .df().to_dict("records"))
        assert any(w[2] == 1 and w[3] > 0 for w in want), lateness
        for shard_events in (None, 1, 7, 64):
            got = key(streaming_windowed_agg(
                ds, lateness_us=lateness,
                shard_events=shard_events).take_all())
            assert got == want, (lateness, shard_events)


def _empty_cases():
    from searchengine_ray.pipelines import events as ev
    day = ev.DAY_US
    rank = {"event_id": "int64", "rnk": "int64"}
    prank = {"event_id": "int64", "prank_r": "double"}
    return {
        "sessionize": (lambda d: ev.sessionize(d), None),
        "sessionize_sharded": (lambda d: ev.sessionize(d, shard_us=day),
                               None),
        "streaming": (lambda d: ev.streaming_windowed_agg(d), None),
        "streaming_sharded": (lambda d: ev.streaming_windowed_agg(
            d, shard_events=7), None),
        "asof": (lambda d: ev.asof_join_prior(d), None),
        "asof_sharded": (lambda d: ev.asof_join_prior(d, shard_us=day),
                         None),
        "global_rank": (lambda d: ev.global_value_rank(d), rank),
        "global_rank_ranged": (lambda d: ev.global_value_rank(
            d, num_buckets=8), rank),
        "percent_rank": (lambda d: ev.global_percent_rank(d), prank),
        "percent_rank_ranged": (lambda d: ev.global_percent_rank(
            d, num_buckets=8), prank),
        "type_rank_ranged": (lambda d: ev.type_value_rank_ranged(d), rank),
        "rolling_window": (lambda d: ev.rolling_user_window(d), None),
    }


@pytest.mark.parametrize("name", sorted(_empty_cases()))
def test_folded_events_operators_on_empty_table(ray_session, name):
    """An empty events table gives 0 rows and no exception on both plans
    of every folded operator; the rank family, whose driver sees the
    empty histogram, also returns its typed schema. The others stay
    schemaless: their zero-row blocks never reach a group function."""
    import pyarrow as pa
    import ray.data
    fn, schema = _empty_cases()[name]
    empty = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                       ("ts", pa.timestamp("us")),
                       ("event_type", pa.string()),
                       ("value", pa.float64())]).empty_table()
    out = fn(ray.data.from_arrow(empty))
    assert out.take_all() == []
    if schema is not None:
        got = out.schema()
        assert dict(zip(got.names, map(str, got.types))) == schema


def test_lazy_docstore_identical(built):
    from searchengine_ray.query import QueryEngine
    eager = QueryEngine(built.index_dir, built.cfg)
    lazy = QueryEngine(built.index_dir, built.cfg, lazy_docstore=True)
    both = QueryEngine(built.index_dir, built.cfg, lazy_segments=True,
                       lazy_docstore=True)
    for q in ["queue71", "py org2", "parse token stream",
              "src/module_96/file_25.py", "hashMap codec"]:
        want = eager.search(q, top_k=20)
        assert lazy.search(q, top_k=20) == want, q
        assert both.search(q, top_k=20) == want, q
    # unbounded-k path (full boost, no pruning) identical too
    assert lazy.search("py org2", top_k=2000) == \
        eager.search("py org2", top_k=2000)


def test_sessionize_salted_equivalent(events_ds):
    """The skew-safe (user, day)-sharded sessionize must produce exactly
    the same sessions as the plain per-user version — including sessions
    that span shard boundaries."""
    from searchengine_ray.pipelines.events import sessionize
    plain = sorted(
        ((r["user_id"], r["session_start_us"], r["n_events"], r["duration_us"])
         for r in sessionize(events_ds).take_all()))
    # tiny shards force MANY boundary-spanning sessions (1h shard, 30m gap)
    salted = sorted(
        ((r["user_id"], r["session_start_us"], r["n_events"], r["duration_us"])
         for r in sessionize(events_ds,
                             shard_us=3_600_000_000).take_all()))
    assert salted == plain


# ---------------------------------------------------------------------------
# HTTP serving layer (reference app.py:111-274 endpoint semantics)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def http_server(built):
    from searchengine_ray.query import QueryEngine
    from searchengine_ray.serve import SearchApp, SearchHTTPServer
    eng = QueryEngine(built.index_dir, built.cfg)
    app = SearchApp(eng, results_per_page=5,
                    excluded_domains={"org2.example"})
    srv = SearchHTTPServer(app)
    srv.start()
    yield srv, app, eng
    srv.shutdown()


def _get(port: int, path: str):
    import urllib.request
    try:
        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=10) as r:
            return r.status, json.loads(r.read().decode())
    except Exception as e:  # urllib raises on non-2xx
        import urllib.error
        if isinstance(e, urllib.error.HTTPError):
            return e.code, json.loads(e.read().decode())
        raise


def test_http_search_bit_identical_to_search_page(http_server):
    """/search over HTTP must carry exactly the rows search_page returns
    (same over-fetch, filter, slice), plus the reference's source tag and
    pagination envelope."""
    srv, app, eng = http_server
    for page in (1, 2):
        status, got = _get(srv.port, f"/search?q=py+org2&page={page}")
        assert status == 200
        want = eng.search_page("py org2", page=page, per_page=5,
                               exclude_repos=["org2.example"])
        stripped = [{k: v for k, v in r.items() if k != "source"}
                    for r in got["results"]]
        assert stripped == want["results"]
        assert got["total_results"] == want["total_results"]
        assert got["pagination"]["total_pages"] == want["total_pages"]
        assert got["pagination"]["current_page"] == page
        assert all(r["source"] == "BM25" for r in got["results"])
    # pagination envelope flags (reference app.py:178-185)
    _, p1 = _get(srv.port, "/search?q=py+org2&page=1")
    assert p1["pagination"]["has_prev"] is False
    assert p1["pagination"]["prev_page"] is None
    if p1["pagination"]["total_pages"] > 1:
        assert p1["pagination"]["has_next"] is True
        assert p1["pagination"]["next_page"] == 2


def test_http_api_search_and_empty_query(http_server):
    srv, app, eng = http_server
    status, got = _get(srv.port, "/api/search?q=queue71&limit=3")
    assert status == 200
    assert got["total"] == len(got["results"]) <= 3
    # over-fetch x2 then truncate (app.py:222,239): equals direct call
    direct = app.api_search("queue71", 3)
    assert got == json.loads(json.dumps(direct))
    # empty query -> empty envelope, not an error (app.py:206-207)
    assert _get(srv.port, "/api/search") == (200, {"results": [],
                                                   "total": 0})
    status, home = _get(srv.port, "/search")
    assert status == 200 and home["results"] == []


def test_http_health_and_404(http_server):
    srv, app, eng = http_server
    for path in ("/health", "/api/health"):
        status, h = _get(srv.port, path)
        assert status == 200
        assert h["status"] == "healthy" and h["index_loaded"] is True
        assert h["document_count"] == eng.stats()["num_docs"]
        assert h["term_count"] == eng.stats()["num_terms"]
        assert h["search_mode"] == "bm25"
    status, _ = _get(srv.port, "/nope")
    assert status == 404


def test_http_excluded_domain_filter_case_insensitive(http_server):
    """app.py:146-148: URL lowercased before the substring check."""
    srv, app, eng = http_server
    _, got = _get(srv.port, "/search?q=py+org2&page=1")
    assert all("org2.example" not in r["url"].lower()
               for r in got["results"])


def test_http_hybrid_mode_rejects_plain_backend(built):
    from searchengine_ray.serve import SearchApp

    class NoHybrid:
        def search(self, q, top_k):
            return []

    with pytest.raises(ValueError):
        SearchApp(NoHybrid(), mode="hybrid")


# ---------------------------------------------------------------------------
# injectable embedder (reference bert_embeddings.py:61-123 model slot)
# ---------------------------------------------------------------------------

def _make_fake_model():
    """Deterministic stand-in for a real sentence encoder: first two dims
    carry (len mod 7, 1), L2-normalized. Defined as a LOCAL class so
    cloudpickle ships it by value — Ray workers cannot import the test
    module by name."""
    from searchengine_ray.pipelines.embeddings import TextEmbedder

    class FakeModel(TextEmbedder):
        dim = 8
        loaded = False

        def load(self):
            self.loaded = True  # the once-per-actor model-load point

        def encode(self, texts):
            m = np.zeros((len(texts), self.dim), dtype=np.float64)
            for i, t in enumerate(texts):
                m[i, 0] = (len(t) % 7) + 1.0
                m[i, 1] = 1.0
            return m / np.linalg.norm(m, axis=1, keepdims=True)

    return FakeModel()


def test_embedder_injection_swaps_model(built, tmp_path):
    """build_doc_embeddings(embedder=...) must route every batch through
    the injected model (loaded once per actor), and the hybrid path must
    stay green on the resulting embeddings."""
    import pyarrow.parquet as pq
    from searchengine_ray.build import build_index
    from searchengine_ray.pipelines.embeddings import (
        build_doc_embeddings, load_doc_embeddings)
    from searchengine_ray.query import QueryEngine
    from searchengine_ray.sources.corpus import read_source
    index_dir = str(tmp_path / "fake_model_index")
    build_index(read_source(built.corpus_dir), index_dir, built.cfg,
                salt_hot_terms=False)
    fake = _make_fake_model()
    build_doc_embeddings(index_dir, embedder=fake)
    ids, mat = load_doc_embeddings(index_dir)
    assert mat.shape == (400, fake.dim)
    # rows are exactly the fake model's output for the reference combined
    # text (title title meta snippet)
    docstore = pq.read_table(f"{index_dir}/docstore",
                             columns=["doc_id", "title", "meta", "snippet"])
    by_id = {int(d): f"{t} {t} {m} {s}" for d, t, m, s in zip(
        docstore["doc_id"].to_pylist(), docstore["title"].to_pylist(),
        docstore["meta"].to_pylist(), docstore["snippet"].to_pylist())}
    want = _make_fake_model().encode([by_id[int(i)] for i in ids])
    np.testing.assert_allclose(mat, want, rtol=0, atol=1e-12)
    # hybrid green under the injected embedder: the QUERY must be encoded
    # by the same model (query_embedder slot)
    eng = QueryEngine(index_dir, built.cfg,
                      query_embedder=_make_fake_model())
    # top_k = corpus size: vector top-k covers every doc, so the hybrid
    # intersection is exactly the BM25 result set, all tagged Hybrid
    res = eng.hybrid_search("py org2", top_k=400)
    assert res and all(r["search_method"] == "Hybrid BM25+Embedding"
                       for r in res)
    # vector sims come from the injected model exactly
    qvec = _make_fake_model().encode(["py org2"])[0]
    sims = dict(eng.vector_search("py org2", 400))
    emb_by_id = {int(i): v for i, v in zip(ids, mat)}
    for doc_id, sim in list(sims.items())[:20]:
        cos = float(emb_by_id[doc_id] @ qvec)
        want_sim = 1.0 / (1.0 + np.sqrt(max(0.0, 2.0 - 2.0 * cos)))
        assert sim == pytest.approx(want_sim, rel=1e-12)
    # dim-mismatch (default 64-d query model vs 8-d index) fails LOUDLY
    bad = QueryEngine(index_dir, built.cfg)
    with pytest.raises(ValueError, match="dim"):
        bad.vector_search("py org2", 5)


def test_sentence_transformer_spec_is_picklable_and_guarded():
    """The real-model adapter must construct + pickle WITHOUT the library
    (the spec ships to actors unloaded); load() needs the import."""
    import pickle
    from searchengine_ray.pipelines.embeddings import (
        SentenceTransformerModel)
    spec = SentenceTransformerModel("all-MiniLM-L6-v2", dim=384)
    spec2 = pickle.loads(pickle.dumps(spec))
    assert spec2.model_name == "all-MiniLM-L6-v2" and spec2.dim == 384
    try:
        import sentence_transformers  # noqa: F401
        has_lib = True
    except ImportError:
        has_lib = False
    if not has_lib:
        with pytest.raises(ImportError):
            spec2.load()


def test_build_doc_embeddings_resumable(built, tmp_path):
    """A completed embeddings build is a no-op on re-run (marker lineage);
    a different embedder or force=True rebuilds."""
    import os
    from searchengine_ray.build import build_index
    from searchengine_ray.pipelines.embeddings import build_doc_embeddings
    from searchengine_ray.sources.corpus import read_source
    index_dir = str(tmp_path / "emb_resume_index")
    build_index(read_source(built.corpus_dir), index_dir, built.cfg,
                salt_hot_terms=False)
    out = build_doc_embeddings(index_dir)
    files = sorted(os.listdir(out))
    mtimes = {f: os.path.getmtime(os.path.join(out, f)) for f in files}
    assert "_EMBED_MANIFEST.json" in files
    # no-op re-run: same files, untouched
    build_doc_embeddings(index_dir)
    assert sorted(os.listdir(out)) == files
    assert all(os.path.getmtime(os.path.join(out, f)) == m
               for f, m in mtimes.items())
    # different embedder fingerprint → rebuild
    fake = _make_fake_model()
    build_doc_embeddings(index_dir, embedder=fake)
    import json as _json
    with open(os.path.join(out, "_EMBED_MANIFEST.json")) as f:
        m = _json.load(f)
    assert "FakeModel" in m["embedder"]
    # force → rebuild even when current
    build_doc_embeddings(index_dir, embedder=fake, force=True)


def test_http_app_over_pool_and_sharded_backends(built):
    """SearchApp is backend-agnostic: over QueryService (actor pool with
    result LRU) and ShardedQueryService it must produce the same /search
    payload as over the in-process engine — the ``did_you_mean`` hint of
    a no-result query included — and the pool serves hybrid mode."""
    from searchengine_ray.query import (QueryEngine, QueryService,
                                        ShardedQueryService)
    from searchengine_ray.serve import SearchApp
    eng = QueryEngine(built.index_dir, built.cfg)
    base = SearchApp(eng, results_per_page=5)
    pool = QueryService(built.index_dir, built.cfg, num_actors=1,
                        cache_size=8)
    sharded = ShardedQueryService(built.index_dir, built.cfg, num_shards=2)
    try:
        for q in ("queue71", "py org2", "qeue71"):
            want = base.search(q, page=1)
            assert SearchApp(pool, results_per_page=5).search(q, 1) == want
            assert SearchApp(sharded,
                             results_per_page=5).search(q, 1) == want
        assert "did_you_mean" in base.search("qeue71", page=1)
        SearchApp(pool, mode="hybrid")
        for q in ("queue71", "py org2"):
            assert pool.hybrid_search(q, top_k=10) == \
                eng.hybrid_search(q, top_k=10), q
        # the LRU must not be corrupted by the handler's source tag
        # (handler mutates copies): two hits give identical payloads
        app = SearchApp(pool, results_per_page=5)
        first = app.search("queue71", 1)
        assert app.search("queue71", 1) == first
        assert pool.cache_hits >= 1
    finally:
        pool.shutdown()
        sharded.shutdown()


def test_asof_join_prior_matches_bruteforce(events_ds):
    from searchengine_ray.pipelines.events import asof_join_prior
    got = {r["event_id"]: (r["prior_event_id"], r["gap_us"])
           for r in asof_join_prior(events_ds).take_all()}
    df = events_df()
    us = df["ts"].values.astype("datetime64[us]").astype("int64")
    rows = sorted(zip(df["user_id"], us, df["event_id"], df["event_type"]))
    want = {}
    last_view: dict = {}
    for uid, ts, eid, et in rows:
        if et == "view":
            last_view[uid] = (eid, ts)
        elif et == "purchase" and uid in last_view:
            peid, pts = last_view[uid]
            want[eid] = (peid, ts - pts)
    assert got == want and want  # non-trivial on the testdata


def test_asof_join_ts_ties_are_deterministic(ray_session):
    """Synthetic ts ties (absent in testdata — ts is monotone in
    event_id there): at equal ts, only right rows with SMALLER event_id
    are prior, and the largest such event_id wins."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import asof_join_prior
    ts0 = 1_700_000_000_000_000
    t = pa.table({
        "event_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "user_id": pa.array([9, 9, 9, 9, 9], type=pa.int64()),
        "ts": pa.array([ts0, ts0, ts0, ts0, ts0 + 5],
                       type=pa.timestamp("us")),
        "event_type": pa.array(
            ["view", "purchase", "view", "purchase", "purchase"],
            type=pa.string()),
    })
    got = {r["event_id"]: (r["prior_event_id"], r["gap_us"])
           for r in asof_join_prior(ray.data.from_arrow(t)).take_all()}
    # purchase 2: only view 1 is prior (view 3 has larger id at equal ts)
    # purchase 4: views 1 and 3 prior → 3 wins; purchase 5: 3, gap 5
    assert got == {2: (1, 0), 4: (3, 0), 5: (3, 5)}


def test_value_range_join_matches_bruteforce(events_ds):
    from searchengine_ray.pipelines.events import (RANGE_BUCKETS,
                                                   value_range_join)
    got = {r["event_id"]: (r["bucket_id"], r["lo_c"], r["hi_c"])
           for r in value_range_join(events_ds).take_all()}
    df = events_df()
    want = {}
    for eid, v in zip(df["event_id"], df["value"]):
        for j, lo, hi in RANGE_BUCKETS:
            if lo <= v < hi:
                want[int(eid)] = (j, round(lo * 100), round(hi * 100))
                break
    assert got == want and want


def test_asof_join_salted_identical(events_ds):
    """The (user, time-shard)-salted as-of join must be output-identical
    to the plain one — tiny shards force MANY cross-shard priors."""
    from searchengine_ray.pipelines.events import asof_join_prior
    plain = sorted((r["event_id"], r["prior_event_id"], r["gap_us"])
                   for r in asof_join_prior(events_ds).take_all())
    # 1-hour shards: most priors live in an earlier shard (stage-2 path)
    salted = sorted((r["event_id"], r["prior_event_id"], r["gap_us"])
                    for r in asof_join_prior(
                        events_ds, shard_us=3_600_000_000).take_all())
    assert salted == plain and plain


def test_http_concurrent_requests(http_server):
    """The threaded HTTP server over a shared engine must answer
    concurrent mixed requests correctly (read-only engine state; cache
    structures are GIL-atomic) — responses equal the serial ones."""
    import concurrent.futures as cf
    srv, app, eng = http_server
    paths = ["/search?q=py+org2&page=1", "/api/search?q=queue71&limit=3",
             "/health", "/search?q=queue71&page=1"] * 6
    serial = [_get(srv.port, p) for p in paths[:4]]
    with cf.ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda p: _get(srv.port, p), paths))
    for i, (status, payload) in enumerate(results):
        assert status == 200
        assert (status, payload) == serial[i % 4]


from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(st.lists(
    st.tuples(st.integers(0, 4),            # user
              st.integers(0, 50),           # ts (dense → many collisions)
              st.sampled_from(["view", "purchase", "click"])),
    min_size=0, max_size=60))
def test_asof_join_property(ray_session, rows):
    """Random event logs with heavy ts collisions: plain AND salted
    as-of join both equal the sequential brute force."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import asof_join_prior
    t = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
        "event_type": pa.array([r[2] for r in rows], type=pa.string()),
    })
    want = {}
    last: dict = {}
    for uid, ts, eid, et in sorted(
            (r[0], r[1], i, r[2]) for i, r in enumerate(rows)):
        if et == "view":
            last[uid] = (eid, ts)
        elif et == "purchase" and uid in last:
            want[eid] = (last[uid][0], ts - last[uid][1])
    ds = ray.data.from_arrow(t)
    got = {r["event_id"]: (r["prior_event_id"], r["gap_us"])
           for r in asof_join_prior(ds).take_all()}
    assert got == want
    got_s = {r["event_id"]: (r["prior_event_id"], r["gap_us"])
             for r in asof_join_prior(ds, shard_us=16).take_all()}
    assert got_s == want


def test_http_page_clamp_and_malformed_params(http_server):
    """page ≤ 0 clamps to 1; malformed page/limit fall back like Flask's
    type=int (app.py:118,204) instead of 500."""
    srv, app, eng = http_server
    _, p1 = _get(srv.port, "/search?q=py+org2&page=1")
    for bad in ("-1", "0", "abc"):
        status, got = _get(srv.port, f"/search?q=py+org2&page={bad}")
        assert status == 200
        assert got == p1, bad
    status, got = _get(srv.port, "/api/search?q=queue71&limit=zzz")
    assert status == 200 and got["total"] == len(got["results"])


def test_embeddings_rebuild_on_corpus_or_model_change(built, tmp_path):
    """Resume lineage must catch a re-written corpus with the SAME doc
    count and a same-class model with different params."""
    import os
    import time
    from searchengine_ray.build import build_index
    from searchengine_ray.pipelines.embeddings import (HashedBowModel,
                                                       build_doc_embeddings)
    from searchengine_ray.sources.corpus import read_source
    index_dir = str(tmp_path / "emb_lineage_index")
    build_index(read_source(built.corpus_dir), index_dir, built.cfg,
                salt_hot_terms=False)
    out = build_doc_embeddings(index_dir)
    m0 = os.path.getmtime(os.path.join(out, "_EMBED_MANIFEST.json"))
    # same-class model, different dim → rebuild
    time.sleep(0.02)
    build_doc_embeddings(index_dir, embedder=HashedBowModel(dim=32))
    m1 = os.path.getmtime(os.path.join(out, "_EMBED_MANIFEST.json"))
    assert m1 > m0
    # touch a docstore file (same count, new mtime) → rebuild
    ds_files = os.listdir(os.path.join(index_dir, "docstore"))
    os.utime(os.path.join(index_dir, "docstore", ds_files[0]))
    time.sleep(0.02)
    build_doc_embeddings(index_dir, embedder=HashedBowModel(dim=32))
    m2 = os.path.getmtime(os.path.join(out, "_EMBED_MANIFEST.json"))
    assert m2 > m1
    # unchanged → no-op
    build_doc_embeddings(index_dir, embedder=HashedBowModel(dim=32))
    assert os.path.getmtime(
        os.path.join(out, "_EMBED_MANIFEST.json")) == m2


def _term_space(built):
    """Brute-force (term -> set of doc_ids) over the SAME three indexed
    fields the build tokenizes (title=path, meta=repo+' '+lang, content)."""
    from conftest import oracle_docs
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    spaces = {}
    for d in oracle_docs(built.table):
        toks = set()
        for field in (d["path"], d["repo"] + " " + d["lang"], d["content"]):
            toks.update(filter_tokens(tokenize(field), built.cfg))
        for t in toks:
            spaces.setdefault(t, set()).add(d["doc_id"])
    return spaces


def test_term_dictionary_suggest_matches_bruteforce(built):
    from searchengine_ray.query import QueryEngine
    eng = QueryEngine(built.index_dir, built.cfg)
    spaces = _term_space(built)
    # full dictionary df parity (covers salted-term df re-summing)
    t = eng._term_dictionary()
    got = dict(zip(t["term"].to_pylist(), t["df"].to_pylist()))
    assert got == {term: len(ids) for term, ids in spaces.items()}
    # prefix suggest: same (df DESC, term ASC) order as the oracle
    for prefix, k in (("s", 5), ("queue", 10), ("p", 3), ("zzz", 4)):
        expect = sorted(((term, len(ids)) for term, ids in spaces.items()
                         if term.startswith(prefix)),
                        key=lambda r: (-r[1], r[0]))[:k]
        assert eng.suggest(prefix, k) == expect, prefix
    assert eng.suggest("", 5) == []


def test_fuzzy_terms_matches_duckdb_levenshtein(built):
    import duckdb
    from searchengine_ray.query import QueryEngine, _levenshtein_banded
    eng = QueryEngine(built.index_dir, built.cfg)
    spaces = _term_space(built)
    con = duckdb.connect()
    vocab = sorted(spaces)
    for probe, d in (("queue71", 1), ("py", 1), ("module", 2), ("src", 1)):
        ref = con.execute(
            "SELECT t FROM (SELECT unnest(?::VARCHAR[]) t) "
            "WHERE levenshtein(t, ?) <= ?", [vocab, probe, d]).fetchall()
        expect = sorted((t, len(spaces[t])) for (t,) in ref)
        assert eng.fuzzy_terms(probe, d) == expect, probe
    # the DP itself against DuckDB on random strings (incl. cap behavior)
    rng = np.random.default_rng(3)
    alpha = "abcde"
    for _ in range(200):
        a = "".join(rng.choice(list(alpha), size=rng.integers(0, 8)))
        b = "".join(rng.choice(list(alpha), size=rng.integers(0, 8)))
        ref = con.execute("SELECT levenshtein(?, ?)", [a, b]).fetchone()[0]
        for cap in (1, 2, 3):
            got = _levenshtein_banded(a, b, cap)
            assert got == (ref if ref <= cap else cap + 1), (a, b, cap)


def test_phrase_search_reference_field_semantics(built):
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    from searchengine_ray.query import QueryEngine
    from conftest import oracle_docs
    eng = QueryEngine(built.index_dir, built.cfg)
    docs = oracle_docs(built.table)
    spaces = _term_space(built)

    def brute(phrase):
        toks = set(filter_tokens(tokenize(phrase), built.cfg))
        needle = phrase.lower().strip()
        if not toks or not needle:
            return []
        out = []
        for d in docs:
            if not all(d["doc_id"] in spaces.get(t, ()) for t in toks):
                continue
            title = d["path"].lower()
            meta = (d["repo"] + " " + d["lang"]).lower()
            snip = (d["content"][:200] + "...") if d["content"] else ""
            if needle in title or needle in meta or needle in snip.lower():
                out.append(d["doc_id"])
        return sorted(out)

    for phrase in ("py org2", "src/module", "org0/proj1 java",
                   "nope nothing", ""):
        got = eng.phrase_search(phrase)
        assert list(got) == brute(phrase), phrase


def test_facet_counts_matches_results(built):
    from collections import Counter

    from conftest import oracle_docs
    from searchengine_ray.query import QueryEngine
    eng = QueryEngine(built.index_dir, built.cfg)
    meta = {d["doc_id"]: (d["repo"], d["lang"]) for d in oracle_docs(built.table)}
    for q in ("py org2", "queue71", "nosuchterm"):
        res = eng.search(q, top_k=1 << 30)
        repo_c = Counter(meta[r["doc_id"]][0] for r in res)
        lang_c = Counter(meta[r["doc_id"]][1] for r in res)
        expect = sorted([("repo", v, c) for v, c in repo_c.items()]) + \
                 sorted([("lang", v, c) for v, c in lang_c.items()])
        assert eng.facet_counts(q) == expect, q


def test_http_suggest_and_facets_endpoints(http_server):
    srv, app, eng = http_server
    code, body = _get(srv.port, "/api/suggest?q=queue&k=5")
    assert code == 200
    assert body["suggestions"] == [
        {"term": t, "df": d} for t, d in eng.suggest("queue", 5)]
    assert body["suggestions"]  # non-trivial on this corpus
    code, body = _get(srv.port, "/api/suggest?q=")
    assert (code, body) == (200, {"suggestions": []})
    code, body = _get(srv.port, "/api/facets?q=py%20org2")
    assert code == 200
    expect = {}
    for f, v, c in eng.facet_counts("py org2"):
        expect.setdefault(f, {})[v] = c
    assert body["facets"] == expect and "repo" in expect
    # backends without the term dictionary degrade to empty, not 500
    from searchengine_ray.serve import SearchApp

    class _Bare:
        def search(self, q, top_k):
            return []
    bare = SearchApp(_Bare())
    assert bare.api_suggest("x") == {"suggestions": []}
    assert bare.api_facets("x") == {"facets": {}}


def test_global_value_rank_matches_rank_semantics(events_ds):
    from searchengine_ray.pipelines.events import global_value_rank
    df = events_ds.to_pandas()
    vc = (df["value"] * 100).round().astype("int64")
    got = {r["event_id"]: r["rnk"]
           for r in global_value_rank(events_ds).take_all()}
    assert len(got) == len(df)
    for eid, v in zip(df["event_id"], vc):
        assert got[int(eid)] == int((vc > v).sum()) + 1
    # ties share a rank; rank set has gaps exactly at tie runs
    assert min(got.values()) == 1 and max(got.values()) <= len(df)


def test_value_zscore_matches_moments(events_ds):
    from searchengine_ray.pipelines.events import value_zscore
    df = events_ds.to_pandas()
    vc = (df["value"] * 100).round().astype("int64")
    got = {r["event_id"]: r["z_r"]
           for r in value_zscore(events_ds).take_all()}
    for et, g in df.assign(vc=vc).groupby("event_type"):
        n = len(g)
        s, ss = int(g["vc"].sum()), int((g["vc"] ** 2).sum())
        mean = float(s) / float(n)
        sd = ((float(ss) - float(s) * float(s) / float(n)) / float(n)) ** 0.5
        for eid, v in zip(g["event_id"], g["vc"]):
            assert got[int(eid)] == round((float(v) - mean) / sd, 6)


def test_more_like_this_matches_bruteforce(built):
    from collections import Counter

    from conftest import oracle_docs
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    from searchengine_ray.query import QueryEngine
    eng = QueryEngine(built.index_dir, built.cfg)
    docs = oracle_docs(built.table)
    spaces = _term_space(built)
    n = len(docs)
    for seed in (docs[0], docs[17], docs[253]):
        title = seed["path"]
        meta = seed["repo"] + " " + seed["lang"]
        snip = (seed["content"][:200] + "...") if seed["content"] else ""
        toks = filter_tokens(tokenize(" ".join((title, meta, snip))),
                             built.cfg)
        tf = Counter(toks)
        scored = sorted(((c * ((n * 1_000_000) // len(spaces[t])), t)
                         for t, c in tf.items() if t in spaces),
                        key=lambda r: (-r[0], r[1]))
        query = " ".join(t for _, t in scored[:5])
        expect = [r for r in eng.search(query, top_k=11)
                  if r["doc_id"] != seed["doc_id"]][:10]
        got = eng.more_like_this(seed["doc_id"], top_k=10, n_terms=5)
        assert got == expect
        assert all(r["doc_id"] != seed["doc_id"] for r in got)
        assert got  # non-trivial on this corpus


def test_http_related_endpoint(http_server):
    srv, app, eng = http_server
    seed = eng.search("py org2", top_k=1)[0]["doc_id"]
    code, body = _get(srv.port, f"/api/related?doc_id={seed}&k=5")
    assert code == 200
    expect = app._filter_tag(eng.more_like_this(seed, top_k=5))
    assert body["results"] == expect and body["total"] == len(expect)
    # unknown / missing doc_id degrade to empty, not 500
    code, body = _get(srv.port, "/api/related?doc_id=1")
    assert (code, body["results"]) == (200, [])
    code, body = _get(srv.port, "/api/related")
    assert (code, body) == (200, {"results": [], "total": 0})


def test_sharded_extended_serving_bit_identical(built):
    """boolean/phrase/suggest/fuzzy/facets/MLT over the range-sharded
    tier must be bit-identical to the single engine, in BOTH in-process
    and actor modes (per-shard range-decoded sets partition the answer)."""
    import ray
    from searchengine_ray.query import QueryEngine, ShardedQueryService
    eng = QueryEngine(built.index_dir, built.cfg)
    seed = eng.search("py org2", top_k=1)[0]["doc_id"]
    for use_actors in (False, True):
        svc = ShardedQueryService(built.index_dir, built.cfg,
                                  num_shards=3, use_actors=use_actors)
        try:
            for q, mode, ex in (("py org2", "and", ""),
                                ("queue71 java", "or", ""),
                                ("py", "and", "org2")):
                assert np.array_equal(
                    svc.boolean_search(q, mode=mode, exclude=ex),
                    eng.boolean_search(q, mode=mode, exclude=ex)), (q, mode)
            for ph in ("py org2", "src/module"):
                assert np.array_equal(svc.phrase_search(ph),
                                      eng.phrase_search(ph)), ph
            assert svc.suggest("qu", 5) == eng.suggest("qu", 5)
            assert svc.fuzzy_terms("py", 1) == eng.fuzzy_terms("py", 1)
            assert svc.facet_counts("py org2") == eng.facet_counts("py org2")
            assert svc.more_like_this(seed, top_k=10) == \
                eng.more_like_this(seed, top_k=10)
            assert svc.search_corrected("qeue71", top_k=5) == \
                eng.search_corrected("qeue71", top_k=5)
        finally:
            svc.shutdown()


def test_query_service_extended_serving_delegates(built):
    from searchengine_ray.query import QueryEngine, QueryService
    eng = QueryEngine(built.index_dir, built.cfg)
    svc = QueryService(built.index_dir, built.cfg, num_actors=2)
    try:
        assert np.array_equal(svc.boolean_search("py org2"),
                              eng.boolean_search("py org2"))
        assert np.array_equal(svc.phrase_search("py org2"),
                              eng.phrase_search("py org2"))
        assert svc.suggest("qu", 5) == eng.suggest("qu", 5)
        assert svc.fuzzy_terms("py", 1) == eng.fuzzy_terms("py", 1)
        assert svc.facet_counts("queue71") == eng.facet_counts("queue71")
        seed = eng.search("py org2", top_k=1)[0]["doc_id"]
        assert svc.more_like_this(seed) == eng.more_like_this(seed)
        assert svc.search_corrected("qeue71", top_k=5) == \
            eng.search_corrected("qeue71", top_k=5)
    finally:
        svc.shutdown()


def test_funnel_matches_bruteforce(ray_session):
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import funnel

    rng = np.random.default_rng(9)
    n = 2000
    users = rng.integers(0, 60, size=n)
    ts = rng.integers(0, 10_000, size=n) * 1_000_000
    types = rng.choice(["view", "click", "purchase", "error"], size=n,
                       p=[0.4, 0.3, 0.1, 0.2])
    # plant edge cases: ts tie between consecutive steps (must NOT count),
    # purchase before click (must not count), full funnel
    users = np.concatenate([users, [100, 100, 101, 101, 101, 102, 102,
                                    102, 103]])
    ts = np.concatenate([ts, [5, 5, 7, 3, 9, 1, 2, 3, 4]])
    types = np.concatenate([types, ["view", "click",          # tie: stage 1
                                    "click", "view", "purchase",  # v@3 c@7 p@9
                                    "view", "click", "purchase",  # full
                                    "purchase"]])                 # stage 0
    t = pa.table({
        "user_id": pa.array(users, type=pa.int64()),
        "ts": pa.array([pd.Timestamp(int(x), unit="us") for x in ts],
                       type=pa.timestamp("us")),
        "event_type": pa.array(list(types), type=pa.string()),
    })
    got = {r["user_id"]: r["stage"]
           for r in funnel(ray.data.from_arrow(t).repartition(6)).take_all()}

    def brute(u):
        ev = sorted((int(b), str(c)) for a, b, c in
                    zip(users, ts, types) if a == u)
        bound, stage = -1 << 62, 0
        for step in ("view", "click", "purchase"):
            cand = [x for x, c in ev if c == step and x > bound]
            if not cand:
                break
            bound = min(cand)
            stage += 1
        return stage

    assert set(got) == set(int(u) for u in users)
    for u in set(int(u) for u in users):
        assert got[u] == brute(u), u
    assert (got[100], got[101], got[102], got[103]) == (1, 3, 3, 0)


def test_retention_matches_bruteforce(ray_session):
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import WEEK_US, retention

    rng = np.random.default_rng(17)
    n = 3000
    users = rng.integers(0, 80, size=n)
    ts = rng.integers(0, 12 * WEEK_US, size=n)   # ~12 weeks of activity
    t = pa.table({
        "user_id": pa.array(users, type=pa.int64()),
        "ts": pa.array([pd.Timestamp(int(x), unit="us") for x in ts],
                       type=pa.timestamp("us")),
    })
    got = sorted((r["cohort_week"], r["week_offset"], r["n_users"])
                 for r in retention(
                     ray.data.from_arrow(t).repartition(9)).take_all())
    cohort = {}
    for u, x in zip(users, ts):
        cohort[u] = min(cohort.get(u, 1 << 62), int(x) // WEEK_US)
    cells = {}
    for u, x in zip(users, ts):
        key = (cohort[u], int(x) // WEEK_US - cohort[u])
        cells.setdefault(key, set()).add(int(u))
    expect = sorted((cw, off, len(s)) for (cw, off), s in cells.items())
    assert got == expect
    # offset 0 of every cohort contains every user of that cohort
    week0 = {cw: nu for cw, off, nu in got if off == 0}
    from collections import Counter
    assert week0 == Counter(cohort.values())


def test_spell_correction_did_you_mean(built):
    from searchengine_ray.query import QueryEngine, _levenshtein_banded
    eng = QueryEngine(built.index_dir, built.cfg)
    spaces = _term_space(built)
    # 'qeue71' is one deletion from 'queue71' and not itself a term
    assert "qeue71" not in spaces and "queue71" in spaces
    assert eng.corrected_query("qeue71") == "queue71"
    # known tokens pass through untouched
    assert eng.corrected_query("queue71 py") == "queue71 py"
    # the correction picks (min distance, max df, term) deterministically
    tok = "qu"  # distance-1 neighbors exist? construct from vocab instead
    res, used = eng.search_corrected("qeue71", top_k=5)
    assert used == "queue71" and res == eng.search("queue71", top_k=5)
    # as-typed hits win: no correction fires
    res2, used2 = eng.search_corrected("queue71", top_k=5)
    assert used2 == "queue71" and res2 == eng.search("queue71", top_k=5)
    # unfixable garbage: empty results, original query reported
    res3, used3 = eng.search_corrected("zzqzzqzz", top_k=5)
    assert res3 == [] and used3 == "zzqzzqzz"
    # tie-break parity with the documented rule on a real unknown token
    for t in ("javq", "stredm"):
        cands = eng.fuzzy_terms(t, 1)
        if cands:
            best = min(cands, key=lambda r: (
                _levenshtein_banded(t, r[0], 1), -r[1], r[0]))
            assert eng.corrected_query(t) == best[0], t


def test_http_did_you_mean_hint(http_server):
    srv, app, eng = http_server
    code, body = _get(srv.port, "/search?q=qeue71")
    assert code == 200 and body["results"] == []
    assert body["did_you_mean"] == "queue71"
    code, body = _get(srv.port, "/search?q=queue71")
    assert code == 200 and body["results"]
    assert "did_you_mean" not in body


def test_interarrival_matches_lag(events_ds):
    from searchengine_ray.pipelines.events import interarrival
    df = events_ds.to_pandas()
    # the fixture ts is ns-typed; the operator preserves the input unit
    ts_us = df["ts"].astype("int64")
    got = {r["event_id"]: r["gap_us"]
           for r in interarrival(events_ds).take_all()}
    assert len(got) == len(df)
    work = pd.DataFrame({"user_id": df["user_id"], "event_id": df["event_id"],
                         "ts": ts_us}).sort_values(
        ["user_id", "ts", "event_id"]).reset_index(drop=True)
    prev_u, prev_t = None, None
    for _, row in work.iterrows():
        want = row["ts"] - prev_t if prev_u == row["user_id"] else -1
        assert got[int(row["event_id"])] == want, int(row["event_id"])
        prev_u, prev_t = row["user_id"], row["ts"]


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_boolean_search_property(built, data):
    """Property: boolean_search == per-doc set algebra over the indexed
    term space, for random mixes of indexed vocabulary and garbage
    tokens across modes and exclusion lists."""
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    from searchengine_ray.query import QueryEngine
    global _BOOL_PROP_STATE
    try:
        eng, tsets, vocab = _BOOL_PROP_STATE
    except NameError:
        eng = QueryEngine(built.index_dir, built.cfg)
        spaces = _term_space(built)
        tsets = {}
        for term, ids in spaces.items():
            for i in ids:
                tsets.setdefault(i, set()).add(term)
        vocab = sorted(spaces)
        _BOOL_PROP_STATE = (eng, tsets, vocab)
    pool = vocab + ["zzqx", "nope123"]
    q_toks = data.draw(st.lists(st.sampled_from(pool), min_size=0,
                                max_size=4))
    ex_toks = data.draw(st.lists(st.sampled_from(pool), min_size=0,
                                 max_size=2))
    mode = data.draw(st.sampled_from(["and", "or"]))
    q, ex = " ".join(q_toks), " ".join(ex_toks)
    qt = set(filter_tokens(tokenize(q), built.cfg))
    ext = set(filter_tokens(tokenize(ex), built.cfg))
    if not qt:
        expect = set()
    elif mode == "and":
        expect = {i for i, s in tsets.items() if qt <= s}
    else:
        expect = {i for i, s in tsets.items() if qt & s}
    expect = {i for i in expect if not (ext & tsets[i])}
    got = eng.boolean_search(q, mode=mode, exclude=ex)
    assert list(got) == sorted(expect), (q, mode, ex)


def test_http_boolean_endpoint(http_server):
    srv, app, eng = http_server
    code, body = _get(srv.port, "/api/boolean?q=py%20org2&mode=and&k=5")
    ids = eng.boolean_search("py org2", mode="and")
    assert code == 200
    assert body["total"] == int(ids.size)
    assert body["doc_ids"] == [int(i) for i in ids[:5]]
    code, body = _get(srv.port,
                      "/api/boolean?q=py&mode=or&exclude=org2&k=3")
    ids = eng.boolean_search("py", mode="or", exclude="org2")
    assert (body["total"], body["doc_ids"]) == (int(ids.size),
                                                [int(i) for i in ids[:3]])
    code, body = _get(srv.port, "/api/boolean?q=py&mode=xor")
    assert code == 200 and "error" in body and body["doc_ids"] == []
    code, body = _get(srv.port, "/api/boolean?q=")
    assert (code, body) == (200, {"doc_ids": [], "total": 0})


def _get_text(port: int, path: str):
    import urllib.request
    with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10) as r:
        return r.status, r.headers.get("Content-Type", ""), \
            r.read().decode("utf-8")


def test_http_html_pages(http_server):
    """Reference web surface (index.html + search_results.html): `/` is
    the search form, `/web/search` renders the SAME payload /search
    serves as JSON — every result title/url and the pagination block must
    appear; markup must be standalone (no external assets) and escaped."""
    srv, app, eng = http_server
    status, ctype, home = _get_text(srv.port, "/")
    assert status == 200 and ctype.startswith("text/html")
    assert "<form" in home and 'action="/web/search"' in home
    assert "http" not in home.split("://", 1)[0].lower() or \
        "cdn" not in home.lower()

    status, ctype, page = _get_text(srv.port, "/web/search?q=py+org2")
    assert status == 200 and ctype.startswith("text/html")
    _, payload = _get(srv.port, "/search?q=py+org2")
    assert payload["results"]
    import html as _html
    for r in payload["results"]:
        assert _html.escape(str(r["title"])) in page
        assert _html.escape(str(r["url"]), quote=True) in page
    assert f"{payload['total_results']} results" in page
    if payload["pagination"]["total_pages"] > 1:
        assert "Next" in page and "page=2" in page
        _, _, p2 = _get_text(srv.port, "/web/search?q=py+org2&page=2")
        assert "Previous" in page or "Previous" in p2
    assert "cdnjs" not in page and "url_for" not in page

    # empty query renders the home form (reference app.py:120-121)
    _, _, empty = _get_text(srv.port, "/web/search?q=")
    assert "<form" in empty

    # escaping: a query with markup must come back escaped, never raw
    _, _, esc = _get_text(srv.port, "/web/search?q=%3Cscript%3Ezzz")
    assert "<script" not in esc and "&lt;script" in esc


def test_render_url_scheme_guard(built):
    """html.escape does not neutralize javascript:/data: URL schemes —
    the renderer must only emit an anchor for http(s)/rooted URLs and
    fall back to plain-text titles otherwise (round-4 advice). A
    protocol-relative URL ("//host/x", or "/\\host/x", which browsers
    read the same way) leaves the site, so it is not rooted."""
    from searchengine_ray.query import QueryEngine
    from searchengine_ray.serve import SearchApp
    eng = QueryEngine(built.index_dir, built.cfg)
    app = SearchApp(eng)
    payload = {
        "query": "q", "total_results": 6, "search_source": "bm25",
        "did_you_mean": None,
        "pagination": {"total_pages": 1, "current_page": 1,
                       "has_prev": False, "has_next": False,
                       "prev_page": 0, "next_page": 2},
        "results": [
            {"title": "evil", "url": "javascript:alert(1)",
             "description": "", "content_snippet": "", "score": 1.0,
             "source": ""},
            {"title": "datauri", "url": "data:text/html,x",
             "description": "", "content_snippet": "", "score": 0.9,
             "source": ""},
            {"title": "fine", "url": "https://ok.example/x",
             "description": "", "content_snippet": "", "score": 0.8,
             "source": ""},
            {"title": "pr", "url": "//evil.host/x",
             "description": "", "content_snippet": "", "score": 0.7,
             "source": ""},
            {"title": "bs", "url": "/\\evil.host/x",
             "description": "", "content_snippet": "", "score": 0.6,
             "source": ""},
            {"title": "local", "url": "/local/x",
             "description": "", "content_snippet": "", "score": 0.5,
             "source": ""},
        ],
    }
    app.search = lambda q, page=1: payload
    page = app.render_search_page("q")
    assert "href='javascript:" not in page and "href='data:" not in page
    assert "<h3>evil</h3>" in page and "<h3>datauri</h3>" in page
    assert "<a href='https://ok.example/x'>fine</a>" in page
    assert "<h3>pr</h3>" in page and "<h3>bs</h3>" in page
    assert "href='//" not in page and "href='/\\" not in page
    assert "<a href='/local/x'>local</a>" in page


def test_query_service_preload_segments_identical(built):
    """Actor-pool tier with preload_segments=True must answer identically
    to the lazy default (the warm state is a superset, never different)."""
    from searchengine_ray.query import QueryService
    a = QueryService(built.index_dir, built.cfg, num_actors=1)
    try:
        b = QueryService(built.index_dir, built.cfg, num_actors=1,
                         preload_segments=True)
        try:
            for q in ["queue71", "py org2", "rust engine"]:
                assert a.search(q, top_k=10) == b.search(q, top_k=10), q
        finally:
            b.shutdown()
    finally:
        a.shutdown()


def test_global_value_rank_ranged_identical_and_bounded_fetch(events_ds,
                                                              monkeypatch):
    """The continuous-domain twin must (a) equal the broadcast operator
    row-for-row, (b) never fetch O(distinct-values) rows to the driver —
    only the histogram SAMPLE and the per-bucket totals (≤ 33/block and
    ≤ num_buckets rows respectively), (c) hold under a tiny bucket count
    (heavy ties per bucket) and bucket count ≥ distinct values."""
    import numpy as np
    import ray.data
    from searchengine_ray.pipelines import events as ev

    want = sorted((r["event_id"], r["rnk"]) for r in
                  ev.global_value_rank(events_ds).take_all())

    # spy on driver-side fetches inside the ranged operator: iter_batches
    # is its only driver fetch surface
    fetched = []
    real_iter = ray.data.Dataset.iter_batches

    def spy(self, *a, **kw):
        for b in real_iter(self, *a, **kw):
            fetched.append(len(b))
            yield b

    monkeypatch.setattr(ray.data.Dataset, "iter_batches", spy)
    for nb in (2, 4, 1000):
        got = sorted((r["event_id"], r["rnk"]) for r in
                     ev.global_value_rank(
                         events_ds, num_buckets=nb).take_all())
        assert got == want, nb
    n_events = events_ds.count()
    assert fetched and max(fetched) < max(n_events // 2, 1100), fetched


def test_global_percent_rank_ranged_identical(events_ds):
    from searchengine_ray.pipelines.events import global_percent_rank
    want = sorted((r["event_id"], r["prank_r"]) for r in
                  global_percent_rank(events_ds).take_all())
    got = sorted((r["event_id"], r["prank_r"]) for r in
                 global_percent_rank(events_ds,
                                     num_buckets=3).take_all())
    assert got == want and want


def test_global_value_rank_ranged_adversarial_domains(ray_session):
    """Continuous/negative/tie-heavy value domains through the ranged
    operator must match exact rank() semantics (brute force): uniform
    floats (all-distinct — the O(N) case the twin exists for), negative
    values, one giant tie run, and a single-value corpus."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import global_value_rank

    rng = np.random.default_rng(11)
    domains = {
        "continuous": rng.uniform(-500, 500, size=3000),
        "negative_ints": rng.integers(-50, 0, size=2000).astype(float),
        "giant_tie": np.concatenate([np.full(1500, 7.25),
                                     rng.uniform(0, 10, size=500)]),
        "single_value": np.full(64, -3.13),
    }
    for name, vals in domains.items():
        t = pa.table({
            "event_id": pa.array(np.arange(len(vals), dtype=np.int64)),
            "value": pa.array(vals.astype(np.float64)),
        })
        ds = ray.data.from_arrow(t).repartition(5)
        got = {r["event_id"]: r["rnk"] for r in
               global_value_rank(ds, num_buckets=7).take_all()}
        vc = np.round(vals * 100.0).astype(np.int64)
        assert len(got) == len(vals), name
        for eid in range(0, len(vals), 17):
            want = int((vc > vc[eid]).sum()) + 1
            assert got[eid] == want, (name, eid)


def test_cli_serve_preload_flag_plumbs(built, monkeypatch, capsys):
    """`cli serve --preload` must construct the engine with
    preload_segments=True and serve on it (serve_forever stubbed)."""
    from searchengine_ray import cli, query, serve

    captured = {}
    real_engine = query.QueryEngine

    def spy_engine(index_dir, cfg, **kw):
        captured.update(kw)
        return real_engine(index_dir, cfg, **kw)

    monkeypatch.setattr(query, "QueryEngine", spy_engine)
    monkeypatch.setattr(serve.SearchHTTPServer, "serve_forever",
                        lambda self: None)
    rc = cli.main(["serve", "--index", built.index_dir,
                   "--partitions", "8", "--port", "0", "--preload"])
    assert rc == 0 and captured.get("preload_segments") is True


def test_distinct_users_exact(events_ds):
    from searchengine_ray.pipelines.events import distinct_users_exact
    got = {r["event_type"]: r["distinct_users"]
           for r in distinct_users_exact(events_ds).take_all()}
    df = events_df()
    want = df.groupby("event_type")["user_id"].nunique().to_dict()
    assert got == {k: int(v) for k, v in want.items()} and got


def test_running_total(events_ds):
    from searchengine_ray.pipelines.events import running_total
    got = {r["event_id"]: r["running_c"]
           for r in running_total(events_ds).take_all()}
    df = events_df().sort_values(["user_id", "ts", "event_id"])
    vc = np.round(df["value"].to_numpy() * 100).astype("int64")
    run = pd.Series(vc).groupby(df["user_id"].to_numpy()).cumsum()
    want = dict(zip(df["event_id"].astype("int64"),
                    run.astype("int64")))
    assert got == want and len(got) == len(df)


def test_value_histogram(events_ds):
    from searchengine_ray.pipelines.events import value_histogram
    got = {(r["event_type"], r["bin"]): r["n"]
           for r in value_histogram(events_ds).take_all()}
    df = events_df()
    vc = np.round(df["value"].to_numpy() * 100).astype("int64")
    bins = np.floor_divide(vc, 500)
    want: dict = {}
    for t, b in zip(df["event_type"], bins):
        k = (t, int(b))
        want[k] = want.get(k, 0) + 1
    assert got == want and sum(got.values()) == len(df)


def _median_want(df: pd.DataFrame) -> dict:
    vc = np.round(df["value"].to_numpy() * 100).astype("int64")
    out = {}
    for t in df["event_type"].unique():
        v = np.sort(vc[(df["event_type"] == t).to_numpy()])
        out[t] = int(v[(len(v) + 1) // 2 - 1])
    return out


def test_value_median_exact(events_ds):
    from searchengine_ray.pipelines.events import value_median_exact
    got = {r["event_type"]: r["median_c"]
           for r in value_median_exact(events_ds).take_all()}
    assert got == _median_want(events_df()) and got


def test_value_median_exact_adversarial_domains(ray_session):
    """Tie-heavy / negative / constant / tiny domains, with a tiny
    fetch_threshold so the refinement loop actually iterates, across
    bucket counts (output must be independent of both knobs)."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import value_median_exact
    rng = np.random.default_rng(7)
    domains = {
        "ties": np.repeat([-5.0, 0.0, 0.25, 7.5], 250),
        "negative": rng.normal(-1e4, 5e3, size=1001),
        "constant": np.full(37, 3.14),
        "two": np.array([1.0, 2.0]),
        "one": np.array([-0.41]),
        "spread": rng.uniform(-1e6, 1e6, size=2000),
    }
    for name, vals in domains.items():
        types = np.where(np.arange(len(vals)) % 3 == 0, "a", "b")
        tbl = pa.table({"event_type": pa.array(types),
                        "value": pa.array(vals.astype(np.float64))})
        df = pd.DataFrame({"event_type": types, "value": vals})
        want = _median_want(df)
        for nb, thr in ((3, 4), (32, 1), (8, 100000)):
            got = {r["event_type"]: r["median_c"] for r in
                   value_median_exact(ray.data.from_arrow(tbl),
                                      num_buckets=nb,
                                      fetch_threshold=thr).take_all()}
            assert got == want, (name, nb, thr)


def test_value_median_exact_bounded_fetch(events_ds, monkeypatch):
    """With a small fetch_threshold the driver must never fetch a batch
    anywhere near the event count — digests + ≤ threshold values only."""
    import ray.data
    from searchengine_ray.pipelines import events as ev
    fetched = []
    real_iter = ray.data.Dataset.iter_batches

    def spy(self, *a, **kw):
        for b in real_iter(self, *a, **kw):
            fetched.append(len(b))
            yield b

    monkeypatch.setattr(ray.data.Dataset, "iter_batches", spy)
    got = {r["event_type"]: r["median_c"] for r in
           ev.value_median_exact(events_ds,
                                 fetch_threshold=64).take_all()}
    assert got == _median_want(events_df())
    n = events_ds.count()
    assert fetched and max(fetched) < max(n // 4, 1100), max(fetched)


def test_top_n_by_value(events_ds):
    from searchengine_ray.pipelines.events import top_n_by_value
    rows = sorted(top_n_by_value(events_ds, n=37).take_all(),
                  key=lambda r: r["rnk"])
    df = events_df()
    vc = np.round(df["value"].to_numpy() * 100).astype("int64")
    eid = df["event_id"].to_numpy().astype("int64")
    order = np.lexsort((eid, -vc))[:37]
    want = [(i + 1, int(eid[o]), int(vc[o]))
            for i, o in enumerate(order)]
    assert [(r["rnk"], r["event_id"], r["vc"]) for r in rows] == want
    assert len(rows) == 37


def test_value_quantile_exact_p90_and_extremes(ray_session):
    """q generalization: p90, p10, max (q=1) across domains, tiny
    thresholds — vs brute-force k = ceil(q*n)."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import value_quantile_exact
    rng = np.random.default_rng(11)
    vals = np.r_[rng.normal(0, 1e4, 997), np.repeat([42.0, -42.0], 100)]
    types = np.where(np.arange(len(vals)) % 2 == 0, "a", "b")
    tbl = pa.table({"event_type": pa.array(types),
                    "value": pa.array(vals.astype(np.float64))})
    vc = np.round(vals * 100).astype(np.int64)
    for q_num, q_den in ((9, 10), (1, 10), (1, 1)):
        want = {}
        for t in ("a", "b"):
            v = np.sort(vc[types == t])
            k = (q_num * len(v) + q_den - 1) // q_den
            want[t] = int(v[k - 1])
        got = {r["event_type"]: r["q_c"] for r in
               value_quantile_exact(ray.data.from_arrow(tbl), q_num,
                                    q_den, "q_c", num_buckets=4,
                                    fetch_threshold=8).take_all()}
        assert got == want, (q_num, q_den)


def test_type_value_rank_ranged_adversarial(ray_session):
    """Grouped ranged rank vs brute force: tie-heavy, negative,
    single-value and singleton groups, across bucket counts (output
    independent of the knob)."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import type_value_rank_ranged
    rng = np.random.default_rng(3)
    vals = np.r_[np.repeat([5.0, -5.0, 0.0], 200), rng.normal(0, 100, 401),
                 [7.25]]
    types = np.array(["a", "b", "c", "d"])[np.arange(len(vals)) % 4]
    types[-1] = "solo"
    eids = np.arange(len(vals), dtype=np.int64)
    tbl = pa.table({"event_id": pa.array(eids),
                    "event_type": pa.array(types.tolist()),
                    "value": pa.array(vals.astype(np.float64))})
    vc = np.round(vals * 100).astype(np.int64)
    want = {}
    for i in range(len(vals)):
        m = types == types[i]
        want[int(eids[i])] = int((vc[m] > vc[i]).sum()) + 1
    for nb in (2, 5, 64):
        got = {r["event_id"]: r["rnk"] for r in
               type_value_rank_ranged(ray.data.from_arrow(tbl),
                                      num_buckets=nb).take_all()}
        assert got == want, nb


def test_pivot_type_counts(events_ds):
    from searchengine_ray.pipelines.events import (PIVOT_TYPES,
                                                   pivot_type_counts)
    rows = pivot_type_counts(events_ds).take_all()
    df = events_df()
    want_total = df.groupby("user_id").size().to_dict()
    got = {r["user_id"]: r for r in rows}
    assert set(got) == set(want_total)
    for uid, r in got.items():
        sub = df[df["user_id"] == uid]
        assert r["n_total"] == len(sub)
        per = sub["event_type"].value_counts().to_dict()
        for t in PIVOT_TYPES:
            assert r[f"n_{t}"] == per.get(t, 0), (uid, t)
        # pivoted columns partition the whole log (all types known here)
        assert sum(r[f"n_{t}"] for t in PIVOT_TYPES) == r["n_total"]


def test_pivot_unknown_type_counts_only_total(ray_session):
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import pivot_type_counts
    t = pa.table({"user_id": pa.array([1, 1, 2], type=pa.int64()),
                  "event_type": pa.array(["click", "mystery", "mystery"])})
    rows = {r["user_id"]: r for r in
            pivot_type_counts(ray.data.from_arrow(t)).take_all()}
    assert rows[1]["n_click"] == 1 and rows[1]["n_total"] == 2
    assert rows[2]["n_total"] == 1
    assert sum(v for k, v in rows[2].items()
               if k.startswith("n_") and k != "n_total") == 0


def test_user_value_median(events_ds):
    from searchengine_ray.pipelines.events import user_value_median
    got = {r["user_id"]: r["median_c2"]
           for r in user_value_median(events_ds).take_all()}
    df = events_df()
    vc = np.round(df["value"].to_numpy() * 100).astype("int64")
    want = {}
    for uid, grp in pd.Series(vc).groupby(df["user_id"].to_numpy()):
        v = np.sort(grp.to_numpy())
        want[int(uid)] = int(v[(len(v) - 1) // 2] + v[len(v) // 2])
    assert got == want and got


def test_user_value_median_adversarial(ray_session):
    """Even/odd counts, negatives, ties, singleton users."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import user_value_median
    uids = [1, 1, 1, 2, 2, 3, 4, 4, 4, 4]
    vals = [-1.0, 5.0, 2.0, 0.0, 0.01, -7.77, 3.0, 3.0, 3.0, 9.0]
    t = pa.table({"user_id": pa.array(uids, type=pa.int64()),
                  "value": pa.array(vals, type=pa.float64())})
    got = {r["user_id"]: r["median_c2"] for r in
           user_value_median(ray.data.from_arrow(t).repartition(4))
           .take_all()}
    assert got == {1: 400, 2: 1, 3: -1554, 4: 600}


def test_type_transitions(events_ds):
    from searchengine_ray.pipelines.events import type_transitions
    got = {(r["prev_type"], r["next_type"]): r["n"]
           for r in type_transitions(events_ds).take_all()}
    df = events_df().sort_values(["user_id", "ts", "event_id"])
    want: dict = {}
    prev_u = prev_t = None
    for u, t in zip(df["user_id"], df["event_type"]):
        if u == prev_u:
            k = (prev_t, t)
            want[k] = want.get(k, 0) + 1
        prev_u, prev_t = u, t
    assert got == want and got
    assert sum(got.values()) == len(df) - df["user_id"].nunique()


def test_latest_per_user(events_ds):
    from searchengine_ray.pipelines.events import latest_per_user
    rows = latest_per_user(events_ds).take_all()
    df = events_df()
    idx = (df.assign(ts_us=df["ts"].astype("datetime64[us]").astype("int64"))
             .sort_values(["ts_us", "event_id"])
             .groupby("user_id").tail(1))
    want = {int(r.user_id): (int(r.event_id), int(r.ts_us), r.event_type,
                             int(np.round(r.value * 100)))
            for r in idx.itertuples()}
    got = {r["user_id"]: (r["event_id"], r["ts_us"], r["event_type"],
                          r["vc"]) for r in rows}
    assert got == want and len(rows) == df["user_id"].nunique()


def test_value_outliers(events_ds):
    from searchengine_ray.pipelines.events import value_outliers
    got = {r["event_type"]: (r["n_low"], r["n_high"])
           for r in value_outliers(events_ds).take_all()}
    df = events_df()
    vc = np.round(df["value"].to_numpy() * 100).astype("int64")
    want = {}
    for t in df["event_type"].unique():
        v = np.sort(vc[(df["event_type"] == t).to_numpy()])
        n = len(v)
        p25 = int(v[(n + 3) // 4 - 1])        # k = ceil(n/4)
        p75 = int(v[(3 * n + 3) // 4 - 1])    # k = ceil(3n/4)
        lo2, hi2 = 2 * p25 - 3 * (p75 - p25), 2 * p75 + 3 * (p75 - p25)
        want[t] = (int((2 * v < lo2).sum()), int((2 * v > hi2).sum()))
    assert got == want and got


def test_value_outliers_synthetic_has_outliers(ray_session):
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import value_outliers
    vals = np.r_[np.linspace(0, 10, 400), [1e5, -1e5, 2e5]]
    t = pa.table({
        "event_id": pa.array(np.arange(len(vals), dtype=np.int64)),
        "event_type": pa.array(["a"] * len(vals)),
        "value": pa.array(vals.astype(np.float64)),
    })
    [row] = value_outliers(ray.data.from_arrow(t).repartition(4)) \
        .take_all()
    assert row["n_low"] == 1 and row["n_high"] == 2


# ---------------------------------------------------------------------------
# property tests: random event tables — grouped ops == pandas always
# ---------------------------------------------------------------------------

from hypothesis import HealthCheck, given, settings as hyp_settings
from hypothesis import strategies as st


@hyp_settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(
    st.tuples(st.integers(0, 6),                      # user_id
              st.integers(-10_000, 10_000),           # value cents
              st.sampled_from(["a", "b", "c"])),      # event_type
    min_size=1, max_size=120))
def test_user_value_median_property(ray_session, rows):
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import user_value_median
    uid = np.array([r[0] for r in rows], dtype=np.int64)
    vc = np.array([r[1] for r in rows], dtype=np.int64)
    t = pa.table({"user_id": pa.array(uid),
                  "value": pa.array(vc / 100.0)})
    got = {r["user_id"]: r["median_c2"] for r in
           user_value_median(ray.data.from_arrow(t).repartition(3))
           .take_all()}
    want = {}
    for u in np.unique(uid):
        v = np.sort(vc[uid == u])
        want[int(u)] = int(v[(len(v) - 1) // 2] + v[len(v) // 2])
    assert got == want


@hyp_settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(
    st.tuples(st.integers(0, 5),                      # user_id
              st.integers(0, 50),                     # ts offset
              st.sampled_from(["a", "b", "c"])),      # event_type
    min_size=1, max_size=100))
def test_type_transitions_property(ray_session, rows):
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import type_transitions
    uid = np.array([r[0] for r in rows], dtype=np.int64)
    ts = np.array([r[1] for r in rows], dtype=np.int64)
    et = [r[2] for r in rows]
    eid = np.arange(len(rows), dtype=np.int64)
    t = pa.table({"user_id": pa.array(uid),
                  "ts": pa.array(ts, type=pa.int64()),
                  "event_id": pa.array(eid),
                  "event_type": pa.array(et)})
    got = {(r["prev_type"], r["next_type"]): r["n"] for r in
           type_transitions(ray.data.from_arrow(t).repartition(3))
           .take_all()}
    order = np.lexsort((eid, ts, uid))
    want: dict = {}
    for i, j in zip(order[:-1], order[1:]):
        if uid[i] == uid[j]:
            k = (et[i], et[j])
            want[k] = want.get(k, 0) + 1
    assert got == want


def test_throttle(events_ds):
    from searchengine_ray.pipelines.events import THROTTLE_GAP_US, throttle
    got = {r["event_id"]: r["kept"] for r in throttle(events_ds).take_all()}
    df = (events_df()
          .assign(ts_us=lambda d: d["ts"].astype("datetime64[us]")
                  .astype("int64"))
          .sort_values(["user_id", "event_type", "ts_us", "event_id"]))
    want = {}
    prev: dict = {}
    for r in df.itertuples():
        k = (r.user_id, r.event_type)
        want[int(r.event_id)] = (k not in prev
                                 or r.ts_us - prev[k] > THROTTLE_GAP_US)
        prev[k] = r.ts_us
    assert got == want
    assert any(got.values()) and not all(got.values())


def test_throttle_chained(events_ds):
    """Chained debounce: gap measured from the last KEPT event — the
    greedy prefix-dependent recurrence, checked against a sequential
    reference walk; also pinned to differ from lag semantics on a
    hand-built 0 / 0.6g / 1.2g sequence (lag keeps only the first,
    chained also keeps the third)."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import (THROTTLE_GAP_US,
                                                   throttle_chained)
    got = {r["event_id"]: r["kept"]
           for r in throttle_chained(events_ds).take_all()}
    df = (events_df()
          .assign(ts_us=lambda d: d["ts"].astype("datetime64[us]")
                  .astype("int64"))
          .sort_values(["user_id", "event_type", "ts_us", "event_id"]))
    want = {}
    anchor: dict = {}
    for r in df.itertuples():
        k = (r.user_id, r.event_type)
        keep = k not in anchor or r.ts_us - anchor[k] > THROTTLE_GAP_US
        want[int(r.event_id)] = keep
        if keep:
            anchor[k] = r.ts_us
    assert got == want
    assert any(got.values()) and not all(got.values())

    g = THROTTLE_GAP_US
    t = pa.table({
        "event_id": pa.array([1, 2, 3], type=pa.int64()),
        "user_id": pa.array([7, 7, 7], type=pa.int64()),
        "event_type": pa.array(["click"] * 3),
        "ts": pa.array([0, 6 * g // 10, 12 * g // 10],
                       type=pa.timestamp("us")),
    })
    out = {r["event_id"]: r["kept"]
           for r in throttle_chained(ray.data.from_arrow(t)).take_all()}
    assert out == {1: True, 2: False, 3: True}


def test_sliding_distinct_users(ray_session):
    """Hand-built boundary case: each event must appear in EXACTLY
    width/step windows (grid identity, no predicate), duplicates of a
    user within a window count once, and counts match a brute pass."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import sliding_distinct_users
    W, S = 40, 10          # width 40, step 10 → fan 4
    evs = [  # (user, ts)
        (1, 0), (1, 5), (2, 10), (3, 39), (3, 40), (1, 100),
    ]
    t = pa.table({
        "user_id": pa.array([u for u, _ in evs], type=pa.int64()),
        "ts": pa.array([ts for _, ts in evs], type=pa.timestamp("us")),
    })
    got = {r["window_start_us"]: r["n_users"] for r in
           sliding_distinct_users(ray.data.from_arrow(t),
                                  width_us=W, step_us=S).take_all()}
    want: dict = {}
    for u, ts in evs:
        for k in range(W // S):
            w = (ts // S - k) * S
            want.setdefault(w, set()).add(u)
    assert got == {w: len(us) for w, us in want.items()}
    # window [40,80) holds only the ts=40 event; [0,40) holds users
    # 1,2,3; [-30,10) reaches back to only the ts<10 events (user 1)
    assert got[40] == 1 and got[0] == 3 and got[-30] == 1


def test_user_rfm(events_ds):
    """RFM segmentation: one row per user; bins follow the certified
    quartile convention (bin = Σ(v > ceil(q·n)-th smallest)) — checked
    brute-force on all three dimensions."""
    from searchengine_ray.pipelines.events import user_rfm
    rows = {r["user_id"]: (r["r_bin"], r["f_bin"], r["m_bin"])
            for r in user_rfm(events_ds).take_all()}
    df = (events_df()
          .assign(ts_us=lambda d: d["ts"].astype("datetime64[us]")
                  .astype("int64"),
                  vc=lambda d: np.round(d["value"] * 100).astype("int64")))
    g = df.groupby("user_id").agg(r=("ts_us", "max"), f=("vc", "size"),
                                  m=("vc", "sum"))
    assert len(rows) == len(g)
    want = {}
    cuts = {}
    for d in ("r", "f", "m"):
        v = np.sort(g[d].to_numpy())
        n = len(v)
        cuts[d] = [int(v[(qn * n + qd - 1) // qd - 1])
                   for qn, qd in ((1, 4), (1, 2), (3, 4))]
    for uid, row in g.iterrows():
        want[int(uid)] = tuple(
            int(sum(int(row[d]) > c for c in cuts[d]))
            for d in ("r", "f", "m"))
    assert rows == want
    for i in range(3):
        assert {v[i] for v in rows.values()} == {0, 1, 2, 3}


def test_value_quartile(events_ds):
    from searchengine_ray.pipelines.events import value_quartile
    got = {r["event_id"]: r["quartile"]
           for r in value_quartile(events_ds).take_all()}
    df = events_df()
    vc = np.round(df["value"].to_numpy() * 100).astype("int64")
    want = {}
    for t in df["event_type"].unique():
        m = (df["event_type"] == t).to_numpy()
        v = np.sort(vc[m])
        n = len(v)
        cuts = [int(v[(q * n + 3) // 4 - 1]) for q in (1, 2, 3)]
        for eid, x in zip(df["event_id"].to_numpy()[m], vc[m]):
            want[int(eid)] = sum(int(x) > c for c in cuts)
    assert got == want
    # all four bins populated per the definition
    assert set(got.values()) == {0, 1, 2, 3}


def test_hourly_seasonality(events_ds):
    from searchengine_ray.pipelines.events import hourly_seasonality
    got = {(r["hour"], r["event_type"]): r["n_events"]
           for r in hourly_seasonality(events_ds).take_all()}
    df = events_df()
    hr = (df["ts"].astype("datetime64[us]").astype("int64")
          // 3_600_000_000) % 24
    want: dict = {}
    for h, t in zip(hr, df["event_type"]):
        want[(int(h), t)] = want.get((int(h), t), 0) + 1
    assert got == want and sum(got.values()) == len(df)


def test_conversion_time(events_ds):
    from searchengine_ray.pipelines.events import conversion_time
    got = {r["user_id"]: r["delta_us"]
           for r in conversion_time(events_ds).take_all()}
    df = events_df().assign(
        ts_us=lambda d: d["ts"].astype("datetime64[us]").astype("int64"))
    want = {}
    for uid, grp in df.groupby("user_id"):
        s = grp[grp["event_type"] == "signup"]["ts_us"]
        if s.empty:
            continue
        a = int(s.min())
        p = grp[(grp["event_type"] == "purchase")
                & (grp["ts_us"] >= a)]["ts_us"]
        if not p.empty:
            want[int(uid)] = int(p.min()) - a
    assert got == want and got


def test_conversion_time_edge_cases(ray_session):
    """No anchor, anchor after all targets, target exactly at anchor."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import conversion_time
    rows = [
        (1, 100, "purchase"),   # purchase before any signup
        (1, 200, "signup"),
        (1, 300, "purchase"),   # converts: 100
        (2, 50, "purchase"),    # never signs up
        (3, 70, "signup"),
        (3, 70, "purchase"),    # same-ts conversion: 0
        (4, 10, "signup"),      # never purchases after
    ]
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] for r in rows], type=pa.int64()),
        "event_type": pa.array([r[2] for r in rows]),
    })
    got = {r["user_id"]: r["delta_us"] for r in
           conversion_time(ray.data.from_arrow(t).repartition(3))
           .take_all()}
    assert got == {1: 100, 3: 0}


@hyp_settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(rows=st.lists(
    st.tuples(st.integers(0, 4),                        # user_id
              st.integers(0, 1000),                     # ts
              st.sampled_from(["signup", "purchase", "view"])),
    min_size=1, max_size=80))
def test_conversion_time_property(ray_session, rows):
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import conversion_time
    t = pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array([r[1] for r in rows], type=pa.int64()),
        "event_type": pa.array([r[2] for r in rows]),
    })
    got = {r["user_id"]: r["delta_us"] for r in
           conversion_time(ray.data.from_arrow(t).repartition(2))
           .take_all()}
    want = {}
    by_user: dict = {}
    for u, ts, et in rows:
        by_user.setdefault(u, []).append((ts, et))
    for u, evs in by_user.items():
        anchors = [ts for ts, et in evs if et == "signup"]
        if not anchors:
            continue
        a = min(anchors)
        targets = [ts for ts, et in evs
                   if et == "purchase" and ts >= a]
        if targets:
            want[u] = min(targets) - a
    assert got == want


def test_trend_slope(events_ds):
    from searchengine_ray.pipelines.events import (TREND_SCALE,
                                                   TREND_T0_MIN,
                                                   trend_slope)
    got = {r["event_type"]: (r["n_events"], r["slope_u"])
           for r in trend_slope(events_ds).take_all()}
    df = events_df()
    t = (df["ts"].astype("datetime64[us]").astype("int64")
         // 60_000_000 - TREND_T0_MIN)
    y = np.round(df["value"].to_numpy() * 100).astype("int64")
    want = {}
    for typ in df["event_type"].unique():
        m = (df["event_type"] == typ).to_numpy()
        ti = [int(x) for x in t[m]]
        yi = [int(x) for x in y[m]]
        n = len(ti)
        num = (n * sum(a * b for a, b in zip(ti, yi))
               - sum(ti) * sum(yi)) * TREND_SCALE
        den = n * sum(a * a for a in ti) - sum(ti) ** 2
        if den == 0:
            continue
        q = abs(num) // den
        want[typ] = (n, q if num >= 0 else -q)
    assert got == want and got
    # sanity: the slope approximates the float OLS fit
    for typ, (n, s) in got.items():
        m = (df["event_type"] == typ).to_numpy()
        fit = np.polyfit(t[m].to_numpy().astype(float),
                         y[m].astype(float), 1)[0]
        assert s / 1e6 == pytest.approx(fit, abs=2e-6)  # 1e-6 trunc


def test_trend_slope_degenerate_time(ray_session):
    """All events at one minute -> zero variance -> group omitted."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import trend_slope
    t = pa.table({
        "ts": pa.array([1_700_000_000_000_000] * 5, type=pa.int64()),
        "event_type": pa.array(["a"] * 5),
        "value": pa.array([1.0, 2.0, 3.0, 4.0, 5.0]),
    })
    assert trend_slope(ray.data.from_arrow(t)).take_all() == []


def test_value_time_corr(events_ds):
    from searchengine_ray.pipelines.events import (TREND_T0_MIN,
                                                   value_time_corr)
    got = {r["event_type"]: (r["n_events"], r["corr_r"])
           for r in value_time_corr(events_ds).take_all()}
    df = events_df()
    t = (df["ts"].astype("datetime64[us]").astype("int64")
         // 60_000_000 - TREND_T0_MIN)
    y = np.round(df["value"].to_numpy() * 100).astype("int64")
    for typ, (n, c) in got.items():
        m = (df["event_type"] == typ).to_numpy()
        assert n == int(m.sum())
        ref = np.corrcoef(t[m].to_numpy().astype(float),
                          y[m].astype(float))[0, 1]
        assert c == pytest.approx(ref, abs=2e-6)
    assert got and all(-1.0 <= c <= 1.0 for _, c in got.values())
