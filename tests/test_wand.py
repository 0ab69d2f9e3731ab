"""Block-max WAND: exactness vs the exhaustive scorer + real block skipping.

The boosted path must be bit-identical to QueryEngine.search() (the
MAX_BOOST ceiling folds into the prune bound); the base path must equal
brute base-score top-k AND demonstrably skip blocks on a skewed corpus
(wand.py module docstring derives why skipping needs the boost-free
ceiling at BM25's saturation constants).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from searchengine_ray.codec import (decode_postings,
                                    decode_postings_blocks,
                                    encode_postings,
                                    postings_block_meta)


def test_decode_postings_blocks_matches_slice():
    rng = np.random.default_rng(7)
    ids = np.unique(rng.integers(0, 1 << 62, size=1500).astype(np.uint64))
    tfs = rng.uniform(1, 9, size=len(ids)).astype(np.float32)
    buf = encode_postings(ids, tfs, block_size=64)
    n, bs, nblocks, lasts = postings_block_meta(buf)
    assert n == len(ids) and bs == 64
    full_ids, full_tfs = decode_postings(buf)
    for b_lo, b_hi in [(0, 1), (0, nblocks), (3, 7), (nblocks - 1, nblocks),
                       (5, 5), (2, 3)]:
        gi, gt = decode_postings_blocks(buf, b_lo, b_hi)
        lo, hi = b_lo * bs, min(n, b_hi * bs)
        if b_hi <= b_lo:
            assert gi.size == 0
            continue
        assert np.array_equal(gi, full_ids[lo:hi])
        assert np.array_equal(gt, full_tfs[lo:hi])
    # directory sanity: lasts really are the block-final doc ids
    assert np.array_equal(
        lasts, full_ids[np.minimum(np.arange(1, nblocks + 1) * bs, n) - 1])


def _corpus_table(rows):
    return pa.table({
        "repo": pa.array([r[0] for r in rows]),
        "path": pa.array([r[1] for r in rows]),
        "commit": pa.array(["0" * 40] * len(rows)),
        "lang": pa.array(["txt"] * len(rows)),
        "content": pa.array([r[2] for r in rows]),
    })


def test_search_wand_identical_to_search(built):
    """Boosted WAND = search() exactly (docs AND scores), across
    single/multi-term, duplicate-token, camelCase, phrase-ish, absent
    and zero-idf queries on the session corpus."""
    from searchengine_ray.query import QueryEngine
    eng = QueryEngine(built.index_dir, built.cfg)
    for q in ["queue71", "py org2", "src/module_96/file_25.py",
              "parse token stream", "hashMap codec", "queue71 queue71",
              "rust engine", "vector matrix", "def", "zzz-missing", ""]:
        a = eng.search(q, top_k=10)
        b = eng.search_wand(q, top_k=10)
        assert a == b, q


def test_search_wand_identical_on_salted_hot_term(ray_session, tmp_path):
    """A salted hot term probes several sub-lists; WAND must merge them
    identically to postings()."""
    import ray.data
    from searchengine_ray.build import build_index
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.query import QueryEngine
    rng = np.random.default_rng(3)
    rows = []
    for i in range(400):
        # 'salty' in 30% of docs (df >= hot ratio, < N/2) + filler
        body = ("salty " if i % 3 == 0 else "") + \
            " ".join(rng.choice(["alpha", "beta", "gamma", "delta",
                                 "epsilon"], size=12))
        rows.append((f"r{i % 4}", f"f{i}.txt", body))
    cfg = IndexConfig(num_partitions=8, num_length_partitions=2,
                      hot_term_df_ratio=0.05)
    idx = str(tmp_path / "wand_salt_idx")
    m = build_index(ray.data.from_arrow(_corpus_table(rows)), idx, cfg,
                    salt_hot_terms=True)
    eng = QueryEngine(idx, cfg)
    assert "salty" in eng.hot_terms, "corpus must actually salt the term"
    for q in ("salty", "salty alpha", "beta salty beta"):
        assert eng.search(q, top_k=10) == eng.search_wand(q, top_k=10), q


def test_search_wand_base_exact_and_skips_blocks(ray_session, tmp_path):
    """Boost-free WAND tier: equals brute base-score top-k AND decodes
    strictly fewer blocks than exist on a tf/length-skewed corpus (a
    few short title-hit docs dominate; most blocks hold only wtf=1
    long docs whose block UB falls below the running k-th score)."""
    import ray.data
    from searchengine_ray.build import build_index
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.query import QueryEngine
    rng = np.random.default_rng(11)
    filler_vocab = [f"w{j}" for j in range(50)]
    rows = []
    n_hot, n_title, n_cold = 4700, 12, 5000  # df stays below N/2
    for i in range(n_hot):
        body = "hot " + " ".join(rng.choice(filler_vocab, size=60))
        rows.append((f"r{i % 7}", f"plain_{i}.txt", body))
    for i in range(n_title):
        # 'hot' in the PATH (title field, x5 weight) + short body
        rows.append((f"r{i % 7}", f"hot_{i}.txt",
                     "hot " + " ".join(rng.choice(filler_vocab, size=6))))
    for i in range(n_cold):
        rows.append((f"r{i % 7}", f"cold_{i}.txt",
                     " ".join(rng.choice(filler_vocab, size=30))))
    cfg = IndexConfig(num_partitions=8, num_length_partitions=2)
    idx = str(tmp_path / "wand_skew_idx")
    build_index(ray.data.from_arrow(_corpus_table(rows)), idx, cfg,
                salt_hot_terms=False)
    eng = QueryEngine(idx, cfg)
    stats: dict = {}
    got = eng.search_wand_base("hot", top_k=10, stats=stats)
    sc = eng._score_candidates("hot")
    ids, scores = sc[0], sc[1]
    order = np.lexsort((ids, -scores))[:10]
    want = [(int(ids[i]), float(scores[i])) for i in order]
    assert got == want
    # the skew evidence: > 5000 postings = ~40 blocks; only the ~dozen
    # blocks containing a title doc (plus bound-establishing rounds)
    # should decode
    assert stats["blocks_total"] >= 30, stats
    assert stats["blocks_decoded"] < 0.8 * stats["blocks_total"], stats
    # boosted path still exact on the same skewed index
    assert eng.search_wand("hot", top_k=10) == eng.search("hot", top_k=10)


def test_query_service_wand_identical(built):
    """The actor-pool tier's WAND route answers identically to both its
    own exhaustive route and the in-process engine."""
    import ray
    from searchengine_ray.query import QueryEngine, QueryService
    svc = QueryService(built.index_dir, built.cfg, num_actors=1)
    eng = QueryEngine(built.index_dir, built.cfg)
    try:
        for q in ["queue71", "py org2", "rust engine"]:
            assert svc.search_wand(q, top_k=10) == svc.search(q, top_k=10)
            assert svc.search_wand(q, top_k=10) == eng.search(q, top_k=10)
    finally:
        for a in svc._actors:
            ray.kill(a)


def test_search_wand_empty_and_topk_edges(built):
    from searchengine_ray.query import QueryEngine
    eng = QueryEngine(built.index_dir, built.cfg)
    assert eng.search_wand("queue71", top_k=0) == []
    assert eng.search_wand_base("queue71", top_k=0) == []
    # top_k beyond candidate count: full result, still identical
    assert eng.search_wand("queue71", top_k=5000) == \
        eng.search("queue71", top_k=5000)


def test_wand_prune_admits_boost_chain_rounding():
    """wand_select prunes a doc only when its bound times the boost
    ceiling is below θ by more than float rounding. Doc 1 has base score
    x; its full boost chain (x·1.8·3·2·1.25, multiplied in sequence)
    rounds above x·MAX_BOOST and ties θ = the only fully decoded rival's
    base score, so doc 1 (the smaller id) belongs in the top-1. Its
    second list is undecoded with a bound far below x's last ulp, so
    without a relative margin on the ceiling the prune drops it."""
    from searchengine_ray.codec import block_max_tf
    from searchengine_ray.query import QueryEngine
    from searchengine_ray.wand import ListState, wand_select

    def chain(x):
        one = np.ones(1, dtype=bool)
        return float(QueryEngine._boost_math_from(
            None, np.array([x]), lambda f, p, sub=None: one, ["a", "b"],
            "a b")[0])

    rng = np.random.default_rng(3)
    x = next(v for v in rng.uniform(0.5, 2.0, 1000)
             if chain(v) > v * QueryEngine.MAX_BOOST)
    theta = chain(x)
    assert x * QueryEngine.MAX_BOOST < theta

    def make(ids, contribs, idf):
        ids = np.array(ids, dtype=np.uint64)
        tfs = np.ones(len(ids), dtype=np.float32)
        table = dict(zip(ids.tolist(), contribs))
        ls = ListState(term="t", buf=encode_postings(ids, tfs, block_size=1),
                       idf=idf, importance=1.0, mult=1,
                       contrib_fn=lambda i, t: np.array(
                           [table[v] for v in i.tolist()]))
        ls.prepare(block_max_tf(tfs, 1), 1.2, 0.75)
        return ls

    # list A: 8 one-posting blocks, decoded in the first round (M = 8);
    # list B: doc 1 alone, a block bound of ~1e-300
    a = make(range(1, 9), [x, theta] + [x / 2] * 6, idf=1e6)
    b = make([1], [1e-300], idf=1e-300)
    survivors, _ = wand_select([a, b], 1, QueryEngine.MAX_BOOST)
    assert 1 in survivors.tolist()
