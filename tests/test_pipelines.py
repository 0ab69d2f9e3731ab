"""Tests for the training-data pipeline family: dedup, similarity,
multimodal, and the batch codec (SURVEY.md §5 strategy: every distributed
operator has an in-process brute-force oracle)."""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, example, given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as st

from searchengine_ray.config import IndexConfig
from searchengine_ray.functions.tokenizer import filter_tokens, tokenize

CFG = IndexConfig()


def docs_table() -> pa.Table:
    """Small corpus with planted exact dupes and near-dupes."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(50)]
    texts = []
    for i in range(40):
        toks = [vocab[j] for j in rng.integers(0, 50, size=30)]
        texts.append(" ".join(toks))
    texts[10] = texts[3]                       # exact dupe
    texts[25] = texts[7]                       # exact dupe
    base = texts[5].split()
    base[2] = "w49"                            # near dupe of 5 (1 token off)
    texts.append(" ".join(base))               # doc 40
    texts.append(texts[5])                     # doc 41: exact dupe of 5
    return pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts, type=pa.string()),
    })


@pytest.fixture(scope="module")
def docs_ds(docs=None):
    import ray.data
    return ray.data.from_arrow(docs_table())


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------

def test_exact_dedup(docs_ds):
    from searchengine_ray.pipelines.dedup import exact_dedup
    rows = exact_dedup(docs_ds).take_all()
    t = docs_table()
    by_sha: dict[str, list[int]] = {}
    for i, txt in enumerate(t["text"].to_pylist()):
        by_sha.setdefault(hashlib.sha256(txt.encode()).hexdigest(), []).append(i)
    got = {r["content_sha"]: (r["keeper_id"], r["n_copies"]) for r in rows}
    assert got == {s: (min(ids), len(ids)) for s, ids in by_sha.items()}
    # the planted dupes collapse
    assert got[hashlib.sha256(t["text"][3].as_py().encode()).hexdigest()] == (3, 2)
    assert got[hashlib.sha256(t["text"][5].as_py().encode()).hexdigest()] == (5, 2)


# ---------------------------------------------------------------------------
# n-gram jaccard (exact, vs brute force)
# ---------------------------------------------------------------------------

def brute_shingles(text: str, n: int = 3) -> set[str]:
    toks = tokenize(text)
    return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}


def test_ngram_jaccard_matches_brute_force(docs_ds):
    from searchengine_ray.pipelines.dedup import (JACCARD_SCALE,
                                                  ngram_jaccard_pairs)
    tau_u, max_df = 100_000, 200
    rows = ngram_jaccard_pairs(docs_ds, n=3, tau_u=tau_u, max_df=max_df).take_all()
    got = {(r["a_id"], r["b_id"]): (r["inter"], r["uni"], r["jaccard_u"])
           for r in rows}

    t = docs_table()
    texts = t["text"].to_pylist()
    sh = [brute_shingles(x) for x in texts]
    # apply the same hot-shingle cap as the operator contract
    df: dict[str, int] = {}
    for s in sh:
        for g in s:
            df[g] = df.get(g, 0) + 1
    sh = [{g for g in s if 2 <= df[g] <= max_df} for s in sh]
    # union still uses FULL shingle sets? No: operator computes sizes over
    # all distinct shingles per doc (sizes from the exploded set, pre-cap)
    full_sizes = [len(brute_shingles(x)) for x in texts]
    want = {}
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            inter = len(sh[a] & sh[b])
            if inter == 0:
                continue
            uni = full_sizes[a] + full_sizes[b] - inter
            j = (inter * JACCARD_SCALE) // uni
            if j >= tau_u:
                want[(a, b)] = (inter, uni, j)
    assert got == want
    assert (5, 41) in got         # exact dupe pair → jaccard 1.0
    assert got[(5, 41)][2] == JACCARD_SCALE
    assert (5, 40) in got         # near-dupe pair


# ---------------------------------------------------------------------------
# simhash (vs per-doc reference impl) + banded near-dup
# ---------------------------------------------------------------------------

def ref_simhash(text: str) -> int:
    toks = filter_tokens(tokenize(text), CFG)
    tf: dict[str, int] = {}
    for t in toks:
        tf[t] = tf.get(t, 0) + 1
    acc = [0] * 64
    for t, c in tf.items():
        h = int.from_bytes(hashlib.md5(t.encode()).digest()[:8], "big")
        for j in range(64):
            acc[j] += c if (h >> j) & 1 else -c
    sig = 0
    for j in range(64):
        if acc[j] > 0:
            sig |= 1 << j
    return sig


def test_simhash_matches_reference(docs_ds):
    from searchengine_ray.pipelines.dedup import simhash
    rows = simhash(docs_ds, CFG).take_all()
    texts = docs_table()["text"].to_pylist()
    for r in rows:
        want = ref_simhash(texts[r["doc_id"]])
        got = (r["sh0"] | (r["sh1"] << 16) | (r["sh2"] << 32)
               | (r["sh3"] << 48))
        assert got == want, r["doc_id"]


def test_simhash_neardup_complete_up_to_hamming_3(docs_ds):
    from searchengine_ray.pipelines.dedup import simhash_neardup_pairs
    rows = simhash_neardup_pairs(docs_ds, max_hamming=3, cfg=CFG).take_all()
    got = {(r["a_id"], r["b_id"]): r["hamming"] for r in rows}
    texts = docs_table()["text"].to_pylist()
    sigs = [ref_simhash(x) for x in texts]
    want = {}
    for a in range(len(texts)):
        for b in range(a + 1, len(texts)):
            h = bin(sigs[a] ^ sigs[b]).count("1")
            if h <= 3:
                want[(a, b)] = h
    # 4×16-bit banding is COMPLETE for hamming ≤ 3 (pigeonhole)
    assert got == want
    assert got[(5, 41)] == 0      # exact dupes → identical signature


# ---------------------------------------------------------------------------
# minhash LSH
# ---------------------------------------------------------------------------

def test_minhash_lsh_finds_planted_dupes(docs_ds):
    from searchengine_ray.pipelines.dedup import minhash_lsh_pairs
    rows = minhash_lsh_pairs(docs_ds, n=3, num_perm=64, bands=16,
                             tau=0.5).take_all()
    got = {(r["a_id"], r["b_id"]): r["est_matches"] for r in rows}
    # exact dupes have identical signatures → 64/64 matches
    assert got.get((5, 41)) == 64
    assert got.get((3, 10)) == 64
    assert got.get((7, 25)) == 64
    # near-dupe (jaccard ~0.8) found with high estimate
    assert got.get((5, 40), 0) >= 32
    # no false positives below the tau estimate by construction
    assert all(v >= 32 for v in got.values())


def test_minhash_estimate_tracks_true_jaccard(docs_ds):
    from searchengine_ray.pipelines.dedup import minhash_lsh_pairs
    rows = minhash_lsh_pairs(docs_ds, n=3, num_perm=64, bands=16,
                             tau=0.3).take_all()
    texts = docs_table()["text"].to_pylist()
    sh = [brute_shingles(x) for x in texts]
    for r in rows:
        a, b = r["a_id"], r["b_id"]
        true_j = len(sh[a] & sh[b]) / max(1, len(sh[a] | sh[b]))
        est = r["est_matches"] / 64
        assert abs(est - true_j) < 0.3, (a, b, est, true_j)


# ---------------------------------------------------------------------------
# similarity search
# ---------------------------------------------------------------------------

def emb_table(n: int = 120, dim: int = 16) -> pa.Table:
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((4, dim)) * 3
    vecs = centers[np.arange(n) % 4] + rng.standard_normal((n, dim)) * 0.3
    return pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array(vecs.astype(np.float32).tolist(),
                              type=pa.list_(pa.float32())),
    })


@pytest.fixture(scope="module")
def emb_ds():
    import ray.data
    return ray.data.from_arrow(emb_table())


def brute_cosine(t: pa.Table) -> np.ndarray:
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    return m @ m.T


def test_brute_topk_matches_numpy(emb_ds):
    from searchengine_ray.pipelines.similarity import brute_topk
    k, qids = 5, [0, 1, 2]
    out = brute_topk(emb_ds, qids, k=k)
    sims = brute_cosine(emb_table())
    got: dict[int, list[int]] = {}
    for q, v, c in zip(out["query_id"].to_pylist(), out["vec_id"].to_pylist(),
                       out["cos_r"].to_pylist()):
        got.setdefault(q, []).append(v)
        assert abs(c - round(float(sims[q, v]), 6)) < 1e-9
    for q in qids:
        row = sims[q]
        want = np.lexsort((np.arange(len(row)), -row))[:k].tolist()
        assert got[q] == want


def test_topk_driver_fetch_is_q_times_k(emb_ds, monkeypatch):
    """The ANN final reduce must be distributed (round-2 verdict): the
    driver's row fetch is exactly ≤ Q × k — never linear in block count."""
    import ray.data
    from searchengine_ray.pipelines.similarity import brute_topk

    calls = []
    real_take_all = ray.data.Dataset.take_all

    def spy(self, *a, **kw):
        rows = real_take_all(self, *a, **kw)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(ray.data.Dataset, "take_all", spy)
    k, qids = 5, [0, 1, 2]
    # many tiny blocks: the old driver merge would have fetched
    # blocks × Q × k rows here
    ds = emb_ds.repartition(24)
    out = brute_topk(ds, qids, k=k)
    assert len(out) == len(qids) * k
    # fetch #1 is load_query_vectors (≤ Q rows), fetch #2 the final reduce
    assert max(calls) <= len(qids) * k, calls


def test_lsh_topk_recall(emb_ds):
    from searchengine_ray.pipelines.similarity import brute_topk, lsh_topk
    k, qids = 5, [0, 1, 2, 3]
    exact = brute_topk(emb_ds, qids, k=k)
    approx = lsh_topk(emb_ds, qids, k=k, num_planes=6, num_tables=8)
    ex: dict[int, set[int]] = {}
    ap: dict[int, set[int]] = {}
    for q, v in zip(exact["query_id"].to_pylist(), exact["vec_id"].to_pylist()):
        ex.setdefault(q, set()).add(v)
    for q, v in zip(approx["query_id"].to_pylist(), approx["vec_id"].to_pylist()):
        ap.setdefault(q, set()).add(v)
    recalls = [len(ex[q] & ap.get(q, set())) / k for q in qids]
    assert sum(recalls) / len(recalls) >= 0.8, recalls
    # approx scores are still TRUE cosines for the returned ids
    sims = brute_cosine(emb_table())
    for q, v, c in zip(approx["query_id"].to_pylist(),
                       approx["vec_id"].to_pylist(),
                       approx["cos_r"].to_pylist()):
        assert abs(c - round(float(sims[q, v]), 6)) < 1e-9


def test_embedding_neardup(emb_ds, tmp_path):
    from searchengine_ray.pipelines.similarity import embedding_neardup
    tau = 0.9
    rows = embedding_neardup(emb_ds, tau=tau,
                             scratch_dir=str(tmp_path)).take_all()
    got = {(r["a_id"], r["b_id"]) for r in rows}
    sims = np.round(brute_cosine(emb_table()), 6)
    want = {(a, b) for a in range(sims.shape[0])
            for b in range(a + 1, sims.shape[0]) if sims[a, b] >= tau}
    assert got == want and len(want) > 0
    # no duplicate pairs out of the block grid
    assert len(rows) == len(got)


def test_embedding_neardup_block_count_invariance(emb_ds, tmp_path):
    """The block-pair grid is a physical knob: results identical for any
    num_blocks (incl. 1 = the single-task degenerate case)."""
    from searchengine_ray.pipelines.similarity import embedding_neardup
    tau = 0.9
    base = {(r["a_id"], r["b_id"], r["cos_r"])
            for r in embedding_neardup(
                emb_ds, tau=tau, num_blocks=16,
                scratch_dir=str(tmp_path / "nb16")).take_all()}
    for nb in (1, 3):
        alt = {(r["a_id"], r["b_id"], r["cos_r"])
               for r in embedding_neardup(
                   emb_ds, tau=tau, num_blocks=nb,
                   scratch_dir=str(tmp_path / f"nb{nb}")).take_all()}
        assert alt == base


def test_embedding_neardup_lsh_subset_and_recall(emb_ds, tmp_path):
    """LSH variant: every emitted pair is an exact-cos pair ≥ tau (subset
    of the exact operator), and recall on the clustered fixture is high
    (SRP collision prob at cos≥0.9 with 6 planes × 24 tables ≈ 1)."""
    from searchengine_ray.pipelines.similarity import (embedding_neardup,
                                                       embedding_neardup_lsh)
    tau = 0.9
    exact = {(r["a_id"], r["b_id"]): r["cos_r"]
             for r in embedding_neardup(
                 emb_ds, tau=tau, scratch_dir=str(tmp_path)).take_all()}
    approx = {(r["a_id"], r["b_id"]): r["cos_r"]
              for r in embedding_neardup_lsh(emb_ds, tau=tau).take_all()}
    assert set(approx) <= set(exact)
    for k, v in approx.items():
        assert v == exact[k]
    assert len(approx) / len(exact) >= 0.95


# ---------------------------------------------------------------------------
# connected components (iterative min-label propagation)
# ---------------------------------------------------------------------------

def _union_find_components(n_nodes, edges):
    parent = list(range(n_nodes))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp = {}
    for v in range(n_nodes):
        r = find(v)
        comp.setdefault(r, []).append(v)
    return {v: min(vs) for r, vs in comp.items() for v in vs}


def test_connected_components_matches_union_find(ray_session):
    import ray.data
    from searchengine_ray.pipelines.graph import connected_components
    rng = np.random.default_rng(3)
    n = 120
    # sparse random graph + a chain (multi-round diameter; pointer
    # doubling converges in O(log d) rounds — kept small because each
    # round costs two Ray shuffles of fixed ~second latency at toy scale)
    edges = [(int(a), int(b)) for a, b in
             rng.integers(0, n, size=(50, 2)) if a != b]
    edges += [(i, i + 1) for i in range(100, 110)]
    pairs = pa.table({
        "a_id": pa.array([min(e) for e in edges], type=pa.int64()),
        "b_id": pa.array([max(e) for e in edges], type=pa.int64()),
    })
    nodes = pa.table({"doc_id": pa.array(range(n), type=pa.int64())})
    out = connected_components(ray.data.from_arrow(pairs),
                               ray.data.from_arrow(nodes)).take_all()
    got = {r["doc_id"]: r["component_id"] for r in out}
    assert got == _union_find_components(n, edges)


def test_connected_components_driver_fetch_is_bounded(ray_session,
                                                      monkeypatch):
    """The per-round convergence check must NOT pull label rows to the
    driver (round-2 verdict: a take_all() here shipped one row per NODE
    per round). Assert no take_all/take happens inside the iteration —
    convergence rides the distributed sum('changed') scalar."""
    import ray.data
    from searchengine_ray.pipelines import graph as graph_mod
    from searchengine_ray.pipelines.graph import connected_components

    calls = []
    real_take_all = ray.data.Dataset.take_all
    real_take = ray.data.Dataset.take

    def spy_take_all(self, *a, **kw):
        rows = real_take_all(self, *a, **kw)
        calls.append(len(rows))
        return rows

    def spy_take(self, *a, **kw):
        rows = real_take(self, *a, **kw)
        calls.append(len(rows))
        return rows

    monkeypatch.setattr(ray.data.Dataset, "take_all", spy_take_all)
    monkeypatch.setattr(ray.data.Dataset, "take", spy_take)
    n = 200
    edges = [(i, i + 1) for i in range(0, n - 1)]  # one long chain
    pairs = pa.table({
        "a_id": pa.array([a for a, _ in edges], type=pa.int64()),
        "b_id": pa.array([b for _, b in edges], type=pa.int64()),
    })
    nodes = pa.table({"doc_id": pa.array(range(n), type=pa.int64())})
    ds = connected_components(ray.data.from_arrow(pairs),
                              ray.data.from_arrow(nodes))
    # Dataset.sum's internal result fetch is 1 row; the bar is that NO
    # fetch during iteration scales with node count.
    assert calls and max(calls) <= graph_mod.NUM_GRAPH_PARTITIONS, (
        f"driver-side row fetches during CC iteration: {calls}")
    # consuming the RESULT is the caller's business — still correct
    got = {r["doc_id"]: r["component_id"] for r in real_take_all(ds)}
    assert got == {i: 0 for i in range(n)}


# ---------------------------------------------------------------------------
# corpus curation (dedup keeper ∧ quality gate, one shuffle)
# ---------------------------------------------------------------------------

def test_curate_matches_bruteforce(ray_session):
    import hashlib
    import ray.data
    from searchengine_ray.config import DEFAULT_STOPWORDS
    from searchengine_ray.pipelines.curate import curate
    texts = [
        " ".join(f"w{i % 13}x{i % 7}" for i in range(40)),   # good quality
        " ".join(f"w{i % 13}x{i % 7}" for i in range(40)),   # exact dupe
        "short doc",                                          # < 10 tokens
        " ".join(["the"] * 30),                               # all stopwords
        " ".join(f"u{i}" for i in range(25)),                 # good
        "",                                                   # empty
        " ".join(f"u{i}" for i in range(25)),                 # dupe of 4
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    got = {(r["doc_id"], r["text"])
           for r in curate(ray.data.from_arrow(t)).take_all()}

    # brute force: min doc_id per sha, then the quality rules
    keeper: dict[bytes, int] = {}
    for i, tx in enumerate(texts):
        keeper.setdefault(hashlib.sha256(tx.encode()).digest(), i)
    want = set()
    for i in sorted(keeper.values()):
        toks = texts[i].split()
        n_ws = len(toks)
        if n_ws < 10:
            continue
        n_stop = sum(1 for x in toks if x in DEFAULT_STOPWORDS)
        n_dist = len(set(toks))
        if (n_stop * 10**6) // max(n_ws, 1) > 500_000:
            continue
        if (n_dist * 10**6) // max(n_ws, 1) < 300_000:
            continue
        want.add((i, texts[i]))
    assert got == want
    assert {0, 4} == {d for d, _ in want}  # keepers of the two dupe groups


# ---------------------------------------------------------------------------
# winnowing fingerprint
# ---------------------------------------------------------------------------

def _fingerprint_rowwise(text: str, k: int, window: int):
    """Straightforward per-row reference (the round-1 implementation) the
    vectorized operator must reproduce exactly."""
    from searchengine_ray.pipelines.dedup import _md5_64
    toks = (text or "").split()
    hashes = np.array([_md5_64(" ".join(toks[i:i + k]))
                       for i in range(max(0, len(toks) - k + 1))],
                      dtype=np.uint64)
    if hashes.size == 0:
        fps = np.empty(0, dtype=np.uint64)
    elif hashes.size <= window:
        fps = np.array([hashes.min()], dtype=np.uint64)
    else:
        idx = np.arange(hashes.size - window + 1)
        fps = np.unique(hashes[idx[:, None] + np.arange(window)].min(axis=1))
    return (int(hashes.size), int(fps.size),
            int(fps.min()) if fps.size else 0,
            int(fps.max()) if fps.size else 0)


def test_ws_family_nasty_whitespace_parity(ray_session):
    """The whitespace-split family must match its DuckDB twins for inputs
    the synthetic corpus never produces: trailing newlines, tabs, CRs,
    U+00A0, whitespace-only and empty docs (the round-2 review found the
    old utf8_split_whitespace/trim pair diverged exactly there)."""
    import duckdb
    import ray.data
    from searchengine_ray.pipelines import analysis
    from searchengine_ray.pipelines.driver_api import (sql_fingerprint,
                                                       sql_quality_score,
                                                       sql_repetition_stats,
                                                       sql_token_stats)
    texts = [
        "foo bar\n", "\tx  y z", "", "   ", "a\r\nb", "w v plain",
        "end space ", "\nlead", "the the\tthe\n",
    ]
    # deterministic unicode fuzz: exotic whitespace (NBSP, ideographic
    # space, zero-width space, separators), emoji, combining marks -
    # neither engine treats non-RE2-whitespace codepoints as separators
    rng = np.random.default_rng(9)
    alphabet = (list("ab the\t\n\r\x0b\x0c ")
                + ["\u00a0", "\u3000", "\u200b", "\u2028", "e\u0301",
                   "\u6c49", "\U0001f642"])
    for _ in range(12):
        k = int(rng.integers(0, 30))
        texts.append("".join(alphabet[int(i)] for i in
                             rng.integers(0, len(alphabet), size=k)))
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    con = duckdb.connect()
    con.register("documents", t)
    ds = ray.data.from_arrow(t)
    for op, sql in ((analysis.token_stats, sql_token_stats()),
                    (analysis.quality_score, sql_quality_score()),
                    (analysis.fingerprint, sql_fingerprint()),
                    (analysis.repetition_stats, sql_repetition_stats())):
        got = sorted(op(ds).take_all(), key=lambda r: r["doc_id"])
        want = sorted(con.execute(sql).fetch_arrow_table().to_pylist(),
                      key=lambda r: r["doc_id"])
        assert [dict(g) for g in got] == want, op.__name__


def test_pii_redact_planted(ray_session):
    """Planted PII must be counted and redacted; the SQL twin must match
    byte-for-byte on the same rows (testdata itself is mostly PII-free,
    so the driver check alone would be vacuous for emails/phones)."""
    import duckdb
    import ray.data
    from searchengine_ray.pipelines.analysis import pii_redact
    from searchengine_ray.pipelines.driver_api import sql_pii_redact
    texts = [
        "contact bob.smith+x@corp.example.org or see https://x.io/a?b=1 now",
        "call +1 (415) 555-0100 or 020-7946-0958 today",
        "no pii here at all",
        "two mails a@b.co c@d.io and http://e.f/g",
        "",
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    rows = {r["doc_id"]: r
            for r in pii_redact(ray.data.from_arrow(t)).take_all()}
    assert rows[0]["n_email"] == 1 and rows[0]["n_url"] == 1
    assert "<EMAIL>" in rows[0]["redacted"]
    assert "<URL>" in rows[0]["redacted"]
    assert "bob.smith" not in rows[0]["redacted"]
    assert rows[1]["n_phone"] >= 1 and "555" not in rows[1]["redacted"]
    assert rows[2]["redacted"] == texts[2]
    assert rows[3]["n_email"] == 2 and rows[3]["n_url"] == 1
    assert rows[4]["redacted"] == ""
    con = duckdb.connect()
    con.register("documents", t)
    want = {r["doc_id"]: r for r in
            con.execute(sql_pii_redact()).fetch_arrow_table().to_pylist()}
    for i in rows:
        assert dict(rows[i]) == dict(want[i]), i


def test_repetition_stats_hand_vectors(ray_session):
    """Gopher-rule repetition signals: hand-checked boilerplate vs clean
    docs, plus boundary cases (empty, single token)."""
    import ray.data
    from searchengine_ray.pipelines.analysis import repetition_stats
    texts = [
        "spam spam spam spam spam",          # one bigram repeated 4×
        "a b c d e f",                       # all bigrams distinct
        "",                                  # no grams
        "one",                               # < 2 tokens
        "x y x y x y x y",                   # alternating boilerplate
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    rows = {r["doc_id"]: r
            for r in repetition_stats(ray.data.from_arrow(t)).take_all()}
    # doc 0: 4 bigrams, all identical → top frac 1.0; 1 distinct 5-gram
    assert rows[0]["n_2grams"] == 4 and rows[0]["top_2gram_count"] == 4
    assert rows[0]["top_2gram_frac_u"] == 1_000_000
    assert rows[0]["n_5grams"] == 1 and rows[0]["dup_5gram_frac_u"] == 0
    # doc 1: 5 distinct bigrams → top frac 1/5
    assert rows[1]["top_2gram_frac_u"] == 200_000
    # empties
    assert rows[2]["n_2grams"] == 0 and rows[2]["top_2gram_frac_u"] == 0
    assert rows[3]["n_2grams"] == 0
    # doc 4: bigrams: "x y"×4, "y x"×3 → top 4/7; 5-grams: 4 total,
    # 2 distinct ("x y x y x", "y x y x y") → dup frac 2/4
    assert rows[4]["n_2grams"] == 7 and rows[4]["top_2gram_count"] == 4
    assert rows[4]["top_2gram_frac_u"] == (4 * 10**6) // 7
    assert rows[4]["n_5grams"] == 4
    assert rows[4]["dup_5gram_frac_u"] == 500_000


def test_fingerprint_matches_rowwise_reference():
    import ray.data
    from searchengine_ray.pipelines.analysis import fingerprint
    k, window = 5, 4
    texts = [
        "",                                    # no tokens
        "   ",                                 # whitespace only
        "a b c",                               # fewer than k tokens
        "a b c d e",                           # exactly k → 1 shingle
        "a b c d e f g h",                     # n_shingles == window
        "a b c d e f g h i",                   # n_shingles == window+1
        " ".join(f"t{i % 7}" for i in range(40)),   # repeats → dup shingles
        " ".join(f"u{i}" for i in range(25)),
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    rows = {r["doc_id"]: r for r in
            fingerprint(ray.data.from_arrow(t), k=k, window=window)
            .take_all()}
    for i, text in enumerate(texts):
        nsh, nfp, mn, mx = _fingerprint_rowwise(text, k, window)
        r = rows[i]
        assert (r["n_shingles"], r["n_fingerprints"], r["min_fp"],
                r["max_fp"]) == (nsh, nfp, mn, mx), (i, text)


# ---------------------------------------------------------------------------
# multimodal plumbing
# ---------------------------------------------------------------------------

def test_multimodal_features(docs_ds):
    from searchengine_ray.pipelines.multimodal import (FEATURE_DIM,
                                                       feature_summary)
    rows = feature_summary(docs_ds).take_all()
    texts = docs_table()["text"].to_pylist()
    assert len(rows) == len(texts)
    for r in rows:
        blob = texts[r["doc_id"]].encode()
        d = hashlib.sha256(blob).digest()
        assert r["blob_len"] == len(blob)
        assert r["blob_sha256"] == d.hex()
        assert r["feat_checksum"] == sum(d[:FEATURE_DIM])


def _ppm_bytes(w: int, h: int, seed: int = 0) -> tuple[bytes, np.ndarray]:
    rng = np.random.default_rng(seed)
    arr = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
    header = f"P6\n# a comment\n{w} {h}\n255\n".encode()
    return header + arr.tobytes(), arr


def _wav_bytes(n: int, sr: int = 8000, channels: int = 1,
               seed: int = 0) -> tuple[bytes, np.ndarray]:
    import io
    import wave
    rng = np.random.default_rng(seed)
    pcm = rng.integers(-2 ** 15, 2 ** 15, size=(n, channels),
                       dtype=np.int16)
    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(channels)
        wf.setsampwidth(2)
        wf.setframerate(sr)
        wf.writeframes(pcm.tobytes())
    return buf.getvalue(), pcm


def test_decode_image_ppm_and_guard():
    """PPM decodes natively; other formats need PIL — NotImplementedError
    naming the dependency where PIL is absent, real decode where not."""
    from searchengine_ray.pipelines.multimodal import decode_image
    blob, arr = _ppm_bytes(5, 3, seed=7)
    np.testing.assert_array_equal(decode_image(blob), arr)
    try:
        import PIL  # noqa: F401
        has_pil = True
    except ImportError:
        has_pil = False
    if not has_pil:
        with pytest.raises(NotImplementedError, match="PIL"):
            decode_image(b"\xff\xd8\xff\xe0 fake jpeg")


def test_decode_audio_wav_and_guard():
    from searchengine_ray.pipelines.multimodal import decode_audio
    blob, pcm = _wav_bytes(64, sr=16000, channels=2, seed=3)
    got, sr = decode_audio(blob)
    assert sr == 16000
    np.testing.assert_array_equal(got, pcm)
    with pytest.raises(NotImplementedError, match="ffmpeg"):
        decode_audio(b"ID3\x04 fake mp3")


def test_media_stats_stage(ray_session):
    """Real-decode actor-pool stage: modality routing, stats, and
    skip-and-report (not die) on undecodable payloads."""
    import ray.data
    from searchengine_ray.pipelines.multimodal import media_stats
    img, arr = _ppm_bytes(4, 2, seed=1)
    wav, pcm = _wav_bytes(100, sr=8000, channels=1, seed=2)
    t = pa.table({
        "doc_id": pa.array([0, 1, 2], type=pa.int64()),
        "blob": pa.array([img, wav, b"\xff\xd8 jpeg?"], type=pa.binary()),
        "modality": pa.array(["image", "audio", "image"],
                             type=pa.string()),
    })
    rows = {r["doc_id"]: r
            for r in media_stats(ray.data.from_arrow(t)).take_all()}
    assert rows[0]["decode_ok"] and (rows[0]["dim0"], rows[0]["dim1"]) == (4, 2)
    assert rows[0]["stat_q"] == int(round(float(arr.mean()) * 10_000))
    assert rows[1]["decode_ok"] and rows[1]["dim0"] == 8000
    assert rows[1]["dim1"] == 100
    want_rms = float(np.sqrt(np.mean(pcm.astype(np.float64) ** 2)))
    assert rows[1]["stat_q"] == int(round(want_rms * 10_000))
    try:
        import PIL  # noqa: F401
    except ImportError:
        assert not rows[2]["decode_ok"] and "PIL" in rows[2]["decode_err"]


# ---------------------------------------------------------------------------
# batch codec ≡ per-term codec
# ---------------------------------------------------------------------------

def test_batch_codec_equivalent_to_per_term():
    from searchengine_ray.codec import (block_max_tf, block_max_tf_batch,
                                        encode_postings,
                                        encode_postings_batch)
    rng = np.random.default_rng(3)
    runs = []
    for _ in range(30):
        n = int(rng.integers(1, 400))
        ids = np.sort(rng.choice(np.arange(10_000_000, dtype=np.uint64),
                                 size=n, replace=False))
        tfs = rng.integers(1, 50, size=n).astype(np.float64)
        runs.append((ids, tfs))
    all_ids = np.concatenate([r[0] for r in runs])
    all_tfs = np.concatenate([r[1] for r in runs])
    lens = np.array([len(r[0]) for r in runs])
    ends = np.cumsum(lens)
    starts = ends - lens
    batch_post = encode_postings_batch(all_ids, all_tfs, starts, ends)
    batch_bm = block_max_tf_batch(all_tfs, starts, ends, 128)
    for i, (ids, tfs) in enumerate(runs):
        assert batch_post[i] == encode_postings(ids, tfs)
        assert batch_bm[i] == block_max_tf(tfs, 128)


# ---------------------------------------------------------------------------
# boost pruning ≡ full boosting (query engine)
# ---------------------------------------------------------------------------

def test_boost_pruning_equivalent(built):
    from searchengine_ray.query import QueryEngine
    eng = QueryEngine(built.index_dir, built.cfg)
    for q in ["queue71", "py org2", "parse token stream", "rust engine",
              "src/module_96/file_25.py", "hashMap codec"]:
        pruned = eng.search(q, top_k=20)
        full = eng.search(q, top_k=2000)[:20]
        assert [(r["doc_id"], r["score"]) for r in pruned] == \
               [(r["doc_id"], r["score"]) for r in full], q


def test_train_centroids_offset_ids(ray_session):
    """Sampling must work for ANY id scheme (the smallest-ids sample, not
    a 0-based prefix filter): offset ids train fine, empty input raises."""
    import ray.data
    import pytest as pt
    from searchengine_ray.pipelines.similarity import train_centroids
    t = emb_table()
    shifted = pa.table({
        "vec_id": pa.array([v + 10**9 for v in
                            t["vec_id"].to_pylist()], type=pa.int64()),
        "embedding": t["embedding"],
    })
    cents = train_centroids(ray.data.from_arrow(shifted), n_centroids=8)
    assert cents.shape[0] == 8
    assert np.allclose(np.linalg.norm(cents, axis=1), 1.0, atol=2e-6)
    empty = pa.table({"vec_id": pa.array([], type=pa.int64()),
                      "embedding": pa.array([], type=pa.list_(pa.float64()))})
    with pt.raises(ValueError, match="empty"):
        train_centroids(ray.data.from_arrow(empty))


def test_distributed_kmeans_recall_and_determinism(emb_ds):
    """The streamed-partial-sums trainer (the 10^9-vector path) must be
    deterministic across runs and give IVF recall comparable to the
    sample-trained centroids."""
    from searchengine_ray.pipelines.similarity import (
        brute_topk, ivf_topk, train_centroids_distributed)
    c1 = train_centroids_distributed(emb_ds, n_centroids=8)
    c2 = train_centroids_distributed(emb_ds, n_centroids=8)
    assert np.array_equal(c1, c2)
    assert np.allclose(np.linalg.norm(c1, axis=1), 1.0, atol=2e-6)
    k, qids = 5, [0, 1, 2, 3]
    exact = brute_topk(emb_ds, qids, k=k)
    approx = ivf_topk(emb_ds, qids, k=k, n_probe=3, centroids=c1)
    ex: dict[int, set[int]] = {}
    ap: dict[int, set[int]] = {}
    for q, v in zip(exact["query_id"].to_pylist(),
                    exact["vec_id"].to_pylist()):
        ex.setdefault(q, set()).add(v)
    for q, v in zip(approx["query_id"].to_pylist(),
                    approx["vec_id"].to_pylist()):
        ap.setdefault(q, set()).add(v)
    recalls = [len(ex[q] & ap.get(q, set())) / k for q in qids]
    assert sum(recalls) / len(recalls) >= 0.8, recalls


def test_ivf_topk_recall(emb_ds):
    from searchengine_ray.pipelines.similarity import brute_topk, ivf_topk
    k, qids = 5, [0, 1, 2, 3]
    exact = brute_topk(emb_ds, qids, k=k)
    approx = ivf_topk(emb_ds, qids, k=k, n_centroids=8, n_probe=3)
    ex: dict[int, set[int]] = {}
    ap: dict[int, set[int]] = {}
    for q, v in zip(exact["query_id"].to_pylist(), exact["vec_id"].to_pylist()):
        ex.setdefault(q, set()).add(v)
    for q, v in zip(approx["query_id"].to_pylist(), approx["vec_id"].to_pylist()):
        ap.setdefault(q, set()).add(v)
    recalls = [len(ex[q] & ap.get(q, set())) / k for q in qids]
    assert sum(recalls) / len(recalls) >= 0.8, recalls
    sims = brute_cosine(emb_table())
    for q, v, c in zip(approx["query_id"].to_pylist(),
                       approx["vec_id"].to_pylist(),
                       approx["cos_r"].to_pylist()):
        assert abs(c - round(float(sims[q, v]), 6)) < 1e-9


def test_ivf_materialized_index_matches_inline(emb_ds, tmp_path):
    """Materialized bucket files + probe reads ≡ the inline IVF pass
    (same deterministic centroids → same candidates → same top-k)."""
    from searchengine_ray.pipelines.similarity import (build_ivf_index,
                                                       ivf_index_search,
                                                       ivf_topk)
    idx = str(tmp_path / "ivf")
    m = build_ivf_index(emb_ds, idx, n_centroids=8)
    assert sum(m["buckets"].values()) == 120
    qids, k = [0, 1, 2, 3], 5
    inline = ivf_topk(emb_ds, qids, k=k, n_centroids=8, n_probe=3)
    mat = ivf_index_search(idx, emb_ds, qids, k=k, n_probe=3)
    assert inline.to_pylist() == mat.to_pylist()


def test_classify_cascade_branches(ray_session):
    """Reference classifier cascade (classifier.py:144-196): domain tiers
    beat content; content scoring hits the 0.5+0.1·matches lattice; the
    <0.6 fallback coerces to (0.65, personal)."""
    import ray.data
    from searchengine_ray.pipelines.classify import classify
    t = pa.table({
        "doc_id": pa.array(range(5), type=pa.int64()),
        "source": pa.array(["me.substack.com", "cnn.news.example.gov",
                            "src1", "src2", "src3"]),
        "lang": pa.array(["en"] * 5),
        "text": pa.array([
            "anything",                                   # domain personal
            "anything",                                   # domain non-personal
            "just tables and rows",                       # 0 matches → fallback
            "about me my blog written by the author",     # 4 matches → 0.9
            "personal opinion here",                      # 2 matches → 0.7
        ]),
    })
    rows = {r["doc_id"]: r for r in
            classify(ray.data.from_arrow(t)).take_all()}
    assert (rows[0]["is_personal"], rows[0]["confidence_c"],
            rows[0]["method"]) == (1, 90, "domain_pattern")
    assert (rows[1]["is_personal"], rows[1]["confidence_c"],
            rows[1]["method"]) == (0, 90, "domain_pattern")
    assert (rows[2]["is_personal"], rows[2]["confidence_c"],
            rows[2]["method"]) == (1, 65, "content")
    assert (rows[3]["is_personal"], rows[3]["confidence_c"]) == (1, 90)
    assert (rows[4]["is_personal"], rows[4]["confidence_c"]) == (1, 70)


def test_minhash_m31_family_finds_planted_dupes(docs_ds):
    """The SQL-restatable mod-(2^31-1) family preserves minhash semantics:
    exact dupes get full-match signatures, near-dupes high estimates."""
    from searchengine_ray.pipelines.dedup import minhash_lsh_pairs
    rows = minhash_lsh_pairs(docs_ds, n=3, num_perm=64, bands=16,
                             tau=0.5, family="m31").take_all()
    got = {(r["a_id"], r["b_id"]): r["est_matches"] for r in rows}
    assert got.get((5, 41)) == 64
    assert got.get((3, 10)) == 64
    assert got.get((7, 25)) == 64
    assert got.get((5, 40), 0) >= 32


def test_media_decode_stats_real_roundtrip(ray_session):
    """media_decode_stats must decode REAL WAV/PPM containers (not trust
    the synthesizer): aggregates equal direct numpy on the closed-form
    content, and the payloads parse with independent stdlib readers."""
    import io
    import wave
    import ray.data
    from searchengine_ray.pipelines.multimodal import (
        SYNTH_AUDIO_FRAMES, SYNTH_IMG_H, SYNTH_IMG_W,
        _synth_audio_samples, _synth_ppm, _synth_wav, media_decode_stats)
    ids = [0, 7, 123456]
    t = pa.table({"doc_id": pa.array(ids, type=pa.int64())})
    rows = {(r["doc_id"], r["modality"]): r
            for r in media_decode_stats(
                ray.data.from_arrow(t)).take_all()}
    n_px = SYNTH_IMG_W * SYNTH_IMG_H * 3
    for d in ids:
        s = _synth_audio_samples(d).astype(np.int64)
        a = rows[(d, "audio")]
        assert a["n_units"] == SYNTH_AUDIO_FRAMES
        assert a["value_sum"] == int((s * s).sum())
        j = np.arange(n_px, dtype=np.int64)
        img = rows[(d, "image")]
        assert img["n_units"] == n_px
        assert img["value_sum"] == int(((d + j) % 256).sum())
    # container sanity via an independent reader
    with wave.open(io.BytesIO(_synth_wav(5)), "rb") as wf:
        assert wf.getnframes() == SYNTH_AUDIO_FRAMES
        assert wf.getframerate() == 8000
    assert _synth_ppm(5)[:2] == b"P6"


def test_resize_images_stage(ray_session):
    import ray.data
    from searchengine_ray.pipelines.multimodal import (ResizeImages,
                                                       resize_image,
                                                       resize_images)
    blob, arr = _ppm_bytes(10, 6, seed=4)
    t = pa.table({
        "doc_id": pa.array([0, 1], type=pa.int64()),
        "blob": pa.array([blob, b"\xff\xd8 jpeg"], type=pa.binary()),
    })
    rows = {r["doc_id"]: r
            for r in resize_images(ray.data.from_arrow(t), 4, 3).take_all()}
    want = resize_image(arr, 4, 3)
    assert rows[0]["decode_ok"]
    got = np.frombuffer(rows[0]["rgb"], dtype=np.uint8).reshape(3, 4, 3)
    np.testing.assert_array_equal(got, want)
    assert (rows[0]["width"], rows[0]["height"]) == (4, 3)
    try:
        import PIL  # noqa: F401
    except ImportError:
        assert not rows[1]["decode_ok"]
    # pure-function sanity: nearest-neighbor keeps corner pixels
    np.testing.assert_array_equal(want[0, 0], arr[0, 0])


def test_sample_frames_stage(ray_session):
    import ray.data
    from searchengine_ray.pipelines.multimodal import (pack_video,
                                                       sample_frames)
    frames, arrs = [], []
    for i in range(10):
        b, a = _ppm_bytes(3, 2, seed=100 + i)
        frames.append(b)
        arrs.append(a)
    t = pa.table({
        "doc_id": pa.array([7], type=pa.int64()),
        "blob": pa.array([pack_video(frames)], type=pa.binary()),
    })
    rows = sorted(sample_frames(ray.data.from_arrow(t), stride=4).take_all(),
                  key=lambda r: r["frame_idx"])
    assert [r["frame_idx"] for r in rows] == [0, 4, 8]
    for r in rows:
        assert (r["width"], r["height"]) == (3, 2)
        assert r["pixel_sum"] == int(arrs[r["frame_idx"]]
                                     .astype(np.int64).sum())
    # non-container blob raises the guarded error
    from searchengine_ray.pipelines.multimodal import iter_video_frames
    with pytest.raises(NotImplementedError, match="ffmpeg"):
        list(iter_video_frames(b"\x00\x00 not a video"))


def test_stratified_sample_deterministic_and_rates(ray_session):
    import hashlib
    import ray.data
    from searchengine_ray.pipelines.analysis import (SAMPLE_RATES,
                                                     _sample_threshold,
                                                     stratified_sample)
    rng = np.random.default_rng(5)
    langs = ["en", "zh", "de", "xx"]  # xx → default rate
    n = 4000
    t = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "lang": pa.array([langs[i] for i in
                          rng.integers(0, 4, size=n)], type=pa.string()),
    })
    got = {r["doc_id"]: r["grp"]
           for r in stratified_sample(
               ray.data.from_arrow(t)).take_all()}
    # exact per-row expectation
    want = {}
    for d, g in zip(t["doc_id"].to_pylist(), t["lang"].to_pylist()):
        h = int.from_bytes(hashlib.md5(str(d).encode()).digest()[:4], "big")
        thr = _sample_threshold(SAMPLE_RATES.get(g, 0.0625))
        if h < thr:
            want[d] = g
    assert got == want
    # determinism: second run identical
    got2 = {r["doc_id"]: r["grp"]
            for r in stratified_sample(ray.data.from_arrow(t)).take_all()}
    assert got2 == got
    # rates land near nominal (md5 uniformity)
    by_lang = {g: sum(1 for x in got.values() if x == g) for g in langs}
    n_by = {g: t["lang"].to_pylist().count(g) for g in langs}
    assert abs(by_lang["en"] / n_by["en"] - 0.5) < 0.06
    assert abs(by_lang["xx"] / n_by["xx"] - 0.0625) < 0.04


def test_top_docs_per_group_matches_bruteforce(docs_ds):
    import ray.data
    from searchengine_ray.pipelines.analysis import top_docs_per_group
    t = docs_table()
    # synth a group col: 3 groups by doc_id mod 3
    grouped = t.append_column(
        "source", pa.array([f"g{i % 3}" for i in
                            range(len(t))], type=pa.string()))
    got = sorted((r["grp"], r["rank"], r["doc_id"], r["n_distinct"])
                 for r in top_docs_per_group(
                     ray.data.from_arrow(grouped), k=2).take_all())
    want = {}
    for d, txt, g in zip(grouped["doc_id"].to_pylist(),
                         grouped["text"].to_pylist(),
                         grouped["source"].to_pylist()):
        nd = len(set(x for x in txt.split() if x))
        want.setdefault(g, []).append((-nd, d))
    rows = []
    for g, lst in want.items():
        for rank, (nnd, d) in enumerate(sorted(lst)[:2], start=1):
            rows.append((g, rank, d, -nnd))
    assert got == sorted(rows)


def test_pack_token_budget_matches_bruteforce(docs_ds):
    import ray.data
    from searchengine_ray.pipelines.analysis import pack_token_budget
    cap, parts = 64, 4
    got = {r["doc_id"]: (r["part"], r["bin_id"], r["n_tokens"])
           for r in pack_token_budget(docs_ds, capacity=cap,
                                      num_parts=parts).take_all()}
    t = docs_table()
    per_part: dict = {}
    for d, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        per_part.setdefault(d % parts, []).append(
            (d, len([x for x in txt.split() if x])))
    want = {}
    for p, rows in per_part.items():
        run = 0
        for d, nt in sorted(rows):
            want[d] = (p, run // cap, nt)
            run += nt
    assert got == want
    # every bin (except possibly each part's last) reaches capacity once
    # its boundary doc lands: bins are contiguous per part
    for p in per_part:
        dist = sorted({b for pp, b, _ in got.values() if pp == p})
        assert dist == list(range(dist[0], dist[-1] + 1))


def test_partitioned_write_resume(ray_session, tmp_path):
    """The generic resumable sink: finished partitions are pruned before
    the shuffle on re-run (files untouched), missing/removed partitions
    are rewritten, and read-back equals the full dataset."""
    import os
    import time
    import ray.data
    from searchengine_ray.state.partitioned_write import (read_partitioned,
                                                          write_partitioned)
    out = str(tmp_path / "pw")
    n = 500
    t = pa.table({
        "wpart": pa.array([i % 7 for i in range(n)], type=pa.int64()),
        "doc_id": pa.array(range(n), type=pa.int64()),
        "text": pa.array([f"doc {i}" for i in range(n)]),
    })
    m1 = write_partitioned(ray.data.from_arrow(t), out, "wpart")
    assert sorted(m1) == list(range(7)) and sum(m1.values()) == n
    mtimes = {f: os.path.getmtime(os.path.join(out, f))
              for f in os.listdir(out) if f.endswith(".parquet")}
    # simulate a crashed run: drop two partitions' files
    for p in (2, 5):
        os.remove(os.path.join(out, f"part-{p:05d}.parquet"))
    time.sleep(0.02)
    m2 = write_partitioned(ray.data.from_arrow(t), out, "wpart")
    assert m2 == m1
    for f, old in mtimes.items():
        p = int(f.split("-")[1].split(".")[0])
        now = os.path.getmtime(os.path.join(out, f))
        if p in (2, 5):
            assert now > old          # rewritten
        else:
            assert now == old         # pruned before the shuffle
    back = read_partitioned(out).take_all()
    assert sorted((r["doc_id"], r["text"]) for r in back) == \
        [(i, f"doc {i}") for i in range(n)]


def test_curate_to_dir_roundtrip(docs_ds, tmp_path):
    from searchengine_ray.pipelines.curate import curate, curate_to_dir
    from searchengine_ray.state.partitioned_write import read_partitioned
    out = str(tmp_path / "curated")
    manifest = curate_to_dir(docs_ds, out, num_parts=5)
    want = sorted((r["doc_id"], r["text"])
                  for r in curate(docs_ds).take_all())
    got = sorted((r["doc_id"], r["text"])
                 for r in read_partitioned(out).take_all())
    assert got == want
    assert sum(manifest.values()) == len(want)
    # no-op resume: identical manifest
    assert curate_to_dir(docs_ds, out, num_parts=5) == manifest


def test_partitioned_write_scheme_mismatch_refused(ray_session, tmp_path):
    import ray.data
    from searchengine_ray.state.partitioned_write import write_partitioned
    out = str(tmp_path / "pw2")
    t = pa.table({"wpart": pa.array([0, 1], type=pa.int64()),
                  "doc_id": pa.array([1, 2], type=pa.int64())})
    write_partitioned(ray.data.from_arrow(t), out, "wpart", scheme="mod7")
    with pytest.raises(ValueError, match="scheme"):
        write_partitioned(ray.data.from_arrow(t), out, "wpart",
                          scheme="mod5")


def test_media_stages_survive_corrupt_payloads(ray_session):
    """Corrupt (not just unsupported) payloads must skip-and-report, not
    kill the stage: truncated PPM, bogus RIFF, truncated video."""
    import ray.data
    from searchengine_ray.pipelines.multimodal import (media_stats,
                                                       pack_video,
                                                       resize_images,
                                                       sample_frames)
    good_img, _ = _ppm_bytes(3, 2, seed=9)
    good_wav, _ = _wav_bytes(16, seed=9)
    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "blob": pa.array([b"P6", b"RIFF\x00bogus", good_img, good_wav],
                         type=pa.binary()),
        "modality": pa.array(["image", "audio", "image", "audio"],
                             type=pa.string()),
    })
    rows = {r["doc_id"]: r
            for r in media_stats(ray.data.from_arrow(t)).take_all()}
    assert not rows[0]["decode_ok"] and rows[0]["decode_err"]
    assert not rows[1]["decode_ok"]
    assert rows[2]["decode_ok"] and rows[3]["decode_ok"]
    rz = {r["doc_id"]: r for r in resize_images(
        ray.data.from_arrow(t.select(["doc_id", "blob"])), 2, 2).take_all()}
    assert not rz[0]["decode_ok"] and rz[2]["decode_ok"]
    # video: one good container, one truncated, one garbage — only the
    # good doc emits frames
    frames = [_ppm_bytes(2, 2, seed=i)[0] for i in range(4)]
    vid = pack_video(frames)
    vt = pa.table({
        "doc_id": pa.array([10, 11, 12], type=pa.int64()),
        "blob": pa.array([vid, vid[:20], b"nope"], type=pa.binary()),
    })
    out = sample_frames(ray.data.from_arrow(vt), stride=2).take_all()
    assert {r["doc_id"] for r in out} == {10}
    assert sorted(r["frame_idx"] for r in out) == [0, 2]


def test_equi_join_matches_bruteforce(ray_session):
    import ray.data
    from searchengine_ray.pipelines.join import equi_join
    rng = np.random.default_rng(13)
    lk = rng.integers(0, 40, size=200)
    rk = rng.integers(0, 40, size=120)
    l = pa.table({"k": pa.array(lk, type=pa.int64()),
                  "lv": pa.array([f"L{i}" for i in range(200)]),
                  "ln": pa.array(rng.integers(0, 9, size=200),
                                 type=pa.int64())})
    r = pa.table({"kk": pa.array(rk, type=pa.int64()),
                  "rv": pa.array(rng.standard_normal(120))})
    got = sorted((row["key"], row["lv"], row["ln"], row["rv"])
                 for row in equi_join(
                     ray.data.from_arrow(l), ray.data.from_arrow(r),
                     "k", "kk", ["lv", "ln"], ["rv"]).take_all())
    want = sorted(
        (int(k), lv, int(ln), float(rv))
        for k, lv, ln in zip(lk, l["lv"].to_pylist(), l["ln"].to_pylist())
        for kk, rv in zip(rk, r["rv"].to_pylist()) if k == kk)
    assert got == want and want
    # column-collision guard
    with pytest.raises(AssertionError, match="collision"):
        equi_join(ray.data.from_arrow(l), ray.data.from_arrow(r),
                  "k", "kk", ["lv"], ["lv"])


def test_equi_join_left_semi_anti(ray_session):
    import ray.data
    from searchengine_ray.pipelines.join import equi_join
    rng = np.random.default_rng(17)
    lk = rng.integers(0, 30, size=150)
    rk = rng.integers(15, 45, size=80)  # partial overlap: unmatched both ways
    l = pa.table({"k": pa.array(lk, type=pa.int64()),
                  "lv": pa.array([f"L{i}" for i in range(150)])})
    r = pa.table({"kk": pa.array(rk, type=pa.int64()),
                  "rv": pa.array(rng.standard_normal(80))})
    rset = set(int(x) for x in rk)

    def run(how):
        return equi_join(ray.data.from_arrow(l), ray.data.from_arrow(r),
                         "k", "kk", ["lv"], ["rv"], how=how).take_all()

    # semi: each matched left row once
    semi = sorted((row["key"], row["lv"]) for row in run("semi"))
    want_semi = sorted((int(k), lv) for k, lv in
                       zip(lk, l["lv"].to_pylist()) if int(k) in rset)
    assert semi == want_semi and semi
    # anti: each unmatched left row once
    anti = sorted((row["key"], row["lv"]) for row in run("anti"))
    want_anti = sorted((int(k), lv) for k, lv in
                       zip(lk, l["lv"].to_pylist()) if int(k) not in rset)
    assert anti == want_anti and anti
    assert len(semi) + len(anti) == 150
    # left: inner expansion + unmatched rows carrying typed NULL rv
    left = run("left")
    matched = sorted((row["key"], row["lv"], row["rv"])
                     for row in left if row["rv"] is not None)
    want_inner = sorted(
        (int(k), lv, float(rv)) for k, lv in zip(lk, l["lv"].to_pylist())
        for kk, rv in zip(rk, r["rv"].to_pylist()) if int(k) == int(kk))
    assert matched == want_inner and matched
    unmatched = sorted((row["key"], row["lv"])
                       for row in left if row["rv"] is None)
    assert unmatched == want_anti


def test_rolling_user_window_matches_bruteforce(ray_session):
    import ray.data
    from searchengine_ray.pipelines.events import rolling_user_window
    rng = np.random.default_rng(5)
    n, k = 400, 5
    uid = rng.integers(0, 12, size=n)
    ts = rng.integers(0, 10_000, size=n)  # collisions likely → tie-break
    val = np.round(rng.uniform(0, 200, size=n), 2)
    t = pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "user_id": pa.array(uid, type=pa.int64()),
        "ts": pa.array(ts.astype("datetime64[us]"), type=pa.timestamp("us")),
        "value": pa.array(val),
    })
    got = {row["event_id"]: (row["roll_n"], row["roll_sum_c"])
           for row in rolling_user_window(
               ray.data.from_arrow(t), k=k).take_all()}
    vc = np.round(val * 100).astype(np.int64)
    want = {}
    for u in np.unique(uid):
        rows = sorted(np.nonzero(uid == u)[0], key=lambda i: (ts[i], i))
        for pos, i in enumerate(rows):
            w = rows[max(0, pos - k + 1): pos + 1]
            want[i] = (len(w), int(sum(vc[j] for j in w)))
    assert got == want and len(got) == n


def test_top_ngrams_matches_counter(ray_session):
    import collections

    import ray.data
    from searchengine_ray.functions.tokenizer import tokenize
    from searchengine_ray.pipelines.analysis import top_ngrams
    rng = np.random.default_rng(9)
    vocab = ["alpha", "beta", "gamma", "delta"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(2, 30)))
             for _ in range(120)]
    t = pa.table({"doc_id": pa.array(np.arange(120, dtype=np.int64)),
                  "text": pa.array(texts)})
    k = 7
    got = [(r["shingle"], r["cnt"]) for r in
           top_ngrams(ray.data.from_arrow(t), n=2, k=k).take_all()]
    c = collections.Counter()
    for txt in texts:
        toks = tokenize(txt)
        c.update(" ".join(toks[i:i + 2]) for i in range(len(toks) - 1))
    want = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
    assert got == want


def test_decontaminate_plants_and_bounds(ray_session):
    import ray.data
    from searchengine_ray.functions.tokenizer import tokenize
    from searchengine_ray.pipelines.decontam import decontaminate
    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(50)]
    bench_texts = [" ".join(rng.choice(vocab, size=20)) for _ in range(5)]
    clean = [" ".join(rng.choice([f"z{i}" for i in range(50)], size=20))
             for _ in range(6)]
    # planted: doc 100 IS bench doc 0; doc 101 is half bench / half clean
    planted_full = bench_texts[0]
    planted_half = " ".join(bench_texts[1].split()[:10]) + " " + clean[0]
    train_texts = clean + [planted_full, planted_half]
    train = pa.table({
        "doc_id": pa.array(np.arange(94, 94 + len(train_texts),
                                     dtype=np.int64)),
        "text": pa.array(train_texts)})
    bench = pa.table({
        "doc_id": pa.array(np.arange(5, dtype=np.int64)),
        "text": pa.array(bench_texts)})
    out = {r["doc_id"]: r for r in decontaminate(
        ray.data.from_arrow(train), ray.data.from_arrow(bench),
        n=3, tau_u=500_000).take_all()}
    full_id, half_id = 94 + len(clean), 94 + len(clean) + 1
    assert out[full_id]["contam_u"] == 1_000_000  # exact copy: 100%
    assert out[full_id]["flagged"] == 1
    assert 0 < out[half_id]["n_hit"] < out[half_id]["n_shingles"]
    for i in range(94, 94 + len(clean)):  # clean docs: zero overlap
        assert out[i]["n_hit"] == 0 and out[i]["flagged"] == 0
    # n_shingles matches the tokenizer identity per doc
    for i, txt in enumerate(train_texts):
        toks = tokenize(txt)
        n_sh = len({" ".join(toks[j:j + 3]) for j in range(len(toks) - 2)})
        assert out[94 + i]["n_shingles"] == n_sh


def test_doc_rarity_matches_bruteforce(ray_session):
    import collections

    import ray.data
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    from searchengine_ray.pipelines.analysis import RARITY_SCALE, doc_rarity
    rng = np.random.default_rng(21)
    vocab = ["alpha", "beta", "gamma", "delta", "eps", "zeta"]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(0, 15)))
             for _ in range(80)]
    t = pa.table({"doc_id": pa.array(np.arange(80, dtype=np.int64)),
                  "text": pa.array(texts)})
    cfg = IndexConfig()
    got = {r["doc_id"]: (r["n_tok"], r["rarity_u"]) for r in
           doc_rarity(ray.data.from_arrow(t), cfg).take_all()}
    tok_lists = [filter_tokens(tokenize(x), cfg) for x in texts]
    df = collections.Counter()
    for toks in tok_lists:
        df.update(set(toks))
    want = {}
    for i, toks in enumerate(tok_lists):
        if toks:
            s = sum(80 * RARITY_SCALE // df[tk] for tk in toks)
            want[i] = (len(toks), s // len(toks))
    assert got == want and want


def _assert_empty_join_schemas(l, r, lkey, rkey, hot):
    """No-match and empty-side inputs keep the typed output schema in
    every mode, plain and salted: the key column(s), ``lv`` and, for
    inner/left, ``rv``."""
    import pyarrow.compute as pc
    import ray.data
    from searchengine_ray.pipelines.join import equi_join
    rk0 = rkey if isinstance(rkey, str) else rkey[0]
    nomatch = r.set_column(r.schema.get_field_index(rk0), rk0,
                           pc.add(r[rk0], 10_000))
    keys = [("key", pa.int64())] if isinstance(lkey, str) else \
        [(c, l.schema.field(c).type) for c in lkey]
    for case, lt, rt in (("no match", l, nomatch),
                         ("empty right", l, r.slice(0, 0)),
                         ("empty left", l.slice(0, 0), r)):
        lds, rds = ray.data.from_arrow(lt), ray.data.from_arrow(rt)
        for how in ("inner", "left", "semi", "anti"):
            want = keys + [("lv", l.schema.field("lv").type)] + \
                ([("rv", r.schema.field("rv").type)]
                 if how in ("inner", "left") else [])
            for hot_keys in (None, hot):
                out = equi_join(lds, rds, lkey, rkey, ["lv"], ["rv"],
                                how=how, hot_keys=hot_keys).materialize()
                sch = out.schema()
                assert sch is not None, (case, how)
                assert [(f.name, f.type) for f in sch.base_schema] == \
                    want, (case, how, hot_keys is not None)
                assert out.count() == (
                    len(lt) if how in ("left", "anti") else 0)


def test_equi_join_salted_identical_all_modes(ray_session):
    import ray.data
    from searchengine_ray.pipelines.join import (_routing_hash,
                                                 detect_hot_keys, equi_join)
    rng = np.random.default_rng(29)
    # skewed: key 7 carries half the left side; keys 0..19 uniform rest
    lk = np.concatenate([np.full(300, 7), rng.integers(0, 20, size=300)])
    rng.shuffle(lk)
    rk = rng.integers(0, 25, size=60)  # some keys matchless both ways
    l = pa.table({"k": pa.array(lk, type=pa.int64()),
                  "lv": pa.array([f"L{i}" for i in range(600)])})
    r = pa.table({"kk": pa.array(rk, type=pa.int64()),
                  "rv": pa.array(rng.standard_normal(60))})
    lds, rds = ray.data.from_arrow(l), ray.data.from_arrow(r)
    hot = detect_hot_keys(lds, "k", threshold=100)
    # hot sets hold routing hashes; key 7's must be among them
    hash7 = _routing_hash(pa.table({"k": [7]}), "k").view(np.int64)[0]
    assert hash7 in set(hot.tolist())

    def canon(rows):
        return sorted(tuple(row[c] for c in sorted(row)) for row in rows)

    for how in ("inner", "left", "semi", "anti"):
        plain = canon(equi_join(lds, rds, "k", "kk", ["lv"], ["rv"],
                                how=how).take_all())
        salted = canon(equi_join(
            lds, rds, "k", "kk", ["lv"], ["rv"],
            hot_keys=hot, replicate=4, how=how).take_all())
        assert salted == plain and plain, how
    # empty hot set degrades to the plain join
    nohot = canon(equi_join(
        lds, rds, "k", "kk", ["lv"], ["rv"],
        hot_keys=np.empty(0, dtype=np.int64)).take_all())
    assert nohot == canon(equi_join(lds, rds, "k", "kk",
                                    ["lv"], ["rv"]).take_all())
    _assert_empty_join_schemas(l, r, "k", "kk", hot)


@hyp_settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.one_of(st.none(),
                                    st.integers(min_value=0, max_value=5)),
                          st.integers(min_value=0, max_value=99)),
                min_size=0, max_size=12),
       st.lists(st.tuples(st.one_of(st.none(),
                                    st.integers(min_value=0, max_value=5)),
                          st.integers(min_value=0, max_value=99)),
                min_size=0, max_size=8))
# an all-NULL right batch once crashed the salted right-side tagging
@example(lrows=[(3, 99), (None, 49), (3, 33)], rrows=[(None, 1), (None, 2)])
def test_equi_join_null_keys_property(ray_session, lrows, rrows):
    """Randomized null-ridden inputs: every join mode must agree with a
    brute-force reference implementing SQL NULL semantics — in the
    column-name key form plain and salted (every key hot), and in the
    list key form."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.join import _routing_hash, equi_join
    l = pa.table({"k": pa.array([k for k, _ in lrows], type=pa.int64()),
                  "lv": pa.array([v for _, v in lrows],
                                 type=pa.int64())})
    r = pa.table({"k": pa.array([k for k, _ in rrows], type=pa.int64()),
                  "rv": pa.array([v for _, v in rrows],
                                 type=pa.int64())})
    lds, rds = ray.data.from_arrow(l), ray.data.from_arrow(r)
    rk = [k for k, _ in rrows if k is not None]
    every_key = _routing_hash(pa.table({"k": np.arange(6)}), "k") \
        .view(np.int64)
    forms = (("k", "key", None), ("k", "key", every_key),
             (["k"], "k", None))
    for how in ("inner", "left", "semi", "anti"):
        want = []
        for k, v in lrows:
            matches = [rv for k2, rv in rrows
                       if k is not None and k2 == k]
            if how == "inner":
                want += [(k, v, m) for m in matches]
            elif how == "left":
                want += ([(k, v, m) for m in matches]
                         if matches else [(k, v, None)])
            elif how == "semi":
                want += [(k, v)] if matches else []
            else:                                  # anti: NOT EXISTS
                want += [] if matches else [(k, v)]
        skey = (lambda t: tuple((x is None, str(x)) for x in t))
        for key, out_key, hot in forms:
            got = []
            for row in equi_join(lds, rds, key, key, ["lv"], ["rv"],
                                 how=how, hot_keys=hot).take_all():
                t = (row[out_key], row["lv"]) + \
                    ((row["rv"],) if "rv" in row else ())
                got.append(tuple(None if isinstance(x, float) and x != x
                                 else x for x in t))
            assert sorted(got, key=skey) == sorted(want, key=skey), \
                (how, key, hot is not None)


_RR_KEY = st.one_of(st.none(), st.integers(min_value=0, max_value=4))
_RR_TAG = st.one_of(st.none(), st.sampled_from(["x", "y"]))


@hyp_settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
@given(lrows=st.lists(st.tuples(_RR_KEY, _RR_TAG), min_size=0,
                      max_size=10),
       rrows=st.lists(st.tuples(_RR_KEY, _RR_TAG,
                                st.integers(min_value=-50, max_value=50)),
                      min_size=0, max_size=10),
       how=st.sampled_from(["inner", "left", "semi", "anti"]),
       replicate=st.sampled_from([1, 2, 4]))
@example(lrows=[(1, "x"), (None, "y")], rrows=[], how="left", replicate=2)
@example(lrows=[(2, "x"), (2, "x"), (2, None)],
         rrows=[(2, "x", 5), (2, "x", -3), (2, "y", 1), (None, "x", 9)],
         how="inner", replicate=4)
def test_equi_join_right_reduce_is_aggregate_then_join(
        ray_session, lrows, rrows, how, replicate):
    """``right_reduce`` finishing per-batch right partials inside the
    join partition equals aggregating the right side first and joining
    after, for every mode, int and composite keys, NULL keys, an empty
    right side and every key salted."""
    import ray.data
    from searchengine_ray.pipelines.join import _routing_hash, equi_join
    l = pa.table({"k": pa.array([k for k, _ in lrows], pa.int64()),
                  "s": pa.array([t for _, t in lrows], pa.string()),
                  "lv": pa.array(range(len(lrows)), pa.int64())})
    r = pa.table({"k": pa.array([k for k, _, _ in rrows], pa.int64()),
                  "s": pa.array([t for _, t, _ in rrows], pa.string()),
                  "v": pa.array([v for _, _, v in rrows], pa.int64())})
    lds = ray.data.from_arrow(l)
    # two right blocks, so one key's partials come from several batches
    rds = ray.data.from_arrow([r.slice(0, len(r) // 2),
                               r.slice(len(r) // 2)])
    every = pa.table({"k": pa.array(np.repeat(np.arange(5), 2), pa.int64()),
                      "s": pa.array(["x", "y"] * 5)})
    forms = (("k", ["key"], None),
             ("k", ["key"], _routing_hash(every, "k").view(np.int64)),
             (["k", "s"], ["k", "s"], None),
             (["k", "s"], ["k", "s"],
              _routing_hash(every, ["k", "s"]).view(np.int64)))
    for key, out_keys, hot in forms:
        kcols = ["k"] if key == "k" else key

        def reduce(t, kcols=kcols):
            g = t.group_by(kcols, use_threads=False).aggregate(
                [("v", "sum")])
            return pa.table({**{c: g[c] for c in kcols},
                             "v": g["v_sum"]})

        sums: dict = {}
        for row in rrows:
            rk = row[:len(kcols)]
            if None not in rk:
                sums[rk] = sums.get(rk, 0) + row[2]
        want = []
        for i, row in enumerate(lrows):
            lk = row[:len(kcols)]
            m = sums.get(lk) if None not in lk else None
            if how in ("inner", "left"):
                if m is not None or how == "left":
                    want.append(lk + (i, m))
            elif (how == "semi") == (m is not None):
                want.append(lk + (i,))
        got = [tuple(d[c] for c in out_keys + ["lv"]) +
               ((d["v"],) if "v" in d else ())
               for d in equi_join(lds, rds, key, key, ["lv"], ["v"],
                                  how=how, hot_keys=hot,
                                  replicate=replicate,
                                  right_reduce=reduce).take_all()]
        skey = (lambda t: tuple((x is None, str(x)) for x in t))
        assert sorted(got, key=skey) == sorted(want, key=skey), \
            (how, key, hot is not None)


def test_equi_join_finish_refuses_salting(ray_session):
    """``finish`` needs every row of a key in one partition, so it
    refuses a non-empty hot set; an empty one is the plain join."""
    import ray.data
    from searchengine_ray.pipelines.join import equi_join
    t = pa.table({"k": pa.array([1, 2, 2], pa.int64()),
                  "v": pa.array([1, 2, 3], pa.int64())})
    ds = ray.data.from_arrow(t)
    rs = ray.data.from_arrow(t.rename_columns(["k", "w"]))
    with pytest.raises(ValueError, match="finish"):
        equi_join(ds, rs, "k", "k", ["v"], ["w"],
                  hot_keys=np.array([5], dtype=np.int64),
                  finish=lambda p: p)
    out = equi_join(ds, rs, "k", "k", ["v"], ["w"],
                    hot_keys=np.empty(0, dtype=np.int64),
                    finish=lambda p: p.group_by("key").aggregate(
                        [("v", "count")]))
    assert sorted((r["key"], r["v_count"]) for r in out.take_all()) == \
        [(1, 1), (2, 4)]


def test_equi_join_null_keys_sql_semantics(ray_session):
    """NULL join keys must follow SQL semantics — NULL matches nothing
    (previously null int64 keys decayed to garbage and MATCHED each
    other): inner/semi drop null-key rows, left keeps them with null
    right columns, anti keeps them. Checked against DuckDB for every
    mode, single- and composite-key, plain and salted."""
    import duckdb
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.join import (_routing_hash,
                                                 detect_hot_keys, equi_join)
    l = pa.table({"k": pa.array([1, None, 2, None, 3], type=pa.int64()),
                  "s": pa.array(["x", "x", None, "y", "x"]),
                  "lv": pa.array(["a", "b", "c", "d", "e"])})
    r = pa.table({"k": pa.array([1, None, 3, 3], type=pa.int64()),
                  "s": pa.array(["x", "x", "x", None]),
                  "rv": pa.array([10.0, 20.0, 30.0, 40.0])})
    con = duckdb.connect()
    con.register("l", l)
    con.register("r", r)
    lds, rds = ray.data.from_arrow(l), ray.data.from_arrow(r)

    def canon(rows):
        out = []
        for row in rows:
            vals = []
            for c in sorted(row):
                v = row[c]
                if isinstance(v, float) and v != v:   # NaN → None
                    v = None
                vals.append(v)
            out.append(tuple(vals))
        return sorted(out,
                      key=lambda t: tuple((x is None, str(x))
                                          for x in t))

    sql = {
        "inner": "SELECT l.k AS key, lv, rv FROM l JOIN r ON l.k = r.k",
        "left": "SELECT l.k AS key, lv, rv FROM l LEFT JOIN r "
                "ON l.k = r.k",
        "semi": "SELECT k AS key, lv FROM l WHERE k IN (SELECT k FROM r)",
        # anti = NOT EXISTS (Spark LEFT ANTI / DuckDB ANTI): a NULL-key
        # left row matches nothing, so it IS kept
        "anti": "SELECT k AS key, lv FROM l WHERE NOT EXISTS "
                "(SELECT 1 FROM r WHERE r.k = l.k)",
    }
    for how, q in sql.items():
        want = canon(con.execute(q).fetch_arrow_table().to_pylist())
        got = canon(equi_join(lds, rds, "k", "k", ["lv"], ["rv"],
                              how=how).take_all())
        assert got == want, ("single", how)
        got_s = canon(equi_join(
            lds, rds, "k", "k", ["lv"], ["rv"],
            hot_keys=_routing_hash(pa.table({"k": [3]}), "k")
            .view(np.int64), replicate=2,
            how=how).take_all())
        assert got_s == want, ("salted", how)

    sql_multi = {
        "inner": "SELECT l.k, l.s, lv, rv FROM l JOIN r "
                 "ON l.k = r.k AND l.s = r.s",
        "left": "SELECT l.k, l.s, lv, rv FROM l LEFT JOIN r "
                "ON l.k = r.k AND l.s = r.s",
        "semi": "SELECT k, s, lv FROM l WHERE EXISTS (SELECT 1 FROM r "
                "WHERE r.k = l.k AND r.s = l.s)",
        "anti": "SELECT k, s, lv FROM l WHERE NOT EXISTS (SELECT 1 "
                "FROM r WHERE r.k = l.k AND r.s = l.s)",
    }
    hot = detect_hot_keys(lds, ["k", "s"], threshold=1)
    for how, q in sql_multi.items():
        want = canon(con.execute(q).fetch_arrow_table().to_pylist())
        got = canon(equi_join(lds, rds, ["k", "s"], ["k", "s"], ["lv"],
                              ["rv"], how=how).take_all())
        assert got == want, ("multi", how)
        got_s = canon(equi_join(
            lds, rds, ["k", "s"], ["k", "s"], ["lv"], ["rv"],
            hot_keys=hot, replicate=2, how=how).take_all())
        assert got_s == want, ("multi_salted", how)


def test_equi_join_multi_salted_identical_all_modes(ray_session):
    """Composite-key salting (round-4 verdict #4): hot (int, string)
    keys spread/replicate across salts, output row-identical to the
    unsalted composite join in all four modes."""
    import ray.data
    from searchengine_ray.pipelines.join import detect_hot_keys, equi_join
    rng = np.random.default_rng(31)
    # skew: (7, "click") carries half the left side
    n = 600
    lu = np.concatenate([np.full(n // 2, 7),
                         rng.integers(0, 15, size=n - n // 2)])
    lt = np.concatenate([np.array(["click"] * (n // 2)),
                         rng.choice(["click", "view", "buy"],
                                    size=n - n // 2)])
    perm = rng.permutation(n)
    lu, lt = lu[perm], lt[perm]
    l = pa.table({"u": pa.array(lu, type=pa.int64()),
                  "t": pa.array(lt),
                  "lv": pa.array([f"L{i}" for i in range(n)])})
    ru = rng.integers(0, 18, size=80)
    rt = rng.choice(["click", "view", "buy", "ghost"], size=80)
    r = pa.table({"u": pa.array(ru, type=pa.int64()),
                  "t": pa.array(rt),
                  "rv": pa.array(rng.standard_normal(80))})
    lds, rds = ray.data.from_arrow(l), ray.data.from_arrow(r)
    hot = detect_hot_keys(lds, ["u", "t"], threshold=100)
    assert hot.size >= 1

    def canon(rows):
        return sorted(tuple(row[c] for c in sorted(row)) for row in rows)

    for how in ("inner", "left", "semi", "anti"):
        plain = canon(equi_join(
            lds, rds, ["u", "t"], ["u", "t"], ["lv"], ["rv"],
            how=how).take_all())
        salted = canon(equi_join(
            lds, rds, ["u", "t"], ["u", "t"], ["lv"], ["rv"],
            hot_keys=hot, replicate=4, how=how).take_all())
        assert salted == plain and plain, how
    # empty hot set degrades to the plain composite join
    nohot = canon(equi_join(
        lds, rds, ["u", "t"], ["u", "t"], ["lv"], ["rv"],
        hot_keys=np.empty(0, dtype=np.int64)).take_all())
    assert nohot == canon(equi_join(
        lds, rds, ["u", "t"], ["u", "t"], ["lv"], ["rv"]).take_all())
    # the right side may name its key columns differently
    _assert_empty_join_schemas(
        l, r.rename_columns(["ru", "rt", "rv"]), ["u", "t"], ["ru", "rt"],
        hot)


def test_chunk_docs_matches_bruteforce(ray_session):
    import ray.data
    from searchengine_ray.pipelines.chunking import chunk_docs
    rng = np.random.default_rng(31)
    vocab = [f"tok{i}" for i in range(9)] + ["ünïcode", "汉字词"]
    texts = [" ".join(rng.choice(vocab, size=int(m)))
             for m in rng.integers(0, 40, size=60)]
    texts += ["", "   ", "one", "  a  b "]  # empty / whitespace edge cases
    t = pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                  "text": pa.array(texts)})
    W, S = 7, 5
    got = sorted(
        (r["doc_id"], r["chunk_id"], r["start_tok"], r["n_tok"],
         r["chunk_text"])
        for r in chunk_docs(ray.data.from_arrow(t), window=W,
                            stride=S).take_all())
    want = []
    for i, txt in enumerate(texts):
        toks = txt.split()
        for c, st in enumerate(range(0, len(toks), S)):
            seg = toks[st:st + W]
            want.append((i, c, st, len(seg), " ".join(seg)))
    assert got == sorted(want) and len(got) > len(texts)


def test_dup_spans_matches_bruteforce(ray_session):
    import ray.data
    from searchengine_ray.pipelines.chunking import dup_spans
    rng = np.random.default_rng(37)
    W = 4
    vocab = [f"w{i}" for i in range(40)]
    shared = list(rng.choice(vocab, size=9))   # planted cross-doc span
    texts = [" ".join(rng.choice(vocab, size=25)) for _ in range(30)]
    texts[3] = " ".join(texts[3].split()[:5] + shared
                        + texts[3].split()[5:10])
    texts[17] = " ".join(shared + texts[17].split()[:8])
    # within-doc-only repeat: must NOT qualify (needs >= 2 distinct docs)
    solo = list(rng.choice(vocab, size=W))
    texts.append(" ".join(solo + ["x9", "y9"] + solo))
    t = pa.table({"doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
                  "text": pa.array(texts)})
    got = sorted(
        (r["doc_id"], r["span_start"], r["span_end"], r["n_windows"])
        for r in dup_spans(ray.data.from_arrow(t), window=W).take_all())
    # brute force
    import collections
    docs_of = collections.defaultdict(set)
    wins = []
    for i, txt in enumerate(texts):
        toks = txt.split()
        for s in range(max(len(toks) - W + 1, 0)):
            g = " ".join(toks[s:s + W])
            docs_of[g].add(i)
            wins.append((i, s, g))
    want = []
    per_doc = collections.defaultdict(list)
    for i, s, g in wins:
        if len(docs_of[g]) >= 2:
            per_doc[i].append(s)
    for i, starts in per_doc.items():
        starts.sort()
        span = [starts[0], starts[0]]
        cnt = 1
        for s in starts[1:]:
            if s - span[1] <= W:
                span[1] = s
                cnt += 1
            else:
                want.append((i, span[0], span[1] + W, cnt))
                span = [s, s]
                cnt = 1
        want.append((i, span[0], span[1] + W, cnt))
    assert got == sorted(want)
    # planted span present in both carrier docs; solo-repeat doc absent
    dup_docs = {d for d, *_ in got}
    assert 3 in dup_docs and 17 in dup_docs
    assert len(texts) - 1 not in dup_docs


def test_mixture_sample_matches_bruteforce(ray_session):
    import hashlib
    import ray.data
    from searchengine_ray.pipelines.analysis import mixture_sample
    rng = np.random.default_rng(41)
    srcs = [f"s{i}" for i in range(5)]
    texts = [" ".join(rng.choice([f"w{j}" for j in range(30)],
                                 size=int(m)))
             for m in rng.integers(1, 60, size=200)]
    texts += ["", "   "]  # zero-token docs: never consume budget
    t = pa.table({
        "doc_id": pa.array(np.arange(len(texts), dtype=np.int64)),
        "source": pa.array([srcs[i % len(srcs)]
                            for i in range(len(texts))]),
        "text": pa.array(texts),
    })
    budgets = {"s0": 300, "s1": 150, "s2": 80}  # s3/s4 hit the default
    got = sorted(
        (r["doc_id"], r["source"], r["n_tokens"], r["cum_before"])
        for r in mixture_sample(ray.data.from_arrow(t),
                                budgets=budgets).take_all())
    # brute force: md5-order prefix sum per source
    rows = []
    for i, txt in enumerate(texts):
        h = int.from_bytes(
            hashlib.md5(str(i).encode()).digest()[:4], "big")
        rows.append((srcs[i % len(srcs)], h, i, len(txt.split())))
    want = []
    for s in srcs:
        cum = 0
        for src, h, i, nt in sorted(r for r in rows if r[0] == s):
            bud = budgets.get(s, 500)
            if cum < bud:
                want.append((i, s, nt, cum))
            cum += nt
    assert got == sorted(want)
    # budgets actually bind: every source kept strictly fewer docs than
    # it has, and each source's kept token mass is within one doc of its
    # budget
    per_src = {}
    for i, s, nt, cb in got:
        per_src.setdefault(s, []).append((cb, nt))
    for s, picked in per_src.items():
        bud = budgets.get(s, 500)
        assert max(cb for cb, _ in picked) < bud
        assert sum(nt for _, nt in picked) + 0 >= bud - 60  # filled


# ---------------------------------------------------------------------------
# phrase_match (full-content phrase grep)
# ---------------------------------------------------------------------------

def test_phrase_match_matches_bruteforce(ray_session):
    import ray.data
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    from searchengine_ray.pipelines.analysis import phrase_match

    cfg = IndexConfig()
    texts = [
        "alpha beta gamma delta",          # plain adjacency
        "alpha the beta",                  # stopword between -> still adjacent
        "beta alpha",                      # reversed, no match
        "alpha betax gamma",               # token mismatch
        "xx alpha-beta yy",                # hyphen splits into adjacency
        "",                                # empty
        "alpha beta alpha beta",           # repeated
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string())})
    ds = ray.data.from_arrow(t)

    def brute(phrase):
        nt = filter_tokens(tokenize(phrase), cfg)
        out = []
        for i, txt in enumerate(texts):
            toks = filter_tokens(tokenize(txt), cfg)
            if nt and any(toks[j:j + len(nt)] == nt
                          for j in range(len(toks) - len(nt) + 1)):
                out.append(i)
        return out

    for phrase in ("alpha beta", "beta gamma", "alpha the beta",
                   "gamma delta", "nope alpha", ""):
        got = sorted(r["doc_id"] for r in phrase_match(ds, phrase, cfg).take_all())
        assert got == brute(phrase), phrase
    # stopword-removed adjacency: doc 1 and doc 4 match "alpha beta"
    assert 1 in brute("alpha beta") and 4 in brute("alpha beta")


# ---------------------------------------------------------------------------
# HLL distinct-user sketch
# ---------------------------------------------------------------------------

def test_hll_distinct_users_accuracy_and_mergeability(ray_session):
    import ray.data
    from searchengine_ray.pipelines.events import hll_distinct_users

    rng = np.random.default_rng(11)
    rows_t, rows_u = [], []
    truth = {"click": 1500, "view": 400, "buy": 37}
    for et, n in truth.items():
        users = rng.choice(100_000, size=n, replace=False)
        # repeat users so the sketch sees duplicates
        reps = np.concatenate([users, rng.choice(users, size=2 * n)])
        rows_t += [et] * len(reps)
        rows_u += reps.tolist()
    t = pa.table({"event_type": pa.array(rows_t, type=pa.string()),
                  "user_id": pa.array(rows_u, type=pa.int64())})

    def run(num_blocks):
        ds = ray.data.from_arrow(t).repartition(num_blocks)
        return {r["event_type"]: r["est_r"]
                for r in hll_distinct_users(ds).take_all()}

    est = run(4)
    for et, n in truth.items():
        assert abs(est[et] - n) / n < 0.15, (et, est[et], n)
    # mergeable-sketch property: register merge is max -> estimate is
    # invariant to how rows are split into batches/blocks
    assert run(1) == est and run(13) == est


def test_neardup_cluster_keep_matches_bruteforce(docs_ds):
    from searchengine_ray.pipelines.dedup import (minhash_lsh_pairs,
                                                  neardup_cluster_keep)
    t = docs_table()
    ids = t["doc_id"].to_pylist()
    texts = dict(zip(ids, t["text"].to_pylist()))
    pairs = [(r["a_id"], r["b_id"])
             for r in minhash_lsh_pairs(docs_ds, family="m31").take_all()]
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    clusters = {}
    for i in ids:
        clusters.setdefault(find(i), []).append(i)
    expect = {}
    for members in clusters.values():
        best = min(members, key=lambda i: (-len(texts[i]), i))
        for i in members:
            expect[i] = (i == best)
    got = {r["doc_id"]: r["keep"]
           for r in neardup_cluster_keep(docs_ds).take_all()}
    assert got == expect
    # the planted exact-dup groups (3,10), (7,25), (5,41,40-near) each
    # keep exactly one member
    for group in ([3, 10], [7, 25], [5, 41]):
        assert sum(got[i] for i in group) == 1


def test_doc_keywords_matches_bruteforce(docs_ds):
    from collections import Counter

    from searchengine_ray.config import IndexConfig
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    from searchengine_ray.pipelines.analysis import RARITY_SCALE, doc_keywords

    cfg = IndexConfig()
    t = docs_table()
    toks = {i: filter_tokens(tokenize(txt), cfg)
            for i, txt in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())}
    n_docs = len(toks)
    df = Counter()
    for ts in toks.values():
        df.update(set(ts))
    expect = []
    for i, ts in toks.items():
        tf = Counter(ts)
        scored = sorted(((term, c * ((n_docs * RARITY_SCALE) // df[term]))
                         for term, c in tf.items()),
                        key=lambda r: (-r[1], r[0]))[:3]
        expect += [(i, rank + 1, term, s)
                   for rank, (term, s) in enumerate(scored)]
    got = sorted((r["doc_id"], r["rank"], r["term"], r["score_u"])
                 for r in doc_keywords(docs_ds, k=3, cfg=cfg).take_all())
    assert got == sorted(expect)


def test_weighted_sample_and_cap_per_source(ray_session):
    import hashlib

    import ray.data
    from searchengine_ray.pipelines.analysis import (_WS_THRESH_PER_CHAR,
                                                     cap_per_source,
                                                     weighted_sample)

    rng = np.random.default_rng(5)
    n = 300
    texts = ["x" * int(rng.integers(0, 4000)) for _ in range(n)]
    srcs = [f"s{int(rng.integers(0, 4))}" for _ in range(n)]
    t = pa.table({"doc_id": pa.array(range(n), type=pa.int64()),
                  "text": pa.array(texts, type=pa.string()),
                  "source": pa.array(srcs, type=pa.string())})
    ds = ray.data.from_arrow(t).repartition(7)

    def h32(i):
        return int.from_bytes(hashlib.md5(str(i).encode()).digest()[:4],
                              "big")

    expect_ws = sorted(i for i in range(n)
                       if h32(i) < min(1 << 32,
                                       len(texts[i]) * _WS_THRESH_PER_CHAR))
    got_ws = sorted(r["doc_id"] for r in
                    weighted_sample(ds.drop_columns(["source"])).take_all())
    assert got_ws == expect_ws
    # longer docs are sampled more often (weighting is real)
    long_rate = np.mean([len(texts[i]) > 2000 for i in got_ws])
    assert long_rate > np.mean([len(t) > 2000 for t in texts])

    got_cap = sorted((r["source"], r["doc_id"])
                     for r in cap_per_source(
                         ds.drop_columns(["text"]), k=5).take_all())
    expect_cap = []
    for s in set(srcs):
        members = sorted((h32(i), i) for i in range(n) if srcs[i] == s)[:5]
        expect_cap += [(s, i) for _, i in members]
    assert got_cap == sorted(expect_cap)
    # idempotent: re-running selects the same rows
    assert got_cap == sorted((r["source"], r["doc_id"])
                             for r in cap_per_source(
                                 ds.drop_columns(["text"]), k=5).take_all())


def test_prepare_corpus_composed_pipeline(ray_session):
    """The composed curate→decontaminate→cap→pack pipeline vs its SQL twin
    on an ADVERSARIAL corpus: planted exact dupes, junk (stopword-only /
    tiny) docs, a doc that quotes a benchmark doc verbatim, and one source
    holding half the corpus (the cap must bite)."""
    import duckdb
    import ray.data
    from searchengine_ray.pipelines.prepare import (prepare_corpus,
                                                    sql_prepare_corpus)

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(60)]
    rows = []
    for i in range(120):
        toks = [vocab[j] for j in rng.integers(0, 60, size=40)]
        src = "hot" if i % 2 == 0 else f"s{i % 5}"
        rows.append((i, " ".join(toks), src))
    rows[11] = (11, rows[4][1], rows[11][2])          # exact dupe
    rows[13] = (13, "the the the the the the the the the the the a", "s1")
    rows[17] = (17, "tiny", "s2")                     # fails min_ws_tokens
    # doc 21 quotes bench doc 0 (doc_id % 37 == 0) verbatim -> contaminated
    rows[21] = (21, rows[0][1], "s3")
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "text": pa.array([r[1] for r in rows], type=pa.string()),
        "source": pa.array([r[2] for r in rows], type=pa.string()),
    })
    ds = ray.data.from_arrow(t).repartition(5)
    got = sorted((r["doc_id"], r["source"], r["part"], r["bin_id"],
                  r["n_tokens"])
                 for r in prepare_corpus(ds, cap_k=8,
                                         capacity=64).take_all())
    con = duckdb.connect()
    con.register("documents", t)
    ref = sorted(map(tuple, con.sql(
        sql_prepare_corpus(cap_k=8, capacity=64)).fetchall()))
    assert got == ref
    ids = {r[0] for r in got}
    # dupes/junk/bench/contaminated are out; exactly one of (4, 11) kept
    assert 11 not in ids and 13 not in ids and 17 not in ids
    assert 21 not in ids                      # quoted the bench doc
    assert 0 not in ids and 37 not in ids     # bench docs excluded
    # the cap bit the hot source
    assert sum(1 for r in got if r[1] == "hot") == 8


def test_media_resize_stats_closed_form(ray_session):
    import ray.data
    from searchengine_ray.pipelines.multimodal import (SYNTH_IMG_H,
                                                       SYNTH_IMG_W,
                                                       media_resize_stats)
    ids = [0, 7, 123, 255, 9999]
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids,
                                                          type=pa.int64())}))
    got = {r["doc_id"]: (r["n_units"], r["pixel_sum"])
           for r in media_resize_stats(ds, out_w=4, out_h=2).take_all()}

    def brute(d):
        s = 0
        for r in range(2):
            for c in range(4):
                for ch in range(3):
                    row = (r * SYNTH_IMG_H) // 2
                    col = (c * SYNTH_IMG_W) // 4
                    s += (d + (row * SYNTH_IMG_W + col) * 3 + ch) % 256
        return s

    assert got == {d: (24, brute(d)) for d in ids}


def test_media_frame_stats_closed_form(ray_session):
    import ray.data
    from searchengine_ray.pipelines.multimodal import (
        SYNTH_IMG_H, SYNTH_IMG_W, SYNTH_VIDEO_FRAME_STEP, media_frame_stats)
    ids = [0, 3, 4, 9, 254]
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids,
                                                          type=pa.int64())}))
    got = sorted((r["doc_id"], r["frame_idx"], r["width"], r["height"],
                  r["pixel_sum"])
                 for r in media_frame_stats(ds, stride=2).take_all())
    n_px = SYNTH_IMG_W * SYNTH_IMG_H * 3
    expect = []
    for d in ids:
        for f in range(0, 1 + d % 5, 2):
            s = sum((d + f * SYNTH_VIDEO_FRAME_STEP + j) % 256
                    for j in range(n_px))
            expect.append((d, f, SYNTH_IMG_W, SYNTH_IMG_H, s))
    assert got == sorted(expect)


def test_docs_rollup_levels(ray_session):
    import ray.data
    from searchengine_ray.pipelines.analysis import ROLLUP_ALL, docs_rollup
    t = pa.table({
        "source": pa.array(["a", "a", "b", "b", "b"]),
        "lang": pa.array(["en", "zh", "en", "en", "zh"]),
        "text": pa.array(["x" * n for n in (3, 5, 7, 11, 13)]),
    })
    rows = {(r["source"], r["lang"]): (r["n_docs"], r["n_chars"])
            for r in docs_rollup(
                ray.data.from_arrow(t).repartition(3)).take_all()}
    assert rows[("a", "en")] == (1, 3) and rows[("a", "zh")] == (1, 5)
    assert rows[("b", "en")] == (2, 18) and rows[("b", "zh")] == (1, 13)
    assert rows[("a", ROLLUP_ALL)] == (2, 8)
    assert rows[("b", ROLLUP_ALL)] == (3, 31)
    assert rows[(ROLLUP_ALL, ROLLUP_ALL)] == (5, 39)
    assert len(rows) == 7


def test_int8_topk_quantization_and_recall(emb_ds):
    from searchengine_ray.pipelines.similarity import (_int8_quantize,
                                                       brute_topk, int8_topk)
    # round-half-UP vectors (the numpy/DuckDB-shared floor(x+0.5) rule)
    m = np.array([[1.0, 0.5, -0.5, -1.0]])
    assert _int8_quantize(m).tolist() == [[127, 64, -63, -127]]
    q = [0, 1, 2]
    exact = brute_topk(emb_ds, q, 10)
    quant = int8_topk(emb_ds, q, 10)
    assert quant.num_rows == exact.num_rows
    # quantized recall@10 vs exact cosine stays high (int8 keeps rank
    # structure at d=64)
    def sets(t):
        out = {}
        for r in t.to_pylist():
            out.setdefault(r["query_id"], set()).add(r["vec_id"])
        return out
    e, g = sets(exact), sets(quant)
    rec = np.mean([len(e[k] & g[k]) / len(e[k]) for k in e])
    assert rec >= 0.8, rec
    # the query row itself is always its own nearest neighbor
    for k, s in g.items():
        assert k in s


def test_pagerank_int_matches_bruteforce(ray_session):
    import ray.data
    from searchengine_ray.pipelines.graph import (PR_DAMP_NUM, PR_ITERS,
                                                  PR_SCALE, pagerank_int)
    # two triangles bridged by one edge + two isolated nodes
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
    nodes = list(range(8))
    pairs = ray.data.from_arrow(pa.table({
        "a_id": pa.array([a for a, _ in edges], type=pa.int64()),
        "b_id": pa.array([b for _, b in edges], type=pa.int64()),
    })).repartition(3)
    nds = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(nodes, type=pa.int64())})).repartition(2)
    got = {r["doc_id"]: r["rank_u"]
           for r in pagerank_int(pairs, nds).take_all()}

    adj, deg = {}, {}
    for a, b in edges:
        adj.setdefault(b, []).append(a)
        adj.setdefault(a, []).append(b)
        deg[a] = deg.get(a, 0) + 1
        deg[b] = deg.get(b, 0) + 1
    base = (100 - PR_DAMP_NUM) * PR_SCALE // 100
    r = {n: PR_SCALE for n in nodes}
    for _ in range(PR_ITERS):
        r = {n: base + (PR_DAMP_NUM *
                        sum(r[u] // deg[u] for u in adj.get(n, []))) // 100
             for n in nodes}
    assert got == r
    # bridge nodes (2, 3) outrank pure-triangle nodes; isolates get base
    assert got[2] > got[0] and got[3] > got[4]
    assert got[6] == got[7] == base


def test_term_cooccurrence_matches_bruteforce(docs_ds):
    from collections import Counter
    from itertools import combinations

    from searchengine_ray.config import IndexConfig
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    from searchengine_ray.pipelines.analysis import (PMI_SCALE,
                                                     term_cooccurrence)
    cfg = IndexConfig()
    t = docs_table()
    docsets = [set(filter_tokens(tokenize(x), cfg))
               for x in t["text"].to_pylist()]
    n = len(docsets)
    df = Counter()
    pair_n = Counter()
    for s in docsets:
        df.update(s)
        pair_n.update(combinations(sorted(s), 2))
    expect = sorted(
        (a, b, c, (c * n * PMI_SCALE) // (df[a] * df[b]))
        for (a, b), c in pair_n.items() if c >= 3)
    got = sorted((r["term_a"], r["term_b"], r["n_ab"], r["pmi_u"])
                 for r in term_cooccurrence(docs_ds, min_pair=3,
                                            cfg=cfg).take_all())
    assert got == expect


# ---------------------------------------------------------------------------
# df-strategy switch (round-4: the last O(vocab) broadcasts, de-broadcast)
# ---------------------------------------------------------------------------

def test_df_join_strategy_identical_and_no_broadcast(docs_ds, monkeypatch):
    """strategy="join" must (a) never touch the ray.put broadcast hook and
    (b) produce row-identical output to the broadcast plan."""
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.pipelines import analysis

    cfg = IndexConfig()
    rar_b = sorted(map(tuple, (r.values() for r in
                   analysis.doc_rarity(docs_ds, cfg,
                                       strategy="broadcast").take_all())))
    kw_b = sorted(map(tuple, (r.values() for r in
                  analysis.doc_keywords(docs_ds, 3, cfg,
                                        strategy="broadcast").take_all())))

    def boom(dft):
        raise AssertionError("join strategy must not broadcast the df table")

    monkeypatch.setattr(analysis, "_broadcast_df", boom)
    rar_j = sorted(map(tuple, (r.values() for r in
                   analysis.doc_rarity(docs_ds, cfg,
                                       strategy="join").take_all())))
    kw_j = sorted(map(tuple, (r.values() for r in
                  analysis.doc_keywords(docs_ds, 3, cfg,
                                        strategy="join").take_all())))
    assert rar_j == rar_b and rar_b
    assert kw_j == kw_b and kw_b


def test_df_auto_strategy_switches_on_vocab_size(docs_ds, monkeypatch):
    """auto must pick join above the vocab limit (hook untouched) and
    broadcast below it (hook called exactly once per operator)."""
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.pipelines import analysis

    cfg = IndexConfig()
    calls = []
    real = analysis._broadcast_df

    def spy(dft):
        calls.append(dft.num_rows)
        return real(dft)

    monkeypatch.setattr(analysis, "_broadcast_df", spy)
    # vocab (50 planted words) > limit 10 → join path, no broadcast
    out = analysis.doc_rarity(docs_ds, cfg, strategy="auto",
                              broadcast_vocab_limit=10).take_all()
    assert out and calls == []
    # generous limit → broadcast path, hook called once
    out2 = analysis.doc_rarity(docs_ds, cfg, strategy="auto",
                               broadcast_vocab_limit=10_000).take_all()
    assert calls and len(calls) == 1
    assert sorted(map(tuple, (r.values() for r in out))) == \
        sorted(map(tuple, (r.values() for r in out2)))


def test_no_driver_side_table(ray_session):
    """The dedup module docstring's claim: NO ray.put / driver-side side
    table anywhere in the dedup family — per-doc set sizes ride along as
    explode columns. Source-level guard so a regression that reintroduces
    an O(N) broadcast fails loudly here."""
    import inspect

    from searchengine_ray.pipelines import dedup
    src = inspect.getsource(dedup)
    assert "ray.put(" not in src.replace("`ray.put`", "")
    assert ".take_all(" not in src and ".to_pandas(" not in src


def test_local_contract_vectorized_clique_and_chain(ray_session):
    """Dense clique + long chain + isolated nodes through the full CC —
    stresses the numpy min-label shrink that replaced the per-edge Python
    union-find in local_contract (round-4 verdict item 3)."""
    import ray.data
    from searchengine_ray.pipelines.graph import connected_components

    edges = []
    clique = list(range(50, 70))
    edges += [(a, b) for i, a in enumerate(clique) for b in clique[i + 1:]]
    edges += [(i, i + 1) for i in range(0, 30)]          # chain 0..30
    edges += [(100, 101), (101, 102), (100, 102)]         # triangle
    pairs = pa.table({
        "a_id": pa.array([a for a, _ in edges], type=pa.int64()),
        "b_id": pa.array([b for _, b in edges], type=pa.int64()),
    })
    nodes = pa.table({"doc_id": pa.array(
        sorted({v for e in edges for v in e} | {999, 1000}),
        type=pa.int64())})
    got = {r["doc_id"]: r["component_id"] for r in
           connected_components(ray.data.from_arrow(pairs),
                                ray.data.from_arrow(nodes)).take_all()}
    for v in clique:
        assert got[v] == 50
    for v in range(0, 31):
        assert got[v] == 0
    assert got[100] == got[101] == got[102] == 100
    assert got[999] == 999 and got[1000] == 1000


def test_preload_segments_equivalent(built):
    """preload_segments=True must load every partition at init and return
    bit-identical results to the lazy-load default."""
    from searchengine_ray.query import QueryEngine

    lazy = QueryEngine(built.index_dir, built.cfg)
    eager = QueryEngine(built.index_dir, built.cfg, preload_segments=True)
    assert len(eager._segments) == eager.num_partitions
    assert not lazy._segments
    for q in ["queue71", "py org2", "parse token stream",
              "src/module_96/file_25.py"]:
        assert eager.search(q, top_k=50) == lazy.search(q, top_k=50), q


def test_sentence_transformer_adapter_offline(built, tmp_path):
    """Round-4 verdict item 6: execute the REAL SentenceTransformerModel
    adapter glue (load()->_create_model hook, encode() kwargs + f32->f64
    cast, actor-pool dim handling) in CI via an offline fake model whose
    semantics equal the HashedBow default — so the hybrid path with the
    adapter class on the call stack must be bit-identical to the stock
    build."""
    import os
    import shutil

    from searchengine_ray.pipelines.embeddings import (
        SentenceTransformerModel, build_doc_embeddings, embed_text,
        load_doc_embeddings)
    from searchengine_ray.query import QueryEngine

    class OfflineST(SentenceTransformerModel):
        # closure class: cloudpickle ships it by value to Ray actors
        def _create_model(self):
            dim = self.dim

            class FakeST:
                def encode(self, texts, show_progress_bar=True,
                           convert_to_numpy=False,
                           normalize_embeddings=False):
                    # the adapter must pass the reference's kwargs
                    # (bert_embeddings.py:111-123 semantics)
                    assert show_progress_bar is False
                    assert convert_to_numpy and normalize_embeddings
                    return np.stack([embed_text(t, dim) for t in texts])

            return FakeST()

    # direct adapter unit: real ST returns float32 — the encode glue must
    # cast to float64 and keep rows unit-normalized
    class OfflineF32(OfflineST):
        def _create_model(self):
            inner = super()._create_model()

            class F32(type(inner)):
                def encode(self, texts, **kw):
                    return inner.encode(texts, **kw).astype(np.float32)

            return F32()

    m = OfflineF32("fake-minilm", dim=64)
    m.load()
    out = m.encode(["alpha beta", "gamma"])
    assert out.dtype == np.float64 and out.shape == (2, 64)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-6)

    # end-to-end: embeddings built through the adapter == stock build,
    # and hybrid search through the adapter-backed index is identical
    # two PRIVATE index copies (the shared fixture index must stay
    # embedding-free for the hybrid-fallback test): stock HashedBow vs
    # the adapter-backed build
    idx_stock = str(tmp_path / "index_stock")
    shutil.copytree(built.index_dir, idx_stock)
    shutil.rmtree(f"{idx_stock}/embeddings", ignore_errors=True)
    build_doc_embeddings(idx_stock)
    idx = str(tmp_path / "index")
    shutil.copytree(built.index_dir, idx)
    shutil.rmtree(f"{idx}/embeddings", ignore_errors=True)
    build_doc_embeddings(idx, embedder=OfflineST("fake-minilm", dim=64))
    ids_a, mat_a = load_doc_embeddings(idx)
    ids_b, mat_b = load_doc_embeddings(idx_stock)
    assert np.array_equal(ids_a, ids_b)
    assert np.array_equal(mat_a, mat_b)

    stock = QueryEngine(idx_stock, built.cfg)
    adapted = QueryEngine(idx, built.cfg,
                          query_embedder=OfflineST("fake-minilm", dim=64))
    for q in ["queue71", "py org2", "parse token stream"]:
        assert adapted.hybrid_search(q, top_k=20) == \
            stock.hybrid_search(q, top_k=20), q

    # rebuild marker: same adapter spec is a no-op; a different model_name
    # fingerprint triggers a rebuild (still identical output here)
    before = sorted(os.listdir(f"{idx}/embeddings"))
    build_doc_embeddings(idx, embedder=OfflineST("fake-minilm", dim=64))
    assert sorted(os.listdir(f"{idx}/embeddings")) == before


def test_every_read_parquet_is_column_pruned():
    """Scale audit (round-4 verdict item 8): every ray.data.read_parquet
    in the package must pass an explicit columns=[...] list so only the
    touched columns leave storage. Allowlisted: read_partitioned (reads
    back the engine's OWN partitioned artifact, whose full schema is the
    payload by definition)."""
    import os
    import re

    import searchengine_ray

    pkg_root = os.path.dirname(searchengine_ray.__file__)
    allow = {os.path.join("state", "partitioned_write.py")}
    offenders = []
    for dirpath, _dirs, files in os.walk(pkg_root):
        for fn in files:
            if not fn.endswith(".py"):
                continue
            path = os.path.join(dirpath, fn)
            rel = os.path.relpath(path, pkg_root)
            src = open(path).read()
            for m in re.finditer(r"ray\.data\.read_parquet\(", src):
                # slice the balanced call expression
                depth, i = 1, m.end()
                while depth and i < len(src):
                    depth += {"(": 1, ")": -1}.get(src[i], 0)
                    i += 1
                call = src[m.start():i]
                if "columns=" not in call and rel not in allow:
                    offenders.append((rel, call.splitlines()[0]))
    assert not offenders, offenders


def test_events_keeps_one_operator_per_semantic():
    """Regrowth audit for pipelines/events.py: a skew-safe or
    continuous-domain plan is a parameter of its operator, never a public
    ``*_salted`` / ``*_ranged`` twin (``type_value_rank_ranged`` is the
    grouped rank itself, not a twin), and user-keyed shuffles go through
    ``grouped_aggregate`` instead of a hand-rolled
    ``groupby("part")`` / ``groupby("upart")``."""
    import inspect
    import re

    from searchengine_ray.pipelines import events

    src = inspect.getsource(events)
    twins = [n for n in re.findall(r"^def ([a-z]\w*_(?:salted|ranged))\(",
                                   src, re.M)
             if n != "type_value_rank_ranged"]
    assert not twins, twins
    shuffles = re.findall(r"""groupby\(\s*['"]u?part['"]""", src)
    assert not shuffles, shuffles


def test_gate_prefix_covers_every_plan_family():
    """The first 50 driver entries hold at least one BM25, hybrid, WAND,
    join, TPC-H and quantile entry, so a gate run over a prefix still
    exercises each plan family."""
    from searchengine_ray.pipelines.driver_api import build_queries

    head = list(build_queries())[:50]
    families = {
        "bm25": lambda n: n.startswith("bm25_"),
        "hybrid": lambda n: n.startswith("hybrid_"),
        "wand": lambda n: "wand" in n,
        "join": lambda n: "join" in n,
        "tpch": lambda n: n.startswith("tpch_"),
        "quantile": lambda n: "quantile" in n,
    }
    missing = [f for f, hit in families.items()
               if not any(hit(n) for n in head)]
    assert not missing, (missing, head)


def test_term_cooccurrence_join_strategy_identical(docs_ds, monkeypatch):
    """PMI join plan (df attached via union-shuffles against the
    distributed term_df, strings as pair keys) must equal the broadcast
    plan row-for-row and never touch the ray.put hook."""
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.pipelines import analysis

    cfg = IndexConfig()
    want = sorted(
        (r["term_a"], r["term_b"], r["n_ab"], r["pmi_u"]) for r in
        analysis.term_cooccurrence(docs_ds, min_pair=3, cfg=cfg,
                                   strategy="broadcast").take_all())

    def boom(dft):
        raise AssertionError("join strategy must not broadcast")

    monkeypatch.setattr(analysis, "_broadcast_df", boom)
    got = sorted(
        (r["term_a"], r["term_b"], r["n_ab"], r["pmi_u"]) for r in
        analysis.term_cooccurrence(docs_ds, min_pair=3, cfg=cfg,
                                   strategy="join").take_all())
    assert got == want and want


def test_train_split_brute_force_and_partition_properties(ray_session):
    import ray.data
    from searchengine_ray.pipelines.analysis import (
        _SPLIT_TRAIN_HI, _SPLIT_VAL_HI, train_split)
    ids = np.arange(1, 2001, dtype=np.int64)
    ds = ray.data.from_arrow(pa.table({"doc_id": pa.array(ids)}))
    got = {r["doc_id"]: r["split"] for r in train_split(ds).take_all()}
    # exhaustive + exclusive: every doc in exactly one split
    assert len(got) == len(ids)
    want = {}
    for i in ids:
        h = int.from_bytes(hashlib.md5(str(i).encode()).digest()[:4], "big")
        want[int(i)] = ("train" if h < _SPLIT_TRAIN_HI
                        else "val" if h < _SPLIT_VAL_HI else "test")
    assert got == want
    # fractions near 80/10/10, idempotent across re-runs
    from collections import Counter
    c = Counter(got.values())
    assert 0.75 < c["train"] / len(ids) < 0.85
    assert 0.06 < c["val"] / len(ids) < 0.14
    assert 0.06 < c["test"] / len(ids) < 0.14
    again = {r["doc_id"]: r["split"] for r in train_split(ds).take_all()}
    assert again == got


def _chunk_rewrite_want(texts: dict[int, str], w: int = 10) -> dict:
    seen: set[str] = set()
    want = {}
    for did in sorted(texts):
        toks = texts[did].split()
        kept, dropped = [], 0
        for i in range(0, len(toks), w):
            ch = " ".join(toks[i:i + w])
            if ch in seen:
                dropped += 1
            else:
                seen.add(ch)
                kept.append(ch)
        if kept:
            want[did] = (" ".join(kept), len(kept), dropped)
    return want


def test_chunk_dedup_rewrite_adversarial(ray_session):
    import ray.data
    from searchengine_ray.pipelines.chunking import chunk_dedup_rewrite
    base = " ".join(f"w{i % 13}x{i % 7}" for i in range(25))  # 3 chunks
    texts = {
        1: base,                                   # all kept (first)
        2: base,                                   # exact dup -> absent
        3: base + " uniq1 uniq2",                  # tail chunk survives
        7: " ".join(base.split()[:10]),            # == chunk 0 -> absent
        8: "solo",                                 # short single chunk
        9: "",                                     # empty -> absent
        11: "solo " + base,                        # shifted: new chunks
    }
    want = _chunk_rewrite_want(texts)
    tbl = pa.table({"doc_id": pa.array(sorted(texts), type=pa.int64()),
                    "text": pa.array([texts[k] for k in sorted(texts)])})
    got = {r["doc_id"]: (r["clean_text"], r["n_kept"], r["n_dropped"])
           for r in chunk_dedup_rewrite(
               ray.data.from_arrow(tbl)).take_all()}
    assert got == want
    assert 2 not in got and 7 not in got and 9 not in got
    assert got[1][0] == base


def test_chunk_dedup_rewrite_vs_brute_force_testdata(ray_session):
    import ray.data
    from searchengine_ray.pipelines.chunking import chunk_dedup_rewrite
    import pandas as pd
    df = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    want = _chunk_rewrite_want(dict(zip(df["doc_id"].astype(int),
                                        df["text"])))
    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet",
                               columns=["doc_id", "text"])
    got = {r["doc_id"]: (r["clean_text"], r["n_kept"], r["n_dropped"])
           for r in chunk_dedup_rewrite(ds).take_all()}
    assert got == want and got
    # conservation: kept + dropped = ceil(tokens/10) for surviving docs
    for did, (_txt, k, dr) in got.items():
        n = len(df.set_index("doc_id").loc[did, "text"].split())
        assert k + dr == -(-n // 10)


def _shingle_sets(ids, texts, n: int = 3) -> dict[int, set]:
    """Brute-force distinct word-n-gram sets in the tokenize() space."""
    from searchengine_ray.functions.arrow_tokenize import tokenize_column
    sets = {}
    for did, txt in zip(ids, texts):
        _, toks = tokenize_column(pa.table({"t": pa.array([txt])})["t"],
                                  None, apply_filter=False)
        words = toks.to_pylist()
        sets[did] = {" ".join(words[i:i + n])
                     for i in range(len(words) - n + 1)}
    return sets


def _verified_brute(sets: dict[int, set], pairs, tau_u: int) -> dict:
    """{(a, b): (inter, uni, jaccard_u)} of the candidate pairs whose
    exact shingle Jaccard is ≥ tau_u; pairs with no common shingle drop."""
    from searchengine_ray.pipelines.dedup import JACCARD_SCALE
    want = {}
    for a, b in pairs:
        inter = len(sets[a] & sets[b])
        if inter == 0:
            continue
        uni = len(sets[a] | sets[b])
        jac = (inter * JACCARD_SCALE) // uni
        if jac >= tau_u:
            want[(a, b)] = (inter, uni, jac)
    return want


def test_lsh_verified_pairs_vs_brute_force(ray_session):
    """Verified pairs must be exactly {LSH candidates with TRUE shingle
    Jaccard >= tau_u}, with inter/uni computed on the real sets."""
    import ray.data
    from searchengine_ray.pipelines.dedup import (lsh_verified_pairs,
                                                  minhash_lsh_pairs)

    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet",
                               columns=["doc_id", "text"])
    cands = {(r["a_id"], r["b_id"])
             for r in minhash_lsh_pairs(ds, family="m31").take_all()}
    got = {(r["a_id"], r["b_id"]): (r["inter"], r["uni"], r["jaccard_u"])
           for r in lsh_verified_pairs(ds, family="m31").take_all()}
    assert set(got) <= cands and got

    import pandas as pd
    df = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["doc_id", "text"])
    sets = _shingle_sets(df["doc_id"].astype(int), df["text"])
    assert got == _verified_brute(sets, cands, 500_000)


_VERIFIED_SCHEMA = pa.schema([(c, pa.int64()) for c in
                              ("a_id", "b_id", "inter", "uni", "jaccard_u")])


@hyp_settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_lsh_verified_pairs_adversarial_vs_brute_force(ray_session, data):
    """Exact verification of hand-built candidates against brute-force
    shingle sets. Every example holds an empty text, a doc with fewer
    than 3 tokens (no shingles), an exact duplicate, a disjoint doc
    (zero-overlap pairs), a doc that is the b-side of many pairs and
    candidates whose a-side has no shingles."""
    import ray.data
    from searchengine_ray.pipelines.dedup import (
        JACCARD_SCALE, lsh_verified_pairs, shingles)

    word = st.sampled_from(["alpha", "beta", "gamma", "delta"])
    texts = data.draw(st.lists(st.lists(word, max_size=14).map(" ".join),
                               min_size=2, max_size=7), label="texts")
    texts += ["", "alpha beta", texts[0], "zeta eta theta iota"]
    n = len(texts)
    ids = data.draw(st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=n,
                             max_size=n, unique=True), label="ids")
    empty, short, dup, far = n - 4, n - 3, n - 2, n - 1
    hub = data.draw(st.integers(0, n - 1), label="hub")
    idx = {(i, hub) for i in range(n) if i != hub}
    idx |= {(empty, 0), (short, 0), (0, dup), (far, 0), (1, far)}
    idx |= data.draw(st.sets(st.tuples(st.integers(0, n - 1),
                                       st.integers(0, n - 1))
                             .filter(lambda t: t[0] != t[1]),
                             max_size=10), label="extra")
    tau_u = data.draw(st.sampled_from([0, 1, 500_000, JACCARD_SCALE]),
                      label="tau_u")
    pairs = sorted((ids[a], ids[b]) for a, b in idx)
    cands = ray.data.from_arrow(pa.table({
        "a_id": pa.array([a for a, _ in pairs], type=pa.int64()),
        "b_id": pa.array([b for _, b in pairs], type=pa.int64()),
        "est_matches": pa.array(np.arange(len(pairs)), type=pa.int64())}))
    docs = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "text": pa.array(texts, type=pa.string())}))
    out = lsh_verified_pairs(docs, tau_u=tau_u, cands=cands,
                             sh=shingles(docs).materialize()).materialize()
    got = {(r["a_id"], r["b_id"]): (r["inter"], r["uni"], r["jaccard_u"])
           for r in out.take_all()}

    want = _verified_brute(_shingle_sets(ids, texts), pairs, tau_u)
    assert got == want
    assert out.count() == len(want)
    if want:
        assert out.schema().base_schema == _VERIFIED_SCHEMA


def test_lsh_verified_pairs_plan_shape(ray_session, monkeypatch):
    """Verification of shared (materialized) candidates and shingles is
    one equi-join plus one doc-keyed grouped_aggregate: at most two
    groupby stages and one pin while the plan is built."""
    import ray.data
    from searchengine_ray.pipelines.dedup import (
        lsh_verified_pairs, minhash_lsh_pairs, shingles)

    ds = ray.data.from_arrow(docs_table())
    cands = minhash_lsh_pairs(ds, family="m31").materialize()
    sh = shingles(ds).materialize()
    calls = {"groupby": 0, "materialize": 0}

    def counted(name):
        orig = getattr(ray.data.Dataset, name)

        def wrapper(self, *args, **kwargs):
            calls[name] += 1
            return orig(self, *args, **kwargs)
        monkeypatch.setattr(ray.data.Dataset, name, wrapper)

    counted("groupby")
    counted("materialize")
    out = lsh_verified_pairs(ds, family="m31", cands=cands, sh=sh)
    assert calls["groupby"] <= 2, calls
    assert calls["materialize"] <= 1, calls
    monkeypatch.undo()
    assert out.count() > 0


def test_label_centroids_matches_bruteforce(ray_session):
    import ray.data
    from searchengine_ray.pipelines.similarity import (
        CENTROID_SCALE, label_centroids)
    import pandas as pd
    df = pd.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                         columns=["label", "embedding"])
    got = {(r["label"], r["dim"]): r["mean_u"]
           for r in label_centroids(ray.data.read_parquet(
               "/root/testdata/sf0.001/embeddings.parquet",
               columns=["label", "embedding"])).take_all()}
    want = {}
    for lab, grp in df.groupby("label"):
        mat = np.stack(grp["embedding"].to_numpy()).astype(np.float64)
        vi = np.floor(mat * CENTROID_SCALE + 0.5).astype(np.int64)
        s = vi.sum(axis=0)
        m = np.sign(s) * (np.abs(s) // len(grp))
        for d in range(mat.shape[1]):
            want[(int(lab), d)] = int(m[d])
    assert got == want and got
    # sanity: negative-sum truncation semantics actually exercised
    assert any(v < 0 for v in got.values())


def test_pricing_summary_matches_pandas(ray_session):
    """TPC-H Q1 shape over sf0.001 lineitem vs a pandas brute force with
    the same half-up cents discipline."""
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.relational import (
        Q1_CUTOFF, pricing_summary)
    cols = ["l_returnflag", "l_linestatus", "l_quantity",
            "l_extendedprice", "l_discount", "l_tax", "l_shipdate"]
    path = "/root/testdata/sf0.001/lineitem.parquet"
    got = {(r["l_returnflag"], r["l_linestatus"]):
           (r["n_rows"], r["sum_qty"], r["sum_base_c"],
            r["sum_disc_e4"], r["sum_charge_e6"])
           for r in pricing_summary(
               ray.data.read_parquet(path, columns=cols)).take_all()}
    df = pd.read_parquet(path, columns=cols)
    df = df[df["l_shipdate"] <= pd.Timestamp(Q1_CUTOFF)]
    c = np.floor(df["l_extendedprice"].to_numpy() * 100 + 0.5).astype("int64")
    d = np.floor(df["l_discount"].to_numpy() * 100 + 0.5).astype("int64")
    t = np.floor(df["l_tax"].to_numpy() * 100 + 0.5).astype("int64")
    q = np.floor(df["l_quantity"].to_numpy() + 0.5).astype("int64")
    disc = c * (100 - d)
    want = {}
    keys = list(zip(df["l_returnflag"], df["l_linestatus"]))
    for i, k in enumerate(keys):
        n0, q0, b0, d0, c0 = want.get(k, (0, 0, 0, 0, 0))
        want[k] = (n0 + 1, q0 + int(q[i]), b0 + int(c[i]),
                   d0 + int(disc[i]), c0 + int(disc[i] * (100 + t[i])))
    assert got == want and len(got) >= 4


def test_top_unshipped_orders_matches_pandas(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.relational import (
        Q3_DATE, Q3_SEGMENT, top_unshipped_orders)
    sf = "/root/testdata/sf0.001"
    li = pd.read_parquet(f"{sf}/lineitem.parquet",
                         columns=["l_orderkey", "l_extendedprice",
                                  "l_discount", "l_shipdate"])
    od = pd.read_parquet(f"{sf}/orders.parquet",
                         columns=["o_orderkey", "o_custkey", "o_orderdate",
                                  "o_orderpriority"])
    cu = pd.read_parquet(f"{sf}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"])
    date = pd.Timestamp(Q3_DATE)
    cust = set(cu[cu["c_mktsegment"] == Q3_SEGMENT]["c_custkey"])
    od = od[(od["o_orderdate"] < date) & od["o_custkey"].isin(cust)]
    li = li[li["l_shipdate"] > date]
    m = li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
    rev = (np.floor(m["l_extendedprice"].to_numpy() * 100 + 0.5)
           .astype("int64")
           * (100 - np.floor(m["l_discount"].to_numpy() * 100 + 0.5)
              .astype("int64")))
    m = m.assign(rev_e4=rev,
                 o_orderdate_us=m["o_orderdate"].astype("int64"))
    g = (m.groupby(["l_orderkey", "o_orderdate_us", "o_orderpriority"],
                   as_index=False)["rev_e4"].sum())
    g = g.sort_values(["rev_e4", "o_orderdate_us", "l_orderkey"],
                      ascending=[False, True, True]).head(10)
    want = [(i + 1, int(r.l_orderkey), int(r.o_orderdate_us),
             r.o_orderpriority, int(r.rev_e4))
            for i, r in enumerate(g.itertuples())]
    ds_li = ray.data.read_parquet(
        f"{sf}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"])
    ds_od = ray.data.read_parquet(
        f"{sf}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate",
                 "o_orderpriority"])
    ds_cu = ray.data.read_parquet(
        f"{sf}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    rows = sorted(top_unshipped_orders(ds_li, ds_od, ds_cu).take_all(),
                  key=lambda r: r["rnk"])
    got = [(r["rnk"], r["l_orderkey"], r["o_orderdate_us"],
            r["o_orderpriority"], r["revenue_e4"]) for r in rows]
    assert got == want and len(got) == 10


def _semantic_brute(mat, ids, assign, tau):
    keep = {}
    for c in np.unique(assign):
        sel = np.flatnonzero(assign == c)
        sel = sel[np.argsort(ids[sel])]
        U, I = mat[sel], ids[sel]
        sims = np.round(U @ U.T, 6)
        dup = np.tril(sims >= tau, -1).any(axis=1)
        for i, d in zip(I, dup):
            keep[int(i)] = (int(c), not bool(d))
    return keep


def test_semantic_dedup_matches_brute(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.similarity import (
        SEMDEDUP_TAU, _normalize, assign_centroids, semantic_dedup,
        train_centroids)
    path = "/root/testdata/sf0.001/embeddings.parquet"
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    df = pd.read_parquet(path).sort_values("vec_id")
    ids = df["vec_id"].to_numpy().astype("int64")
    mat = _normalize(np.stack(df["embedding"].to_numpy())
                     .astype(np.float64))
    cents = train_centroids(ds)
    assign = assign_centroids(mat, cents)
    want = _semantic_brute(mat, ids, assign, SEMDEDUP_TAU)
    for blk in (4096, 7):  # pair_block smaller than clusters too
        got = {r["vec_id"]: (r["cluster"], r["keep"]) for r in
               semantic_dedup(ds, pair_block=blk).take_all()}
        assert got == want, blk
    # non-trivial: both kept and dropped rows exist
    assert any(k for _, k in want.values()) \
        and any(not k for _, k in want.values())


def test_source_dup_rate_bruteforce(ray_session):
    """Per-source dup rate: keeper = min doc_id per text; a cross-source
    dup group charges the duplicate to the NON-keeper's source."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.dedup import source_dup_rate
    rows = [
        (0, "alpha text", "s0"), (1, "alpha text", "s1"),   # cross-src dup
        (2, "beta", "s0"), (3, "beta", "s0"),               # same-src dup
        (4, "gamma", "s1"), (5, "delta", "s2"), (6, "beta", "s2"),
    ]
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "text": pa.array([r[1] for r in rows]),
        "source": pa.array([r[2] for r in rows]),
    })
    got = {r["source"]: (r["n_docs"], r["n_dups"], r["dup_rate_ppm"])
           for r in source_dup_rate(
               ray.data.from_arrow(t).repartition(3)).take_all()}
    # keepers: 0 (alpha), 2 (beta), 4, 5 → dups: 1(s1), 3(s0), 6(s2)
    assert got == {"s0": (3, 1, 333333),
                   "s1": (2, 1, 500000),
                   "s2": (2, 1, 500000)}


def test_incremental_neardup_equals_filtered_full(ray_session):
    """The asymmetric new×corpus plan must produce EXACTLY the
    cross-parity subset of the full pair operator (same buckets, same
    cap, same estimate filter) — never a corpus×corpus pair, never a
    missing cross pair."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data
    from searchengine_ray.pipelines.dedup import (incremental_neardup,
                                                  minhash_lsh_pairs)
    path = "/root/testdata/sf0.001/documents.parquet"
    docs = ray.data.read_parquet(path, columns=["doc_id", "text"])

    def half(parity):
        def fn(b):
            ids = pc.cast(b["doc_id"], pa.int64())
            m = pc.equal(pc.bit_wise_and(ids,
                                         pa.scalar(1, type=pa.int64())),
                         pa.scalar(parity, type=pa.int64()))
            return b.filter(m)
        return docs.map_batches(fn, batch_format="pyarrow")

    full = minhash_lsh_pairs(docs, family="m31").take_all()
    want = set()
    for r in full:
        a, b = r["a_id"], r["b_id"]
        if a % 2 != b % 2:
            new, old = (a, b) if a % 2 == 1 else (b, a)
            want.add((new, old, r["est_matches"]))
    got = {(r["new_id"], r["corpus_id"], r["est_matches"]) for r in
           incremental_neardup(half(1), half(0),
                               family="m31").take_all()}
    assert got == want and got  # non-degenerate on the testdata
    assert all(n % 2 == 1 and c % 2 == 0 for n, c, _ in got)


def test_leakage_safe_split_atomic_clusters(ray_session):
    """Near-dup clusters must land in ONE split (no train/test
    straddling), and isolated docs must split exactly like train_split
    (their component is their own id)."""
    import hashlib
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.analysis import (_SPLIT_TRAIN_HI,
                                                     _SPLIT_VAL_HI)
    from searchengine_ray.pipelines.dedup import leakage_safe_split
    n = 60
    docs = pa.table({"doc_id": pa.array(np.arange(n, dtype=np.int64)),
                     "text": pa.array(["x"] * n)})
    # explicit pair graph: clusters {0..4}, {10,11}, rest isolated
    pairs = pa.table({
        "a_id": pa.array([0, 1, 2, 3, 10], type=pa.int64()),
        "b_id": pa.array([1, 2, 3, 4, 11], type=pa.int64()),
    })
    out = {r["doc_id"]: r["split"] for r in leakage_safe_split(
        ray.data.from_arrow(docs),
        pairs=ray.data.from_arrow(pairs)).take_all()}
    assert len(out) == n
    assert len({out[i] for i in range(5)}) == 1
    assert out[10] == out[11]

    def md5split(cid: int) -> str:
        h = int.from_bytes(
            hashlib.md5(str(cid).encode()).digest()[:4], "big")
        return ("train" if h < _SPLIT_TRAIN_HI
                else "val" if h < _SPLIT_VAL_HI else "test")

    assert out[0] == md5split(0)       # cluster rep = min id
    assert out[10] == md5split(10)
    for i in range(12, n):             # isolated == train_split(doc)
        assert out[i] == md5split(i), i


def test_cluster_cap_sample_matches_bruteforce(ray_session):
    """Topic balancing: per-cluster rank-by-vec_id cap equals the
    in-process k-means + pandas rank; caps actually bind (some clusters
    exceed cap) and survivors are exactly each cluster's lowest ids."""
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.similarity import (
        _normalize, assign_centroids, cluster_cap_sample, train_centroids)
    path = "/root/testdata/sf0.001/embeddings.parquet"
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    df = pd.read_parquet(path).sort_values("vec_id")
    ids = df["vec_id"].to_numpy().astype("int64")
    mat = _normalize(np.stack(df["embedding"].to_numpy())
                     .astype(np.float64))
    cents = train_centroids(ds)
    assign = assign_centroids(mat, cents).astype(np.int64)
    cap = 5
    want = {}
    for cl in np.unique(assign):
        members = np.sort(ids[assign == cl])
        for rank, vid in enumerate(members):
            want[int(vid)] = (int(cl), rank < cap)
    got = {r["vec_id"]: (r["cluster"], r["keep"]) for r in
           cluster_cap_sample(ds, cap=cap).take_all()}
    assert got == want
    assert any(not k for _, k in want.values())  # cap binds
    assert any(k for _, k in want.values())


def test_semantic_dedup_max_cluster_guard(ray_session):
    import ray.data
    from searchengine_ray.pipelines.similarity import semantic_dedup
    ds = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet",
                               columns=["vec_id", "embedding"])
    with pytest.raises((ValueError, Exception)) as ei:
        semantic_dedup(ds, max_cluster=3).take_all()
    assert "max_cluster" in str(ei.value)


def test_local_supplier_revenue_matches_pandas(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.relational import (
        Q5_HI, Q5_LO, Q5_REGION, local_supplier_revenue)
    sf = "/root/testdata/sf0.001"
    li = pd.read_parquet(f"{sf}/lineitem.parquet")
    od = pd.read_parquet(f"{sf}/orders.parquet")
    cu = pd.read_parquet(f"{sf}/customer.parquet")
    su = pd.read_parquet(f"{sf}/supplier.parquet")
    na = pd.read_parquet(f"{sf}/nation.parquet")
    re_ = pd.read_parquet(f"{sf}/region.parquet")
    rk = set(re_[re_["r_name"] == Q5_REGION]["r_regionkey"])
    nat = na[na["n_regionkey"].isin(rk)]
    od = od[(od["o_orderdate"] >= pd.Timestamp(Q5_LO))
            & (od["o_orderdate"] < pd.Timestamp(Q5_HI))]
    m = (li.merge(od, left_on="l_orderkey", right_on="o_orderkey")
           .merge(cu, left_on="o_custkey", right_on="c_custkey")
           .merge(su, left_on="l_suppkey", right_on="s_suppkey")
           .merge(nat, left_on="s_nationkey", right_on="n_nationkey"))
    m = m[m["c_nationkey"] == m["s_nationkey"]]
    rev = (np.floor(m["l_extendedprice"].to_numpy() * 100 + 0.5)
           .astype("int64")
           * (100 - np.floor(m["l_discount"].to_numpy() * 100 + 0.5)
              .astype("int64")))
    m = m.assign(rev_e4=rev)
    g = m.groupby("n_name")["rev_e4"].agg(["count", "sum"])
    want = {n: (int(r["count"]), int(r["sum"])) for n, r in g.iterrows()}
    tb = lambda t, cols: ray.data.read_parquet(f"{sf}/{t}.parquet",
                                               columns=cols)
    rows = local_supplier_revenue(
        tb("lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"]),
        tb("orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        tb("customer", ["c_custkey", "c_nationkey"]),
        tb("supplier", ["s_suppkey", "s_nationkey"]),
        tb("nation", ["n_nationkey", "n_name", "n_regionkey"]),
        tb("region", ["r_regionkey", "r_name"])).take_all()
    got = {r["n_name"]: (r["n_rows"], r["revenue_e4"]) for r in rows}
    assert got == want and got
    # a region name matching no region: no rows, typed output columns
    none = local_supplier_revenue(
        tb("lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"]),
        tb("orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        tb("customer", ["c_custkey", "c_nationkey"]),
        tb("supplier", ["s_suppkey", "s_nationkey"]),
        tb("nation", ["n_nationkey", "n_name", "n_regionkey"]),
        tb("region", ["r_regionkey", "r_name"]),
        region_name="NO SUCH REGION").materialize()
    assert none.count() == 0
    assert [(f.name, f.type) for f in none.schema().base_schema] == [
        ("n_name", pa.string()), ("n_rows", pa.int64()),
        ("revenue_e4", pa.int64())]


def test_large_orders_matches_pandas(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.relational import (Q18_MIN_QTY,
                                                       large_orders)
    sf = "/root/testdata/sf0.001"
    li = pd.read_parquet(f"{sf}/lineitem.parquet",
                         columns=["l_orderkey", "l_quantity"])
    od = pd.read_parquet(f"{sf}/orders.parquet",
                         columns=["o_orderkey", "o_custkey", "o_orderdate"])
    cu = pd.read_parquet(f"{sf}/customer.parquet",
                         columns=["c_custkey", "c_name"])
    q = np.floor(li["l_quantity"].to_numpy() + 0.5).astype("int64")
    sums = pd.Series(q).groupby(li["l_orderkey"].to_numpy()).sum()
    qual = sums[sums > Q18_MIN_QTY]
    m = (od[od["o_orderkey"].isin(qual.index)]
         .merge(cu, left_on="o_custkey", right_on="c_custkey"))
    want = {(r.c_name, int(r.o_orderkey),
             int(pd.Timestamp(r.o_orderdate).value // 1000),
             int(qual[r.o_orderkey])) for r in m.itertuples()}
    tb = lambda t, cols: ray.data.read_parquet(f"{sf}/{t}.parquet",
                                               columns=cols)
    rows = large_orders(
        tb("lineitem", ["l_orderkey", "l_quantity"]),
        tb("orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        tb("customer", ["c_custkey", "c_name"])).take_all()
    got = {(r["c_name"], r["o_orderkey"], r["o_orderdate_us"],
            r["sum_qty"]) for r in rows}
    assert got == want and len(rows) == len(want) and got


def _tiny_tpch() -> dict:
    """Two or three rows per TPC-H table, enough for q3 (segment
    BUILDING, ordered before and shipped after 1998-03-15), q5 (region
    ASIA, supplier and customer in one nation) and q18 (an order above
    150 units) to return rows."""
    import ray.data

    def ts(*days):
        return pa.array(np.array(days, dtype="datetime64[us]"))

    tables = {
        "region": {"r_regionkey": [0], "r_name": ["ASIA"]},
        "nation": {"n_nationkey": [7], "n_name": ["CHINA"],
                   "n_regionkey": [0]},
        "supplier": {"s_suppkey": [1], "s_nationkey": [7]},
        "customer": {"c_custkey": [1, 2],
                     "c_mktsegment": ["BUILDING", "MACHINERY"],
                     "c_nationkey": [7, 7],
                     "c_name": ["Customer#1", "Customer#2"]},
        "orders": {"o_orderkey": [10, 11], "o_custkey": [1, 2],
                   "o_orderdate": ts("1997-06-01", "1997-07-01"),
                   "o_orderpriority": ["1-URGENT", "2-HIGH"]},
        "lineitem": {"l_orderkey": [10, 10, 11], "l_suppkey": [1, 1, 1],
                     "l_extendedprice": [100.0, 200.0, 50.0],
                     "l_discount": [0.05, 0.0, 0.1],
                     "l_quantity": [100.0, 60.0, 10.0],
                     "l_shipdate": ts("1998-04-01", "1998-05-01",
                                      "1998-06-01")},
    }
    return {t: ray.data.from_arrow(pa.table(cols))
            for t, cols in tables.items()}


def test_tpch_join_plans_skip_schema_probes(ray_session, monkeypatch):
    """q3, q5 and q18 pass their prep_* schemas to equi_join: building
    the plans asks no lazy Dataset to fetch its schema (each such call
    runs a partial execution of that side before the real run)."""
    import ray.data
    from searchengine_ray.pipelines import relational

    lazy_probes = []
    orig = ray.data.Dataset.schema

    def schema(self, fetch_if_missing: bool = True):
        # fetch_if_missing=False (Ray's own groupby key check) never runs
        if fetch_if_missing and not self._plan.has_computed_output():
            lazy_probes.append(self._plan._logical_plan.dag.name)
        return orig(self, fetch_if_missing)

    t = _tiny_tpch()
    monkeypatch.setattr(ray.data.Dataset, "schema", schema)
    plans = [
        relational.top_unshipped_orders(t["lineitem"], t["orders"],
                                        t["customer"]),
        relational.local_supplier_revenue(
            t["lineitem"], t["orders"], t["customer"], t["supplier"],
            t["nation"], t["region"]),
        relational.large_orders(t["lineitem"], t["orders"],
                                t["customer"]),
    ]
    assert lazy_probes == []
    monkeypatch.undo()
    assert [ds.count() for ds in plans] == [1, 1, 1]


def _count_groupby(monkeypatch) -> dict:
    """Wrap ``Dataset.groupby`` to count the shuffles a plan builds."""
    import ray.data
    calls = {"groupby": 0}
    orig = ray.data.Dataset.groupby

    def wrapper(self, *args, **kwargs):
        calls["groupby"] += 1
        return orig(self, *args, **kwargs)
    monkeypatch.setattr(ray.data.Dataset, "groupby", wrapper)
    return calls


def test_q3_plan_shape(ray_session, monkeypatch):
    """q3 shuffles once per key: the customer semi-join and the fact
    join, whose ``finish`` sums per order and keeps the top-n digest
    that the driver merges — no orderkey re-shuffle, no one-key
    reduce."""
    from searchengine_ray.pipelines import relational
    t = _tiny_tpch()
    calls = _count_groupby(monkeypatch)
    out = relational.top_unshipped_orders(t["lineitem"], t["orders"],
                                          t["customer"])
    assert calls["groupby"] <= 2, calls
    monkeypatch.undo()
    assert [(r["rnk"], r["l_orderkey"]) for r in out.take_all()] == \
        [(1, 10)]


def test_events_user_type_join_plan_shape(ray_session, monkeypatch):
    """The dim aggregate rides the join's shuffle (``right_reduce``):
    one groupby for the plain join, two with the hot-key probe; both
    match the DuckDB oracle."""
    import duckdb
    from searchengine_ray.pipelines import driver_api
    from tools.selfcheck import compare
    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(driver_api.sql_events_user_type_join()).df()
    for salted, most in ((False, 1), (True, 2)):
        calls = _count_groupby(monkeypatch)
        out = driver_api.q_events_user_type_join(sf, salted=salted)
        assert calls["groupby"] <= most, (salted, calls)
        monkeypatch.undo()
        assert compare("events_user_type_join", out.to_pandas(), want) \
            == [], salted


def test_value_quartile_selects_once(ray_session, monkeypatch):
    """The three cuts are one selection: one stats pass and one
    ``_iterative_select`` call with p25/p50/p75 targets per type."""
    import ray.data
    from searchengine_ray.pipelines import events
    calls = {"_type_value_stats": 0, "_iterative_select": 0}
    for name in calls:
        orig = getattr(events, name)

        def wrapper(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(events, name, wrapper)
    out = events.value_quartile(ray.data.read_parquet(
        "/root/testdata/sf0.001/events.parquet"))
    assert calls == {"_type_value_stats": 1, "_iterative_select": 1}
    assert out.count() > 0


def test_changed_plans_typed_empty_results(ray_session):
    """q3 with a segment or a date that selects nothing and the quartile
    over an empty events table return DuckDB's (empty) rows under
    DuckDB's schema."""
    import duckdb
    import ray
    from searchengine_ray.pipelines import events, relational
    t = _tiny_tpch()
    con = duckdb.connect()
    for name in ("lineitem", "orders", "customer"):
        con.register(name, pa.concat_tables(
            ray.get(t[name].to_arrow_refs())))

    def check(out, sql):
        want = con.execute(sql).fetch_arrow_table()
        assert want.num_rows == 0
        assert out.schema().base_schema == want.schema
        assert out.take_all() == want.to_pylist()

    for kw in ({"segment": "NO_SUCH_SEGMENT"},
               {"date": "1990-01-01 00:00:00"}):
        check(relational.top_unshipped_orders(
                  t["lineitem"], t["orders"], t["customer"], **kw),
              relational.sql_top_unshipped_orders(**kw))
    empty = pa.schema([("event_id", pa.int64()), ("user_id", pa.int64()),
                       ("ts", pa.timestamp("us")),
                       ("event_type", pa.string()),
                       ("value", pa.float64())]).empty_table()
    con.register("events", empty)
    check(events.value_quartile(ray.data.from_arrow(empty)),
          events.sql_value_quartile())


def test_events_user_join_salted_skips_schema_probes(ray_session,
                                                     monkeypatch):
    """The salted user join folds its dimension into the join
    (``right_reduce``) and passes static schemas: building it asks no
    lazy Dataset for its schema; it matches the DuckDB oracle."""
    import duckdb
    import ray.data
    from searchengine_ray.pipelines import driver_api
    from tools.selfcheck import compare
    sf = "/root/testdata/sf0.001"
    lazy_probes = []
    orig = ray.data.Dataset.schema

    def schema(self, fetch_if_missing: bool = True):
        if fetch_if_missing and not self._plan.has_computed_output():
            lazy_probes.append(self._plan._logical_plan.dag.name)
        return orig(self, fetch_if_missing)

    monkeypatch.setattr(ray.data.Dataset, "schema", schema)
    calls = _count_groupby(monkeypatch)
    out = driver_api.q_events_user_join_salted(sf)
    assert lazy_probes == []
    assert calls["groupby"] <= 2, calls
    monkeypatch.undo()
    con = duckdb.connect()
    con.execute("CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{sf}/events.parquet')")
    want = con.execute(driver_api.sql_events_user_join_salted()).df()
    assert compare("events_user_join_salted", out.to_pandas(), want) == []


@pytest.mark.parametrize("name", ["doc_embedding_join",
                                  "doc_embedding_left_join",
                                  "doc_embedding_anti_join",
                                  "doc_embedding_semi_join",
                                  "dedup_triangles",
                                  "dedup_cluster_keep",
                                  "dedup_graph_pagerank",
                                  "docstore_sha256",
                                  "prepare_corpus"])
def test_doc_embedding_joins_skip_schema_probes(ray_session, monkeypatch,
                                                name):
    """Gate entries whose joins pass static side schemas to equi_join
    (the four doc ⋈ embedding joins, the triangle, cluster-keep and
    PageRank dedup graphs, prepare_corpus) or materialize before
    ``to_arrow_refs`` (docstore_sha256): running each asks no lazy
    Dataset for its schema, and each matches the DuckDB oracle."""
    import duckdb
    import ray.data
    from searchengine_ray.pipelines import driver_api
    from tools.selfcheck import TABLES, compare, to_pandas
    sf = "/root/testdata/sf0.001"
    lazy_probes = []
    orig = ray.data.Dataset.schema

    def schema(self, fetch_if_missing: bool = True):
        if fetch_if_missing and not self._plan.has_computed_output():
            lazy_probes.append(self._plan._logical_plan.dag.name)
        return orig(self, fetch_if_missing)

    monkeypatch.setattr(ray.data.Dataset, "schema", schema)
    out = driver_api.build_queries()[name](sf)
    assert lazy_probes == []
    monkeypatch.undo()
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf}/{t}.parquet')")
    want = con.execute(driver_api.build_oracles()[name]).df()
    assert len(want) and compare(name, to_pandas(out), want) == []


def test_embedding_neardup_entry_removes_its_scratch(ray_session):
    """The driver entry materializes the pairs, then removes the block
    directory it spilled them through."""
    import glob
    import os
    import tempfile
    from searchengine_ray.pipelines import driver_api
    pattern = os.path.join(tempfile.gettempdir(), "seray_neardup_*")
    before = len(glob.glob(pattern))
    out = driver_api.q_embedding_neardup("/root/testdata/sf0.001")
    assert len(glob.glob(pattern)) == before
    assert out.count() > 0


def test_shared_dedup_cache_keeps_one_directory(ray_session, monkeypatch):
    """The shared dedup intermediates are kept for the latest table
    directory only: a new directory releases the previous one's."""
    import ray.data
    from searchengine_ray.pipelines import driver_api

    monkeypatch.setattr(driver_api, "_SHARED_DEDUP", {})
    cache = driver_api._SHARED_DEDUP
    built = []

    def build(tag):
        def fn():
            built.append(tag)
            return ray.data.range(3)
        return fn

    a1 = driver_api._shared(("/a", "shingles"), build("a1"))
    driver_api._shared(("/a", "minhash_pairs", "m31"), build("a2"))
    assert driver_api._shared(("/a", "shingles"), build("again")) is a1
    assert set(cache) == {("/a", "shingles"), ("/a", "minhash_pairs", "m31")}
    driver_api._shared(("/b", "shingles"), build("b1"))
    assert set(cache) == {("/b", "shingles")}
    driver_api._shared(("/b", "simhash_pairs"), build("b2"))
    assert {k[0] for k in cache} == {"/b"} and len(cache) == 2
    assert built == ["a1", "a2", "b1", "b2"]


def test_selfcheck_retries_ray_system_error_once(capsys):
    """tools/selfcheck.py runs an entry once more after a Ray-core
    RaySystemError and prints the retry; a second one propagates, and
    no other error is retried."""
    from ray.exceptions import RaySystemError
    from tools.selfcheck import run_entry

    calls = []

    def flaky(fails, exc=RaySystemError):
        def fn(sf):
            calls.append(sf)
            if len(calls) <= fails:
                raise exc("raylet CHECK failed")
            return pa.table({"x": pa.array([1, 2])})
        return fn

    assert run_entry("e", flaky(1), "sf").x.tolist() == [1, 2]
    assert calls == ["sf", "sf"]
    assert "retry e: " in capsys.readouterr().out
    calls.clear()
    with pytest.raises(RaySystemError):
        run_entry("e", flaky(2), "sf")
    assert len(calls) == 2 and "retry e: " in capsys.readouterr().out
    calls.clear()
    with pytest.raises(ValueError):
        run_entry("e", flaky(1, ValueError), "sf")
    assert len(calls) == 1 and "retry" not in capsys.readouterr().out


def test_promo_revenue_by_month_matches_pandas(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.relational import promo_revenue_by_month
    sf = "/root/testdata/sf0.001"
    li = pd.read_parquet(f"{sf}/lineitem.parquet",
                         columns=["l_partkey", "l_shipdate",
                                  "l_extendedprice", "l_discount"])
    pt = pd.read_parquet(f"{sf}/part.parquet",
                         columns=["p_partkey", "p_type"])
    m = li.merge(pt, left_on="l_partkey", right_on="p_partkey")
    rev = (np.floor(m["l_extendedprice"].to_numpy() * 100 + 0.5)
           .astype("int64")
           * (100 - np.floor(m["l_discount"].to_numpy() * 100 + 0.5)
              .astype("int64")))
    month = (m["l_shipdate"].to_numpy().astype("datetime64[M]")
             .astype("datetime64[us]").astype("int64"))
    promo = (m["p_type"] == "PROMO").to_numpy()
    want: dict = {}
    for mo, p, r in zip(month, promo, rev):
        n0, p0, v0 = want.get(int(mo), (0, 0, 0))
        want[int(mo)] = (n0 + 1, p0 + (int(r) if p else 0), v0 + int(r))
    tb = lambda t, cols: ray.data.read_parquet(f"{sf}/{t}.parquet",
                                               columns=cols)
    rows = promo_revenue_by_month(
        tb("lineitem", ["l_partkey", "l_shipdate", "l_extendedprice",
                        "l_discount"]),
        tb("part", ["p_partkey", "p_type"])).take_all()
    got = {r["month_us"]: (r["n_rows"], r["promo_rev_e4"],
                           r["total_rev_e4"]) for r in rows}
    assert got == want and got
    assert any(p > 0 for _, p, _ in got.values())   # promo share non-zero


def test_source_term_drift_matches_brute(ray_session):
    """Exact scaled-integer L1 drift vs a Counter brute force, including
    the absent-term mass."""
    import collections
    import pandas as pd
    import ray.data
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    from searchengine_ray.pipelines.analysis import source_term_drift
    cfg = IndexConfig()
    df = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["source", "text"])
    per_src: dict = collections.defaultdict(collections.Counter)
    for s, txt in zip(df["source"], df["text"]):
        per_src[s].update(filter_tokens(tokenize(txt), cfg))
    glob = collections.Counter()
    for cnt in per_src.values():
        glob.update(cnt)
    N = sum(glob.values())
    want = {}
    for s, cnt in per_src.items():
        n = sum(cnt.values())
        drift = sum(abs(cnt.get(t, 0) * N - g * n)
                    for t, g in glob.items())
        want[s] = (n, drift)
    ds = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet",
                               columns=["source", "text"])
    got = {r["source"]: (r["n_tokens"], r["drift_scaled"])
           for r in source_term_drift(ds, cfg).take_all()}
    assert got == want and got


def test_consensus_pairs_is_exact_intersection(ray_session):
    import ray.data
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.pipelines.dedup import (consensus_pairs,
                                                  minhash_lsh_pairs,
                                                  simhash_neardup_pairs)
    cfg = IndexConfig()
    docs = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"])
    mh = {(r["a_id"], r["b_id"]): r["est_matches"]
          for r in minhash_lsh_pairs(docs, family="m31").take_all()}
    sh = {(r["a_id"], r["b_id"]): r["hamming"]
          for r in simhash_neardup_pairs(docs, 3, cfg,
                                         max_bucket=1 << 30).take_all()}
    want = {k: (mh[k], sh[k]) for k in set(mh) & set(sh)}
    got = {(r["a_id"], r["b_id"]): (r["est_matches"], r["hamming"])
           for r in consensus_pairs(docs, cfg=cfg).take_all()}
    assert got == want and got
    # consensus must be a STRICT filter of at least one family here
    assert len(got) < max(len(mh), len(sh))


def test_consensus_pairs_id_guard(ray_session):
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.dedup import PAIR_PACK, consensus_pairs
    big = int(PAIR_PACK)  # 2^32 > 2^31 guard
    t = pa.table({"doc_id": pa.array([big, big + 1], type=pa.int64()),
                  "text": pa.array(["dup text here words",
                                    "dup text here words"])})
    with pytest.raises(Exception) as ei:
        consensus_pairs(ray.data.from_arrow(t)).take_all()
    assert "2^31" in str(ei.value)


def test_embedding_gram_matches_numpy(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.similarity import (GRAM_SCALE,
                                                       embedding_gram)
    path = "/root/testdata/sf0.001/embeddings.parquet"
    df = pd.read_parquet(path, columns=["embedding"])
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    vi = np.floor(mat * GRAM_SCALE + 0.5).astype("int64")
    want_m = vi.T @ vi
    got = {(r["i"], r["j"]): r["gram_scaled"] for r in
           embedding_gram(ray.data.read_parquet(
               path, columns=["embedding"])).take_all()}
    d = mat.shape[1]
    assert len(got) == d * (d + 1) // 2
    for (i, j), v in got.items():
        assert i <= j and v == want_m[i, j], (i, j)
    # PCA driver step sanity: reconstructed symmetric matrix is PSD-ish
    full = np.zeros((d, d))
    for (i, j), v in got.items():
        full[i, j] = full[j, i] = v
    assert np.linalg.eigvalsh(full).max() > 0


def test_triangle_count_matches_brute(ray_session):
    import ray.data
    from searchengine_ray.pipelines.dedup import (minhash_lsh_pairs,
                                                  triangle_count)
    docs = ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["doc_id", "text"])
    edges = {(r["a_id"], r["b_id"])
             for r in minhash_lsh_pairs(docs, family="m31").take_all()}
    want = sum(1 for (a, b) in edges for (a2, c) in edges
               if a2 == a and b < c and (b, c) in edges)
    [row] = triangle_count(docs).take_all()
    assert row["n_triangles"] == want


def test_triangle_count_synthetic_clique(ray_session):
    """A 4-clique of identical docs must yield C(4,3)=4 triangles."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.dedup import triangle_count
    text = "alpha beta gamma delta epsilon zeta eta theta " * 6
    others = [f"unique{i} filler words distinct{i} content{i} "
              f"padding{i} more{i} text{i}" for i in range(8)]
    t = pa.table({
        "doc_id": pa.array(list(range(12)), type=pa.int64()),
        "text": pa.array([text] * 4 + others),
    })
    [row] = triangle_count(ray.data.from_arrow(t)).take_all()
    assert row["n_triangles"] == 4


def test_triangle_count_int32_edges(ray_session):
    """A caller's ``edges`` of int32 ids count like int64 ones (the join
    sides declare int64 static schemas)."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.dedup import triangle_count
    # a 4-clique on 0..3 (4 triangles), a triangle 10-11-12, a wedge 20-21-22
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
             (10, 11), (10, 12), (11, 12), (20, 21), (20, 22)]
    edges = ray.data.from_arrow(pa.table({
        "a_id": pa.array([a for a, _ in pairs], type=pa.int32()),
        "b_id": pa.array([b for _, b in pairs], type=pa.int32()),
    })).materialize()
    [row] = triangle_count(None, edges=edges).take_all()
    assert row["n_triangles"] == 5


def test_supplier_variety_matches_pandas(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.relational import supplier_variety
    sf = "/root/testdata/sf0.001"
    li = pd.read_parquet(f"{sf}/lineitem.parquet",
                         columns=["l_partkey", "l_suppkey"])
    pt = pd.read_parquet(f"{sf}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_size"])
    m = li.merge(pt, left_on="l_partkey", right_on="p_partkey")
    g = (m.groupby(["p_brand", "p_size"])["l_suppkey"].nunique())
    want = {(b, int(s)): int(n) for (b, s), n in g.items()}
    tb = lambda t, cols: ray.data.read_parquet(f"{sf}/{t}.parquet",
                                               columns=cols)
    rows = supplier_variety(
        tb("lineitem", ["l_partkey", "l_suppkey"]),
        tb("part", ["p_partkey", "p_brand", "p_size"])).take_all()
    got = {(r["p_brand"], r["p_size"]): r["n_suppliers"] for r in rows}
    assert got == want and got
    assert max(want.values()) > 1   # distinct-count actually exercised


def test_embedding_pca1_matches_numpy_and_is_dominant(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.similarity import (GRAM_SCALE,
                                                       PCA_ITERS,
                                                       embedding_pca1)
    path = "/root/testdata/sf0.001/embeddings.parquet"
    df = pd.read_parquet(path).sort_values("vec_id")
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    vi = np.floor(mat * GRAM_SCALE + 0.5)
    G = vi.T @ vi
    v = np.round(np.full(G.shape[0], 1.0 / np.sqrt(G.shape[0])), 6)
    for _ in range(PCA_ITERS):
        w = G @ v
        v = np.round(w / np.linalg.norm(w), 6)
    want = dict(zip(df["vec_id"].astype("int64"),
                    np.round(vi @ v, 6)))
    got = {r["vec_id"]: r["pc1_r"] for r in
           embedding_pca1(ray.data.read_parquet(
               path, columns=["vec_id", "embedding"])).take_all()}
    assert got == want and len(got) == len(df)
    # power-iteration property: the Rayleigh quotient strictly improves
    # over the uniform start (full convergence needs a spectral gap the
    # tiny synthetic table doesn't guarantee; cross-engine exactness
    # never depends on convergence - both run the same 8 rounds)
    v0 = np.round(np.full(G.shape[0], 1.0 / np.sqrt(G.shape[0])), 6)
    ray_q = (v @ G @ v) / (v @ v)
    start_q = (v0 @ G @ v0) / (v0 @ v0)
    assert ray_q > start_q * 1.5


def test_source_quality_median_matches_pandas(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.analysis import (source_quality_median,
                                                     ws_quality_stats)
    import pyarrow as pa
    path = "/root/testdata/sf0.001/documents.parquet"
    df = pd.read_parquet(path, columns=["source", "text"])
    n_ws, _, _, sum_len = ws_quality_stats(pa.array(df["text"]))
    mean_u = np.where(n_ws > 0,
                      (sum_len * 1_000_000) // np.maximum(n_ws, 1), 0)
    want = {}
    for s, grp in pd.Series(mean_u).groupby(df["source"].to_numpy()):
        v = np.sort(grp.to_numpy())
        want[s] = int(v[(len(v) - 1) // 2] + v[len(v) // 2])
    got = {r["source"]: r["median_mtl_u2"] for r in
           source_quality_median(ray.data.read_parquet(
               path, columns=["source", "text"])).take_all()}
    assert got == want and got


def test_revenue_delta_matches_pandas(ray_session):
    import pandas as pd
    from searchengine_ray.pipelines.relational import (Q6_HI, Q6_LO,
                                                       revenue_delta)
    sf = "/root/testdata/sf0.001"
    df = pd.read_parquet(f"{sf}/lineitem.parquet",
                         columns=["l_shipdate", "l_quantity",
                                  "l_extendedprice", "l_discount"])
    d = np.floor(df["l_discount"].to_numpy() * 100 + 0.5).astype("int64")
    keep = ((df["l_shipdate"] >= pd.Timestamp(Q6_LO))
            & (df["l_shipdate"] < pd.Timestamp(Q6_HI))
            & (df["l_quantity"] < 24)).to_numpy() & (d >= 3) & (d <= 7)
    rev = (np.floor(df["l_extendedprice"].to_numpy() * 100 + 0.5)
           .astype("int64") * d)
    want = int(rev[keep].sum())
    [row] = revenue_delta(sf).take_all()
    assert row["revenue_delta_e4"] == want and want > 0


def test_relational_ops_survive_empty_slices(ray_session):
    """Predicates that eliminate every row must propagate empty results
    through joins/aggregates without crashing (empty-batch kernels)."""
    import ray.data
    from searchengine_ray.pipelines.relational import (
        local_supplier_revenue, pricing_summary, top_unshipped_orders)
    sf = "/root/testdata/sf0.001"
    tb = lambda t, cols: ray.data.read_parquet(f"{sf}/{t}.parquet",
                                               columns=cols)
    # cutoff before the data begins -> empty aggregate
    rows = pricing_summary(
        tb("lineitem", ["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount", "l_tax",
                        "l_shipdate"]),
        cutoff="1990-01-01 00:00:00").take_all()
    assert rows == []
    # nonexistent segment -> empty top-N
    rows = top_unshipped_orders(
        tb("lineitem", ["l_orderkey", "l_extendedprice", "l_discount",
                        "l_shipdate"]),
        tb("orders", ["o_orderkey", "o_custkey", "o_orderdate",
                      "o_orderpriority"]),
        tb("customer", ["c_custkey", "c_mktsegment"]),
        segment="NO_SUCH_SEGMENT").take_all()
    assert rows == []
    # nonexistent region -> empty revenue table
    rows = local_supplier_revenue(
        tb("lineitem", ["l_orderkey", "l_suppkey", "l_extendedprice",
                        "l_discount"]),
        tb("orders", ["o_orderkey", "o_custkey", "o_orderdate"]),
        tb("customer", ["c_custkey", "c_nationkey"]),
        tb("supplier", ["s_suppkey", "s_nationkey"]),
        tb("nation", ["n_nationkey", "n_name", "n_regionkey"]),
        tb("region", ["r_regionkey", "r_name"]),
        region_name="ATLANTIS").take_all()
    assert rows == []


def test_semantic_and_events_ops_survive_tiny_inputs(ray_session):
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.events import (latest_per_user,
                                                   pivot_type_counts,
                                                   type_transitions,
                                                   user_value_median)
    one = pa.table({
        "user_id": pa.array([7], type=pa.int64()),
        "event_id": pa.array([1], type=pa.int64()),
        "ts": pa.array([123456], type=pa.int64()),
        "event_type": pa.array(["click"]),
        "value": pa.array([1.5], type=pa.float64()),
    })
    ds = ray.data.from_arrow(one)
    assert type_transitions(ds).take_all() == []   # no consecutive pair
    [r] = latest_per_user(ds).take_all()
    assert r["event_id"] == 1 and r["vc"] == 150
    [r] = user_value_median(ds).take_all()
    assert r["median_c2"] == 300
    [r] = pivot_type_counts(ds).take_all()
    assert r["n_click"] == 1 and r["n_total"] == 1


def _multi_join_brute(lrows, rrows, keys, how):
    out = []
    rmap: dict = {}
    for r in rrows:
        rmap.setdefault(tuple(r[k] for k in keys), []).append(r)
    for l in lrows:
        k = tuple(l[k_] for k_ in keys)
        matches = rmap.get(k, [])
        if how == "semi":
            if matches:
                out.append({**l})
        elif how == "anti":
            if not matches:
                out.append({**l})
        elif matches:
            for r in matches:
                out.append({**l, **{c: r[c] for c in r if c not in keys}})
        elif how == "left":
            out.append({**l, "rv": None})
    return out


@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_equi_join_multi_modes_vs_brute(ray_session, how):
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.join import equi_join
    rng = np.random.default_rng(5)
    n_l, n_r = 200, 120
    lrows = [{"a": int(rng.integers(0, 8)),
              "b": ["x", "y", "z"][int(rng.integers(0, 3))],
              "lv": i} for i in range(n_l)]
    rrows = [{"a": int(rng.integers(0, 8)),
              "b": ["x", "y", "z", "w"][int(rng.integers(0, 4))],
              "rv": 1000 + i} for i in range(n_r)]
    lt = pa.table({c: pa.array([r[c] for r in lrows])
                   for c in ("a", "b", "lv")})
    rt = pa.table({c: pa.array([r[c] for r in rrows])
                   for c in ("a", "b", "rv")})
    got = equi_join(
        ray.data.from_arrow(lt).repartition(3),
        ray.data.from_arrow(rt).repartition(2),
        ["a", "b"], ["a", "b"], ["lv"], ["rv"], how=how).take_all()
    want = _multi_join_brute(lrows, rrows, ["a", "b"], how)
    key = lambda r: (r["a"], r["b"], r.get("lv"),
                     r.get("rv") if r.get("rv") is not None else -1)
    norm = lambda rows: sorted(
        [(r["a"], r["b"], r.get("lv"),
          r["rv"] if r.get("rv") is not None else None) for r in rows])
    assert norm(got) == norm(want)
    assert got, how  # every mode non-trivially populated


def test_embedding_pca2_orthogonality_and_brute(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.similarity import (GRAM_SCALE,
                                                       PCA_ITERS,
                                                       _power_iterate,
                                                       embedding_pca2)
    path = "/root/testdata/sf0.001/embeddings.parquet"
    df = pd.read_parquet(path).sort_values("vec_id")
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    vi = np.floor(mat * GRAM_SCALE + 0.5)
    G = vi.T @ vi
    v1 = _power_iterate(G, PCA_ITERS)
    lam = round(float(v1 @ G @ v1) / float(v1 @ v1), 6)
    G2 = G - lam * np.outer(v1, v1)
    v2 = _power_iterate(G2, PCA_ITERS)
    want = {int(k): (round(float(a), 6), round(float(b), 6))
            for k, a, b in zip(df["vec_id"], vi @ v1, vi @ v2)}
    got = {r["vec_id"]: (r["pc1_r"], r["pc2_r"]) for r in
           embedding_pca2(ray.data.read_parquet(
               path, columns=["vec_id", "embedding"])).take_all()}
    assert got == want and len(got) == len(df)
    # deflation property: the second direction is (near-)orthogonal to
    # the first once the first iteration has converged at all
    assert abs(float(v1 @ v2)) < 0.2


def test_embedding_pca_k_matches_brute_and_extends_pca2(ray_session):
    """Generic k-component deflation: the driver loop must reproduce the
    in-process deflation chain exactly, and its first two components
    must equal embedding_pca2's output (same algorithm, looped)."""
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.similarity import (COS_ROUND,
                                                       GRAM_SCALE,
                                                       PCA_ITERS,
                                                       _power_iterate,
                                                       embedding_pca2,
                                                       embedding_pca_k)
    path = "/root/testdata/sf0.001/embeddings.parquet"
    df = pd.read_parquet(path).sort_values("vec_id")
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    vi = np.floor(mat * GRAM_SCALE + 0.5)
    G = vi.T @ vi
    k = 4
    vs, Gc = [], G
    for c in range(k):
        v = _power_iterate(Gc, PCA_ITERS)
        vs.append(v)
        if c + 1 < k:
            lam = round(float(v @ Gc @ v) / float(v @ v), COS_ROUND)
            Gc = Gc - lam * np.outer(v, v)
    want = {int(key): tuple(round(float(vi[i] @ v), 6) for v in vs)
            for i, key in enumerate(df["vec_id"])}
    ds = ray.data.read_parquet(path, columns=["vec_id", "embedding"])
    got = {r["vec_id"]: tuple(r[f"pc{c + 1}_r"] for c in range(k))
           for r in embedding_pca_k(ds, k=k).take_all()}
    assert got == want and len(got) == len(df)
    # consistency: components 1-2 equal the dedicated pca2 operator
    got2 = {r["vec_id"]: (r["pc1_r"], r["pc2_r"])
            for r in embedding_pca2(ds).take_all()}
    assert {i: v[:2] for i, v in got.items()} == got2


def test_label_scatter_matches_bruteforce(ray_session):
    import pandas as pd
    import ray.data
    from searchengine_ray.pipelines.similarity import (GRAM_SCALE,
                                                       label_scatter)
    path = "/root/testdata/sf0.001/embeddings.parquet"
    df = pd.read_parquet(path, columns=["label", "embedding"])
    got = {r["label"]: (r["n_vectors"], r["scatter_scaled"]) for r in
           label_scatter(ray.data.read_parquet(
               path, columns=["label", "embedding"])).take_all()}
    want = {}
    for lab, grp in df.groupby("label"):
        mat = np.stack(grp["embedding"].to_numpy()).astype(np.float64)
        vi = np.floor(mat * GRAM_SCALE + 0.5).astype(object)  # py ints
        n = len(grp)
        s2 = int(sum(int(x) * int(x) for row in vi for x in row))
        s1 = [int(sum(int(r[d]) for r in vi)) for d in range(vi.shape[1])]
        want[int(lab)] = (n, n * s2 - sum(x * x for x in s1))
    assert got == want and got
    # identity check: scatter == n^2 * mean squared deviation (exactly)
    for lab, grp in df.groupby("label"):
        mat = np.floor(np.stack(grp["embedding"].to_numpy())
                       .astype(np.float64) * GRAM_SCALE + 0.5)
        n = len(grp)
        dev = mat - mat.mean(axis=0)
        assert got[int(lab)][1] == pytest.approx(n * (dev * dev).sum(),
                                                 rel=1e-12)


def test_profile_numeric_matches_pandas_and_handles_nulls(ray_session):
    import pandas as pd
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.relational import profile_numeric
    sf = "/root/testdata/sf0.001"
    cols = ["l_quantity", "l_discount"]
    df = pd.read_parquet(f"{sf}/lineitem.parquet", columns=cols)
    got = {r["column"]: (r["min_c"], r["max_c"], r["n_nulls"], r["n_rows"])
           for r in profile_numeric(
               ray.data.read_parquet(f"{sf}/lineitem.parquet",
                                     columns=cols),
               cols=tuple(cols)).take_all()}
    for c in cols:
        v = np.floor(df[c].to_numpy() * 100 + 0.5).astype("int64")
        assert got[c] == (int(v.min()), int(v.max()), 0, len(df))
    # null handling: a column with nulls still profiles correctly
    t = pa.table({"x": pa.array([1.0, None, 3.0], type=pa.float64())})
    [r] = profile_numeric(ray.data.from_arrow(t).repartition(2),
                          cols=("x",)).take_all()
    assert (r["min_c"], r["max_c"], r["n_nulls"], r["n_rows"]) \
        == (100, 300, 1, 3)
    # degenerate: an entirely-null column profiles to NULL min/max (the
    # SQL-oracle convention), not the int64 identity sentinels
    t2 = pa.table({"x": pa.array([None, None], type=pa.float64())})
    [r2] = profile_numeric(ray.data.from_arrow(t2),
                           cols=("x",)).take_all()
    assert (r2["min_c"], r2["max_c"], r2["n_nulls"], r2["n_rows"]) \
        == (None, None, 2, 2)


def test_zipf_slope_matches_counter(ray_session):
    import collections
    import pandas as pd
    import ray.data
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize
    from searchengine_ray.pipelines.analysis import zipf_slope
    cfg = IndexConfig()
    df = pd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                         columns=["text"])
    cnt = collections.Counter()
    for txt in df["text"]:
        cnt.update(filter_tokens(tokenize(txt), cfg))
    rows = sorted(cnt.items(), key=lambda kv: (-kv[1], kv[0]))
    n = len(rows)
    x = np.round(np.log(np.arange(1, n + 1, dtype=np.float64)), 6)
    y = np.round(np.log(np.array([float(c) for _, c in rows])), 6)
    num = n * float(x @ y) - float(x.sum()) * float(y.sum())
    den = n * float(x @ x) - float(x.sum()) ** 2
    want = round(num / den, 6)
    [r] = zipf_slope(ray.data.read_parquet(
        "/root/testdata/sf0.001/documents.parquet",
        columns=["text"]), cfg).take_all()
    assert r["n_terms"] == n and r["slope_r"] == want
    assert r["slope_r"] < 0   # frequencies decay with rank
