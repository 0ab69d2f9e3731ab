"""Boost-phase exactness: the field-staged top-k bound of
``QueryEngine._boost_topk`` must return exactly what boosting every
candidate returns (same ids, bit-identical scores), for any base scores."""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from searchengine_ray.functions.tokenizer import prepare_query

# queries whose patterns hit titles (src/module_N/file_M.ext), meta
# ("orgX/projY lang") and snippets (code words, often with digits)
QUERIES = ["15", "py", "org2", "proj1", "file_2", "md", "queue",
           "module_1 py", "py org2", "token def", "parse token stream",
           "src/module_15/file_13.py", "java score"]

# products of the boost factors collide across docs with different hit
# patterns (1.3·1.8 == 1.8·1.3), so these bases make exact ties likely
TIE_BASES = [0.0, 0.5, 1.0, 1.25, 1.3, 1.5, 1.8, 2.0, 2.25, 3.0, 5.4]


@pytest.fixture(scope="module")
def engine(built):
    from searchengine_ray.query import QueryEngine
    eng = QueryEngine(built.index_dir, built.cfg)
    yield eng
    eng.close()


def _key(ids, scores, order, min_score):
    return [(int(ids[i]), float(scores[i]).hex()) for i in order
            if float(scores[i]) > min_score]


def _full_boost_topk(eng, ids, base, toks, query, k):
    """Boost every candidate, max-normalize, top-k, min-score."""
    scores = eng._apply_boosts(ids, base, toks, query)
    if scores.max() > 0:
        scores = scores / scores.max()
    order = np.lexsort((ids, -scores))[:k]
    return _key(ids, scores, order, eng.qcfg.min_score)


def _solve_base(eng, doc_id, toks, query, target):
    """A base score whose exact boosted score is ``target``, or None."""
    ids = np.array([doc_id], dtype=np.uint64)

    def f(x):
        return eng._apply_boosts(ids, np.array([x]), toks, query)[0]

    x = target / f(1.0)
    for _ in range(64):
        got = f(x)
        if got == target:
            return x
        x = np.nextafter(x, np.inf if got < target else -np.inf)
    return None


def _plant_tie(eng, ids, base, toks, query, k, below=False):
    """Re-solve one candidate's base so that its exact boosted score ties
    the k-th best one while its doc_id is smaller: the tie-break must put
    it in the top-k. With ``below``, the score is one ulp under the k-th
    instead (it can still tie it after max normalization). Candidates
    whose snippet holds every pattern and whose title and meta miss the
    phrase are tried first (their score is exactly their upper bound,
    and the snippet decides it)."""
    exact = eng._apply_boosts(ids, base, toks, query)
    order = np.lexsort((ids, -exact))
    if len(order) <= k or exact[order[k - 1]] <= 0:
        return base
    kth = order[k - 1]
    target = np.nextafter(exact[kth], -np.inf) if below else exact[kth]
    pats = [query] + toks

    def open_first(i):
        j = int(np.searchsorted(eng._doc_ids, ids[i]))
        snip = str(eng._snippet[j]).lower()
        fields = (str(eng._title[j]) + " " + str(eng._meta[j])).lower()
        return (not all(p in snip for p in pats)) or query in fields

    for i in sorted((i for i in order[k:] if ids[i] < ids[kth]),
                    key=open_first):
        b = _solve_base(eng, ids[i], toks, query, target)
        if b is not None:
            base = base.copy()
            base[i] = b
            return base
    return base


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_staged_boost_topk_equals_full_boost(engine, built, data):
    query = data.draw(st.sampled_from(QUERIES), label="query")
    _, toks, oq = prepare_query(query, built.cfg)
    n_docs = len(engine._doc_ids)
    picks = data.draw(st.lists(st.integers(0, n_docs - 1), min_size=1,
                               max_size=160), label="picks")
    ids = engine._doc_ids[np.unique(picks)]
    n = len(ids)
    value = st.one_of(st.sampled_from(TIE_BASES),
                      st.floats(0.0, 40.0, allow_nan=False))
    base = np.array(data.draw(st.one_of(
        st.lists(value, min_size=n, max_size=n),
        value.map(lambda v: [v] * n)), label="base"), dtype=np.float64)
    plant = data.draw(st.sampled_from(["none", "tie", "ulp_below"]),
                      label="plant")
    for k in (1, 5, 20):
        b = base if plant == "none" else _plant_tie(
            engine, ids, base, toks, oq, k, below=plant == "ulp_below")
        got = engine._finish_search(ids, b.copy(), toks, oq, k)
        assert [(r["doc_id"], r["score"].hex()) for r in got] == \
            _full_boost_topk(engine, ids, b, toks, oq, k), (query, k)


@pytest.mark.parametrize("k", [1, 5, 20])
def test_staged_boost_topk_keeps_exact_tie_at_kth(engine, built, k):
    """k docs whose title holds the phrase (score fixed without the
    snippet) tie at the k-th score; a snippet-only doc with a smaller
    doc_id ties them exactly. Its upper bound equals the k-th score, so
    only a bound that never prunes on equality keeps it, and the doc_id
    tie-break must put it in the top-k."""
    _, toks, q = prepare_query("rs", built.cfg)
    n = len(engine._doc_ids)
    title = [str(v).lower() for v in engine._title]
    meta = [str(v).lower() for v in engine._meta]
    snip = [str(v).lower() for v in engine._snippet]
    b = next(j for j in range(n)
             if q in snip[j] and q not in title[j] and q not in meta[j])
    tied = [j for j in range(b + 1, n)
            if q in title[j] and q not in meta[j]][:k]
    rest = [j for j in range(n) if j != b and j not in tied][:40]
    assert len(tied) == k
    rows = np.array(sorted([b] + tied + rest))
    ids = engine._doc_ids[rows]
    for a_base in (1.0, 1.5, 2.0, 3.0):
        base = np.where(np.isin(rows, tied), a_base, a_base / 50)
        target = engine._apply_boosts(ids[rows == tied[0]],
                                      base[rows == tied[0]], toks, q)[0]
        solved = _solve_base(engine, engine._doc_ids[b], toks, q, target)
        if solved is not None:
            break
    assert solved is not None
    base[rows == b] = solved
    got = engine._finish_search(ids, base.copy(), toks, q, k)
    assert [(r["doc_id"], r["score"].hex()) for r in got] == \
        _full_boost_topk(engine, ids, base, toks, q, k)
    assert got[0]["doc_id"] == int(engine._doc_ids[b])


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(k=st.integers(2, 6), a_base=st.floats(0.5, 20.0),
       ratio=st.floats(1.01, 8.0))
def test_staged_boost_topk_keeps_doc_one_ulp_below_kth(engine, built, k,
                                                       a_base, ratio):
    """The prune step is one ulp below the k-th score, and that ulp is
    load-bearing: a doc exactly 1 ulp under the k-th score can tie it
    after max normalization. Here k title docs (scores fixed without the
    snippet, so the k-th score is known before any scan) lead, and a
    snippet-only doc with a smaller doc_id (its exact score equals its
    upper bound) sits 1 ulp under the k-th; the top doc's base is
    stepped until the normalized scores tie. Full boost then ranks the
    planted doc into the top-k on doc_id, and the staged bound must not
    have pruned it. Not every (a_base, ratio) admits such a tie, so the
    drawn pair is the start of a fixed grid and the first point of the
    grid that does is used (found within 5 steps on 1000 random draws)."""
    _, toks, q = prepare_query("rs", built.cfg)
    n = len(engine._doc_ids)
    title = [str(v).lower() for v in engine._title]
    meta = [str(v).lower() for v in engine._meta]
    snip = [str(v).lower() for v in engine._snippet]
    b = next(j for j in range(n)
             if q in snip[j] and q not in title[j] and q not in meta[j])
    lead = [j for j in range(b + 1, n)
            if q in title[j] and q not in meta[j]][:k]
    rest = [j for j in range(n) if j != b and j not in lead][:40]
    assert len(lead) == k
    rows = np.array(sorted([b] + lead + rest))
    ids = engine._doc_ids[rows]
    for a in a_base * (1.0 + np.arange(64) / 64):
        y = engine._apply_boosts(engine._doc_ids[[lead[1]]], np.array([a]),
                                 toks, q)[0]
        below = np.nextafter(y, -np.inf)
        solved = _solve_base(engine, engine._doc_ids[b], toks, q, below)
        if solved is None:
            continue
        # step the top doc's base until below/max == y/max in floating point
        tops = a * ratio * (1.0 + np.arange(4096) * 2.0 ** -12)
        m = engine._apply_boosts(np.repeat(engine._doc_ids[[lead[0]]], 4096),
                                 tops, toks, q)
        tie = np.flatnonzero((below / m == y / m) & (m > y))
        if tie.size:
            break
    else:
        pytest.fail(f"no one-ulp tie on the grid from {a_base!r}, {ratio!r}")
    base = np.where(np.isin(rows, lead), a, a / 50)
    base[rows == b] = solved
    base[rows == lead[0]] = tops[tie[0]]
    got = engine._finish_search(ids, base.copy(), toks, q, k)
    assert [(r["doc_id"], r["score"].hex()) for r in got] == \
        _full_boost_topk(engine, ids, base, toks, q, k)
    assert int(engine._doc_ids[b]) in [r["doc_id"] for r in got]


def test_boost_counters_in_wand_stats(engine, built):
    """search_wand(stats=) reports the boost phase: candidates boosted,
    candidates whose snippet was gathered or scanned, the rows scanned
    or bit-gathered for snippet patterns, and the (field, pattern)
    questions a trigram summary proved absent. The short-circuited
    snippet predicates keep a multi-token query's scanned rows below
    (1 + k) per snippet row, the count of asking the phrase and each of
    its k tokens on every row; a path query's snippet patterns are all
    proved absent here, so it scans none. A query with nothing scorable
    (every term of ``parse token stream`` has df > N/2 here) still
    reports the counters, as 0, on both search paths."""
    keys = ("blocks_total", "boost_candidates", "boost_snippet_rows",
            "boost_snippet_scanned", "boost_patterns_absent")
    cand = snip = 0
    for q in ["queue71", "py org2", "src/module_96/file_25.py", "py",
              "org2", "rust engine", "org3 java", "queue71 py",
              "parse token stream"]:
        stats: dict = {}
        res = engine.search_wand(q, top_k=5, stats=stats)
        assert set(keys) <= set(stats), q
        assert 0 <= stats["boost_snippet_rows"] <= stats["boost_candidates"]
        k = len(prepare_query(q, built.cfg)[1])
        assert stats["boost_snippet_scanned"] <= \
            (1 + k) * stats["boost_snippet_rows"], q
        if q == "parse token stream":
            assert res == [] and stats["boost_candidates"] == 0, q
        else:
            assert res and stats["boost_candidates"] >= len(res), q
        if q == "src/module_96/file_25.py":
            assert k == 6 and stats["boost_snippet_rows"] > 0, q
            assert stats["boost_patterns_absent"] > 0, q
        if q == "queue71 py":  # both tokens occur in snippets
            assert not any(engine._absent(2, t) for t in ("queue71", "py"))
            assert 0 < stats["boost_snippet_scanned"] < \
                (1 + k) * stats["boost_snippet_rows"], q
        cand += stats["boost_candidates"]
        snip += stats["boost_snippet_rows"]
    assert snip < cand  # the staged bound skipped some snippets
    stats = {}
    assert engine.search("parse token stream", top_k=5, stats=stats) == []
    assert stats == dict.fromkeys(keys, 0)


def _reference_boost(scores, fields, toks, query):
    """The reference boost chain with every pattern asked of every
    candidate (``fields``: lowercased (title, meta, snippet) per row)."""
    def has(fi, pat):
        return np.array([pat in f[fi] for f in fields], dtype=bool)

    out = np.where(has(0, query), scores * 1.8,
                   np.where(has(1, query), scores * 1.5,
                            np.where(has(2, query), scores * 1.3, scores)))
    if toks:
        k = len(toks)
        t_pct = sum(has(0, t).astype(np.int64) for t in toks) / k
        d_pct = sum(has(1, t).astype(np.int64) for t in toks) / k
        out = np.where(t_pct > 0, out * (1.0 + t_pct * 2.0), out)
        out = np.where(d_pct > 0, out * (1.0 + d_pct * 1.0), out)
        if k > 1:
            every = np.logical_and.reduce([has(2, t) for t in toks])
            out = np.where(every, out * 1.25, out)
    return out


def _field_truth(engines) -> dict:
    """doc_id -> lowercased (title, meta, snippet), read from eager
    engines' per-doc object arrays."""
    return {int(i): (str(t).lower(), str(m).lower(), str(s).lower())
            for e in engines
            for i, t, m, s in zip(e._doc_ids, e._title, e._meta, e._snippet)}


def _own_queries(built, full, other) -> list[str]:
    """Queries only one child of a federation can boost: the corpus's last
    paths (their file numbers exceed every file number of ``other``) and
    words of ``other``'s snippets that ``full``'s snippets lack."""
    paths = [str(p) for p in built.table["path"].to_pylist()[-3:]]
    words = [w for s in other._snippet for w in str(s).lower().split()
             if w.isalnum() and full._absent(2, w)]
    return paths + words[:3]


@pytest.fixture(scope="module")
def second_index(built, tmp_path_factory):
    """A small index over another seed's corpus: its doc ids are disjoint
    from ``built``'s and its meta dictionary is coded in another order."""
    from searchengine_ray.build import build_index
    from searchengine_ray.sources.corpus import read_source, write_corpus
    root = tmp_path_factory.mktemp("second")
    corpus = write_corpus(str(root / "corpus"), 160, seed=7,
                          rows_per_file=80)
    index_dir = str(root / "index")
    build_index(read_source(corpus), index_dir, built.cfg)
    return index_dir


class _Hot(dict):
    """Scan counters that promote every pattern on first use."""

    def get(self, k, default=0):
        return 10 ** 12


@pytest.mark.parametrize("tier", ["resident", "promoted", "doc_range",
                                  "federated", "lazy_docstore"])
def test_short_circuit_boost_matches_reference_on_every_tier(
        built, second_index, tier):
    """Snippet predicates asked only where they can change a score, meta
    answered from its dictionary, and patterns proved absent by a field's
    trigram summary give the reference chain's boosted scores float by
    float, and search() its top-k, on every tier. The federated tier
    re-codes meta and rebuilds the summaries over the merged arrays: its
    children's codes index other dictionaries, and their summaries miss
    each other's trigrams. The lazy-docstore tier has no summaries."""
    from searchengine_ray.query import FederatedQueryEngine, QueryEngine
    full = QueryEngine(built.index_dir, built.cfg)
    other = QueryEngine(second_index, built.cfg)
    truth = _field_truth([full, other])
    if tier == "federated":
        assert not set(full._doc_ids.tolist()) & set(other._doc_ids.tolist())
        eng = FederatedQueryEngine([full, other])
        assert len(eng._meta_dict) < len(eng._doc_ids)
    elif tier == "doc_range":
        eng = QueryEngine(built.index_dir, built.cfg,
                          doc_range=(2 ** 62, 2 ** 63 + 2 ** 62))
    else:
        eng = QueryEngine(built.index_dir, built.cfg,
                          lazy_docstore=tier == "lazy_docstore")
        if tier == "promoted":
            eng._mask_scan_rows = _Hot()
    paths = [str(p) for p in built.table["path"].to_pylist()[:3]]
    own = eng._doc_ids.tolist()
    phrase_in_fields = phrase_open = proofs = 0

    def proved(pat):
        return tier != "lazy_docstore" and eng._absent(2, pat)

    for q in QUERIES + ["rust engine org3", "module_1 py org2",
                        "queue71 py"] + paths + _own_queries(built, full,
                                                             other):
        scored = eng._score_candidates(q)
        if scored is None:
            continue
        ids, base, toks, oq = scored
        fields = [truth[i] for i in ids.tolist()]
        hit = np.array([oq in f[0] or oq in f[1] for f in fields])
        phrase_in_fields += hit.sum()
        phrase_open += (~hit).sum()
        want = _reference_boost(base, fields, toks, oq)
        on, scanned, absent = eng._boost_fields(ids)
        got = eng._boost_math_from(base, on(), toks, oq)
        assert got.tobytes() == want.tobytes(), (tier, q)
        # snippet rows scanned: the phrase where title and meta miss it,
        # then each token only where every token before it holds; none
        # for a pattern the snippet summary proves absent
        asked = 0 if proved(oq) else int((~hit).sum())
        live = np.ones(len(ids), dtype=bool)
        for t in toks if len(toks) > 1 else []:
            asked += 0 if proved(t) else int(live.sum())
            live &= np.array([t in f[2] for f in fields])
        assert not any(p in truth[i][fi] for fi, p in absent
                       for i in own), (tier, q)
        proofs += len(absent)
        if len(set(toks)) == len(toks):
            assert scanned[2] == asked, (tier, q)
        for k in (1, 5, 20):
            scores = want / want.max() if want.max() > 0 else want
            order = np.lexsort((ids, -scores))[:k]
            res = eng.search(q, top_k=k)
            assert [(r["doc_id"], r["score"].hex()) for r in res] == \
                _key(ids, scores, order, eng.qcfg.min_score), (tier, q, k)
    assert phrase_in_fields > 0 and phrase_open > 0, tier
    assert (proofs == 0) == (tier == "lazy_docstore"), tier
    if tier == "promoted":
        assert eng._field_mask_cache
    for e in (eng, full, other):
        e.close()


def test_federated_stale_summary_breaks_reference_equality(built,
                                                           second_index):
    """The reference-equality check above catches a federated engine that
    keeps a child's trigram summaries instead of rebuilding them over the
    merged arrays: patterns that only the other child's docs hold are
    then proved absent, and those docs lose their boosts."""
    from searchengine_ray.query import FederatedQueryEngine, QueryEngine
    full = QueryEngine(built.index_dir, built.cfg)
    other = QueryEngine(second_index, built.cfg)
    truth = _field_truth([full, other])
    eng = FederatedQueryEngine([full, other])
    for child in (full, other):
        eng._trigrams = child._trigrams
        broken = 0
        for q in QUERIES + _own_queries(built, full, other):
            scored = eng._score_candidates(q)
            if scored is None:
                continue
            ids, base, toks, oq = scored
            want = _reference_boost(base, [truth[i] for i in ids.tolist()],
                                    toks, oq)
            got = eng._boost_math_from(base, eng._boost_fields(ids)[0](),
                                       toks, oq)
            broken += got.tobytes() != want.tobytes()
        assert broken > 0, child.index_dir
    for e in (eng, full, other):
        e.close()


def test_sliced_boost_scan_identical_and_joined_on_close(built,
                                                         monkeypatch):
    """Scans sliced across the boost pool equal one unsliced scan, and
    close() leaves no pool thread running."""
    import searchengine_ray.query as query
    plain = query.QueryEngine(built.index_dir, built.cfg)
    monkeypatch.setattr(query, "_BOOST_WORKERS", 3)
    sliced = query.QueryEngine(built.index_dir, built.cfg)
    sliced._BOOST_PARALLEL_MIN = 16
    before = set(threading.enumerate())
    for q in ["py org2", "org3 java", "src/module_96/file_25.py"]:
        ids, s = plain.search_raw(q)
        ids2, s2 = sliced.search_raw(q)
        assert len(ids) >= 16, q
        assert np.array_equal(ids, ids2) and s.tobytes() == s2.tobytes(), q
        assert sliced.search(q, top_k=5) == plain.search(q, top_k=5), q
    assert sliced._boost_pool is not None
    sliced.close()
    plain.close()
    assert sliced._boost_pool is None
    assert set(threading.enumerate()) <= before
