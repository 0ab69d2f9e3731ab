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


def _plant_tie(eng, ids, base, toks, query, k):
    """Re-solve one candidate's base so that its exact boosted score ties
    the k-th best one while its doc_id is smaller: the tie-break must put
    it in the top-k. Candidates whose snippet holds every pattern and
    whose title and meta miss the phrase are tried first (their score is
    exactly their upper bound, and the snippet decides it)."""
    exact = eng._apply_boosts(ids, base, toks, query)
    order = np.lexsort((ids, -exact))
    if len(order) <= k or exact[order[k - 1]] <= 0:
        return base
    kth = order[k - 1]
    pats = [query] + toks

    def open_first(i):
        j = int(np.searchsorted(eng._doc_ids, ids[i]))
        snip = str(eng._snippet[j]).lower()
        fields = (str(eng._title[j]) + " " + str(eng._meta[j])).lower()
        return (not all(p in snip for p in pats)) or query in fields

    for i in sorted((i for i in order[k:] if ids[i] < ids[kth]),
                    key=open_first):
        b = _solve_base(eng, ids[i], toks, query, exact[kth])
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
    plant = data.draw(st.booleans(), label="plant_tie")
    for k in (1, 5, 20):
        b = _plant_tie(engine, ids, base, toks, oq, k) if plant else base
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


def test_boost_counters_in_wand_stats(engine):
    """search_wand(stats=) reports the boost phase: candidates boosted and
    candidates whose snippet was gathered or scanned. A query with nothing
    scorable (every term of ``parse token stream`` has df > N/2 here)
    still reports the counters, as 0, on both search paths."""
    keys = ("blocks_total", "boost_candidates", "boost_snippet_rows")
    cand = snip = 0
    for q in ["queue71", "py org2", "src/module_96/file_25.py", "py",
              "org2", "rust engine", "org3 java", "parse token stream"]:
        stats: dict = {}
        res = engine.search_wand(q, top_k=5, stats=stats)
        assert set(keys) <= set(stats), q
        assert 0 <= stats["boost_snippet_rows"] <= stats["boost_candidates"]
        if q == "parse token stream":
            assert res == [] and stats["boost_candidates"] == 0, q
        else:
            assert res and stats["boost_candidates"] >= len(res), q
        cand += stats["boost_candidates"]
        snip += stats["boost_snippet_rows"]
    assert snip < cand  # the staged bound skipped some snippets
    stats = {}
    assert engine.search("parse token stream", top_k=5, stats=stats) == []
    assert stats == dict.fromkeys(keys, 0)


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
