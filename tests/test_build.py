"""Build invariants, checkpoint/resume, and partition-invariance
(SURVEY.md §5.3-5.5, FIXTURES.md §5 resume fixture)."""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from searchengine_ray.build import build_index
from searchengine_ray.config import IndexConfig
from searchengine_ray.oracle import oracle_search
from searchengine_ray.query import QueryEngine
from searchengine_ray.sources.corpus import read_source
from searchengine_ray.state.manifest import load_manifest


def _read_dir(path, columns=None):
    import pyarrow as pa
    return pa.concat_tables([
        pq.read_table(f, columns=columns)
        for f in sorted(glob.glob(os.path.join(path, "*.parquet")))
    ])


def test_sha256_invariant(built):
    """Per-row sha256(content) of docstore rows equals the source table
    (BASELINE.json input_hint per-row invariant)."""
    store = _read_dir(os.path.join(built.index_dir, "docstore"),
                      columns=["doc_key", "content_sha256"])
    got = {k: s for k, s in zip(store["doc_key"].to_pylist(),
                                store["content_sha256"].to_pylist())}
    src = built.table
    keys = [f"{r}/{p}@{c}" for r, p, c in zip(
        src["repo"].to_pylist(), src["path"].to_pylist(),
        src["commit"].to_pylist())]
    assert len(got) == len(keys)
    for key, content in zip(keys, src["content"].to_pylist()):
        assert got[key] == hashlib.sha256(content.encode()).digest()


def test_doc_id_uniqueness(built):
    store = _read_dir(os.path.join(built.index_dir, "docstore"),
                      columns=["doc_id"])
    ids = store["doc_id"].to_numpy(zero_copy_only=False)
    assert np.unique(ids).size == ids.size


def test_lengths_match_oracle(built):
    lens = _read_dir(os.path.join(built.index_dir, "lengths"))
    got = dict(zip(lens["doc_id"].to_pylist(), lens["doc_len"].to_pylist()))
    assert got == pytest.approx(built.oracle.document_lengths)


def test_manifest_scalars(built):
    m = built.manifest
    assert m["num_docs"] == len(built.table)
    assert m["avg_doc_len"] == pytest.approx(built.oracle.average_doc_length)
    assert m["complete"] is True
    # every partition entry is done and its file exists
    for entry in m["partitions"].values():
        assert entry["status"] == "done"
        assert os.path.exists(os.path.join(built.index_dir, entry["path"]))


def test_df_totals_match_oracle(built):
    """Σ per-term df across segments == Σ oracle posting lengths (salted
    sub-lists sum to the term's true df)."""
    seg = _read_dir(os.path.join(built.index_dir, "segments"),
                    columns=["term", "df"])
    from collections import Counter
    got = Counter()
    for t, d in zip(seg["term"].to_pylist(), seg["df"].to_pylist()):
        got[t] += d
    want = {t: len(p) for t, p in built.oracle.inverted_index.items()}
    assert dict(got) == want


def test_resume_after_partial_build(built, tmp_path):
    """Kill-after-subset resume: build only half the partitions, then
    resume; the final index must answer queries identically and the second
    run must not rewrite completed partitions."""
    cfg = IndexConfig(num_partitions=8, num_length_partitions=2)
    index_dir = str(tmp_path / "resume_index")
    src = read_source(built.corpus_dir)
    half = set(range(5))
    m1 = build_index(src, index_dir, cfg, only_parts=half)
    done_after_first = {k for k, v in m1["partitions"].items()
                        if v["status"] == "done"}
    assert 0 < len(done_after_first) <= len(half)
    mtimes = {
        k: os.path.getmtime(os.path.join(index_dir, v["path"]))
        for k, v in m1["partitions"].items()
    }
    m2 = build_index(src, index_dir, cfg)
    assert m2["complete"] is True
    # completed partitions were not rewritten
    for k in done_after_first:
        path = os.path.join(index_dir, m2["partitions"][k]["path"])
        assert os.path.getmtime(path) == mtimes[k]
    eng = QueryEngine(index_dir, cfg)
    for q in ("queue71", "py org2", "src/module_96/file_25.py"):
        got = eng.search(q, top_k=10)
        want = oracle_search(built.oracle, q, top_k=10)
        assert [r["doc_id"] for r in got] == [r["doc_id"] for r in want]
        for g, w in zip(got, want):
            assert g["score"] == pytest.approx(w["score"], abs=1e-9)


def test_resume_mid_docstore(built, tmp_path):
    """Kill-mid-docstore resume: first run writes only a subset of docstore
    partitions (crash simulation via only_parts), the resume writes exactly
    the missing ones — byte-identical to a one-shot build, no duplicated
    doc rows (the round-1 dirty-docstore hazard)."""
    cfg = IndexConfig(num_partitions=8, num_length_partitions=2)
    src = read_source(built.corpus_dir)
    total = cfg.num_partitions + cfg.num_length_partitions
    ds_ids = set(range(total, total + cfg.num_docstore_partitions))

    # crash run: all postings parts + only 3 docstore parts
    crash_dir = str(tmp_path / "crash_index")
    subset = set(range(total)) | set(sorted(ds_ids)[:3])
    m1 = build_index(src, crash_dir, cfg, only_parts=subset)
    assert m1["docstore_done"] is False
    done_ds = {int(k) for k, v in m1["partitions"].items()
               if v["kind"] == "docstore"}
    assert done_ds <= set(sorted(ds_ids)[:3]) and done_ds
    mtimes = {k: os.path.getmtime(os.path.join(crash_dir, v["path"]))
              for k, v in m1["partitions"].items() if v["kind"] == "docstore"}

    m2 = build_index(src, crash_dir, cfg)
    assert m2["docstore_done"] is True and m2["complete"] is True
    # finished docstore partitions were not rewritten
    for k, t in mtimes.items():
        assert os.path.getmtime(
            os.path.join(crash_dir, m2["partitions"][k]["path"])) == t

    # byte-identical docstore vs a one-shot build, and no duplicate rows
    oneshot_dir = str(tmp_path / "oneshot_index")
    build_index(src, oneshot_dir, cfg)
    a = _read_dir(os.path.join(crash_dir, "docstore"))
    b = _read_dir(os.path.join(oneshot_dir, "docstore"))
    assert a.equals(b)
    ids = a["doc_id"].to_numpy(zero_copy_only=False)
    assert np.unique(ids).size == ids.size == len(built.table)


def _mtimes(index_dir):
    """{relative path: mtime} of every segment, lengths and docstore file."""
    return {os.path.relpath(f, index_dir): os.path.getmtime(f)
            for sub in ("segments", "lengths", "docstore")
            for f in glob.glob(os.path.join(index_dir, sub, "*.parquet"))}


def _assert_same_tables(got_dir, want_dir):
    files = sorted(_mtimes(want_dir))
    assert sorted(_mtimes(got_dir)) == files
    for rel in files:
        assert pq.read_table(os.path.join(got_dir, rel)).equals(
            pq.read_table(os.path.join(want_dir, rel))), rel


def test_build_equals_its_stages(built, tmp_path):
    """The fused one-shuffle build only composes the public stages: the
    same stages run as separate Ray Data steps (docstats_batch →
    DocstoreWriter, ExplodePostings → SegmentWriter) write equal tables."""
    import pyarrow as pa
    from searchengine_ray.build import estimate_hot_terms
    from searchengine_ray.stages.docstats import docstats_batch
    from searchengine_ray.stages.postings import (DocstoreWriter,
                                                  ExplodePostings,
                                                  SegmentWriter,
                                                  docstore_part_ids)
    cfg = built.cfg
    out = str(tmp_path / "staged")

    def add_dpart(batch):
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        return batch.append_column("dpart",
                                   pa.array(docstore_part_ids(ids, cfg)))

    src = read_source(built.corpus_dir).materialize()
    hot = estimate_hot_terms(src, cfg)
    assert hot == built.manifest["hot_terms"]
    docstore_writer = DocstoreWriter(out)
    (src.map_batches(docstats_batch, batch_format="pyarrow")
     .map_batches(add_dpart, batch_format="pyarrow")
     .groupby("dpart")
     .map_groups(lambda g: docstore_writer(g), batch_format="pyarrow")
     .take_all())
    segment_writer = SegmentWriter(out, cfg)
    (src.map_batches(ExplodePostings(cfg, hot), batch_format="pyarrow")
     .groupby("part")
     .map_groups(lambda g: segment_writer(g), batch_format="pyarrow")
     .take_all())
    _assert_same_tables(out, built.index_dir)


def test_resume_mixed_crash(built, tmp_path):
    """A crash run that left out segment AND docstore partitions at once:
    the resume writes exactly the missing files, leaves the finished ones
    untouched and ends table-identical to a one-shot build."""
    cfg = built.cfg
    src = read_source(built.corpus_dir)
    total = cfg.num_partitions + cfg.num_length_partitions
    ds_ids = list(range(total, total + cfg.num_docstore_partitions))
    crash_dir = str(tmp_path / "crash")
    subset = {0, 2, 4, 5, cfg.num_partitions} | set(ds_ids[::2])
    m1 = build_index(src, crash_dir, cfg, only_parts=subset)
    assert m1["complete"] is False and m1["docstore_done"] is False
    kinds = {v["kind"] for v in m1["partitions"].values()}
    assert kinds == {"segment", "lengths", "docstore"}
    assert {int(k) for k in m1["partitions"]} <= subset
    before = _mtimes(crash_dir)

    m2 = build_index(src, crash_dir, cfg)
    assert m2["complete"] is True and m2["docstore_done"] is True
    after = _mtimes(crash_dir)
    assert {rel: after[rel] for rel in before} == before
    _assert_same_tables(crash_dir, built.index_dir)
    assert m2["hot_terms"] == built.manifest["hot_terms"]


def test_resume_restores_deleted_docstore(built, tmp_path):
    """Deleting docstore/ from a complete index: the resume writes the
    docstore again, identically, and rewrites no segment or lengths file."""
    import shutil
    idx = str(tmp_path / "idx")
    shutil.copytree(built.index_dir, idx)
    shutil.rmtree(os.path.join(idx, "docstore"))
    before = _mtimes(idx)
    m = build_index(read_source(built.corpus_dir), idx, built.cfg)
    assert m["complete"] is True and m["docstore_done"] is True
    after = _mtimes(idx)
    assert {rel: after[rel] for rel in before} == before
    _assert_same_tables(idx, built.index_dir)


def test_empty_source(ray_session, tmp_path):
    """A zero-row source builds without error into an empty, incomplete
    index with no partitions."""
    import pyarrow as pa
    import ray.data
    empty = pa.table({c: pa.array([], pa.string())
                      for c in ("repo", "path", "commit", "lang", "content")})
    m = build_index(ray.data.from_arrow(empty), str(tmp_path / "idx"),
                    IndexConfig(num_partitions=4, num_length_partitions=2))
    assert m["num_docs"] == 0
    assert m["complete"] is False and m["docstore_done"] is True
    assert m["partitions"] == {}


def test_docstore_and_lengths_files_cover_disjoint_ranges(built):
    """Range-partitioning contract: each docstore AND lengths file covers
    a disjoint doc_id RANGE (whole-file pruning for lazy_docstore and
    doc-range shards relies on it)."""
    for sub in ("docstore", "lengths"):
        files = sorted(glob.glob(os.path.join(built.index_dir, sub,
                                              "*.parquet")))
        assert len(files) > 1, sub
        prev_max = -1
        for f in files:
            t = pq.read_table(f, columns=["doc_id"])
            ids = t["doc_id"].to_numpy(zero_copy_only=False) \
                .astype(np.uint64)
            assert int(ids.min()) > prev_max, (sub, f)
            prev_max = int(ids.max())


def test_incompatible_index_refused_loudly(built, tmp_path):
    """Format guards: an index whose manifest declares a different codec
    version or lengths layout must be refused at load with a clear error
    (silent misreads would corrupt results)."""
    import json
    import shutil
    import pytest as pt
    from searchengine_ray.state.manifest import load_manifest, save_manifest
    for key, value, match in (("codec_version", 1, "codec"),
                              ("stemmer", "porter", "stemmer")):
        dmg = str(tmp_path / f"tampered_{key}")
        shutil.copytree(built.index_dir, dmg)
        m = load_manifest(dmg)
        m[key] = value
        save_manifest(dmg, m)
        with pt.raises(ValueError, match=match):
            QueryEngine(dmg, built.cfg)
        # resume onto the tampered layout refuses too
        from searchengine_ray.build import build_index
        from searchengine_ray.sources.corpus import read_source
        with pt.raises(ValueError, match="resume mismatch"):
            build_index(read_source(built.corpus_dir), dmg, built.cfg)


def test_completed_build_is_noop_on_rebuild(built):
    m = load_manifest(built.index_dir)
    m2 = build_index(read_source(built.corpus_dir), built.index_dir,
                     built.cfg)
    assert m2 == m


def test_partition_count_invariance(built, tmp_path):
    """Results must be identical with a different shuffle width
    (SURVEY.md §5.5)."""
    cfg = IndexConfig(num_partitions=3, num_length_partitions=1)
    index_dir = str(tmp_path / "p3_index")
    build_index(read_source(built.corpus_dir), index_dir, cfg)
    eng = QueryEngine(index_dir, cfg)
    for q in ("queue71", "py org2", "tokenStream", "java parse"):
        got = eng.search(q, top_k=10)
        want = oracle_search(built.oracle, q, top_k=10)
        assert [r["doc_id"] for r in got] == [r["doc_id"] for r in want]
        for g, w in zip(got, want):
            assert g["score"] == pytest.approx(w["score"], abs=1e-9)


def test_no_salting_still_correct(built, tmp_path):
    cfg = IndexConfig(num_partitions=4, num_length_partitions=1)
    index_dir = str(tmp_path / "nosalt_index")
    build_index(read_source(built.corpus_dir), index_dir, cfg,
                salt_hot_terms=False)
    eng = QueryEngine(index_dir, cfg)
    got = eng.search("py org2", top_k=10)
    want = oracle_search(built.oracle, "py org2", top_k=10)
    assert [r["doc_id"] for r in got] == [r["doc_id"] for r in want]


def test_null_fields_normalized(ray_session, tmp_path):
    """Per-row error policy (SURVEY.md §4): null key/content fields are
    normalized to "" — rows are indexed deterministically, never dropped."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.build import build_index
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.query import QueryEngine

    t = pa.table({
        "repo": pa.array(["r1", None, "r3"], type=pa.string()),
        "path": pa.array(["a.py", "b.py", None], type=pa.string()),
        "commit": pa.array(["c", "c", "c"], type=pa.string()),
        "lang": pa.array(["py", None, "py"], type=pa.string()),
        "content": pa.array(["alpha beta", None, "gamma delta"],
                            type=pa.string()),
    })
    cfg = IndexConfig(num_partitions=4, num_length_partitions=2)
    idx = str(tmp_path / "idx")
    m = build_index(ray.data.from_arrow(t), idx, cfg, salt_hot_terms=False)
    assert m["num_docs"] == 3
    eng = QueryEngine(idx, cfg)
    assert eng.search("alpha")[0]["url"] == "r1/a.py@c"
    assert eng.search("gamma")[0]["url"] == "r3/@c"  # null path -> ""


def test_adversarial_skew_salting_bounds_partitions(ray_session, tmp_path):
    """Adversarial skew: one term in EVERY doc. Salting must spread that
    term's postings across sub-partitions (no single partition holds the
    whole hot list), and merged query-side postings must stay exact."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from searchengine_ray.build import build_index
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.query import QueryEngine

    n = 600
    rng = np.random.default_rng(5)
    texts = [f"megahot filler{rng.integers(0, 50)} w{rng.integers(0, 9)}"
             for _ in range(n)]
    t = pa.table({
        "repo": pa.array([f"r{i % 5}" for i in range(n)]),
        "path": pa.array([f"f{i}.py" for i in range(n)]),
        "commit": pa.array(["c"] * n),
        "lang": pa.array(["py"] * n),
        "content": pa.array(texts),
    })
    cfg = IndexConfig(num_partitions=16, num_length_partitions=2,
                      hot_term_df_ratio=0.05)
    idx = str(tmp_path / "idx")
    m = build_index(ray.data.from_arrow(t), idx, cfg)
    assert "megahot" in m["hot_terms"] and m["hot_terms"]["megahot"] >= 2
    # the hot term's rows are spread: no single segment partition holds
    # all n postings
    seg_rows = [e["rows"] for e in m["partitions"].values()
                if e["kind"] == "segment"]
    assert max(seg_rows) < n + 0.5 * n  # every doc also has ~4 other terms
    eng = QueryEngine(idx, cfg)
    post = eng.postings("megahot")
    assert post is not None and post[0].size == n  # merged list is complete
    assert (np.diff(post[0]) > 0).all()
    # df>N/2 → idf clamps → hot term alone returns nothing (reference rule)
    assert eng.search("megahot") == []
    # mixed query still ranks by the rare term exactly: every hit's
    # content contains filler7 (the only positive-idf term)
    r = eng.search("megahot filler7")
    assert r
    texts_by_url = {f"r{i % 5}/f{i}.py@c": texts[i] for i in range(n)}
    assert all("filler7" in texts_by_url[x["url"]] for x in r)


def test_build_is_deterministic(ray_session, tmp_path):
    """Same input → byte-identical segments and equal manifests across two
    independent builds (no wall-clock, no unseeded randomness, stable
    hashes — SURVEY.md §7 hard part 5)."""
    import glob
    import pyarrow.parquet as pq
    import ray.data
    from searchengine_ray.build import build_index
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.sources.corpus import generate_corpus_table

    t = generate_corpus_table(250, seed=9)
    cfg = IndexConfig(num_partitions=8, num_length_partitions=2)
    m1 = build_index(ray.data.from_arrow(t), str(tmp_path / "a"), cfg)
    m2 = build_index(ray.data.from_arrow(t), str(tmp_path / "b"), cfg)
    for k in ("num_docs", "num_terms", "avg_doc_len", "hot_terms"):
        assert m1[k] == m2[k], k
    segs_a = sorted(glob.glob(str(tmp_path / "a" / "segments" / "*.parquet")))
    segs_b = sorted(glob.glob(str(tmp_path / "b" / "segments" / "*.parquet")))
    assert [s.split("/")[-1] for s in segs_a] == \
           [s.split("/")[-1] for s in segs_b]
    for fa, fb in zip(segs_a, segs_b):
        assert pq.read_table(fa).equals(pq.read_table(fb)), fa


@pytest.mark.parametrize("rows_per_task", [None, 40])
def test_build_is_block_layout_invariant(ray_session, tmp_path, monkeypatch,
                                         rows_per_task):
    """The same rows as one block or as 25-row blocks → equal segment,
    lengths and docstore tables and equal manifests, hot_terms included:
    bundling read blocks into map tasks of ``build.ROWS_PER_TASK`` rows
    changes only which rows share a call. At 40 rows per task both layouts
    end their bundles with a partial batch, so a map that lost one would
    lose docs."""
    import ray.data
    import searchengine_ray.build as build
    from searchengine_ray.sources.corpus import generate_corpus_table

    if rows_per_task is not None:
        monkeypatch.setattr(build, "ROWS_PER_TASK", rows_per_task)
    t = generate_corpus_table(230, seed=11)
    cfg = IndexConfig(num_partitions=8, num_length_partitions=2,
                      num_docstore_partitions=2)
    one = build_index(ray.data.from_arrow(t), str(tmp_path / "one"), cfg)
    many = build_index(
        ray.data.from_arrow([t.slice(i, 25) for i in range(0, len(t), 25)]),
        str(tmp_path / "many"), cfg)
    assert one["num_docs"] == len(t) and one["complete"]
    assert one["hot_terms"]
    # the probe's wall time is the one manifest value that is not a
    # function of the rows
    for m in (one, many):
        assert m["build_stats"].pop("hot_probe_s") > 0
    assert one == many
    for sub in ("segments", "lengths", "docstore"):
        names = sorted(os.listdir(tmp_path / "one" / sub))
        assert names == sorted(os.listdir(tmp_path / "many" / sub)), sub
        for f in names:
            assert pq.read_table(tmp_path / "one" / sub / f).equals(
                pq.read_table(tmp_path / "many" / sub / f)), (sub, f)


def test_build_driver_fetches_are_bounded(ray_session, tmp_path,
                                          monkeypatch):
    """The build's two take_all calls return what the build.py docstring
    states, whatever the read's block layout: the hot-term probe's sample
    is one batch (distinct terms, each once, plus one sentinel row that
    counts the sample's docs), and the main execution returns one
    manifest row per written partition."""
    import ray.data
    from searchengine_ray.sources.corpus import generate_corpus_table

    fetched = []
    real_take_all = ray.data.Dataset.take_all

    def spy(self, *a, **kw):
        rows = real_take_all(self, *a, **kw)
        fetched.append(rows)
        return rows

    monkeypatch.setattr(ray.data.Dataset, "take_all", spy)
    t = generate_corpus_table(230, seed=11)
    cfg = IndexConfig(num_partitions=8, num_length_partitions=2,
                      num_docstore_partitions=2)
    m = build_index(
        ray.data.from_arrow([t.slice(i, 25) for i in range(0, len(t), 25)]),
        str(tmp_path / "idx"), cfg)
    probe, written = fetched
    terms = [r["term"] for r in probe if r["term"] is not None]
    sentinels = [r["doc_count"] for r in probe if r["term"] is None]
    assert sentinels == [len(t)]
    assert len(terms) == len(set(terms))
    assert len(written) == len(m["partitions"]) <= 8 + 2 + 2


def _probe_source(ratio: float):
    """A source whose hot terms under ``ratio`` all lie in the probe's
    prefix of ceil(25 / ratio) docs, while terms that fill the rest of
    the corpus would be hot over all of it: a probe that read past the
    prefix (or another slice) chooses another set. The prefix holds an
    empty doc and an all-stopword doc, and spans several read blocks."""
    import math

    import pyarrow as pa
    import ray.data
    prefix = math.ceil(25 / ratio)
    n = 3 * prefix
    rng = np.random.default_rng(7)
    texts = []
    for i in range(n):
        if i == 3:
            texts.append("")
        elif i == 4:
            texts.append("the and of is a")
        elif i < prefix:
            words = [f"w{rng.integers(0, 60)}" for _ in range(4)]
            if i % 2 == 0:
                words.append("prefixhot")
            if i % 7 == 0:
                words.append("warmPrefix")
            texts.append(" ".join(words))
        else:
            texts.append(f"tailonly z{rng.integers(0, 500)} ¡Tail_mark!")
    t = pa.table({"repo": [f"r{i % 3}" for i in range(n)],
                  "path": [f"f{i}.py" for i in range(n)],
                  "commit": ["c"] * n, "lang": ["py"] * n,
                  "content": texts})
    blocks = [t.slice(i, 37) for i in range(0, n, 37)]
    return ray.data.from_arrow(blocks), texts[:prefix]


@pytest.mark.parametrize("ratio", [0.05, 0.1])
def test_hot_term_probe_matches_brute_force_prefix_df(ray_session, ratio):
    """estimate_hot_terms equals a Python df over tokenize() of the first
    ceil(25 / ratio) rows' content, salted by the documented rule."""
    from searchengine_ray.build import estimate_hot_terms
    from searchengine_ray.functions.tokenizer import filter_tokens, tokenize

    cfg = IndexConfig(num_partitions=8, num_length_partitions=2,
                      hot_term_df_ratio=ratio)
    source, prefix = _probe_source(ratio)
    df: dict[str, int] = {}
    for text in prefix:
        for term in set(filter_tokens(tokenize(text), cfg)):
            df[term] = df.get(term, 0) + 1
    want = {term: int(min(8, max(2, round(c / len(prefix) / ratio))))
            for term, c in df.items() if c / len(prefix) > ratio}
    assert "prefixhot" in want and "tailonly" not in want
    assert estimate_hot_terms(source, cfg) == want


def test_manifest_records_build_stats(ray_session, tmp_path):
    """manifest.json's build_stats: the probe's sampled docs and seconds,
    max/median segment rows and the number of salted terms. They are
    informational: a resume onto a manifest whose build_stats differ
    goes ahead, and a build with pinned hot terms runs no probe."""
    import json
    import shutil

    cfg = IndexConfig(num_partitions=8, num_length_partitions=2,
                      num_docstore_partitions=2, hot_term_df_ratio=0.1)
    source, prefix = _probe_source(0.1)
    idx = str(tmp_path / "idx")
    m = build_index(source, idx, cfg)
    stats = m["build_stats"]
    seg = sorted(e["rows"] for e in m["partitions"].values()
                 if e["kind"] == "segment")
    assert stats["hot_probe_docs"] == len(prefix) == 250
    assert 0 < stats["hot_probe_s"] < 60
    assert stats["partition_skew"] == seg[-1] / float(np.median(seg)) >= 1
    assert stats["salted_terms"] == len(m["hot_terms"]) > 0
    assert load_manifest(idx)["build_stats"] == stats

    path = os.path.join(idx, "manifest.json")
    with open(path) as f:
        on_disk = json.load(f)
    tampered = {"hot_probe_docs": -1, "hot_probe_s": -1.0}
    on_disk["build_stats"] = {**tampered, "partition_skew": -1.0,
                              "salted_terms": -1}
    with open(path, "w") as f:
        json.dump(on_disk, f)
    shutil.rmtree(os.path.join(idx, "docstore"))
    resumed = build_index(source, idx, cfg)
    assert resumed["complete"] and resumed["hot_terms"] == m["hot_terms"]
    # the hot terms came from the prior manifest, so its probe figures
    # stay; the other two are recomputed
    assert resumed["build_stats"] == {**stats, **tampered}

    pinned = build_index(source, str(tmp_path / "pinned"), cfg,
                         hot_terms_override=m["hot_terms"])
    assert pinned["build_stats"]["hot_probe_docs"] == 0
    assert pinned["build_stats"]["hot_probe_s"] == 0.0
    assert pinned["build_stats"]["salted_terms"] == len(m["hot_terms"])


def test_resume_config_mismatch_raises(ray_session, tmp_path):
    """Resuming onto an index built with a different partition layout must
    refuse (it would mix two partition numberings)."""
    import pyarrow as pa
    import pytest as pt
    import ray.data
    t = pa.table({"repo": ["r"], "path": ["a.py"], "commit": ["c"],
                  "lang": ["py"], "content": ["alpha beta gamma"]})
    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(t), idx,
                IndexConfig(num_partitions=4, num_length_partitions=2),
                salt_hot_terms=False)
    with pt.raises(ValueError, match="resume mismatch"):
        build_index(ray.data.from_arrow(t), idx,
                    IndexConfig(num_partitions=8, num_length_partitions=2),
                    salt_hot_terms=False)
    # resume=False rebuilds cleanly with the new layout
    m = build_index(ray.data.from_arrow(t), idx,
                    IndexConfig(num_partitions=8, num_length_partitions=2),
                    resume=False, salt_hot_terms=False)
    assert m["num_partitions"] == 8 and m["complete"]


def test_no_resume_clears_stale_artifacts(ray_session, tmp_path):
    """A resume=False rebuild on a different corpus must not resurrect the
    old corpus's partition files (ghost documents)."""
    import pyarrow as pa
    import ray.data
    cfg = IndexConfig(num_partitions=4, num_length_partitions=2)
    idx = str(tmp_path / "idx")
    a = pa.table({"repo": ["rA"], "path": ["a.py"], "commit": ["c"],
                  "lang": ["py"], "content": ["ghostterm alpha"]})
    b = pa.table({"repo": ["rB"] * 3, "path": ["b.py", "c.py", "d.py"],
                  "commit": ["c"] * 3, "lang": ["py"] * 3,
                  "content": ["beta gamma", "delta one", "epsilon two"]})
    build_index(ray.data.from_arrow(a), idx, cfg, salt_hot_terms=False)
    m = build_index(ray.data.from_arrow(b), idx, cfg, resume=False,
                    salt_hot_terms=False)
    assert m["num_docs"] == 3
    eng = QueryEngine(idx, cfg)
    assert eng.search("ghostterm") == []
    assert eng.search("beta")[0]["url"] == "rB/b.py@c"


def test_search_topk_zero_and_page_clamp(built):
    eng = QueryEngine(built.index_dir, built.cfg)
    assert eng.search("queue71", top_k=0) == []
    p0 = eng.search_page("py org2", page=0, per_page=5)
    p1 = eng.search_page("py org2", page=1, per_page=5)
    assert p0["results"] == p1["results"] and p0["page"] == 1


def test_delta_ingest_filter_and_federation(built, tmp_path):
    """Incremental ingestion: filter_new_docs drops every already-indexed
    content (exact 32-byte sha anti-join) AND collapses in-batch dupes;
    build_delta_index over a superset corpus indexes exactly the new
    docs; base+delta federate/merge into the same answers as a one-shot
    build over the full corpus."""
    import pyarrow as pa
    import ray.data
    from searchengine_ray.build import build_delta_index, filter_new_docs
    from searchengine_ray.merge import merge_indexes
    from searchengine_ray.query import FederatedQueryEngine, QueryEngine
    from searchengine_ray.sources.corpus import read_source, write_corpus

    # same seed + rows_per_file as the fixture → the first 400 docs are
    # byte-identical; docs 400..499 are new
    big_dir = str(tmp_path / "corpus_big")
    write_corpus(big_dir, 500, rows_per_file=100)
    src = read_source(big_dir)

    fresh = filter_new_docs(src, built.index_dir)
    paths = sorted(r["path"] for r in fresh.take_all())
    base_paths = set(built.table["path"].to_pylist())
    assert len(paths) == 100 and not (set(paths) & base_paths)

    # in-batch duplicates collapse to ONE row (min doc_key)
    dup = pa.table({
        "repo": pa.array(["r"] * 3), "path": pa.array(["b.py", "a.py", "c.py"]),
        "commit": pa.array(["0" * 40] * 3), "lang": pa.array(["py"] * 3),
        "content": pa.array(["brandnewcontent_zzz"] * 3,
                            type=pa.large_string()),
    })
    got = filter_new_docs(ray.data.from_arrow(dup),
                          built.index_dir).take_all()
    assert [r["path"] for r in got] == ["a.py"]

    delta_dir = str(tmp_path / "delta_idx")
    m = build_delta_index(src, built.index_dir, delta_dir, built.cfg)
    assert m["num_docs"] == 100

    fed = FederatedQueryEngine([QueryEngine(built.index_dir, built.cfg),
                                QueryEngine(delta_dir, built.cfg)])
    merged_dir = str(tmp_path / "merged_idx")
    merge_indexes([built.index_dir, delta_dir], merged_dir, built.cfg,
                  concurrency=(1, 2))
    merged = QueryEngine(merged_dir, built.cfg)
    from searchengine_ray.build import build_index
    full_dir = str(tmp_path / "full_idx")
    build_index(read_source(big_dir), full_dir, built.cfg)
    full = QueryEngine(full_dir, built.cfg)
    for q in ("queue71", "py org2", "java parse"):
        f = fed.search(q, top_k=10)
        assert f == merged.search(q, top_k=10), q           # bit-identical
        g = full.search(q, top_k=10)                        # rank-identical
        assert [r["doc_id"] for r in f] == [r["doc_id"] for r in g], q
        assert [round(r["score"], 9) for r in f] == \
            [round(r["score"], 9) for r in g], q

    # idempotent: a second delta pass against base+merged finds nothing
    again = filter_new_docs(src, merged_dir).take_all()
    assert again == []


def test_cli_build_delta_against(built, tmp_path, capsys):
    from searchengine_ray import cli
    from searchengine_ray.sources.corpus import write_corpus
    big_dir = str(tmp_path / "corpus_big_cli")
    write_corpus(big_dir, 450, rows_per_file=100)
    rc = cli.main(["build", "--source", big_dir,
                   "--index", str(tmp_path / "delta_cli"),
                   "--partitions", "8",
                   "--delta-against", built.index_dir])
    assert rc == 0
    import json
    out = json.loads(capsys.readouterr().out)
    assert out["num_docs"] == 50 and out["complete"]
