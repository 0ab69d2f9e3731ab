"""Seeded inputs for every workload.

Everything here is a pure function of the seed (and, for queries, of the
index the seed's corpus builds), so two runs with one seed send the
program the same corpus, the same query streams and the same tables.
"""

from __future__ import annotations

import datetime as dt
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# Corpus and index layout for every workload that builds an index. Sized so
# that one full build takes ~2-3 s on one CPU: several builds fit in one
# measured window, and a search workload's set-up stays well under a minute.
CORPUS_DOCS = 4000
ROWS_PER_FILE = 1000          # 4 parquet files -> 4 read blocks
INDEX_LAYOUT = dict(num_partitions=8, num_length_partitions=2,
                    num_docstore_partitions=2)
TOP_K = 20


def index_config():
    from searchengine_ray.config import IndexConfig
    return IndexConfig(**INDEX_LAYOUT)


def write_corpus(out_dir: str, seed: int) -> str:
    """The synthetic code corpus of ``sources.corpus`` for this seed."""
    from searchengine_ray.sources.corpus import write_corpus as _write
    return _write(out_dir, CORPUS_DOCS, seed=seed, rows_per_file=ROWS_PER_FILE)


def corpus_expectations(corpus_dir: str) -> tuple[dict[str, bytes], int]:
    """doc_key -> sha256(content) for every source row, computed here with
    hashlib (not with the program's hashing), plus the raw UTF-8 byte count
    of the source columns, the denominator of index_bytes_per_source_byte."""
    import hashlib
    t = pq.read_table(corpus_dir, columns=["repo", "path", "commit", "lang",
                                           "content"])
    want: dict[str, bytes] = {}
    raw = 0
    cols = [t[c].to_pylist() for c in ("repo", "path", "commit", "lang",
                                       "content")]
    for repo, path, commit, lang, content in zip(*cols):
        b = content.encode()
        want[f"{repo}/{path}@{commit}"] = hashlib.sha256(b).digest()
        raw += len(b) + len(repo) + len(path) + len(commit) + len(lang)
    return want, raw


# ---------------------------------------------------------------------------
# query streams, generated from the built index's term dictionary
# ---------------------------------------------------------------------------

COLD_QUERIES = 3000     # distinct queries of the cold stream
PROBE_POOL = 512        # distinct queries the layer probe sends
STRATA = ("rare", "mid", "head")
# The query mix is an assumption, not taken from a query log: a query is 1,
# 2 or 3 dictionary terms or one corpus path, each shape equally likely, and
# each term comes from a df stratum drawn uniformly.
SHAPES = (1, 2, 3, "path")


def term_dictionary(index_dir: str) -> tuple[dict[str, int], int]:
    """term -> df summed over partitions (a salted hot term lives in several),
    read straight from the segment files, and N from the manifest."""
    import json
    seg_dir = os.path.join(index_dir, "segments")
    df: dict[str, int] = {}
    for f in sorted(os.listdir(seg_dir)):
        if not f.endswith(".parquet"):
            continue
        t = pq.read_table(os.path.join(seg_dir, f), columns=["term", "df"])
        for term, d in zip(t["term"].to_pylist(), t["df"].to_pylist()):
            df[term] = df.get(term, 0) + int(d)
    with open(os.path.join(index_dir, "manifest.json")) as f:
        n = int(json.load(f)["num_docs"])
    return df, n


def _strata(df: dict[str, int], n: int) -> dict[str, list[str]]:
    """The scorable terms in ascending df, cut into rare, mid and head where
    each third of their postings ends. Terms with df >= N/2 are left out:
    the reference IDF clamps them to 0 and such a query returns nothing in
    microseconds."""
    terms = sorted((t for t, d in df.items() if 2 * d < n),
                   key=lambda t: (df[t], t))
    mass = np.cumsum([df[t] for t in terms])
    a, b = np.searchsorted(mass, [mass[-1] / 3, 2 * mass[-1] / 3])
    return dict(zip(STRATA, (terms[:a], terms[a:b], terms[b:])))


class _TermSource:
    """Draws terms per stratum without replacement until a stratum runs dry,
    then reshuffles it: queries share terms only when they must."""

    def __init__(self, strata: dict[str, list[str]], rng):
        self.rng = rng
        self.strata = {s: v for s, v in strata.items() if v}
        self.names = list(self.strata)
        self.queues: dict[str, list[str]] = {s: [] for s in self.names}

    def draw(self) -> str:
        s = self.names[self.rng.integers(len(self.names))]
        q = self.queues[s]
        if not q:
            q.extend(self.strata[s][i]
                     for i in self.rng.permutation(len(self.strata[s])))
        return q.pop()


def _make_queries(count: int, strata, paths: list[str], rng) -> list[str]:
    src = _TermSource(strata, rng)
    out: list[str] = []
    seen: set[str] = set()
    path_order = list(rng.permutation(len(paths)))
    while len(out) < count:
        shape = SHAPES[rng.integers(len(SHAPES))]
        if shape == "path":
            if not path_order:
                continue
            q = paths[path_order.pop()]
        else:
            q = " ".join(src.draw() for _ in range(shape))
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def repeat_term_share(stream: list[str]) -> float:
    """Share of term occurrences whose term came earlier in the stream."""
    from searchengine_ray.functions.tokenizer import tokenize
    seen: set[str] = set()
    rep = tot = 0
    for q in stream:
        for t in tokenize(q):
            tot += 1
            rep += t in seen
            seen.add(t)
    return rep / max(1, tot)


class QueryStreams:
    """The query streams for one seed and index.

    cold: distinct queries, each sent once per engine, with terms reused only
    after a df stratum is exhausted, so each query touches postings not yet
    decoded.
    pool: other distinct queries of the same mix; the cold workload's set-up
    sends a few of them to pay the search code's first-call costs, and the
    layer probe sends all of them.
    """

    def __init__(self, index_dir: str, corpus_dir: str, seed: int):
        rng = np.random.default_rng([seed, 7])
        df, n = term_dictionary(index_dir)
        strata = _strata(df, n)
        paths = pq.read_table(corpus_dir, columns=["path"])["path"].to_pylist()
        both = _make_queries(PROBE_POOL + COLD_QUERIES, strata, paths, rng)
        self.pool, self.cold = both[:PROBE_POOL], both[PROBE_POOL:]
        self.repeat_term_share = repeat_term_share(self.cold)


# ---------------------------------------------------------------------------
# relational / events / documents tables for the pipeline suite
# ---------------------------------------------------------------------------

# Row counts follow the TPC-H-like shape the driver_api entries were written
# for (sf 0.001): small enough that one pass of the suite fits a run.
N_CUSTOMER, N_ORDERS, N_LINEITEM = 150, 1500, 6000
N_EVENTS, N_USERS, N_DOCS = 1000, 15, 300
_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]
_LANGS = ["de", "en", "es", "fr", "zh"]
_WORDS = ("the a fast slow big small key order sort table scan merge part "
          "window hash join batch stream spark group query row data filter "
          "customer line value agg column vector").split()


def _days(rng, start: dt.date, span_days: int, n: int) -> pa.Array:
    base = np.datetime64(start.isoformat(), "us")
    d = rng.integers(0, span_days, n).astype("timedelta64[D]")
    return pa.array((base + d).astype("datetime64[us]"))


def _price(rng, lo: float, hi: float, n: int) -> np.ndarray:
    return np.round(rng.uniform(lo, hi, n), 2)


def _documents(rng) -> pa.Table:
    """Random word sequences over a small vocabulary; one doc in eight is a
    near-copy of an earlier doc (a few words swapped, 'dup' appended), so the
    MinHash/LSH dedup entries find real candidate pairs."""
    texts: list[str] = []
    for i in range(N_DOCS):
        if i > 10 and rng.random() < 0.125:
            words = texts[int(rng.integers(0, i))].split()
            for j in rng.choice(len(words), max(1, len(words) // 20),
                                replace=False):
                words[j] = _WORDS[int(rng.integers(0, len(_WORDS)))]
            words.append("dup")
        else:
            k = int(np.clip(rng.lognormal(3.8, 0.5), 8, 100))
            words = [_WORDS[j] for j in rng.integers(0, len(_WORDS), k)]
        texts.append(" ".join(words))
    return pa.table({
        "doc_id": pa.array(np.arange(N_DOCS, dtype=np.int64)),
        "text": pa.array(texts, type=pa.string()),
        "lang": pa.array([_LANGS[j] for j in rng.integers(0, 5, N_DOCS)]),
        "source": pa.array([f"src{i % 20}" for i in range(N_DOCS)]),
        "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
    })


def write_tables(out_dir: str, seed: int) -> str:
    """The tables the pipeline-suite entries read, one parquet file each."""
    rng = np.random.default_rng([seed, 11])
    i32, i64 = pa.int32(), pa.int64()
    tables = {
        "customer": pa.table({
            "c_custkey": pa.array(range(N_CUSTOMER), type=i64),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(N_CUSTOMER)]),
            "c_acctbal": pa.array(_price(rng, -999, 9999, N_CUSTOMER)),
            "c_mktsegment": pa.array(
                [_SEGMENTS[j] for j in rng.integers(0, 5, N_CUSTOMER)])}),
        "orders": pa.table({
            "o_orderkey": pa.array(range(N_ORDERS), type=i64),
            "o_custkey": pa.array(rng.integers(0, N_CUSTOMER, N_ORDERS),
                                  type=i64),
            "o_orderstatus": pa.array(
                [("F", "O", "P")[j] for j in rng.integers(0, 3, N_ORDERS)]),
            "o_totalprice": pa.array(_price(rng, 1000, 500000, N_ORDERS)),
            "o_orderdate": _days(rng, dt.date(1995, 1, 1), 2404, N_ORDERS),
            "o_orderpriority": pa.array(
                [_PRIORITIES[j] for j in rng.integers(0, 5, N_ORDERS)])}),
        "lineitem": pa.table({
            "l_orderkey": pa.array(rng.integers(0, N_ORDERS, N_LINEITEM),
                                   type=i64),
            "l_partkey": pa.array(rng.integers(0, 200, N_LINEITEM), type=i64),
            "l_linenumber": pa.array(rng.integers(1, 8, N_LINEITEM), type=i32),
            "l_quantity": pa.array(
                rng.integers(1, 51, N_LINEITEM).astype(np.float64)),
            "l_extendedprice": pa.array(_price(rng, 900, 105000, N_LINEITEM)),
            "l_discount": pa.array(rng.integers(0, 11, N_LINEITEM) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, N_LINEITEM) / 100.0),
            "l_returnflag": pa.array(
                [("A", "N", "R")[j] for j in rng.integers(0, 3, N_LINEITEM)]),
            "l_linestatus": pa.array(
                [("F", "O")[j] for j in rng.integers(0, 2, N_LINEITEM)]),
            "l_shipdate": _days(rng, dt.date(1995, 1, 2), 2498, N_LINEITEM)}),
        "events": pa.table({
            "event_id": pa.array(range(N_EVENTS), type=i64),
            "ts": pa.array(np.datetime64("2024-01-01", "us")
                           + rng.integers(0, 30 * 86400 * 10**6, N_EVENTS)
                           .astype("timedelta64[us]")),
            "user_id": pa.array(rng.integers(0, N_USERS, N_EVENTS), type=i64),
            "event_type": pa.array(
                [_EVENT_TYPES[j] for j in rng.integers(0, 5, N_EVENTS)]),
            "value": pa.array(np.round(rng.lognormal(3.5, 1.0, N_EVENTS)
                                       .clip(0.01, 5000), 2)),
            "props": pa.array(
                [f'{{"k": {j}}}' for j in rng.integers(0, 100, N_EVENTS)])}),
        "documents": _documents(rng),
    }
    os.makedirs(out_dir, exist_ok=True)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))
    return out_dir


def link_tables(src_dir: str, out_dir: str) -> str:
    """A new directory holding the same table files: the driver_api entries key
    their shared intermediates by directory, so each suite pass over a new
    directory recomputes them instead of reading a previous pass's."""
    os.makedirs(out_dir, exist_ok=True)
    for f in os.listdir(src_dir):
        os.link(os.path.join(src_dir, f), os.path.join(out_dir, f))
    return out_dir
