"""The three workloads: set-up, the measured closed loop, and the checks.

Each workload times calls into the package's public functions from one
client thread and never patches the package. A loop runs until the
operations it timed add up to the requested seconds; harness work between
operations (checks, cleanup) is not timed. A loop always runs at
least one operation (a traced run calls it with ``seconds=0`` to alternate
single operations).
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

from inputs import (QueryStreams, TOP_K, corpus_expectations, index_config,
                    link_tables, write_corpus, write_tables)

# The pipeline-suite subset: a three-way join with grouped aggregate and
# top-N (q3), a combiner grouped aggregate over lineitem (q1), a
# composite-key join and its salted skew twin, per-group quantiles,
# iterative distributed selection (median), and two-phase MinHash/LSH dedup
# with exact-Jaccard verification.
SUITE = ("tpch_q3_toporders", "tpch_q1_pricing",
         "events_user_type_join", "events_user_type_join_salted",
         "events_value_quartile", "events_value_median",
         "dedup_lsh_verified")
CHECKED_QUERIES = 32


@dataclass
class Samples:
    """Latencies (s) of the operations one loop timed, and the items they
    processed (documents indexed, queries answered, entries run)."""
    lat: list[float] = field(default_factory=list)
    items: int = 0


class Run:
    """What one benchmark process shares across set-up, loop and probe."""

    def __init__(self, work: str, seed: int):
        self.work, self.seed = work, seed
        self.cfg = index_config()
        self.attempted = 0
        self.failed = 0

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr, flush=True)

    def timed(self, samples: Samples, tracer, name: str, request: str, fn):
        """Time one operation; a raised exception counts as a failed op."""
        self.attempted += 1
        with tracer.span(name, request=request):
            t0 = time.perf_counter()
            try:
                out = fn()
            except Exception as e:  # the loop must go on: count and report
                dt = time.perf_counter() - t0
                self.fail(f"{request}: {type(e).__name__}: {e}")
                samples.lat.append(dt)
                return None
            dt = time.perf_counter() - t0
        samples.lat.append(dt)
        return out


# ---------------------------------------------------------------------------
# index_build
# ---------------------------------------------------------------------------

def check_build(index_dir: str, manifest: dict, want: dict[str, bytes]
                ) -> list[str]:
    """The build contract: a complete manifest over every source row, a
    clean verify_index, and sha256(content) kept per row in the docstore."""
    import pyarrow.parquet as pq
    from searchengine_ray.verify_index import verify_index
    problems = []
    if not manifest.get("complete"):
        problems.append("manifest not complete")
    if manifest.get("num_docs") != len(want):
        problems.append(f"num_docs {manifest.get('num_docs')} != {len(want)}")
    report = verify_index(index_dir)
    if not report["ok"]:
        problems.append(f"verify_index: {report['problems'][:3]}")
    store = pq.read_table(os.path.join(index_dir, "docstore"),
                          columns=["doc_key", "content_sha256"])
    got = dict(zip(store["doc_key"].to_pylist(),
                   store["content_sha256"].to_pylist()))
    if got != want:
        bad = sum(got.get(k) != v for k, v in want.items())
        problems.append(f"docstore sha256 differs on {bad} rows "
                        f"({len(got)} rows vs {len(want)})")
    return problems


class IndexBuild:
    name = "index_build"

    def setup(self, run: Run, tracer) -> None:
        from searchengine_ray.build import build_index
        from searchengine_ray.sources.corpus import read_source
        with tracer.span("setup.corpus"):
            self.corpus = write_corpus(run.path("setup", "corpus"), run.seed)
        # the first build in a session pays one-time costs (module imports
        # in the worker, first use of each kernel): one build in set-up
        # keeps them out of the timed builds and in setup_s
        with tracer.span("setup.build_index"):
            build_index(read_source(self.corpus), run.path("setup", "index"),
                        run.cfg, resume=False)

    def prepare_checks(self, run: Run) -> None:
        self.want, self.source_bytes = corpus_expectations(self.corpus)
        self.index_bytes = 0

    def loop(self, run: Run, seconds: float, tracer) -> Samples:
        from searchengine_ray.build import build_index
        from searchengine_ray.sources.corpus import read_source
        s = Samples()
        while not s.lat or sum(s.lat) < seconds:
            i = len(s.lat)
            out = run.path(f"build{i}")
            shutil.rmtree(out, ignore_errors=True)
            m = run.timed(s, tracer, "build_index", f"build{i}",
                          lambda: build_index(read_source(self.corpus), out,
                                              run.cfg, resume=False))
            if m is not None:
                s.items += m["num_docs"]
                problems = check_build(out, m, self.want)
                if problems:
                    run.fail(f"build{i}: {problems}")
                self.index_bytes = sum(e["bytes"]
                                       for e in m["partitions"].values())
            shutil.rmtree(out, ignore_errors=True)
        return s

    def verify(self, run: Run) -> None:
        pass

    def report(self, s: Samples, e2e: dict) -> dict:
        return {"build_docs_per_s": e2e["throughput_per_s"],
                "index_bytes_per_source_byte":
                    self.index_bytes / self.source_bytes,
                "builds": len(s.lat)}


# ---------------------------------------------------------------------------
# search_cold
# ---------------------------------------------------------------------------

# the reference scorer's scores are compared within this absolute tolerance
ORACLE_ABS_TOL = 1e-9
# cold-stream queries sent, untimed, to a throwaway engine during set-up
FIRST_CALL_QUERIES = 64


def result_key(res: list[dict]) -> list[tuple[int, str]]:
    """Doc ids with exact scores (float.hex keeps every bit)."""
    return [(r["doc_id"], float(r["score"]).hex()) for r in res]


def oracle_index(corpus_dir: str, cfg):
    """The reference scorer's index over the corpus rows, keyed by the
    engine's doc ids so that rankings compare directly."""
    from searchengine_ray.functions.hashing import hash64
    from searchengine_ray.oracle import build_oracle_index
    from searchengine_ray.stages.docstats import doc_keys
    import pyarrow.parquet as pq
    t = pq.read_table(corpus_dir, columns=["repo", "path", "commit", "lang",
                                           "content"])
    cols = {c: t[c].to_pylist() for c in t.column_names}
    docs = [{"doc_id": hash64(k), **{c: v[i] for c, v in cols.items()}}
            for i, k in enumerate(doc_keys(t).to_pylist())]
    return build_oracle_index(docs, cfg)


def matches_oracle(got: list[dict], want: list[dict]) -> bool:
    """Rank-identical: the same doc ids in the same order, and the same
    normalized scores."""
    return ([r["doc_id"] for r in got] == [r["doc_id"] for r in want]
            and all(abs(g["score"] - w["score"]) <= ORACLE_ABS_TOL
                    for g, w in zip(got, want)))


class SearchCold:
    name = "search_cold"

    def setup(self, run: Run, tracer) -> None:
        from searchengine_ray.build import build_index
        from searchengine_ray.query import QueryEngine
        from searchengine_ray.sources.corpus import read_source
        with tracer.span("setup.corpus"):
            self.corpus = write_corpus(run.path("setup", "corpus"), run.seed)
        self.index = run.path("setup", "index")
        with tracer.span("setup.build_index"):
            build_index(read_source(self.corpus), self.index, run.cfg,
                        resume=False)
        with tracer.span("setup.queries"):
            self.streams = QueryStreams(self.index, self.corpus, run.seed)
        # a few pool queries on a throwaway engine pay the search code's
        # first-call costs; the timed loop starts on a fresh engine
        with tracer.span("setup.first_calls"):
            engine = QueryEngine(self.index, run.cfg)
            for q in self.streams.pool[:FIRST_CALL_QUERIES]:
                engine.search(q, top_k=TOP_K)
            engine.close()
        with tracer.span("setup.open_engine"):
            self.engine = QueryEngine(self.index, run.cfg)
        self.pos = 0

    def prepare_checks(self, run: Run) -> None:
        self.seen: dict[str, list] = {}

    def loop(self, run: Run, seconds: float, tracer) -> Samples:
        from searchengine_ray.query import QueryEngine
        stream = self.streams.cold
        s = Samples()
        while not s.lat or sum(s.lat) < seconds:
            if self.pos == len(stream):
                # every query of the stream has been sent once: start the
                # next pass on a freshly opened engine (not timed)
                self.pos = 0
                self.engine.close()
                self.engine = QueryEngine(self.index, run.cfg)
            q = stream[self.pos]
            self.pos += 1
            res = run.timed(s, tracer, "search", f"q{len(s.lat)}",
                            lambda: self.engine.search(q, top_k=TOP_K))
            if res is None:
                continue
            s.items += 1
            key = result_key(res)
            if self.seen.setdefault(q, key) != key:
                run.fail(f"query {q!r}: results changed between two sends")
        return s

    def verify(self, run: Run) -> None:
        """On CHECKED_QUERIES queries spread over the stream: the results
        are rank-identical to the reference scorer's, search_wand returns
        exactly what search does, and both match what the timed loop got."""
        from searchengine_ray.oracle import oracle_search
        oracle = oracle_index(self.corpus, run.cfg)
        stream = self.streams.cold
        for i in range(CHECKED_QUERIES):
            q = stream[i * len(stream) // CHECKED_QUERIES]
            got = self.engine.search(q, top_k=TOP_K)
            run.attempted += 1
            if not matches_oracle(got, oracle_search(oracle, q, top_k=TOP_K)):
                run.fail(f"query {q!r}: differs from the reference scorer")
            a = result_key(got)
            if result_key(self.engine.search_wand(q, top_k=TOP_K)) != a:
                run.fail(f"query {q!r}: search and search_wand differ")
            if q in self.seen and self.seen[q] != a:
                run.fail(f"query {q!r}: differs from the timed loop's result")
        self.engine.close()

    def report(self, s: Samples, e2e: dict) -> dict:
        return {"search_p50_ms": e2e["latency_p50_ms"],
                "search_p99_ms": e2e["latency_tail_ms"],
                "search_qps": e2e["throughput_per_s"],
                "samples": len(s.lat),
                "nonempty_share": sum(bool(k) for k in self.seen.values())
                / max(1, len(self.seen))}


# ---------------------------------------------------------------------------
# pipeline_suite
# ---------------------------------------------------------------------------

def oracle_answers(tables_dir: str) -> dict:
    """Each suite entry's oracle_sql() answer, computed by DuckDB."""
    import duckdb
    from searchengine_ray.pipelines.driver_api import build_oracles
    sql = build_oracles()
    con = duckdb.connect()
    for f in sorted(os.listdir(tables_dir)):
        con.execute(f"CREATE VIEW {f[:-len('.parquet')]} AS SELECT * FROM "
                    f"read_parquet('{os.path.join(tables_dir, f)}')")
    out = {name: con.execute(sql[name]).df() for name in SUITE}
    con.close()
    return out


def run_entry(fn, tables_dir: str):
    """Call one driver_api entry and bring its whole result into this
    process (a lazy Dataset is executed here, inside the timed region).
    Returns the materialized output and its DataFrame."""
    import ray.data
    from tools.selfcheck import to_pandas
    out = fn(tables_dir)
    if isinstance(out, ray.data.Dataset):
        out = out.materialize()
    return out, to_pandas(out)


class PipelineSuite:
    name = "pipeline_suite"

    def setup(self, run: Run, tracer) -> None:
        with tracer.span("setup.tables"):
            self.tables = write_tables(run.path("setup", "tables"), run.seed)

    def prepare_checks(self, run: Run) -> None:
        from searchengine_ray.pipelines.driver_api import build_queries
        self.fns = build_queries()
        self.oracle = oracle_answers(self.tables)
        self.npass = 0

    def run_pass(self, run: Run, tracer, s: Samples, tag: str,
                 stats: dict | None = None) -> None:
        """One call of every suite entry over a new table directory, timed
        as one operation; with ``stats``, each Dataset result's
        ``Dataset.stats()`` goes there."""
        import ray.data
        from tools.selfcheck import compare
        tables = link_tables(self.tables, run.path(tag))
        entries = Samples()
        with tracer.span("pipelines.pass", request=tag):
            for name in SUITE:
                got = run.timed(entries, tracer, f"pipelines.{name}",
                                f"{tag}.{name}",
                                lambda: run_entry(self.fns[name], tables))
                if got is None:
                    continue
                out, df = got
                if stats is not None and isinstance(out, ray.data.Dataset):
                    stats[name] = out.stats()
                entries.items += 1
                problems = compare(name, df, self.oracle[name])
                if problems:
                    run.fail(f"{tag}.{name}: {problems}")
        s.lat.append(sum(entries.lat))
        s.items += entries.items

    def loop(self, run: Run, seconds: float, tracer) -> Samples:
        s = Samples()
        while not s.lat or sum(s.lat) < seconds:
            self.run_pass(run, tracer, s, f"pass{self.npass}")
            self.npass += 1
        return s

    def verify(self, run: Run) -> None:
        pass

    def report(self, s: Samples, e2e: dict) -> dict:
        return {"suite_s": e2e["latency_p50_ms"] / 1000.0,
                "passes": len(s.lat)}


WORKLOADS = {
    "index_build": IndexBuild,
    "search_cold": SearchCold,
    "pipeline_suite": PipelineSuite,
}


def percentile(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(1, math.ceil(p / 100.0 * len(sorted_vals)))
    return sorted_vals[k - 1]
