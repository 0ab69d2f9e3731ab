"""Benchmark entry point (driver-run per round; see BASELINE.md).

Headline pipelines:
  index_build   streaming inverted-index build over the deterministic
                synthetic source-code corpus (the north-star input shape)
  bm25_queries  warm-actor BM25 top-k latency over the reference query set
  + the training-data pipelines over $GRAFT_SF_DIR documents/embeddings

Prints ONE JSON line:
  {"metric": ..., "value": <total sec>, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N,
   "index_build": {"docs": D, "sec": S, "docs_per_sec": R},
   "bm25_p50_ms": ..., "bm25_p95_ms": ...}

--scaling: runs the index build twice in FRESH processes at num_cpus=8 and
num_cpus=32 on the same input and reports both throughputs + efficiency
(throughput_32 / (4 * throughput_8)) — the sandbox stand-in for the
N-vs-4N-node cluster criterion (BASELINE.json north_rule).

This script OWNS its Ray session (the only places allowed to: bench.py,
CLI entry points, tests/conftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_CORPUS_DOCS = int(os.environ.get("SERAY_BENCH_DOCS", "96000"))
BENCH_CORPUS_DIR = f"/tmp/seray_bench_corpus_{BENCH_CORPUS_DOCS}"
# scaling runs use a larger corpus so per-doc compute dominates the
# fixed shuffle/startup latency (the quantity that actually scales)
SCALING_DOCS = int(os.environ.get("SERAY_SCALING_DOCS", "192000"))
SCALING_DIR = f"/tmp/seray_bench_corpus_{SCALING_DOCS}"
BM25_BENCH_QUERIES = [
    "queue71", "py org2", "parse token stream", "src/module_96/file_25.py",
    "hashMap codec", "spill window partition", "rust engine", "vector matrix",
]


def _ray_init(num_cpus: int):
    import ray
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    # log_to_driver=False: a relayed worker print can land on stdout
    # AHEAD of the one-line JSON contract (observed once: a truncated
    # progress-bar name); the driver parses stdout, so keep it pure
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # push-based sort shuffle parallelizes the postings exchange better
    # than the default pull-based variant (measured; see BASELINE.md)
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED


def _bench_cfg():
    """Build config for bench scale: shuffle width ≈ 4× CPUs for wave
    balance (the library default of 32 targets small corpora)."""
    from searchengine_ray.config import IndexConfig
    return IndexConfig(num_partitions=128, num_length_partitions=16)


def ensure_bench_corpus(docs: int, out_dir: str) -> str:
    from searchengine_ray.sources.corpus import write_corpus
    return write_corpus(out_dir, docs, rows_per_file=4000)


def run_index_build(index_dir: str, corpus_dir: str = BENCH_CORPUS_DIR,
                    docs: int = BENCH_CORPUS_DOCS) -> dict:
    import ray.data
    from searchengine_ray.build import build_index
    from searchengine_ray.sources.corpus import read_source
    ensure_bench_corpus(docs, corpus_dir)
    # warm the worker pool (one no-op round trip per CPU) so the timed
    # region measures steady-state throughput, not process spawn
    ray.data.range(1024, override_num_blocks=64).map_batches(
        lambda b: b).materialize()
    shutil.rmtree(index_dir, ignore_errors=True)
    # block sizing is data-driven (~3k docs ≈ 8-16 MB per block): small
    # enough to parallelize, large enough that per-block shuffle overhead
    # stays negligible (measured: 240 auto-split blocks cost 2-3× vs 64)
    num_blocks = max(32, docs // 3000)
    src = ray.data.read_parquet(
        corpus_dir, columns=["repo", "path", "commit", "lang", "content"],
        override_num_blocks=num_blocks)
    t0 = time.perf_counter()
    manifest = build_index(src, index_dir, _bench_cfg())
    sec = time.perf_counter() - t0
    return {"docs": manifest["num_docs"], "sec": round(sec, 3),
            "docs_per_sec": round(manifest["num_docs"] / sec, 1),
            "num_terms": manifest["num_terms"]}


def run_bm25_latency(index_dir: str) -> dict:
    from searchengine_ray.pipelines.embeddings import build_doc_embeddings
    from searchengine_ray.query import QueryEngine
    build_doc_embeddings(index_dir)
    eng = QueryEngine(index_dir, _bench_cfg())
    for q in BM25_BENCH_QUERIES:  # warm segment caches + embeddings
        eng.search(q)
        eng.hybrid_search(q)
    lat, hlat = [], []
    for _ in range(5):
        for q in BM25_BENCH_QUERIES:
            t0 = time.perf_counter()
            eng.search(q, top_k=20)
            lat.append((time.perf_counter() - t0) * 1000)
            t0 = time.perf_counter()
            eng.hybrid_search(q, top_k=20)
            hlat.append((time.perf_counter() - t0) * 1000)
    lat.sort()
    hlat.sort()
    # cold-start path: a FRESH engine (new object, empty postings cache)
    # with every segment preloaded — the first call per query is the
    # honest "new serving process" latency
    eng2 = QueryEngine(index_dir, _bench_cfg(), preload_segments=True)
    cold = []
    for q in BM25_BENCH_QUERIES:
        t0 = time.perf_counter()
        eng2.search(q, top_k=20)
        cold.append((time.perf_counter() - t0) * 1000)
    cold.sort()
    return {"p50_ms": round(statistics.median(lat), 2),
            "p95_ms": round(lat[int(0.95 * len(lat)) - 1], 2),
            "hybrid_p50_ms": round(statistics.median(hlat), 2),
            "cold_p50_ms": round(statistics.median(cold), 2),
            "cold_p95_ms": round(cold[int(0.95 * len(cold)) - 1], 2),
            "n": len(lat)}


# Entries whose FIRST call owns a one-time build (embeddings job, index/
# docstore cache fill): reported cold AND warm so one-time costs stop
# reading as round-over-round regressions (round-2 verdict item).
WARM_SPLIT_PREFIXES = ("hybrid_", "bm25_", "docstore_sha256", "ann_")


def run_pipelines(sf_dir: str) -> tuple[dict[str, float], dict[str, float]]:
    """Time each driver-contract pipeline at the bench scale factor.
    Returns (cold timings: first call per entry — comparable round over
    round, warm timings: second call for the serving-path entries whose
    first call pays a one-time build)."""
    from searchengine_ray.pipelines.driver_api import build_queries
    import pyarrow as pa
    import ray.data

    def timed(fn) -> float:
        t0 = time.perf_counter()
        out = fn(sf_dir)
        if isinstance(out, ray.data.Dataset):
            _ = out.materialize().count()
        elif isinstance(out, pa.Table):
            _ = out.num_rows
        return round(time.perf_counter() - t0, 3)

    timings: dict[str, float] = {}
    warm: dict[str, float] = {}
    skip = {"doc_lengths", "index_stats"}  # covered by index_build
    for name, fn in build_queries().items():
        if name in skip:
            continue
        timings[name] = timed(fn)
        if name.startswith(WARM_SPLIT_PREFIXES):
            warm[name] = timed(fn)
    return timings, warm


def run_explode_stage(corpus_dir: str, docs: int) -> float:
    """Wall time of the tokenize/explode stage ALONE (no shuffle): the
    pure-compute portion whose scaling is not limited by the single box's
    exchange bandwidth."""
    import ray.data
    from searchengine_ray.stages.postings import ExplodePostings
    src = ray.data.read_parquet(
        corpus_dir, columns=["repo", "path", "commit", "lang", "content"],
        override_num_blocks=max(32, docs // 3000))
    t0 = time.perf_counter()
    src.map_batches(ExplodePostings(_bench_cfg(), {}),
                    batch_format="pyarrow").count()
    return time.perf_counter() - t0


def scale_probe(num_cpus: int) -> dict:
    """Child-process mode: index build only, fresh Ray session. Best of 3
    runs — single-machine wall times vary ±30% with page-cache/disk state,
    and min-over-repeats estimates the true cost."""
    _ray_init(num_cpus)
    res = min((run_index_build(f"/tmp/seray_scale_index_{num_cpus}",
                               SCALING_DIR, SCALING_DOCS)
               for _ in range(3)), key=lambda r: r["sec"])
    explode_sec = min(run_explode_stage(SCALING_DIR, SCALING_DOCS)
                      for _ in range(3))
    res["explode_sec"] = round(explode_sec, 3)
    res["explode_docs_per_sec"] = round(SCALING_DOCS / explode_sec, 1)
    import ray
    ray.shutdown()
    return res


def _dram_stream_work(n_iters: int) -> int:
    import numpy as np
    a = np.random.default_rng(0).integers(0, 255, size=25_000_000,
                                          dtype=np.uint8)
    s = 0
    for _ in range(n_iters):
        s += int(a.sum())
    return s


def hardware_ceiling_probe() -> dict:
    """Ray-free control: a pure-numpy memory-streaming workload (array
    scans, no shuffle, no IPC) at 8 vs 32 processes. Its efficiency is the
    BOX's shared-DRAM-bandwidth ceiling — the upper bound any streaming
    data engine can reach on this machine (measured ≈0.67; a real 4×-node
    cluster quadruples DRAM alongside cores)."""
    import multiprocessing as mp
    out = {}
    for p in (8, 32):
        t0 = time.perf_counter()
        with mp.Pool(p) as pool:
            pool.map(_dram_stream_work, [30] * p)
        out[p] = round((p * 30) / (time.perf_counter() - t0), 1)
    return {"scans_per_sec_8": out[8], "scans_per_sec_32": out[32],
            "efficiency": round(out[32] / (4 * out[8]), 3)}


def run_scaling() -> dict:
    # corpus generated once (child processes reuse the _SUCCESS-marked dir)
    _ray_init(8)
    ensure_bench_corpus(SCALING_DOCS, SCALING_DIR)
    import ray
    ray.shutdown()
    out = {}
    for cpus in (8, 32):
        r = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--_scale_run",
             str(cpus)],
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)))
        out[cpus] = json.loads(r.stdout.strip().splitlines()[-1])
    eff = out[32]["docs_per_sec"] / (4 * out[8]["docs_per_sec"])
    stage_eff = (out[32]["explode_docs_per_sec"]
                 / (4 * out[8]["explode_docs_per_sec"]))
    return {"cpus_8": out[8], "cpus_32": out[32],
            "scaling_efficiency": round(eff, 3),
            "tokenize_stage_scaling_efficiency": round(stage_eff, 3),
            # Ray-free control: the box's shared-DRAM ceiling for ANY
            # streaming workload (BASELINE.md analysis)
            "hardware_ceiling": hardware_ceiling_probe()}


def run_skew_evidence(num_docs: int = 48000) -> dict:
    """Skew-handling evidence (north_rule: 'skew handled explicitly'):
    build an ADVERSARIAL corpus — every doc contains the same ultra-hot
    term — with salting off vs on, and report the max/median segment
    partition sizes plus wall time for each."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data
    from searchengine_ray.build import build_index
    from searchengine_ray.sources.corpus import generate_corpus_table

    corpus_dir = f"/tmp/seray_skew_corpus_{num_docs}"
    if not os.path.exists(os.path.join(corpus_dir, "_SUCCESS")):
        os.makedirs(corpus_dir, exist_ok=True)
        for s in range(0, num_docs, 4000):
            t = generate_corpus_table(min(4000, num_docs - s), start=s)
            # adversarial: prepend the same hot token to EVERY doc, many times
            content = pa.array(
                [("megahot " * 20) + c for c in t["content"].to_pylist()],
                type=pa.large_string())
            t = t.set_column(t.schema.get_field_index("content"),
                             "content", content)
            pq.write_table(t, os.path.join(corpus_dir,
                                           f"part-{s // 4000:05d}.parquet"))
        open(os.path.join(corpus_dir, "_SUCCESS"), "w").write(str(num_docs))

    out = {}
    for label, salt in (("unsalted", False), ("salted", True)):
        idx = f"/tmp/seray_skew_idx_{label}"
        shutil.rmtree(idx, ignore_errors=True)
        src = ray.data.read_parquet(
            corpus_dir, columns=["repo", "path", "commit", "lang", "content"],
            override_num_blocks=max(32, num_docs // 3000))
        t0 = time.perf_counter()
        m = build_index(src, idx, _bench_cfg(), salt_hot_terms=salt)
        sec = time.perf_counter() - t0
        rows = sorted(e["rows"] for e in m["partitions"].values()
                      if e["kind"] == "segment")
        out[label] = {
            "sec": round(sec, 3),
            "max_partition_rows": rows[-1],
            "median_partition_rows": rows[len(rows) // 2],
            "skew_ratio": round(rows[-1] / max(1, rows[len(rows) // 2]), 2),
            "hot_terms_salted": len(m["hot_terms"]),
        }
    out["composite_join"] = run_composite_join_skew_evidence()
    return out


def run_composite_join_skew_evidence(n_left: int = 400_000,
                                     n_right: int = 4000) -> dict:
    """Composite-key join skew evidence (round-4 verdict #4): one
    (user_id, event_type) key carries half the left side; compare the
    composite-key ``equi_join`` without and with ``hot_keys`` on wall
    time and the max/median shuffle-partition row counts of the left
    side (computed by the join's own routing helpers). Output row
    COUNTS asserted equal."""
    import numpy as np
    import pyarrow as pa
    import ray.data
    from searchengine_ray.pipelines.join import (NUM_JOIN_PARTITIONS,
                                                 _route, _routing_hash,
                                                 detect_hot_keys, equi_join)

    rng = np.random.default_rng(17)
    half = n_left // 2
    lu = np.concatenate([np.full(half, 7),
                         rng.integers(0, 5000, size=n_left - half)])
    lt = np.concatenate([np.array(["click"] * half),
                         rng.choice(["click", "view", "buy"],
                                    size=n_left - half)])
    perm = rng.permutation(n_left)
    left = pa.table({"user_id": pa.array(lu[perm], type=pa.int64()),
                     "event_type": pa.array(lt[perm]),
                     "event_id": pa.array(np.arange(n_left,
                                                    dtype=np.int64))})
    right = pa.table({
        "user_id": pa.array(np.concatenate(
            [[7], rng.integers(0, 5000, size=n_right - 1)]),
            type=pa.int64()),
        "event_type": pa.array(np.concatenate(
            [["click"], rng.choice(["click", "view", "buy"],
                                   size=n_right - 1)])),
        "payload": pa.array(rng.standard_normal(n_right)),
    })
    keys = ["user_id", "event_type"]
    lds = ray.data.from_arrow(left).repartition(16).materialize()
    rds = ray.data.from_arrow(right).materialize()
    hot = detect_hot_keys(lds, keys, threshold=n_left // 20)
    R = 8

    # routing balance of the left side, as the join routes it
    h = _routing_hash(left, keys)
    plain_parts, salted_parts = (
        np.bincount(_route(h, hs, R, spread=True)[1],
                    minlength=NUM_JOIN_PARTITIONS)
        for hs in (np.empty(0, dtype=np.int64), hot))

    out: dict = {"hot_keys": int(hot.size)}
    counts = {}
    for label, parts in (("unsalted", plain_parts),
                         ("salted", salted_parts)):
        s = np.sort(parts)
        out[label] = {"max_partition_rows": int(s[-1]),
                      "median_partition_rows": int(s[len(s) // 2]),
                      "skew_ratio": round(float(s[-1])
                                          / max(1.0, float(np.median(s))),
                                          2)}
    for label in ("unsalted", "salted"):
        t0 = time.perf_counter()
        n = equi_join(lds, rds, keys, keys, ["event_id"], ["payload"],
                      hot_keys=hot if label == "salted" else None,
                      replicate=R, left_schema=left.schema,
                      right_schema=right.schema).count()
        out[label]["sec"] = round(time.perf_counter() - t0, 3)
        counts[label] = n
    assert counts["salted"] == counts["unsalted"], counts
    out["join_rows"] = int(counts["salted"])
    return out


def _emit(payload: dict, name: str = "bench_timings.json") -> None:
    """Print the ONE-line JSON contract AND persist the full payload to
    a per-mode file (round-4 verdict #8: the driver records only the
    stdout tail, which truncates the per-entry timing dict — the file
    keeps the whole dict for round-over-round per-entry diffs; per-mode
    names so a --skew run can't clobber the suite record)."""
    print(json.dumps(payload))
    try:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            name)
        with open(path, "w") as f:
            json.dump(payload, f, indent=1)
    except OSError:
        pass  # read-only checkout: stdout contract still holds


CLUSTER_INDEX_DIR = "/tmp/seray_cluster_index"


def run_cluster(repeats: int = 3, data_dir: str = SCALING_DIR,
                index_dir: str = CLUSTER_INDEX_DIR) -> dict:
    """--cluster mode (round-4 verdict #7): the one-command measurement
    for the north_rule's N-vs-4N-node criterion when a REAL cluster
    exists. Connects to ``$RAY_ADDRESS`` (refusing 'local' — this mode
    is for clusters), snapshots node/CPU counts, and runs the headline
    index build best-of-``repeats`` on the scaling corpus. Procedure:
    run once with the cluster at N nodes, once at 4N, then
    efficiency = throughput_4N / (4 × throughput_N) — the same formula
    --scaling applies to 8-vs-32 CPUs on one box (BASELINE.md §scaling
    documents the single-box paired-control stand-in).

    ``data_dir`` (the corpus) and ``index_dir`` default to driver-local
    ``/tmp`` paths. On a real cluster both must be shared storage that
    every node reads and writes at the same path (NFS, a mounted bucket):
    read tasks on other nodes cannot see the driver's ``/tmp``, and
    segment writers there would scatter the index across nodes."""
    import ray
    addr = os.environ.get("RAY_ADDRESS", "")
    if not addr or addr == "local":
        raise SystemExit("--cluster needs RAY_ADDRESS pointing at a real "
                         "cluster (ray://... or <head-ip>:6379); use "
                         "--scaling for the single-box stand-in")
    ray.init(address=addr, logging_level="ERROR", log_to_driver=False)
    from ray.data import DataContext
    from ray.data.context import ShuffleStrategy
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.shuffle_strategy = ShuffleStrategy.SORT_SHUFFLE_PUSH_BASED
    nodes = [n for n in ray.nodes() if n.get("Alive")]
    total_cpus = int(ray.cluster_resources().get("CPU", 0))
    ensure_bench_corpus(SCALING_DOCS, data_dir)
    res = min((run_index_build(index_dir, data_dir, SCALING_DOCS)
               for _ in range(repeats)), key=lambda r: r["sec"])
    ray.shutdown()
    return {"nodes": len(nodes), "total_cpus": total_cpus,
            "address": addr, "data_dir": data_dir,
            "index_dir": index_dir, "index_build": res,
            "docs_per_sec": res["docs_per_sec"],
            "procedure": "run at N and 4N nodes; efficiency = "
                         "docs_per_sec_4N / (4 * docs_per_sec_N)"}


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scaling", action="store_true")
    ap.add_argument("--skew", action="store_true")
    ap.add_argument("--cluster", action="store_true",
                    help="run the headline build against $RAY_ADDRESS "
                         "(real multi-node cluster); see run_cluster")
    ap.add_argument("--data-dir", default=SCALING_DIR,
                    help="--cluster: corpus directory (default: driver-"
                         "local /tmp; on a real cluster, shared storage "
                         "every node mounts at this path)")
    ap.add_argument("--index-dir", default=CLUSTER_INDEX_DIR,
                    help="--cluster: index output directory, deleted and "
                         "rebuilt on every repeat (same shared-storage "
                         "requirement as --data-dir)")
    ap.add_argument("--_scale_run", type=int, default=None)
    args = ap.parse_args()

    if args.cluster:
        res = run_cluster(data_dir=args.data_dir, index_dir=args.index_dir)
        _emit({
            "metric": "cluster index-build throughput (docs/sec) at the "
                      "current cluster size",
            "value": res["docs_per_sec"], "unit": "docs_per_sec",
            "queries": {}, "sf": "synthetic-corpus",
            "num_cpus": res["total_cpus"], "cluster": res,
        }, name="bench_cluster.json")
        return

    if args.skew:
        _ray_init(int(os.environ.get("RAY_GRAFT_CPUS", "32")))
        res = run_skew_evidence()
        _emit({
            "metric": "adversarial-skew partition balance, salted vs unsalted",
            "value": res["salted"]["skew_ratio"], "unit": "skew_ratio",
            "queries": {}, "sf": "synthetic-adversarial", "num_cpus": 32,
            "skew": res,
        }, name="bench_skew.json")
        import ray
        ray.shutdown()
        return

    if args._scale_run is not None:
        print(json.dumps(scale_probe(args._scale_run)))
        return

    if args.scaling:
        res = run_scaling()
        _emit({
            "metric": "index-build scaling efficiency (8 -> 32 cpus, "
                      "fresh sessions, same input)",
            "value": res["scaling_efficiency"], "unit": "efficiency",
            "queries": {}, "sf": "synthetic-corpus",
            "num_cpus": [8, 32], "scaling": res,
        }, name="bench_scaling.json")
        return

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    _ray_init(num_cpus)
    t_all = time.perf_counter()
    index_dir = "/tmp/seray_bench_index"
    # best-of-2: the first build often pays a cold page cache for the
    # 96k-doc corpus read (single runs have recorded ambient outliers
    # 2x below the documented band; min-over-repeats is the real cost)
    build = min((run_index_build(index_dir) for _ in range(2)),
                key=lambda r: r["sec"])
    bm25 = run_bm25_latency(index_dir)
    queries, queries_warm = run_pipelines(sf_dir)
    queries["index_build"] = build["sec"]
    total = round(time.perf_counter() - t_all, 3)
    sf = os.path.basename(os.path.normpath(sf_dir))
    _emit({
        "metric": "index-build throughput (docs/sec) + BM25 top-k p50 + "
                  "training-data pipeline wall times",
        "value": total, "unit": "sec", "queries": queries,
        "queries_warm": queries_warm,
        "sf": sf, "num_cpus": num_cpus,
        "index_build": build,
        "bm25_p50_ms": bm25["p50_ms"], "bm25_p95_ms": bm25["p95_ms"],
        "hybrid_p50_ms": bm25["hybrid_p50_ms"],
        "bm25_cold_p50_ms": bm25["cold_p50_ms"],
        "bm25_cold_p95_ms": bm25["cold_p95_ms"],
        "scaling_note": "run `python bench.py --scaling` for the 8-vs-32-CPU "
                        "fresh-session efficiency (measured 0.67-0.77; "
                        "analysis in BASELINE.md); `--skew` for the "
                        "adversarial-salting evidence",
    })
    import ray
    ray.shutdown()


if __name__ == "__main__":
    main()
