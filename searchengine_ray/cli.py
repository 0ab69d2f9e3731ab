"""CLI entry points (SURVEY.md §2.12 — the reference exposes argparse CLIs
per stage: build_index.py:18-30, run_crawler.py:31-47; here one typed CLI).

  python -m searchengine_ray.cli gen-corpus --out DIR --docs N
  python -m searchengine_ray.cli build --source DIR --index DIR
                                      [--partitions P] [--no-salt] [--no-resume]
  python -m searchengine_ray.cli query --index DIR --q "text" [--top-k K]
                                      [--page N --per-page M] [--exclude-repo R ...]
  python -m searchengine_ray.cli stats --index DIR

This module OWNS a Ray session (guarded — the driver/tests never route
through it). On a real cluster the same commands run under
``ray job submit -- python -m searchengine_ray.cli build ...`` with
RAY_ADDRESS pointing at the cluster.
"""

from __future__ import annotations

import argparse
import json
import sys


def _ensure_ray():
    import ray
    if not ray.is_initialized():
        ray.init(address="local", include_dashboard=False,
                 logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False


def cmd_gen_corpus(args) -> int:
    _ensure_ray()
    from searchengine_ray.sources.corpus import write_corpus
    write_corpus(args.out, args.docs, seed=args.seed,
                 rows_per_file=args.rows_per_file)
    print(json.dumps({"out": args.out, "docs": args.docs}))
    return 0


def cmd_ingest(args) -> int:
    _ensure_ray()
    from searchengine_ray.sources.ingest import ingest_tree
    stats = ingest_tree(args.root, args.out, repo=args.repo,
                        commit=args.commit,
                        max_file_bytes=args.max_file_bytes)
    print(json.dumps(stats))
    return 0


def cmd_build(args) -> int:
    _ensure_ray()
    from searchengine_ray.build import build_index
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.sources.corpus import read_source
    cfg = IndexConfig(num_partitions=args.partitions,
                      num_length_partitions=max(2, args.partitions // 8),
                      stemmer=args.stemmer,
                      tokenizer=args.tokenizer)
    if args.delta_against:
        # incremental ingest: index only content the base doesn't have
        # (exact sha anti-join); the delta federates/merges with the base
        from searchengine_ray.build import build_delta_index
        manifest = build_delta_index(read_source(args.source),
                                     args.delta_against, args.index, cfg)
    else:
        manifest = build_index(read_source(args.source), args.index, cfg,
                               resume=not args.no_resume,
                               salt_hot_terms=not args.no_salt)
    print(json.dumps({k: manifest[k] for k in
                      ("num_docs", "num_terms", "avg_doc_len", "complete")}))
    return 0


def cmd_query(args) -> int:
    from searchengine_ray.config import IndexConfig, QueryConfig
    from searchengine_ray.query import QueryEngine
    cfg = IndexConfig(num_partitions=args.partitions,
                      num_length_partitions=max(2, args.partitions // 8),
                      stemmer=args.stemmer,
                      tokenizer=args.tokenizer)
    eng = QueryEngine(args.index, cfg, QueryConfig())
    if args.page is not None:
        out = eng.search_page(args.q, page=args.page, per_page=args.per_page,
                              exclude_repos=args.exclude_repo or None)
    elif args.hybrid:
        out = eng.hybrid_search(args.q, top_k=args.top_k)
    elif args.wand:
        stats: dict = {}
        out = eng.search_wand(args.q, top_k=args.top_k, stats=stats)
        print(json.dumps({"wand": stats}), flush=True)
    else:
        out = eng.search(args.q, top_k=args.top_k)
    print(json.dumps(out, indent=2))
    return 0


def cmd_embed(args) -> int:
    _ensure_ray()
    from searchengine_ray.pipelines.embeddings import build_doc_embeddings
    out = build_doc_embeddings(args.index)
    print(json.dumps({"embeddings_dir": out}))
    return 0


def cmd_verify(args) -> int:
    from searchengine_ray.verify_index import verify_index
    report = verify_index(args.index)
    print(json.dumps(report, indent=2))
    return 0 if report["ok"] else 1


def cmd_stats(args) -> int:
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.query import QueryEngine
    cfg = IndexConfig(num_partitions=args.partitions,
                      num_length_partitions=max(2, args.partitions // 8))
    print(json.dumps(QueryEngine(args.index, cfg).stats()))
    return 0


def cmd_serve(args) -> int:
    from searchengine_ray.config import IndexConfig
    from searchengine_ray.query import QueryEngine
    from searchengine_ray.serve import SearchApp, SearchHTTPServer
    cfg = IndexConfig(num_partitions=args.partitions,
                      num_length_partitions=max(2, args.partitions // 8),
                      stemmer=args.stemmer,
                      tokenizer=args.tokenizer)
    eng = QueryEngine(args.index, cfg,
                      preload_segments=args.preload)
    app = SearchApp(eng, mode="hybrid" if args.hybrid else "bm25",
                    results_per_page=args.per_page)
    srv = SearchHTTPServer(app, host=args.host, port=args.port)
    print(json.dumps({"serving": True, "host": args.host,
                      "port": srv.port}), flush=True)
    try:
        srv.serve_forever()
    except KeyboardInterrupt:
        srv.shutdown()
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="searchengine_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("gen-corpus")
    g.add_argument("--out", required=True)
    g.add_argument("--docs", type=int, default=10_000)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--rows-per-file", type=int, default=4000)
    g.set_defaults(fn=cmd_gen_corpus)

    i = sub.add_parser("ingest")
    i.add_argument("--root", required=True)
    i.add_argument("--out", required=True)
    i.add_argument("--repo", default=None)
    i.add_argument("--commit", default=None)
    i.add_argument("--max-file-bytes", type=int, default=8 * 1024 * 1024)
    i.set_defaults(fn=cmd_ingest)

    b = sub.add_parser("build")
    b.add_argument("--source", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--partitions", type=int, default=32)
    b.add_argument("--no-salt", action="store_true")
    b.add_argument("--stemmer", choices=["none", "porter", "nltk"], default="none")
    b.add_argument("--tokenizer", choices=["split", "treebank"], default="split")
    b.add_argument("--no-resume", action="store_true")
    b.add_argument("--delta-against", default=None, metavar="BASE_INDEX",
                   help="incremental ingest: index only content whose "
                        "sha256 is absent from this base index")
    b.set_defaults(fn=cmd_build)

    q = sub.add_parser("query")
    q.add_argument("--index", required=True)
    q.add_argument("--q", required=True)
    q.add_argument("--top-k", type=int, default=20)
    q.add_argument("--stemmer", choices=["none", "porter", "nltk"], default="none")
    q.add_argument("--tokenizer", choices=["split", "treebank"], default="split")
    q.add_argument("--partitions", type=int, default=32)
    q.add_argument("--page", type=int, default=None)
    q.add_argument("--per-page", type=int, default=15)
    q.add_argument("--exclude-repo", action="append")
    q.add_argument("--hybrid", action="store_true",
                   help="BM25+embedding hybrid (requires built embeddings)")
    q.add_argument("--wand", action="store_true",
                   help="block-max WAND scorer (result-identical to the "
                        "default path; prints block skip stats first)")
    q.set_defaults(fn=cmd_query)

    e = sub.add_parser("embed")
    e.add_argument("--index", required=True)
    e.set_defaults(fn=cmd_embed)

    s = sub.add_parser("stats")
    s.add_argument("--index", required=True)
    s.add_argument("--partitions", type=int, default=32)
    s.set_defaults(fn=cmd_stats)

    v = sub.add_parser("verify")
    v.add_argument("--index", required=True)
    v.set_defaults(fn=cmd_verify)

    sv = sub.add_parser("serve", help="HTTP serving layer (reference "
                                      "app.py endpoints: /search, "
                                      "/api/search, /health)")
    sv.add_argument("--index", required=True)
    sv.add_argument("--partitions", type=int, default=32)
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8080)
    sv.add_argument("--per-page", type=int, default=15)
    sv.add_argument("--stemmer", choices=["none", "porter", "nltk"], default="none")
    sv.add_argument("--tokenizer", choices=["split", "treebank"], default="split")
    sv.add_argument("--hybrid", action="store_true")
    sv.add_argument("--preload", action="store_true",
                    help="load every segment partition at startup so the "
                         "first request per term pays no file I/O")
    sv.set_defaults(fn=cmd_serve)

    args = p.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
