#!/usr/bin/env python3
"""One benchmark run of searchengine_ray on one workload.

    python3 perfbench/run.py --workload index_build --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. One process starts Ray with ``num_cpus``
equal to the CPUs it may use, drives the workload from one client thread,
checks every result and prints, as the last line of standard output, one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run also records spans and prints the per-layer ones (see layers.py), and
writes the spans to ``.bench_work/traces/``. perfbench/README.md lists the
workloads, sizes and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Ray's unix sockets live under its temp dir and must fit in 107 bytes;
# a longer checkout path falls back to Ray's default temp dir
RAY_TMP_MAX = 43


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_ray(work_root: str) -> None:
    import ray
    from ray.data import DataContext
    kw = {}
    tmp = os.path.join(work_root, "ray")
    if len(tmp) <= RAY_TMP_MAX:
        os.makedirs(tmp, exist_ok=True)
        kw["_temp_dir"] = tmp
    nproc = int(subprocess.run(["nproc"], capture_output=True, text=True,
                               check=True).stdout)
    ray.init(address="local", num_cpus=nproc,
             object_store_memory=512 * 1024 * 1024, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, **kw)
    DataContext.get_current().enable_progress_bars = False


def warm_pool() -> None:
    """One no-op Ray Data job: the first job of a session pays worker start."""
    import ray.data
    ray.data.range(64, override_num_blocks=4).map_batches(
        lambda b: b).materialize()


def tail(lat: list[float]) -> float:
    """The 99th percentile when at least ten samples lie beyond it (1000 or
    more operations, as in the search loops); a run of a few builds or
    passes has no measurable tail, and reports its median."""
    from workloads import percentile
    return percentile(lat, 99) if len(lat) >= 1000 else statistics.median(lat)


def end_to_end(s, setup_s: float) -> dict[str, float]:
    lat = sorted(x * 1000.0 for x in s.lat)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail(lat),
        "throughput_per_s": s.items / (sum(lat) / 1000.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "throughput_per_s": "1/s", "peak_rss_mb": "MB",
         "trace.overhead_throughput_per_s": "1/s",
         "build_docs_per_s": "docs/s", "search_qps": "1/s",
         "builds": "count", "samples": "count", "passes": "count",
         "nonempty_share": "ratio", "failed_ratio": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.startswith(("untraced.", "traced.")):
        return unit_of(name.split(".", 1)[1])
    for suffix, unit in (("_mb_per_s", "MB/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_bytes", "bytes"), ("_ratio", "ratio"),
                         ("_share", "ratio"), ("_skew", "ratio"),
                         ("_per_source_byte", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, ROOT)
    # outside a full checkout there is no program to measure: fail here,
    # before Ray starts and before any result is printed
    import searchengine_ray.build  # noqa: F401
    import tools.selfcheck  # noqa: F401

    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, Run, Samples

    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    run = Run(work, args.seed)
    tracer = Tracer() if args.trace else NullTracer()
    wl = WORKLOADS[args.workload]()
    import ray
    try:
        t0 = time.perf_counter()
        with tracer.span("setup.ray_init"):
            start_ray(work_root)
        with tracer.span("setup.warm_pool"):
            warm_pool()
        with tracer.span("setup.workload"):
            wl.setup(run, tracer)
        setup_s = time.perf_counter() - t0
        wl.prepare_checks(run)

        if not args.trace:
            s = wl.loop(run, args.seconds, tracer)
            # before the checks, so that the reference scorer's memory is
            # not in peak_rss_mb
            metrics = end_to_end(s, setup_s)
            wl.verify(run)
            extra = wl.report(s, metrics)
        else:
            # operations alternate between untraced and traced, so both
            # see the same inputs and the same machine; the difference
            # between them is what the spans cost
            from layers import probe
            plain, traced = Samples(), Samples()
            while sum(plain.lat) + sum(traced.lat) < args.seconds:
                for tr, acc in ((NullTracer(), plain), (tracer, traced)):
                    s = wl.loop(run, 0, tr)
                    acc.lat += s.lat
                    acc.items += s.items
            wl.verify(run)
            e_plain = end_to_end(plain, setup_s)
            e_traced = end_to_end(traced, setup_s)
            metrics, ray_stats = probe(run, tracer, wl)
            metrics["trace.overhead_p50_ms"] = (e_traced["latency_p50_ms"]
                                                - e_plain["latency_p50_ms"])
            metrics["trace.overhead_throughput_per_s"] = (
                e_traced["throughput_per_s"] - e_plain["throughput_per_s"])
            extra = {**{f"untraced.{k}": v for k, v in e_plain.items()},
                     **{f"traced.{k}": v for k, v in e_traced.items()}}
            tdir = os.path.join(work_root, "traces")
            os.makedirs(tdir, exist_ok=True)
            tracer.dump(os.path.join(
                tdir, f"{args.workload}-{args.seed}.json"),
                {"metrics": metrics, "ray_data_stats": ray_stats})
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)

    extra["failed_ratio"] = run.failed / max(1, run.attempted)
    for k, v in {**metrics, **extra}.items():
        print(f"{args.workload} {k} = {v} {unit_of(k)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": unit_of(k)}
                    for k, v in metrics.items() if math.isfinite(v)},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
