"""Benchmark entry point: one seeded workload, timed or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics
(tracing off); ``--trace 1`` prints the per-layer metrics of a traced run,
including the tracing overhead.  Every answer is checked; the last stdout
line is ``{"correct", "attempted", "failed", "metrics"}`` and the exit code
is non-zero when any answer was wrong.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402

@functools.lru_cache(maxsize=None)
def spec() -> dict:
    """``BENCHMARK.json``: the workloads and the metrics with their units."""
    with open(os.path.join(common.REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def workloads() -> tuple:
    return tuple(w["name"] for w in spec()["workloads"])


def units(trace: bool) -> dict:
    """Metric name -> unit of a traced (per-layer) or timed run.

    Every traced run prints every per-layer metric; a layer the workload
    does not exercise reads 0.
    """
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec()[key]}


#: The engine each workload measures.  ``backend="auto"`` picks it from
#: what is installed (Numba would turn ``numpy`` into ``native``), so a run
#: whose engine differs refuses to report: its numbers would measure
#: something else than the runs it would be compared with.
PINNED_ENGINES = {
    "full": {
        "decompose-social": "numpy",
        "serve-read": "csr",
        "serve-churn": "csr",
    },
    # The self-test's graphs are below the NumPy engine's size gate.
    "tiny": {
        "decompose-social": "csr",
        "serve-read": "csr",
        "serve-churn": "csr",
    },
}


class EngineMismatch(Exception):
    """The resolved engine is not the one the workload is pinned to."""


def _med(values) -> float:
    return common.median(values) if values else 0.0


def decomposition_time(times) -> float:
    """Lower quartile of repeated decompositions of one graph.

    The decomposition is deterministic, so its repetitions differ only by
    what else the machine does; the lower quartile tracks the cost of the
    work itself, where the median follows the machine's load.
    """
    return common.percentile(times, 25)


def decompose_metrics(result: dict, trace: bool) -> dict:
    untraced = result["times"]["untraced"]
    if not trace:
        return {
            "setup_s": common.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "latency_ms": 1000.0 * decomposition_time(untraced),
        }
    traced = result["times"]["traced"]
    per = result["per_trace"]

    def seconds(name):
        return _med([total for total, _ in per[name]])

    def calls(name):
        return _med([count for _, count in per[name]])

    counts = result["counts"][-1]
    decrements = counts["hdegree_decrements"]
    recomputes = counts["hdegree_computations"]
    resilience = result["resilience"] or {}
    base, with_spans = decomposition_time(untraced), decomposition_time(traced)
    return {
        "graph.stream_load_s": _med(result["timings"].get("stream_load", [])),
        "runtime.context_s": _med(result["timings"]["context"]),
        "runtime.bulk_h_degrees_s": seconds("runtime.bulk_h_degrees"),
        "runtime.bulk_h_degrees.calls": calls("runtime.bulk_h_degrees"),
        "core.bounds.lb_s": seconds("core.bounds.lb"),
        "core.bounds.ub_s": seconds("core.bounds.ub"),
        "core.bounds.improve_lb_s": seconds("core.bounds.improve_lb"),
        "core.bounds.improve_lb.calls": calls("core.bounds.improve_lb"),
        "core.peeling.self_s": seconds("core.peeling.self"),
        "core.peeling.calls": calls("core.peeling"),
        "core.bfs_calls": counts["bfs_calls"],
        "core.vertices_visited": counts["vertices_visited"],
        "core.hdegree_computations": recomputes,
        "core.hdegree_decrements": decrements,
        "core.bucket_moves": counts["bucket_moves"],
        "core.decrement_ratio": decrements / max(1, decrements + recomputes),
        "resilience.retries": resilience.get("retries", 0),
        "resilience.pool_rebuilds": resilience.get("pool_rebuilds", 0),
        "resilience.wasted_chunks": resilience.get("wasted_chunks", 0),
        "resilience.downgrades": resilience.get("downgrades", 0),
        "trace.overhead_ms": 1000.0 * (with_spans - base),
        "trace.overhead_pct": 100.0 * (with_spans - base) / base,
        "trace.spans": result["spans"],
    }


def serve_metrics(result: dict, trace: bool) -> dict:
    summary = result["summary"]
    if not trace:
        return {
            "setup_s": common.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_mb"],
            "latency_ms": summary["read_p50_ms"],
        }
    server = result["server_trace"]
    stats, before = result["stats"], result["stats_before"]
    maintenance = stats["maintenance"]
    index = stats.get("index") or {}
    batches = maintenance["batches"] - before["maintenance"]["batches"]
    handlers = (server["point_ms"] + server["community_ms"]
                + server["analytics_ms"])
    apply_ms = server["apply_ms"]
    lookups = server["cache_lookups"]
    untraced, traced = result["untraced"], result["traced"]
    return {
        "serve.point_handler_ms": _med(server["point_ms"]),
        "serve.community_handler_ms": _med(server["community_ms"]),
        "serve.analytics_handler_ms": _med(server["analytics_ms"]),
        "serve.http_overhead_ms": traced["wire_p50_ms"] - _med(handlers),
        "serve.read_p99_ms": untraced["read_p99_ms"],
        "serve.point_p99_ms": untraced["point_p99_ms"],
        "serve.capacity_rps": result["capacity_rps"],
        "serve.snapshot.publish_ms": _med(server["publish_ms"]),
        "serve.snapshot.epochs": stats["generation"] - before["generation"],
        "serve.snapshot.cache_hit_ratio":
            (lookups - server["cache_recomputes"]) / lookups if lookups else 0.0,
        "serve.snapshot.cache_lookups": lookups,
        "serve.shed_requests": stats["resilience"]["shed_requests"],
        "index.build_s": _med(result["index_build_s"]),
        "index.hits": index.get("hits", 0),
        "index.misses": index.get("misses", 0),
        "index.query_ms": _med(server["index_ms"]),
        "dynamic.apply_batch_ms": _med(apply_ms),
        "dynamic.writer_busy_ratio": sum(server["update_ms"]) / 1000.0
            / (result["duration_s"] / 2),
        "dynamic.writer_wait_ms":
            summary["update_p50_ms"] - _med(apply_ms) if apply_ms else 0.0,
        "dynamic.update_p50_ms": summary["update_p50_ms"],
        "dynamic.update_p90_ms": summary["update_p90_ms"],
        "dynamic.incremental_ratio":
            (maintenance["incremental_repeels"]
             - before["maintenance"]["incremental_repeels"]) / batches
            if batches else 0.0,
        "dynamic.batches": batches,
        "dynamic.full_recomputes": maintenance["full_recomputes"]
            - before["maintenance"]["full_recomputes"],
        "loadgen.late_ms_max": summary["late_ms_max"],
        "loadgen.offered_rps": result["offered_rps"],
        "loadgen.completed_rps": result["completed_rps"],
        "trace.overhead_ms": traced["read_p50_ms"] - untraced["read_p50_ms"],
        "trace.overhead_pct": 100.0 * (traced["read_p50_ms"]
                                       - untraced["read_p50_ms"])
            / untraced["read_p50_ms"],
        "trace.spans": server["spans"],
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Run one workload; return its record (metrics, checks, environment)."""
    common.import_library()
    from perfbench import decompose, serve

    workdir = os.path.join(common.WORK_ROOT, f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(common.OUT_DIR, exist_ok=True)
    try:
        if workload.startswith("decompose"):
            result = decompose.run(workload, seed, seconds, trace, size, workdir)
            attempted, failed = result["checked"], result["wrong"]
            metrics = decompose_metrics(result, trace)
        else:
            result = serve.run(workload, seed, seconds, trace, size, workdir)
            attempted, failed = result["attempted"], result["failed"]
            metrics = serve_metrics(result, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = common.environment()
    env["engine"] = result["engine"]
    pinned = PINNED_ENGINES[size][workload]
    if result["engine"] != pinned:
        raise EngineMismatch(
            f"{workload} resolved the {result['engine']!r} engine but is "
            f"pinned to {pinned!r}; refusing to report numbers that measure "
            f"a different engine")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)),
                           "unit": unit} for name, unit in units(trace).items()},
        "environment": env,
        "measured": sorted(metrics),
        "samples": result["times"] if "times" in result else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads())
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except EngineMismatch as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    path = os.path.join(common.OUT_DIR, f"run-{args.workload}-seed{args.seed}"
                                        f"-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    env = record.pop("environment")
    record.pop("measured")
    record.pop("samples")
    print(f"# environment: {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    for name, metric in record["metrics"].items():
        print(f"# {name:34s} {metric['value']:14.6g} {metric['unit']}",
              file=sys.stderr)
    print(json.dumps(record))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
