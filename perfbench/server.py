"""Server launcher for the serve workloads: ``CoreService`` + ``CoreServer``.

Run by the benchmark as its own process::

    python3 perfbench/server.py EDGES H INDEX TRACE_OUT

It loads the edge list, serves it with ``backend="auto"`` (which ``run.py``
pins), attaches the index, prints ``READY <port>`` once
the port is bound, and serves until SIGTERM (graceful drain).  With a
``TRACE_OUT`` path other than ``-`` it wraps the service's public query,
update, snapshot and index methods in spans; they record only after
SIGUSR1, so the first half of a traced run measures the untraced server.
At exit the spans and their per-layer summary go to ``TRACE_OUT``.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, inputs  # noqa: E402

#: Query methods of ``CoreService`` by read class of the request mix.
HANDLER_SPANS = (
    ("query_core_number", "serve.point"),
    ("query_core_members", "serve.community"),
    ("query_top_communities", "serve.community"),
    ("query_spectrum", "serve.analytics"),
    ("query_cores", "serve.analytics"),
    ("apply_updates_sync", "serve.update"),
)


def install_spans(tracer: common.Tracer) -> None:
    import repro.core.decomposition as decomposition
    from repro.dynamic.engine import DynamicKHCore
    from repro.index.query import CoreIndexReader
    from repro.serve.service import CoreService
    from repro.serve.snapshot import CoreSnapshot

    for method, name in HANDLER_SPANS:
        tracer.wrap(CoreService, method, name)
    tracer.wrap(DynamicKHCore, "apply_batch", "dynamic.apply_batch")
    cores_for = CoreSnapshot.cores_for

    def spanned_cores_for(snapshot, h=None):
        # Only off-threshold lookups can miss the per-snapshot cache.
        if not tracer.enabled or h is None or h == snapshot.h:
            return cores_for(snapshot, h)
        with tracer.span("serve.snapshot.cores_for"):
            return cores_for(snapshot, h)

    CoreSnapshot.cores_for = spanned_cores_for
    # cores_for imports core_decomposition at call time, so a span here
    # under a cores_for span is a snapshot-cache recompute.
    tracer.wrap(decomposition, "core_decomposition", "core.decomposition")
    tracer.wrap(CoreIndexReader, "core_number", "index.query")
    tracer.wrap(CoreIndexReader, "spectrum", "index.query")


def summarize(tracer: common.Tracer) -> dict:
    """Per-layer numbers from the server-side spans (milliseconds)."""
    by_id = {span[1]: span for span in tracer.spans}

    def ms(name):
        return [1000.0 * d for d in tracer.durations(name)]

    lookups = [span for span in tracer.spans
               if span[3] == "serve.snapshot.cores_for"]
    recomputes = sum(1 for span in tracer.spans
                     if span[3] == "core.decomposition"
                     and by_id.get(span[2], (0, 0, 0, ""))[3]
                     == "serve.snapshot.cores_for")
    return {
        "point_ms": ms("serve.point"),
        "community_ms": ms("serve.community"),
        "analytics_ms": ms("serve.analytics"),
        "update_ms": ms("serve.update"),
        "apply_ms": ms("dynamic.apply_batch"),
        # apply_updates_sync minus the engine's apply_batch: publication.
        "publish_ms": [1000.0 * t for t in tracer.self_times("serve.update")],
        "index_ms": ms("index.query"),
        "cache_lookups": len(lookups),
        "cache_recomputes": recomputes,
        "spans": len(tracer.spans),
    }


async def _serve(service, tracer, trace: bool) -> None:
    from repro.serve.app import run_app

    if trace:
        asyncio.get_running_loop().add_signal_handler(
            signal.SIGUSR1, lambda: setattr(tracer, "enabled", True))

    def ready(server) -> None:
        print(f"READY {server.port}", flush=True)

    await run_app(service, port=0, ready=ready, install_signal_handlers=True)


def main(argv) -> int:
    edges, h, index, trace_out = argv
    common.import_library()
    from repro.serve.service import CoreService

    with open(edges, "rb") as handle:
        graph = inputs.graph_from_edges(handle.read())
    tracer = common.Tracer()
    trace = trace_out != "-"
    if trace:
        install_spans(tracer)
    service = CoreService(graph, h=int(h), backend="auto", index_path=index,
                          name="perfbench")
    try:
        asyncio.run(_serve(service, tracer, trace))
    finally:
        service.close()
    if trace:
        tracer.enabled = False
        tracer.dump(trace_out + ".spans.json")
        with open(trace_out, "w") as handle:
            json.dump(summarize(tracer), handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
