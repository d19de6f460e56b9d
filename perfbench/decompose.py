"""The decompose workload: one warm context, repeated full h-LB+UB runs.

The runner calls :func:`run`, which starts this file as a child process
(``python3 perfbench/decompose.py ...``) so that the peak resident memory
of the processes running the library — this child and its pool workers —
can be read from outside.  The child prints one JSON line; the runner
checks its core maps against a reference computed by another algorithm.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common, inputs  # noqa: E402

H = 2

#: Decompositions always measured, however short ``--seconds`` is.
MIN_DECOMPOSITIONS = 3


def _install_spans(tracer: common.Tracer) -> None:
    """Spans around the public functions h-LB+UB calls, one per layer."""
    from repro.core import backends, hlbub

    tracer.wrap(hlbub, "engine_lb1", "core.bounds.lb")
    tracer.wrap(hlbub, "engine_lb2", "core.bounds.lb")
    tracer.wrap(hlbub, "engine_upper_bound", "core.bounds.ub")
    tracer.wrap(hlbub, "engine_improve_lb", "core.bounds.improve_lb")
    tracer.wrap(hlbub, "core_decomp", "core.peeling")
    tracer.wrap(backends.CSREngine, "bulk_h_degrees", "runtime.bulk_h_degrees")


def _setup(seed: int, size: str, workdir: str, timings: dict):
    """Generate and stream-load the input, then build a warm context.

    Returns the graph view, the context and the block's CSR graph.
    """
    from repro import ExecutionContext, FrozenGraphView, stream_load
    from repro.instrumentation import Counters

    edges = os.path.join(workdir, "social.edges")
    with open(edges, "wb") as handle:
        handle.write(inputs.edge_bytes(inputs.social_graph(seed, size)))
    block = os.path.join(workdir, "social.khcsr")
    for stale in (block, block + ".labels"):
        if os.path.exists(stale):
            os.unlink(stale)
    started = time.perf_counter()
    csr = stream_load(edges, out_path=block)
    timings.setdefault("stream_load", []).append(time.perf_counter() - started)
    graph = FrozenGraphView(csr)
    started = time.perf_counter()
    ctx = ExecutionContext(graph, backend="auto", executor="process",
                           num_workers=os.cpu_count() or 1,
                           counters=Counters())
    # A pass over two targets is the smallest the process executor fans out.
    firsts = [ctx.engine.handle_of(v) for v, _ in zip(graph.vertices(), range(2))]
    ctx.bulk_h_degrees(H, targets=firsts)
    timings.setdefault("context", []).append(time.perf_counter() - started)
    return graph, ctx, csr


def child_main(argv) -> int:
    workload, seed, seconds, trace, size, workdir = (
        argv[0], int(argv[1]), float(argv[2]), argv[3] == "1", argv[4], argv[5])
    common.import_library()
    from repro import core_decomposition

    timings: dict = {}
    setup_times = []
    while True:
        started = time.perf_counter()
        graph, ctx, csr = _setup(seed, size, workdir, timings)
        setup_times.append(time.perf_counter() - started)
        if not common.more_setups(setup_times):
            break
        ctx.close()
        csr.close()

    tracer = common.Tracer()
    if trace:
        _install_spans(tracer)
    times = {"untraced": [], "traced": []}
    counts = []
    first_map = None
    drifted = 0
    deadline = time.perf_counter() + seconds
    index = 0
    try:
        while index < MIN_DECOMPOSITIONS or time.perf_counter() < deadline:
            # The traced run alternates: odd decompositions are traced, so
            # the overhead is measured against untraced ones on the same
            # warm context.
            tracer.enabled = trace and index % 2 == 1
            ctx.counters.reset()
            started = time.perf_counter()
            if tracer.enabled:
                with tracer.span("decomposition"):
                    result = core_decomposition(graph, H, algorithm="h-LB+UB",
                                                context=ctx)
            else:
                result = core_decomposition(graph, H, algorithm="h-LB+UB",
                                            context=ctx)
            elapsed = time.perf_counter() - started
            times["traced" if tracer.enabled else "untraced"].append(elapsed)
            counts.append(ctx.counters.as_dict())
            cores = sorted((int(v), int(c)) for v, c in
                           result.core_index.items())
            if first_map is None:
                first_map = cores
            elif cores != first_map:
                drifted += 1
            index += 1
        tracer.enabled = False
        report = ctx.resilience
        resilience = {
            "retries": report.retries, "pool_rebuilds": report.pool_rebuilds,
            "wasted_chunks": report.wasted_chunks,
            "downgrades": len(report.downgrades),
        } if report is not None else None
        engine = ctx.backend_name
    finally:
        tracer.restore()
        ctx.close()
        csr.close()

    per_trace: dict = {}
    if trace:
        roots = {span[1] for span in tracer.spans if span[3] == "decomposition"}
        for name in ("core.bounds.lb", "core.bounds.ub", "core.bounds.improve_lb",
                     "core.peeling", "runtime.bulk_h_degrees"):
            totals = {root: [0.0, 0] for root in roots}
            for span in tracer.spans:
                if span[3] == name:
                    totals[span[0]][0] += span[5] - span[4]
                    totals[span[0]][1] += 1
            per_trace[name] = list(totals.values())
        self_totals = {root: 0.0 for root in roots}
        peel_ids = [span for span in tracer.spans if span[3] == "core.peeling"]
        for span, own in zip(peel_ids, tracer.self_times("core.peeling")):
            self_totals[span[0]] += own
        per_trace["core.peeling.self"] = [[t, 0] for t in self_totals.values()]
        tracer.dump(os.path.join(common.OUT_DIR,
                                 f"spans-{workload}-seed{seed}.json"))
    print(json.dumps({
        "engine": engine, "setup_s": setup_times, "timings": timings,
        "times": times, "counts": counts, "first_map": first_map, "drifted": drifted,
        "resilience": resilience, "per_trace": per_trace,
        "spans": len(tracer.spans),
    }))
    return 0


def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        workdir: str) -> dict:
    """Run the child, sample its memory, and check its answers."""
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), workload, str(seed),
         str(seconds), "1" if trace else "0", size, workdir],
        stdout=subprocess.PIPE, cwd=common.REPO_ROOT)
    rss = common.PeakRSS(child.pid).start()
    try:
        out, _ = child.communicate(timeout=seconds + 150)
    finally:
        peak_mb = rss.stop()
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {child.returncode}")
    result = json.loads(out.decode().strip().splitlines()[-1])
    result["peak_rss_mb"] = peak_mb

    # Reference, outside every timed region: h-LB on the dict engine over
    # the same generated graph, cached by the graph's bytes.
    graph = inputs.social_graph(seed, size)
    key = f"cores-h{H}-{common.digest(inputs.edge_bytes(graph))}"
    reference = common.cached_reference(
        key, lambda: sorted(inputs.reference_cores(graph, H).items()))
    checked = len(result["times"]["untraced"]) + len(result["times"]["traced"])
    result["wrong"] = count_wrong(result.pop("first_map"), result["drifted"],
                                  checked, reference)
    result["checked"] = checked
    return result


def count_wrong(first_map, drifted: int, checked: int, reference) -> int:
    """Wrong decompositions among ``checked``.

    The child compared every decomposition with its first one and counted
    the ones that differ (``drifted``); a first map that differs from the
    reference makes every decomposition that matched it wrong instead.
    """
    if first_map != [list(pair) for pair in reference]:
        return checked - drifted
    return drifted


if __name__ == "__main__":
    raise SystemExit(child_main(sys.argv[1:]))
