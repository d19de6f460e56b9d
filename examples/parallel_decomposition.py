"""Parallel decomposition: serial vs process-pool wall time (§4.6).

Builds a Barabási–Albert graph (a power-law stand-in with the degree skew
the chunk planner exists for), then times the bulk h-degree pass — the
workload the paper parallelizes — under the serial, thread and process
executors, and finally runs a full (k,h)-core decomposition through the
process engine to show the end-to-end API.

Run with::

    python examples/parallel_decomposition.py

Expected output (a few seconds): the graph summary; one timing line per
executor for the bulk deg^h pass, each ending in "identical: True"
(parallelization never changes a single h-degree); and a full h-LB+UB
decomposition via ``executor="process"`` whose core numbers match the
serial run.  The speedup column depends on your machine: with one core, or
under the *thread* executor on any CPython build (the GIL serializes the
workers), expect ~1x or below; the *process* executor approaches the core
count once the graph is large enough to amortize dispatch — on a 4-core
box the final pass typically lands between 2x and 3.5x.
"""

import os
import time

from repro.core import core_decomposition
from repro.core.backends import CSREngine
from repro.graph.generators import barabasi_albert_graph

H = 3
WORKERS = min(4, os.cpu_count() or 1)


def timed_bulk_pass(engine, executor, workers):
    """One full bulk deg^h pass; returns (seconds, result)."""
    start = time.perf_counter()
    result = engine.bulk_h_degrees(H, num_workers=workers, executor=executor)
    return time.perf_counter() - start, result


def main() -> None:
    graph = barabasi_albert_graph(2500, 3, seed=0)
    print(f"graph: {graph.num_vertices} vertices, {graph.num_edges} edges, "
          f"h={H}, cores available: {os.cpu_count()}")

    engine = CSREngine(graph)
    try:
        serial_seconds, serial_result = timed_bulk_pass(engine, "serial", 1)
        print(f"\nbulk deg^{H} pass over all {graph.num_vertices} vertices:")
        print(f"  serial           : {serial_seconds * 1000:7.1f} ms")

        for executor in ("thread", "process"):
            # Warm-up dispatch: pool spin-up and the shared-memory export
            # should not be billed to the steady-state timing.
            engine.bulk_h_degrees(H, targets=range(16),
                                  num_workers=WORKERS, executor=executor)
            seconds, result = timed_bulk_pass(engine, executor, WORKERS)
            print(f"  {executor:<7} x{WORKERS} work.: {seconds * 1000:7.1f} ms "
                  f"(speedup {serial_seconds / seconds:4.2f}x, "
                  f"identical: {result == serial_result})")
    finally:
        engine.close()

    print("\nfull decomposition through the process engine (h-LB+UB, h=2):")
    start = time.perf_counter()
    parallel = core_decomposition(graph, 2, algorithm="h-LB+UB",
                                  backend="csr", num_workers=WORKERS,
                                  executor="process")
    parallel_seconds = time.perf_counter() - start
    serial = core_decomposition(graph, 2, algorithm="h-LB+UB", backend="csr")
    print(f"  executor=process: {parallel_seconds:5.2f}s, "
          f"degeneracy={parallel.degeneracy}, "
          f"identical to serial: "
          f"{parallel.core_index == serial.core_index}")


if __name__ == "__main__":
    main()
