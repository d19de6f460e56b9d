"""Benchmark: vectorized NumPy engine vs the serial CSR engine (bulk pass).

The numpy engine replaces the interpreted per-source h-BFS of the bulk
h-degree pass with two vectorized kernels — a stamped level-synchronous
frontier kernel and a bit-parallel dense sweep, auto-selected per call from
a sampled candidate-volume probe (:mod:`repro.traversal.numpy_bfs`).  Both
kernels produce exactly the h-degrees of the interpreted engines (asserted
here per workload, exhaustively in ``tests/test_numpy_engine.py``), so the
ratios below are pure kernel effects.

Two claims are asserted, not assumed:

1. **>= 3x on the bulk h-degree pass for two workloads** where the h-balls
   are dense enough for the bit-parallel sweep: the hub-dominated star
   (every leaf's h-ball is the whole graph; measured ~20-30x) and the
   power-law-cluster family at h=3 (hub-coupled balls; measured ~10-25x).
2. **Never meaningfully slower**: on frontier-kernel workloads (sparse
   meshes, small-world graphs at h=2) the numpy engine must stay ahead of
   the CSR engine, not just on the dense-sweep showcases.

Every row also lands in the machine-readable ``BENCH_PR5.json`` artifact
(:func:`bench_utils.write_bench_json`) together with an engine × executor
matrix, seeding the perf trajectory for later PRs.

Set ``KH_CORE_BENCH_QUICK=1`` (the CI smoke mode) to shrink the graphs.
"""

from __future__ import annotations

import os
import time

import pytest

np = pytest.importorskip("numpy")

from bench_utils import write_bench_json  # noqa: E402

from repro.core.backends import (  # noqa: E402
    CSREngine,
    numpy_available,
    resolve_engine,
)

if not numpy_available():
    # Importable but disabled (KH_CORE_DISABLE_NUMPY): nothing to measure.
    pytest.skip("NumPy engine disabled", allow_module_level=True)
from repro.graph.generators import (  # noqa: E402
    barabasi_albert_graph,
    grid_graph,
    powerlaw_cluster_graph,
    star_graph,
    watts_strogatz_graph,
)

QUICK = os.environ.get("KH_CORE_BENCH_QUICK", "") not in ("", "0")

#: Required numpy-over-CSR speedup on the bulk pass (both modes: the
#: dense-sweep margin is an order of magnitude, so quick mode keeps the bar).
REQUIRED_SPEEDUP = 3.0

#: The two asserted workloads: (name, graph builder, h).
SPEEDUP_BATTERY = [
    ("star hub", lambda: star_graph(1200 if QUICK else 3500), 2),
    ("powerlaw-cluster h3",
     lambda: powerlaw_cluster_graph(2500 if QUICK else 8000, 5, 0.5, seed=0),
     3),
]

#: Frontier-kernel visibility rows: numpy must not regress below CSR.
SPARSE_BATTERY = [
    ("WS ring", lambda: watts_strogatz_graph(3000 if QUICK else 12000, 8,
                                             0.05, seed=0), 2),
    ("grid h3", lambda: grid_graph(*(2 * (40 if QUICK else 110,))), 3),
]

#: The benchmark artifact (uploaded by CI; see bench_utils for the dir).
ARTIFACT = "BENCH_PR5.json"


def _xdist_guard():
    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("wall-clock speedups are meaningless under xdist")


def _interleaved_bulk(engines, h, rounds=3):
    """Best-of-``rounds`` bulk-pass seconds per engine, rounds interleaved.

    Interleaving means slow drift on a shared runner hits every engine
    alike instead of biasing whichever ran last.
    """
    best = [float("inf")] * len(engines)
    for _ in range(rounds):
        for i, engine in enumerate(engines):
            start = time.perf_counter()
            engine.bulk_h_degrees(h, executor="serial")
            best[i] = min(best[i], time.perf_counter() - start)
    return best


@pytest.mark.parametrize("name,builder,h", SPEEDUP_BATTERY,
                         ids=[name for name, _, _ in SPEEDUP_BATTERY])
def test_numpy_speedup_on_bulk_pass(name, builder, h):
    """Bulk h-degree pass: numpy engine >= 3x over the serial CSR engine."""
    _xdist_guard()
    graph = builder()
    csr = CSREngine(graph)
    vec = resolve_engine(graph, "numpy")
    expected = csr.bulk_h_degrees(h, executor="serial")
    got = vec.bulk_h_degrees(h, executor="serial")
    assert got == expected  # identical h-degrees, not just close
    csr_seconds, numpy_seconds = _interleaved_bulk([csr, vec], h)
    speedup = (csr_seconds / numpy_seconds if numpy_seconds
               else float("inf"))
    print(f"\n{name}: |V|={graph.num_vertices} |E|={graph.num_edges} h={h} "
          f"csr={csr_seconds:.3f}s numpy={numpy_seconds:.4f}s "
          f"speedup={speedup:.2f}x (required: {REQUIRED_SPEEDUP}x)")
    write_bench_json(ARTIFACT, {f"bulk_pass/{name}": {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "h": h,
        "csr_seconds": round(csr_seconds, 5),
        "numpy_seconds": round(numpy_seconds, 5),
        "speedup": round(speedup, 2),
        "required": REQUIRED_SPEEDUP,
    }})
    assert speedup >= REQUIRED_SPEEDUP, (
        f"numpy bulk-pass speedup degraded to {speedup:.2f}x on {name} "
        f"(required >= {REQUIRED_SPEEDUP}x)"
    )


@pytest.mark.parametrize("name,builder,h", SPARSE_BATTERY,
                         ids=[name for name, _, _ in SPARSE_BATTERY])
def test_numpy_not_slower_on_frontier_workloads(name, builder, h):
    """Frontier-kernel territory: identical degrees, numpy at least on par."""
    _xdist_guard()
    graph = builder()
    csr = CSREngine(graph)
    vec = resolve_engine(graph, "numpy")
    assert (vec.bulk_h_degrees(h, executor="serial")
            == csr.bulk_h_degrees(h, executor="serial"))
    csr_seconds, numpy_seconds = _interleaved_bulk([csr, vec], h)
    ratio = csr_seconds / numpy_seconds if numpy_seconds else float("inf")
    print(f"\n{name}: |V|={graph.num_vertices} h={h} csr={csr_seconds:.3f}s "
          f"numpy={numpy_seconds:.4f}s speedup={ratio:.2f}x "
          f"(visibility row)")
    write_bench_json(ARTIFACT, {f"frontier/{name}": {
        "vertices": graph.num_vertices,
        "h": h,
        "csr_seconds": round(csr_seconds, 5),
        "numpy_seconds": round(numpy_seconds, 5),
        "speedup": round(ratio, 2),
    }})
    # Guard against regressing below the interpreted loop, not timer noise.
    assert numpy_seconds < csr_seconds * 1.25, (
        f"numpy engine regressed below the CSR engine on {name}: "
        f"numpy={numpy_seconds:.3f}s csr={csr_seconds:.3f}s"
    )


def test_engine_executor_matrix_artifact():
    """Record the engine × executor grid (identical results, timed rows)."""
    graph = barabasi_albert_graph(1500 if QUICK else 4000, 3, seed=0)
    h = 2
    reference = None
    matrix = {}
    for backend in ("dict", "csr", "numpy"):
        engine = resolve_engine(graph, backend)
        try:
            for executor in ("serial", "thread"):
                start = time.perf_counter()
                degrees = engine.bulk_h_degrees(h, executor=executor,
                                                num_workers=2)
                seconds = time.perf_counter() - start
                labeled = engine.to_labels(degrees)
                if reference is None:
                    reference = labeled
                assert labeled == reference, (backend, executor)
                matrix[f"{backend}/{executor}"] = round(seconds, 5)
        finally:
            close = getattr(engine, "close", None)
            if close is not None:
                close()
    path = write_bench_json(ARTIFACT, {"matrix": {
        "vertices": graph.num_vertices,
        "h": h,
        "seconds": matrix,
    }})
    assert os.path.exists(path)
