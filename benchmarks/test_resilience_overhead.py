"""Benchmark: the cost of recovery from a killed pool worker.

The supervised process pool promises bounded recovery, recorded in
``BENCH_PR10.json`` (via :func:`bench_utils.write_bench_json`, so CI
uploads the artifact): a worker SIGKILLed mid-decomposition
(``worker.kill=1``: exactly one kill, first dispatch) must finish with a
bit-identical result in at most ``MAX_KILL_SLOWDOWN``× the fault-free wall
time.  The slowdown budget covers one pool rebuild, the retry backoff, and
the re-dispatch of the chunks the dead worker took with it.

Set ``KH_CORE_BENCH_QUICK=1`` (the CI smoke mode) to shrink the graph and
relax the bar: at small n the fixed pool-rebuild cost dominates the work
being recovered, and shared CI runners add wall-clock noise.  The strict
ratio is enforced in the full-size run.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import core_decomposition
from repro.graph import generators as gen
from repro.resilience import armed
from repro.runtime import ExecutionContext

from bench_utils import write_bench_json  # noqa: E402

ARTIFACT = "BENCH_PR10.json"
H = 2

QUICK = os.environ.get("KH_CORE_BENCH_QUICK", "") not in ("", "0")

#: Clique size of the relaxed-caveman benchmark graph (cliques × size).
NUM_CLIQUES = 12 if QUICK else 30
CLIQUE_SIZE = 14 if QUICK else 22

#: One kill must not double the fault-free wall time at full size.
MAX_KILL_SLOWDOWN = 2.0
#: Quick-mode bar: the (fixed-cost) pool rebuild is large relative to a
#: short fault-free run.
MAX_KILL_SLOWDOWN_QUICK = 3.5


def _xdist_guard():
    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("wall-clock ratios are meaningless under xdist")


def _bench_graph():
    graph = gen.relaxed_caveman_graph(NUM_CLIQUES, CLIQUE_SIZE, 0.15, seed=7)
    # Uneven degrees so the LPT chunk plan produces genuinely distinct
    # chunks (same topology family as the chaos battery, scaled up).
    for i in range(0, graph.num_vertices, 5):
        graph.add_edge(i, (i * 13 + 17) % graph.num_vertices)
    return graph


def test_one_kill_completes_within_budget():
    """SIGKILL one worker mid-run: bounded recovery, identical output."""
    _xdist_guard()
    graph = _bench_graph()
    max_slowdown = MAX_KILL_SLOWDOWN_QUICK if QUICK else MAX_KILL_SLOWDOWN

    def run():
        with ExecutionContext(graph, backend="csr", executor="process",
                              num_workers=2) as context:
            started = time.perf_counter()
            result = core_decomposition(graph, H, algorithm="h-BZ",
                                        context=context)
            seconds = time.perf_counter() - started
            report = context.resilience
        return seconds, result, report

    # Warm OS caches / import costs with a throwaway run, then measure.
    run()
    fault_free_seconds, expected, _ = run()
    with armed("worker.kill=1;seed=1"):
        killed_seconds, got, report = run()

    assert got.core_index == expected.core_index
    assert got.removal_order == expected.removal_order
    assert report is not None and report.pool_rebuilds >= 1
    slowdown = killed_seconds / fault_free_seconds
    write_bench_json(ARTIFACT, {"one_kill_completion": {
        "graph": f"relaxed_caveman({NUM_CLIQUES}, {CLIQUE_SIZE})",
        "num_vertices": graph.num_vertices,
        "h": H,
        "fault_free_seconds": fault_free_seconds,
        "one_kill_seconds": killed_seconds,
        "slowdown_ratio": slowdown,
        "max_ratio": max_slowdown,
        "pool_rebuilds": report.pool_rebuilds,
        "wasted_chunks": report.wasted_chunks,
    }})
    assert slowdown <= max_slowdown, (
        f"one-kill run took {slowdown:.2f}x fault-free "
        f"(bar {max_slowdown}x)")
