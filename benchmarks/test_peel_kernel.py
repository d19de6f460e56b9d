"""Benchmark: array-native peel kernel vs dict peel state (CSR backend).

The engine selects the peel-state layout (:mod:`repro.runtime.peel`): flat
``array('q')`` / intrusive-linked-list buckets on CSR, hash-based dicts
otherwise.  The dict runs here swap the state factories the execution
context and the upper bound call (:func:`bench_utils.force_dict_peel`), so
both layouts peel the same CSR engine.  They execute the *same* operation
sequence — identical traversals, removal orders and counter totals
(asserted in ``tests/test_peel_state.py``) — so the ratio measured here is a
pure data-structure effect.

Two claims are asserted, not assumed:

1. **h-LB+UB end to end is >= 1.5x faster with the array peel state than
   with the dict peel state on the CSR backend** for the hub-dominated
   workload (the star family).  Hub peeling is where the peel state
   *dominates* runtime: removing any vertex touches the hub's whole
   h-ball, so per removal the algorithm performs Θ(|ball|) O(1) decrement
   + bucket-move updates against a BFS that scans only Θ(|ball|) adjacency
   entries — bookkeeping and traversal are the same order, and the dict
   path additionally materializes a ``(vertex, distance)`` tuple per
   neighbor.  Flat-array state turns every one of those updates into a
   handful of integer stores.
2. **The array peel state is never meaningfully slower** on
   locally-sparse topologies (ring lattice, preferential-attachment
   tree), where h-bounded BFS — identical in both configurations since
   the backend PR moved it to flat arrays — dominates and the peel state
   is a second-order cost.  These rows are reported for visibility; the
   guard only catches the array path regressing *below* the dict twin.

Both claims time the two layouts in interleaved rounds (best of five), so
drifting load on a shared machine hits both alike.

Set ``KH_CORE_BENCH_QUICK=1`` (the CI smoke mode) to shrink the graphs.
The quick-mode bar for claim 1 is relaxed (see ``REQUIRED_SPEEDUP_QUICK``):
at small n the fixed costs shared by both layouts (bulk pass, LB2,
snapshotting) dilute the peel phase, and shared CI runners add wall-clock
noise; locally the quick configuration still measures ~1.5x.
"""

from __future__ import annotations

import os
import time

import pytest

from bench_utils import force_dict_peel
from repro.core import h_lb_ub
from repro.graph.generators import (
    barabasi_albert_graph,
    star_graph,
    watts_strogatz_graph,
)
from repro.runtime import ExecutionContext

H = 2

QUICK = os.environ.get("KH_CORE_BENCH_QUICK", "") not in ("", "0")

#: Leaves of the hub-dominated benchmark star.
STAR_SIZE = 700 if QUICK else 1500

#: Required array-over-dict speedup for h-LB+UB on the star workload.
REQUIRED_SPEEDUP = 1.5
#: Quick-mode bar: small-n fixed overheads dilute the peel phase and CI
#: runners are noisy; the full-size bar is enforced in the non-quick run.
REQUIRED_SPEEDUP_QUICK = 1.2

#: Locally-sparse visibility battery: BFS-bound, peel state second-order.
SPARSE_BATTERY = [
    ("WS ring(800, k=4)",
     lambda: watts_strogatz_graph(800, 4, 0.02, seed=0), 2),
    ("BA tree(1200, m=1)",
     lambda: barabasi_albert_graph(1200, 1, seed=0), 2),
]

#: The sparse battery guard: array must not regress below the dict twin
#: by more than timer noise.
MAX_SPARSE_SLOWDOWN = 1.25


def _run_once(graph, h, peel: str):
    """One timed h-LB+UB run under ``peel``; returns (seconds, result)."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        if peel == "dict":
            force_dict_peel(monkeypatch)
        with ExecutionContext(graph, backend="csr") as context:
            start = time.perf_counter()
            result = h_lb_ub(graph, h, context=context)
            return time.perf_counter() - start, result


def _timed_interleaved(graph, h, repeats: int = 5):
    """Best-of-``repeats`` for both layouts, rounds interleaved.

    Alternating array/dict within each round means slow drifting load on a
    shared runner (the usual CI noise) hits both layouts alike instead of
    biasing whichever happened to run second; five rounds give each layout
    enough samples that one contended round cannot set its best time.
    """
    best = {"array": float("inf"), "dict": float("inf")}
    results = {}
    for _ in range(repeats):
        for peel in ("array", "dict"):
            seconds, results[peel] = _run_once(graph, h, peel)
            best[peel] = min(best[peel], seconds)
    return best, results


def test_array_peel_speedup_on_hub_workload():
    """h-LB+UB on the star: array peel state must be >= 1.5x the dict state."""
    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("wall-clock speedups are meaningless under xdist")
    graph = star_graph(STAR_SIZE)
    # Warm both paths once (allocation, branch caches) before timing.
    _run_once(graph, H, "array")
    _run_once(graph, H, "dict")
    best, results = _timed_interleaved(graph, H)
    array_seconds, array_result = best["array"], results["array"]
    dict_seconds, dict_result = best["dict"], results["dict"]
    assert array_result.core_index == dict_result.core_index
    speedup = dict_seconds / array_seconds if array_seconds else float("inf")
    required = REQUIRED_SPEEDUP_QUICK if QUICK else REQUIRED_SPEEDUP
    print(f"\nstar({STAR_SIZE}) h={H}: dict={dict_seconds:.3f}s "
          f"array={array_seconds:.3f}s speedup={speedup:.2f}x "
          f"(required: {required}x{' quick' if QUICK else ''})")
    assert speedup >= required, (
        f"array peel kernel speedup degraded to {speedup:.2f}x on "
        f"star({STAR_SIZE}) (required >= {required}x)"
    )


@pytest.mark.parametrize("name,builder,h", SPARSE_BATTERY,
                         ids=[name for name, _, _ in SPARSE_BATTERY])
def test_array_peel_not_slower_on_sparse_workloads(name, builder, h):
    """BFS-bound graphs: identical cores, array at worst on par with dict."""
    if os.environ.get("PYTEST_XDIST_WORKER"):
        pytest.skip("wall-clock ratios are meaningless under xdist")
    graph = builder()
    _run_once(graph, h, "array")
    _run_once(graph, h, "dict")
    best, results = _timed_interleaved(graph, h)
    array_seconds, array_result = best["array"], results["array"]
    dict_seconds, dict_result = best["dict"], results["dict"]
    assert array_result.core_index == dict_result.core_index
    ratio = dict_seconds / array_seconds if array_seconds else float("inf")
    print(f"\n{name} h={h}: |V|={graph.num_vertices} "
          f"dict={dict_seconds:.3f}s array={array_seconds:.3f}s "
          f"speedup={ratio:.2f}x (visibility row)")
    assert array_seconds < dict_seconds * MAX_SPARSE_SLOWDOWN, (
        f"array peel state regressed below the dict twin on {name}: "
        f"array={array_seconds:.3f}s dict={dict_seconds:.3f}s"
    )
