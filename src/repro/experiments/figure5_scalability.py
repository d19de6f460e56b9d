"""Figure 5 — Scalability of h-LB+UB on snowball samples.

The paper samples subgraphs of 100 / 1k / 10k / 100k vertices from the lj
network by snowball sampling (10 samples per size) and plots the average
runtime of h-LB+UB for h = 2 and h = 3 — near-linear growth for h = 2, and a
steeper rise for h = 3 on the larger samples.

The stand-in uses the lj-like Barabási–Albert graph from the registry and a
geometric ladder of sample sizes scaled to this environment.

A second series (:func:`run_executor_scaling`) reports §4.6 parallel
scalability: the wall time of the bulk h-degree pass under every engine ×
executor × worker-count combination (the vectorized NumPy engine joins the
grid when the optional dependency is importable), with the speedup over the
CSR serial pass.  Earlier
revisions ran this series on a thread pool, where the GIL capped every
configuration at ~1x — the reported "scaling" was pure overhead.  The
``process`` executor (shared-memory CSR arrays, persistent worker pool — see
:mod:`repro.parallel`) is the configuration that reports real multi-core
speedups; the thread rows are kept as the GIL baseline the paper's
reproduction has to live with on CPython.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Dict, List, Optional, Sequence

from repro.core import h_lb_ub
from repro.core.backends import CSREngine, numpy_available, resolve_engine
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentConfig, format_table
from repro.graph.sampling import snowball_sample

DEFAULT_SIZES: Sequence[int] = (50, 100, 200, 400)
DEFAULT_SAMPLES_PER_SIZE = 3
DEFAULT_H_VALUES: Sequence[int] = (2, 3)

#: Executor x worker-count grid of the parallel-scalability series.
DEFAULT_EXECUTORS: Sequence[str] = ("serial", "thread", "process")
DEFAULT_WORKER_COUNTS: Sequence[int] = (2, 4)
DEFAULT_SCALING_SAMPLE_SIZE = 600
DEFAULT_SCALING_REPEATS = 2


def run(config: Optional[ExperimentConfig] = None) -> List[Dict[str, object]]:
    """Time h-LB+UB on snowball samples of increasing size."""
    config = config or ExperimentConfig(h_values=DEFAULT_H_VALUES)
    sizes = config.extra.get("sample_sizes", DEFAULT_SIZES)
    samples_per_size = int(config.extra.get("samples_per_size", DEFAULT_SAMPLES_PER_SIZE))
    base_graph = load_dataset("lj", scale=config.scale, seed=config.seed)
    h_values = tuple(config.h_values) if config.h_values else DEFAULT_H_VALUES

    rows: List[Dict[str, object]] = []
    for size in sizes:
        for h in h_values:
            durations = []
            for sample_index in range(samples_per_size):
                sample = snowball_sample(base_graph, size,
                                         seed=config.seed + sample_index)
                start = time.perf_counter()
                h_lb_ub(sample, h)
                durations.append(time.perf_counter() - start)
            rows.append({
                "sample size": size,
                "h": h,
                "mean time (s)": round(statistics.mean(durations), 4),
                "std time (s)": round(statistics.pstdev(durations), 4),
                "samples": samples_per_size,
            })
    return rows


def _bulk_pass_seconds(engine: CSREngine, h: int, executor: str,
                       workers: int, repeats: int) -> float:
    """Best-of-``repeats`` wall time of one full bulk h-degree pass."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        engine.bulk_h_degrees(h, num_workers=workers, executor=executor)
        best = min(best, time.perf_counter() - start)
    return best


def run_executor_scaling(config: Optional[ExperimentConfig] = None
                         ) -> List[Dict[str, object]]:
    """Time the bulk h-degree pass per executor × worker count (§4.6).

    One CSR engine per executor keeps the process pool and the
    shared-memory export warm across worker counts and repeats, so the
    numbers measure the dispatch itself, not pool start-up.  A warm-up
    dispatch precedes the timed repeats for the same reason.
    """
    config = config or ExperimentConfig(h_values=(2,))
    executors = tuple(config.extra.get("executors", DEFAULT_EXECUTORS))
    worker_counts = tuple(config.extra.get("worker_counts",
                                           DEFAULT_WORKER_COUNTS))
    size = int(config.extra.get("scaling_sample_size",
                                DEFAULT_SCALING_SAMPLE_SIZE))
    repeats = int(config.extra.get("repeats", DEFAULT_SCALING_REPEATS))
    h = tuple(config.h_values)[0] if config.h_values else 2

    base_graph = load_dataset("lj", scale=config.scale, seed=config.seed)
    sample = snowball_sample(base_graph, min(size, base_graph.num_vertices),
                             seed=config.seed)

    # Engine dimension: the CSR engine always, the NumPy engine (its NumPy
    # bulk kernel) when NumPy is importable.  Every row's speedup is
    # relative to the *CSR serial* pass, so the engine gain and the
    # executor gain read off the same column.
    engines = ["csr"]
    if numpy_available():
        engines.append("numpy")

    serial_engine = CSREngine(sample)
    serial_seconds = _bulk_pass_seconds(serial_engine, h, "serial", 1,
                                        repeats)
    serial_engine.close()
    cores = os.cpu_count() or 1

    def row(backend: str, executor: str, workers: int,
            seconds: float) -> Dict[str, object]:
        return {
            "engine": backend,
            "executor": executor,
            "workers": workers,
            "h": h,
            "time (s)": round(seconds, 4),
            "speedup": round(serial_seconds / seconds, 2)
            if seconds else float("inf"),
            "cores": cores,
        }

    rows: List[Dict[str, object]] = []
    for backend in engines:
        for executor in executors:
            if backend == "csr" and executor == "serial":
                # Already measured as the baseline above — no second
                # engine build or warm-up for this cell.
                rows.append(row(backend, executor, 1, serial_seconds))
                continue
            engine = resolve_engine(sample, backend)
            try:
                for workers in worker_counts if executor != "serial" else (1,):
                    # Warm-up: spin the pool up / export before timing.
                    engine.bulk_h_degrees(h, targets=range(min(
                        8, sample.num_vertices)), num_workers=workers,
                        executor=executor)
                    rows.append(row(backend, executor, workers,
                                    _bulk_pass_seconds(engine, h, executor,
                                                       workers, repeats)))
            finally:
                engine.close()
    return rows


def main() -> None:
    """Print both Figure 5 series (sample-size growth, executor scaling)."""
    print(format_table(run(), title="Figure 5: h-LB+UB runtime vs snowball sample size"))
    print()
    print(format_table(
        run_executor_scaling(),
        title="Figure 5b: bulk h-degree pass — executor scaling (§4.6)"))


if __name__ == "__main__":
    main()
