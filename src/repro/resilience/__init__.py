"""Fault-tolerant execution layer: policies, janitors, chaos.

Three pieces, layered so a decomposition *always* completes and crashes
never leak artifacts:

* :mod:`repro.resilience.faults` — deterministic fault-injection harness
  (named sites, seeded schedules, armed via ``KH_CORE_FAULTS``);
* :mod:`repro.resilience.policies` — :class:`RetryPolicy` (bounded retries,
  exponential backoff + jitter) and :class:`ResilienceReport` (what
  recovery cost);
* :mod:`repro.resilience.janitor` — the ``kh-core doctor`` crash janitors.

The supervised dispatch loop that spends the retry budgets lives in the
process pool itself (:class:`repro.parallel.pool.SharedMemoryExecutor`).
``faults`` and ``policies`` are stdlib-light and import eagerly; the
janitor pulls in the parallel/storage/index stacks and loads lazily, so
production probes compiled into those stacks can import this package
without a cycle.
"""

from __future__ import annotations

from typing import Any

from repro.resilience.faults import FaultPlan, armed, should_fire
from repro.resilience.policies import ResilienceReport, RetryPolicy

__all__ = [
    "FaultPlan",
    "armed",
    "should_fire",
    "ResilienceReport",
    "RetryPolicy",
    "DoctorReport",
    "run_doctor",
]

_LAZY = {
    "DoctorReport": ("repro.resilience.janitor", "DoctorReport"),
    "run_doctor": ("repro.resilience.janitor", "run_doctor"),
}


def __getattr__(name: str) -> Any:
    """Lazily resolve the heavyweight exports (PEP 562)."""
    try:
        module_name, attribute = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
