"""Importable benchmark helpers.

Lives in its own module (rather than ``conftest.py``) so benchmark files can
``from bench_utils import run_once`` without relying on the ambiguous
``conftest`` module name, which collides with ``tests/conftest.py`` in a
whole-repo pytest run.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from typing import Dict, Optional

from repro.instrumentation import NULL_COUNTERS
from repro.runtime import DictPeelState


def force_dict_peel(monkeypatch) -> None:
    """Peel through the dict layout on every engine, CSR included.

    The engine picks the peel-state layout (flat arrays on CSR); layout
    benchmarks measure the dict twin by swapping the factories the
    execution context and the upper bound call.
    """
    from repro.core import bounds
    from repro.runtime import context

    def dict_state(engine, counters=NULL_COUNTERS):
        return DictPeelState(counters)

    monkeypatch.setattr(context, "make_peel_state", dict_state)
    monkeypatch.setattr(bounds, "make_peel_state", dict_state)
    monkeypatch.setattr(context, "make_core_map", lambda engine: {})


def run_once(benchmark, function, *args, **kwargs):
    """Run an expensive experiment driver exactly once under the benchmark."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


#: Environment variable overriding where :func:`write_bench_json` puts its
#: artifact.  A pytest session under ``benchmarks/`` sets it to a temp dir
#: when it is unset (see ``conftest.py``); CI points it at the directory its
#: upload step reads.
BENCH_JSON_DIR_ENV_VAR = "KH_CORE_BENCH_JSON_DIR"


def write_bench_json(filename: str, payload: Dict[str, object],
                     directory: Optional[str] = None) -> str:
    """Write a machine-readable benchmark artifact; returns its path.

    ``payload`` is augmented with a reproducibility header (timestamp,
    interpreter, platform, CPU count, quick-mode flag) so a perf trajectory
    assembled from successive artifacts can normalize across environments.
    The directory defaults to the current working directory, overridable via
    :data:`BENCH_JSON_DIR_ENV_VAR` (which the benchmark suite's
    ``conftest.py`` always sets).

    Repeated calls for the same file *merge* top-level keys instead of
    overwriting, so several benchmark tests can contribute sections to one
    artifact regardless of execution order.
    """
    directory = (directory
                 or os.environ.get(BENCH_JSON_DIR_ENV_VAR)
                 or os.getcwd())
    path = os.path.join(directory, filename)
    record: Dict[str, object] = {}
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (OSError, ValueError):
            record = {}
    record.update(payload)
    record["meta"] = {
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick_mode": os.environ.get("KH_CORE_BENCH_QUICK", "")
        not in ("", "0"),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
