"""Shared fixtures for the benchmark suite.

Every benchmark regenerates (a tiny-scale version of) one of the paper's
tables or figures.  The heavy experiment drivers are run once per benchmark
(``rounds=1``) — the interesting output is the table itself, recorded in
EXPERIMENTS.md by the standalone runner — while the per-algorithm kernels use
pytest-benchmark's normal calibration so their relative cost (h-BZ vs h-LB vs
h-LB+UB) is measured meaningfully.
"""

from __future__ import annotations

import os

import pytest

from bench_utils import BENCH_JSON_DIR_ENV_VAR
from repro.datasets import load_dataset
from repro.experiments.common import ExperimentConfig


@pytest.fixture(scope="session", autouse=True)
def bench_json_dir(tmp_path_factory):
    """Write ``BENCH_*.json`` artifacts to a session temp dir unless told.

    Without this every test run would rewrite the tracked artifacts in the
    working directory.  An explicit ``KH_CORE_BENCH_JSON_DIR`` wins.
    """
    if os.environ.get(BENCH_JSON_DIR_ENV_VAR):
        yield os.environ[BENCH_JSON_DIR_ENV_VAR]
        return
    patch = pytest.MonkeyPatch()
    directory = str(tmp_path_factory.mktemp("bench-json"))
    patch.setenv(BENCH_JSON_DIR_ENV_VAR, directory)
    yield directory
    patch.undo()


@pytest.fixture(scope="session")
def tiny_config() -> ExperimentConfig:
    """Configuration used by the table/figure regeneration benchmarks."""
    return ExperimentConfig(scale="tiny", seed=0, h_values=(2, 3),
                            num_landmarks=5, num_query_pairs=25,
                            hclub_time_budget_seconds=10.0)


@pytest.fixture(scope="session")
def collaboration_graph():
    """caHe stand-in at tiny scale (dense-ish collaboration network)."""
    return load_dataset("caHe", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def social_graph():
    """FBco stand-in at tiny scale (social network)."""
    return load_dataset("FBco", scale="tiny", seed=0)


@pytest.fixture(scope="session")
def road_graph():
    """rnPA stand-in at tiny scale (road network)."""
    return load_dataset("rnPA", scale="tiny", seed=0)
