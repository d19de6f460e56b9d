"""Exception hierarchy for the :mod:`repro` library.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch a single base class.  More specific subclasses signal problems with
graph construction, algorithm parameters, or experiment configuration.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the :mod:`repro` library."""


class GraphError(ReproError):
    """Problem with a graph's structure or with an operation on it."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex identifier was not present in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge was not present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.edge = (u, v)


class ParameterError(ReproError, ValueError):
    """An algorithm received an invalid parameter value."""


class InvalidDistanceThresholdError(ParameterError):
    """The distance threshold ``h`` must be a positive integer."""

    def __init__(self, h: object) -> None:
        super().__init__(f"distance threshold h must be a positive integer, got {h!r}")
        self.h = h


class GraphFormatError(GraphError):
    """A graph file could not be parsed."""


class DatasetNotFoundError(ReproError, KeyError):
    """A named dataset is not present in the dataset registry."""

    def __init__(self, name: str, available: tuple) -> None:
        super().__init__(
            f"unknown dataset {name!r}; available datasets: {', '.join(available)}"
        )
        self.name = name
        self.available = available


class DatasetChecksumError(ReproError):
    """A downloaded dataset's bytes do not match the recorded checksum.

    Raised by :func:`repro.datasets.fetch.fetch_dataset` both for a
    mismatch against a pinned checksum in the spec and against the
    trust-on-first-use sidecar recorded by an earlier fetch.
    """

    def __init__(self, name: str, expected: str, actual: str) -> None:
        super().__init__(
            f"dataset {name!r}: checksum mismatch (expected {expected}, "
            f"got {actual}); delete the cached file to re-download"
        )
        self.name = name
        self.expected = expected
        self.actual = actual


class CoreIndexError(ReproError):
    """Problem with a persistent core-index store (see :mod:`repro.index`)."""


class IndexCorruptionError(CoreIndexError):
    """A core-index database is unreadable, incomplete or fails checksums.

    Raised instead of ever returning answers from a store that cannot be
    proven to describe a consistent epoch (truncated file, interrupted
    build, checksum mismatch, schema from a different library version).
    """


class IndexMismatchError(CoreIndexError):
    """A core index describes a different graph than the one supplied."""


class StaleIndexError(CoreIndexError):
    """The requested index artifact is stale at the current epoch.

    Incremental refreshes keep the core tables exact but invalidate the
    persisted removal orders (a re-peel of a dirty region does not produce
    a global peeling order); asking for an order afterwards raises this
    instead of returning an order from an older epoch.
    """


class ResilienceError(ReproError):
    """Problem inside the fault-tolerant execution layer (:mod:`repro.resilience`)."""


class WorkerPoolError(ResilienceError):
    """The supervised worker pool exhausted its retry / rebuild budget.

    Raised by :class:`~repro.parallel.pool.SharedMemoryExecutor` when a
    dispatch cannot be completed within the configured
    :class:`~repro.resilience.policies.RetryPolicy` — the signal for the
    engine's degradation ladder to fall back to the thread (then serial)
    executor instead of failing the decomposition.
    """


class DeadlineExceededError(ResilienceError):
    """A supervised operation ran past its configured deadline budget."""

    def __init__(self, message: str, budget_seconds: float) -> None:
        super().__init__(message)
        self.budget_seconds = budget_seconds


class ServiceOverloadedError(ResilienceError):
    """The query service shed a request under overload (HTTP 503).

    Raised before any engine work happens, so a shed request has no side
    effects; the HTTP layer maps it to ``503`` with a ``Retry-After`` header.
    """


class FaultInjectedError(ResilienceError):
    """A deterministic fault-injection point fired (chaos testing only).

    Never raised unless a :class:`~repro.resilience.faults.FaultPlan` is
    armed (programmatically or via ``KH_CORE_FAULTS``); production runs with
    no plan armed can never see this error.
    """

    def __init__(self, site: str, detail: str = "") -> None:
        message = f"injected fault at {site!r}"
        if detail:
            message = f"{message}: {detail}"
        super().__init__(message)
        self.site = site


class SolverTimeoutError(ReproError):
    """An exact solver exceeded its configured time budget."""

    def __init__(self, budget_seconds: float) -> None:
        super().__init__(f"solver exceeded its time budget of {budget_seconds:.1f}s")
        self.budget_seconds = budget_seconds


class ExperimentError(ReproError):
    """An experiment configuration is inconsistent or cannot be run."""
