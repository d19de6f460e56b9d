"""Incremental refresh of a persistent core index under edge updates.

:class:`IndexRefresher` keeps one :class:`~repro.dynamic.DynamicKHCore`
engine per persisted threshold warm over the stored graph and rides their
dirty-region output: after a batch, each engine's
``UpdateSummary.changed_vertices`` names exactly the rows whose core index
moved, and the refresher rewrites *only those rows* — plus the toggled
edges, new vertices, an appended delta-log entry per changed row, and the
incrementally-maintained XOR checksums — in one WAL transaction.

When a batch dirties more than ``staleness_ratio`` of all core rows the
incremental machinery stops paying: the refresher falls back to a full
rebuild (from-scratch spectrum, fresh removal orders, reset delta log),
the exact analogue of the dynamic engine's own full-recompute fallback one
layer down.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.dynamic.engine import DynamicKHCore
from repro.dynamic.stats import UpdateSummary
from repro.dynamic.stream import INSERT, EdgeUpdate, normalize_op
from repro.errors import IndexMismatchError, ParameterError
from repro.index.build import write_full_state
from repro.index.store import (
    KIND_REBUILD,
    KIND_REFRESH,
    CoreIndexStore,
    core_token,
    edge_token,
    encode_label,
    graph_checksum,
    token_crc,
    vertex_token,
)

Vertex = Hashable

#: Fraction of all core rows (|V| · |H|) one batch may dirty before the
#: refresher abandons row rewrites and rebuilds the whole index.
DEFAULT_STALENESS_RATIO = 0.5

#: ``RefreshSummary.mode`` values.
MODE_INCREMENTAL = "incremental"
MODE_REBUILD = "rebuild"
MODE_NOOP = "noop"


@dataclass
class RefreshSummary:
    """What one refreshed batch did to the store."""

    mode: str
    epoch: int
    applied: int = 0
    skipped: int = 0
    dirty_rows: int = 0
    total_rows: int = 0
    seconds: float = 0.0
    dirty_by_h: Dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "epoch": self.epoch,
            "applied": self.applied,
            "skipped": self.skipped,
            "dirty_rows": self.dirty_rows,
            "total_rows": self.total_rows,
            "seconds": self.seconds,
            "dirty_by_h": {str(h): n for h, n in sorted(self.dirty_by_h.items())},
        }


class IndexRefresher:
    """Writable session that keeps one index exact under edge updates.

    Parameters
    ----------
    path:
        An existing, complete index database.
    backend / fallback_ratio:
        Forwarded to every per-threshold :class:`DynamicKHCore` engine.
    staleness_ratio:
        See :data:`DEFAULT_STALENESS_RATIO`.

    The refresher validates at attach time that the stored structure
    checksum matches the graph it reconstructs — a store whose edges and
    checksum disagree raises before any update is accepted.
    """

    def __init__(
        self,
        path: str,
        backend: str = "auto",
        staleness_ratio: float = DEFAULT_STALENESS_RATIO,
        fallback_ratio: Optional[float] = None,
    ) -> None:
        if not 0.0 <= staleness_ratio <= 1.0:
            raise ValueError("staleness_ratio must be in [0, 1]")
        self.store = CoreIndexStore.open_rw(path)
        self.staleness_ratio = staleness_ratio
        self.graph = self.store.load_graph()
        if graph_checksum(self.graph) != self.store.stored_graph_checksum:
            self.store.close()
            raise IndexMismatchError(
                f"index {path!r}: stored structure does not match its own "
                "checksum; run verify/rebuild"
            )
        self._vids = self.store.load_vids()
        self._next_vid = self.store.max_vid() + 1
        engine_kwargs: Dict[str, Any] = {"backend": backend}
        if fallback_ratio is not None:
            engine_kwargs["fallback_ratio"] = fallback_ratio
        #: One maintenance engine per persisted threshold.  Each owns a
        #: private copy of the graph (a DynamicKHCore mutates its graph),
        #: and all copies see every batch, so they stay in lockstep.  The
        #: engines warm-start from the persisted layers — the store already
        #: holds the exact decomposition of the graph just validated above,
        #: so recomputing it at attach time would be pure waste.
        labels = {vid: label for label, vid in self._vids.items()}
        self.engines: Dict[int, DynamicKHCore] = {
            h: DynamicKHCore(
                self.graph.copy(),
                h=h,
                initial_cores={
                    labels[vid]: core for vid, core in self.store.load_layer(h)
                },
                **engine_kwargs,
            )
            for h in self.store.h_values
        }
        self.refreshes = 0
        self.rebuilds = 0

    # ------------------------------------------------------------------ #
    # the one entry point
    # ------------------------------------------------------------------ #
    def apply_batch(
        self, updates: Iterable[Tuple[str, Vertex, Vertex]]
    ) -> RefreshSummary:
        """Apply one update batch to every engine and the store.

        Validation mirrors :meth:`DynamicKHCore.apply_batch`: a bad update
        (deleting a missing edge, inserting a self-loop) aborts the whole
        batch before anything — engines or store — has changed.
        """
        started = time.perf_counter()
        normalized = [EdgeUpdate(normalize_op(op), u, v) for op, u, v in updates]
        toggled_edges, new_vertices, applied, skipped = self._net_effect(normalized)

        # Engines validate identical graphs against identical updates, so
        # either every apply_batch succeeds or the first raises before any
        # engine (all copies still identical) has been mutated.
        summaries = {
            h: engine.apply_batch(normalized) for h, engine in self.engines.items()
        }
        self._apply_to_mirror(toggled_edges, new_vertices)

        if not applied:
            return RefreshSummary(
                mode=MODE_NOOP,
                epoch=self.store.current_epoch,
                skipped=skipped,
                total_rows=self._total_rows(),
                seconds=time.perf_counter() - started,
            )

        dirty_by_h = {h: len(s.changed_vertices) for h, s in summaries.items()}
        dirty_rows = sum(dirty_by_h.values())
        total_rows = self._total_rows()
        if dirty_rows > self.staleness_ratio * total_rows:
            report = write_full_state(self.store, self.graph, KIND_REBUILD)
            # The rebuild reassigned every vid; refresh the local mapping.
            self._vids = self.store.load_vids()
            self._next_vid = self.store.max_vid() + 1
            self.rebuilds += 1
            return RefreshSummary(
                mode=MODE_REBUILD,
                epoch=report.epoch,
                applied=applied,
                skipped=skipped,
                dirty_rows=report.rows_written,
                total_rows=total_rows,
                seconds=time.perf_counter() - started,
                dirty_by_h=dirty_by_h,
            )

        epoch = self._write_incremental(
            summaries, toggled_edges, new_vertices, dirty_rows, started
        )
        self.refreshes += 1
        return RefreshSummary(
            mode=MODE_INCREMENTAL,
            epoch=epoch,
            applied=applied,
            skipped=skipped,
            dirty_rows=dirty_rows,
            total_rows=total_rows,
            seconds=time.perf_counter() - started,
            dirty_by_h=dirty_by_h,
        )

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _net_effect(
        self, updates: Sequence[EdgeUpdate]
    ) -> Tuple[List[Tuple[Vertex, Vertex, bool]], List[Vertex], int, int]:
        """Pre-compute the batch's net structural effect on the mirror.

        Returns ``(toggled_edges, new_vertices, applied, skipped)`` where
        ``toggled_edges`` holds ``(u, v, present_after)`` for every edge
        whose final presence differs from its initial one.  Computed before
        anything mutates, against the same state the engines validate.
        """
        graph = self.graph
        initial: Dict[frozenset, bool] = {}
        final: Dict[frozenset, bool] = {}
        endpoints: Dict[frozenset, Tuple[Vertex, Vertex]] = {}
        applied = 0
        skipped = 0
        for op, u, v in updates:
            key = frozenset((u, v))
            if key not in initial:
                initial[key] = graph.has_edge(u, v)
                final[key] = initial[key]
                endpoints[key] = (u, v)
            if op == INSERT:
                if final[key]:
                    skipped += 1
                    continue
                final[key] = True
            else:
                final[key] = False
            applied += 1
        toggled = [
            (*endpoints[key], final[key])
            for key in initial
            if initial[key] != final[key]
        ]
        seen_new: Dict[Vertex, None] = {}
        for op, u, v in updates:
            for w in (u, v):
                if w not in graph and w not in seen_new:
                    seen_new[w] = None
        return toggled, list(seen_new), applied, skipped

    def _apply_to_mirror(
        self,
        toggled: Sequence[Tuple[Vertex, Vertex, bool]],
        new_vertices: Sequence[Vertex],
    ) -> None:
        for w in new_vertices:
            self.graph.add_vertex(w)
        for u, v, present in toggled:
            if present:
                self.graph.add_edge(u, v)
            elif self.graph.has_edge(u, v):
                self.graph.remove_edge(u, v)

    def _total_rows(self) -> int:
        return self.graph.num_vertices * len(self.engines)

    def _write_incremental(
        self,
        summaries: Dict[int, UpdateSummary],
        toggled: Sequence[Tuple[Vertex, Vertex, bool]],
        new_vertices: Sequence[Vertex],
        dirty_rows: int,
        started: float,
    ) -> int:
        """Rewrite exactly the dirty rows in one transaction."""
        store = self.store
        conn = store.connection
        graph_digest = store.stored_graph_checksum

        for w in new_vertices:
            vid = self._next_vid
            self._next_vid += 1
            label = encode_label(w)
            conn.execute(
                "INSERT INTO vertices (vid, label) VALUES (?, ?)", (vid, label)
            )
            self._vids[w] = vid
            graph_digest ^= token_crc(vertex_token(label))

        for u, v, present in toggled:
            i, j = self._vids[u], self._vids[v]
            if i > j:
                i, j = j, i
            if present:
                conn.execute(
                    "INSERT OR REPLACE INTO edges (u, v) VALUES (?, ?)", (i, j)
                )
            else:
                conn.execute("DELETE FROM edges WHERE u = ? AND v = ?", (i, j))
            # XOR toggles the token either way — insert and delete are the
            # same checksum operation.
            graph_digest ^= token_crc(edge_token(encode_label(u), encode_label(v)))

        epoch = store.current_epoch + 1
        for h, summary in summaries.items():
            changed = summary.changed_vertices
            if not changed:
                continue
            engine = self.engines[h]
            layer_row = conn.execute(
                "SELECT checksum, degeneracy FROM layers WHERE h = ?", (h,)
            ).fetchone()
            digest = layer_row[0]
            for w in sorted(changed, key=repr):
                vid = self._vids[w]
                label = encode_label(w)
                old_row = conn.execute(
                    "SELECT core FROM cores WHERE h = ? AND vid = ?",
                    (h, vid),
                ).fetchone()
                old_core = old_row[0] if old_row else None
                new_core = engine.core_number(w)
                conn.execute(
                    "INSERT OR REPLACE INTO cores (h, vid, core) VALUES (?, ?, ?)",
                    (h, vid, new_core),
                )
                conn.execute(
                    "INSERT INTO deltas (epoch, h, vid, old_core, new_core) "
                    "VALUES (?, ?, ?, ?, ?)",
                    (epoch, h, vid, old_core, new_core),
                )
                if old_core is not None:
                    digest ^= token_crc(core_token(label, old_core))
                digest ^= token_crc(core_token(label, new_core))
            max_row = conn.execute(
                "SELECT MAX(core) FROM cores WHERE h = ?", (h,)
            ).fetchone()
            degeneracy = max_row[0] or 0
            conn.execute(
                "UPDATE layers SET checksum = ?, degeneracy = ? WHERE h = ?",
                (digest, degeneracy, h),
            )

        store.set_meta("graph_checksum", str(graph_digest))
        return store.commit_epoch(
            KIND_REFRESH,
            self.graph.num_vertices,
            self.graph.num_edges,
            dirty_rows,
            time.perf_counter() - started,
        )

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()
        self.store.close()

    def __enter__(self) -> "IndexRefresher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"IndexRefresher(path={self.store.path!r}, "
            f"h_values={list(self.engines)}, "
            f"refreshes={self.refreshes}, rebuilds={self.rebuilds})"
        )


def refresh_index(
    path: str,
    updates: Sequence[Tuple[str, Vertex, Vertex]],
    batch_size: int = 64,
    backend: str = "auto",
    staleness_ratio: float = DEFAULT_STALENESS_RATIO,
    fallback_ratio: Optional[float] = None,
) -> List[RefreshSummary]:
    """Refresh the index at ``path`` with an update stream, in batches.

    Convenience wrapper used by ``kh-core index refresh``: one
    :class:`IndexRefresher` session, ``updates`` applied in order in
    batches of ``batch_size`` (at least 1), summaries returned per batch.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1 (got {batch_size})")
    summaries: List[RefreshSummary] = []
    with IndexRefresher(
        path,
        backend=backend,
        staleness_ratio=staleness_ratio,
        fallback_ratio=fallback_ratio,
    ) as refresher:
        for offset in range(0, len(updates), batch_size):
            summaries.append(
                refresher.apply_batch(updates[offset : offset + batch_size])
            )
    return summaries
