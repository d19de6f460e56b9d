"""Unit tests for the CSR storage tier (repro.graph.storage).

Covers the block-file format (round trips, status sentinel, labels
sidecar), the storage resolution policy, mmap-backed ``CSRGraph``
snapshots and their lifecycle, ``FrozenGraphView``, and the file-backed
shared-memory export used by the process executor.
"""

import os

import pytest

from repro.core import core_decomposition, core_decomposition_with_report
from repro.core.backends import CSREngine, resolve_engine
from repro.errors import GraphFormatError, ParameterError
from repro.graph import Graph, FrozenGraphView, load_csr
from repro.graph.csr import CSRGraph
from repro.graph.generators import relaxed_caveman_graph
from repro.graph.storage import (
    BLOCK_SUFFIX,
    DEFAULT_MMAP_AUTO_THRESHOLD,
    HEADER_SIZE,
    STATUS_OFFSET,
    BlockFileWriter,
    LazyLabelIndex,
    LazyLabelStore,
    MmapCSRStorage,
    estimated_payload_bytes,
    payload_layout,
    resolve_storage,
    sidecar_safe_label,
    write_block_file,
)
from repro.parallel import FileCSRExport, SharedCSRView
from repro.runtime import ExecutionContext


# A concrete small CSR: triangle 0-1-2 with 3 attached to 0.
INDPTR = [0, 3, 5, 7, 8]
ADJ = [1, 2, 3, 0, 2, 0, 1, 0]


@pytest.fixture
def graph():
    return relaxed_caveman_graph(4, 5, 0.2, seed=7)


class TestBlockFileFormat:
    def test_identity_round_trip(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        write_block_file(path, INDPTR, ADJ)
        csr = load_csr(path)
        try:
            assert list(csr.indptr) == INDPTR
            assert list(csr.adjacency) == ADJ
            assert list(csr.labels) == [0, 1, 2, 3]
            assert csr.storage_kind == "mmap"
            assert csr.index(2) == 2
        finally:
            csr.close()
        assert os.path.exists(path)  # not delete_on_close

    def test_sidecar_round_trip(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        labels = [10, "alpha", 7, "z-9"]
        write_block_file(path, INDPTR, ADJ, labels=labels)
        csr = load_csr(path)
        try:
            assert list(csr.labels) == labels
            assert csr.index("alpha") == 1
        finally:
            csr.close()

    def test_unfinalized_file_is_refused(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        writer = BlockFileWriter(path, 3, 0)
        writer._close_handles()  # simulate a crash: no finalize, no abort
        with pytest.raises(GraphFormatError, match="incomplete"):
            load_csr(path)

    def test_status_byte_gates_reads(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        write_block_file(path, INDPTR, ADJ)
        with open(path, "r+b") as handle:
            handle.seek(STATUS_OFFSET)
            handle.write(b"\x00")  # flip back to "building"
        with pytest.raises(GraphFormatError, match="incomplete"):
            load_csr(path)

    def test_bad_magic_is_refused(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        with open(path, "wb") as handle:
            handle.write(b"\x00" * 256)
        with pytest.raises(GraphFormatError, match="magic"):
            MmapCSRStorage(path)

    def test_truncated_payload_is_refused(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        write_block_file(path, INDPTR, ADJ)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - 8)
        with pytest.raises(GraphFormatError, match="shorter"):
            MmapCSRStorage(path)

    def test_truncated_header_is_refused(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        with open(path, "wb") as handle:
            handle.write(b"KHCSR")
        with pytest.raises(GraphFormatError, match="truncated"):
            MmapCSRStorage(path)

    def test_abort_removes_partial_file(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        writer = BlockFileWriter(path, 3, 0)
        writer.abort()
        assert not os.path.exists(path)

    def test_finalize_rejects_count_mismatch(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        writer = BlockFileWriter(path, 3, 4)
        try:
            with pytest.raises(GraphFormatError, match="block writer"):
                writer.finalize()
        finally:
            writer.abort()

    def test_volatile_labels_not_loadable(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        write_block_file(path, INDPTR, ADJ, volatile_labels=True)
        with pytest.raises(GraphFormatError, match="no labels"):
            load_csr(path)

    def test_missing_sidecar_is_reported(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        write_block_file(path, INDPTR, ADJ, labels=["a", "b", "c", "d"])
        os.unlink(path + ".labels")
        with pytest.raises(GraphFormatError, match="sidecar"):
            load_csr(path)

    def test_payload_layout_consistency(self):
        indptr_bytes, adj_bytes, alive_offset, total = payload_layout(5, 8)
        assert indptr_bytes == 6 * 8
        assert adj_bytes == 8 * 8
        assert alive_offset == indptr_bytes + adj_bytes
        assert total == alive_offset + 5
        assert estimated_payload_bytes(5, 4) == total

    def test_file_size_matches_layout(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        write_block_file(path, INDPTR, ADJ)
        expected = HEADER_SIZE + payload_layout(len(INDPTR) - 1, len(ADJ))[3]
        assert os.path.getsize(path) == expected


class TestResolveStorage:
    def test_explicit_choices_pass_through(self):
        assert resolve_storage("ram", 10 ** 12) == "ram"
        assert resolve_storage("mmap", 0) == "mmap"

    def test_auto_threshold(self):
        assert resolve_storage("auto", 1024) == "ram"
        assert resolve_storage("auto", DEFAULT_MMAP_AUTO_THRESHOLD) == "mmap"

    def test_auto_env_force(self, monkeypatch):
        # The threshold alone forces either tier: 0 always spills, a huge
        # value never does.
        monkeypatch.setenv("KH_CORE_MMAP_THRESHOLD", "0")
        assert resolve_storage("auto", 0) == "mmap"
        monkeypatch.setenv("KH_CORE_MMAP_THRESHOLD", str(10 ** 13))
        assert resolve_storage("auto", 10 ** 12) == "ram"

    def test_env_threshold_override(self, monkeypatch):
        monkeypatch.setenv("KH_CORE_MMAP_THRESHOLD", "100")
        assert resolve_storage("auto", 101) == "mmap"
        assert resolve_storage("auto", 99) == "ram"

    def test_unknown_storage_rejected(self):
        with pytest.raises(ParameterError):
            resolve_storage("disk", 0)

    def test_sidecar_safe_label(self):
        assert sidecar_safe_label(17)
        assert sidecar_safe_label("vertex-a")
        assert not sidecar_safe_label("two words")
        assert not sidecar_safe_label((1, 2))
        assert not sidecar_safe_label("")


class TestMmapSnapshots:
    def test_from_graph_mmap_matches_ram(self, graph):
        ram = CSRGraph.from_graph(graph, storage="ram")
        mm = CSRGraph.from_graph(graph, storage="mmap")
        try:
            assert list(mm.indptr) == list(ram.indptr)
            assert list(mm.adjacency) == list(ram.adjacency)
            assert list(mm.labels) == list(ram.labels)
            assert mm.storage_kind == "mmap"
        finally:
            mm.close()

    def test_temp_block_is_unlinked_on_close(self, graph, tmp_path):
        mm = CSRGraph.from_graph(graph, storage="mmap",
                                 storage_dir=str(tmp_path))
        spills = [f for f in os.listdir(tmp_path) if f.endswith(BLOCK_SUFFIX)]
        assert len(spills) == 1
        mm.close()
        assert not any(f.endswith(BLOCK_SUFFIX) for f in os.listdir(tmp_path))

    def test_persisted_block_reopens(self, graph, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        mm = CSRGraph.from_graph(graph, storage="mmap", storage_path=path)
        expected = (list(mm.indptr), list(mm.adjacency), list(mm.labels))
        mm.close()
        assert os.path.exists(path)  # explicit paths persist
        reopened = load_csr(path)
        try:
            assert (list(reopened.indptr), list(reopened.adjacency),
                    list(reopened.labels)) == expected
        finally:
            reopened.close()

    def test_persisting_unsafe_labels_raises(self, tmp_path):
        graph = Graph([((1, 2), (3, 4))])  # tuple labels: no sidecar form
        with pytest.raises(ParameterError, match="round-trip"):
            CSRGraph.from_graph(graph, storage="mmap",
                                storage_path=str(tmp_path / "g.khcsr"))

    def test_to_ram_is_bit_identical(self, graph):
        mm = CSRGraph.from_graph(graph, storage="mmap")
        try:
            ram = mm.to_ram()
            assert list(ram.indptr) == list(mm.indptr)
            assert list(ram.adjacency) == list(mm.adjacency)
            assert ram.labels == list(mm.labels)
            assert ram.storage_kind == "ram"
        finally:
            mm.close()

    def test_decomposition_parity_over_storage(self, graph):
        reference = core_decomposition(graph, h=2)
        mm = CSRGraph.from_graph(graph, storage="mmap")
        try:
            view = FrozenGraphView(mm)
            result = core_decomposition(view, h=2)
            assert result.core_index == reference.core_index
        finally:
            mm.close()


class TestFrozenGraphView:
    @pytest.fixture
    def view(self, graph):
        return FrozenGraphView(CSRGraph.from_graph(graph)), graph

    def test_read_surface_matches_source(self, view):
        frozen, graph = view
        assert frozen.num_vertices == graph.num_vertices
        assert frozen.num_edges == graph.num_edges
        assert len(frozen) == len(graph)
        assert set(frozen.vertices()) == set(graph.vertices())
        for v in graph.vertices():
            assert v in frozen
            assert frozen.degree(v) == graph.degree(v)
            assert set(frozen.neighbors(v)) == set(graph.neighbors(v))
        assert ({frozenset(e) for e in frozen.edges()}
                == {frozenset(e) for e in graph.edges()})
        assert "storage=" in repr(frozen)

    def test_contains_handles_foreign_types(self, view):
        frozen, _ = view
        assert "nope" not in frozen
        assert [1, 2] not in frozen  # unhashable: False, not TypeError

    def test_has_edge_missing_vertices(self, view):
        frozen, _ = view
        assert not frozen.has_edge("ghost", 0)

    def test_subgraph_materializes(self, view):
        frozen, graph = view
        keep = list(graph.vertices())[:6]
        assert frozen.subgraph(keep) == graph.subgraph(keep)

    def test_degree_histogram(self, view):
        from repro.graph.stats import degree_histogram

        frozen, graph = view
        assert frozen.degree_histogram() == degree_histogram(graph)

    def test_resolve_engine_rejects_relabel(self, view):
        # The view's snapshot fixes the vertex order; there is no option.
        frozen, _ = view
        with pytest.raises(TypeError):
            resolve_engine(frozen, backend="csr", relabel="degree")

    def test_execution_context_accepts_view(self, view):
        frozen, graph = view
        reference = core_decomposition(graph, h=2)
        with ExecutionContext(frozen, backend="csr") as context:
            report = core_decomposition_with_report(frozen, 2,
                                                    context=context)
        assert report.result.core_index == reference.core_index


class TestEngineStorageLifecycle:
    """Engine-built spills, forced by ``KH_CORE_MMAP_THRESHOLD=0``."""

    def test_context_storage_mmap_parity(self, graph, monkeypatch):
        reference = core_decomposition(graph, h=2)
        monkeypatch.setenv("KH_CORE_MMAP_THRESHOLD", "0")
        with ExecutionContext(graph, backend="csr") as context:
            report = core_decomposition_with_report(graph, 2,
                                                    context=context)
            assert context.engine.csr.storage_kind == "mmap"
        assert report.result.core_index == reference.core_index

    def test_engine_close_releases_owned_storage(self, graph, monkeypatch):
        monkeypatch.setenv("KH_CORE_MMAP_THRESHOLD", "0")
        engine = CSREngine(graph)
        storage = engine.csr.storage
        assert engine.csr.storage_kind == "mmap"
        engine.close()
        assert not storage._finalizer.alive

    def test_refresh_keeps_storage_policy(self, graph, monkeypatch):
        monkeypatch.setenv("KH_CORE_MMAP_THRESHOLD", "0")
        engine = CSREngine(graph)
        try:
            old_storage = engine.csr.storage
            graph.add_edge("fresh-a", "fresh-b")
            engine.refresh()
            assert engine.csr.storage_kind == "mmap"
            assert not old_storage._finalizer.alive  # old spill released
            assert "fresh-a" in engine.csr.index_of
        finally:
            engine.close()

    def test_supplied_snapshot_not_closed(self, graph):
        mm = CSRGraph.from_graph(graph, storage="mmap")
        try:
            engine = CSREngine(graph, csr=mm)
            engine.close()
            assert mm.storage._finalizer.alive  # caller still owns it
        finally:
            mm.close()


class TestFileCSRExport:
    def test_requires_mmap_storage(self, graph):
        ram = CSRGraph.from_graph(graph, storage="ram")
        with pytest.raises(ValueError):
            FileCSRExport(ram, 0)

    def test_view_attaches_by_path(self, graph):
        mm = CSRGraph.from_graph(graph, storage="mmap")
        export = FileCSRExport(mm, generation=3)
        try:
            layout = export.layout()
            assert layout[0] == "file"
            assert layout[2] == mm.num_vertices
            assert layout[4] == 3
            view = SharedCSRView(layout)
            try:
                assert list(view.indptr) == list(mm.indptr)
                assert list(view.adjacency) == list(mm.adjacency)
                assert all(view.alive_region[i] for i in range(mm.num_vertices))
            finally:
                view.close()
        finally:
            export.close()
            mm.close()

    def test_write_alive_propagates(self, graph):
        mm = CSRGraph.from_graph(graph, storage="mmap")
        export = FileCSRExport(mm, generation=0)
        try:
            alive = bytearray(b"\x01" * mm.num_vertices)
            alive[0] = 0
            export.write_alive(bytes(alive))
            view = SharedCSRView(export.layout())
            try:
                assert view.alive_region[0] == 0
                assert view.alive_region[1] == 1
            finally:
                view.close()
        finally:
            export.close()
            mm.close()

    def test_close_keeps_dataset_file(self, graph, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        mm = CSRGraph.from_graph(graph, storage="mmap", storage_path=path)
        export = FileCSRExport(mm, generation=0)
        export.close()
        assert os.path.exists(path)  # only the alive segment is unlinked
        mm.close()

    def test_process_executor_over_mmap_storage(self, graph, monkeypatch):
        reference = core_decomposition(graph, h=2)
        monkeypatch.setenv("KH_CORE_MMAP_THRESHOLD", "0")
        with ExecutionContext(graph, backend="csr", executor="process",
                              num_workers=2) as context:
            assert context.engine.csr.storage_kind == "mmap"
            report = core_decomposition_with_report(graph, 2,
                                                    context=context)
        assert report.result.core_index == reference.core_index


class TestLazyLabelReopen:
    """Sidecar-label reopen is O(1): nothing is read until a label is asked."""

    LABELS = ["alpha", 17, "z-9", "beta"]

    def _block(self, tmp_path):
        path = str(tmp_path / ("g" + BLOCK_SUFFIX))
        write_block_file(path, INDPTR, ADJ, labels=self.LABELS)
        return path

    def test_reopen_defers_the_sidecar_read(self, tmp_path):
        csr = load_csr(self._block(tmp_path))
        try:
            store = csr.labels
            assert isinstance(store, LazyLabelStore)
            assert store._offsets is None  # untouched: nothing mapped yet
            assert isinstance(csr.index_of, LazyLabelIndex)
            assert csr.index_of._index is None
            # len() comes from the block header, not the sidecar.
            assert len(store) == 4
            assert store._offsets is None
        finally:
            csr.close()

    def test_random_access_and_iteration(self, tmp_path):
        csr = load_csr(self._block(tmp_path))
        try:
            assert csr.labels[2] == "z-9"
            assert csr.labels[-1] == "beta"
            assert list(csr.labels) == self.LABELS
            with pytest.raises(IndexError):
                csr.labels[4]
        finally:
            csr.close()

    def test_reverse_index_built_on_first_lookup(self, tmp_path):
        csr = load_csr(self._block(tmp_path))
        try:
            index = csr.index_of
            assert index["z-9"] == 2
            assert index.get(17) == 1
            assert index.get("missing") is None
            assert "alpha" in index and "missing" not in index
            assert len(index) == 4
            assert dict(index) == {v: i for i, v in enumerate(self.LABELS)}
            assert csr.index("beta") == 3
        finally:
            csr.close()

    def test_decomposition_over_lazy_labels(self, tmp_path):
        graph = Graph()
        for u, v in [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]:
            graph.add_edge(u, v)
        reference = core_decomposition(graph, h=2).core_index
        path = str(tmp_path / ("labeled" + BLOCK_SUFFIX))
        snapshot = CSRGraph.from_graph(graph)
        write_block_file(path, list(snapshot.indptr),
                         list(snapshot.adjacency),
                         labels=list(snapshot.labels))
        reopened = load_csr(path)
        try:
            view = FrozenGraphView(reopened)
            assert core_decomposition(view, h=2).core_index == reference
        finally:
            reopened.close()

    def test_truncated_sidecar_raises_at_first_access(self, tmp_path):
        path = self._block(tmp_path)
        with open(path + ".labels", "w", encoding="utf-8") as fh:
            fh.write("only\ntwo\n")
        csr = load_csr(path)  # reopen itself stays O(1) and succeeds
        try:
            with pytest.raises(GraphFormatError, match="2 labels for 4"):
                csr.labels[0]
        finally:
            csr.close()

    def test_sidecar_without_trailing_newline(self, tmp_path):
        path = self._block(tmp_path)
        with open(path + ".labels", "w", encoding="utf-8") as fh:
            fh.write("a\nb\nc\nd")  # final label unterminated
        csr = load_csr(path)
        try:
            assert list(csr.labels) == ["a", "b", "c", "d"]
            assert csr.labels[3] == "d"
        finally:
            csr.close()

    def test_storage_close_releases_the_label_mapping(self, tmp_path):
        csr = load_csr(self._block(tmp_path))
        store = csr.labels
        _ = store[0]  # force the mapping open
        assert store._mm is not None
        csr.close()
        assert not store._state  # extra_close drained the finalizer state

    def test_delete_on_close_with_open_label_map(self, tmp_path):
        path = self._block(tmp_path)
        csr = load_csr(path, delete_on_close=True)
        _ = csr.labels[1]
        csr.close()
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".labels")

    def test_close_before_first_access_is_safe(self, tmp_path):
        csr = load_csr(self._block(tmp_path))
        csr.close()  # never touched the labels; nothing to unmap
