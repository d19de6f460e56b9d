"""Chaos battery: armed fault plans against whole library operations.

Every test arms a deterministic :class:`~repro.resilience.faults.FaultPlan`
at a named injection site and asserts two things: the operation still
*completes*, and its observable output is bit-identical to the fault-free
reference — recovery must never change results, only cost.  Fault-plan
mechanics are unit-tested in ``test_resilience.py``; the janitors that
clean up what these faults leave behind are exercised here end-to-end.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro.core import core_decomposition
from repro.core.backends import numpy_available
from repro.errors import CoreIndexError, FaultInjectedError, GraphFormatError
from repro.graph import generators as gen
from repro.instrumentation import Counters
from repro.resilience import RetryPolicy, armed
from repro.resilience.janitor import run_doctor
from repro.runtime import ExecutionContext


def _chaos_graph():
    # Uneven degrees so the LPT chunk plan produces distinct chunks and a
    # killed worker genuinely takes unfinished chunks with it.
    graph = gen.relaxed_caveman_graph(4, 8, 0.25, seed=13)
    for i in range(0, 24, 3):
        graph.add_edge(i, (i * 7 + 11) % graph.num_vertices)
    return graph


def _strip_resilience(counts):
    """Counter totals minus the recovery-event keys (which tally cost)."""
    return {k: v for k, v in counts.items()
            if not k.startswith("resilience.")}


def _reference(graph, h, engine_name, algorithm="h-BZ"):
    counters = Counters()
    with ExecutionContext(graph, backend=engine_name, executor="serial",
                          counters=counters) as context:
        result = core_decomposition(graph, h, algorithm=algorithm,
                                    context=context)
    return result, counters.as_dict()


def _supervised(graph, h, engine_name, algorithm="h-BZ"):
    counters = Counters()
    with ExecutionContext(graph, backend=engine_name, executor="process",
                          num_workers=2, counters=counters) as context:
        result = core_decomposition(graph, h, algorithm=algorithm,
                                    context=context)
        report = context.resilience
    return result, counters.as_dict(), report


# --------------------------------------------------------------------- #
# worker.kill — the acceptance-criteria scenario
# --------------------------------------------------------------------- #
class TestWorkerKill:
    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("engine_name", ["csr", "numpy"])
    def test_one_kill_per_dispatch_is_bit_identical_to_serial(
            self, engine_name, h):
        """Kill one pool worker at every dispatch generation; nothing in
        the output may change — cores, removal order, or counter totals."""
        if engine_name == "numpy" and not numpy_available():
            pytest.skip("NumPy not installed")
        graph = _chaos_graph()
        expected, expected_counts = _reference(graph, h, engine_name)
        with armed("worker.kill=once;seed=1"):
            got, got_counts, report = _supervised(graph, h, engine_name)
        assert got.core_index == expected.core_index
        assert got.removal_order == expected.removal_order
        assert _strip_resilience(got_counts) == expected_counts
        assert report.pool_rebuilds >= 1
        assert got_counts["resilience.pool_rebuilds"] == report.pool_rebuilds

    def test_unbounded_kills_degrade_to_thread_and_still_complete(self):
        """``worker.kill=*`` re-kills past every rebuild budget: the ladder
        must fall through to the thread executor, not raise."""
        graph = _chaos_graph()
        expected, _ = _reference(graph, 2, "csr")
        with armed("worker.kill=*;seed=1"):
            got, got_counts, report = _supervised(graph, 2, "csr")
        assert got.core_index == expected.core_index
        assert got.removal_order == expected.removal_order
        assert any(d == "process->thread" for d in report.downgrades)
        assert got_counts["resilience.downgrades"] >= 1

    def test_downgrade_lasts_for_the_rest_of_the_run(self):
        """h-LB+UB runs many bulk passes: after the first process->thread
        downgrade the rest must stay on threads, so one rebuild budget is
        spent in total rather than one per pass."""
        graph = _chaos_graph()
        expected, _ = _reference(graph, 2, "csr", algorithm="h-LB+UB")
        with armed("worker.kill=*;seed=1"):
            got, got_counts, report = _supervised(graph, 2, "csr",
                                                  algorithm="h-LB+UB")
        assert got.core_index == expected.core_index
        assert got.removal_order == expected.removal_order
        assert report.downgrades == ["process->thread"]
        assert got_counts["resilience.downgrades"] == 1
        assert report.pool_rebuilds == RetryPolicy().max_pool_rebuilds + 1


# --------------------------------------------------------------------- #
# worker.stall — deadlines abandon stragglers
# --------------------------------------------------------------------- #
class TestWorkerStall:
    def test_stalled_worker_hits_deadline_then_completes(self, monkeypatch):
        monkeypatch.setenv("KH_CORE_CHUNK_DEADLINE", "0.25")
        graph = _chaos_graph()
        expected, _ = _reference(graph, 2, "csr")
        # One stalled chunk in the first dispatch, well past the round
        # deadline; later dispatches are clean.
        with armed("worker.stall=1;stall=5.0;seed=1"):
            got, got_counts, report = _supervised(graph, 2, "csr")
        assert got.core_index == expected.core_index
        assert report.deadline_hits >= 1
        assert report.pool_rebuilds >= 1
        assert got_counts["resilience.deadline_hits"] == report.deadline_hits


# --------------------------------------------------------------------- #
# shm.attach_fail — worker-side exception, chunk-level retry
# --------------------------------------------------------------------- #
class TestAttachFail:
    def test_failed_attach_is_retried_not_fatal(self):
        graph = _chaos_graph()
        expected, _ = _reference(graph, 2, "csr")
        with armed("shm.attach_fail=1;seed=1"):
            got, got_counts, report = _supervised(graph, 2, "csr")
        assert got.core_index == expected.core_index
        assert got.removal_order == expected.removal_order
        assert report.retries >= 1
        assert got_counts["resilience.retries"] == report.retries


# --------------------------------------------------------------------- #
# sqlite.busy — reader retry loop
# --------------------------------------------------------------------- #
class TestSqliteBusy:
    @pytest.fixture
    def index_path(self, tmp_path):
        from repro.index import build_index

        graph = gen.relaxed_caveman_graph(3, 6, 0.2, seed=4)
        path = str(tmp_path / "chaos.khidx")
        build_index(graph, path, h_values=(1, 2), source="chaos")
        return path

    def test_transient_busy_is_retried(self, index_path):
        from repro.index import CoreIndexReader

        with CoreIndexReader(index_path) as reader:
            clean = reader.core_number(0, 2)
            with armed("sqlite.busy=1-3;seed=2") as plan:
                assert reader.core_number(0, 2) == clean
                assert plan.fired("sqlite.busy") == 3

    def test_persistent_busy_raises_core_index_error(self, index_path):
        from repro.index import CoreIndexReader

        with CoreIndexReader(index_path) as reader:
            with armed("sqlite.busy=*;seed=2"):
                with pytest.raises(CoreIndexError, match="stayed locked"):
                    reader.core_number(0, 2)
            # Disarmed again: the reader connection is still healthy.
            assert isinstance(reader.core_number(0, 2), int)


# --------------------------------------------------------------------- #
# block.torn_write — durability window crash, then the janitor
# --------------------------------------------------------------------- #
class TestTornWrite:
    def test_graceful_path_aborts_cleanly(self, tmp_path):
        """An in-process failure runs the writer's abort: no debris."""
        from repro.graph.stream_load import stream_load

        edges = tmp_path / "torn.edges"
        edges.write_text("0 1\n1 2\n2 0\n2 3\n")
        out = str(tmp_path / "torn.khcsr")
        with armed("block.torn_write=1;seed=3"):
            with pytest.raises(FaultInjectedError):
                csr = stream_load(str(edges), out_path=out)
                csr.close()
        assert not os.path.exists(out)
        # Disarmed rerun of the identical load succeeds.
        csr = stream_load(str(edges), out_path=out)
        try:
            assert csr.num_vertices == 4
        finally:
            csr.close()

    def test_hard_crash_leaves_rejectable_block_doctor_reclaims(
            self, tmp_path):
        """A crash in the durability window (no abort) leaves a building
        block: readers must reject it and the doctor must reclaim it."""
        from array import array

        from repro.graph.storage import BlockFileWriter, load_csr

        out = str(tmp_path / "torn.khcsr")
        writer = BlockFileWriter(out, num_vertices=3, adjacency_len=4)
        writer.write_indptr(array("q", [0, 2, 3, 4]))
        writer.write_adjacency(array("q", [1, 2, 0, 0]))
        with armed("block.torn_write=1;seed=3"):
            with pytest.raises(FaultInjectedError):
                writer.finalize()
        assert os.path.exists(out)
        with pytest.raises(GraphFormatError):
            load_csr(out)
        stamp = os.stat(out).st_mtime - 3600
        os.utime(out, (stamp, stamp))
        report = run_doctor([str(tmp_path)], shm_dir=None, min_age=60.0)
        assert report.reclaimed_blocks == [out]
        assert not os.path.exists(out)


# --------------------------------------------------------------------- #
# serve.slow_client — request deadlines shed slow handlers
# --------------------------------------------------------------------- #
class TestServeSlowClient:
    def test_slow_handler_gets_503_with_retry_after(self):
        from repro.serve import CoreServer, CoreService

        service = CoreService(gen.relaxed_caveman_graph(3, 6, 0.2, seed=5),
                              h=2)

        async def _raw_request(port, path):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            try:
                writer.write((f"GET {path} HTTP/1.1\r\n"
                              f"Host: x\r\nConnection: close\r\n\r\n"
                              ).encode("latin-1"))
                await writer.drain()
                raw = await reader.read(65536)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionResetError, BrokenPipeError):
                    pass
            head, _, body = raw.partition(b"\r\n\r\n")
            lines = head.decode("latin-1").split("\r\n")
            status = int(lines[0].split()[1])
            headers = {}
            for line in lines[1:]:
                name, _, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
            return status, headers

        async def _main():
            server = await CoreServer(service, port=0,
                                      request_deadline=0.2).start()
            try:
                with armed("serve.slow_client=1;stall=5.0;seed=6"):
                    status, headers = await _raw_request(
                        server.port, "/core_number?v=0")
                    assert status == 503
                    assert headers.get("retry-after") == "1"
                    # Probe 2 does not fire: the service recovered.
                    status, _headers = await _raw_request(
                        server.port, "/core_number?v=0")
                    assert status == 200
            finally:
                await server.aclose()

        try:
            asyncio.run(_main())
        finally:
            service.close()
