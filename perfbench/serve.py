"""The serve workloads: an open-loop generator against a server process.

One event loop drives at most ``nproc`` keep-alive connections: one is
reserved for update batches (idle in ``serve-read``), the others carry reads
round-robin.  Every request is due at a fixed time on its schedule and its
latency runs from that due time, so a stalled server also charges the wait
it imposes on later requests.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import select
import signal
import subprocess
import sys
import time
from typing import Dict, Optional, Tuple

from perfbench import common, inputs

H = 2
READ_RPS = 300.0
#: 100 batches in a 20 s run leave ten samples beyond the update p90.
UPDATE_BATCHES_PER_S = 5.0
#: ``capacity_rps`` is the highest read rate whose p99 stays within this.
LATENCY_LIMIT_MS = 25.0
#: A capacity probe is over the limit when its pending queue grew or the
#: generator itself ran later than this share of the latency limit.  The
#: fixed-rate run fails only on a growing queue: one late wake-up of the
#: generator on a shared machine is reported, not fatal.
LATE_FRACTION = 0.5
#: How long before a request is due the generator stops sleeping and spins.
SPIN_S = 0.0015
READY_TIMEOUT_S = 60.0


def _cpus():
    return sorted(os.sched_getaffinity(0))


#: With two or more CPUs the server and the generator each get their own,
#: so run-to-run latency does not depend on where the scheduler put them.
SERVER_CPU, GENERATOR_CPU = -1, 0


def pin(pid: int, slot: int) -> None:
    cpus = _cpus()
    if len(cpus) >= 2:
        os.sched_setaffinity(pid, {cpus[slot]})


class Connection:
    """One keep-alive HTTP/1.1 connection speaking JSON."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1",
                                                                 self.port)
        return self

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def request(self, method: str, path: str,
                      body: Optional[object] = None) -> Tuple[int, dict]:
        payload = json.dumps(body).encode() if body is not None else b""
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n".encode() + payload)
        await self.writer.drain()
        status = int((await self.reader.readline()).split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, json.loads(await self.reader.readexactly(length))


# --------------------------------------------------------------------- #
# server process
# --------------------------------------------------------------------- #
class Server:
    """The server launcher process, started and stopped from here."""

    def __init__(self, edges: str, index: str, trace_out: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(common.BENCH_DIR, "server.py"),
             edges, str(H), index, trace_out],
            stdout=subprocess.PIPE, cwd=common.REPO_ROOT)
        pin(self.process.pid, SERVER_CPU)
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        stream = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stream], [], [], 0.5)
            if ready:
                line = stream.readline().decode()
                if line.startswith("READY "):
                    return int(line.split()[1])
                if not line:
                    break
        self.stop()
        raise RuntimeError("the server did not become ready")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


# --------------------------------------------------------------------- #
# open loop
# --------------------------------------------------------------------- #
class Checker:
    """Validates read answers against the reference core maps."""

    def __init__(self, cores: Dict[int, Dict[int, int]], static: bool) -> None:
        self.cores = cores
        self.static = static

    def ok(self, path: str, payload: dict) -> bool:
        if not self.static:
            # The graph moves under a churn run; its final state is
            # checked once every update is acknowledged.
            return True
        from urllib.parse import parse_qs, urlsplit

        split = urlsplit(path)
        params = {k: int(v[0]) if v[0].isdigit() else v[0]
                  for k, v in parse_qs(split.query).items()}
        primary = self.cores[H]
        if split.path == "/core_number":
            return payload.get("core") == self.cores[params.get("h", H)][params["v"]]
        if split.path == "/core":
            k = params["k"]
            return payload.get("size") == sum(1 for c in primary.values() if c >= k)
        if split.path == "/top_communities":
            return all(primary[v] >= entry["k"] for entry in payload["communities"]
                       for v in entry["vertices"])
        if split.path == "/spectrum":
            v = params["v"]
            return payload.get("spectrum") == [[h, self.cores[h][v]] for h in (1, 2)]
        if split.path == "/cores":
            return {v: c for v, c in payload["cores"]} == primary
        return False


def final_state_ok(served, expected: Dict[int, int]) -> bool:
    """The served ``/cores`` list after a churn run equals the reference."""
    return served is not None and {v: c for v, c in served} == expected


async def _drive(conn: Connection, items, t0: float, records: list,
                 checker: Checker) -> None:
    """Send ``items`` (offset, kind, method, path, body) on their schedule."""
    last_generation = 0
    previous_done = t0
    for offset, kind, method, path, body in items:
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > SPIN_S:
            await asyncio.sleep(delay - SPIN_S)
        # The loop's timer wakes up to a millisecond late; the last stretch
        # is spun so a request leaves when it is due.
        while time.perf_counter() < due:
            pass
        sent = time.perf_counter()
        status, payload = await conn.request(method, path, body)
        done = time.perf_counter()
        generation = payload.get("generation", 0)
        good = (status == 200 or (status == 409 and kind == "update"))
        if isinstance(generation, int):
            if generation < last_generation:
                good = False
            last_generation = max(last_generation, generation)
        records.append({
            "kind": kind, "due": due, "sent": sent, "done": done,
            "late": sent - max(due, previous_done), "ok": good,
            "point": path.startswith("/core_number"),
            # Answers are checked after the run, off the generator's clock.
            "answer": (path, payload) if good and kind != "update" else None,
        })
        previous_done = done


async def _open_loop(port: int, reads: list, updates: list, read_conns: int,
                     checker: Checker, toggle=None) -> Tuple[list, float]:
    conns = [await Connection(port).open() for _ in range(read_conns + 1)]
    records: list = []
    t0 = time.perf_counter() + 0.05
    lanes = [reads[i::read_conns] for i in range(read_conns)] + [updates]
    tasks = [asyncio.ensure_future(_drive(conn, lane, t0, records, checker))
             for conn, lane in zip(conns, lanes) if lane]
    if toggle is not None:
        tasks.append(asyncio.ensure_future(toggle(t0)))
    try:
        await asyncio.gather(*tasks)
    finally:
        for conn in conns:
            await conn.close()
    for record in records:
        answer = record.pop("answer")
        if answer is not None and not checker.ok(*answer):
            record["ok"] = False
    return records, t0


def read_items(schedule, rate: float) -> list:
    return [(i / rate, kind, "GET", path, None)
            for i, (kind, path) in enumerate(schedule)]


def backlog_grew(records: list) -> bool:
    """True when the generator's pending queue grew across the run.

    Pending at a send is the number of reads already due but not yet sent.
    A server that keeps up drains every burst, so the queue grew only when
    over the last quarter of the run it held more than half a second of
    arrivals and more than twice the first quarter's peak.
    """
    reads = sorted((r for r in records if r["kind"] != "update"),
                   key=lambda r: r["due"])
    if len(reads) < 8:
        return False
    sends = sorted(r["sent"] for r in reads)
    dues = [r["due"] for r in reads]
    rate = (len(dues) - 1) / (dues[-1] - dues[0])

    def pending(at: float) -> int:
        return bisect.bisect_right(dues, at) - bisect.bisect_right(sends, at)

    quarter = len(reads) // 4
    head = max(pending(r["sent"]) for r in reads[:quarter])
    tail = max(pending(r["sent"]) for r in reads[-quarter:])
    return tail > 0.5 * rate and tail > 2 * head


def latency_summary(records: list) -> dict:
    reads = [r for r in records if r["kind"] != "update"]
    read_ms = [1000.0 * (r["done"] - r["due"]) for r in reads]
    point_ms = [1000.0 * (r["done"] - r["due"]) for r in reads if r["point"]]
    wire_ms = [1000.0 * (r["done"] - r["sent"]) for r in reads]
    updates = [r for r in records if r["kind"] == "update"]
    update_ms = [1000.0 * (r["done"] - r["due"]) for r in updates]
    late_ms = max(1000.0 * r["late"] for r in records)
    return {
        "read_p50_ms": common.percentile(read_ms, 50),
        "read_p99_ms": common.percentile(read_ms, 99),
        "point_p99_ms": common.percentile(point_ms, 99),
        "wire_p50_ms": common.percentile(wire_ms, 50),
        "update_p50_ms": common.percentile(update_ms, 50) if updates else 0.0,
        "update_p90_ms": common.percentile(update_ms, 90) if updates else 0.0,
        "late_ms_max": late_ms,
        "backlog_grew": backlog_grew(records),
        "failed": sum(1 for r in records if not r["ok"]),
    }


def over_limit(summary: dict) -> bool:
    return (summary["backlog_grew"]
            or summary["late_ms_max"] > LATE_FRACTION * LATENCY_LIMIT_MS)


def capacity_search(port: int, graph, seed: int, degeneracy: int,
                    read_conns: int, checker: Checker,
                    probe_s: float = 1.5) -> Tuple[float, list]:
    """Highest read rate meeting the p99 limit without a growing backlog.

    Doubles from :data:`READ_RPS` until a rate fails, then bisects four
    times, which leaves the answer within about 6% of the true boundary.
    A rate fails only when a second probe confirms the first, so one late
    wake-up of the generator does not end the search.  Returns the rate
    and the records of every probe.
    """
    probes: list = []

    def probe(rate: float) -> bool:
        schedule = inputs.read_schedule(graph, seed + len(probes) + 1,
                                        int(rate * probe_s), degeneracy)
        records, _ = asyncio.run(_open_loop(
            port, read_items(schedule, rate), [], read_conns, checker))
        probes.append(records)
        summary = latency_summary(records)
        return (summary["failed"] == 0 and not over_limit(summary)
                and summary["read_p99_ms"] <= LATENCY_LIMIT_MS)

    def passes(rate: float) -> bool:
        return probe(rate) or probe(rate)

    low, high = 0.0, READ_RPS
    while passes(high):
        low, high = high, high * 2
        if high > 64 * READ_RPS:
            return low, probes
    for _ in range(4):
        middle = (low + high) / 2
        if passes(middle):
            low = middle
        else:
            high = middle
    return low, probes


# --------------------------------------------------------------------- #
# workload
# --------------------------------------------------------------------- #
def run(workload: str, seed: int, seconds: float, trace: bool, size: str,
        workdir: str) -> dict:
    from repro.index import build_index

    churn = workload == "serve-churn"
    pin(os.getpid(), GENERATOR_CPU)
    edges = os.path.join(workdir, "serve.edges")
    index = os.path.join(workdir, "serve.khidx")
    trace_out = os.path.join(workdir, "server-trace.json") if trace else "-"
    setup_times, index_times = [], []
    server = None
    while server is None or common.more_setups(setup_times):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        graph = inputs.serve_graph(seed, size)
        with open(edges, "wb") as handle:
            handle.write(inputs.edge_bytes(graph))
        index_started = time.perf_counter()
        build_index(graph, index, h_values=(1, 2), overwrite=True)
        index_times.append(time.perf_counter() - index_started)
        server = Server(edges, index, trace_out)
        setup_times.append(time.perf_counter() - started)

    rss = common.PeakRSS(server.process.pid).start()
    try:
        return _measure(server, rss, graph, seed, seconds, trace, churn,
                        setup_times, index_times, trace_out, workload)
    finally:
        rss.stop()
        server.stop()


def _measure(server, rss, graph, seed, seconds, trace, churn, setup_times,
             index_times, trace_out, workload) -> dict:
    data = inputs.edge_bytes(graph)
    cores = {h: {int(v): c for v, c in common.cached_reference(
        f"cores-h{h}-{common.digest(data)}",
        lambda h=h: sorted(inputs.reference_cores(graph, h).items()))}
        for h in (1, H)}
    degeneracy = max(cores[H].values())
    checker = Checker(cores, static=not churn)
    read_conns = max(1, (os.cpu_count() or 1) - 1)

    schedule = inputs.read_schedule(graph, seed, int(READ_RPS * seconds),
                                    degeneracy)
    stream, final_graph = inputs.update_stream(
        graph, seed, int(UPDATE_BATCHES_PER_S * seconds)) if churn else ([], graph)
    updates = [(i / UPDATE_BATCHES_PER_S, "update", "POST", "/update",
                {"updates": batch}) for i, batch in enumerate(stream)]

    toggle = None
    if trace:
        async def toggle(t0):
            # Tracing switches on halfway: the first half is the untraced
            # baseline the overhead is measured against.
            await asyncio.sleep(max(0.0, t0 + seconds / 2 - time.perf_counter()))
            server.process.send_signal(signal.SIGUSR1)

    async def session():
        conn = await Connection(server.port).open()
        try:
            before = (await conn.request("GET", "/stats"))[1]
            records, t0 = await _open_loop(server.port, read_items(
                schedule, READ_RPS), updates, read_conns, checker, toggle)
            finals = {}
            if churn:
                status, payload = await conn.request("GET", "/cores")
                finals["cores"] = payload["cores"] if status == 200 else None
            finals["stats"] = (await conn.request("GET", "/stats"))[1]
            return before, records, t0, finals
        finally:
            await conn.close()

    before, records, t0, finals = asyncio.run(session())
    duration = max(r["done"] for r in records) - t0
    summary = latency_summary(records)
    attempted = len(records)
    failed = summary["failed"]
    if churn:
        attempted += 1
        if not final_state_ok(finals["cores"],
                              inputs.reference_cores(final_graph, H)):
            failed += 1
    if summary["backlog_grew"]:
        raise RuntimeError(
            f"{workload}: the pending queue grew at {READ_RPS:g} reads/s; the "
            f"latencies would hide the stall")
    if over_limit(summary):
        # A generator hiccup, not a server stall: the queue did not grow.
        print(f"# warning: the generator ran up to {summary['late_ms_max']:.1f}"
              f" ms late", file=sys.stderr)

    capacity = 0.0
    if trace and not churn:
        # Runs after the fixed-rate phase, so the server's spans are on.
        capacity, probes = capacity_search(server.port, graph, seed,
                                           degeneracy, read_conns, checker)
        for probe in probes:
            attempted += len(probe)
            failed += sum(1 for r in probe if not r["ok"])

    stats = finals["stats"]
    result = {
        "engine": stats["backend"], "setup_s": setup_times,
        "index_build_s": index_times, "summary": summary,
        "attempted": attempted, "failed": failed, "duration_s": duration,
        "offered_rps": (len(schedule) + len(updates)) / (seconds or 1),
        "completed_rps": len(records) / duration,
        "stats_before": before, "stats": stats, "capacity_rps": capacity,
    }
    if trace:
        half = t0 + seconds / 2
        result["untraced"] = latency_summary([r for r in records if r["due"] < half])
        result["traced"] = latency_summary([r for r in records if r["due"] >= half])
    server.stop()
    result["peak_rss_mb"] = rss.stop()
    if trace:
        with open(trace_out) as handle:
            result["server_trace"] = json.load(handle)
        os.replace(trace_out + ".spans.json", os.path.join(
            common.OUT_DIR, f"spans-{workload}-seed{seed}.json"))
    return result
