"""The live server as a subprocess, and the client that loads it.

The server is ``python -m repro serve --scale small --port 0`` in engine
mode at dilation 1, exactly as a user starts it. One client process (this
one) drives it over two connections:

* an open loop: Poisson arrivals at a fixed rate. Each request is timed
  from when it was due, not from when it was sent, so a stall also
  delays the requests queued behind it; how late the sender ran is
  reported beside it;
* a closed loop: each connection keeps a fixed window of requests
  outstanding, which measures the rate the server sustains.

Every reply is kept, so the caller can check it against the engine run
in process on the same query and degree.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from common import Spans, cpu_seconds, median, shuffled_indices

#: Wall-seconds bound on a server boot (spawn to the "serving" line).
BOOT_TIMEOUT_S = 120.0
#: Wall-seconds a request may take before it counts as timed out.
REPLY_TIMEOUT_S = 10.0
#: Wall-seconds bound on connecting and on server shutdown.
IO_TIMEOUT_S = 10.0
N_CONNECTIONS = 2
CAPACITY_BIN_S = 0.25


class Server:
    """One ``repro serve`` subprocess; use as a context manager so the
    process is always stopped and reaped. ``boot_s`` is the CPU seconds
    the server ran from spawn to its "serving" line."""

    def __init__(self, root: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONUNBUFFERED"] = "1"
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--scale", "small",
             "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        try:
            self.port = self._wait_ready()
        except BaseException:
            self.stop()
            raise
        self.boot_s = self.cpu_seconds()

    def _wait_ready(self) -> int:
        assert self.proc.stdout is not None
        fd = self.proc.stdout.fileno()
        buffer = b""
        deadline = self.started + BOOT_TIMEOUT_S
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not report ready in time")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError("server exited before it was ready")
            buffer += chunk
            for line in buffer.decode(errors="replace").splitlines():
                if line.startswith("serving ") and " on " in line:
                    return int(line.rsplit(":", 1)[1].split()[0])

    @property
    def pid(self) -> str:
        return str(self.proc.pid)

    def cpu_seconds(self) -> float:
        """CPU seconds the server has run so far."""
        return cpu_seconds(self.proc.pid)

    def pin(self, cores: Set[int]) -> None:
        """Let every thread of the server run only on ``cores``."""
        for task in Path(f"/proc/{self.pid}/task").iterdir():
            try:
                os.sched_setaffinity(int(task.name), cores)
            except ProcessLookupError:
                pass  # the thread ended while we listed them

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=IO_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


@dataclass
class Request:
    id: int
    query_index: int
    due: float
    sent: float = math.nan
    received: float = math.nan
    reply: Optional[Dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        reply = self.reply
        return (
            reply is not None and reply.get("ok") is True
            and reply.get("status") == "completed" and "results" in reply
        )

    @property
    def latency_s(self) -> float:
        """Due-to-reply seconds; a failed request never meets any limit."""
        return self.received - self.due if self.ok else math.inf


@dataclass
class Client:
    """Connections to one server, with replies matched to requests by id."""

    port: int
    spans: Spans
    requests: List[Request] = field(default_factory=list)
    #: Replies whose id matches no outstanding request: a second reply
    #: to one request, or a reply to none.
    unmatched: int = 0
    _pending: Dict[int, Tuple[Request, "asyncio.Future[None]"]] = field(default_factory=dict)

    async def connect(self) -> None:
        self._streams = []
        for _ in range(N_CONNECTIONS):
            self._streams.append(await asyncio.wait_for(
                asyncio.open_connection("127.0.0.1", self.port), IO_TIMEOUT_S
            ))
        self._readers = [
            asyncio.get_running_loop().create_task(self._read(reader))
            for reader, _ in self._streams
        ]

    async def _read(self, reader: asyncio.StreamReader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            reply = json.loads(line)
            entry = self._pending.pop(reply.get("id"), None)
            if entry is None:
                self.unmatched += 1
                continue
            request, done = entry
            request.received = now
            request.reply = reply
            done.set_result(None)

    def send(
        self, query_index: int, due: float, parent: Optional[int], connection: int
    ) -> "asyncio.Future[None]":
        request = Request(len(self.requests), query_index, due)
        self.requests.append(request)
        done = asyncio.get_running_loop().create_future()
        if self.spans.enabled:
            done.add_done_callback(lambda f: f.cancelled() or self.spans.record(
                "runtime.request", request.due, request.received, parent, request.id))
        self._pending[request.id] = (request, done)
        _, writer = self._streams[connection]
        request.sent = time.perf_counter()
        writer.write(json.dumps(
            {"id": request.id, "op": "search", "query_index": query_index}
        ).encode() + b"\n")
        return done

    async def settle(self, futures: List["asyncio.Future[None]"]) -> None:
        """Wait for replies; requests still unanswered then time out: they
        keep no reply, and a reply that comes later matches nothing."""
        if futures:
            await asyncio.wait(futures, timeout=REPLY_TIMEOUT_S)
        for _, done in self._pending.values():
            done.cancel()
        self._pending.clear()

    async def close(self) -> None:
        for _, writer in self._streams:
            writer.close()
        for _, writer in self._streams:
            try:
                await asyncio.wait_for(writer.wait_closed(), IO_TIMEOUT_S)
            except (OSError, asyncio.TimeoutError):
                pass
        for task in self._readers:
            task.cancel()
        await asyncio.gather(*self._readers, return_exceptions=True)


async def open_loop(
    client: Client, rate: float, count: int, n_queries: int, seed: Sequence[int]
) -> List[Request]:
    """``count`` Poisson arrivals at ``rate``, drawn from ``seed``;
    returns the requests sent."""
    rng = np.random.default_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
    indices = shuffled_indices(rng, n_queries, count)
    parent = client.spans.current
    first = len(client.requests)
    start = time.perf_counter() + 0.05
    futures = []
    for i, (offset, query_index) in enumerate(zip(offsets.tolist(), indices)):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        futures.append(client.send(query_index, due, parent, i % N_CONNECTIONS))
    await client.settle(futures)
    return client.requests[first:]


async def closed_loop(
    client: Client, window: int, seconds: float, n_queries: int, seed: Sequence[int],
    server_cpu: Callable[[], float],
) -> Tuple[List[Request], float, List[float]]:
    """Each connection keeps ``window`` requests outstanding for
    ``seconds``. Returns the requests; the ok replies per wall second,
    the median over bins of :data:`CAPACITY_BIN_S`; and the ok replies
    per CPU second of the server in each bin after the first, in which
    the windows fill (``server_cpu`` is read at every bin edge)."""
    indices = iter(shuffled_indices(
        np.random.default_rng(seed), n_queries, int(seconds * 10_000)))
    parent = client.spans.current
    first = len(client.requests)
    start = time.perf_counter()
    stop = start + seconds
    n_bins = int(seconds / CAPACITY_BIN_S)
    cpu_at_edges: List[float] = []

    async def lane(connection: int) -> None:
        inflight: set = set()
        while True:
            while len(inflight) < window and time.perf_counter() < stop:
                inflight.add(client.send(next(indices), time.perf_counter(), parent,
                                         connection))
            if not inflight:
                return
            done, inflight = await asyncio.wait(
                inflight, timeout=REPLY_TIMEOUT_S,
                return_when=asyncio.FIRST_COMPLETED,
            )
            if not done:
                return  # every outstanding request timed out

    async def sample_cpu() -> None:
        for edge in range(n_bins + 1):
            await asyncio.sleep(max(0.0, start + edge * CAPACITY_BIN_S - time.perf_counter()))
            cpu_at_edges.append(server_cpu())

    await asyncio.gather(sample_cpu(), *(lane(c) for c in range(N_CONNECTIONS)))
    await client.settle([])
    requests = client.requests[first:]
    bins: List[List[float]] = [[] for _ in range(n_bins)]
    for r in requests:
        slot = int((r.received - start) / CAPACITY_BIN_S) if r.ok else n_bins
        if slot < n_bins:
            bins[slot].append(r.received)
    # Replies per second between the first and last reply of each bin.
    wall_rate = median([(len(b) - 1) / (max(b) - min(b)) for b in bins if len(b) > 1])
    cpu_rates = [len(b) / (cpu_at_edges[k + 1] - cpu_at_edges[k])
                 for k, b in enumerate(bins) if k > 0 and cpu_at_edges[k + 1] > cpu_at_edges[k]]
    return requests, wall_rate, cpu_rates
