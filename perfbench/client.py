"""HTTP clients that drive ``repro serve`` from outside.

* :func:`open_loop` sends ``/predict`` bodies on a fixed schedule over at
  most a few keep-alive connections and times every request from the
  moment it was due, so a stall also charges the requests queued behind
  it.
* :func:`stream_sweep` sends one streaming ``/sweep`` and reads its NDJSON
  lines as they arrive.

Each request goes out as one write, so client-side Nagle never delays it.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import time
from dataclasses import dataclass, field

REQUEST_TIMEOUT_S = 30.0


class _Connection:
    """One keep-alive HTTP/1.1 connection on the event loop."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader = self.writer = None

    async def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        self.writer.write(
            f"POST {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode() + body)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        headers = {}
        for line in lines[1:]:
            if ":" in line:
                name, value = line.split(":", 1)
                headers[name.strip().lower()] = value.strip()
        payload = await self.reader.readexactly(
            int(headers.get("content-length", 0)))
        if headers.get("connection", "").lower() == "close":
            self.close()
        return status, payload

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None


@dataclass
class Outcome:
    """One scheduled request: when it was due, sent and answered."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0          # 0 = connection error or timeout
    doc: dict | None = None

    @property
    def ok(self) -> bool:
        return self.status == 200 and self.doc is not None

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class StepResult:
    rate: float
    outcomes: list[Outcome]
    late_s: list[float] = field(default_factory=list)


async def _open_loop(host, port, bodies, rate, connections) -> StepResult:
    loop = asyncio.get_running_loop()
    queue: asyncio.Queue = asyncio.Queue()
    start = loop.time() + 0.05
    outcomes = [Outcome(i, start + i / rate) for i in range(len(bodies))]
    late: list[float] = []

    async def schedule():
        for outcome in outcomes:
            delay = outcome.due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, loop.time() - outcome.due))
            queue.put_nowait(outcome)
        for _ in range(connections):
            queue.put_nowait(None)

    async def work():
        conn = _Connection(host, port)
        try:
            while (outcome := await queue.get()) is not None:
                outcome.sent = loop.time()
                try:
                    status, payload = await asyncio.wait_for(
                        conn.post("/predict", bodies[outcome.index]),
                        REQUEST_TIMEOUT_S)
                    outcome.status = status
                    if status == 200:
                        outcome.doc = json.loads(payload)
                except (OSError, asyncio.IncompleteReadError,
                        asyncio.TimeoutError, ValueError):
                    conn.close()
                outcome.done = loop.time()
        finally:
            conn.close()

    tasks = [asyncio.create_task(work()) for _ in range(connections)]
    await asyncio.gather(schedule(), *tasks)
    return StepResult(rate, outcomes, late)


def open_loop(host: str, port: int, bodies: list[bytes], rate: float,
              connections: int) -> StepResult:
    """Send ``bodies`` at ``rate`` per second, open loop; wait for all."""
    return asyncio.run(_open_loop(host, port, bodies, rate, connections))


@dataclass
class SweepResult:
    status: int
    elapsed_s: float
    first_chunk_s: float | None
    header: dict | None
    chunks: list[dict]
    summary: dict | None


def stream_sweep(conn: http.client.HTTPConnection, body: bytes) \
        -> SweepResult:
    """POST one ``/sweep`` on a kept-alive connection and read it fully.

    Lines are parsed only after the response ends, so the client spends
    no CPU on JSON while the server streams.
    """
    start = time.perf_counter()
    conn.request("POST", "/sweep", body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    if response.status != 200:
        response.read()
        return SweepResult(response.status, time.perf_counter() - start,
                           None, None, [], None)
    header = response.readline()
    first = None
    lines = []
    while line := response.readline():
        if first is None:
            first = time.perf_counter() - start
        lines.append(line)
    elapsed = time.perf_counter() - start
    docs = [json.loads(line) for line in lines]
    chunks = [doc for doc in docs if "predictions" in doc]
    ends = [doc for doc in docs if "predictions" not in doc]
    return SweepResult(200, elapsed, first, json.loads(header), chunks,
                       ends[-1] if ends else None)
