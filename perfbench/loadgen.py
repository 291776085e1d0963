"""The benchmark's own open-loop load generator for ``repro serve``.

One process, a fixed number of keep-alive connections, and a seeded
schedule fixed before the first send: request ``i`` is due at ``i /
rate`` seconds.  A request waits for a free connection if both are
busy, and its latency is timed from when it was due, so a stalled
server is charged for the requests queued behind the stall.  How late
the generator itself woke up for each request is recorded apart.

The schedule's queries name a paper workload, a DRAM fraction on a
1/32 grid and a slow device.  Most are fresh (drawn without
replacement); every fifth slot instead repeats a query scheduled at
least :data:`REPEAT_AGE_S` earlier, which the server has answered by
then and so serves from its memo.
"""

from __future__ import annotations

import asyncio
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

DEVICES = ("cxl-a", "cxl-b", "cxl-c", "numa")
GRID = 32
#: Every REPEAT_EVERY-th slot repeats an earlier query.
REPEAT_EVERY = 5
#: A repeat picks among queries due at least this long before it.
REPEAT_AGE_S = 2.0


@dataclass
class Request:
    index: int
    due_s: float
    body: Dict[str, Any]
    #: Index of the earlier request this one repeats, if any.
    repeats: Optional[int] = None


def placement(fraction_index: int, device: str) -> Dict[str, Any]:
    return {"dram_fraction": fraction_index / GRID, "device": device,
            "hotness_bias": 0.0}


def schedule(workloads: Sequence[str], seed: int, rate_rps: float,
             count: int) -> List[Request]:
    """The seeded request list: ``count`` requests at ``rate_rps``."""
    rng = random.Random(seed)
    space = [(name, step, device) for name in workloads
             for step in range(GRID) for device in DEVICES]
    fresh = iter(rng.sample(space, count))
    requests: List[Request] = []
    for index in range(count):
        due = index / rate_rps
        eligible = [request.index for request in requests
                    if request.repeats is None
                    and due - request.due_s >= REPEAT_AGE_S]
        if index % REPEAT_EVERY == REPEAT_EVERY - 1 and eligible:
            original = rng.choice(eligible)
            requests.append(Request(index, due, requests[original].body,
                                    repeats=original))
        else:
            name, step, device = next(fresh)
            requests.append(Request(index, due, {
                "kind": "query", "workload": name,
                "placement": placement(step, device)}))
    return requests


@dataclass
class Outcome:
    """What one request got back, with its times on the loop clock."""

    kind: str  # ok | shed | deadline | error | transport
    done_at: float
    late_s: float
    answer: Dict[str, Any] = field(default_factory=dict)


class Connection:
    """One keep-alive HTTP/1.1 connection, one request at a time."""

    def __init__(self, host: str, port: int):
        self.host, self.port = host, port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None
                      ) -> Tuple[int, Dict[str, Any]]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                self.host, self.port)
        payload = json.dumps(body).encode() if body is not None else b""
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                f"Connection: keep-alive\r\n\r\n").encode()
        self.writer.write(head + payload)
        await self.writer.drain()
        status_line = await self.reader.readline()
        if not status_line:
            raise ConnectionError("connection closed before a response")
        status = int(status_line.split()[1])
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        raw = await self.reader.readexactly(length)
        return status, json.loads(raw or b"{}")

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = None


def classify(status: int, answer: Dict[str, Any]) -> str:
    if status == 200 and answer.get("status") == "ok":
        return "ok"
    if status == 429:
        return "shed"
    if status == 504:
        return "deadline"
    return "error"


async def drive(host: str, port: int, requests: Sequence[Request],
                connections: int = 2, lead_s: float = 0.05
                ) -> Tuple[List[Outcome], float]:
    """Send ``requests`` on their schedule; returns outcomes and t0.

    ``t0`` is the loop-clock instant request 0 was due; every
    ``Outcome`` time is on the same clock.
    """
    loop = asyncio.get_running_loop()
    idle: "asyncio.Queue[Connection]" = asyncio.Queue()
    pool = [Connection(host, port) for _ in range(connections)]
    for connection in pool:
        idle.put_nowait(connection)
    outcomes: Dict[int, Outcome] = {}

    async def send(request: Request, late_s: float) -> None:
        connection = await idle.get()
        try:
            status, answer = await connection.request(
                "POST", "/v1/predict", request.body)
            kind = classify(status, answer)
        except (ConnectionError, OSError, ValueError,
                asyncio.IncompleteReadError) as exc:
            await connection.close()
            kind, answer = "transport", {"error": repr(exc)}
        finally:
            idle.put_nowait(connection)
        outcomes[request.index] = Outcome(kind, loop.time(), late_s, answer)

    t0 = loop.time() + lead_s
    tasks = []
    for request in requests:
        due = t0 + request.due_s
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(
            send(request, max(0.0, loop.time() - due))))
    await asyncio.gather(*tasks)
    for connection in pool:
        await connection.close()
    return [outcomes[request.index] for request in requests], t0


async def get_json(host: str, port: int, path: str) -> Dict[str, Any]:
    connection = Connection(host, port)
    try:
        _, body = await connection.request("GET", path)
    finally:
        await connection.close()
    return body
