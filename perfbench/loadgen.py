"""The load generator: keep-alive HTTP clients on threads of this process.

Two disciplines drive the same indexed request stream:

* **closed loop** - each connection sends its next request only after the
  previous answer arrived, so a slower server receives less load;
* **open loop** - requests fall due on a fixed schedule whatever the server
  does; a request is timed from when it was *due*, so a stall also charges
  the requests queued behind it, and how late the generator itself sent each
  request is kept as a validity check.

Clients only record status, raw body and timestamps; answers are checked
after the timed window so checking never slows the load.
"""

from __future__ import annotations

import http.client
import itertools
import threading
import time
from dataclasses import dataclass

from perfbench.workloads import Request, Workload

HEADERS = {"Content-Type": "application/json"}
REQUEST_TIMEOUT = 60.0


@dataclass
class Exchange:
    """One request as the client saw it."""

    index: int
    status: int
    body: bytes
    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Seconds from when the request was due until its answer arrived."""
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """Seconds the generator sent the request after it was due."""
        return self.sent - self.due


class Client:
    """One keep-alive connection; transport errors reconnect and count as status 0."""

    def __init__(self, address: tuple[str, int]) -> None:
        self.address = address
        self.connection = http.client.HTTPConnection(*address, timeout=REQUEST_TIMEOUT)

    def post(self, request: Request, index: int, due: float | None = None) -> Exchange:
        sent = time.perf_counter()
        try:
            self.connection.request("POST", request.path, body=request.body, headers=HEADERS)
            response = self.connection.getresponse()
            status, body = response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.connection.close()
            self.connection = http.client.HTTPConnection(*self.address, timeout=REQUEST_TIMEOUT)
            status, body = 0, b""
        done = time.perf_counter()
        return Exchange(index, status, body, sent if due is None else due, sent, done)

    def close(self) -> None:
        self.connection.close()


def _run_clients(address, connections: int, body) -> list[Exchange]:
    results: list[list[Exchange]] = [[] for _ in range(connections)]

    def worker(slot: int) -> None:
        client = Client(address)
        try:
            body(client, results[slot])
        finally:
            client.close()

    threads = [threading.Thread(target=worker, args=(slot,)) for slot in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted(itertools.chain.from_iterable(results), key=lambda exchange: exchange.index)


def closed_loop(
    address, workload: Workload, indices: itertools.count, seconds: float, connections: int
) -> list[Exchange]:
    """Each connection sends back to back for ``seconds``."""
    deadline = time.perf_counter() + seconds

    def body(client: Client, out: list[Exchange]) -> None:
        while time.perf_counter() < deadline:
            index = next(indices)
            out.append(client.post(workload.request(index), index))

    return _run_clients(address, connections, body)


def open_loop(
    address,
    workload: Workload,
    indices: itertools.count,
    rate: float,
    seconds: float,
    connections: int,
) -> list[Exchange]:
    """Requests fall due every ``1 / rate`` seconds for ``seconds``."""
    first = next(indices)
    slots = itertools.count()
    start = time.perf_counter() + 0.05
    total = max(int(rate * seconds), 1)

    def body(client: Client, out: list[Exchange]) -> None:
        while True:
            slot = next(slots)
            if slot >= total:
                return
            due = start + slot / rate
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            index = first + slot
            out.append(client.post(workload.request(index), index, due=due))

    exchanges = _run_clients(address, connections, body)
    # Keep the shared stream moving past the indices this phase consumed.
    for _ in range(total - 1):
        next(indices)
    return exchanges


def sequential(address, workload: Workload, indices: itertools.count, count: int) -> list[Exchange]:
    """``count`` requests one at a time on one connection (traced run)."""
    client = Client(address)
    try:
        exchanges = []
        for _ in range(count):
            index = next(indices)
            exchanges.append(client.post(workload.request(index), index))
        return exchanges
    finally:
        client.close()


def send_all(address, requests: list[Request], connections: int) -> list[Exchange]:
    """Send fixed requests (the warm-up set) once each over ``connections``."""
    pending = iter(list(enumerate(requests)))
    lock = threading.Lock()

    def body(client: Client, out: list[Exchange]) -> None:
        while True:
            with lock:
                item = next(pending, None)
            if item is None:
                return
            out.append(client.post(item[1], item[0]))

    return _run_clients(address, connections, body)
