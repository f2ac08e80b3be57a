"""HTTP helpers shared by the front-end test suites."""

from __future__ import annotations

import asyncio
import json
import socket
import urllib.error
import urllib.request

from repro.serving import PlanResponse


def post_json(url: str, payload: dict) -> tuple[int, dict]:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}, method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def get_json(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf-8"))


def raw_http(address, request_bytes: bytes, *, half_close: bool = True) -> int:
    """Send raw bytes, return the response status (for framing-level tests)."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(request_bytes)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        status_line = sock.makefile("rb").readline().decode("latin-1")
    return int(status_line.split()[1])


class StubBackend:
    """A minimal duck-typed backend: canned answers after a settable delay,
    or a raised ``error``."""

    def __init__(self, delay: float = 0.0, error: Exception | None = None) -> None:
        self.delay = delay
        self.error = error
        self.closed = False

    def _response(self) -> PlanResponse:
        return PlanResponse(
            order=(0,),
            service_names=("stub",),
            cost=1.0,
            algorithm="stub",
            optimal=False,
            cache_hit=False,
            stale=False,
            fingerprint="stub-fp",
            latency_seconds=self.delay,
        )

    async def submit_async(self, problem, budget_seconds=None):
        await asyncio.sleep(self.delay)
        if self.error is not None:
            raise self.error
        return self._response()

    async def optimize_batch_async(self, problems, budget_seconds=None):
        await asyncio.sleep(self.delay)
        if self.error is not None:
            raise self.error
        return [self._response() for _ in problems]

    def stats(self):
        return {"backend": "stub"}

    def close(self):
        self.closed = True
