"""The real deployment as a child process, observed through ``/proc``.

:class:`Server` starts ``repro serve --async --shards 2 --shard-backend
processes`` unbuffered in its own session, reads the listen address from the
banner, samples CPU time and resident memory of the whole process tree (the
front-end process plus its shard children; psutil is not a dependency), and
stops it the way an operator does, with SIGINT, then checks that every
process of the tree has exited.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

SERVE_COMMAND = (
    "-m", "repro.cli", "serve", "--async", "--shards", "2",
    "--shard-backend", "processes", "--host", "127.0.0.1", "--port", "0",
)
BANNER = re.compile(r"listening on http://([\d.]+):(\d+)")
START_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024


def _stat_fields(pid: int) -> list[str] | None:
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return text[text.rindex(")") + 2 :].split()


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                children.setdefault(int(fields[1]), []).append(int(entry))
    tree, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        tree.append(pid)
        frontier.extend(children.get(pid, ()))
    return tree


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


class Server:
    """One running server process tree."""

    def __init__(self, root: Path, flags: tuple[str, ...], log_path: Path) -> None:
        self.root = root
        self.flags = flags
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.address: tuple[str, int] | None = None
        self.seen_pids: set[int] = set()
        self._lines: list[str] = []
        self._banner = threading.Event()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Spawn the server and wait until ``/healthz`` answers."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), PYTHONUNBUFFERED="1")
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-u", *SERVE_COMMAND, *self.flags],
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                start_new_session=True,
            )
        reader = threading.Thread(target=self._read_stdout, daemon=True)
        reader.start()
        if not self._banner.wait(START_TIMEOUT) or self.address is None:
            self.kill()
            raise RuntimeError(f"server printed no listen banner: {self._lines!r}")
        deadline = time.monotonic() + START_TIMEOUT
        while self.get("/healthz")[0] != 200:
            if time.monotonic() > deadline or self.process.poll() is not None:
                self.kill()
                raise RuntimeError("server never answered GET /healthz")
            time.sleep(0.01)
        self.sample_pids()

    def _read_stdout(self) -> None:
        assert self.process is not None and self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.append(line)
            match = BANNER.search(line)
            if match and self.address is None:
                self.address = (match.group(1), int(match.group(2)))
                self._banner.set()
        self._banner.set()

    def stop(self) -> list[int]:
        """SIGINT, wait, then return the tree's processes still alive (killed)."""
        assert self.process is not None
        self.sample_pids()
        self.process.send_signal(signal.SIGINT)
        try:
            self.process.wait(STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 5.0
        leftovers = [pid for pid in self.seen_pids if alive(pid)]
        while leftovers and time.monotonic() < deadline:
            time.sleep(0.05)
            leftovers = [pid for pid in leftovers if alive(pid)]
        if leftovers:
            self.kill()
        return sorted(leftovers)

    def kill(self) -> None:
        """Last resort: SIGKILL the whole session and reap the front end."""
        if self.process is None:
            return
        for pid in self.seen_pids | {self.process.pid}:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except OSError:
            pass
        self.process.wait()

    # -- observation -------------------------------------------------------

    def sample_pids(self) -> list[int]:
        assert self.process is not None
        tree = descendants(self.process.pid)
        self.seen_pids.update(tree)
        return tree

    def cpu_seconds(self, pids: list[int]) -> float:
        """User + system CPU of ``pids`` (a tree), reaped children included."""
        total = 0
        for pid in pids:
            fields = _stat_fields(pid)
            if fields is not None:
                total += sum(int(value) for value in fields[11:15])
        return total / CLOCK_TICKS

    def rss_mb(self, pids: list[int]) -> float:
        """Resident memory summed over ``pids`` (a tree from :meth:`sample_pids`)."""
        pages = 0
        for pid in pids:
            try:
                pages += int(Path(f"/proc/{pid}/statm").read_text().split()[1])
            except (OSError, IndexError, ValueError):
                pass
        return pages * PAGE_KB / 1024.0

    def get(self, path: str) -> tuple[int, bytes]:
        assert self.address is not None
        connection = http.client.HTTPConnection(*self.address, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        except OSError:
            return 0, b""
        finally:
            connection.close()

    def stats(self) -> dict:
        status, body = self.get("/stats")
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return json.loads(body)


def counters(stats: dict) -> dict[str, float]:
    """The ``/stats`` counters the benchmark reports per phase, flattened."""
    cache, requests = stats["cache"], stats["requests"]
    flat = {
        f"cache.{name}": cache.get(name, 0)
        for name in ("hits", "stale_hits", "misses", "insertions", "evictions", "revalidations")
    }
    flat.update(
        {
            f"requests.{name}": requests[name]
            for name in ("answered", "coalesced", "rejected", "failed")
        }
    )
    flat.update(
        {f"routing.{shard}": count for shard, count in stats["routing"]["by_shard"].items()}
    )
    return flat


def delta(before: dict, after: dict) -> dict[str, float]:
    """Per-phase counter change between two ``/stats`` snapshots."""
    old, new = counters(before), counters(after)
    return {name: new[name] - old.get(name, 0) for name in sorted(new)}
