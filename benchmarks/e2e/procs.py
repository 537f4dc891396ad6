"""Process accounting from ``/proc`` and the spawned-server fleet.

CPU time and peak memory are read from outside, per process, so the
cost of a served request is the load generator's *plus* every server,
router and backend process it touched.  The :class:`Fleet` owns every
``python -m repro ...`` tree the harness starts: each is its own process
group, and all of them die on any exit path.
"""

from __future__ import annotations

import atexit
import os
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.serving.protocol import parse_banner

_CLK_TCK = os.sysconf("SC_CLK_TCK")

#: Seconds a server gets to print its ready banner.
BANNER_TIMEOUT_S = 60.0


def _stat_fields(pid: int) -> list[str]:
    # comm (field 2) may hold spaces and parentheses: split after the
    # last ')' so field k of proc(5) is index k - 3 here.
    text = Path(f"/proc/{pid}/stat").read_text()
    return text[text.rindex(")") + 2:].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds the process (all threads) has used.

    A process that is gone reads as 0: the harness only ever takes
    differences over processes it keeps alive.
    """
    try:
        fields = _stat_fields(pid)
    except (FileNotFoundError, ProcessLookupError):
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """The process's resident-set high-water mark (``VmHWM``), in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def _all_stats():
    """``(pid, stat fields)`` of every process that is still there."""
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                yield int(entry), _stat_fields(int(entry))
            except (FileNotFoundError, ProcessLookupError):
                continue


def descendants(root: int) -> list[int]:
    """Live descendants of ``root`` (children, grandchildren, ...)."""
    parent_of = {pid: int(fields[1]) for pid, fields in _all_stats()}
    found, frontier = [], [root]
    while frontier:
        parent = frontier.pop()
        children = [pid for pid, ppid in parent_of.items() if ppid == parent]
        found += children
        frontier += children
    return found


def group_members(pgid: int) -> list[int]:
    """Live, non-zombie processes whose process group is ``pgid``."""
    return [
        pid for pid, fields in _all_stats()
        if int(fields[2]) == pgid and fields[0] != "Z"
    ]


class Server:
    """One spawned ``python -m repro serve|route`` tree and its address."""

    def __init__(self, process: subprocess.Popen, host: str, port: int):
        self.process = process
        self.host = host
        self.port = port

    @property
    def pid(self) -> int:
        return self.process.pid

    def pids(self) -> list[int]:
        """The server and every process below it (a router's backends)."""
        return [self.pid, *descendants(self.pid)]


class Fleet:
    """Every server tree of one run; a context manager that leaves none.

    ``spawn`` starts ``python -m repro <args>`` as the leader of a new
    process group and waits for its ready banner.  ``stop`` and
    ``close`` signal the whole group (SIGTERM, then SIGKILL), so a
    router's backends go with it.  ``close`` also runs from ``atexit``,
    which covers exits that skip the ``with`` block's ``finally``.
    """

    def __init__(self, env: dict[str, str]):
        self.env = env
        self._servers: list[Server] = []  # running
        self._groups: list[int] = []  # every process group ever started
        atexit.register(self.close)

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def spawn(self, args: list[str]) -> Server:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=self.env,
            start_new_session=True,
        )
        server = Server(process, "", 0)
        self._servers.append(server)
        self._groups.append(process.pid)
        try:
            server.host, server.port = _await_banner(process)
        except BaseException:
            self.stop(server)
            raise
        return server

    def stop(self, server: Server, timeout_s: float = 10.0) -> None:
        """Stop one tree and wait until every process of it has ended."""
        _signal_group(server.pid, signal.SIGTERM)
        try:
            server.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + timeout_s
        while group_members(server.pid) and time.monotonic() < deadline:
            time.sleep(0.01)
        if group_members(server.pid):
            _signal_group(server.pid, signal.SIGKILL)
        server.process.wait()
        if server.process.stdout is not None:
            server.process.stdout.close()
        if server in self._servers:
            self._servers.remove(server)

    def survivors(self) -> list[int]:
        """Processes of any tree this fleet ever started that are alive."""
        return [pid for pgid in self._groups for pid in group_members(pgid)]

    def close(self) -> None:
        for server in list(self._servers):
            self.stop(server, timeout_s=5.0)
        atexit.unregister(self.close)


def _signal_group(pgid: int, signum: int) -> None:
    try:
        os.killpg(pgid, signum)
    except ProcessLookupError:
        pass


def _await_banner(process: subprocess.Popen) -> tuple[str, int]:
    selector = selectors.DefaultSelector()
    selector.register(process.stdout, selectors.EVENT_READ)
    deadline = time.monotonic() + BANNER_TIMEOUT_S
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not selector.select(timeout=remaining):
                raise RuntimeError("timed out waiting for the server banner")
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before its banner (code {process.poll()})"
                )
            parsed = parse_banner(line)
            if parsed is not None:
                return parsed
    finally:
        selector.close()
