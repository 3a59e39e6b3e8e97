"""Shared plumbing of the benchmark: statistics, /proc sampling and the
process-group discipline every launched ``repro-spi`` process runs under.

Nothing here imports ``repro``: the harness decides where the program
comes from (the checkout's ``src``) before any of it is imported.
"""

from __future__ import annotations

import os
import resource
import signal
import statistics
import subprocess
import time
from pathlib import Path
from typing import Optional, Sequence

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile, linearly interpolated between order
    statistics (``statistics.quantiles(method="inclusive")``)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


# ----------------------------------------------------------------------
# /proc sampling
# ----------------------------------------------------------------------


def _stat_fields(pid: int) -> Optional[list[str]]:
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    # The command name is parenthesised and may hold spaces.
    return raw[raw.rindex(")") + 2:].split()


def alive(pid: int) -> bool:
    """Running (a zombie has exited: it only waits to be reaped)."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] not in ("Z", "X")


def descendants(roots: Sequence[int]) -> set[int]:
    """``roots`` plus every live process whose parent chain reaches one."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    found: set[int] = set()
    todo = [pid for pid in roots if alive(pid)]
    while todo:
        pid = todo.pop()
        if pid in found:
            continue
        found.add(pid)
        todo.extend(children.get(pid, ()))
    return found


def cpu_seconds(pids: Sequence[int]) -> float:
    """User+system CPU of ``pids``, including children they reaped (so a
    worker that exits between two samples keeps its CPU in the sum)."""
    ticks = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            ticks += sum(int(value) for value in fields[11:15])
    return ticks / CLOCK_TICKS


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed peak resident set (``VmHWM``) of ``pids``."""
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
        except OSError:
            continue
    return total_kb / 1024.0


def self_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Process groups
# ----------------------------------------------------------------------


class Launched:
    """One program process tree started by the benchmark.

    The root runs in its own session, so its process group holds it and
    the workers it spawns.  Cluster shards start their own sessions, so
    every pid ever seen below the root is remembered too: teardown
    signals each known group, and :meth:`stop` reports every remembered
    process still running once the root has drained.
    """

    def __init__(self, argv: list[str], cwd: str, env: dict, log_path: str) -> None:
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=self._log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.pid = self.proc.pid
        self.known: set[int] = {self.pid}
        self.started_at = time.perf_counter()

    def refresh(self) -> set[int]:
        """Remember the current tree; returns its live members."""
        live = descendants([self.pid]) | {p for p in self.known if alive(p)}
        self.known |= live
        return live

    def _signal_groups(self, signum: int) -> None:
        groups = set()
        for pid in self.known:
            try:
                groups.add(os.getpgid(pid))
            except OSError:
                continue
        for group in groups:
            if group == os.getpgrp():
                continue
            try:
                os.killpg(group, signum)
            except OSError:
                pass

    def stop(self, grace: float = 30.0) -> list[int]:
        """SIGTERM the root's group and let it drain; then SIGKILL every
        known group.  Returns the pids that were still running after
        the drain (each one a leak the run must report)."""
        self.refresh()
        try:
            os.killpg(self.pid, signal.SIGTERM)
        except OSError:
            pass
        try:
            self.proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(alive(p) for p in self.known):
            time.sleep(0.05)
        leaked = sorted(p for p in self.known if alive(p))
        self._signal_groups(signal.SIGKILL)
        for pid in leaked:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(alive(p) for p in leaked):
            time.sleep(0.05)
        self._log.close()
        return leaked

