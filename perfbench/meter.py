"""A speed meter for the cores a measurement runs on.

The benchmark's reference machine is two vCPUs of a shared host.  Each
core's speed drifts by 20-40% from one second to the next, and up to 2x
between quiet and busy minutes; the two cores drift independently, but
two different pure-Python loops run back to back on one core slow down
together.  So the meter times a fixed probe loop on the measured cores
themselves: one probe process per core the benchmark may use, pinned to
it, runs the probe every ``INTERVAL`` seconds of wall time.  Woken from
its sleep, a probe preempts whatever runs on its core, so it samples the
core's state at that moment.  A workload that runs on one core pins
itself first (:func:`pin`), and gets a single probe process on that
core; one spread over both cores gets one on each.

Times the benchmark reports are *reference seconds*: measured seconds,
times the cores' mean speed relative to ``REF_PROBE_S`` over the same
interval (:meth:`Meter.reference`).  They are what the work would have
taken at the reference speed, so a change in the program moves them
and the host's drift mostly does not.  Time the program spends waiting
on a timer is scaled too, so a timer-bound figure reads a little
noisier than a compute-bound one.

Run as a script (``meter.py --core N``) this module is one probe
process: it prints ``start seconds`` per probe until its parent goes
away or stops it.
"""

from __future__ import annotations

import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from bisect import bisect_left

#: Wall seconds between two probes.
INTERVAL = 0.02
#: Reference time of one probe: about its median on the reference
#: machine (an Intel Xeon vCPU of a shared host).  Only ratios to it
#: matter; it sets the scale of reference seconds.
REF_PROBE_S = 0.0006
#: A short interval takes its speed from the probes this close to it.
PAD = 5 * INTERVAL


def pin() -> int:
    """Pin this process (and every process it launches from now on) to
    one core, the highest-numbered it may use; returns the core."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def probe() -> float:
    """Time a fixed mix of tuple, hash, dict, str and list work (what
    the engine spends its time in); about 0.6 ms on the reference core."""
    began = time.perf_counter()
    table: dict = {}
    items = []
    for i in range(600):
        key = (i % 97, i & 7, "s%d" % (i % 13))
        table[key] = table.get(key, 0) + hash(key)
        items.append(key)
    items.sort()
    return time.perf_counter() - began


class Meter:
    """Probe samples of one probe process per core this process may use.

    Use as a context manager.  The probe processes are this process's
    children; each adds about 3% load to its core.  Exiting the context
    stops every probe process and waits for it.
    """

    def __init__(self, cwd) -> None:
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._cwd = cwd
        self._procs: list[subprocess.Popen] = []
        self._readers: list[threading.Thread] = []
        self._samples: list[tuple[float, float]] = []

    def _read(self, proc: subprocess.Popen) -> None:
        for line in proc.stdout:
            start, seconds = line.split()
            self._samples.append((float(start), float(seconds)))

    def _merge(self) -> None:
        """Merge the cores' samples, as read so far, into time order."""
        if len(self.starts) != len(self._samples):
            samples = sorted(self._samples[:])
            self.starts = [start for start, _ in samples]
            self.seconds = [seconds for _, seconds in samples]

    def __enter__(self) -> "Meter":
        try:
            for core in sorted(os.sched_getaffinity(0)):
                proc = subprocess.Popen(
                    [sys.executable, __file__, "--core", str(core)],
                    cwd=self._cwd, stdout=subprocess.PIPE, text=True,
                )
                self._procs.append(proc)
                reader = threading.Thread(target=self._read, args=(proc,), daemon=True)
                reader.start()
                self._readers.append(reader)
            time.sleep(5 * INTERVAL)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for proc in self._procs:
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        for reader in self._readers:
            reader.join(timeout=10)
        for proc in self._procs:
            proc.stdout.close()
        self._merge()

    def probes(self, t0: float, t1: float) -> list[float]:
        """Durations of the probes that started in ``[t0, t1)``."""
        self._merge()
        lo, hi = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return self.seconds[lo:hi]

    def speed(self, t0: float, t1: float) -> float:
        """The cores' mean speed in ``[t0, t1]`` relative to the
        reference, from the probes there (and within ``PAD`` of it, for
        a short interval)."""
        window = self.probes(t0, t1)
        if len(window) < 5:
            window = self.probes(t0 - PAD, t1 + PAD)
        if not window:
            raise RuntimeError("no probe ran near the measured interval")
        return statistics.fmean(REF_PROBE_S / seconds for seconds in window)

    def reference(self, t0: float, t1: float, seconds: float = None) -> float:
        """Reference seconds of ``seconds`` of work done in ``[t0, t1]``
        (by default the whole interval)."""
        return (t1 - t0 if seconds is None else seconds) * self.speed(t0, t1)


def _probe_process(core: int) -> None:
    """Probe ``core`` every ``INTERVAL`` seconds until the parent is gone
    or the output is closed.  ``perf_counter`` is ``CLOCK_MONOTONIC``,
    so the parent reads the starts on its own clock."""
    os.sched_setaffinity(0, {core})
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    parent = os.getppid()
    probe()
    try:
        while os.getppid() == parent:
            time.sleep(INTERVAL)
            began = time.perf_counter()
            seconds = probe()
            print(f"{began!r} {seconds!r}", flush=True)
    except BrokenPipeError:
        pass


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="one probe process of Meter")
    parser.add_argument("--core", type=int, required=True)
    args = parser.parse_args()
    _probe_process(args.core)
