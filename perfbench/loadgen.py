"""Load generators for the serving workloads.

Two phases drive one entry point (anything with ``submit(video)``
returning a future):

- :func:`open_loop` sends request ``i`` at ``t0 + i / rate`` whatever
  the system does, as independent users would, and times each request
  from when it was *due*, so a stall also counts against the requests
  queued behind it.  It records how late the generator itself ran.
- :func:`saturate` keeps a fixed number of requests in flight from one
  generator thread and reports the completion rate.

Inputs are pre-generated; the generator only wraps each spec in a
fresh :class:`~repro.video.frame.Video`, which it never keeps: the
served video is dropped as soon as its response is checked.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
import resource
import threading
import time
from collections import deque

from repro.errors import ReproError
from repro.video.frame import Video

#: Longest wait for the in-flight requests at the end of a phase.
DRAIN_TIMEOUT_S = 60.0


def cpu_seconds() -> float:
    """CPU time (user + system) of this process and of the live child
    processes it started, such as process replicas.

    Unlike wall time, CPU time excludes the time a shared host lets
    other tenants run, so it stays steady where wall time does not.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        with open(f"/proc/{child.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks
    return total


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (``inf`` entries are failed requests)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Phase:
    """Counters and timings of one load phase."""

    def __init__(self, name: str):
        self.name = name
        self.sent = 0
        self.ok = 0
        self.failed = 0
        self.refused = 0
        self.elapsed_s = 0.0
        self.cpu_s = 0.0
        self.latencies_s: list[float] = []
        self.lag_s: list[float] = []

    @property
    def throughput_rps(self) -> float:
        return self.ok / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def cpu_ms_per_req(self) -> float:
        return self.cpu_s * 1e3 / max(self.ok, 1)

    def summary(self) -> dict:
        return {"sent": self.sent, "ok": self.ok, "failed": self.failed,
                "refused": self.refused, "elapsed_s": self.elapsed_s,
                "cpu_s": self.cpu_s}


class _Completions:
    """Hands finished requests from the serving threads back to the
    generator thread, which checks them between sends."""

    def __init__(self, phase: Phase, keys, checker, on_done=None):
        self.phase = phase
        self.keys = keys
        self.checker = checker
        self.on_done = on_done
        self.finished: deque = deque()
        self.submitted = 0
        self.drained = 0
        self.last_done = 0.0

    def callback(self, index: int, future) -> None:
        # Runs on the serving thread: record and hand off, no checking.
        exc = future.exception()
        self.finished.append((index, time.perf_counter(),
                              exc if exc is not None else future.result()))
        if self.on_done is not None:
            self.on_done()

    def drain(self, latency_origin=None) -> None:
        phase = self.phase
        while self.finished:
            index, done_at, outcome = self.finished.popleft()
            self.drained += 1
            self.last_done = max(self.last_done, done_at)
            failed = isinstance(outcome, BaseException)
            if failed:
                phase.failed += 1
            else:
                phase.ok += 1
                self.checker.served(self.keys[index], outcome)
            if latency_origin is not None:
                phase.latencies_s.append(
                    math.inf if failed else done_at - latency_origin(index))

    def wait_all(self, latency_origin=None) -> None:
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while self.drained < self.submitted:
            if time.perf_counter() > deadline:
                lost = self.submitted - self.drained
                self.phase.failed += lost
                self.phase.latencies_s.extend([math.inf] * lost)
                return
            time.sleep(0.0005)
            self.drain(latency_origin)


def open_loop(entry, specs, keys, rate: float, checker) -> Phase:
    """Send ``keys`` on a fixed-rate schedule; latency from due time."""
    phase = Phase("open")
    done = _Completions(phase, keys, checker)
    cpu_start = cpu_seconds()
    origin = time.perf_counter() + 0.005

    def due(index: int) -> float:
        return origin + index / rate

    for index, key in enumerate(keys):
        delay = due(index) - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        phase.lag_s.append(time.perf_counter() - due(index))
        phase.sent += 1
        try:
            future = entry.submit(Video(specs[key]))
        except ReproError:
            phase.refused += 1
            phase.failed += 1
            phase.latencies_s.append(math.inf)
            continue
        done.submitted += 1
        future.add_done_callback(functools.partial(done.callback, index))
        done.drain(due)
    done.wait_all(due)
    phase.elapsed_s = max(done.last_done, due(len(keys) - 1)) - origin
    phase.cpu_s = cpu_seconds() - cpu_start
    return phase


def saturate(entry, specs, keys, seconds: float, in_flight: int,
             checker) -> Phase:
    """Keep ``in_flight`` requests outstanding for ``seconds``."""
    phase = Phase("saturation")
    slots = threading.Semaphore(in_flight)
    done = _Completions(phase, keys, checker, on_done=slots.release)
    cpu_start = cpu_seconds()
    start = time.perf_counter()
    end = start + seconds
    index = 0
    while index < len(keys) and time.perf_counter() < end:
        slots.acquire()
        phase.sent += 1
        try:
            future = entry.submit(Video(specs[keys[index]]))
        except ReproError:
            phase.refused += 1
            phase.failed += 1
            slots.release()
        else:
            done.submitted += 1
            future.add_done_callback(
                functools.partial(done.callback, index))
        index += 1
        done.drain()
    done.wait_all()
    phase.elapsed_s = done.last_done - start
    phase.cpu_s = cpu_seconds() - cpu_start
    return phase
