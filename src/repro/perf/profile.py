"""Named-region host wall-time profiling.

The simulator reports *simulated* device time; this module measures the
*host* time the harness itself burns — graph generation, PRO
preprocessing, per-kernel accounting overhead, whole suite cells — so the
host-optimization work in :mod:`repro.perf` can be demonstrated with
numbers rather than vibes.

Design constraints:

* **near-zero cost when inactive**: instrumented code calls
  :func:`active_profiler` (a module-global read) or enters
  :func:`region`, which — unless a profiler was activated with
  :func:`profiling` or a region sink installed — returns one shared,
  do-nothing context manager: two global reads and no allocation;
* **stdlib only**: importable from the lowest simulator layers without
  creating dependency cycles;
* **additive regions**: a region entered N times accumulates total
  seconds and a call count, so per-kernel overhead aggregates naturally.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

__all__ = [
    "HostProfiler",
    "active_profiler",
    "profiling",
    "region",
    "set_region_sink",
]


class HostProfiler:
    """Accumulates wall-time by region name."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._start = time.perf_counter()

    def add(self, name: str, dt: float, count: int = 1) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + dt
        self.calls[name] = self.calls.get(name, 0) + count

    @contextmanager
    def region(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def total_seconds(self) -> float:
        return time.perf_counter() - self._start

    def report(self, extra: dict | None = None) -> dict:
        doc = {
            "total_seconds": self.total_seconds(),
            "regions": {
                name: {"seconds": self.seconds[name], "calls": self.calls[name]}
                for name in sorted(
                    self.seconds, key=lambda k: self.seconds[k], reverse=True
                )
            },
        }
        if extra:
            doc.update(extra)
        return doc

    def format_table(self) -> str:
        lines = [f"{'region':<34s} {'seconds':>9s} {'calls':>8s}"]
        for name in sorted(self.seconds, key=lambda k: self.seconds[k], reverse=True):
            lines.append(
                f"{name:<34s} {self.seconds[name]:9.3f} {self.calls[name]:8d}"
            )
        lines.append(f"{'(wall since start)':<34s} {self.total_seconds():9.3f}")
        return "\n".join(lines)

    def write_json(self, path: str | Path, extra: dict | None = None) -> None:
        Path(path).write_text(json.dumps(self.report(extra), indent=2) + "\n")


_active: HostProfiler | None = None

#: optional extra consumer of completed regions — ``fn(name, seconds)``.
#: The trace layer installs one so host regions land on the event
#: timeline; like the profiler itself, None (the default) is free.
_region_sink = None


def active_profiler() -> HostProfiler | None:
    """The currently-activated profiler, or None (the common, free case)."""
    return _active


def set_region_sink(sink):
    """Install ``fn(name, seconds)`` as the region sink; returns the
    previous sink so callers can restore it."""
    global _region_sink
    prev = _region_sink
    _region_sink = sink
    return prev


@contextmanager
def profiling():
    """Activate a fresh profiler for the duration of the block."""
    global _active
    prev = _active
    prof = HostProfiler()
    _active = prof
    try:
        yield prof
    finally:
        _active = prev


#: the context manager :func:`region` returns while nothing listens
_NULL_REGION = nullcontext()


def region(name: str):
    """Time a named region iff a profiler or sink is active.

    Inactive, it returns one shared null context manager, so the
    instrumented primitives pay no generator or allocation per call.
    """
    if _active is None and _region_sink is None:
        return _NULL_REGION
    return _timed_region(name)


@contextmanager
def _timed_region(name: str):
    prof = _active
    sink = _region_sink
    t0 = time.perf_counter()
    try:
        yield
    finally:
        dt = time.perf_counter() - t0
        if prof is not None:
            prof.add(name, dt)
        if sink is not None:
            sink(name, dt)
