"""In-memory span tracing of the benchmark's traced run.

Spans are recorded from the benchmark's own files only: :func:`wrapped`
temporarily replaces public entry points of the program's layers with
span-opening wrappers and restores the originals on exit, so the program
itself carries no instrumentation and untraced runs carry no wrappers.
Spans are kept in memory and written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

__all__ = ["Span", "Tracer", "wrapped"]


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: index of the enclosing span in ``Tracer.spans``, -1 for a root
    parent: int = -1
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans on the host clock, kept in a list."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **args):
        parent = self._stack[-1] if self._stack else -1
        rec = Span(name, time.perf_counter(), parent=parent, args=args)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        """Inclusive seconds of every span called ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        out: dict[str, float] = {}
        for s, c in zip(self.spans, child):
            out[s.name] = out.get(s.name, 0.0) + s.duration - c
        return out

    def write(self, path: Path, extra: dict) -> None:
        doc = {
            **extra,
            "self_s": self.self_times(),
            "spans": [
                [s.name, s.start, s.end, s.parent, s.args] for s in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n")


def _wrap(tracer: Tracer, name: str, fn, on_result=None, on_args=None):
    @functools.wraps(fn)
    def wrapper(*a, **kw):
        with tracer.span(name) as rec:
            if on_args is not None:
                on_args(rec, a, kw)
            out = fn(*a, **kw)
            if on_result is not None:
                on_result(rec, out)
            return out

    return wrapper


@contextmanager
def wrapped(tracer: Tracer):
    """Install span wrappers on the layers' entry points for the block.

    Layers and the names their spans get:

    * ``serve.exact`` — the scheduler's exact solves (``sssp``;
      ``args.sim_ms`` is the solve's simulated time);
    * ``serve.validate`` — the scheduler's SciPy checks;
    * ``serve.oracle`` — landmark warm-up and certification;
    * ``serve.lru`` — ``DistanceFieldLRU`` reads and writes;
    * ``gpusim.cache_stream`` — ``CacheStream.hit_count`` (one call per
      launch with loads; ``args.lines`` is the stream length);
    * ``gpusim.coalesce`` — the device's ``memory.coalesce`` calls.
    """
    from repro.gpusim import cachemodel, device
    from repro.serve import cache, scheduler

    def certified(rec, out):
        rec.args["certified"] = out is not None

    def simulated(rec, out):
        rec.args["sim_ms"] = float(out.time_ms)

    def lines(rec, a, kw):
        rec.args["lines"] = int(a[1].size)

    patches = [
        (scheduler, "sssp", "serve.exact", simulated, None),
        (scheduler, "validate_distances", "serve.validate", None, None),
        (scheduler, "scipy_distances", "serve.validate", None, None),
        (scheduler, "warm_oracle", "serve.oracle", None, None),
        (scheduler, "certified_answer", "serve.oracle", certified, None),
        (cache.DistanceFieldLRU, "get", "serve.lru", None, None),
        (cache.DistanceFieldLRU, "peek", "serve.lru", None, None),
        (cache.DistanceFieldLRU, "put", "serve.lru", None, None),
        (cachemodel.CacheStream, "hit_count", "gpusim.cache_stream", None, lines),
        (device, "coalesce", "gpusim.coalesce", None, None),
    ]
    saved = []
    try:
        for owner, attr, name, on_result, on_args in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, on_result, on_args))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
