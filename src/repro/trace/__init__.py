"""repro.trace — structured event tracing for the simulated GPU.

A third consumer of the :class:`~repro.gpusim.device.GPUDevice` observer
seam (after the sanitizer and the fault injector): :class:`Tracer`
records typed spans and instants — kernel launches with their counted
work, bucket open/close with the Δ_i/ε_i/C/T inputs to the paper's
Eq. 1–2, ADWL classification histograms, asynchronous drain rounds,
fault and recovery events — into a bounded ring buffer, exportable as
Chrome ``trace_event`` JSON (Perfetto-loadable), JSONL, or a terminal
summary.  Tracing off is byte-identical on the deterministic benchmark
gate.  Guide: ``docs/observability.md``.
"""

from .driver import traced_sssp
from .export import (
    format_summary,
    kernel_table,
    load_trace,
    to_chrome,
    write_chrome,
    write_jsonl,
)
from .tracer import (
    DEFAULT_CAPACITY,
    TraceEvent,
    Tracer,
    active_tracer,
    tracing,
)

__all__ = [
    "DEFAULT_CAPACITY",
    "TraceEvent",
    "Tracer",
    "active_tracer",
    "tracing",
    "traced_sssp",
    "to_chrome",
    "write_chrome",
    "write_jsonl",
    "load_trace",
    "format_summary",
    "kernel_table",
]
