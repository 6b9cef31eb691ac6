"""Measurement: work efficiency, convergence, throughput."""

from .convergence import ConvergenceCurve, convergence_from_trace
from .gteps import geometric_mean, gteps, speedup
from .workstats import WorkStats, WorkTally

__all__ = [
    "WorkStats",
    "WorkTally",
    "gteps",
    "speedup",
    "geometric_mean",
    "ConvergenceCurve",
    "convergence_from_trace",
]
