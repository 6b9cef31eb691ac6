"""Convergence analysis: how fast distances settle over a run.

The paper's §3.3 argues synchronous Δ-stepping converges slowly (barriers
between iteration layers) and §4.3 that asynchronous execution
"accelerates the convergence of SSSP search".  This module quantifies
that claim from a traced run (:mod:`repro.trace`): the fraction of
finally-settled vertices as a function of processed buckets / rounds,
plus summary indices (area-under-curve and the 90%-settled point) that
the ablation benchmarks and examples report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ConvergenceCurve", "convergence_from_trace"]


@dataclass(frozen=True)
class ConvergenceCurve:
    """Settled-vertex progress over bucket-sequence position."""

    #: cumulative settled vertices after each bucket (monotone)
    settled: np.ndarray
    #: total vertices eventually settled
    total: int

    @property
    def fractions(self) -> np.ndarray:
        """Settled fraction after each bucket (0..1]."""
        if self.total == 0:
            return np.zeros_like(self.settled, dtype=np.float64)
        return self.settled / self.total

    @property
    def auc(self) -> float:
        """Area under the settled-fraction curve (1.0 = instant).

        Higher means earlier convergence; the summary statistic the
        sync-vs-async ablation compares.
        """
        f = self.fractions
        if f.size == 0:
            return 0.0
        return float(f.mean())

    def quantile_position(self, q: float = 0.9) -> int:
        """First bucket index at which >= ``q`` of vertices are settled."""
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        f = self.fractions
        hit = np.flatnonzero(f >= q)
        return int(hit[0]) if hit.size else int(f.size)


def convergence_from_trace(tracer) -> ConvergenceCurve:
    """Build the curve from the bucket spans of a
    :class:`~repro.trace.Tracer`.

    Uses each bucket's ``active`` count as its settled contribution (in
    Δ-stepping every bucket member is settled when the bucket closes).
    Raises ``ValueError`` if the tracer's ring buffer overflowed.
    """
    sizes = np.array(
        [e.args["active"] for e in tracer.select("bucket")], dtype=np.int64
    )
    settled = np.cumsum(sizes)
    total = int(sizes.sum())
    return ConvergenceCurve(settled=settled, total=total)
