"""Classic synchronous Δ-stepping on the CPU (Meyer & Sanders, §2.2).

This is the Graph500-reference-style implementation the paper uses for its
motivation study: fixed Δ, three phases per bucket, and a synchronization
barrier after every phase-1 iteration.  Under an active tracer
(:func:`repro.trace.tracing`) it publishes the per-bucket and
per-iteration series behind Fig. 2 ("the active vertices in each bucket")
and Fig. 3 ("the detailed analysis of phase 1 in peak overhead of the
bucket"), including the valid/total update counts: one ``bucket`` span
per bucket, one ``sync_round`` counter per phase-1 iteration and, after
convergence, one ``phase1_updates`` counter per bucket.  The method has
no simulated device, so these events sit on the host clock.

The relaxations use the same serialized atomic-min semantics as the GPU
simulator (:func:`repro.util.scan.serialized_min_outcome`) so update counts
are comparable across CPU and GPU implementations.
"""

from __future__ import annotations

import numpy as np

from ..graphs.csr import CSRGraph
from ..metrics.workstats import WorkStats
from ..util.scan import segmented_arange, serialized_min_outcome
from .result import SSSPResult

__all__ = ["delta_stepping_cpu"]


def delta_stepping_cpu(
    graph: CSRGraph,
    source: int,
    delta: float | None = None,
    *,
    max_buckets: int = 1_000_000,
) -> SSSPResult:
    """Run synchronous Δ-stepping; return distances and work tally.

    Parameters
    ----------
    graph:
        input graph (no preprocessing required).
    source:
        source vertex id.
    delta:
        fixed bucket width Δ (defaults to the mean-weight/average-degree
        heuristic of :func:`repro.sssp.gpu_rdbs.default_delta`).
    max_buckets:
        safety valve against pathological inputs.
    """
    n = graph.num_vertices
    if not 0 <= source < n:
        raise ValueError(f"source {source} out of range for {n} vertices")
    if delta is None:
        from .gpu_rdbs import default_delta

        delta = default_delta(graph)
    if delta <= 0:
        raise ValueError("delta must be positive")

    row, adj, w = graph.row, graph.adj, graph.weights
    light_mask = w < delta

    dist = np.full(n, np.inf)
    dist[source] = 0.0
    stats = WorkStats()
    stats.record(
        np.array([source]), np.array([0.0]), np.array([True])
    )  # the source initialization counts as one (valid) update
    from ..trace.tracer import active_tracer

    tracer = active_tracer()
    #: per-bucket phase-1 work recorders (traced runs only), classified
    #: after convergence
    bucket_phase1: list[tuple[int, WorkStats]] = []

    lo = 0.0
    buckets_processed = 0
    total_iterations = 0

    while True:
        # find the next non-empty bucket (phase 3 of the previous round)
        unsettled = np.isfinite(dist) & (dist >= lo)
        if not unsettled.any():
            break
        k = int(np.floor(dist[unsettled].min() / delta))
        lo = k * delta
        hi = lo + delta
        members = np.flatnonzero((dist >= lo) & (dist < hi))
        buckets_processed += 1
        if buckets_processed > max_buckets:
            raise RuntimeError("bucket limit exceeded; check edge weights")

        p1 = None
        if tracer is not None:
            opened_ms = tracer.host_ms()
            rounds = 0
            p1 = WorkStats()
            bucket_phase1.append((k, p1))

        # ------------------------------------------------------------------
        # phase 1: relax light edges until the bucket stops changing
        # ------------------------------------------------------------------
        in_r = np.zeros(n, dtype=bool)  # all vertices ever in this bucket
        frontier = members
        while frontier.size:
            total_iterations += 1
            if tracer is not None:
                rounds += 1
                tracer.emit(
                    "counter", "sync_round", tracer.host_ms(), device=-1,
                    args={"bucket": k, "round": rounds,
                          "frontier": int(frontier.size)},
                )
            in_r[frontier] = True
            v, nd, updated = _relax(
                frontier, dist, row, adj, w, light_mask, light=True
            )
            stats.record(v, nd, updated)
            if p1 is not None:
                p1.record(v, nd, updated)
            if v.size == 0:
                break
            touched = np.unique(v[updated])
            frontier = touched[(dist[touched] >= lo) & (dist[touched] < hi)]

        # ------------------------------------------------------------------
        # phase 2: relax heavy edges of everything the bucket settled
        # ------------------------------------------------------------------
        settled = np.flatnonzero(in_r)
        v, nd, updated = _relax(
            settled, dist, row, adj, w, light_mask, light=False
        )
        stats.record(v, nd, updated)

        if tracer is not None:
            now = tracer.host_ms()
            tracer.emit(
                "bucket", f"bucket {k}", opened_ms, now - opened_ms,
                device=-1,
                args={"index": k, "lo": lo, "hi": hi,
                      "active": int(members.size), "rounds": rounds},
            )
        lo = hi

    tally = stats.finalize(dist)
    if tracer is not None:
        now = tracer.host_ms()
        for bucket_id, p1 in bucket_phase1:
            t = p1.finalize(dist)
            tracer.emit(
                "counter", "phase1_updates", now, device=-1,
                args={"bucket": bucket_id, "total": t.total_updates,
                      "valid": t.valid_updates},
            )

    return SSSPResult(
        dist=dist,
        source=source,
        method="delta-cpu",
        graph_name=graph.name,
        work=tally,
        num_edges=graph.num_edges,
        extra={
            "buckets": buckets_processed,
            "phase1_iterations": total_iterations,
            "delta": delta,
        },
    )


def _relax(
    vertices: np.ndarray,
    dist: np.ndarray,
    row: np.ndarray,
    adj: np.ndarray,
    w: np.ndarray,
    light_mask: np.ndarray,
    *,
    light: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relax the light (or heavy) out-edges of ``vertices``; returns
    ``(targets, proposed, updated)``."""
    if vertices.size == 0:
        empty = np.zeros(0)
        return empty.astype(np.int64), empty, empty.astype(bool)
    counts = (row[vertices + 1] - row[vertices]).astype(np.int64)
    idx = np.repeat(row[vertices], counts) + segmented_arange(counts)
    keep = light_mask[idx] if light else ~light_mask[idx]
    idx = idx[keep]
    src_of_edge = np.repeat(vertices, counts)[keep]
    v = adj[idx]
    nd = dist[src_of_edge] + w[idx]
    _old, updated = serialized_min_outcome(dist, v, nd)
    return v, nd, updated
