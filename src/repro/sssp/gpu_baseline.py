"""BL: the synchronous push-mode GPU baseline (§5.2.1).

"We choose a synchronization SSSP algorithm based on push mode as baseline
(BL), which uses the static load balancing strategy."  This is the
Harish–Narayanan-style frontier Bellman-Ford every GPU graph framework
started from: one thread per active vertex, all out-edges relaxed each
iteration, a device-wide barrier between iterations, and no bucketing —
maximally parallel, maximally work-inefficient, and badly load-imbalanced
on power-law frontiers (the warp processing a hub vertex serializes over
its whole adjacency list while 31 lanes idle).
"""

from __future__ import annotations

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..graphs.csr import CSRGraph
from ..gpusim.device import subset_assignment
from ..gpusim.kernels import thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from .engine import SearchFrame
from .relax import FrontierFlags, relax_batch
from .result import SSSPResult

__all__ = ["bl_sssp"]


def bl_sssp(
    graph: CSRGraph,
    source: int,
    *,
    spec: GPUSpec = V100,
    max_iterations: int | None = None,
    recovery=None,
) -> SSSPResult:
    """Run the synchronous push-mode baseline on a simulated GPU.

    ``max_iterations=None`` applies the ``n + 2`` safety bound; an explicit
    value truncates (see :meth:`~repro.sssp.engine.SearchFrame.past_bound`).
    """
    frame = SearchFrame(graph, source, "bl", spec=spec, recovery=recovery)
    device, dgraph, dist = frame.device, frame.dgraph, frame.dist
    flags = FrontierFlags(device, graph.num_vertices)

    frontier = np.array([source], dtype=np.int64)
    iterations = 0
    # per-iteration telemetry is host-only and gated on an attached observer
    note_rounds = bool(device.handlers("on_annotate"))
    while frontier.size:
        iterations += 1
        if note_rounds:
            device.annotate(
                "bl_round", iteration=iterations, frontier=int(frontier.size)
            )
        if frame.past_bound(iterations, int(frontier.size), max_iterations):
            break
        frame.epoch()
        flags.new_round()
        try:
            with device.launch("bl_relax") as k:
                batch = dgraph.batch(frontier, "all")
                # static load balancing: one thread per active vertex
                a = thread_per_vertex_edges(batch.counts)
                targets, updated = relax_batch(
                    k, dgraph, dist, frontier, batch, a, frame.stats
                )
                if targets.size:
                    sub = subset_assignment(a, updated)
                    next_frontier = flags.push(k, targets[updated], sub)
                else:
                    next_frontier = np.zeros(0, dtype=np.int64)
        except InjectedKernelAbort as exc:
            frontier = frame.on_abort(exc)
            continue
        device.barrier()  # synchronous mode: barrier every iteration
        frontier = next_frontier

    return frame.result(iterations=iterations)
