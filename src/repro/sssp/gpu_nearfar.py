"""Near-Far Δ-stepping (Davidson et al., IPDPS'14) — the 2-bucket baseline.

The paper positions Near-Far as the historical middle ground: "It only uses
two buckets named Near and Far, and executes SSSP search in synchronous
mode, leading to work inefficiency."  The algorithm keeps a moving
threshold; relaxations whose result lands below the threshold go to the
*near* pile (processed now), the rest to the *far* pile (reconsidered after
the threshold advances by Δ).  Included as an additional baseline for the
ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..graphs.csr import CSRGraph
from ..gpusim.device import subset_assignment
from ..gpusim.kernels import grid_stride, thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from .engine import SearchFrame
from .errors import ConvergenceError
from .gpu_rdbs import default_delta
from .relax import relax_batch
from .result import SSSPResult

__all__ = ["nearfar_sssp"]

_SCAN_THREADS = 32 * 256


def nearfar_sssp(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    spec: GPUSpec = V100,
    max_iterations: int = 10_000_000,
    recovery=None,
) -> SSSPResult:
    """Run synchronous Near-Far on a simulated GPU."""
    n = graph.num_vertices
    frame = SearchFrame(graph, source, "near-far", spec=spec,
                        recovery=recovery)
    device, dgraph, dist = frame.device, frame.dgraph, frame.dist
    if delta is None:
        delta = default_delta(graph)

    threshold = delta
    near = np.array([source], dtype=np.int64)
    far_mask = np.zeros(n, dtype=bool)
    # windowed far pile: the host mirrors each far vertex's latest
    # inserted distance — exactly the register-resident value the winning
    # atomic wrote, so ``far_val[v] == dist[v]`` for every far member —
    # and buckets it on the absolute Δ-grid.  Threshold advances then
    # promote every full window below the grid cell holding the threshold
    # wholesale; only the straddling boundary window needs the counted
    # gather-and-ballot split.
    far_val = np.full(n, np.inf)
    iterations = 0

    while near.size or far_mask.any():
        if near.size == 0:
            # advance the threshold and split the far pile (one scan kernel)
            candidates = np.flatnonzero(far_mask)
            finite = candidates[np.isfinite(dist.data[candidates])]
            if finite.size == 0:
                break
            min_far = float(dist.data[finite].min())
            threshold = max(threshold + delta, min_far + delta)
            vals = far_val[candidates]
            # grid cell holding the threshold, clamped so float rounding
            # can never misplace the promote boundary
            grid_lo = min(float(np.floor(threshold / delta) * delta),
                          threshold)
            grid_hi = max(grid_lo + delta, threshold)
            full = candidates[vals < grid_lo]
            boundary = candidates[(vals >= grid_lo) & (vals < grid_hi)]
            promote_b = np.zeros(0, dtype=np.int64)
            if boundary.size:
                try:
                    with device.launch("nearfar_split") as k:
                        a = grid_stride(boundary.size, _SCAN_THREADS)
                        dvals = k.gather(dist, boundary, a)
                        keys = (dvals >= threshold).astype(np.int64)
                        order, offs = k.multisplit(keys, 2, a)
                        promote_b = boundary[order[: offs[1]]]
                except InjectedKernelAbort as exc:
                    _nearfar_reseed(frame, exc, far_mask, far_val)
                    near = np.zeros(0, dtype=np.int64)
                    continue
                device.barrier()
            promote = np.union1d(full, promote_b)
            far_val[promote] = np.inf
            far_mask[promote] = False
            near = promote
            continue

        iterations += 1
        if iterations > max_iterations:
            frame.recover(ConvergenceError(
                "near-far iteration limit exceeded",
                method="near-far", iterations=iterations - 1,
                frontier=int(near.size), delta=delta,
            ))
            break  # the final repair sweeps restore the fixpoint
        frame.epoch()
        try:
            with device.launch("nearfar_relax") as k:
                batch = dgraph.batch(near, "all")
                a = thread_per_vertex_edges(batch.counts)
                out = relax_batch(k, dgraph, dist, near, batch, a,
                                  frame.stats)
                if out.targets.size:
                    upd_targets = out.targets[out.updated]
                    # classify on the value the winning atomic wrote — the
                    # register-resident result, not an un-counted dist re-read
                    new_vals = out.new_dist[out.updated]
                    is_near = new_vals < threshold
                    sub = subset_assignment(a, out.updated)
                    # one ballot round partitions near/far; the stable
                    # bucket order keeps the updated-target order
                    order, offs = k.multisplit(
                        (~is_near).astype(np.int64), 2, sub)
                    near_hits = upd_targets[order[: offs[1]]]
                    far_hits = upd_targets[order[offs[1]:]]
                    far_hit_vals = new_vals[order[offs[1]:]]
                else:
                    near_hits = np.zeros(0, dtype=np.int64)
                    far_hits = np.zeros(0, dtype=np.int64)
                    far_hit_vals = np.zeros(0)
        except InjectedKernelAbort as exc:
            _nearfar_reseed(frame, exc, far_mask, far_val)
            near = np.zeros(0, dtype=np.int64)
            continue
        device.barrier()

        near_next = np.unique(near_hits)
        far_new = np.unique(far_hits)
        far_mask[far_new] = True
        # a vertex pulled below the threshold leaves the far pile
        far_mask[near_next] = False
        # duplicate targets take the per-target minimum — the value the
        # cell holds after the round's atomics
        np.minimum.at(far_val, far_hits, far_hit_vals)
        far_val[near_next] = np.inf
        near = near_next

    return frame.result(iterations=iterations, delta=delta)


def _nearfar_reseed(frame, exc, far_mask, far_val):
    """Roll back after an aborted kernel and rebuild the worklist.

    Every finite vertex of the restored checkpoint goes to the far pile,
    its value mirror rebuilt from the restored distances; the next
    threshold advance re-promotes whatever still needs work.  Re-relaxing
    already-settled vertices costs extra work but cannot change a correct
    distance.  The near set restarts empty.
    """
    fin = frame.on_abort(exc)
    far_mask[:] = False
    far_mask[fin] = True
    far_val[:] = np.inf
    far_val[fin] = frame.dist.data[fin]
