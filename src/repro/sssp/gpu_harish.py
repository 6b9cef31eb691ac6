"""Harish–Narayanan (HiPC 2007): the original topology-driven GPU SSSP.

The first GPU SSSP the paper's related work cites: "Initially, Harish and
Narayanan implement the SSSP algorithm on GPU using the CUDA model.  It
takes advantage of the parallel resources of GPU.  Based on synchronous
push mode, the work efficiency and memory efficiency of this work are
poor" (§1).

The design is *topology-driven*: there is no frontier queue at all — every
iteration launches a thread for **every vertex**, each checks a per-vertex
mask, relaxes its out-edges if marked, and marks its updated neighbours;
iterate until no mask is set.  Memory-inefficient (the whole mask and
distance array are re-read every iteration) and divergence-heavy (most
threads find their mask unset and idle), which is exactly why the
frontier-based BL baseline superseded it.  Included as the historical
datum for the ablation benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..graphs.csr import CSRGraph
from ..gpusim.device import subset_assignment
from ..gpusim.kernels import thread_per_item, thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from .engine import SearchFrame
from .relax import relax_batch
from .result import SSSPResult

__all__ = ["harish_narayanan_sssp"]


def harish_narayanan_sssp(
    graph: CSRGraph,
    source: int,
    *,
    spec: GPUSpec = V100,
    max_iterations: int | None = None,
    recovery=None,
) -> SSSPResult:
    """Run the topology-driven 2007 baseline on a simulated GPU.

    ``max_iterations=None`` applies the ``n + 2`` safety bound; an explicit
    value truncates (see :meth:`~repro.sssp.engine.SearchFrame.past_bound`).
    """
    n = graph.num_vertices
    frame = SearchFrame(
        graph, source, "harish-narayanan", spec=spec, recovery=recovery
    )
    device, dgraph, dist = frame.device, frame.dgraph, frame.dist
    mask = device.zeros(n, dtype=np.int8, name="mask")
    device.host_store(mask, source, np.int8(1))

    all_vertices = np.arange(n, dtype=np.int64)
    iterations = 0
    while True:
        iterations += 1
        active = np.flatnonzero(mask.data)
        if active.size == 0:
            break
        if frame.past_bound(iterations, int(active.size), max_iterations):
            break
        frame.epoch()
        try:
            with device.launch("hn_relax") as k:
                # every vertex gets a thread and reads its mask (the
                # topology-driven overhead: n loads per iteration)
                a_all = thread_per_item(n)
                flags = k.gather(mask, all_vertices, a_all)
                k.branch(a_all, flags != 0)
                # marked vertices clear their mask and relax all out-edges
                sub = subset_assignment(a_all, flags != 0)
                k.scatter(
                    mask, active, np.zeros(active.size, dtype=np.int8), sub
                )
                batch = dgraph.batch(active, "all")
                a = thread_per_vertex_edges(batch.counts)
                targets, updated = relax_batch(
                    k, dgraph, dist, active, batch, a, frame.stats
                )
                if targets.size and updated.any():
                    # the original uses two kernels (relax into an
                    # updating-cost array, then commit) precisely because
                    # re-marking races the mask clear above; model that
                    # split with a device-wide sync
                    k.device_barrier()
                    sub_u = subset_assignment(a, updated)
                    k.scatter(
                        mask,
                        targets[updated],
                        np.ones(int(updated.sum()), dtype=np.int8),
                        sub_u,
                    )
        except InjectedKernelAbort as exc:
            # the mask array is not checkpointed; conservatively re-mark
            # every finite vertex so no relaxation is lost
            fin = frame.on_abort(exc)
            device.host_store(
                mask, all_vertices, np.zeros(n, dtype=np.int8)
            )
            device.host_store(mask, fin, np.ones(fin.size, dtype=np.int8))
            continue
        device.barrier()

    return frame.result(iterations=iterations)
