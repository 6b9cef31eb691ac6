"""ADDS-like asynchronous Δ-stepping baseline (Wang et al., PPoPP'21).

ADDS ("A fast work-efficient SSSP algorithm for GPUs") is the paper's
strongest GPU competitor.  Its published design: asynchronous execution
over a near set and a far pile, Δ adjusted dynamically from runtime
feedback, thread-per-vertex work mapping, and *no* graph reordering — so it
is work-efficient but suffers the irregular memory access and load
imbalance the paper's PRO/ADWL attack ("Wang uses an asynchronous mode and
changes Δ, which … ignores irregular memory access problems").

This is a re-implementation of that design on the same simulated device as
RDBS so the Fig. 9/10 comparisons are like-for-like.  Differences from the
closed-source original are unavoidable; what is preserved (async execution,
work-efficient near/far batching, dynamic Δ, vertex-centric mapping on the
unsorted CSR) is exactly the behaviour the paper's comparison attributes to
ADDS.
"""

from __future__ import annotations

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..graphs.csr import CSRGraph
from ..gpusim.device import subset_assignment
from ..gpusim.kernels import grid_stride, thread_per_vertex_edges
from ..gpusim.spec import GPUSpec, V100
from ..util.scan import sorted_unique_ints
from .engine import SearchFrame
from .errors import ConvergenceError
from .gpu_rdbs import default_delta
from .relax import append_worklist, relax_batch
from .result import SSSPResult

__all__ = ["adds_sssp"]

_SCAN_THREADS = 32 * 256
#: near-set vertices processed per asynchronous micro-round
_CHUNK = 2048


def adds_sssp(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    spec: GPUSpec = V100,
    max_steps: int = 10_000_000,
    recovery=None,
) -> SSSPResult:
    """Run the ADDS-like asynchronous baseline on a simulated GPU."""
    n = graph.num_vertices
    frame = SearchFrame(graph, source, "adds", spec=spec, recovery=recovery)
    device, dgraph, dist = frame.device, frame.dgraph, frame.dist
    if delta is None:
        delta = default_delta(graph)

    threshold = delta
    cur_delta = delta
    near: list[np.ndarray] = [np.array([source], dtype=np.int64)]
    in_near = np.zeros(n, dtype=bool)
    in_near[source] = True
    far_mask = np.zeros(n, dtype=bool)
    # device-resident near worklist and far pile: insertions append densely
    # behind rolling cursors (coalesced stores), overflowing into
    # vertex-addressed spill arrays.  Write-only scratch, so the storage
    # stays uninitialized (cudaMalloc semantics) — a read before a write
    # is a bug the sanitizer flags.
    slot_cap = max(graph.num_edges, 1)
    near_slots = device.empty(slot_cap, dtype=np.int64, name="near_slots")
    far_slots = device.empty(slot_cap, dtype=np.int64, name="far_slots")
    near_spill = device.empty(n, dtype=np.int64, name="near_spill")
    far_spill = device.empty(n, dtype=np.int64, name="far_spill")
    cursors = {"near": 0, "far": 0}
    counters = {"steps": 0, "rounds": 0}
    # dynamic-Δ feedback: aim to keep a near set around the device's
    # resident-warp parallelism (ADDS's utilization-driven adjustment)
    target = spec.resident_warps

    while near or far_mask.any():
        frame.epoch()
        if not near:
            candidates = np.flatnonzero(far_mask)
            if candidates.size == 0:
                break
            min_far = float(dist.data[candidates].min())
            threshold = max(threshold + cur_delta, min_far + cur_delta)
            try:
                with device.launch("adds_split") as k:
                    a = grid_stride(candidates.size, _SCAN_THREADS)
                    dvals = k.gather(dist, candidates, a)
                    # one ballot round partitions near/far; the stable
                    # bucket order is the candidates' original order
                    keys = (dvals >= threshold).astype(np.int64)
                    order, offs = k.multisplit(keys, 2, a)
                    promote = candidates[order[: offs[1]]]
            except InjectedKernelAbort as exc:
                near = _adds_reseed(frame, exc, in_near, far_mask)
                continue
            device.barrier()
            far_mask[promote] = False
            in_near[promote] = True
            if device.handlers("on_annotate"):
                device.annotate(
                    "adds_split", threshold=threshold, delta=cur_delta,
                    promoted=int(promote.size),
                    far_remaining=int(candidates.size - promote.size),
                )
            if promote.size:
                near.append(promote)
            # Δ feedback: grow Δ when batches under-fill the device,
            # shrink when they flood it (work efficiency).  ADDS adjusts Δ
            # within a bounded range around its initial guess; unbounded
            # growth would degenerate to Bellman-Ford
            if promote.size < target // 2:
                cur_delta = min(cur_delta * 1.25, delta * 16.0)
            elif promote.size > target * 8:
                cur_delta = max(cur_delta / 1.25, delta)
            continue

        # ---- asynchronous near-set processing: one persistent kernel ----
        try:
            with device.launch("adds_async") as k:
                _adds_async(
                    k, dgraph, dist, near, in_near, far_mask,
                    near_slots, far_slots, near_spill, far_spill, cursors,
                    frame.stats, threshold, max_steps, cur_delta, counters,
                )
        except ConvergenceError as exc:
            frame.recover(exc)
            break  # the final repair sweeps restore the fixpoint
        except InjectedKernelAbort as exc:
            near = _adds_reseed(frame, exc, in_near, far_mask)
            continue
        device.barrier()

    return frame.result(
        rounds=counters["rounds"], delta0=delta, final_delta=cur_delta
    )


def _adds_async(
    k, dgraph, dist, near, in_near, far_mask,
    near_slots, far_slots, near_spill, far_spill, cursors, stats,
    threshold, max_steps, cur_delta, counters,
):
    """Drain the near worklist inside one persistent asynchronous kernel.

    Insertions append behind the rolling ``cursors`` into ``near_slots``
    / ``far_slots`` (:func:`~repro.sssp.relax.append_worklist`).
    """
    # per-round telemetry is host-only and gated on an attached observer
    note_rounds = bool(k.device.handlers("on_annotate"))
    while near:
        counters["steps"] += 1
        if counters["steps"] > max_steps:
            raise ConvergenceError(
                "ADDS step limit exceeded",
                method="adds", iterations=counters["steps"] - 1,
                frontier=sum(int(c.size) for c in near), delta=cur_delta,
            )
        chunk = near.pop(0)
        if chunk.size > _CHUNK:
            near.insert(0, chunk[_CHUNK:])
            chunk = chunk[:_CHUNK]
        in_near[chunk] = False
        counters["rounds"] += 1
        if note_rounds:
            k.device.annotate(
                "adds_round", round=counters["rounds"],
                drained=int(chunk.size),
                near_pending=int(sum(part.size for part in near)),
            )

        batch = dgraph.batch(chunk, "all")
        a = thread_per_vertex_edges(batch.counts)
        out = relax_batch(k, dgraph, dist, chunk, batch, a, stats)
        k.async_round()
        if out.targets.size == 0:
            continue
        upd = out.targets[out.updated]
        if upd.size == 0:
            continue
        # classify on the value the winning atomic wrote (register
        # resident) rather than an un-counted host re-read of dist; one
        # 2-way ballot multisplit replaces the divergent branch, its
        # stable bucket order keeping the updated-target order
        is_near = out.new_dist[out.updated] < threshold
        sub = subset_assignment(a, out.updated)
        order, offs = k.multisplit((~is_near).astype(np.int64), 2, sub)
        near_hits = upd[order[: offs[1]]]
        far_hits = upd[order[offs[1]:]]

        fresh = sorted_unique_ints(near_hits)
        fresh = fresh[~in_near[fresh]]
        if fresh.size:
            in_near[fresh] = True
            far_mask[fresh] = False
            near.append(fresh)
            cursors["near"] = append_worklist(
                k, near_slots, near_spill, cursors["near"], fresh
            )
        far_new = sorted_unique_ints(far_hits)
        far_new = far_new[~in_near[far_new]]
        if far_new.size:
            far_mask[far_new] = True
            cursors["far"] = append_worklist(
                k, far_slots, far_spill, cursors["far"], far_new
            )


def _adds_reseed(frame, exc, in_near, far_mask):
    """Roll back after an aborted kernel and rebuild the near worklist.

    Every finite vertex of the restored checkpoint re-enters the near set;
    re-relaxing settled vertices costs extra work but cannot change a
    correct distance.
    """
    fin = frame.on_abort(exc)
    in_near[:] = False
    in_near[fin] = True
    far_mask[:] = False
    return [fin] if fin.size else []
