"""RDBS: the paper's bucket-aware asynchronous Δ-stepping engine (§4).

One engine implements all four arms of the paper's Fig. 8 through three
independent toggles:

* ``pro``   — property-driven reordering preprocessing (§4.1): run on a
  degree-relabeled, weight-sorted CSR with heavy-edge offsets, so light
  edges are a contiguous prefix located without branching;
* ``adwl``  — adaptive load balancing (§4.2): phase 1 classifies active
  vertices into small/middle/large workload lists and dynamic parallelism
  right-sizes child kernels (32/256 threads) per vertex; phases 2&3 use a
  fused, statically balanced edge-parallel kernel;
* ``basyn`` — bucket-aware asynchronous execution (§4.3): phase 1 runs as
  one persistent kernel draining workload lists in micro-rounds without
  barriers, updates are immediately visible, and the bucket width Δ_i is
  re-adjusted per bucket from converged-vertex and thread-utilization
  feedback (Eqs. 1–2).

With all three off the engine degenerates to the classic synchronous
GPU Δ-stepping of §2.2 (which doubles as the ablation baseline).  The
default configuration (all on) is the paper's RDBS.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..faults.plan import InjectedKernelAbort
from ..faults.runtime import Watchdog, WatchdogTimeout
from ..graphs.csr import CSRGraph
from ..gpusim.compaction import compact_multisplit
from ..gpusim.device import GPUDevice, KernelContext
from ..gpusim.dynamic import classify_multisplit, launch_adaptive
from ..gpusim.kernels import (
    grid_stride,
    thread_per_item,
    thread_per_vertex_edges,
)
from ..gpusim.spec import GPUSpec, V100
from ..util.scan import sorted_unique_ints
from ..metrics.workstats import WorkStats
from ..reorder.pipeline import apply_pro
from .buckets import DeltaController
from .engine import SearchFrame
from .errors import ConvergenceError
from .relax import DeviceGraph, append_worklist, relax_batch
from .result import SSSPResult

__all__ = ["rdbs_sssp", "default_delta", "BUCKET_RESCALE"]

#: factor Δ is widened by when the bucket-limit graceful-degradation retry
#: fires (a fixed factor keeps the retry deterministic and lets genuinely
#: hopeless Δ/limit combinations still fail fast)
BUCKET_RESCALE = 8.0

#: active vertices processed per asynchronous micro-round; newly activated
#: vertices become visible to the following micro-round, which is how the
#: engine models immediate update visibility without barriers
ASYNC_CHUNK = 2048

#: thread count of the fused phase-2&3 kernel (static load balancing)
PHASE23_THREADS = 32 * 256


def default_delta(graph: CSRGraph) -> float:
    """The empirical Δ heuristic: mean weight over average degree, ×2.

    Matches the classic Meyer–Sanders guidance Δ = Θ(1 / d̄) scaled by the
    weight range; for Graph500 unit weights at edgefactor 16 it lands near
    the paper's empirical Δ = 0.1.
    """
    if graph.num_edges == 0:
        return 1.0
    mean_w = float(graph.weights.mean())
    avg_deg = max(graph.average_degree, 1.0)
    return max(2.0 * mean_w / avg_deg, 1e-12)


@dataclass
class _BucketOutcome:
    """Phase-1 bookkeeping for one bucket."""

    settled: np.ndarray
    threads_used: int
    rounds: int


def rdbs_sssp(
    graph: CSRGraph,
    source: int,
    *,
    delta: float | None = None,
    pro: bool = True,
    adwl: bool = True,
    basyn: bool = True,
    spec: GPUSpec = V100,
    max_buckets: int = 1_000_000,
    async_chunk: int = ASYNC_CHUNK,
    recovery=None,
) -> SSSPResult:
    """Run the RDBS engine (or any ablation arm) on a simulated GPU.

    Returns distances in the ids of ``graph`` even when ``pro`` relabels
    internally.  ``async_chunk`` sets how many active vertices
    each asynchronous micro-round drains (smaller = fresher distances /
    fewer redundant updates, larger = fewer scheduling rounds).

    ``recovery`` (``True`` or a :class:`repro.faults.RecoveryPolicy`)
    enables the self-healing runtime: epoch checkpoints, invariant probes,
    an async-phase watchdog that degrades BASYN to synchronous execution,
    and final verify/repair sweeps.  Off (``None``) it costs nothing.

    When the bucket limit trips, the engine degrades gracefully once:
    Δ is widened by :data:`BUCKET_RESCALE` and the search restarts (the
    result's ``extra["delta_rescaled"]`` records it); a second trip raises
    :class:`~repro.sssp.errors.ConvergenceError`.
    """
    if async_chunk < 1:
        raise ValueError("async_chunk must be >= 1")
    if delta is None:
        delta = default_delta(graph)
    if delta <= 0:
        raise ValueError("delta must be positive")

    run = functools.partial(
        _rdbs_run, graph, source, pro=pro, adwl=adwl, basyn=basyn,
        spec=spec, max_buckets=max_buckets,
        async_chunk=async_chunk, recovery=recovery,
    )
    try:
        return run(delta=delta, rescaled=False)
    except ConvergenceError as exc:
        if "bucket limit" not in exc.reason:
            raise
        return run(delta=delta * BUCKET_RESCALE, rescaled=True)


def _rdbs_run(
    graph: CSRGraph,
    source: int,
    *,
    delta: float,
    pro: bool,
    adwl: bool,
    basyn: bool,
    spec: GPUSpec,
    max_buckets: int,
    async_chunk: int,
    recovery,
    rescaled: bool,
) -> SSSPResult:
    """One full search at a fixed Δ (see :func:`rdbs_sssp`)."""
    n = graph.num_vertices
    method = "rdbs" if (pro and adwl and basyn) else _arm_name(pro, adwl, basyn)
    # PRO preprocessing is not timed, matching the paper's methodology
    frame = SearchFrame(
        graph, source, method, spec=spec, recovery=recovery,
        relabel=(lambda g: apply_pro(g, delta)) if pro else None,
    )
    device, dgraph, dist, stats = (
        frame.device, frame.dgraph, frame.dist, frame.stats
    )
    # execution strategy follows the graph's actual capabilities: a caller
    # may hand in a graph that already carries heavy offsets (pre-applied
    # PRO) with pro=False — it still gets branch-free light/heavy ranges
    use_offsets = dgraph.heavy is not None
    in_queue = np.zeros(n, dtype=bool)  # host mirror of the queue flags
    # device buffer receiving the compacted next-bucket candidates; sized
    # to the edge count because duplicate updates (several heavy edges
    # improving one vertex in one pass) each append an entry.  Write-only
    # scratch — left uninitialized (cudaMalloc semantics)
    candidate_buf = device.empty(
        max(graph.num_edges, 1), dtype=np.int64, name="candidates"
    )
    # BASYN's device-resident workload lists (see _phase1_async): allocated
    # once per run, their cursor restarts at 0 in every bucket
    worklists = (
        device.empty(
            max(graph.num_edges, 1), dtype=np.int64, name="workload_slots"
        ),
        device.empty(n, dtype=np.int64, name="workload_spill"),
    ) if basyn else None
    #: live BASYN toggle — the watchdog degrades it to synchronous mid-run
    basyn_active = basyn
    controller = DeltaController(delta) if basyn_active else None
    lo = 0.0
    buckets_processed = 0
    total_rounds = 0

    while True:
        unsettled = np.isfinite(dist.data) & (dist.data >= lo)
        if not unsettled.any():
            break
        frame.epoch(mark=lo)
        min_unsettled = float(dist.data[unsettled].min())

        # next bucket interval: dynamic (Eq. 1–2) or fixed width
        if controller is not None:
            interval = controller.next_interval()
            b_lo, b_hi = interval.lo, interval.hi
            bucket_id = interval.index
            eps_i = controller.epsilons[-1]
            if b_hi <= min_unsettled:
                # empty bucket: report zero feedback and move on cheaply
                controller.feedback(0, 0)
                lo = b_hi
                continue
        else:
            bucket_id = int(np.floor(min_unsettled / delta))
            b_lo = bucket_id * delta
            b_hi = b_lo + delta
            eps_i = 0.0
        lo = max(lo, b_lo)

        members = np.flatnonzero((dist.data >= b_lo) & (dist.data < b_hi))
        if members.size == 0:
            lo = b_hi
            if controller is not None:
                controller.feedback(0, 0)
            continue

        buckets_processed += 1
        if buckets_processed > max_buckets:
            raise ConvergenceError(
                "bucket limit exceeded; check delta/weights",
                method="rdbs",
                iterations=buckets_processed - 1,
                frontier=int(members.size),
                delta=delta,
            )
        device.annotate(
            "bucket", index=bucket_id, lo=b_lo, hi=b_hi, active=members
        )

        # ------------------------------------------------------------------
        # phase 1: light edges
        # ------------------------------------------------------------------
        # the light/heavy split must cover the (possibly widened) bucket:
        # a heavy edge then always lands beyond b_hi, so phase 2 can never
        # strand a target inside the closing bucket.  PRO graphs re-split
        # their offsets on device (§4.1's adaptive offsets); unsorted arms
        # just raise the branch threshold.
        b_width = b_hi - b_lo
        try:
            if use_offsets and b_width > dgraph.split_delta * (1 + 1e-12):
                dgraph.resplit(b_width)
            split = (
                max(b_width, dgraph.split_delta) if use_offsets else b_width
            )
            if basyn_active:
                watchdog = frame.watchdog(int(members.size), async_chunk)
                outcome = _phase1_async(
                    device, dgraph, dist, members, b_lo, b_hi, split,
                    pro=use_offsets, adwl=adwl, stats=stats,
                    in_queue=in_queue, worklists=worklists, bucket=bucket_id,
                    chunk_size=async_chunk, watchdog=watchdog,
                )
            else:
                outcome = _phase1_sync(
                    device, dgraph, dist, members, b_lo, b_hi, split,
                    pro=use_offsets, adwl=adwl, stats=stats,
                    bucket=bucket_id,
                )
            total_rounds += outcome.rounds
            device.annotate("settled", vertices=outcome.settled)

            # --------------------------------------------------------------
            # phases 2 & 3: heavy edges + next-bucket scan (one fused kernel)
            # --------------------------------------------------------------
            _phase23_fused(
                device, dgraph, dist, outcome.settled, split,
                pro=use_offsets, stats=stats, candidate_buf=candidate_buf,
                next_lo=b_hi,
            )
        except (WatchdogTimeout, InjectedKernelAbort) as exc:
            # graceful degradation: roll back to the last good checkpoint
            # (bounded retry) and finish the search without BASYN
            aborted = True
            mark = frame.recover(exc, lo)
            lo = 0.0 if mark is None else float(mark)
            in_queue[:] = False
            if basyn_active:
                basyn_active = False
                controller = None
                frame.runtime.note_degraded()
        else:
            aborted = False
            device.barrier()  # synchronous mode between buckets
            if controller is not None:
                controller.feedback(
                    int(outcome.settled.size), outcome.threads_used
                )
            lo = b_hi
        if device.handlers("on_annotate"):
            # the Δ_i trajectory of Eq. 1–2; aborted buckets carry None
            # feedback fields
            device.annotate(
                "bucket_close", index=bucket_id, lo=b_lo, hi=b_hi,
                delta=b_hi - b_lo, epsilon=eps_i,
                converged=None if aborted else int(outcome.settled.size),
                threads=None if aborted else outcome.threads_used,
                rounds=None if aborted else outcome.rounds,
                aborted=aborted,
            )

    return frame.result(
        buckets=buckets_processed,
        rounds=total_rounds,
        delta0=delta,
        final_delta=controller.widths[-1] if controller and controller.widths else delta,
        pro=pro,
        adwl=adwl,
        basyn=basyn,
        delta_rescaled=rescaled,
    )


def _arm_name(pro: bool, adwl: bool, basyn: bool) -> str:
    parts = []
    if basyn:
        parts.append("basyn")
    if pro:
        parts.append("pro")
    if adwl:
        parts.append("adwl")
    return "+".join(parts) if parts else "sync-delta"


# ----------------------------------------------------------------------
# phase 1 engines
# ----------------------------------------------------------------------

def _relax_light(
    ctx: KernelContext,
    dgraph: DeviceGraph,
    dist,
    vertices: np.ndarray,
    split: float,
    *,
    pro: bool,
    adwl: bool,
    stats: WorkStats,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Relax the light edges of ``vertices``, recording into ``stats``.

    Returns ``(targets, values, threads)``: the targets whose atomics
    lowered a cell, the written tentative distances aligned with them
    (the register-resident :class:`~repro.sssp.relax.RelaxOutcome` values
    the multisplit placement consumes), and the thread tally.
    """
    threads = 0
    all_targets: list[np.ndarray] = []
    all_values: list[np.ndarray] = []

    if pro:
        counts = dgraph.light_counts(vertices)
        kind = "light"
        weight_filter = None
    else:
        counts = (
            dgraph.graph.row[vertices + 1] - dgraph.graph.row[vertices]
        ).astype(np.int64)
        kind = "all"
        weight_filter = (split, True)

    if adwl:
        # manager threads classify vertices into workload lists with one
        # 3-way warp-ballot multisplit
        classes = classify_multisplit(
            ctx, counts, thread_per_item(vertices.size)
        )
        if ctx.device.handlers("on_annotate"):
            ctx.device.annotate(
                "adwl", small=int(classes.small.size),
                middle=int(classes.middle.size),
                large=int(classes.large.size),
            )
        groups = launch_adaptive(ctx, counts, classes)
    else:
        groups = [(np.arange(vertices.size), thread_per_vertex_edges(counts))]

    # child-kernel edge batches are sliced out of one vectorized index
    # construction instead of re-deriving indices per workload class
    batches = dgraph.batch_groups(vertices, kind, groups)
    for (positions, assignment), batch in zip(groups, batches):
        vs = vertices[positions]
        out = relax_batch(
            ctx, dgraph, dist, vs, batch, assignment, stats,
            weight_filter=weight_filter,
        )
        if out.targets.size:
            all_targets.append(out.targets[out.updated])
            all_values.append(out.new_dist[out.updated])
        threads += assignment.num_threads

    if all_targets:
        return np.concatenate(all_targets), np.concatenate(all_values), threads
    return (
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64), threads
    )


def _phase1_async(
    device: GPUDevice,
    dgraph: DeviceGraph,
    dist,
    members: np.ndarray,
    b_lo: float,
    b_hi: float,
    split: float,
    *,
    pro: bool,
    adwl: bool,
    stats: WorkStats,
    in_queue: np.ndarray,
    worklists: tuple,
    bucket: int,
    chunk_size: int = ASYNC_CHUNK,
    watchdog: Watchdog | None = None,
) -> _BucketOutcome:
    """BASYN phase 1: one persistent kernel draining the workload lists.

    Micro-rounds pop up to :data:`ASYNC_CHUNK` vertices; updates written by
    a round are visible to every later round (and, through the atomic
    serialization, partially within the round), with only the cheap
    async-round scheduling cost in between — no barriers, no relaunches.
    """
    settled_mask = np.zeros(dist.size, dtype=bool)
    threads_used = 0
    rounds = 0
    queue: list[np.ndarray] = [members]
    in_queue[members] = True
    # the device-resident workload lists ``(slots, spill)``: re-activations
    # append *densely* behind a rolling cursor (coalesced stores instead of
    # vertex-scattered ones); the slot list is sized to the edge count
    # because every push follows an updated relaxation, and the spill list
    # absorbs the pathological overflow case with vertex-addressed stamp
    # stores.  Write-only scratch, so both stay uninitialized (cudaMalloc
    # semantics)
    queue_slots, queue_spill = worklists
    cursor = 0
    # per-round drain telemetry is host-side only, so it is gated on an
    # attached on_annotate observer — without one, no payload is built
    note_rounds = bool(device.handlers("on_annotate"))

    with device.launch("phase1_async") as k:
        while queue:
            reactivated = 0
            chunk_parts: list[np.ndarray] = []
            need = chunk_size
            while queue and need > 0:
                head = queue[0]
                if head.size <= need:
                    chunk_parts.append(head)
                    need -= head.size
                    queue.pop(0)
                else:
                    chunk_parts.append(head[:need])
                    queue[0] = head[need:]
                    need = 0
            chunk = np.concatenate(chunk_parts)
            in_queue[chunk] = False
            settled_mask[chunk] = True
            rounds += 1
            if watchdog is not None:
                watchdog.tick()

            targets, values, threads = _relax_light(
                k, dgraph, dist, chunk, split,
                pro=pro, adwl=adwl, stats=stats,
            )
            threads_used += threads
            k.async_round()

            if targets.size:
                cand = sorted_unique_ints(targets)
                # the freshest distance per candidate is the minimum of
                # the round's register-resident atomicMin results
                # (RelaxOutcome.new_dist) — no re-gather needed; one 2-way
                # ballot multisplit partitions push vs skip
                pos = np.searchsorted(cand, targets)
                dv = np.full(cand.size, np.inf)
                np.minimum.at(dv, pos, values)
                keys = (
                    (dv >= b_lo) & (dv < b_hi) & ~in_queue[cand]
                ).astype(np.int64)
                a_ms = thread_per_item(cand.size)
                order, offs = k.multisplit(keys, 2, a_ms)
                push = cand[order[offs[1]:]]
                if push.size:
                    cursor = append_worklist(
                        k, queue_slots, queue_spill, cursor, push
                    )
                    in_queue[push] = True
                    queue.append(push)
                    reactivated = int(push.size)
            if note_rounds:
                device.annotate(
                    "async_round", bucket=bucket, round=rounds,
                    drained=int(chunk.size),
                    reactivated=reactivated,
                    pending=int(sum(part.size for part in queue)),
                )

    return _BucketOutcome(
        settled=np.flatnonzero(settled_mask),
        threads_used=threads_used,
        rounds=rounds,
    )


def _phase1_sync(
    device: GPUDevice,
    dgraph: DeviceGraph,
    dist,
    members: np.ndarray,
    b_lo: float,
    b_hi: float,
    split: float,
    *,
    pro: bool,
    adwl: bool,
    stats: WorkStats,
    bucket: int,
) -> _BucketOutcome:
    """Synchronous phase 1: kernel launch + barrier per iteration (§2.2)."""
    settled_mask = np.zeros(dist.size, dtype=bool)
    threads_used = 0
    rounds = 0
    note_rounds = bool(device.handlers("on_annotate"))
    frontier = members
    while frontier.size:
        rounds += 1
        settled_mask[frontier] = True
        if note_rounds:
            device.annotate(
                "sync_round", bucket=bucket, round=rounds,
                frontier=int(frontier.size),
            )
        with device.launch("phase1_sync") as k:
            targets, _values, threads = _relax_light(
                k, dgraph, dist, frontier, split,
                pro=pro, adwl=adwl, stats=stats,
            )
        device.barrier()
        threads_used += threads
        if targets.size:
            cand = sorted_unique_ints(targets)
            frontier = cand[(dist.data[cand] >= b_lo) & (dist.data[cand] < b_hi)]
        else:
            frontier = np.zeros(0, dtype=np.int64)
    return _BucketOutcome(
        settled=np.flatnonzero(settled_mask),
        threads_used=threads_used,
        rounds=rounds,
    )


# ----------------------------------------------------------------------
# fused phases 2 & 3
# ----------------------------------------------------------------------

def _phase23_fused(
    device: GPUDevice,
    dgraph: DeviceGraph,
    dist,
    settled: np.ndarray,
    split: float,
    *,
    pro: bool,
    stats: WorkStats,
    candidate_buf=None,
    next_lo: float = np.inf,
) -> None:
    """Relax heavy edges of the settled set, then scan for the next bucket.

    One fused kernel (kernel-fusion optimization of §4.2): the heavy-edge
    relaxation uses the statically balanced edge-parallel mapping, and the
    next-bucket scan reads every vertex's distance once.  The scan's result
    is consumed host-side by the bucket loop (the real implementation
    compacts into a device queue; the stores are accounted here).

    ``next_lo`` is the closing bucket's upper boundary: the scan
    partitions vertices on "still unsettled beyond this bucket" with one
    ballot round.
    """
    n = dist.size
    with device.launch("phase23_fused") as k:
        if settled.size:
            if pro:
                batch = dgraph.batch(settled, "heavy")
                weight_filter = None
            else:
                batch = dgraph.batch(settled, "all")
                weight_filter = (split, False)
            if batch.num_edges:
                a = grid_stride(batch.num_edges, PHASE23_THREADS)
                targets, updated = relax_batch(
                    k, dgraph, dist, settled, batch, a, stats,
                    weight_filter=weight_filter,
                )
                # compact the freshly updated heavy targets into the
                # next-bucket candidate queue with warp-ballot ranking
                if (
                    weight_filter is None
                    and candidate_buf is not None
                    and targets.size
                ):
                    compact_multisplit(k, candidate_buf, updated, targets, a)
        # phase 3: one dist read per vertex to build the next bucket,
        # partitioning "active beyond this bucket" with one ballot round
        a_scan = grid_stride(n, PHASE23_THREADS)
        dvals = k.gather(dist, np.arange(n, dtype=np.int64), a_scan)
        k.multisplit(
            (np.isfinite(dvals) & (dvals >= next_lo)).astype(np.int64),
            2, a_scan,
        )
        k.device_barrier()  # fused phases separated by a device-wide sync
