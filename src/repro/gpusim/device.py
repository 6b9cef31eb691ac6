"""The simulated GPU device: memory, kernels and synchronization.

:class:`GPUDevice` is the substrate every GPU SSSP variant in this library
runs on.  Kernels are expressed as vectorized NumPy passes over work items,
but every memory access, atomic and ALU step is routed through the device so
that warp-level instructions, coalesced transactions, cache behaviour,
divergence, launch overheads and synchronization events are all *counted* —
and converted into simulated time by :mod:`repro.gpusim.timemodel`.

Typical kernel shape::

    dev = GPUDevice(V100)
    dist = dev.alloc(np.full(n, np.inf))
    adj = dev.upload(graph.adj, "adj")

    with dev.launch("relax") as k:
        a = thread_per_vertex_edges(degrees_of_frontier)
        v = k.gather(adj, edge_idx, a)          # counted global loads
        nd = k.gather(dist, frontier_of_edge, a) + w
        k.alu(a, ops=2)                          # address arithmetic etc.
        old, updated = k.atomic_min(dist, v, nd, a)

    dev.elapsed_ms                               # simulated milliseconds

The arrays behind :class:`DeviceArray` are real storage — kernels genuinely
compute shortest paths; the device merely observes them with CUDA's cost
rules.
"""

from __future__ import annotations

import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, field, replace as _dc_replace
from typing import Iterator

import numpy as np

from .cachemodel import CacheModel, CacheStream
from .counters import DeviceCounters, KernelCounters
from .kernels import WorkAssignment
from .memory import BumpAllocator, DeviceArray, coalesce
from .spec import GPUSpec, V100
from .timemodel import kernel_time
from ..perf.profile import active_profiler
from .multisplit import ballot_rounds
from ..util.scan import (
    distinct_count,
    multisplit_order,
    serialized_min_outcome,
    stable_sort_with_order,
)

__all__ = [
    "GPUDevice",
    "KernelContext",
    "ObserverList",
    "subset_assignment",
    "register_global_observer",
    "unregister_global_observer",
]

#: every event name the device (and the multi-GPU runtime) dispatches;
#: the attach-time dispatch table is built over exactly this set
OBSERVER_EVENTS = (
    "on_access",
    "on_alloc",
    "on_annotate",
    "on_device_barrier",
    "on_host_write",
    "on_kernel_begin",
    "on_kernel_complete",
    "on_kernel_end",
    "on_multisplit",
    "transform_read",
    "transform_atomic",
    "transform_exchange",
    "transform_multisplit",
)

_NO_HANDLERS: tuple = ()


class ObserverList(list):
    """The device's observer list; mutation rebuilds the dispatch table.

    Observers attach by plain list mutation (``device.observers.append``),
    which historically forced ``_notify`` to probe every observer with
    ``getattr`` on every event.  This subclass keeps that public API but
    tells the owning device to re-bind its per-event handler tuples
    whenever membership changes, so the per-event cost collapses to one
    dict lookup over pre-bound methods (and to a single falsy check when
    no observer handles the event).

    The back-reference is weak: a strong one would put every device in a
    reference cycle, so it (and its ``dist``, scratch arrays and cache
    state) would live until the cyclic collector ran instead of being
    freed when its solve drops it.
    """

    __slots__ = ("_device",)

    def __init__(self, device: "GPUDevice", iterable=()) -> None:
        super().__init__(iterable)
        self._device = weakref.ref(device)

    def _changed(self) -> None:
        device = self._device()
        if device is not None:
            device._rebuild_dispatch()

    def append(self, item) -> None:
        super().append(item)
        self._changed()

    def extend(self, items) -> None:
        super().extend(items)
        self._changed()

    def insert(self, index, item) -> None:
        super().insert(index, item)
        self._changed()

    def remove(self, item) -> None:
        super().remove(item)
        self._changed()

    def pop(self, index=-1):
        out = super().pop(index)
        self._changed()
        return out

    def clear(self) -> None:
        super().clear()
        self._changed()

    def __setitem__(self, index, value) -> None:
        super().__setitem__(index, value)
        self._changed()

    def __delitem__(self, index) -> None:
        super().__delitem__(index)
        self._changed()

    def __iadd__(self, items):
        super().extend(items)
        self._changed()
        return self

#: observers automatically attached to every :class:`GPUDevice` created
#: after registration — how analysis tools (repro.analysis.Sanitizer)
#: reach devices that algorithms construct internally
_GLOBAL_OBSERVERS: list = []


def register_global_observer(observer) -> None:
    """Attach ``observer`` to every subsequently created device."""
    if observer not in _GLOBAL_OBSERVERS:
        _GLOBAL_OBSERVERS.append(observer)


def unregister_global_observer(observer) -> None:
    """Stop auto-attaching ``observer`` to new devices."""
    if observer in _GLOBAL_OBSERVERS:
        _GLOBAL_OBSERVERS.remove(observer)


def subset_assignment(assignment: WorkAssignment, mask: np.ndarray) -> WorkAssignment:
    """Restrict an assignment to the work items selected by ``mask``.

    Used for predicated operations: inactive lanes issue no memory requests,
    but the surviving slots still cost full warp instructions.
    """
    slots = assignment.slots[mask]
    if slots.size == 0:
        return _dc_replace(
            assignment, slots=slots, num_slots=0, max_steps=0, num_items=0
        )
    stride = max(assignment.max_steps, 1)
    max_step = int((slots % stride).max()) + 1
    return _dc_replace(
        assignment,
        slots=slots,
        num_slots=distinct_count(slots),
        max_steps=max_step,
        num_items=int(slots.size),
    )


class KernelContext:
    """Accounting scope of one kernel launch."""

    def __init__(self, device: "GPUDevice", name: str) -> None:
        self.device = device
        self.name = name
        self.counters = KernelCounters()
        self.critical_instructions = 0
        self._load_lines: list[np.ndarray] = []
        #: the previous access pattern and its coalesce result
        #: (see _coalesced)
        self._last_pattern: tuple | None = None
        self._extra_time = 0.0
        #: simulated duration, available after the launch context exits
        self.time_s: float = 0.0

    # ------------------------------------------------------------------
    # bookkeeping helpers
    # ------------------------------------------------------------------
    def _note_assignment(self, a: WorkAssignment, instructions: int) -> None:
        self.counters.active_lanes += a.num_items
        self.counters.lane_slots += instructions * self.device.spec.warp_size
        self.counters.threads_launched = max(
            self.counters.threads_launched, a.num_threads
        )

    # ------------------------------------------------------------------
    # memory operations
    # ------------------------------------------------------------------
    def _coalesced(
        self, arr: DeviceArray, idx: np.ndarray, a: WorkAssignment
    ) -> tuple[int, np.ndarray]:
        """``(transactions, sector_ids)`` of ``arr[idx]`` under ``a``.

        The warp-instruction count is ``a.num_slots`` (every access belongs
        to one of the assignment's slots), so only the transactions and
        their sector stream come from :func:`coalesce`, behind two memos.
        Both key on arrays by identity and keep those arrays alive, so
        ``is`` cannot alias a recycled id; both return shared sector
        arrays, which downstream code only reads.

        * **Per launch, the previous access pattern** — the index array,
          the slot array and the itemsize.  ``relax_batch`` gathers ``adj``
          and ``weights`` through one ``edge_idx``; the second gather is a
          hit.  The sector ids depend on the array only through
          ``base_address // sector_bytes`` (allocations are line-aligned),
          so a hit on another array shifts them by the difference.  Every
          repeat seen in the engines follows its pattern directly, so one
          entry catches them all while keeping persistent kernels' memo
          state O(1).
        * **Per device, prefix scans** — the dominant gather of the bucket
          engines is the per-iteration full scan
          ``gather(dist, arange(n), a)``, whose result is pure in the
          array's placement, the scan length and the slot array.  When
          ``idx`` is exactly ``arange(n)`` (two scalar probes, then one
          comparison pass) it is cached per ``(base_address, n)``.
        """
        spec = self.device.spec
        sector_bytes = spec.sector_bytes
        last = self._last_pattern
        if (
            last is not None
            and last[0] is idx
            and last[1] is a.slots
            and last[2] == arr.itemsize
        ):
            shift = arr.base_address - last[3]
            if shift % sector_bytes == 0:
                transactions, sectors = last[4], last[5]
                if shift:
                    sectors = sectors + shift // sector_bytes
                return transactions, sectors
        n = idx.size
        scan_key = None
        if (
            n > 1
            and idx[0] == 0
            and idx[n - 1] == n - 1
            and bool((idx[1:] > idx[:-1]).all())
        ):
            scan_key = (arr.base_address, n)
            entry = self.device._scan_coalesce.get(scan_key)
            if entry is not None and entry[0] is a.slots:
                return entry[1], entry[2]
        _, transactions, sectors = coalesce(
            arr.addresses(idx), a.slots, sector_bytes, spec.cache_line_bytes
        )
        if scan_key is not None:
            self.device._scan_coalesce[scan_key] = (a.slots, transactions, sectors)
        self._last_pattern = (
            idx, a.slots, arr.itemsize, arr.base_address, transactions, sectors
        )
        return transactions, sectors

    def gather(
        self, arr: DeviceArray, idx: np.ndarray, a: WorkAssignment
    ) -> np.ndarray:
        """Warp-coalesced global load of ``arr[idx]``; returns the values."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size != a.num_items:
            raise ValueError("index array must match the assignment's items")
        transactions, lines = self._coalesced(arr, idx, a)
        instructions = a.num_slots
        c = self.counters
        c.inst_executed_global_loads += instructions
        c.global_load_transactions += transactions
        c.l1_accesses += transactions
        self._load_lines.append(lines)
        self.critical_instructions += a.max_steps
        self._note_assignment(a, instructions)
        self.device._notify("on_access", self, "read", arr, idx, None, a)
        values = arr.data[idx]
        # value-transform hook (fault injection): runs after all accounting
        # so the counted work is identical with or without observers
        for fn in self.device._transform_read:
            values = fn(self, arr, idx, values)
        return values

    def scatter(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        values: np.ndarray,
        a: WorkAssignment,
    ) -> None:
        """Warp-coalesced global store ``arr[idx] = values`` (last wins)."""
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size != a.num_items:
            raise ValueError("index array must match the assignment's items")
        transactions, _lines = self._coalesced(arr, idx, a)
        instructions = a.num_slots
        c = self.counters
        c.inst_executed_global_stores += instructions
        c.global_store_transactions += transactions
        self.critical_instructions += a.max_steps
        self._note_assignment(a, instructions)
        self.device._notify("on_access", self, "write", arr, idx, values, a)
        arr.data[idx] = values

    def atomic_min(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        values: np.ndarray,
        a: WorkAssignment,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``atomicMin(&arr[idx[i]], values[i])`` for every item.

        Returns ``(old, updated)``: the pre-op value each atomic observed
        under per-address program-order serialization, and the mask of
        atomics that actually lowered the cell (the paper's "updates";
        non-updates are its "checks").
        """
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values, dtype=arr.data.dtype)
        n = idx.size
        if n != a.num_items:
            raise ValueError("index array must match the assignment's items")
        transactions, _lines = self._coalesced(arr, idx, a)
        instructions = a.num_slots
        c = self.counters
        c.inst_executed_atomics += instructions
        c.atomic_transactions += transactions
        self.critical_instructions += a.max_steps
        self._note_assignment(a, instructions)

        if n == 0:
            return values.copy(), np.zeros(0, dtype=bool)

        # same-address atomics retire one at a time: everything beyond the
        # first op per address in this batch is a serialized conflict
        unique_addresses = distinct_count(idx)
        c.atomic_conflicts += n - unique_addresses

        self.device._notify("on_access", self, "atomic_min", arr, idx, values, a)
        # value-transform hook (fault injection): after accounting, before
        # the semantic effect — a transformed value changes state, never cost
        for fn in self.device._transform_atomic:
            values = fn(self, "atomic_min", arr, idx, values)
        # serialize per address in program order (see util.scan); the
        # distinct-address count doubles as its conflict-free fast path
        return serialized_min_outcome(
            arr.data, idx, values, distinct=unique_addresses
        )

    def atomic_add(
        self,
        arr: DeviceArray,
        idx: np.ndarray,
        values: np.ndarray,
        a: WorkAssignment,
    ) -> None:
        """``atomicAdd(&arr[idx[i]], values[i])`` for every item.

        Addition is order-independent, so no old-value bookkeeping is
        needed; traffic and same-address serialization are accounted like
        any other atomic RMW.
        """
        idx = np.asarray(idx, dtype=np.int64)
        values = np.asarray(values, dtype=arr.data.dtype)
        n = idx.size
        if n != a.num_items:
            raise ValueError("index array must match the assignment's items")
        transactions, _lines = self._coalesced(arr, idx, a)
        instructions = a.num_slots
        c = self.counters
        c.inst_executed_atomics += instructions
        c.atomic_transactions += transactions
        self.critical_instructions += a.max_steps
        self._note_assignment(a, instructions)
        if n:
            c.atomic_conflicts += n - distinct_count(idx)
            self.device._notify("on_access", self, "atomic_add", arr, idx, values, a)
            for fn in self.device._transform_atomic:
                values = fn(self, "atomic_add", arr, idx, values)
            np.add.at(arr.data, idx, values)

    # ------------------------------------------------------------------
    # compute operations
    # ------------------------------------------------------------------
    def alu(self, a: WorkAssignment, ops: int = 1) -> None:
        """Charge ``ops`` ALU/control instructions per slot of one pass."""
        self.counters.inst_executed_other += a.num_slots * ops
        self.critical_instructions += a.max_steps * ops
        self._note_assignment(a, a.num_slots * ops)

    def branch(
        self, a: WorkAssignment, taken: np.ndarray, cost_taken: int = 1,
        cost_not_taken: int = 1,
    ) -> None:
        """Account a data-dependent branch over the assignment's items.

        A slot whose lanes disagree is *divergent*: SIMT hardware executes
        both paths with complementary masks, so the slot issues
        ``cost_taken + cost_not_taken`` instructions instead of one path's
        worth — the penalty PRO's weight-sorting removes (motivation 1).
        """
        taken = np.asarray(taken, dtype=bool)
        if taken.size != a.num_items:
            raise ValueError("taken mask must match the assignment's items")
        c = self.counters
        if a.num_items == 0:
            return
        sslots, order = stable_sort_with_order(a.slots)
        staken = taken[order]
        starts = np.ones(sslots.size, dtype=bool)
        starts[1:] = sslots[1:] != sslots[:-1]
        gstarts = np.flatnonzero(starts)
        any_taken = np.maximum.reduceat(staken.astype(np.int8), gstarts) > 0
        all_taken = np.minimum.reduceat(staken.astype(np.int8), gstarts) > 0
        divergent = any_taken & ~all_taken
        num_slots = gstarts.size
        c.branch_instructions += num_slots
        c.divergent_branches += int(divergent.sum())
        issued = (
            int(divergent.sum()) * (cost_taken + cost_not_taken)
            + int(any_taken.sum() - (divergent & any_taken).sum()) * cost_taken
            + int((~any_taken).sum()) * cost_not_taken
        )
        c.inst_executed_other += issued
        self.critical_instructions += a.max_steps
        self._note_assignment(a, issued)

    def multisplit(
        self, keys: np.ndarray, num_buckets: int, a: WorkAssignment
    ) -> tuple[np.ndarray, np.ndarray]:
        """Warp-ballot multisplit of ``keys`` into ``num_buckets`` groups.

        Returns ``(order, offsets)``: a permutation grouping the
        assignment's items by bucket key with stable within-bucket order,
        and the exclusive bucket-start prefix (length ``num_buckets + 1``)
        — the semantics of :func:`repro.util.scan.multisplit_order`.

        Cost (the W-MS model, see :mod:`repro.gpusim.multisplit`): each
        warp slot issues one ballot per split bit
        (``ceil(log2 max(B, 2))``); rank/scatter staging and the per-warp
        histogram combine are shared-memory transactions that occupy
        issue slots but produce **no** global-memory traffic — which is
        exactly why it beats the sort/scan/branch placements it replaces.

        Keys must lie in ``[0, num_buckets)``; out-of-range keys raise
        after observers are notified, so the sanitizer records the
        hazard before the fail-fast.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size != a.num_items:
            raise ValueError("key array must match the assignment's items")
        rounds = ballot_rounds(num_buckets)
        c = self.counters
        c.inst_executed_ballots += a.num_slots * rounds
        c.shared_transactions += (
            2 * a.num_slots + min(a.num_warps, a.num_slots) * num_buckets
        )
        c.multisplit_ops += 1
        c.multisplit_buckets += num_buckets
        self.critical_instructions += a.max_steps * (rounds + 1)
        self._note_assignment(a, a.num_slots * rounds)
        self.device._notify("on_multisplit", self, keys, num_buckets, a)
        # key-transform hook (fault injection): runs after all accounting
        # so the counted work is identical with or without observers
        for fn in self.device._transform_multisplit:
            keys = fn(self, keys, num_buckets, a)
        return multisplit_order(keys, num_buckets)

    # ------------------------------------------------------------------
    # launch-structure events
    # ------------------------------------------------------------------
    def child_launch(self, count: int = 1) -> None:
        """Account device-side (dynamic parallelism) child-kernel launches."""
        self.counters.child_kernel_launches += count
        self._extra_time += count * self.device.spec.child_launch_s

    def device_barrier(self) -> None:
        """A device-wide synchronization inside a fused kernel."""
        self.counters.barriers += 1
        self._extra_time += self.device.spec.barrier_s
        self.device._notify("on_device_barrier", self.device, self)

    def async_round(self, count: int = 1) -> None:
        """Account asynchronous work-list scheduling rounds (no barrier)."""
        self.counters.async_rounds += count
        self._extra_time += count * self.device.spec.async_round_s

    def mlmq_steal(self, slots: int = 0) -> None:
        """Account one work-stealing handoff between SM-mapped queue groups.

        The handoff is a single CAS on the victim queue's head descriptor
        — one warp-level atomic (a lone lane) and one global transaction
        regardless of how many slots change owner; the slot payload itself
        is popped through the usual counted loads by the thief.
        """
        c = self.counters
        c.mlmq_steals += 1
        c.mlmq_stolen_slots += int(slots)
        c.inst_executed_atomics += 1
        c.atomic_transactions += 1
        c.active_lanes += 1
        c.lane_slots += self.device.spec.warp_size
        self.critical_instructions += 1


class GPUDevice:
    """One simulated GPU with memory, a cache model and a running clock."""

    def __init__(self, spec: GPUSpec = V100) -> None:
        self.spec = spec
        self.allocator = BumpAllocator()
        self.cache = CacheModel(spec)
        self.counters = DeviceCounters()
        self.time_s = 0.0
        #: attached analysis observers (see repro.analysis); duck-typed —
        #: each event calls the observer method of the same name if present.
        #: Handler methods are bound when the list changes (attach time),
        #: so add/remove observers via this list, not by monkey-patching
        #: methods onto an already-attached observer.
        self.observers: ObserverList = ObserverList(self, _GLOBAL_OBSERVERS)
        self._rebuild_dispatch()
        # carry-over window: the tail of the previous launches' transaction
        # stream.  Physically this is the persistence of the cache hierarchy
        # across back-to-back kernel launches (L1 is flushed but L2 is not):
        # a small kernel re-touching lines the previous kernel brought in
        # still hits, which matters for bucket-at-a-time algorithms that
        # launch many short kernels over the same hot arrays.  Resolved
        # incrementally (see CacheStream) so short kernels don't pay
        # O(capacity) host time per launch.
        self._cache_stream = CacheStream(
            self.cache, self.allocator.base // spec.sector_bytes
        )
        #: memoized coalesce triples for prefix-scan accesses
        #: (see KernelContext._coalesced)
        self._scan_coalesce: dict = {}

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def _rebuild_dispatch(self) -> None:
        """Re-bind the per-event handler tuples from the observer list.

        Called whenever ``self.observers`` changes; ``_notify`` and the
        transform hooks then dispatch over pre-bound methods instead of
        probing every observer with ``getattr`` per event.
        """
        table: dict[str, tuple] = {}
        for event in OBSERVER_EVENTS:
            handlers = tuple(
                fn for obs in self.observers
                if (fn := getattr(obs, event, None)) is not None
            )
            if handlers:
                table[event] = handlers
        self._dispatch = table
        self._transform_read = table.get("transform_read", _NO_HANDLERS)
        self._transform_atomic = table.get("transform_atomic", _NO_HANDLERS)
        self._transform_multisplit = table.get(
            "transform_multisplit", _NO_HANDLERS
        )

    def handlers(self, event: str) -> tuple:
        """Pre-bound handler methods of every observer handling ``event``."""
        return self._dispatch.get(event, _NO_HANDLERS)

    def _notify(self, event: str, *args) -> None:
        """Dispatch ``event`` to every attached observer that handles it."""
        for fn in self._dispatch.get(event, _NO_HANDLERS):
            fn(*args)

    def annotate(self, tag: str, **payload) -> None:
        """Publish an algorithm-level fact (bucket boundaries, settled sets,
        …) to the attached observers.  A no-op without observers; engines
        use it to give analysis tools semantic context the raw access
        stream cannot carry."""
        self._notify("on_annotate", self, tag, payload)

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def alloc(self, array: np.ndarray, name: str = "buf") -> DeviceArray:
        """Allocate device storage initialized from ``array`` (copied)."""
        data = np.array(array, copy=True)
        arr = DeviceArray(data, self.allocator.allocate(data.nbytes), name)
        self._notify("on_alloc", self, arr, True)
        return arr

    def zeros(self, n: int, dtype=np.float64, name: str = "buf") -> DeviceArray:
        """Allocate an ``n``-element zeroed device array."""
        return self.alloc(np.zeros(n, dtype=dtype), name)

    def full(self, n: int, value, dtype=np.float64, name: str = "buf") -> DeviceArray:
        """Allocate an ``n``-element device array filled with ``value``."""
        return self.alloc(np.full(n, value, dtype=dtype), name)

    def empty(self, n: int, dtype=np.float64, name: str = "buf") -> DeviceArray:
        """Allocate ``n`` elements of *uninitialized* device memory.

        Like ``cudaMalloc``, the contents are undefined until written; the
        storage is poisoned with a sentinel (NaN for floats, the dtype
        minimum for integers) so bugs that consume it surface loudly, and
        attached sanitizers track reads of never-written elements.
        """
        dtype = np.dtype(dtype)
        poison = np.nan if dtype.kind == "f" else np.iinfo(dtype).min
        data = np.full(n, poison, dtype=dtype)
        arr = DeviceArray(data, self.allocator.allocate(data.nbytes), name)
        self._notify("on_alloc", self, arr, False)
        return arr

    def upload(self, array: np.ndarray, name: str = "buf") -> DeviceArray:
        """Wrap a (read-only) host array as device memory without copying."""
        arr = DeviceArray(
            np.asarray(array), self.allocator.allocate(array.nbytes), name
        )
        self._notify("on_alloc", self, arr, True)
        return arr

    def host_store(self, arr: DeviceArray, idx, values) -> None:
        """Host-side staging write ``arr[idx] = values`` outside any kernel.

        The sanctioned way to initialize device cells from the host (the
        ``dist[source] = 0`` idiom): it is visible to attached observers,
        unlike a raw mutation of ``arr.data``, which ``repro-lint`` flags.
        Charged no simulated time — host staging happens before the
        measured region, matching the paper's methodology.
        """
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        self._notify("on_host_write", self, arr, idx, values)
        arr.data[idx] = values

    def host_copy(self, arr: DeviceArray, values: np.ndarray) -> None:
        """Host-driven overwrite of a whole device array (uncounted).

        The full index array observers expect is only materialized when
        someone actually subscribes to ``on_host_write`` — the unobserved
        path is a plain array copy.
        """
        handlers = self._dispatch.get("on_host_write")
        if handlers:
            idx = np.arange(arr.size, dtype=np.int64)
            for fn in handlers:
                fn(self, arr, idx, values)
        arr.data[...] = values

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @contextmanager
    def launch(self, name: str, *, host_launch: bool = True) -> Iterator[KernelContext]:
        """Run one kernel; accounting closes when the context exits."""
        prof = active_profiler()
        t_host = time.perf_counter() if prof is not None else 0.0
        ctx = KernelContext(self, name)
        if host_launch:
            ctx.counters.kernel_launches += 1
        self._notify("on_kernel_begin", self, ctx)
        yield ctx
        ctx._last_pattern = None  # release the memo's arrays before hit_count
        self._notify("on_kernel_end", self, ctx)
        # resolve cache behaviour for the launch's load stream, warmed by
        # the tail of the preceding launches (L2 persistence).  CacheStream
        # evaluates this incrementally — identical counts to concatenating
        # the tail, in host time proportional to the launch's own lines
        if ctx._load_lines:
            lines = (
                ctx._load_lines[0] if len(ctx._load_lines) == 1
                else np.concatenate(ctx._load_lines)
            )
            ctx.counters.l1_hits += self._cache_stream.hit_count(lines)
        body = kernel_time(self.spec, ctx.counters, ctx.critical_instructions)
        launch_cost = self.spec.kernel_launch_s if host_launch else 0.0
        ctx.time_s = body + ctx._extra_time + launch_cost
        self.time_s += ctx.time_s
        self.counters.record(ctx.counters)
        # unlike on_kernel_end (which fires before cache resolution so
        # transforms can still see the launch open), this event sees the
        # final ctx.time_s/counters — the tracer's kernel spans hang here
        self._notify("on_kernel_complete", self, ctx)
        if prof is not None:
            prof.add("kernel_host", time.perf_counter() - t_host)

    def barrier(self) -> None:
        """Host-visible device synchronization between kernels."""
        self.counters.totals.barriers += 1
        self.time_s += self.spec.barrier_s

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    @property
    def elapsed_ms(self) -> float:
        """Simulated wall-clock so far, in milliseconds."""
        return self.time_s * 1e3

    def reset_clock(self) -> None:
        """Zero the clock and counters (memory contents are kept)."""
        self.counters = DeviceCounters()
        self.time_s = 0.0
