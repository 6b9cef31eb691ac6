"""Device hot-path fast paths: every shortcut must be exact.

This file locks in the equivalences the performance layer relies on:

* :class:`CacheStream` reproduces ``CacheModel.hits(tail + lines)`` bit
  for bit, launch by launch (the docstring of ``cachemodel.py`` points
  here), and its state stops growing once the loaded address range and
  the window are covered;
* ``stable_sort_with_order`` equals a stable argsort, including the
  radix and composite-key packing fast paths and their fallbacks, and
  ``multisplit_order``'s small fan-out partition equals one too;
* ``distinct_count`` / ``sorted_unique_ints`` equal ``np.unique``;
* ``serialized_min_outcome``'s distinct-address fast path equals the
  general segmented-scan path, which itself equals a scalar reference;
* the scan-coalesce memo and the per-launch access-pattern memo return
  exactly what a fresh ``coalesce`` call would, and the scan memo only
  engages for true ``arange`` scans;
* assignment factories report the analytic ``num_slots`` (the
  ``np.unique`` fallback was removed from the hot path);
* observer dispatch rebuilds on list mutation, and ``host_copy`` only
  materializes the index array when someone is listening.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.gpusim.device as device_module
from repro.gpusim.cachemodel import CacheModel, CacheStream, reuse_horizon
from repro.gpusim.device import GPUDevice
from repro.gpusim.kernels import (
    _finalize,
    grid_stride,
    thread_per_item,
    thread_per_vertex_edges,
    threads_per_vertex_edges,
)
from repro.gpusim.memory import coalesce
from repro.gpusim.spec import V100
from repro.util.scan import (
    distinct_count,
    multisplit_order,
    serialized_min_outcome,
    sorted_unique_ints,
    stable_sort_with_order,
)

# ---------------------------------------------------------------------------
# CacheStream == CacheModel over the concatenated rolling stream
# ---------------------------------------------------------------------------


def _model_with_capacity(cap: int) -> CacheModel:
    model = CacheModel(V100)
    model.capacity_sectors = cap
    return model


def _reference_hits(model: CacheModel, launches) -> list[int]:
    """The naive rolling-tail evaluation CacheStream replaces."""
    cap = model.capacity_sectors
    history = np.zeros(0, dtype=np.int64)
    out = []
    for lines in launches:
        tail = history[history.size - min(cap, history.size):]
        stream = np.concatenate([tail, lines])
        out.append(int(model.hits(stream)[tail.size:].sum()))
        history = np.concatenate([history, lines])
    return out


def _stream_hits(model: CacheModel, launches, base_sector: int = 0) -> list[int]:
    stream = CacheStream(model, base_sector)
    return [stream.hit_count(lines) for lines in launches]


def _random_launches(rng, num, max_len, id_range):
    return [
        rng.integers(0, id_range, size=int(rng.integers(0, max_len + 1)))
        .astype(np.int64)
        for _ in range(num)
    ]


@pytest.mark.parametrize("cap", [7, 128, 5120])
@pytest.mark.parametrize("id_range", [5, 60, 4000])
def test_cache_stream_matches_reference_random(cap, id_range):
    rng = np.random.default_rng(cap * 1000 + id_range)
    launches = _random_launches(rng, num=12, max_len=300, id_range=id_range)
    model = _model_with_capacity(cap)
    assert _stream_hits(model, launches) == _reference_hits(model, launches)


def test_cache_stream_matches_reference_sorted_fast_path():
    # ascending streams (what slot-major coalescing emits): duplicates
    # are adjacent, making every within-launch gap exactly 1
    rng = np.random.default_rng(7)
    launches = [
        np.sort(rng.integers(0, 500, size=n)).astype(np.int64)
        for n in (1, 2, 64, 300, 0, 128)
    ]
    model = _model_with_capacity(128)
    assert _stream_hits(model, launches) == _reference_hits(model, launches)


def _long_launches(rng):
    # launches longer than a small capacity, reusing across boundaries
    return [
        rng.integers(0, 90, size=int(rng.integers(20, 200))).astype(np.int64)
        for _ in range(12)
    ]


def _many_wraps(rng):
    # hundreds of short launches: the window ring wraps many times
    return [
        rng.integers(0, 25, size=int(rng.integers(0, 12))).astype(np.int64)
        for _ in range(400)
    ]


def _sparse_high(rng):
    # sparse sector ids that climb, forcing table growth, with revisits
    # of low, evicted and recent sectors
    out = []
    for i in range(15):
        hi = rng.integers(0, 40, size=20) * (1000 * (i + 1)) + 10**6
        lo = rng.integers(0, 30, size=10)
        out.append(np.concatenate([hi, lo]).astype(np.int64))
    out.append(out[-1][::-1].copy())
    return out


@pytest.mark.parametrize("cap", [1, 7])
@pytest.mark.parametrize(
    "make", [_long_launches, _many_wraps, _sparse_high],
    ids=["longer-than-capacity", "ring-wraps", "sparse-high-ids"],
)
def test_cache_stream_matches_reference_replays(cap, make):
    launches = make(np.random.default_rng(cap))
    model = _model_with_capacity(cap)
    want = _reference_hits(model, launches)
    assert _stream_hits(model, launches) == want
    # a table based above the loaded ids must grow downwards
    assert _stream_hits(model, launches, base_sector=500) == want


def test_cache_stream_state_is_bounded():
    # nothing O(capacity) at device creation
    device = GPUDevice()
    stream = device._cache_stream
    assert stream._ring.size == 0 and stream._last.size == 0

    # the arrays grow to the loaded sector range and the window, then stop
    model = _model_with_capacity(64)
    stream = CacheStream(model, base_sector=1000)
    rng = np.random.default_rng(5)
    sizes = []
    for i in range(300):
        lines = rng.integers(1000, 1000 + 3000, size=int(rng.integers(1, 50)))
        if i == 0:
            lines[-1] = 3999  # the top of the range is loaded first
        stream.hit_count(lines.astype(np.int64))
        sizes.append((stream._last.size, stream._ring.size))
    assert sizes[-1] == (3000, 64)
    first_full = next(i for i, s in enumerate(sizes) if s == (3000, 64))
    assert all(s == (3000, 64) for s in sizes[first_full:])


def test_reuse_horizon_is_the_exact_float_boundary():
    model = _model_with_capacity(100)
    for u in (101, 150, 1000, 10**6):
        h = reuse_horizon(u, 100)
        gaps = np.array([h - 1, h, h + 1], dtype=np.int64)
        t = gaps.astype(np.float64)
        d = float(u) * -np.expm1(t * np.log1p(-1.0 / float(u)))
        assert list(d <= 100) == [True, True, False]
    assert reuse_horizon(100, 100) == np.iinfo(np.int64).max


def test_cache_stream_tight_reuse_and_empty_launches():
    # working set within capacity -> the no-transcendentals shortcut
    rng = np.random.default_rng(11)
    launches = [
        rng.integers(0, 40, size=200).astype(np.int64),
        np.zeros(0, dtype=np.int64),
        rng.integers(0, 40, size=5).astype(np.int64),
        rng.integers(0, 40, size=200).astype(np.int64),
    ]
    model = _model_with_capacity(128)
    assert _stream_hits(model, launches) == _reference_hits(model, launches)
    assert CacheStream(model).hit_count(np.zeros(0, dtype=np.int64)) == 0


# ---------------------------------------------------------------------------
# scan primitives
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,hi",
    [
        (0, 10),
        (1, 10),
        (300, 50),  # below the packing threshold -> argsort path
        (513, 50),  # just above -> packed path
        (600, 3),  # heavy duplication
        (5000, 10**6),
    ],
)
def test_stable_sort_with_order_equals_stable_argsort(n, hi):
    rng = np.random.default_rng(n + hi)
    keys = rng.integers(0, hi, size=n).astype(np.int64)
    sorted_keys, order = stable_sort_with_order(keys)
    want_order = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(order, want_order)
    np.testing.assert_array_equal(sorted_keys, keys[want_order])


@pytest.mark.parametrize("span", [(1 << 16) - 1, 1 << 16])
@pytest.mark.parametrize("offset", [0, 10**12, -(10**9)])
def test_stable_sort_radix_boundary_equals_stable_argsort(span, offset):
    # key spans just inside the uint16 radix path and just outside it
    rng = np.random.default_rng(span % 97)
    keys = rng.integers(0, span + 1, size=3000).astype(np.int64)
    keys[:2] = (0, span)  # pin the span exactly
    keys += offset
    sorted_keys, order = stable_sort_with_order(keys)
    want = np.argsort(keys, kind="stable")
    np.testing.assert_array_equal(order, want)
    np.testing.assert_array_equal(sorted_keys, keys[want])
    assert order.dtype == np.int64


@pytest.mark.parametrize("num_buckets", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [0, 1, 40, 3000])
def test_multisplit_partition_equals_stable_argsort(num_buckets, n):
    rng = np.random.default_rng(num_buckets * 31 + n)
    # draw from every other bucket so some buckets stay empty
    used = np.arange(0, num_buckets, 2)
    keys = rng.choice(used, size=n).astype(np.int64)
    order, offsets = multisplit_order(keys, num_buckets)
    np.testing.assert_array_equal(order, np.argsort(keys, kind="stable"))
    counts = np.bincount(keys, minlength=num_buckets)
    np.testing.assert_array_equal(offsets, np.concatenate([[0], np.cumsum(counts)]))
    assert order.dtype == np.int64


def test_stable_sort_with_order_fallbacks_stay_stable():
    # keys too large to pack (max >= 2**62 / n) and negative keys both
    # take the argsort fallback; the contract is identical
    big = np.array([5, (1 << 62), 5, 0, (1 << 62)] * 200, dtype=np.int64)
    sorted_keys, order = stable_sort_with_order(big)
    np.testing.assert_array_equal(order, np.argsort(big, kind="stable"))
    np.testing.assert_array_equal(sorted_keys, big[order])

    neg = np.array([3, -1, 3, -1, 2] * 200, dtype=np.int64)
    sorted_keys, order = stable_sort_with_order(neg)
    np.testing.assert_array_equal(order, np.argsort(neg, kind="stable"))
    np.testing.assert_array_equal(sorted_keys, neg[order])


def test_stable_sort_does_not_mutate_input():
    keys = np.arange(1000, dtype=np.int64)[::-1].copy()
    before = keys.copy()
    stable_sort_with_order(keys)
    np.testing.assert_array_equal(keys, before)


@pytest.mark.parametrize("hi", [1, 7, 1000, 10**7])
def test_distinct_and_unique_match_numpy(hi):
    rng = np.random.default_rng(hi)
    values = rng.integers(0, hi, size=777).astype(np.int64)
    assert distinct_count(values) == np.unique(values).size
    np.testing.assert_array_equal(sorted_unique_ints(values), np.unique(values))
    assert distinct_count(np.zeros(0, dtype=np.int64)) == 0
    assert sorted_unique_ints(np.zeros(0, dtype=np.int64)).size == 0


def _serialized_min_scalar(current, idx, values):
    """Scalar reference: atomicMin ops retiring in program order."""
    old = np.empty(idx.size, dtype=np.float64)
    updated = np.empty(idx.size, dtype=bool)
    for i, (j, v) in enumerate(zip(idx, values)):
        old[i] = current[j]
        updated[i] = v < current[j]
        current[j] = min(current[j], v)
    return old, updated


@pytest.mark.parametrize("n,cells", [(50, 8), (700, 30), (700, 10**6)])
def test_serialized_min_outcome_matches_scalar_reference(n, cells):
    rng = np.random.default_rng(n + cells)
    idx = rng.integers(0, cells, size=n).astype(np.int64)
    values = rng.random(n) * 10
    base = rng.random(max(cells, int(idx.max()) + 1)) * 10

    cur_vec = base.copy()
    old_vec, upd_vec = serialized_min_outcome(cur_vec, idx, values)
    cur_ref = base.copy()
    old_ref, upd_ref = _serialized_min_scalar(cur_ref, idx, values)

    np.testing.assert_array_equal(old_vec, old_ref)
    np.testing.assert_array_equal(upd_vec, upd_ref)
    np.testing.assert_array_equal(cur_vec, cur_ref)


def test_serialized_min_distinct_fast_path_equals_general():
    rng = np.random.default_rng(3)
    idx = rng.permutation(900).astype(np.int64)[:600]  # all distinct
    values = rng.random(600) * 5
    base = rng.random(900) * 5

    cur_fast = base.copy()
    old_fast, upd_fast = serialized_min_outcome(
        cur_fast, idx, values, distinct=idx.size
    )
    cur_gen = base.copy()
    old_gen, upd_gen = serialized_min_outcome(cur_gen, idx, values)

    np.testing.assert_array_equal(old_fast, old_gen)
    np.testing.assert_array_equal(upd_fast, upd_gen)
    np.testing.assert_array_equal(cur_fast, cur_gen)


# ---------------------------------------------------------------------------
# scan-coalesce memo
# ---------------------------------------------------------------------------


def test_scan_coalesce_memo_is_exact_and_scoped():
    n = 5000
    device = GPUDevice()
    arr = device.alloc(np.zeros(n), name="dist")
    a = thread_per_item(n)
    idx = np.arange(n, dtype=np.int64)

    with device.launch("scan") as ctx:
        ctx.gather(arr, idx, a)
        ctx.gather(arr, idx, a)  # second call must be served by the memo
    assert len(device._scan_coalesce) == 1
    key = (arr.base_address, n)
    cached = device._scan_coalesce[key]
    direct = coalesce(
        arr.addresses(idx), a.slots, V100.sector_bytes, V100.cache_line_bytes
    )
    assert cached[0] is a.slots
    assert cached[1] == direct[1]
    np.testing.assert_array_equal(cached[2], direct[2])

    # both gathers charged identical, full-price counters
    fresh = GPUDevice()
    arr2 = fresh.alloc(np.zeros(n), name="dist")
    with fresh.launch("scan") as ctx:
        ctx.gather(arr2, idx, a)
    once = fresh.counters.totals
    twice = device.counters.totals
    assert twice.inst_executed_global_loads == 2 * once.inst_executed_global_loads
    assert twice.global_load_transactions == 2 * once.global_load_transactions
    assert twice.l1_accesses == 2 * once.l1_accesses


def test_scan_coalesce_memo_rejects_non_arange_and_stale_slots():
    n = 2000
    device = GPUDevice()
    arr = device.alloc(np.zeros(n), name="dist")
    idx = np.arange(n, dtype=np.int64)

    # non-arange gathers must bypass the memo entirely
    a = thread_per_item(n)
    with device.launch("perm") as ctx:
        ctx.gather(arr, idx[::-1].copy(), a)
    assert device._scan_coalesce == {}

    # same (array, n) under a different assignment: identity check on the
    # slot array forces a recompute, and the entry is replaced
    b = grid_stride(n, 256)
    with device.launch("scan") as ctx:
        ctx.gather(arr, idx, a)
        ctx.gather(arr, idx, b)
    entry = device._scan_coalesce[(arr.base_address, n)]
    assert entry[0] is b.slots
    direct = coalesce(
        arr.addresses(idx), b.slots, V100.sector_bytes, V100.cache_line_bytes
    )
    assert entry[1] == direct[1]
    np.testing.assert_array_equal(entry[2], direct[2])


def test_pattern_memo_hit_equals_fresh_coalesce(monkeypatch):
    # relax_batch's shape: two arrays gathered through one index array
    device = GPUDevice()
    adj = device.alloc(np.arange(3000, dtype=np.int64), name="adj")
    weights = device.alloc(np.ones(3000), name="weights")
    narrow = device.alloc(np.ones(3000, dtype=np.float32), name="narrow")
    rng = np.random.default_rng(9)
    idx = rng.integers(0, 3000, size=700).astype(np.int64)
    a = thread_per_item(700)
    real = device_module.coalesce
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(device_module, "coalesce", counted)
    with device.launch("relax") as ctx:
        ctx.gather(adj, idx, a)
        got = ctx._coalesced(weights, idx, a)
        assert len(calls) == 1  # served by the memo, shifted to weights
        # a base off the sector grid, and another itemsize, recompute
        off_grid = type(weights)(weights.data, weights.base_address + 8)
        shifted = ctx._coalesced(off_grid, idx, a)
        assert len(calls) == 2
        ctx._coalesced(narrow, idx, a)
    assert len(calls) == 3
    for arr, out in ((weights, got), (off_grid, shifted)):
        _, transactions, sectors = real(
            arr.addresses(idx), a.slots, V100.sector_bytes,
            V100.cache_line_bytes,
        )
        assert out[0] == transactions
        np.testing.assert_array_equal(out[1], sectors)


# ---------------------------------------------------------------------------
# assignment factories: analytic num_slots, memoization, finalize guard
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 1000])
def test_thread_per_item_num_slots_analytic(n):
    a = thread_per_item(n)
    assert a.num_slots == np.unique(a.slots).size


@pytest.mark.parametrize("n,t", [(0, 64), (1, 64), (100, 64), (1000, 96), (513, 512)])
def test_grid_stride_num_slots_analytic(n, t):
    a = grid_stride(n, t)
    assert a.num_slots == np.unique(a.slots).size


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_edge_factories_num_slots_analytic(seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 40, size=200).astype(np.int64)
    a = thread_per_vertex_edges(counts)
    assert a.num_slots == np.unique(a.slots).size
    b = threads_per_vertex_edges(counts, 32)
    assert b.num_slots == np.unique(b.slots).size


def test_scalar_factories_are_memoized():
    assert thread_per_item(100) is thread_per_item(100)
    assert grid_stride(100, 64) is grid_stride(100, 64)


def test_finalize_requires_analytic_num_slots():
    with pytest.raises(AssertionError, match="analytically"):
        _finalize(np.zeros(3, dtype=np.int64), 3, 32, 1)


# ---------------------------------------------------------------------------
# observer dispatch and host_copy gating
# ---------------------------------------------------------------------------


class _Recorder:
    def __init__(self):
        self.annotations = []
        self.host_writes = []

    def on_annotate(self, device, tag, payload):
        self.annotations.append(tag)

    def on_host_write(self, device, arr, idx, values):
        self.host_writes.append(np.asarray(idx).copy())


def test_observer_dispatch_rebuilds_on_list_mutation():
    device = GPUDevice()
    assert device.handlers("on_annotate") == ()
    rec = _Recorder()
    device.observers.append(rec)
    assert len(device.handlers("on_annotate")) == 1
    device.annotate("tag")
    assert rec.annotations == ["tag"]
    device.observers.remove(rec)
    assert device.handlers("on_annotate") == ()
    device.annotate("after")  # nobody listening: no error, no record
    assert rec.annotations == ["tag"]

    other = _Recorder()
    device.observers.append(rec)
    device.observers[0] = other  # __setitem__ rebuilds too
    device.annotate("replaced")
    assert other.annotations == ["replaced"] and rec.annotations == ["tag"]
    device.observers.clear()
    assert device.handlers("on_annotate") == ()


def test_host_copy_gating():
    device = GPUDevice()
    arr = device.alloc(np.zeros(64), name="buf")
    device.host_copy(arr, np.ones(64))  # unobserved: plain copy
    np.testing.assert_array_equal(arr.data, np.ones(64))

    rec = _Recorder()
    device.observers.append(rec)
    device.host_copy(arr, np.full(64, 2.0))
    np.testing.assert_array_equal(arr.data, np.full(64, 2.0))
    assert len(rec.host_writes) == 1
    np.testing.assert_array_equal(rec.host_writes[0], np.arange(64))
