"""Unified L1/tex cache model (reuse-distance / footprint approximation).

Simulating an exact per-access LRU in Python would serialize millions of
events, so the simulator uses the classic *footprint* approximation, which
is deterministic, vectorized and accurate enough to rank locality effects:

1. the per-launch transaction stream is reduced to 32 B *sector* ids in
   issue order (Volta-class L1/tex caches are sectored: a miss fills only
   the touched sector, so reuse is tracked per sector, not per line);
2. each access's *reuse gap* ``T`` (number of transactions since the previous
   access to the same sector) is computed with one stable sort;
3. the expected number of *distinct* sectors inside a gap of length ``T``
   over a working set of ``U`` sectors is ``d(T) = U * (1 - (1 - 1/U)**T)``
   (the standard uniform-footprint estimate);
4. the access hits iff ``d(T) <= capacity_sectors``; first-touch accesses
   are cold misses.

Because the L1s of all SMs consume interleaved thinnings of the same stream,
per-SM capacity with a 1/num_sms-thinned stream is equivalent to aggregate
capacity on the full stream, so ``capacity_sectors`` is the device-wide L1
sector count.  The model makes PRO's effect *measurable*: degree reordering
concentrates the hot distance entries into few sectors and shortens reuse
gaps, which raises the modeled hit rate exactly as nvprof shows in the
paper's Fig. 10(d).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .spec import GPUSpec
from ..util.scan import stable_sort_with_order

__all__ = ["CacheModel", "CacheStream", "reuse_gaps", "reuse_horizon"]


def reuse_gaps(lines: np.ndarray) -> np.ndarray:
    """Gap (in transactions) since the previous access to the same line.

    Returns -1 for first-touch accesses.  One stable argsort, no Python
    loops.
    """
    n = lines.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(lines, kind="stable")
    sorted_lines = lines[order]
    sorted_pos = order.astype(np.int64)
    gaps_sorted = np.full(n, -1, dtype=np.int64)
    same_as_prev = np.zeros(n, dtype=bool)
    same_as_prev[1:] = sorted_lines[1:] == sorted_lines[:-1]
    gaps_sorted[same_as_prev] = (
        sorted_pos[same_as_prev] - sorted_pos[np.flatnonzero(same_as_prev) - 1]
    )
    gaps = np.empty(n, dtype=np.int64)
    gaps[order] = gaps_sorted
    return gaps


class CacheModel:
    """Footprint-approximation L1/tex cache for one simulated device.

    State is reset per kernel launch (CUDA L1s are not persistent across
    kernel boundaries), which matches nvprof's per-kernel hit-rate
    accounting.
    """

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self.capacity_sectors = max(1, spec.total_l1_bytes // spec.sector_bytes)

    def hits(self, lines: np.ndarray) -> np.ndarray:
        """Boolean hit mask for a transaction stream of sector ids."""
        n = lines.size
        if n == 0:
            return np.zeros(0, dtype=bool)
        gaps = reuse_gaps(lines)
        touched = np.unique(lines).size
        mask = gaps >= 0
        out = np.zeros(n, dtype=bool)
        if not mask.any():
            return out
        # expected distinct lines within each gap, uniform-footprint model
        u = float(touched)
        t = gaps[mask].astype(np.float64)
        if u <= 1.0:
            distinct = np.ones_like(t)
        else:
            # u * (1 - (1 - 1/u)**t), computed in log space for stability
            distinct = u * -np.expm1(t * np.log1p(-1.0 / u))
        out[mask] = distinct <= self.capacity_sectors
        return out

    def hit_count(self, lines: np.ndarray) -> int:
        """Number of hits in the given transaction stream."""
        return int(self.hits(lines).sum())




def _fits(u: float, log_base, t: int, capacity: int) -> bool:
    """``d(t) <= capacity``, evaluated with the exact ufunc expression of
    :meth:`CacheModel.hits` (NumPy's float64 ``expm1``/``log1p`` have a
    single scalar inner loop, so a 1-element probe is bit-identical to the
    corresponding element of a bulk call)."""
    d = u * -np.expm1(np.array([float(t)]) * log_base)
    return bool(d[0] <= capacity)


@lru_cache(maxsize=1 << 14)
def reuse_horizon(u: int, capacity: int) -> int:
    """Largest reuse gap that still hits over a working set of ``u`` sectors.

    ``d(t) = u * (1 - (1 - 1/u)**t)`` is increasing in ``t``, so
    :meth:`CacheModel.hits` marks a reuse with gap ``t`` as a hit exactly
    when ``t <= reuse_horizon(u, capacity)``.  A working set within
    capacity makes every reuse a hit (IEEE ``expm1`` saturates at -1, so
    ``d(t)`` never exceeds ``u``).  Otherwise the closed-form boundary
    ``log1p(-capacity/u) / log1p(-1/u)`` is refined by probing the very
    expression ``CacheModel.hits`` evaluates, so the integer returned is
    the exact float boundary, not an estimate.  A pure function of its
    two integers, hence the (bounded) memo.
    """
    if u <= capacity:
        return np.iinfo(np.int64).max
    uf = float(u)
    log_base = np.log1p(-1.0 / uf)
    h = max(int(math.log1p(-capacity / uf) / math.log1p(-1.0 / uf)), 0)
    while h > 0 and not _fits(uf, log_base, h, capacity):
        h -= 1
    while _fits(uf, log_base, h + 1, capacity):
        h += 1
    return h


class CacheStream:
    """Incremental launch-at-a-time evaluation of the rolling device stream.

    The device models L2 persistence across launches by prepending the tail
    (last ``capacity_sectors`` transactions) of the preceding launches to
    each launch's load stream before resolving hits.  Evaluating that
    naively costs a sort + unique over ``tail + lines`` per launch, so a
    short kernel would pay O(capacity) host time however little it loads —
    the dominant host cost of bucket engines that issue thousands of small
    launches.  This class costs each launch time in proportion to its own
    lines.  It keeps three pieces of state:

    * a *last-position table*: the absolute stream position of every
      sector's most recent access, indexed directly by sector id (``-1``
      for never).  It covers the sectors from ``base_sector`` (the device's
      first allocation) to the highest sector loaded so far, with no
      slack, and grows only when a launch loads outside it;
    * a *ring* of the sector ids at the last ``capacity`` positions (grown
      with the stream up to ``capacity``), so positions leaving the window
      can be looked up;
    * the *distinct-sector count of the window*, maintained incrementally:
      a position dropping out of the window lowers it only when it is its
      sector's last occurrence.

    Per launch this reproduces ``CacheModel.hits(tail + lines)[len(tail):]``
    **bit for bit**:

    * a gap within the launch equals the :func:`reuse_gaps` value;
    * a first touch whose sector last occurred at absolute position ``p``
      with ``p >= tail_start`` gets gap ``pos - p`` (its position
      difference inside the concatenated stream);
    * the working-set size ``U`` equals the distinct-sector count of the
      concatenated stream: sectors alive in the window plus launch sectors
      not already among them;
    * a reuse hits iff its gap is at most :func:`reuse_horizon` ``(U)``,
      which is computed from the very same footprint expression.

    Equivalence is locked in by ``tests/test_perf_device_fastpaths.py``,
    which replays random streams through both implementations.
    """

    def __init__(self, model: CacheModel, base_sector: int = 0) -> None:
        self.model = model
        self.capacity = model.capacity_sectors
        #: sector id of ``_last[0]``
        self._lo = int(base_sector)
        #: absolute stream position of each sector's most recent access
        self._last = np.zeros(0, dtype=np.int64)
        #: sector id of absolute position ``p`` at ``_ring[p % capacity]``
        self._ring = np.zeros(0, dtype=np.int64)
        #: distinct sectors among the last ``capacity`` positions
        self._distinct = 0
        #: total transactions observed so far (absolute stream length)
        self._total = 0

    def _cover(self, lo: int, hi: int) -> None:
        """Grow the last-position table to cover sectors ``lo..hi``."""
        old_lo, size = self._lo, self._last.size
        if lo >= old_lo and hi < old_lo + size:
            return
        new_lo = min(lo, old_lo)
        table = np.full(
            max(hi + 1, old_lo + size) - new_lo, -1, dtype=np.int64
        )
        table[old_lo - new_lo:old_lo - new_lo + size] = self._last
        self._lo, self._last = new_lo, table

    def _ring_span(self, p0: int, p1: int) -> np.ndarray:
        """Sector ids at absolute positions ``p0..p1-1`` of the window."""
        i0 = p0 % self.capacity
        i1 = i0 + (p1 - p0)
        if i1 <= self.capacity:
            return self._ring[i0:i1]
        return np.concatenate(
            (self._ring[i0:], self._ring[:i1 - self.capacity])
        )

    def hit_count(self, lines: np.ndarray) -> int:
        """Resolve one launch's load stream; returns its hit count."""
        n = int(lines.size)
        if n == 0:
            return 0
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        cap = self.capacity
        start = self._total
        end = start + n
        tail_start = start - min(cap, start)
        self._cover(int(lines.min()), int(lines.max()))
        slot = lines - self._lo if self._lo else lines
        prev = self._last[slot]

        # mark each sector's first and last access of the launch with two
        # max-scatters of position codes that exceed every stored position
        # (ufunc.at applies repeated indices in order; plain fancy
        # assignment does not promise which duplicate wins).  Wide launches
        # make every array here O(n), so each is dropped once used.
        code = np.arange(end + n - 1, end - 1, -1)  # the max is the first
        np.maximum.at(self._last, slot, code)
        first = self._last[slot] == code
        # in place: code becomes end + n + i, increasing, so the max is
        # the last access
        np.subtract(2 * (end + n) - 1, code, out=code)
        np.maximum.at(self._last, slot, code)
        last = self._last[slot] == code
        self._last[slot[last]] = code[last] - 2 * n  # = start + i
        del code, slot

        # U of the virtual (tail + lines) stream; a first touch whose sector
        # is still in the window reuses across the launch boundary
        warm = (first & (prev >= tail_start)).nonzero()[0]
        distinct = int(np.count_nonzero(first))
        del first
        cross_gaps = (start + warm) - prev[warm]
        del prev
        u_total = self._distinct + distinct - int(warm.size)
        horizon = reuse_horizon(u_total, cap)
        hits = int(np.count_nonzero(cross_gaps <= horizon))
        if n - 1 <= horizon:
            # every within-launch gap is below n, so every reuse hits
            hits += n - distinct
        else:
            # wide launch over a large working set: resolve the
            # within-launch gaps with one stable sort of its own lines
            sorted_lines, order = stable_sort_with_order(lines)
            same = sorted_lines[1:] == sorted_lines[:-1]
            del sorted_lines
            gaps = order[1:][same]
            gaps -= order[:-1][same]
            hits += int(np.count_nonzero(gaps <= horizon))

        # slide the window: a position leaving it drops a distinct sector
        # only if it was that sector's last access
        self._distinct = u_total
        new_tail = end - min(cap, end)
        if new_tail > tail_start:
            ring_end = min(new_tail, start)
            gone = self._ring_span(tail_start, ring_end) - self._lo
            self._distinct -= int(np.count_nonzero(
                self._last[gone] == np.arange(tail_start, ring_end)
            ))
            # launch positions leaving at once: the launch is the newest
            # access, so each is its sector's last iff marked ``last``
            leaving = max(new_tail - start, 0)
            self._distinct -= int(np.count_nonzero(last[:leaving]))

        # the ring keeps the window's sector ids; it grows with the stream
        # up to capacity, after which it wraps
        if self._ring.size < min(end, cap):
            ring = np.zeros(min(cap, max(end, 2 * self._ring.size)), np.int64)
            ring[:self._ring.size] = self._ring
            self._ring = ring
        keep = min(n, cap)
        i0 = (end - keep) % cap
        split = min(keep, cap - i0)
        self._ring[i0:i0 + split] = lines[n - keep:n - keep + split]
        self._ring[:keep - split] = lines[n - keep + split:]
        self._total = end
        return hits
