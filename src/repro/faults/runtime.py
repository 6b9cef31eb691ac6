"""The self-healing runtime: checkpoints, probes, watchdog, repair.

A :class:`RecoveryRuntime` rides along inside an SSSP engine's main loop:

* **checkpoints** — every ``checkpoint_interval`` epochs the distance
  array is staged to the host (real GPUs checkpoint over PCIe the same
  way; the copy is host-side and uncounted, like all host orchestration);
* **probes** — every ``probe_interval`` epochs a cheap invariant check
  runs: distances must stay monotone against the checkpoint (atomicMin
  never raises a cell), free of NaN/negatives, and a *sampled*
  triangle-inequality scan over pre-chosen edges (a counted device kernel)
  must hold.  Monotonicity violations are repaired in place from the
  checkpoint;
* **watchdog** — the asynchronous phase-1 drain gets a per-bucket round
  budget; exceeding it (livelock from corrupted re-queues) raises
  :class:`WatchdogTimeout`, on which the engine rolls back and degrades
  BASYN to synchronous bucket execution;
* **rollback** — bounded retry: up to ``max_retries`` rollbacks to the
  last good checkpoint; past the budget the engine continues from its
  current (partially relaxed, still monotone) state;
* **final repair** — :meth:`finish` runs counted verify/relax sweeps to a
  fixpoint: underestimates (bit-flips below the true distance, which no
  relaxation check can see) are found by a witness scan — a finite
  non-source distance with no incoming edge explaining it is corrupt —
  and purged to ``inf``; overestimates are re-relaxed by full Bellman–Ford
  sweeps.  Both converge because distances are bounded and fault budgets
  are finite.

The runtime shares its :class:`~repro.faults.report.FaultReport` with an
attached :class:`~repro.faults.injector.FaultInjector` (discovered through
``device.observers``) so injections and recovery actions land in one log.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gpusim.kernels import grid_stride
from .injector import FaultInjector
from .plan import InjectedKernelAbort
from .report import FaultReport

__all__ = [
    "RecoveryPolicy",
    "RecoveryRuntime",
    "Watchdog",
    "WatchdogTimeout",
    "make_runtime",
    "verify_distances_host",
]

_RTOL = 1e-9
_ATOL = 1e-9


class WatchdogTimeout(RuntimeError):
    """Asynchronous phase-1 exceeded its round budget (stall/livelock)."""


@dataclass(frozen=True)
class RecoveryPolicy:
    """Tunables of the self-healing runtime."""

    #: epochs between distance-array checkpoints
    checkpoint_interval: int = 4
    #: epochs between invariant probes
    probe_interval: int = 2
    #: edges sampled by the triangle-inequality probe kernel
    probe_sample: int = 512
    #: watchdog round budget: max(min_rounds, factor * ceil(work / chunk))
    watchdog_min_rounds: int = 16
    watchdog_factor: int = 8
    #: rollbacks allowed before continuing from the current state
    max_retries: int = 2
    #: bound on final verify/relax repair sweeps
    max_repair_sweeps: int = 100
    #: seed for probe-edge sampling
    seed: int = 0


class Watchdog:
    """Round counter for one asynchronous phase; trips past its budget."""

    def __init__(self, budget: int) -> None:
        self.budget = int(budget)
        self.rounds = 0

    def tick(self) -> None:
        """Account one micro-round; raise when the budget is exhausted."""
        self.rounds += 1
        if self.rounds > self.budget:
            raise WatchdogTimeout(
                f"async phase exceeded its {self.budget}-round budget "
                "(stalled or regressing progress)"
            )


def _tol(values: np.ndarray) -> np.ndarray:
    return _ATOL + _RTOL * np.maximum(np.abs(values), 1.0)


def verify_distances_host(graph, source: int, dist: np.ndarray) -> bool:
    """Exact host-side verification of a distance array against ``graph``.

    Checks the full SSSP fixpoint characterization: ``dist[source] == 0``,
    no NaN/negative entries, every edge relax-consistent
    (``dist[v] <= dist[u] + w``), and every finite non-source distance
    explained by an incoming witness edge (``dist[v] >= min_u dist[u]+w``)
    — the condition that exposes *under*-estimates, which edge relaxation
    alone can never flag.
    """
    dist = np.asarray(dist)
    if dist.size == 0:
        return True
    if not np.isfinite(dist[source]) or abs(float(dist[source])) > _ATOL:
        return False
    finite = dist[np.isfinite(dist)]
    if np.isnan(dist).any() or (finite < 0).any():
        return False
    if graph.num_edges == 0:
        reachable = np.zeros(dist.size, dtype=bool)
        reachable[source] = True
        return bool(np.isinf(dist[~reachable]).all())
    srcs = graph.edge_sources()
    du = dist[srcs]
    ok_mask = np.isfinite(du)
    nd = np.where(ok_mask, du, 0.0) + graph.weights
    # relaxation: no edge may still improve its target
    viol = ok_mask & (dist[graph.adj] > nd + _tol(nd))
    if viol.any():
        return False
    # witness: every finite non-source distance has an incoming explanation
    cand = np.full(dist.size, np.inf)
    np.minimum.at(cand, graph.adj[ok_mask], nd[ok_mask])
    cand[source] = 0.0
    finite_v = np.isfinite(dist)
    cand_f = np.isfinite(cand)
    tol = _tol(np.where(cand_f, cand, 1.0))
    under = finite_v & (~cand_f | (dist < cand - tol))
    return not under.any()


def make_runtime(
    recovery, device, dgraph, dist, source: int, method: str
) -> "RecoveryRuntime | None":
    """Engine-side helper: resolve the ``recovery=`` kwarg to a runtime.

    ``recovery`` may be falsy (no runtime — the zero-cost default), ``True``
    (default policy) or a :class:`RecoveryPolicy`.
    """
    if not recovery:
        return None
    policy = recovery if isinstance(recovery, RecoveryPolicy) else None
    return RecoveryRuntime(device, dgraph, dist, source, policy, method)


class RecoveryRuntime:
    """Checkpoint/probe/repair state for one engine run.

    ``dgraph`` supplies the device-resident CSR (and, through
    ``dgraph.graph``, its host twin); ``dist`` is the engine's live
    distance array and ``source`` the source vertex *in the same id
    space*.
    """

    def __init__(
        self,
        device,
        dgraph,
        dist,
        source: int,
        policy: RecoveryPolicy | None = None,
        method: str = "",
    ) -> None:
        self.device = device
        self.dgraph = dgraph
        self.dist = dist
        self.source = int(source)
        self.policy = policy or RecoveryPolicy()
        self.method = method
        # share the injector's report when one is attached, so injections
        # and recovery actions interleave in a single log
        for obs in device.observers:
            if isinstance(obs, FaultInjector):
                self.report = obs.report
                break
        else:
            self.report = FaultReport()

        graph = dgraph.graph
        self._srcs = graph.edge_sources()
        self._eidx = np.arange(graph.num_edges, dtype=np.int64)
        rng = np.random.default_rng(self.policy.seed)
        m = graph.num_edges
        k = min(self.policy.probe_sample, m)
        self._probe_edges = (
            np.sort(rng.choice(m, size=k, replace=False)) if k else self._eidx
        )
        self._epoch = 0
        self._ckpt: np.ndarray | None = None
        self._ckpt_mark = None
        self.checkpoint()

    def log(self, action: str) -> None:
        """Log a recovery action, mirroring it onto the annotate stream so
        an attached tracer timestamps it on the simulated timeline."""
        self.report.log_action(action)
        if self.device.handlers("on_annotate"):
            self.device.annotate("recovery", action=action)

    # ------------------------------------------------------------------
    # epoch cadence
    # ------------------------------------------------------------------
    def epoch(self, mark=None) -> None:
        """One engine iteration boundary: run the cadenced probe/checkpoint."""
        self._epoch += 1
        p = self.policy
        if self._epoch % p.probe_interval == 0:
            self.probe()
        if self._epoch % p.checkpoint_interval == 0:
            self._repair_cells()  # never checkpoint corrupt state
            self.checkpoint(mark)

    def new_watchdog(self, work: int, chunk: int) -> Watchdog:
        """A round budget sized to the work one async phase should need."""
        p = self.policy
        expected = -(-max(int(work), 1) // max(int(chunk), 1))  # ceil
        return Watchdog(max(p.watchdog_min_rounds, p.watchdog_factor * expected))

    # ------------------------------------------------------------------
    # checkpoints & rollback
    # ------------------------------------------------------------------
    def checkpoint(self, mark=None) -> None:
        """Stage the distance array (and an engine mark) to the host."""
        self._ckpt = self.dist.data.copy()
        self._ckpt_mark = mark

    def rollback(self):
        """Restore the last checkpoint; returns its engine mark."""
        self.device.host_copy(self.dist, self._ckpt)
        self.report.rollbacks += 1
        self.log("rollback to last checkpoint")
        return self._ckpt_mark

    def recover(self, exc: BaseException, fallback_mark=None):
        """Handle a watchdog/abort: bounded rollback, then keep going.

        Returns the engine mark to resume from — the checkpoint's when a
        rollback happened, else ``fallback_mark`` (the engine continues
        from its current, still-monotone state once the retry budget is
        spent; the final repair sweeps remain as the safety net).
        """
        self.report.mark_detected()
        self.log(f"caught {type(exc).__name__}: {exc}")
        if self.report.rollbacks < self.policy.max_retries:
            return self.rollback()
        self.log("retry budget spent; continuing without rollback")
        return fallback_mark

    def note_degraded(self) -> None:
        """Record the async→sync graceful degradation."""
        self.report.degraded = True
        self.log("degraded BASYN phase 1 to synchronous execution")

    # ------------------------------------------------------------------
    # probes
    # ------------------------------------------------------------------
    def _repair_cells(self) -> int:
        """Host monotonicity check against the checkpoint; repair in place.

        ``atomicMin`` never raises a cell and never writes NaN/negatives,
        so any such cell is corrupt; restoring the checkpoint value (a
        valid upper bound of the true distance) is always safe.
        """
        cur = self.dist.data
        bad = np.isnan(cur) | (cur < 0)
        if self._ckpt is not None:
            bad |= cur > self._ckpt
        bad_idx = np.flatnonzero(bad)
        if bad_idx.size:
            repair = (
                self._ckpt[bad_idx] if self._ckpt is not None
                else np.full(bad_idx.size, np.inf)
            )
            self.device.host_store(self.dist, bad_idx, repair)
            self.report.repaired_cells += int(bad_idx.size)
            self.report.mark_detected()
            self.log(
                f"probe: repaired {bad_idx.size} non-monotone/corrupt cell(s)"
            )
        return int(bad_idx.size)

    def probe(self) -> None:
        """Cheap online invariant probe (counted sampled-edge kernel)."""
        self._repair_cells()
        sample = self._probe_edges
        if sample.size == 0:
            return
        try:
            with self.device.launch("recovery_probe") as k:
                a = grid_stride(sample.size, 32 * 256)
                du = k.gather(self.dist, self._srcs[sample], a)
                v = k.gather(self.dgraph.adj, sample, a)
                wt = k.gather(self.dgraph.weights, sample, a)
                k.alu(a, ops=2)
        except InjectedKernelAbort:
            self.log("probe kernel aborted; skipping this probe")
            return
        nd = du + wt
        dv = self.dist.data[v]
        finite = np.isfinite(nd)
        if np.any(finite & (dv > nd + _tol(nd))):
            self.report.mark_detected()
            self.log(
                "probe: sampled triangle inequality violated "
                "(deferring to final repair)"
            )

    # ------------------------------------------------------------------
    # abort entry point for frontier engines
    # ------------------------------------------------------------------
    def on_abort(self, exc: BaseException) -> np.ndarray:
        """Recover from an abort; returns a conservative restart frontier."""
        self.recover(exc)
        return np.flatnonzero(np.isfinite(self.dist.data)).astype(np.int64)

    # ------------------------------------------------------------------
    # final repair
    # ------------------------------------------------------------------
    def _witness_scan(self) -> np.ndarray:
        """Counted full-edge scan; returns per-vertex best candidate."""
        n = self.dist.size
        cand = np.full(n, np.inf)
        m = self._eidx.size
        if m:
            with self.device.launch("recovery_verify") as k:
                a = grid_stride(m, 32 * 256)
                du = k.gather(self.dist, self._srcs, a)
                v = k.gather(self.dgraph.adj, self._eidx, a)
                wt = k.gather(self.dgraph.weights, self._eidx, a)
                k.alu(a, ops=2)
            nd = du + wt
            ok = np.isfinite(nd)
            np.minimum.at(cand, v[ok], nd[ok])
        cand[self.source] = 0.0
        return cand

    def _relax_sweep(self) -> None:
        """Counted full-edge Bellman–Ford relaxation sweep."""
        m = self._eidx.size
        if not m:
            return
        with self.device.launch("recovery_relax") as k:
            a = grid_stride(m, 32 * 256)
            du = k.gather(self.dist, self._srcs, a)
            v = k.gather(self.dgraph.adj, self._eidx, a)
            wt = k.gather(self.dgraph.weights, self._eidx, a)
            k.alu(a, ops=3)
            k.atomic_min(self.dist, v, du + wt, a)
        self.device.barrier()

    def finish(self) -> bool:
        """Repair to a verified fixpoint; finalize and return the verdict."""
        n = self.dist.size
        src = self.source
        if not np.isfinite(self.dist.data[src]) or self.dist.data[src] != 0.0:
            self.device.host_store(self.dist, src, 0.0)
            self.report.repaired_cells += 1
            self.report.mark_detected()
            self.log("repaired corrupted source distance")

        vid = np.arange(n)
        for _ in range(self.policy.max_repair_sweeps):
            try:
                cand = self._witness_scan()
            except InjectedKernelAbort:
                self.log("verify sweep aborted; retrying")
                self.report.repair_sweeps += 1
                continue
            cur = self.dist.data
            corrupt = np.isnan(cur) | (cur < 0)
            finite = np.isfinite(cur)
            # a finite non-source distance below every incoming candidate
            # has no witness: it is an underestimate (e.g. a downward
            # bit-flip) that plain relaxation would silently propagate
            cand_f = np.isfinite(cand)
            tol = _tol(np.where(cand_f, cand, 1.0))
            under = finite & (vid != src) & (~cand_f | (cur < cand - tol))
            over = cand_f & (cur > cand + tol)
            bad = corrupt | under
            if not bad.any() and not over.any():
                break
            self.report.mark_detected()
            self.report.repair_sweeps += 1
            if bad.any():
                bad_idx = np.flatnonzero(bad)
                self.device.host_store(self.dist, bad_idx, np.inf)
                self.report.repaired_cells += int(bad_idx.size)
                self.log(
                    f"repair: purged {bad_idx.size} witness-less cell(s)"
                )
            try:
                self._relax_sweep()
            except InjectedKernelAbort:
                self.log("relax sweep aborted; retrying")

        ok = verify_distances_host(self.dgraph.graph, src, self.dist.data)
        self.report.finalize(ok)
        self.log(
            "final verification passed" if ok else "final verification FAILED"
        )
        return ok
