"""The search frame every simulated-GPU SSSP engine runs inside.

Each engine (``bl``, ``harish-narayanan``, ``near-far``, ``adds``,
``rdbs`` and its arms, ``mlmq``) keeps its own loop, buffers and
abort/reseed logic.  :class:`SearchFrame` owns everything around that
loop: source validation; the device, the uploaded
:class:`~repro.sssp.relax.DeviceGraph` and the ``dist`` array with
``dist[source] = 0``, allocated in that order so engine buffers follow at
fixed simulated addresses; the :class:`~repro.metrics.workstats.WorkStats`
recorder; the self-healing runtime (``recovery=``); and the
:class:`~repro.sssp.result.SSSPResult`.

**Id convention.**  ``source`` and the returned ``dist`` are in the ids of
the graph the caller passed, whatever permutation it already carries.  An
engine that searches a relabelled copy (RDBS's PRO) passes ``relabel=``;
the frame applies it to the caller's graph with that graph's own
permutation dropped, so the copy's ``new_to_old`` maps straight back to
the caller's ids and is undone exactly once.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

import numpy as np

from ..faults.runtime import Watchdog, make_runtime
from ..graphs.csr import CSRGraph
from ..gpusim.device import GPUDevice
from ..gpusim.spec import GPUSpec, V100
from ..metrics.workstats import WorkStats, WorkTally
from .errors import ConvergenceError
from .relax import DeviceGraph
from .result import SSSPResult

__all__ = ["SearchFrame"]


class SearchFrame:
    """Device, distances, work tally and recovery for one engine run.

    Engines read ``device``, ``dgraph``, ``dist``, ``stats`` and ``src``
    (the source in the searched graph's ids) and return :meth:`result`.
    With recovery off every fault hook re-raises and every cadence hook
    is a no-op.
    """

    def __init__(
        self,
        graph: CSRGraph,
        source: int,
        method: str,
        *,
        spec: GPUSpec = V100,
        recovery=None,
        relabel: Callable[[CSRGraph], CSRGraph] | None = None,
    ) -> None:
        n = graph.num_vertices
        if not 0 <= source < n:
            raise ValueError(f"source {source} out of range for {n} vertices")
        self.graph = graph
        self.source = self.src = int(source)
        self.method = method
        work = graph
        if relabel is not None:
            if graph.new_to_old is not None:
                graph = dataclasses.replace(
                    graph, new_to_old=None, old_to_new=None
                )
            work = relabel(graph)
            if work.old_to_new is not None:
                self.src = int(work.old_to_new[self.source])
        self.device = GPUDevice(spec)
        self.dgraph = DeviceGraph(self.device, work)
        self.dist = self.device.full(n, np.inf, name="dist")
        self.device.host_store(self.dist, self.src, 0.0)
        self.stats = WorkStats()
        self.stats.record(
            np.array([self.src]), np.array([0.0]), np.array([True])
        )
        self.runtime = make_runtime(
            recovery, self.device, self.dgraph, self.dist, self.src, method
        )
        self.work: WorkTally | None = None

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def epoch(self, mark=None) -> None:
        """One engine iteration boundary: the runtime's probe/checkpoint
        cadence (``mark`` is restored on rollback)."""
        if self.runtime is not None:
            self.runtime.epoch(mark)

    def watchdog(self, work: int, chunk: int) -> Watchdog | None:
        """A round budget for one asynchronous phase draining ``work``."""
        if self.runtime is None:
            return None
        return self.runtime.new_watchdog(work, chunk)

    def recover(self, exc: BaseException, mark=None):
        """Hand a caught fault to the runtime; returns its rollback mark."""
        if self.runtime is None:
            raise exc
        return self.runtime.recover(exc, mark)

    def on_abort(self, exc: BaseException) -> np.ndarray:
        """Recover from an aborted kernel; returns the finite vertices as
        a conservative restart set."""
        if self.runtime is None:
            raise exc
        return self.runtime.on_abort(exc)

    def past_bound(
        self, iterations: int, frontier: int, max_iterations: int | None
    ) -> bool:
        """Whether a frontier loop must stop at ``iterations``.

        An explicit ``max_iterations`` truncates (partial distances).
        ``None`` applies the safety bound ``n + 2`` — a frontier survives
        at most ``n`` rounds, so passing it means corrupted state:
        :class:`ConvergenceError`, or with recovery on, stop and let the
        final repair sweeps restore the fixpoint.
        """
        if max_iterations is not None:
            return iterations > max_iterations
        if iterations <= self.dist.size + 2:
            return False
        self.recover(ConvergenceError(
            "iteration limit exceeded", method=self.method,
            iterations=iterations - 1, frontier=frontier,
        ))
        return True

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def finish(self) -> WorkTally:
        """Run the final repair sweeps (recovery on) and tally the work."""
        if self.runtime is not None:
            self.runtime.finish()
        self.work = self.stats.finalize(self.dist.data)
        return self.work

    def result(self, **extra) -> SSSPResult:
        """The run's :class:`SSSPResult`, in the caller's ids."""
        work = self.work if self.work is not None else self.finish()
        dist = self.dist.data.copy()
        if self.dgraph.graph is not self.graph:
            # the relabelled copy's permutation is relative to the caller's ids
            dist = self.dgraph.graph.to_original_order(dist)
        device = self.device
        return SSSPResult(
            dist=dist,
            source=self.source,
            method=self.method,
            graph_name=self.graph.name,
            time_ms=device.elapsed_ms,
            work=work,
            counters=device.counters,
            num_edges=self.graph.num_edges,
            extra=extra,
            faults=self.runtime.report if self.runtime is not None else None,
        )
