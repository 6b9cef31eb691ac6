"""Seeded workload definitions of the repository benchmark.

Every workload is the same two-part traffic mix on graphs of its own
family:

* an **engine sweep** — direct ``repro.sssp.api.sssp`` calls, one per
  (graph, source, engine) over the five simulated-GPU engines;
* **serve sessions** — open-loop ``repro.serve.scheduler.serve_traffic``
  sessions with the serve-mixed traffic on a 48x48 road grid, each with
  its own seed, so its own hot pool, landmarks and query stream.

What differs is what the engines pay for: the road grids make them pay
thousands of tiny launches, the power-law graphs per-element accounting
over wide frontiers.  Every graph, source and ``ServeConfig.seed`` is
a pure function of the benchmark seed, so the same seed gives the same
inputs.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.properties import largest_component_vertices
from repro.serve.workload import ServeConfig

__all__ = [
    "ENGINES",
    "WORKLOADS",
    "GraphSpec",
    "Workload",
    "build_workload",
    "draw_sources",
]

#: the simulated-GPU engines every sweep runs, in run order
ENGINES = ("bl", "adds", "near-far", "rdbs", "mlmq")

WORKLOADS = ("road-diameter", "powerlaw-wide")

#: side of the corner block road-grid sources are drawn from
_CORNER = 8

#: serve-mixed sessions per workload.  A session's host cost per query
#: depends on which 12 hot sources and 8 landmarks its seed drew, so one
#: long session measures mostly that draw.  Host queries/s across 8-10
#: seeds spread (quartile distance over median) 0.12 with one 200-query
#: session, 0.10 with 4 x 100 queries and 0.04 with 8 x 50 queries.
SESSIONS = 8


@dataclass(frozen=True)
class GraphSpec:
    """One graph: a seeded generator call plus its source rule."""

    name: str
    build: Callable[[], CSRGraph]
    #: sweep sources drawn from this graph
    sources: int = 1
    #: grid width when sources come from the corner block at vertex 0
    #: (so every solve crosses the grid's full diameter); None = any
    #: vertex of the largest component
    grid_width: int | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    #: graphs of the engine sweep
    graphs: tuple[GraphSpec, ...]
    #: seed of the sweep's source draws
    source_seed: int
    #: graph of the serve sessions
    serve_graph: GraphSpec
    #: one config per serve session, each with its own seed
    serve: tuple[ServeConfig, ...]


def _road(name: str, width: int, height: int, seed: int,
          sources: int = 1) -> GraphSpec:
    # the road-TX surrogate recipe (repro.graphs.surrogates)
    return GraphSpec(
        name,
        lambda: gen.grid_road_network(
            width, height, diagonal_prob=0.03, drop_prob=0.06,
            seed=seed, name=name,
        ),
        sources=sources,
        grid_width=width,
    )


def _kron(name: str, scale: int, seed: int, sources: int) -> GraphSpec:
    # Graph500 Kronecker, edgefactor 16, integer weights
    return GraphSpec(
        name,
        lambda: gen.kronecker(scale, 16, weights="int", seed=seed, name=name),
        sources=sources,
    )


def _pa(name: str, n: int, seed: int, sources: int) -> GraphSpec:
    # Amazon-class preferential attachment
    return GraphSpec(
        name, lambda: gen.preferential_attachment(n, 4, seed=seed, name=name),
        sources=sources,
    )


def _serve_mixed(num_queries: int, side: int, seed: int) -> ServeConfig:
    """The serve-mixed traffic on a ``side``x``side`` road grid.

    p2p and single-source queries from a 12-source hot pool plus a cold
    p2p slice; a landmark budget that certifies some cold pairs; an LRU
    capped at 3 fields, below the hot pool's footprint, so puts and
    evictions run beside hits.  At 70 queries per simulated ms the two
    shards are about a third busy: the backlog stays bounded, and latency
    is set by the batching window and batch service time.  Exact runs
    use ADDS: its launch count on road grids barely moves with the
    source, so latency reflects the scheduler rather than RDBS's
    source-sensitive bucket count.
    """
    return ServeConfig(
        num_queries=num_queries, seed=seed, p2p_fraction=0.7,
        tolerance=0.15, source_pool=12, popularity=0.5, cold_fraction=0.2,
        landmarks=8, shards=2, rate_qpms=70.0, method="adds",
        cache_bytes=3 * side * side * 8,
    )


def build_workload(name: str, seed: int, scale: str = "full") -> Workload:
    """The workload ``name`` with every input derived from ``seed``;
    ``scale="smoke"`` shrinks every input for the benchmark's own tests."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    smoke = scale == "smoke"
    seeds = iter(int(x) for x in np.random.default_rng(seed).integers(0, 2**31, 16))
    # several solves per engine: one solve's simulated time varies by
    # 15-30% with the source (RDBS on roads, every engine on Kronecker)
    # and with the Kronecker draw, and the metrics are means over solves
    k = 1 if smoke else 3
    if name == "road-diameter":
        side, strip_w, strip_h = (24, 8, 96) if smoke else (64, 16, 256)
        # 6 sources a grid: with 3, RDBS's mean spread 0.12 across 30 seeds
        graphs = (
            _road("road-square", side, side, next(seeds), sources=2 * k),
            _road("road-strip", strip_w, strip_h, next(seeds), sources=2 * k),
        )
    else:
        kscale, pa_n = (10, 2000) if smoke else (14, 20000)
        graphs = tuple(
            _kron(f"kron{kscale}-{i}", kscale, next(seeds), sources=2)
            for i in range(1 if smoke else 3)
        ) + (_pa("pa", pa_n, next(seeds), sources=k),)
    serve_side, sessions, queries = (16, 2, 20) if smoke else (48, SESSIONS, 50)
    return Workload(
        name, seed,
        graphs=graphs,
        source_seed=next(seeds),
        serve_graph=_road("road-serve", serve_side, serve_side, next(seeds)),
        serve=tuple(
            _serve_mixed(queries, serve_side, next(seeds)) for _ in range(sessions)
        ),
    )


def draw_sources(graph: CSRGraph, spec: GraphSpec,
                 rng: np.random.Generator) -> list[int]:
    """``spec.sources`` distinct seeded largest-component sources."""
    comp = largest_component_vertices(graph)
    if spec.grid_width is not None:
        w = spec.grid_width
        corner = comp[(comp % w < _CORNER) & (comp // w < _CORNER)]
        if corner.size:
            comp = corner
    return [int(v) for v in rng.choice(comp, size=spec.sources, replace=False)]
