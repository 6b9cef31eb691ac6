"""Set-up, timed phase, checks and metrics of one benchmark run.

A run has three phases:

1. **set-up** (``setup_s``): generate the workload's graphs from the seed,
   draw the sources and their SciPy reference fields, then one untimed
   solve per (graph, engine), and for each serve session its landmark
   oracle bundle and the reference fields of its query sources.  That
   fills a run-private, initially empty artifact cache (PRO, SciPy
   reference fields, oracle bundles) and records the deterministic
   values of the warm-up solves, which the timed phase must reproduce.
2. **timed rounds**: each round repeats the whole sweep and every serve
   session, interleaved; rounds repeat until ``seconds`` have passed (at
   least one).
   Host-clock metrics are medians over rounds.
3. **traced round** (``--trace 1`` only): one more round with span
   wrappers and ``repro.perf.profile`` regions on; it gives the per-layer
   metrics, and its wall time against the untraced rounds gives
   ``trace.overhead_frac``.

Every timed solve is validated against SciPy outside its timed region;
each serve session validates every answer itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.bench.datasets import benchmark_spec
from repro.gpusim.counters import KernelCounters
from repro.perf import artifacts
from repro.perf.profile import profiling
from repro.serve.oracle import warm_oracle
from repro.serve.scheduler import ServeReport, serve_traffic
from repro.serve.workload import generate_queries
from repro.sssp.api import sssp
from repro.sssp.validate import DistanceMismatch, scipy_distances, validate_distances
from spans import Tracer, wrapped
from workloads import ENGINES, build_workload, draw_sources

__all__ = ["run", "span_file"]


def span_file(work_dir: Path, name: str, scale: str, seed: int) -> Path:
    """Where the traced run writes its spans."""
    return work_dir / "traces" / f"{name}-{scale}-seed{seed}.json"


@dataclass
class _Round:
    wall_s: float = 0.0
    edges: int = 0
    sssp_s: float = 0.0
    #: host seconds of each serve session, in session order
    serve_s: list[float] = field(default_factory=list)
    solves: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    counters: dict[str, KernelCounters] = field(default_factory=dict)
    updates: dict[str, list[int]] = field(default_factory=dict)
    reports: list[ServeReport] = field(default_factory=list)


def _solve_signature(res) -> dict:
    sig = {"time_ms": repr(float(res.time_ms)), "counters": res.counters.totals.as_dict()}
    if res.work is not None:
        w = res.work
        sig["work"] = [w.total_updates, w.valid_updates, w.invalid_updates,
                       w.checks, w.relaxations]
    return sig


def _serve_signature(rep: ServeReport) -> dict:
    return {
        "counters": rep.counter_dict(),
        "latencies_ms": [repr(x) for x in rep.latencies_ms],
        "cache": rep.cache_stats,
    }


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def _code_digest(root: Path) -> str:
    """Digest of the program and benchmark sources (keys the persisted
    determinism record, so an edited tree starts a fresh record)."""
    h = hashlib.blake2b(digest_size=12)
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


class _Run:
    def __init__(self, name: str, seed: int, scale: str, work_dir: Path):
        self.wl = build_workload(name, seed, scale)
        self.spec = benchmark_spec()
        self.work_dir = work_dir
        self.graphs = {}
        self.sources = {}
        self.expected: dict[str, dict] = {}
        self.failures = 0
        self.notes: list[str] = []

    # -- set-up --------------------------------------------------------
    def setup(self) -> float:
        """Generate, draw and warm up; returns graph-generation seconds."""
        t = time.perf_counter()
        for g in self.wl.graphs:
            self.graphs[g.name] = g.build()
        self.serve_graph = self.wl.serve_graph.build()
        generate_s = time.perf_counter() - t
        rng = np.random.default_rng(self.wl.source_seed)
        for g in self.wl.graphs:
            graph = self.graphs[g.name]
            self.sources[g.name] = draw_sources(graph, g, rng)
            for source in self.sources[g.name]:
                scipy_distances(graph, source)
        # one solve per (graph, engine), from the graph's first source
        for gname, source, m in self._sweep(first_only=True):
            res, _ = self._solve(gname, source, m)
            if res is None or not self._valid(gname, source, res):
                self.failures += 1
                continue
            self.expected[f"{gname}/{source}/{m}"] = _solve_signature(res)
        # what each session's first play would otherwise build in the
        # timed phase: its oracle bundle and its answers' reference fields
        for cfg in self.wl.serve:
            warm_oracle(self.serve_graph, cfg, spec=self.spec)
            for q in generate_queries(self.serve_graph, cfg):
                scipy_distances(self.serve_graph, q.source)
        return generate_s

    # -- the two parts of a round -------------------------------------
    def _sweep(self, first_only: bool = False) -> list[tuple[str, int, str]]:
        """The sweep's ``(graph, source, engine)`` solves, in run order."""
        return [
            (gname, source, m)
            for gname, sources in self.sources.items()
            for source in (sources[:1] if first_only else sources)
            for m in ENGINES
        ]

    def _solve(self, gname: str, source: int, m: str, span=None):
        """One solve: ``(result or None, host seconds)``."""
        with span(f"sssp.{m}") if span else nullcontext():
            t = time.perf_counter()
            try:
                res = sssp(self.graphs[gname], source, method=m, spec=self.spec)
            except Exception:  # a raising solve is a counted failure
                traceback.print_exc(file=sys.stderr)
                res = None
            return res, time.perf_counter() - t

    def _valid(self, gname: str, source: int, res) -> bool:
        try:
            validate_distances(self.graphs[gname], source, res.dist)
        except DistanceMismatch as exc:
            print(f"{gname}/{res.method}: {exc}", file=sys.stderr)
            return False
        return True

    def _timed_solve(self, r: _Round, gname: str, source: int, m: str, span) -> None:
        res, dt = self._solve(gname, source, m, span)
        r.solves += 1
        if res is None:
            r.failed += 1
            return
        r.sssp_s += dt
        r.edges += self.graphs[gname].num_edges
        with span("validate") if span else nullcontext():
            if not self._valid(gname, source, res):
                r.failed += 1
        # the first timed solve from a source without a warm-up solve
        # sets the value the later rounds must reproduce
        key = f"{gname}/{source}/{m}"
        sig = _solve_signature(res)
        if self.expected.setdefault(key, sig) != sig:
            r.mismatches.append(key)
        r.counters.setdefault(m, KernelCounters()).merge(res.counters.totals)
        if res.work is not None:
            acc = r.updates.setdefault(m, [0, 0])
            acc[0] += res.work.total_updates
            acc[1] += res.work.valid_updates

    def _timed_session(self, r: _Round, i: int, span) -> None:
        t = time.perf_counter()
        with span("serve.session") if span else nullcontext():
            rep = serve_traffic(self.serve_graph, self.wl.serve[i], spec=self.spec)
        r.serve_s.append(time.perf_counter() - t)
        r.reports.append(rep)
        r.failed += rep.wrong + rep.shed + rep.faults_escaped
        key = f"serve/{i}"
        sig = _serve_signature(rep)
        if self.expected.setdefault(key, sig) != sig:
            r.mismatches.append(key)

    def round(self, tracer: Tracer | None = None) -> _Round:
        span = tracer.span if tracer is not None else None
        r = _Round()
        sweep = self._sweep()
        sessions = len(self.wl.serve)
        # solves and sessions interleave, so both host-clock metrics sample
        # the whole round: a shared host's speed drifts over seconds, and
        # timed back to back each metric would see only its own part
        step = math.ceil(len(sweep) / sessions)
        t_round = time.perf_counter()
        with span("bench.round") if span else nullcontext():
            for i in range(sessions):
                for gname, source, m in sweep[i * step:(i + 1) * step]:
                    self._timed_solve(r, gname, source, m, span)
                self._timed_session(r, i, span)
        r.wall_s = time.perf_counter() - t_round
        return r

    # -- cross-process determinism ------------------------------------
    def check_record(self, root: Path, scale: str) -> bool:
        """Compare this run's deterministic values with the record an
        earlier run of the same code, workload, scale and seed left."""
        digest = _digest(self.expected)
        name = f"{self.wl.name}-{scale}-seed{self.wl.seed}-{_code_digest(root)}.json"
        path = self.work_dir / "determinism" / name
        if path.exists():
            stored = json.loads(path.read_text())["digest"]
            if stored != digest:
                self.notes.append(f"deterministic values differ from {path.name}")
                return False
            return True
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"digest": digest}) + "\n")
        return True


def _latency(reports: list[ServeReport]) -> tuple[float, float, float, int]:
    """``(p50, tail, tail percentile, samples)`` of the sessions' pooled
    latencies; the tail is the highest percentile with at least 10
    samples beyond it."""
    lat = sorted(x for rep in reports for x in rep.latencies_ms)
    n = len(lat)
    p50 = lat[max(0, math.ceil(0.5 * n) - 1)]
    rank = max(0, n - 11)
    return p50, lat[rank], 100.0 * (rank + 1) / n, n


def _clock(metric: str) -> str:
    """Which clock an end-to-end metric is read from."""
    simulated = metric.startswith(("sim_ms.", "serve_latency_ms."))
    return "simulated" if simulated else "host"


def _end_to_end(run: _Run, rounds: list[_Round], setup_s: float) -> dict:
    m: dict[str, tuple[float, str]] = {"setup_s": (setup_s, "s")}
    m["host_teps"] = (
        statistics.median(r.edges / r.sssp_s if r.sssp_s else 0.0 for r in rounds),
        "edges/s",
    )
    for e in ENGINES:
        times = [
            float(sig["time_ms"])
            for key, sig in run.expected.items()
            if key.endswith(f"/{e}")
        ]
        m[f"sim_ms.{e}"] = (sum(times) / len(times) if times else math.nan, "ms")
    # each session's median host time over the rounds, summed
    serve_s = sum(statistics.median(ts) for ts in zip(*(r.serve_s for r in rounds)))
    reports = rounds[0].reports
    m["serve_qps_host"] = (sum(rep.queries for rep in reports) / serve_s, "queries/s")
    p50, tail, _, _ = _latency(reports)
    m["serve_latency_ms.p50"] = (p50, "ms")
    m["serve_latency_ms.tail"] = (tail, "ms")
    m["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
    )
    return m


def _per_layer(r: _Round, tracer: Tracer, prof, untraced_wall: float,
               generate_s: float, pro_s: float, timed_misses: int) -> dict:
    m: dict[str, tuple[float, str]] = {}
    for e in ENGINES:
        c = r.counters.get(e, KernelCounters())
        host = tracer.total(f"sssp.{e}")
        launches = c.kernel_launches
        m[f"sssp.{e}.host_s"] = (host, "s")
        m[f"sssp.{e}.host_us_per_launch"] = (
            1e6 * host / launches if launches else 0.0, "us"
        )
        m[f"sssp.{e}.launches"] = (launches, "count")
        tot, valid = r.updates.get(e, [0, 0])
        m[f"sssp.{e}.update_ratio"] = (tot / valid if valid else 0.0, "ratio")
        m[f"gpusim.{e}.global_load_transactions"] = (c.global_load_transactions, "count")
        m[f"gpusim.{e}.atomic_transactions"] = (c.atomic_transactions, "count")
        m[f"gpusim.{e}.global_hit_rate"] = (c.global_hit_rate, "%")
        m[f"gpusim.{e}.simt_efficiency"] = (c.simt_efficiency, "ratio")
        m[f"gpusim.{e}.barriers"] = (c.barriers, "count")
    sweep_s = sum(tracer.total(f"sssp.{e}") for e in ENGINES)
    solve_s = sweep_s + tracer.total("serve.exact")
    kernel_host = prof.seconds.get("kernel_host", 0.0)
    m["gpusim.kernel_host_s"] = (kernel_host, "s")
    m["gpusim.kernel_host_share"] = (kernel_host / solve_s if solve_s else 0.0, "ratio")
    m["gpusim.cache_stream.host_s"] = (tracer.total("gpusim.cache_stream"), "s")
    m["gpusim.cache_stream.calls"] = (tracer.count("gpusim.cache_stream"), "count")
    m["gpusim.cache_stream.lines"] = (
        sum(s.args["lines"] for s in tracer.spans if s.name == "gpusim.cache_stream"),
        "count",
    )
    m["gpusim.coalesce.host_s"] = (tracer.total("gpusim.coalesce"), "s")
    m["gpusim.coalesce.calls"] = (tracer.count("gpusim.coalesce"), "count")
    for prim in ("sort", "scan", "multisplit"):
        region = f"primitive:{prim}"
        m[f"util.scan.{prim}_s"] = (prof.seconds.get(region, 0.0), "s")
        m[f"util.scan.{prim}.calls"] = (prof.calls.get(region, 0), "count")
    insts = sum(c.total_warp_instructions for c in r.counters.values())
    m["gpusim.sim_warp_insts_per_host_s"] = (
        insts / sweep_s if sweep_s else 0.0, "insts/s"
    )
    m["graphs.generate_s"] = (generate_s, "s")
    m["reorder.pro_s"] = (pro_s, "s")
    m["artifacts.timed_misses"] = (timed_misses, "count")
    m["validate.host_s"] = (tracer.total("validate"), "s")
    reports = r.reports

    def served(counter: str) -> int:
        return sum(getattr(rep, counter) for rep in reports)

    def cached(key: str) -> int:
        return sum(rep.cache_stats.get(key, 0) for rep in reports)

    m["serve.exact.host_s"] = (tracer.total("serve.exact"), "s")
    m["serve.exact.runs"] = (served("exact_runs"), "count")
    m["serve.validate.host_s"] = (tracer.total("serve.validate"), "s")
    certs = [s for s in tracer.spans if "certified" in s.args]
    m["serve.oracle.host_s"] = (tracer.total("serve.oracle"), "s")
    m["serve.oracle.certify_ratio"] = (
        sum(s.args["certified"] for s in certs) / len(certs) if certs else 0.0,
        "ratio",
    )
    hits = cached("hits")
    lookups = hits + cached("misses")
    m["serve.lru.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    m["serve.lru.evictions"] = (cached("evictions"), "count")
    m["serve.lru.host_s"] = (tracer.total("serve.lru"), "s")
    m["serve.coalesced"] = (served("coalesced"), "count")
    m["serve.batches"] = (served("batches"), "count")
    m["serve.fallbacks"] = (served("fallbacks"), "count")
    # simulated exact-run time over the shards' capacity up to the makespans
    busy = sum(s.args["sim_ms"] for s in tracer.spans if s.name == "serve.exact")
    capacity = sum(rep.config.shards * rep.makespan_ms for rep in reports)
    m["serve.shard_busy_frac"] = (busy / capacity if capacity else 0.0, "ratio")
    m["serve.scheduler.self_s"] = (tracer.self_times().get("serve.session", 0.0), "s")
    m["trace.overhead_frac"] = (r.wall_s / untraced_wall - 1.0, "ratio")
    return m


def run(name: str, seed: int, seconds: float, trace: bool, scale: str,
        root: Path, work_dir: Path, t_start: float) -> tuple[dict, list[str]]:
    """One benchmark run; returns the result object and a report table."""
    work_dir.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="artifacts-", dir=work_dir))
    store = artifacts.configure_cache(cache_dir, enabled=True)
    try:
        bench = _Run(name, seed, scale, work_dir)
        with profiling() if trace else nullcontext() as setup_prof:
            generate_s = bench.setup()
        setup_s = time.perf_counter() - t_start
        misses0 = store.misses

        rounds = []
        deadline = time.perf_counter() + seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(bench.round())
        traced = None
        if trace:
            tracer = Tracer()
            with profiling() as prof, wrapped(tracer):
                traced = bench.round(tracer)
        timed_misses = store.misses - misses0
    finally:
        artifacts.configure_cache(None)
        shutil.rmtree(cache_dir, ignore_errors=True)

    all_rounds = rounds + ([traced] if traced else [])
    attempted = sum(r.solves + sum(rep.queries for rep in r.reports)
                    for r in all_rounds)
    failed = bench.failures + sum(r.failed for r in all_rounds)
    mismatches = sorted({k for r in all_rounds for k in r.mismatches})
    correct = failed == 0 and not mismatches and timed_misses == 0
    correct = bench.check_record(root, scale) and correct

    if trace:
        untraced_wall = statistics.median(r.wall_s for r in rounds)
        pro_s = setup_prof.seconds.get("preprocess:pro", 0.0)
        metrics = _per_layer(traced, tracer, prof, untraced_wall,
                             generate_s, pro_s, timed_misses)
        tracer.write(span_file(work_dir, name, scale, seed),
                     {"workload": name, "seed": seed, "round_wall_s": traced.wall_s})
    else:
        metrics = _end_to_end(bench, rounds, setup_s)

    reports = rounds[0].reports
    _, _, tail_pct, samples = _latency(reports)
    cfg = reports[0].config
    lines = [
        f"workload {name}  seed {seed}  scale {scale}  "
        f"rounds {len(rounds)}{' + 1 traced' if trace else ''}",
        f"serve: {len(reports)} sessions x {cfg.num_queries} queries (open loop, "
        f"{cfg.rate_qpms:g}/simulated ms); tail = p{tail_pct:.4g} "
        f"of {samples} latencies",
    ]
    for key, (value, unit) in metrics.items():
        clock = "" if trace else f"  [{_clock(key)}]"
        lines.append(f"  {key:<44s} {value:>16.6g} {unit}{clock}")
    lines.append(
        f"  {'failed_frac':<44s} {failed / max(attempted, 1):>16.6g} fraction"
        f"  ({failed} of {attempted})"
    )
    if timed_misses:
        bench.notes.append(f"{timed_misses} artifact misses in the timed phase")
    if mismatches:
        bench.notes.append("deterministic values changed in: " + ", ".join(mismatches))
    lines += [f"ERROR: {note}" for note in bench.notes]
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
        },
    }
    return result, lines
