"""Tests for classic CPU Δ-stepping and its Fig. 2/3 trace events."""

import numpy as np
import pytest

from repro.graphs import kronecker, paper_fig1_graph, path
from repro.sssp import delta_stepping_cpu, dijkstra, validate_distances
from repro.trace import tracing


def traced(g, source, delta):
    """One traced run: the result, its bucket spans, sync-round and
    phase-1 update counters."""
    with tracing() as tr:
        r = delta_stepping_cpu(g, source, delta=delta)
    return (r, tr.select("bucket"), tr.select("counter", "sync_round"),
            tr.select("counter", "phase1_updates"))


class TestCorrectness:
    def test_path(self):
        g = path(10)
        r = delta_stepping_cpu(g, 0, delta=1.0)
        assert np.allclose(r.dist, np.arange(10, dtype=float))

    @pytest.mark.parametrize("delta", [0.5, 2.0, 10.0, 1000.0])
    def test_delta_invariance(self, delta):
        """Any Δ yields the same distances (§2.2: Δ=1 ~ Dijkstra, Δ=inf ~
        Bellman-Ford)."""
        g = kronecker(7, 6, weights="int", max_weight=20, seed=4)
        r = delta_stepping_cpu(g, 0, delta=delta)
        validate_distances(g, 0, r.dist)

    def test_default_delta(self):
        g = kronecker(6, 4, weights="int", seed=5)
        r = delta_stepping_cpu(g, 0)
        validate_distances(g, 0, r.dist)

    def test_invalid_args(self):
        g = path(4)
        with pytest.raises(ValueError):
            delta_stepping_cpu(g, 9, delta=1.0)
        with pytest.raises(ValueError):
            delta_stepping_cpu(g, 0, delta=-1.0)

    def test_fig1_graph_distances(self):
        """Distances from vertex 0 on the Fig. 1 graph, checked by hand:
        0-2 (w1), then 2-3 (w1) -> dist 2; 0-3 direct is 3; 3-4 w1 -> 3."""
        g = paper_fig1_graph()
        r = delta_stepping_cpu(g, 0, delta=3.0)
        assert r.dist[0] == 0.0
        assert r.dist[2] == 1.0
        assert r.dist[3] == 2.0
        assert r.dist[4] == 3.0
        validate_distances(g, 0, r.dist)


class TestWorkAccounting:
    def test_ratio_at_least_one(self):
        g = kronecker(7, 8, weights="int", seed=6)
        r = delta_stepping_cpu(g, 0, delta=100.0)
        assert r.work.update_ratio >= 1.0
        assert r.work.total_updates >= r.work.valid_updates

    def test_each_reached_vertex_has_a_valid_update(self):
        """Every reached vertex's final distance was written exactly once
        as a valid update (plus the source's initialization)."""
        g = kronecker(6, 6, weights="int", seed=7)
        r = delta_stepping_cpu(g, 0, delta=50.0)
        assert r.work.valid_updates >= r.reached

    def test_small_delta_fewer_invalid_updates(self):
        """Δ -> Dijkstra-like: narrower buckets improve work efficiency."""
        g = kronecker(7, 8, weights="int", seed=8)
        small = delta_stepping_cpu(g, 0, delta=20.0)
        huge = delta_stepping_cpu(g, 0, delta=1e9)
        assert small.work.update_ratio <= huge.work.update_ratio


class TestTraces:
    def test_trace_disabled_by_default(self, monkeypatch):
        """Without an active tracer the run builds no per-bucket
        recorders: one WorkStats for the whole run, one more per bucket
        only while traced."""
        import repro.sssp.delta_cpu as delta_cpu

        built = []

        class CountingStats(delta_cpu.WorkStats):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(delta_cpu, "WorkStats", CountingStats)
        r = delta_stepping_cpu(path(6), 0, delta=2.0)
        assert r.extra["buckets"] == 3 and len(built) == 1
        with tracing():
            delta_stepping_cpu(path(6), 0, delta=2.0)
        assert len(built) == 1 + 1 + 3

    def test_bucket_series(self):
        g = path(10)  # unit weights: distances 0..9
        _r, buckets, _rounds, _updates = traced(g, 0, 2.0)
        assert len(buckets) == 5  # distances 0..9 in buckets of width 2
        assert buckets[0].args["index"] == 0
        assert [e.args["active"] for e in buckets] == [1] * 5
        assert all(e.device == -1 for e in buckets)  # host clock

    def test_iterations_recorded(self):
        g = kronecker(6, 6, weights="unit", seed=9)
        r, buckets, rounds, _updates = traced(g, 0, 0.1)
        peak = max(buckets, key=lambda e: e.args["active"])
        its = [e for e in rounds if e.args["bucket"] == peak.args["index"]]
        assert len(its) >= 1
        assert its[0].args["frontier"] == peak.args["active"]
        assert len(its) == peak.args["rounds"]
        # one round counter per phase-1 iteration, grouped by bucket
        assert len(rounds) == r.extra["phase1_iterations"]
        assert sum(e.args["rounds"] for e in buckets) == len(rounds)

    def test_phase1_update_counts_filled(self):
        g = kronecker(6, 6, weights="unit", seed=10)
        _r, buckets, _rounds, updates = traced(g, 0, 0.1)
        assert [e.args["bucket"] for e in updates] == [
            e.args["index"] for e in buckets
        ]
        total = sum(e.args["total"] for e in updates)
        valid = sum(e.args["valid"] for e in updates)
        assert total >= valid > 0

    def test_bucket_count_matches_extra(self):
        g = kronecker(6, 6, weights="unit", seed=11)
        r, buckets, _rounds, _updates = traced(g, 0, 0.2)
        assert len(buckets) == r.extra["buckets"]
        # tracing leaves the result itself unchanged
        plain = delta_stepping_cpu(g, 0, delta=0.2)
        np.testing.assert_array_equal(r.dist, plain.dist)
        assert r.work == plain.work
