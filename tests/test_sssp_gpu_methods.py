"""Correctness and accounting tests for every GPU SSSP implementation."""

import numpy as np
import pytest

from repro.graphs import from_edges, kronecker, grid_road_network, path, star
from repro.gpusim import T4, V100
from repro.reorder import apply_pro
from repro.sssp import (
    adds_sssp,
    bl_sssp,
    dijkstra,
    nearfar_sssp,
    rdbs_sssp,
    sssp,
    validate_distances,
)
from repro.sssp.api import GPU_METHODS, METHODS
from repro.trace import traced_sssp

SPEC = V100.scaled_for_workload(1 / 64)

GRAPHS = {
    "kron": kronecker(8, 8, weights="int", seed=20),
    "road": grid_road_network(12, 12, seed=21),
    "star": star(100),
    "path": path(40),
    "unit-kron": kronecker(7, 8, weights="unit", seed=22),
}

#: every registered GPU engine, so an engine cannot skip these tests
GPU_FNS = {name: METHODS[name] for name in sorted(GPU_METHODS)}


@pytest.mark.parametrize("gname", list(GRAPHS))
@pytest.mark.parametrize("fname", list(GPU_FNS))
class TestCorrectness:
    def test_distances_match_oracle(self, gname, fname):
        g = GRAPHS[gname]
        r = GPU_FNS[fname](g, 0, spec=SPEC)
        validate_distances(g, 0, r.dist)

    def test_result_metadata(self, gname, fname):
        g = GRAPHS[gname]
        r = GPU_FNS[fname](g, 0, spec=SPEC)
        assert r.time_ms > 0
        assert r.num_edges == g.num_edges
        assert r.counters is not None
        assert r.work is not None
        assert r.gteps > 0


@pytest.mark.parametrize("fname", list(GPU_FNS))
class TestEdgeCases:
    def test_isolated_source(self, fname):
        g = from_edges(np.array([1]), np.array([2]), np.array([1.0]),
                       num_vertices=4, symmetrize=True)
        r = GPU_FNS[fname](g, 0, spec=SPEC)
        assert r.dist[0] == 0.0
        assert np.isinf(r.dist[1:]).all()

    def test_source_out_of_range(self, fname):
        with pytest.raises(ValueError):
            GPU_FNS[fname](GRAPHS["path"], 1000, spec=SPEC)

    def test_two_vertex_graph(self, fname):
        g = from_edges(np.array([0]), np.array([1]), np.array([4.0]),
                       symmetrize=True)
        r = GPU_FNS[fname](g, 1, spec=SPEC)
        assert list(r.dist) == [4.0, 0.0]


class TestCallerIds:
    """``source`` and ``dist`` are in the ids of the graph the caller
    passed, even when that graph already carries a relabelling and the
    engine relabels again internally (PRO)."""

    RELABELLED = apply_pro(kronecker(8, 8, seed=3), 0.5)

    @pytest.mark.parametrize("method", sorted(GPU_METHODS))
    def test_relabelled_graph(self, method):
        g = self.RELABELLED
        assert g.new_to_old is not None
        r = sssp(g, 5, method=method, spec=SPEC)
        assert r.source == 5
        assert np.array_equal(r.dist, dijkstra(g, 5).dist)


class TestRdbsEngine:
    @pytest.mark.parametrize(
        "pro,adwl,basyn",
        [
            (False, False, False),
            (True, False, False),
            (False, True, False),
            (False, False, True),
            (True, True, False),
            (True, False, True),
            (False, True, True),
            (True, True, True),
        ],
    )
    def test_all_toggle_combinations_correct(self, pro, adwl, basyn):
        g = GRAPHS["kron"]
        r = rdbs_sssp(g, 0, pro=pro, adwl=adwl, basyn=basyn, spec=SPEC)
        validate_distances(g, 0, r.dist)
        assert r.extra["pro"] == pro

    def test_method_labels(self):
        g = GRAPHS["path"]
        assert rdbs_sssp(g, 0, spec=SPEC).method == "rdbs"
        assert (
            rdbs_sssp(g, 0, pro=False, adwl=False, basyn=False, spec=SPEC).method
            == "sync-delta"
        )
        assert (
            rdbs_sssp(g, 0, pro=True, adwl=False, basyn=True, spec=SPEC).method
            == "basyn+pro"
        )

    def test_distances_in_original_order_with_pro(self):
        """PRO relabels internally but reports original vertex ids."""
        g = GRAPHS["kron"]
        a = rdbs_sssp(g, 5, pro=True, spec=SPEC)
        b = rdbs_sssp(g, 5, pro=False, spec=SPEC)
        assert np.allclose(a.dist, b.dist)

    def test_trace_recording(self):
        g = GRAPHS["unit-kron"]
        r, tr = traced_sssp(g, 0, method="rdbs", delta=0.1, spec=SPEC)
        buckets = tr.select("bucket")
        assert len(buckets) == r.extra["buckets"]
        assert max(e.args["active"] for e in buckets) > 0
        # every async round names the bucket it drained
        indices = {e.args["index"] for e in buckets}
        rounds = tr.select("counter", "async_round")
        assert rounds and {e.args["bucket"] for e in rounds} <= indices
        assert len(rounds) == r.extra["rounds"]

    def test_dynamic_delta_recorded(self):
        g = GRAPHS["kron"]
        r = rdbs_sssp(g, 0, spec=SPEC)
        assert r.extra["final_delta"] >= 0
        assert r.extra["buckets"] >= 1

    def test_counters_populated(self):
        g = GRAPHS["kron"]
        r = rdbs_sssp(g, 0, spec=SPEC)
        c = r.counters.totals
        assert c.inst_executed_global_loads > 0
        assert c.inst_executed_atomics > 0
        assert c.async_rounds > 0  # BASYN ran asynchronously

    def test_sync_mode_uses_barriers_per_iteration(self):
        g = GRAPHS["kron"]
        sync = rdbs_sssp(g, 0, basyn=False, pro=False, adwl=False, spec=SPEC)
        async_ = rdbs_sssp(g, 0, basyn=True, pro=False, adwl=False, spec=SPEC)
        assert (
            sync.counters.totals.barriers > async_.counters.totals.barriers
        )

    def test_adwl_spawns_children_on_powerlaw(self):
        g = GRAPHS["star"]  # hub with 100 light edges -> warp child kernels
        r = rdbs_sssp(g, 1, adwl=True, spec=SPEC)
        assert r.counters.totals.child_kernel_launches > 0

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            rdbs_sssp(GRAPHS["path"], 0, delta=-2.0, spec=SPEC)


class TestAddsSpecifics:
    def test_delta_adapts(self):
        g = GRAPHS["road"]
        r = adds_sssp(g, 0, spec=SPEC)
        assert r.extra["final_delta"] >= r.extra["delta0"]

    def test_async_rounds_recorded(self):
        g = GRAPHS["kron"]
        r = adds_sssp(g, 0, spec=SPEC)
        assert r.counters.totals.async_rounds > 0


class TestBaselineSpecifics:
    def test_bl_iterations_bounded_by_hops(self):
        g = GRAPHS["path"]
        r = bl_sssp(g, 0, spec=SPEC)
        assert r.extra["iterations"] <= g.num_vertices

    def test_bl_max_iterations_cutoff(self):
        g = GRAPHS["path"]
        r = bl_sssp(g, 0, spec=SPEC, max_iterations=3)
        assert np.isinf(r.dist[-1])

    def test_nearfar_threshold_advances(self):
        g = GRAPHS["kron"]
        r = nearfar_sssp(g, 0, spec=SPEC)
        assert r.extra["iterations"] > 0


class TestPlatformScaling:
    def test_v100_not_slower_than_t4(self):
        g = kronecker(9, 16, weights="int", seed=23)
        tv = rdbs_sssp(g, 0, spec=V100.scaled_for_workload(1 / 64)).time_ms
        tt = rdbs_sssp(g, 0, spec=T4.scaled_for_workload(1 / 64)).time_ms
        assert tt >= tv
