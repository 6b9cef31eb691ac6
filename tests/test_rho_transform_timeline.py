"""Tests for ρ-stepping, graph transforms and the kernel timeline (the
tracer's kernel spans)."""

import numpy as np
import pytest

from repro.graphs import (
    clamp_weights,
    from_edges,
    induced_subgraph,
    kronecker,
    largest_component_subgraph,
    path,
    reverse_graph,
    scale_weights,
)
from repro.gpusim import (
    GPUDevice,
    KernelCounters,
    V100,
    attribute_bottleneck,
    kernel_time,
)
from repro.gpusim.kernels import grid_stride
from repro.sssp import (
    default_rho,
    dijkstra,
    rho_stepping_sssp,
    sssp,
    validate_distances,
)
from repro.trace import kernel_table, traced_sssp, tracing

SPEC = V100.scaled_for_workload(1 / 64)


class TestRhoStepping:
    @pytest.mark.parametrize("rho", [1, 8, 10_000])
    def test_correct_for_any_rho(self, rho):
        g = kronecker(8, 6, weights="int", seed=40)
        r = rho_stepping_sssp(g, 0, rho=rho)
        validate_distances(g, 0, r.dist)

    def test_rho_one_is_dijkstra_like(self):
        """ρ=1 settles one vertex per batch: perfectly work-efficient on
        graphs with unique distances."""
        g = kronecker(7, 6, weights="int", seed=41)
        exact = rho_stepping_sssp(g, 0, rho=1)
        loose = rho_stepping_sssp(g, 0, rho=10_000)
        assert exact.work.update_ratio <= loose.work.update_ratio

    def test_batches_shrink_with_rho(self):
        g = kronecker(8, 8, weights="int", seed=42)
        few = rho_stepping_sssp(g, 0, rho=10_000).extra["batches"]
        many = rho_stepping_sssp(g, 0, rho=4).extra["batches"]
        assert many > few

    def test_default_rho_reasonable(self):
        g = kronecker(10, 8, weights="int", seed=43)
        rho = default_rho(g)
        assert 32 <= rho < g.num_vertices * 10

    def test_invalid_args(self):
        g = path(4)
        with pytest.raises(ValueError):
            rho_stepping_sssp(g, 0, rho=0)
        with pytest.raises(ValueError):
            rho_stepping_sssp(g, 10)

    def test_available_through_api(self):
        g = path(8)
        r = sssp(g, 0, method="rho-stepping")
        assert r.method == "rho-stepping"


class TestTransforms:
    def test_induced_subgraph(self):
        g = path(6)
        sub, new_to_old = induced_subgraph(g, np.array([1, 2, 3]))
        assert sub.num_vertices == 3
        assert list(new_to_old) == [1, 2, 3]
        # the path 1-2-3 survives with both arc directions
        assert sub.num_edges == 4

    def test_induced_subgraph_drops_cross_edges(self):
        g = path(6)
        sub, _ = induced_subgraph(g, np.array([0, 1, 4, 5]))
        assert sub.num_edges == 4  # 0-1 and 4-5 only

    def test_induced_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(path(3), np.array([5]))

    def test_largest_component_subgraph(self):
        g = from_edges(
            np.array([0, 1, 5]), np.array([1, 2, 6]), np.ones(3),
            num_vertices=8, symmetrize=True,
        )
        sub, new_to_old = largest_component_subgraph(g)
        assert sub.num_vertices == 3
        assert set(new_to_old) == {0, 1, 2}

    def test_reverse_graph(self):
        g = from_edges(np.array([0]), np.array([1]), np.array([3.0]),
                       num_vertices=2)
        rg = reverse_graph(g)
        assert list(rg.iter_edges()) == [(1, 0, 3.0)]

    def test_reverse_preserves_undirected_distances(self):
        g = kronecker(7, 6, weights="int", seed=44)
        d1 = dijkstra(g, 0).dist
        d2 = dijkstra(reverse_graph(g), 0).dist
        assert np.allclose(d1, d2, equal_nan=True) or np.array_equal(
            np.isfinite(d1), np.isfinite(d2)
        )

    def test_scale_weights_scales_distances(self):
        g = kronecker(7, 6, weights="int", seed=45)
        d1 = dijkstra(g, 0).dist
        d2 = dijkstra(scale_weights(g, 2.5), 0).dist
        finite = np.isfinite(d1)
        assert np.allclose(d2[finite], 2.5 * d1[finite])
        with pytest.raises(ValueError):
            scale_weights(g, 0.0)

    def test_clamp_weights(self):
        g = kronecker(6, 4, weights="int", seed=46)
        c = clamp_weights(g, 100.0, 200.0)
        assert c.weights.min() >= 100.0
        assert c.weights.max() <= 200.0
        with pytest.raises(ValueError):
            clamp_weights(g, 5.0, 1.0)


class TestTimeline:
    def test_records_launches(self):
        with tracing() as tr:
            dev = GPUDevice(V100)
            arr = dev.zeros(1024)
            with dev.launch("alpha") as k:
                k.gather(arr, np.arange(1024), grid_stride(1024, 256))
            with dev.launch("alpha") as k:
                k.gather(arr, np.arange(1024), grid_stride(1024, 256))
            with dev.launch("beta"):
                pass
        spans = tr.select("kernel")
        assert [e.name for e in spans] == ["alpha", "alpha", "beta"]
        assert spans[0].args["loads"] > 0
        assert spans[0].args["transactions"] > 0
        assert spans[2].args["bound"] == "overhead"
        assert sum(e.dur_ms for e in spans) == pytest.approx(dev.time_s * 1e3)

    def test_records_are_ordered(self):
        with tracing() as tr:
            dev = GPUDevice(V100)
            with dev.launch("a"):
                pass
            with dev.launch("b"):
                pass
        r0, r1 = tr.select("kernel")
        assert r1.ts_ms >= r0.ts_ms + r0.dur_ms - 1e-12

    def test_top_and_report(self):
        with tracing() as tr:
            dev = GPUDevice(V100)
            arr = dev.zeros(4096)
            with dev.launch("hot") as k:
                k.gather(arr, np.arange(4096), grid_stride(4096, 256))
            with dev.launch("cold"):
                pass
        lines = kernel_table(tr.select("kernel"), top=1)
        assert lines[2].split()[0] == "hot"  # the costliest kernel first
        assert "1 more kernel" in lines[3]
        text = "\n".join(lines)
        assert "hot" in text and "bottlenecks" in text

    def test_bottleneck_attribution(self):
        mem = KernelCounters(global_load_transactions=10**6, l1_accesses=10**6)
        assert attribute_bottleneck(V100, mem, 0) == "memory"
        crit = KernelCounters(inst_executed_other=1)
        assert attribute_bottleneck(V100, crit, 10**6) == "critical-path"
        issue = KernelCounters(inst_executed_other=10**9)
        assert attribute_bottleneck(V100, issue, 1) == "issue"
        assert attribute_bottleneck(V100, KernelCounters(), 0) == "overhead"

    def test_bottleneck_counts_shared_transactions(self):
        """Multisplit staging traffic occupies issue slots: once it tips
        the issue term over the memory term, the attribution names the
        bound the time model charged."""
        loads = dict(global_load_transactions=10**6, l1_accesses=10**6,
                     inst_executed_global_loads=10**4)
        assert attribute_bottleneck(V100, KernelCounters(**loads), 0) == "memory"
        staged = KernelCounters(**loads, shared_transactions=10**8)
        issue_s = (
            staged.total_warp_instructions + staged.shared_transactions
        ) / V100.issue_slots_per_s
        assert kernel_time(V100, staged, 0) == issue_s
        assert attribute_bottleneck(V100, staged, 0) == "issue"

    def test_reset_clock_clears_timeline(self):
        with tracing() as tr:
            dev = GPUDevice(V100)
            with dev.launch("x"):
                pass
            dev.reset_clock()
            assert dev.time_s == 0.0
            assert dev.counters.totals.kernel_launches == 0
            with dev.launch("y"):
                pass
        x, y = tr.select("kernel")
        assert x.ts_ms == 0.0 and y.ts_ms == 0.0  # the clock restarted

    def test_gpu_results_carry_timeline(self):
        g = kronecker(7, 6, weights="int", seed=47)
        r, tr = traced_sssp(g, 0, method="rdbs", spec=SPEC)
        spans = tr.select("kernel")
        assert 0 < sum(e.dur_ms for e in spans) <= r.time_ms
        assert "phase1" in " ".join(e.name for e in spans)
        assert {e.args["bound"] for e in spans} <= {
            "issue", "memory", "critical-path", "overhead"
        }
        assert not hasattr(r, "trace") and "timeline" not in r.extra
