"""Gap-filling tests: small surfaces not covered elsewhere."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import dataset_names, from_edges, load
from repro.reorder import attach_heavy_offsets, sort_adjacency_by_weight
from repro.sssp import DeltaController, SSSPResult
from repro.sssp.cpu_pq_delta import XEON_8269CY


class TestAllSurrogatesLoad:
    def test_every_registered_dataset_builds(self):
        """All 11 surrogates construct and are structurally sane (the big
        soc-TW one included)."""
        for name in dataset_names():
            g = load(name)
            assert g.num_vertices > 0, name
            assert g.num_edges > 0, name
            assert g.weights.min() >= 1.0, name
            # symmetrized: total degree is even
            assert g.num_edges % 2 == 0, name


class TestHeavyOffsetsZeroDegree:
    def test_sorted_check_with_isolated_vertices(self):
        """Zero-degree vertices must not confuse the sortedness check or
        the offset computation."""
        g = from_edges(
            np.array([0, 0, 3]),
            np.array([1, 2, 4]),
            np.array([5.0, 1.0, 2.0]),
            num_vertices=6,  # vertex 5 is isolated
        )
        sg = sort_adjacency_by_weight(g)
        hg = attach_heavy_offsets(sg, 3.0)
        assert hg.heavy_offsets[5] == hg.row[5]
        assert list(hg.light_degrees()) == [1, 0, 0, 1, 0, 0]

    def test_all_heavy(self):
        g = from_edges(np.array([0]), np.array([1]), np.array([10.0]),
                       num_vertices=2)
        hg = attach_heavy_offsets(g, 1.0)
        assert hg.light_degrees().sum() == 0

    def test_all_light(self):
        g = from_edges(np.array([0]), np.array([1]), np.array([0.5]),
                       num_vertices=2)
        hg = attach_heavy_offsets(g, 1.0)
        assert hg.light_degrees().sum() == 1


class TestSSSPResultSurface:
    def test_gteps_zero_time(self):
        r = SSSPResult(dist=np.zeros(3), source=0, method="x", num_edges=10)
        assert r.gteps == 0.0

    def test_repr(self):
        r = SSSPResult(
            dist=np.array([0.0, np.inf]), source=0, method="m",
            graph_name="g", time_ms=1.0,
        )
        text = repr(r)
        assert "m" in text and "reached=1" in text


class TestCpuSpecSurface:
    def test_paper_host(self):
        assert XEON_8269CY.cores == 26
        assert XEON_8269CY.threads == 52


@st.composite
def feedback_seq(draw):
    n = draw(st.integers(2, 12))
    return [
        (draw(st.integers(0, 10_000)), draw(st.integers(0, 10_000)))
        for _ in range(n)
    ]


class TestDeltaControllerProperties:
    @given(seq=feedback_seq(), delta0=st.floats(0.1, 100.0))
    @settings(max_examples=50, deadline=None)
    def test_widths_always_clamped_and_contiguous(self, seq, delta0):
        c = DeltaController(delta0)
        prev_hi = 0.0
        for fb in seq:
            iv = c.next_interval()
            assert iv.lo == pytest.approx(prev_hi)
            assert c.min_delta - 1e-12 <= iv.width <= c.max_delta + 1e-12
            prev_hi = iv.hi
            c.feedback(*fb)

    @given(seq=feedback_seq())
    @settings(max_examples=50, deadline=None)
    def test_epsilon_bounded_by_delta0(self, seq):
        """|ε_i| <= Δ0: both Eq. 1 factors have magnitude <= 1."""
        c = DeltaController(10.0)
        for i, fb in enumerate(seq):
            c.next_interval()
            c.feedback(*fb)
        for i in range(2, len(seq)):
            assert abs(c.epsilon(i)) <= 10.0 + 1e-9


class TestMethodKwargsSurface:
    def test_max_buckets_guard(self):
        from repro.graphs import path
        from repro.sssp import rdbs_sssp

        g = path(50)
        with pytest.raises(RuntimeError, match="bucket limit"):
            rdbs_sssp(g, 0, delta=0.01, max_buckets=2)
