"""Tests for the convergence-curve analysis."""

import numpy as np
import pytest

from repro.graphs import kronecker, largest_component_vertices
from repro.gpusim import V100
from repro.metrics import ConvergenceCurve, convergence_from_trace
from repro.trace import Tracer, traced_sssp

SPEC = V100.scaled_for_workload(1 / 64)


def make_trace(sizes):
    t = Tracer()
    for i, s in enumerate(sizes):
        t.emit("bucket", f"bucket {i}", float(i), 1.0,
               args={"index": i, "lo": float(i), "hi": float(i + 1),
                     "active": s})
    return t


class TestCurve:
    def test_fractions_monotone(self):
        c = convergence_from_trace(make_trace([10, 30, 60]))
        assert list(c.settled) == [10, 40, 100]
        assert c.total == 100
        f = c.fractions
        assert np.all(np.diff(f) >= 0)
        assert f[-1] == pytest.approx(1.0)

    def test_auc_earlier_is_higher(self):
        early = convergence_from_trace(make_trace([90, 5, 5]))
        late = convergence_from_trace(make_trace([5, 5, 90]))
        assert early.auc > late.auc

    def test_quantile_position(self):
        c = convergence_from_trace(make_trace([50, 30, 20]))
        assert c.quantile_position(0.5) == 0
        assert c.quantile_position(0.8) == 1
        assert c.quantile_position(1.0) == 2
        with pytest.raises(ValueError):
            c.quantile_position(0.0)

    def test_empty_trace(self):
        c = convergence_from_trace(Tracer())
        assert c.total == 0
        assert c.auc == 0.0
        assert c.quantile_position(0.9) == 0

    def test_overflowed_trace_rejected(self):
        """A ring buffer that dropped its oldest buckets would shift the
        whole curve, so the reader refuses it."""
        t = Tracer(capacity=2)
        for i in range(3):
            t.emit("bucket", f"bucket {i}", float(i), args={"active": 1})
        with pytest.raises(ValueError, match="dropped"):
            convergence_from_trace(t)


class TestOnRealRuns:
    def test_rdbs_trace_produces_curve(self):
        g = kronecker(9, 8, weights="int", seed=95)
        src = int(largest_component_vertices(g)[0])
        _r, tr = traced_sssp(g, src, method="rdbs", spec=SPEC)
        c = convergence_from_trace(tr)
        assert c.total > 0
        assert 0 < c.auc <= 1.0

    def test_dynamic_delta_converges_in_fewer_buckets(self):
        """The Eq. 1–2 controller (and a wider Δ generally) front-loads
        settlement versus a deliberately narrow fixed Δ."""
        g = kronecker(9, 8, weights="int", seed=96)
        src = int(largest_component_vertices(g)[0])
        dynamic, t_dyn = traced_sssp(g, src, method="rdbs", spec=SPEC)
        _narrow, t_nar = traced_sssp(
            g, src, method="delta-cpu", delta=dynamic.extra["delta0"] / 4
        )
        c_dyn = convergence_from_trace(t_dyn)
        c_nar = convergence_from_trace(t_nar)
        assert len(t_dyn.select("bucket")) <= len(t_nar.select("bucket"))
        assert c_dyn.quantile_position(0.9) <= c_nar.quantile_position(0.9)
