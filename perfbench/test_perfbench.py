"""Smoke tests of the benchmark: every workload at reduced size, both modes.

Run from the repository root with ``python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from measure import span_file  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--scale", "smoke"],
        capture_output=True, text=True, timeout=600, cwd=ROOT, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # failed_frac == 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run(workload):
    result = _run(workload, 0)
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    spans = span_file(ROOT / ".perfbench", workload, "smoke", SEED)
    spans.unlink(missing_ok=True)
    result = _run(workload, 1)
    _assert_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["artifacts.timed_misses"]["value"] == 0
    doc = json.loads(spans.read_text())
    self_s = doc["self_s"]
    assert {"bench.round", "serve.session", "sssp.rdbs", "gpusim.coalesce"} <= set(self_s)
    assert all(v >= 0 for v in self_s.values())
    assert sum(self_s.values()) <= doc["round_wall_s"]


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans[0], tracer.spans[1:]
    self_s = tracer.self_times()
    assert self_s["inner"] == pytest.approx(sum(s.duration for s in inner))
    assert self_s["outer"] == pytest.approx(
        outer.duration - sum(s.duration for s in inner)
    )
    assert all(s.parent == 0 for s in inner)
