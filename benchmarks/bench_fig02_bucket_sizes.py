"""Fig. 2: active vertices per bucket of Δ-stepping (Graph500, Δ = 0.1).

The paper runs the Graph500 reference Δ-stepping on Kronecker SCALE 24/25
(edgefactor 16, unit weights) and plots the number of active vertices in
every bucket.  The surrogates here are SCALE 13/14 (the same −11 scale
shift as the dataset surrogates); the claim under test is the *shape*:
bucket occupancy explodes in an early bucket and decays over the tail,
which is the load-imbalance motivation (§3.2).
"""

from functools import lru_cache

import numpy as np

from repro.bench import format_table, record_from_result, write_results
from repro.graphs import kronecker, largest_component_vertices
from repro.sssp import validate_distances
from repro.trace import traced_sssp

SCALES = (13, 14)
DELTA = 0.1  # the paper's empirical Graph500 value


@lru_cache(maxsize=1)
def run_traces():
    """``{scale: (result, tracer)}`` of one traced Δ-stepping run each."""
    out = {}
    for scale in SCALES:
        g = kronecker(scale, 16, weights="unit", seed=100 + scale)
        src = int(largest_component_vertices(g)[0])
        r, tr = traced_sssp(g, src, method="delta-cpu", delta=DELTA)
        validate_distances(g, src, r.dist)
        out[scale] = (r, tr)
    return out


def bucket_sizes(tr) -> list[int]:
    """Active vertices of each bucket span, in processing order."""
    return [e.args["active"] for e in tr.select("bucket")]


def test_fig2_bucket_occupancy(benchmark):
    traces = benchmark.pedantic(run_traces, rounds=1, iterations=1)
    sizes = {scale: bucket_sizes(tr) for scale, (_r, tr) in traces.items()}
    rows = []
    max_buckets = max(len(s) for s in sizes.values())
    for i in range(max_buckets):
        row = [i]
        for scale in SCALES:
            row.append(sizes[scale][i] if i < len(sizes[scale]) else 0)
        rows.append(row)
    text = format_table(
        ["bucket_id"] + [f"SCALE={s}" for s in SCALES],
        rows,
        title=f"Fig. 2 — active vertices per bucket (Δ = {DELTA}, edgefactor 16)",
    )
    print("\n" + text)
    write_results(
        "fig02_bucket_sizes.txt", text,
        records=[
            record_from_result(r, dataset=f"kron-s{scale}", gpu="cpu")
            for scale, (r, _tr) in traces.items()
        ],
    )

    for scale in SCALES:
        series = np.array(sizes[scale])
        peak = int(np.argmax(series))
        # sharp rise into the peak bucket...
        assert series[peak] > 10 * series[0]
        # ...then decay over the tail (paper: "decreases gradually in
        # subsequent buckets")
        assert series[-1] < series[peak] / 2
    # the larger graph has the larger peak
    assert max(sizes[SCALES[1]]) > max(sizes[SCALES[0]])
