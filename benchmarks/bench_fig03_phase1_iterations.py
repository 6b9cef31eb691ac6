"""Fig. 3: phase-1 iteration profile of the peak bucket + update counts.

The paper zooms into the costliest bucket of the Fig. 2 runs: the number
of active vertices per synchronous phase-1 iteration, and the total vs
valid update counts (SCALE 25: 30,741,651 total vs 6,843,263 valid —
ratio 4.49).  Also checks §3.3's claim that the peak bucket accounts for
a large share of total bucket time.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.bench import format_table, write_results
from bench_fig02_bucket_sizes import run_traces, SCALES


@dataclass(frozen=True)
class PeakBucket:
    """The Fig. 3 view of the bucket with the most active vertices."""

    #: active vertices at each phase-1 iteration
    iterations: list[int]
    total_updates: int
    valid_updates: int


def phase1_updates(tr) -> dict[int, dict]:
    """``{bucket index: phase1_updates counter args}`` of one trace."""
    return {e.args["bucket"]: e.args
            for e in tr.select("counter", "phase1_updates")}


def peak_bucket(tr) -> PeakBucket:
    """Read the peak bucket's span, rounds and update counts off a trace."""
    peak = max(tr.select("bucket"), key=lambda e: e.args["active"])
    index = peak.args["index"]
    updates = phase1_updates(tr)[index]
    return PeakBucket(
        iterations=[e.args["frontier"]
                    for e in tr.select("counter", "sync_round")
                    if e.args["bucket"] == index],
        total_updates=updates["total"],
        valid_updates=updates["valid"],
    )


@lru_cache(maxsize=1)
def peak_profiles():
    traces = run_traces()
    return {s: peak_bucket(traces[s][1]) for s in SCALES}, traces


def test_fig3_phase1_iterations(benchmark):
    peaks, traces = benchmark.pedantic(peak_profiles, rounds=1, iterations=1)

    max_iters = max(len(p.iterations) for p in peaks.values())
    rows = []
    for i in range(max_iters):
        row = [i + 1]
        for s in SCALES:
            its = peaks[s].iterations
            row.append(its[i] if i < len(its) else 0)
        rows.append(row)
    text = format_table(
        ["iteration"] + [f"SCALE={s}" for s in SCALES],
        rows,
        title="Fig. 3 — active vertices per phase-1 iteration of the peak bucket",
    )
    summary_rows = [
        [
            f"SCALE={s}",
            peaks[s].total_updates,
            peaks[s].valid_updates,
            round(
                peaks[s].total_updates / max(peaks[s].valid_updates, 1),
                2,
            ),
        ]
        for s in SCALES
    ]
    text += "\n\n" + format_table(
        ["graph", "total_updates", "valid_updates", "ratio"],
        summary_rows,
        title="Fig. 3 annotations — phase-1 update counts (peak bucket)",
    )
    print("\n" + text)
    write_results(
        "fig03_phase1_iterations.txt", text,
        tables=[{
            "title": "fig3 phase-1 update counts (peak bucket)",
            "headers": ["graph", "total_updates", "valid_updates", "ratio"],
            "rows": summary_rows,
        }],
    )

    for s in SCALES:
        p = peaks[s]
        # multiple synchronous iterations -> repeated barrier overhead
        assert len(p.iterations) >= 3
        # redundant work: total updates exceed valid updates in the peak
        assert p.total_updates > p.valid_updates
        # iteration curve rises then falls
        its = np.array(p.iterations)
        assert its.argmax() < len(its) - 1 or len(its) <= 2


def test_fig3_peak_bucket_dominates_runtime(benchmark):
    """§3.3: 'the overhead of bucket with peak active vertices is
    accounting for seventy percent of the total execution time.'  The CPU
    reference records no simulated time, so the proxy asserted here is
    work share: the peak bucket performs the dominant share of phase-1
    updates."""

    def work_share():
        _, traces = peak_profiles()
        shares = {}
        for s in SCALES:
            totals = [u["total"] for u in phase1_updates(traces[s][1]).values()]
            total = sum(totals)
            peak = max(totals)
            shares[s] = peak / max(total, 1)
        return shares

    shares = benchmark.pedantic(work_share, rounds=1, iterations=1)
    print("\npeak-bucket share of phase-1 updates:", shares)
    for s in SCALES:
        assert shares[s] > 0.3
