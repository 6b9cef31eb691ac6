#!/usr/bin/env python3
"""The repository benchmark: one workload run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload road-diameter --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of an extra traced round and writes its spans to
``.perfbench/traces/<workload>-<scale>-seed<n>.json``.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it are a readable table.  The program is imported from ``src/`` of the
same tree, single-threaded: no process pool, BLAS/OpenMP pinned to one
thread.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"

#: one-thread numeric pools; set before NumPy/SciPy are imported
_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "NUMEXPR_NUM_THREADS")
#: program switches that must not leak into the numbers from the caller
_CLEARED = ("REPRO_CACHE_DIR", "REPRO_NO_CACHE", "REPRO_CACHE_BYTES",
            "REPRO_NO_MULTISPLIT")


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="road-diameter, powerlaw-wide, or all")
    p.add_argument("--seed", type=int, default=1,
                   help="workload seed (default 1; 9173 is held out of all "
                        "tuning, for rechecking a claim on unseen inputs)")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="length of the timed phase (at least one round runs)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "smoke"), default="full",
                   help="smoke: reduced inputs for the benchmark's own tests")
    return p.parse_args(argv)


def _run_all(args, workloads) -> int:
    """Each workload in its own process (so peak RSS is per workload)."""
    status = 0
    for name in workloads:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
        status |= subprocess.run(cmd, check=False).returncode
    return status


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in _PINNED:
        os.environ[var] = "1"
    for var in _CLEARED:
        os.environ.pop(var, None)
    sys.path.insert(0, str(ROOT / "src"))

    import measure
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2

    result, lines = measure.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale,
        ROOT, WORK_DIR, T_START,
    )
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
