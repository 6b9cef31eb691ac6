"""Two-resource kernel timing model.

A kernel's simulated duration is the slowest of three bounds, the standard
roofline-style decomposition for throughput processors:

* **issue bound** — total warp instructions (plus shared-memory
  transactions, which occupy LSU issue slots without touching DRAM)
  divided by the device's aggregate issue rate (all SMs,
  ``issue_per_sm_per_cycle`` each);
* **memory bound** — DRAM traffic (L1-missing load transactions plus all
  store/atomic transactions, ``sector_bytes`` each) divided by peak
  bandwidth;
* **critical-path bound** — the longest dependent per-warp instruction
  chain cannot finish faster than one warp executing it back-to-back
  (``_SERIAL_CPI`` cycles per dependent instruction).  This is what makes a
  single 100k-degree hub vertex in a thread-per-vertex kernel slow even on
  an otherwise idle GPU — the load-imbalance effect ADWL removes.

Atomic contention adds a serialization term on top (conflicting atomics to
one address retire one at a time in the L2 atomic units).

All bounds derive from *counted* events; no per-algorithm constants exist
anywhere in the model, so speedups between algorithms emerge from their
actual instruction/transaction/imbalance behaviour.
"""

from __future__ import annotations

from typing import NamedTuple

from .counters import KernelCounters
from .spec import GPUSpec

__all__ = ["kernel_time", "roofline", "Roofline", "SERIAL_CPI",
           "attribute_bottleneck"]

#: cycles per instruction for a dependent single-warp chain (issue latency
#: of back-to-back dependent instructions on Volta-class SMs)
SERIAL_CPI = 4.0


class Roofline(NamedTuple):
    """The bound terms (seconds) of one kernel body."""

    issue_s: float
    mem_s: float
    crit_s: float
    atom_s: float


def roofline(
    spec: GPUSpec,
    counters: KernelCounters,
    critical_instructions: int,
) -> Roofline:
    """Compute the issue / memory / critical-path / atomic terms once.

    :func:`kernel_time` charges them and :func:`attribute_bottleneck`
    names the binding one, so the two can never disagree.
    """
    # --- issue bound -----------------------------------------------------
    # shared-memory transactions (multisplit staging) occupy LSU issue
    # slots like instructions do, but stay on-chip: they never join the
    # DRAM term below
    issue_s = (
        counters.total_warp_instructions + counters.shared_transactions
    ) / spec.issue_slots_per_s

    # --- memory bound ------------------------------------------------------
    dram_transactions = (
        (counters.global_load_transactions - counters.l1_hits)
        + counters.global_store_transactions
        + counters.atomic_transactions
    )
    dram_transactions = max(dram_transactions, 0)
    mem_s = dram_transactions * spec.sector_bytes / spec.mem_bandwidth_bytes_per_s

    # --- critical path bound ---------------------------------------------
    crit_s = critical_instructions * SERIAL_CPI / spec.clock_hz

    # --- atomic serialization ---------------------------------------------
    atom_s = (
        counters.atomic_conflicts
        * spec.atomic_serialization_cycles
        / (spec.num_sms * spec.clock_hz)
    )
    return Roofline(issue_s, mem_s, crit_s, atom_s)


def attribute_bottleneck(
    spec: GPUSpec, counters: KernelCounters, critical_instructions: int
) -> str:
    """Name the resource that bounds this kernel's body.

    One of ``"issue"``, ``"memory"``, ``"critical-path"`` — or
    ``"overhead"`` when the body is empty (pure launch/sync cost).
    """
    issue, mem, crit, _atom = roofline(spec, counters, critical_instructions)
    best = max(issue, mem, crit)
    if best == 0:
        return "overhead"
    if best == crit:
        return "critical-path"
    if best == mem:
        return "memory"
    return "issue"


def kernel_time(
    spec: GPUSpec,
    counters: KernelCounters,
    critical_instructions: int,
) -> float:
    """Simulated execution time (seconds) of one kernel's body.

    Launch and synchronization latencies are charged separately by the
    device (they depend on *how* the kernel was started, not on its body).
    """
    issue_s, mem_s, crit_s, atom_s = roofline(
        spec, counters, critical_instructions
    )
    return max(issue_s, mem_s, crit_s) + atom_s
