"""The spatial computer model (paper §II-A) as a measurable simulator.

* :class:`SpatialMachine` — grid of constant-memory processors; vectorized
  bulk ``send`` with exact energy (Manhattan distance) and depth
  (dependency clock) accounting.
* :mod:`repro.machine.collectives` — broadcast / reduce / all-reduce /
  prefix scan / barrier at the paper's O(n) energy, O(log n) depth.
* :mod:`repro.machine.routing` — permutation routing and bitonic sort
  (Θ(n^{3/2}) energy, poly-log depth).
* :class:`PRAMSimulator` — the paper's PRAM-simulation baseline with
  measured (not assumed) costs.
"""

from repro.machine.machine import PlanCache, SpatialMachine
from repro.machine.instrumentation import (
    Instrument,
    LedgerInstrument,
    StepEvent,
    StepLog,
    TracerInstrument,
)
from repro.machine.ledger import CostLedger, PhaseCost
from repro.machine.profiler import CELL_METRICS, LinkWindow, SpatialProfiler
from repro.machine.registers import DEFAULT_BUDGET, RegisterFile
from repro.machine.collectives import (
    allreduce,
    barrier,
    broadcast,
    exclusive_scan,
    inclusive_scan,
    reduce,
)
from repro.machine.routing import (
    SortNetworkPlan,
    bitonic_sort,
    permute,
    scatter,
    sort_network_plan,
)
from repro.machine.pram import PRAMSimulator
from repro.machine.sanitizer import (
    DeterminismSanitizer,
    Finding,
    GhostStateSanitizer,
    SanitizerInstrument,
    WriteRaceSanitizer,
    check_determinism,
)
from repro.machine.tracing import CongestionTracer, attach_tracer, render_heatmap

__all__ = [
    "SpatialMachine",
    "PlanCache",
    "SanitizerInstrument",
    "WriteRaceSanitizer",
    "DeterminismSanitizer",
    "GhostStateSanitizer",
    "Finding",
    "check_determinism",
    "CostLedger",
    "PhaseCost",
    "Instrument",
    "LedgerInstrument",
    "StepEvent",
    "StepLog",
    "TracerInstrument",
    "CELL_METRICS",
    "LinkWindow",
    "SpatialProfiler",
    "DEFAULT_BUDGET",
    "RegisterFile",
    "allreduce",
    "barrier",
    "broadcast",
    "exclusive_scan",
    "inclusive_scan",
    "reduce",
    "bitonic_sort",
    "permute",
    "scatter",
    "SortNetworkPlan",
    "sort_network_plan",
    "PRAMSimulator",
    "CongestionTracer",
    "attach_tracer",
    "render_heatmap",
]
