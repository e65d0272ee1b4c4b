"""Pluggable observability for the spatial machine.

The simulator's whole job is *measurement* — energy, depth, congestion —
yet each consumer used to hook into :meth:`SpatialMachine.send` in its own
ad-hoc way (the ledger inline, the congestion tracer via a ``tracer``
attribute). This module unifies them behind one observer protocol:

* :class:`StepEvent` — an immutable record of one bulk ``send``: step
  index, the active phase stack, remote endpoints, energy charged, the
  per-message distance histogram, and the depth clock before/after.
* :class:`Instrument` — the subscriber base class. Attach any number with
  ``machine.attach(instrument)``; each bulk send fires exactly one
  ``on_step`` per instrument, and ``machine.phase(...)`` fires paired
  ``on_phase_enter`` / ``on_phase_exit`` notifications.
* :class:`LedgerInstrument` / :class:`TracerInstrument` — the two
  pre-existing consumers (cost accounting, XY-routing congestion),
  reimplemented as ordinary instruments. The machine auto-attaches a
  :class:`LedgerInstrument` so ``machine.energy`` works as before.

Failure isolation: a raising instrument must never corrupt the cost
accounting of the run it observes, so the machine dispatches to each
instrument inside its own ``try``. Exceptions are collected on
``machine.instrument_errors`` and surfaced once as a :class:`RuntimeWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.ledger import CostLedger
    from repro.machine.machine import SpatialMachine
    from repro.machine.tracing import CongestionTracer


@dataclass(frozen=True)
class StepEvent:
    """One bulk ``send`` with at least one remote message, as observed.

    Attributes
    ----------
    step:
        0-based index of this bulk send among those that charged anything
        (sends with only self-messages are free and fire no event).
    phases:
        The machine's phase stack at send time, outermost first.
    src, dst:
        Processor ids of the remote (charged) messages only, aligned
        pairwise. Read-only views — instruments must not mutate them.
    distances:
        Per-message distance under the machine's metric, aligned with
        ``src``/``dst``.
    distance_histogram:
        ``distance_histogram[d]`` = number of messages travelling exactly
        distance ``d`` (``np.bincount`` of ``distances``).
    energy:
        Total distance charged by this step (== ``distances.sum()``).
    messages:
        Remote message count (== ``len(src)``).
    src_count, dst_count:
        Number of distinct senders / receivers.
    depth_before, depth_after:
        The machine's depth clock around this step.
    metric:
        The machine's distance metric (``"manhattan"`` or ``"chebyshev"``).
    payload:
        The per-message payload of the remote messages (aligned with
        ``src``/``dst``), or ``None`` for valueless (pure-accounting)
        sends. Read-only view; consumed by the write-race sanitizer.
    combiner:
        Combiner tag declared by the call site for multi-delivery reduce
        steps (e.g. ``"sum"``), or ``None``. Accounting-neutral metadata.
    rounds:
        ``None`` for ordinary (single-round) sends. For aggregated events
        from the batched engine (:meth:`SpatialMachine.send_batch` under
        ``engine="batched"``): CSR-style offsets ``[0, ..., messages]``
        partitioning ``src``/``dst``/``distances``/``payload`` into the
        batch's sequential dependency rounds. Round ``r`` is the slice
        ``rounds[r]:rounds[r+1]``; the scalar engine would have charged it
        as its own step with index ``step + r``. Read-only view.
    hint:
        The plan shape :meth:`SpatialMachine.send_plan` trusted for this
        batch, which picked its clock kernel: ``"paired"``, ``"exclusive"``
        or ``"occ"``, or ``"lift"`` for a barrier charged in closed form
        with no clock kernel. ``None`` for unhinted batches and all
        ``send`` and scalar-engine events.
    """

    step: int
    phases: tuple[str, ...]
    src: np.ndarray
    dst: np.ndarray
    distances: np.ndarray
    distance_histogram: np.ndarray
    energy: int
    messages: int
    src_count: int
    dst_count: int
    depth_before: int
    depth_after: int
    metric: str
    payload: np.ndarray | None = None
    combiner: str | None = None
    rounds: np.ndarray | None = None
    hint: str | None = None

    @property
    def max_distance(self) -> int:
        """Longest single message in this step."""
        return int(len(self.distance_histogram)) - 1 if len(self.distance_histogram) else 0

    @property
    def n_rounds(self) -> int:
        """Dependency rounds covered by this event (1 for ordinary sends)."""
        return 1 if self.rounds is None else int(len(self.rounds)) - 1


class Instrument:
    """Base class for machine observers; all hooks are optional no-ops.

    Subclass and override what you need. Hooks:

    * ``on_attach(machine)`` / ``on_detach(machine)`` — subscription
      lifecycle (the machine passes itself).
    * ``on_step(event)`` — once per charged bulk send.
    * ``on_phase_enter(name, depth)`` / ``on_phase_exit(name, depth)`` —
      around ``machine.phase(name)`` blocks, with the depth clock at the
      boundary.
    """

    def on_attach(self, machine: SpatialMachine) -> None:  # pragma: no cover - trivial
        pass

    def on_detach(self, machine: SpatialMachine) -> None:  # pragma: no cover - trivial
        pass

    def on_step(self, event: StepEvent) -> None:  # pragma: no cover - trivial
        pass

    def on_phase_enter(self, name: str, depth: int) -> None:  # pragma: no cover
        pass

    def on_phase_exit(self, name: str, depth: int) -> None:  # pragma: no cover
        pass


class LedgerInstrument(Instrument):
    """Cost accounting as an instrument: feeds a :class:`CostLedger`.

    The machine attaches one of these at construction; ``machine.ledger``
    is a view onto ``self.ledger``.
    """

    def __init__(self, ledger: CostLedger | None = None) -> None:
        from repro.machine.ledger import CostLedger

        self.ledger = ledger if ledger is not None else CostLedger()

    def on_step(self, event: StepEvent) -> None:
        self.ledger.charge(event.energy, event.messages)

    def on_phase_enter(self, name: str, depth: int) -> None:
        self.ledger.begin_phase(name, depth)

    def on_phase_exit(self, name: str, depth: int) -> None:
        self.ledger.end_phase(name, depth)


class TracerInstrument(Instrument):
    """XY-routing congestion tracing as an instrument.

    Wraps a :class:`~repro.machine.tracing.CongestionTracer`; the legacy
    ``machine.tracer = tracer`` assignment and
    :func:`~repro.machine.tracing.attach_tracer` both route through this.
    """

    def __init__(self, tracer: CongestionTracer) -> None:
        self.tracer = tracer
        self._machine: SpatialMachine | None = None

    def on_attach(self, machine: SpatialMachine) -> None:
        self._machine = machine

    def on_detach(self, machine: SpatialMachine) -> None:
        self._machine = None

    def on_step(self, event: StepEvent) -> None:
        m = self._machine
        if m is None:  # not attached — nothing to resolve coordinates with
            return
        self.tracer.record(
            m._x[event.src], m._y[event.src], m._x[event.dst], m._y[event.dst]
        )


@dataclass
class StepLog(Instrument):
    """Minimal built-in consumer: keeps every :class:`StepEvent` in a list.

    Handy in tests and notebooks (``machine.attach(StepLog())``); the
    report layer's :class:`~repro.analysis.report.RunRecorder` is the
    serialization-oriented sibling.
    """

    events: list[StepEvent] = field(default_factory=list)

    def on_step(self, event: StepEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)
