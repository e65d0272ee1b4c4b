"""In-flight engine-divergence watchdog: a sampling shadow replay.

The offline differential suite (``tests/test_engine_equivalence.py``) pins
the batched engine to the scalar reference — but only at test time, on test
inputs. This instrument turns that check into *continuous* observability:
while a workload executes, every ``sample``-th phase is re-verified live, on
the production input, through a clock kernel independent of the one that
charged it.

How the shadow works
--------------------
At the enter of a sampled phase the watchdog snapshots the machine's
dependency clocks (O(n) copy — sampling amortizes it). During the phase it
records every charged :class:`~repro.machine.instrumentation.StepEvent`'s
endpoint arrays and round offsets. At the matching exit it *replays* those
rounds on the snapshot and compares four figures against what the live
engine charged:

* **energy** — ``Σ manhattan(src, dst)`` recomputed from the machine's own
  geometry (one call per event) vs the events' charged energy (catches
  corrupted cached-plan distances and bad fused kernels);
* **messages** — replayed endpoint count vs charged count;
* **depth** — the shadow clock replay vs the machine's live depth clock
  (catches bugs in the clock kernels, including the batched engine's O(k)
  fast paths, which run on *trusted* hints on the hot path);
* **steps** — replayed non-empty round count vs the live step counter.

Depth is a property of the message DAG, so any correct clock kernel may
replay a round, as long as it is not the one that charged it. Every round
replays through the hint-free :func:`~repro.machine.machine._advance_round`
unless some event of the phase ran that kernel
(:func:`~repro.machine.machine.ran_general_kernel`); then the whole phase
replays through :func:`~repro.machine.machine.advance_clocks`. Choosing per
round instead would let one ``_advance_round`` bug skew a live general
round and the replay of a small round alike, cancelling in the depth max.

Any mismatch increments ``repro_divergence_alerts_total``, records a
finding, and emits an ``alert`` span through the attached
:class:`~repro.telemetry.spans.SpanTracer` (when given). Matches increment
``repro_divergence_checks_total`` — a live heartbeat that the equivalence
property still holds on this very run.

The kernels are bound at import, so harnesses that wrap the machine
module's kernels by name count only the live engine's rounds.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.machine.instrumentation import Instrument, StepEvent
from repro.machine.machine import _advance_round, advance_clocks, ran_general_kernel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.spans import SpanTracer


@dataclass
class DivergenceFinding:
    """One detected mismatch between the live engine and the shadow replay."""

    phase: str
    dimension: str  # "energy" | "messages" | "depth" | "steps"
    observed: int
    expected: int

    def to_json(self) -> dict:
        return {
            "phase": self.phase,
            "dimension": self.dimension,
            "observed": int(self.observed),
            "expected": int(self.expected),
            "delta": int(self.observed - self.expected),
        }


@dataclass
class _ActiveSample:
    """Recording state for the currently sampled phase."""

    phase: str
    enter_stack_len: int
    clock_snapshot: np.ndarray
    depth_enter: int
    steps_enter: int
    events: list[tuple[np.ndarray, np.ndarray, np.ndarray | None, int, int]] = field(
        default_factory=list
    )
    #: some event ran a round through the batched general kernel
    general: bool = False


class DivergenceWatchdog(Instrument):
    """Sampling live differential check of the engine's cost accounting.

    Parameters
    ----------
    sample:
        Check the first and then every ``sample``-th candidate phase
        (phases entered while no sample is active). ``1`` checks every
        such phase; ``0`` disables the watchdog entirely.
    tracer:
        Optional :class:`~repro.telemetry.spans.SpanTracer`; divergences
        emit an instant ``alert`` span through it.
    max_findings:
        Retain at most this many findings (counters keep counting).
    """

    def __init__(
        self,
        *,
        sample: int = 4,
        tracer: SpanTracer | None = None,
        max_findings: int = 100,
    ) -> None:
        if sample < 0:
            from repro.errors import ValidationError

            raise ValidationError(f"watchdog sample must be >= 0, got {sample}")
        self.sample = int(sample)
        self.tracer = tracer
        self.max_findings = int(max_findings)
        self._machine = None
        self._candidates = 0
        self._active: _ActiveSample | None = None
        self._lock = threading.Lock()
        self.findings: list[DivergenceFinding] = []
        self.checks_total = 0
        self.alerts_total = 0
        self.rounds_checked_total = 0
        self.messages_checked_total = 0

    # ------------------------------------------------------------------ #
    # Instrument hooks
    # ------------------------------------------------------------------ #

    def on_attach(self, machine) -> None:
        self._machine = machine

    def on_detach(self, machine) -> None:
        self._active = None
        self._machine = None

    def on_phase_enter(self, name: str, depth: int) -> None:
        m = self._machine
        if m is None or self.sample == 0 or self._active is not None:
            return
        self._candidates += 1
        # first candidate always verifies (short runs still get coverage),
        # then every sample-th after it
        if (self._candidates - 1) % self.sample != 0:
            return
        self._active = _ActiveSample(
            phase=name,
            # phase() pushes before notifying, so the stack includes `name`
            enter_stack_len=len(m.phase_stack),
            clock_snapshot=m.clock.copy(),
            depth_enter=int(m.depth),
            steps_enter=int(m.steps),
        )

    def on_step(self, event: StepEvent) -> None:
        active = self._active
        if active is None:
            return
        # copy: event arrays are frozen *views* that may alias caller-owned
        # buffers mutated after the send returns
        rounds = None if event.rounds is None else np.array(event.rounds, copy=True)
        active.general = active.general or ran_general_kernel(event)
        active.events.append(
            (
                np.array(event.src, copy=True),
                np.array(event.dst, copy=True),
                rounds,
                int(event.energy),
                int(event.messages),
            )
        )

    def on_phase_exit(self, name: str, depth: int) -> None:
        active = self._active
        m = self._machine
        if active is None or m is None:
            return
        # phase() pops before notifying: the matching exit restores the
        # stack to one less than it was at enter
        if name != active.phase or len(m.phase_stack) != active.enter_stack_len - 1:
            return
        self._active = None
        self._verify(active, m)

    # ------------------------------------------------------------------ #
    # the shadow replay
    # ------------------------------------------------------------------ #

    def _verify(self, active: _ActiveSample, machine) -> None:
        shadow_clock = active.clock_snapshot  # already a private copy
        shadow_energy = 0
        shadow_messages = 0
        shadow_steps = 0
        shadow_depth = active.depth_enter
        observed_energy = 0
        observed_messages = 0
        scratch = np.empty(machine.n, dtype=np.int64)
        ar = np.arange(max((len(ev[0]) for ev in active.events), default=0))
        for src, dst, rounds, ev_energy, ev_messages in active.events:
            observed_energy += ev_energy
            observed_messages += ev_messages
            shadow_energy += int(machine.manhattan(src, dst).sum())
            offsets = [0, len(src)] if rounds is None else rounds.tolist()
            for a, b in zip(offsets[:-1], offsets[1:]):
                if b <= a:
                    continue
                if active.general:
                    m = advance_clocks(shadow_clock, src[a:b], dst[a:b]).max_clock
                else:
                    m = _advance_round(shadow_clock, src[a:b], dst[a:b], scratch, ar[: b - a])
                shadow_depth = max(shadow_depth, m)
                shadow_messages += b - a
                shadow_steps += 1
        observed_depth = int(machine.depth)
        observed_steps = int(machine.steps) - active.steps_enter
        comparisons = (
            ("energy", observed_energy, shadow_energy),
            ("messages", observed_messages, shadow_messages),
            ("depth", observed_depth, shadow_depth),
            ("steps", observed_steps, shadow_steps),
        )
        diverged = [
            (dim, obs, exp) for dim, obs, exp in comparisons if obs != exp
        ]
        with self._lock:
            self.checks_total += 1
            self.rounds_checked_total += shadow_steps
            self.messages_checked_total += shadow_messages
            for dim, obs, exp in diverged:
                self.alerts_total += 1
                if len(self.findings) < self.max_findings:
                    self.findings.append(
                        DivergenceFinding(
                            phase=active.phase,
                            dimension=dim,
                            observed=obs,
                            expected=exp,
                        )
                    )
        if diverged and self.tracer is not None:
            for dim, obs, exp in diverged:
                self.tracer.alert(
                    f"divergence:{active.phase}:{dim}",
                    args={
                        "engine": machine.engine,
                        "observed": int(obs),
                        "expected": int(exp),
                    },
                )

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #

    @property
    def clean(self) -> bool:
        """True while no divergence has been observed."""
        return self.alerts_total == 0

    def snapshot(self) -> dict:
        """JSON-ready watchdog state (``/health`` embeds this)."""
        with self._lock:
            return {
                "sample": self.sample,
                "checks": self.checks_total,
                "alerts": self.alerts_total,
                "rounds_checked": self.rounds_checked_total,
                "messages_checked": self.messages_checked_total,
                "clean": self.alerts_total == 0,
                "findings": [f.to_json() for f in self.findings],
            }

    def publish(self, registry) -> None:
        """Watchdog counters into a :class:`~repro.analysis.metrics.MetricsRegistry`."""
        with self._lock:
            checks = self.checks_total
            alerts = self.alerts_total
            rounds = self.rounds_checked_total
            messages = self.messages_checked_total
        registry.counter(
            "repro_divergence_checks_total",
            "phases re-verified by a clock kernel independent of the one that charged them",
        ).inc(checks)
        registry.counter(
            "repro_divergence_alerts_total",
            "engine-vs-oracle mismatches detected (energy/messages/depth/steps)",
        ).inc(alerts)
        registry.counter(
            "repro_divergence_rounds_checked_total",
            "dependency rounds replayed by the shadow oracle",
        ).inc(rounds)
        registry.counter(
            "repro_divergence_messages_checked_total",
            "messages replayed by the shadow oracle",
        ).inc(messages)
        registry.gauge(
            "repro_divergence_clean",
            "1 while no divergence has been observed, else 0",
        ).set(1 if alerts == 0 else 0)
