"""Hierarchical spans over the machine's instrument stream.

The report layer's :class:`~repro.analysis.report.RunRecorder` keeps flat
phase intervals for *post-mortem* export. This module is the live sibling:
a :class:`SpanTracer` is an :class:`~repro.machine.instrumentation.Instrument`
that maintains an explicit span *tree* while the run executes —

    workload  →  phase  →  batch (one charged bulk send)  →  round

— with **two clocks** per span: the machine's depth clock (the model's
notion of time) and the host wall clock (what an operator watching a live
run experiences). Aggregated batched-engine events
(:attr:`~repro.machine.instrumentation.StepEvent.rounds`) are folded into
per-round child spans, so the scalar engine's per-round visibility
survives batching.

Completed spans stream to three sinks simultaneously:

* a bounded ring buffer (the ``/spans`` endpoint of
  :class:`~repro.telemetry.server.TelemetryServer` reads it),
* an optional JSONL file (``{"schema": ...}`` header line, then one
  ``{"span": {...}}`` object per line — stream-appendable, tail-able),
* cumulative counters for live metric exposition (:meth:`SpanTracer.publish`).

All mutating paths and all reader snapshots take the tracer's lock, so a
server thread can render ``/progress`` mid-``on_step`` without tearing the
open-span stack.

The tracer is attach/detach tolerant: attached mid-phase it ignores the
unmatched ``on_phase_exit`` notifications for phases it never saw entered;
detached (or :meth:`closed <SpanTracer.close>`) mid-phase it truncates the
still-open spans at the current clocks instead of corrupting the stack.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.machine.instrumentation import Instrument, StepEvent

#: span JSONL schema identifier; bump on breaking changes
SPAN_SCHEMA = "repro.spans/v1"

#: span kinds, outermost to innermost (``alert`` is out-of-band;
#: ``replay`` wraps a stored workload-plan re-execution, see repro.plans;
#: ``window`` wraps one coalesced serving window, see repro.serving)
SPAN_KINDS = ("workload", "replay", "window", "phase", "batch", "round", "alert")


@dataclass
class Span:
    """One node of the span tree; timestamps on both clocks.

    ``depth_*`` are machine depth-clock values, ``wall_*`` are seconds on
    the host clock relative to the tracer's start. ``energy`` / ``messages``
    / ``steps`` / ``rounds`` accumulate everything charged *while the span
    was open* (for batch/round spans: exactly the event/round's figures).
    """

    id: int
    name: str
    kind: str
    level: int
    stack: tuple[str, ...]
    parent: int | None
    depth_start: int
    wall_start: float
    depth_end: int | None = None
    wall_end: float | None = None
    energy: int = 0
    messages: int = 0
    steps: int = 0
    rounds: int = 0
    args: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON-ready dict (also the shape the Chrome-trace exporter eats)."""
        out: dict[str, Any] = {
            "id": self.id,
            "name": self.name,
            "kind": self.kind,
            "level": self.level,
            "stack": list(self.stack),
            "parent": self.parent,
            "depth_start": int(self.depth_start),
            "depth_end": int(self.depth_end if self.depth_end is not None else self.depth_start),
            "wall_start": round(float(self.wall_start), 9),
            "wall_end": round(
                float(self.wall_end if self.wall_end is not None else self.wall_start), 9
            ),
            "energy": int(self.energy),
            "messages": int(self.messages),
            "steps": int(self.steps),
            "rounds": int(self.rounds),
        }
        if self.args:
            out["args"] = dict(self.args)
        return out


class SpanTracer(Instrument):
    """Live hierarchical span tracking as a machine instrument.

    Parameters
    ----------
    workload:
        Optional name for an auto-opened root span of kind ``"workload"``
        (opened at attach, closed at :meth:`close` / detach). Library users
        can instead open roots explicitly with :meth:`span`.
    ring:
        Completed-span ring buffer capacity (the ``/spans`` window).
    batch_spans:
        Record one ``batch`` span per charged :class:`StepEvent`. Off, the
        tracer still attributes costs to the open phase spans.
    fold_rounds:
        Fold an aggregated batched-engine event's ``rounds`` into per-round
        child spans of its batch span (requires ``batch_spans``).
    jsonl_path:
        Stream completed spans to this JSONL file (header line first).
    planned_phases:
        Expected number of *top-level* phases, for the ``/progress``
        percentage; ``None`` leaves the percentage unreported.
    clock:
        Wall-clock source (seconds, monotone); injectable for tests.
    """

    def __init__(
        self,
        *,
        workload: str | None = None,
        ring: int = 1024,
        batch_spans: bool = True,
        fold_rounds: bool = True,
        jsonl_path: str | Path | None = None,
        planned_phases: int | None = None,
        clock=time.perf_counter,
    ) -> None:
        self.workload = workload
        self.batch_spans = batch_spans
        self.fold_rounds = fold_rounds
        self.planned_phases = planned_phases
        self._clock = clock
        self._t0 = clock()
        self._lock = threading.Lock()
        self._open: list[Span] = []
        self.completed: deque[Span] = deque(maxlen=max(1, int(ring)))
        self._next_id = 0
        self._machine = None
        self._jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self._jsonl_file: IO[str] | None = None
        self._closed = False
        # cumulative counters (survive ring eviction)
        self.spans_total: dict[str, int] = {}
        self.alerts_total = 0
        self.completed_top_total = 0

    # ------------------------------------------------------------------ #
    # span bookkeeping (callers hold self._lock)
    # ------------------------------------------------------------------ #

    def _now(self) -> float:
        return self._clock() - self._t0

    def _depth(self) -> int:
        return int(self._machine.depth) if self._machine is not None else 0

    def _open_span(self, name: str, kind: str, *, args: dict | None = None) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(
            id=self._next_id,
            name=name,
            kind=kind,
            level=len(self._open),
            stack=(parent.stack if parent else ()) + (name,),
            parent=parent.id if parent else None,
            depth_start=self._depth(),
            wall_start=self._now(),
            args=dict(args or {}),
        )
        self._next_id += 1
        self._open.append(span)
        return span

    def _close_span(self, span: Span, *, depth: int | None = None) -> None:
        span.depth_end = self._depth() if depth is None else int(depth)
        span.wall_end = self._now()
        self._open.remove(span)
        self._complete(span)

    def _complete(self, span: Span) -> None:
        self.completed.append(span)
        self.spans_total[span.kind] = self.spans_total.get(span.kind, 0) + 1
        # counted here, not by scanning the ring: progress percentages must
        # stay monotone after old spans are evicted at ring capacity
        if span.kind == "phase" and span.level == self._top_level():
            self.completed_top_total += 1
        if self._jsonl_path is not None and not self._closed:
            self._write_jsonl(span)

    def _top_level(self) -> int:
        """Nesting level of a top-level phase (1 under a workload root)."""
        return 1 if self.workload is not None else 0

    def _write_jsonl(self, span: Span) -> None:
        if self._jsonl_file is None:
            self._jsonl_file = self._jsonl_path.open("w")
            header = {"schema": SPAN_SCHEMA, "workload": self.workload}
            if self._machine is not None:
                header["machine"] = {
                    "n": self._machine.n,
                    "side": self._machine.side,
                    "curve": self._machine.curve.name,
                    "engine": self._machine.engine,
                }
            self._jsonl_file.write(json.dumps({"header": header}) + "\n")
        self._jsonl_file.write(json.dumps({"span": span.to_json()}) + "\n")
        self._jsonl_file.flush()

    # ------------------------------------------------------------------ #
    # Instrument hooks
    # ------------------------------------------------------------------ #

    def on_attach(self, machine) -> None:
        with self._lock:
            self._machine = machine
            if self.workload is not None and not self._open:
                self._open_span(self.workload, "workload")

    def on_detach(self, machine) -> None:
        self.close()

    def on_phase_enter(self, name: str, depth: int) -> None:
        with self._lock:
            if self._closed:
                return
            self._open_span(name, "phase")

    def on_phase_exit(self, name: str, depth: int) -> None:
        with self._lock:
            if self._closed or not self._open:
                return
            top = self._open[-1]
            # only close what we opened: a tracer attached mid-phase sees
            # exits for phases it never entered — those must not pop the
            # workload root (or an unrelated span) off the stack
            if top.kind == "phase" and top.name == name:
                self._close_span(top, depth=depth)

    def on_step(self, event: StepEvent) -> None:
        with self._lock:
            if self._closed:
                return
            for span in self._open:
                span.energy += event.energy
                span.messages += event.messages
                span.steps += 1
                span.rounds += event.n_rounds
            if not self.batch_spans:
                return
            wall = self._now()
            parent = self._open[-1] if self._open else None
            batch = Span(
                id=self._next_id,
                name=f"step[{event.step}]",
                kind="batch",
                level=len(self._open),
                stack=(parent.stack if parent else ()) + (f"step[{event.step}]",),
                parent=parent.id if parent else None,
                depth_start=event.depth_before,
                wall_start=wall,
                depth_end=event.depth_after,
                wall_end=wall,
                energy=event.energy,
                messages=event.messages,
                steps=1,
                rounds=event.n_rounds,
            )
            self._next_id += 1
            if self.fold_rounds and event.rounds is not None and len(event.rounds) > 2:
                offsets = np.asarray(event.rounds)
                starts = offsets[:-1]
                round_energy = np.add.reduceat(event.distances, starts)
                for r in range(len(starts)):
                    a, b = int(offsets[r]), int(offsets[r + 1])
                    self._complete(
                        Span(
                            id=self._next_id,
                            name=f"round[{r}]",
                            kind="round",
                            level=batch.level + 1,
                            stack=batch.stack + (f"round[{r}]",),
                            parent=batch.id,
                            depth_start=event.depth_before,
                            wall_start=wall,
                            depth_end=event.depth_after,
                            wall_end=wall,
                            energy=int(round_energy[r]),
                            messages=b - a,
                            steps=0,
                            rounds=1,
                        )
                    )
                    self._next_id += 1
            self._complete(batch)

    # ------------------------------------------------------------------ #
    # explicit spans and alerts
    # ------------------------------------------------------------------ #

    def span(self, name: str, *, kind: str = "phase", args: dict | None = None):
        """Open an explicit span as a context manager (library API)."""
        return _SpanContext(self, name, kind, args)

    def alert(self, name: str, *, args: dict | None = None) -> Span:
        """Record an instant out-of-band ``alert`` span (e.g. a watchdog
        divergence finding) at the current clocks."""
        with self._lock:
            span = self._open_span(name, "alert", args=args)
            self._close_span(span)
            self.alerts_total += 1
            return span

    def close(self) -> None:
        """Truncate any still-open spans at the current clocks and stop
        JSONL streaming. Idempotent; called automatically on detach."""
        with self._lock:
            if self._closed:
                return
            for span in reversed(list(self._open)):
                self._close_span(span)
            self._closed = True
            if self._jsonl_file is not None:
                self._jsonl_file.close()
                self._jsonl_file = None

    # ------------------------------------------------------------------ #
    # reader snapshots (server thread)
    # ------------------------------------------------------------------ #

    def open_stack(self) -> list[dict]:
        """The currently open spans, outermost first (JSON-ready)."""
        with self._lock:
            return [s.to_json() for s in self._open]

    def recent(self, limit: int | None = None) -> list[dict]:
        """The most recently completed spans, oldest first (JSON-ready)."""
        with self._lock:
            spans = list(self.completed)
        if limit is not None:
            spans = spans[-int(limit):]
        return [s.to_json() for s in spans]

    def progress(self) -> dict:
        """Live progress snapshot for the ``/progress`` endpoint."""
        with self._lock:
            open_names = [s.name for s in self._open]
            completed_phases = self.spans_total.get("phase", 0)
            completed_top = self.completed_top_total
        out = {
            "span_stack": open_names,
            "completed_phases": completed_phases,
            "completed_top_level_phases": completed_top,
            "planned_phases": self.planned_phases,
            "alerts": self.alerts_total,
        }
        if self.planned_phases:
            out["percent"] = round(
                min(100.0, 100.0 * completed_top / self.planned_phases), 1
            )
        else:
            out["percent"] = None
        return out

    def publish(self, registry) -> None:
        """Span counters into a :class:`~repro.analysis.metrics.MetricsRegistry`."""
        with self._lock:
            totals = dict(self.spans_total)
            open_count = len(self._open)
            alerts = self.alerts_total
        family = registry.counter(
            "repro_spans_total", "completed telemetry spans", ("kind",)
        )
        for kind, count in sorted(totals.items()):
            family.labels(kind=kind).inc(count)
        registry.gauge("repro_spans_open", "currently open telemetry spans").set(
            open_count
        )
        registry.counter(
            "repro_span_alerts_total", "out-of-band alert spans recorded"
        ).inc(alerts)

    def __len__(self) -> int:
        with self._lock:
            return len(self.completed)


class _SpanContext:
    """Context manager returned by :meth:`SpanTracer.span`."""

    def __init__(self, tracer: SpanTracer, name: str, kind: str, args: dict | None):
        self._tracer = tracer
        self._name = name
        self._kind = kind
        self._args = args
        self.span: Span | None = None

    def __enter__(self) -> Span:
        with self._tracer._lock:
            self.span = self._tracer._open_span(self._name, self._kind, args=self._args)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        with self._tracer._lock:
            if self.span in self._tracer._open:
                self._tracer._close_span(self.span)


def load_span_jsonl(path) -> tuple[dict, list[dict]]:
    """Read a span JSONL file back as ``(header, spans)``; validates schema."""
    from repro.errors import ValidationError

    lines = [
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    if not lines or "header" not in lines[0]:
        raise ValidationError(f"{path} is not a repro span JSONL file")
    header = lines[0]["header"]
    if header.get("schema") != SPAN_SCHEMA:
        raise ValidationError(
            f"{path} has schema {header.get('schema')!r}, expected {SPAN_SCHEMA!r}"
        )
    return header, [entry["span"] for entry in lines[1:] if "span" in entry]
