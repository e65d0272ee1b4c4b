"""Live telemetry: hierarchical spans, HTTP exposition, divergence watchdog.

The warm-path observability layer for long-running and server-mode
workloads (ROADMAP Open item 2). Three pillars, each usable alone:

* :mod:`repro.telemetry.spans` — :class:`SpanTracer`, a machine instrument
  that maintains the live workload → phase → batch → round span tree on
  both the depth clock and the wall clock, streaming to a ring buffer and
  a JSONL file.
* :mod:`repro.telemetry.server` — :class:`TelemetryServer`, a stdlib
  ``http.server`` daemon thread answering ``/metrics`` (Prometheus text),
  ``/health``, ``/progress`` and ``/spans`` while the run executes.
* :mod:`repro.telemetry.watchdog` — :class:`DivergenceWatchdog`, a
  sampling shadow executor that replays every k-th phase's message rounds
  through a clock kernel independent of the one that charged them and
  alerts on any live energy/messages/depth/steps divergence.

:class:`TelemetrySession` (and the :func:`telemetry_session` helper) wires
all three onto a machine as one context manager — the CLI's
``--serve-telemetry`` flag is a thin wrapper around it. See
docs/OBSERVABILITY.md ("Live telemetry").
"""

from repro.telemetry.server import TelemetryServer
from repro.telemetry.session import TelemetrySession, telemetry_session
from repro.telemetry.spans import SPAN_SCHEMA, Span, SpanTracer, load_span_jsonl
from repro.telemetry.watchdog import DivergenceFinding, DivergenceWatchdog

__all__ = [
    "SPAN_SCHEMA",
    "DivergenceFinding",
    "DivergenceWatchdog",
    "Span",
    "SpanTracer",
    "TelemetryServer",
    "TelemetrySession",
    "load_span_jsonl",
    "telemetry_session",
]
