"""One-call wiring of the live telemetry stack onto a machine.

:class:`TelemetrySession` is the context manager behind the CLI's
``--serve-telemetry`` / ``--span-log`` flags and the library-user API:

    >>> from repro.telemetry import telemetry_session      # doctest: +SKIP
    >>> with telemetry_session(st.machine, port=9100, workload="treefix") as tel:
    ...     treefix_sum(st, values)                        # doctest: +SKIP

Entering the session attaches a :class:`~repro.telemetry.spans.SpanTracer`
and a :class:`~repro.telemetry.watchdog.DivergenceWatchdog` to the machine
and starts a :class:`~repro.telemetry.server.TelemetryServer` (when a port
is requested). Exiting closes the span stream, flips ``/health`` to
``done``, optionally *holds* the server open for a grace period (so
scrapers — CI smoke jobs, a Prometheus poll loop — can collect the final
totals of a short run), then stops the server and detaches the
instruments. The machine is returned exactly as found.

``congestion=True`` additionally attaches a
:class:`~repro.machine.tracing.CongestionTracer` (the XY-routing heatmap
instrument), folding the per-cell congestion figures into the live
``/metrics`` exposition — the one-shot-only surface it had before.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.errors import ValidationError
from repro.telemetry.server import DEFAULT_HOST, TelemetryServer
from repro.telemetry.spans import SpanTracer
from repro.telemetry.watchdog import DivergenceWatchdog


class TelemetrySession:
    """Attach spans + watchdog (+ server) to a machine for one run.

    Parameters
    ----------
    machine:
        The machine to observe, or ``None`` for machine-less workloads
        (the server still answers ``/health`` and friends).
    port:
        Serve HTTP on this port (``0`` = ephemeral); ``None`` disables the
        server (span log and watchdog still run).
    host:
        Bind address (loopback by default).
    span_log:
        Stream completed spans to this JSONL path.
    watchdog_sample:
        Shadow-replay sampling stride (every k-th phase); ``0`` disables
        the watchdog, a negative stride raises ``ValidationError``.
    workload / planned_phases:
        Root-span name and expected top-level phase count (for
        ``/progress`` percentages).
    congestion:
        Also attach a :class:`~repro.machine.tracing.CongestionTracer`
        (skipped if the machine already has one).
    hold:
        Seconds to keep serving after the session body finishes (scrape
        grace period; ``/health`` reports ``done`` during the hold).
    ring:
        Completed-span ring capacity for ``/spans``.
    extra_publishers:
        Extra ``callable(registry)`` hooks forwarded to the
        :class:`~repro.telemetry.server.TelemetryServer` and run on every
        ``/metrics`` scrape (e.g.
        :func:`~repro.analysis.metrics.publish_critical_path` bound to an
        attached analyzer).
    """

    def __init__(
        self,
        machine=None,
        *,
        port: int | None = None,
        host: str = DEFAULT_HOST,
        span_log: str | Path | None = None,
        watchdog_sample: int = 4,
        workload: str | None = None,
        planned_phases: int | None = None,
        congestion: bool = False,
        hold: float = 0.0,
        ring: int = 1024,
        extra_publishers=(),
    ) -> None:
        if watchdog_sample < 0:
            raise ValidationError(f"watchdog sample must be >= 0, got {watchdog_sample}")
        self.machine = machine
        self.hold = float(hold)
        self.span_log = Path(span_log) if span_log is not None else None
        self.tracer: SpanTracer | None = None
        self.watchdog: DivergenceWatchdog | None = None
        self.server: TelemetryServer | None = None
        self._congestion = congestion
        self._own_congestion_tracer = False
        self._port = port
        self._host = host
        self._watchdog_sample = int(watchdog_sample)
        self._workload = workload
        self._planned_phases = planned_phases
        self._ring = ring
        self._extra_publishers = tuple(extra_publishers)
        self._entered = False

    # ------------------------------------------------------------------ #

    def __enter__(self) -> "TelemetrySession":
        if self._entered:
            return self
        self._entered = True
        machine = self.machine
        if machine is not None:
            self.tracer = SpanTracer(
                workload=self._workload,
                ring=self._ring,
                jsonl_path=self.span_log,
                planned_phases=self._planned_phases,
            )
            machine.attach(self.tracer)
            if self._watchdog_sample > 0:
                self.watchdog = DivergenceWatchdog(
                    sample=self._watchdog_sample, tracer=self.tracer
                )
                machine.attach(self.watchdog)
            if self._congestion and getattr(machine, "tracer", None) is None:
                from repro.machine.tracing import attach_tracer

                attach_tracer(machine)
                self._own_congestion_tracer = True
        if self._port is not None:
            self.server = TelemetryServer(
                machine,
                port=self._port,
                host=self._host,
                span_tracer=self.tracer,
                watchdog=self.watchdog,
                extra_publishers=self._extra_publishers,
            ).start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        machine = self.machine
        if self.server is not None:
            self.server.mark_done()
            if self.hold > 0:
                time.sleep(self.hold)
        if self.tracer is not None and machine is not None:
            machine.detach(self.tracer)  # detach closes the span stream
        if self.watchdog is not None and machine is not None:
            machine.detach(self.watchdog)
        if self._own_congestion_tracer and machine is not None:
            machine.tracer = None
        if self.server is not None:
            self.server.stop()
        self._entered = False

    # ------------------------------------------------------------------ #

    @property
    def url(self) -> str | None:
        """The server's base URL, or ``None`` when not serving."""
        return self.server.url if self.server is not None else None

    def summary(self) -> dict:
        """JSON-ready wrap-up of what the session observed."""
        out: dict = {}
        if self.tracer is not None:
            out["spans"] = dict(self.tracer.spans_total)
        if self.watchdog is not None:
            out["watchdog"] = self.watchdog.snapshot()
        if self.span_log is not None:
            out["span_log"] = str(self.span_log)
        if self.server is not None:
            out["url"] = self.server.url
        return out


def telemetry_session(machine=None, **kwargs) -> TelemetrySession:
    """Build a :class:`TelemetrySession` (the library context-manager API)."""
    return TelemetrySession(machine, **kwargs)
