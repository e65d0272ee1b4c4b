"""Live exposition: a stdlib HTTP server over a running spatial machine.

Every telemetry surface the repo had before this module was post-mortem —
``--report`` files, profile bundles, one-shot Prometheus text dumps. The
:class:`TelemetryServer` serves the same producers *while the run
executes*, from a daemon thread, with zero third-party dependencies
(``http.server`` only — the container rule):

* ``GET /metrics``   — Prometheus text exposition (0.0.4). Rendered fresh
  per scrape from a new :class:`~repro.analysis.metrics.MetricsRegistry`,
  so repeated scrapes see the machine's monotone totals without
  double-publishing into a long-lived registry (each family's ``# HELP`` /
  ``# TYPE`` appears exactly once per scrape).
* ``GET /health``    — liveness JSON: status (``running`` / ``done``),
  uptime, machine identity, current totals, watchdog summary.
* ``GET /progress``  — the live span stack plus percent of planned
  top-level phases (from the attached
  :class:`~repro.telemetry.spans.SpanTracer`).
* ``GET /spans``     — ring buffer of recently completed spans
  (``?limit=K`` trims the window).

Scrape-time state is assembled from lock-guarded snapshots (span tracer,
watchdog) and single-field reads of machine counters, which never make
the simulation thread wait. The one exception is the congestion tracer:
reading its figures folds its buffered messages into its load grid under
the tracer's lock, so the simulation thread waits at most one fold.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from repro.analysis.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    MetricsRegistry,
    publish_machine,
    publish_tracer,
)

#: default bind address — telemetry is an operator surface, not a public one
DEFAULT_HOST = "127.0.0.1"


class TelemetryServer:
    """Background HTTP server exposing live run telemetry.

    Parameters
    ----------
    machine:
        The :class:`~repro.machine.SpatialMachine` to expose, or ``None``
        for machine-less workloads (health/progress/spans still serve).
    port:
        TCP port; ``0`` binds an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    host:
        Bind address (loopback by default).
    span_tracer / watchdog:
        Optional telemetry instruments whose state the endpoints include.
    extra_publishers:
        Extra ``callable(registry)`` hooks run on every ``/metrics`` scrape
        (e.g. a profiler publisher).
    """

    def __init__(
        self,
        machine=None,
        *,
        port: int = 0,
        host: str = DEFAULT_HOST,
        span_tracer=None,
        watchdog=None,
        extra_publishers=(),
    ) -> None:
        self.machine = machine
        self.span_tracer = span_tracer
        self.watchdog = watchdog
        self.extra_publishers = tuple(extra_publishers)
        self._requested = (host, int(port))
        self._httpd: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self._t0 = time.monotonic()
        self._scrapes = 0
        self._dropped_responses = 0
        self._status = "starting"

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "TelemetryServer":
        """Bind and serve from a daemon thread; returns self."""
        if self._httpd is not None:
            return self
        server = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # noqa: ARG002 - silence stdlib logging
                pass

            def do_GET(self):  # noqa: N802 - stdlib API name
                server._handle(self)

            def do_POST(self):  # noqa: N802 - stdlib API name
                server._handle_post(self)

        self._httpd = ThreadingHTTPServer(self._requested, Handler)
        self._httpd.daemon_threads = True
        self._t0 = time.monotonic()
        self._status = "running"
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Shut the server down; idempotent."""
        httpd, self._httpd = self._httpd, None
        if httpd is not None:
            httpd.shutdown()
            httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._status = "stopped"

    def mark_done(self) -> None:
        """Flip ``/health`` status to ``done`` (run finished, still serving)."""
        self._status = "done"

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ephemeral port 0)."""
        if self._httpd is not None:
            return int(self._httpd.server_address[1])
        return self._requested[1]

    @property
    def url(self) -> str:
        return f"http://{self._requested[0]}:{self.port}"

    @property
    def uptime(self) -> float:
        return time.monotonic() - self._t0

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #

    def _handle(self, handler: BaseHTTPRequestHandler) -> None:
        parsed = urlparse(handler.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route in ("/", "/health"):
                self._send_json(handler, self.health())
            elif route == "/metrics":
                self._scrapes += 1
                body = self.render_metrics()
                self._send(handler, 200, PROMETHEUS_CONTENT_TYPE, body.encode())
            elif route == "/progress":
                self._send_json(handler, self.progress())
            elif route == "/spans":
                params = parse_qs(parsed.query)
                limit = None
                if "limit" in params:
                    raw = params["limit"][0]
                    try:
                        limit = max(0, int(raw))
                    except ValueError:
                        self._send_json(
                            handler,
                            {"error": f"limit must be an integer, got {raw!r}"},
                            status=400,
                        )
                        return
                self._send_json(handler, self.spans(limit))
            elif not self._handle_get_extra(handler, route, parsed):
                self._send_json(
                    handler,
                    {"error": f"unknown endpoint {route!r}",
                     "endpoints": ["/metrics", "/health", "/progress", "/spans"]
                     + list(self.extra_endpoints())},
                    status=404,
                )
        except Exception as exc:  # noqa: BLE001 - a scrape must never kill the run
            try:
                self._send_json(
                    handler, {"error": f"{type(exc).__name__}: {exc}"}, status=500
                )
            except OSError:
                self._dropped_responses += 1  # client hung up mid-error reply

    # subclass hooks — the serving layer (repro.serving) adds POST query
    # endpoints and extra GET routes on top of the read-only base set

    def extra_endpoints(self) -> tuple[str, ...]:
        """Additional routes a subclass serves (listed in 404 bodies)."""
        return ()

    def _handle_get_extra(self, handler, route: str, parsed) -> bool:
        """Serve a subclass GET route; return False to fall through to 404."""
        del handler, route, parsed
        return False

    def _handle_post(self, handler: BaseHTTPRequestHandler) -> None:
        """POST entry point; the base telemetry surface is read-only."""
        try:
            self._send_json(
                handler,
                {"error": "telemetry endpoints are read-only (GET only)"},
                status=405,
            )
        except OSError:
            self._dropped_responses += 1

    @staticmethod
    def _send(handler, status: int, content_type: str, body: bytes) -> None:
        handler.send_response(status)
        handler.send_header("Content-Type", content_type)
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    @classmethod
    def _send_json(cls, handler, payload: dict, *, status: int = 200) -> None:
        body = (json.dumps(payload, indent=2) + "\n").encode()
        cls._send(handler, status, "application/json", body)

    # ------------------------------------------------------------------ #
    # endpoint bodies (also the library/testing API — no HTTP required)
    # ------------------------------------------------------------------ #

    def render_metrics(self) -> str:
        """One fresh Prometheus exposition of every connected producer."""
        registry = MetricsRegistry()
        registry.gauge(
            "repro_telemetry_uptime_seconds", "seconds since the server started"
        ).set(round(self.uptime, 3))
        registry.counter(
            "repro_telemetry_scrapes_total", "metrics scrapes served"
        ).inc(self._scrapes)
        machine = self.machine
        if machine is not None:
            publish_machine(registry, machine)
            tracer = getattr(machine, "tracer", None)
            if tracer is not None:
                publish_tracer(registry, tracer)
            wall_profiler = getattr(machine, "wall_profiler", None)
            if wall_profiler is not None:
                from repro.analysis.metrics import publish_kernel_profiler

                publish_kernel_profiler(registry, wall_profiler)
        if self.watchdog is not None:
            self.watchdog.publish(registry)
        if self.span_tracer is not None:
            self.span_tracer.publish(registry)
        for publish in self.extra_publishers:
            publish(registry)
        return registry.render_prometheus()

    def health(self) -> dict:
        out = {
            "status": self._status,
            "uptime_seconds": round(self.uptime, 3),
        }
        machine = self.machine
        if machine is not None:
            out["machine"] = {
                "n": machine.n,
                "side": machine.side,
                "curve": machine.curve.name,
                "metric": machine.metric,
                "engine": machine.engine,
            }
            out["totals"] = machine.snapshot() | {"steps": machine.steps}
        if self.watchdog is not None:
            wd = self.watchdog.snapshot()
            wd.pop("findings", None)
            out["watchdog"] = wd
        return out

    def progress(self) -> dict:
        out: dict = {"status": self._status}
        if self.span_tracer is not None:
            out.update(self.span_tracer.progress())
        else:
            machine = self.machine
            out["span_stack"] = (
                list(machine.phase_stack) if machine is not None else []
            )
            out["percent"] = None
        if self.machine is not None:
            out["totals"] = self.machine.snapshot() | {"steps": self.machine.steps}
        return out

    def spans(self, limit: int | None = None) -> dict:
        from repro.telemetry.spans import SPAN_SCHEMA

        spans = self.span_tracer.recent(limit) if self.span_tracer is not None else []
        return {"schema": SPAN_SCHEMA, "count": len(spans), "spans": spans}

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
