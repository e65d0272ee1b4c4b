"""The always-on query service: warm boot, a machine-owning worker, stats.

:class:`QueryService` is the hot core of ``repro serve``: it builds (or
replays) a layout **once**, keeps the resulting
:class:`~repro.spatial.SpatialTree` — machine, plan cache, and the
query-independent LCA ranges + heavy-light cover — resident, and answers
streams of ``lca`` / ``treefix`` / ``cuts`` requests from many concurrent
clients. A :class:`~repro.machine.SpatialMachine` is *not* thread-safe
(one clock array, one ledger), so exactly one worker thread owns all
machine execution; client threads only enqueue into the
:class:`~repro.serving.coalescer.WindowedQueue` and block on their
request's event.

Boot paths (:func:`boot_service`):

* **warm** — replay the stored ``layout_creation`` plan for this
  ``(n, curve, shape)`` from the :class:`~repro.plans.PlanStore`
  (straight-line trusted sends, no host-side §IV logic), reconstruct the
  layout from the replayed ``position`` array, and keep the replay
  machine — its plan cache (bitonic sort network, routing plans) arrives
  pre-warmed. Falls back to cold when no plan is stored or the stored
  plan pins a different seed, and records one so the *next* boot is warm.
* **cold** — run the paper's §IV layout-creation pipeline on-machine.

Either way the boot ends with :func:`~repro.spatial.lca.prepare_lca`, so
the per-window serving cost is only the §VI-C layer sweeps — the thing
cross-user coalescing amortizes.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import PlanStoreError, ServingError, ValidationError
from repro.plans import PlanStore, make_tree, record, replay
from repro.serving.coalescer import (
    CoalescePlan,
    PendingRequest,
    WindowedQueue,
    check_queue_args,
    plan_window,
    scatter_answers,
)
from repro.spatial.context import SpatialTree
from repro.spatial.graph import one_respecting_cuts
from repro.spatial.layout_creation import create_light_first_layout
from repro.spatial.lca import PreparedLCA, lca_batch
from repro.utils import as_index_array, check_in_range

#: ops a QueryService dispatches (lca coalesces; the rest run FIFO)
SERVABLE_OPS = ("lca", "treefix", "cuts")

#: sliding window for the live QPS gauge, seconds
QPS_WINDOW_S = 10.0

#: ring size for raw latency / batch-size observations kept for histograms
OBSERVATION_RING = 4096

#: histogram buckets for request latency, seconds
LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
    float("inf"),
)


class ServingStats:
    """Thread-safe serving counters + bounded raw observations.

    A :class:`~repro.analysis.metrics.MetricsRegistry` is created fresh
    per ``/metrics`` scrape (see ``telemetry/server.py``), so this object
    is the *persistent* state: plain cumulative counters plus bounded
    deques of raw observations, republished into each scrape's registry
    by :meth:`publish`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests_total: dict[str, int] = {}
        self.queries_total: dict[str, int] = {}
        self.errors_total: dict[str, int] = {}
        self.windows_total = 0
        self.window_queries_total = 0
        self.dedup_saved_total = 0
        self.window_energy_total = 0
        self.window_depth_total = 0
        self._latencies: dict[str, deque[float]] = {}
        self._batch_sizes: deque[int] = deque(maxlen=OBSERVATION_RING)
        self._completions: deque[float] = deque(maxlen=4 * OBSERVATION_RING)

    def record_request(self, op: str, num_queries: int) -> None:
        with self._lock:
            self.requests_total[op] = self.requests_total.get(op, 0) + 1
            self.queries_total[op] = self.queries_total.get(op, 0) + num_queries

    def record_completion(self, op: str, latency_s: float) -> None:
        with self._lock:
            ring = self._latencies.setdefault(
                op, deque(maxlen=OBSERVATION_RING)
            )
            ring.append(latency_s)
            self._completions.append(time.monotonic())

    def record_error(self, op: str) -> None:
        with self._lock:
            self.errors_total[op] = self.errors_total.get(op, 0) + 1

    def record_window(self, plan: CoalescePlan, costs: dict[str, int]) -> None:
        with self._lock:
            self.windows_total += 1
            self.window_queries_total += plan.total_queries
            self.dedup_saved_total += plan.duplicates_saved
            self.window_energy_total += int(costs.get("energy", 0))
            self.window_depth_total += int(costs.get("depth", 0))
            self._batch_sizes.append(plan.total_queries)

    def qps(self, *, window_s: float = QPS_WINDOW_S) -> float:
        """Completed requests per second over the trailing window."""
        cutoff = time.monotonic() - window_s
        with self._lock:
            recent = sum(1 for t in self._completions if t >= cutoff)
        return recent / window_s

    def latency_quantile(self, op: str, q: float) -> float | None:
        """Quantile (0..1) of recent latencies for ``op``; None if no data."""
        with self._lock:
            ring = self._latencies.get(op)
            data = sorted(ring) if ring else None
        if not data:
            return None
        idx = min(len(data) - 1, max(0, round(q * (len(data) - 1))))
        return data[idx]

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready stats for the ``/serving`` endpoint."""
        with self._lock:
            batch = list(self._batch_sizes)
            out: dict[str, Any] = {
                "requests_total": dict(self.requests_total),
                "queries_total": dict(self.queries_total),
                "errors_total": dict(self.errors_total),
                "windows_total": self.windows_total,
                "window_queries_total": self.window_queries_total,
                "dedup_saved_total": self.dedup_saved_total,
                "window_energy_total": self.window_energy_total,
                "window_depth_total": self.window_depth_total,
                "mean_batch_size": (sum(batch) / len(batch)) if batch else 0.0,
            }
        out["qps"] = round(self.qps(), 3)
        for op in SERVABLE_OPS:
            for label, q in (("p50", 0.5), ("p99", 0.99)):
                value = self.latency_quantile(op, q)
                if value is not None:
                    out[f"{op}_latency_{label}_seconds"] = round(value, 6)
        return out

    def publish(self, registry) -> None:
        """Publish into a fresh per-scrape registry (monotone totals +
        bounded-ring histograms)."""
        with self._lock:
            requests = dict(self.requests_total)
            queries = dict(self.queries_total)
            errors = dict(self.errors_total)
            windows = self.windows_total
            window_queries = self.window_queries_total
            dedup = self.dedup_saved_total
            energy = self.window_energy_total
            latencies = {op: list(ring) for op, ring in self._latencies.items()}
            batches = list(self._batch_sizes)
        req = registry.counter(
            "repro_serve_requests_total", "requests admitted, by op", ("op",)
        )
        qry = registry.counter(
            "repro_serve_queries_total", "individual queries admitted, by op", ("op",)
        )
        err = registry.counter(
            "repro_serve_errors_total", "requests that failed in the worker, by op",
            ("op",),
        )
        for op, count in requests.items():
            req.labels(op=op).inc(count)
        for op, count in queries.items():
            qry.labels(op=op).inc(count)
        for op, count in errors.items():
            err.labels(op=op).inc(count)
        registry.counter(
            "repro_serve_windows_total", "coalesced LCA windows executed"
        ).inc(windows)
        registry.counter(
            "repro_serve_window_queries_total", "LCA queries served via windows"
        ).inc(window_queries)
        registry.counter(
            "repro_serve_dedup_saved_total",
            "queries answered by another query's identical (u,v) answer",
        ).inc(dedup)
        registry.counter(
            "repro_serve_window_energy_total",
            "model energy charged by coalesced windows",
        ).inc(energy)
        registry.gauge(
            "repro_serve_qps", f"completed requests/s over the last {QPS_WINDOW_S:g}s"
        ).set(round(self.qps(), 3))
        batch_hist = registry.histogram(
            "repro_serve_batch_size", "queries per coalesced window"
        )
        for size in batches:
            batch_hist.observe(size)
        lat = registry.histogram(
            "repro_serve_latency_seconds",
            "request latency (queue wait + execution), by op",
            ("op",),
            buckets=LATENCY_BUCKETS,
        )
        for op, ring in latencies.items():
            child = lat.labels(op=op)
            for value in ring:
                child.observe(value)


@dataclass
class BootInfo:
    """How the service came up: path taken and what it cost."""

    mode: str  # "warm" | "cold" | "cold_fallback"
    boot_s: float  # wall time, layout + prepare_lca
    totals: dict[str, int]  # model cost of the boot (energy/messages/depth)
    plan_key: tuple[str, int, str, str] | None = None
    fallback_reason: str | None = None


class QueryService:
    """Single-worker query service over one resident :class:`SpatialTree`.

    Client threads call :meth:`submit` (or the :meth:`lca` /
    :meth:`treefix` / :meth:`cuts` conveniences, which block for the
    answer); the worker thread drains the windowed queue, runs each unit
    of work on the machine, and completes the requests. ``window_s=0``
    turns coalescing off — every window carries exactly one request — so
    on/off comparisons share all remaining code.
    """

    def __init__(
        self,
        st: SpatialTree,
        *,
        window_s: float = 0.002,
        max_batch: int = 65536,
        max_queue: int = 1024,
        seed: int | None = None,
        tracer=None,
        prepared: PreparedLCA | None = None,
    ) -> None:
        self.queue = WindowedQueue(
            window_s=window_s, max_batch=max_batch, max_queue=max_queue
        )
        self.st = st
        self.seed = seed
        self.tracer = tracer
        self.prepared = prepared if prepared is not None else st.prepare_lca(seed=seed)
        self.stats = ServingStats()
        self.max_batch = int(max_batch)
        self._worker: threading.Thread | None = None
        self._worker_error: BaseException | None = None
        self.first_answer_at: float | None = None

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "QueryService":
        if self._worker is not None:
            return self
        self._worker = threading.Thread(
            target=self._worker_loop, name="repro-serve-worker", daemon=True
        )
        self._worker.start()
        return self

    def drain(self, timeout: float | None = 30.0) -> None:
        """Stop admitting requests, flush what's queued, join the worker."""
        self.queue.drain()
        worker = self._worker
        if worker is not None:
            worker.join(timeout=timeout)
            if worker.is_alive():  # pragma: no cover - hung machine op
                raise ServingError("serving worker did not drain in time")
            self._worker = None

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.drain()

    # ------------------------------------------------------------------ #
    # client side (any thread)
    # ------------------------------------------------------------------ #

    def submit(self, op: str, payload: dict[str, Any]) -> PendingRequest:
        """Validate + enqueue; returns the pending request to wait on.

        Raises :class:`~repro.errors.ValidationError` on bad input (HTTP
        400), :class:`~repro.errors.ServeQueueFullError` when shedding
        (429), :class:`~repro.errors.ServeDrainingError` during shutdown
        (503).
        """
        if self._worker_error is not None:
            raise ServingError(
                f"serving worker died: {self._worker_error!r}"
            ) from self._worker_error
        payload = self._validate(op, payload)
        request = PendingRequest(op=op, payload=payload)
        self.queue.submit(request)
        self.stats.record_request(op, request.num_queries)
        return request

    def lca(self, us, vs, *, timeout: float | None = 30.0) -> np.ndarray:
        """Blocking convenience: submit one LCA batch, wait for the answer."""
        return self.submit("lca", {"us": us, "vs": vs}).wait(timeout)

    def treefix(self, values, *, timeout: float | None = 30.0) -> np.ndarray:
        return self.submit("treefix", {"values": values}).wait(timeout)

    def cuts(self, extra_edges, *, timeout: float | None = 30.0):
        return self.submit("cuts", {"extra_edges": extra_edges}).wait(timeout)

    def _validate(self, op: str, payload: dict[str, Any]) -> dict[str, Any]:
        n = self.st.n
        if op == "lca":
            us = as_index_array(np.atleast_1d(payload.get("us")), name="us")
            vs = as_index_array(np.atleast_1d(payload.get("vs")), name="vs")
            if len(us) != len(vs):
                raise ValidationError(
                    f"us and vs must have equal length, got {len(us)} != {len(vs)}"
                )
            check_in_range(us, 0, n, name="us")
            check_in_range(vs, 0, n, name="vs")
            return {"us": us, "vs": vs}
        if op == "treefix":
            values = np.atleast_1d(np.asarray(payload.get("values")))
            if len(values) != n:
                raise ValidationError(
                    f"treefix values must have length n={n}, got {len(values)}"
                )
            return {"values": values}
        if op == "cuts":
            edges = np.atleast_2d(np.asarray(payload.get("extra_edges")))
            if edges.size == 0:
                edges = edges.reshape(0, 2)
            if edges.ndim != 2 or edges.shape[1] != 2:
                raise ValidationError(
                    f"extra_edges must be an (m, 2) array, got shape {edges.shape}"
                )
            edges = as_index_array(edges.reshape(-1), name="extra_edges").reshape(-1, 2)
            check_in_range(edges.reshape(-1), 0, n, name="extra_edges")
            return {"extra_edges": edges}
        raise ValidationError(
            f"unknown op {op!r}; servable ops are {SERVABLE_OPS}"
        )

    # ------------------------------------------------------------------ #
    # worker side (the one machine-owning thread)
    # ------------------------------------------------------------------ #

    def _worker_loop(self) -> None:
        try:
            while True:
                work = self.queue.next_work()
                if work is None:
                    return
                kind, requests = work
                if kind == "lca":
                    self._run_window(requests)
                else:
                    self._run_misc(requests[0])
        except BaseException as exc:  # pragma: no cover - defensive backstop
            self._worker_error = exc
            self.queue.drain()
            failed = ServingError(f"serving worker died: {exc!r}")
            failed.__cause__ = exc
            self.queue.flush_errors(failed)
            raise

    def _mark_first_answer(self) -> None:
        if self.first_answer_at is None:
            self.first_answer_at = time.monotonic()

    def _run_window(self, requests: list[PendingRequest]) -> None:
        """Execute one coalesced window: merge, dedup, answer, demux."""
        machine = self.st.machine
        try:
            plan = plan_window(
                [(r.payload["us"], r.payload["vs"]) for r in requests],
                max_batch=self.max_batch,
            )
            before = machine.snapshot()
            span = (
                self.tracer.span(
                    "serve_window",
                    kind="window",
                    args={
                        "requests": len(requests),
                        "queries": plan.total_queries,
                        "unique": plan.num_unique,
                        "chunks": plan.num_chunks,
                    },
                )
                if self.tracer is not None
                else None
            )
            if span is not None:
                span.__enter__()
            try:
                answers = [
                    lca_batch(self.st, us, vs, seed=self.seed, prepared=self.prepared)
                    for us, vs in plan.chunks()
                ]
            finally:
                if span is not None:
                    span.__exit__(None, None, None)
            unique = (
                np.concatenate(answers)
                if answers
                else np.zeros(0, dtype=np.int64)
            )
            after = machine.snapshot()
            costs = {k: after[k] - before[k] for k in after}
            per_request = scatter_answers(plan, unique)
            self.stats.record_window(plan, costs)
        except Exception as exc:
            for request in requests:
                request.finish(error=exc)
                self.stats.record_error(request.op)
            return
        self._mark_first_answer()
        for request, answer in zip(requests, per_request):
            request.finish(result=answer)
            self.stats.record_completion(request.op, request.latency_s)

    def _run_misc(self, request: PendingRequest) -> None:
        """Execute one non-coalescable request (treefix / cuts), solo."""
        try:
            if request.op == "treefix":
                result: Any = self.st.treefix_sum(
                    request.payload["values"], seed=self.seed
                )
            elif request.op == "cuts":
                result = one_respecting_cuts(
                    self.st,
                    request.payload["extra_edges"],
                    seed=self.seed,
                    prepared_lca=self.prepared,
                )
            else:  # pragma: no cover - submit() already rejects unknown ops
                raise ValidationError(f"unknown op {request.op!r}")
        except Exception as exc:
            request.finish(error=exc)
            self.stats.record_error(request.op)
            return
        self._mark_first_answer()
        request.finish(result=result)
        self.stats.record_completion(request.op, request.latency_s)

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #

    def publish(self, registry) -> None:
        """Per-scrape publisher: stats + queue admission-control counters."""
        self.stats.publish(registry)
        registry.gauge(
            "repro_serve_queue_depth", "requests waiting in the windowed queue"
        ).set(len(self.queue))
        registry.counter(
            "repro_serve_shed_total", "requests shed with queue-full (HTTP 429)"
        ).inc(self.queue.shed_total)
        registry.counter(
            "repro_serve_rejected_draining_total",
            "requests rejected during drain (HTTP 503)",
        ).inc(self.queue.rejected_draining_total)

    def describe(self) -> dict[str, Any]:
        """JSON-ready service description for the ``/serving`` endpoint."""
        return {
            "n": self.st.n,
            "curve": self.st.layout.curve.name,
            "engine": self.st.machine.engine,
            "window_ms": self.queue.window_s * 1000.0,
            "max_batch": self.max_batch,
            "max_queue": self.queue.max_queue,
            "coalescing": self.queue.window_s > 0,
            "draining": self.queue.draining,
            "queue_depth": len(self.queue),
            "shed_total": self.queue.shed_total,
            "rejected_draining_total": self.queue.rejected_draining_total,
            "stats": self.stats.snapshot(),
        }


# --------------------------------------------------------------------------- #
# boot
# --------------------------------------------------------------------------- #


@dataclass
class BootedService:
    """A started :class:`QueryService` plus how it came up."""

    service: QueryService
    boot: BootInfo
    tree: Any = field(repr=False, default=None)


def _warm_layout(
    shape: str, n: int, seed: int, curve: str, engine: str, store: PlanStore
) -> tuple[SpatialTree, tuple[str, int, str, str]] | str:
    """Try the warm path; returns a reason string when it can't be taken."""
    key = ("layout_creation", n, curve, shape)
    try:
        rep = replay(key, store=store, engine=engine, fallback=True)
    except PlanStoreError:
        return "no stored layout_creation plan for this key"
    if rep.plan.seed != seed:
        return (
            f"stored plan pins seed {rep.plan.seed}, service wants {seed}"
        )
    position = rep.results["position"]
    tree = make_tree(shape, n, seed)
    from repro.layout.embedding import TreeLayout

    order = np.argsort(position, kind="stable").astype(np.int64)
    layout = TreeLayout.build(tree, order=order, curve=curve)
    # keep the replay machine: its plan cache (sort network, routing
    # plans) is pre-warmed; boot totals are read before the cost reset
    return SpatialTree(layout, machine=rep.machine), key


def boot_service(
    *,
    shape: str = "random",
    n: int = 1024,
    seed: int = 0,
    curve: str = "hilbert",
    engine: str = "batched",
    warm: bool = True,
    store: PlanStore | None = None,
    record_on_fallback: bool = True,
    window_s: float = 0.002,
    max_batch: int = 65536,
    max_queue: int = 1024,
    tracer=None,
) -> BootedService:
    """Construct, warm, and start a :class:`QueryService`.

    With ``warm=True`` and a ``store``, boots by replaying the stored
    ``layout_creation`` plan (falling back — and, with
    ``record_on_fallback``, recording a plan so the next boot is warm —
    when the store has nothing usable). ``boot.totals`` is the model cost
    of everything up to readiness: layout creation/replay plus the
    :func:`~repro.spatial.lca.prepare_lca` precomputation. Costs are
    reset after boot so serving windows account from zero. The queue
    arguments are checked before any boot work.
    """
    check_queue_args(window_s=window_s, max_batch=max_batch, max_queue=max_queue)
    t0 = time.monotonic()
    mode = "cold"
    plan_key: tuple[str, int, str, str] | None = None
    fallback_reason: str | None = None
    st: SpatialTree | None = None
    if warm and store is not None:
        warmed = _warm_layout(shape, n, seed, curve, engine, store)
        if isinstance(warmed, str):
            fallback_reason = warmed
            mode = "cold_fallback"
            if record_on_fallback:
                # record the live §IV run (so the *next* boot replays it)
                # and serve from that same run's layout + machine — the
                # pipeline must not run twice
                rec = record(
                    "layout_creation", n=n, seed=seed, shape=shape,
                    curve=curve, engine=engine, store=store,
                )
                plan_key = rec.plan.key
                from repro.layout.embedding import TreeLayout

                order = np.argsort(
                    rec.results["position"], kind="stable"
                ).astype(np.int64)
                layout = TreeLayout.build(
                    make_tree(shape, n, seed), order=order, curve=curve
                )
                st = SpatialTree(layout, machine=rec.machine)
        else:
            st, plan_key = warmed
            mode = "warm"
    if st is None:
        tree = make_tree(shape, n, seed)
        created = create_light_first_layout(
            tree, curve=curve, seed=seed, engine=engine
        )
        st = SpatialTree(created.layout, machine=created.machine)
    if tracer is not None:
        st.machine.attach(tracer)
    prepared = st.prepare_lca(seed=seed)
    totals = st.machine.snapshot()
    st.machine.reset_costs()
    service = QueryService(
        st,
        window_s=window_s,
        max_batch=max_batch,
        max_queue=max_queue,
        seed=seed,
        tracer=tracer,
        prepared=prepared,
    ).start()
    boot = BootInfo(
        mode=mode,
        boot_s=time.monotonic() - t0,
        totals=totals,
        plan_key=plan_key,
        fallback_reason=fallback_reason,
    )
    return BootedService(service=service, boot=boot, tree=st.tree)
