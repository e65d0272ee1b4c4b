"""A small labelled-metrics registry with Prometheus text exposition.

One sink for every telemetry producer: the cost ledger, the congestion
tracer, and the spatial profiler all *publish* into a
:class:`MetricsRegistry`, which renders either Prometheus exposition-format
text (``# HELP`` / ``# TYPE`` / ``name{label="v"} value``) or plain JSON.
The registry is deliberately offline — it snapshots a finished (or
in-progress) run for scraping/diffing, it does not start a server.

Three metric families, matching the Prometheus data model:

* :class:`Counter` — monotone totals (``inc``);
* :class:`Gauge`   — point-in-time values (``set`` / ``inc``);
* :class:`Histogram` — bucketed distributions with cumulative ``le``
  buckets, ``_sum`` and ``_count`` series (``observe`` takes optional
  bulk counts, so a distance histogram publishes in one call).

Each family takes ``labelnames`` at declaration and materializes children
via ``.labels(name=value, ...)``; a label-less family is its own child.
Publishers for the repo's producers live at the bottom
(:func:`publish_machine`, :func:`publish_tracer`, :func:`publish_profiler`).
"""

from __future__ import annotations

import json
import math
import re

from repro.errors import ValidationError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: HTTP Content-Type of :meth:`MetricsRegistry.render_prometheus` output
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label_value(value: str) -> str:
    """Exposition-format label-value escaping: backslash, quote, newline —
    in that order, so already-escaped backslashes don't double up."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(value: str) -> str:
    """``# HELP`` text escaping (the format escapes ``\\`` and newlines
    only; quotes are legal verbatim in help text)."""
    return value.replace("\\", r"\\").replace("\n", r"\n")


def _format_value(value) -> str:
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


class _Child:
    """One (labelvalues → value) sample of a family."""

    def __init__(self, family: "MetricFamily", labelvalues: tuple[str, ...]):
        self.family = family
        self.labelvalues = labelvalues
        self.value = 0

    def inc(self, amount=1) -> None:
        if self.family.type == "counter" and amount < 0:
            raise ValidationError("counters only go up; use a gauge")
        self.value += amount

    def set(self, value) -> None:
        if self.family.type == "counter":
            raise ValidationError("counters cannot be set; use inc() or a gauge")
        self.value = value


class _HistogramChild(_Child):
    def __init__(self, family: "Histogram", labelvalues: tuple[str, ...]):
        super().__init__(family, labelvalues)
        self.bucket_counts = [0] * len(family.buckets)
        self.sum = 0
        self.count = 0

    def observe(self, value, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (bulk-friendly)."""
        count = int(count)
        if count < 0:
            raise ValidationError(f"observation count must be >= 0, got {count}")
        for i, bound in enumerate(self.family.buckets):
            if value <= bound:
                self.bucket_counts[i] += count
                break
        self.sum += value * count
        self.count += count

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ``+Inf`` last."""
        out, running = [], 0
        for bound, c in zip(self.family.buckets, self.bucket_counts):
            running += c
            out.append((bound, running))
        return out


class MetricFamily:
    """A named metric plus its per-labelset children."""

    type = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...] = ()):
        if not _NAME_RE.match(name):
            raise ValidationError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValidationError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._children: dict[tuple[str, ...], _Child] = {}

    def _make_child(self, labelvalues: tuple[str, ...]) -> _Child:
        return _Child(self, labelvalues)

    def labels(self, **labels) -> _Child:
        if set(labels) != set(self.labelnames):
            raise ValidationError(
                f"{self.name} takes labels {self.labelnames}, got {tuple(labels)}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._children[key] = self._make_child(key)
        return child

    def _default_child(self) -> _Child:
        if self.labelnames:
            raise ValidationError(
                f"{self.name} is labelled {self.labelnames}; use .labels(...)"
            )
        return self.labels()

    # label-less families proxy their single child
    def inc(self, amount=1) -> None:
        self._default_child().inc(amount)

    def set(self, value) -> None:
        self._default_child().set(value)

    @property
    def children(self) -> dict[tuple[str, ...], _Child]:
        return dict(self._children)


class Counter(MetricFamily):
    type = "counter"


class Gauge(MetricFamily):
    type = "gauge"


class Histogram(MetricFamily):
    type = "histogram"

    DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, math.inf)

    def __init__(self, name, help, labelnames=(), *, buckets=None):
        super().__init__(name, help, labelnames)
        buckets = list(buckets if buckets is not None else self.DEFAULT_BUCKETS)
        if buckets != sorted(buckets):
            raise ValidationError("histogram buckets must be sorted ascending")
        if not buckets or buckets[-1] != math.inf:
            buckets.append(math.inf)
        self.buckets = tuple(buckets)

    def _make_child(self, labelvalues):
        return _HistogramChild(self, labelvalues)

    def observe(self, value, count: int = 1) -> None:
        self._default_child().observe(value, count)


class MetricsRegistry:
    """Declare-or-fetch metric families; render Prometheus text or JSON."""

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}

    def _declare(self, cls, name, help, labelnames, **kwargs) -> MetricFamily:
        existing = self._families.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.labelnames != tuple(labelnames):
                raise ValidationError(
                    f"metric {name!r} already registered as {existing.type} "
                    f"with labels {existing.labelnames}"
                )
            return existing
        family = cls(name, help, tuple(labelnames), **kwargs)
        self._families[name] = family
        return family

    def counter(self, name, help="", labelnames=()) -> Counter:
        return self._declare(Counter, name, help, labelnames)

    def gauge(self, name, help="", labelnames=()) -> Gauge:
        return self._declare(Gauge, name, help, labelnames)

    def histogram(self, name, help="", labelnames=(), *, buckets=None) -> Histogram:
        return self._declare(Histogram, name, help, labelnames, buckets=buckets)

    @property
    def families(self) -> tuple[MetricFamily, ...]:
        return tuple(self._families.values())

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #

    def _labels_str(self, family, child, extra: list[tuple[str, str]] = ()) -> str:
        pairs = list(zip(family.labelnames, child.labelvalues)) + list(extra)
        if not pairs:
            return ""
        body = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in pairs)
        return "{" + body + "}"

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format (0.0.4).

        Conformance guarantees: ``# HELP`` / ``# TYPE`` appear **exactly
        once** per metric family (the registry is keyed by family name, so
        a name cannot render twice), label values and help text are
        escaped per the format (backslash, quote, newline), and rendering
        never mutates the registry — an untouched label-less family emits
        a transient zero sample without materializing a child.
        """
        lines: list[str] = []
        for family in self._families.values():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.type}")
            children = family.children or (
                {} if family.labelnames else {(): family._make_child(())}
            )
            for child in children.values():
                if isinstance(child, _HistogramChild):
                    for le, cum in child.cumulative_buckets():
                        labels = self._labels_str(
                            family, child, [("le", _format_value(le))]
                        )
                        lines.append(f"{family.name}_bucket{labels} {cum}")
                    labels = self._labels_str(family, child)
                    lines.append(f"{family.name}_sum{labels} {_format_value(child.sum)}")
                    lines.append(f"{family.name}_count{labels} {child.count}")
                else:
                    labels = self._labels_str(family, child)
                    lines.append(f"{family.name}{labels} {_format_value(child.value)}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """JSON-ready snapshot: family → type/help/samples."""
        out: dict[str, dict] = {}
        for family in self._families.values():
            samples = []
            for child in family.children.values():
                labels = dict(zip(family.labelnames, child.labelvalues))
                if isinstance(child, _HistogramChild):
                    samples.append(
                        {
                            "labels": labels,
                            "buckets": [
                                {"le": "+Inf" if le == math.inf else le, "count": cum}
                                for le, cum in child.cumulative_buckets()
                            ],
                            "sum": child.sum,
                            "count": child.count,
                        }
                    )
                else:
                    samples.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.type,
                "help": family.help,
                "samples": samples,
            }
        return out

    def save_json(self, path):
        from pathlib import Path

        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n")
        return path

    def save_prometheus(self, path):
        from pathlib import Path

        path = Path(path)
        path.write_text(self.render_prometheus())
        return path


# ---------------------------------------------------------------------- #
# publishers — one per telemetry producer
# ---------------------------------------------------------------------- #


def publish_machine(registry: MetricsRegistry, machine) -> None:
    """Ledger totals, per-phase bills, and the depth clock."""
    registry.counter(
        "repro_energy_total", "total energy charged (distance-weighted volume)"
    ).inc(machine.energy)
    registry.counter("repro_messages_total", "total remote messages charged").inc(
        machine.messages
    )
    registry.gauge("repro_depth", "depth clock (longest dependent chain)").set(
        machine.depth
    )
    registry.counter("repro_steps_total", "charged bulk sends").inc(machine.steps)
    phase_energy = registry.counter(
        "repro_phase_energy_total", "energy charged per phase", ("phase",)
    )
    phase_messages = registry.counter(
        "repro_phase_messages_total", "messages charged per phase", ("phase",)
    )
    phase_depth = registry.gauge(
        "repro_phase_depth", "depth added while the phase was active", ("phase",)
    )
    for name, phase in machine.ledger.phases.items():
        phase_energy.labels(phase=name).inc(phase.energy)
        phase_messages.labels(phase=name).inc(phase.messages)
        phase_depth.labels(phase=name).set(phase.depth)
    registry.gauge(
        "repro_machine_info",
        "machine identity (constant 1; identity rides on the labels)",
        ("curve", "metric", "engine"),
    ).labels(
        curve=machine.curve.name, metric=machine.metric, engine=machine.engine
    ).set(1)
    publish_plan_cache(registry, machine.plan_cache)


def publish_plan_cache(registry: MetricsRegistry, plan_cache) -> None:
    """Plan-cache effectiveness: per-family hit/miss counters + entry count.

    Accepts the machine's :class:`~repro.machine.machine.PlanCache` (a
    plain dict also works — it just publishes size only).
    """
    registry.gauge(
        "repro_plan_cache_size", "memoized plan entries held by the machine"
    ).set(len(plan_cache))
    hits = getattr(plan_cache, "hits", None)
    misses = getattr(plan_cache, "misses", None)
    if hits is None and misses is None:
        return
    hit_family = registry.counter(
        "repro_plan_cache_hits_total", "plan-cache lookups served from cache", ("plan",)
    )
    miss_family = registry.counter(
        "repro_plan_cache_misses_total", "plan-cache lookups that built a plan", ("plan",)
    )
    for family, count in sorted((hits or {}).items()):
        hit_family.labels(plan=family).inc(count)
    for family, count in sorted((misses or {}).items()):
        miss_family.labels(plan=family).inc(count)


def publish_plan_store(registry: MetricsRegistry, store) -> None:
    """Persistent plan-store effectiveness: per-workload hit / miss /
    eviction counters of the LRU memory layer plus on-disk footprint.

    Accepts a :class:`~repro.plans.store.PlanStore`; the memory layer
    shares the machine plan cache's counting surface, so the counter
    families read the same way as ``repro_plan_cache_*``.
    """
    mem = store.memory
    registry.gauge(
        "repro_plan_store_size", "plans held by the store's in-memory LRU layer"
    ).set(len(mem))
    registry.gauge(
        "repro_plan_store_disk_bytes", "bytes of plan artifacts on disk"
    ).set(store.total_bytes())
    hit_family = registry.counter(
        "repro_plan_store_hits_total",
        "plan-store lookups served from the memory layer",
        ("workload",),
    )
    miss_family = registry.counter(
        "repro_plan_store_misses_total",
        "plan-store lookups that went to disk (or found nothing)",
        ("workload",),
    )
    evict_family = registry.counter(
        "repro_plan_store_evictions_total",
        "plans evicted from the memory layer by LRU pressure",
        ("workload",),
    )
    for family, count in sorted(mem.hits.items()):
        hit_family.labels(workload=family).inc(count)
    for family, count in sorted(mem.misses.items()):
        miss_family.labels(workload=family).inc(count)
    for family, count in sorted(mem.evictions.items()):
        evict_family.labels(workload=family).inc(count)


def publish_tracer(registry: MetricsRegistry, tracer) -> None:
    """Whole-run XY-routing congestion figures."""
    registry.gauge(
        "repro_congestion_max_load", "hottest cell's traversal count (XY routing)"
    ).set(tracer.max_load)
    registry.counter(
        "repro_congestion_traversals_total",
        "cell traversals (= L1 distance + messages; = energy + messages under manhattan)",
    ).inc(tracer.total_traversals)


def publish_profiler(registry: MetricsRegistry, profiler) -> None:
    """Spatial aggregates: per-cell totals/peaks, link timeline, distances."""
    cell_total = registry.counter(
        "repro_cell_metric_total", "sum of a per-cell profile counter", ("metric",)
    )
    cell_peak = registry.gauge(
        "repro_cell_metric_peak", "hottest single cell of a profile counter", ("metric",)
    )
    for name, flat in profiler.cells.items():
        cell_total.labels(metric=name).inc(int(flat.sum()))
        cell_peak.labels(metric=name).set(int(flat.max(initial=0)))
    registry.gauge(
        "repro_link_max_load", "peak per-window link traffic (XY routing)"
    ).set(profiler.max_link_load())
    registry.counter(
        "repro_link_traffic_total", "grid-edge traversals across all windows"
    ).inc(int(profiler.link_h.sum() + profiler.link_v.sum()))
    registry.gauge(
        "repro_link_windows", "closed depth-clock windows in the link timeline"
    ).set(len(profiler.windows))
    hist = profiler.distance_histogram
    if len(hist):
        side = max(profiler.side, 2)
        bounds = [1, 2, 4]
        while bounds[-1] < 2 * side:
            bounds.append(bounds[-1] * 2)
        family = registry.histogram(
            "repro_message_distance",
            "per-message grid distance",
            buckets=bounds,
        )
        for distance, count in enumerate(hist):
            if count:
                family.observe(distance, int(count))


def publish_critical_path(registry: MetricsRegistry, analyzer) -> None:
    """Depth-clock critical-path attribution from a :class:`CriticalPathAnalyzer`."""
    blame = analyzer.blame(top_k=0)
    registry.gauge(
        "repro_critical_path_depth", "depth reconstructed along the critical path"
    ).set(blame["depth"])
    registry.gauge(
        "repro_critical_path_hops", "hops (clock updates) on the critical path"
    ).set(blame["hops"])
    contribution = registry.counter(
        "repro_critical_path_phase_depth_total",
        "depth contributed to the critical path per phase",
        ("phase",),
    )
    for entry in blame["phases"]:
        contribution.labels(phase=entry["phase"] or "(none)").inc(
            entry["contribution"]
        )


def publish_check(registry: MetricsRegistry, result) -> None:
    """``repro_check_*`` families from a static-analysis run.

    Accepts a :class:`repro.analysis.check.CheckResult`; publishes finding
    counts per code, phase plan-safety verdicts, and analyzed-program size.
    """
    stats = result.stats
    registry.gauge(
        "repro_check_functions", "functions indexed by the whole-program checker"
    ).set(stats.get("functions", 0))
    registry.gauge(
        "repro_check_entry_points", "entry points carrying a @cost_contract"
    ).set(stats.get("entry_points", 0))
    findings = registry.counter(
        "repro_check_findings_total", "static-analysis findings per code", ("code",)
    )
    for code, count in sorted(stats.get("findings_by_code", {}).items()):
        findings.labels(code=code).inc(count)
    phases = registry.gauge(
        "repro_check_phases", "ledger phases per plan-safety verdict", ("verdict",)
    )
    totals = result.report.get("totals", {})
    phases.labels(verdict="plan-safe").set(totals.get("plan_safe", 0))
    phases.labels(verdict="data-dependent").set(totals.get("data_dependent", 0))


def publish_contracts(registry: MetricsRegistry) -> None:
    """``repro_check_contract_*`` families from the runtime contract monitor.

    Reads the bounded frame history recorded by
    :func:`repro.contracts.cost_contract` wrappers: call counts and the
    worst measured/predicted ratio per entry point and metric (a flat
    worst-ratio across growing n confirms the declared asymptotic shape).
    """
    from repro.contracts import contract_stats

    calls = registry.counter(
        "repro_check_contract_calls_total",
        "monitored calls of contracted entry points",
        ("function",),
    )
    worst = registry.gauge(
        "repro_check_contract_worst_ratio",
        "worst measured/predicted ratio over the recorded frames",
        ("function", "metric"),
    )
    for function, row in sorted(contract_stats().items()):
        calls.labels(function=function).inc(int(row.get("calls", 0)))
        for key, value in sorted(row.items()):
            if key.startswith("worst_") and key.endswith("_ratio"):
                metric = key[len("worst_") : -len("_ratio")]
                worst.labels(function=function, metric=metric).set(value)
