"""Benchmark report normalization, the perf regression gate, and history.

``benchmarks/results/BENCH_*.json`` artifacts historically varied in
shape (rows populated or only an ASCII table, ad-hoc column sets). This
module pins one normalized form and builds the comparison workflow on it:

* :func:`normalize_bench` — coerce any historical BENCH document to the
  single shape: report envelope (``repro.report/v1``), ``kind:
  "benchmark"``, populated ``rows`` (parsed out of the archived ASCII
  ``table`` when a legacy file carried none), and a ``row_key`` naming
  the label columns that identify a row (e.g. ``["op", "n"]``).
* :func:`load_bench` — load + normalize a BENCH file (run reports pass
  through untouched; ``compare_reports`` handles both kinds).
* :func:`compare_reports` — row-by-row / phase-by-phase deltas between a
  baseline and a new report, with *regression gating*: metric columns
  classified as energy- or depth-like (:func:`metric_kind`) must not
  grow past the configured tolerance. Energy gates by default, depth on
  request. Host time is not gated here: ``perfbench/`` measures it,
  repeated and calibrated. Rows or phases present on only one side are
  reported as added/removed, never crashed on.
* :func:`format_comparison` — the aligned ASCII rendering the
  ``repro bench compare`` CLI prints; the CLI exits nonzero iff
  ``comparison.ok`` is false. This is the CI energy gate.

**Bench history** (``BENCH_HISTORY.jsonl``): an append-only log of
normalized benchmark rows — one JSON line per (benchmark, row_key) per
recording — so per-PR trajectories are visible instead of only
pairwise diffs. :func:`append_history` records artifacts,
:func:`format_trend` renders per-series sparklines with a median-of-k
noise-tolerant latest-vs-history delta (``repro bench record`` /
``repro bench trend``).
"""

from __future__ import annotations

import json
import math
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.report import SCHEMA, SCHEMA_VERSION, RunReport, diff_reports
from repro.analysis.reporting import format_table
from repro.errors import ValidationError

#: report kinds that carry benchmark-style ``rows``
ROW_KINDS = ("benchmark", "scaling")

#: schema tag of one ``BENCH_HISTORY.jsonl`` line
HISTORY_SCHEMA = "repro.bench-history/v1"

#: default history location, relative to the repo root
DEFAULT_HISTORY = Path("benchmarks/results/BENCH_HISTORY.jsonl")


def parse_percent(text) -> float:
    """``"10%"`` → 0.10; ``"0.1"`` → 0.10. Fractions and percents both work.

    A tolerance must be finite and ≥ 0: ``nan`` would switch a gate off
    (no growth compares greater than it), ``inf`` would pass any growth,
    and a negative one would fail an unchanged metric.
    """
    if isinstance(text, (int, float)):
        value = float(text)
    else:
        s = str(text).strip()
        try:
            value = float(s[:-1]) / 100.0 if s.endswith("%") else float(s)
        except ValueError:
            raise ValidationError(f"cannot parse {text!r} as a percentage") from None
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"tolerance must be finite and >= 0, got {text!r}")
    return value


#: the model-cost kinds the gates compare
GATED_KINDS = ("energy", "depth")


def metric_kind(column: str) -> str | None:
    """Classify a row column: ``"energy"``, ``"depth"`` or None.

    Matches the naming conventions used across the benchmark suite:
    ``energy``, ``energy/n``, ``E/(n·log2n)``, ``spatial_E`` are
    energy-like; ``depth``, ``D/log2n``, ``spatial_D`` depth-like. Host
    times (``wall_s``, ``p99_ms``, ``qps``) are None: they depend on the
    machine that ran the benchmark. Ratio columns (``E_ratio``,
    ``speedup_ratio``) are informational only — a ratio against a
    baseline implementation is not a cost of ours.
    """
    name = str(column)
    low = name.lower()
    if "ratio" in low:
        return None
    if "energy" in low or name == "E" or name.startswith("E/") or name.endswith("_E"):
        return "energy"
    if "depth" in low or name == "D" or name.startswith("D/") or name.endswith("_D"):
        return "depth"
    return None


def _coerce_cell(token: str):
    for cast in (int, float):
        try:
            return cast(token)
        except ValueError:  # repro: noqa[REPRO009] - probing casts in turn
            continue
    return token


def parse_ascii_table(text: str) -> list[dict]:
    """Recover row dicts from a ``format_table`` rendering.

    Finds the dashed separator line, takes the line above as the header
    and everything below as rows; columns split on whitespace (the
    repo's column names never contain spaces). Returns ``[]`` when the
    text holds no such table (e.g. a one-line summary sentence).
    """
    lines = [line for line in text.splitlines() if line.strip()]
    sep_idx = next(
        (
            i
            for i, line in enumerate(lines)
            if i > 0 and set(line.strip()) <= set("- ") and "-" in line
        ),
        None,
    )
    if sep_idx is None:
        return []
    header = lines[sep_idx - 1].split()
    rows = []
    for line in lines[sep_idx + 1 :]:
        cells = line.split()
        if len(cells) != len(header):
            break  # trailing prose after the table
        rows.append({col: _coerce_cell(tok) for col, tok in zip(header, cells)})
    return rows


def derive_row_key(rows: list[dict]) -> list[str]:
    """Label columns that identify a row: the string-valued ones plus ``n``."""
    if not rows:
        return []
    first = rows[0]
    return [
        col
        for col, val in first.items()
        if isinstance(val, str) or col == "n"
    ]


def normalize_bench(
    data: dict, *, name: str | None = None, metric_kinds: dict | None = None
) -> dict:
    """Coerce a BENCH document (any historical shape) to the current one.

    ``metric_kinds`` optionally maps column names to ``"energy"`` /
    ``"depth"`` for columns whose names don't follow the conventions
    :func:`metric_kind` recognizes (e.g. a phase-split benchmark whose
    energy columns are called ``contract``/``expand``/``total``); the
    mapping is stored on the document and honoured by
    :func:`compare_reports` ahead of name-based classification.
    """
    out = dict(data)
    out.setdefault("schema", SCHEMA)
    out.setdefault("schema_version", SCHEMA_VERSION)
    if out.get("kind") not in ROW_KINDS:
        out["kind"] = "benchmark"
    meta = dict(out.get("meta", {}))
    if name is not None:
        meta.setdefault("benchmark", name)
    out["meta"] = meta
    rows = list(out.get("rows") or [])
    if not rows and out.get("table"):
        rows = parse_ascii_table(out["table"])
    out["rows"] = rows
    out["row_key"] = out.get("row_key") or derive_row_key(rows)
    if metric_kinds:
        out["metric_kinds"] = {**out.get("metric_kinds", {}), **metric_kinds}
    return out


def load_bench(path) -> RunReport:
    """Load any BENCH/run report; benchmark-shaped documents normalize."""
    report = RunReport.load(path)
    if report.kind != "run":
        stem = Path(path).stem
        name = stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem
        report.data = normalize_bench(report.data, name=name)
    return report


# ---------------------------------------------------------------------- #
# comparison
# ---------------------------------------------------------------------- #


@dataclass
class Regression:
    """One gated metric that grew past its tolerance."""

    row: str
    column: str
    kind: str
    baseline: float
    new: float
    increase: float  # fractional, e.g. 0.21 for +21%

    def describe(self) -> str:
        return (
            f"{self.row} · {self.column}: {self.baseline:g} → {self.new:g} "
            f"(+{100 * self.increase:.1f}%, {self.kind} tolerance exceeded)"
        )


@dataclass
class BenchComparison:
    """Outcome of :func:`compare_reports`; ``ok`` gates the CLI exit code."""

    kind: str
    entries: list[dict] = field(default_factory=list)
    added: list[str] = field(default_factory=list)
    removed: list[str] = field(default_factory=list)
    regressions: list[Regression] = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.regressions


def _run_rows(report: RunReport) -> tuple[list[dict], list[str]]:
    """A run report as benchmark-style rows: TOTAL plus one row per phase."""
    rows = [
        {
            "phase": "TOTAL",
            "energy": report.totals.get("energy", 0),
            "messages": report.totals.get("messages", 0),
            "depth": report.totals.get("depth", 0),
        }
    ]
    for name, phase in report.phases.items():
        rows.append(
            {
                "phase": name,
                "energy": phase.get("energy", 0),
                "messages": phase.get("messages", 0),
                "depth": phase.get("depth", 0),
            }
        )
    return rows, ["phase"]


def _row_label(row: dict, key: list[str], index: int) -> str:
    if not key:
        return f"row[{index}]"
    return " ".join(f"{k}={row.get(k)}" for k in key)


def compare_reports(
    baseline: RunReport,
    new: RunReport,
    *,
    max_energy_regress: float | str | None = "10%",
    max_depth_regress: float | str | None = None,
) -> BenchComparison:
    """Diff two reports and gate energy/depth-like metrics.

    Works on benchmark/scaling reports (row-matched by ``row_key``, by
    position when the key is empty) and on run reports (phase-matched via
    :func:`~repro.analysis.report.diff_reports`). A ``None`` tolerance
    disables that gate; improvements and un-gated columns always pass.
    """
    if (baseline.kind == "run") != (new.kind == "run"):
        raise ValidationError(
            f"cannot compare report kinds {baseline.kind!r} vs {new.kind!r}"
        )
    tolerances = {
        "energy": None if max_energy_regress is None else parse_percent(max_energy_regress),
        "depth": None if max_depth_regress is None else parse_percent(max_depth_regress),
    }
    if baseline.kind == "run":
        a_rows, key = _run_rows(baseline)
        b_rows, _ = _run_rows(new)
        # diff_reports is the canonical phase differ; run it for its
        # added/removed bookkeeping (and to keep the two paths consistent)
        diff = diff_reports(baseline, new)
        cmp = BenchComparison(kind="run", tolerances=tolerances)
        cmp.added = [n for n, e in diff["phases"].items() if e.get("status") == "added"]
        cmp.removed = [
            n for n, e in diff["phases"].items() if e.get("status") == "removed"
        ]
        kind_overrides = {}
    else:
        a_data = normalize_bench(baseline.data)
        b_data = normalize_bench(new.data)
        a_rows, key = a_data["rows"], a_data["row_key"]
        b_rows = b_data["rows"]
        kind_overrides = {
            **a_data.get("metric_kinds", {}),
            **b_data.get("metric_kinds", {}),
        }
        cmp = BenchComparison(kind="benchmark", tolerances=tolerances)

    def index_of(rows):
        if key:
            return {tuple(row.get(k) for k in key): row for row in rows}
        return {(i,): row for i, row in enumerate(rows)}

    a_index, b_index = index_of(a_rows), index_of(b_rows)
    if baseline.kind != "run":
        cmp.added = [
            _row_label(b_index[k], key, i)
            for i, k in enumerate(b_index)
            if k not in a_index
        ]
        cmp.removed = [
            _row_label(a_index[k], key, i)
            for i, k in enumerate(a_index)
            if k not in b_index
        ]
    for i, (rkey, a_row) in enumerate(a_index.items()):
        b_row = b_index.get(rkey)
        if b_row is None:
            continue
        label = _row_label(a_row, key, i)
        entry = {"row": label}
        for column in a_row:
            va, vb = a_row.get(column), b_row.get(column)
            if column in key or not isinstance(va, (int, float)) \
                    or not isinstance(vb, (int, float)):
                continue
            kind = kind_overrides.get(column) or metric_kind(column)
            entry[column] = {"a": va, "b": vb, "delta": vb - va, "kind": kind}
            limit = tolerances.get(kind) if kind else None
            if limit is not None and vb > va:
                increase = (vb - va) / va if va else float("inf")
                if increase > limit:
                    cmp.regressions.append(
                        Regression(
                            row=label, column=column, kind=kind,
                            baseline=float(va), new=float(vb), increase=increase,
                        )
                    )
        cmp.entries.append(entry)
    return cmp


def format_comparison(cmp: BenchComparison) -> str:
    """Aligned rendering: per-row deltas, added/removed, verdict line."""
    lines: list[str] = []
    table_rows = []
    for entry in cmp.entries:
        row = {"row": entry["row"]}
        for column, d in entry.items():
            if column == "row":
                continue
            sign = "+" if d["delta"] >= 0 else ""
            pct = f" ({100 * d['delta'] / d['a']:+.1f}%)" if d["a"] else ""
            row[column] = f"{d['a']:g} → {d['b']:g} [{sign}{d['delta']:g}{pct}]"
        table_rows.append(row)
    if table_rows:
        lines.append(format_table(table_rows))
    else:
        lines.append("(no comparable rows)")
    for label in cmp.added:
        lines.append(f"+ added:   {label} (only in new report)")
    for label in cmp.removed:
        lines.append(f"- removed: {label} (only in baseline)")
    if cmp.regressions:
        lines.append("")
        lines.append(f"REGRESSIONS ({len(cmp.regressions)}):")
        for reg in cmp.regressions:
            lines.append(f"  ✗ {reg.describe()}")
    else:
        gates = ", ".join(
            f"{kind} ≤ +{100 * limit:g}%"
            for kind, limit in cmp.tolerances.items()
            if limit is not None
        )
        lines.append(f"OK — no regressions ({gates or 'no gates configured'})")
    return "\n".join(lines)


_BENCH_RE = re.compile(r"^BENCH_.+\.json$")


def find_bench_files(directory) -> list[Path]:
    """All ``BENCH_*.json`` artifacts under ``directory``, sorted."""
    directory = Path(directory)
    return sorted(p for p in directory.glob("BENCH_*.json") if _BENCH_RE.match(p.name))


# ---------------------------------------------------------------------------
# bench history: append-only JSONL of normalized rows, keyed by row_key
# ---------------------------------------------------------------------------


def history_rows(
    report: RunReport, *, recorded_unix: float, label: str | None = None
) -> list[dict]:
    """One history entry per benchmark row of ``report``.

    Each entry is self-describing: benchmark name, the ``row_key``
    values identifying the row, every numeric non-key column under
    ``metrics``, and each gated column's kind under ``kinds`` — so the
    trend reader never needs the original artifact.
    """
    if report.kind == "run":
        raise ValidationError("bench history records benchmark reports, not runs")
    data = normalize_bench(report.data)
    name = (data.get("meta") or {}).get("benchmark") or data.get("name") or "bench"
    key = data.get("row_key") or []
    kind_overrides = data.get("metric_kinds", {})
    entries = []
    for row in data["rows"]:
        metrics, kinds = {}, {}
        for column, value in row.items():
            if column in key or isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                continue
            metrics[column] = value
            kind = kind_overrides.get(column) or metric_kind(column)
            if kind:
                kinds[column] = kind
        entry = {
            "schema": HISTORY_SCHEMA,
            "benchmark": str(name),
            "row_key": {k: row.get(k) for k in key},
            "metrics": metrics,
            "kinds": kinds,
            "recorded_unix": recorded_unix,
        }
        if label:
            entry["label"] = label
        entries.append(entry)
    return entries


def append_history(
    history_path,
    artifacts: list,
    *,
    recorded_unix: float | None = None,
    label: str | None = None,
) -> list[dict]:
    """Record BENCH artifacts into the JSONL history; returns new entries.

    ``artifacts`` are paths (loaded via :func:`load_bench`) or
    :class:`RunReport` objects. All entries from one call share a single
    ``recorded_unix`` stamp so a recording session groups naturally.
    """
    recorded = time.time() if recorded_unix is None else float(recorded_unix)
    entries: list[dict] = []
    for artifact in artifacts:
        report = artifact if isinstance(artifact, RunReport) else load_bench(artifact)
        entries.extend(history_rows(report, recorded_unix=recorded, label=label))
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        for entry in entries:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entries


def load_history(history_path) -> list[dict]:
    """Load ``BENCH_HISTORY.jsonl`` entries in append order ([] if absent)."""
    path = Path(history_path)
    if not path.exists():
        return []
    entries = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(entry, dict) or entry.get("schema") != HISTORY_SCHEMA:
            raise ValidationError(
                f"{path}:{lineno}: expected schema {HISTORY_SCHEMA!r}, "
                f"got {entry.get('schema') if isinstance(entry, dict) else entry!r}"
            )
        entries.append(entry)
    return entries


def history_series(
    entries: list[dict],
    *,
    benchmark: str | None = None,
    metric: str | None = None,
) -> dict[tuple, list[float]]:
    """Group entries into series: (benchmark, row_key items, column) → values.

    Values keep append order, which the JSONL log makes chronological.
    """
    series: dict[tuple, list[float]] = {}
    for entry in entries:
        bench = entry.get("benchmark")
        if benchmark is not None and bench != benchmark:
            continue
        rkey = tuple(sorted((entry.get("row_key") or {}).items()))
        for column, value in (entry.get("metrics") or {}).items():
            if metric is not None and column != metric:
                continue
            series.setdefault((bench, rkey, column), []).append(float(value))
    return series


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 20) -> str:
    """Unicode sparkline of the last ``width`` values (flat → all ▁)."""
    vals = [float(v) for v in values][-width:]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return _SPARK_CHARS[0] * len(vals)
    span = hi - lo
    return "".join(
        _SPARK_CHARS[min(len(_SPARK_CHARS) - 1, int(len(_SPARK_CHARS) * (v - lo) / span))]
        for v in vals
    )


def format_trend(
    entries: list[dict],
    *,
    benchmark: str | None = None,
    metric: str | None = None,
    window: int = 5,
    width: int = 20,
    max_regress: float | str | None = None,
) -> tuple[str, list[dict]]:
    """Render the history as a sparkline table; returns ``(text, flagged)``.

    The delta column compares the latest value against the *median of
    the previous ``window`` (≥ 1) values* — a single noisy recording
    neither trips nor hides a trend. When ``max_regress`` is given, energy
    and depth series whose delta exceeds it are returned in ``flagged``
    for the CLI to turn into a nonzero exit; a host-time kind an older
    line stored (``wall``, ``latency``, ``throughput``) is never gated.
    """
    if window < 1:
        raise ValidationError(f"trend window must be >= 1, got {window}")
    limit = None if max_regress is None else parse_percent(max_regress)
    series = history_series(entries, benchmark=benchmark, metric=metric)
    kinds: dict[tuple, str] = {}
    for entry in entries:
        rkey = tuple(sorted((entry.get("row_key") or {}).items()))
        for column, kind in (entry.get("kinds") or {}).items():
            kinds[(entry.get("benchmark"), rkey, column)] = kind
    table_rows, flagged = [], []
    for skey in sorted(series, key=lambda k: (str(k[0]), k[1], str(k[2]))):
        bench, rkey, column = skey
        values = series[skey]
        latest = values[-1]
        previous = values[-(window + 1):-1]
        base = statistics.median(previous) if previous else None
        delta = None
        if base is not None:
            delta = (latest - base) / base if base else (
                0.0 if latest == base else float("inf")
            )
        row = {
            "benchmark": bench,
            "row": " ".join(f"{k}={v}" for k, v in rkey) or "-",
            "metric": column,
            "points": len(values),
            "trend": sparkline(values, width),
            f"median(prev≤{window})": f"{base:g}" if base is not None else "-",
            "latest": f"{latest:g}",
            "Δ%": f"{100 * delta:+.1f}%" if delta is not None else "-",
        }
        table_rows.append(row)
        kind = kinds.get(skey)
        if limit is not None and kind in GATED_KINDS and delta is not None and delta > limit:
            flagged.append(
                {
                    "benchmark": bench,
                    "row": row["row"],
                    "metric": column,
                    "kind": kind,
                    "baseline": base,
                    "latest": latest,
                    "increase": delta,
                }
            )
    text = format_table(table_rows) if table_rows else "(no history entries matched)"
    return text, flagged
