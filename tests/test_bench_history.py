"""Tests for the bench history store, trend rendering, and the perf CLI."""

import copy
import json

import pytest

from repro.analysis.bench import (
    HISTORY_SCHEMA,
    append_history,
    format_trend,
    history_rows,
    history_series,
    load_history,
    metric_kind,
    normalize_bench,
    sparkline,
)
from repro.analysis.report import RunReport
from repro.errors import ValidationError

ROWS = [
    {"op": "treefix", "n": 256, "energy": 1000, "depth": 72, "wall_s": 0.5},
    {"op": "treefix", "n": 1024, "energy": 5000, "depth": 110, "wall_s": 2.0},
]


def bench_report(rows=None, **meta):
    data = {
        "schema": "repro.report/v1",
        "schema_version": 1,
        "kind": "benchmark",
        "meta": {"benchmark": "synthetic", **meta},
        "rows": copy.deepcopy(rows if rows is not None else ROWS),
    }
    return RunReport(normalize_bench(data))


class TestWallMetricKind:
    def test_wall_columns(self):
        # host times carry no gated kind: perfbench measures them
        for column in ("wall_s", "scalar_s", "batched_s", "wall_ms", "seconds"):
            assert metric_kind(column) is None, column
        assert metric_kind("speedup_ratio") is None
        assert metric_kind("energy") == "energy"
        assert metric_kind("op") is None


class TestHistoryStore:
    def test_history_rows_shape(self):
        entries = history_rows(bench_report(), recorded_unix=123.0, label="abc")
        assert len(entries) == len(ROWS)
        first = entries[0]
        assert first["schema"] == HISTORY_SCHEMA
        assert first["benchmark"] == "synthetic"
        assert first["row_key"] == {"op": "treefix", "n": 256}
        assert first["metrics"] == {"energy": 1000, "depth": 72, "wall_s": 0.5}
        assert first["kinds"] == {"energy": "energy", "depth": "depth"}
        assert first["recorded_unix"] == 123.0
        assert first["label"] == "abc"

    def test_history_rejects_run_reports(self):
        run = RunReport({"schema": "repro.report/v1", "schema_version": 1,
                         "kind": "run", "meta": {}, "totals": {}, "phases": {}})
        with pytest.raises(ValidationError):
            history_rows(run, recorded_unix=0.0)

    def test_append_and_load_roundtrip(self, tmp_path):
        history = tmp_path / "BENCH_HISTORY.jsonl"
        first = append_history(history, [bench_report()], recorded_unix=1.0)
        second = append_history(history, [bench_report()], recorded_unix=2.0)
        assert len(first) == len(second) == len(ROWS)
        entries = load_history(history)
        assert len(entries) == 2 * len(ROWS)
        # append order preserved: all of recording 1 before recording 2
        stamps = [e["recorded_unix"] for e in entries]
        assert stamps == sorted(stamps)

    def test_append_accepts_artifact_paths(self, tmp_path):
        artifact = tmp_path / "BENCH_synthetic.json"
        bench_report().save(artifact)
        history = tmp_path / "hist.jsonl"
        entries = append_history(history, [artifact], recorded_unix=5.0)
        assert len(entries) == len(ROWS)
        assert load_history(history)[0]["benchmark"] == "synthetic"

    def test_load_missing_returns_empty(self, tmp_path):
        assert load_history(tmp_path / "absent.jsonl") == []

    def test_load_rejects_bad_lines(self, tmp_path):
        path = tmp_path / "hist.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValidationError):
            load_history(path)
        path.write_text(json.dumps({"schema": "other/v9"}) + "\n")
        with pytest.raises(ValidationError):
            load_history(path)

    def test_series_grouping(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        for stamp in (1.0, 2.0, 3.0):
            append_history(history, [bench_report()], recorded_unix=stamp)
        series = history_series(load_history(history))
        key = ("synthetic", (("n", 256), ("op", "treefix")), "energy")
        assert series[key] == [1000, 1000, 1000]
        only_wall = history_series(load_history(history), metric="wall_s")
        assert all(k[2] == "wall_s" for k in only_wall)


class TestTrend:
    def test_sparkline(self):
        assert sparkline([]) == ""
        assert sparkline([5, 5, 5]) == "▁▁▁"
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(range(100)), width=20)) == 20

    def test_trend_median_of_k(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        rows = [{"op": "x", "n": 16, "energy": 100}]
        # 5 stable recordings, one noisy spike, then latest back at baseline:
        # median-of-previous-5 absorbs the spike
        for i, energy in enumerate([100, 100, 100, 100, 100, 900, 102]):
            r = copy.deepcopy(rows)
            r[0]["energy"] = energy
            append_history(history, [bench_report(r)], recorded_unix=float(i))
        text, flagged = format_trend(
            load_history(history), window=5, max_regress="10%"
        )
        assert "energy" in text
        assert flagged == []  # +2% vs median(100,100,100,100,900)=100 passes

    def test_trend_flags_real_regression(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        rows = [{"op": "x", "n": 16, "depth": 10}]
        for i, depth in enumerate([10, 10, 10, 20]):
            r = copy.deepcopy(rows)
            r[0]["depth"] = depth
            append_history(history, [bench_report(r)], recorded_unix=float(i))
        text, flagged = format_trend(
            load_history(history), window=5, max_regress="50%"
        )
        assert len(flagged) == 1
        assert flagged[0]["metric"] == "depth"
        assert flagged[0]["kind"] == "depth"
        assert flagged[0]["increase"] == pytest.approx(1.0)

    def test_trend_ignores_host_time_kinds_of_old_lines(self, tmp_path):
        # older history lines stored wall/latency/throughput kinds for host
        # times; the gate reads only energy and depth, whatever was stored
        history = tmp_path / "hist.jsonl"
        metrics = [
            {"wall_s": 1.0, "p99_ms": 5.0, "qps": 100.0, "energy": 100},
            {"wall_s": 9.0, "p99_ms": 50.0, "qps": 1.0, "energy": 200},
        ]
        kinds = {"wall_s": "wall", "p99_ms": "latency", "qps": "throughput",
                 "energy": "energy"}
        with history.open("w") as fh:
            for i, m in enumerate(metrics):
                fh.write(json.dumps({
                    "schema": HISTORY_SCHEMA, "benchmark": "old",
                    "row_key": {"n": 16}, "metrics": m, "kinds": kinds,
                    "recorded_unix": float(i),
                }) + "\n")
        text, flagged = format_trend(load_history(history), max_regress="10%")
        assert [f["metric"] for f in flagged] == ["energy"]
        assert "wall_s" in text and "qps" in text  # still drawn

    @pytest.mark.parametrize("window", [0, -1])
    def test_trend_window_below_one_refused(self, window):
        with pytest.raises(ValidationError):
            format_trend([], window=window)

    def test_trend_without_gate_never_flags(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        for stamp in (1.0, 2.0):
            append_history(history, [bench_report()], recorded_unix=stamp)
        text, flagged = format_trend(load_history(history))
        assert flagged == []
        assert "synthetic" in text

    def test_trend_empty(self):
        text, flagged = format_trend([])
        assert flagged == []
        assert "no history" in text


class TestCliRecordTrend:
    def test_record_then_trend(self, tmp_path, capsys):
        from repro.cli import main

        artifact = tmp_path / "BENCH_synthetic.json"
        bench_report().save(artifact)
        history = tmp_path / "hist.jsonl"
        assert main(["bench", "record", str(artifact),
                     "--history", str(history), "--label", "r1"]) == 0
        assert main(["bench", "record", str(artifact),
                     "--history", str(history)]) == 0
        capsys.readouterr()
        assert main(["bench", "trend", "--history", str(history)]) == 0
        out = capsys.readouterr().out
        assert "synthetic" in out and "wall_s" in out

    def test_record_discovers_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        bench_report().save(tmp_path / "BENCH_one.json")
        history = tmp_path / "hist.jsonl"
        assert main(["bench", "record", "--directory", str(tmp_path),
                     "--history", str(history)]) == 0
        assert len(load_history(history)) == len(ROWS)

    def test_record_empty_dir_errors(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["bench", "record", "--directory", str(tmp_path),
                  "--history", str(tmp_path / "h.jsonl")])

    def test_trend_window_flag(self, tmp_path, capsys):
        from repro.cli import main

        history = tmp_path / "hist.jsonl"
        rows = [{"op": "x", "n": 16, "energy": 100}]
        for i, energy in enumerate([100, 100, 100, 200]):
            r = copy.deepcopy(rows)
            r[0]["energy"] = energy
            append_history(history, [bench_report(r)], recorded_unix=float(i))
        assert main(["bench", "trend", "--history", str(history),
                     "--window", "1", "--max-regress", "10%"]) == 1
        for window in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["bench", "trend", "--history", str(history),
                      "--window", window, "--max-regress", "10%"])
            assert exc.value.code == 2

    def test_trend_bad_tolerance_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        history = tmp_path / "hist.jsonl"
        rows = [{"op": "x", "n": 16, "energy": 100}]
        for i, energy in enumerate([100, 100, 200]):
            r = copy.deepcopy(rows)
            r[0]["energy"] = energy
            append_history(history, [bench_report(r)], recorded_unix=float(i))
        # refused whether or not there is history to gate
        for path in (history, tmp_path / "absent.jsonl"):
            for bad in ("nan", "inf", "-5%"):
                assert main(["bench", "trend", "--history", str(path),
                             f"--max-regress={bad}"]) == 2

    def test_trend_gate_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        history = tmp_path / "hist.jsonl"
        rows = [{"op": "x", "n": 16, "energy": 100}]
        for i, energy in enumerate([100, 100, 200]):
            r = copy.deepcopy(rows)
            r[0]["energy"] = energy
            append_history(history, [bench_report(r)], recorded_unix=float(i))
        assert main(["bench", "trend", "--history", str(history)]) == 0
        capsys.readouterr()
        assert main(["bench", "trend", "--history", str(history),
                     "--max-regress", "10%"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out

    def test_trend_missing_history_ok(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "trend",
                     "--history", str(tmp_path / "absent.jsonl")]) == 0
        assert "no bench history" in capsys.readouterr().out


class TestCliPerf:
    def test_perf_treefix_bundle_and_history(self, tmp_path, capsys):
        from repro.cli import main

        out_dir = tmp_path / "bundle"
        rc = main(["perf", "treefix", "-n", "256", "--engine", "batched",
                   "--out", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "critical path: reconstructed depth" in out
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "critical_path.trace.json", "metrics.prom",
        ]
        trace = json.loads((out_dir / "critical_path.trace.json").read_text())
        assert any(e.get("ph") == "X" for e in trace)
        prom = (out_dir / "metrics.prom").read_text()
        assert "repro_critical_path_depth" in prom
        for family in ("repro_kernel_", "repro_phase_wall_", "repro_profiler_"):
            assert family not in prom
        with pytest.raises(SystemExit) as exc:
            main(["perf", "treefix", "-n", "256",
                  "--history", str(tmp_path / "hist.jsonl")])
        assert exc.value.code == 2

    def test_perf_scalar_engine(self, capsys):
        from repro.cli import main

        assert main(["perf", "treefix", "-n", "128",
                     "--engine", "scalar"]) == 0
        out = capsys.readouterr().out
        assert "critical path: reconstructed depth" in out

    def test_perf_no_critical_path(self):
        # the critical path is all `repro perf` does; it cannot be skipped
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["perf", "treefix", "-n", "128", "--no-critical-path"])
        assert exc.value.code == 2

    def test_perf_diff(self, tmp_path):
        from repro.cli import main

        bundle = tmp_path / "perf.json"
        bundle.write_text("{}")
        with pytest.raises(SystemExit) as exc:
            main(["perf", "diff", str(bundle), str(bundle)])
        assert exc.value.code == 2
