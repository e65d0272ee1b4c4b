"""Tests for benchmark normalization and the regression gate."""

import copy
import json
from pathlib import Path

import pytest

from repro.analysis.bench import (
    compare_reports,
    derive_row_key,
    find_bench_files,
    load_bench,
    metric_kind,
    normalize_bench,
    parse_ascii_table,
    parse_percent,
)
from repro.analysis.report import RunReport
from repro.analysis.reporting import format_table
from repro.errors import ValidationError

ROWS = [
    {"op": "sort", "n": 256, "energy/n^1.5": 8.7, "depth": 72},
    {"op": "sort", "n": 1024, "energy/n^1.5": 9.7, "depth": 110},
    {"op": "permute", "n": 256, "energy/n^1.5": 0.66, "depth": 2},
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


def run_report(energy=1000, depth=50, phases=None):
    return RunReport(
        {
            "schema": "repro.report/v1",
            "schema_version": 1,
            "kind": "run",
            "meta": {},
            "totals": {"energy": energy, "messages": 10, "depth": depth},
            "phases": phases or {},
        }
    )


RESULTS = Path(__file__).parent.parent / "benchmarks/results"

#: the baselines CI's bench-regression job gates on energy
GATED_BASELINES = ("e6_phases", "e13_layout_engine", "e14_plan_replay", "e15_serving")


def raise_energy_columns(path, factor):
    """A BENCH artifact's JSON with every energy-kind column scaled.

    A column is energy-kind by :func:`metric_kind` or by the artifact's
    own ``metric_kinds`` map, as the gate classifies it.
    """
    data = json.loads(Path(path).read_text())
    kinds = data.get("metric_kinds", {})
    for row in data["rows"]:
        for column, value in row.items():
            if column in data["row_key"] or isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                continue
            if (kinds.get(column) or metric_kind(column)) == "energy":
                row[column] = value * factor
    return data


class TestHelpers:
    def test_parse_percent(self):
        assert parse_percent("10%") == pytest.approx(0.10)
        assert parse_percent("2.5%") == pytest.approx(0.025)
        assert parse_percent("0.1") == pytest.approx(0.1)
        assert parse_percent(0.2) == pytest.approx(0.2)
        with pytest.raises(ValidationError):
            parse_percent("lots")

    @pytest.mark.parametrize(
        "text", ["nan", "NaN%", "inf", "-inf%", "-10%", "-0.1", float("nan"), -0.5]
    )
    def test_parse_percent_refuses_gate_switches(self, text):
        # nan switches a gate off, inf passes any growth, and a negative
        # tolerance fails an unchanged metric
        with pytest.raises(ValidationError):
            parse_percent(text)
        with pytest.raises(ValidationError):
            compare_reports(bench_report(), bench_report(), max_energy_regress=text)

    def test_metric_kind_on_real_column_names(self):
        assert metric_kind("energy") == "energy"
        assert metric_kind("energy/n^1.5") == "energy"
        assert metric_kind("E/(n·log2n)") == "energy"
        assert metric_kind("spatial_E") == "energy"
        assert metric_kind("depth") == "depth"
        assert metric_kind("D/log2n") == "depth"
        assert metric_kind("spatial_D") == "depth"
        assert metric_kind("E_ratio") is None  # ratios are informational
        assert metric_kind("n") is None
        assert metric_kind("op") is None

    def test_parse_ascii_table_roundtrip(self):
        text = "title line\n" + format_table(ROWS)
        parsed = parse_ascii_table(text)
        assert parsed == ROWS

    def test_parse_ascii_table_no_table(self):
        assert parse_ascii_table("E6: one-line summary, no table") == []

    def test_derive_row_key(self):
        assert derive_row_key(ROWS) == ["op", "n"]
        assert derive_row_key([{"contract": 1, "expand": 2}]) == []
        assert derive_row_key([]) == []


class TestNormalize:
    def test_populates_rows_from_table(self):
        legacy = {
            "schema": "repro.report/v1",
            "schema_version": 1,
            "kind": "benchmark",
            "meta": {"benchmark": "e3_heavy"},
            "rows": [],
            "table": "heading\n" + format_table(ROWS),
        }
        norm = normalize_bench(legacy)
        assert norm["rows"] == ROWS
        assert norm["row_key"] == ["op", "n"]

    def test_bare_rows_get_envelope(self):
        norm = normalize_bench({"rows": ROWS})
        assert norm["schema"] == "repro.report/v1"
        assert norm["kind"] == "benchmark"
        assert norm["row_key"] == ["op", "n"]

    def test_idempotent(self):
        norm = normalize_bench({"rows": ROWS, "table": "x"}, name="b")
        assert normalize_bench(copy.deepcopy(norm)) == norm

    def test_checked_in_artifacts_all_load(self):
        # the repo's own BENCH_*.json files are the compatibility corpus
        from pathlib import Path

        paths = find_bench_files(Path(__file__).parent.parent / "benchmarks/results")
        assert len(paths) >= 7
        for path in paths:
            report = load_bench(path)
            assert report.data["rows"], path
            assert "row_key" in report.data, path
            cmp = compare_reports(report, report)
            assert cmp.ok and cmp.entries, path


class TestCompareRows:
    def test_identical_reports_pass(self):
        cmp = compare_reports(bench_report(), bench_report())
        assert cmp.ok
        assert len(cmp.entries) == len(ROWS)
        assert not cmp.added and not cmp.removed

    def test_energy_regression_fails(self):
        worse = copy.deepcopy(ROWS)
        for row in worse:
            row["energy/n^1.5"] *= 1.2  # +20% > the 10% default gate
        cmp = compare_reports(bench_report(), bench_report(worse))
        assert not cmp.ok
        assert {r.column for r in cmp.regressions} == {"energy/n^1.5"}
        assert all(r.kind == "energy" for r in cmp.regressions)

    def test_regression_within_tolerance_passes(self):
        worse = copy.deepcopy(ROWS)
        for row in worse:
            row["energy/n^1.5"] *= 1.05
        assert compare_reports(bench_report(), bench_report(worse)).ok
        assert not compare_reports(
            bench_report(), bench_report(worse), max_energy_regress="1%"
        ).ok

    def test_improvement_always_passes(self):
        better = copy.deepcopy(ROWS)
        for row in better:
            row["energy/n^1.5"] *= 0.5
        assert compare_reports(bench_report(), bench_report(better)).ok

    def test_depth_gate_off_by_default(self):
        worse = copy.deepcopy(ROWS)
        for row in worse:
            row["depth"] *= 3
        assert compare_reports(bench_report(), bench_report(worse)).ok
        cmp = compare_reports(
            bench_report(), bench_report(worse), max_depth_regress="50%"
        )
        assert not cmp.ok and all(r.kind == "depth" for r in cmp.regressions)

    def test_added_and_removed_rows_reported_not_fatal(self):
        cmp = compare_reports(bench_report(ROWS[:2]), bench_report(ROWS[1:]))
        assert cmp.ok
        assert any("permute" in label for label in cmp.added)
        assert any("n=256" in label for label in cmp.removed)

    def test_keyless_rows_match_by_position(self):
        a = bench_report([{"contract": 100, "expand": 10, "total": 110}])
        b = bench_report([{"contract": 100, "expand": 10, "total": 110}])
        cmp = compare_reports(a, b)
        assert cmp.ok and cmp.entries[0]["row"] == "row[0]"

    def test_zero_baseline_counts_as_regression(self):
        a = bench_report([{"n": 8, "energy": 0}])
        b = bench_report([{"n": 8, "energy": 5}])
        cmp = compare_reports(a, b)
        assert not cmp.ok and cmp.regressions[0].increase == float("inf")

    def test_metric_kinds_override_gates_unconventional_columns(self):
        # column names carry no energy/depth hint → the explicit map gates them
        rows = [{"contract": 100, "expand": 10, "total": 110}]
        kinds = {"contract": "energy", "expand": "energy", "total": "energy"}
        worse = [{"contract": 130, "expand": 10, "total": 140}]

        def rep(r):
            return RunReport(normalize_bench({"rows": copy.deepcopy(r)},
                                             metric_kinds=kinds))

        assert compare_reports(rep(rows), rep(rows)).ok
        cmp = compare_reports(rep(rows), rep(worse))
        assert not cmp.ok
        assert {r.column for r in cmp.regressions} == {"contract", "total"}
        # without the map the same increase sails through unclassified
        assert compare_reports(bench_report(rows), bench_report(worse)).ok

    def test_checked_in_phase_split_artifact_is_gated(self):
        # the CI bench-regression job gates exactly this file; its energy
        # columns must actually be classified, or the gate is toothless
        from pathlib import Path

        path = Path(__file__).parent.parent / "benchmarks/results/BENCH_e6_phases.json"
        baseline = load_bench(path)
        worse = load_bench(path)
        worse.data = copy.deepcopy(worse.data)
        worse.data["rows"][0]["total"] = int(worse.data["rows"][0]["total"] * 1.2)
        cmp = compare_reports(baseline, worse)
        assert not cmp.ok
        assert cmp.regressions[0].column == "total"


class TestCompareRuns:
    def test_identical_runs_pass(self):
        rep = run_report(phases={"p": {"energy": 10, "messages": 2, "depth": 3}})
        assert compare_reports(rep, rep).ok

    def test_total_energy_regression_fails(self):
        cmp = compare_reports(run_report(energy=1000), run_report(energy=1200))
        assert not cmp.ok
        assert cmp.regressions[0].row == "phase=TOTAL"

    def test_phase_energy_regression_fails(self):
        a = run_report(phases={"p": {"energy": 100, "messages": 2, "depth": 3}})
        b = run_report(phases={"p": {"energy": 200, "messages": 2, "depth": 3}})
        cmp = compare_reports(a, b)
        assert not cmp.ok
        assert any(r.row == "phase=p" for r in cmp.regressions)

    def test_phase_only_in_one_run_is_added_removed(self):
        a = run_report(phases={"old": {"energy": 5, "messages": 1, "depth": 1}})
        b = run_report(phases={"new": {"energy": 5, "messages": 1, "depth": 1}})
        cmp = compare_reports(a, b)
        assert cmp.ok
        assert cmp.added == ["new"] and cmp.removed == ["old"]

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compare_reports(run_report(), bench_report())


class TestCli:
    def test_cli_compare_identical_exits_zero(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "BENCH_a.json"
        bench_report().save(path)
        assert main(["bench", "compare", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert "OK — no regressions" in out

    def test_cli_compare_regression_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        bench_report().save(a)
        worse = copy.deepcopy(ROWS)
        for row in worse:
            row["energy/n^1.5"] *= 1.2
        bench_report(worse).save(b)
        assert main(["bench", "compare", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSIONS" in out

    def test_cli_compare_custom_tolerance(self, tmp_path):
        from repro.cli import main

        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        bench_report().save(a)
        worse = copy.deepcopy(ROWS)
        for row in worse:
            row["energy/n^1.5"] *= 1.2
        bench_report(worse).save(b)
        assert main(["bench", "compare", str(a), str(b),
                     "--max-energy-regress", "30%"]) == 0

    def test_cli_depth_gate_flag(self, tmp_path, capsys):
        # the depth gate is off by default and opt-in via --max-depth-regress
        from repro.cli import main

        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        bench_report().save(a)
        worse = copy.deepcopy(ROWS)
        for row in worse:
            row["depth"] = int(row["depth"] * 1.5)
        bench_report(worse).save(b)
        assert main(["bench", "compare", str(a), str(b)]) == 0
        capsys.readouterr()
        assert main(["bench", "compare", str(a), str(b),
                     "--max-depth-regress", "10%"]) == 1
        out = capsys.readouterr().out
        assert "depth tolerance exceeded" in out

    def test_cli_wall_gate_flag(self, tmp_path, capsys):
        # host time is perfbench's to measure: a doubled wall column passes
        # even a 0% depth gate, and there is no wall gate to ask for
        from repro.cli import main

        rows = [{"op": "sort", "n": 256, "wall_s": 1.0}]
        a = tmp_path / "BENCH_a.json"
        b = tmp_path / "BENCH_b.json"
        bench_report(rows).save(a)
        worse = copy.deepcopy(rows)
        worse[0]["wall_s"] = 2.0
        bench_report(worse).save(b)
        assert main(["bench", "compare", str(a), str(b),
                     "--max-depth-regress", "0%"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["bench", "compare", str(a), str(b), "--max-wall-regress", "25%"])
        assert exc.value.code == 2

    def test_cli_migrate(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["bench", "migrate", str(tmp_path)])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", GATED_BASELINES)
    def test_cli_gated_baseline_trips_and_refuses_nan(self, name, tmp_path, capsys):
        # the four baselines CI gates: raise every energy-kind column 20%
        from repro.cli import main

        base = RESULTS / f"BENCH_{name}.json"
        worse = tmp_path / f"BENCH_{name}.json"
        worse.write_text(json.dumps(raise_energy_columns(base, 1.2)))
        assert main(["bench", "compare", str(base), str(worse),
                     "--max-energy-regress", "10%"]) == 1
        assert "energy tolerance exceeded" in capsys.readouterr().out
        for bad in ("nan", "inf", "-10%"):
            assert main(["bench", "compare", str(base), str(worse),
                         f"--max-energy-regress={bad}"]) == 2
        assert "finite and >= 0" in capsys.readouterr().err


# --------------------------------------------------------------------------- #
# serving benchmarks: host-time columns are shown, never gated
# --------------------------------------------------------------------------- #


class TestServingMetricKinds:
    def test_latency_column_names(self):
        for column in ("p50_ms", "p99_ms", "lca_p99_s", "latency_seconds", "ttfa_ms"):
            assert metric_kind(column) is None, column

    def test_throughput_column_names(self):
        for column in ("qps", "coalesced_qps", "rps", "throughput"):
            assert metric_kind(column) is None, column

    def test_non_latency_lookalikes_unaffected(self):
        assert metric_kind("speedup") is None  # ratio, informational
        assert metric_kind("energy/n^1.5") == "energy"
        assert metric_kind("wall_s") is None

    def test_cli_latency_and_throughput_flags(self, tmp_path, capsys):
        from repro.cli import main

        rows = [{"scenario": "load", "n": 256, "p99_ms": 10.0, "qps": 100.0}]
        worse = copy.deepcopy(rows)
        worse[0]["p99_ms"] = 40.0
        worse[0]["qps"] = 20.0
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        bench_report(rows).save(a)
        bench_report(worse).save(b)
        assert main(["bench", "compare", str(a), str(b)]) == 0
        for flag in ("--max-latency-regress", "--max-throughput-regress"):
            with pytest.raises(SystemExit) as exc:
                main(["bench", "compare", str(a), str(b), flag, "50%"])
            assert exc.value.code == 2
