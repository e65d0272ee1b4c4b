"""Exit-code contract of the analysis CLI: ``check``/``lint``/``sanitize``
return 0 when clean, 1 on findings, and 2 on usage errors — the convention
CI relies on.  Rendering flags (``--format``, ``--out``, ``--plan-safety``)
are exercised through the real argv path."""

import json

import pytest

from repro.cli import main

# flagged by the whole-program check (CHECK005) and by the lint (REPRO003)
HOT_LOOP = (
    "def fanout(machine, tree):\n"
    "    with machine.phase('fanout'):\n"
    "        for i in range(tree.n):\n"
    "            machine.send(i, tree.parent[i])\n"
)

# clean for the whole-program check, flagged by the lint alone (REPRO005)
LINT_ONLY = "def f(m):\n    m.ledger.charge(10, 1)\n"

CLEAN = "def f(machine):\n    with machine.phase('p'):\n        machine.send_batch([(0, 1)])\n"


@pytest.fixture()
def fixture_file(tmp_path):
    # nested under repro/spatial/ so path-scoped lint rules apply to it
    def write(source, name="fixture.py"):
        path = tmp_path / "repro" / "spatial" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        return str(path)

    return write


class TestCheckExitCodes:
    def test_clean_exits_zero(self, fixture_file, capsys):
        assert main(["check", fixture_file(CLEAN)]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_findings_exit_one(self, fixture_file, capsys):
        assert main(["check", fixture_file(HOT_LOOP)]) == 1
        assert "CHECK005" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["check", "/no/such/path"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_format_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--format", "yaml"])
        assert exc.value.code == 2

    def test_list_rules_exits_zero(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "CHECK005" in out and "scalar-send-hot-loop" in out

    def test_json_format_carries_plan_safety(self, fixture_file, capsys):
        assert main(["check", fixture_file(HOT_LOOP), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["findings"][0]["code"] == "CHECK005"
        assert doc["plan_safety"]["schema"] == "repro.plan-safety/v1"
        assert doc["stats"]["findings_by_code"] == {"CHECK005": 1}

    def test_sarif_out_file(self, fixture_file, tmp_path, capsys):
        out = tmp_path / "check.sarif"
        rc = main(["check", fixture_file(HOT_LOOP), "--format", "sarif", "--out", str(out)])
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "CHECK005"

    def test_plan_safety_report_written(self, fixture_file, tmp_path):
        report = tmp_path / "ps.json"
        rc = main(["check", fixture_file(CLEAN), "--plan-safety", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == "repro.plan-safety/v1"
        assert doc["totals"]["phases"] == 1

    def test_with_lint_catches_lint_only_findings(self, fixture_file, capsys):
        path = fixture_file(LINT_ONLY)
        assert main(["check", path]) == 0
        capsys.readouterr()
        assert main(["check", path, "--with-lint"]) == 1
        assert "REPRO005" in capsys.readouterr().out

    def test_with_lint_sarif_merges_both_tools(self, fixture_file, tmp_path):
        out = tmp_path / "all.sarif"
        rc = main(
            ["check", fixture_file(HOT_LOOP), "--with-lint", "--format", "sarif", "--out", str(out)]
        )
        assert rc == 1
        doc = json.loads(out.read_text())
        names = [r["tool"]["driver"]["name"] for r in doc["runs"]]
        assert names == ["repro-check", "repro-lint"]


class TestLintExitCodes:
    def test_clean_exits_zero(self, fixture_file):
        assert main(["lint", fixture_file(CLEAN)]) == 0

    def test_findings_exit_one(self, fixture_file, capsys):
        assert main(["lint", fixture_file(HOT_LOOP)]) == 1
        assert "REPRO003" in capsys.readouterr().out

    def test_missing_path_exits_two(self, capsys):
        assert main(["lint", "/no/such/path"]) == 2
        assert "error" in capsys.readouterr().err

    def test_json_format(self, fixture_file, capsys):
        assert main(["lint", fixture_file(HOT_LOOP), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.findings/v1"
        assert doc["tool"] == "repro-lint"
        assert doc["findings"][0]["code"] == "REPRO003"

    def test_sarif_out_file(self, fixture_file, tmp_path):
        out = tmp_path / "lint.sarif"
        assert main(["lint", fixture_file(HOT_LOOP), "--format", "sarif", "--out", str(out)]) == 1
        doc = json.loads(out.read_text())
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert run["results"][0]["ruleId"] == "REPRO003"


@pytest.mark.parametrize("engine", ["scalar", "batched"])
class TestSanitizeExitCodes:
    def test_clean_exits_zero(self, engine, capsys):
        assert main(["sanitize", "treefix", "--n", "64", "--engine", engine]) == 0

    def test_findings_exit_one(self, engine, capsys):
        # batched LCA queries concurrently read shared layer registers,
        # which the strict EREW policy reports as findings
        assert main(
            ["sanitize", "lca", "--n", "64", "--policy", "erew", "--engine", engine]
        ) == 1

    def test_bad_workload_exits_two(self, engine):
        with pytest.raises(SystemExit) as exc:
            main(["sanitize", "nope", "--engine", engine])
        assert exc.value.code == 2


SERVE = ["serve", "--n", "64", "--plan-store", "", "--max-seconds", "0.2",
         "--watchdog-sample", "0"]


class TestServeWindowExitCodes:
    @pytest.mark.parametrize("ms", ["-1", "nan", "inf", "1e13"])
    def test_window_outside_wait_range_exits_two(self, ms, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*SERVE, "--window-ms", ms])
        assert exc.value.code == 2
        assert "--window-ms" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, shown",
        [(["--window-ms", "0"], "[coalescing: window 0 ms"),
         (["--no-coalesce"], "[coalescing OFF")],
    )
    def test_zero_window_and_no_coalesce_still_serve(self, flags, shown, capsys, monkeypatch):
        import signal

        # keep the test process's own SIGINT/SIGTERM handlers
        monkeypatch.setattr(signal, "signal", lambda *args: None)
        assert main([*SERVE, *flags]) == 0
        assert shown in capsys.readouterr().out
