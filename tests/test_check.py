"""Tests for the whole-program checker (``repro check``): one seeded
violation per ``CHECKxxx`` class with a clean counterpart, taint/effect
unit coverage, noqa suppression, the renderers, the plan-safety report on
the real repo (list ranking's random-mate rounds are data-dependent while
the treefix/layout phases replay), and the metrics publishers."""

import json

import pytest

from repro.analysis.check import (
    CHECK_CATALOG,
    FINDINGS_SCHEMA,
    PLAN_SAFETY_SCHEMA,
    PREDICTOR_LOOP_BUDGETS,
    VERDICT_DATA_DEPENDENT,
    VERDICT_PLAN_SAFE,
    build_index_from_source,
    check_paths,
    check_source,
    compute_summaries,
    findings_to_json,
    findings_to_sarif,
    format_check,
    merge_sarif,
)
from repro.analysis.metrics import MetricsRegistry, publish_check


def codes(result):
    return [f.code for f in result.findings]


# --------------------------------------------------------------------- #
# seeded violations: one fixture per CHECKxxx class
# --------------------------------------------------------------------- #

PHASE_ESCAPE = """\
from repro.contracts import cost_contract

def _fanout(machine, i):
    machine.send(i, i + 1)

@cost_contract(energy="collective_energy", depth="collective_depth")
def entry(machine):
    _fanout(machine, 0)
"""

PHASE_ESCAPE_FIXED = """\
from repro.contracts import cost_contract

def _fanout(machine, i):
    machine.send(i, i + 1)

@cost_contract(energy="collective_energy", depth="collective_depth", phase="fanout")
def entry(machine):
    _fanout(machine, 0)
"""

SHAPE_MISMATCH = """\
from repro.contracts import cost_contract

@cost_contract(energy="collective_energy", depth="collective_depth", phase="bcast")
def entry(machine, tree):
    for r in range(tree.n):
        for i in range(tree.n):
            machine.send_batch([(i, i + 1)])
"""

BAD_BINDING = """\
from repro.contracts import cost_contract

@cost_contract(energy="no_such_bound", depth="treefix_depth", phase="p")
def entry(machine):
    machine.send_batch([(0, 1)])
"""

HOT_LOOP = """\
def fanout(machine, tree):
    with machine.phase("fanout"):
        for i in range(tree.n):
            machine.send(i, tree.parent[i])
"""

HOT_LOOP_NESTED = """\
def fanout(machine, tree):
    with machine.phase("fanout"):
        for r in range(tree.n):
            for i in range(tree.n):
                machine.send(i, tree.parent[i])
"""

HOT_LOOP_FIXED = """\
def fanout(machine, tree):
    with machine.phase("fanout"):
        machine.send_batch([(i, tree.parent[i]) for i in range(tree.n)])
"""

FALSE_PLAN_SAFE = """\
from numpy.random import default_rng

from repro.contracts import cost_contract

@cost_contract(energy="list_ranking_energy", depth="list_ranking_depth", plan_safe=True)
def entry(machine):
    rng = default_rng(0)
    with machine.phase("mate"):
        coins = rng.permutation(machine.n)
        if coins[0]:
            machine.send_batch([(0, 1)])
"""

FAMILY_CALLER = """\
from repro.contracts import cost_contract
from repro.spatial.local_messaging import family_broadcast

@cost_contract(energy="local_messaging_energy", depth="local_messaging_depth", plan_safe=True)
def entry(st, values, families):
    return family_broadcast(st, values, families)
"""

TRUE_PLAN_SAFE = """\
from repro.contracts import cost_contract

@cost_contract(energy="treefix_energy", depth="treefix_depth_general", plan_safe=True)
def entry(machine, st):
    with machine.phase("contract"):
        for r in range(32):
            st.send_plan("round", [(0, 1)])
"""


class TestSeededViolations:
    def test_phase_escape_flagged_interprocedurally(self):
        result = check_source(PHASE_ESCAPE)
        assert codes(result) == ["CHECK002"]
        (finding,) = result.findings
        assert "entry" in finding.message
        assert "_fanout" in finding.message  # witness chain names the callee

    def test_contract_phase_covers_the_escape(self):
        assert codes(check_source(PHASE_ESCAPE_FIXED)) == []

    def test_charge_under_phase_scope_is_clean(self):
        src = (
            "def f(machine):\n"
            "    with machine.phase('p'):\n"
            "        machine.send_batch([(0, 1)])\n"
        )
        assert codes(check_source(src)) == []

    def test_shape_mismatch_flagged(self):
        result = check_source(SHAPE_MISMATCH)
        assert codes(result) == ["CHECK003"]
        (finding,) = result.findings
        assert "collective_depth" in finding.message
        # two nested data loops weigh 2 each against a budget of 1
        assert "depth 4" in finding.message
        assert PREDICTOR_LOOP_BUDGETS["collective_depth"] == 1

    def test_shape_within_budget_is_clean(self):
        src = SHAPE_MISMATCH.replace("collective_depth", "layout_creation_depth")
        assert codes(check_source(src)) == []

    def test_bad_binding_flags_both_predictors(self):
        result = check_source(BAD_BINDING)
        assert codes(result) == ["CHECK004", "CHECK004"]
        messages = " ".join(f.message for f in result.findings)
        assert "unknown bounds predictor 'no_such_bound'" in messages
        # treefix_depth exists but needs a bounded_degree keyword
        assert "not callable as treefix_depth(n)" in messages

    def test_malformed_decorator_args_flagged(self):
        src = (
            "from repro.contracts import cost_contract\n"
            "@cost_contract(energy=some_name, slack=-1.0, phase='p')\n"
            "def entry(machine):\n"
            "    machine.send_batch([(0, 1)])\n"
        )
        result = check_source(src)
        assert codes(result) == ["CHECK004", "CHECK004"]
        messages = " ".join(f.message for f in result.findings)
        assert "energy= must be a literal constant" in messages
        assert "slack= must be a literal constant" in messages

    def test_hot_loop_graded_warm_then_hot(self):
        warm = check_source(HOT_LOOP)
        assert codes(warm) == ["CHECK005"]
        assert "[warm]" in warm.findings[0].message
        assert warm.findings[0].line == 4  # the send, not the loop head

        hot = check_source(HOT_LOOP_NESTED)
        assert codes(hot) == ["CHECK005"]
        assert "[hot]" in hot.findings[0].message

    def test_batched_rewrite_is_clean(self):
        assert codes(check_source(HOT_LOOP_FIXED)) == []

    def test_hot_loop_seen_through_a_call(self):
        src = (
            "def _one(machine, i):\n"
            "    machine.send(i, i + 1)\n"
            "\n"
            "def fanout(machine, tree):\n"
            "    with machine.phase('fanout'):\n"
            "        for i in range(tree.n):\n"
            "            _one(machine, i)\n"
        )
        result = check_source(src)
        assert codes(result) == ["CHECK005"]
        finding = result.findings[0]
        assert finding.line == 7  # the call site inside the data loop
        assert "_one" in finding.message

    def test_false_plan_safe_claim_flagged(self):
        result = check_source(FALSE_PLAN_SAFE)
        assert codes(result) == ["CHECK006"]
        (finding,) = result.findings
        assert "plan_safe=True" in finding.message
        assert "mate" in finding.message
        report = result.report
        (phase,) = [p for p in report["phases"] if p["name"] == "mate"]
        assert phase["verdict"] == VERDICT_DATA_DEPENDENT

    def test_plan_backed_rounds_keep_the_claim(self):
        result = check_source(TRUE_PLAN_SAFE)
        assert codes(result) == []
        (row,) = result.report["entry_points"]
        assert row["verdict"] == VERDICT_PLAN_SAFE

    def test_family_kernels_open_no_phase(self):
        # family_broadcast/family_reduce charge in their caller's phase:
        # the call reaches no phase of its own, so its charge is unphased
        result = check_source(FAMILY_CALLER)
        assert codes(result) == ["CHECK002"]
        (row,) = result.report["entry_points"]
        assert row["reachable_phases"] == []
        assert result.report["phases"] == []

    def test_syntax_error_reported_as_check001(self):
        result = check_source("def f(:\n")
        assert codes(result) == ["CHECK001"]


class TestNoqaAndCatalog:
    def test_noqa_suppresses_check_codes(self):
        src = HOT_LOOP.replace(
            "machine.send(i, tree.parent[i])",
            "machine.send(i, tree.parent[i])  # repro: noqa[CHECK005]",
        )
        assert codes(check_source(src)) == []

    def test_blanket_noqa_suppresses(self):
        src = HOT_LOOP.replace(
            "machine.send(i, tree.parent[i])",
            "machine.send(i, tree.parent[i])  # repro: noqa",
        )
        assert codes(check_source(src)) == []

    def test_noqa_for_other_code_does_not_suppress(self):
        src = HOT_LOOP.replace(
            "machine.send(i, tree.parent[i])",
            "machine.send(i, tree.parent[i])  # repro: noqa[CHECK002]",
        )
        assert codes(check_source(src)) == ["CHECK005"]

    def test_catalog_covers_every_emitted_code(self):
        for fixture in (PHASE_ESCAPE, SHAPE_MISMATCH, BAD_BINDING, HOT_LOOP, FALSE_PLAN_SAFE):
            for code in codes(check_source(fixture)):
                assert code in CHECK_CATALOG

    def test_catalog_is_stable(self):
        assert sorted(CHECK_CATALOG) == [f"CHECK00{i}" for i in range(1, 7)]


class TestFindingAnchors:
    """Findings on decorated defs anchor precisely: contract problems on
    the ``@cost_contract`` line (column of the ``@``), reachability
    problems on the ``def`` itself."""

    def test_contract_findings_anchor_on_the_decorator(self):
        result = check_source(BAD_BINDING)
        for finding in result.findings:
            assert finding.line == 3
            assert finding.col == 2  # just past the "@"

    def test_phase_escape_anchors_on_the_def(self):
        (finding,) = check_source(PHASE_ESCAPE).findings
        assert finding.line == 7
        assert finding.col == 1

    def test_false_claim_anchors_on_the_decorator(self):
        (finding,) = check_source(FALSE_PLAN_SAFE).findings
        assert finding.line == 5
        assert finding.col == 2


class TestTaintInference:
    def test_subscript_store_with_tainted_index_taints_target(self):
        # active[sel] = False with data-dependent sel makes `active` data
        src = (
            "from numpy.random import default_rng\n"
            "def f(machine):\n"
            "    rng = default_rng(0)\n"
            "    active = [True] * machine.n\n"
            "    sel = rng.permutation(machine.n)\n"
            "    active[sel] = False\n"
            "    while active:\n"
            "        machine.send_batch([(0, 1)])\n"
        )
        index = build_index_from_source(src)
        _, summaries = compute_summaries(index)
        (summary,) = summaries.values()
        assert summary.unphased_adhoc_tainted is not None

    def test_plain_counter_loop_stays_untainted(self):
        src = (
            "def f(machine, m):\n"
            "    k = 2\n"
            "    while k <= m:\n"
            "        machine.send_batch([(0, 1)])\n"
            "        k *= 2\n"
        )
        index = build_index_from_source(src)
        _, summaries = compute_summaries(index)
        (summary,) = summaries.values()
        assert summary.unphased_adhoc_tainted is None
        assert summary.unphased_adhoc is not None


# --------------------------------------------------------------------- #
# renderers
# --------------------------------------------------------------------- #


class TestRenderers:
    @pytest.fixture()
    def result(self):
        return check_source(FALSE_PLAN_SAFE)

    def test_json_document(self, result):
        doc = findings_to_json(result.findings, tool="repro-check")
        assert doc["schema"] == FINDINGS_SCHEMA
        assert doc["tool"] == "repro-check"
        (row,) = doc["findings"]
        assert row["code"] == "CHECK006"
        assert row["line"] == result.findings[0].line

    def test_sarif_document(self, result):
        doc = findings_to_sarif(result.findings, tool="repro-check", rules=CHECK_CATALOG)
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-check"
        (res,) = run["results"]
        assert res["ruleId"] == "CHECK006"
        assert res["level"] == "error"  # claim violations are errors
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert set(CHECK_CATALOG) <= rule_ids
        json.dumps(doc)  # must be serializable

    def test_warning_level_for_hot_loops(self):
        result = check_source(HOT_LOOP)
        doc = findings_to_sarif(result.findings, tool="repro-check", rules=CHECK_CATALOG)
        assert doc["runs"][0]["results"][0]["level"] == "warning"

    def test_merge_sarif_concatenates_runs(self, result):
        a = findings_to_sarif(result.findings, tool="repro-check", rules=CHECK_CATALOG)
        b = findings_to_sarif([], tool="repro-lint", rules={})
        merged = merge_sarif([a, b])
        assert [r["tool"]["driver"]["name"] for r in merged["runs"]] == [
            "repro-check",
            "repro-lint",
        ]

    def test_format_check_lists_data_dependent_phases(self, result):
        text = format_check(result)
        assert "CHECK006" in text
        assert "plan-safety:" in text
        assert "data-dependent: mate" in text


# --------------------------------------------------------------------- #
# the real repo: acceptance classification
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def repo_result():
    return check_paths(["src/repro"])


class TestRepoCheck:
    def test_repo_is_clean(self, repo_result):
        assert repo_result.findings == []
        assert repo_result.ok

    def test_contracted_entry_points_indexed(self, repo_result):
        assert repo_result.stats["entry_points"] >= 10

    def test_random_mate_rounds_are_data_dependent(self, repo_result):
        verdicts = {p["name"]: p["verdict"] for p in repo_result.report["phases"]}
        for phase in ("list_rank_contract", "list_rank_base", "list_rank_expand"):
            assert verdicts[phase] == VERDICT_DATA_DEPENDENT, phase

    def test_treefix_and_layout_phases_are_plan_safe(self, repo_result):
        verdicts = {p["name"]: p["verdict"] for p in repo_result.report["phases"]}
        for phase in (
            "treefix_*_contract",
            "treefix_*_expand",
            "euler_tour_1",
            "euler_tour_2",
            "child_sort",
            "compact",
            "virtual_tree_construction",
            "bitonic_sort",
            "permute",
        ):
            assert verdicts[phase] == VERDICT_PLAN_SAFE, phase

    def test_entry_verdicts_match_contract_claims(self, repo_result):
        rows = {row["function"]: row for row in repo_result.report["entry_points"]}
        by_name = {name.split("::")[-1]: row for name, row in rows.items()}
        assert by_name["treefix_sum"]["verdict"] == VERDICT_PLAN_SAFE
        assert by_name["lca_batch"]["verdict"] == VERDICT_PLAN_SAFE
        assert by_name["bitonic_sort"]["verdict"] == VERDICT_PLAN_SAFE
        assert by_name["list_rank"]["verdict"] == VERDICT_DATA_DEPENDENT
        # every plan_safe=True claim holds (otherwise CHECK006 would fire)
        for row in rows.values():
            if row["claim_plan_safe"] is True:
                assert row["verdict"] == VERDICT_PLAN_SAFE

    def test_report_schema(self, repo_result):
        report = repo_result.report
        assert report["schema"] == PLAN_SAFETY_SCHEMA
        totals = report["totals"]
        assert totals["phases"] == totals["plan_safe"] + totals["data_dependent"]
        assert totals["entry_points"] == len(report["entry_points"])
        json.dumps(report)  # must be serializable


class TestMetricsPublisher:
    def test_publish_check_renders_families(self, repo_result):
        registry = MetricsRegistry()
        publish_check(registry, repo_result)
        text = registry.render_prometheus()
        assert "repro_check_functions" in text
        assert "repro_check_entry_points" in text
        assert 'repro_check_phases{verdict="data-dependent"}' in text

    def test_publish_check_counts_findings(self):
        registry = MetricsRegistry()
        publish_check(registry, check_source(HOT_LOOP))
        text = registry.render_prometheus()
        assert 'repro_check_findings_total{code="CHECK005"} 1' in text
