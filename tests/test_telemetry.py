"""Tests for the live telemetry stack: spans, watchdog, server, session, CLI."""

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.analysis.report import span_log_to_chrome_trace
from repro.errors import ValidationError
from repro.machine import SpatialMachine
from repro.spatial import SpatialTree, lca_batch, treefix_sum
from repro.telemetry import (
    SPAN_SCHEMA,
    DivergenceWatchdog,
    SpanTracer,
    TelemetryServer,
    TelemetrySession,
    load_span_jsonl,
)
from repro.trees import bottom_up_treefix, prufer_random_tree


def _get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, resp.headers.get("Content-Type", ""), resp.read().decode()


def _run_treefix(n=512, *, engine="batched", mode="auto", seed=0, machine_hook=None):
    tree = prufer_random_tree(n, seed=seed)
    st = SpatialTree.build(tree, mode=mode, engine=engine)
    if machine_hook is not None:
        machine_hook(st.machine)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 100, size=tree.n)
    out = treefix_sum(st, values, seed=seed)
    assert np.array_equal(out, bottom_up_treefix(tree, values))
    return st


class TestSpanTracer:
    def test_nested_phases_parented(self):
        m = SpatialMachine(64)
        tracer = m.attach(SpanTracer(workload="w"))
        rng = np.random.default_rng(0)
        with m.phase("outer"):
            m.send(rng.integers(0, 64, 8), rng.integers(0, 64, 8))
            with m.phase("inner"):
                m.send(rng.integers(0, 64, 8), rng.integers(0, 64, 8))
        m.detach(tracer)
        spans = {s.name: s for s in tracer.completed}
        assert spans["inner"].parent == spans["outer"].id
        assert spans["outer"].parent == spans["w"].id
        assert spans["w"].parent is None
        assert spans["inner"].stack == ("w", "outer", "inner")
        # costs roll up: the root saw everything the phases saw
        assert spans["w"].energy == m.energy
        assert spans["outer"].energy == m.energy
        assert spans["w"].depth_end == m.depth

    def test_batched_rounds_become_child_spans(self):
        tree = prufer_random_tree(512, seed=0)
        st = SpatialTree.build(tree, engine="batched")
        tracer = st.machine.attach(SpanTracer(workload="treefix", ring=100_000))
        rng = np.random.default_rng(0)
        treefix_sum(st, rng.integers(0, 100, size=tree.n), seed=0)
        st.machine.detach(tracer)
        by_id = {s.id: s for s in tracer.completed}
        batches = [s for s in tracer.completed if s.kind == "batch"]
        rounds = [s for s in tracer.completed if s.kind == "round"]
        assert batches, "batched engine must emit batch spans"
        assert rounds, "aggregated multi-round events must fold into round spans"
        for r in rounds:
            parent = by_id[r.parent]
            assert parent.kind == "batch"
            assert r.level == parent.level + 1
            assert r.stack[:-1] == parent.stack
        # per-batch: child rounds partition the batch's energy/messages
        for b in batches:
            kids = [r for r in rounds if r.parent == b.id]
            if kids:
                assert len(kids) == b.rounds
                assert sum(r.energy for r in kids) == b.energy
                assert sum(r.messages for r in kids) == b.messages
        # a batch span's parent is an open phase (or the workload root)
        for b in batches:
            assert by_id[b.parent].kind in ("phase", "workload")

    def test_midphase_attach_ignores_unmatched_exit(self):
        m = SpatialMachine(16)
        tracer = SpanTracer(workload="w")
        with m.phase("already_open"):
            m.attach(tracer)
            with m.phase("seen"):
                pass
        # the exit of "already_open" must not pop the workload root
        assert [s["name"] for s in tracer.open_stack()] == ["w"]
        with m.phase("after"):
            pass
        m.detach(tracer)
        names = [s.name for s in tracer.completed]
        assert names == ["seen", "after", "w"]
        by_name = {s.name: s for s in tracer.completed}
        assert by_name["seen"].parent == by_name["w"].id
        assert by_name["after"].parent == by_name["w"].id

    def test_midphase_detach_truncates_open_spans(self):
        m = SpatialMachine(16)
        tracer = m.attach(SpanTracer(workload="w"))
        with m.phase("p"):
            m.detach(tracer)  # mid-phase: must truncate, not corrupt
        assert tracer.open_stack() == []
        names = [s.name for s in tracer.completed]
        assert sorted(names) == ["p", "w"]
        # machine keeps running fine afterwards
        with m.phase("later"):
            m.send(np.array([0, 1]), np.array([2, 3]))
        assert m.steps == 1

    def test_jsonl_stream_and_chrome_export(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        tree = prufer_random_tree(256, seed=0)
        st = SpatialTree.build(tree, engine="batched")
        tracer = st.machine.attach(SpanTracer(workload="treefix", jsonl_path=path))
        rng = np.random.default_rng(0)
        treefix_sum(st, rng.integers(0, 100, size=tree.n), seed=0)
        st.machine.detach(tracer)
        header, spans = load_span_jsonl(path)
        assert header["schema"] == SPAN_SCHEMA
        assert header["workload"] == "treefix"
        assert header["machine"]["engine"] == "batched"
        ids = [s["id"] for s in spans]
        assert len(ids) == len(set(ids))
        known = set(ids)
        for s in spans:
            assert s["parent"] is None or s["parent"] in known
            assert s["depth_end"] >= s["depth_start"]
            assert s["wall_end"] >= s["wall_start"]
            assert s["kind"] in ("workload", "phase", "batch", "round", "alert")
        # the workload root streams last (closed at detach) and covers the run
        assert spans[-1]["kind"] == "workload"
        assert spans[-1]["depth_end"] == st.machine.depth
        trace = tmp_path / "spans.trace.json"
        span_log_to_chrome_trace(path, trace)
        events = json.loads(trace.read_text())
        assert all("name" in e and "ph" in e and "ts" in e for e in events)
        assert any(e["ph"] == "X" and e.get("cat") == "round" for e in events)

    def test_bad_jsonl_rejected(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text('{"span": {}}\n')
        with pytest.raises(ValidationError):
            load_span_jsonl(path)

    def test_explicit_span_and_alert(self):
        tracer = SpanTracer()
        with tracer.span("manual", kind="workload"):
            tracer.alert("oops", args={"detail": 1})
        spans = {s.name: s for s in tracer.completed}
        assert spans["oops"].kind == "alert"
        assert spans["oops"].parent == spans["manual"].id
        assert tracer.alerts_total == 1

    def test_progress_percent(self):
        m = SpatialMachine(16)
        tracer = m.attach(SpanTracer(workload="w", planned_phases=4))
        with m.phase("a"):
            pass
        with m.phase("b"):
            pass
        prog = tracer.progress()
        assert prog["span_stack"] == ["w"]
        assert prog["completed_top_level_phases"] == 2
        assert prog["percent"] == 50.0
        m.detach(tracer)

    def test_ring_evicts_oldest(self):
        m = SpatialMachine(16)
        tracer = m.attach(SpanTracer(workload="w", ring=3))
        for i in range(6):
            with m.phase(f"p{i}"):
                pass
        names = [s.name for s in tracer.completed]
        assert names == ["p3", "p4", "p5"]  # oldest evicted, capacity held
        assert len(tracer) == 3
        assert tracer.spans_total["phase"] == 6  # cumulative survives eviction
        m.detach(tracer)

    def test_progress_monotone_after_eviction(self):
        # completed-top-level counting must not rely on the ring: once old
        # spans are evicted the percentage has to keep climbing, not reset
        m = SpatialMachine(16)
        tracer = m.attach(SpanTracer(workload="w", ring=2, planned_phases=8))
        percents = []
        for i in range(8):
            with m.phase(f"p{i}"):
                pass
            percents.append(tracer.progress()["percent"])
        assert percents == sorted(percents)
        assert percents[-1] == 100.0
        assert tracer.progress()["completed_top_level_phases"] == 8
        m.detach(tracer)

    def test_batch_span_wall_width_from_event(self):
        # with a wall profiler attached the engine annotates events with
        # wall_ns; batch spans then get real width on the wall axis
        from repro.machine import KernelWallProfiler

        m = SpatialMachine(64)
        m.attach(KernelWallProfiler())
        tracer = m.attach(SpanTracer(workload="w"))
        rng = np.random.default_rng(0)
        with m.phase("p"):
            m.send(rng.integers(0, 64, 32), rng.integers(0, 64, 32))
        m.detach(tracer)
        batches = [s for s in tracer.completed if s.kind == "batch"]
        assert batches
        assert all(s.wall_end > s.wall_start for s in batches)

    def test_batch_span_zero_width_without_profiler(self):
        m = SpatialMachine(64)
        tracer = m.attach(SpanTracer(workload="w"))
        rng = np.random.default_rng(0)
        with m.phase("p"):
            m.send(rng.integers(0, 64, 32), rng.integers(0, 64, 32))
        m.detach(tracer)
        batches = [s for s in tracer.completed if s.kind == "batch"]
        assert all(s.wall_end == s.wall_start for s in batches)


class TestWatchdog:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize("mode", ["direct", "virtual"])
    def test_treefix_clean_on_both_engines(self, engine, mode):
        hooked = {}

        def hook(machine):
            hooked["wd"] = machine.attach(DivergenceWatchdog(sample=1))

        _run_treefix(n=256, engine=engine, mode=mode, machine_hook=hook)
        wd = hooked["wd"]
        snap = wd.snapshot()
        assert snap["checks"] > 0
        assert snap["alerts"] == 0 and snap["clean"]
        assert snap["rounds_checked"] > 0
        assert snap["messages_checked"] > 0

    def test_lca_clean(self):
        tree = prufer_random_tree(256, seed=1)
        st = SpatialTree.build(tree, engine="batched")
        wd = st.machine.attach(DivergenceWatchdog(sample=1))
        rng = np.random.default_rng(1)
        us, vs = rng.permutation(tree.n), rng.permutation(tree.n)
        lca_batch(st, us, vs, seed=1)
        assert wd.checks_total > 0 and wd.clean

    def test_sort_clean(self):
        from repro.machine.routing import bitonic_sort

        m = SpatialMachine(256, engine="batched")
        wd = m.attach(DivergenceWatchdog(sample=1))
        keys = np.random.default_rng(0).integers(0, 1000, size=256).astype(np.int64)
        with m.phase("bitonic_sort"):
            got, _ = bitonic_sort(m, keys)
        assert np.array_equal(got, np.sort(keys))
        assert wd.checks_total > 0 and wd.clean

    def test_detects_injected_energy(self):
        # a caller whose pre-gathered distances are one too large on each
        # of 7 messages: the batched engine charges them as given
        m = SpatialMachine(64, engine="batched")
        tracer = m.attach(SpanTracer(workload="w"))
        wd = m.attach(DivergenceWatchdog(sample=1, tracer=tracer))
        src, dst = np.arange(7), np.arange(7) + 20
        with m.phase("overcharged"):
            m.send_batch(src, dst, dist=m.manhattan(src, dst) + 1)
        assert not wd.clean
        assert all(f.dimension == "energy" for f in wd.findings)
        assert all(f.observed - f.expected == 7 for f in wd.findings)
        # the finding surfaced as an alert span through the tracer
        alerts = [s for s in tracer.completed if s.kind == "alert"]
        assert alerts and alerts[0].name.startswith("divergence:")
        assert alerts[0].args["observed"] - alerts[0].args["expected"] == 7

    def test_detects_injected_depth(self, monkeypatch):
        import repro.machine.machine as mm

        exclusive = mm._advance_round_exclusive

        def late_receives(clock, src, dst):
            # every EREW receive lands one tick late: depth only
            exclusive(clock, src, dst)
            clock[dst] += 1
            return max(int(clock[src].max()), int(clock[dst].max()))

        monkeypatch.setattr(mm, "_advance_round_exclusive", late_receives)

        def hook(machine):
            machine.attach(DivergenceWatchdog(sample=1))

        st = _run_treefix(n=256, engine="batched", machine_hook=hook)
        wd = next(
            i for i in st.machine._instruments if isinstance(i, DivergenceWatchdog)
        )
        assert not wd.clean
        assert {f.dimension for f in wd.findings} == {"depth"}

    def test_sample_zero_disables(self):
        def hook(machine):
            machine.attach(DivergenceWatchdog(sample=0))

        st = _run_treefix(n=128, engine="batched", machine_hook=hook)
        wd = next(
            i for i in st.machine._instruments if isinstance(i, DivergenceWatchdog)
        )
        assert wd.checks_total == 0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValidationError):
            DivergenceWatchdog(sample=-1)

    def test_session_rejects_negative_sample(self):
        with pytest.raises(ValidationError):
            TelemetrySession(SpatialMachine(16), watchdog_sample=-1)

    def test_publish_counters(self):
        from repro.analysis.metrics import MetricsRegistry

        def hook(machine):
            machine.attach(DivergenceWatchdog(sample=1))

        st = _run_treefix(n=128, engine="batched", machine_hook=hook)
        wd = next(
            i for i in st.machine._instruments if isinstance(i, DivergenceWatchdog)
        )
        reg = MetricsRegistry()
        wd.publish(reg)
        text = reg.render_prometheus()
        assert f"repro_divergence_checks_total {wd.checks_total}" in text
        assert "repro_divergence_alerts_total 0" in text
        assert "repro_divergence_clean 1" in text


class TestServerAndSession:
    def test_endpoints_and_exposition(self):
        tree = prufer_random_tree(256, seed=0)
        st = SpatialTree.build(tree, engine="batched")
        rng = np.random.default_rng(0)
        values = rng.integers(0, 100, size=tree.n)
        with TelemetrySession(
            st.machine, port=0, workload="treefix", watchdog_sample=1
        ) as tel:
            treefix_sum(st, values, seed=0)
            status, ctype, body = _get(tel.url + "/metrics")
            assert status == 200 and ctype.startswith("text/plain")
            assert "repro_divergence_checks_total" in body
            assert "repro_energy_total" in body
            assert "repro_plan_cache_hits_total" in body
            assert 'repro_machine_info{curve="hilbert"' in body
            # exactly-once TYPE per family, and a second scrape must not
            # double any monotone total (fresh registry per scrape)
            types = [ln.split()[2] for ln in body.splitlines() if ln.startswith("# TYPE")]
            names = [ln.split()[2] for ln in body.splitlines() if ln.startswith("# TYPE")]
            assert len(names) == len(set(names))
            assert len(types) == len(names)
            _, _, body2 = _get(tel.url + "/metrics")
            line = next(
                ln for ln in body2.splitlines() if ln.startswith("repro_energy_total")
            )
            assert int(line.split()[1]) == st.machine.energy
            status, _, health = _get(tel.url + "/health")
            health = json.loads(health)
            assert health["status"] == "running"
            assert health["machine"]["engine"] == "batched"
            assert health["watchdog"]["clean"]
            _, _, prog = _get(tel.url + "/progress")
            prog = json.loads(prog)
            assert prog["span_stack"] == ["treefix"]
            assert prog["totals"]["energy"] == st.machine.energy
            _, _, spans = _get(tel.url + "/spans?limit=5")
            spans = json.loads(spans)
            assert spans["schema"] == SPAN_SCHEMA
            assert spans["count"] <= 5
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(tel.url + "/nope")
            assert err.value.code == 404

    def test_serves_while_executing(self):
        # the ISSUE acceptance run: treefix n=2^14, batched, answering
        # /metrics and /progress mid-execution
        tree = prufer_random_tree(2**14, seed=1)
        st = SpatialTree.build(tree, engine="batched")
        rng = np.random.default_rng(1)
        values = rng.integers(0, 100, size=tree.n)
        with TelemetrySession(st.machine, port=0, workload="treefix") as tel:
            done = threading.Event()
            out: dict = {}

            def run():
                try:
                    out["result"] = treefix_sum(st, values, seed=1)
                finally:
                    done.set()

            worker = threading.Thread(target=run)
            worker.start()
            mid_run = 0
            while not done.is_set():
                status, _, _ = _get(tel.url + "/metrics")
                assert status == 200
                status, _, prog = _get(tel.url + "/progress")
                assert status == 200 and json.loads(prog)["status"] == "running"
                if not done.is_set():
                    mid_run += 1
            worker.join()
            assert mid_run > 0, "server never answered while the run executed"
        assert np.array_equal(out["result"], bottom_up_treefix(tree, values))

    def test_session_detaches_cleanly(self):
        m = SpatialMachine(64)
        before = list(m._instruments)
        with TelemetrySession(m, port=0, workload="w") as tel:
            assert tel.url is not None
            with m.phase("p"):
                m.send(np.array([0, 1]), np.array([2, 3]))
        assert m._instruments == before
        assert m.tracer is None
        assert m.instrument_errors == []
        summary = tel.summary()
        assert summary["spans"]["phase"] == 1
        assert summary["watchdog"]["clean"]

    def test_session_congestion_tracer(self):
        m = SpatialMachine(64)
        with TelemetrySession(m, congestion=True, watchdog_sample=0) as tel:
            assert m.tracer is not None
            with m.phase("p"):
                m.send(np.array([0, 1]), np.array([2, 3]))
            server = TelemetryServer(m, port=0, span_tracer=tel.tracer).start()
            try:
                _, _, body = _get(server.url + "/metrics")
                assert "repro_congestion_traversals_total" in body
            finally:
                server.stop()
        assert m.tracer is None  # session removes the tracer it attached

    def test_server_without_machine(self):
        with TelemetryServer(port=0) as server:
            _, _, health = _get(server.url + "/health")
            assert json.loads(health)["status"] == "running"
            _, _, body = _get(server.url + "/metrics")
            assert "repro_telemetry_uptime_seconds" in body

    def test_unknown_endpoint_404_lists_routes(self):
        with TelemetryServer(port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/definitely/not/here")
            assert err.value.code == 404
            payload = json.loads(err.value.read().decode())
            assert "/metrics" in payload["endpoints"]

    def test_spans_bad_limit_is_400(self):
        with TelemetryServer(port=0) as server:
            with pytest.raises(urllib.error.HTTPError) as err:
                _get(server.url + "/spans?limit=banana")
            assert err.value.code == 400
            payload = json.loads(err.value.read().decode())
            assert "limit" in payload["error"]
            # well-formed limits still serve (including 0 and negatives
            # clamped to 0)
            status, _, body = _get(server.url + "/spans?limit=0")
            assert status == 200 and json.loads(body)["count"] == 0

    def test_session_extra_publishers(self):
        m = SpatialMachine(64)

        def publish_custom(registry):
            registry.gauge("repro_custom_probe", "test hook").set(42)

        with TelemetrySession(
            m, port=0, workload="w", watchdog_sample=0,
            extra_publishers=(publish_custom,),
        ) as tel:
            _, _, body = _get(tel.url + "/metrics")
        assert "repro_custom_probe 42" in body

    def test_mark_done_flips_health(self):
        with TelemetryServer(port=0) as server:
            server.mark_done()
            _, _, health = _get(server.url + "/health")
            assert json.loads(health)["status"] == "done"


class TestPlanCacheCounters:
    def test_machine_plan_cache_counts(self):
        m = SpatialMachine(16)
        key = ("sort_network", 16, False)
        assert m.plan_cache.lookup(key) is None
        m.plan_cache[key] = "plan"
        assert m.plan_cache.lookup(key) == "plan"
        assert m.plan_cache.misses == {"sort_network": 1}
        assert m.plan_cache.hits == {"sort_network": 1}
        # plain dict reads stay uncounted
        assert m.plan_cache[key] == "plan"
        assert m.plan_cache.hits == {"sort_network": 1}

    def test_sort_network_plan_counts(self):
        from repro.machine.routing import bitonic_sort

        m = SpatialMachine(64, engine="batched")
        keys = np.random.default_rng(0).integers(0, 100, size=64).astype(np.int64)
        bitonic_sort(m, keys)
        bitonic_sort(m, keys)
        assert m.plan_cache.misses.get("sort_network") == 1
        assert m.plan_cache.hits.get("sort_network", 0) >= 1

    def test_batched_messaging_counts(self):
        st = _run_treefix(n=128, engine="batched", mode="direct")
        pc = st.machine.plan_cache
        assert pc.misses.get("batched_direct") == 1
        assert pc.hits.get("batched_direct", 0) >= 1

    def test_publish_plan_cache(self):
        from repro.analysis.metrics import MetricsRegistry, publish_plan_cache

        m = SpatialMachine(16)
        m.plan_cache.lookup(("sort_network", 4, True))
        m.plan_cache[("sort_network", 4, True)] = "p"
        m.plan_cache.lookup(("sort_network", 4, True))
        reg = MetricsRegistry()
        publish_plan_cache(reg, m.plan_cache)
        text = reg.render_prometheus()
        assert "repro_plan_cache_size 1" in text
        assert 'repro_plan_cache_hits_total{plan="sort_network"} 1' in text
        assert 'repro_plan_cache_misses_total{plan="sort_network"} 1' in text


def _watchdog_commands(parser=None, prefix=()):
    """argv prefix of every (sub)command that takes ``--watchdog-sample``."""
    import argparse

    from repro.cli import build_parser

    parser = parser or build_parser()
    if "--watchdog-sample" in parser._option_string_actions:
        yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _watchdog_commands(sub, (*prefix, name))


class TestCLI:
    @pytest.mark.parametrize(
        "command", sorted(_watchdog_commands()), ids=" ".join
    )
    def test_negative_watchdog_sample_is_a_usage_error(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main([*command, "--watchdog-sample", "-2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--watchdog-sample" in err and "must be >= 0" in err

    def test_treefix_serve_telemetry(self, tmp_path, capsys):
        from repro.cli import main

        span_log = tmp_path / "spans.jsonl"
        rc = main(
            [
                "treefix",
                "--n", "256",
                "--engine", "batched",
                "--serve-telemetry", "0",
                "--span-log", str(span_log),
                "--watchdog-sample", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "[telemetry serving at http://127.0.0.1:" in out
        assert "re-verified by an independent clock kernel, clean]" in out
        header, spans = load_span_jsonl(span_log)
        assert header["workload"] == "treefix"
        assert any(s["kind"] == "round" for s in spans)

    def test_span_log_alone(self, tmp_path, capsys):
        from repro.cli import main

        span_log = tmp_path / "sort.jsonl"
        rc = main(["sort", "--n", "64", "--span-log", str(span_log)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[telemetry serving" not in out  # no port requested
        header, spans = load_span_jsonl(span_log)
        assert header["workload"] == "sort"
        assert any(s["name"] == "bitonic_sort" for s in spans)
