"""E15 — Always-on serving: coalescing QPS/p99 and warm-boot TTFA.

Regenerates: the serving tentpole numbers (ISSUE 10). Three row groups in
one artifact, keyed by ``(scenario, n)``:

* **load rows** (``coalesce_on`` / ``coalesce_off``) — the same synthetic
  heavy traffic (concurrent clients, fixed per-client query streams)
  served with the 3 ms coalescing window vs solo windows (``window_s=0``
  — identical code path, one request per window). Every client asserts
  its answers bit-identical to a solo ``lca_batch`` reference before the
  row is recorded, so the QPS win is at equal correctness. These rows
  carry qps / p50 / p99 / batch-size columns only: window *composition*
  under load is timing-dependent, so no model-cost column belongs here
  (the CI energy gate must stay deterministic).
* **window_audit row** — the deterministic model-cost claim: six users'
  batches submitted before the worker starts form exactly one merged
  window; its ledger-measured energy must be ≤ (strictly <) the summed
  solo per-user batches on an identically-prepared tree. This row's
  energy columns are what the 10% CI energy gate pins.
* **boot rows** (``boot_cold`` / ``boot_warm``) — time-to-first-answer of
  the §IV live pipeline boot vs the stored-plan replay boot (best of
  ``BOOT_ROUNDS``), same seed, answers asserted identical.

Latency/throughput columns are host times: ``bench compare`` and
``bench trend`` show them but gate only energy and depth. Host time is
measured by the repository benchmark, ``perfbench/``.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.analysis import format_table
from repro.analysis.report import RunReport
from repro.plans import PlanStore, make_tree
from repro.serving import QueryService, boot_service
from repro.spatial import SpatialTree, lca_batch

N = 4096
SEED = 15
SHAPE = "random"
CLIENTS = 8
BATCH = 32
LOAD_SECONDS = 1.5
WINDOW_MS = 3.0
AUDIT_USERS = 6
BOOT_ROUNDS = 2

#: regression floor: coalescing must beat solo serving on QPS by at least this
MIN_QPS_RATIO = 1.15


def _client_streams(tree_n: int):
    """Fixed per-client query streams (each client loops its own stream)."""
    streams = []
    for i in range(CLIENTS):
        rng = np.random.default_rng(1000 + i)
        streams.append(
            (rng.integers(0, tree_n, size=BATCH), rng.integers(0, tree_n, size=BATCH))
        )
    return streams


def _reference_answers(tree, streams):
    """Solo lca_batch answers — the bit-identical correctness bar."""
    st = SpatialTree.build(tree, curve="hilbert", engine="batched")
    prepared = st.prepare_lca(seed=SEED)
    return [
        lca_batch(st, us, vs, seed=SEED, prepared=prepared) for us, vs in streams
    ]


def _run_load(tree, streams, reference, *, window_s: float) -> dict:
    """Serve CLIENTS concurrent request loops for LOAD_SECONDS; return a row."""
    st = SpatialTree.build(tree, curve="hilbert", engine="batched")
    svc = QueryService(
        st, window_s=window_s, max_batch=1 << 16, max_queue=4096, seed=SEED
    ).start()
    stop = time.monotonic() + LOAD_SECONDS
    mismatches: list[int] = []
    completed = [0] * CLIENTS

    def client(i):
        us, vs = streams[i]
        while time.monotonic() < stop:
            got = svc.lca(us, vs, timeout=60)
            if not np.array_equal(got, reference[i]):
                mismatches.append(i)
                return
            completed[i] += 1

    t0 = time.monotonic()
    threads = [threading.Thread(target=client, args=(i,)) for i in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.monotonic() - t0
    svc.drain()
    assert not mismatches, f"clients {mismatches} diverged from solo lca_batch"
    requests = sum(completed)
    assert requests > 0
    stats = svc.stats
    p50 = stats.latency_quantile("lca", 0.5) or 0.0
    p99 = stats.latency_quantile("lca", 0.99) or 0.0
    return {
        "scenario": "coalesce_on" if window_s > 0 else "coalesce_off",
        "n": N,
        "clients": CLIENTS,
        "requests": requests,
        "qps": round(requests / elapsed, 1),
        "p50_ms": round(1e3 * p50, 2),
        "p99_ms": round(1e3 * p99, 2),
        "windows": stats.windows_total,
        "mean_batch": round(stats.window_queries_total / max(1, stats.windows_total), 1),
    }


def _run_window_audit(tree, streams, reference) -> dict:
    """Deterministic single-window energy audit vs summed solo batches."""
    users = streams[:AUDIT_USERS]
    # solo bar: each user pays their own pass over shared prepared state
    st = SpatialTree.build(tree, curve="hilbert", engine="batched")
    prepared = st.prepare_lca(seed=SEED)
    solo_energy = solo_depth = 0
    for us, vs in users:
        before = st.machine.snapshot()
        lca_batch(st, us, vs, seed=SEED, prepared=prepared)
        after = st.machine.snapshot()
        solo_energy += after["energy"] - before["energy"]
        solo_depth += after["depth"] - before["depth"]
    # merged: submit everyone before the worker starts -> exactly 1 window
    st2 = SpatialTree.build(tree, curve="hilbert", engine="batched")
    svc = QueryService(
        st2, window_s=0.25, max_batch=1 << 16, max_queue=4096, seed=SEED
    )
    pending = [svc.submit("lca", {"us": us, "vs": vs}) for us, vs in users]
    svc.start()
    for req, ref in zip(pending, reference):
        assert np.array_equal(req.wait(60), ref)
    svc.drain()
    assert svc.stats.windows_total == 1, "audit must execute as one window"
    merged_energy = svc.stats.window_energy_total
    assert merged_energy < solo_energy, (
        f"coalesced window ({merged_energy}) must beat {AUDIT_USERS} solo "
        f"batches ({solo_energy}) on ledger energy"
    )
    return {
        "scenario": "window_audit",
        "n": N,
        "users": AUDIT_USERS,
        "queries": AUDIT_USERS * BATCH,
        "merged_energy": merged_energy,
        "solo_energy": solo_energy,
        "energy_saving_ratio": round(solo_energy / merged_energy, 2),
        "merged_depth": svc.stats.window_depth_total,
        "solo_depth": solo_depth,
    }


def _boot_ttfa(store, *, warm: bool) -> tuple[float, np.ndarray]:
    """Wall seconds from boot start to the first answered query."""
    rng = np.random.default_rng(2000)
    us, vs = rng.integers(0, N, size=BATCH), rng.integers(0, N, size=BATCH)
    t0 = time.monotonic()
    booted = boot_service(
        shape=SHAPE, n=N, seed=SEED, curve="hilbert", engine="batched",
        warm=warm, store=store if warm else None,
        window_s=0.0, max_queue=64,
    )
    answer = booted.service.lca(us, vs, timeout=120)
    ttfa = time.monotonic() - t0
    mode = booted.boot.mode
    booted.service.drain()
    assert mode == ("warm" if warm else "cold"), booted.boot
    return ttfa, answer


def _run_boot_rows(tmp_path) -> list[dict]:
    store = PlanStore(tmp_path / "plans")
    # seed the store so the warm path has a plan to replay (not timed)
    boot_service(
        shape=SHAPE, n=N, seed=SEED, warm=True, store=store, window_s=0.0,
        max_queue=64,
    ).service.drain()
    cold = warm = float("inf")
    cold_ans = warm_ans = None
    for _ in range(BOOT_ROUNDS):
        t, a = _boot_ttfa(store, warm=False)
        if t < cold:
            cold, cold_ans = t, a
        t, a = _boot_ttfa(store, warm=True)
        if t < warm:
            warm, warm_ans = t, a
    assert np.array_equal(cold_ans, warm_ans), "boot paths must agree on answers"
    assert warm < cold, f"warm boot ({warm:.3f}s) must beat cold ({cold:.3f}s)"
    return [
        {"scenario": "boot_cold", "n": N, "ttfa_ms": round(1e3 * cold, 1)},
        {
            "scenario": "boot_warm",
            "n": N,
            "ttfa_ms": round(1e3 * warm, 1),
            "boot_speedup_ratio": round(cold / warm, 2),
        },
    ]


def test_e15_serving(benchmark, report, tmp_path):
    """Tentpole acceptance: coalescing-on beats coalescing-off on QPS at
    equal (bit-identical) correctness; one merged window's ledger energy
    is below the summed solo batches; warm plan-replay boot beats the
    cold §IV pipeline on time-to-first-answer."""
    tree = make_tree(SHAPE, N, SEED)
    streams = _client_streams(N)
    reference = _reference_answers(tree, streams)

    def run():
        rows = [
            _run_load(tree, streams, reference, window_s=WINDOW_MS / 1e3),
            _run_load(tree, streams, reference, window_s=0.0),
            _run_window_audit(tree, streams, reference),
        ]
        rows.extend(_run_boot_rows(tmp_path))
        return rows

    rows = benchmark.pedantic(run, rounds=1)
    # pad heterogeneous row groups so the table renders one aligned grid
    columns: list[str] = []
    for row in rows:
        columns.extend(k for k in row if k not in columns)
    padded = [{k: row.get(k, "-") for k in columns} for row in rows]
    # explicit row_key: the "-" padding cells are strings, so the derived
    # key would swallow the metric columns and un-gate the energy audit
    artifact = RunReport.table("benchmark", padded, meta={"benchmark": "e15_serving"})
    artifact.data["row_key"] = ["scenario", "n"]
    report(
        "e15_serving",
        f"E15: always-on serving, n={N}, {CLIENTS} clients × {BATCH}-query "
        f"batches, {WINDOW_MS:g} ms window\n" + format_table(padded),
        data=artifact,
        metric_kinds={
            "merged_energy": "energy",
            "solo_energy": "energy",
            "merged_depth": "depth",
            "solo_depth": "depth",
        },
    )
    on, off = rows[0], rows[1]
    assert on["qps"] > MIN_QPS_RATIO * off["qps"], (on, off)
    # coalescing actually merged traffic: fewer windows than requests
    assert on["windows"] < on["requests"]
    assert off["windows"] == off["requests"]
