"""The always-on query service: correctness, admission control, cost audit.

What has to hold for ``repro serve`` to be trustworthy:

* coalesced answers are **bit-identical** to solo ``lca_batch`` runs and
  to the host-side binary-lifting oracle — merging users must never
  change anyone's answer;
* one merged window's model energy is **at most** the sum of the
  per-user solo batches it replaced (the coalescing win is a model-level
  claim, audited against the machine's cost ledger);
* warm boots replay the stored layout-creation plan and serve the same
  answers as cold boots;
* the HTTP surface maps the admission-control contract onto status codes
  (400 validation / 429 shed / 503 draining) and drains cleanly.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import ServeDrainingError, ServeQueueFullError, ValidationError
from repro.plans import PlanStore, make_tree
from repro.serving import QueryService, ServingServer, boot_service
from repro.spatial import SpatialTree, lca_batch
from repro.trees import BinaryLiftingLCA

N = 256
SEED = 5


@pytest.fixture(scope="module")
def tree():
    return make_tree("random", N, SEED)


@pytest.fixture()
def service(tree):
    st = SpatialTree.build(tree, curve="hilbert", engine="batched")
    svc = QueryService(st, window_s=0.002, max_batch=4096, max_queue=256,
                       seed=SEED).start()
    yield svc
    svc.drain()


def queries(seed, k=40):
    rng = np.random.default_rng(seed)
    return rng.integers(0, N, size=k), rng.integers(0, N, size=k)


# --------------------------------------------------------------------------- #
# correctness
# --------------------------------------------------------------------------- #


class TestServiceCorrectness:
    def test_lca_matches_oracle_and_solo_run(self, service, tree):
        us, vs = queries(0)
        got = service.lca(us, vs)
        oracle = BinaryLiftingLCA(tree)
        assert np.array_equal(got, oracle.query_batch(us, vs))
        st_solo = SpatialTree.build(tree, curve="hilbert", engine="batched")
        assert np.array_equal(got, lca_batch(st_solo, us, vs, seed=SEED))

    def test_concurrent_clients_all_bit_identical(self, service, tree):
        oracle = BinaryLiftingLCA(tree)
        failures = []

        def client(i):
            us, vs = queries(i, k=25)
            got = service.lca(us, vs)
            if not np.array_equal(got, oracle.query_batch(us, vs)):
                failures.append(i)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        stats = service.stats
        assert stats.requests_total["lca"] == 12
        # coalescing actually merged concurrent requests into windows
        assert stats.windows_total <= 12
        assert stats.window_queries_total == 12 * 25

    def test_treefix_and_cuts_ops(self, service, tree):
        sums = service.treefix(np.ones(N))
        # the root's subtree is everything
        assert int(sums.max()) == N
        cuts = service.cuts(np.array([[0, N - 1]]))
        vertex, value = cuts.minimum(tree)
        assert 0 <= vertex < N and value >= 0

    def test_duplicate_queries_across_users_served_correctly(self, service, tree):
        us, vs = queries(1, k=10)
        oracle = BinaryLiftingLCA(tree).query_batch(us, vs)
        results = {}

        def client(name, u, v):
            results[name] = service.lca(u, v)

        # user B asks the same pairs with endpoints swapped
        a = threading.Thread(target=client, args=("a", us, vs))
        b = threading.Thread(target=client, args=("b", vs, us))
        a.start(); b.start(); a.join(); b.join()
        assert np.array_equal(results["a"], oracle)
        assert np.array_equal(results["b"], oracle)

    def test_validation_errors_raise_before_enqueue(self, service):
        with pytest.raises(ValidationError):
            service.submit("lca", {"us": [0], "vs": [N]})  # out of range
        with pytest.raises(ValidationError):
            service.submit("lca", {"us": [0, 1], "vs": [2]})  # length mismatch
        with pytest.raises(ValidationError):
            service.submit("treefix", {"values": [1.0] * (N - 1)})
        with pytest.raises(ValidationError):
            service.submit("nope", {})
        assert service.stats.requests_total == {}  # nothing was admitted


# --------------------------------------------------------------------------- #
# the coalescing cost audit
# --------------------------------------------------------------------------- #


class TestCoalescingEnergyAudit:
    def test_merged_window_energy_at_most_sum_of_solo_batches(self, tree):
        """The tentpole claim: one merged window ≤ Σ per-user solo batches,
        measured on the machine's own ledger."""
        per_user = [queries(i, k=30) for i in range(6)]
        # solo: each user pays for their own lca_batch pass (shared
        # prepared ranges/cover — the server's steady state either way)
        st = SpatialTree.build(tree, curve="hilbert", engine="batched")
        prepared = st.prepare_lca(seed=SEED)
        solo_energy = 0
        for us, vs in per_user:
            before = st.machine.snapshot()
            lca_batch(st, us, vs, seed=SEED, prepared=prepared)
            solo_energy += st.machine.snapshot()["energy"] - before["energy"]
        # merged: submit everyone before the worker starts, so one window
        # deterministically carries all six users
        st2 = SpatialTree.build(tree, curve="hilbert", engine="batched")
        svc = QueryService(st2, window_s=0.05, max_batch=4096, max_queue=256,
                           seed=SEED)
        pending = [svc.submit("lca", {"us": us, "vs": vs}) for us, vs in per_user]
        svc.start()
        for req in pending:
            req.wait(30)
        svc.drain()
        assert svc.stats.windows_total == 1
        merged_energy = svc.stats.window_energy_total
        assert merged_energy <= solo_energy
        # and it's a real saving, not a tie: six sweeps became one
        assert merged_energy < solo_energy

    def test_window_costs_come_from_the_ledger(self, tree):
        st = SpatialTree.build(tree, curve="hilbert", engine="batched")
        svc = QueryService(st, window_s=0.0, max_batch=4096, max_queue=256,
                           seed=SEED)
        after_prepare = st.machine.energy  # construction charged prepare_lca
        us, vs = queries(2, k=20)
        req = svc.submit("lca", {"us": us, "vs": vs})
        svc.start()
        req.wait(30)
        svc.drain()
        # the stats' energy total is exactly what the machine charged
        assert svc.stats.window_energy_total == st.machine.energy - after_prepare


# --------------------------------------------------------------------------- #
# boot paths
# --------------------------------------------------------------------------- #


class TestBootService:
    def test_cold_fallback_records_then_warm_boot_replays(self, tmp_path, tree):
        store = PlanStore(tmp_path / "plans")
        b1 = boot_service(shape="random", n=N, seed=SEED, store=store,
                          window_s=0.0, max_queue=64)
        assert b1.boot.mode == "cold_fallback"
        assert b1.boot.plan_key == ("layout_creation", N, "hilbert", "random")
        us, vs = queries(3)
        cold_answers = b1.service.lca(us, vs)
        b1.service.drain()

        b2 = boot_service(shape="random", n=N, seed=SEED, store=store,
                          window_s=0.0, max_queue=64)
        assert b2.boot.mode == "warm"
        warm_answers = b2.service.lca(us, vs)
        b2.service.drain()
        assert np.array_equal(cold_answers, warm_answers)
        # boot totals include the layout work on both paths
        assert b1.boot.totals["energy"] > 0
        assert b2.boot.totals["energy"] > 0

    def test_seed_mismatch_falls_back_cold(self, tmp_path):
        store = PlanStore(tmp_path / "plans")
        b1 = boot_service(shape="random", n=N, seed=SEED, store=store,
                          window_s=0.0, max_queue=64)
        b1.service.drain()
        b2 = boot_service(shape="random", n=N, seed=SEED + 1, store=store,
                          window_s=0.0, max_queue=64)
        assert b2.boot.mode == "cold_fallback"
        assert "seed" in (b2.boot.fallback_reason or "")
        b2.service.drain()

    def test_no_store_boots_cold(self):
        b = boot_service(shape="random", n=N, seed=SEED, store=None,
                         window_s=0.0, max_queue=64)
        assert b.boot.mode == "cold"
        b.service.drain()


BAD_WINDOWS = [-1.0, float("nan"), float("inf"), 1e13]


class TestWindowValidation:
    """A window the worker's condition wait cannot take is refused up front
    (the worker used to spin on nan, die on inf, and serve solo on < 0)."""

    @pytest.mark.parametrize("window_s", BAD_WINDOWS)
    def test_service_rejects_window(self, tree, window_s):
        st = SpatialTree.build(tree, curve="hilbert", engine="batched")
        with pytest.raises(ValidationError, match="window_s"):
            QueryService(st, window_s=window_s, seed=SEED)

    @pytest.mark.parametrize("window_s", BAD_WINDOWS)
    def test_boot_service_rejects_window(self, window_s):
        with pytest.raises(ValidationError, match="window_s"):
            boot_service(shape="random", n=N, seed=SEED, store=None, window_s=window_s)

    @pytest.mark.parametrize(
        "bad",
        [{"window_s": w} for w in BAD_WINDOWS] + [{"max_batch": 0}, {"max_queue": 0}],
        ids=[f"window_s={w}" for w in BAD_WINDOWS] + ["max_batch=0", "max_queue=0"],
    )
    def test_boot_service_checks_queue_before_boot(self, monkeypatch, bad):
        def no_boot(*args, **kwargs):
            raise AssertionError("boot_service built a tree before checking its queue arguments")

        monkeypatch.setattr("repro.serving.service.make_tree", no_boot)
        with pytest.raises(ValidationError, match=next(iter(bad))):
            boot_service(shape="random", n=N, seed=SEED, store=None, **bad)


# --------------------------------------------------------------------------- #
# admission control + drain
# --------------------------------------------------------------------------- #


class TestAdmissionControl:
    def test_queue_full_sheds(self, tree):
        st = SpatialTree.build(tree, curve="hilbert", engine="batched")
        svc = QueryService(st, window_s=0.05, max_batch=4096, max_queue=2,
                           seed=SEED)  # worker NOT started: queue backs up
        us, vs = queries(0, k=5)
        svc.submit("lca", {"us": us, "vs": vs})
        svc.submit("lca", {"us": us, "vs": vs})
        with pytest.raises(ServeQueueFullError):
            svc.submit("lca", {"us": us, "vs": vs})
        svc.start()
        svc.drain()

    def test_drain_completes_admitted_rejects_new(self, service):
        us, vs = queries(0, k=10)
        req = service.submit("lca", {"us": us, "vs": vs})
        service.drain()
        assert req.done.is_set() and req.error is None
        with pytest.raises(ServeDrainingError):
            service.submit("lca", {"us": us, "vs": vs})


# --------------------------------------------------------------------------- #
# the HTTP surface
# --------------------------------------------------------------------------- #


@pytest.fixture()
def server(tree):
    st = SpatialTree.build(tree, curve="hilbert", engine="batched")
    svc = QueryService(st, window_s=0.002, max_batch=4096, max_queue=256,
                       seed=SEED).start()
    srv = ServingServer(svc, port=0).start()
    yield srv
    srv.shutdown()


def post(url, route, payload, timeout=30):
    req = urllib.request.Request(
        url + route, data=json.dumps(payload).encode(), method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


class TestServingServer:
    def test_post_lca_roundtrip(self, server, tree):
        us, vs = queries(0, k=8)
        status, body = post(server.url, "/lca", {"us": us.tolist(), "vs": vs.tolist()})
        assert status == 200
        oracle = BinaryLiftingLCA(tree)
        assert body["lca"] == oracle.query_batch(us, vs).tolist()
        assert body["latency_seconds"] >= 0

    def test_post_treefix_and_cuts(self, server):
        status, body = post(server.url, "/treefix", {"values": [1.0] * N})
        assert status == 200 and max(body["sums"]) == N
        status, body = post(server.url, "/cuts", {"extra_edges": [[0, N - 1]]})
        assert status == 200 and "min_vertex" in body

    def test_validation_maps_to_400(self, server):
        status, body = post(server.url, "/lca", {"us": [0], "vs": [N]})
        assert status == 400 and "error" in body
        status, _ = post(server.url, "/lca", {"us": [0]})
        assert status == 400

    def test_unknown_post_route_404(self, server):
        status, body = post(server.url, "/frobnicate", {})
        assert status == 404 and "/lca" in body["endpoints"]

    def test_serving_endpoint_and_metrics(self, server):
        post(server.url, "/lca", {"us": [1], "vs": [2]})
        with urllib.request.urlopen(server.url + "/serving", timeout=10) as r:
            body = json.loads(r.read())
        assert body["service"]["stats"]["requests_total"]["lca"] >= 1
        assert body["service"]["coalescing"] is True
        with urllib.request.urlopen(server.url + "/metrics", timeout=10) as r:
            text = r.read().decode()
        for family in (
            "repro_serve_requests_total",
            "repro_serve_windows_total",
            "repro_serve_qps",
            "repro_serve_queue_depth",
            "repro_serve_batch_size",
            "repro_serve_latency_seconds",
            "repro_serve_window_energy_total",
        ):
            assert family in text, family

    def test_draining_maps_to_503(self, tree):
        st = SpatialTree.build(tree, curve="hilbert", engine="batched")
        svc = QueryService(st, window_s=0.0, max_batch=64, max_queue=8,
                           seed=SEED).start()
        srv = ServingServer(svc, port=0).start()
        try:
            svc.queue.drain()
            status, body = post(srv.url, "/lca", {"us": [1], "vs": [2]})
            assert status == 503 and "drain" in body["error"].lower()
        finally:
            srv.shutdown()

    def test_queue_full_maps_to_429(self, tree):
        st = SpatialTree.build(tree, curve="hilbert", engine="batched")
        svc = QueryService(st, window_s=0.05, max_batch=64, max_queue=1,
                           seed=SEED)  # worker not started: first fills it
        srv = ServingServer(svc, port=0).start()
        try:
            svc.submit("lca", {"us": [1], "vs": [2]})
            status, body = post(srv.url, "/lca", {"us": [3], "vs": [4]})
            assert status == 429 and "shed" in body["error"]
        finally:
            svc.start()
            srv.shutdown()
