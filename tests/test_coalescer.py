"""Edge-case coverage for the cross-user LCA coalescer.

The pure window algebra (``plan_window`` / ``scatter_answers``) and the
admission-controlled :class:`WindowedQueue` are what stand between many
concurrent clients and the single machine-owning worker, so the corners
get explicit tests: empty windows, single-query windows, duplicate
``(u, v)`` pairs across users (one answer fanned out), oversized merged
batches splitting into chunks, and requests racing the shutdown drain.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.errors import (
    ServeDrainingError,
    ServeQueueFullError,
    ValidationError,
)
from repro.serving import (
    PendingRequest,
    WindowedQueue,
    plan_window,
    scatter_answers,
)


def arr(*xs):
    return np.asarray(xs, dtype=np.int64)


# --------------------------------------------------------------------------- #
# plan_window / scatter_answers — the pure algebra
# --------------------------------------------------------------------------- #


class TestPlanWindow:
    def test_empty_window_flush(self):
        plan = plan_window([], max_batch=8)
        assert plan.num_unique == 0
        assert plan.num_chunks == 0
        assert plan.total_queries == 0
        assert list(plan.chunks()) == []
        assert scatter_answers(plan, np.zeros(0, dtype=np.int64)) == []

    def test_all_empty_requests_still_get_answers(self):
        plan = plan_window([(arr(), arr()), (arr(), arr())], max_batch=8)
        assert plan.num_unique == 0
        out = scatter_answers(plan, np.zeros(0, dtype=np.int64))
        assert len(out) == 2 and all(len(a) == 0 for a in out)

    def test_single_query_window(self):
        plan = plan_window([(arr(3), arr(7))], max_batch=8)
        assert plan.num_unique == 1 and plan.num_chunks == 1
        (us, vs), = plan.chunks()
        assert us.tolist() == [3] and vs.tolist() == [7]
        out = scatter_answers(plan, arr(1))
        assert len(out) == 1 and out[0].tolist() == [1]

    def test_duplicate_pairs_across_users_share_one_answer(self):
        # user A asks (3,7) and (5,5); user B asks (7,3) — LCA is
        # symmetric so B's query is A's first one, answered once
        plan = plan_window(
            [(arr(3, 5), arr(7, 5)), (arr(7), arr(3))], max_batch=8
        )
        assert plan.total_queries == 3
        assert plan.num_unique == 2
        assert plan.duplicates_saved == 1
        answers = arr(30, 50)  # one answer per unique canonical pair
        out = scatter_answers(plan, answers)
        assert out[0].tolist() == [30, 50]
        assert out[1].tolist() == [30]  # fan-out of the shared answer

    def test_canonicalization_does_not_conflate_distinct_pairs(self):
        plan = plan_window([(arr(1, 2), arr(2, 1))], max_batch=8)
        assert plan.num_unique == 1  # (1,2) == (2,1)
        plan = plan_window([(arr(1, 1), arr(2, 3))], max_batch=8)
        assert plan.num_unique == 2  # (1,2) != (1,3)

    def test_oversized_batch_splits_into_chunks(self):
        us = np.arange(10, dtype=np.int64)
        vs = np.arange(10, 20, dtype=np.int64)
        plan = plan_window([(us, vs)], max_batch=4)
        assert plan.num_unique == 10
        assert plan.num_chunks == 3  # 4 + 4 + 2
        sizes = [len(u) for u, _ in plan.chunks()]
        assert sizes == [4, 4, 2]
        # chunk concatenation covers every unique pair exactly once
        cat_u = np.concatenate([u for u, _ in plan.chunks()])
        assert np.array_equal(cat_u, plan.us)

    def test_scatter_preserves_request_order_and_lengths(self):
        rng = np.random.default_rng(0)
        queries = [
            (rng.integers(0, 50, size=k), rng.integers(0, 50, size=k))
            for k in (5, 0, 3, 17)
        ]
        plan = plan_window(queries, max_batch=6)
        # identity "answers": answer for pair i is i
        out = scatter_answers(plan, np.arange(plan.num_unique))
        assert [len(a) for a in out] == [5, 0, 3, 17]
        # every query's answer is the index of its canonical pair
        flat = np.concatenate(out)
        assert np.array_equal(flat, plan.inverse)

    def test_rejects_bad_max_batch_and_wrong_answer_count(self):
        with pytest.raises(ValidationError):
            plan_window([], max_batch=0)
        plan = plan_window([(arr(1), arr(2))], max_batch=8)
        with pytest.raises(ValidationError):
            scatter_answers(plan, arr(1, 2))


# --------------------------------------------------------------------------- #
# WindowedQueue — admission control and window collection
# --------------------------------------------------------------------------- #


def lca_req(*pairs):
    us, vs = zip(*pairs)
    return PendingRequest(op="lca", payload={"us": arr(*us), "vs": arr(*vs)})


class TestWindowedQueue:
    def test_window_collects_queued_requests(self):
        q = WindowedQueue(window_s=0.05, max_batch=100, max_queue=10)
        q.submit(lca_req((1, 2)))
        q.submit(lca_req((3, 4)))
        kind, window = q.next_work()
        assert kind == "lca" and len(window) == 2

    def test_zero_window_serves_one_request_per_window(self):
        q = WindowedQueue(window_s=0.0, max_batch=100, max_queue=10)
        q.submit(lca_req((1, 2)))
        q.submit(lca_req((3, 4)))
        kind, window = q.next_work()
        assert kind == "lca" and len(window) == 1

    def test_max_batch_closes_window_early(self):
        q = WindowedQueue(window_s=10.0, max_batch=2, max_queue=10)
        for _ in range(3):
            q.submit(lca_req((1, 2)))
        t0 = time.monotonic()
        kind, window = q.next_work()
        assert time.monotonic() - t0 < q.window_s / 10  # closed by size, not time
        assert len(window) == 2  # third stays queued for the next window
        q.drain()  # flushes the leftover at once instead of waiting out the window
        kind, window = q.next_work()
        assert len(window) == 1

    def test_misc_requests_take_priority_and_run_solo(self):
        q = WindowedQueue(window_s=0.05, max_batch=100, max_queue=10)
        q.submit(lca_req((1, 2)))
        q.submit(PendingRequest(op="treefix", payload={"values": arr(1)}))
        kind, window = q.next_work()
        assert kind == "misc" and len(window) == 1
        kind, window = q.next_work()
        assert kind == "lca"

    def test_queue_full_sheds(self):
        q = WindowedQueue(window_s=0.05, max_batch=100, max_queue=2)
        q.submit(lca_req((1, 2)))
        q.submit(lca_req((3, 4)))
        with pytest.raises(ServeQueueFullError):
            q.submit(lca_req((5, 6)))
        assert q.shed_total == 1

    def test_draining_rejects_new_but_flushes_queued(self):
        q = WindowedQueue(window_s=0.05, max_batch=100, max_queue=10)
        q.submit(lca_req((1, 2)))
        q.drain()
        with pytest.raises(ServeDrainingError):
            q.submit(lca_req((3, 4)))
        assert q.rejected_draining_total == 1
        kind, window = q.next_work()  # the admitted request still flows out
        assert kind == "lca" and len(window) == 1
        assert q.next_work() is None  # drained and empty

    def test_requests_racing_shutdown_drain(self):
        """Submitters racing drain() either get served or get a clean 503
        — no request is silently dropped."""
        q = WindowedQueue(window_s=0.001, max_batch=100, max_queue=10_000)
        served: list[PendingRequest] = []
        accepted, rejected = [], []

        def worker():
            while True:
                work = q.next_work(poll_s=0.005)
                if work is None:
                    return
                for req in work[1]:
                    req.finish(result="ok")
                    served.append(req)

        def submitter(i):
            req = lca_req((i, i + 1))
            try:
                q.submit(req)
                accepted.append(req)
            except ServeDrainingError:
                rejected.append(req)

        w = threading.Thread(target=worker)
        w.start()
        threads = [
            threading.Thread(target=submitter, args=(i,)) for i in range(50)
        ]
        for i, t in enumerate(threads):
            t.start()
            if i == 20:
                q.drain()  # race the drain into the middle of the submits
        for t in threads:
            t.join()
        w.join(timeout=5)
        assert not w.is_alive()
        assert len(accepted) + len(rejected) == 50
        # every accepted request was served; none lost in the race
        for req in accepted:
            assert req.done.wait(1) and req.result == "ok"
        assert len(served) == len(accepted)
        assert q.rejected_draining_total == len(rejected)

    def test_pending_request_timeout_and_error_propagation(self):
        req = lca_req((1, 2))
        with pytest.raises(TimeoutError):
            req.wait(timeout=0.01)
        req.finish(error=ValidationError("boom"))
        with pytest.raises(ValidationError, match="boom"):
            req.wait(timeout=0.01)
        assert req.latency_s > 0

    def test_flush_errors_fails_everything_queued(self):
        q = WindowedQueue(window_s=0.05, max_batch=100, max_queue=10)
        reqs = [lca_req((i, i + 1)) for i in range(3)]
        for r in reqs:
            q.submit(r)
        n = q.flush_errors(RuntimeError("worker died"))
        assert n == 3 and len(q) == 0
        for r in reqs:
            with pytest.raises(RuntimeError):
                r.wait(timeout=0.01)

    def test_window_timing_closes_by_deadline(self):
        q = WindowedQueue(window_s=0.03, max_batch=1000, max_queue=100)
        q.submit(lca_req((1, 2)))
        t0 = time.monotonic()
        kind, window = q.next_work()
        elapsed = time.monotonic() - t0
        assert kind == "lca" and len(window) == 1
        assert elapsed < 1.0  # closed by the window deadline, not poll loops
