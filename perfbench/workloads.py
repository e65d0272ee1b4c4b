"""The benchmark's four workloads: instance, inputs, one op, its check.

Each workload pins its model instance — the tree and the algorithm's coin
seed are those of experiments E14 and E15 — so energy and depth are the
same on every op of every run.  The benchmark seed picks what a user would
supply: the treefix payload, and the served query pool and arrival order.
The §IV layout pipeline takes no input besides the tree, so ``layout``
runs the same instance whatever the seed.

``run.py`` drives a closed-loop workload as: ``build()`` a fresh instance,
then per op ``before_op()`` (untimed), ``op()`` (timed), ``check()`` and
``costs()`` (untimed).  ``serve`` is driven by its own open loop.
"""

from __future__ import annotations

import contextlib
import json
import time
from pathlib import Path

import numpy as np

import repro.plans as plans
from repro.analysis.report import RunRecorder, RunReport
from repro.layout.embedding import TreeLayout
from repro.layout.orders import is_light_first
from repro.machine.machine import SpatialMachine
from repro.machine.tracing import attach_tracer
from repro.serving import boot_service
from repro.spatial import SpatialTree, lca_batch
from repro.spatial.treefix import treefix_sum
from repro.telemetry import DivergenceWatchdog, SpanTracer
from repro.trees.treefix import bottom_up_treefix

#: E14's instance seed: its prufer trees and every coin flip derive from it
E14_SEED = 10
#: E15's served tree
E15_SHAPE, E15_N, E15_SEED = "random", 4096, 15


def _payload(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng([seed, 0x7F1]).integers(0, 1 << 20, size=n, dtype=np.int64)


class Treefix:
    """Closed loop of bottom-up ``treefix_sum`` on E14's instance (direct
    mode), the same input every op and no instrument attached."""

    name = "treefix"
    n = 1 << 16
    setups = 5
    #: fixed tail percentile, chosen so a run has at least 10 ops beyond it
    tail_q = 0.70
    #: E14's pinned energy and depth for this instance (None: not pinned)
    pinned = (4044932, 1435)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.values = _payload(seed, self.n)
        tree = plans.make_tree("prufer", self.n, E14_SEED)
        self.expected = bottom_up_treefix(tree, self.values)
        self.st: SpatialTree | None = None
        #: set while traced: called with the instruments an op attaches
        self.instrument_hook = None
        #: set while traced: the span recorder
        self.rec = None

    def build(self) -> None:
        tree = plans.make_tree("prufer", self.n, E14_SEED)
        layout = TreeLayout.build(tree, order="light_first", curve="hilbert")
        self.st = SpatialTree(layout, machine=layout.machine(engine="batched"), mode="direct")

    @property
    def machine(self) -> SpatialMachine:
        return self.st.machine

    def before_op(self) -> None:
        self.st.machine.reset_costs()

    def op(self) -> np.ndarray:
        return treefix_sum(self.st, self.values, seed=E14_SEED)

    def check(self, answer) -> str | None:
        if not np.array_equal(answer, self.expected):
            return "treefix answers differ from bottom_up_treefix"
        return None

    def corrupt(self, answer):
        bad = np.array(answer, copy=True)
        bad[0] += 1
        return bad

    def costs(self) -> dict:
        m = self.st.machine
        return {"energy": m.energy, "depth": m.depth, "machine.messages": m.messages,
                "machine.steps": m.steps,
                "spatial.contraction_rounds": self.st.last_contraction_rounds}


class TreefixObserved(Treefix):
    """The treefix op at n=2^14 under a fresh copy of the observer set
    ``repro treefix --report … --span-log …`` attaches, building the
    ``RunReport`` and its JSON at the end of every op."""

    name = "treefix_observed"
    n = 1 << 14
    tail_q = 0.60
    pinned = None

    def before_op(self) -> None:
        self.observers = None  # the previous op's observers can go
        super().before_op()

    def op(self) -> np.ndarray:
        m = self.st.machine
        self.errors_before = len(m.instrument_errors)
        recorder = m.attach(RunRecorder(histograms=True))
        tracer = attach_tracer(m)
        spans = m.attach(SpanTracer(workload="treefix"))
        watchdog = m.attach(DivergenceWatchdog(sample=4, tracer=spans))
        if self.instrument_hook is not None:
            self.instrument_hook(m.instruments)
        try:
            try:
                out = treefix_sum(self.st, self.values, seed=E14_SEED)
            finally:
                m.detach(spans)
                m.detach(watchdog)
            timing = self.rec.span("instrumentation.report") if self.rec else contextlib.nullcontext()
            with timing:
                report = RunReport.from_machine(m, recorder=recorder, meta={"command": "treefix"})
                self.report_bytes = len(json.dumps(report.data))
        finally:
            m.tracer = None
            m.detach(recorder)
        self.observers = (recorder, tracer, spans, watchdog, report)
        return out

    def check(self, answer) -> str | None:
        problem = super().check(answer)
        if problem is not None:
            return problem
        m = self.st.machine
        errors = m.instrument_errors[self.errors_before:]
        if errors:
            inst, hook, exc = errors[0]
            return (f"{len(errors)} observer hook call(s) raised, the first "
                    f"{type(inst).__name__}.{hook}: {exc!r}")
        # every observer must have seen every message the op charged
        recorder, tracer, spans, watchdog, report = self.observers
        root = next((s for s in reversed(spans.completed) if s.kind == "workload"), None)
        seen = {
            "RunRecorder": (sum(r["energy"] for r in recorder.steps),
                            sum(r["messages"] for r in recorder.steps)),
            "SpanTracer": (root.energy, root.messages) if root else (0, 0),
            "congestion tracer": (m.energy, tracer.messages),
        }
        for name, costs in seen.items():
            if costs != (m.energy, m.messages):
                return (f"{name} saw energy/messages {costs}, the machine charged "
                        f"{(m.energy, m.messages)}")
        if len(report.data.get("steps", ())) != len(recorder.steps) or not self.report_bytes:
            return "RunReport does not hold the recorded steps"
        if watchdog.checks_total == 0:
            return "divergence watchdog checked no phase"
        if watchdog.alerts_total:
            return f"divergence watchdog raised {watchdog.alerts_total} alerts"
        return None


class Layout:
    """Closed loop of §IV ``create_light_first_layout`` on E14's prufer
    tree at n=2^15, run through the plan compiler's ``PreparedRun``, which
    reuses one machine across ops."""

    name = "layout"
    n = 1 << 15
    setups = 5
    tail_q = 0.70
    pinned = None

    def __init__(self, seed: int, workdir: Path) -> None:
        self.reference_tree = plans.make_tree("prufer", self.n, E14_SEED)
        self.first_position: np.ndarray | None = None
        self.run: plans.PreparedRun | None = None
        self.list_rank_rounds = 0
        self.instrument_hook = None
        self.rec = None

    def build(self) -> None:
        self.run = plans.get_workload("layout_creation").prepare(
            shape="prufer", n=self.n, seed=E14_SEED, engine="batched")

    @property
    def machine(self) -> SpatialMachine:
        return self.run.machine

    def before_op(self) -> None:
        """Nothing: the pipeline resets the reused machine's costs itself."""

    def op(self) -> np.ndarray:
        arrays, scalars = self.run.execute()
        self.list_rank_rounds = int(sum(scalars["list_rank_rounds"]))
        return arrays["position"]

    def check(self, position) -> str | None:
        position = np.asarray(position)
        if self.first_position is not None:
            if np.array_equal(position, self.first_position):
                return None
            return "layout positions differ from the first op's"
        if not np.array_equal(np.sort(position), np.arange(self.n)):
            return "layout positions are not a permutation"
        order = np.empty(self.n, dtype=np.int64)
        order[position] = np.arange(self.n)
        if not is_light_first(self.reference_tree, order):
            return "layout is not light-first"
        self.first_position = position.copy()
        return None

    def corrupt(self, position):
        bad = np.array(position, copy=True)
        bad[[0, 1]] = bad[[1, 0]]
        return bad

    def costs(self) -> dict:
        m = self.run.machine
        return {"energy": m.energy, "depth": m.depth, "machine.messages": m.messages,
                "machine.steps": m.steps, "spatial.list_rank_rounds": self.list_rank_rounds}


class Serve:
    """Open loop of 32-query LCA batches at a fixed rate into an in-process
    ``QueryService`` warm-booted on E15's tree (virtual mode, 2 ms window)."""

    name = "serve"
    setups = 11
    tail_q = 0.99
    #: offered load, requests per second (≈8x what solo windows carry)
    rate = 300.0
    batch = 32
    #: batches are drawn with replacement from a pool this large, so some
    #: windows carry repeated pairs
    pool = 128
    window_s = 0.002
    #: the open loop runs in slices this long, with a calibration sample
    #: between slices (the traced run traces every other slice)
    slice_s = 1.0

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 0x5E7])
        self.pool_us = rng.integers(0, E15_N, size=(self.pool, self.batch), dtype=np.int64)
        self.pool_vs = rng.integers(0, E15_N, size=(self.pool, self.batch), dtype=np.int64)
        self.arrivals = rng.integers(0, self.pool, size=1 << 16)
        self.store_dir = Path(workdir) / "plans"
        # seed the plan store (untimed) so every timed boot is warm
        self._boot().service.drain()
        # the reference: one solo lca_batch on an identically prepared tree
        st = SpatialTree.build(plans.make_tree(E15_SHAPE, E15_N, E15_SEED),
                               curve="hilbert", engine="batched")
        prepared = st.prepare_lca(seed=E15_SEED)
        flat = lca_batch(st, self.pool_us.ravel(), self.pool_vs.ravel(),
                         seed=E15_SEED, prepared=prepared)
        self.expected = np.asarray(flat).reshape(self.pool, self.batch)

    def _boot(self):
        # a fresh store object per boot: a restarted server reads the plan from disk
        return boot_service(
            shape=E15_SHAPE, n=E15_N, seed=E15_SEED, curve="hilbert", engine="batched",
            warm=True, store=plans.PlanStore(self.store_dir), window_s=self.window_s,
        )

    def boot(self):
        """One set-up: warm boot up to the first answer; returns
        ``(booted, seconds, first answer)``."""
        t0 = time.perf_counter()
        booted = self._boot()
        answer = booted.service.lca(self.pool_us[0], self.pool_vs[0], timeout=60)
        return booted, time.perf_counter() - t0, answer

    def check_boot(self, booted, answer) -> str | None:
        if booted.boot.mode != "warm":
            return f"boot took the {booted.boot.mode} path, not warm"
        if not np.array_equal(answer, self.expected[0]):
            return "first answer differs from solo lca_batch"
        return None


WORKLOADS = {w.name: w for w in (Treefix, TreefixObserved, Layout, Serve)}
