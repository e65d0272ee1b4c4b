"""Record / replay executors for whole-workload plans.

:func:`record` runs a workload live under a
:class:`~repro.plans.recorder.WorkloadPlanRecorder` and (optionally)
persists the resulting plan; :func:`replay` re-executes a stored plan as a
straight line of trusted :meth:`~repro.machine.SpatialMachine.send_plan`
calls — no tree construction, no host-side algorithm logic, no per-round
Python — and cross-checks the machine's final energy / depth / messages /
steps against the recorded totals before handing back the stored results.

Speculation: plans of workloads with data-dependent phases (random-mate
list ranking) carry :class:`~repro.plans.recorder.EpochOp` markers. The
replay oracle redraws each epoch's coins from the plan's seed (one fresh
generator per recording context, mirroring the live code's
``resolve_rng(seed)`` per ``list_rank`` call) and validates the digest
*before* trusting the rounds recorded after it. A mismatch raises
:class:`~repro.errors.PlanSpeculationError`; with ``fallback=True``,
:func:`replay` then runs the workload live on the same machine geometry,
re-records, re-stores, and reports ``fallback=True`` in the result.

Verification: ``verify=True`` runs the same seed-derived instance on a
fresh scalar-engine machine (the reference oracle) and requires
bit-identical results *and* identical cost totals — the replay-equivalence
property the test battery in ``tests/test_plan_replay.py`` drives across
the whole workload × curve × tree-shape grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import (
    PlanDivergenceError,
    PlanKeyError,
    PlanSpeculationError,
    ValidationError,
)
from repro.machine.machine import SpatialMachine
from repro.machine.routing import charge_sort_network
from repro.plans.recorder import (
    EpochOp,
    PhaseEnterOp,
    PhaseExitOp,
    PlanRefOp,
    StepOp,
    WorkloadPlan,
    WorkloadPlanRecorder,
    coin_digest,
)
from repro.plans.store import PlanStore
from repro.plans.workloads import get_workload, input_digest, tree_digest
from repro.telemetry.spans import SpanTracer
from repro.utils import next_power_of_two, resolve_rng


@dataclass
class RecordResult:
    """Outcome of :func:`record`: the plan plus the live run's outputs."""

    plan: WorkloadPlan
    results: dict[str, np.ndarray]
    result_scalars: dict[str, Any]
    machine: SpatialMachine
    path: Path | None = None


@dataclass
class ReplayResult:
    """Outcome of :func:`replay`."""

    plan: WorkloadPlan
    results: dict[str, np.ndarray]
    result_scalars: dict[str, Any]
    totals: dict[str, int]
    machine: SpatialMachine
    #: the speculative replay failed epoch validation and the workload was
    #: re-executed live (and re-recorded) instead
    fallback: bool = False
    #: a fresh scalar-oracle run confirmed results and totals
    verified: bool = False


class _EpochOracle:
    """Redraw-and-validate oracle for speculative (data-dependent) epochs.

    One fresh ``resolve_rng(seed)`` generator per recording context —
    exactly what the live code does (each ``list_rank`` call resolves its
    own generator from the workload seed), so a valid plan's digests match
    round for round.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rngs: dict[str, np.random.Generator] = {}
        self.validated = 0

    def validate(self, op: EpochOp) -> None:
        rng = self._rngs.get(op.context)
        if rng is None:
            rng = resolve_rng(self.seed)
            self._rngs[op.context] = rng
        coins = rng.random(size=op.k) < op.bias
        if coin_digest(coins) != op.digest:
            raise PlanSpeculationError(
                f"speculative epoch {self.validated} (context {op.context!r}) "
                "diverged from the recorded coin trace; the stored rounds are "
                "not the rounds a live run would take — fall back and re-record"
            )
        self.validated += 1


def _resolve_sort_network(machine: SpatialMachine, op: PlanRefOp) -> None:
    """Re-issue a sort-network send stored by reference.

    The network is a pure function of ``(m, descending)`` and the machine
    placement, so :func:`~repro.machine.routing.charge_sort_network`
    rebuilds the exact arrays the recorder chose not to materialize, through
    the machine's plan cache. The recorded totals double as a consistency
    check on the charged network.
    """
    m, descending = op.params
    if int(m) != next_power_of_two(machine.n):
        raise PlanDivergenceError(
            f"sort-network reference wants m={m} lanes but the replay machine "
            f"has n={machine.n} processors (m must be next_power_of_two(n))"
        )
    net = charge_sort_network(machine, descending=bool(descending))
    if net.messages != op.messages or int(net.msg_dist.sum()) != op.energy:
        raise PlanDivergenceError(
            f"rebuilt sort network disagrees with the recorded reference "
            f"({net.messages} msgs / {int(net.msg_dist.sum())} energy vs "
            f"recorded {op.messages} / {op.energy})"
        )


#: plan-reference resolvers by family; extensible by other cached plans
PLAN_REF_RESOLVERS = {
    "sort_network": _resolve_sort_network,
}


def execute_plan(
    plan: WorkloadPlan,
    machine: SpatialMachine,
    *,
    validate_epochs: bool = True,
) -> dict[str, int]:
    """Drive ``machine`` through every recorded op and check the totals.

    The machine must match the plan's geometry exactly; its costs are
    reset first so the final totals are comparable. Returns the replayed
    totals on success; raises :class:`~repro.errors.PlanSpeculationError`
    on epoch divergence and :class:`~repro.errors.PlanDivergenceError` if
    the replayed totals disagree with the recorded ones.
    """
    if (machine.n, machine.curve.name, machine.side) != (plan.n, plan.curve, plan.side):
        raise PlanKeyError(
            f"replay machine geometry (n={machine.n}, curve={machine.curve.name}, "
            f"side={machine.side}) does not match the plan "
            f"(n={plan.n}, curve={plan.curve}, side={plan.side})"
        )
    machine.reset_costs()
    tracer = next(
        (i for i in getattr(machine, "_instruments", []) if isinstance(i, SpanTracer)),
        None,
    )
    oracle = _EpochOracle(plan.seed)

    def run() -> None:
        stack: list[Any] = []
        try:
            for op in plan.ops:
                if isinstance(op, StepOp):
                    machine.send_plan(
                        op.src, op.dst, None,
                        rounds=op.rounds, dist=op.dist, combiner=op.combiner,
                        exclusive=op.exclusive, src_occ=op.occ, paired=op.paired,
                    )
                elif isinstance(op, PhaseEnterOp):
                    cm = machine.phase(op.name)
                    cm.__enter__()
                    stack.append(cm)
                elif isinstance(op, PhaseExitOp):
                    if not stack:
                        raise PlanDivergenceError(
                            f"unbalanced phase exit {op.name!r} in recorded op stream"
                        )
                    stack.pop().__exit__(None, None, None)
                elif isinstance(op, EpochOp):
                    if validate_epochs:
                        oracle.validate(op)
                elif isinstance(op, PlanRefOp):
                    try:
                        resolver = PLAN_REF_RESOLVERS[op.family]
                    except KeyError:
                        raise PlanDivergenceError(
                            f"no resolver for plan-reference family {op.family!r}"
                        ) from None
                    resolver(machine, op)
        finally:
            while stack:
                stack.pop().__exit__(None, None, None)

    if tracer is not None:
        with tracer.span(
            f"replay:{plan.workload}",
            kind="replay",
            args={"workload": plan.workload, "n": plan.n, "shape": plan.shape},
        ):
            run()
    else:
        run()

    totals = {
        "energy": machine.energy,
        "depth": machine.depth,
        "messages": machine.messages,
        "steps": machine.steps,
    }
    if totals != plan.totals:
        raise PlanDivergenceError(
            f"replayed totals {totals} disagree with recorded {plan.totals} "
            "(corrupt plan or accounting drift)"
        )
    return totals


def record(
    workload: str,
    *,
    n: int,
    seed: int,
    shape: str | None = None,
    curve: str = "hilbert",
    engine: str = "batched",
    mode: str = "auto",
    strict: bool | str = False,
    store: PlanStore | None = None,
) -> RecordResult:
    """Run ``workload`` live, capture it into a plan, optionally persist."""
    spec = get_workload(workload)
    if shape is None:
        shape = spec.default_shape
    prep = spec.prepare(
        shape=shape, n=n, seed=seed, curve=curve, engine=engine,
        mode=mode, strict=strict,
    )
    with WorkloadPlanRecorder(prep.machine) as rec:
        results, scalars = prep.execute()
    plan = rec.build(
        workload=workload,
        shape=shape,
        seed=seed,
        mode=prep.mode,
        tree_digest=tree_digest(prep.tree),
        input_digest=input_digest(prep.inputs, workload=workload, shape=shape),
        results=results,
        result_scalars=scalars,
    )
    path = store.put(plan) if store is not None else None
    return RecordResult(
        plan=plan, results=results, result_scalars=scalars,
        machine=prep.machine, path=path,
    )


def verify_against_oracle(
    plan: WorkloadPlan, *, strict: bool | str = False
) -> dict[str, np.ndarray]:
    """Re-run the plan's instance on a fresh scalar machine and compare.

    The oracle run regenerates the tree and inputs from the plan's
    ``(workload, shape, n, seed, curve)`` and requires the digests to
    match (:class:`~repro.errors.PlanKeyError` otherwise), then demands
    bit-identical results and identical energy / depth / messages / steps
    (:class:`~repro.errors.PlanDivergenceError` otherwise).
    """
    spec = get_workload(plan.workload)
    prep = spec.prepare(
        shape=plan.shape, n=plan.n, seed=plan.seed, curve=plan.curve,
        engine="scalar", mode=plan.mode if plan.mode != "-" else "auto",
        strict=strict,
    )
    if tree_digest(prep.tree) != plan.tree_digest:
        raise PlanKeyError(
            f"regenerated tree digest does not match the plan's "
            f"({tree_digest(prep.tree)[:12]} vs {plan.tree_digest[:12]})"
        )
    digest = input_digest(prep.inputs, workload=plan.workload, shape=plan.shape)
    if digest != plan.input_digest:
        raise PlanKeyError(
            f"regenerated input digest does not match the plan's "
            f"({digest[:12]} vs {plan.input_digest[:12]})"
        )
    results, _ = prep.execute()
    m = prep.machine
    oracle_totals = {
        "energy": m.energy,
        "depth": m.depth,
        "messages": m.messages,
        "steps": m.steps,
    }
    if oracle_totals != plan.totals:
        raise PlanDivergenceError(
            f"scalar-oracle totals {oracle_totals} disagree with the plan's "
            f"{plan.totals}"
        )
    if sorted(results) != sorted(plan.results):
        raise PlanDivergenceError(
            f"oracle produced results {sorted(results)}, plan stored "
            f"{sorted(plan.results)}"
        )
    for name, arr in results.items():
        if not np.array_equal(np.asarray(arr), plan.results[name]):
            raise PlanDivergenceError(
                f"oracle result {name!r} differs from the stored result"
            )
    return results


def replay(
    plan: WorkloadPlan | tuple[str, int, str, str],
    *,
    store: PlanStore | None = None,
    engine: str = "batched",
    strict: bool | str = False,
    verify: bool = False,
    fallback: bool = True,
    machine: SpatialMachine | None = None,
) -> ReplayResult:
    """Replay a plan (or a store key) on a fresh machine.

    On :class:`~repro.errors.PlanSpeculationError` with ``fallback=True``
    the workload is re-executed live (same geometry, same engine),
    re-recorded, and — when a ``store`` is given — re-stored over the
    stale artifact. ``verify=True`` additionally runs the scalar oracle
    (:func:`verify_against_oracle`) on whichever plan is returned.
    """
    if isinstance(plan, tuple):
        if store is None:
            raise ValidationError("replaying by key needs a PlanStore")
        plan = store.get(plan)
    if machine is None:
        machine = SpatialMachine(
            plan.n, curve=plan.curve, side=plan.side, engine=engine, strict=strict
        )
    try:
        totals = execute_plan(plan, machine)
    except PlanSpeculationError:
        if not fallback:
            raise
        rec = record(
            plan.workload, n=plan.n, seed=plan.seed, shape=plan.shape,
            curve=plan.curve, engine="batched", mode=plan.mode
            if plan.mode != "-" else "auto", strict=strict, store=store,
        )
        if verify:
            verify_against_oracle(rec.plan, strict=strict)
        return ReplayResult(
            plan=rec.plan,
            results=rec.results,
            result_scalars=rec.result_scalars,
            totals=dict(rec.plan.totals),
            machine=rec.machine,
            fallback=True,
            verified=verify,
        )
    if verify:
        verify_against_oracle(plan, strict=strict)
    return ReplayResult(
        plan=plan,
        results=dict(plan.results),
        result_scalars=dict(plan.result_scalars),
        totals=totals,
        machine=machine,
        fallback=False,
        verified=verify,
    )
