"""Mutation battery for the divergence watchdog.

Each mutant is a plausible bug in one clock kernel of
:mod:`repro.machine.machine`, in the backward pass that computes a
plan's ``lift`` (:func:`repro.machine.collectives.lift_through`), or in a
caller's trusted hints to ``send_plan``/``send_batch``. A kernel mutant
is patched into every ``repro`` module that bound the kernel — the
machine's dispatch and the watchdog's own replay alike — exactly as a
real bug would reach them.
Every workload then runs under ``DivergenceWatchdog(sample=1)`` on both
engines, and wherever the mutant moved the live run's depth or energy away
from the unmutated run, the watchdog must have raised an alert.

``python tests/test_watchdog_mutants.py`` prints the mutant table
(``docs/ANALYSIS.md``, "Divergence watchdog mutant table") for whichever
``repro`` is on the import path.
"""

from __future__ import annotations

import sys
from collections.abc import Callable

import numpy as np
import pytest

import repro.machine.collectives as collectives
import repro.machine.machine as mm
from repro.machine import SpatialMachine
from repro.machine.instrumentation import StepLog
from repro.machine.routing import bitonic_sort
from repro.spatial import SpatialTree, lca_batch, treefix_sum
from repro.spatial.layout_creation import create_light_first_layout
from repro.telemetry import DivergenceWatchdog
from repro.trees import prufer_random_tree

N = 512
#: a sort on a machine that is not a power of two keeps the paired kernel
N_ODD = 500
SEED = 3
ENGINES = ("scalar", "batched")

# --------------------------------------------------------------------- #
# kernel mutants: modified copies of the machine's clock kernels
# --------------------------------------------------------------------- #


def _small_arrival_order(clock, src, dst):
    """``_advance_round_small`` serializing receives in arrival order
    instead of chain order (the ``ms.sort()`` is lost)."""
    occ_count: dict[int, int] = {}
    chain: list[int] = []
    for s in src.tolist():
        o = occ_count.get(s, 0)
        occ_count[s] = o + 1
        chain.append(int(clock[s]) + o + 1)
    for s, c in occ_count.items():
        clock[s] += c
    groups: dict[int, list[int]] = {}
    for d, m in zip(dst.tolist(), chain):
        groups.setdefault(d, []).append(m)
    dst_max = 0
    for d, ms in groups.items():
        last = len(ms) - 1
        gmax = max(m + last - j for j, m in enumerate(ms))
        upd = max(int(clock[d]) + len(ms), gmax)
        clock[d] = upd
        dst_max = max(dst_max, upd)
    return max(max(int(clock[s]) for s in occ_count), dst_max)


def _exclusive_no_receive_slot(clock, src, dst):
    """``_advance_round_exclusive`` forgetting the receiver's own slot."""
    chain = clock[src] + 1
    clock[src] = chain
    upd = np.maximum(clock[dst], chain)
    clock[dst] = upd
    return max(int(chain.max()), int(upd.max()))


def _occ_ignores_occurrence(clock, src, dst, occ):
    """``_advance_round_occ`` sending a sender's second message in the
    same slot as its first."""
    chain = clock[src] + 1
    first = occ == 0
    clock[src[first]] += 1
    clock[src[~first]] += 1
    upd = np.maximum(clock[dst] + 1, chain)
    clock[dst] = upd
    return max(int(chain.max()), int(upd.max()))


def _paired_off_by_one(clock, src, dst):
    """``_advance_rounds_paired`` charging one round of the pair, not two."""
    m = np.maximum(clock[src], clock[dst])
    m += 1
    clock[src] = m
    clock[dst] = m
    return int(m.max())


_ADVANCE_ROUND = mm._advance_round


def _general_late_receive(clock, src, dst, scratch, ar):
    """``_advance_round`` landing every receive one tick late."""
    _ADVANCE_ROUND(clock, src, dst, scratch, ar)
    clock[dst] += 1
    return max(int(clock[src].max()), int(clock[dst].max()))


def _reference_fancy_add(clock, src, dst):
    """``advance_clocks`` with ``np.add.at(clock, src, 1)`` written as the
    buffered ``clock[src] += 1``: a sender of k messages advances once."""
    order = np.argsort(src, kind="stable")
    sorted_src = src[order]
    boundaries = np.flatnonzero(np.diff(sorted_src)) + 1
    group_starts = np.concatenate([[0], boundaries])
    group_lens = np.diff(np.concatenate([group_starts, [len(sorted_src)]]))
    occ = np.empty(len(src), dtype=np.int64)
    occ[order] = np.arange(len(sorted_src)) - np.repeat(group_starts, group_lens)
    chain = clock[src] + occ + 1
    clock[src] += 1
    rorder = np.lexsort((chain, dst))
    rd_s = dst[rorder]
    m_s = chain[rorder]
    rb = np.flatnonzero(np.diff(rd_s)) + 1
    rstarts = np.concatenate([[0], rb])
    rlens = np.diff(np.concatenate([rstarts, [len(rd_s)]]))
    remaining = np.repeat(rlens, rlens) - 1 - (np.arange(len(rd_s)) - np.repeat(rstarts, rlens))
    group_max = np.maximum.reduceat(m_s + remaining, rstarts)
    dst_unique = rd_s[rstarts]
    clock[dst_unique] = np.maximum(clock[dst_unique] + rlens, group_max)
    return mm.ClockAdvance(
        src_count=int(len(group_starts)),
        dst_count=int(len(dst_unique)),
        max_clock=max(int(clock[src].max()), int(clock[dst_unique].max())),
    )


_LIFT_THROUGH = collectives.lift_through


def _lift_ignores_occurrence(src, dst, rounds, after, occ=None):
    """``lift_through`` treating every round as EREW: a sender's second
    message is carried back as if it left in its first slot."""
    return _LIFT_THROUGH(src, dst, rounds, after)


#: mutant -> (module that defines the function, its name, the mutant)
KERNEL_MUTANTS: dict[str, tuple[object, str, Callable]] = {
    "small_receive_order": (mm, "_advance_round_small", _small_arrival_order),
    "exclusive_receive_slot": (mm, "_advance_round_exclusive", _exclusive_no_receive_slot),
    "occ_ignores_occurrence": (mm, "_advance_round_occ", _occ_ignores_occurrence),
    "paired_off_by_one": (mm, "_advance_rounds_paired", _paired_off_by_one),
    "general_late_receive": (mm, "_advance_round", _general_late_receive),
    "reference_fancy_add": (mm, "advance_clocks", _reference_fancy_add),
    "layer_lift_ignores_occurrence": (collectives, "lift_through", _lift_ignores_occurrence),
}

# --------------------------------------------------------------------- #
# caller mutants: wrong trusted hints passed into the machine
# --------------------------------------------------------------------- #

_SEND_PLAN = SpatialMachine.send_plan
_SEND_BATCH = SpatialMachine.send_batch


def _claims_exclusive(self, *args, **kwargs):
    """Every ``send_plan`` caller claims EREW rounds, even the virtual
    broadcast relay, whose senders send twice. (The LCA sweep's senders
    send twice too, but its layers carry a ``lift``, which the batched
    engine charges without a clock kernel.)"""
    kwargs["exclusive"] = True
    return _SEND_PLAN(self, *args, **kwargs)


def _dist_plus_one(original):
    def mutant(self, *args, **kwargs):
        if kwargs.get("dist") is not None:
            kwargs["dist"] = kwargs["dist"] + 1
        return original(self, *args, **kwargs)

    return mutant


def _lift_plus_one(self, *args, **kwargs):
    """Every ``lift`` passed to ``send_plan`` one too large: a barrier, an
    LCA layer or a power-of-two sort network leaves every clock one tick
    late. The scalar engine only reads whether ``lift`` is given, so its
    runs do not move."""
    if kwargs.get("lift") is not None:
        kwargs["lift"] = kwargs["lift"] + 1
    return _SEND_PLAN(self, *args, **kwargs)


CALLER_MUTANTS: dict[str, dict[str, Callable]] = {
    "send_plan_false_exclusive": {"send_plan": _claims_exclusive},
    "dist_off_by_one": {
        "send_plan": _dist_plus_one(_SEND_PLAN),
        "send_batch": _dist_plus_one(_SEND_BATCH),
    },
    "barrier_lift_off_by_one": {"send_plan": _lift_plus_one},
}

MUTANTS = (*KERNEL_MUTANTS, *CALLER_MUTANTS)


def apply_mutant(monkeypatch, name: str) -> None:
    """Patch mutant ``name`` in wherever a real bug would reach."""
    if name in CALLER_MUTANTS:
        for attr, fn in CALLER_MUTANTS[name].items():
            monkeypatch.setattr(SpatialMachine, attr, fn)
        return
    home, kernel, fn = KERNEL_MUTANTS[name]
    original = getattr(home, kernel)
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] == "repro" and getattr(module, kernel, None) is original:
            monkeypatch.setattr(module, kernel, fn)


# --------------------------------------------------------------------- #
# workloads: each attaches the watchdog before anything is charged
# --------------------------------------------------------------------- #


def _watched(machine) -> DivergenceWatchdog:
    return machine.attach(DivergenceWatchdog(sample=1))


def _treefix(engine: str, mode: str):
    tree = prufer_random_tree(N, seed=SEED)
    st = SpatialTree.build(tree, mode=mode, engine=engine)
    wd = _watched(st.machine)
    values = np.random.default_rng(SEED).integers(0, 100, size=tree.n)
    treefix_sum(st, values, seed=SEED)
    return st.machine, wd


def _lca(engine: str):
    tree = prufer_random_tree(N, seed=SEED)
    st = SpatialTree.build(tree, engine=engine)
    wd = _watched(st.machine)
    rng = np.random.default_rng(SEED)
    lca_batch(st, rng.permutation(tree.n), rng.permutation(tree.n), seed=SEED)
    return st.machine, wd


def _sort(engine: str, n: int):
    m = SpatialMachine(n, engine=engine)
    wd = _watched(m)
    keys = np.random.default_rng(SEED).integers(0, 1000, size=n).astype(np.int64)
    with m.phase("bitonic_sort"):
        bitonic_sort(m, keys)
    return m, wd


def _layout(engine: str):
    tree = prufer_random_tree(N, seed=SEED)
    m = SpatialMachine(tree.n, engine=engine)
    wd = _watched(m)
    create_light_first_layout(tree, seed=SEED, engine=engine, machine=m)
    return m, wd


def mixed_rounds() -> tuple[np.ndarray, np.ndarray, list[int]]:
    """One unhinted batch of three dependency rounds on 64 processors:

    * 24 messages with distinct endpoints (the general kernel's round);
    * 20 messages, two per receiver (a multi-receive general round);
    * 3 messages chained on the first round's receivers, where processor
      58 receives its later-departing message first (a small round whose
      receive order matters).
    """
    rounds = [
        (np.arange(24), np.arange(24, 48)),
        (np.arange(20), 48 + np.arange(20) // 2),
        (np.array([24, 24, 25]), np.array([59, 58, 58])),
    ]
    src = np.concatenate([r[0] for r in rounds])
    dst = np.concatenate([r[1] for r in rounds])
    return src, dst, [0, 24, 44, 47]


def _mixed(engine: str):
    m = SpatialMachine(64, engine=engine)
    wd = _watched(m)
    src, dst, rounds = mixed_rounds()
    with m.phase("mixed"):
        m.send_batch(src, dst, rounds=rounds)
    return m, wd


WORKLOADS: dict[str, Callable] = {
    "treefix_direct": lambda engine: _treefix(engine, "direct"),
    "treefix_virtual": lambda engine: _treefix(engine, "virtual"),
    "lca": _lca,
    "bitonic_sort": lambda engine: _sort(engine, N),
    "bitonic_sort_odd": lambda engine: _sort(engine, N_ODD),
    "layout_create": _layout,
    "mixed_phase": _mixed,
}


def run(workload: str, engine: str) -> dict:
    machine, wd = WORKLOADS[workload](engine)
    return {
        "energy": machine.energy,
        "depth": machine.depth,
        "checks": wd.checks_total,
        "alerts": wd.alerts_total,
        "findings": {f.dimension for f in wd.findings},
    }


_BASELINES: dict[tuple[str, str], dict] = {}


def baseline(workload: str, engine: str) -> dict:
    key = (workload, engine)
    if key not in _BASELINES:
        _BASELINES[key] = run(workload, engine)
    return _BASELINES[key]


# --------------------------------------------------------------------- #
# the battery
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_unmutated_runs_are_clean(workload, engine):
    base = baseline(workload, engine)
    assert base["checks"] > 0
    assert base["alerts"] == 0


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("mutant", MUTANTS)
def test_mutant_that_moves_the_run_raises_an_alert(mutant, workload, engine, monkeypatch):
    base = baseline(workload, engine)
    apply_mutant(monkeypatch, mutant)
    got = run(workload, engine)
    if (got["energy"], got["depth"]) != (base["energy"], base["depth"]):
        assert got["alerts"] > 0, (mutant, workload, engine, base, got)


#: a run each mutant moves, so no mutant is vacuous
WITNESS = {
    "small_receive_order": ("mixed_phase", "batched"),
    "exclusive_receive_slot": ("treefix_direct", "batched"),
    "occ_ignores_occurrence": ("treefix_virtual", "batched"),
    "paired_off_by_one": ("bitonic_sort_odd", "batched"),
    "general_late_receive": ("layout_create", "batched"),
    "reference_fancy_add": ("treefix_virtual", "scalar"),
    "send_plan_false_exclusive": ("treefix_virtual", "batched"),
    "dist_off_by_one": ("treefix_direct", "batched"),
    "barrier_lift_off_by_one": ("lca", "batched"),
    "layer_lift_ignores_occurrence": ("lca", "batched"),
}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_every_mutant_moves_its_witness_run(mutant, monkeypatch):
    workload, engine = WITNESS[mutant]
    base = baseline(workload, engine)
    apply_mutant(monkeypatch, mutant)
    got = run(workload, engine)
    assert (got["energy"], got["depth"]) != (base["energy"], base["depth"])
    assert got["alerts"] > 0


@pytest.mark.parametrize("workload", ["treefix_virtual", "layout_create"])
def test_reference_kernel_mutant_on_scalar(workload, monkeypatch):
    """The scalar engine charges every round through ``advance_clocks``; a
    replay through ``advance_clocks`` would repeat the bug, so depth moves
    with no alert. The hint-free ``_advance_round`` replay catches it."""
    base = baseline(workload, "scalar")
    apply_mutant(monkeypatch, "reference_fancy_add")
    got = run(workload, "scalar")
    assert got["depth"] != base["depth"]
    assert got["findings"] == {"depth"}


def test_general_kernel_mutant_on_mixed_phase(monkeypatch):
    """The batched engine charges the mixed phase's two long rounds through
    ``_advance_round`` and its small round through ``_advance_round_small``.
    Choosing the replay kernel per round (``advance_clocks`` for the long
    rounds, ``_advance_round`` for the small one) lets the late-receive bug
    skew the replay's small round by exactly what it skewed the live long
    rounds, so the depths agree; the per-phase choice replays every round
    through ``advance_clocks`` and alerts."""
    base = baseline("mixed_phase", "batched")
    apply_mutant(monkeypatch, "general_late_receive")
    got = run("mixed_phase", "batched")
    assert got["depth"] != base["depth"]
    assert got["findings"] == {"depth"}

    src, dst, rounds = mixed_rounds()
    clock = np.zeros(64, dtype=np.int64)
    scratch = np.empty(64, dtype=np.int64)
    per_round_depth = 0
    for a, b in zip(rounds[:-1], rounds[1:]):
        if b - a > mm._SMALL_ROUND:
            m = mm.advance_clocks(clock, src[a:b], dst[a:b]).max_clock
        else:
            m = mm._advance_round(clock, src[a:b], dst[a:b], scratch, np.arange(b - a))
        per_round_depth = max(per_round_depth, m)
    assert per_round_depth == got["depth"]


@pytest.mark.parametrize("engine", ENGINES)
def test_step_event_hint_per_entry_point(engine):
    m = SpatialMachine(64, engine=engine)
    log = m.attach(StepLog())
    erew = (np.arange(20), np.arange(20, 40))
    relay = (np.arange(20) // 2, np.arange(20, 40))
    batched = engine == "batched"
    calls = {
        "send": (lambda: m.send(*erew), None),
        "send_batch": (lambda: m.send_batch(*erew), None),
        "send_plan": (lambda: m.send_plan(*erew, rounds=np.array([0, 20])), None),
        "send_plan_exclusive": (
            lambda: m.send_plan(*erew, rounds=np.array([0, 20]), exclusive=True),
            "exclusive" if batched else None,
        ),
        "send_plan_occ": (
            lambda: m.send_plan(*relay, rounds=np.array([0, 20]), src_occ=np.arange(20) % 2),
            "occ" if batched else None,
        ),
        "send_plan_paired": (
            lambda: m.send_plan(
                np.concatenate(erew), np.concatenate(erew[::-1]),
                rounds=np.array([0, 20, 40]), exclusive=True, paired=True,
            ),
            "paired" if batched else None,
        ),
        "send_plan_lift": (
            lambda: m.send_plan(
                *erew, rounds=np.array([0, 20]), exclusive=True,
                lift=(np.arange(64) < 40).astype(np.int64),
            ),
            "lift" if batched else None,
        ),
    }
    for name, (call, hint) in calls.items():
        log.events.clear()
        call()
        assert log.events, name
        assert {e.hint for e in log.events} == {hint}, name
        # only an unhinted batched round longer than _SMALL_ROUND ran the general kernel
        general = batched and hint is None and name != "send"
        assert {mm.ran_general_kernel(e) for e in log.events} == {general}, name
    log.events.clear()
    m.send_batch(np.arange(16), np.arange(16, 32))
    assert not any(mm.ran_general_kernel(e) for e in log.events)


def main() -> None:
    """Print ``mutant workload engine moved alert`` for every battery run."""
    for engine in ENGINES:
        for workload in WORKLOADS:
            base = baseline(workload, engine)
            for mutant in MUTANTS:
                with pytest.MonkeyPatch.context() as mp:
                    apply_mutant(mp, mutant)
                    got = run(workload, engine)
                moved = (got["energy"], got["depth"]) != (base["energy"], base["depth"])
                print(mutant, workload, engine, int(moved), int(got["alerts"] > 0))


if __name__ == "__main__":
    main()
