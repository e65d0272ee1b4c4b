"""Closed-form clock charges: plans that end with every clock level.

A ``lift`` lets the batched engine charge a plan's clocks as one number,
``max(clock + lift)``, instead of running a clock kernel per round. Each
test holds a lift against what the rounds themselves leave:

* Random EREW and ``src_occ`` rounds followed by the barrier
  (:func:`~repro.machine.collectives.barrier_after`), from random
  non-level clocks: the batched engine's lift leaves exactly the clocks,
  depth and bill of the scalar engine's per-round sends plus
  equalization.
* :func:`~repro.machine.collectives.lift_through` reproduces the barrier
  lift of the EREW backward loop it replaced.
* Batcher's network on ``n = 2^k`` lanes ends level at
  ``max + 2 · rounds`` and carries that lift; on other sizes it does not
  end level and carries none.
* A lifted plan runs no clock kernel, and a prepared LCA sweep memoizes
  one plan per layer on the machine that runs it.
"""

import numpy as np
import pytest

import repro.machine.machine as mm
from repro.machine import SpatialMachine, bitonic_sort, sort_network_plan
from repro.machine.collectives import _barrier_plan, barrier_after
from repro.spatial import SpatialTree, lca_batch
from repro.spatial.lca import prepare_lca
from repro.trees import prufer_random_tree
from tests.test_engine_equivalence import _erew_round, _occ_round

KERNELS = (
    "_advance_round",
    "_advance_round_small",
    "_advance_round_exclusive",
    "_advance_round_occ",
    "_advance_rounds_paired",
)


def _random_rounds(rng, n: int):
    """One to five rounds, each EREW or ``src_occ``-shaped, with every
    message's sender occurrence index (zero throughout an EREW round)."""
    segs = [
        (_occ_round if rng.random() < 0.5 else _erew_round)(rng, n, int(rng.integers(1, min(n, 200) + 1)))
        for _ in range(int(rng.integers(1, 6)))
    ]
    src = np.concatenate([s for s, _, _ in segs]).astype(np.int64)
    dst = np.concatenate([d for _, d, _ in segs]).astype(np.int64)
    occ = np.concatenate([np.zeros(len(s)) if o is None else o for s, _, o in segs]).astype(np.int64)
    rounds = np.concatenate([[0], np.cumsum([len(s) for s, _, _ in segs])]).astype(np.int64)
    return src, dst, rounds, occ


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 3, 7, 64, 100, 256, 1000])
def test_rounds_then_barrier_lift_matches_per_round_sends(n, seed):
    rng = np.random.default_rng([n, seed])
    start = rng.integers(0, 4 * n if seed % 2 else 5, size=n)
    machines = {engine: SpatialMachine(n, engine=engine) for engine in ("scalar", "batched")}
    for m in machines.values():
        m.clock[:] = start
        src, dst, rounds, occ = _random_rounds(np.random.default_rng([n, seed, 1]), n)
        psrc, pdst, dist, prounds, pocc, lift = barrier_after(m, src, dst, rounds, occ)
        with m.phase("layer"):
            m.send_plan(psrc, pdst, rounds=prounds, dist=dist, src_occ=pocc, lift=lift)
    scalar, batched = machines["scalar"], machines["batched"]
    assert (scalar.clock == scalar.clock[0]).all()
    assert np.array_equal(batched.clock, scalar.clock)
    assert batched.snapshot() == scalar.snapshot()
    assert batched.steps == scalar.steps
    assert batched.ledger.summary() == scalar.ledger.summary()


def _erew_barrier_lift(src, dst, rounds, n: int) -> np.ndarray:
    """The barrier's backward loop before ``lift_through``: an EREW round
    ``s -> d`` adds one to ``lift[d]`` and sets ``lift[s]`` to
    ``max(lift[s], old lift[d]) + 1``."""
    lift = np.zeros(n, dtype=np.int64)
    bounds = rounds.tolist()
    for a, b in reversed(list(zip(bounds, bounds[1:]))):
        s, d = src[a:b], dst[a:b]
        g = lift[d]
        lift[d] = g + 1
        lift[s] = np.maximum(lift[s], g) + 1
    return lift


def test_barrier_lift_matches_the_erew_loop():
    for n in range(1, 301):
        src, dst, _, rounds, lift = _barrier_plan(SpatialMachine(n))
        assert np.array_equal(lift, _erew_barrier_lift(src, dst, rounds, n)), n


@pytest.mark.parametrize("k", range(1, 13))
def test_power_of_two_network_ends_level(k):
    """Per-round sends on the scalar engine, which never reads ``lift``,
    leave every clock at ``max(entry) + 2 · rounds``."""
    n = 2**k
    m = SpatialMachine(n, engine="scalar")
    start = np.random.default_rng(k).integers(0, 3 * n, size=n)
    m.clock[:] = start
    plan = sort_network_plan(m)
    m.send_batch(plan.msg_src, plan.msg_dst, rounds=plan.msg_rounds)
    assert (m.clock == start.max() + 2 * plan.rounds).all()
    assert np.array_equal(plan.lift, np.full(n, 2 * plan.rounds))


@pytest.mark.parametrize("n", [3, 5, 100, 1000])
def test_other_networks_do_not_end_level(n):
    m = SpatialMachine(n, engine="scalar")
    m.clock[:] = np.random.default_rng(n).integers(0, 3 * n, size=n)
    plan = sort_network_plan(m)
    assert plan.lift is None
    m.send_batch(plan.msg_src, plan.msg_dst, rounds=plan.msg_rounds)
    assert len(np.unique(m.clock)) > 1


def test_lifted_plans_run_no_clock_kernel(monkeypatch):
    tree = prufer_random_tree(500, seed=4)
    st = SpatialTree.build(tree, engine="batched")
    prepared = prepare_lca(st, seed=4)
    sorter = SpatialMachine(256, engine="batched")

    def boom(*args, **kwargs):  # pragma: no cover - must not be reached
        raise AssertionError("a lifted plan ran a clock kernel")

    for kernel in KERNELS:
        monkeypatch.setattr(mm, kernel, boom)
    bitonic_sort(sorter, np.arange(256, dtype=np.int64)[::-1].copy())
    rng = np.random.default_rng(4)
    lca_batch(st, rng.integers(0, 500, 32), rng.integers(0, 500, 32), seed=4, prepared=prepared)


def test_prepared_sweep_memoizes_one_plan_per_layer():
    tree = prufer_random_tree(700, seed=5)
    st = SpatialTree.build(tree, engine="batched")
    pc = st.machine.plan_cache
    rng = np.random.default_rng(5)
    us, vs = rng.integers(0, 700, 32), rng.integers(0, 700, 32)
    lca_batch(st, us, vs, seed=5)
    assert "lca_layer" not in pc.misses  # a cold call's sweep is never replayed
    prepared = prepare_lca(st, seed=5)
    forests = [s.forest for s in prepared.layers if len(s.heads) and len(s.forest.src)]
    assert forests
    for _ in range(3):
        lca_batch(st, us, vs, seed=5, prepared=prepared)
    assert pc.misses["lca_layer"] == len(forests)
    assert pc.hits["lca_layer"] == 2 * len(forests)
    assert all(pc[("lca_layer", id(f))][0] is f for f in forests)
