"""Differential tests: the scalar and batched engines are interchangeable.

The batched engine (``SpatialMachine(engine="batched")``) must be an
*accounting-preserving* replacement for the scalar reference path: same
results, same ledger totals (global and per-phase), same per-processor
dependency clocks, and same step count on every workload. These tests pin
that contract with hypothesis-generated cases (well over 200 across the
suite), a deterministic tree zoo, raw ``send_batch``/``send_plan`` fuzz,
and strict-sanitizer runs under both engines.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import collectives
from repro.machine.machine import SpatialMachine
from repro.spatial import SpatialTree, lca_batch, prepare_lca
from repro.spatial.list_ranking import list_rank
from repro.spatial.local_messaging import (
    family_broadcast,
    family_reduce,
    local_broadcast,
    local_reduce,
)
from repro.spatial.treefix import top_down_treefix, treefix_sum
from repro.trees import (
    caterpillar_tree,
    path_tree,
    prufer_random_tree,
    random_binary_tree,
    spider_tree,
    star_tree,
)

ENGINES = ("scalar", "batched")


def assert_machines_agree(ms: SpatialMachine, mb: SpatialMachine) -> None:
    """Full accounting equivalence: totals, phases, clocks, steps."""
    assert ms.snapshot() == mb.snapshot()
    assert ms.steps == mb.steps
    assert np.array_equal(ms.clock, mb.clock)
    assert ms.ledger.summary() == mb.ledger.summary()


def run_on_tree(tree, exercise, *, mode="auto", curve="hilbert", strict=False):
    """Run ``exercise(st) -> result`` under both engines and compare."""
    results = {}
    machines = {}
    for engine in ENGINES:
        stree = SpatialTree.build(
            tree, seed=0, mode=mode, curve=curve, engine=engine, strict=strict
        )
        results[engine] = exercise(stree)
        machines[engine] = stree.machine
    rs, rb = results["scalar"], results["batched"]
    if rs is None:
        assert rb is None
    else:
        assert np.array_equal(np.asarray(rs), np.asarray(rb))
    assert_machines_agree(machines["scalar"], machines["batched"])
    return rs


# --------------------------------------------------------------------- #
# hypothesis: treefix sums (the tentpole workload)
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(["direct", "virtual"]),
    curve=st.sampled_from(["hilbert", "zorder", "rowmajor", "boustrophedon"]),
)
def test_treefix_sum_equivalence(n, seed, mode, curve):
    tree = prufer_random_tree(n, seed=seed)
    rng = np.random.default_rng(seed)
    vals = rng.integers(-50, 50, size=n).astype(np.int64)
    run_on_tree(tree, lambda s: s.treefix_sum(vals, seed=seed), mode=mode, curve=curve)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(["direct", "virtual"]),
)
def test_top_down_treefix_equivalence(n, seed, mode):
    tree = prufer_random_tree(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    vals = rng.integers(-50, 50, size=n).astype(np.int64)
    run_on_tree(tree, lambda s: top_down_treefix(s, vals, seed=seed), mode=mode)


# --------------------------------------------------------------------- #
# hypothesis: §III local messaging (plain and family-masked)
# --------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(["direct", "virtual"]),
    op_name=st.sampled_from(["add", "max", "min"]),
)
def test_local_messaging_equivalence(n, seed, mode, op_name):
    op = {"add": np.add, "max": np.maximum, "min": np.minimum}[op_name]
    identity = {"add": 0, "max": -(2**40), "min": 2**40}[op_name]
    tree = prufer_random_tree(n, seed=seed)
    rng = np.random.default_rng(seed)
    vals = rng.integers(-100, 100, size=n).astype(np.int64)

    def exercise(stree):
        a = local_broadcast(stree, vals, mode=mode)
        b = local_reduce(stree, vals, op=op, identity=identity, mode=mode)
        return np.concatenate([a, b])

    run_on_tree(tree, exercise, mode=mode)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(["direct", "virtual"]),
    density=st.floats(min_value=0.0, max_value=1.0),
)
def test_family_masked_equivalence(n, seed, mode, density):
    """Masked kernels exercise the per-family plan selection under both
    engines (including the batched engine's occurrence-index hints)."""
    tree = prufer_random_tree(n, seed=seed)
    rng = np.random.default_rng(seed)
    vals = rng.integers(-100, 100, size=n).astype(np.int64)
    families = rng.random(n) < density

    def exercise(stree):
        a = family_broadcast(stree, vals, families, mode=mode)
        b = family_reduce(stree, vals, families, mode=mode)
        return np.concatenate([a, b])

    run_on_tree(tree, exercise, mode=mode)


# --------------------------------------------------------------------- #
# hypothesis: collectives and list ranking
# --------------------------------------------------------------------- #


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_collectives_equivalence(n, seed):
    rng = np.random.default_rng(seed)
    vals = rng.integers(-100, 100, size=n).astype(np.int64)
    root = int(rng.integers(n))
    machines = {}
    outs = {}
    for engine in ENGINES:
        m = SpatialMachine(n, engine=engine)
        total = collectives.reduce(m, vals)
        bcast = collectives.broadcast(m, 7, root=root)
        allred = collectives.allreduce(m, vals)
        exsc = collectives.exclusive_scan(m, vals)
        insc = collectives.inclusive_scan(m, vals)
        machines[engine] = m
        outs[engine] = (int(total), bcast, allred, exsc, insc)
    s, b = outs["scalar"], outs["batched"]
    assert s[0] == b[0]
    for xs, xb in zip(s[1:], b[1:]):
        assert np.array_equal(xs, xb)
    assert_machines_agree(machines["scalar"], machines["batched"])


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=48),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_list_rank_equivalence(k, seed):
    rng = np.random.default_rng(seed)
    order = rng.permutation(k)
    succ = np.full(k, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    machines = {}
    outs = {}
    for engine in ENGINES:
        m = SpatialMachine(k, engine=engine)
        outs[engine] = list_rank(m, succ, seed=seed).ranks
        machines[engine] = m
    assert np.array_equal(outs["scalar"], outs["batched"])
    assert_machines_agree(machines["scalar"], machines["batched"])


# --------------------------------------------------------------------- #
# hypothesis: raw send_batch fuzz (self-messages, ragged rounds, dist=)
# --------------------------------------------------------------------- #


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    k=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    with_dist=st.booleans(),
)
def test_send_batch_fuzz_equivalence(n, k, seed, with_dist):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=k).astype(np.int64)
    dst = rng.integers(0, n, size=k).astype(np.int64)  # self-messages allowed
    n_rounds = int(rng.integers(1, k + 1))
    cuts = np.sort(rng.integers(0, k + 1, size=n_rounds - 1))
    rounds = np.concatenate([[0], cuts, [k]]).astype(np.int64)
    vals = rng.integers(-9, 9, size=k).astype(np.int64)
    machines = {}
    for engine in ENGINES:
        m = SpatialMachine(n, engine=engine)
        dist = m.manhattan(src, dst) if with_dist else None
        m.send_batch(src, dst, vals, rounds=rounds, dist=dist)
        machines[engine] = m
    assert_machines_agree(machines["scalar"], machines["batched"])


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    exclusive=st.booleans(),
)
def test_send_plan_fuzz_equivalence(n, seed, exclusive):
    """send_plan's trusted replay charges exactly like validated send_batch.

    Rounds are built EREW (distinct senders, distinct receivers, src != dst)
    so the same plan is legal with and without the ``exclusive`` hint.
    """
    rng = np.random.default_rng(seed)
    segs = []
    for _ in range(int(rng.integers(1, 5))):
        size = int(rng.integers(1, max(2, n // 2 + 1)))
        perm = rng.permutation(n)
        s, d = perm[:size], perm[size : 2 * size]
        if len(d) < size:
            continue
        segs.append((s.astype(np.int64), d.astype(np.int64)))
    if not segs:
        segs = [(np.array([0], dtype=np.int64), np.array([n - 1], dtype=np.int64))]
    src = np.concatenate([s for s, _ in segs])
    dst = np.concatenate([d for _, d in segs])
    sizes = np.array([len(s) for s, _ in segs], dtype=np.int64)
    rounds = np.concatenate([[0], np.cumsum(sizes)])
    machines = {}
    for engine in ENGINES:
        m = SpatialMachine(n, engine=engine)
        m.send_plan(src, dst, rounds=rounds, exclusive=exclusive)
        machines[engine] = m
    assert_machines_agree(machines["scalar"], machines["batched"])


# --------------------------------------------------------------------- #
# deterministic tree zoo + strict sanitizers
# --------------------------------------------------------------------- #

ZOO = [
    ("path", path_tree(33)),
    ("star", star_tree(32)),
    ("caterpillar", caterpillar_tree(40)),
    ("binary", random_binary_tree(47, seed=5)),
    ("spider", spider_tree(6, 5)),
    ("prufer", prufer_random_tree(50, seed=11)),
]


@pytest.mark.parametrize("name,tree", ZOO, ids=[name for name, _ in ZOO])
@pytest.mark.parametrize("mode", ["direct", "virtual"])
def test_tree_zoo_equivalence(name, tree, mode):
    vals = np.arange(tree.n, dtype=np.int64) - tree.n // 2

    def exercise(stree):
        a = stree.treefix_sum(vals, seed=2)
        b = top_down_treefix(stree, vals, seed=2)
        return np.concatenate([a, b])

    run_on_tree(tree, exercise, mode=mode)


# one tree large enough that forest and barrier rounds pass the small-round
# kernel and reach the ``src_occ`` and ``exclusive`` clock kernels
LCA_ZOO = [*ZOO, ("binary120", random_binary_tree(120, seed=3))]


@pytest.mark.parametrize("name,tree", LCA_ZOO, ids=[name for name, _ in LCA_ZOO])
@pytest.mark.parametrize("mode", ["direct", "virtual"])
def test_lca_batch_equivalence(name, tree, mode):
    """The compiled LCA sweep: scalar vs batched, cold vs ``prepared=``.

    Star and path give cover layers without heads and ranges of length 1.
    """
    rng = np.random.default_rng(tree.n)
    us = rng.integers(0, tree.n, size=2 * tree.n)
    vs = rng.integers(0, tree.n, size=2 * tree.n)
    answers = {}
    machines = {}
    for engine in ENGINES:
        for warm in (False, True):
            stree = SpatialTree.build(tree, seed=0, mode=mode, engine=engine)
            prepared = prepare_lca(stree, seed=3) if warm else None
            answers[engine, warm] = lca_batch(stree, us, vs, seed=3, prepared=prepared)
            machines[engine, warm] = stree.machine
    ref = ("scalar", False)
    for key in machines:
        assert np.array_equal(answers[key], answers[ref])
        assert_machines_agree(machines[ref], machines[key])


def test_prepared_lca_charges_the_reusing_machine():
    """A PreparedLCA stores no distances: reused on a zorder tree with the
    same layout it charges zorder's sweep, not the Hilbert tree's."""
    tree = prufer_random_tree(50, seed=11)
    rng = np.random.default_rng(0)
    us = rng.integers(0, tree.n, size=80)
    vs = rng.integers(0, tree.n, size=80)
    sweep = {}
    for curve in ("hilbert", "zorder"):
        stree = SpatialTree.build(tree, seed=0, curve=curve, engine="batched")
        answer = lca_batch(stree, us, vs, seed=3)
        sweep[curve] = stree.machine.ledger.phases["lca_layers"].energy
    hilbert = SpatialTree.build(tree, seed=0, curve="hilbert", engine="batched")
    zorder = SpatialTree.build(tree, seed=0, curve="zorder", engine="batched")
    assert np.array_equal(hilbert.layout.position, zorder.layout.position)
    prepared = prepare_lca(hilbert, seed=3)
    assert np.array_equal(lca_batch(zorder, us, vs, seed=3, prepared=prepared), answer)
    assert zorder.machine.energy == sweep["zorder"] != sweep["hilbert"]


@pytest.mark.parametrize("mode", ["direct", "virtual"])
def test_strict_sanitizers_accept_batched_engine(mode):
    """The write-race/determinism sanitizers see aggregated batch events and
    must accept both engines' replay of the same treefix run."""
    tree = prufer_random_tree(40, seed=7)
    vals = np.ones(tree.n, dtype=np.int64)
    run_on_tree(tree, lambda s: s.treefix_sum(vals, seed=4), mode=mode, strict=True)


def test_engine_is_constructor_validated():
    with pytest.raises(Exception):
        SpatialMachine(4, engine="vectorised")
