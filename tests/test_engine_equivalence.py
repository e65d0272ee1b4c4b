"""Differential tests: the scalar and batched engines are interchangeable.

The batched engine (``SpatialMachine(engine="batched")``) must be an
*accounting-preserving* replacement for the scalar reference path: same
results, same ledger totals (global and per-phase), same per-processor
dependency clocks, and same step count on every workload. These tests pin
that contract with hypothesis-generated cases (well over 200 across the
suite), a deterministic tree zoo, raw ``send_batch``/``send_plan`` fuzz,
and strict-sanitizer runs under both engines. The §III local-messaging
kernels are also held, on both engines, to the per-round oracle of
``tests/test_local_messaging.py`` run on a scalar machine.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import collectives
from repro.machine.machine import SpatialMachine
from repro.spatial import SpatialTree, lca_batch, prepare_lca
from repro.spatial.expression import evaluate_expression, random_expression
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
from tests.test_local_messaging import oracle_broadcast, oracle_reduce

ENGINES = ("scalar", "batched")


def assert_machines_agree(ms: SpatialMachine, mb: SpatialMachine) -> None:
    """Full accounting equivalence: totals, phases, clocks, steps."""
    assert ms.snapshot() == mb.snapshot()
    assert ms.steps == mb.steps
    assert np.array_equal(ms.clock, mb.clock)
    assert ms.ledger.summary() == mb.ledger.summary()


def run_on_tree(tree, exercise, *, mode="auto", curve="hilbert", strict=False, oracle=None):
    """Run ``exercise(st) -> result`` under both engines and compare them —
    with each other, or with ``oracle(st)`` run on a scalar machine."""
    runs = {engine: (engine, exercise) for engine in ENGINES}
    if oracle is not None:
        runs["oracle"] = ("scalar", oracle)
    results = {}
    machines = {}
    for name, (engine, fn) in runs.items():
        stree = SpatialTree.build(
            tree, seed=0, mode=mode, curve=curve, engine=engine, strict=strict
        )
        results[name] = fn(stree)
        machines[name] = stree.machine
    ref = "oracle" if oracle is not None else "scalar"
    for name in ENGINES:
        if results[ref] is None:
            assert results[name] is None
        else:
            assert np.array_equal(np.asarray(results[ref]), np.asarray(results[name]))
        assert_machines_agree(machines[ref], machines[name])
    return results[ref]


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

    def oracle(stree):
        with stree.machine.phase("local_broadcast"):
            a = oracle_broadcast(stree, vals, mode=mode)
        with stree.machine.phase("local_reduce"):
            b = oracle_reduce(stree, vals, op=op, identity=identity, mode=mode)
        return np.concatenate([a, b])

    run_on_tree(tree, exercise, mode=mode, oracle=oracle)


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
    contribute = rng.random(n) < 0.7

    def exercise(stree):
        a = family_broadcast(stree, vals, families, mode=mode)
        b = family_reduce(stree, vals, families, mode=mode)
        c = family_reduce(stree, vals, families, contribute=contribute, mode=mode)
        return np.concatenate([a, b, c])

    def oracle(stree):
        a = oracle_broadcast(stree, vals, families, mode=mode)
        b = oracle_reduce(stree, vals, families, mode=mode)
        c = oracle_reduce(stree, vals, families, contribute=contribute, mode=mode)
        return np.concatenate([a, b, c])

    run_on_tree(tree, exercise, mode=mode, oracle=oracle)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=96),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    shape=st.sampled_from(["prufer", "star", "caterpillar", "random_binary"]),
    mode=st.sampled_from(["direct", "virtual"]),
)
def test_expression_equivalence(n, seed, shape, mode):
    """The expression contraction runs the masked kernels four reduces per
    family set; both engines must evaluate and bill it identically."""
    tree = {
        "prufer": lambda: prufer_random_tree(n, seed=seed),
        "star": lambda: star_tree(n),
        "caterpillar": lambda: caterpillar_tree(n),
        "random_binary": lambda: random_binary_tree(n, seed=seed),
    }[shape]()
    _, ops, leaves = random_expression(n, seed=seed)
    out = run_on_tree(tree, lambda s: evaluate_expression(s, ops, leaves, seed=seed), mode=mode)
    assert out.shape == (n,)


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
    k=st.integers(min_value=2, max_value=400),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    shared=st.booleans(),
)
def test_list_rank_equivalence(k, seed, shared):
    """``shared`` hosts two elements per processor, as the Euler tour places
    them, so the batched engine's rounds reach the pairwise clock paths."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(k)
    succ = np.full(k, -1, dtype=np.int64)
    succ[order[:-1]] = order[1:]
    n = (k + 1) // 2 if shared else k
    elem_proc = rng.permutation(n)[np.arange(k) // 2] if shared else None
    machines = {}
    outs = {}
    for engine in ENGINES:
        m = SpatialMachine(n, engine=engine)
        outs[engine] = list_rank(m, succ, elem_proc=elem_proc, seed=seed).ranks
        machines[engine] = m
    assert np.array_equal(outs["scalar"], outs["batched"])
    assert_machines_agree(machines["scalar"], machines["batched"])


# --------------------------------------------------------------------- #
# hypothesis: raw send_batch fuzz (self-messages, ragged rounds, dist=)
# --------------------------------------------------------------------- #


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=400),
    k=st.integers(min_value=1, max_value=320),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    with_dist=st.booleans(),
    src_mult=st.sampled_from([1, 2, None]),
    dst_mult=st.sampled_from([1, 2, None]),
)
def test_send_batch_fuzz_equivalence(n, k, seed, with_dist, src_mult, dst_mult):
    """Each round draws its senders and its receivers independently with
    multiplicity 1, at most 2 (``np.resize`` exceeds it only when the round
    outgrows ``n * mult``) or unbounded, so rounds above the small-round
    size reach every path of the general clock kernel. Senders and
    receivers share one processor range, so processors both send and
    receive; self-messages exercise the remote filter."""
    rng = np.random.default_rng(seed)
    n_rounds = int(rng.integers(1, 7))
    cuts = np.sort(rng.integers(0, k + 1, size=n_rounds - 1))
    rounds = np.concatenate([[0], cuts, [k]]).astype(np.int64)

    def endpoints(mult):
        parts = [
            rng.integers(0, n, size=size) if mult is None
            else np.resize(rng.permutation(np.repeat(np.arange(n), mult)), size)
            for size in np.diff(rounds)
        ]
        return np.concatenate(parts).astype(np.int64)

    src = endpoints(src_mult)
    dst = endpoints(dst_mult)  # self-messages allowed
    vals = rng.integers(-9, 9, size=k).astype(np.int64)
    machines = {}
    for engine in ENGINES:
        m = SpatialMachine(n, engine=engine)
        dist = m.manhattan(src, dst) if with_dist else None
        m.send_batch(src, dst, vals, rounds=rounds, dist=dist)
        machines[engine] = m
    assert_machines_agree(machines["scalar"], machines["batched"])


def _erew_round(rng, n: int, size: int):
    """``size`` (at most ``n``) messages with distinct senders, distinct
    receivers and ``src != dst``; the two sets overlap whenever the shift
    is below ``size``, so processors both send and receive."""
    perm = rng.permutation(n)
    ids = np.arange(size) + int(rng.integers(0, n))
    return perm[ids % n], perm[(ids + int(rng.integers(1, n))) % n], None


def _occ_round(rng, n: int, size: int):
    """Up to ``size`` (at most ``n``) messages with distinct receivers,
    each sender at most twice, and each message's sender occurrence index."""
    src = rng.permutation(np.repeat(np.arange(n), 2))[:size]
    dst = rng.permutation(n)[:size]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    occ = np.array([np.count_nonzero(src[:i] == s) for i, s in enumerate(src)], dtype=np.int64)
    return src, dst, occ


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    hinted=st.booleans(),
)
def test_send_plan_fuzz_equivalence(n, seed, hinted):
    """send_plan's trusted replay charges exactly like validated send_batch.

    An unhinted warm-up batch leaves non-zero clocks. Then each plan is
    EREW (distinct senders, distinct receivers) or ``src_occ``-shaped
    (distinct receivers, each sender at most twice), so the same plan is
    legal with and without its hint. Rounds of 1 to 24 messages fall on
    both sides of ``_SMALL_ROUND``, processors both send and receive, and
    empty rounds sit among the others. After every call each machine's
    depth is its largest clock: a kernel's reported max is exact.
    """
    rng = np.random.default_rng(seed)
    machines = {engine: SpatialMachine(n, engine=engine) for engine in ENGINES}

    def check():
        for m in machines.values():
            assert m.depth == int(m.clock.max())
        assert_machines_agree(machines["scalar"], machines["batched"])

    k = int(rng.integers(1, 3 * n))
    warm_src, warm_dst = rng.integers(0, n, size=k), rng.integers(0, n, size=k)
    for m in machines.values():
        m.send_batch(warm_src, warm_dst, rounds=[0, k // 2, k])
    check()
    for _ in range(int(rng.integers(1, 5))):
        occ_plan = bool(rng.integers(0, 2))
        make = _occ_round if occ_plan else _erew_round
        segs, sizes = [], []
        for _ in range(int(rng.integers(1, 5))):
            if rng.random() < 0.3:
                sizes.append(0)
            segs.append(make(rng, n, int(rng.integers(1, min(24, n) + 1))))
            sizes.append(len(segs[-1][0]))
        if rng.random() < 0.3:
            sizes.append(0)
        src = np.concatenate([s for s, _, _ in segs]).astype(np.int64)
        dst = np.concatenate([d for _, d, _ in segs]).astype(np.int64)
        rounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        hints = {}
        if hinted:
            hints = ({"src_occ": np.concatenate([o for _, _, o in segs])} if occ_plan
                     else {"exclusive": True})
        for m in machines.values():
            m.send_plan(src, dst, rounds=rounds, **hints)
        check()


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
