"""The bitonic sort network: its cached plan, its charge and its result.

* Oracle: :func:`network_rounds` enumerates Batcher's ``(k, j)`` rounds
  independently of the plan builder. The cached plan's messages must be
  exactly its real-lane pairs, its compare-exchange must sort, and one
  ``send`` per direction per round must bill exactly what ``bitonic_sort``
  bills on both engines.
* Cache: the second same-size sort, in either direction, replays the
  stored plan without rebuilding the network (pinned by monkeypatching
  the builder away).
* Round count: Batcher's network has exactly log2(m)·(log2(m)+1)/2
  compare-exchange rounds — the O(log² m) depth regression guard.
* Virtual lanes: lane ids ≥ n never appear in charged messages; an
  exchange with a virtual lane costs nothing on either engine.
* Result: a stable host sort, so ties keep their input order and keys
  at the integer extremes sort like any other.
* Child sort: §IV's child-sort phase bills one network pass plus its two
  announce rounds, no more and no less.
"""

import numpy as np
import pytest

from repro.machine import (
    SpatialMachine,
    bitonic_sort,
    sort_network_plan,
)
from repro.machine.routing import _build_sort_network_plan, charge_sort_network
from repro.spatial.layout_creation import create_light_first_layout
from repro.trees import prufer_random_tree, star_tree
from repro.utils import next_power_of_two

ENGINES = ("scalar", "batched")


def batcher_rounds(m: int) -> int:
    """Σ_{k=1..log2(m)} k — the bitonic network's round count."""
    stages = int(np.log2(m)) if m > 1 else 0
    return stages * (stages + 1) // 2


def network_rounds(m: int, descending: bool = False):
    """Batcher's bitonic network on ``m`` lanes, one round at a time.

    Yields ``(lo, hi, up)`` per round ``(k, j)``: the lower and upper lane
    of every comparator (partners differ in bit ``j``) and whether it
    compares ascending (bit ``k`` of the lower lane clear, flipped when
    ``descending``).
    """
    k = 2
    while k <= m:
        j = k // 2
        while j >= 1:
            i = np.arange(m, dtype=np.int64)
            partner = i ^ j
            lower = i < partner
            up = (i & k) == 0
            if descending:
                up = ~up
            yield i[lower], partner[lower], up[lower]
            j //= 2
        k *= 2


def real_pairs(m: int, n: int):
    """Per round, the comparators whose lanes are both processors."""
    for lo, hi, _ in network_rounds(m):
        real = (lo < n) & (hi < n)
        yield lo[real], hi[real]


def run_network(keys: np.ndarray, descending: bool) -> tuple[np.ndarray, np.ndarray]:
    """The network's compare-exchange on the host: sorted keys, provenance.

    Lanes ``≥ len(keys)`` hold ±inf, which sorts past every real key.
    """
    n = len(keys)
    m = next_power_of_two(n)
    lanes = np.full(m, -np.inf if descending else np.inf)
    lanes[:n] = keys
    prov = np.arange(m)
    for lo, hi, up in network_rounds(m, descending):
        a, b = lanes[lo], lanes[hi]
        swap = np.where(up, a > b, a < b)
        lanes[lo], lanes[hi] = np.where(swap, b, a), np.where(swap, a, b)
        pa, pb = prov[lo], prov[hi]
        prov[lo], prov[hi] = np.where(swap, pb, pa), np.where(swap, pa, pb)
    return lanes[:n], prov[:n]


# --------------------------------------------------------------------- #
# the round-enumeration oracle
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 33, 70, 256])
def test_plan_messages_are_the_enumerated_real_pairs(n, descending):
    machine = SpatialMachine(n, engine="batched")
    plan = charge_sort_network(machine, descending=descending)
    src, dst, sizes = [], [], []
    for lo, hi in real_pairs(plan.m, n):
        if len(lo):
            src += [lo, hi]
            dst += [hi, lo]
            sizes += [len(lo), len(lo)]
    assert plan.m == next_power_of_two(n)
    assert plan.rounds == sum(1 for _ in network_rounds(plan.m))
    assert np.array_equal(plan.msg_src, np.concatenate([np.empty(0, np.int64), *src]))
    assert np.array_equal(plan.msg_dst, np.concatenate([np.empty(0, np.int64), *dst]))
    assert np.array_equal(plan.msg_rounds, np.cumsum([0, *sizes]))
    assert np.array_equal(plan.msg_dist, machine.manhattan(plan.msg_src, plan.msg_dst))


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 33, 70, 256])
def test_enumerated_network_sorts(n, descending):
    """The charged rounds form a sorting network: run on random keys with
    duplicates, the enumerated compare-exchange sorts them."""
    rng = np.random.default_rng(n)
    keys = rng.integers(0, max(2, n // 4), size=n)
    out, prov = run_network(keys.astype(np.float64), descending)
    expect = np.sort(keys)[::-1] if descending else np.sort(keys)
    assert np.array_equal(out, expect)
    assert np.array_equal(np.sort(prov), np.arange(n))
    assert np.array_equal(keys[prov], expect)


@pytest.mark.parametrize("descending", [False, True])
@pytest.mark.parametrize("n", [2, 5, 16, 33, 70])
def test_per_round_sends_bill_like_bitonic_sort(n, descending):
    """One ``send`` per direction per enumerated round, on a scalar
    machine, is the reference bill for ``bitonic_sort`` on both engines."""
    ref = SpatialMachine(n, engine="scalar")
    with ref.phase("bitonic_sort"):
        for lo, hi in real_pairs(next_power_of_two(n), n):
            if len(lo):
                ref.send(lo, hi)
                ref.send(hi, lo)
    keys = np.random.default_rng(n).integers(0, 9, size=n)
    for engine in ENGINES:
        m = SpatialMachine(n, engine=engine)
        bitonic_sort(m, keys, descending=descending)
        assert np.array_equal(m.clock, ref.clock)
        assert m.ledger.summary() == ref.ledger.summary()
        assert m.snapshot() == ref.snapshot()
        assert m.steps == ref.steps


# --------------------------------------------------------------------- #
# plan cache
# --------------------------------------------------------------------- #


def test_second_same_size_sort_skips_network_construction(monkeypatch):
    m = SpatialMachine(37, engine="batched")
    keys = np.arange(37, dtype=np.int64)[::-1].copy()
    bitonic_sort(m, keys)  # builds and caches the plan
    assert ("sort_network", next_power_of_two(37)) in m.plan_cache

    def boom(*a, **k):  # pragma: no cover - must not be reached
        raise AssertionError("plan rebuilt despite cache")

    monkeypatch.setattr("repro.machine.routing._build_sort_network_plan", boom)
    out, _ = bitonic_sort(m, keys)  # cache hit: builder never called
    assert np.array_equal(out, np.arange(37))


def test_plan_cache_is_per_lane_count():
    """Both directions share one plan: an ascending sort then a descending
    one on a fresh machine count one miss and one hit."""
    m = SpatialMachine(16, engine="batched")
    keys = np.random.default_rng(16).integers(0, 9, size=16)
    bitonic_sort(m, keys)
    bitonic_sort(m, keys, descending=True)
    assert m.plan_cache.misses == {"sort_network": 1}
    assert m.plan_cache.hits == {"sort_network": 1}
    assert [key for key in m.plan_cache if key[0] == "sort_network"] == [("sort_network", 16)]


def test_plan_cache_survives_reset_costs():
    m = SpatialMachine(16, engine="batched")
    plan = sort_network_plan(m)
    m.reset_costs()
    assert sort_network_plan(m) is plan


# --------------------------------------------------------------------- #
# Batcher round count (the O(log² m) regression guard)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("n", [2, 4, 8, 16, 64, 256])
def test_round_count_is_batchers(n):
    m = SpatialMachine(n, engine="batched")
    plan = sort_network_plan(m)
    assert plan.rounds == batcher_rounds(n)
    # power-of-two sizes have no virtual lanes: every round charges both
    # directions, so steps advance by exactly 2·rounds
    bitonic_sort(m, np.arange(n, dtype=np.int64))
    assert m.steps == 2 * plan.rounds


@pytest.mark.parametrize("n", [3, 5, 11, 33, 70])
def test_round_count_non_power_of_two(n):
    m = SpatialMachine(n, engine="batched")
    plan = sort_network_plan(m)
    assert plan.m == next_power_of_two(n)
    assert plan.rounds == batcher_rounds(plan.m)
    # scalar engine takes exactly the same number of charged steps
    ms = SpatialMachine(n, engine="scalar")
    mb = SpatialMachine(n, engine="batched")
    keys = (np.arange(n, dtype=np.int64) * 7919) % 101
    bitonic_sort(ms, keys.copy())
    bitonic_sort(mb, keys.copy())
    assert ms.steps == mb.steps


# --------------------------------------------------------------------- #
# virtual-lane exclusion
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("n", [3, 5, 6, 7, 9, 13, 33])
def test_virtual_exchanges_charge_nothing(n):
    """Charged messages must exactly match the count of real-real
    comparator pairs of the independent enumeration."""
    machine = SpatialMachine(n, engine="batched")
    plan = sort_network_plan(machine)
    pairs = sum(len(lo) for lo, _ in real_pairs(plan.m, n))
    assert plan.messages == 2 * pairs
    assert (plan.msg_src < n).all() and (plan.msg_dst < n).all()
    # and the measured message total agrees on both engines
    keys = np.arange(n, dtype=np.int64)[::-1].copy()
    counts = {}
    for engine in ENGINES:
        mm = SpatialMachine(n, engine=engine)
        bitonic_sort(mm, keys.copy())
        counts[engine] = mm.messages
    assert counts["scalar"] == counts["batched"] == 2 * pairs


def test_singleton_sort_charges_nothing():
    for engine in ENGINES:
        m = SpatialMachine(1, engine=engine)
        out, _ = bitonic_sort(m, np.array([42], dtype=np.int64))
        assert np.array_equal(out, [42])
        assert m.snapshot() == {"energy": 0, "messages": 0, "depth": 0}
        assert m.steps == 0


def test_plan_builder_matches_cached_plan():
    """sort_network_plan returns exactly what the builder constructs."""
    machine = SpatialMachine(21, engine="batched")
    plan = sort_network_plan(machine)
    fresh = _build_sort_network_plan(machine, plan.m)
    for field in ("msg_src", "msg_dst", "msg_dist", "msg_rounds"):
        assert np.array_equal(getattr(plan, field), getattr(fresh, field))


# --------------------------------------------------------------------- #
# the result: a stable sort
# --------------------------------------------------------------------- #


def stable_order(keys: np.ndarray, descending: bool) -> np.ndarray:
    """Indices of ``keys`` in sorted order, ties in input order."""
    sign = -1 if descending else 1
    return np.array(sorted(range(len(keys)), key=lambda i: sign * int(keys[i])))


@pytest.mark.parametrize("descending", [False, True])
def test_payload_provenance_with_duplicate_keys(descending):
    rng = np.random.default_rng(11)
    n = 45
    keys = rng.integers(0, 6, size=n).astype(np.int64)  # heavy duplication
    payload = np.arange(n, dtype=np.int64)  # provenance = original index
    outs = {}
    for engine in ENGINES:
        m = SpatialMachine(n, engine=engine)
        outs[engine] = bitonic_sort(m, keys, payload, descending=descending)
    ks, ps = outs["scalar"]
    kb, pb = outs["batched"]
    assert np.array_equal(ks, kb)
    assert np.array_equal(ps, pb)
    # provenance: the payload entry is the original index of its key, so
    # gathering keys through it must reproduce the sorted output exactly
    assert np.array_equal(keys[ps], ks)
    # and ties keep their input order
    assert np.array_equal(ps, stable_order(keys, descending))


EXTREME_KEYS = [
    # a key at the far end of the sort order for its dtype and direction
    pytest.param(np.int64, np.iinfo(np.int64).max, False, id="int64-max-ascending"),
    pytest.param(np.int64, np.iinfo(np.int64).min, True, id="int64-min-descending"),
    pytest.param(np.uint64, 0, True, id="uint64-zero-descending"),
]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("dtype,extreme,descending", EXTREME_KEYS)
def test_extreme_keys_sort_on_non_power_of_two_sizes(engine, dtype, extreme, descending):
    keys = np.array([extreme, 3, extreme, 1, 2], dtype=dtype)
    payload = np.arange(5, dtype=np.int64)
    m = SpatialMachine(5, engine=engine)
    out, prov = bitonic_sort(m, keys, payload, descending=descending)
    order = stable_order(keys, descending)
    assert out.dtype == keys.dtype
    assert np.array_equal(out, keys[order])
    assert np.array_equal(prov, order)


# --------------------------------------------------------------------- #
# §IV child sort: one network pass plus two announce rounds
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("n", [1000, 1024])
@pytest.mark.parametrize("make_tree", [
    pytest.param(lambda n: prufer_random_tree(n, seed=4), id="prufer"),
    pytest.param(star_tree, id="star"),
])
def test_child_sort_bills_one_network_pass(make_tree, n, engine):
    tree = make_tree(n)
    res = create_light_first_layout(tree, seed=4, engine=engine)
    bill = res.phases["child_sort"]
    plan = sort_network_plan(SpatialMachine(n, engine=engine))
    # the announce rounds: each sorted record tells its left neighbour who
    # it is, then carries its link home to the child (identity placement)
    nonroot = np.flatnonzero(tree.parents >= 0)
    sizes = tree.subtree_sizes()
    children = nonroot[np.lexsort((nonroot, sizes[nonroot], tree.parents[nonroot]))]
    announce = SpatialMachine(n, engine=engine)
    announce.send_batch(np.arange(1, n - 1), np.arange(0, n - 2))
    announce.send_batch(np.arange(n - 1), children)
    assert bill["energy"] == int(plan.msg_dist.sum()) + announce.energy
    assert bill["messages"] == plan.messages + announce.messages
