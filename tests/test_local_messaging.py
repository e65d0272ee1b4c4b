"""Tests for §III local messaging: both kernels, both modes, masked
variants, and the Theorem 1/3 cost envelopes.

* Oracle: :func:`oracle_broadcast` and :func:`oracle_reduce` run the
  reference round structure — direct rounds by child rank, virtual rounds
  by relay depth and sibling slot — with one ``send`` per round, built
  from the tree and its virtual schedule independently of the cached
  plans. ``tests/test_engine_equivalence.py`` holds both engines' kernels
  to them on a scalar machine.
* Sibling order: a non-commutative reduce folds children in stored-
  position order, in both modes and on both engines.
* Masks: ``families`` and ``contribute`` must have one entry per vertex.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.spatial import (
    SpatialTree,
    family_broadcast,
    family_reduce,
    local_broadcast,
    local_reduce,
)
from repro.trees import (
    path_tree,
    prufer_random_tree,
    random_attachment_tree,
    star_tree,
)

ENGINES = ("scalar", "batched")
MODES = ("direct", "virtual")


# --------------------------------------------------------------------- #
# oracle: the reference rounds, one send per round
# --------------------------------------------------------------------- #


def children_by_rank(st_) -> list[np.ndarray]:
    """Direct rounds: group ``k`` holds each parent's ``k``-th child in
    stored-position order, as ``(parent, child)`` rows, parents ascending."""
    offsets, targets = st_.tree.children_csr()
    pos = st_.layout.position
    groups: list[list[tuple[int, int]]] = []
    for v in range(st_.n):
        kids = targets[offsets[v] : offsets[v + 1]]
        kids = kids[np.argsort(pos[kids], kind="stable")]
        for k, c in enumerate(kids):
            if k >= len(groups):
                groups.append([])
            groups[k].append((v, int(c)))
    return [np.array(g, dtype=np.int64).reshape(-1, 2) for g in groups]


def oracle_broadcast(st_, values, families=None, *, mode=None):
    """Local broadcast, or its ``families``-masked form, one ``send`` per
    round: direct rounds by child rank; virtual rounds are the current
    children, who hear their parent, then the appended children by
    ascending relay depth, each relay forwarding its family parent's
    value."""
    values = np.asarray(values)
    received = values.copy()
    if (mode or st_.mode) == "direct":
        rounds = [(e, e[:, 0]) for e in children_by_rank(st_)]
    else:
        sched = st_.virtual_schedule
        rounds = [(sched.cur_edges, sched.cur_edges[:, 0])]
        rounds += [(e, sched.family[e[:, 1]]) for e in sched.app_rounds]
    for edges, fam in rounds:
        senders, children = edges[:, 0], edges[:, 1]
        if families is not None:
            keep = families[fam]
            senders, children, fam = senders[keep], children[keep], fam[keep]
        if len(senders):
            st_.send(senders, children, values[fam])
            received[children] = values[fam]
    return received


def _send_and_fold(st_, edges, acc, msg, op) -> None:
    """One round: every child sends its message to its parent, who folds
    it into ``acc``."""
    parents, children = edges[:, 0], edges[:, 1]
    if len(parents):
        st_.send(children, parents, msg[children])
        acc[parents] = op(acc[parents], msg[children])


def oracle_reduce(st_, values, families=None, *, op=np.add, identity=0,
                  contribute=None, mode=None):
    """Local reduce, or its masked form, one ``send`` per round: direct
    rounds by child rank; virtual rounds by descending relay depth, each
    split into sibling slot 0 (the earlier interval) then slot 1 and folded
    into the relays' interval accumulators, then the current children's
    two slots, folded into the result."""
    values = np.asarray(values)
    msg = values if contribute is None else np.where(contribute, values, identity)
    result = np.full_like(values, identity)
    if (mode or st_.mode) == "direct":
        for edges in children_by_rank(st_):
            keep = slice(None) if families is None else families[edges[:, 0]]
            _send_and_fold(st_, edges[keep], result, msg, op)
        return result
    sched = st_.virtual_schedule
    vt = sched.vt
    acc_iv = np.array(msg, copy=True)
    rounds = [(e, vt.app, acc_iv, sched.family[e[:, 1]]) for e in reversed(sched.app_rounds)]
    rounds.append((sched.cur_edges, vt.cur, result, sched.cur_edges[:, 0]))
    for edges, table, target, fam in rounds:
        slot0 = table[edges[:, 0], 0] == edges[:, 1]
        for in_slot in (slot0, ~slot0):
            keep = in_slot if families is None else in_slot & families[fam]
            _send_and_fold(st_, edges[keep], target, acc_iv, op)
    return result


def expected_broadcast(tree, values):
    out = values.copy()
    nonroot = tree.parents >= 0
    out[nonroot] = values[tree.parents[nonroot]]
    return out


def expected_reduce(tree, values, op=np.add, identity=0):
    out = np.full(tree.n, identity, dtype=np.int64)
    for v in range(tree.n):
        p = tree.parents[v]
        if p >= 0:
            out[p] = op(out[p], values[v])
    return out


@pytest.mark.parametrize("mode", ["direct", "virtual"])
class TestKernels:
    def test_broadcast_matches_reference(self, zoo_tree, rng, mode):
        vals = rng.integers(0, 1000, size=zoo_tree.n)
        st_ = SpatialTree.build(zoo_tree, mode=mode)
        got = local_broadcast(st_, vals)
        assert np.array_equal(got, expected_broadcast(zoo_tree, vals))

    def test_reduce_matches_reference(self, zoo_tree, rng, mode):
        vals = rng.integers(0, 1000, size=zoo_tree.n)
        st_ = SpatialTree.build(zoo_tree, mode=mode)
        got = local_reduce(st_, vals)
        assert np.array_equal(got, expected_reduce(zoo_tree, vals))

    def test_reduce_max_operator(self, zoo_tree, rng, mode):
        vals = rng.integers(-500, 500, size=zoo_tree.n)
        st_ = SpatialTree.build(zoo_tree, mode=mode)
        lo = np.int64(np.iinfo(np.int64).min)
        got = local_reduce(st_, vals, op=np.maximum, identity=lo)
        assert np.array_equal(got, expected_reduce(zoo_tree, vals, np.maximum, lo))

    def test_methods_on_spatial_tree(self, zoo_tree, rng, mode):
        vals = rng.integers(0, 10, size=zoo_tree.n)
        st_ = SpatialTree.build(zoo_tree, mode=mode)
        assert np.array_equal(
            st_.local_broadcast(vals), expected_broadcast(zoo_tree, vals)
        )

    def test_values_shape_checked(self, zoo_tree, rng, mode):
        st_ = SpatialTree.build(zoo_tree, mode=mode)
        with pytest.raises(ValidationError):
            local_broadcast(st_, np.zeros(zoo_tree.n + 1))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_kernels_bill_like_the_oracle(self, zoo_tree, rng, mode, engine):
        """Answers, per-phase bills, clocks and steps equal the oracle's,
        run with one send per round on a scalar machine."""
        n = zoo_tree.n
        vals = rng.integers(-50, 50, size=n)
        families = rng.random(n) < 0.5
        contribute = rng.random(n) < 0.7
        got = SpatialTree.build(zoo_tree, mode=mode, engine=engine)
        ref = SpatialTree.build(zoo_tree, mode=mode)
        with ref.machine.phase("local_broadcast"):
            want = [oracle_broadcast(ref, vals)]
        with ref.machine.phase("local_reduce"):
            want.append(oracle_reduce(ref, vals))
        want.append(oracle_broadcast(ref, vals, families))
        want.append(oracle_reduce(ref, vals, families, contribute=contribute))
        answers = [
            local_broadcast(got, vals),
            local_reduce(got, vals),
            family_broadcast(got, vals, families),
            family_reduce(got, vals, families, contribute=contribute),
        ]
        for a, b in zip(answers, want):
            assert np.array_equal(a, b)
        assert got.machine.ledger.summary() == ref.machine.ledger.summary()
        assert np.array_equal(got.machine.clock, ref.machine.clock)
        assert got.machine.steps == ref.machine.steps


class TestMaskedVariants:
    def test_family_broadcast_only_selected(self, rng):
        t = random_attachment_tree(120, seed=3)
        vals = rng.integers(0, 100, size=120)
        families = np.zeros(120, dtype=bool)
        chosen = [int(v) for v in range(120) if len(t.children(v))][:5]
        families[chosen] = True
        st_ = SpatialTree.build(t)
        got = family_broadcast(st_, vals, families)
        for v in range(120):
            p = t.parents[v]
            if p >= 0 and families[p]:
                assert got[v] == vals[p]
            else:
                assert got[v] == vals[v]

    def test_family_reduce_contribute_mask(self, rng):
        t = star_tree(40)
        vals = rng.integers(1, 10, size=40)
        contribute = np.zeros(40, dtype=bool)
        contribute[1:20] = True
        fam = np.zeros(40, dtype=bool)
        fam[0] = True
        st_ = SpatialTree.build(t, mode="virtual")
        got = family_reduce(st_, vals, fam, contribute=contribute)
        assert got[0] == vals[1:20].sum()

    def test_family_reduce_inactive_family_gets_identity(self):
        t = path_tree(5)
        st_ = SpatialTree.build(t)
        got = family_reduce(st_, np.ones(5, dtype=np.int64), np.zeros(5, dtype=bool))
        assert (got == 0).all()


class TestCostEnvelopes:
    def test_linear_energy_in_n(self):
        """Theorem 1/3: one local broadcast is O(n) energy; per-vertex
        energy must stay bounded across a 16x size increase."""
        per = []
        for n in (1024, 16384):
            t = prufer_random_tree(n, seed=1)
            st_ = SpatialTree.build(t, mode="virtual")
            st_.virtual_schedule  # build (and charge) once
            base = st_.machine.energy
            local_broadcast(st_, np.zeros(n, dtype=np.int64))
            per.append((st_.machine.energy - base) / n)
        assert per[1] <= per[0] * 1.5

    def test_virtual_depth_logarithmic_on_star(self):
        n = 4096
        st_ = SpatialTree.build(star_tree(n), mode="virtual")
        st_.virtual_schedule  # construction charge (itself O(log n)) first
        before = st_.machine.depth
        assert before <= 6 * np.log2(n)
        local_broadcast(st_, np.zeros(n, dtype=np.int64))
        assert st_.machine.depth - before <= 3 * np.log2(n)

    def test_direct_depth_linear_on_star(self):
        n = 512
        st_ = SpatialTree.build(star_tree(n), mode="direct")
        local_broadcast(st_, np.zeros(n, dtype=np.int64))
        assert st_.machine.depth >= n - 2

    def test_bounded_degree_direct_depth_constant(self):
        st_ = SpatialTree.build(path_tree(2048), mode="direct")
        local_broadcast(st_, np.zeros(2048, dtype=np.int64))
        assert st_.machine.depth <= 4

    def test_auto_mode_selection(self):
        assert SpatialTree.build(path_tree(64)).mode == "direct"
        assert SpatialTree.build(star_tree(64)).mode == "virtual"

    def test_virtual_construction_charged_once(self):
        t = star_tree(100)
        st_ = SpatialTree.build(t, mode="virtual")
        local_broadcast(st_, np.zeros(100, dtype=np.int64))
        e1 = st_.machine.energy
        local_broadcast(st_, np.zeros(100, dtype=np.int64))
        e2 = st_.machine.energy - e1
        # second broadcast is cheaper: no construction charge
        construction = st_.machine.ledger.summary().get(
            "virtual_tree_construction", {"energy": 0}
        )["energy"]
        assert construction > 0
        assert e2 < e1


def sibling_concat(st_, strs, families=None, contribute=None):
    """Each (active) parent's children's strings joined in stored-position
    order; everyone else gets the empty string."""
    out = np.full(st_.n, "", dtype=object)
    pos = st_.layout.position
    for p in range(st_.n):
        if families is None or families[p]:
            kids = sorted(st_.tree.children(p), key=lambda c: pos[c])
            out[p] = "".join(strs[c] for c in kids if contribute is None or contribute[c])
    return out


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", MODES)
class TestFoldOrderAndDtype:
    """What merging the kernels must not change: string concatenation is
    associative but not commutative, so the fold must follow sibling
    order; and a masked reduce answers in the values' dtype."""

    def test_local_reduce_concatenates_in_sibling_order(self, mode, engine):
        # high degree, so virtual mode folds through appended relays
        st_ = SpatialTree.build(random_attachment_tree(150, seed=21), mode=mode, engine=engine)
        strs = np.array([f"<{v}>" for v in range(st_.n)], dtype=object)
        got = local_reduce(st_, strs, op=np.add, identity="")
        assert got.tolist() == sibling_concat(st_, strs).tolist()

    def test_family_reduce_concatenates_in_sibling_order(self, mode, engine, rng):
        st_ = SpatialTree.build(random_attachment_tree(150, seed=22), mode=mode, engine=engine)
        strs = np.array([f"<{v}>" for v in range(st_.n)], dtype=object)
        families = rng.random(st_.n) < 0.5
        contribute = rng.random(st_.n) < 0.7
        got = family_reduce(st_, strs, families, op=np.add, identity="", contribute=contribute)
        assert got.tolist() == sibling_concat(st_, strs, families, contribute).tolist()

    def test_family_reduce_bool_values_stay_bool(self, mode, engine):
        st_ = SpatialTree.build(star_tree(40), mode=mode, engine=engine)
        contribute = np.zeros(40, dtype=bool)
        contribute[1:6] = True
        got = family_reduce(st_, np.ones(40, dtype=bool), np.ones(40, dtype=bool),
                            contribute=contribute)
        assert got.dtype == bool
        assert got[0] is np.True_


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("mode", MODES)
class TestMaskShapes:
    """``families`` and ``contribute`` need one entry per vertex, like
    ``values``; a short mask is an error, never a silent partial mask."""

    def _tree(self, mode, engine):
        return SpatialTree.build(random_attachment_tree(200, seed=5), mode=mode, engine=engine)

    def test_short_families_rejected(self, mode, engine):
        st_ = self._tree(mode, engine)
        vals = np.arange(200)
        with pytest.raises(ValidationError, match="families"):
            family_broadcast(st_, vals, np.ones(150, dtype=bool))
        with pytest.raises(ValidationError, match="families"):
            family_reduce(st_, vals, np.ones(150, dtype=bool))

    def test_one_entry_contribute_rejected(self, mode, engine):
        st_ = self._tree(mode, engine)
        with pytest.raises(ValidationError, match="contribute"):
            family_reduce(st_, np.arange(200), np.ones(200, dtype=bool),
                          contribute=np.array([False]))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=150), seed=st.integers(0, 500))
def test_property_broadcast_reduce_roundtrip(n, seed):
    """broadcast(ones) then reduce(received) counts children correctly."""
    t = random_attachment_tree(n, seed=seed)
    st_ = SpatialTree.build(t)
    received = local_broadcast(st_, np.arange(n, dtype=np.int64))
    nonroot = t.parents >= 0
    assert np.array_equal(received[nonroot], t.parents[nonroot])
    counts = local_reduce(st_, np.ones(n, dtype=np.int64))
    assert np.array_equal(counts, t.num_children())
