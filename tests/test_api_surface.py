"""Coverage of the remaining public-API surface: small helpers, reprs,
caching behaviour, and a stateful property test of the register file."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import MemoryBudgetError, ValidationError
from repro.machine import RegisterFile, SpatialMachine, scatter
from repro.spatial import SpatialTree
from repro.trees import path_tree, prufer_random_tree, star_tree


class TestSmallHelpers:
    def test_scatter_charges_like_send(self):
        m1 = SpatialMachine(32)
        m2 = SpatialMachine(32)
        src = np.arange(5)
        dst = np.arange(10, 15)
        scatter(m1, src, dst, np.zeros(5))
        m2.send(src, dst, np.zeros(5))
        assert m1.snapshot() == m2.snapshot()

    def test_gather_from(self):
        m = SpatialMachine(16)
        values = np.arange(16) * 3
        got = m.gather_from(np.array([0, 1]), np.array([5, 7]), values)
        assert list(got) == [15, 21]
        assert m.messages == 2

    def test_machine_repr_mentions_costs(self):
        m = SpatialMachine(16)
        m.send(0, 5)
        text = repr(m)
        assert "energy=" in text and "n=16" in text

    def test_spatial_tree_repr(self):
        st_ = SpatialTree.build(path_tree(8))
        assert "SpatialTree" in repr(st_)

    def test_layout_repr(self):
        from repro.layout import TreeLayout

        assert "TreeLayout" in repr(TreeLayout.build(path_tree(8)))

    def test_tree_repr(self):
        assert "Tree(n=8" in repr(path_tree(8))

    def test_curve_repr(self):
        from repro.curves import get_curve

        assert "hilbert" in repr(get_curve("hilbert"))


class TestCaching:
    def test_virtual_schedule_cached(self):
        st_ = SpatialTree.build(star_tree(64), mode="virtual")
        s1 = st_.virtual_schedule
        e1 = st_.machine.energy
        s2 = st_.virtual_schedule
        assert s1 is s2
        assert st_.machine.energy == e1  # no double charging

    def test_local_plans_cached(self):
        from repro.spatial.local_messaging import family_plans, local_broadcast

        for engine in ("scalar", "batched"):
            st_ = SpatialTree.build(prufer_random_tree(60, seed=1), mode="direct", engine=engine)
            vals = np.arange(60)
            local_broadcast(st_, vals)
            local_broadcast(st_, vals)
            pc = st_.machine.plan_cache
            assert pc.misses == {"batched_direct": 1}, engine
            assert pc.hits == {"batched_direct": 1}, engine
            assert family_plans(st_, "direct") is st_._direct_plan

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_virtual_kernels_build_only_their_plan(self, engine):
        from repro.spatial.local_messaging import (
            family_broadcast,
            family_reduce,
            local_broadcast,
            local_reduce,
        )

        st_ = SpatialTree.build(star_tree(64), mode="virtual", engine=engine)
        vals = np.arange(64)
        pc = st_.machine.plan_cache
        local_broadcast(st_, vals)
        family_broadcast(st_, vals, np.ones(64, dtype=bool))
        assert getattr(st_, "_virtual_reduce_plan", None) is None
        assert "batched_virtual_reduce" not in {**pc.hits, **pc.misses}
        assert (pc.misses["batched_virtual_bcast"], pc.hits["batched_virtual_bcast"]) == (1, 1)
        local_reduce(st_, vals)
        family_reduce(st_, vals, np.ones(64, dtype=bool))
        assert (pc.misses["batched_virtual_reduce"], pc.hits["batched_virtual_reduce"]) == (1, 1)
        assert (pc.misses["batched_virtual_bcast"], pc.hits["batched_virtual_bcast"]) == (1, 1)

    def test_tree_lazy_caches_are_consistent(self):
        t = prufer_random_tree(50, seed=2)
        s1 = t.subtree_sizes()
        s2 = t.subtree_sizes()
        assert s1 is s2
        d1 = t.depths()
        assert d1 is t.depths()

    def test_ledger_summary_shape(self):
        m = SpatialMachine(8)
        with m.phase("a"):
            m.send(0, 1)
        s = m.ledger.summary()
        assert set(s) == {"total", "a"}
        assert s["a"]["depth"] >= 1


class RegisterFileMachine(RuleBasedStateMachine):
    """Stateful check: the register file never exceeds its budget, tracks
    its peak, and alloc/free stay consistent under arbitrary interleaving."""

    def __init__(self):
        super().__init__()
        self.rf = RegisterFile(8, budget=5)
        self.model = set()

    names = st.sampled_from([f"r{i}" for i in range(8)])

    @rule(name=names)
    def alloc(self, name):
        if name in self.model:
            with pytest.raises(ValidationError):
                self.rf.alloc(name)
        elif len(self.model) >= 5:
            with pytest.raises(MemoryBudgetError):
                self.rf.alloc(name)
        else:
            arr = self.rf.alloc(name)
            assert arr.shape == (8,)
            self.model.add(name)

    @rule(name=names)
    def free(self, name):
        if name in self.model:
            self.rf.free(name)
            self.model.discard(name)
        else:
            with pytest.raises(ValidationError):
                self.rf.free(name)

    @invariant()
    def live_matches_model(self):
        assert self.rf.live == len(self.model)
        assert self.rf.peak <= self.rf.budget
        for name in self.model:
            assert name in self.rf


TestRegisterFileStateful = RegisterFileMachine.TestCase
TestRegisterFileStateful.settings = settings(max_examples=25, deadline=None)


class TestForestToLocalEdges:
    def test_to_local_boundaries(self):
        from repro.trees import combine_forest, path_tree as pt

        idx = combine_forest([pt(3), pt(4)])
        t, local = idx.to_local(np.array([1, 3, 4, 7]))
        assert list(t) == [0, 0, 1, 1]
        assert list(local) == [0, 2, 0, 3]
