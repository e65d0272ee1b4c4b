"""Failure injection: broken randomness, exhausted budgets, misuse.

Las Vegas algorithms must fail *loudly* (ConvergenceError) when their
randomness is sabotaged, never loop forever or return wrong answers; the
memory model must reject over-budget algorithms; and the error hierarchy
must behave as documented.
"""

import numpy as np
import pytest

from repro.errors import (
    ConvergenceError,
    MachineStateError,
    MemoryBudgetError,
    ReproError,
    TreeStructureError,
    ValidationError,
)
from repro.machine import SpatialMachine
from repro.spatial import SpatialTree, list_rank
from repro.spatial.treefix import treefix_sum
from repro.trees import path_tree, random_attachment_tree


class AllHeadsRng:
    """A sabotaged duck-typed generator: every coin flip comes up heads.

    Random-mate selection requires a heads-over-tails boundary, so nothing
    is ever selected and contraction can make no progress. ``resolve_rng``
    accepts any object with ``random``/``integers``, which is exactly this
    testing seam.
    """

    def random(self, size=None, **kwargs):
        # always below any bias threshold → always "heads"
        return np.zeros(size) if size is not None else 0.0

    def integers(self, low, high=None, size=None, **kwargs):
        return np.ones(size, dtype=np.int64) if size is not None else 1


class TestSabotagedRandomness:
    def test_list_ranking_raises_convergence_error(self):
        # all-heads coins select nobody (selection needs succ to be tails)
        succ = np.concatenate([np.arange(1, 64), [-1]])
        m = SpatialMachine(64)
        with pytest.raises(ConvergenceError, match="did not contract"):
            list_rank(m, succ, seed=AllHeadsRng(), max_rounds=50)

    def test_treefix_raises_convergence_error_on_path(self):
        # a long path needs compress; all-heads coins never select
        tree = path_tree(128)
        st = SpatialTree.build(tree)
        with pytest.raises(ConvergenceError, match="contraction exceeded"):
            treefix_sum(st, np.ones(128, dtype=np.int64), seed=AllHeadsRng(), max_rounds=30)

    def test_registers_released_after_convergence_failure(self):
        tree = path_tree(64)
        st = SpatialTree.build(tree)
        with pytest.raises(ConvergenceError):
            treefix_sum(st, np.ones(64, dtype=np.int64), seed=AllHeadsRng(), max_rounds=10)
        assert st.machine.registers.live == 0
        # and a healthy run afterwards succeeds
        out = treefix_sum(st, np.ones(64, dtype=np.int64), seed=1)
        assert out[0] == 64

    def test_star_rakes_even_with_bad_coins(self):
        """Rake does not involve coins, so a star contracts regardless."""
        from repro.trees import star_tree

        st = SpatialTree.build(star_tree(64))
        out = treefix_sum(st, np.ones(64, dtype=np.int64), seed=AllHeadsRng())
        assert out[0] == 64


class TestBudgets:
    def test_treefix_exceeds_tiny_register_budget(self):
        tree = random_attachment_tree(32, seed=1)
        st = SpatialTree.build(tree, budget=4)
        with pytest.raises(MemoryBudgetError):
            treefix_sum(st, np.ones(32, dtype=np.int64), seed=2)
        # the registers allocated before the failure are released, so the
        # next call fails on the budget again rather than on a leak
        assert st.machine.registers.live == 0
        with pytest.raises(MemoryBudgetError):
            treefix_sum(st, np.ones(32, dtype=np.int64), seed=2)

    def test_budget_error_is_repro_error(self):
        assert issubclass(MemoryBudgetError, ReproError)
        assert issubclass(ConvergenceError, ReproError)
        assert issubclass(MachineStateError, ReproError)

    def test_validation_error_is_value_error(self):
        # callers can catch either the library base or ValueError
        assert issubclass(ValidationError, ValueError)
        assert issubclass(TreeStructureError, ValidationError)


class TestMisuse:
    def test_treefix_bad_coin_bias(self):
        st = SpatialTree.build(path_tree(8))
        with pytest.raises(ValidationError, match="coin_bias"):
            treefix_sum(st, np.ones(8, dtype=np.int64), coin_bias=0.0)
        with pytest.raises(ValidationError, match="coin_bias"):
            treefix_sum(st, np.ones(8, dtype=np.int64), coin_bias=1.0)

    def test_list_rank_bad_coin_bias(self):
        m = SpatialMachine(4)
        with pytest.raises(ValidationError, match="coin_bias"):
            list_rank(m, np.array([1, 2, 3, -1]), coin_bias=2.0)

    def test_machine_layout_mismatch(self):
        from repro.layout import TreeLayout

        layout = TreeLayout.build(path_tree(16))
        other = SpatialMachine(8)
        with pytest.raises(ValidationError):
            SpatialTree(layout, machine=other)

    def test_spatial_tree_bad_mode(self):
        from repro.layout import TreeLayout

        layout = TreeLayout.build(path_tree(4))
        with pytest.raises(ValidationError, match="mode"):
            SpatialTree(layout, mode="warp")

    def test_send_after_tampering_rejected(self):
        st = SpatialTree.build(path_tree(4))
        with pytest.raises(ValidationError):
            st.send([0], [99])
