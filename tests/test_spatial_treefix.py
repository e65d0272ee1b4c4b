"""Tests for the §V contraction-based treefix sums: correctness against the
sequential references on every zoo shape, both directions, both messaging
modes, alternative operators, cost envelopes, and memory discipline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tests.test_failure_modes import AllHeadsRng

from repro.errors import ConvergenceError, ValidationError
from repro.spatial import SpatialTree
from repro.spatial.graph import one_respecting_cuts
from repro.spatial.treefix import top_down_treefix, treefix_sum
from repro.trees import (
    bottom_up_treefix as ref_bottom_up,
    path_tree,
    prufer_random_tree,
    random_attachment_tree,
    random_binary_tree,
    star_tree,
    top_down_treefix as ref_top_down,
)


@pytest.mark.parametrize("mode", ["direct", "virtual"])
class TestCorrectness:
    def test_bottom_up_zoo(self, zoo_tree, rng, mode):
        vals = rng.integers(-100, 100, size=zoo_tree.n)
        st_ = SpatialTree.build(zoo_tree, mode=mode)
        got = treefix_sum(st_, vals, seed=1)
        assert np.array_equal(got, ref_bottom_up(zoo_tree, vals))

    def test_top_down_zoo(self, zoo_tree, rng, mode):
        vals = rng.integers(-100, 100, size=zoo_tree.n)
        st_ = SpatialTree.build(zoo_tree, mode=mode)
        got = top_down_treefix(st_, vals, seed=1)
        assert np.array_equal(got, ref_top_down(zoo_tree, vals))

    def test_different_seeds_same_answer(self, mode):
        """Las Vegas: randomness affects cost, never the result."""
        t = prufer_random_tree(200, seed=5)
        vals = np.arange(200)
        results = [
            treefix_sum(SpatialTree.build(t, mode=mode), vals, seed=s)
            for s in (1, 2, 3)
        ]
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[1], results[2])


class TestOperators:
    def test_max(self, rng):
        t = random_attachment_tree(150, seed=2)
        vals = rng.integers(-1000, 1000, size=150)
        st_ = SpatialTree.build(t)
        lo = np.int64(np.iinfo(np.int64).min)
        got = treefix_sum(st_, vals, op=np.maximum, identity=lo, seed=4)
        assert np.array_equal(got, ref_bottom_up(t, vals, op=np.maximum))

    def test_min_top_down(self, rng):
        t = random_attachment_tree(150, seed=3)
        vals = rng.integers(-1000, 1000, size=150)
        st_ = SpatialTree.build(t)
        hi = np.int64(np.iinfo(np.int64).max)
        got = top_down_treefix(st_, vals, op=np.minimum, identity=hi, seed=4)
        assert np.array_equal(got, ref_top_down(t, vals, op=np.minimum))

    def test_bitwise_or(self, rng):
        t = random_binary_tree(100, seed=4)
        vals = rng.integers(0, 2**20, size=100)
        st_ = SpatialTree.build(t)
        got = treefix_sum(st_, vals, op=np.bitwise_or, identity=0, seed=5)
        assert np.array_equal(got, ref_bottom_up(t, vals, op=np.bitwise_or))

    def test_float_values_sum(self, rng):
        t = random_attachment_tree(200, seed=21)
        vals = rng.random(200) * 10 - 5
        st_ = SpatialTree.build(t)
        got = treefix_sum(st_, vals, identity=0.0, seed=22)
        # float accumulation order differs between spatial and sequential
        assert np.allclose(got, ref_bottom_up(t, vals))
        assert got.dtype == np.float64

    def test_float_values_max_and_top_down(self, rng):
        t = random_attachment_tree(150, seed=23)
        vals = rng.random(150)
        got = treefix_sum(
            SpatialTree.build(t), vals, op=np.maximum, identity=-np.inf, seed=24
        )
        assert np.allclose(got, ref_bottom_up(t, vals, op=np.maximum))
        td = top_down_treefix(SpatialTree.build(t), vals, identity=0.0, seed=25)
        assert np.allclose(td, ref_top_down(t, vals))

    def test_unsupported_dtype_rejected(self):
        st_ = SpatialTree.build(path_tree(4))
        with pytest.raises(ValidationError, match="values"):
            treefix_sum(st_, np.zeros(4, dtype=complex))

    def test_subtree_sizes_via_ones(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        got = treefix_sum(st_, np.ones(zoo_tree.n, dtype=np.int64), seed=6)
        assert np.array_equal(got, zoo_tree.subtree_sizes())

    def test_depths_via_top_down_ones(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        got = top_down_treefix(st_, np.ones(zoo_tree.n, dtype=np.int64), seed=6)
        assert np.array_equal(got, zoo_tree.depths() + 1)


class TestCosts:
    def test_energy_n_log_n_envelope(self):
        """Lemma 11/12: energy / (n log n) stays bounded across sizes."""
        per = []
        for n in (1024, 8192):
            t = prufer_random_tree(n, seed=7)
            st_ = SpatialTree.build(t, mode="virtual")
            treefix_sum(st_, np.ones(n, dtype=np.int64), seed=8)
            per.append(st_.machine.energy / (n * np.log2(n)))
        assert per[1] <= per[0] * 1.5

    def test_depth_polylog_unbounded(self):
        n = 8192
        t = prufer_random_tree(n, seed=9)
        st_ = SpatialTree.build(t, mode="virtual")
        treefix_sum(st_, np.ones(n, dtype=np.int64), seed=10)
        assert st_.machine.depth <= 10 * np.log2(n) ** 2

    def test_depth_near_log_bounded_degree(self):
        n = 8192
        t = random_binary_tree(n, seed=11)
        st_ = SpatialTree.build(t, mode="direct")
        treefix_sum(st_, np.ones(n, dtype=np.int64), seed=12)
        # Lemma 11: O(log n) — generous constant for random-mate rounds
        assert st_.machine.depth <= 40 * np.log2(n)

    def test_memory_budget_respected(self):
        """The contraction state must fit the constant register budget."""
        t = prufer_random_tree(300, seed=13)
        st_ = SpatialTree.build(t)
        treefix_sum(st_, np.ones(300, dtype=np.int64), seed=14)
        assert st_.machine.registers.peak <= st_.machine.registers.budget
        assert st_.machine.registers.live == 0  # all registers released

    def test_registers_released_on_error(self):
        t = path_tree(5)
        st_ = SpatialTree.build(t)
        with pytest.raises(ValidationError):
            treefix_sum(st_, np.ones(6, dtype=np.int64))
        # a second run must not collide with leaked registers
        treefix_sum(st_, np.ones(5, dtype=np.int64), seed=1)

    def test_phase_attribution(self):
        t = random_attachment_tree(100, seed=15)
        st_ = SpatialTree.build(t)
        treefix_sum(st_, np.ones(100, dtype=np.int64), seed=16)
        phases = st_.machine.ledger.summary()
        assert "treefix_bottom_up_contract" in phases
        assert "treefix_bottom_up_expand" in phases
        assert phases["treefix_bottom_up_contract"]["energy"] > 0


class TestEdgeCases:
    def test_single_vertex(self):
        st_ = SpatialTree.build(path_tree(1))
        assert treefix_sum(st_, np.array([42]), seed=0)[0] == 42
        st2 = SpatialTree.build(path_tree(1))
        assert top_down_treefix(st2, np.array([42]), seed=0)[0] == 42

    def test_two_vertices(self):
        st_ = SpatialTree.build(path_tree(2))
        got = treefix_sum(st_, np.array([10, 5]), seed=0)
        assert list(got) == [15, 5]

    def test_pure_path_compress_only(self):
        n = 257
        st_ = SpatialTree.build(path_tree(n))
        got = treefix_sum(st_, np.ones(n, dtype=np.int64), seed=3)
        assert np.array_equal(got, np.arange(n, 0, -1))

    def test_pure_star_rake_only(self):
        n = 257
        st_ = SpatialTree.build(star_tree(n), mode="virtual")
        vals = np.arange(n)
        got = treefix_sum(st_, vals, seed=3)
        assert got[0] == vals.sum()
        assert np.array_equal(got[1:], vals[1:])

    def test_values_shape_checked(self):
        st_ = SpatialTree.build(path_tree(4))
        with pytest.raises(ValidationError):
            treefix_sum(st_, np.zeros(5))


def _schedule_counts(st_) -> tuple[int, int]:
    pc = st_.machine.plan_cache
    return pc.hits.get("treefix_schedule", 0), pc.misses.get("treefix_schedule", 0)


class TestScheduleCache:
    """The compiled contraction schedule: one memo slot per tree, keyed by
    (mode, seed, coin_bias), filled for integer seeds only."""

    def test_same_seed_new_payload_replays(self, rng):
        t = random_attachment_tree(300, seed=31)
        st_ = SpatialTree.build(t)
        sizes = treefix_sum(st_, np.ones(300, dtype=np.int64), seed=5)
        vals = rng.integers(-50, 50, size=300)
        got = treefix_sum(st_, vals, seed=5)
        assert _schedule_counts(st_) == (1, 1)
        assert np.array_equal(sizes, t.subtree_sizes())
        assert np.array_equal(got, ref_bottom_up(t, vals))

    def test_top_down_replays_the_bottom_up_schedule(self, rng):
        t = prufer_random_tree(250, seed=32)
        st_ = SpatialTree.build(t)
        vals = rng.integers(-50, 50, size=250)
        treefix_sum(st_, vals, seed=6)
        got = top_down_treefix(st_, vals, seed=6)
        assert _schedule_counts(st_) == (1, 1)
        assert np.array_equal(got, ref_top_down(t, vals))

    def test_prepare_lca_compiles_once(self):
        st_ = SpatialTree.build(random_attachment_tree(200, seed=33))
        st_.prepare_lca(seed=4)
        assert _schedule_counts(st_) == (1, 1)

    def test_cold_one_respecting_cuts_compiles_once(self):
        t = random_attachment_tree(120, seed=34)
        # distinct endpoints: no vertex is hot, so the LCA runs on this tree
        extra = np.random.default_rng(34).permutation(120)[:40].reshape(-1, 2)
        st_ = SpatialTree.build(t)
        one_respecting_cuts(st_, extra, seed=7)
        assert _schedule_counts(st_) == (2, 1)

    def test_uncacheable_seeds_never_fill_the_slot(self):
        ones = np.ones(200, dtype=np.int64)
        t = prufer_random_tree(200, seed=35)
        for seed in (None, np.random.default_rng(3)):
            st_ = SpatialTree.build(t)
            treefix_sum(st_, ones, seed=seed)
            treefix_sum(st_, ones, seed=seed)
            assert st_._treefix_schedule is None
            assert _schedule_counts(st_) == (0, 2)
        star = SpatialTree.build(star_tree(64))
        treefix_sum(star, np.ones(64, dtype=np.int64), seed=AllHeadsRng())
        assert star._treefix_schedule is None
        # a generator with the same stream charges what the integer seed does
        by_rng, by_int = SpatialTree.build(t), SpatialTree.build(t)
        treefix_sum(by_rng, ones, seed=np.random.default_rng(3))
        treefix_sum(by_int, ones, seed=3)
        assert by_rng.machine.energy == by_int.machine.energy
        assert by_rng.machine.depth == by_int.machine.depth

    def test_key_change_replaces_the_one_slot(self, rng):
        t = prufer_random_tree(200, seed=36)
        st_ = SpatialTree.build(t, mode="direct")
        vals = rng.integers(-50, 50, size=200)
        keys = []
        for seed, bias, mode in ((1, 0.5, "direct"), (2, 0.5, "direct"),
                                 (2, 0.3, "direct"), (2, 0.3, "virtual")):
            st_.mode = mode
            got = treefix_sum(st_, vals, seed=seed, coin_bias=bias)
            assert np.array_equal(got, ref_bottom_up(t, vals))
            keys.append(st_._treefix_schedule.key)
        assert keys == [("direct", 1, 0.5), ("direct", 2, 0.5),
                        ("direct", 2, 0.3), ("virtual", 2, 0.3)]
        assert _schedule_counts(st_) == (0, 4)

    def test_convergence_error_caches_and_charges_nothing(self):
        st_ = SpatialTree.build(path_tree(128))
        with pytest.raises(ConvergenceError, match="contraction exceeded 2 rounds"):
            treefix_sum(st_, np.ones(128, dtype=np.int64), seed=1, max_rounds=2)
        assert st_._treefix_schedule is None
        assert st_.machine.registers.live == 0
        assert st_.machine.energy == 0

    @pytest.mark.parametrize("stage", ["contraction", "uncontraction"])
    def test_cached_schedule_still_enforces_max_rounds(self, stage):
        # the random tree's undo needs more rounds than its contraction
        t = path_tree(128) if stage == "contraction" else random_attachment_tree(200, seed=1)
        ones = np.ones(t.n, dtype=np.int64)
        warm = SpatialTree.build(t)
        treefix_sum(warm, ones, seed=1)
        cap = warm.last_contraction_rounds - (stage == "contraction")
        prefix = "tree contraction" if stage == "contraction" else "uncontraction"
        with pytest.raises(ConvergenceError, match=f"^{prefix} exceeded {cap} rounds") as live:
            treefix_sum(SpatialTree.build(t), ones, seed=1, max_rounds=cap)
        warm.machine.reset_costs()
        with pytest.raises(ConvergenceError) as replayed:
            treefix_sum(warm, ones, seed=1, max_rounds=cap)
        assert str(replayed.value) == str(live.value)
        assert warm.machine.registers.live == 0
        assert warm.machine.energy == 0

    @pytest.mark.parametrize("mode", ["direct", "virtual"])
    def test_schedule_size(self, mode):
        n = 1 << 14
        st_ = SpatialTree.build(prufer_random_tree(n, seed=10), mode=mode)
        treefix_sum(st_, np.ones(n, dtype=np.int64), seed=10)
        sched = st_._treefix_schedule
        assert sched.nbytes <= 96 * n
        # no per-vertex array: the ghost-state sanitizer needs no allowance
        stack = [sched.contract, sched.expand]
        while stack:
            item = stack.pop()
            if isinstance(item, np.ndarray):
                assert len(item) < n
            elif isinstance(item, tuple):
                stack.extend(item)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(min_value=1, max_value=120), seed=st.integers(0, 400))
def test_property_spatial_matches_reference(n, seed):
    t = random_attachment_tree(n, seed=seed)
    rng = np.random.default_rng(seed)
    vals = rng.integers(-50, 50, size=n)
    st_ = SpatialTree.build(t)
    assert np.array_equal(treefix_sum(st_, vals, seed=seed), ref_bottom_up(t, vals))


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=1, max_value=100), seed=st.integers(0, 400))
def test_property_top_down_plus_bottom_up_identity(n, seed):
    """sum(root path) + sum(subtree) - val(v) = sum over (ancestors ∪
    descendants) — a cross-check tying the two directions together."""
    t = random_attachment_tree(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    vals = rng.integers(-20, 20, size=n)
    bu = treefix_sum(SpatialTree.build(t), vals, seed=seed)
    td = top_down_treefix(SpatialTree.build(t), vals, seed=seed)
    combined = bu + td - vals
    # verify on a few vertices against brute force
    check = np.random.default_rng(seed + 2).integers(0, n, size=min(5, n))
    for v in check:
        manual = sum(
            vals[u]
            for u in range(n)
            if t.is_ancestor(int(v), u) or t.is_ancestor(u, int(v))
        )
        assert combined[v] == manual
