"""Tests for random-mate list ranking (§IV, Theorem 5) and the §IV layout
creation pipeline (Theorem 4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.layout import is_light_first, light_first_order
from repro.machine import SpatialMachine
from repro.spatial import create_light_first_layout, list_rank, ranks_from_head
from repro.trees import (
    path_tree,
    perfect_kary_tree,
    prufer_random_tree,
    random_attachment_tree,
    star_tree,
)


def random_list(k, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(k)
    succ = np.full(k, -1, dtype=np.int64)
    succ[perm[:-1]] = perm[1:]
    return perm, succ


class TestListRank:
    @pytest.mark.parametrize("k", [1, 2, 3, 10, 100, 777])
    def test_suffix_ranks_correct(self, k):
        perm, succ = random_list(k, k)
        m = SpatialMachine(k)
        res = list_rank(m, succ, seed=5)
        expect = np.empty(k, dtype=np.int64)
        expect[perm] = k - np.arange(k)
        assert np.array_equal(res.ranks, expect)

    def test_head_ranks(self):
        perm, succ = random_list(50, 1)
        m = SpatialMachine(50)
        res = list_rank(m, succ, seed=2)
        heads = ranks_from_head(res.ranks)
        assert np.array_equal(heads[perm], np.arange(50))

    def test_weighted_ranks(self):
        # list 0 -> 1 -> 2 with weights 5, 7, 9: suffix sums 21, 16, 9
        succ = np.array([1, 2, -1])
        m = SpatialMachine(3)
        res = list_rank(m, succ, weights=np.array([5, 7, 9]), seed=0)
        assert list(res.ranks) == [21, 16, 9]

    def test_rounds_logarithmic(self):
        k = 4096
        _, succ = random_list(k, 3)
        m = SpatialMachine(k)
        res = list_rank(m, succ, seed=7)
        assert res.rounds <= 4 * np.log2(k)
        assert res.base_size <= max(2, int(np.ceil(np.log2(k))))

    def test_energy_theta_n_three_halves(self):
        es = []
        for k in (256, 4096):
            _, succ = random_list(k, k)
            m = SpatialMachine(k)
            list_rank(m, succ, seed=1)
            es.append(m.energy)
        exponent = np.log(es[1] / es[0]) / np.log(4096 / 256)
        assert 1.2 <= exponent <= 1.7

    def test_depth_logarithmic(self):
        k = 4096
        _, succ = random_list(k, 9)
        m = SpatialMachine(k)
        list_rank(m, succ, seed=3)
        assert m.depth <= 20 * np.log2(k)

    def test_custom_elem_proc_shared_processors(self):
        # two elements per processor, as the Euler tour uses it
        k = 40
        perm, succ = random_list(k, 4)
        m = SpatialMachine(20)
        elem_proc = np.arange(k) // 2
        res = list_rank(m, succ, elem_proc=elem_proc, seed=5)
        expect = np.empty(k, dtype=np.int64)
        expect[perm] = k - np.arange(k)
        assert np.array_equal(res.ranks, expect)

    def test_rejects_bad_inputs(self):
        m = SpatialMachine(4)
        with pytest.raises(ValidationError):
            list_rank(m, np.array([], dtype=np.int64))
        with pytest.raises(ValidationError):
            list_rank(m, np.array([1, 1, -1, 2]))  # duplicate successor
        with pytest.raises(ValidationError):
            list_rank(m, np.array([1, -1]), weights=np.ones(3))

    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    @pytest.mark.parametrize(
        "succ",
        [[1, 0, -1], [1, 2, 0, 4, 5, -1], [0, 2, -1], [1, 0, 3, -1]],
        ids=["two_cycle_and_tail", "three_cycle_and_chain", "self_loop", "two_cycle_and_pair"],
    )
    def test_cycle_beside_chain_rejected(self, succ, engine):
        # one tail and an injective successor, yet not a single list: the
        # splice check or (with no contraction) the base-case walk rejects it
        succ = np.array(succ)
        for base_threshold in (None, len(succ)):
            for seed in range(4):
                m = SpatialMachine(len(succ), engine=engine)
                with pytest.raises(ValidationError):
                    list_rank(m, succ, seed=seed, base_threshold=base_threshold)
                if (succ == np.arange(len(succ))).any():
                    assert m.messages == 0  # a self-loop is refused before charging

    def test_two_lists_rejected(self):
        m = SpatialMachine(4)
        # 0 -> 1, 2 -> 3 : two tails
        with pytest.raises(ValidationError):
            list_rank(m, np.array([1, -1, 3, -1]), seed=0)

    def test_deterministic_given_seed(self):
        _, succ = random_list(100, 6)
        r1 = list_rank(SpatialMachine(100), succ, seed=11)
        r2 = list_rank(SpatialMachine(100), succ, seed=11)
        assert np.array_equal(r1.ranks, r2.ranks)
        assert r1.rounds == r2.rounds


class TestLayoutCreation:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: path_tree(50),
            lambda: star_tree(50),
            lambda: perfect_kary_tree(5),
            lambda: random_attachment_tree(120, seed=2),
            lambda: prufer_random_tree(90, seed=3),
        ],
        ids=["path", "star", "pbt", "rand", "prufer"],
    )
    def test_matches_sequential_order(self, make):
        tree = make()
        res = create_light_first_layout(tree, seed=4)
        assert np.array_equal(res.layout.order, light_first_order(tree))
        assert is_light_first(tree, res.layout.order)

    def test_arbitrary_initial_placement(self):
        tree = random_attachment_tree(80, seed=5)
        rng = np.random.default_rng(0)
        res = create_light_first_layout(
            tree, seed=6, initial_positions=rng.permutation(80)
        )
        assert np.array_equal(res.layout.order, light_first_order(tree))

    def test_single_vertex(self):
        res = create_light_first_layout(path_tree(1))
        assert res.energy == 0

    def test_energy_matches_permutation_bound(self):
        es = []
        for n in (256, 2048):
            tree = prufer_random_tree(n, seed=7)
            res = create_light_first_layout(tree, seed=8)
            es.append(res.energy)
        exponent = np.log(es[1] / es[0]) / np.log(2048 / 256)
        assert 1.2 <= exponent <= 1.8  # Theorem 4: Θ(n^{3/2})

    def test_phase_breakdown_present(self):
        res = create_light_first_layout(random_attachment_tree(60, seed=9), seed=1)
        for phase in ("euler_tour_1", "child_sort", "euler_tour_2", "compact", "permute"):
            assert phase in res.phases, res.phases.keys()

    def test_rejects_bad_initial_positions(self):
        with pytest.raises(ValidationError):
            create_light_first_layout(
                path_tree(4), initial_positions=np.array([0, 0, 1, 2])
            )

    def test_works_on_zorder_curve(self):
        tree = random_attachment_tree(64, seed=10)
        res = create_light_first_layout(tree, curve="zorder", seed=2)
        assert res.layout.curve.name == "zorder"
        assert np.array_equal(res.layout.order, light_first_order(tree))


@settings(max_examples=15, deadline=None)
@given(k=st.integers(min_value=1, max_value=300), seed=st.integers(0, 1000))
def test_property_list_rank_is_permutation_of_suffix_counts(k, seed):
    perm, succ = random_list(k, seed)
    res = list_rank(SpatialMachine(k), succ, seed=seed + 1)
    assert np.array_equal(np.sort(res.ranks), np.arange(1, k + 1))


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=2, max_value=120), seed=st.integers(0, 300))
def test_property_layout_creation_always_light_first(n, seed):
    tree = random_attachment_tree(n, seed=seed)
    res = create_light_first_layout(tree, seed=seed + 1)
    assert is_light_first(tree, res.layout.order)
