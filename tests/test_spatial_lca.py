"""Tests for the §VI batched LCA: subtree cover structure, range
broadcasts (Lemma 13), full-algorithm correctness on every shape, and the
Theorem 6 cost envelopes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ValidationError
from repro.machine import SpatialMachine
from repro.spatial import SpatialTree, build_cover, compute_ranges, lca_batch
from repro.spatial.subtree_cover import range_broadcast, range_forest
from repro.trees import (
    BinaryLiftingLCA,
    heavy_light_decomposition,
    path_tree,
    perfect_kary_tree,
    prufer_random_tree,
    random_attachment_tree,
    star_tree,
)


class TestSpatialRanges:
    def test_ranges_match_layout(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        ranges = compute_ranges(st_, seed=1)
        lo, hi = st_.layout.subtree_range()
        assert np.array_equal(ranges.lo, lo)
        assert np.array_equal(ranges.hi, hi)

    def test_contains(self):
        t = path_tree(5)
        st_ = SpatialTree.build(t)
        r = compute_ranges(st_, seed=0)
        # vertex 0's subtree is everything
        assert r.contains(np.array([0]), np.array([4]))[0]
        assert not r.contains(np.array([4]), np.array([0]))[0]

    def test_rejects_non_preorder_layout(self):
        t = random_attachment_tree(40, seed=2)
        st_ = SpatialTree.build(t, order="bfs")
        with pytest.raises(ValidationError):
            compute_ranges(st_, seed=0)


class TestSpatialCover:
    def test_layers_match_sequential_decomposition(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        ranges = compute_ranges(st_, seed=3)
        cover = build_cover(st_, ranges, seed=3)
        hl = heavy_light_decomposition(zoo_tree)
        assert np.array_equal(cover.layer, hl.layer)
        assert cover.num_layers == hl.num_layers

    def test_heads_match_sequential(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        cover = build_cover(st_, compute_ranges(st_, seed=4), seed=4)
        hl = heavy_light_decomposition(zoo_tree)
        expected_heads = np.array(
            [hl.head[v] == v for v in range(zoo_tree.n)]
        )
        assert np.array_equal(cover.is_head, expected_heads)

    def test_num_layers_logarithmic(self, zoo_tree):
        st_ = SpatialTree.build(zoo_tree)
        cover = build_cover(st_, compute_ranges(st_, seed=5), seed=5)
        assert cover.num_layers <= np.ceil(np.log2(max(2, zoo_tree.n))) + 1


def _forest_levels(length):
    """One ``(k, 2)`` edge array per round of a single range's broadcast tree."""
    f = range_forest(np.array([0]), np.array([length]))
    return [
        np.stack([f.src[a:b], f.dst[a:b]], axis=1)
        for a, b in zip(f.rounds[:-1], f.rounds[1:])
    ]


def _reference_levels(length):
    """The same tree as a plain BFS over ``(start, size)`` intervals: the
    loop :func:`range_forest` vectorizes, kept as its reference."""
    levels, frontier = [], [(0, length)]
    while frontier:
        edges, nxt = [], []
        for start, size in frontier:
            rest = size - 1
            if rest <= 0:
                continue
            left = (rest + 1) // 2
            edges.append((start, start + 1))
            nxt.append((start + 1, left))
            if rest > left:
                edges.append((start, start + 1 + left))
                nxt.append((start + 1 + left, rest - left))
        if edges:
            levels.append(edges)
        frontier = nxt
    return levels


class TestRangeBroadcastTree:
    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 17, 100])
    def test_covers_every_index(self, length):
        levels = _forest_levels(length)
        reached = {0}
        for edges in levels:
            for a, b in edges:
                assert int(a) in reached  # sender already has the value
                reached.add(int(b))
        assert reached == set(range(length))

    def test_depth_logarithmic(self):
        assert len(_forest_levels(1024)) <= 11

    def test_edge_gaps_geometric(self):
        # each edge jumps at most the child interval size
        for edges in _forest_levels(64):
            for a, b in edges:
                assert b - a <= 33

    def test_forest_matches_reference_loop(self):
        # several disjoint ranges expanded together: round r holds each
        # range's level-r edges in the reference order (a sender's first
        # child first, which its clock chain depends on)
        starts, lengths = np.array([0, 9, 10, 40, 42]), np.array([9, 1, 30, 2, 1025])
        ref = [_reference_levels(n) for n in lengths]
        f = range_forest(starts, lengths)
        assert len(f.rounds) - 1 == max(map(len, ref))
        for r, (a, b) in enumerate(zip(f.rounds[:-1], f.rounds[1:])):
            src, dst = f.src[a:b], f.dst[a:b]
            for s, n, levels in zip(starts, lengths, ref):
                mine = (src >= s) & (src < s + n)
                got = list(zip((src[mine] - s).tolist(), (dst[mine] - s).tolist()))
                assert got == (levels[r] if r < len(levels) else [])

    def test_forest_occurrence_hint(self):
        # per round no node receives twice, and occ is each sender's
        # occurrence index: the send_plan ``src_occ`` contract
        f = range_forest(np.array([0, 9, 10, 40]), np.array([9, 1, 30, 2]))
        for a, b in zip(f.rounds[:-1], f.rounds[1:]):
            src, dst = f.src[a:b].tolist(), f.dst[a:b].tolist()
            assert len(set(dst)) == len(dst)
            assert f.occ[a:b].tolist() == [src[:i].count(s) for i, s in enumerate(src)]

    def test_range_broadcast_costs(self):
        m = SpatialMachine(256)

        class Fake:
            machine = m

        range_broadcast(Fake(), np.array([0]), np.array([256]))
        assert m.messages == 255
        assert m.energy <= 8 * 256  # O(length) energy (Lemma 13)
        assert m.depth <= 3 * np.log2(256)

    def test_disjoint_ranges_parallel(self):
        m = SpatialMachine(64)

        class Fake:
            machine = m

        range_broadcast(Fake(), np.array([0, 32]), np.array([32, 32]))
        assert m.messages == 62
        assert m.depth <= 3 * np.log2(32)

    def test_empty_and_unit_ranges(self):
        m = SpatialMachine(8)

        class Fake:
            machine = m

        range_broadcast(Fake(), np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        range_broadcast(Fake(), np.array([3]), np.array([1]))
        assert m.messages == 0


class TestLCABatch:
    def test_matches_reference_zoo(self, zoo_tree, rng):
        oracle = BinaryLiftingLCA(zoo_tree)
        qs = rng.integers(0, zoo_tree.n, size=(60, 2))
        st_ = SpatialTree.build(zoo_tree)
        got = lca_batch(st_, qs[:, 0], qs[:, 1], seed=6)
        assert np.array_equal(got, oracle.query_batch(qs[:, 0], qs[:, 1]))

    def test_ancestor_descendant_queries(self):
        t = path_tree(30)
        st_ = SpatialTree.build(t)
        us = np.array([0, 5, 29, 7, 7])
        vs = np.array([29, 10, 0, 7, 3])
        got = lca_batch(st_, us, vs, seed=7)
        assert list(got) == [0, 5, 0, 7, 3]

    def test_sibling_queries_on_star(self):
        t = star_tree(50)
        st_ = SpatialTree.build(t)
        got = lca_batch(st_, np.array([1, 2, 0]), np.array([2, 49, 10]), seed=8)
        assert list(got) == [0, 0, 0]

    def test_empty_batch(self):
        st_ = SpatialTree.build(path_tree(4))
        got = lca_batch(st_, np.array([], dtype=np.int64), np.array([], dtype=np.int64), seed=0)
        assert len(got) == 0

    def test_query_validation(self):
        st_ = SpatialTree.build(path_tree(4))
        with pytest.raises(ValidationError):
            lca_batch(st_, np.array([0]), np.array([4]))
        with pytest.raises(ValidationError):
            lca_batch(st_, np.array([0, 1]), np.array([2]))

    def test_cover_returned(self):
        t = perfect_kary_tree(4)
        st_ = SpatialTree.build(t)
        answers, cover = lca_batch(
            st_, np.array([7]), np.array([8]), seed=9, return_cover=True
        )
        assert cover.num_layers >= 1

    def test_energy_n_log_n_envelope(self):
        per = []
        for n in (1024, 8192):
            t = prufer_random_tree(n, seed=10)
            rng = np.random.default_rng(n)
            qs = np.stack([rng.permutation(n), rng.permutation(n)], axis=1)
            st_ = SpatialTree.build(t)
            lca_batch(st_, qs[:, 0], qs[:, 1], seed=11)
            per.append(st_.machine.energy / (n * np.log2(n)))
        assert per[1] <= per[0] * 1.6

    def test_depth_polylog(self):
        n = 8192
        t = prufer_random_tree(n, seed=12)
        st_ = SpatialTree.build(t)
        rng = np.random.default_rng(0)
        lca_batch(st_, rng.permutation(n), rng.permutation(n), seed=13)
        assert st_.machine.depth <= 16 * np.log2(n) ** 2


@settings(max_examples=15, deadline=None)
@given(n=st.integers(min_value=2, max_value=150), seed=st.integers(0, 500))
def test_property_lca_batch_matches_brute(n, seed):
    from tests.conftest import brute_lca

    t = random_attachment_tree(n, seed=seed)
    rng = np.random.default_rng(seed + 1)
    us = rng.integers(0, n, size=8)
    vs = rng.integers(0, n, size=8)
    st_ = SpatialTree.build(t)
    got = lca_batch(st_, us, vs, seed=seed)
    for g, u, v in zip(got, us, vs):
        assert g == brute_lca(t, int(u), int(v))
