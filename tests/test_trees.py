"""Unit tests for the Tree data structure and the generators (paper §II-C)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TreeStructureError, ValidationError
from repro.layout.orders import light_first_order
from repro.plans import TREE_SHAPES, make_tree
from repro.trees import (
    Tree,
    birth_death_phylogeny,
    caterpillar_tree,
    chain_sums,
    complete_kary_tree,
    decision_tree_shape,
    dfs_postorder,
    dfs_preorder,
    euler_succ,
    euler_tour,
    path_tree,
    perfect_kary_tree,
    position_of,
    preferential_attachment_tree,
    prufer_random_tree,
    random_attachment_tree,
    random_binary_tree,
    star_tree,
    transform_tree,
)
from tests import tree_oracles as oracle
from tests.conftest import TREE_ZOO


class TestTreeConstruction:
    def test_single_vertex(self):
        t = Tree([-1])
        assert t.n == 1 and t.root == 0
        assert t.max_degree == 0
        assert t.height() == 0

    def test_rejects_empty(self):
        with pytest.raises(TreeStructureError):
            Tree(np.array([], dtype=np.int64))

    def test_rejects_no_root(self):
        with pytest.raises(TreeStructureError):
            Tree([0, 0])

    def test_rejects_two_roots(self):
        with pytest.raises(TreeStructureError):
            Tree([-1, -1])

    def test_rejects_out_of_range_parent(self):
        with pytest.raises(TreeStructureError):
            Tree([-1, 5])

    def test_rejects_cycle(self):
        # 1 → 2 → 1 cycle detached from root 0
        with pytest.raises(TreeStructureError):
            Tree([-1, 2, 1])

    def test_parents_read_only(self):
        t = path_tree(3)
        with pytest.raises(ValueError):
            t.parents[0] = 2

    def test_from_edges_roundtrip(self):
        t = random_attachment_tree(50, seed=1)
        edges = [(int(p), int(c)) for p, c in t.edges()]
        t2 = Tree.from_edges(50, edges, root=t.root)
        assert np.array_equal(t2.parents, t.parents)

    def test_from_edges_wrong_count(self):
        with pytest.raises(TreeStructureError):
            Tree.from_edges(3, [(0, 1)])

    def test_from_edges_disconnected(self):
        with pytest.raises(TreeStructureError):
            Tree.from_edges(4, [(0, 1), (2, 3), (0, 1)])


class TestTreeDerived:
    def test_children_ordered_by_id(self, zoo_tree):
        offsets, targets = zoo_tree.children_csr()
        for v in range(zoo_tree.n):
            kids = targets[offsets[v] : offsets[v + 1]]
            assert np.array_equal(kids, np.sort(kids))
            for c in kids:
                assert zoo_tree.parents[c] == v

    def test_bfs_order_is_permutation_and_level_monotone(self, zoo_tree):
        order = zoo_tree.bfs_order()
        assert np.array_equal(np.sort(order), np.arange(zoo_tree.n))
        depths = zoo_tree.depths()
        assert (np.diff(depths[order]) >= 0).all()

    def test_depths_consistent_with_parents(self, zoo_tree):
        depths = zoo_tree.depths()
        for v in range(zoo_tree.n):
            p = zoo_tree.parents[v]
            if p >= 0:
                assert depths[v] == depths[p] + 1
            else:
                assert depths[v] == 0

    def test_subtree_sizes_sum_and_root(self, zoo_tree):
        s = zoo_tree.subtree_sizes()
        assert s[zoo_tree.root] == zoo_tree.n
        assert (s >= 1).all()
        # each vertex's size = 1 + sum of children sizes
        offsets, targets = zoo_tree.children_csr()
        for v in range(zoo_tree.n):
            kids = targets[offsets[v] : offsets[v + 1]]
            assert s[v] == 1 + s[kids].sum()

    def test_degree_matches_definition(self, zoo_tree):
        for v in range(min(zoo_tree.n, 30)):
            expected = len(zoo_tree.children(v)) + (0 if v == zoo_tree.root else 1)
            assert zoo_tree.degree(v) == expected
        assert zoo_tree.max_degree == max(
            zoo_tree.degree(v) for v in range(zoo_tree.n)
        )

    def test_leaves(self, zoo_tree):
        for v in zoo_tree.leaves():
            assert len(zoo_tree.children(v)) == 0

    def test_is_ancestor(self):
        t = path_tree(5)
        assert t.is_ancestor(0, 4)
        assert t.is_ancestor(2, 2)
        assert not t.is_ancestor(4, 0)

    def test_relabel(self):
        t = path_tree(4)
        perm = np.array([3, 2, 1, 0])
        t2 = t.relabel(perm)
        # old 0 (root) becomes 3
        assert t2.root == 3
        assert t2.parents[0] == 1  # old 3's parent old 2 → new 1
        with pytest.raises(ValidationError):
            t.relabel(np.array([0, 0, 1, 2]))

    def test_edges_shape(self, zoo_tree):
        e = zoo_tree.edges()
        assert e.shape == (zoo_tree.n - 1, 2)
        assert (zoo_tree.parents[e[:, 1]] == e[:, 0]).all()


class TestGenerators:
    def test_path(self):
        t = path_tree(10)
        assert t.height() == 9
        assert t.max_degree == 2

    def test_star(self):
        t = star_tree(10)
        assert t.height() == 1
        assert t.max_degree == 9

    def test_caterpillar_structure(self):
        t = caterpillar_tree(11)
        # ~half spine, ~half leaves; height = spine length - 1
        assert t.height() == 5
        assert len(t.leaves()) == 6
        t2 = caterpillar_tree(11, spine_first=False)
        assert t2.n == 11 and t2.max_degree <= 3

    def test_perfect_kary_sizes(self):
        assert perfect_kary_tree(3, k=2).n == 15
        assert perfect_kary_tree(2, k=3).n == 13
        t = perfect_kary_tree(3, k=2)
        assert (t.depths()[t.leaves()] == 3).all()

    def test_perfect_kary_k1_is_path(self):
        assert perfect_kary_tree(4, k=1).height() == 4

    def test_complete_kary_exact_n(self):
        for n in (1, 2, 7, 20):
            assert complete_kary_tree(n, k=3).n == n

    def test_random_binary_bounded_degree(self):
        t = random_binary_tree(300, seed=0)
        assert t.max_degree <= 3

    def test_random_attachment_reproducible(self):
        a = random_attachment_tree(100, seed=5)
        b = random_attachment_tree(100, seed=5)
        assert np.array_equal(a.parents, b.parents)

    def test_preferential_attachment_skewed(self):
        t = preferential_attachment_tree(500, seed=2)
        assert t.max_degree > 8  # heavy tail

    def test_prufer_uniform_valid(self):
        for seed in range(5):
            t = prufer_random_tree(60, seed=seed)
            assert t.n == 60
        assert prufer_random_tree(1).n == 1
        assert prufer_random_tree(2).n == 2

    def test_phylogeny_full_binary(self):
        t = birth_death_phylogeny(50, seed=1)
        assert t.n == 99
        counts = t.num_children()
        assert set(counts.tolist()) <= {0, 2}
        assert len(t.leaves()) == 50

    def test_decision_tree_exact_n(self):
        for n in (1, 2, 17, 120):
            t = decision_tree_shape(n, seed=3)
            assert t.n == n

    @given(n=st.integers(min_value=1, max_value=300), seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_property_generators_produce_valid_trees(self, n, seed):
        for gen in (random_attachment_tree, random_binary_tree, decision_tree_shape):
            t = gen(n, seed=seed)
            # Tree() would raise on malformed structure; revalidate explicitly
            Tree(t.parents.copy())


# --------------------------------------------------------------------------- #
# pointer jumping against the per-vertex loop oracles (tests/tree_oracles.py)
# --------------------------------------------------------------------------- #


def assert_matches_oracle(tree: Tree) -> None:
    """Every pointer-jumped structure equals the loop oracle's, bit for bit,
    with children in id order and ascending by ``sizes`` and ``-sizes``."""
    sizes = oracle.subtree_sizes(tree)
    want = {"bfs_order": oracle.bfs_order(tree), "depths": oracle.depths(tree), "subtree_sizes": sizes}
    got = {"bfs_order": tree.bfs_order(), "depths": tree.depths(), "subtree_sizes": tree.subtree_sizes()}
    for label, key in (("id", None), ("sizes", sizes), ("neg_sizes", -sizes)):
        pre = oracle.dfs_preorder(tree, child_key=key)
        want[f"dfs_preorder/{label}"] = pre
        got[f"dfs_preorder/{label}"] = dfs_preorder(tree, child_key=key)
        want[f"preorder_positions/{label}"] = position_of(pre)
        got[f"preorder_positions/{label}"] = tree.preorder_positions(key)
        want[f"dfs_postorder/{label}"] = oracle.dfs_postorder(tree, child_key=key)
        got[f"dfs_postorder/{label}"] = dfs_postorder(tree, child_key=key)
    for name, expected in want.items():
        assert got[name].dtype == expected.dtype == np.int64, name
        assert np.array_equal(got[name], expected), name
    assert tree.height() == int(want["depths"].max())


ORACLE_SIZES = (1, 2, 3, 17, 5000)
ORACLE_TREES = {
    **{f"zoo-{name}": make for name, make in TREE_ZOO.items()},
    **{
        f"{shape}-{n}": (lambda shape=shape, n=n: make_tree(shape, n, 7))
        for shape in TREE_SHAPES
        for n in ORACLE_SIZES
    },
    "path-32768": lambda: path_tree(1 << 15),
    "caterpillar-32768": lambda: caterpillar_tree(1 << 15),
    "decision-32768": lambda: decision_tree_shape(1 << 15, seed=3),
    **{
        f"prufer-{n}-root{root}": (lambda n=n, root=root: prufer_random_tree(n, seed=n, root=root))
        for n in (3, 17, 5000)
        for root in (1, n // 2, n - 2)
    },
}


@st.composite
def labelled_parents(draw, max_n=2000):
    """A parents array with random labels and a random root: vertex ``k`` of
    a random recursive tree picks its parent among the ``reach`` vertices
    made before it (1: a path, all: uniform attachment)."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    reach = draw(st.sampled_from([1, 2, 3, 8, n]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(1, n)
    lo = np.maximum(k - reach, 0)
    made_from = lo + (rng.random(n - 1) * (k - lo)).astype(np.int64)
    label = rng.permutation(n)
    parents = np.full(n, -1, dtype=np.int64)
    parents[label[1:]] = label[made_from]
    return parents


def _cycle_in_caterpillar():
    # spine vertex 100 hangs below spine vertex 2000, its own descendant:
    # a cycle of 1901 spine vertices with a leaf under each
    parents = caterpillar_tree(5000).parents.copy()
    parents[100] = 2000
    return parents


def _detached_path_cycle():
    # 1000 -> 4999 -> 4998 -> ... -> 1000, detached from the path 0..999
    parents = np.arange(-1, 4999, dtype=np.int64)
    parents[1000] = 4999
    return parents


CYCLIC = {
    "two-cycle-below-root": lambda: np.array([-1, 2, 1, 0]),
    "detached-two-cycle": lambda: np.array([-1, 2, 1]),
    "self-loop": lambda: np.array([-1, 1]),
    "childless-root": lambda: np.array([1, 2, 0, -1]),
    "caterpillar-cycle": _cycle_in_caterpillar,
    "detached-path-cycle": _detached_path_cycle,
}

DERIVED = {
    "depths": lambda t: t.depths(),
    "height": lambda t: t.height(),
    "subtree_sizes": lambda t: t.subtree_sizes(),
    "bfs_order": lambda t: t.bfs_order(),
    "preorder_positions": lambda t: t.preorder_positions(),
    "dfs_preorder": dfs_preorder,
    "dfs_postorder": dfs_postorder,
    "light_first_order": light_first_order,
    "is_ancestor": lambda t: t.is_ancestor(t.root, t.n - 1),
}


class TestPointerJumping:
    @pytest.mark.parametrize("name", sorted(ORACLE_TREES))
    def test_fixed_trees_match_oracle(self, name):
        assert_matches_oracle(ORACLE_TREES[name]())

    @given(parents=labelled_parents())
    @settings(max_examples=60, deadline=None)
    def test_random_labelled_trees_match_oracle(self, parents):
        assert_matches_oracle(Tree(parents))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 17, 5000, 1 << 16])
    def test_prufer_matches_edge_list_decode(self, n):
        for root in sorted({0, 1 % n, n // 2, max(n - 2, 0), n - 1}):
            seed = 10 if n == 1 << 16 else n + root
            got = prufer_random_tree(n, seed=seed, root=root)
            want = oracle.prufer_random_tree(n, seed=seed, root=root)
            assert got.root == root
            assert got.parents.dtype == np.int64
            assert np.array_equal(got.parents, want.parents), (n, root)

    def test_prufer_rejects_root_outside_tree(self):
        for n, root in ((1, 1), (5, -1), (5, 5)):
            with pytest.raises(ValidationError, match="root"):
                prufer_random_tree(n, seed=0, root=root)

    @pytest.mark.parametrize("method", sorted(DERIVED))
    @pytest.mark.parametrize("name", sorted(CYCLIC))
    def test_cyclic_parents_raise_from_derived(self, name, method):
        tree = Tree(CYCLIC[name](), validate=False)
        with pytest.raises(TreeStructureError):
            DERIVED[method](tree)

    @pytest.mark.parametrize("name", sorted(CYCLIC))
    def test_cyclic_parents_rejected_at_construction(self, name):
        with pytest.raises(TreeStructureError):
            Tree(CYCLIC[name]())


class TestChainSums:
    @given(n=st.integers(0, 400), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_walking_each_chain(self, n, seed):
        # a random forest of chains: relabelled nxt[k] in [-1, k)
        rng = np.random.default_rng(seed)
        k = np.arange(n)
        made_from = (rng.random(n) * (k + 1)).astype(np.int64) - 1
        label = rng.permutation(n)
        nxt = np.full(n, -1, dtype=np.int64)
        nxt[label] = np.where(made_from >= 0, label[np.maximum(made_from, 0)], -1)
        w = rng.integers(-5, 6, size=n)
        want = np.zeros(n, dtype=np.int64)
        for i in range(n):
            j = i
            while j != -1:
                want[i] += w[j]
                j = nxt[j]
        got = chain_sums(nxt, w)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_scalar_weight_counts_chain_length(self):
        nxt = np.arange(1, 1001, dtype=np.int64)
        nxt[-1] = -1
        assert np.array_equal(chain_sums(nxt, 1), np.arange(1000, 0, -1))

    @pytest.mark.parametrize(
        "nxt", [[0], [1, 0], [1, 2, 0, -1], [-1, 0, 3, 2], list(range(1, 5000)) + [0]]
    )
    def test_cycle_raises(self, nxt):
        with pytest.raises(TreeStructureError):
            chain_sums(np.array(nxt, dtype=np.int64), 1)


# --------------------------------------------------------------------------- #
# whole-array Euler tour and TRANSFORM against their loop oracles
# --------------------------------------------------------------------------- #


def child_keys(tree: Tree) -> dict:
    """Child keys that exercise ordering and ties: none (each function's
    default), ids ascending and reversed, subtree sizes, few-valued integers
    (many ties), floats and negative floats."""
    rng = np.random.default_rng(tree.n)
    n = tree.n
    return {
        "default": None,
        "ids": np.arange(n),
        "reversed": np.arange(n)[::-1].copy(),
        "sizes": oracle.subtree_sizes(tree),
        "few-ints": rng.integers(0, 3, size=n),
        "floats": rng.random(n),
        "neg-floats": -3 * rng.random(n),
    }


def assert_transform_matches_oracle(tree: Tree, key) -> None:
    vt = transform_tree(tree, child_key=key)
    got = (vt.cur, vt.app, vt.vparent, vt.is_appended)
    for name, g, w in zip(("cur", "app", "vparent", "is_appended"), got, oracle.transform_tree(tree, child_key=key)):
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert np.array_equal(g, w), name


SMALL_TRANSFORM_TREES = {
    **{f"path{n}": (lambda n=n: path_tree(n)) for n in range(1, 7)},
    **{f"star{n}": (lambda n=n: star_tree(n)) for n in range(1, 7)},
    "star1025": lambda: star_tree(1025),
    "caterpillar301": lambda: caterpillar_tree(301),
}


class TestTransformOracle:
    @pytest.mark.parametrize("key", ["default", "ids", "reversed", "few-ints", "floats"])
    def test_zoo_matches_worklist(self, zoo_tree, key):
        assert_transform_matches_oracle(zoo_tree, child_keys(zoo_tree)[key])

    @pytest.mark.parametrize("name", sorted(SMALL_TRANSFORM_TREES))
    def test_paths_stars_caterpillar_match_worklist(self, name):
        tree = SMALL_TRANSFORM_TREES[name]()
        for key in child_keys(tree).values():
            assert_transform_matches_oracle(tree, key)

    @given(parents=labelled_parents(max_n=300), tied=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_random_labelled_trees_match_worklist(self, parents, tied):
        tree = Tree(parents)
        key = np.random.default_rng(len(parents)).integers(0, 3, size=tree.n) if tied else None
        assert_transform_matches_oracle(tree, key)


class TestEulerTourOracle:
    @pytest.mark.parametrize("key", ["default", "sizes", "reversed", "few-ints", "floats", "neg-floats"])
    def test_zoo_matches_stack_walk(self, zoo_tree, key):
        k = child_keys(zoo_tree)[key]
        got = euler_tour(zoo_tree, child_key=k)
        want = oracle.euler_tour(zoo_tree, child_key=k)
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)

    @given(parents=labelled_parents(max_n=300))
    @settings(max_examples=30, deadline=None)
    def test_random_labelled_trees_match_stack_walk(self, parents):
        tree = Tree(parents)
        for key in (None, np.random.default_rng(len(parents)).integers(-2, 2, size=tree.n)):
            assert np.array_equal(euler_tour(tree, child_key=key), oracle.euler_tour(tree, child_key=key))


class TestChildKeyChecks:
    """Every function that orders children by a key checks the key itself:
    one entry per vertex, and for :func:`euler_succ` integers in [0, n]."""

    TREE = np.array([-1, 0, 0, 1, 1])
    WRONG_SHAPES = (np.arange(4), np.arange(6), np.zeros((5, 1), dtype=np.int64))

    def test_euler_succ(self):
        tree = Tree(self.TREE)
        # a key above n bled into the next parent's group: a cyclic tour
        for key in (np.array([0, 100, 0, 5, 1]), np.array([0, 1, 2, 3, -1]), *self.WRONG_SHAPES):
            with pytest.raises(ValidationError, match="child_key"):
                euler_succ(tree, key)
        with pytest.raises(ValidationError, match="child_key"):
            euler_succ(tree, np.array([0.0, 0.5, 1.0, 2.0, 3.0]))
        succ, _ = euler_succ(tree, np.array([0, 5, 0, 5, 1]))
        assert np.array_equal(succ, euler_succ(tree, np.array([0, 1, 0, 1, 0]))[0])

    def test_euler_tour(self):
        tree = Tree(self.TREE)
        for key in self.WRONG_SHAPES:
            with pytest.raises(ValidationError, match="child_key"):
                euler_tour(tree, child_key=key)

    def test_transform_tree(self):
        tree = Tree(self.TREE)
        for key in self.WRONG_SHAPES:
            with pytest.raises(ValidationError, match="child_key"):
                transform_tree(tree, child_key=key)

    def test_preorder_positions(self):
        tree = Tree(self.TREE)
        for key in self.WRONG_SHAPES:
            with pytest.raises(ValidationError, match="child_key"):
                tree.preorder_positions(key)
