"""Tree substrate: data structure, generators, and sequential references.

Everything in this package runs on the host (no spatial machine involved):
it provides the inputs to, and the correctness oracles for, the spatial
algorithms in :mod:`repro.spatial`. A :class:`Tree`'s depths, subtree
sizes, preorders, postorders and BFS order come from pointer jumping
(:func:`chain_sums`, over parent pointers or the :func:`euler_succ` tour);
the sequential references are :func:`euler_tour`, :mod:`.treefix`,
:mod:`.lca`, :mod:`.heavy_light` and :func:`transform_tree`.
"""

from repro.trees.tree import Tree, chain_sums, euler_succ
from repro.trees.generators import (
    birth_death_phylogeny,
    binary_spine_tree,
    caterpillar_tree,
    complete_kary_tree,
    decision_tree_shape,
    path_tree,
    perfect_kary_tree,
    preferential_attachment_tree,
    prufer_random_tree,
    random_attachment_tree,
    random_binary_tree,
    spider_tree,
    star_tree,
)
from repro.trees.traversal import bfs_order, dfs_postorder, dfs_preorder, position_of
from repro.trees.euler import (
    edge_tour,
    euler_tour,
    first_last_occurrence,
    subtree_sizes_from_tour,
)
from repro.trees.treefix import bottom_up_treefix, path_min, subtree_max, top_down_treefix
from repro.trees.lca import BinaryLiftingLCA, offline_tarjan_lca
from repro.trees.heavy_light import (
    PathDecomposition,
    heavy_children,
    heavy_light_decomposition,
)
from repro.trees.transform import VirtualTree, transform_tree
from repro.trees.io import parse_newick, to_newick
from repro.trees.forest import ForestIndex, combine_forest, split_forest_values

__all__ = [
    "Tree",
    "chain_sums",
    "euler_succ",
    "birth_death_phylogeny",
    "binary_spine_tree",
    "caterpillar_tree",
    "complete_kary_tree",
    "decision_tree_shape",
    "path_tree",
    "perfect_kary_tree",
    "preferential_attachment_tree",
    "prufer_random_tree",
    "random_attachment_tree",
    "random_binary_tree",
    "spider_tree",
    "star_tree",
    "bfs_order",
    "dfs_postorder",
    "dfs_preorder",
    "position_of",
    "edge_tour",
    "euler_tour",
    "first_last_occurrence",
    "subtree_sizes_from_tour",
    "bottom_up_treefix",
    "path_min",
    "subtree_max",
    "top_down_treefix",
    "BinaryLiftingLCA",
    "offline_tarjan_lca",
    "PathDecomposition",
    "heavy_children",
    "heavy_light_decomposition",
    "VirtualTree",
    "transform_tree",
    "parse_newick",
    "to_newick",
    "ForestIndex",
    "combine_forest",
    "split_forest_values",
]
