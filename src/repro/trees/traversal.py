"""Tree traversals and orders.

These are the *reference* orders: the spatial layout code in
:mod:`repro.layout` defines the paper's light-first order on top of them,
and tests cross-check the spatial (on-machine) algorithms against them.
The depth-first orders come from :meth:`Tree.preorder_positions` (pointer
jumping, no per-vertex loop). It, :func:`repro.trees.euler.euler_tour` and
:func:`repro.trees.transform.transform_tree` order children the same way:
one stable sort of all children by (parent, key), not a sort per vertex.
"""

from __future__ import annotations

import numpy as np

from repro.trees.tree import Tree


def dfs_preorder(tree: Tree, *, child_key: np.ndarray | None = None) -> np.ndarray:
    """Depth-first preorder visit sequence (a permutation of ``0..n-1``).

    ``child_key`` optionally reorders each vertex's children ascending by
    the key (stable in vertex id); ``child_key = subtree_sizes`` yields
    exactly the paper's light-first visit order. The sequence inverts
    :meth:`Tree.preorder_positions`.
    """
    return position_of(tree.preorder_positions(child_key))


def dfs_postorder(tree: Tree, *, child_key: np.ndarray | None = None) -> np.ndarray:
    """Depth-first postorder visit sequence (children before parents).

    A vertex finishes after its ``s(v) - 1`` descendants and after every
    vertex preceding it in preorder except its ``depth(v)`` ancestors, so
    its postorder position is ``pre(v) - depth(v) + s(v) - 1``.
    """
    pre = tree.preorder_positions(child_key)
    return position_of(pre - tree.depths() + tree.subtree_sizes() - 1)


def bfs_order(tree: Tree) -> np.ndarray:
    """Breadth-first (level) order — the paper's BFS-layout baseline."""
    return tree.bfs_order()


def position_of(order: np.ndarray) -> np.ndarray:
    """Invert a visit sequence: ``position_of(order)[v]`` is the rank of ``v``.

    Inverting a permutation is its own inverse, so this also turns
    per-vertex positions back into the visit sequence.
    """
    pos = np.empty(len(order), dtype=np.int64)
    pos[order] = np.arange(len(order), dtype=np.int64)
    return pos
