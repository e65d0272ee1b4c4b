"""Sequential Euler tours (paper §IV, step 1).

An Euler tour of a rooted tree visits each vertex every time the
depth-first walk enters it, giving a sequence of ``2n - 1`` vertex visits
(every edge is traversed once down and once up). The paper uses tours for
two things, both reproduced here as sequential references:

* subtree sizes: ``s(v) = (last(v) - first(v)) / 2 + 1`` where ``first`` and
  ``last`` index the tour;
* the light-first linear order: the first occurrences of the vertices in a
  tour that visits children in increasing subtree-size order.
"""

from __future__ import annotations

import numpy as np

from repro.trees.tree import Tree, chain_sums, check_child_key, euler_succ


def euler_tour(tree: Tree, *, child_key: np.ndarray | None = None) -> np.ndarray:
    """The vertex-visit Euler tour, length ``2n - 1``.

    ``child_key`` (shape ``(n,)``) orders children the same way as in
    :func:`repro.trees.traversal.dfs_preorder`. The tour is read off the
    directed-edge tour of :func:`euler_succ`: after the root, element ``e``
    at tour index ``i`` (one :func:`chain_sums` of ones) contributes visit
    ``i + 1`` — a down-edge enters its child, an up-edge returns to the
    child's parent. Any key goes through its dense ranks, which keep its
    order and its ties and lie in ``[0, n)`` as :func:`euler_succ` needs.
    """
    if child_key is not None:
        child_key = np.unique(check_child_key(child_key, tree.n), return_inverse=True)[1]
    succ, owner = euler_succ(tree, child_key)
    tour = np.empty(2 * tree.n - 1, dtype=np.int64)
    tour[0] = tree.root
    at = 1 + len(succ) - chain_sums(succ, 1)
    tour[at[0::2]] = owner[0::2]
    tour[at[1::2]] = tree.parents[owner[1::2]]
    return tour


def first_last_occurrence(tour: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last index of each vertex in the tour."""
    first = np.full(n, -1, dtype=np.int64)
    last = np.full(n, -1, dtype=np.int64)
    idx = np.arange(len(tour), dtype=np.int64)
    # reversed scatter keeps the first occurrence; forward scatter the last
    first[tour[::-1]] = idx[::-1]
    last[tour] = idx
    return first, last


def subtree_sizes_from_tour(tour: np.ndarray, n: int) -> np.ndarray:
    """Paper §IV step 1b: ``s(v) = (last(v) - first(v)) / 2 + 1``."""
    first, last = first_last_occurrence(tour, n)
    return (last - first) // 2 + 1


def edge_tour(tree: Tree, *, child_key: np.ndarray | None = None) -> np.ndarray:
    """Directed-edge Euler tour: ``(2(n-1), 2)`` array of (from, to) hops.

    This is the doubled-edge linked list that the spatial list-ranking
    algorithm ranks (§IV); consecutive rows share endpoints.
    """
    tour = euler_tour(tree, child_key=child_key)
    return np.stack([tour[:-1], tour[1:]], axis=1)
