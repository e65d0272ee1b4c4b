"""Spatial Euler tours (paper §IV steps 1–2) as a public API.

The layout-creation pipeline consumes these internally, but tour ranks and
tour-derived subtree sizes are useful on their own (they are the §IV
statement "compute the size of each subtree via an Euler Tour"), so they
are exposed here:

* :func:`euler_tour_list` — successor pointers of the ``2(n−1)``-element
  directed-edge tour, with both copies of an edge hosted at the child's
  processor (O(1) words each);
* :func:`spatial_euler_tour_ranks` — tour indices via random-mate list
  ranking (Θ(n^{3/2}) energy, O(log n) depth w.h.p. — Corollary 2);
* :func:`spatial_subtree_sizes_via_tour` — §IV step 1b:
  ``s(v) = (rank(up_v) − rank(down_v) + 1) / 2``, a local computation at
  each child's processor.

For trees already stored in light-first order, :func:`repro.spatial.treefix`
computes subtree sizes with *near-linear* energy; the tour route is what
the paper uses when the tree is in an arbitrary placement (before the
layout exists).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.machine.machine import SpatialMachine
from repro.spatial.list_ranking import list_rank
from repro.trees.tree import Tree, euler_succ
from repro.utils import as_index_array


@dataclass(frozen=True)
class EulerTourList:
    """The directed-edge tour as a linked list.

    Element ``2j`` is the down-edge into the ``j``-th non-root vertex,
    element ``2j + 1`` its up-edge; ``owner[e]`` is the (child) vertex
    hosting element ``e``.
    """

    succ: np.ndarray
    owner: np.ndarray
    nonroot: np.ndarray

    @property
    def num_elements(self) -> int:
        return len(self.succ)


def euler_tour_list(tree: Tree, *, child_key: np.ndarray | None = None) -> EulerTourList:
    """Successor pointers of the Euler tour (children ordered by ``child_key``,
    integers in ``[0, n]`` such as subtree sizes; ties keep vertex-id order)."""
    if tree.n < 2:
        raise ValidationError("an Euler tour needs at least one edge")
    succ, owner = euler_succ(tree, child_key)
    nonroot = np.flatnonzero(tree.parents >= 0)
    return EulerTourList(succ=succ, owner=owner, nonroot=nonroot)


def spatial_euler_tour_ranks(
    machine: SpatialMachine,
    tree: Tree,
    *,
    positions=None,
    child_key: np.ndarray | None = None,
    seed=None,
) -> tuple[np.ndarray, EulerTourList]:
    """Tour index of every tour element, ranked on the machine.

    ``positions`` maps vertices to processors (default identity — the
    arbitrary pre-layout placement of §IV). Returns ``(indices, tour)``
    where ``indices[e]`` is element ``e``'s 0-based position in the tour.
    """
    tour = euler_tour_list(tree, child_key=child_key)
    if positions is None:
        positions = np.arange(tree.n, dtype=np.int64)
    else:
        positions = as_index_array(positions, name="positions")
        if not np.array_equal(np.sort(positions), np.arange(tree.n)):
            raise ValidationError("positions must be a permutation of 0..n-1")
    res = list_rank(machine, tour.succ, elem_proc=positions[tour.owner], seed=seed)
    total = tour.num_elements
    return total - res.ranks, tour


def spatial_subtree_sizes_via_tour(
    machine: SpatialMachine,
    tree: Tree,
    *,
    positions=None,
    seed=None,
) -> np.ndarray:
    """§IV steps 1a–1b: subtree sizes from tour first/last occurrences."""
    idx, tour = spatial_euler_tour_ranks(
        machine, tree, positions=positions, seed=seed
    )
    sizes = np.empty(tree.n, dtype=np.int64)
    down = idx[0::2]
    up = idx[1::2]
    sizes[tour.nonroot] = (up - down + 1) // 2
    sizes[tree.root] = tree.n
    return sizes
