"""The unbounded-degree TRANSFORM (paper §III-D, Fig. 3).

``transform_tree`` turns an arbitrary-degree tree ``T`` into a *virtual
tree* ``T̂`` of degree at most 4: every vertex ``v`` keeps at most two
*current children* ``C(v)`` (a subset of its own children in ``T``) and
gains at most two *appended children* ``A(v)`` (always siblings of ``v`` in
``T``). Messages of the local-messaging kernels are relayed along the
virtual edges: a vertex forwards its parent-in-``T``'s value to its appended
children, so a local broadcast/reduce on ``T`` becomes constant-degree
message passing on ``T̂``.

The construction is the recursive halving of the paper's ``TRANSFORM``:
with children ``c_1 .. c_d`` ordered smallest-subtree-first,

* ``C(v) = {c_1, c_{⌊d/2⌋+1}}``,
* the run ``c_2 .. c_{⌊d/2⌋}`` is *appended* under ``c_1`` and the run
  ``c_{⌊d/2⌋+2} .. c_d`` under ``c_{⌊d/2⌋+1}``,

and each appended run is split the same way among its members (step 2).
Lemma 8: if ``T`` is in light-first order then so is ``T̂`` — the virtual
children of every vertex remain sorted by subtree size, verified in tests.

Where a child lands depends only on its rank in its run and on the run's
length, so :func:`transform_tree` splits every run of one halving level at
once: level 0 splits every parent's child run, each later level every
pending appended run. A run of ``d`` leaves runs of at most ``⌈d/2⌉ - 1``,
so there are at most ``⌈log2 Δ⌉ + 1`` levels, each a few whole-array
gathers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trees.tree import Tree, check_child_key


@dataclass(frozen=True)
class VirtualTree:
    """The degree-≤4 virtual tree ``T̂`` produced by :func:`transform_tree`.

    All arrays have one row per vertex of the original tree; absent slots
    are -1.

    Attributes
    ----------
    tree:
        The original tree ``T``.
    cur:
        ``(n, 2)`` current children ``C(v)`` — a sub-selection of ``v``'s
        children in ``T``.
    app:
        ``(n, 2)`` appended children ``A(v)`` — siblings of ``v`` in ``T``.
    vparent:
        Parent in the virtual tree (the vertex whose ``C`` or ``A`` lists us).
    is_appended:
        True when the vertex is an *appended* child of its virtual parent
        (i.e. appears in ``A(vparent)`` rather than ``C(vparent)``).
    """

    tree: Tree
    cur: np.ndarray
    app: np.ndarray
    vparent: np.ndarray
    is_appended: np.ndarray

    @property
    def n(self) -> int:
        return self.tree.n

    def virtual_children(self, v: int) -> np.ndarray:
        """``C(v) ∪ A(v)`` without the -1 padding."""
        merged = np.concatenate([self.cur[v], self.app[v]])
        return merged[merged >= 0]

    def virtual_degree(self) -> np.ndarray:
        """Number of virtual children per vertex (paper: at most 4)."""
        return (self.cur >= 0).sum(axis=1) + (self.app >= 0).sum(axis=1)

    def as_tree(self) -> Tree:
        """The virtual tree as a plain :class:`Tree` (same vertex ids)."""
        return Tree(self.vparent, validate=False)

    def original_parent_of_appended(self) -> np.ndarray:
        """For each vertex, its parent in ``T`` (the vertex whose local
        broadcast value it must receive) — used by the messaging kernels."""
        return self.tree.parents


def transform_tree(tree: Tree, *, child_key: np.ndarray | None = None) -> VirtualTree:
    """Apply the paper's ``TRANSFORM`` to ``tree``.

    ``child_key`` gives the ordering of children used for the runs (an
    array of shape ``(n,)``, ascending, ties in id order); the default
    (None) orders by subtree size — the light-first order, which is what
    Lemma 8 requires. Passing a different key is allowed for
    experimentation (the degree bound holds regardless; only the
    light-first preservation depends on the key). Raises
    :class:`ValidationError` when ``child_key`` has the wrong shape.

    A run is an ``(owner, lo, hi)`` slice of the children sorted once by
    (parent, key). Each level splits every pending run of ``m ≥ 1`` at
    once: ``run[0]`` goes in the owner's slot 0 and, when ``m ≥ 2``,
    ``run[m // 2]`` in slot 1; ``run[1 : m // 2]`` becomes ``run[0]``'s
    appended run and ``run[m // 2 + 1 :]`` ``run[m // 2]``'s. Level 0
    fills ``cur`` from every parent's child run, later levels fill ``app``;
    there are at most ``⌈log2 Δ⌉ + 1`` levels.
    """
    n = tree.n
    key = tree.subtree_sizes() if child_key is None else check_child_key(child_key, n)
    offsets, kids = tree.children_csr()
    kids = kids[np.lexsort((key[kids], tree.parents[kids]))]

    cur = np.full((n, 2), -1, dtype=np.int64)
    app = np.full((n, 2), -1, dtype=np.int64)
    vparent = np.full(n, -1, dtype=np.int64)
    is_appended = np.zeros(n, dtype=bool)

    # level 0: every parent's whole child run, into cur
    owner = np.flatnonzero(np.diff(offsets))
    lo, hi = offsets[owner], offsets[owner + 1]
    slots, appended = cur, False
    while len(owner):
        mid = lo + (hi - lo) // 2
        two = mid > lo
        first, second = kids[lo], kids[mid[two]]
        slots[owner, 0] = first
        slots[owner[two], 1] = second
        vparent[first] = owner
        vparent[second] = owner[two]
        is_appended[first] = appended
        is_appended[second] = appended
        # run[1 : m // 2] goes under run[0], run[m // 2 + 1 :] under run[m // 2]
        left, right = mid > lo + 1, mid + 1 < hi
        owner = np.concatenate([first[left], kids[mid[right]]])
        lo, hi = (
            np.concatenate([lo[left] + 1, mid[right] + 1]),
            np.concatenate([mid[left], hi[right]]),
        )
        slots, appended = app, True
    return VirtualTree(tree=tree, cur=cur, app=app, vparent=vparent, is_appended=is_appended)
