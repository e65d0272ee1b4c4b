"""Rooted tree data structure (paper §II-C, Table I).

A tree on ``n`` vertices is stored as a *parents array*: ``parents[v]`` is
the parent of vertex ``v`` and ``parents[root] == -1``. All derived
structure is computed vectorized and cached on first use, so a
:class:`Tree` is cheap to pass around and safe to share: it is immutable
after construction. Children lists are one sort (CSR form); depths,
subtree sizes, preorder positions and the BFS order come from the paper's
§IV recipe run on the host by pointer jumping (:func:`chain_sums` over
parent pointers or over the Euler tour of :func:`euler_succ`), so each
takes O(log n) numpy passes on every tree shape, paths included.

Table I correspondence:

* ``n``           → :attr:`Tree.n`
* ``deg(v)``      → :meth:`Tree.degree`
* ``Δ``           → :attr:`Tree.max_degree`
* ``s(v)``        → :meth:`Tree.subtree_sizes` (includes ``v`` itself)
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import TreeStructureError, ValidationError
from repro.utils import as_index_array, check_in_range


def chain_sums(nxt: np.ndarray, w: np.ndarray | int) -> np.ndarray:
    """Sum of ``w`` along every chain ``i, nxt[i], nxt[nxt[i]], …`` up to ``-1``.

    Wyllie's pointer jumping: a sentinel element ``n`` absorbs finished
    chains, and every jump doubles the stretch each pointer spans, so a
    chain of at most ``n`` elements ends within ``⌈log2 n⌉`` jumps. ``nxt``
    holds indices in ``[-1, n)``; ``w`` is an array of length ``n`` or a
    scalar. Raises :class:`TreeStructureError` after ``⌈log2 n⌉ + 1`` jumps
    if some chain never reaches ``-1`` (``nxt`` has a cycle).
    """
    n = len(nxt)
    ptr = np.full(n + 1, n, dtype=np.int64)
    np.copyto(ptr[:n], nxt, where=nxt >= 0)
    acc = np.zeros(n + 1, dtype=np.int64)
    acc[:n] = w
    for _ in range((n - 1).bit_length() + 1):
        if ptr.min() == n:
            return acc[:n]
        acc += acc[ptr]
        ptr = ptr[ptr]
    raise TreeStructureError(
        "a pointer chain never reaches -1: the pointers contain a cycle (in a"
        " parents array, a cycle or vertices unreachable from the root)"
    )


def check_child_key(child_key, n: int) -> np.ndarray:
    """``child_key`` as an array of shape ``(n,)``, one child-order key per
    vertex; raises :class:`ValidationError` naming it otherwise."""
    key = np.asarray(child_key)
    if key.shape != (n,):
        raise ValidationError(f"child_key must have shape ({n},), one entry per vertex, got {key.shape}")
    return key


def euler_succ(tree: Tree, child_sort_key: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Successor pointers of the Euler-tour edge list (paper §IV step 1).

    The tour has ``2(n-1)`` elements: for the ``j``-th non-root vertex (in
    id order) element ``2j`` is its down-edge and ``2j + 1`` its up-edge.
    Children are visited in id order, or ascending by ``child_sort_key``
    (integers of shape ``(n,)`` in ``[0, n]``, ties in id order; anything
    else raises :class:`ValidationError` naming ``child_key``, since a key
    outside the range would bleed into the next parent's group). The tour
    starts at the root's first down-edge and its last element's successor
    is ``-1``. Returns ``(succ, owner)`` where ``owner[e]`` is the child
    endpoint of element ``e`` (the vertex hosting it).
    """
    n = tree.n
    if child_sort_key is not None:
        child_sort_key = as_index_array(check_child_key(child_sort_key, n), name="child_key")
        check_in_range(child_sort_key, 0, n + 1, name="child_key")
    parents = tree.parents
    nonroot = np.flatnonzero(parents >= 0)
    e = np.full(n, -1, dtype=np.int64)
    e[nonroot] = np.arange(len(nonroot))
    succ = np.full(2 * len(nonroot), -1, dtype=np.int64)
    owner = np.repeat(nonroot, 2)
    # children grouped by parent (csr order = ascending child id); an
    # optional stable within-group sort by key keeps id order on ties —
    # one stable argsort of (parent, key) packed, as keys lie in [0, n]
    offsets, kids = tree.children_csr()
    gpar = parents[kids]
    if child_sort_key is not None:
        perm = np.argsort(gpar * (n + 1) + child_sort_key[kids], kind="stable")
        kids = kids[perm]
    first = np.empty(len(kids), dtype=bool)
    first[:1] = True
    np.not_equal(gpar[1:], gpar[:-1], out=first[1:])
    last = np.empty(len(kids), dtype=bool)
    np.not_equal(gpar[1:], gpar[:-1], out=last[:-1])
    last[-1:] = True
    # arrival at v continues into its first child; for the root the tour
    # *starts* with that edge, otherwise the down-edge into v chains to it
    pf, cf = gpar[first], kids[first]
    sel = parents[pf] >= 0
    succ[2 * e[pf[sel]]] = 2 * e[cf[sel]]
    # each child's up-edge chains to the next sibling's down-edge
    adj = ~first[1:]
    succ[2 * e[kids[:-1][adj]] + 1] = 2 * e[kids[1:][adj]]
    # the last child's up-edge returns to its parent's up-edge (the root's
    # last child's up-edge ends the tour)
    pl, cl = gpar[last], kids[last]
    sel = parents[pl] >= 0
    succ[2 * e[cl[sel]] + 1] = 2 * e[pl[sel]] + 1
    # leaves: down-edge chains directly to own up-edge
    leaf = nonroot[np.diff(offsets)[nonroot] == 0]
    succ[2 * e[leaf]] = 2 * e[leaf] + 1
    return succ, owner


class Tree:
    """An immutable rooted tree defined by a parents array.

    Parameters
    ----------
    parents:
        Integer array of length ``n``; ``parents[v]`` is the parent of
        vertex ``v``, and exactly one entry (the root) is ``-1``.
    validate:
        When True (default) the constructor verifies the array describes a
        single tree reaching all vertices. Internal callers that construct
        trees from already-verified data may pass False.
    """

    __slots__ = (
        "_parents",
        "_root",
        "_child_offsets",
        "_child_targets",
        "_depths",
        "_subtree_sizes",
        "_bfs_order",
    )

    def __init__(self, parents: Sequence[int] | np.ndarray, *, validate: bool = True):
        parents = as_index_array(parents, name="parents")
        if parents.size == 0:
            raise TreeStructureError("a tree must have at least one vertex")
        roots = np.flatnonzero(parents == -1)
        if len(roots) != 1:
            raise TreeStructureError(
                f"parents array must contain exactly one -1 root entry, found {len(roots)}"
            )
        n = len(parents)
        if parents.max() >= n or parents.min() < -1:
            raise TreeStructureError("parent indices must lie in [-1, n)")
        self._parents = parents
        self._parents.setflags(write=False)
        self._root = int(roots[0])
        self._child_offsets: np.ndarray | None = None
        self._child_targets: np.ndarray | None = None
        self._depths: np.ndarray | None = None
        self._subtree_sizes: np.ndarray | None = None
        self._bfs_order: np.ndarray | None = None
        if validate:
            # raises TreeStructureError on a cycle or an unreachable vertex
            self.bfs_order()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]], root: int = 0) -> "Tree":
        """Build a tree from undirected edges by orienting away from ``root``.

        Runs a BFS from ``root`` over the edge adjacency; raises
        :class:`TreeStructureError` if the edges do not form a spanning tree.
        """
        edge_arr = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        if len(edge_arr) != n - 1:
            raise TreeStructureError(
                f"a tree on {n} vertices needs exactly {n - 1} edges, got {len(edge_arr)}"
            )
        if n == 1:
            return cls(np.array([-1], dtype=np.int64), validate=False)
        # adjacency in CSR form
        endpoints = np.concatenate([edge_arr[:, 0], edge_arr[:, 1]])
        partners = np.concatenate([edge_arr[:, 1], edge_arr[:, 0]])
        if endpoints.min() < 0 or endpoints.max() >= n:
            raise TreeStructureError("edge endpoints out of range")
        order = np.argsort(endpoints, kind="stable")
        endpoints = endpoints[order]
        partners = partners[order]
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.add.at(offsets, endpoints + 1, 1)
        offsets = np.cumsum(offsets)
        parents = np.full(n, -2, dtype=np.int64)
        parents[root] = -1
        frontier = [root]
        seen = 1
        while frontier:
            nxt: list[int] = []
            for u in frontier:
                for w in partners[offsets[u] : offsets[u + 1]]:
                    w = int(w)
                    if parents[w] == -2:
                        parents[w] = u
                        nxt.append(w)
                        seen += 1
            frontier = nxt
        if seen != n:
            raise TreeStructureError("edges do not connect all vertices to the root")
        return cls(parents, validate=False)

    # ------------------------------------------------------------------ #
    # basic properties
    # ------------------------------------------------------------------ #

    @property
    def parents(self) -> np.ndarray:
        """Read-only parents array; ``parents[root] == -1``."""
        return self._parents

    @property
    def root(self) -> int:
        return self._root

    @property
    def n(self) -> int:
        """Number of vertices (Table I: ``n``)."""
        return len(self._parents)

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------ #
    # derived structure (lazy, cached)
    # ------------------------------------------------------------------ #

    def _build_children(self) -> None:
        n = self.n
        kids = np.flatnonzero(self._parents >= 0)
        pars = self._parents[kids]
        # the keys parent * n + child are distinct, so one plain sort groups
        # the children by parent in id order
        targets = np.sort(pars * n + kids) % n
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pars, minlength=n), out=offsets[1:])
        offsets.setflags(write=False)
        targets.setflags(write=False)
        self._child_offsets = offsets
        self._child_targets = targets

    def children_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Children lists in CSR form: ``(offsets, targets)``.

        The children of ``v`` are ``targets[offsets[v]:offsets[v+1]]``,
        ordered by vertex id.
        """
        if self._child_offsets is None:
            self._build_children()
        return self._child_offsets, self._child_targets  # type: ignore[return-value]

    def children(self, v: int) -> np.ndarray:
        """The children of vertex ``v`` (ordered by vertex id)."""
        offsets, targets = self.children_csr()
        return targets[offsets[v] : offsets[v + 1]]

    def num_children(self) -> np.ndarray:
        """Array of child counts per vertex."""
        offsets, _ = self.children_csr()
        return np.diff(offsets)

    def degree(self, v: int) -> int:
        """Table I ``deg(v)``: number of children plus one for the parent."""
        d = int(self.num_children()[v])
        return d if v == self._root else d + 1

    @property
    def max_degree(self) -> int:
        """Table I ``Δ``: maximum ``deg(v)`` over the tree."""
        counts = self.num_children().copy()
        counts[np.arange(self.n) != self._root] += 1
        return int(counts.max())

    def is_leaf(self) -> np.ndarray:
        """Boolean mask of leaves."""
        return self.num_children() == 0

    def leaves(self) -> np.ndarray:
        """Vertex ids of all leaves."""
        return np.flatnonzero(self.is_leaf())

    def bfs_order(self) -> np.ndarray:
        """Vertices in breadth-first order from the root (level by level).

        Children enter the queue in id order, so within a level the BFS
        sorts vertices by their root paths, as the id-order preorder does:
        the order is one ``lexsort`` by (depth, preorder position).
        """
        if self._bfs_order is None:
            order = np.lexsort((self.preorder_positions(), self.depths()))
            order.setflags(write=False)
            self._bfs_order = order
        return self._bfs_order

    def depths(self) -> np.ndarray:
        """Depth of every vertex (root has depth 0): the number of non-root
        vertices on its root path, summed by :func:`chain_sums`."""
        if self._depths is None:
            depths = chain_sums(self._parents, self._parents >= 0)
            depths.setflags(write=False)
            self._depths = depths
        return self._depths

    def height(self) -> int:
        """Length of the longest root-to-leaf path (edges)."""
        return int(self.depths().max())

    def subtree_sizes(self) -> np.ndarray:
        """Table I ``s(v)``: number of descendants of ``v`` including ``v``.

        Paper §IV step 1b: the Euler tour from ``v``'s down-edge to its
        up-edge holds ``2 s(v)`` elements, so over the tour's suffix ranks
        (one :func:`chain_sums` of ones along :func:`euler_succ`)
        ``s(v) = (rank(down_v) - rank(up_v) + 1) / 2``.
        """
        if self._subtree_sizes is None:
            sizes = np.full(self.n, self.n, dtype=np.int64)
            if self.n > 1:
                succ, owner = euler_succ(self, None)
                rank = chain_sums(succ, 1)
                sizes[owner[0::2]] = (rank[0::2] - rank[1::2] + 1) // 2
            sizes.setflags(write=False)
            self._subtree_sizes = sizes
        return self._subtree_sizes

    def preorder_positions(self, child_key: np.ndarray | None = None) -> np.ndarray:
        """Position of every vertex in the depth-first preorder.

        Children are visited ascending by ``child_key`` (shape ``(n,)``,
        ties in id order; id order when None). Child ``c`` sits ``off(c) =
        1 + Σ s(earlier siblings)`` places after its parent, so its position
        is the sum of ``off`` along its root path: one :func:`chain_sums`.
        :func:`repro.trees.traversal.dfs_preorder` is the inverse
        permutation, the visit sequence.
        """
        sizes = self.subtree_sizes()
        offsets, kids = self.children_csr()
        gpar = self._parents[kids]
        if child_key is not None:
            kids = kids[np.lexsort((check_child_key(child_key, self.n)[kids], gpar))]
        sz = sizes[kids]
        before = np.cumsum(sz) - sz
        off = np.zeros(self.n, dtype=np.int64)
        off[kids] = before - before[offsets[gpar]] + 1
        return chain_sums(self._parents, off)

    # ------------------------------------------------------------------ #
    # structural checks & transforms
    # ------------------------------------------------------------------ #

    def relabel(self, new_ids: np.ndarray) -> "Tree":
        """Return a tree where old vertex ``v`` becomes ``new_ids[v]``.

        ``new_ids`` must be a permutation of ``0..n-1``. The result has
        ``result.parents[new_ids[v]] == new_ids[parents[v]]``.
        """
        new_ids = as_index_array(new_ids, name="new_ids")
        if len(new_ids) != self.n:
            raise ValidationError("new_ids must have one entry per vertex")
        if not np.array_equal(np.sort(new_ids), np.arange(self.n)):
            raise ValidationError("new_ids must be a permutation of 0..n-1")
        new_parents = np.empty(self.n, dtype=np.int64)
        old_parent = self._parents
        mapped = np.where(old_parent >= 0, new_ids[np.clip(old_parent, 0, None)], -1)
        new_parents[new_ids] = mapped
        return Tree(new_parents, validate=False)

    def edges(self) -> np.ndarray:
        """``(n-1, 2)`` array of (parent, child) pairs, ordered by child id."""
        kids = np.flatnonzero(self._parents >= 0)
        return np.stack([self._parents[kids], kids], axis=1)

    def is_ancestor(self, u: int, v: int) -> bool:
        """True iff ``u`` is an ancestor of ``v`` (every vertex is its own ancestor)."""
        depths = self.depths()
        while depths[v] > depths[u]:
            v = int(self._parents[v])
        return u == v

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tree(n={self.n}, root={self._root}, max_degree={self.max_degree})"
