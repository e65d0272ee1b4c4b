"""Per-vertex loop oracles for the tree substrate's pointer-jumping code.

These are the original sequential implementations of the structures that
:class:`repro.trees.Tree`, :mod:`repro.trees.traversal`,
:func:`repro.trees.prufer_random_tree`, :func:`repro.trees.euler_tour` and
:func:`repro.trees.transform_tree` now derive in whole-array passes: a BFS
queue, leaf-to-root accumulation, explicit-stack depth-first searches and
Euler tour, the edge-list Prüfer decode through :meth:`Tree.from_edges`,
and the TRANSFORM worklist. They read only a tree's ``parents``, ``root``
and ``n`` (children come from :func:`children_csr` below, not from the
tree's own cache), so they share no code with what they check.
"""

from __future__ import annotations

import numpy as np

from repro.errors import TreeStructureError
from repro.trees import Tree
from repro.utils import check_positive, resolve_rng


def children_csr(tree: Tree) -> tuple[np.ndarray, np.ndarray]:
    """Children lists in CSR form, ordered by vertex id."""
    n = tree.n
    mask = tree.parents >= 0
    kids = np.flatnonzero(mask)
    pars = tree.parents[kids]
    order = np.argsort(pars, kind="stable")
    targets = kids[order]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.add.at(offsets, pars + 1, 1)
    offsets = np.cumsum(offsets)
    return offsets, targets


def bfs_order(tree: Tree) -> np.ndarray:
    """Vertices in breadth-first order from the root (level by level)."""
    offsets, targets = children_csr(tree)
    order = np.empty(tree.n, dtype=np.int64)
    order[0] = tree.root
    head, tail = 0, 1
    while head < tail:
        v = order[head]
        head += 1
        kids = targets[offsets[v] : offsets[v + 1]]
        order[tail : tail + len(kids)] = kids
        tail += len(kids)
    if tail != tree.n:
        raise TreeStructureError(
            "parents array contains a cycle or vertices unreachable from the root"
        )
    return order


def depths(tree: Tree) -> np.ndarray:
    """Depth of every vertex (root has depth 0)."""
    depths = np.zeros(tree.n, dtype=np.int64)
    for v in bfs_order(tree)[1:]:
        depths[v] = depths[tree.parents[v]] + 1
    return depths


def subtree_sizes(tree: Tree) -> np.ndarray:
    """Descendant counts, accumulated from leaves to root in reverse BFS order."""
    sizes = np.ones(tree.n, dtype=np.int64)
    order = bfs_order(tree)
    for v in order[::-1]:
        p = tree.parents[v]
        if p >= 0:
            sizes[p] += sizes[v]
    return sizes


def _ordered_children(tree: Tree, key: np.ndarray | None) -> list[np.ndarray]:
    """Children of each vertex, optionally sorted by ``key`` (ascending, ties by id)."""
    offsets, targets = children_csr(tree)
    out = []
    for v in range(tree.n):
        kids = targets[offsets[v] : offsets[v + 1]]
        if key is not None and len(kids) > 1:
            kids = kids[np.argsort(key[kids], kind="stable")]
        out.append(kids)
    return out


def dfs_preorder(tree: Tree, *, child_key: np.ndarray | None = None) -> np.ndarray:
    """Depth-first preorder visit sequence by an explicit stack."""
    children = _ordered_children(tree, child_key)
    order = np.empty(tree.n, dtype=np.int64)
    stack = [tree.root]
    i = 0
    while stack:
        v = stack.pop()
        order[i] = v
        i += 1
        # push reversed so the first child is popped first
        stack.extend(children[v][::-1])
    return order


def dfs_postorder(tree: Tree, *, child_key: np.ndarray | None = None) -> np.ndarray:
    """Depth-first postorder visit sequence (children before parents)."""
    children = _ordered_children(tree, child_key)
    order = np.empty(tree.n, dtype=np.int64)
    i = 0
    # iterative two-phase DFS: (vertex, expanded?) frames
    stack: list[tuple[int, bool]] = [(tree.root, False)]
    while stack:
        v, expanded = stack.pop()
        if expanded:
            order[i] = v
            i += 1
        else:
            stack.append((v, True))
            for c in children[v][::-1]:
                stack.append((int(c), False))
    return order


def euler_tour(tree: Tree, *, child_key: np.ndarray | None = None) -> np.ndarray:
    """The vertex-visit Euler tour (length ``2n - 1``) by an explicit stack."""
    children = _ordered_children(tree, child_key)
    tour = np.empty(2 * tree.n - 1, dtype=np.int64)
    i = 0
    # frames: (vertex, next-child index); re-visit the vertex after each child
    stack: list[list[int]] = [[tree.root, 0]]
    tour[i] = tree.root
    i += 1
    while stack:
        frame = stack[-1]
        v, k = frame
        kids = children[v]
        if k < len(kids):
            frame[1] += 1
            c = int(kids[k])
            tour[i] = c
            i += 1
            stack.append([c, 0])
        else:
            stack.pop()
            if stack:
                tour[i] = stack[-1][0]
                i += 1
    return tour


def transform_tree(
    tree: Tree, *, child_key: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The §III-D TRANSFORM by a per-vertex worklist: ``(cur, app, vparent,
    is_appended)`` with children ordered by ``child_key`` (default: subtree
    sizes), ties by id."""
    if child_key is None:
        child_key = subtree_sizes(tree)
    children = _ordered_children(tree, child_key)

    n = tree.n
    cur = np.full((n, 2), -1, dtype=np.int64)
    app = np.full((n, 2), -1, dtype=np.int64)
    vparent = np.full(n, -1, dtype=np.int64)
    is_appended = np.zeros(n, dtype=bool)

    def attach(parent: int, slot: np.ndarray, child: int, appended: bool) -> None:
        if slot[0] < 0:
            slot[0] = child
        else:
            slot[1] = child
        vparent[child] = parent
        is_appended[child] = appended

    # Worklist of (vertex, appended-run) pairs: the run is a slice
    # (owner, lo, hi) of children[owner] that this vertex must distribute
    # among its appended children. Every vertex enters the worklist exactly
    # once.
    work: list[tuple[int, int, int, int]] = [(tree.root, tree.root, 0, 0)]
    while work:
        v, owner, lo, hi = work.pop()
        # --- step 1: split the current children of v ---
        kids = children[v]
        d = len(kids)
        if d:
            if d <= 2:
                for c in kids:
                    attach(v, cur[v], int(c), appended=False)
                    work.append((int(c), v, 0, 0))
            else:
                half = d // 2
                c1 = int(kids[0])
                cm = int(kids[half])
                attach(v, cur[v], c1, appended=False)
                attach(v, cur[v], cm, appended=False)
                # run c_2..c_{half} goes under c1; run c_{half+2}..c_d under cm
                work.append((c1, v, 1, half))
                work.append((cm, v, half + 1, d))
        # --- step 2: split the appended run assigned to v ---
        run = children[owner][lo:hi]
        dd = len(run)
        if dd:
            if dd <= 2:
                for a in run:
                    attach(v, app[v], int(a), appended=True)
                    work.append((int(a), owner, 0, 0))
            else:
                half = dd // 2
                a1 = int(run[0])
                am = int(run[half])
                attach(v, app[v], a1, appended=True)
                attach(v, app[v], am, appended=True)
                work.append((a1, owner, lo + 1, lo + half))
                work.append((am, owner, lo + half + 1, hi))
    return cur, app, vparent, is_appended


def prufer_random_tree(n: int, *, seed=None, root: int = 0) -> Tree:
    """Random labelled tree: decode a Prüfer sequence into an edge list and
    orient it away from ``root`` with :meth:`Tree.from_edges`."""
    n = check_positive(n, name="n")
    if n == 1:
        return Tree(np.array([-1], dtype=np.int64), validate=False)
    if n == 2:
        parents = np.array([-1, 0], dtype=np.int64) if root == 0 else np.array([1, -1], dtype=np.int64)
        return Tree(parents, validate=False)
    rng = resolve_rng(seed)
    seq = rng.integers(0, n, size=n - 2)
    degree = np.ones(n, dtype=np.int64)
    np.add.at(degree, seq, 1)
    edges = []
    # classic linear-time decoding with a moving "leaf pointer"
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in seq:
        s = int(s)
        edges.append((leaf, s))
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Tree.from_edges(n, edges, root=root)
