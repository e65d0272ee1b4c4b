"""Tree generators: workloads for the experiments.

The paper's bounds are shape-generic, but its *arguments* single out
specific adversarial shapes (a perfect binary tree breaks BFS layouts, a
caterpillar breaks DFS layouts, a star exercises the unbounded-degree
machinery). The application domains it motivates — phylogenetics and
decision trees — get faithful synthetic generators (birth–death process,
recursive-split decision trees).

All generators return a :class:`~repro.trees.tree.Tree` and accept a
``seed`` where randomized.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError
from repro.trees.tree import Tree
from repro.utils import check_positive, resolve_rng


def path_tree(n: int) -> Tree:
    """A path ``0 -> 1 -> ... -> n-1`` rooted at 0 (worst case for rake-only)."""
    n = check_positive(n, name="n")
    parents = np.arange(-1, n - 1, dtype=np.int64)
    return Tree(parents, validate=False)


def star_tree(n: int) -> Tree:
    """A star: root 0 with ``n - 1`` leaf children (maximal degree, §III-D)."""
    n = check_positive(n, name="n")
    parents = np.zeros(n, dtype=np.int64)
    parents[0] = -1
    return Tree(parents, validate=False)


def caterpillar_tree(n: int, *, spine_first: bool = True) -> Tree:
    """A path with one extra leaf per spine vertex (paper §III: DFS-adversarial).

    With ``spine_first=True`` (default) the spine occupies ids
    ``0..⌈n/2⌉-1`` and the leaves follow, so a plain id-order DFS descends
    the whole spine before placing any leaf — exactly the paper's example of
    a depth-first layout with ``Omega(sqrt n)`` average neighbour distance
    (each leaf lands far from its spine parent). With ``spine_first=False``
    leaves interleave with the spine (odd ids are leaves), which makes plain
    DFS coincide with light-first and is used as the benign control.
    """
    n = check_positive(n, name="n")
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    if spine_first:
        spine_len = (n + 1) // 2
        idx = np.arange(1, spine_len, dtype=np.int64)
        parents[idx] = idx - 1
        leaves = np.arange(spine_len, n, dtype=np.int64)
        parents[leaves] = leaves - spine_len
    else:
        idx = np.arange(1, n, dtype=np.int64)
        # even vertices continue the spine, odd vertices are leaves of it
        parents[idx] = np.where(idx % 2 == 0, idx - 2, idx - 1)
    return Tree(parents, validate=False)


def perfect_kary_tree(height: int, k: int = 2) -> Tree:
    """Perfect ``k``-ary tree of the given height (all leaves at depth ``height``).

    The paper's BFS-adversarial example is the perfect binary tree
    (``k = 2``): a breadth-first layout gives the bottom level neighbour
    distances of ``Omega(sqrt n)``.
    """
    if height < 0:
        raise ValidationError(f"height must be >= 0, got {height}")
    k = check_positive(k, name="k")
    if k == 1:
        return path_tree(height + 1)
    n = (k ** (height + 1) - 1) // (k - 1)
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    idx = np.arange(1, n, dtype=np.int64)
    parents[idx] = (idx - 1) // k
    return Tree(parents, validate=False)


def complete_kary_tree(n: int, k: int = 2) -> Tree:
    """Complete ``k``-ary tree on exactly ``n`` vertices (heap numbering)."""
    n = check_positive(n, name="n")
    k = check_positive(k, name="k")
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    if n > 1:
        idx = np.arange(1, n, dtype=np.int64)
        parents[idx] = (idx - 1) // k
    return Tree(parents, validate=False)


def random_attachment_tree(n: int, *, seed=None) -> Tree:
    """Random recursive tree: vertex ``v`` attaches to a uniform earlier vertex.

    Expected height ``O(log n)``; degrees follow a near-geometric law, so
    this exercises the unbounded-degree path without being a pure star.
    """
    n = check_positive(n, name="n")
    rng = resolve_rng(seed)
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    if n > 1:
        # vertex v picks its parent uniformly from 0..v-1
        u = rng.random(n - 1)
        parents[1:] = (u * np.arange(1, n)).astype(np.int64)
    return Tree(parents, validate=False)


def preferential_attachment_tree(n: int, *, seed=None) -> Tree:
    """Barabási–Albert-style tree: parents chosen proportional to degree.

    Produces heavy-tailed degrees — a realistic high-``Δ`` workload between
    the random recursive tree and the star.
    """
    n = check_positive(n, name="n")
    rng = resolve_rng(seed)
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    if n == 1:
        return Tree(parents, validate=False)
    # endpoint-list trick: each edge contributes both endpoints; sampling a
    # uniform element of the list is degree-proportional sampling.
    endpoints = np.empty(2 * (n - 1), dtype=np.int64)
    parents[1] = 0
    endpoints[0] = 0
    endpoints[1] = 1
    filled = 2
    for v in range(2, n):
        choice = int(endpoints[rng.integers(0, filled)])
        parents[v] = choice
        endpoints[filled] = choice
        endpoints[filled + 1] = v
        filled += 2
    return Tree(parents, validate=False)


def random_binary_tree(n: int, *, seed=None) -> Tree:
    """Uniform-ish random binary tree via random leaf splitting.

    Starts from a single vertex and repeatedly gives a uniformly random
    vertex with fewer than two children a new child. Degree <= 3
    everywhere; heights concentrate around ``O(sqrt n)``–``O(log n)``
    depending on luck, giving varied bounded-degree workloads.
    """
    n = check_positive(n, name="n")
    rng = resolve_rng(seed)
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    child_count = np.zeros(n, dtype=np.int64)
    # candidates: vertices with < 2 children; maintained as a list with swaps
    open_slots = [0]
    for v in range(1, n):
        i = int(rng.integers(0, len(open_slots)))
        u = open_slots[i]
        parents[v] = u
        child_count[u] += 1
        if child_count[u] == 2:
            open_slots[i] = open_slots[-1]
            open_slots.pop()
        open_slots.append(v)
    return Tree(parents, validate=False)


def birth_death_phylogeny(num_leaves: int, *, seed=None) -> Tree:
    """Yule (pure-birth) phylogenetic tree with ``num_leaves`` extant taxa.

    Standard model in computational biology (paper §I motivates phylogenetic
    workloads): start with one lineage; repeatedly pick a uniform extant
    lineage and split it into two. Internal vertices have exactly two
    children, so the result is a full binary tree with
    ``2 * num_leaves - 1`` vertices.
    """
    num_leaves = check_positive(num_leaves, name="num_leaves")
    rng = resolve_rng(seed)
    n = 2 * num_leaves - 1
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    if num_leaves == 1:
        return Tree(parents, validate=False)
    extant = [0]
    next_id = 1
    while next_id < n:
        i = int(rng.integers(0, len(extant)))
        u = extant[i]
        left, right = next_id, next_id + 1
        parents[left] = u
        parents[right] = u
        extant[i] = left
        extant.append(right)
        next_id += 2
    return Tree(parents, validate=False)


def decision_tree_shape(n: int, *, max_depth: int | None = None, seed=None) -> Tree:
    """Tree shaped like a trained decision tree (paper §I: ML workloads).

    Recursive binary splits where each split sends a random, typically
    uneven fraction of the remaining "sample budget" to each side and stops
    on exhausted budget or ``max_depth`` — reproducing the unbalanced,
    data-dependent shapes of real CART trees.
    """
    n = check_positive(n, name="n")
    rng = resolve_rng(seed)
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    if n == 1:
        return Tree(parents, validate=False)
    if max_depth is None:
        max_depth = max(4, int(np.ceil(np.log2(n))) * 2)
    # frontier of expandable (vertex, depth) pairs, weighted by budget
    budget = {0: n - 1}
    depth = {0: 0}
    frontier = [0]
    next_id = 1
    while next_id < n and frontier:
        i = int(rng.integers(0, len(frontier)))
        u = frontier[i]
        frontier[i] = frontier[-1]
        frontier.pop()
        b = budget[u]
        if b <= 0 or depth[u] >= max_depth:
            continue
        take = min(b, 2 if next_id + 1 < n else 1)
        split = rng.beta(0.6, 0.6)  # uneven splits, like real impurity splits
        for j in range(take):
            v = next_id
            parents[v] = u
            frac = split if j == 0 else 1.0 - split
            budget[v] = max(0, int((b - take) * frac))
            depth[v] = depth[u] + 1
            frontier.append(v)
            next_id += 1
    # attach any leftover vertices as a chain under the last vertex so the
    # tree always has exactly n vertices even if the frontier dies early
    while next_id < n:
        parents[next_id] = next_id - 1
        next_id += 1
    return Tree(parents, validate=False)


def prufer_random_tree(n: int, *, seed=None, root: int = 0) -> Tree:
    """Uniformly random labelled tree via a random Prüfer sequence.

    Decodes a uniform sequence in ``{0..n-1}^{n-2}`` into its tree (exactly
    the uniform distribution over labelled trees), then roots it at
    ``root``. Degrees are ``1 + Binomial(n-2, 1/n)`` so ``Δ`` is
    ``Theta(log n / log log n)`` w.h.p. — an unbounded-degree workload with
    realistic (non-star) skew.
    """
    n = check_positive(n, name="n")
    if not 0 <= root < n:
        raise ValidationError(f"root must lie in [0, {n}), got {root}")
    if n == 1:
        return Tree(np.array([-1], dtype=np.int64), validate=False)
    if n == 2:
        parents = np.array([-1, 0], dtype=np.int64) if root == 0 else np.array([1, -1], dtype=np.int64)
        return Tree(parents, validate=False)
    rng = resolve_rng(seed)
    seq = rng.integers(0, n, size=n - 2)
    degree = (np.bincount(seq, minlength=n) + 1).tolist()
    # classic linear-time decoding with a moving "leaf pointer": each
    # removed leaf hangs off the entry it meets, which roots the tree at
    # n - 1, the last vertex left
    parents = [-1] * n
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in seq.tolist():
        parents[leaf] = s
        degree[s] -= 1
        if degree[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    parents[leaf] = n - 1
    # re-root at `root`: reverse the one path from root up to n - 1
    prev, v = -1, root
    while v != -1:
        up = parents[v]
        parents[v] = prev
        prev, v = v, up
    return Tree(np.array(parents, dtype=np.int64), validate=False)


def binary_spine_tree(n: int, *, seed=None) -> Tree:
    """Random bounded-degree (<= 3) tree: a spine with random binary bushes.

    Used by the bounded-degree treefix experiments where the paper promises
    ``O(log n)`` depth.
    """
    return random_binary_tree(n, seed=seed)


def spider_tree(num_legs: int, leg_length: int) -> Tree:
    """A spider: a degree-``num_legs`` center with paths of ``leg_length``.

    The canonical mixed stress case for tree contraction: the legs need
    COMPRESS (they are paths) while the center needs the unbounded-degree
    machinery and a final RAKE. ``n = 1 + num_legs * leg_length``.
    """
    num_legs = check_positive(num_legs, name="num_legs")
    leg_length = check_positive(leg_length, name="leg_length")
    n = 1 + num_legs * leg_length
    parents = np.empty(n, dtype=np.int64)
    parents[0] = -1
    idx = np.arange(1, n, dtype=np.int64)
    # leg i occupies ids [1 + i*L, 1 + (i+1)*L); each vertex chains to the
    # previous one, the first of each leg to the center
    within = (idx - 1) % leg_length
    parents[idx] = np.where(within == 0, 0, idx - 1)
    return Tree(parents, validate=False)
