"""Derived tree operations built from the paper's primitives.

The paper positions treefix sums and LCA as "subroutines for other graph
algorithms" (§I-C, §V: minimum cuts; §VII: sparse workloads). This module
provides the standard derived operations a downstream user reaches for,
each composed from the §V/§VI kernels so its cost inherits the
O(n log n)-energy / poly-log-depth envelopes:

* :func:`vertex_depths` / :func:`subtree_sizes` — the two canonical treefix
  instances;
* :func:`tree_distances` — batched path lengths via depths + LCA;
* :func:`path_sums` — batched root-path-difference path sums (group
  operators), the standard LCA+prefix trick;
* :func:`subtree_statistics` — sum/min/max/leaf-count per subtree in one
  pass bundle;
* :func:`mark_ancestors` — indicator propagation (is some marked vertex
  above me?), a top-down treefix with OR.

All results are verified against sequential oracles in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.spatial.lca import lca_batch
from repro.spatial.treefix import top_down_treefix, treefix_sum
from repro.utils import as_index_array, check_in_range

_I64_MIN = np.int64(np.iinfo(np.int64).min)
_I64_MAX = np.int64(np.iinfo(np.int64).max)


def vertex_depths(st, *, seed=None) -> np.ndarray:
    """Depth of every vertex (root = 0), as a top-down treefix of ones."""
    return top_down_treefix(st, np.ones(st.n, dtype=np.int64), seed=seed) - 1


def subtree_sizes(st, *, seed=None) -> np.ndarray:
    """``s(v)`` for every vertex, as a bottom-up treefix of ones."""
    return treefix_sum(st, np.ones(st.n, dtype=np.int64), seed=seed)


def tree_distances(st, us, vs, *, seed=None) -> np.ndarray:
    """Number of edges on each ``u``–``v`` tree path.

    ``dist(u, v) = depth(u) + depth(v) − 2·depth(LCA(u, v))`` — one treefix
    plus one batched LCA.
    """
    us = as_index_array(us, name="us")
    vs = as_index_array(vs, name="vs")
    depths = vertex_depths(st, seed=seed)
    lcas = lca_batch(st, us, vs, seed=seed)
    return depths[us] + depths[vs] - 2 * depths[lcas]


def path_sums(st, values, us, vs, *, seed=None) -> np.ndarray:
    """Sum of ``values`` over the vertices of each ``u``–``v`` path (inclusive).

    Uses the root-path-difference identity
    ``Σ path(u,v) = S(u) + S(v) − 2·S(w) + values[w]`` with ``S`` the
    top-down treefix sums and ``w = LCA(u, v)``. Requires the + operator
    (the identity needs inverses; for general monoids use two root-path
    queries instead).
    """
    values = np.asarray(values)
    if values.shape != (st.n,):
        raise ValidationError("values must have one entry per vertex")
    us = as_index_array(us, name="us")
    vs = as_index_array(vs, name="vs")
    root_sums = top_down_treefix(st, values.astype(np.int64), seed=seed)
    lcas = lca_batch(st, us, vs, seed=seed)
    return root_sums[us] + root_sums[vs] - 2 * root_sums[lcas] + values[lcas]


@dataclass(frozen=True)
class SubtreeStatistics:
    """Per-vertex subtree aggregates from one statistics pass."""

    total: np.ndarray       # sum of values over the subtree
    minimum: np.ndarray     # min of values over the subtree
    maximum: np.ndarray     # max of values over the subtree
    size: np.ndarray        # number of vertices in the subtree
    leaves: np.ndarray      # number of leaves in the subtree


def subtree_statistics(st, values, *, seed=None) -> SubtreeStatistics:
    """Sum / min / max / size / leaf-count per subtree.

    Five treefix passes (each O(n log n) energy); a fused multi-word
    variant would only change constants since each pass moves O(1) words
    per message. With an integer ``seed`` the five passes share one
    compiled contraction schedule: the first compiles it, the other four
    replay it (each still charges every message and folds its own
    values). Integer and float values are both supported.
    """
    values = np.asarray(values)
    if values.shape != (st.n,):
        raise ValidationError("values must have one entry per vertex")
    if np.issubdtype(values.dtype, np.floating):
        lo, hi, zero = -np.inf, np.inf, 0.0
    else:
        values = values.astype(np.int64)
        lo, hi, zero = _I64_MIN, _I64_MAX, 0
    ones = np.ones(st.n, dtype=np.int64)
    leaf_flags = st.tree.is_leaf().astype(np.int64)
    return SubtreeStatistics(
        total=treefix_sum(st, values, identity=zero, seed=seed),
        minimum=treefix_sum(st, values, op=np.minimum, identity=hi, seed=seed),
        maximum=treefix_sum(st, values, op=np.maximum, identity=lo, seed=seed),
        size=treefix_sum(st, ones, seed=seed),
        leaves=treefix_sum(st, leaf_flags, seed=seed),
    )


def mark_ancestors(st, marked, *, seed=None) -> np.ndarray:
    """For each vertex: is some vertex on its root path (inclusive) marked?

    A top-down treefix with logical OR — the building block for
    "descendant of any marked vertex" filters (e.g. clade selections in
    phylogenetics).
    """
    marked = np.asarray(marked)
    if marked.shape != (st.n,):
        raise ValidationError("marked must be a boolean entry per vertex")
    flags = marked.astype(np.int64)
    out = top_down_treefix(st, flags, op=np.bitwise_or, identity=0, seed=seed)
    return out.astype(bool)


def split_hot_vertices(tree, us, vs, *, max_queries_per_vertex: int = 4):
    """§VI preprocessing: split query-hot vertices into paths.

    The paper's LCA bound assumes each vertex appears in O(1) queries and
    notes that "the tree can be preprocessed by splitting a vertex with
    many queries into multiple vertices that form a path and distributing
    the queries among them". This implements that preprocessing:

    * a vertex appearing in ``q > c`` queries becomes a chain of
      ``ceil(q / c)`` copies (the original on top, its children re-attached
      under the last copy), so every copy carries at most ``c`` queries;
    * queries are remapped onto the copies round-robin;
    * ``owner`` maps every new vertex back to its original, so LCA answers
      on the split tree translate by ``owner[answer]``.

    Returns ``(new_tree, new_us, new_vs, owner)``.
    """
    from repro.trees.tree import Tree

    us = as_index_array(us, name="us")
    vs = as_index_array(vs, name="vs")
    check_in_range(us, 0, tree.n, name="us")
    check_in_range(vs, 0, tree.n, name="vs")
    c = int(max_queries_per_vertex)
    if c < 1:
        raise ValidationError("max_queries_per_vertex must be >= 1")

    counts = np.bincount(np.concatenate([us, vs]), minlength=tree.n)
    copies_needed = np.maximum(1, -(-counts // c))  # ceil(q / c), min 1

    n_new = int(copies_needed.sum())
    owner = np.empty(n_new, dtype=np.int64)
    first_copy = np.empty(tree.n, dtype=np.int64)
    last_copy = np.empty(tree.n, dtype=np.int64)
    new_parents = np.empty(n_new, dtype=np.int64)

    nxt = 0
    for v in range(tree.n):
        k = int(copies_needed[v])
        first_copy[v] = nxt
        last_copy[v] = nxt + k - 1
        owner[nxt : nxt + k] = v
        # chain the copies: copy_i's parent is copy_{i-1}
        for i in range(1, k):
            new_parents[nxt + i] = nxt + i - 1
        nxt += k
    # original edges: the top copy of v hangs under the *last* copy of its
    # parent, so every copy of p is an ancestor of p's whole subtree
    for v in range(tree.n):
        p = int(tree.parents[v])
        new_parents[first_copy[v]] = -1 if p < 0 else last_copy[p]

    # distribute each vertex's query slots round-robin over its copies
    slot = np.zeros(tree.n, dtype=np.int64)

    def remap(endpoints: np.ndarray) -> np.ndarray:
        out = np.empty(len(endpoints), dtype=np.int64)
        for i, v in enumerate(endpoints):
            v = int(v)
            out[i] = first_copy[v] + (slot[v] % copies_needed[v])
            slot[v] += 1
        return out

    new_us = remap(us)
    new_vs = remap(vs)
    return Tree(new_parents, validate=False), new_us, new_vs, owner


def lca_batch_balanced(tree, us, vs, *, max_queries_per_vertex: int = 4, seed=None, **build_kwargs):
    """Batched LCA with automatic hot-vertex splitting (§VI).

    Builds the split tree, lays it out, answers on the machine, and maps
    the answers back to original vertex ids. Returns
    ``(answers, spatial_tree)`` so the caller can read the cost ledger.
    """
    from repro.spatial.context import SpatialTree

    new_tree, new_us, new_vs, owner = split_hot_vertices(
        tree, us, vs, max_queries_per_vertex=max_queries_per_vertex
    )
    st = SpatialTree.build(new_tree, **build_kwargs)
    answers = lca_batch(st, new_us, new_vs, seed=seed)
    return owner[answers], st
