"""On-machine virtual tree construction (paper §III-D, Fig. 4).

The *structure* of the virtual tree ``T̂`` is fully determined by the tree
and its child order (see :func:`repro.trees.transform.transform_tree`); what
the machine has to pay for is distributing the *references*: with O(1)
words per processor, a vertex cannot hold its sibling list, so the appended
children links are discovered by the paper's bottom-up reference-passing
procedure. Per appended edge that is a constant number of messages along
final virtual-tree edges (``c_{j+1}`` hands ``c_j`` the reference to
``c_k``; ``c_j`` queries ``c_k``, which responds; parents are learned from
the left sibling), processed level by level from the leaves of each
family's relay tree — O(n) energy, O(log n) depth (Theorem 3).

:class:`VirtualSchedule` additionally precomputes the per-round edge
buckets that the local-messaging kernels replay every operation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.trees.transform import VirtualTree, transform_tree
from repro.trees.tree import chain_sums


def compute_app_depth(vt: VirtualTree) -> np.ndarray:
    """Relay depth of each vertex inside its family's appended-interval tree.

    Current children (and the root) have depth 0 — they receive their
    parent's value directly. An appended child is one relay hop below its
    virtual parent. The maximum over a family of ``d`` children is
    ``O(log d)`` by the halving construction.
    """
    # count the appended hops up each chain of virtual parents
    return chain_sums(np.where(vt.is_appended, vt.vparent, -1), vt.is_appended)


@dataclass(frozen=True)
class VirtualSchedule:
    """Precomputed message rounds for local broadcast/reduce on ``T̂``.

    Attributes
    ----------
    vt:
        The virtual tree structure.
    app_depth:
        Per-vertex relay depth (0 for current children and the root).
    cur_edges:
        ``(k, 2)`` array of (virtual parent, current child) pairs.
    app_rounds:
        List of ``(k_r, 2)`` arrays of (virtual parent, appended child)
        pairs bucketed by the sender's relay depth — broadcast replays them
        in ascending order, reduce descending.
    family:
        ``family[v]`` = the vertex whose local-broadcast value ``v``
        receives = ``v``'s parent in the original tree.
    """

    vt: VirtualTree
    app_depth: np.ndarray
    cur_edges: np.ndarray
    app_rounds: list
    family: np.ndarray

    @classmethod
    def from_virtual_tree(cls, vt: VirtualTree) -> "VirtualSchedule":
        n = vt.n
        app_depth = compute_app_depth(vt)
        child = np.arange(n, dtype=np.int64)
        has_parent = vt.vparent >= 0
        cur_mask = has_parent & ~vt.is_appended
        app_mask = has_parent & vt.is_appended
        cur_edges = np.stack(
            [vt.vparent[cur_mask], child[cur_mask]], axis=1
        )
        app_children = child[app_mask]
        app_parents = vt.vparent[app_mask]
        sender_depth = app_depth[app_parents]
        rounds = []
        if len(app_children):
            for r in range(int(sender_depth.max()) + 1):
                sel = sender_depth == r
                rounds.append(np.stack([app_parents[sel], app_children[sel]], axis=1))
        return cls(
            vt=vt,
            app_depth=app_depth,
            cur_edges=cur_edges,
            app_rounds=rounds,
            family=vt.tree.parents,
        )


def build_virtual_tree(st) -> VirtualTree:
    """Construct ``T̂`` for a :class:`~repro.spatial.context.SpatialTree`,
    charging the reference-passing messages to its machine.

    Charging model (per the Fig. 4 procedure, bottom-up over each family's
    relay tree): every appended edge costs three messages between its
    endpoints (hand-up of the boundary reference, the query, and the
    response) and every current edge one message (the parent passes its two
    current-children references up / down). All messages run along final
    virtual-tree edges, so by Theorem 1 the energy is O(n); the bottom-up
    level order makes the depth O(max relay depth) = O(log n).
    """
    vt = transform_tree(st.tree)
    sched = VirtualSchedule.from_virtual_tree(vt)
    with st.machine.phase("virtual_tree_construction"):
        # bottom-up: deepest relay level first; per level, three dependency
        # rounds (hand up boundary reference / query the appended child /
        # response with the next boundary), then the current children
        # register with their parent — all charged as one segmented batch
        seg_src: list[np.ndarray] = []
        seg_dst: list[np.ndarray] = []
        for edges in reversed(sched.app_rounds):
            if len(edges) == 0:
                continue
            parents, children = edges[:, 0], edges[:, 1]
            seg_src += [children, parents, children]
            seg_dst += [parents, children, parents]
        if len(sched.cur_edges):
            parents, children = sched.cur_edges[:, 0], sched.cur_edges[:, 1]
            seg_src.append(children)
            seg_dst.append(parents)
        if seg_src:
            sizes = np.array([len(a) for a in seg_src], dtype=np.int64)
            offs = np.concatenate([[0], np.cumsum(sizes)])
            st.send_plan(
                np.concatenate(seg_src), np.concatenate(seg_dst), rounds=offs
            )
    return vt
