"""Path decomposition and subtree cover on the machine (paper §VI-A/B).

* The heavy-light decomposition is read directly off light-first order:
  the heavy child of ``w`` is its rightmost child, i.e. the unique child
  whose position range ends where ``w``'s does. Each vertex discovers
  whether it is heavy with one local broadcast (its parent's range), and
  the layer index is a top-down treefix sum over light-edge indicators —
  O(n log n) energy, O(log n) depth (§VI-A).

* The subtree cover contains, for every path head ``x``, the subtree rooted
  at ``x``; in light-first order that subtree is the contiguous position
  range ``[pos(x), pos(x) + s(x) - 1]`` (§VI-B).

* :func:`range_forest` builds Lemma 13's broadcast schedule within
  contiguous ranges over a *virtual complete binary tree stored in
  light-first order* (root at the first position, the two half-ranges
  recursively after it), giving O(length) energy and O(log length) depth;
  :func:`range_broadcast` charges it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ValidationError
from repro.spatial.local_messaging import local_broadcast
from repro.spatial.treefix import top_down_treefix, treefix_sum


@dataclass(frozen=True)
class SpatialRanges:
    """Per-vertex contiguous subtree ranges in position space (§VI-C)."""

    lo: np.ndarray  # position of the vertex itself
    hi: np.ndarray  # last position of its subtree

    def contains(self, v_lo: np.ndarray, pos: np.ndarray) -> np.ndarray:
        return (pos >= self.lo[v_lo]) & (pos <= self.hi[v_lo])


def compute_ranges(st, *, seed=None) -> SpatialRanges:
    """§VI-C step 1: subtree sizes by treefix sum → position ranges.

    Requires a preorder-contiguous layout (light-first); validated against
    the layout's own ranges, which the algorithm must reproduce.
    """
    from repro.layout.orders import is_light_first

    if not is_light_first(st.tree, st.layout.order):
        raise ValidationError(
            "the LCA algorithm requires the tree to be stored in light-first "
            "order (its ranges and heavy-child tests read positions directly); "
            "use order='light_first' or run create_light_first_layout first"
        )
    sizes = treefix_sum(st, np.ones(st.n, dtype=np.int64), seed=seed)
    lo = st.layout.position.copy()
    hi = lo + sizes - 1
    return SpatialRanges(lo=lo, hi=hi)


@dataclass(frozen=True)
class SpatialCover:
    """The paper's subtree cover: one subtree per heavy-path head."""

    ranges: SpatialRanges
    layer: np.ndarray        # layer of each vertex's path
    is_head: np.ndarray      # True for path heads (roots of cover subtrees)
    heavy_child_of: np.ndarray  # parent's heavy child marker per vertex

    @property
    def num_layers(self) -> int:
        return int(self.layer.max()) + 1


def build_cover(st, ranges: SpatialRanges, *, seed=None) -> SpatialCover:
    """§VI-C steps 2–3: broadcast ranges, mark heavy children, layer treefix."""
    n = st.n
    # step 2: every vertex sends its range to its children (one packed word)
    packed = ranges.lo * np.int64(n) + ranges.hi
    received = local_broadcast(st, packed)
    par_hi = received % n
    # a child is heavy iff its range ends where the parent's does
    is_root = st.tree.parents < 0
    heavy = (~is_root) & (ranges.hi == par_hi)
    # step 3: layer = number of light edges on the root path
    light = (~is_root) & (~heavy)
    layer = top_down_treefix(st, light.astype(np.int64), seed=seed)
    is_head = is_root | light
    return SpatialCover(
        ranges=ranges, layer=layer, is_head=is_head, heavy_child_of=heavy
    )


@dataclass(frozen=True)
class RangeForest:
    """Lemma 13's broadcast trees over disjoint position ranges, as CSR rounds.

    Round ``r`` (``src/dst[rounds[r]:rounds[r+1]]``) holds every range's
    level-``r`` edges. ``occ`` is each message's sender occurrence index
    within its round: a range-tree node sends to at most two children per
    round (0 for the first, 1 for the second) and no node receives twice,
    which is the :meth:`~repro.machine.SpatialMachine.send_plan`
    ``src_occ`` hint. The forest is placement-independent: it names
    processor ids only, so each machine charges its own distances.
    """

    src: np.ndarray
    dst: np.ndarray
    rounds: np.ndarray
    occ: np.ndarray


def range_forest(starts: np.ndarray, lengths: np.ndarray) -> RangeForest:
    """Build the broadcast forest over ranges ``[starts[i], starts[i] + lengths[i])``.

    Each range's tree is a balanced binary tree stored in preorder
    (light-first): a node is the first index of its interval and its
    children are the first indices of the two halves of the remainder, so
    every edge's index gap is at most the child's interval size and the
    per-level energies form the geometric series of Lemma 13. All ranges
    are expanded together, one level per round.
    """
    start = np.asarray(starts, dtype=np.int64)
    size = np.asarray(lengths, dtype=np.int64)
    src: list[np.ndarray] = []
    dst: list[np.ndarray] = []
    occ: list[np.ndarray] = []
    while True:
        keep = size > 1
        start, size = start[keep], size[keep]
        if len(start) == 0:
            break
        left = size // 2              # the first half of the remainder
        right = size - 1 - left       # the second half (may be empty)
        two = right > 0
        fan = 1 + two.astype(np.int64)
        second = (np.cumsum(fan) - 1)[two]  # slots of the second children
        child = np.repeat(start + 1, fan)
        child[second] += left[two]
        child_size = np.repeat(left, fan)
        child_size[second] = right[two]
        sender_occ = np.zeros(len(child), dtype=np.int64)
        sender_occ[second] = 1
        src.append(np.repeat(start, fan))
        dst.append(child)
        occ.append(sender_occ)
        start, size = child, child_size
    rounds = np.zeros(len(src) + 1, dtype=np.int64)
    np.cumsum([len(s) for s in src], out=rounds[1:])
    if not src:
        src = dst = occ = [np.empty(0, dtype=np.int64)]
    return RangeForest(np.concatenate(src), np.concatenate(dst), rounds, np.concatenate(occ))


def range_broadcast(st, starts: np.ndarray, lengths: np.ndarray) -> None:
    """Broadcast within each of several disjoint position ranges (Lemma 13).

    ``starts[i]``/``lengths[i]`` give range ``[starts[i], starts[i] +
    lengths[i])``; the payload is whatever the caller tracks — the machine
    charges one word per tree edge. Ranges are processed concurrently: the
    whole :func:`range_forest` is charged as one multi-round batch.
    """
    forest = range_forest(starts, lengths)
    if len(forest.src):
        st.machine.send_batch(forest.src, forest.dst, rounds=forest.rounds)
