"""Spatial light-first layout creation (paper §IV, Theorem 4).

Input: a tree resident on the machine in an *arbitrary* placement.
Output: the tree in light-first order along the machine's curve, plus the
measured cost of getting there. The pipeline is the paper's, step by step:

1. Euler tour of the tree (arbitrary child order) as a linked list of the
   ``2(n-1)`` directed edges — both copies of an edge live at the child's
   processor (O(1) words each) — ranked by random-mate list ranking
   (:mod:`repro.spatial.list_ranking`).
2. Subtree sizes from the tour: ``s(v) = (rank(up_v) − rank(down_v) + 1)/2``
   — a local computation at each child's processor.
3. Children re-ordered by increasing subtree size. Keys ``(parent, s(c),
   c)`` are packed into one integer and sorted with the machine's bitonic
   sort (the Θ(n^{3/2}) budget item); the children, in sorted order, are
   the sorted keys' low digits. Each record's new neighbours are announced
   back to the children, which rebuilds the tour's successor pointers in
   light-first child order.
4. The light-first tour is ranked again; the first occurrence of each
   vertex (its down-edge rank, counted among down-edges via a parallel
   prefix sum over the tour order) is its light-first position.
5. A single global permutation moves every vertex to its position
   (Θ(n^{3/2}), matching the permutation lower bound).

Measured total: O(n^{3/2}) energy, O(log n) depth w.h.p. — Theorem 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.contracts import cost_contract
from repro.errors import ValidationError
from repro.layout.embedding import TreeLayout
from repro.layout.orders import is_light_first
from repro.machine.collectives import exclusive_scan
from repro.machine.machine import SpatialMachine
from repro.machine.routing import bitonic_sort, permute
from repro.spatial.list_ranking import list_rank
from repro.trees.tree import Tree
from repro.utils import as_index_array


@dataclass(frozen=True)
class LayoutCreationResult:
    """Outcome of the §IV pipeline: the layout plus its measured price."""

    layout: TreeLayout
    energy: int
    depth: int
    messages: int
    phases: dict
    list_rank_rounds: tuple[int, int]
    #: number of charged bulk sends (engine-invariant, like the totals)
    steps: int = 0
    #: the machine the pipeline ran on (clocks, ledger, instruments)
    machine: SpatialMachine | None = field(default=None, repr=False, compare=False)


def _euler_succ(tree: Tree, child_sort_key: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Successor pointers of the Euler-tour edge list (fully vectorized).

    Element ids: ``down(v) = v - 1``-style compaction is avoided for
    clarity — element ``2e`` is the down-edge to child ``kids[e]`` and
    ``2e + 1`` its up-edge, where ``e`` enumerates non-root vertices.
    Returns (succ, child_of_element).
    """
    n = tree.n
    parents = tree.parents
    # element numbering: for non-root v with index j in `order_nonroot`,
    # down-edge = 2j, up-edge = 2j + 1
    nonroot = np.flatnonzero(parents >= 0)
    e = np.full(n, -1, dtype=np.int64)
    e[nonroot] = np.arange(len(nonroot))
    succ = np.full(2 * len(nonroot), -1, dtype=np.int64)
    owner = np.repeat(nonroot, 2)  # child endpoint (hosting vertex)
    # children grouped by parent (csr order = ascending child id); an
    # optional stable within-group sort by key keeps id order on ties
    offsets, kids = tree.children_csr()
    gpar = parents[kids]
    if child_sort_key is not None:
        perm = np.lexsort((child_sort_key[kids], gpar))
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


@cost_contract(energy="layout_creation_energy", depth="layout_creation_depth", plan_safe=False)
def create_light_first_layout(
    tree: Tree,
    *,
    curve="hilbert",
    initial_positions=None,
    seed=None,
    engine="scalar",
    machine=None,
) -> LayoutCreationResult:
    """Run the §IV pipeline and return the light-first layout with costs.

    ``initial_positions`` is the arbitrary starting placement (vertex →
    processor), defaulting to the identity. The returned layout is verified
    to satisfy the §III-A light-first definition. ``engine`` selects the
    machine's messaging engine; both produce identical layouts and
    identical energy/depth/message/step accounting (both charge the
    child-sort phase from a cached sort-network plan and run the remaining
    phases through ``send_batch``).

    ``machine`` optionally reuses a same-size machine from a previous run:
    costs are reset but its plan cache (notably the bitonic sort network)
    survives, so repeated same-size pipelines skip network construction.
    The machine's own curve and engine take precedence over the ``curve``
    and ``engine`` arguments.
    """
    n = tree.n
    if machine is None:
        machine = SpatialMachine(n, curve=curve, engine=engine)
    else:
        if machine.n != n:
            raise ValidationError(
                f"reused machine has {machine.n} processors, tree has {n}"
            )
        machine.reset_costs()
    curve = machine.curve  # single source of truth for the layout geometry
    if initial_positions is None:
        initial_positions = np.arange(n, dtype=np.int64)
    else:
        initial_positions = as_index_array(initial_positions, name="initial_positions")
        if not np.array_equal(np.sort(initial_positions), np.arange(n)):
            raise ValidationError("initial_positions must be a permutation of 0..n-1")

    if n == 1:
        layout = TreeLayout.build(tree, order="light_first", curve=curve)
        return LayoutCreationResult(layout, 0, 0, 0, {}, (0, 0), 0, machine)

    proc = initial_positions  # vertex -> processor during the pipeline

    # ---- step 1: Euler tour (arbitrary child order) + list ranking ------
    succ1, owner1 = _euler_succ(tree, None)
    with machine.phase("euler_tour_1"):
        res1 = list_rank(machine, succ1, elem_proc=proc[owner1], seed=seed)
    ranks1 = res1.ranks  # suffix ranks; head rank = (2n-2) - rank... see below

    # head-based 0-based index of each element in the tour
    total = 2 * (n - 1)
    idx1 = total - ranks1

    # ---- step 2: subtree sizes (local at each child's processor) --------
    nonroot = np.flatnonzero(tree.parents >= 0)
    sizes = np.full(n, 0, dtype=np.int64)
    down_idx = idx1[0::2]
    up_idx = idx1[1::2]
    sizes[nonroot] = (up_idx - down_idx + 1) // 2
    sizes[tree.root] = n

    # ---- step 3: children sorted by subtree size (bitonic sort) ---------
    # one down-edge record per non-root vertex, hosted at the child; keys
    # (parent, size, child) packed into one integer for the sorter
    with machine.phase("child_sort"):
        # pack (parent, size, child) lexicographically into one sortable key
        key = (tree.parents[nonroot] * n + (sizes[nonroot] - 1)) * n + nonroot
        keys_full = np.full(machine.n, np.iinfo(np.int64).max, dtype=np.int64)
        keys_full[proc[nonroot]] = key
        sorted_keys, _ = bitonic_sort(machine, keys_full)
        # after the sort, record j sits at processor j and names its child
        # in the key's low digit; each record tells its left neighbour who
        # it is (defining next-sibling links), then every record carries
        # its link home to the child's processor
        sorted_children = sorted_keys[: n - 1] % n
        if n > 2:
            machine.send_batch(
                np.arange(1, n - 1, dtype=np.int64),
                np.arange(0, n - 2, dtype=np.int64),
            )
        machine.send_batch(
            np.arange(len(sorted_children), dtype=np.int64), proc[sorted_children]
        )

    # ---- step 4: light-first Euler tour + ranking + compaction ----------
    succ2, owner2 = _euler_succ(tree, sizes)
    with machine.phase("euler_tour_2"):
        res2 = list_rank(machine, succ2, elem_proc=proc[owner2], seed=seed)
    idx2 = total - res2.ranks  # tour index of each element

    with machine.phase("compact"):
        # The paper: "drop all but the first occurrence using a parallel
        # prefix sum and compact". The 2(n-1) tour slots live two per
        # processor (slot t at processor t // 2): route every element's
        # first-occurrence flag to its slot, scan the per-processor pair
        # sums, fix up odd slots locally, and send each down-edge's prefix
        # (its light-first position) home.
        is_down = np.zeros(total, dtype=np.int64)
        is_down[0::2] = 1  # even element ids are down-edges
        slot_proc = idx2 // 2
        machine.send_batch(proc[owner2], slot_proc, is_down)
        flag_at_slot = np.zeros(total, dtype=np.int64)
        flag_at_slot[idx2] = is_down
        pair_sums = np.zeros(machine.n, dtype=np.int64)
        np.add.at(pair_sums, slot_proc, is_down)
        pair_prefix = exclusive_scan(machine, pair_sums)
        # exclusive prefix of slot t: pair_prefix[t//2] (+ left slot's flag
        # when t is odd — a local add on the same processor)
        slot_prefix = pair_prefix[np.arange(total) // 2]
        odd = np.arange(total) % 2 == 1
        slot_prefix[odd] += flag_at_slot[np.flatnonzero(odd) - 1]
        down_elem_ids = 2 * np.arange(n - 1)
        down_slots = idx2[down_elem_ids]
        machine.send_batch(down_slots // 2, proc[owner2[down_elem_ids]])
        position = np.empty(n, dtype=np.int64)
        # the root occupies position 0; each child's position is one past
        # the number of earlier first occurrences
        position[nonroot] = slot_prefix[down_slots] + 1
        position[tree.root] = 0

    # ---- step 5: global permutation to the final placement --------------
    with machine.phase("permute"):
        dest = np.empty(machine.n, dtype=np.int64)
        dest[:] = np.arange(machine.n)
        dest[proc] = position
        permute(machine, np.arange(machine.n), dest)

    order = np.empty(n, dtype=np.int64)
    order[position] = np.arange(n)
    layout = TreeLayout.build(tree, order=order, curve=curve)
    if not is_light_first(tree, layout.order):
        raise ValidationError("internal: pipeline produced a non-light-first order")
    return LayoutCreationResult(
        layout=layout,
        energy=machine.energy,
        depth=machine.depth,
        messages=machine.messages,
        phases=machine.ledger.summary(),
        list_rank_rounds=(res1.rounds, res2.rounds),
        steps=machine.steps,
        machine=machine,
    )
