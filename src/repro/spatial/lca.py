"""Batched lowest common ancestors (paper §VI-C, Theorem 6).

Answers a batch of ``LCA(u, v)`` queries in **O(n log n) energy and
O(log² n) depth** w.h.p., entirely with local messaging primitives:

1. A treefix sum gives every vertex its subtree's contiguous position
   range ``r(v)``; ancestor–descendant queries are answered immediately
   (``LCA(u,v) = u`` iff ``pos(v) ∈ r(u)``).
2. Every vertex local-broadcasts its range to its children.
3. A top-down treefix computes the heavy-light layer of every vertex.
4. For each layer in increasing order: every cover subtree ``S`` (rooted
   at a path head ``x``, with parent ``w``) broadcasts ``(w, r(w)\\r(x))``
   within its position range (Lemma 13); an endpoint in ``S`` whose partner
   lies in ``r(w)\\r(x)`` answers ``w``. A barrier (all-reduce) separates
   layers; each layer's broadcast and barrier are charged as one plan.

The ranges, the cover and step 4's message schedule depend only on the
tree: :func:`prepare_lca` computes all three once, and every
:func:`lca_batch` replays the schedule.

Correctness is Corollary 3: if ``w = LCA(u,v) ∉ {u,v}``, exactly one of
the two children of ``w`` on the ``u``/``v`` sides is a path head, so
exactly one cover subtree sees exactly one endpoint, and only that layer
answers the query.

Query placement model: a query is stored at both endpoints (each endpoint
knows the other's position); each vertex should appear in O(1) queries for
the stated bounds (the paper splits hot vertices into paths — callers with
hot batches can do the same).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.contracts import cost_contract
from repro.errors import ValidationError
from repro.machine.collectives import barrier, barrier_after
from repro.spatial.subtree_cover import (
    RangeForest,
    SpatialCover,
    SpatialRanges,
    build_cover,
    compute_ranges,
    range_forest,
)
from repro.utils import as_index_array, check_in_range


@dataclass(frozen=True)
class LayerSweep:
    """One cover layer's compiled step-4 sweep.

    ``heads`` are the layer's non-root path heads sorted by position, the
    lookup table the answer step searches; ``forest`` is the Lemma 13
    broadcast within their subtrees' ranges (see :class:`RangeForest`).
    """

    heads: np.ndarray
    forest: RangeForest


@dataclass(frozen=True)
class PreparedLCA:
    """Query-independent LCA state: ranges, cover and the compiled sweep.

    All three are pure functions of the tree and its layout — no query
    touches them — so a long-lived caller (the serving loop) computes them
    once, pays the ``lca_ranges``/``lca_cover`` energy once, and answers
    every later batch with only the per-layer sweeps. ``layers`` holds one
    :class:`LayerSweep` per cover layer, so a batch rebuilds nothing: each
    layer is one trusted ``send_plan`` of its forest followed by the
    barrier's rounds, memoized per machine (:func:`_layer_plan`). The sweep
    stores processor ids only, never distances, so a :class:`PreparedLCA`
    reused on another machine with the same layout charges that machine's
    own distances.
    """

    ranges: SpatialRanges
    cover: SpatialCover
    layers: tuple[LayerSweep, ...]


def _compile_sweep(st, ranges: SpatialRanges, cover: SpatialCover) -> tuple[LayerSweep, ...]:
    """Step 4's per-layer heads and broadcast forests (local work, no charge)."""
    heads = np.flatnonzero(cover.is_head & (st.tree.parents >= 0))
    heads = heads[np.argsort(ranges.lo[heads])]
    layer = cover.layer[heads]
    sweeps = []
    for layer_i in range(cover.num_layers):
        h = heads[layer == layer_i]
        lo = ranges.lo[h]
        sweeps.append(LayerSweep(h, range_forest(lo, ranges.hi[h] - lo + 1)))
    return tuple(sweeps)


def prepare_lca(st, *, seed=None) -> PreparedLCA:
    """Precompute the reusable (query-independent) part of :func:`lca_batch`.

    Charges the ``lca_ranges`` and ``lca_cover`` phases on ``st``'s
    machine exactly as a cold :func:`lca_batch` call would, then compiles
    the layer sweep; pass the result back via ``prepared=`` to amortize
    all of it across batches.
    """
    with st.machine.phase("lca_ranges"):
        ranges = compute_ranges(st, seed=seed)
    with st.machine.phase("lca_cover"):
        cover = build_cover(st, ranges, seed=seed)
    return PreparedLCA(ranges=ranges, cover=cover, layers=_compile_sweep(st, ranges, cover))


@cost_contract(energy="lca_energy", depth="lca_depth", plan_safe=True)
def lca_batch(st, us, vs, *, seed=None, return_cover: bool = False,
              prepared: PreparedLCA | None = None):
    """Answer ``LCA(us[i], vs[i])`` for all i on the machine.

    Returns the answers as vertex ids (and the :class:`SpatialCover` when
    ``return_cover`` is set, for the benchmarks' layer statistics).
    ``prepared`` reuses a :func:`prepare_lca` precomputation, skipping the
    ranges/cover phases — the warm-serving path; omitted, the call runs
    :func:`prepare_lca` itself. Either way the sweep replays the compiled
    layers: per layer, one barrier, preceded within the same ``send_plan``
    by the layer's broadcast forest when it has one.
    """
    us = as_index_array(us, name="us")
    vs = as_index_array(vs, name="vs")
    if us.shape != vs.shape:
        raise ValidationError("us and vs must have the same shape")
    check_in_range(us, 0, st.n, name="us")
    check_in_range(vs, 0, st.n, name="vs")
    # a sweep compiled for this call alone is never replayed again, so
    # only a caller's prepared sweep memoizes its layer plans
    memo = prepared is not None
    if prepared is None:
        prepared = prepare_lca(st, seed=seed)
    ranges = prepared.ranges
    machine = st.machine
    pos = st.layout.position
    parents = st.tree.parents
    answers = np.full(len(us), -1, dtype=np.int64)

    # ---- step 1: ancestor-descendant queries are answered locally -------
    u_anc = ranges.contains(us, pos[vs])
    answers[u_anc] = us[u_anc]
    v_anc = ranges.contains(vs, pos[us]) & ~u_anc
    answers[v_anc] = vs[v_anc]

    # ---- step 4: layer sweeps over the subtree cover --------------------
    open_q = np.flatnonzero(answers < 0)
    with machine.phase("lca_layers"):
        for sweep in prepared.layers:
            if len(sweep.forest.src):
                src, dst, dist, rounds, occ, lift = _layer_plan(machine, sweep.forest, memo)
                machine.send_plan(src, dst, rounds=rounds, dist=dist, src_occ=occ, lift=lift)
            else:
                barrier(machine)
            if len(sweep.heads):
                # resolve queries with exactly one endpoint inside a head's
                # subtree whose partner falls in r(w) \ r(x)
                open_q = _answer_layer(
                    answers, open_q, us, vs, sweep.heads, ranges, pos, parents
                )

    if (answers < 0).any():  # pragma: no cover - Corollary 3 guarantees coverage
        raise ValidationError("internal: some queries were left unanswered")
    if return_cover:
        return answers, prepared.cover
    return answers


def _layer_plan(machine, forest: RangeForest, memo: bool) -> tuple[np.ndarray, ...]:
    """One cover layer's forest and barrier as one plan that ends level.

    ``(src, dst, dist, rounds, occ, lift)`` from
    :func:`~repro.machine.collectives.barrier_after`. With ``memo`` it is
    stored in the machine's plan cache under ``("lca_layer", id(forest))``;
    the entry holds the forest itself, so that id cannot name another
    forest while the entry lives.
    """
    key = ("lca_layer", id(forest))
    entry = machine.plan_cache.lookup(key) if memo else None
    if entry is None:
        entry = (forest, *barrier_after(machine, forest.src, forest.dst, forest.rounds, forest.occ))
        if memo:
            machine.plan_cache[key] = entry
    return entry[1:]


def _answer_layer(answers, open_q, us, vs, heads, ranges, pos, parents) -> np.ndarray:
    """Resolve the still-open queries this layer's broadcast answers.

    Each head subtree is a contiguous position range, and heads of one
    layer are disjoint, so 'which head contains this endpoint' is a single
    sorted lookup into ``heads`` (sorted by position). The checks
    themselves are local computations at the endpoint that received the
    broadcast.
    """
    if len(open_q) == 0:
        return open_q
    lo_sorted = ranges.lo[heads]
    hi_sorted = ranges.hi[heads]

    def head_containing(positions: np.ndarray) -> np.ndarray:
        idx = np.searchsorted(lo_sorted, positions, side="right") - 1
        ok = (idx >= 0) & (positions <= hi_sorted[np.clip(idx, 0, None)])
        out = np.where(ok, heads[np.clip(idx, 0, None)], -1)
        return out

    for ends, partners in ((us, vs), (vs, us)):
        e = ends[open_q]
        p = partners[open_q]
        x = head_containing(pos[e])
        inside = x >= 0
        if not inside.any():
            continue
        w = np.where(inside, parents[np.clip(x, 0, None)], -1)
        p_pos = pos[p]
        in_w = inside & (p_pos >= ranges.lo[np.clip(w, 0, None)]) & (
            p_pos <= ranges.hi[np.clip(w, 0, None)]
        )
        in_x = (p_pos >= ranges.lo[np.clip(x, 0, None)]) & (
            p_pos <= ranges.hi[np.clip(x, 0, None)]
        )
        hit = in_w & ~in_x
        answers[open_q[hit]] = w[hit]
    return np.flatnonzero(answers < 0)
