"""Batched implementations of the §III local-messaging kernels.

The scalar kernels in :mod:`repro.spatial.local_messaging` loop over child
ranks (direct mode) or relay rounds × sibling slots (virtual mode), paying
one :meth:`SpatialMachine.send` — validation, clock sort, event — per round.
This module replays *exactly the same message rounds* through one
:meth:`SpatialMachine.send_batch` call per operation, with the per-round
edge lists precomputed once per tree and cached:

* :func:`direct_plan` — all (parent, child) edges sorted by (child rank,
  parent), with CSR round offsets; round ``k`` is the scalar path's rank-
  ``k`` group, parents ascending, children in stored-position order.
* :func:`virtual_bcast_plan` / :func:`virtual_reduce_plan` — the virtual
  schedule's current + appended rounds concatenated in the scalar replay
  order (broadcast: current, then appended rounds by ascending relay depth;
  reduce: appended rounds descending, each split slot 0 before slot 1, then
  the current round's two slots).

Because the batch is segmented into the same dependency rounds the scalar
path would have charged, the ledger totals, depth clocks and step counts
are identical under both engines — the differential suite in
``tests/test_engine_equivalence.py`` pins this. The only observable
difference is event granularity (one aggregated event per operation) and
that batched virtual reduce sends carry no payload (the scalar path's
payloads are evolving partial folds; accounting never depends on them).

These functions assume the caller resolved mode/engine; the public kernels
in :mod:`repro.spatial.local_messaging` dispatch here when the machine runs
``engine="batched"``. The treefix contraction uses the plans under both
engines: it records :func:`family_edges` selections once per schedule and
replays them over the :class:`FamilyPlan` views of :func:`family_plans`
(``send_plan`` falls back to the per-round reference under ``"scalar"``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.spatial.context import SpatialTree
    from repro.spatial.local_messaging import Op


def _family_index(
    key: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict]:
    """Group plan-edge positions by family key: ``(order, offsets, key,
    memo)`` CSR. ``memo`` is a one-slot cache for :func:`_select_family`."""
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=n)
    foffs = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    return order, foffs, key, {}


def family_edges(
    findex: tuple[np.ndarray, np.ndarray, np.ndarray, dict], families: np.ndarray
) -> np.ndarray | None:
    """Positions of the active families' plan edges, ascending, without
    sending them — ``None`` when every plan edge is active.

    Equivalent to ``np.flatnonzero(families[key])`` but costs O(active
    edges) instead of O(plan edges) on a sparse frontier: the contraction's
    active-family sets shrink geometrically, so the work tracks the live
    frontier rather than the whole tree. Treefix compiles its rounds from
    these positions once and replays them on every call.
    """
    forder, foffs, key, _ = findex
    active = np.flatnonzero(families)
    starts = foffs[active]
    cnts = foffs[active + 1] - starts
    k = int(cnts.sum())
    if k == len(key):
        return None
    if 4 * k >= len(key):
        # dense frontier: one boolean pass over the plan beats gathering
        # and re-sorting edge positions per family
        return np.flatnonzero(families[key])
    csum = np.concatenate([[0], np.cumsum(cnts)])
    idx = forder[np.arange(k, dtype=np.int64) + np.repeat(starts - csum[:-1], cnts)]
    idx.sort()
    return idx


def _select_family(
    findex: tuple[np.ndarray, np.ndarray, np.ndarray, dict],
    families: np.ndarray,
    offs: np.ndarray,
    *arrays: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Edges of the active families only, in plan order, with new offsets.

    Selects through :func:`family_edges`. Consecutive calls against the
    *same* mask object (the expression contraction probes several
    reductions per family set) hit a one-slot memo instead of re-selecting.
    """
    memo = findex[3]
    if memo.get("mask") is families:
        hit: tuple[np.ndarray, ...] = memo["result"]
        return hit
    idx = family_edges(findex, families)
    if idx is None:
        result = (offs, *arrays)
    else:
        result = (np.searchsorted(idx, offs), *tuple(a[idx] for a in arrays))
    memo["mask"] = families
    memo["result"] = result
    return result


# --------------------------------------------------------------------- #
# direct mode
# --------------------------------------------------------------------- #


def direct_plan(
    st: SpatialTree,
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple
]:
    """``(parents, children, parent_procs, child_procs, distances,
    round_offsets, family_index)`` for direct rounds.

    Edges are sorted by (child rank within parent, parent id), children in
    stored-position order within each parent — the exact round structure of
    the scalar path's ``_children_by_rank`` groups. Processor endpoints and
    per-edge Manhattan distances (symmetric, so they serve both broadcast
    and reduce) are pre-gathered for the trusted
    :meth:`~repro.machine.SpatialMachine.send_plan` replay. Cached on the
    tree.
    """
    cache = getattr(st, "_direct_plan", None)
    st.machine.plan_cache.count("batched_direct", hit=cache is not None)
    if cache is not None:
        return cache
    wp = st.machine.wall_profiler
    t0 = wp.clock() if wp is not None else 0
    offsets, targets = st.tree.children_csr()
    m = len(targets)
    if m == 0:
        empty = np.empty(0, dtype=np.int64)
        plan = (
            empty,
            empty,
            empty,
            empty,
            empty,
            np.zeros(1, dtype=np.int64),
            _family_index(empty, st.tree.n),
        )
        st._direct_plan = plan
        return plan
    counts = np.diff(offsets)
    par = np.repeat(np.arange(st.tree.n, dtype=np.int64), counts)
    pos = st.layout.position
    # par is already sorted, so this orders children by position per parent
    order = np.lexsort((pos[targets], par))
    chi = targets[order].astype(np.int64, copy=False)
    rank = np.arange(m, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    by_rank = np.argsort(rank, kind="stable")  # within a rank: parents ascending
    par_r = par[by_rank]
    chi_r = chi[by_rank]
    rank_r = rank[by_rank]
    offs = np.searchsorted(rank_r, np.arange(int(rank_r[-1]) + 2, dtype=np.int64))
    ppar = st.proc[par_r]
    pchi = st.proc[chi_r]
    pd = st.machine.manhattan(ppar, pchi)
    plan = (par_r, chi_r, ppar, pchi, pd, offs, _family_index(par_r, st.tree.n))
    st._direct_plan = plan
    if wp is not None:
        wp.rec("plan_build.direct", wp.clock() - t0, messages=m)
        wp.alloc("plan.direct", sum(a.nbytes for a in plan[:6]))
    return plan


def direct_broadcast(
    st: SpatialTree, values: np.ndarray, families: np.ndarray | None
) -> np.ndarray:
    par, chi, ppar, pchi, pd, offs, findex = direct_plan(st)
    received = values.copy()
    if families is not None and len(par):
        offs, par, chi, ppar, pchi, pd = _select_family(
            findex, families, offs, par, chi, ppar, pchi, pd
        )
    if len(par) == 0:
        return received
    sent = values[par]
    st.machine.send_plan(ppar, pchi, sent, rounds=offs, dist=pd, exclusive=True)
    received[chi] = sent
    return received


def direct_reduce(
    st: SpatialTree,
    values: np.ndarray,
    op: Op,
    identity,
    contribute: np.ndarray | None,
    families: np.ndarray | None,
) -> np.ndarray:
    par, chi, ppar, pchi, pd, offs, findex = direct_plan(st)
    acc = np.full_like(np.asarray(values), identity)
    msg = values if contribute is None else np.where(contribute, values, identity)
    if families is not None and len(par):
        offs, par, chi, ppar, pchi, pd = _select_family(
            findex, families, offs, par, chi, ppar, pchi, pd
        )
    if len(par) == 0:
        return acc
    st.machine.send_plan(pchi, ppar, msg[chi], rounds=offs, dist=pd, exclusive=True)
    for r in range(len(offs) - 1):
        a, b = int(offs[r]), int(offs[r + 1])
        if b <= a:
            continue
        p = par[a:b]
        acc[p] = op(acc[p], msg[chi[a:b]])
    return acc


# --------------------------------------------------------------------- #
# virtual mode
# --------------------------------------------------------------------- #


def virtual_bcast_plan(
    st: SpatialTree,
) -> tuple[
    np.ndarray,
    np.ndarray,
    np.ndarray,
    np.ndarray,
    np.ndarray,
    np.ndarray,
    np.ndarray,
    tuple,
]:
    """``(children, family, sender_procs, child_procs, distances,
    sender_occurrence, round_offsets, family_index)`` for virtual broadcast.

    Round order matches the scalar path: the current-children round first,
    then the appended rounds by ascending relay depth. ``family[i]`` is the
    original-tree parent whose value child ``i`` receives (for current
    children that *is* the sender), so the delivered value is uniformly
    ``values[family]`` and the family mask is uniformly ``families[family]``.

    ``sender_occurrence[i]`` is edge ``i``'s sender's occurrence index
    within its round (0 or 1 — a virtual node relays to at most two
    targets per round, and receivers are distinct), the static hint that
    lets the clock kernel skip its per-round multiplicity probes. Both of
    a sender's same-round edges serve the *same* family (relay trees are
    per-family, and for current children the family is the sender itself),
    so :func:`_select_family` keeps or drops them together and the indices
    survive family filtering.
    """
    cache = getattr(st, "_virtual_bcast_plan", None)
    st.machine.plan_cache.count("batched_virtual_bcast", hit=cache is not None)
    if cache is not None:
        return cache
    wp = st.machine.wall_profiler
    t0 = wp.clock() if wp is not None else 0
    sched = st.virtual_schedule
    rounds = [sched.cur_edges] + [e for e in sched.app_rounds]
    rounds = [e for e in rounds if len(e)]
    if not rounds:
        empty = np.empty(0, dtype=np.int64)
        plan = (
            empty,
            empty,
            empty,
            empty,
            empty,
            empty,
            np.zeros(1, dtype=np.int64),
            _family_index(empty, st.n),
        )
    else:
        src = np.concatenate([e[:, 0] for e in rounds])
        chi = np.concatenate([e[:, 1] for e in rounds])
        sizes = np.array([len(e) for e in rounds], dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(sizes)])
        fam = sched.family[chi]
        psrc = st.proc[src]
        pchi = st.proc[chi]
        pd = st.machine.manhattan(psrc, pchi)
        # per-round sender occurrence index: second-of-pair edges get 1
        rid = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        pair = rid * np.int64(st.n) + src
        order = np.argsort(pair, kind="stable")
        sorted_pair = pair[order]
        occ = np.zeros(len(src), dtype=np.int64)
        occ[order[1:]] = sorted_pair[1:] == sorted_pair[:-1]
        plan = (chi, fam, psrc, pchi, pd, occ, offs, _family_index(fam, st.n))
    st._virtual_bcast_plan = plan
    if wp is not None:
        wp.rec("plan_build.virtual_bcast", wp.clock() - t0, messages=len(plan[0]))
        wp.alloc("plan.virtual_bcast", sum(a.nbytes for a in plan[:7]))
    return plan


def virtual_broadcast(
    st: SpatialTree, values: np.ndarray, families: np.ndarray | None
) -> np.ndarray:
    chi, fam, psrc, pchi, pd, occ, offs, findex = virtual_bcast_plan(st)
    received = values.copy()
    if families is not None and len(chi):
        offs, chi, fam, psrc, pchi, pd, occ = _select_family(
            findex, families, offs, chi, fam, psrc, pchi, pd, occ
        )
    if len(chi) == 0:
        return received
    sent = values[fam]
    st.machine.send_plan(psrc, pchi, sent, rounds=offs, dist=pd, src_occ=occ)
    received[chi] = sent
    return received


def virtual_reduce_plan(
    st: SpatialTree,
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int, tuple
]:
    """``(parents, children, parent_procs, child_procs, distances,
    round_offsets, n_app_rounds, family_index)`` for virtual reduce.

    Scalar replay order: appended rounds by *descending* relay depth, each
    split into slot-0 then slot-1 segments (sibling order for
    non-commutative operators), then the current round's two slots. The
    first ``n_app_rounds`` segments fold into the per-vertex interval
    accumulator; the rest fold into the final result.
    """
    cache = getattr(st, "_virtual_reduce_plan", None)
    st.machine.plan_cache.count("batched_virtual_reduce", hit=cache is not None)
    if cache is not None:
        return cache
    wp = st.machine.wall_profiler
    t0 = wp.clock() if wp is not None else 0
    sched = st.virtual_schedule
    vt = sched.vt

    def slot_of(edges: np.ndarray, table: np.ndarray) -> np.ndarray:
        return np.where(table[edges[:, 0], 0] == edges[:, 1], 0, 1)

    segs: list[np.ndarray] = []
    n_app = 0
    for edges in reversed(sched.app_rounds):
        if len(edges) == 0:
            continue
        slots = slot_of(edges, vt.app)
        for s in (0, 1):
            seg = edges[slots == s]
            if len(seg):
                segs.append(seg)
                n_app += 1
    cur = sched.cur_edges
    if len(cur):
        slots = slot_of(cur, vt.cur)
        for s in (0, 1):
            seg = cur[slots == s]
            if len(seg):
                segs.append(seg)
    if not segs:
        empty = np.empty(0, dtype=np.int64)
        plan = (
            empty,
            empty,
            empty,
            empty,
            empty,
            np.zeros(1, dtype=np.int64),
            0,
            _family_index(empty, st.n),
        )
    else:
        par = np.concatenate([e[:, 0] for e in segs])
        chi = np.concatenate([e[:, 1] for e in segs])
        sizes = np.array([len(e) for e in segs], dtype=np.int64)
        offs = np.concatenate([[0], np.cumsum(sizes)])
        fam = sched.family[chi]
        ppar = st.proc[par]
        pchi = st.proc[chi]
        pd = st.machine.manhattan(pchi, ppar)
        plan = (par, chi, ppar, pchi, pd, offs, n_app, _family_index(fam, st.n))
    st._virtual_reduce_plan = plan
    if wp is not None:
        wp.rec("plan_build.virtual_reduce", wp.clock() - t0, messages=len(plan[0]))
        wp.alloc("plan.virtual_reduce", sum(a.nbytes for a in plan[:6]))
    return plan


def virtual_reduce(
    st: SpatialTree,
    values: np.ndarray,
    op: Op,
    identity,
    contribute: np.ndarray | None,
    families: np.ndarray | None,
) -> np.ndarray:
    par, chi, ppar, pchi, pd, offs, n_app, findex = virtual_reduce_plan(st)
    # the interval accumulator starts as the (masked) contribution vector
    acc_iv = (
        np.array(values, copy=True)
        if contribute is None
        else np.where(contribute, values, identity)
    )
    result = np.full_like(np.asarray(values), identity)
    if families is not None and len(par):
        offs, par, chi, ppar, pchi, pd = _select_family(
            findex, families, offs, par, chi, ppar, pchi, pd
        )
    if len(par) == 0:
        return result
    # all sends charged up front in replay order (accounting is independent
    # of the payload, which the scalar path evolves between rounds)
    st.machine.send_plan(pchi, ppar, None, rounds=offs, dist=pd, exclusive=True)
    for r in range(len(offs) - 1):
        a, b = int(offs[r]), int(offs[r + 1])
        if b <= a:
            continue
        p, c = par[a:b], chi[a:b]
        target = acc_iv if r < n_app else result
        target[p] = op(target[p], acc_iv[c])
    return result


# --------------------------------------------------------------------- #
# mode-independent views
# --------------------------------------------------------------------- #


class FamilyPlan(NamedTuple):
    """One cached per-tree plan in send order, with the same field names in
    both modes: what a caller replaying recorded selections
    (:func:`family_edges` positions) needs to send and fold."""

    src: np.ndarray  # sender processor of each edge
    dst: np.ndarray
    dist: np.ndarray  # pre-gathered distances
    occ: np.ndarray | None  # sender occurrence hint (virtual broadcast)
    key: np.ndarray  # family (original parent) of each edge
    par: np.ndarray  # reduce: the vertex an edge folds into
    chi: np.ndarray  # the vertex an edge delivers to / whose message it folds
    offs: np.ndarray  # round offsets
    n_app: int  # leading reduce segments that fold into relay accumulators
    findex: tuple
    carry: bool  # reduce sends carry their messages (virtual ones send none)


def family_plans(st: SpatialTree) -> tuple[FamilyPlan, FamilyPlan]:
    """``(broadcast, reduce)`` views of the tree's cached plans for its mode."""
    if st.mode == "direct":
        par, chi, ppar, pchi, pd, offs, findex = direct_plan(st)
        return (
            FamilyPlan(ppar, pchi, pd, None, par, par, chi, offs, 0, findex, True),
            FamilyPlan(pchi, ppar, pd, None, par, par, chi, offs, 0, findex, True),
        )
    chi, fam, psrc, pchi, pd, occ, offs, findex = virtual_bcast_plan(st)
    bcast = FamilyPlan(psrc, pchi, pd, occ, fam, fam, chi, offs, 0, findex, True)
    par, chi, ppar, pchi, pd, offs, n_app, findex = virtual_reduce_plan(st)
    reduce = FamilyPlan(pchi, ppar, pd, None, findex[2], par, chi, offs, n_app, findex, False)
    return bcast, reduce
