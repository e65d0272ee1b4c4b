"""Local messaging kernels (paper §III, §III-D).

Two restricted tree communication patterns, each in two execution modes:

* **local broadcast** — every vertex's value is delivered to each of its
  children (the same value to all of them);
* **local reduce** — every vertex receives the reduction (any associative
  operator) of its children's messages.

Modes:

* ``direct`` — parent and child processors exchange messages directly.
  Energy O(n) on an energy-bound layout (Theorem 1), but a degree-Δ vertex
  serializes Θ(Δ) messages, so depth is Θ(Δ).
* ``virtual`` — messages are relayed over the §III-D virtual tree ``T̂``
  (degree ≤ 4): O(n) energy and O(log n) depth for any degree (Theorem 3).

One kernel pair serves every caller. A mode's message rounds depend only
on the tree and its layout, so they are built once per tree into cached
plans (:class:`FamilyPlan`, :func:`family_plans`): the messages in send
order, with round offsets and pre-gathered distances.
:func:`plan_broadcast` and :func:`plan_reduce` charge a plan, or a
:func:`family_edges` selection of it, through
:meth:`~repro.machine.SpatialMachine.send_plan` and fold the payload on
the host. ``local_*``, the masked ``family_*`` variants, the treefix
replay (:mod:`repro.spatial.treefix`) and the expression contraction
(:mod:`repro.spatial.expression`) all call them. The engine choice lives
in the machine: under ``"scalar"`` ``send_plan`` replays one validated
``send`` per round, under ``"batched"`` one vectorized pass, with
identical ledger, clocks and steps. The per-round loops the plans encode
are kept as the reference oracle in ``tests/test_local_messaging.py``.

The ``family_*`` variants are what the tree-contraction algorithm of §V
needs: only a *subset* of vertices act as family parents in a given round,
children may be masked out of the reduction (inactive supervertices relay
but contribute the identity), and the reduction can carry several
components at once (e.g. partial sum + leaf count + non-leaf witness).

Reduction order: operands combine in sibling order (children by stored
position), so non-commutative associative operators are safe. Virtual
reduce sends carry no payload: their messages are evolving partial folds,
and accounting never depends on them.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from repro.contracts import cost_contract
from repro.errors import ValidationError

Op = Callable[[np.ndarray, np.ndarray], np.ndarray]


# --------------------------------------------------------------------- #
# cached per-tree plans
# --------------------------------------------------------------------- #


class FamilyPlan(NamedTuple):
    """One mode's cached per-tree messages in send order, with the same
    field names in both modes: what :func:`plan_broadcast` and
    :func:`plan_reduce` need to send and fold a :func:`family_edges`
    selection."""

    src: np.ndarray  # sender processor of each edge
    dst: np.ndarray
    dist: np.ndarray  # pre-gathered distances
    occ: np.ndarray | None  # sender occurrence hint (virtual broadcast)
    key: np.ndarray  # family (original parent) of each edge
    par: np.ndarray  # reduce: the vertex an edge folds into
    chi: np.ndarray  # the vertex an edge delivers to / whose message it folds
    offs: np.ndarray  # round offsets
    n_app: int  # leading reduce segments that fold into relay accumulators
    findex: tuple  # (order, offsets): the edge positions grouped by family
    carry: bool  # reduce sends carry their messages (virtual ones send none)


def _family_index(key: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Plan-edge positions grouped by family key: ``(order, offsets)`` CSR."""
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key, minlength=n)
    return order, np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])


def _segments(segs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(senders, receivers, round offsets)`` of non-empty ``(k, 2)`` edge
    rounds, concatenated in order."""
    edges = np.concatenate(segs) if segs else np.empty((0, 2), dtype=np.int64)
    src, dst = edges.T.copy()
    offs = np.concatenate([[0], np.cumsum([len(e) for e in segs], dtype=np.int64)])
    return src, dst, offs


def direct_plan(st) -> tuple[FamilyPlan, FamilyPlan]:
    """``(broadcast, reduce)`` plans of the direct rounds.

    Round ``k`` holds every parent's ``k``-th child in stored-position
    order, parents ascending; the reduce plan sends the same edges child →
    parent. Per-edge distances are symmetric, so both share them. Cached on
    the tree.
    """
    cache = getattr(st, "_direct_plan", None)
    st.machine.plan_cache.count("batched_direct", hit=cache is not None)
    if cache is not None:
        return cache
    offsets, targets = st.tree.children_csr()
    m = len(targets)
    counts = np.diff(offsets)
    par = np.repeat(np.arange(st.tree.n, dtype=np.int64), counts)
    pos = st.layout.position
    # par is already sorted, so this orders children by position per parent
    order = np.lexsort((pos[targets], par))
    chi = targets[order].astype(np.int64, copy=False)
    rank = np.arange(m, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    by_rank = np.argsort(rank, kind="stable")  # within a rank: parents ascending
    par, chi, rank = par[by_rank], chi[by_rank], rank[by_rank]
    offs = np.searchsorted(rank, np.arange(rank[-1] + 2 if m else 1, dtype=np.int64))
    ppar, pchi = st.proc[par], st.proc[chi]
    pd = st.machine.manhattan(ppar, pchi)
    findex = _family_index(par, st.tree.n)
    plan = (
        FamilyPlan(ppar, pchi, pd, None, par, par, chi, offs, 0, findex, True),
        FamilyPlan(pchi, ppar, pd, None, par, par, chi, offs, 0, findex, True),
    )
    st._direct_plan = plan
    return plan


def virtual_bcast_plan(st) -> FamilyPlan:
    """The virtual broadcast plan: the current-children round first, then
    the appended rounds by ascending relay depth.

    ``key[i]`` is the original-tree parent whose value child ``i`` receives
    (for current children that *is* the sender). ``occ[i]`` is edge ``i``'s
    sender's occurrence index within its round (0 or 1 — a virtual node
    relays to at most two targets per round, and receivers are distinct),
    the static hint that lets the clock kernel skip its per-round
    multiplicity probes. Both of a sender's same-round edges serve the
    *same* family, so a family selection keeps or drops them together and
    the indices survive it. Cached on the tree.
    """
    cache = getattr(st, "_virtual_bcast_plan", None)
    st.machine.plan_cache.count("batched_virtual_bcast", hit=cache is not None)
    if cache is not None:
        return cache
    sched = st.virtual_schedule
    rounds = [e for e in (sched.cur_edges, *sched.app_rounds) if len(e)]
    src, chi, offs = _segments(rounds)
    fam = sched.family[chi]
    psrc, pchi = st.proc[src], st.proc[chi]
    pd = st.machine.manhattan(psrc, pchi)
    # per-round sender occurrence index: second-of-pair edges get 1
    rid = np.repeat(np.arange(len(rounds), dtype=np.int64), np.diff(offs))
    pair = rid * np.int64(st.n) + src
    order = np.argsort(pair, kind="stable")
    sorted_pair = pair[order]
    occ = np.zeros(len(src), dtype=np.int64)
    occ[order[1:]] = sorted_pair[1:] == sorted_pair[:-1]
    plan = FamilyPlan(psrc, pchi, pd, occ, fam, fam, chi, offs, 0, _family_index(fam, st.n), True)
    st._virtual_bcast_plan = plan
    return plan


def virtual_reduce_plan(st) -> FamilyPlan:
    """The virtual reduce plan: appended rounds by *descending* relay depth,
    each split into slot-0 then slot-1 segments (sibling order for
    non-commutative operators), then the current round's two slots. The
    first ``n_app`` segments fold into the per-vertex interval
    accumulator; the rest fold into the result. Cached on the tree.
    """
    cache = getattr(st, "_virtual_reduce_plan", None)
    st.machine.plan_cache.count("batched_virtual_reduce", hit=cache is not None)
    if cache is not None:
        return cache
    sched = st.virtual_schedule
    vt = sched.vt

    def slot_segments(edges: np.ndarray, table: np.ndarray) -> list[np.ndarray]:
        # slot 0 = first appended/current child (earlier sibling interval)
        slot0 = table[edges[:, 0], 0] == edges[:, 1]
        return [seg for seg in (edges[slot0], edges[~slot0]) if len(seg)]

    segs = [seg for edges in reversed(sched.app_rounds) for seg in slot_segments(edges, vt.app)]
    n_app = len(segs)
    segs += slot_segments(sched.cur_edges, vt.cur)
    par, chi, offs = _segments(segs)
    fam = sched.family[chi]
    ppar, pchi = st.proc[par], st.proc[chi]
    pd = st.machine.manhattan(pchi, ppar)
    plan = FamilyPlan(pchi, ppar, pd, None, fam, par, chi, offs, n_app,
                      _family_index(fam, st.n), False)
    st._virtual_reduce_plan = plan
    return plan


def family_plans(st, mode: str) -> tuple[FamilyPlan, FamilyPlan]:
    """``(broadcast, reduce)`` plans of the tree in ``mode``."""
    if mode == "direct":
        return direct_plan(st)
    return virtual_bcast_plan(st), virtual_reduce_plan(st)


def broadcast_plan(st, mode: str) -> FamilyPlan:
    """The broadcast plan of the tree in ``mode``; a virtual tree's reduce
    plan is not built."""
    return direct_plan(st)[0] if mode == "direct" else virtual_bcast_plan(st)


def reduce_plan(st, mode: str) -> FamilyPlan:
    """The reduce plan of the tree in ``mode``; a virtual tree's broadcast
    plan is not built."""
    return direct_plan(st)[1] if mode == "direct" else virtual_reduce_plan(st)


def family_edges(plan: FamilyPlan, families: np.ndarray) -> np.ndarray | None:
    """Positions of the active families' plan edges, ascending, without
    sending them — ``None`` when every plan edge is active.

    Equivalent to ``np.flatnonzero(families[plan.key])`` but costs
    O(active edges) instead of O(plan edges) on a sparse frontier: the
    contraction's active-family sets shrink geometrically, so the work
    tracks the live frontier rather than the whole tree. Treefix compiles
    its rounds from these positions once and replays them on every call.
    """
    forder, foffs = plan.findex
    active = np.flatnonzero(families)
    starts = foffs[active]
    cnts = foffs[active + 1] - starts
    k = int(cnts.sum())
    if k == len(plan.key):
        return None
    if 4 * k >= len(plan.key):
        # dense frontier: one boolean pass over the plan beats gathering
        # and re-sorting edge positions per family
        return np.flatnonzero(families[plan.key])
    csum = np.concatenate([[0], np.cumsum(cnts)])
    idx = forder[np.arange(k, dtype=np.int64) + np.repeat(starts - csum[:-1], cnts)]
    idx.sort()
    return idx


# --------------------------------------------------------------------- #
# the kernels
# --------------------------------------------------------------------- #


def _selected(plan: FamilyPlan, sel: np.ndarray | None) -> tuple[slice | np.ndarray, np.ndarray]:
    """A selection as an index into the plan's arrays, and its round offsets."""
    if sel is None:
        return slice(None), plan.offs
    idx = sel.astype(np.intp, copy=False)
    return idx, np.searchsorted(idx, plan.offs)


def plan_broadcast(machine, plan: FamilyPlan, sel: np.ndarray | None, *values: np.ndarray,
                   out: np.ndarray | None = None) -> None:
    """Charge one family broadcast of each of ``values`` over ``sel``, a
    :func:`family_edges` selection of ``plan`` (``None``: every edge):
    every edge carries its family's entry. With ``out``, the last of
    ``values`` is also delivered: each selected edge's child gets its
    family's entry there."""
    idx, offs = _selected(plan, sel)
    key = plan.key[idx]
    if len(key) == 0:
        return
    src, dst, dist = plan.src[idx], plan.dst[idx], plan.dist[idx]
    occ = None if plan.occ is None else plan.occ[idx]
    for vals in values:
        sent = vals[key]
        machine.send_plan(src, dst, sent, rounds=offs, dist=dist,
                          exclusive=occ is None, src_occ=occ)
    if out is not None:
        out[plan.chi[idx]] = sent


def plan_reduce(machine, plan: FamilyPlan, sel: np.ndarray | None, msg: np.ndarray,
                more: Callable[[np.ndarray], tuple] | None = None, *, op: Op | None = None,
                identity=0, dtype=None) -> np.ndarray | None:
    """Charge the family reduce of ``msg`` (per-vertex messages) over
    ``sel``, a :func:`family_edges` selection of ``plan`` (``None``: every
    edge), then, with ``more``, one more reduce over the same edges per
    payload it maps the selected edges' children to (each sent only when
    the plan's reduce sends carry payloads).

    With ``op``, fold ``msg`` in the plan's sibling order and return the
    result at each family parent, ``identity`` elsewhere, in ``dtype``
    (default: the message's); without, return ``None``.
    """
    idx, offs = _selected(plan, sel)
    par, chi = plan.par[idx], plan.chi[idx]
    result = None if op is None else np.full_like(msg, identity, dtype=dtype)
    if len(chi) == 0:
        return result
    src, dst, dist = plan.src[idx], plan.dst[idx], plan.dist[idx]
    sent = msg[chi] if plan.carry else None
    machine.send_plan(src, dst, sent, rounds=offs, dist=dist, exclusive=True)
    for payload in () if more is None else more(chi):
        machine.send_plan(src, dst, payload if plan.carry else None, rounds=offs, dist=dist,
                          exclusive=True)
    if op is None:
        return None
    # relay segments fold into per-vertex interval accumulators first
    acc_iv = msg.copy() if plan.n_app else msg
    for r in range(len(offs) - 1):
        a, b = int(offs[r]), int(offs[r + 1])
        if b <= a:
            continue
        p = par[a:b]
        if r < plan.n_app:
            acc_iv[p] = op(acc_iv[p], acc_iv[chi[a:b]])
        else:
            result[p] = op(result[p], acc_iv[chi[a:b]] if sent is None else sent[a:b])
    return result


# --------------------------------------------------------------------- #
# public kernels
# --------------------------------------------------------------------- #


def _as_values(st, values) -> np.ndarray:
    values = np.asarray(values)
    if values.shape[0] != st.n:
        raise ValidationError(
            f"values must have one entry per vertex ({st.n}), got {values.shape}"
        )
    return values


def _as_mask(st, mask, name: str) -> np.ndarray:
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (st.n,):
        raise ValidationError(
            f"{name} must have one entry per vertex ({st.n}), got {mask.shape}"
        )
    return mask


def _resolve_mode(st, mode: str | None) -> str:
    if mode is None:
        return st.mode
    if mode not in ("direct", "virtual"):
        raise ValidationError(f"mode must be direct|virtual, got {mode!r}")
    return mode


@cost_contract(energy="local_messaging_energy", depth="local_messaging_depth", plan_safe=True)
def local_broadcast(st, values, *, mode: str | None = None) -> np.ndarray:
    """Every child receives its parent's value; the root keeps its own.

    Returns ``received`` with ``received[v] = values[parent(v)]`` for
    non-root ``v``. O(n) energy on an energy-bound layout; depth O(Δ)
    (direct) or O(log n) (virtual). ``mode`` overrides the tree's.
    """
    values = _as_values(st, values)
    mode = _resolve_mode(st, mode)
    with st.machine.phase("local_broadcast"):
        received = values.copy()
        plan_broadcast(st.machine, broadcast_plan(st, mode), None, values, out=received)
        return received


@cost_contract(energy="local_messaging_energy", depth="local_messaging_depth", plan_safe=True)
def local_reduce(st, values, *, op: Op = np.add, identity=0, mode: str | None = None) -> np.ndarray:
    """Every parent receives the reduction of its children's values.

    Leaves receive ``identity``. Operands combine in sibling order, so any
    associative operator is safe. Same cost profile as
    :func:`local_broadcast`.
    """
    values = _as_values(st, values)
    mode = _resolve_mode(st, mode)
    with st.machine.phase("local_reduce"):
        return plan_reduce(st.machine, reduce_plan(st, mode), None, values,
                           op=op, identity=identity)


def family_broadcast(st, values, families, *, mode: str | None = None) -> np.ndarray:
    """Masked local broadcast: only vertices with ``families[v]`` send.

    Children of inactive families keep their old ``values`` entry in the
    returned array. Relay processors inside an active family forward even
    if they are themselves logically inactive (they are processors, not
    participants) — exactly the §V contraction requirement.
    """
    values = _as_values(st, values)
    families = _as_mask(st, families, "families")
    mode = _resolve_mode(st, mode)
    plan = broadcast_plan(st, mode)
    received = values.copy()
    plan_broadcast(st.machine, plan, family_edges(plan, families), values, out=received)
    return received


def family_reduce(
    st,
    values,
    families,
    *,
    op: Op = np.add,
    identity=0,
    contribute=None,
    mode: str | None = None,
) -> np.ndarray:
    """Masked local reduce with an optional per-child contribution mask.

    ``contribute[c] == False`` makes child ``c`` inject ``identity`` while
    still relaying siblings' partial results (an inactive supervertex in a
    rake round). Returns the reduction at each active family parent;
    inactive parents get ``identity``. The result has ``values``' dtype.
    """
    values = _as_values(st, values)
    families = _as_mask(st, families, "families")
    msg = values
    if contribute is not None:
        msg = np.where(_as_mask(st, contribute, "contribute"), values, identity)
    mode = _resolve_mode(st, mode)
    plan = reduce_plan(st, mode)
    return plan_reduce(st.machine, plan, family_edges(plan, families), msg,
                       op=op, identity=identity, dtype=values.dtype)
