"""Treefix sums by spatial tree contraction (paper §V).

Bottom-up treefix (every vertex gets the reduction of its subtree) and the
top-down variant of §V-D (every vertex gets the reduction of its
root-to-vertex path), both as Las Vegas algorithms on the machine:
**O(n log n) energy** and **O(log n) / O(log² n) depth** for bounded /
unbounded degree, with high probability (Lemmas 11–12).

Structure of the implementation, mirroring the paper:

* **Supervertices.** Each live supervertex is identified with its
  representative ``R(u)`` (topmost member). Its per-vertex O(1)-word state:
  partial value ``P``, accumulator ``A``, parent representative, child
  count, the single-child witness (only maintained while the count is 1 —
  which is an invariant: counts only change at rakes, where the witness is
  learned), and ``last`` — the deepest absorbed member, whose original
  children are exactly the supervertex's children in the supervertex tree.
  That invariant is what lets every parent↔children exchange run as a §III
  *local messaging* operation over ``last``'s original family (via the
  virtual tree when the degree is unbounded), plus one representative→
  ``last`` hop whose total length is bounded by the tree's edge energy.

* **COMPACT** (§V-A3): (1) every supervertex tells its children whether it
  is branching, together with its random-mate coin; (2) viable vertices
  (non-branching parent, exactly one child) that drew heads under a tails
  parent form an independent set and COMPRESS into their parents;
  (3) supervertices whose children are all leaves except at most one RAKE
  them.

* **Contraction tree** (Fig. 6): each contraction event is recorded at the
  absorbed vertex (for a rake: at the smallest raked child) with the
  absorber's previous log head chained through ``saved_state`` — O(1)
  words everywhere. Undo rounds pop one event per live supervertex.

* **No inverses needed.** The paper's undo formulas subtract partial sums;
  to support any *commutative monoid* (max, min, gcd, …) each event also
  records the absorber's pre-event partial, so undo restores rather than
  subtracts. (True non-commutative treefix is ill-posed under contraction
  order; the paper's "any associative operator" is read as commutative
  monoids here — see DESIGN.md.)

* **Compiled schedule.** Every decision above — coins, compress and rake
  sets, wake notes, undo order — depends on the tree, its layout, the
  messaging mode and the coin stream, never on the values being reduced.
  So every call runs in two steps: :func:`_compile` plays the decisions on
  the structural registers, charging nothing, and records per round the
  family selections (edge positions in the cached per-tree plans of
  :mod:`repro.spatial.local_messaging`), the frontier exchanges (processor
  endpoints and distances) and the vertex sets the payload folds need;
  the replay walks that
  :class:`TreefixSchedule`, issues every charge (the family exchanges
  through the local-messaging kernels) and folds the call's own values.
  The schedule is memoized in one slot on the
  :class:`~repro.spatial.SpatialTree`, keyed by ``(mode, seed,
  coin_bias)`` and filled for integer seeds only; nothing that depends on
  the payload is ever cached.

There is no global synchronization: rounds only exchange messages between
neighbouring supervertices, so the machine's dependency clocks realize the
paper's "execute the steps as soon as possible" depth argument.
"""

from __future__ import annotations

import contextlib
from collections.abc import Callable
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from repro.contracts import cost_contract
from repro.errors import ConvergenceError, ValidationError
from repro.machine.collectives import barrier
from repro.spatial.local_messaging import (
    FamilyPlan,
    family_edges,
    family_plans,
    plan_broadcast,
    plan_reduce,
)
from repro.utils import ceil_log2, resolve_rng

Op = Callable[[np.ndarray, np.ndarray], np.ndarray]

_NONE = -1
_BIG = np.int64(np.iinfo(np.int64).max)
_EV_COMPRESS = 1
_EV_RAKE = 2

#: the contraction's per-vertex O(1)-word state, in allocation order
_REGISTERS = (
    "tfx_P", "tfx_A", "tfx_active", "tfx_par", "tfx_last",
    "tfx_nchild", "tfx_only_child", "tfx_log_head", "tfx_wake_ev",
    "tfx_ev_type", "tfx_ev_saved", "tfx_ev_last", "tfx_ev_P_before",
    "tfx_ev_nchild", "tfx_ev_w",
)
#: the registers that take the payload dtype; the rest hold int64 ids
_VALUE_REGISTERS = ("tfx_P", "tfx_A", "tfx_ev_P_before")


class _Exchange(NamedTuple):
    """A compiled frontier exchange, EREW in every round: processor
    endpoints and their distances in the narrowest dtypes that hold them
    (see :func:`_narrow`), and the int64 round offsets."""

    src: np.ndarray
    dst: np.ndarray
    dist: np.ndarray
    rounds: np.ndarray


class _ContractRound(NamedTuple):
    """One COMPACT round's recorded decisions; ``None``: the step sent nothing.

    ``announce`` — (hop, selection, family heads, branching/coin codes);
    ``compress`` — (exchange absorbed → absorbers, then → the absorbed's
    single children; absorbed; absorbers);
    ``rake`` — (hop, selection, leaf children, non-leaf children — the
    latter only where reduce messages carry payloads);
    ``fire`` — (hop, selection, exchange rakers → designated children,
    rakers, their family heads, designated children). A hop is the
    :class:`_Exchange` representatives → family heads where they differ.
    """

    announce: tuple | None
    compress: tuple | None
    rake: tuple | None
    fire: tuple | None


class _ExpandRound(NamedTuple):
    """One undo round; ``None``: no event of that kind was undone.

    ``compress`` — (exchange undoers → woken absorbed and back, exchange
    relinked → their children or ``None``, undoers, woken absorbed);
    ``rake`` — (hop, broadcast selection, reduce selection, undoers,
    designated children, family heads, waking leaves).
    """

    compress: tuple | None
    rake: tuple | None


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _arrays(item)


@dataclass(frozen=True)
class TreefixSchedule:
    """One tree's compiled contraction for one ``(mode, seed, coin_bias)``.

    Holds what the payload never influences: per COMPACT round the family
    selections (ascending edge positions in the cached per-tree plans,
    ``None`` for the whole plan), the frontier exchanges and the vertex
    sets the folds need, then the undo rounds. Vertex ids are int32 and no
    array has one entry per vertex. Both treefix directions replay the
    same schedule. Like the family plans, the exchanges' distances belong
    to the tree's placement and its machine's metric.
    """

    key: tuple | None
    contract: tuple[_ContractRound, ...]
    expand: tuple[_ExpandRound, ...]
    #: supervertices left before COMPACT round 1, 2, …, and after the last
    remaining: tuple[int, ...]

    @property
    def rounds(self) -> int:
        """COMPACT rounds (``SpatialTree.last_contraction_rounds``)."""
        return len(self.contract)

    @property
    def nbytes(self) -> int:
        """Bytes held in the schedule's arrays."""
        return sum(a.nbytes for a in _arrays((self.contract, self.expand)))

    def check(self, max_rounds: int) -> None:
        """Raise the live loop's :class:`ConvergenceError` when the call's
        ``max_rounds`` is below what this schedule needs."""
        if self.rounds > max(0, max_rounds):
            raise ConvergenceError(
                f"tree contraction exceeded {max_rounds} rounds "
                f"({self.remaining[max(0, max_rounds)]} supervertices remain)"
            )
        if len(self.expand) > max(0, max_rounds):
            raise ConvergenceError(f"uncontraction exceeded {max_rounds} rounds")


def _family_mask(n: int, heads: np.ndarray) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[heads] = True
    return mask


def _narrow(a: np.ndarray, m: int) -> np.ndarray:
    """``a``, whose entries lie in ``[0, m)``, in the narrowest dtype that
    holds them."""
    return a.astype(np.uint16 if m <= 1 << 16 else np.int32)


def _pack(idx: np.ndarray | None, m: int) -> np.ndarray | None:
    """A selection's stored form: its ascending edge positions among the
    plan's ``m`` edges (``None``: every edge)."""
    return None if idx is None else _narrow(idx, m)


def _ids(a: np.ndarray) -> np.ndarray:
    return a.astype(np.int32)


def _exchange(st, src: np.ndarray, dst: np.ndarray, rounds: list[int] | None = None) -> _Exchange:
    """Compile the exchange of vertices ``src`` → ``dst`` (one round unless
    ``rounds`` gives the offsets)."""
    m = st.machine
    psrc, pdst = st.proc[src], st.proc[dst]
    # a grid distance is at most 2 (side - 1)
    dist = _narrow(m.manhattan(psrc, pdst), 2 * m.side - 1)
    offs = np.array([0, len(psrc)] if rounds is None else rounds, dtype=np.int64)
    return _Exchange(_narrow(psrc, m.n), _narrow(pdst, m.n), dist, offs)


def _hop(st, reps: np.ndarray, last: np.ndarray) -> _Exchange | None:
    """The representative → family-head exchange where they differ."""
    far = reps[last[reps] != reps]
    return _exchange(st, far, last[far]) if len(far) else None


def _registers(stack: contextlib.ExitStack, st, value_dtype) -> SimpleNamespace:
    """Allocate the 15 ``tfx_*`` registers for the ``stack``'s lifetime (a
    budget failure partway releases the ones already allocated)."""
    regs = st.machine.registers
    return SimpleNamespace(**{
        name[4:]: stack.enter_context(regs.scope(
            name, dtype=value_dtype if name in _VALUE_REGISTERS else np.int64))
        for name in _REGISTERS
    })


# --------------------------------------------------------------------- #
# compile: the contraction's decisions, charging nothing
# --------------------------------------------------------------------- #


def _schedule(st, s, seed, rng, max_rounds: int, coin_bias: float) -> TreefixSchedule:
    """The call's schedule: the memoized one on a hit, else compiled from
    ``rng`` (and memoized when ``seed`` is an integer). Hits and misses are
    counted on ``machine.plan_cache`` as ``treefix_schedule``."""
    key = None
    if isinstance(seed, (int, np.integer)):
        key = (st.mode, int(seed), float(coin_bias))
    cached = st._treefix_schedule
    hit = key is not None and cached is not None and cached.key == key
    st.machine.plan_cache.count("treefix_schedule", hit=hit)
    if hit:
        cached.check(max_rounds)
        return cached
    if key is not None:
        st._treefix_schedule = None  # one slot: a miss replaces it
    sched = _compile(st, s, rng, max_rounds, coin_bias, key)
    if key is not None:
        st._treefix_schedule = sched
    return sched


def _fire(st, s, rakers, rh, cnt, leaf_ids, nonleaf_ids, select) -> tuple[tuple, np.ndarray]:
    """Record and apply one round's rakes: every raker absorbs its leaf
    children, logging the event at the smallest one. Returns the fire
    record and the raked leaves."""
    n = st.n
    parents = st.tree.parents
    leaf_par = parents[leaf_ids]
    first_leaf = np.full(n, _BIG, dtype=np.int64)
    np.minimum.at(first_leaf, leaf_par, leaf_ids)
    designated = first_leaf[rh]
    # the unique non-leaf child, if any (several: none)
    nonleaf_par = parents[nonleaf_ids]
    witness = np.full(n, _NONE, dtype=np.int64)
    witness[nonleaf_par] = nonleaf_ids
    several = np.bincount(nonleaf_par, minlength=n)[rh] >= 2
    w = np.where(several, _NONE, witness[rh])
    fam = _family_mask(n, rh)
    fire = (_hop(st, rakers, s.last), select(0, fam), _exchange(st, rakers, designated),
            _ids(rakers), _ids(rh), _ids(designated))
    raker_mask = np.zeros(n, dtype=bool)
    raker_mask[rakers] = True
    raked = leaf_ids[raker_mask[s.par[leaf_ids]]]
    note = np.full(n, _NONE, dtype=np.int64)
    note[rh] = designated
    rp = parents[raked]
    # event record at the designated child
    s.ev_type[designated] = _EV_RAKE
    s.ev_saved[designated] = s.log_head[rakers]
    s.ev_last[designated] = s.last[rakers]
    s.ev_nchild[designated] = s.nchild[rakers]
    s.ev_w[designated] = w
    s.nchild[rakers] = s.nchild[rakers] - cnt
    s.only_child[rakers] = np.where(s.nchild[rakers] == 1, w, _NONE)
    s.log_head[rakers] = designated
    s.wake_ev[raked] = np.where(fam[rp], note[rp], note[raked])
    s.active[raked] = 0
    return fire, raked


def _compile(st, s, rng, max_rounds: int, coin_bias: float, key) -> TreefixSchedule:
    """Run COMPACT and its undo on the structural registers and record
    every round (see :class:`TreefixSchedule`).

    Each family reduction or broadcast of the live algorithm is evaluated
    by what it delivers: a family ``h`` reduces over the children ``c``
    with ``parents[c] == h``; a child of a selected family receives the
    family's word, any other vertex keeps its own entry. ``coin_bias`` is
    the random-mate heads probability (paper: 1/2).
    """
    n = st.n
    tree = st.tree
    parents = tree.parents
    s.active[:] = 1
    s.par[:] = parents
    s.last[:] = np.arange(n)
    counts = tree.num_children()
    s.nchild[:] = counts
    s.only_child[:] = _NONE
    single = counts == 1
    if single.any():
        offsets, targets = tree.children_csr()
        s.only_child[single] = targets[offsets[:-1][single]]
    for reg in (s.log_head, s.wake_ev, s.ev_saved, s.ev_last, s.ev_w):
        reg[:] = _NONE
    s.ev_type[:] = 0
    s.ev_nchild[:] = 0

    plans: list[FamilyPlan] = []  # fetched at the first selection

    def select(which: int, fam: np.ndarray) -> np.ndarray | None:
        if not plans:
            plans.extend(family_plans(st, st.mode))
        plan = plans[which]
        return _pack(family_edges(plan, fam), len(plan.src))

    contract: list[_ContractRound] = []
    remaining = [n]
    act = np.arange(n)  # the active vertices, ascending (a shrinking set)
    while remaining[-1] > 1:
        if len(contract) >= max_rounds:
            raise ConvergenceError(
                f"tree contraction exceeded {max_rounds} rounds "
                f"({remaining[-1]} supervertices remain)"
            )
        act = act[s.active[act] == 1]
        coins = rng.random(size=n) < coin_bias

        # ---- (1) parents announce (branching?, coin) to their children ----
        announce = None
        parents_u = act[s.nchild[act] > 0]
        kids = act[s.par[act] >= 0]
        code = np.full(len(kids), _NONE, dtype=np.int64)
        if len(parents_u):
            heads = s.last[parents_u]
            codes = (s.nchild[parents_u] >= 2) * 2 + coins[parents_u]
            fam = _family_mask(n, heads)
            announce = (_hop(st, parents_u, s.last), select(0, fam), _ids(heads),
                        codes.astype(np.int8))
            info = np.full(n, _NONE, dtype=np.int64)
            info[heads] = codes
            kp = parents[kids]
            code = np.where(fam[kp], info[kp], info[kids])

        # ---- (2)+(3) COMPRESS an independent set of viable vertices ----
        got = code != _NONE
        kids, code = kids[got], code[got]
        viable = (code // 2 != 1) & (s.nchild[kids] == 1)
        sel = kids[viable & coins[kids] & (code % 2 == 0)]
        compress = None
        if len(sel):
            u = s.par[sel]
            child = s.only_child[sel]
            k = len(sel)
            compress = (_exchange(st, np.concatenate([sel, sel]), np.concatenate([u, child]),
                                  [0, k, 2 * k]),
                        _ids(sel), _ids(u))
            s.ev_type[sel] = _EV_COMPRESS
            s.ev_saved[sel] = s.log_head[u]
            s.ev_last[sel] = s.last[u]
            s.ev_nchild[sel] = 1
            s.last[u] = s.last[sel]
            s.only_child[u] = s.only_child[sel]
            s.log_head[u] = sel
            s.par[child] = u
            s.active[sel] = 0
        left = remaining[-1] - len(sel)

        # ---- (5) RAKE where all children but at most one are leaves ----
        rake = fire = None
        act = act[s.active[act] == 1]
        parents_u = act[s.nchild[act] > 0]
        if len(parents_u):
            heads = s.last[parents_u]
            fam = _family_mask(n, heads)
            rsel = select(1, fam)
            # an active child of an active parent contributes; leaves
            # among them are rake fodder
            ch = act[s.par[act] >= 0]
            cap = ch[s.active[s.par[ch]] == 1]
            cap_leaf = s.nchild[cap] == 0
            leaf_ids = cap[cap_leaf]
            nonleaf_ids = cap[~cap_leaf]
            rake = (_hop(st, parents_u, s.last), rsel, _ids(leaf_ids),
                    _ids(nonleaf_ids) if plans[1].carry else None)
            leaf_par = parents[leaf_ids]
            cnt = np.bincount(leaf_par, minlength=n)[heads]
            rake_ok = (cnt >= 1) & (s.nchild[parents_u] - cnt <= 1)
            rakers = parents_u[rake_ok]
            if len(rakers):
                fire, raked = _fire(st, s, rakers, heads[rake_ok], cnt[rake_ok],
                                    leaf_ids, nonleaf_ids, select)
                left -= len(raked)
        contract.append(_ContractRound(announce, compress, rake, fire))
        remaining.append(left)

    expand: list[_ExpandRound] = []
    # the active vertices with a logged event, and the raked (inactive
    # until their rake is undone) vertices — both ascending
    undoers = np.flatnonzero((s.active == 1) & (s.log_head != _NONE))
    raked = np.flatnonzero(s.wake_ev != _NONE)
    while len(undoers):
        if len(expand) >= max_rounds:
            raise ConvergenceError(f"uncontraction exceeded {max_rounds} rounds")
        kinds = s.ev_type[s.log_head[undoers]]
        undo_compress = undo_rake = None
        woken = [undoers]  # next round's candidates: still logged, or just woken
        cu = undoers[kinds == _EV_COMPRESS]
        if len(cu):
            v = s.log_head[cu]
            s.last[cu] = s.ev_last[v]
            s.nchild[cu] = 1
            s.only_child[cu] = v
            s.log_head[cu] = s.ev_saved[v]
            s.active[v] = 1
            child = s.only_child[v]
            has_child = child != _NONE
            s.par[child[has_child]] = v[has_child]
            s.ev_type[v] = 0
            k = len(cu)
            undo_compress = (
                _exchange(st, np.concatenate([cu, v]), np.concatenate([v, cu]), [0, k, 2 * k]),
                _exchange(st, v[has_child], child[has_child]) if has_child.any() else None,
                _ids(cu), _ids(v),
            )
            woken.append(v)
        ru = undoers[kinds == _EV_RAKE]
        if len(ru):
            v1 = s.log_head[ru]
            heads = s.ev_last[v1]
            fam = _family_mask(n, heads)
            bsel = select(0, fam)
            rsel = bsel if plans[0].findex is plans[1].findex else select(1, fam)
            # the broadcast wake note wakes exactly the leaves raked by it
            note = np.full(n, _NONE, dtype=np.int64)
            note[heads] = v1
            rp = parents[raked]
            got = np.where(fam[rp], note[rp], note[raked])
            waking = raked[got == s.wake_ev[raked]]
            undo_rake = (_hop(st, ru, s.last), bsel, rsel, _ids(ru), _ids(v1), _ids(heads),
                         _ids(waking))
            s.nchild[ru] = s.ev_nchild[v1]
            s.only_child[ru] = np.where(s.ev_nchild[v1] == 1, v1, _NONE)
            s.log_head[ru] = s.ev_saved[v1]
            s.active[waking] = 1
            s.wake_ev[waking] = _NONE
            s.ev_type[v1] = 0
            raked = raked[s.wake_ev[raked] != _NONE]
            woken.append(waking)
        expand.append(_ExpandRound(undo_compress, undo_rake))
        cand = np.sort(np.concatenate(woken))
        undoers = cand[s.log_head[cand] != _NONE]
    if not (s.active == 1).all():  # pragma: no cover - invariant guard
        raise ConvergenceError("uncontraction left inactive vertices")
    return TreefixSchedule(key, tuple(contract), tuple(expand), tuple(remaining))


# --------------------------------------------------------------------- #
# replay: every charge, and the folds of this call's values
# --------------------------------------------------------------------- #


def _structural(kind: np.ndarray | None) -> Callable[[np.ndarray], tuple]:
    """The rake round's leaf-count, non-leaf-witness and smallest-leaf
    reduces: the messages of children ``c``, from one ``kind[c]`` gather
    (all ``None`` where reduce sends carry no payload). A closure over
    ``kind``, not a method: a replay holding its own bound method would
    live until the cyclic collector ran, and its per-vertex buffers too."""

    def payloads(c: np.ndarray) -> tuple:
        if kind is None:
            return None, None, None
        k = kind[c]
        leaf = k == 1
        return leaf.astype(np.int64), np.where(k == 2, c, _NONE), np.where(leaf, c, _BIG)

    return payloads


class _Replay:
    """One call's replay of a :class:`TreefixSchedule`: every charge of the
    live contraction, in its order, and the folds of this call's values.

    Messages are per-vertex arrays, as in the live algorithm, kept in
    scratch buffers allocated once per call; between uses every entry
    holds the message's neutral value, so a round costs O(frontier) host
    work besides the charged sends.
    """

    def __init__(self, st, s, sched: TreefixSchedule, op: Op, identity, bottom_up: bool) -> None:
        n = st.n
        self.m = st.machine
        self.parents = st.tree.parents
        self.P, self.A, self.P_before = s.P, s.A, s.ev_P_before
        self.bcast, self.reduce_plan = family_plans(st, st.mode) if sched.rounds else (None, None)
        self.op, self.identity, self.bottom_up = op, identity, bottom_up
        #: the structural word each family head broadcasts
        self.words = np.empty(n, dtype=np.int64)
        vdtype = np.result_type(s.P.dtype, np.asarray(identity).dtype)
        self.leaf_msg = np.full(n, identity, dtype=vdtype)
        self.wake_msg = np.full(n, identity, dtype=np.where(True, s.P[:1], identity).dtype)
        self.path_val = None if bottom_up else np.full(n, identity, dtype=s.A.dtype)
        #: 1 at a rake round's leaf children, 2 at its non-leaf ones: what
        #: the payloads of direct-mode structural reduces are derived from
        carry = self.reduce_plan is not None and self.reduce_plan.carry
        kind = self.child_kind = np.zeros(n, dtype=np.int8) if carry else None
        self.structural = _structural(kind)

    def exchange(self, ex: _Exchange | None, *, back: bool = False) -> None:
        """Charge a compiled frontier exchange (EREW by construction), or
        its reverse."""
        if ex is None:
            return
        src, dst = (ex.dst, ex.src) if back else (ex.src, ex.dst)
        self.m.send_plan(src.astype(np.int64), dst.astype(np.int64), rounds=ex.rounds,
                         dist=ex.dist.astype(np.int64), exclusive=True)

    def contract_round(self, rnd: _ContractRound) -> None:
        """Charge one COMPACT round; fold ``P`` and the pre-event partials."""
        P, P_before, op = self.P, self.P_before, self.op
        if rnd.announce is not None:
            hop, sel, heads, codes = rnd.announce
            self.exchange(hop)
            self.words[heads] = codes
            plan_broadcast(self.m, self.bcast, sel, self.words)
        if rnd.compress is not None:
            # v hands its state to its parent (one O(1)-word exchange) and
            # tells its single child about its new parent — two dependency
            # rounds, batched into one charged call
            ex, v, u = rnd.compress
            self.exchange(ex)
            P_before[v] = P[u]
            P[u] = op(P[u], P[v])
        if rnd.rake is None:
            return
        hop, sel, leaves, nonleaves = rnd.rake
        self.exchange(hop)
        msg, kind = self.leaf_msg, self.child_kind
        msg[leaves] = P[leaves]
        if kind is not None:
            kind[leaves] = 1
            kind[nonleaves] = 2
        fold = op if self.bottom_up and rnd.fire is not None else None
        leaf_P = plan_reduce(self.m, self.reduce_plan, sel, msg, self.structural,
                             op=fold, identity=self.identity)
        msg[leaves] = self.identity
        if kind is not None:
            kind[leaves] = 0
            kind[nonleaves] = 0
        self.exchange(hop, back=True)
        if rnd.fire is None:
            return
        # tell the family which event fired (payload: designated child id)
        hop, sel, ex, rakers, heads, designated = rnd.fire
        self.exchange(hop)
        self.words[heads] = designated
        plan_broadcast(self.m, self.bcast, sel, self.words)
        self.exchange(ex)
        P_before[designated] = P[rakers]
        # bottom-up folds raked totals into P; top-down's P is a pure
        # member-path value and is left alone
        if self.bottom_up:
            P[rakers] = op(P[rakers], leaf_P[heads])

    def expand_round(self, rnd: _ExpandRound) -> None:
        """Charge one undo round; fold ``A`` and restore ``P``, maintaining
        the §V-B invariants."""
        P, A, P_before, op = self.P, self.A, self.P_before, self.op
        if rnd.compress is not None:
            ex, relink, cu, v = rnd.compress
            # A / restore exchange: two dependency rounds in one batch
            self.exchange(ex)
            if self.bottom_up:
                A[v] = A[cu]
                A[cu] = op(A[cu], P[v])
            else:
                A[v] = op(A[cu], P_before[v])
            P[cu] = P_before[v]
            self.exchange(relink)
        if rnd.rake is None:
            return
        hop, bsel, rsel, ru, v1, heads, waking = rnd.rake
        # broadcast the wake note (and, top-down, the path value)
        self.exchange(hop)
        self.words[heads] = v1
        if self.bottom_up:
            plan_broadcast(self.m, self.bcast, bsel, self.words)
        else:
            path_val = self.path_val
            path_val[heads] = op(A[ru], P[ru])
            plan_broadcast(self.m, self.bcast, bsel, self.words, path_val)
            A[waking] = path_val[self.parents[waking]]
            path_val[heads] = self.identity
        # gather the raked total back (bottom-up needs it for A)
        msg = self.wake_msg
        msg[waking] = P[waking]
        raked_P = plan_reduce(self.m, self.reduce_plan, rsel, msg,
                              op=op if self.bottom_up else None, identity=self.identity)
        msg[waking] = self.identity
        self.exchange(hop, back=True)
        if self.bottom_up:
            A[ru] = op(A[ru], raked_P[heads])
        P[ru] = P_before[v1]


def _run(st, values, op, identity, direction, seed, max_rounds, coin_bias, sync_barriers):
    values = np.asarray(values)
    if values.shape != (st.n,):
        raise ValidationError(
            f"values must have one entry per vertex ({st.n}), got {values.shape}"
        )
    if not 0.0 < coin_bias < 1.0:
        raise ValidationError(f"coin_bias must be in (0, 1), got {coin_bias}")
    if max_rounds is None:
        # generous w.h.p. guard; biased coins contract slower by a factor
        # 1/(4 p (1-p)) relative to the paper's p = 1/2
        slowdown = 1.0 / max(1e-6, 4 * coin_bias * (1 - coin_bias))
        max_rounds = int(slowdown * (80 * max(1, ceil_log2(max(2, st.n))) + 80))
    rng = resolve_rng(seed)
    if np.issubdtype(values.dtype, np.floating):
        payload = values.astype(np.float64)
    elif np.issubdtype(values.dtype, np.integer) or values.dtype == bool:
        payload = values.astype(np.int64)
    else:
        raise ValidationError(f"treefix supports integer/float values, got {values.dtype}")
    m = st.machine
    with contextlib.ExitStack() as stack:
        s = _registers(stack, st, payload.dtype)
        s.P[:] = payload
        s.A[:] = identity
        with m.phase(f"treefix_{direction}_contract"):
            sched = _schedule(st, s, seed, rng, max_rounds, coin_bias)
            replay = _Replay(st, s, sched, op, identity, direction == "bottom_up")
            for r, rnd in enumerate(sched.contract):
                # sync_barriers inserts the global all-reduce barrier between
                # rounds that §V-C explicitly *avoids* — enabling it
                # measures the log-factor depth penalty the paper warns about
                if sync_barriers and r:
                    barrier(m)
                replay.contract_round(rnd)
        with m.phase(f"treefix_{direction}_expand"):
            for rnd in sched.expand:
                replay.expand_round(rnd)
        st.last_contraction_rounds = sched.rounds
        return op(s.P.copy(), s.A.copy())


@cost_contract(energy="treefix_energy", depth="treefix_depth_general", plan_safe=True)
def treefix_sum(
    st,
    values,
    *,
    op: Op = np.add,
    identity=0,
    seed=None,
    max_rounds=None,
    coin_bias: float = 0.5,
    sync_barriers: bool = False,
) -> np.ndarray:
    """Bottom-up treefix: ``out[v]`` = reduction of ``values`` over ``v``'s subtree.

    Las Vegas: O(n log n) energy; depth O(log n) for bounded degree,
    O(log² n) in general, w.h.p. (§V, Lemmas 11–12). ``op`` must be a
    commutative, associative ufunc-like with the given ``identity``.

    ``coin_bias`` and ``sync_barriers`` are ablation knobs (DESIGN.md §5):
    the paper uses fair coins and explicitly avoids per-round global
    synchronization. After the call, ``st.last_contraction_rounds`` holds
    the number of COMPACT rounds used.

    Caching: with an integer ``seed`` the contraction schedule is compiled
    once and memoized on ``st`` (one slot, keyed by ``(st.mode, seed,
    coin_bias)``; shared with :func:`top_down_treefix`), so later calls
    with other ``values`` replay it — every message is still charged and
    every fold runs on the new values. ``None``, a ``Generator`` or a
    duck-typed seed compiles afresh on every call. A ``max_rounds`` below
    the schedule's needs raises :class:`ConvergenceError` before anything
    is charged.
    """
    return _run(st, values, op, identity, "bottom_up", seed, max_rounds, coin_bias, sync_barriers)


@cost_contract(energy="treefix_energy", depth="treefix_depth_general", plan_safe=True)
def top_down_treefix(
    st,
    values,
    *,
    op: Op = np.add,
    identity=0,
    seed=None,
    max_rounds=None,
    coin_bias: float = 0.5,
    sync_barriers: bool = False,
) -> np.ndarray:
    """Top-down treefix (§V-D): ``out[v]`` = reduction along the root→``v`` path.

    Same cost profile, ablation knobs and caching rule as
    :func:`treefix_sum` — it replays the same memoized schedule (a call in
    either direction fills the slot for both); only the uncontraction
    formulas differ, exactly as in the paper, plus one path-value
    broadcast per rake-undo round.
    """
    return _run(st, values, op, identity, "top_down", seed, max_rounds, coin_bias, sync_barriers)
