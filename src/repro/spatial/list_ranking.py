"""Random-mate list ranking on the spatial machine (paper §IV, Theorem 5).

List ranking: given a linked list of ``k`` elements scattered over the
grid, compute each element's (weighted) rank. The paper adapts the
contraction algorithm of Anderson & Miller: repeatedly splice out an
independent set of elements chosen by *random-mate* coin flips, then undo
the splices in reverse to fill in the ranks.

Costs, with high probability: each of the O(log k) rounds touches every
active element with O(1) messages of up to O(√n) grid distance, so the
energy is O(n^{3/2}) and the depth O(log n) — Theorem 5. The remaining
Θ(log k) elements are ranked by a sequential walk (the paper's base case),
keeping the w.h.p. depth bound.

Rank convention: ``rank[i]`` is the *suffix* weight ``w(i) + w(succ(i)) +
... + w(tail)`` — the natural fixpoint of the splice invariant. Head-based
indices follow as ``total - rank[i]`` (:func:`ranks_from_head`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.contracts import cost_contract
from repro.errors import ConvergenceError, ValidationError
from repro.machine.machine import SpatialMachine
from repro.utils import as_index_array, ceil_log2, resolve_rng


@dataclass(frozen=True)
class ListRankResult:
    """Suffix ranks plus the contraction statistics the benchmarks report."""

    ranks: np.ndarray
    rounds: int
    base_size: int

    def from_head(self, succ: np.ndarray) -> np.ndarray:
        """0-based index of each element from the head of its list."""
        total = int(self.ranks[np.flatnonzero(self._heads(succ))].max())
        return total - self.ranks

    @staticmethod
    def _heads(succ: np.ndarray) -> np.ndarray:
        has_pred = np.zeros(len(succ), dtype=bool)
        live = succ >= 0
        has_pred[succ[live]] = True
        return ~has_pred


def ranks_from_head(ranks: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """Convert suffix ranks to head-based exclusive prefix weights.

    ``head_rank[i] = total_weight - suffix_rank[i]`` counts the weight
    strictly before ``i``; with unit weights this is the 0-based list index.
    """
    total = int(ranks.max())
    return total - ranks


@cost_contract(energy="list_ranking_energy", depth="list_ranking_depth", plan_safe=False)
def list_rank(
    machine: SpatialMachine,
    succ,
    *,
    weights=None,
    elem_proc=None,
    seed=None,
    base_threshold: int | None = None,
    max_rounds: int | None = None,
    coin_bias: float = 0.5,
) -> ListRankResult:
    """Rank a linked list whose elements live on ``machine``'s processors.

    Parameters
    ----------
    succ:
        ``succ[i]`` is the element after ``i``; the tail has ``-1``. Must
        form a single chain covering all elements, else ``ValidationError``
        (a cycle beside the chain may surface only after charged rounds).
    weights:
        Per-element weights (default all ones).
    elem_proc:
        Processor hosting each element (default: element ``i`` on processor
        ``i``). Several elements may share a processor (the Euler-tour use
        stores both directed copies of an edge at the child's processor).
    base_threshold:
        Contract until at most this many elements remain, then walk the
        rest sequentially. Defaults to ``max(2, ceil(log2 k))`` per §IV.
    coin_bias:
        Random-mate heads probability (paper: 1/2; DESIGN.md ablation —
        the expected per-round removal rate is ``p(1-p)``, maximized at
        the paper's fair coin).
    """
    succ = as_index_array(succ, name="succ")
    k = len(succ)
    if k == 0:
        raise ValidationError("cannot rank an empty list")
    if weights is None:
        weights = np.ones(k, dtype=np.int64)
    else:
        weights = np.asarray(weights, dtype=np.int64).copy()
        if weights.shape != (k,):
            raise ValidationError("weights must have one entry per element")
    if elem_proc is None:
        if k > machine.n:
            raise ValidationError(
                f"{k} elements need elem_proc when the machine has {machine.n} processors"
            )
        elem_proc = np.arange(k, dtype=np.int64)
    else:
        elem_proc = as_index_array(elem_proc, name="elem_proc")
        if elem_proc.shape != (k,):
            raise ValidationError("elem_proc must have one entry per element")
    if base_threshold is None:
        base_threshold = max(2, ceil_log2(max(2, k)))
    if not 0.0 < coin_bias < 1.0:
        raise ValidationError(f"coin_bias must be in (0, 1), got {coin_bias}")
    if max_rounds is None:
        slowdown = 1.0 / max(1e-6, 4 * coin_bias * (1 - coin_bias))
        max_rounds = int(slowdown * (40 * max(1, ceil_log2(max(2, k))) + 40))
    rng = resolve_rng(seed)
    # epoch-bounded speculation hook: an attached workload-plan recorder
    # gets told (a) which phases are data-dependent and (b) the digest of
    # every per-round coin draw, so a stored plan can be replayed exactly
    # while the redrawn coin trace validates (see repro.plans)
    rec = getattr(machine, "plan_recorder", None)

    def msg(src_elems: np.ndarray, dst_elems: np.ndarray, rounds=None) -> None:
        machine.send_batch(elem_proc[src_elems], elem_proc[dst_elems], rounds=rounds)

    # --- initialize doubly-linked structure (one pointer-exchange round) ---
    cur_succ = succ.copy()
    pred = np.full(k, -1, dtype=np.int64)
    live = np.flatnonzero(cur_succ >= 0)
    if len(live) and int(np.bincount(cur_succ[live], minlength=k).max()) > 1:
        raise ValidationError("succ does not describe a simple list (duplicate successor)")
    if int((cur_succ < 0).sum()) != 1:
        raise ValidationError("succ must describe exactly one list (one tail)")
    if bool((cur_succ[live] == live).any()):
        raise ValidationError("succ does not describe a simple list (self-loop)")
    pred[cur_succ[live]] = live
    with machine.phase("list_rank_init"):
        msg(live, cur_succ[live])  # each element introduces itself to its successor

    w = weights.copy()
    active = np.ones(k, dtype=bool)
    act = np.arange(k, dtype=np.int64)  # the active elements, ascending
    # one (removed, their successors, their weights) record per splicing
    # round; the expansion replays them in reverse
    splices: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    # --- contraction ---
    rounds = 0
    with machine.phase("list_rank_contract"):
        if rec is not None:
            rec.mark_speculative()
        while len(act) > base_threshold:
            if rounds >= max_rounds:
                raise ConvergenceError(
                    f"list ranking did not contract below {base_threshold} elements "
                    f"within {max_rounds} rounds (remaining: {len(act)})"
                )
            rounds += 1
            coins = rng.random(size=k) < coin_bias  # True = heads
            if rec is not None:
                rec.epoch(coins, bias=coin_bias)
            # every active element with a predecessor reports its coin
            has_pred = pred[act] >= 0
            reporters = act[has_pred]
            if len(reporters):
                msg(reporters, pred[reporters])
            # select: heads, successor exists and flipped tails, pred exists
            cand = act[has_pred & (cur_succ[act] >= 0)]
            sel = cand[coins[cand] & ~coins[cur_succ[cand]]]
            if len(sel) == 0:
                continue
            p = pred[sel]
            s = cur_succ[sel]
            if bool((p == s).any()):  # a two-element cycle: the splice would close a self-loop
                raise ValidationError("succ does not describe a simple list (cycle)")
            # splice messages: u -> p carries (succ, weight); u -> s carries
            # pred (two dependency rounds of one batch — u's port serializes)
            m = len(sel)
            msg(
                np.concatenate([sel, sel]),
                np.concatenate([p, s]),
                rounds=np.array([0, m, 2 * m]),
            )
            ws = w[sel]
            splices.append((sel, s, ws))
            w[p] += ws
            cur_succ[p] = s
            pred[s] = p
            active[sel] = False
            act = act[active[act]]

    # --- sequential base case: walk from the tail along pred links ---
    ranks = np.zeros(k, dtype=np.int64)
    tail = act[cur_succ[act] < 0]
    if len(tail) != 1:
        raise ValidationError("succ must describe exactly one list (one tail)")
    base_size = len(act)
    with machine.phase("list_rank_base"):
        if rec is not None:
            rec.mark_speculative()
        cur = int(tail[0])
        ranks[cur] = w[cur]
        walked = 1
        while pred[cur] >= 0:
            nxt = int(pred[cur])
            msg(np.array([cur]), np.array([nxt]))  # carry the running rank
            ranks[nxt] = w[nxt] + ranks[cur]
            cur = nxt
            walked += 1
    if walked != base_size:  # the survivors off the tail's chain form cycles
        raise ValidationError("succ does not describe a simple list (cycle)")

    # --- uncontraction: replay the splices in reverse, each removed element
    # asking its recorded successor for its (now final) rank ---
    with machine.phase("list_rank_expand"):
        if rec is not None:
            rec.mark_speculative()
        for us, s, ws in reversed(splices):
            # request round, then response round with rank(s)
            m = len(us)
            msg(
                np.concatenate([us, s]),
                np.concatenate([s, us]),
                rounds=np.array([0, m, 2 * m]),
            )
            ranks[us] = ws + ranks[s]

    return ListRankResult(ranks=ranks, rounds=rounds, base_size=base_size)
