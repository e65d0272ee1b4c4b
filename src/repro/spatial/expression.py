"""Parallel expression tree evaluation (paper §V's Miller–Reif lineage).

Treefix sums are "related to the parallel evaluation of arithmetic
expressions [38]" (§V) — Miller & Reif's rake/compress was invented for
exactly that problem, and the related-work systems the paper positions
itself against (Arge et al., Dehne et al.) both feature expression tree
evaluation. This module closes the loop: it evaluates arithmetic
expression trees (each internal vertex applies ``+`` or ``×`` to its
children, leaves are constants) on the spatial machine with the same
COMPACT contraction schedule as §V, so the costs inherit the O(n log n)
energy / poly-log depth envelopes.

The ingredient beyond treefix is the *affine closure*. A live supervertex
``u`` carries O(1) words: its current operator, a partial aggregate ``P``
of already-resolved children, and a pending affine map ``g = (a, b)``
applied to its unresolved input. Define

    A_u(x) = g(op(P, x)) =  a·x + (a·P + b)      for op = +
                             (a·P)·x + b          for op = ×

* **rake**: resolved children fold their values into ``P`` via one
  masked local reduce per monoid; when the last child folds, the
  representative's value is ``g(P)``.
* **compress**: the absorber composes ``A_u`` with the absorbed vertex's
  pending map and adopts its operator/aggregate — the absorbed vertex's
  own record is *frozen*, which is what makes the final step work:
* **fix-up**: every compressed-away vertex ``v`` satisfies
  ``value(v) = A_v(value(pend_v))`` with ``A_v``/``pend_v`` frozen at
  absorption time. These relations form downward chains, resolved with
  O(log n) rounds of pointer doubling over affine compositions (affine
  maps compose associatively).

Arithmetic is modulo the Mersenne prime 2⁶¹ − 1 (Θ(n) chained products
overflow any fixed word); the sequential reference uses the same field.
Every vertex ends with the exact value of its own subexpression.
"""

from __future__ import annotations

import numpy as np

from repro.contracts import cost_contract
from repro.errors import ConvergenceError, ValidationError
from repro.spatial.local_messaging import (
    family_edges,
    family_plans,
    plan_broadcast,
    plan_reduce,
)
from repro.utils import as_index_array, ceil_log2, resolve_rng

#: evaluation field: residues modulo the Mersenne prime 2^61 - 1
MOD = (1 << 61) - 1

OP_ADD = 0
OP_MUL = 1

_NONE = -1


def _mulmod(a, b):
    """Elementwise modular product via Python-int (object) arithmetic."""
    return np.asarray((np.asarray(a, dtype=object) * np.asarray(b, dtype=object)) % MOD, dtype=object)


def _addmod(a, b):
    return np.asarray((np.asarray(a, dtype=object) + np.asarray(b, dtype=object)) % MOD, dtype=object)


def random_expression(n, *, seed=None, mul_probability=0.4):
    """A random expression workload: a random tree shape with random ops
    and leaf constants. Returns ``(tree, ops, leaf_values)``."""
    from repro.trees.generators import random_attachment_tree

    rng = resolve_rng(seed)
    tree = random_attachment_tree(n, seed=rng.integers(0, 2**31))
    ops = (rng.random(n) < mul_probability).astype(np.int64)
    leaves = rng.integers(0, MOD, size=n, dtype=np.int64)
    return tree, ops, leaves


def evaluate_expression_sequential(tree, ops, leaf_values, *, mod: int = MOD) -> np.ndarray:
    """Sequential reference: value of every vertex's subexpression (mod)."""
    ops = as_index_array(ops, name="ops")
    vals = np.asarray(leaf_values, dtype=object)
    out = np.zeros(tree.n, dtype=object)
    offsets, targets = tree.children_csr()
    for v in tree.bfs_order()[::-1]:
        kids = targets[offsets[v] : offsets[v + 1]]
        if len(kids) == 0:
            out[v] = int(vals[v]) % mod
        elif ops[v] == OP_ADD:
            out[v] = sum(int(out[c]) for c in kids) % mod
        else:
            acc = 1
            for c in kids:
                acc = (acc * int(out[c])) % mod
            out[v] = acc
    return out


def _apply_pending(a, b, op, P):
    """Slope/intercept of ``A(x) = g(op(P, x))`` for pending state arrays."""
    add = np.asarray(op) == OP_ADD
    slope = np.where(add, np.asarray(a, dtype=object), _mulmod(a, P))
    intercept = np.where(add, _addmod(_mulmod(a, P), b), np.asarray(b, dtype=object))
    return slope, intercept


@cost_contract(energy="treefix_energy", depth="treefix_depth_general", plan_safe=False)
def evaluate_expression(st, ops, leaf_values, *, seed=None, max_rounds=None) -> np.ndarray:
    """Evaluate an expression tree on the machine; returns per-vertex values.

    Las Vegas with the §V COMPACT schedule: O(n log n) energy and poly-log
    depth w.h.p. All per-vertex state is O(1) words.
    """
    tree = st.tree
    n = st.n
    ops = as_index_array(ops, name="ops")
    if ops.shape != (n,):
        raise ValidationError("ops must have one entry per vertex")
    if not np.isin(ops, [OP_ADD, OP_MUL]).all():
        raise ValidationError("ops entries must be OP_ADD or OP_MUL")
    leaf_values = np.asarray(leaf_values)
    if leaf_values.shape != (n,):
        raise ValidationError("leaf_values must have one entry per vertex")
    if max_rounds is None:
        max_rounds = 80 * max(1, ceil_log2(max(2, n))) + 80
    rng = resolve_rng(seed)
    ids = np.arange(n, dtype=np.int64)

    # ---- supervertex state (O(1) words each; object dtype = field values)
    is_leaf = tree.is_leaf()
    value = np.where(is_leaf, np.asarray(leaf_values, dtype=object) % MOD, 0).astype(object)
    resolved = is_leaf.copy()
    cur_op = ops.copy()
    P = np.where(cur_op == OP_ADD, 0, 1).astype(object)
    aff_a = np.ones(n, dtype=object)
    aff_b = np.zeros(n, dtype=object)

    active = np.ones(n, dtype=bool)
    par = tree.parents.copy()
    last = ids.copy()
    nchild = tree.num_children().copy()
    only_child = np.full(n, _NONE, dtype=np.int64)
    single = nchild == 1
    if single.any():
        offsets, targets = tree.children_csr()
        only_child[single] = targets[offsets[:-1][single]]

    # frozen records of compressed-away vertices (written exactly once)
    pend = np.full(n, _NONE, dtype=np.int64)   # unresolved child at freeze
    frz_a = np.ones(n, dtype=object)           # frozen A_v slope
    frz_b = np.zeros(n, dtype=object)          # frozen A_v intercept

    def fam_mask(heads):
        m = np.zeros(n, dtype=bool)
        m[heads] = True
        return m

    def rep_hop(reps):
        far = reps[last[reps] != reps]
        if len(far):
            st.send(far, last[far])

    # =================== contraction ===================
    rounds = 0
    with st.machine.phase("expression_contract"):
        # fetched in the phase, so a lazy virtual-tree construction bills it
        bplan, rplan = family_plans(st, st.mode) if n > 1 else (None, None)
        while not bool(resolved[tree.root]):
            if rounds >= max_rounds:
                raise ConvergenceError(
                    f"expression contraction exceeded {max_rounds} rounds"
                )
            rounds += 1
            act = np.flatnonzero(active)
            coins = rng.random(size=n) < 0.5

            # (1) parents announce (branching, coin)
            parents_u = act[nchild[act] > 0]
            info = np.full(n, _NONE, dtype=np.int64)
            if len(parents_u):
                heads = last[parents_u]
                info[heads] = (nchild[parents_u] >= 2) * 2 + coins[parents_u]
                rep_hop(parents_u)
                received = info.copy()
                plan_broadcast(st.machine, bplan, family_edges(bplan, fam_mask(heads)), info, out=received)
            else:
                received = info

            # (2) COMPRESS viable unresolved unary vertices
            kids = act[par[act] >= 0]
            kids = kids[received[kids] != _NONE]
            if len(kids):
                branching = received[kids] // 2 == 1
                pcoin = received[kids] % 2
                viable = (~branching) & (nchild[kids] == 1) & (~resolved[kids])
                sel = kids[viable & (coins[kids] == 1) & (pcoin == 0)]
            else:
                sel = kids[:0]
            if len(sel):
                u = par[sel]
                st.send(sel, u)            # v hands its pending state to u
                child = only_child[sel]
                st.send(sel, child)        # v's child learns its new parent
                # freeze v's record: A_v and the pending child
                sa, sb = _apply_pending(aff_a[sel], aff_b[sel], cur_op[sel], P[sel])
                frz_a[sel] = sa
                frz_b[sel] = sb
                pend[sel] = child
                # u composes its own A with v's pending map and adopts
                # v's operator/aggregate/structure
                ua, ub = _apply_pending(aff_a[u], aff_b[u], cur_op[u], P[u])
                aff_a[u] = _mulmod(ua, aff_a[sel])
                aff_b[u] = _addmod(_mulmod(ua, aff_b[sel]), ub)
                cur_op[u] = cur_op[sel]
                P[u] = P[sel]
                last[u] = last[sel]
                only_child[u] = only_child[sel]
                par[child] = u
                active[sel] = False

            # (3) RAKE resolved children into their parents' aggregates
            act = np.flatnonzero(active)
            parents_u = act[nchild[act] > 0]
            if len(parents_u) == 0:
                continue
            heads = last[parents_u]
            sel = family_edges(rplan, fam_mask(heads))
            contributor = active & (par >= 0) & resolved
            parent_is_add = np.zeros(n, dtype=bool)
            okp = par >= 0
            # the monoid is the *parent supervertex's current* operator
            sv_op_at = np.full(n, OP_ADD, dtype=np.int64)
            sv_op_at[parents_u] = cur_op[parents_u]
            parent_is_add[okp] = sv_op_at[par[okp]] == OP_ADD
            add_vals = np.where(contributor & parent_is_add, value, 0).astype(object)
            mul_vals = np.where(contributor & ~parent_is_add, value, 1).astype(object)
            rep_hop(parents_u)
            sum_red = plan_reduce(st.machine, rplan, sel, add_vals, op=_addmod, identity=0)
            prod_red = plan_reduce(st.machine, rplan, sel, mul_vals, op=_mulmod, identity=1)
            cnt_red = plan_reduce(st.machine, rplan, sel, contributor.astype(np.int64), op=np.add)
            wit = plan_reduce(
                st.machine, rplan, sel, np.where(active & (par >= 0) & ~resolved, ids, _NONE),
                op=lambda a, b: np.where(a == _NONE, b, np.where(b == _NONE, a, -2)),
                identity=_NONE,
            )
            rep_hop_back = parents_u[last[parents_u] != parents_u]
            if len(rep_hop_back):
                st.send(last[rep_hop_back], rep_hop_back)
            h = last[parents_u]
            cnt = cnt_red[h]
            rakers = parents_u[cnt >= 1]
            if len(rakers) == 0:
                continue
            rh = last[rakers]
            w = wit[rh]
            # notify the family so raked children go inactive
            note = np.full(n, _NONE, dtype=np.int64)
            note[rh] = rakers
            rep_hop(rakers)
            plan_broadcast(st.machine, bplan, family_edges(bplan, fam_mask(rh)), note)
            raked = contributor & np.isin(par, rakers)
            add_r = cur_op[rakers] == OP_ADD
            P[rakers] = np.where(
                add_r,
                _addmod(P[rakers], sum_red[rh]),
                _mulmod(P[rakers], prod_red[rh]),
            )
            nchild[rakers] = nchild[rakers] - cnt_red[rh]
            done = rakers[nchild[rakers] == 0]
            if len(done):
                # no unresolved input remains: the supervertex value is the
                # pending map applied to the full aggregate, g(P) = a·P + b
                value[done] = _addmod(_mulmod(aff_a[done], P[done]), aff_b[done])
                resolved[done] = True
            new_single = nchild[rakers] == 1
            only_child[rakers] = np.where(new_single, np.where(w == -2, _NONE, w), _NONE)
            active[raked] = False

    # =================== fix-up: resolve compressed vertices ===========
    # value(v) = A_v(value(pend_v)) along frozen chains; pointer doubling
    # composes the affine relations in O(log n) rounds.
    with st.machine.phase("expression_fixup"):
        unresolved = np.flatnonzero(~resolved)
        guard = 0
        while len(unresolved):
            guard += 1
            if guard > 2 * ceil_log2(max(2, n)) + 4:
                raise ConvergenceError("expression fix-up exceeded its round cap")
            targets_now = pend[unresolved]
            ready = resolved[targets_now]
            if ready.any():
                v = unresolved[ready]
                t = targets_now[ready]
                st.send(t, v)  # pull the resolved value
                value[v] = _addmod(_mulmod(frz_a[v], value[t]), frz_b[v])
                resolved[v] = True
            hop = unresolved[~ready]
            if len(hop):
                t = pend[hop]
                st.send(t, hop)  # pull the target's frozen relation
                frz_a_h = _mulmod(frz_a[hop], frz_a[t])
                frz_b[hop] = _addmod(_mulmod(frz_a[hop], frz_b[t]), frz_b[hop])
                frz_a[hop] = frz_a_h
                pend[hop] = pend[t]
            unresolved = np.flatnonzero(~resolved)

    return value
