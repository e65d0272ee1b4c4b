"""Permutation routing and spatial sorting (paper §II-A).

* :func:`permute` — a global permutation: every processor sends its word
  directly to its destination. One message per word, depth 1, energy
  bounded by ``n * 2 * side = Θ(n^{3/2})``; the paper cites the matching
  ``Ω(n^{3/2})`` lower bound for worst-case permutations on a √n×√n grid.
* :func:`bitonic_sort` — Batcher's bitonic network over curve order:
  ``Θ(n^{3/2})`` energy and ``O(log² n)`` depth, matching the paper's
  "sorting takes Θ(n^{3/2}) energy and poly-logarithmic depth".

The paper's message kernels avoid sorting to reach near-linear energy.
The light-first layout pipeline (§IV) sorts once, to order children by
subtree size, and ends with a permutation, so both live here.

Engine coverage: all three entry points route their bulk data movement
through :meth:`~repro.machine.SpatialMachine.send_batch` /
:meth:`~repro.machine.SpatialMachine.send_plan`, so under
``engine="batched"`` the Θ(n^{3/2}) sort/permute pipeline runs fully
vectorized. Batcher's network depends only on ``(m, descending)`` (and the
lane count ``n`` fixed by the machine), so :func:`sort_network_plan`
precomputes its charged messages — real-lane endpoints, round offsets and
pre-gathered distances — once per size as a :class:`SortNetworkPlan`, and
:func:`charge_sort_network` sends it under either engine. The sort's
result comes from one stable host sort; the model charges messages, not
host arithmetic. ``tests/test_sort_network.py`` checks the plan against an
independent enumeration of the network's rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import cast

import numpy as np

from repro.contracts import cost_contract
from repro.errors import ValidationError
from repro.machine.machine import SpatialMachine
from repro.utils import as_index_array, check_in_range, next_power_of_two


@cost_contract(energy="sort_network_energy", depth="sort_network_depth", phase="permute", plan_safe=True)
def permute(machine: SpatialMachine, values: np.ndarray, destinations: np.ndarray) -> np.ndarray:
    """Send ``values[i]`` from processor ``i`` to processor ``destinations[i]``.

    ``destinations`` must be a permutation of ``0..n-1`` (every processor
    receives exactly one word, respecting the O(1) in/out degree of a
    round). Returns the received array: ``out[destinations[i]] = values[i]``.
    """
    values = np.asarray(values)
    dest = as_index_array(destinations, name="destinations")
    n = machine.n
    if values.shape != (n,) or dest.shape != (n,):
        raise ValidationError("permute needs one value and one destination per processor")
    check_in_range(dest, 0, n, name="destinations")
    counts = np.bincount(dest, minlength=n)
    if counts.max() != 1:
        raise ValidationError("destinations must form a permutation (duplicate target)")
    src = np.arange(n, dtype=np.int64)
    machine.send_batch(src, dest, values)
    out = np.empty_like(values)
    out[dest] = values
    return out


def scatter(machine: SpatialMachine, src_ids: np.ndarray, dst_ids: np.ndarray,
            values: np.ndarray | None = None) -> None:
    """Arbitrary point-to-point round (thin charged wrapper over the engine).

    Unlike :func:`permute` this allows partial sends; the caller is
    responsible for keeping per-processor message counts O(1) per round.
    """
    machine.send_batch(src_ids, dst_ids, values)


# --------------------------------------------------------------------- #
# cached sort-network plans
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SortNetworkPlan:
    """Precomputed charge of Batcher's bitonic network for one lane count.

    The network's compare-exchange structure is a pure function of
    ``(m, descending)``: round ``(k, j)`` pairs lane ``i`` with ``i ^ j``
    and compares ascending iff bit ``k`` of the lower lane is clear. The
    plan stores the network's messages: ``msg_src``/``msg_dst`` with
    pre-gathered per-message distances ``msg_dist`` and CSR round offsets
    ``msg_rounds``, two dependency rounds per network round (lower→upper,
    then upper→lower), restricted to exchanges whose both lanes are real
    processors (``< n``). A lane ``≥ n`` has no processor, so an exchange
    that touches one charges nothing.

    Each message round is EREW by construction (a lane sits in exactly one
    comparator per round), and consecutive rounds are mirrored pairs over
    the same endpoints, so the batched engine replays the whole plan with
    one :meth:`~repro.machine.SpatialMachine.send_plan` call whose paired
    clock kernel fuses each lower→upper/upper→lower pair into a single
    O(k) update.
    """

    m: int
    n: int
    descending: bool
    rounds: int
    msg_src: np.ndarray
    msg_dst: np.ndarray
    msg_dist: np.ndarray
    msg_rounds: np.ndarray

    @property
    def messages(self) -> int:
        """Total charged messages of one full network replay."""
        return int(len(self.msg_src))


def sort_network_plan(machine: SpatialMachine, *, descending: bool = False) -> SortNetworkPlan:
    """The machine's cached :class:`SortNetworkPlan` for its lane count.

    Built on first use and memoized in the machine's plan cache under
    ``("sort_network", m, descending)`` — a second sort of the same size
    (and direction) skips network construction entirely and replays the
    cached structure. The cache survives :meth:`SpatialMachine.reset_costs`
    (plans depend only on the placement, which reset keeps).
    """
    m = next_power_of_two(machine.n)
    key = ("sort_network", m, descending)
    plan = machine.plan_cache.lookup(key)
    if plan is None:
        wp = machine.wall_profiler
        t0 = wp.clock() if wp is not None else 0
        plan = _build_sort_network_plan(machine, m, descending)
        machine.plan_cache[key] = plan
        if wp is not None:
            wp.rec("plan_build.sort_network", wp.clock() - t0, messages=plan.messages)
            wp.alloc(
                "plan.sort_network",
                plan.msg_src.nbytes + plan.msg_dst.nbytes
                + plan.msg_dist.nbytes + plan.msg_rounds.nbytes,
            )
    return cast(SortNetworkPlan, plan)


def _build_sort_network_plan(machine: SpatialMachine, m: int, descending: bool) -> SortNetworkPlan:
    """Materialize the full round structure (see :class:`SortNetworkPlan`)."""
    n = machine.n
    i = np.arange(m, dtype=np.int64)
    msg_src: list[np.ndarray] = []
    msg_dst: list[np.ndarray] = []
    msg_dist: list[np.ndarray] = []
    msg_sizes: list[int] = []
    rounds = 0
    k = 2
    while k <= m:
        j = k // 2
        while j >= 1:
            rounds += 1
            lo = i[(i & j) == 0]  # lower lane of each comparator (i < i ^ j)
            hi = lo | j
            # charge only exchanges where both lanes are real processors;
            # lo < hi, so the upper lane decides
            rl, rh = (lo, hi) if n == m else (lo[hi < n], hi[hi < n])
            if len(rl):
                d = machine.manhattan(rl, rh)
                msg_src.extend((rl, rh))
                msg_dst.extend((rh, rl))
                msg_dist.extend((d, d))
                msg_sizes.extend((len(rl), len(rl)))
            j //= 2
        k *= 2
    empty = np.empty(0, dtype=np.int64)
    return SortNetworkPlan(
        m=m,
        n=n,
        descending=descending,
        rounds=rounds,
        msg_src=np.concatenate(msg_src) if msg_src else empty,
        msg_dst=np.concatenate(msg_dst) if msg_dst else empty,
        msg_dist=np.concatenate(msg_dist) if msg_dist else empty,
        msg_rounds=np.concatenate([[0], np.cumsum(msg_sizes)]).astype(np.int64),
    )


def charge_sort_network(machine: SpatialMachine, *, descending: bool = False) -> SortNetworkPlan:
    """Charge one full pass of Batcher's network and return its plan.

    Sends the machine's cached :class:`SortNetworkPlan` through one
    :meth:`~repro.machine.SpatialMachine.send_plan`: the batched engine
    replays it with the paired clock kernel, the scalar engine falls back
    to one validated :meth:`~repro.machine.SpatialMachine.send` per round.
    The messages carry no payload, since accounting never depends on it.
    The ``plan_ref`` lets a workload-plan recorder store this send as a
    reference into the plan cache instead of materializing the
    Θ(n log² n)-message arrays into the artifact.
    """
    plan = sort_network_plan(machine, descending=descending)
    if plan.messages:
        machine.send_plan(
            plan.msg_src,
            plan.msg_dst,
            None,
            rounds=plan.msg_rounds,
            dist=plan.msg_dist,
            exclusive=True,
            paired=True,
            plan_ref=("sort_network", plan.m, plan.descending),
        )
    return plan


@cost_contract(energy="sort_network_energy", depth="sort_network_depth", phase="bitonic_sort", plan_safe=True)
def bitonic_sort(
    machine: SpatialMachine,
    keys: np.ndarray,
    payload: np.ndarray | None = None,
    *,
    descending: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Sort ``keys`` (with optional ``payload`` rows) across processors.

    Batcher's bitonic sorting network executed over curve-index space.
    Every compare-exchange is two messages between the partners, so the
    measured energy is ``Θ(n^{3/2})`` and the depth ``O(log² n)``. A
    non-power-of-two size runs the network on the next power of two; a
    lane ``≥ n`` has no processor, so an exchange that touches one charges
    nothing.

    The model bills the network's messages, not its host arithmetic, so
    the network is charged by :func:`charge_sort_network` (one call on
    either engine) and the result comes from one stable host sort. Ties
    keep their input order, ascending and descending, and each ``payload``
    row follows its key. The sorted keys are those any sorting network
    outputs.
    """
    keys = np.asarray(keys)
    n = machine.n
    if keys.shape != (n,):
        raise ValidationError(f"keys must be one word per processor, got {keys.shape}")
    if payload is not None:
        payload = np.asarray(payload)
        if payload.shape[0] != n:
            raise ValidationError("payload must have one row per processor")
    if not np.issubdtype(keys.dtype, np.integer):
        raise ValidationError("bitonic_sort sorts integer keys (the library's use case)")
    charge_sort_network(machine, descending=descending)
    if descending:
        # a stable ascending sort of the reversed keys, read backwards, is
        # descending with ties in input order (negation would overflow)
        order = (n - 1 - np.argsort(keys[::-1], kind="stable"))[::-1]
    else:
        order = np.argsort(keys, kind="stable")
    return keys[order], None if payload is None else payload[order]
