"""Foundational spatial collectives (paper §II-A).

Broadcast, reduce, all-reduce, and parallel prefix sum with the bounds the
paper quotes: **O(n) energy and O(log n) depth** (the scan is O(log n) here
rather than generic poly-log because the tree is laid out along the
machine's space-filling curve).

All collectives run over a *doubling tree in curve-index space*: at level
``k`` partners are ``2^k`` apart in curve order, hence ``O(sqrt(2^k))``
apart on the grid, so level energy is ``n / 2^k * O(sqrt(2^k))`` and the
geometric series sums to O(n). This is exactly why the machine places
processors along a distance-bound curve.

The scan is a Blelloch up/down-sweep in *right-edge* layout (partial sums
live at the last index of their block) so every processor stores O(1)
words; non-power-of-two sizes use the last real index of a block as a
surrogate right edge, which only shortens messages.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import cast

import numpy as np

from repro.errors import ValidationError
from repro.machine.machine import SpatialMachine

Op = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _check_values(machine: SpatialMachine, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != (machine.n,):
        raise ValidationError(
            f"collective values must be one word per processor ({machine.n}), "
            f"got shape {values.shape}"
        )
    return values.copy()


def _tree_levels(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The doubling tree's levels over ``n`` processors, leaves first.

    Level ``k`` pairs the right edge of every full left half of size
    ``2^k`` (``left``) with its block's surrogate right edge (``right``).
    The up-sweep sends ``left -> right`` level by level; the down-sweeps
    walk the levels in reverse. Each level is EREW: its lefts are distinct,
    its rights are distinct, and no processor is both.
    """
    levels: list[tuple[np.ndarray, np.ndarray]] = []
    half = 1
    while half < n:
        b = 2 * half
        starts = np.arange(0, n - half, b, dtype=np.int64)
        levels.append((starts + half - 1, np.minimum(starts + b - 1, n - 1)))
        half = b
    return levels


def _upsweep(machine: SpatialMachine, acc: np.ndarray, op: Op) -> None:
    """Fold block sums to surrogate right edges; leaves left-half sums intact."""
    for left, right in _tree_levels(machine.n):
        machine.send_batch(left, right, acc[left])
        acc[right] = op(acc[left], acc[right])


def reduce(machine: SpatialMachine, values: np.ndarray, *, op: Op = np.add, root: int = 0) -> np.generic:
    """Reduce ``values`` with ``op``; the scalar result ends at ``root``.

    O(n) energy, O(log n) depth (§II-A). Returns the reduced scalar.
    """
    acc = _check_values(machine, values)
    _upsweep(machine, acc, op)
    total = acc[machine.n - 1]
    if root != machine.n - 1:
        machine.send_batch(machine.n - 1, root, total)
    return total


def broadcast(machine: SpatialMachine, value: int | np.generic, *, root: int = 0) -> np.ndarray:
    """Broadcast a scalar from ``root`` to every processor.

    O(n) energy, O(log n) depth (§II-A). Returns the length-``n`` array of
    received copies.
    """
    n = machine.n
    if not 0 <= root < n:
        raise ValidationError(f"root must be a processor id in [0, {n})")
    out = np.full(n, value)
    if n == 1:
        return out
    if root != n - 1:
        machine.send_batch(root, n - 1, value)
    # Downsweep of the reduce tree: each surrogate right edge forwards the
    # value to the right edge of its block's left half. Level k moves
    # n / 2^k messages of curve gap <= 2^k, i.e. O(sqrt(2^k)) grid distance,
    # so the level energies form a geometric O(n) series.
    for left, right in reversed(_tree_levels(n)):
        machine.send_batch(right, left, out[right])
    return out


def allreduce(machine: SpatialMachine, values: np.ndarray, *, op: Op = np.add) -> np.ndarray:
    """Reduce then broadcast: every processor ends with the total.

    O(n) energy, O(log n) depth (§II-A: "an all-reduce ... has the same
    energy and depth bounds").
    """
    total = reduce(machine, values, op=op, root=0)
    return broadcast(machine, total, root=0)


def exclusive_scan(machine: SpatialMachine, values: np.ndarray, *, op: Op = np.add, identity: int = 0) -> np.ndarray:
    """Exclusive parallel prefix: ``out[i] = values[0] ⊕ ... ⊕ values[i-1]``.

    Blelloch two-sweep scan over the curve-order doubling tree:
    O(n) energy, O(log n) depth.
    """
    acc = _check_values(machine, values)
    n = machine.n
    if n == 1:
        acc[0] = identity
        return acc
    _upsweep(machine, acc, op)
    # downsweep: replace the total with the identity, then push exclusive
    # prefixes down; left-half sums were preserved at left edges.
    acc[n - 1] = identity
    for left, right in reversed(_tree_levels(n)):
        # swap-and-combine: left gets the block prefix, right gets
        # block-prefix ⊕ left-half-sum (two dependency rounds, batched)
        k = len(left)
        machine.send_batch(
            np.concatenate([right, left]),
            np.concatenate([left, right]),
            np.concatenate([acc[right], acc[left]]),
            rounds=np.array([0, k, 2 * k]),
        )
        block_prefix = acc[right].copy()
        left_sum = acc[left].copy()
        acc[left] = block_prefix
        acc[right] = op(block_prefix, left_sum)
    return acc


def inclusive_scan(machine: SpatialMachine, values: np.ndarray, *, op: Op = np.add, identity: int = 0) -> np.ndarray:
    """Inclusive parallel prefix: ``out[i] = values[0] ⊕ ... ⊕ values[i]``."""
    values = np.asarray(values)
    ex = exclusive_scan(machine, values, op=op, identity=identity)
    return op(ex, values)


def _barrier_plan(machine: SpatialMachine) -> tuple[np.ndarray, ...]:
    """The machine's cached all-reduce rounds: ``(src, dst, dist, rounds)``.

    Exactly the rounds :func:`allreduce` sends with ``root=0``: the
    up-sweep, the hop from the surrogate root ``n - 1`` to processor 0
    and back, then the down-sweep — every round EREW and every message
    remote. Memoized under ``("barrier", n)`` with pre-gathered distances;
    the plan depends only on the placement, which the machine never
    changes.
    """
    key = ("barrier", machine.n)
    plan = machine.plan_cache.lookup(key)
    if plan is None:
        n = machine.n
        levels = _tree_levels(n)
        last = np.array([n - 1], dtype=np.int64)
        first = np.array([0], dtype=np.int64)
        down = [(right, left) for left, right in reversed(levels)]
        hops = [*levels, (last, first), (first, last), *down]
        src = np.concatenate([s for s, _ in hops])
        dst = np.concatenate([d for _, d in hops])
        rounds = np.concatenate([[0], np.cumsum([len(s) for s, _ in hops])])
        plan = (src, dst, machine.manhattan(src, dst), rounds.astype(np.int64))
        machine.plan_cache[key] = plan
    return cast("tuple[np.ndarray, ...]", plan)


def barrier(machine: SpatialMachine) -> None:
    """Global synchronization (paper §VI-C): an all-reduce of a token.

    After the barrier every processor's dependency clock is at least the
    pre-barrier maximum, so later messages from any processor are ordered
    after everything before the barrier. O(n) energy, O(log n) depth.

    The token carries no information, so only the all-reduce's message
    schedule matters: it is replayed from the machine's plan cache as one
    :meth:`~repro.machine.SpatialMachine.send_plan` (``exclusive=True``),
    charging exactly what ``allreduce(machine, zeros)`` charges.
    """
    if machine.n > 1:
        src, dst, dist, rounds = _barrier_plan(machine)
        machine.send_plan(src, dst, rounds=rounds, dist=dist, exclusive=True)
    # the broadcast already raised every clock to the root's chain; make the
    # semantics explicit and exact:
    machine.clock[:] = machine.clock.max()
