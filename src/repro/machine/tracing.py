"""Message tracing and congestion analysis.

§II-A motivates energy as a proxy for routing cost: "longer distances ...
indicate potential congestion". This instrumentation makes that proxy
inspectable: a :class:`CongestionTracer` attached to a machine accumulates,
per grid cell, how many messages traverse it under deterministic
**XY (dimension-order) routing** — horizontal leg first, then vertical —
the routing used by mesh NoCs like the WSE's.

Each message touches its L1 distance + 1 cells, so the total traversal
count is Σ L1 + messages. Under the default ``metric="manhattan"`` that is
energy + messages, and the heatmap is a spatial decomposition of the energy
term. Under ``metric="chebyshev"`` energy charges L∞, so traversals exceed
energy + messages by every message's shorter leg. :func:`render_heatmap`
draws the grid as ASCII for the examples.

Consumers: the CLI's ``--report`` path attaches a tracer for the report's
max-load figure, ``repro profile`` feeds it into the profile bundle, and
the live telemetry layer (``repro.telemetry``) exposes its figures on a
running machine — ``TelemetrySession(congestion=True)`` attaches one and
every ``/metrics`` scrape publishes ``repro_congestion_*`` from it.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine.machine import SpatialMachine


class CongestionTracer:
    """Accumulates per-cell traversal counts under XY routing.

    :meth:`record` only appends coordinates to a buffer of
    :attr:`CAPACITY` messages, so an observed step costs O(messages). A
    *fold* turns the buffered legs into one pair of difference arrays with
    ``np.bincount`` and adds their prefix sums into :attr:`load`: one
    O(side²) pass per :attr:`CAPACITY` messages instead of one per step.
    It runs when a record would overflow the buffer, directly on a record
    larger than the buffer, and on every read of :attr:`load`,
    :attr:`max_load` or :attr:`total_traversals`, so readers always see the
    exact grid.

    One lock guards appending, folding and reading: the telemetry server
    reads from its own thread while the simulation records, and either side
    waits at most one fold.
    """

    #: messages buffered between folds (int32 coordinates)
    CAPACITY = 1 << 14

    def __init__(self, side: int) -> None:
        if side < 1:
            raise ValidationError(f"side must be >= 1, got {side}")
        self.side = int(side)
        self._load = np.zeros((self.side, self.side), dtype=np.int64)
        # rows xs, ys, xd, yd of the messages not folded yet
        self._pending = np.empty((4, self.CAPACITY), dtype=np.int32)
        self._fill = 0
        self._lock = threading.Lock()
        self.messages = 0

    def record(self, xs: np.ndarray, ys: np.ndarray, xd: np.ndarray, yd: np.ndarray) -> None:
        """Record messages from (xs, ys) to (xd, yd) (vectorized).

        Each message's XY path is: walk along the row ``ys`` from ``xs`` to
        ``xd``, then along the column ``xd`` from ``ys`` to ``yd``. Every
        visited cell's load increments (endpoints included once).

        :attr:`messages` counts the batch at once; its cells reach
        :attr:`load` at the next fold. A fold that finds a coordinate
        outside ``[0, side)`` raises :class:`ValidationError`, drops the
        messages it was given and leaves :attr:`load` as it was.
        """
        k = len(xs)
        with self._lock:
            if k > self.CAPACITY:
                self._fold((xs, ys, xd, yd))
            elif k:
                if self._fill + k > self.CAPACITY:
                    self._flush()
                legs = self._pending[:, self._fill : self._fill + k]
                legs[0], legs[1], legs[2], legs[3] = xs, ys, xd, yd
                self._fill += k
            self.messages += k

    def _flush(self) -> None:
        """Fold the buffered messages (the caller holds the lock)."""
        fill, self._fill = self._fill, 0
        if fill:
            self._fold(self._pending[:, :fill])

    def _fold(self, legs) -> None:
        """Add the XY paths of ``legs`` (rows xs, ys, xd, yd) into the grid."""
        side = self.side
        legs = np.asarray(legs, dtype=np.intp)
        lo, hi = int(legs.min()), int(legs.max())
        if lo < 0 or hi >= side:
            raise ValidationError(
                f"message coordinates span [{lo}, {hi}], outside the "
                f"{side}x{side} grid"
            )
        xs, ys, xd, yd = legs
        # Both legs as difference arrays over one flat index space of rows
        # of width side + 1: the horizontal leg covers row ys, columns
        # [min(xs,xd), max(xs,xd)]; the vertical leg covers column xd, rows
        # (ys, yd] or [yd, ys), i.e. [min + down, max + down) — the turn
        # cell (xd, ys) belongs to the horizontal leg, and a message with
        # ys == yd adds +1 and -1 at one slot. Vertical legs are stored
        # transposed ([x, y]) so both halves prefix-sum along their rows.
        w = side + 1
        half = side * w
        down = yd > ys
        starts = np.concatenate(
            (ys * w + np.minimum(xs, xd), half + xd * w + np.minimum(ys, yd) + down)
        )
        ends = np.concatenate(
            (ys * w + np.maximum(xs, xd) + 1, half + xd * w + np.maximum(ys, yd) + down)
        )
        diff = np.bincount(starts, minlength=2 * half)
        diff -= np.bincount(ends, minlength=2 * half)
        # every +1 has its -1 in the same row, so each row's running sum
        # starts at zero and one flat prefix sum is the per-row one
        np.cumsum(diff, out=diff)
        rows, cols = diff.reshape(2, side, w)[:, :, :side]
        self._load += rows
        self._load += cols.T

    @property
    def load(self) -> np.ndarray:
        """The ``(side, side)`` int64 traversal grid, indexed ``[y, x]``.

        Reading it folds the buffer; it is the same writable array on every
        read.
        """
        with self._lock:
            self._flush()
        return self._load

    @property
    def total_traversals(self) -> int:
        with self._lock:
            self._flush()
            return int(self._load.sum())

    @property
    def max_load(self) -> int:
        """The hottest cell's traversal count — the congestion figure."""
        with self._lock:
            self._flush()
            return int(self._load.max())

    def reset(self) -> None:
        """Zero the grid and the message count, dropping buffered messages."""
        with self._lock:
            self._load[:] = 0
            self._fill = 0
            self.messages = 0


def attach_tracer(machine: SpatialMachine) -> CongestionTracer:
    """Attach a fresh tracer to a machine; subsequent sends are recorded."""
    tracer = CongestionTracer(machine.side)
    machine.tracer = tracer
    return tracer


def render_heatmap(tracer: CongestionTracer, *, levels: str = " .:-=+*#%@") -> str:
    """ASCII heatmap of the load grid (max-normalized)."""
    load = tracer.load
    peak = load.max()
    if peak == 0:
        return "\n".join(" " * tracer.side for _ in range(tracer.side))
    idx = (load * (len(levels) - 1) // max(1, peak)).astype(int)
    return "\n".join("".join(levels[i] for i in row) for row in idx)
