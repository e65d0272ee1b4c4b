"""The spatial computer (paper §II-A) as a deterministic simulator.

A :class:`SpatialMachine` is a ``side × side`` grid holding ``n`` logical
processors, placed on the grid along a space-filling curve (processor ``i``
sits at the curve's ``i``-th cell — the layouts of §III then reduce to
choosing *which vertex is processor i*). It executes *bulk message steps*:
a vectorized ``send`` moves one value per (src, dst) pair, charging

* energy = Σ Manhattan(src, dst) to the ledger, and
* depth via per-processor dependency clocks (see
  :mod:`repro.machine.ledger`).

The simulator is a measurement instrument: it computes the model's cost
terms exactly while the payload arithmetic runs as ordinary numpy. Python
never parallelises anything — it doesn't need to, because energy and depth
are schedule-independent properties of the message DAG.

Observability is uniform: every charged bulk send emits exactly one
:class:`~repro.machine.instrumentation.StepEvent` to the attached
:class:`~repro.machine.instrumentation.Instrument` subscribers. The cost
ledger and the congestion tracer are themselves instruments; reports and
trace exporters (:mod:`repro.analysis.report`) are just more subscribers.
"""

from __future__ import annotations

import warnings
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.curves import resolve_curve
from repro.errors import MachineStateError, ValidationError
from repro.machine.instrumentation import (
    Instrument,
    LedgerInstrument,
    StepEvent,
    TracerInstrument,
)
from repro.machine.ledger import CostLedger, PhaseCost
from repro.machine.registers import DEFAULT_BUDGET, RegisterFile
from repro.machine.wallclock import NULL_SCOPE, KernelWallProfiler
from repro.utils import as_index_array, check_in_range

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.curves.base import SpaceFillingCurve
    from repro.machine.tracing import CongestionTracer


@dataclass(frozen=True)
class ClockAdvance:
    """Result of one bulk-step clock update (see :func:`advance_clocks`)."""

    src_count: int
    dst_count: int
    max_clock: int


def advance_clocks(clock: np.ndarray, src: np.ndarray, dst: np.ndarray) -> ClockAdvance:
    """Advance per-processor dependency clocks for one bulk step, in place.

    This is the machine's 1-port depth model as a pure function of
    ``(clock, src, dst)`` so it can be *replayed* — the determinism
    sanitizer re-runs it under permuted delivery orders and asserts the
    resulting clock state is identical (energy and depth must be
    schedule-independent properties of the message DAG).

    Sends serialize: a processor's k-th send in the step departs at
    ``clock + k`` and its clock advances by its send count. Receives
    serialize too: processing incoming chains ``m_1 <= .. <= m_k`` from
    start clock ``t0`` gives ``t_i = max(t_{i-1} + 1, m_i)``, i.e.
    ``t_k = max(t0 + k, max_i(m_i + k - i))``.
    """
    order = np.argsort(src, kind="stable")
    sorted_src = src[order]
    boundaries = np.flatnonzero(np.diff(sorted_src)) + 1
    group_starts = np.concatenate([[0], boundaries])
    group_lens = np.diff(np.concatenate([group_starts, [len(sorted_src)]]))
    occ_sorted = np.arange(len(sorted_src)) - np.repeat(group_starts, group_lens)
    occ = np.empty(len(src), dtype=np.int64)
    occ[order] = occ_sorted
    chain = clock[src] + occ + 1
    np.add.at(clock, src, 1)
    rorder = np.lexsort((chain, dst))
    rd_s = dst[rorder]
    m_s = chain[rorder]
    rb = np.flatnonzero(np.diff(rd_s)) + 1
    rstarts = np.concatenate([[0], rb])
    rlens = np.diff(np.concatenate([rstarts, [len(rd_s)]]))
    pos_in_group = np.arange(len(rd_s)) - np.repeat(rstarts, rlens)
    remaining = np.repeat(rlens, rlens) - 1 - pos_in_group  # k - i (0-based)
    vals_adj = m_s + remaining
    group_max = np.maximum.reduceat(vals_adj, rstarts)
    dst_unique = rd_s[rstarts]
    clock[dst_unique] = np.maximum(clock[dst_unique] + rlens, group_max)
    return ClockAdvance(
        src_count=int(len(group_starts)),
        dst_count=int(len(dst_unique)),
        max_clock=max(int(clock[src].max()), int(clock[dst_unique].max())),
    )


@dataclass(frozen=True)
class BatchClockAdvance:
    """Result of a multi-round batched clock update (:func:`advance_clocks_batch`)."""

    rounds: int
    max_clock: int


def _advance_round(
    clock: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    scratch: np.ndarray,
    ar: np.ndarray,
) -> int:
    """Advance clocks for one dependency round of remote messages, in place.

    Computes exactly what :func:`advance_clocks` computes (same integer
    recurrences, hence bit-identical clock state) but takes O(k) fast paths
    when the round's senders and/or receivers are pairwise distinct or
    occur at most twice — the overwhelmingly common cases for the tree and
    list kernels. One first-write-wins stamp into ``scratch``
    (``scratch[ids[::-1]] = ar[::-1]``) yields each message's
    first-occurrence position, which answers both probes at once: all ids
    are distinct iff every position reads back its own stamp, and otherwise
    the non-first occurrences carry occurrence index 1 — valid as a
    pairwise round iff they are themselves distinct. Only entries written
    in this call are read back, so stale scratch contents (from earlier
    rounds or batches) are harmless.

    ``ar`` must be ``np.arange(len(src))`` (callers pass a slice of a cached
    buffer). Returns the max clock among the endpoints touched this round.
    """
    k = len(src)
    scratch[src[::-1]] = ar[::-1]
    occ = scratch[src] != ar
    if not occ.any():
        # distinct senders: every message is its sender's only send
        chain = clock[src] + 1
        clock[src] = chain
        fast_send = True
    else:
        # pairwise path: each sender sends at most twice (the degree-≤4
        # virtual tree's relay rounds); occurrence indices are then 0/1,
        # valid iff the later occurrences are themselves distinct
        later = src[occ]
        scratch[later] = ar[occ]
        if np.array_equal(scratch[later], ar[occ]):
            chain = clock[src] + occ + 1
            clock[src[~occ]] += 1
            clock[later] += 1
            # a sender's final clock equals the chain of its last message,
            # so chain.max() covers the senders (as in the distinct case)
            fast_send = True
        else:
            # reference send recurrence (occurrence index per sender)
            order = np.argsort(src, kind="stable")
            sorted_src = src[order]
            boundaries = np.flatnonzero(np.diff(sorted_src)) + 1
            group_starts = np.concatenate([[0], boundaries])
            group_lens = np.diff(np.concatenate([group_starts, [k]]))
            occ_sorted = ar - np.repeat(group_starts, group_lens)
            occ_full = np.empty(k, dtype=np.int64)
            occ_full[order] = occ_sorted
            chain = clock[src] + occ_full + 1
            clock[sorted_src[group_starts]] += group_lens
            fast_send = False
    scratch[dst[::-1]] = ar[::-1]
    firstpos = scratch[dst]  # first-occurrence position per message
    docc = firstpos != ar
    if not docc.any():
        # distinct receivers: each receives exactly one message
        upd = np.maximum(clock[dst] + 1, chain)
        clock[dst] = upd
        dst_max = int(upd.max())
    else:
        dlater = dst[docc]
        scratch[dlater] = ar[docc]
        if np.array_equal(scratch[dlater], ar[docc]):
            # each receiver gets at most two messages: serialize the pair
            # by chain order — arrivals max(c_min+1, c_max) on top of the
            # two mandatory receive slots
            pair_first = firstpos[docc]
            c2 = chain[docc]
            c1 = chain[pair_first]
            gmax = np.maximum(np.minimum(c1, c2) + 1, np.maximum(c1, c2))
            upd2 = np.maximum(clock[dlater] + 2, gmax)
            clock[dlater] = upd2
            single = ~docc
            single[pair_first] = False
            sd = dst[single]
            dst_max = int(upd2.max())
            if len(sd):
                upd1 = np.maximum(clock[sd] + 1, chain[single])
                clock[sd] = upd1
                dst_max = max(dst_max, int(upd1.max()))
        else:
            # reference receive recurrence (serialized arrival processing)
            rorder = np.lexsort((chain, dst))
            rd_s = dst[rorder]
            m_s = chain[rorder]
            rb = np.flatnonzero(np.diff(rd_s)) + 1
            rstarts = np.concatenate([[0], rb])
            rlens = np.diff(np.concatenate([rstarts, [k]]))
            pos_in_group = ar - np.repeat(rstarts, rlens)
            remaining = np.repeat(rlens, rlens) - 1 - pos_in_group
            vals_adj = m_s + remaining
            group_max = np.maximum.reduceat(vals_adj, rstarts)
            dst_unique = rd_s[rstarts]
            clock[dst_unique] = np.maximum(clock[dst_unique] + rlens, group_max)
            dst_max = int(clock[dst_unique].max())
    if fast_send:
        # receives only raise entries also present in dst (covered by
        # dst_max); chain covers the senders untouched by receives
        return max(int(chain.max()), dst_max)
    return max(int(clock[src].max()), dst_max)


#: Rounds at or below this size take the pure-Python `_advance_round_small`
#: path — numpy's per-call overhead (~20 vector ops) dominates tiny rounds.
_SMALL_ROUND = 16


def _advance_round_small(clock: np.ndarray, src: np.ndarray, dst: np.ndarray) -> int:
    """Replay of the :func:`_advance_round` recurrences for tiny rounds.

    Bit-identical to the vectorized path (same integer recurrences per
    sender-occurrence and per sorted receive group) but runs in plain
    Python, which is faster below roughly 20 messages.
    """
    occ_count: dict[int, int] = {}
    chain: list[int] = []
    for s in src.tolist():
        o = occ_count.get(s, 0)
        occ_count[s] = o + 1
        chain.append(int(clock[s]) + o + 1)
    for s, c in occ_count.items():
        clock[s] += c
    groups: dict[int, list[int]] = {}
    for d, m in zip(dst.tolist(), chain):
        groups.setdefault(d, []).append(m)
    dst_max = 0
    for d, ms in groups.items():
        ms.sort()
        last = len(ms) - 1
        gmax = max(m + last - j for j, m in enumerate(ms))
        upd = max(int(clock[d]) + len(ms), gmax)
        clock[d] = upd
        if upd > dst_max:
            dst_max = upd
    smax = max(int(clock[s]) for s in occ_count)
    return max(smax, dst_max)


def _advance_round_exclusive(
    clock: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> int:
    """:func:`_advance_round` when senders and receivers are each pairwise
    distinct — the statically-known EREW shape of cached plan rounds and
    the treefix frontier hops. Same recurrences, no distinctness probing.
    """
    chain = clock[src] + 1
    clock[src] = chain
    upd = np.maximum(clock[dst] + 1, chain)
    clock[dst] = upd
    return max(int(chain.max()), int(upd.max()))


def _advance_rounds_paired(clock: np.ndarray, src: np.ndarray, dst: np.ndarray) -> int:
    """Two consecutive EREW rounds — ``src→dst`` then ``dst→src`` over the
    *same* pairs — fused into one update (the compare-exchange shape of the
    cached sort-network plans).

    Bit-identity with running :func:`_advance_round_exclusive` twice: with
    pair clocks ``(a, b)``, the first round leaves ``(a+1, max(a, b) + 1)``
    and the second leaves both endpoints at ``M = max(a, b) + 2``, which
    also dominates every intermediate value — so the fused update writes
    ``M`` to both sides and returns ``max(M)``.
    """
    m = np.maximum(clock[src], clock[dst])
    m += 2
    clock[src] = m
    clock[dst] = m
    return int(m.max())


def _advance_round_occ(
    clock: np.ndarray, src: np.ndarray, dst: np.ndarray, occ: np.ndarray
) -> int:
    """:func:`_advance_round` when receivers are pairwise distinct and the
    senders' occurrence indices (0/1, multiplicity at most two) are known
    statically — the virtual broadcast plan's relay rounds, where a sender
    forwards to at most its two appended children. Same recurrences.
    """
    chain = clock[src] + occ + 1
    first = occ == 0
    clock[src[first]] += 1  # collision-free: first occurrences are distinct
    clock[src[~first]] += 1
    upd = np.maximum(clock[dst] + 1, chain)
    clock[dst] = upd
    # a sender's final clock equals the chain of its last message
    return max(int(chain.max()), int(upd.max()))


def advance_clocks_batch(
    clock: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    offsets: np.ndarray,
    scratch: np.ndarray,
    ar: np.ndarray,
    *,
    exclusive: bool = False,
    src_occ: np.ndarray | None = None,
    paired: bool = False,
) -> BatchClockAdvance:
    """Advance clocks for a batch of dependency rounds, in place.

    ``offsets`` are CSR-style round boundaries ``[0, ..., len(src)]``:
    messages ``offsets[r]:offsets[r+1]`` form round ``r``, and round
    ``r+1``'s chains are computed against the clock state left by round
    ``r`` — exactly as if each round were its own :meth:`SpatialMachine.send`
    call. ``scratch`` is an n-sized int64 work array; ``ar`` must cover
    ``np.arange`` of the largest round (see :func:`_advance_round`).
    ``exclusive`` asserts every round is EREW (distinct senders, distinct
    receivers); ``src_occ`` instead asserts distinct receivers plus known
    sender occurrence indices (multiplicity ≤ 2); ``paired`` asserts the
    rounds come in mirrored EREW pairs — round ``2r+1`` is round ``2r``
    with src/dst exchanged, over the same index sets — letting consecutive
    round pairs fuse into one :func:`_advance_rounds_paired` update. All
    three are caller-trusted static properties of cached message plans.
    """
    max_clock = 0
    rounds = 0
    if paired:
        for i in range(0, len(offsets) - 1, 2):
            a, b = int(offsets[i]), int(offsets[i + 1])
            if b <= a:
                continue
            rounds += 2
            m = _advance_rounds_paired(clock, src[a:b], dst[a:b])
            if m > max_clock:
                max_clock = m
        return BatchClockAdvance(rounds=rounds, max_clock=max_clock)
    for i in range(len(offsets) - 1):
        a, b = int(offsets[i]), int(offsets[i + 1])
        if b <= a:
            continue
        rounds += 1
        if b - a <= _SMALL_ROUND:
            m = _advance_round_small(clock, src[a:b], dst[a:b])
        elif exclusive:
            m = _advance_round_exclusive(clock, src[a:b], dst[a:b])
        elif src_occ is not None:
            m = _advance_round_occ(clock, src[a:b], dst[a:b], src_occ[a:b])
        else:
            m = _advance_round(clock, src[a:b], dst[a:b], scratch, ar[: b - a])
        if m > max_clock:
            max_clock = m
    return BatchClockAdvance(rounds=rounds, max_clock=max_clock)


def ran_general_kernel(event: StepEvent) -> bool:
    """Whether the batched engine ran some round of ``event`` through
    :func:`_advance_round`: an unhinted batch with a round longer than
    ``_SMALL_ROUND`` messages (see :func:`advance_clocks_batch`)."""
    rounds = event.rounds
    return rounds is not None and event.hint is None and bool((np.diff(rounds) > _SMALL_ROUND).any())


class PlanRecorderHook(Protocol):
    """What the machine needs from an attached workload-plan recorder.

    The concrete implementation lives in :mod:`repro.plans.recorder`; the
    machine only ever calls these three hooks, keeping the dependency
    pointing from ``repro.plans`` to ``repro.machine`` and not back. The
    recorder is *not* an :class:`Instrument`: recording must capture the
    trusted-plan flags (``exclusive``/``src_occ``/``paired``) and survive
    the batched engine's ledger-only fast path, neither of which the
    :class:`StepEvent` stream carries.
    """

    def on_machine_step(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        rounds: np.ndarray | None,
        dist: np.ndarray,
        *,
        exclusive: bool,
        src_occ: np.ndarray | None,
        paired: bool,
        combiner: str | None,
        plan_ref: tuple[object, ...] | None,
    ) -> None: ...

    def on_phase_enter(self, name: str) -> None: ...

    def on_phase_exit(self, name: str) -> None: ...


#: sentinel distinguishing a stored ``None`` plan from a cache miss
_PLAN_MISS = object()


class PlanCache(dict):
    """The machine's memoized-plan store, with hit/miss accounting.

    A plain ``dict`` plus per-family counters: a :meth:`lookup` is
    classified as a hit or a miss under the plan *family* — the first
    element of a tuple key (``("sort_network", m, desc)`` → family
    ``"sort_network"``), or the key itself for string keys. Consumers
    that memoize plans elsewhere (e.g. batched messaging's
    tree-attribute plans) can report their lookups with :meth:`count`
    so one surface covers every plan cache. ``repro_plan_cache_*``
    metrics expose the counters
    (:func:`repro.analysis.metrics.publish_plan_cache`).
    """

    def __init__(self) -> None:
        super().__init__()
        self.hits: dict[str, int] = {}
        self.misses: dict[str, int] = {}

    @staticmethod
    def _family(key: object) -> str:
        if isinstance(key, tuple) and key:
            return str(key[0])
        return str(key)

    def count(self, family: str, *, hit: bool) -> None:
        """Record an externally-memoized plan lookup under ``family``."""
        book = self.hits if hit else self.misses
        book[family] = book.get(family, 0) + 1

    def lookup(self, key: object) -> object | None:
        """Counted :meth:`dict.get`: classifies the lookup under the
        key's family before returning the plan (or ``None``)."""
        found = self.get(key, _PLAN_MISS)
        if found is _PLAN_MISS:
            self.count(self._family(key), hit=False)
            return None
        self.count(self._family(key), hit=True)
        return found


class SpatialMachine:
    """A √n×√n-style grid of constant-memory processors with cost accounting.

    Parameters
    ----------
    n:
        Number of logical processors (one tree vertex / list element each).
    curve:
        Space-filling curve (name or instance) that places processor ``i``
        on the grid. Defaults to ``"hilbert"``. The curve choice here is the
        machine's *address map*; the paper's layout theorems are about which
        data lives at which address.
    side:
        Grid side; defaults to the curve's minimal canonical side covering
        ``n`` cells (so up to a constant factor more cells than processors,
        as in the model's √n×√n statement).
    budget:
        Per-processor word budget for the register file.
    metric:
        Distance metric charged per message: ``"manhattan"`` (the paper's
        model — mesh interconnects) or ``"chebyshev"`` (L∞ — meshes with
        diagonal links). The spatial computer is *network-oblivious*
        (§I-B): the algorithms are metric-agnostic, and since
        ``L∞ ≤ L1 ≤ 2·L∞`` every energy bound transfers within a factor
        of 2 — which the tests verify empirically.
    strict:
        Model-discipline sanitizers (see :mod:`repro.machine.sanitizer`).
        ``False`` (default) runs unchecked; ``True`` attaches a write-race
        sanitizer under the ``"crew"`` policy plus a determinism checker,
        both raising :class:`~repro.errors.SanitizerError` on the first
        violation; a policy string (``"erew"``/``"crew"``/``"crcw"``)
        selects the write-race policy explicitly.
    permute_delivery:
        Delivery-order fuzzing seed. When set, the payload returned by
        :meth:`send` is permuted *within groups of messages addressed to
        the same destination* — exactly the arrival-order ambiguity a real
        spatial machine exhibits. Algorithms whose results change under
        this permutation depend on simulator delivery order (see
        :func:`repro.machine.sanitizer.check_determinism`).
    engine:
        Bulk-messaging engine behind :meth:`send_batch`. ``"scalar"``
        (default) replays each dependency round through :meth:`send` — the
        reference path, whose accounting is definitionally correct.
        ``"batched"`` runs a vectorized path that validates once, charges
        energy once, advances clocks with O(k) fast-path kernels and emits a
        *single* aggregated :class:`StepEvent` per batch. Both engines
        produce identical results, ledger totals, depth clocks and step
        counts (pinned by the differential suite in
        ``tests/test_engine_equivalence.py``); only the granularity of the
        event stream differs.
    """

    def __init__(
        self,
        n: int,
        *,
        curve: str | SpaceFillingCurve = "hilbert",
        side: int | None = None,
        budget: int = DEFAULT_BUDGET,
        metric: str = "manhattan",
        strict: bool | str = False,
        permute_delivery: int | None = None,
        engine: str = "scalar",
    ) -> None:
        if n < 1:
            raise ValidationError(f"machine needs n >= 1 processors, got {n}")
        if metric not in ("manhattan", "chebyshev"):
            raise ValidationError(f"metric must be manhattan|chebyshev, got {metric!r}")
        if engine not in ("scalar", "batched"):
            raise ValidationError(f"engine must be scalar|batched, got {engine!r}")
        self.metric = metric
        self.engine = engine
        self._uniq_scratch: np.ndarray | None = None
        self._arange_buf: np.ndarray | None = None
        #: memoized replay plans (e.g. sort networks) keyed by the caller;
        #: depends only on the placement, so it survives :meth:`reset_costs`
        self.plan_cache = PlanCache()
        #: attached workload-plan recorder (see :class:`PlanRecorderHook`);
        #: set/cleared by :class:`repro.plans.WorkloadPlanRecorder`
        self.plan_recorder: PlanRecorderHook | None = None
        self.n = int(n)
        self.curve = resolve_curve(curve)
        self.side = self.curve.validate_side(side) if side else self.curve.min_side(n)
        if self.side * self.side < n:
            raise ValidationError(
                f"grid {self.side}x{self.side} cannot hold {n} processors"
            )
        pos = self.curve.positions(self.n, self.side)
        self._x = pos[:, 0].copy()
        self._y = pos[:, 1].copy()
        self._x.setflags(write=False)
        self._y.setflags(write=False)
        self.clock = np.zeros(self.n, dtype=np.int64)
        self._max_clock = 0
        self.registers = RegisterFile(self.n, budget=budget)
        # --- instrumentation -------------------------------------------
        self._instruments: list[Instrument] = []
        self._phase_stack: list[str] = []
        self._step_index = 0
        #: (instrument, hook-name, exception) triples from raising instruments
        self.instrument_errors: list[tuple[Instrument, str, Exception]] = []
        self._ledger_instrument = LedgerInstrument()
        self._tracer_instrument: TracerInstrument | None = None
        self._wall_profiler: KernelWallProfiler | None = None
        self._ledger_fast_path = False
        self.attach(self._ledger_instrument)
        self._delivery_rng = (
            np.random.default_rng(permute_delivery)
            if permute_delivery is not None
            else None
        )
        if strict:
            from repro.machine.sanitizer import DeterminismSanitizer, WriteRaceSanitizer

            policy = strict if isinstance(strict, str) else "crew"
            self.attach(WriteRaceSanitizer(policy=policy, strict=True))
            self.attach(DeterminismSanitizer(strict=True))

    # ------------------------------------------------------------------ #
    # instrumentation
    # ------------------------------------------------------------------ #

    @property
    def instruments(self) -> tuple[Instrument, ...]:
        """Currently attached instruments, in dispatch order."""
        return tuple(self._instruments)

    def attach(self, instrument: Instrument) -> Instrument:
        """Subscribe ``instrument`` to this machine's step/phase events.

        Returns the instrument (attach-and-keep idiom:
        ``log = machine.attach(StepLog())``). Attaching twice is a no-op.
        """
        if instrument not in self._instruments:
            self._instruments.append(instrument)
            if isinstance(instrument, TracerInstrument):
                self._tracer_instrument = instrument
            if isinstance(instrument, KernelWallProfiler):
                self._wall_profiler = instrument
            self._refresh_fast_path()
            self._call(instrument, "on_attach", self)
        return instrument

    def detach(self, instrument: Instrument) -> Instrument:
        """Unsubscribe ``instrument``; safe mid-run and if never attached."""
        if instrument in self._instruments:
            self._instruments.remove(instrument)
            self._call(instrument, "on_detach", self)
        if instrument is self._tracer_instrument:
            self._tracer_instrument = None
        if instrument is self._wall_profiler:
            self._wall_profiler = None
        self._refresh_fast_path()
        return instrument

    def _refresh_fast_path(self) -> None:
        """Recompute whether the batched engine may skip event assembly.

        True when the ledger is the only *event-consuming* instrument: the
        wall profiler is timed inline (it ignores ``on_step``), so its
        presence keeps the ledger-only fast path alive — profiling must not
        change which engine path it is measuring.
        """
        self._ledger_fast_path = self._ledger_instrument in self._instruments and all(
            i is self._ledger_instrument or i is self._wall_profiler
            for i in self._instruments
        )

    def _call(self, instrument: Instrument, hook: str, *args) -> None:
        """Run one instrument hook, isolating failures from the simulation
        (and from the other instruments — cost accounting must survive a
        buggy observer). :class:`~repro.errors.SanitizerError` is exempt:
        a strict-mode sanitizer's whole job is to abort the run."""
        from repro.errors import SanitizerError

        try:
            getattr(instrument, hook)(*args)
        except SanitizerError:
            raise
        except Exception as exc:  # noqa: BLE001 - isolation is the point
            self.instrument_errors.append((instrument, hook, exc))
            warnings.warn(
                f"instrument {type(instrument).__name__}.{hook} raised "
                f"{type(exc).__name__}: {exc}; detached from event stream "
                "for this call (see machine.instrument_errors)",
                RuntimeWarning,
                stacklevel=3,
            )

    def _emit(self, hook: str, *args) -> None:
        for instrument in list(self._instruments):
            self._call(instrument, hook, *args)

    @property
    def sanitizers(self) -> tuple[Instrument, ...]:
        """Attached sanitizer instruments (empty unless ``strict=`` or an
        explicit :mod:`repro.machine.sanitizer` attach)."""
        from repro.machine.sanitizer import SanitizerInstrument

        return tuple(
            i for i in self._instruments if isinstance(i, SanitizerInstrument)
        )

    @property
    def ledger(self) -> CostLedger:
        """The built-in cost ledger (fed by a :class:`LedgerInstrument`)."""
        return self._ledger_instrument.ledger

    @ledger.setter
    def ledger(self, value: CostLedger) -> None:
        self._ledger_instrument.ledger = value

    @property
    def tracer(self) -> CongestionTracer | None:
        """The attached :class:`CongestionTracer`, or ``None``.

        Assigning a tracer wraps it in a
        :class:`~repro.machine.instrumentation.TracerInstrument` and
        attaches it; assigning ``None`` detaches. (Kept for backwards
        compatibility with ``attach_tracer`` — new code can attach any
        instrument directly.)
        """
        return self._tracer_instrument.tracer if self._tracer_instrument else None

    @tracer.setter
    def tracer(self, tracer: CongestionTracer | None) -> None:
        if self._tracer_instrument is not None:
            self.detach(self._tracer_instrument)
        if tracer is not None:
            self.attach(TracerInstrument(tracer))

    @property
    def wall_profiler(self) -> KernelWallProfiler | None:
        """The attached :class:`~repro.machine.wallclock.KernelWallProfiler`,
        or ``None`` (attach one with ``machine.attach(profiler)``)."""
        return self._wall_profiler

    def profile_kernel(self, name: str):
        """Scope for spatial kernels to attribute wall time under ``name``.

        Returns a context manager: a real timing scope when a
        :class:`~repro.machine.wallclock.KernelWallProfiler` is attached, a
        shared no-op otherwise — so kernels can wrap their hot bodies
        unconditionally at the cost of one attribute load.
        """
        wp = self._wall_profiler
        if wp is None:
            return NULL_SCOPE
        return wp.kernel(name)

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #

    @property
    def positions(self) -> np.ndarray:
        """``(n, 2)`` grid coordinates of each processor."""
        return np.stack([self._x, self._y], axis=1)

    def manhattan(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Distances between processor id arrays under the machine's metric
        (no charging). Named after the model's default; ``metric`` may
        select L∞ instead."""
        dx = np.abs(self._x[src] - self._x[dst])
        dy = np.abs(self._y[src] - self._y[dst])
        if self.metric == "chebyshev":
            return np.maximum(dx, dy)
        return dx + dy

    # ------------------------------------------------------------------ #
    # messaging
    # ------------------------------------------------------------------ #

    def send(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray | None = None,
        *,
        combiner: str | None = None,
    ) -> np.ndarray | None:
        """Deliver one message per (src[i], dst[i]) pair; returns the payload.

        ``values`` (optional) is the per-message payload, one entry per
        pair; it is returned unchanged so call sites read naturally
        (``received = m.send(src, dst, vals[src])``). Payload movement is
        the caller's job — the machine only does the accounting. (Under
        delivery-order fuzzing — ``permute_delivery=`` — the returned
        payload is instead permuted within same-destination groups.)

        ``combiner`` (optional) declares that multiple deliveries to one
        destination in this step are reduced with the named associative
        operator (``"sum"``, ``"max"``, …). It changes no accounting; it is
        metadata on the emitted :class:`StepEvent` that whitelists the step
        for the write-race sanitizer's EREW/CREW policies.

        Self-messages (``src == dst``) are local work: free and depth-less,
        consistent with energy being a property of *communication*.

        Depth accounting honours the model's O(1)-messages-per-round rule
        (see :func:`advance_clocks`): sends and receives both serialize, so
        a vertex talking to Θ(Δ) neighbours directly costs Θ(Δ) depth —
        which is precisely why the paper's §III-D virtual trees exist.

        Each call that charges at least one remote message emits exactly one
        :class:`StepEvent` to every attached instrument (the ledger included)
        — the single hook point on this hot path.
        """
        src = as_index_array(np.atleast_1d(src), name="src")
        dst = as_index_array(np.atleast_1d(dst), name="dst")
        if src.shape != dst.shape:
            raise MachineStateError(
                f"send endpoints must align: {src.shape} vs {dst.shape}"
            )
        check_in_range(src, 0, self.n, name="src")
        check_in_range(dst, 0, self.n, name="dst")
        if values is not None and len(np.atleast_1d(values)) != len(src):
            raise MachineStateError("payload length must match endpoint count")
        remote = src != dst
        if remote.any():
            wp = self._wall_profiler
            t0 = wp.clock() if wp is not None else 0
            rs, rd = src[remote], dst[remote]
            dist = self.manhattan(rs, rd)
            depth_before = self._max_clock
            if wp is not None:
                t1 = wp.clock()
                wp.rec("send.distances", t1 - t0, messages=len(rs))
            adv = advance_clocks(self.clock, rs, rd)
            # clocks only grow in this method, so the max is maintainable
            # incrementally from the entries just touched (O(k), not O(n))
            self._max_clock = max(self._max_clock, adv.max_clock)
            if wp is not None:
                t2 = wp.clock()
                wp.rec("send.clock_advance", t2 - t1)
            rec = self.plan_recorder
            if rec is not None:
                rec.on_machine_step(
                    rs, rd, None, dist,
                    exclusive=False, src_occ=None, paired=False,
                    combiner=combiner, plan_ref=None,
                )
            if self._instruments:
                rs.setflags(write=False)
                rd.setflags(write=False)
                dist.setflags(write=False)
                histogram = np.bincount(dist)
                histogram.setflags(write=False)
                payload = None
                if values is not None:
                    payload = np.atleast_1d(np.asarray(values))[remote]
                    payload.setflags(write=False)
                event = StepEvent(
                    step=self._step_index,
                    phases=tuple(self._phase_stack),
                    src=rs,
                    dst=rd,
                    distances=dist,
                    distance_histogram=histogram,
                    energy=int(dist.sum()),
                    messages=int(len(rs)),
                    src_count=adv.src_count,
                    dst_count=adv.dst_count,
                    depth_before=depth_before,
                    depth_after=self._max_clock,
                    metric=self.metric,
                    payload=payload,
                    combiner=combiner,
                    wall_ns=(wp.clock() - t0) if wp is not None else None,
                )
                if wp is not None:
                    wp.rec("send.event_assembly", wp.clock() - t2)
                self._emit("on_step", event)
            self._step_index += 1
            if self._delivery_rng is not None and values is not None:
                values = self._permute_delivery(dst, remote, values)
        return values

    def _permute_delivery(
        self, dst: np.ndarray, remote: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Permute the returned payload within equal-destination groups.

        A receiver of k messages sees them in arbitrary order on a real
        spatial machine; this reproduces that ambiguity for the *caller*
        (accounting is untouched — it is order-independent by construction).
        """
        vals = np.array(np.atleast_1d(values), copy=True)
        ridx = np.flatnonzero(remote)
        rd = dst[ridx]
        det = np.argsort(rd, kind="stable")
        rnd = np.lexsort((self._delivery_rng.random(len(rd)), rd))
        vals[ridx[det]] = np.asarray(np.atleast_1d(values))[ridx[rnd]]
        return vals

    # -- batched messaging --------------------------------------------- #

    def send_batch(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray | None = None,
        *,
        rounds: np.ndarray | list[int] | None = None,
        combiner: str | None = None,
        dist: np.ndarray | None = None,
    ) -> np.ndarray | None:
        """Deliver a batch of messages spanning one or more dependency rounds.

        ``src``/``dst``/``values`` are laid out exactly as for :meth:`send`.
        ``rounds`` (optional) is a CSR-style offset array ``[0, ..., k]``
        partitioning the batch into *sequential* dependency rounds: round
        ``r`` is the slice ``rounds[r]:rounds[r+1]``, and round ``r+1``
        depends on round ``r`` (its chains are computed against the clocks
        round ``r`` left behind). Omitting ``rounds`` means one round — the
        whole batch is concurrent. Empty rounds are legal and free.

        ``dist`` (optional) is the caller-precomputed per-message distance
        under this machine's metric, aligned with ``src``/``dst``. It is a
        pure wall-clock optimization for callers that replay cached message
        plans (the kernels in :mod:`repro.spatial.batched_messaging`): the
        batched engine charges the given distances instead of recomputing
        them, the scalar engine ignores it. Callers are trusted to pass
        ``self.manhattan(src, dst)`` exactly — anything else corrupts the
        energy ledger.

        The accounting contract is engine-independent: ``send_batch`` is
        *defined* as performing one :meth:`send` per non-empty round, in
        order. Under ``engine="scalar"`` that is literally what runs. Under
        ``engine="batched"`` a vectorized path produces the same ledger
        totals, clock state and step count while emitting a single
        aggregated :class:`StepEvent` (with its ``rounds`` field set)
        instead of one event per round — so instruments see batches without
        per-round Python callbacks.

        Returns the payload (permuted within per-round same-destination
        groups under delivery fuzzing), or ``None`` for valueless sends.
        """
        src = as_index_array(np.atleast_1d(src), name="src")
        dst = as_index_array(np.atleast_1d(dst), name="dst")
        if src.shape != dst.shape:
            raise MachineStateError(
                f"send endpoints must align: {src.shape} vs {dst.shape}"
            )
        k = len(src)
        if rounds is None:
            offsets = np.array([0, k], dtype=np.int64)
        else:
            offsets = np.asarray(rounds, dtype=np.int64)
            if (
                offsets.ndim != 1
                or len(offsets) < 2
                or offsets[0] != 0
                or offsets[-1] != k
                or bool(np.any(np.diff(offsets) < 0))
            ):
                raise MachineStateError(
                    f"rounds must be monotone offsets [0, ..., {k}], got {rounds!r}"
                )
        if dist is not None and len(dist) != k:
            raise MachineStateError("dist length must match endpoint count")
        if self.engine == "batched":
            check_in_range(src, 0, self.n, name="src")
            check_in_range(dst, 0, self.n, name="dst")
            return self._send_batched(src, dst, values, offsets, combiner, dist)
        # scalar reference path: one send() per non-empty round
        if values is None:
            for i in range(len(offsets) - 1):
                a, b = int(offsets[i]), int(offsets[i + 1])
                if b > a:
                    self.send(src[a:b], dst[a:b], None, combiner=combiner)
            return None
        vals = np.atleast_1d(np.asarray(values))
        if len(vals) != k:
            raise MachineStateError("payload length must match endpoint count")
        if len(offsets) == 2:
            return self.send(src, dst, vals, combiner=combiner)
        out = np.array(vals, copy=True)
        for i in range(len(offsets) - 1):
            a, b = int(offsets[i]), int(offsets[i + 1])
            if b > a:
                out[a:b] = self.send(src[a:b], dst[a:b], vals[a:b], combiner=combiner)
        return out

    def send_plan(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray | None = None,
        *,
        rounds: np.ndarray,
        dist: np.ndarray | None = None,
        combiner: str | None = None,
        exclusive: bool = False,
        src_occ: np.ndarray | None = None,
        paired: bool = False,
        plan_ref: tuple[object, ...] | None = None,
    ) -> np.ndarray | None:
        """Trusted replay of a cached, pre-validated message plan.

        Identical accounting to :meth:`send_batch`, but skips the per-call
        endpoint validation: callers (the plan caches in
        :mod:`repro.spatial.batched_messaging` and the treefix frontier
        hops) guarantee ``src``/``dst`` are aligned int64 processor ids in
        range with ``src[i] != dst[i]`` everywhere, and ``rounds`` is a
        monotone CSR offset array ``[0, ..., len(src)]``. ``exclusive``
        additionally asserts each round is EREW — distinct senders and
        distinct receivers — letting the clock kernel skip its distinctness
        probes (direct-mode rank rounds and virtual reduce segments are
        EREW by construction). ``src_occ`` is the weaker static hint for
        rounds with distinct receivers but sender multiplicity up to 2:
        per-message sender occurrence indices (0 for a sender's first
        message of its round, 1 for its second), as the virtual broadcast
        relay produces. ``paired`` asserts the rounds come in mirrored
        EREW pairs — round ``2r+1`` replays round ``2r`` with src and dst
        exchanged over the same index sets, the compare-exchange shape of
        the cached sort-network plans — fusing each pair into one clock
        update. Under the scalar engine this falls back to the validated
        :meth:`send_batch` path.

        ``plan_ref`` (optional) names the *cached* plan these arrays came
        from — e.g. ``("sort_network", m, descending)`` — purely as
        metadata for an attached workload-plan recorder: the recorder
        stores the reference instead of materializing the (potentially
        huge) message arrays, and replay resolves it through the machine's
        plan cache. It changes no accounting.
        """
        if self.engine != "batched":
            return self.send_batch(
                src, dst, values, rounds=rounds, combiner=combiner, dist=dist
            )
        return self._send_batched(
            src, dst, values, rounds, combiner, dist,
            all_remote=True, exclusive=exclusive, src_occ=src_occ, paired=paired,
            plan_ref=plan_ref,
        )

    def _send_batched(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        values: np.ndarray | None,
        offsets: np.ndarray,
        combiner: str | None,
        dist: np.ndarray | None = None,
        *,
        all_remote: bool = False,
        exclusive: bool = False,
        src_occ: np.ndarray | None = None,
        paired: bool = False,
        plan_ref: tuple[object, ...] | None = None,
    ) -> np.ndarray | None:
        """Vectorized engine behind :meth:`send_batch` (``engine="batched"``).

        ``all_remote=True`` (the :meth:`send_plan` contract) asserts every
        message has distinct endpoints, skipping the self-message scan;
        ``exclusive=True`` asserts each round is EREW, ``src_occ`` asserts
        distinct receivers plus sender occurrence indices, and ``paired``
        asserts mirrored EREW round pairs (see
        :func:`advance_clocks_batch`). ``src_occ`` and ``paired`` require
        ``all_remote=True`` — they describe the unfiltered batch.
        """
        wp = self._wall_profiler
        t0 = wp.clock() if wp is not None else 0
        vals: np.ndarray | None = None
        if values is not None:
            vals = np.atleast_1d(np.asarray(values))
            if len(vals) != len(src):
                raise MachineStateError("payload length must match endpoint count")
        if all_remote:
            remote = None
            n_remote = len(src)
            rs, rd = src, dst
            roffsets = offsets
        else:
            remote = src != dst
            n_remote = int(np.count_nonzero(remote))
            if n_remote == 0:
                return values
            if n_remote == len(src):
                rs, rd = src, dst
                roffsets = offsets
            else:
                rs, rd = src[remote], dst[remote]
                keep = np.concatenate([[0], np.cumsum(remote, dtype=np.int64)])
                roffsets = keep[offsets]
                if dist is not None:
                    dist = dist[remote]
        nonempty = np.diff(roffsets) > 0
        if not nonempty.all():
            roffsets = np.concatenate([roffsets[:1], roffsets[1:][nonempty]])
        if wp is not None:
            t1 = wp.clock()
            wp.rec("batch.remote_filter", t1 - t0, messages=n_remote)
        if dist is None:
            dist = self.manhattan(rs, rd)
            if wp is not None:
                t2 = wp.clock()
                wp.rec("batch.distances", t2 - t1)
                t1 = t2
        depth_before = self._max_clock
        ar = self._arange(len(rs))
        scratch = self._scratch()
        adv = advance_clocks_batch(
            self.clock, rs, rd, roffsets, scratch, ar,
            exclusive=exclusive, src_occ=src_occ, paired=paired,
        )
        self._max_clock = max(self._max_clock, adv.max_clock)
        if wp is not None:
            t2 = wp.clock()
            wp.rec("batch.clock_advance", t2 - t1)
            t1 = t2
        rec = self.plan_recorder
        if rec is not None and len(rs):
            rec.on_machine_step(
                rs, rd, roffsets, dist,
                exclusive=exclusive, src_occ=src_occ, paired=paired,
                combiner=combiner, plan_ref=plan_ref,
            )
        instruments = self._instruments
        if self._ledger_fast_path:
            # the always-attached ledger only reads energy/messages — skip
            # the (histogram, distinct-count, frozen-view) event assembly
            energy = int(dist.sum())
            self._ledger_instrument.ledger.charge(energy, int(len(rs)))
            if wp is not None:
                wp.rec(
                    "batch.ledger_charge", wp.clock() - t1,
                    messages=len(rs), energy=energy,
                )
        elif instruments:
            # freeze *views* — in the all-remote case rs/rd/dist/vals/roffsets
            # can alias caller-owned arrays whose writeability must survive
            ev_src, ev_dst, ev_off = rs.view(), rd.view(), roffsets.view()
            ev_src.setflags(write=False)
            ev_dst.setflags(write=False)
            ev_off.setflags(write=False)
            ev_dist = dist.view()
            ev_dist.setflags(write=False)
            histogram = np.bincount(dist)
            histogram.setflags(write=False)
            payload = None
            if vals is not None:
                payload = (vals[remote] if n_remote != len(src) else vals).view()
                payload.setflags(write=False)
            event = StepEvent(
                step=self._step_index,
                phases=tuple(self._phase_stack),
                src=ev_src,
                dst=ev_dst,
                distances=ev_dist,
                distance_histogram=histogram,
                energy=int(dist.sum()),
                messages=int(len(rs)),
                src_count=self._distinct(rs, scratch, ar),
                dst_count=self._distinct(rd, scratch, ar),
                depth_before=depth_before,
                depth_after=self._max_clock,
                metric=self.metric,
                payload=payload,
                combiner=combiner,
                rounds=ev_off,
                hint="paired" if paired else "exclusive" if exclusive else "occ" if src_occ is not None else None,
                wall_ns=(wp.clock() - t0) if wp is not None else None,
            )
            if wp is not None:
                wp.rec(
                    "batch.event_assembly", wp.clock() - t1,
                    messages=len(rs), energy=event.energy,
                )
            self._emit("on_step", event)
        self._step_index += adv.rounds
        if self._delivery_rng is not None and vals is not None:
            if remote is None:
                remote = np.ones(len(src), dtype=bool)
            out = np.array(vals, copy=True)
            for i in range(len(offsets) - 1):
                a, b = int(offsets[i]), int(offsets[i + 1])
                if b <= a:
                    continue
                seg_remote = remote[a:b]
                if seg_remote.any():
                    out[a:b] = self._permute_delivery(dst[a:b], seg_remote, vals[a:b])
            return out
        return values

    def _scratch(self) -> np.ndarray:
        """Lazily-allocated n-sized int64 work array for the batched engine."""
        scr = self._uniq_scratch
        if scr is None:
            scr = np.empty(self.n, dtype=np.int64)
            self._uniq_scratch = scr
            if self._wall_profiler is not None:
                self._wall_profiler.alloc("machine.scratch", scr.nbytes)
        return scr

    def _arange(self, k: int) -> np.ndarray:
        """``np.arange(k)`` served from a grow-only cached buffer."""
        buf = self._arange_buf
        if buf is None or len(buf) < k:
            buf = np.arange(max(k, 1024), dtype=np.int64)
            self._arange_buf = buf
            if self._wall_profiler is not None:
                self._wall_profiler.alloc("machine.arange", buf.nbytes)
        return buf[:k]

    @staticmethod
    def _distinct(ids: np.ndarray, scratch: np.ndarray, ar: np.ndarray) -> int:
        """Number of distinct ids, via the last-write-wins stamp (O(k))."""
        a = ar[: len(ids)]
        scratch[ids] = a
        return int(np.count_nonzero(scratch[ids] == a))

    def charge_external(self, energy: int, messages: int) -> None:
        """Fold a bill from outside this machine's event stream into the
        ledger (e.g. a subroutine that ran on its own machine, charged by
        proxy). This is the *sanctioned* way to add external costs — lint
        rule REPRO005 flags direct ``ledger`` mutation outside the machine
        package.
        """
        if energy < 0 or messages < 0:
            raise ValidationError(
                f"external charges must be non-negative, got energy={energy}, "
                f"messages={messages}"
            )
        self.ledger.charge(int(energy), int(messages))

    def gather_from(self, dst: np.ndarray, src: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Convenience: ``dst[i]`` receives ``values[src[i]]`` (charged send)."""
        src = as_index_array(np.atleast_1d(src), name="src")
        payload = values[src]
        self.send(src, dst, payload)
        return payload

    @property
    def depth(self) -> int:
        """Current computation depth: the longest dependent message chain."""
        return self._max_clock

    @property
    def energy(self) -> int:
        """Total energy charged so far."""
        return self.ledger.energy

    @property
    def messages(self) -> int:
        """Total number of (remote) messages charged so far."""
        return self.ledger.messages

    @property
    def steps(self) -> int:
        """Number of charged bulk sends so far (the step-event count)."""
        return self._step_index

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseCost]:
        """Phase context manager: notifies instruments and attributes costs.

        Yields the ledger's :class:`PhaseCost` bucket for ``name`` (as the
        pre-instrumentation API did), so ``with m.phase("x") as p`` keeps
        working.
        """
        self._phase_stack.append(name)
        rec = self.plan_recorder
        if rec is not None:
            rec.on_phase_enter(name)
        self._emit("on_phase_enter", name, self.depth)
        try:
            yield self.ledger.phases.get(name)
        finally:
            self._phase_stack.pop()
            rec = self.plan_recorder
            if rec is not None:
                rec.on_phase_exit(name)
            self._emit("on_phase_exit", name, self.depth)

    @property
    def phase_stack(self) -> tuple[str, ...]:
        """The currently active phase names, outermost first."""
        return tuple(self._phase_stack)

    def snapshot(self) -> dict[str, int]:
        """Current (energy, messages, depth) triple as a dict."""
        return {"energy": self.energy, "messages": self.messages, "depth": self.depth}

    def reset_costs(self) -> None:
        """Zero the ledger, clocks and step counter (keeps placement,
        registers and attached instruments)."""
        self.clock[:] = 0
        self._max_clock = 0
        self._step_index = 0
        self.ledger = CostLedger()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SpatialMachine(n={self.n}, side={self.side}, curve={self.curve.name!r}, "
            f"energy={self.energy}, depth={self.depth})"
        )
