"""Runtime sanitizers: machine-checked model discipline (paper §II-A).

The spatial computer model is only faithful if every algorithm

* keeps **O(1) words per processor** (the :class:`RegisterFile` budget
  catches allocations — but nothing used to catch per-processor state
  smuggled *outside* the register file), and
* produces results **independent of message delivery order** (the
  simulator delivers bulk sends in array order; a real machine does not).

This module turns those assumptions into checked properties, the same way
a race detector or ASan gates a production stack. Three sanitizers ride
the :class:`~repro.machine.instrumentation.Instrument` protocol:

* :class:`WriteRaceSanitizer` — flags same-step deliveries of conflicting
  values to one destination, under a selectable PRAM-style policy
  (``erew`` / ``crew`` / ``crcw``) with a combiner whitelist for declared
  reduce steps (``machine.send(..., combiner="sum")``).
* :class:`DeterminismSanitizer` — replays every step's clock advance
  under permuted delivery orders and diffs the resulting clock state:
  energy and depth must be schedule-independent properties of the
  message DAG, so *any* divergence is a simulator-discipline bug.
* :class:`GhostStateSanitizer` — snapshots per-processor state reachable
  outside the :class:`RegisterFile` on tracked objects, so Θ(n)-word
  stashes can't bypass the O(1)-memory accounting.

``SpatialMachine(strict=True)`` attaches the first two in raise-on-finding
mode; :func:`check_determinism` adds run-level delivery-order fuzzing; and
:func:`sanitize_findings_report` emits the schema-versioned findings bundle
behind ``repro sanitize <workload>``.
"""

from __future__ import annotations

import fnmatch
import json
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import SanitizerError, ValidationError
from repro.machine.instrumentation import Instrument, StepEvent

#: findings-report schema identifier / version; bump on breaking changes
SCHEMA = "repro.sanitize/v1"
SCHEMA_VERSION = 1

#: associative combiners a reduce step may declare to whitelist
#: multi-delivery under the EREW/CREW write policies
DEFAULT_COMBINERS = frozenset({"sum", "max", "min", "and", "or", "xor", "any", "all"})

POLICIES = ("erew", "crew", "crcw")


@dataclass(frozen=True)
class Finding:
    """One sanitizer finding — a machine-checked model violation."""

    sanitizer: str
    code: str
    message: str
    step: int | None = None
    phases: tuple[str, ...] = ()
    details: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "sanitizer": self.sanitizer,
            "code": self.code,
            "message": self.message,
            "step": self.step,
            "phases": list(self.phases),
            "details": dict(self.details),
        }

    def __str__(self) -> str:
        where = f" step {self.step}" if self.step is not None else ""
        phases = f" [{'/'.join(self.phases)}]" if self.phases else ""
        return f"{self.code}{where}{phases}: {self.message}"


class SanitizerInstrument(Instrument):
    """Base class for the sanitizer family.

    Findings accumulate on :attr:`findings`; with ``strict=True`` the first
    finding raises :class:`~repro.errors.SanitizerError` instead (fail-stop,
    like a sanitizer abort). Subclasses set :attr:`name` and call
    :meth:`record`.
    """

    name = "sanitizer"

    def __init__(self, *, strict: bool = False) -> None:
        self.strict = strict
        self.findings: list[Finding] = []

    @property
    def clean(self) -> bool:
        """True when no violations were recorded."""
        return not self.findings

    def record(
        self,
        code: str,
        message: str,
        *,
        step: int | None = None,
        phases: tuple[str, ...] = (),
        **details: Any,
    ) -> Finding:
        finding = Finding(
            sanitizer=self.name,
            code=code,
            message=message,
            step=step,
            phases=phases,
            details=details,
        )
        self.findings.append(finding)
        if self.strict:
            raise SanitizerError(str(finding))
        return finding

    def finish(self, machine: Any = None) -> list[Finding]:
        """End-of-run hook; returns all findings (subclasses may add
        whole-run checks here)."""
        return self.findings


class WriteRaceSanitizer(SanitizerInstrument):
    """Detect same-step conflicting deliveries to one destination register.

    In the simulator a bulk ``send`` whose ``dst`` repeats means one
    processor's register receives several messages in one step. Whether
    that is legal is a *policy* decision, mirroring the PRAM taxonomy:

    * ``"erew"`` — exclusive read, exclusive write: every processor sends
      at most one message and receives at most one message per step.
    * ``"crew"`` (default) — concurrent read OK (one sender may feed many
      destinations), but multi-delivery of *values* to one destination is
      a write race unless the step declares a whitelisted combiner.
    * ``"crcw"`` — common-CRCW: multi-delivery is fine when all delivered
      values are equal (or a combiner is declared); conflicting values
      without a combiner are a race.

    Valueless sends (pure accounting; nothing is written) only constrain
    ``erew``. Steps whose innermost phase is listed in ``allow_phases``
    are skipped entirely.

    Batched engine: an aggregated :class:`StepEvent` (``event.rounds`` set)
    covers several dependency rounds, and the policies apply *per round* —
    two deliveries to one destination in different rounds are sequential,
    not racing. Detection runs as vectorized duplicate-grouping on the
    composite ``(round, dst)`` (and ``(round, src)`` for EREW) keys; the
    Python loop only runs over offending groups. Finding ``step`` numbers
    are offset by the round index, so they match what the scalar engine
    would have reported.
    """

    name = "write-race"

    def __init__(
        self,
        *,
        policy: str = "crew",
        combiners: Iterable[str] = DEFAULT_COMBINERS,
        allow_phases: Iterable[str] = (),
        strict: bool = False,
    ) -> None:
        super().__init__(strict=strict)
        if policy not in POLICIES:
            raise ValidationError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.policy = policy
        self.combiners = frozenset(combiners)
        self.allow_phases = frozenset(allow_phases)

    def on_step(self, event: StepEvent) -> None:
        if self.allow_phases.intersection(event.phases):
            return
        round_of = _round_ids(event)
        if self.policy == "erew":
            self._check_exclusive_reads(event, round_of)
        dup_mask, order, starts, lens, rid = _dup_groups(event.dst, round_of)
        if not dup_mask.any():
            return
        combined = event.combiner in self.combiners
        if event.combiner is not None and not combined:
            self.record(
                "SAN-RACE-COMBINER",
                f"step declares unknown combiner {event.combiner!r} "
                f"(whitelist: {sorted(self.combiners)})",
                step=event.step,
                phases=event.phases,
            )
        if event.payload is None:
            # nothing is written; multi-delivery only violates EREW
            if self.policy == "erew":
                self._record_race(event, order, starts, lens, rid, kind="delivery")
            return
        if combined:
            return
        if self.policy in ("erew", "crew"):
            self._record_race(event, order, starts, lens, rid, kind="write")
            return
        # common-CRCW: concurrent writes must agree — vectorized group
        # equality (compare every element against its group's first), the
        # Python loop only visits offending groups
        vals = np.asarray(event.payload)[order]
        mismatch = vals != np.repeat(vals[starts], lens)
        if mismatch.ndim > 1:
            mismatch = mismatch.reshape(len(vals), -1).any(axis=1)
        bad = np.add.reduceat(mismatch, starts) & dup_mask
        for g in np.flatnonzero(bad):
            s, ln = int(starts[g]), int(lens[g])
            dst = int(event.dst[order[s]])
            self.record(
                "SAN-RACE-WRITE",
                f"{ln} messages deliver conflicting values to processor "
                f"{dst} in one step under the crcw policy "
                "(common-CRCW requires equal values or a declared combiner)",
                step=event.step + (int(rid[s]) if rid is not None else 0),
                phases=event.phases,
                dst=dst,
                values=[_scalar(v) for v in vals[s : s + ln][:8]],
                writers=ln,
            )

    # ------------------------------------------------------------------ #

    def _check_exclusive_reads(
        self, event: StepEvent, round_of: np.ndarray | None
    ) -> None:
        dup_mask, order, starts, lens, rid = _dup_groups(event.src, round_of)
        if not dup_mask.any():
            return
        for g in np.flatnonzero(dup_mask):
            s, ln = int(starts[g]), int(lens[g])
            src = int(event.src[order[s]])
            self.record(
                "SAN-RACE-READ",
                f"processor {src} sources {ln} messages in one step under "
                "the erew policy (exclusive read allows one)",
                step=event.step + (int(rid[s]) if rid is not None else 0),
                phases=event.phases,
                src=src,
                readers=ln,
            )

    def _record_race(
        self,
        event: StepEvent,
        order: np.ndarray,
        starts: np.ndarray,
        lens: np.ndarray,
        rid: np.ndarray | None,
        *,
        kind: str,
    ) -> None:
        for g in np.flatnonzero(lens > 1):
            s, ln = int(starts[g]), int(lens[g])
            dst = int(event.dst[order[s]])
            detail: dict[str, Any] = {"dst": dst, "writers": ln}
            if event.payload is not None:
                group = np.asarray(event.payload)[order[s : s + ln]]
                detail["values"] = [_scalar(v) for v in group[:8]]
            self.record(
                "SAN-RACE-WRITE" if kind == "write" else "SAN-RACE-DELIVERY",
                f"processor {dst} receives {ln} "
                f"{'values' if kind == 'write' else 'messages'} in one step "
                f"under the {self.policy} policy with no declared combiner",
                step=event.step + (int(rid[s]) if rid is not None else 0),
                phases=event.phases,
                **detail,
            )


class DeterminismSanitizer(SanitizerInstrument):
    """Verify each step's accounting is independent of delivery order.

    The machine advances per-processor dependency clocks with one
    vectorized pass (:func:`repro.machine.machine.advance_clocks`). A
    sender's *own* messages serialize in program order (the order of the
    bulk arrays — that is part of the algorithm, and the 1-port model
    charges it). Everything else about a step's schedule is ambiguous on
    a real machine: how different senders' messages interleave, and the
    order a receiver processes its arrivals. The cost model must not
    observe that ambiguity.

    This sanitizer replays every step's clock advance from the pre-step
    clock state under ``trials`` random permutations of the (src, dst)
    pairs *that preserve each sender's program order*, and diffs the
    resulting clock vectors and step energy. A divergence means the cost
    accounting leaks schedule dependence (or an instrument mutated the
    read-only event arrays).
    """

    name = "determinism"

    def __init__(self, *, trials: int = 2, seed: int = 0, strict: bool = False) -> None:
        super().__init__(strict=strict)
        if trials < 1:
            raise ValidationError(f"trials must be >= 1, got {trials}")
        self.trials = int(trials)
        self._rng = np.random.default_rng(seed)
        self._machine = None
        self._shadow: np.ndarray | None = None

    def _legal_permutation(self, src: np.ndarray) -> np.ndarray:
        """A random permutation of the step's messages that keeps every
        sender's messages in their original relative (program) order."""
        k = len(src)
        slots = self._rng.permutation(k)  # tentative output slot per message
        by_src_slot = np.lexsort((slots, src))  # src groups, slots ascending
        by_src_prog = np.argsort(src, kind="stable")  # src groups, program order
        perm = np.empty(k, dtype=np.int64)
        # within each src group, its ascending slots receive the group's
        # messages in program order
        perm[slots[by_src_slot]] = by_src_prog
        return perm

    def on_attach(self, machine: Any) -> None:
        self._machine = machine
        self._shadow = machine.clock.copy()

    def on_detach(self, machine: Any) -> None:
        self._machine = None
        self._shadow = None

    def on_step(self, event: StepEvent) -> None:
        from repro.machine.machine import advance_clocks

        if self._shadow is None:
            return
        energy = int(np.asarray(event.distances).sum())
        if energy != event.energy:
            self.record(
                "SAN-DET-ENERGY",
                f"step energy {event.energy} does not equal the sum of its "
                f"per-message distances ({energy})",
                step=event.step,
                phases=event.phases,
            )
        # an aggregated batch event covers several sequential rounds;
        # delivery order is only ambiguous *within* a round, so replay
        # permutes each round independently
        if event.rounds is None:
            segments = [(0, len(event.src))]
        else:
            offs = np.asarray(event.rounds)
            segments = [(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:])]
        base = self._shadow.copy()
        for a, b in segments:
            advance_clocks(base, event.src[a:b], event.dst[a:b])
        for trial in range(self.trials):
            replay = self._shadow.copy()
            for a, b in segments:
                perm = self._legal_permutation(event.src[a:b])
                advance_clocks(replay, event.src[a:b][perm], event.dst[a:b][perm])
            if not np.array_equal(base, replay):
                diverged = np.flatnonzero(base != replay)
                self.record(
                    "SAN-DET-CLOCK",
                    f"replaying step {event.step} under a permuted delivery "
                    f"order changed {len(diverged)} processor clock(s) — "
                    "depth accounting is delivery-order dependent",
                    step=event.step,
                    phases=event.phases,
                    trial=trial,
                    processors=[int(p) for p in diverged[:8]],
                )
                break
        # resync to the machine's own clock: adjustments outside the event
        # stream (a barrier's equalization, which the machine applies after
        # the rounds for send_plan's lift hint) must not skew later replays
        if self._machine is not None:
            self._shadow = self._machine.clock.copy()


class GhostStateSanitizer(SanitizerInstrument):
    """Detect per-processor state living outside the :class:`RegisterFile`.

    The O(1)-words-per-processor budget is enforced by the register file —
    but an algorithm could stash a length-``n`` array on any object it
    holds and the accounting would never know. This sanitizer walks the
    attribute graph of the ``track``-ed objects (a few levels deep, into
    dicts/lists/tuples) and records every numpy array whose leading
    dimension equals the machine's ``n`` that is *not* register-file
    storage and not matched by an ``allow`` pattern.

    A baseline scan at attach time grandfathers pre-existing structure
    (the layout, the tree, the placement — data, not algorithm state);
    re-scans happen at every phase exit and at :meth:`finish`, so state
    materialized during the run is what gets reported.
    """

    name = "ghost-state"

    #: structural attributes every spatial run legitimately holds: the
    #: embedding itself, cached topology, and the machine's own geometry
    DEFAULT_ALLOW = (
        "*.layout*",
        "*.tree*",
        "*.proc",
        "*.machine*",
        "*.positions*",
        "*._vt*",
        "*._sched*",
        "*._direct_plan*",
        "*._virtual_bcast_plan*",
        "*._virtual_reduce_plan*",
    )

    def __init__(
        self,
        track: Mapping[str, Any] | None = None,
        *,
        allow: Iterable[str] = DEFAULT_ALLOW,
        max_depth: int = 3,
        strict: bool = False,
    ) -> None:
        super().__init__(strict=strict)
        self._track = dict(track or {})
        self.allow = tuple(allow)
        self.max_depth = int(max_depth)
        self._machine = None
        self._baseline: set[str] = set()
        self._reported: set[str] = set()

    def track(self, label: str, obj: Any) -> None:
        """Add an object to the scan set (its current state is *not*
        grandfathered — only the attach-time baseline is)."""
        self._track[label] = obj

    def on_attach(self, machine: Any) -> None:
        self._machine = machine
        self._baseline = {path for path, _, _ in self._scan()}
        self._reported = set()

    def on_detach(self, machine: Any) -> None:
        self._machine = None

    def on_phase_exit(self, name: str, depth: int) -> None:
        self._check(phase=name)

    def finish(self, machine: Any = None) -> list[Finding]:
        self._check(phase=None)
        return self.findings

    # ------------------------------------------------------------------ #

    def _check(self, *, phase: str | None) -> None:
        if self._machine is None:
            return
        for path, shape, dtype in self._scan():
            if path in self._baseline or path in self._reported:
                continue
            self._reported.add(path)
            self.record(
                "SAN-GHOST-STATE",
                f"per-processor array {path!r} (shape {shape}, {dtype}) is "
                "reachable outside the register file — Θ(n) words bypass "
                "the O(1)-memory budget",
                phases=(phase,) if phase else (),
                path=path,
                shape=list(shape),
                dtype=str(dtype),
            )

    def _scan(self) -> list[tuple[str, tuple[int, ...], Any]]:
        machine = self._machine
        if machine is None:
            return []
        register_ids = {id(arr) for _, arr in machine.registers.items()}
        register_ids.add(id(machine.clock))
        hits: list[tuple[str, tuple[int, ...], Any]] = []
        seen: set[int] = set()
        stack: list[tuple[str, Any, int]] = [
            (label, obj, 0) for label, obj in self._track.items()
        ]
        while stack:
            path, obj, depth = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, np.ndarray):
                if (
                    obj.ndim >= 1
                    and obj.shape[0] == machine.n
                    and machine.n > 1
                    and id(obj) not in register_ids
                    and not any(fnmatch.fnmatch(path, pat) for pat in self.allow)
                ):
                    hits.append((path, obj.shape, obj.dtype))
                continue
            if depth >= self.max_depth:
                continue
            if isinstance(obj, Mapping):
                for key, val in obj.items():
                    stack.append((f"{path}[{key!r}]", val, depth + 1))
            elif isinstance(obj, (list, tuple)):
                for i, val in enumerate(obj):
                    stack.append((f"{path}[{i}]", val, depth + 1))
            elif hasattr(obj, "__dict__"):
                for attr, val in vars(obj).items():
                    stack.append((f"{path}.{attr}", val, depth + 1))
        return hits


# --------------------------------------------------------------------- #
# run-level determinism fuzzing
# --------------------------------------------------------------------- #


def check_determinism(
    build: Callable[[int | None], Any],
    run: Callable[[Any], Any],
    *,
    trials: int = 2,
    seed: int = 0,
    atol: float = 0.0,
) -> list[Finding]:
    """Run a workload repeatedly under delivery-order fuzzing; diff results.

    ``build(permute_delivery)`` must construct a fresh workload and return
    a ``target`` (anything); ``run(target)`` executes it and returns the
    result array (or a tuple of arrays). The reference run uses
    ``permute_delivery=None``; each trial uses a distinct fuzzing seed
    (see ``SpatialMachine(permute_delivery=...)``). Differing results mean
    the algorithm's output depends on the simulator's delivery order —
    the model violation the paper's algorithms must not exhibit.
    """
    reference = _as_tuple(run(build(None)))
    findings: list[Finding] = []
    for trial in range(trials):
        got = _as_tuple(run(build(seed + trial)))
        if len(got) != len(reference):
            findings.append(
                Finding(
                    sanitizer="determinism",
                    code="SAN-DET-RESULT",
                    message=f"fuzzed run {trial} returned {len(got)} arrays, "
                    f"reference returned {len(reference)}",
                )
            )
            continue
        for k, (a, b) in enumerate(zip(reference, got)):
            a, b = np.asarray(a), np.asarray(b)
            same = (
                a.shape == b.shape
                and (
                    np.allclose(a, b, atol=atol)
                    if np.issubdtype(a.dtype, np.number)
                    else np.array_equal(a, b)
                )
            )
            if not same:
                diff = (
                    int((a != b).sum()) if a.shape == b.shape else -1
                )
                findings.append(
                    Finding(
                        sanitizer="determinism",
                        code="SAN-DET-RESULT",
                        message=(
                            f"result #{k} changed under delivery-order fuzzing "
                            f"(trial {trial}, {diff} differing entries) — the "
                            "algorithm depends on message delivery order"
                        ),
                        details={"trial": trial, "result": k, "differing": diff},
                    )
                )
    return findings


def _as_tuple(result: Any) -> tuple[Any, ...]:
    if isinstance(result, tuple):
        return result
    return (result,)


# --------------------------------------------------------------------- #
# findings report
# --------------------------------------------------------------------- #


def sanitize_findings_report(
    sanitizers: Iterable[SanitizerInstrument],
    *,
    extra_findings: Iterable[Finding] = (),
    meta: Mapping[str, Any] | None = None,
    policy: str | None = None,
) -> dict[str, Any]:
    """Assemble the schema-versioned findings report for a sanitized run."""
    sanitizers = list(sanitizers)
    findings = [f for s in sanitizers for f in s.findings]
    findings.extend(extra_findings)
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "policy": policy,
        "sanitizers": {s.name: len(s.findings) for s in sanitizers},
        "clean": not findings,
        "findings": [f.to_dict() for f in findings],
    }


def save_findings_report(report: Mapping[str, Any], path: str | Path) -> Path:
    """Write a findings report as JSON; returns the resolved path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(dict(report), indent=2) + "\n")
    return out


def format_findings(findings: Iterable[Finding]) -> str:
    """Human-readable one-line-per-finding rendering."""
    lines = [str(f) for f in findings]
    return "\n".join(lines) if lines else "no findings"


# --------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------- #


def _round_ids(event: StepEvent) -> np.ndarray | None:
    """Per-message round index for an aggregated batch event, else ``None``."""
    if event.rounds is None or len(event.rounds) <= 2:
        return None
    offs = np.asarray(event.rounds)
    return np.repeat(np.arange(len(offs) - 1, dtype=np.int64), np.diff(offs))


def _dup_groups(
    ids: np.ndarray, round_of: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Group ``ids`` (per round, when ``round_of`` is given).

    Returns ``(dup_mask_over_groups, order, starts, lens, rid_sorted)``
    where ``order`` sorts by ``(round, id)`` preserving program order within
    groups, ``starts``/``lens`` delimit the groups in sorted order, and
    ``rid_sorted`` is the sorted-order round index (``None`` when ungrouped
    by rounds).
    """
    if round_of is None:
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        rid_sorted = None
    else:
        order = np.lexsort((ids, round_of))
        sorted_ids = ids[order]
        rid_sorted = round_of[order]
        new_group = (np.diff(sorted_ids) != 0) | (np.diff(rid_sorted) != 0)
        boundaries = np.flatnonzero(new_group) + 1
    starts = np.concatenate([[0], boundaries])
    lens = np.diff(np.concatenate([starts, [len(sorted_ids)]]))
    return lens > 1, order, starts, lens, rid_sorted


def _scalar(value: Any) -> Any:
    """JSON-friendly scalar from a numpy element."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value
