"""Span recording for the traced benchmark run.

The traced run times the calls into each layer from outside the program:
it swaps module, class and instance attributes for timing wrappers and
puts the originals back afterwards, so the untraced run executes exactly
the code users run.  Every wrapped call becomes one span with a name,
start, end, parent and — for a served request — a request id.  A span's
self time (its duration minus the part its children cover) is added to
per-name totals as the span closes, so an op's layer breakdown is ready
as soon as the op returns.  Spans are kept in memory, up to ``KEEP`` of
them, and written out by the caller at exit.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time

#: the clock ``PendingRequest`` stamps with, so serving timestamps compare
now_ns = time.monotonic_ns
#: spans kept in memory for ``spans.json``; totals count every span
KEEP = 50_000
_MISSING = object()


class _ThreadState:
    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: list[list] = []
        #: span name -> [self_ns, total_ns, calls]
        self.table: dict[str, list[int]] = {}


class Recorder:
    """Per-thread span stacks plus per-name self/total/call totals."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.current_thread().name)
            self._local.st = st
            with self._lock:
                self._states.append(st)
        return st

    def begin(self, name: str, rid=None) -> list:
        st = self._state()
        parent = st.stack[-1] if st.stack else None
        if rid is None and parent is not None:
            rid = parent[3]
        frame = [next(self._ids), name, parent[0] if parent else None, rid, now_ns(), 0]
        st.stack.append(frame)
        return frame

    def end(self, frame: list) -> int:
        """Close ``frame``, the innermost open span; returns its duration."""
        t1 = now_ns()
        st = self._local.st
        st.stack.pop()
        sid, name, parent, rid, t0, child = frame
        dur = t1 - t0
        row = st.table.get(name)
        if row is None:
            row = st.table[name] = [0, 0, 0]
        row[0] += dur - child
        row[1] += dur
        row[2] += 1
        if st.stack:
            st.stack[-1][5] += dur
        if len(self.spans) < KEEP:
            self.spans.append((sid, name, t0, t1, parent, st.name, rid))
        return dur

    def add(self, name: str, t0: int, t1: int, *, parent=None, rid=None) -> int:
        """Keep an already-finished span of a served request (e.g. its
        queue wait); such spans are listed under the thread ``requests``."""
        sid = next(self._ids)
        if len(self.spans) < KEEP:
            self.spans.append((sid, name, t0, t1, parent, "requests", rid))
        return sid

    @contextlib.contextmanager
    def span(self, name: str, rid=None):
        frame = self.begin(name, rid)
        try:
            yield frame
        finally:
            self.end(frame)

    def totals(self) -> dict[str, list[int]]:
        """Merged ``name -> [self_ns, total_ns, calls]`` over all threads."""
        out: dict[str, list[int]] = {}
        with self._lock:
            states = list(self._states)
        for st in states:
            for name, (s, t, c) in list(st.table.items()):
                row = out.setdefault(name, [0, 0, 0])
                row[0] += s
                row[1] += t
                row[2] += c
        return out

    def write(self, path, *, meta: dict | None = None) -> None:
        """Write the kept spans as JSON, times in ms from the earliest span."""
        base = min((s[2] for s in self.spans), default=0)
        rows = [
            {"id": sid, "name": name, "start_ms": (t0 - base) / 1e6,
             "end_ms": (t1 - base) / 1e6, "parent": parent, "thread": thread,
             "rid": rid}
            for sid, name, t0, t1, parent, thread, rid in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"meta": meta or {}, "spans": rows}, fh)


def diff(after: dict[str, list[int]], before: dict[str, list[int]]) -> dict[str, list[int]]:
    """Per-name totals accrued between two :meth:`Recorder.totals` calls."""
    out = {}
    for name, row in after.items():
        prev = before.get(name, (0, 0, 0))
        delta = [a - b for a, b in zip(row, prev)]
        if delta[2]:
            out[name] = delta
    return out


def timed(rec: Recorder, name: str, fn):
    """``fn`` wrapped so that each call is one span called ``name``."""

    def wrapper(*args, **kwargs):
        frame = rec.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(frame)

    wrapper.__wrapped__ = fn
    return wrapper


def timed_phase(rec: Recorder, phase):
    """A machine's ``phase`` context manager, recorded as ``phase:<name>``."""

    @contextlib.contextmanager
    def wrapper(name):
        frame = rec.begin("phase:" + name)
        try:
            with phase(name) as bucket:
                yield bucket
        finally:
            rec.end(frame)

    return wrapper


class Patches:
    """Attribute swaps that :meth:`undo` reverts, newest first."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, obj, attr: str, value) -> None:
        self._undo.append((obj, attr, vars(obj).get(attr, _MISSING)))
        setattr(obj, attr, value)

    def wrap(self, rec: Recorder, obj, attr: str, name: str) -> None:
        self.set(obj, attr, timed(rec, name, getattr(obj, attr)))

    def undo(self) -> None:
        while self._undo:
            obj, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, old)
