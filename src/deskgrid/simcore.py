"""Deterministic discrete-event kernel.

A single priority queue keyed by (fire time, insertion sequence) drives the
whole simulation.  Ties on the fire time are delivered in insertion order,
which is what makes runs reproducible: there is no wall clock, no thread,
and no iteration over unordered containers anywhere in the hot path
(`delivering_seq` tells state worked out in closed form where it stands
in that order).  Time is integer milliseconds: the clock is `now_ms`, a
plain attribute that only the kernel writes, `schedule` takes an absolute
ms instant, and seconds (in any exact form) appear only in `run_until`
and the `now()` view.

The kernel also owns the append-only trace.  Each kind of line is declared
once, next to its emitter, as `kind(action, *keys)`.  `Kernel.line` holds a
line as four cells of one flat list: the instant, the actor, the shared
`Kind` and the tuple of values in its key order, each an exact `str` or
`int`, so the one object a line adds is that tuple, which the collector
untracks at its first pass.  `Kernel.emit` takes any values by keyword and
stores each through `exact`, which turns every other value into its
`fmt_quantity` text.  `Kernel.trace` is a read-only `Trace` view that
builds a `TraceEntry` for each line it is asked for.  Each kind renders its
lines with one printf-style `%` template, built once, for both
`TraceEntry.format` and `Kernel.export_trace`, so an export converts no
value; it renders the time stamp once per run of lines at the same instant.
"""
from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from fractions import Fraction
from operator import itemgetter
from typing import Any, Callable

from .units import fmt_quantity, millis_to_text, to_millis


class PastTime(Exception):
    """An event or run target lies before the current simulated time."""


class Kind:
    """One kind of trace line: its action, its keys in order, and its
    printf-style `template`, which `template % ((stamp, actor) + values)`
    renders.  Build kinds with `kind`, which keeps one per (action, keys)."""

    __slots__ = ("action", "keys", "template")

    def __init__(self, action: str, keys: tuple):
        self.action, self.keys = action, keys
        pairs = " ".join(f"{_escaped(key)}=%s" for key in keys)
        self.template = f"%s\t%s\t{_escaped(action)}\t{pairs}"

    def __repr__(self) -> str:
        return f"kind({', '.join(map(repr, (self.action, *self.keys)))})"

    def __reduce__(self):  # a pickled trace reads back the one kind of each line
        return kind, (self.action, *self.keys)


def _escaped(text: str) -> str:
    return text.replace("%", "%%")


_KINDS: dict[tuple, Kind] = {}  # (action, keys) -> its one Kind; kinds are few


def kind(action: str, *keys: str) -> Kind:
    """The kind of line with this action and these keys, in this order.
    A kind declared by an emitter and the one `emit` meets for the same
    action and keys are one object."""
    action, keys = str(action), tuple(map(str, keys))
    found = _KINDS.get((action, keys))
    if found is None:
        found = _KINDS[action, keys] = Kind(action, keys)
    return found


def exact(value) -> "str | int":
    """`value` as a trace line stores it: an exact `str` or `int` as it
    is, any other value as its `fmt_quantity` text."""
    return value if type(value) is str or type(value) is int else fmt_quantity(value)


_new_row = tuple.__new__


class TraceEntry(tuple):
    """One trace line as read: the instant, the actor, the shared `Kind` and
    the tuple of values in its key order, each an exact `str` or `int` --
    the four cells the kernel holds for the line, which `Kernel.trace`
    wraps in an entry on read.

    `TraceEntry(time_ms, actor, action, detail)` builds the entry from a
    dict as `Kernel.emit` does; `detail` is that dict again, built on read."""

    __slots__ = ()

    def __new__(cls, time_ms: int, actor: str, action: str,
                detail: "dict[str, Any] | None" = None):
        detail = detail or {}
        return _new_row(cls, (time_ms, actor, kind(action, *detail),
                              tuple(map(exact, detail.values()))))

    time_ms, actor, kind, values = map(property, map(itemgetter, range(4)))

    def __getnewargs__(self):
        return self.time_ms, self.actor, self.action, self.detail

    @property
    def action(self) -> str:
        return self.kind.action

    @property
    def detail(self) -> dict[str, Any]:
        return dict(zip(self.kind.keys, self.values))

    def format(self) -> str:
        """The line, without its newline."""
        return self.kind.template % ((millis_to_text(self.time_ms), self.actor) + self.values)


class Trace(Sequence):
    """Read-only view of a kernel's trace, one `TraceEntry` per line, built
    on read from the line's four cells; slices are lists of entries.  Only
    `Kernel.line` and `Kernel.emit` add lines."""

    __slots__ = ("_cells",)

    def __init__(self, cells: list):
        self._cells = cells

    def __len__(self) -> int:
        return len(self._cells) // 4

    def __getitem__(self, index):
        count = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(count))]
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("trace index out of range")
        return _new_row(TraceEntry, self._cells[4 * index:4 * index + 4])

    def __iter__(self):
        cells = iter(self._cells)
        for row in zip(cells, cells, cells, cells):
            yield _new_row(TraceEntry, row)


class Kernel:
    """Event queue, clock and trace for one simulation.  The clock, `now_ms`,
    is a plain int attribute that anything may read and only the kernel writes."""

    def __init__(self):
        self.now_ms = 0
        self._seq = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self._cells: list = []  # four per trace line: instant, actor, Kind, values
        #: seq of the event being delivered; None between deliveries
        self.delivering_seq: "int | None" = None

    # -- clock ---------------------------------------------------------

    def now(self) -> Fraction:
        """Current simulated time in seconds."""
        return Fraction(self.now_ms, 1000)

    # -- scheduling ----------------------------------------------------

    def schedule(self, kind: str, payload: Callable[[], None], at_ms: int) -> int:
        """Schedule `payload`, an opaque zero-argument callable, at the
        absolute instant `at_ms` (integer ms) and return the event's seq.

        Events scheduled for the same instant are delivered in the order
        they were scheduled.  Scheduling into the past raises PastTime.
        `kind` names the event for errors and instrumentation.
        """
        if at_ms < self.now_ms:
            raise PastTime(
                f"cannot schedule {kind} at {millis_to_text(at_ms)}, "
                f"now is {millis_to_text(self.now_ms)}"
            )
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (at_ms, seq, payload))
        return seq

    # -- running -------------------------------------------------------

    def run_until(self, t) -> int:
        """Deliver every pending event with fire time <= t (seconds),
        including any inserted during delivery, then advance the clock to
        t.  Returns the number of events delivered.

        An exception raised by a payload propagates out of this method and
        out of `run_to_completion`.  The raising event has been consumed
        and is never delivered again; the clock stays at its instant, short
        of t; `delivering_seq` is None; later events stay queued in
        (instant, seq) order, and the next run delivers them."""
        target_ms = to_millis(t)
        if target_ms < self.now_ms:
            raise PastTime(
                f"cannot run back to {millis_to_text(target_ms)}, "
                f"now is {millis_to_text(self.now_ms)}"
            )
        delivered = self._deliver_through(target_ms)
        self.now_ms = target_ms
        return delivered

    def run_to_completion(self) -> int:
        """Drain the queue entirely; the clock ends on the last event."""
        return self._deliver_through(math.inf)

    def _deliver_through(self, target_ms: "int | float") -> int:
        """Deliver events in (instant, seq) order while the head's instant
        is <= target_ms (math.inf drains the queue); the clock follows
        each delivered event."""
        heap = self._heap
        delivered = 0
        try:
            while heap and heap[0][0] <= target_ms:
                at_ms, seq, payload = heapq.heappop(heap)
                self.now_ms = at_ms
                self.delivering_seq = seq
                delivered += 1
                payload()
        finally:
            self.delivering_seq = None
        return delivered

    def pending_count(self) -> int:
        return len(self._heap)

    # -- trace ---------------------------------------------------------

    @property
    def trace(self) -> Trace:
        """The trace lines, read as `TraceEntry` rows; read-only."""
        return Trace(self._cells)

    def line(self, actor: str, kind: Kind, *values: "str | int") -> None:
        """Append a line of a declared kind at the current instant as four
        cells: the instant, `actor`, `kind` and the values, which come in
        the kind's key order, each an exact `str` or `int` (pass any other
        value through `exact`)."""
        self._cells += (self.now_ms, actor, kind, values)

    def emit(self, actor: str, action: str, **detail: Any) -> TraceEntry:
        """Append a line of any action and keys; it is stored as `line`
        stores it, each value through `exact`."""
        entry = TraceEntry(self.now_ms, actor, action, detail)
        self._cells += entry
        return entry

    def export_trace(self) -> str:
        lines = []
        last_ms = stamp = None
        cells = iter(self._cells)
        for time_ms, actor, kind, values in zip(cells, cells, cells, cells):
            if time_ms != last_ms:  # instants need not be monotone
                last_ms = time_ms
                stamp = millis_to_text(time_ms)
            lines.append(kind.template % ((stamp, actor) + values))
        lines.append("")  # every line ends in a newline; no entries, no text
        return "\n".join(lines)
