"""Deterministic discrete-event kernel.

A single priority queue keyed by (fire time, insertion sequence) drives the
whole simulation.  Ties on the fire time are delivered in insertion order,
which is what makes runs reproducible: there is no wall clock, no thread,
and no iteration over unordered containers anywhere in the hot path
(`delivering_seq` tells state worked out in closed form where it stands
in that order).  Time is integer milliseconds: `schedule` takes an
absolute ms instant, and seconds (in any exact form) appear only in
`run_until` and the `now()` view.

The kernel also owns the append-only trace.  One line renderer serves both
`TraceEntry.format` and `Kernel.export_trace`: it writes an exact `str`
value as it is and hands every other value to `fmt_quantity`, and an export
renders the time stamp once per run of entries at the same instant.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .units import fmt_quantity, millis_to_text, to_millis


class PastTime(Exception):
    """An event or run target lies before the current simulated time."""


@dataclass
class TraceEntry:
    time_ms: int
    actor: str
    action: str
    detail: dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        return _render_line(millis_to_text(self.time_ms), self)


def _render_line(stamp: str, entry: TraceEntry) -> str:
    """One trace line, without its newline, under the rendered `stamp`."""
    kv = " ".join([f"{k}={v if type(v) is str else fmt_quantity(v)}"
                   for k, v in entry.detail.items()])
    return f"{stamp}\t{entry.actor}\t{entry.action}\t{kv}"


class Kernel:
    """Event queue, clock and trace for one simulation."""

    def __init__(self):
        self._now_ms = 0
        self._seq = 0
        self._heap: list[tuple[int, int, Callable[[], None]]] = []
        self.trace: list[TraceEntry] = []
        #: seq of the event being delivered; None between deliveries
        self.delivering_seq: "int | None" = None

    # -- clock ---------------------------------------------------------

    @property
    def now_ms(self) -> int:
        return self._now_ms

    def now(self) -> Fraction:
        """Current simulated time in seconds."""
        return Fraction(self._now_ms, 1000)

    # -- scheduling ----------------------------------------------------

    def schedule(self, kind: str, payload: Callable[[], None], at_ms: int) -> int:
        """Schedule `payload`, an opaque zero-argument callable, at the
        absolute instant `at_ms` (integer ms) and return the event's seq.

        Events scheduled for the same instant are delivered in the order
        they were scheduled.  Scheduling into the past raises PastTime.
        `kind` names the event for errors and instrumentation.
        """
        if at_ms < self._now_ms:
            raise PastTime(
                f"cannot schedule {kind} at {millis_to_text(at_ms)}, "
                f"now is {millis_to_text(self._now_ms)}"
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
        if target_ms < self._now_ms:
            raise PastTime(
                f"cannot run back to {millis_to_text(target_ms)}, "
                f"now is {millis_to_text(self._now_ms)}"
            )
        delivered = self._deliver_through(target_ms)
        self._now_ms = target_ms
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
                self._now_ms = at_ms
                self.delivering_seq = seq
                delivered += 1
                payload()
        finally:
            self.delivering_seq = None
        return delivered

    def pending_count(self) -> int:
        return len(self._heap)

    # -- trace ---------------------------------------------------------

    def emit(self, actor: str, action: str, **detail: Any) -> TraceEntry:
        entry = TraceEntry(self._now_ms, actor, action, detail)
        self.trace.append(entry)
        return entry

    def export_trace(self) -> str:
        lines = []
        last_ms = stamp = None
        for entry in self.trace:
            if entry.time_ms != last_ms:  # instants need not be monotone
                last_ms = entry.time_ms
                stamp = millis_to_text(last_ms)
            lines.append(_render_line(stamp, entry))
        lines.append("")  # every line ends in a newline; no entries, no text
        return "\n".join(lines)
