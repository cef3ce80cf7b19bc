"""Information index: computing-element records, and a view of their
traversal estimates.

The index holds what brokers read.  Computing elements publish which
information schema flavors they speak, and their static attributes,
close storage elements included; a record holds no load.  Storage
elements are not published: they live in the data grid.
A query is always for one flavor, so resources only ever surface to
brokers of that flavor; Condor-managed elements cannot publish the EDG
flavor at all (the publisher does not report the data that schema needs)
unless the record carries an explicit override.  A query scans every
record; `generation` counts the valid publishes, so a broker keeps the
admissible sets it built from query answers until it changes.  A query
therefore runs once per kept set a broker builds, not once per match.

The estimated traversal time of an element is the CPU backlog a newly
arriving job would see:

    ETT = (sum of remaining CPU seconds of running jobs
           + sum of estimated CPU seconds of queued jobs) / wn_count

computed exactly in integers: each element counts CPU in a unit of its
own in which every job's CPU is whole, so ETT is an integer pair.  The
element computes it (`fabric.ComputingElement.ett`).  The running term is
summed over the running jobs only, at most one per worker node; the fabric
keeps it, and rescans it only when a monitor point or a move of the
element may have moved it.  The queued term is maintained by the element
itself, added on enqueue and subtracted when a job leaves the queue, so an
estimate costs the same however deep the queue is.

The index keeps only an exact Fraction view of it,
`estimated_traversal_time`, read from the fabric's own element map, which
it is built with, for readers outside the match path.  The benchmark
tracer wraps that view and `ComputingElement.ett_components` by name, so
both stay until the tracer counts ETT work where the element does it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

LRMS_KINDS = ("PBS", "LSF", "CONDOR")
SCHEMA_FLAVORS = ("EDG", "GLUE", "GLOBUS_ONLY")
QUERY_FLAVORS = ("EDG", "GLUE")


class InfoSysError(Exception):
    pass


class InvariantViolation(InfoSysError):
    pass


class UnknownCE(InfoSysError):
    pass


@dataclass
class CERecord:
    ce_id: str
    site_id: str
    lrms: str
    schema_flavors: tuple
    run_time_environment: tuple
    wn_count: int
    cpu_mhz: int
    authorized_vos: tuple
    close_ses: tuple
    allow_condor_edg: bool = False

    def validate(self) -> None:
        if self.lrms not in LRMS_KINDS:
            raise InvariantViolation(f"{self.ce_id}: unknown LRMS {self.lrms!r}")
        bad = [f for f in self.schema_flavors if f not in SCHEMA_FLAVORS]
        if bad or not self.schema_flavors:
            raise InvariantViolation(f"{self.ce_id}: bad schema flavors {self.schema_flavors!r}")
        if self.lrms == "CONDOR" and "EDG" in self.schema_flavors and not self.allow_condor_edg:
            raise InvariantViolation(
                f"{self.ce_id}: a Condor-managed element cannot publish the EDG "
                f"flavor (no publisher support); set allow_condor_edg to override")
        if self.wn_count < 1:
            raise InvariantViolation(f"{self.ce_id}: wn_count must be at least 1")
        if self.cpu_mhz < 1:
            raise InvariantViolation(f"{self.ce_id}: cpu_mhz must be positive")


class InformationIndex:
    """Registry of published CE records.  The ETT view reads `elements`, the
    fabric's element map in a grid: each element's `ett()` is the ETT in
    seconds as an unreduced pair of ints (numerator, denominator > 0)."""

    def __init__(self, elements: "dict | None" = None):
        self.ces: dict[str, CERecord] = {}
        self._elements = {} if elements is None else elements  # not copied: filled later
        # counts valid publishes: a reader keeping anything derived from
        # `ces` keeps it while this stays the same
        self.generation = 0

    def publish_ce(self, record: CERecord) -> None:
        record.validate()
        self.ces[record.ce_id] = record  # republish replaces by id
        self.generation += 1

    def query(self, flavor: str, vo: str) -> list[CERecord]:
        """Elements speaking `flavor` that authorize `vo`, sorted by id."""
        if flavor not in QUERY_FLAVORS:
            raise InfoSysError(f"queries must use one of {QUERY_FLAVORS}, not {flavor!r}")
        hits = [ce for ce in self.ces.values()
                if flavor in ce.schema_flavors and vo in ce.authorized_vos]
        return sorted(hits, key=lambda ce: ce.ce_id)

    def estimated_traversal_time(self, ce_id: str) -> Fraction:
        """ETT in seconds, exact; a published id with no element is idle."""
        if ce_id not in self.ces:
            raise UnknownCE(ce_id)
        element = self._elements.get(ce_id)
        return Fraction(0) if element is None else Fraction(*element.ett())
