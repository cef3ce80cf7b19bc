"""Resource broker: submission, match-making and job orchestration.

Job lifecycle:

    SUBMITTED -> WAITING -> MATCHED -> SCHEDULED -> RUNNING -> DONE_OK
                      \\         \\          \\                \\-> DONE_FAILED
                       \\---------+----------+--> ABORTED
    DONE_OK / DONE_FAILED -> CLEARED

A job in flight is one slotted record, the `FabricJob` its element queues
and runs and calls this broker's handlers with.  A job ends only through
`_finalize`, which writes its reason and frees its node.  Aborts happen
only before RUNNING (no match, or `_refused` at the queue or at dispatch).
A dispatched job's data moves one transfer per leg: the input sandbox,
each input, its one data product to a storage element, and the output
sandbox, held once it lands.  No route fails the job, except on the output
leg, which still returns the logs.  Match-making happens in the same
simulated instant as the submission event: candidates of the broker's own
schema flavor are filtered by VO authorization, the job's requirement
expression and -- for data-driven jobs -- the presence of every input file
on a storage element close to the element; the survivor with the highest
rank wins (default rank is minus the estimated traversal time, compared
exactly as integer pairs), ties on rank go to the smallest element id, and
replica ties to the smallest (se, path).

What is the same for every candidate is done once per match: the owner's
proxy is checked at that instant, and each input is looked up in the
catalogue once, as the set of storage elements holding it.  What is the
same for every match is kept: the admissible set of a (VO, owner,
requirement, pin) -- the ids of the elements of the broker's flavor the VO
may use, whose site maps the owner and whose advertised attributes satisfy
the requirement -- until the index's or the VO manager's `generation`
moves (a publish, a mapfile sync); a published record with no element is
left out.  A requirement that does not read the ETT is tested once per
element, when its set is built.  The broker reads the fabric's one
default-rank order: a default-rank match keeps the rows of its set's ids,
filters them by the replicas and joins their entries into the table; only
an explicit `Rank` or a requirement that reads the ETT is evaluated per
element of the set.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from operator import itemgetter
from types import MappingProxyType
from typing import Callable

from . import datagrid as dg_mod
from . import fabric as fabric_mod
from . import jdl
from .simcore import kind
from .units import fmt_quantity
from .vomgmt import Proxy

SUBMITTED = "SUBMITTED"
WAITING = "WAITING"
MATCHED = "MATCHED"
SCHEDULED = "SCHEDULED"
RUNNING = "RUNNING"
DONE_OK = "DONE_OK"
DONE_FAILED = "DONE_FAILED"
ABORTED = "ABORTED"
CLEARED = "CLEARED"

_LEGAL = {
    SUBMITTED: (WAITING, ABORTED),
    WAITING: (MATCHED, ABORTED),
    MATCHED: (SCHEDULED, ABORTED),
    SCHEDULED: (RUNNING, ABORTED),
    RUNNING: (DONE_OK, DONE_FAILED),
    DONE_OK: (CLEARED,),
    DONE_FAILED: (CLEARED,),
    ABORTED: (),
    CLEARED: (),
}

TERMINAL_STATES = (DONE_OK, DONE_FAILED, ABORTED, CLEARED)

JOB_STATE_LINE = kind("job-state", "job", "frm", "to")
#: a move into ABORTED or DONE_FAILED names its reason
JOB_STATE_REASON_LINE = kind("job-state", "job", "frm", "to", "reason")
SUBMITTED_LINE = kind("submitted", "job", "user", "profile")
MATCH_FAILED_LINE = kind("match-failed", "job", "reason")
MATCHED_LINE = kind("matched", "job", "ce", "rank", "candidates")
OUTPUT_FAILED_LINE = kind("output-failed", "job", "file", "reason")
OUTPUT_REGISTERED_LINE = kind("output-registered", "job", "lfn", "se")


class BrokerError(Exception):
    pass


class ProxyExpired(BrokerError):
    pass


class UnknownJob(BrokerError):
    pass


class NotDone(BrokerError):
    pass


class AlreadyCleared(BrokerError):
    pass


class IllegalTransition(BrokerError):
    pass


@dataclass
class MatchResult:
    """Audit record of one match: every surviving candidate with its rank
    value (None when the rank evaluated to something unusable, which sorts
    below every ranked element), in choice order.  `ranked` holds (element
    id, rank value) pairs, or under the default rank the rows of the
    fabric's order the match kept, (ETT * `denominator`/d, element id,
    table entry), `denominator` being the fabric's D at that match;
    `table` reads those as minus the ETT times `denominator`, as ints, and
    `candidates` as exact Fractions."""

    ranked: list
    chosen: "str | None"
    denominator: "int | None" = None

    @property
    def table(self) -> list:
        if self.denominator is None:
            return self.ranked
        return [(ce_id, -key) for key, ce_id, _entry in self.ranked]

    @property
    def candidates(self) -> list:
        if self.denominator is None:
            return list(self.table)
        return [(ce_id, Fraction(value, self.denominator)) for ce_id, value in self.table]


_ENTRY = itemgetter(2)
_NO_INPUTS = MappingProxyType({})  # the replicas of every job without inputs, shared


@dataclass(slots=True)
class JobRecord(fabric_mod.FabricJob):
    """The broker's book of one job, and the job its element queues and runs.
    The four containers a job may never fill start as the one shared `()`;
    the first fill makes a dict (chosen replicas, staged checksums), a list
    (sandbox) or a tuple (registered names)."""

    state: str = SUBMITTED
    pinned_ce: "str | None" = None
    ce: "fabric_mod.ComputingElement | None" = None  # the matched element
    chosen_replicas: "dict | tuple" = ()
    staged_checksums: "dict | tuple" = ()
    registered_lfns: tuple = ()
    sandbox_out: "list | tuple" = ()
    timestamps: dict = field(default_factory=dict)
    reason: "str | None" = None

    @property
    def matched_ce(self) -> "str | None":
        return None if self.ce is None else self.ce.ce_id

    def outcome(self) -> str:
        """Final verdict that survives clearing."""
        if self.state != CLEARED:
            return self.state
        return DONE_OK if DONE_OK in self.timestamps else DONE_FAILED


class ResourceBroker:
    def __init__(self, rb_id: str, flavor: str, *, kernel, info, vo, datagrid,
                 fabric, job_id_source: Callable[[], str]):
        self.rb_id = rb_id
        self.endpoint = f"rb:{rb_id}"
        self.flavor = flavor
        self.kernel = kernel
        self.info = info
        self.vo = vo
        self.datagrid = datagrid
        self.fabric = fabric
        self.job_id_source = job_id_source
        self.brokering_delay_ms = 0  # from a submission to its match event
        self.jobs: dict[str, JobRecord] = {}
        self.transition_observers: list = []
        self.match_observers: list = []
        # (vo, owner, requirement, pin) -> (whether the requirement reads the ETT,
        # the ids it admits), for one generation of the index and the mapfiles
        self._kept: dict = {}
        self._generation = None

    # -- state machine -------------------------------------------------

    def _move(self, record: JobRecord, new_state: str) -> None:
        if new_state not in _LEGAL[record.state]:
            raise IllegalTransition(f"{record.job_id}: {record.state} -> {new_state}")
        old = record.state
        record.state = new_state
        record.timestamps[new_state] = self.kernel.now_ms
        if record.reason and new_state in (ABORTED, DONE_FAILED):
            self.kernel.line(self.rb_id, JOB_STATE_REASON_LINE, record.job_id, old,
                             new_state, record.reason)
        else:
            self.kernel.line(self.rb_id, JOB_STATE_LINE, record.job_id, old, new_state)
        for observer in self.transition_observers:
            observer(record, old, new_state)

    # -- submission ----------------------------------------------------

    def submit(self, description: jdl.JobDescription, proxy: Proxy,
               pinned_ce: "str | None" = None) -> str:
        """Admit and queue one described job; returns its id.  The match
        runs as a separate event in the same simulated instant (plus the
        brokering delay, zero by default)."""
        if not proxy.valid_at(self.kernel.now_ms):
            raise ProxyExpired(f"{proxy.user_dn}: proxy expired")
        job_id = self.job_id_source()
        record = JobRecord(job_id, proxy, description, broker=self, pinned_ce=pinned_ce)
        record.timestamps[SUBMITTED] = self.kernel.now_ms
        self.jobs[job_id] = record
        self.kernel.line(self.rb_id, SUBMITTED_LINE, job_id, proxy.user_dn,
                         description.job_profile)
        self._move(record, WAITING)
        self.kernel.schedule("user-command", partial(self._process, record),
                             self.kernel.now_ms + self.brokering_delay_ms)
        return job_id

    def _process(self, record: JobRecord) -> None:
        self.match(record)
        if record.state == MATCHED:
            self.run_job(record)

    # -- match-making --------------------------------------------------

    def match(self, record: JobRecord) -> MatchResult:
        job_id = record.job_id
        if record.state != WAITING:
            raise BrokerError(f"{job_id}: match requires WAITING, not {record.state}")
        description = record.description
        requirements, rank = description.requirements, description.rank
        # the same for every candidate: whether the proxy is valid now and
        # every input resolves, and the storage elements holding each input
        replicas = self._resolve_inputs(description)
        reads_ett, order = False, []
        if record.owner.valid_at(self.kernel.now_ms) and replicas is not None:
            reads_ett, members = self._admissible(description.virtual_organisation,
                                                  record.owner.user_dn, requirements,
                                                  record.pinned_ce)
            order = [row for row in self.fabric.order if row[1] in members]
            ces = self.info.ces
            for reps in replicas.values():  # close to a replica of every input
                held = {se_id for se_id, _path in reps}
                order = [row for row in order if not held.isdisjoint(ces[row[1]].close_ses)]

        if rank is None:
            if reads_ett:  # the requirement reads the ETT: tested now
                order = [row for row in order if jdl.requirement_satisfied(
                    requirements, self._match_env(row[1]))]
            result = MatchResult(order, order[0][1] if order else None, self.fabric.denominator)
            rank_shown = order[0][2][len(result.chosen) + 1:] if order else None
            table = "|".join(map(_ENTRY, order))
        else:
            scored = []    # (rank value, ce_id)
            demoted = []   # rank unusable
            for _key, ce_id, _entry in order:
                env = self._match_env(ce_id)
                if reads_ett and not jdl.requirement_satisfied(requirements, env):
                    continue
                value = jdl.evaluate(rank, env)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    scored.append((value, ce_id))
                else:
                    demoted.append(ce_id)  # unusable rank sorts below everything
            scored.sort(key=lambda pair: (-pair[0], pair[1]))
            ordered = [(ce_id, value) for value, ce_id in scored]
            ordered += [(ce_id, None) for ce_id in sorted(demoted)]
            result = MatchResult(ordered, ordered[0][0] if ordered else None)
            rank_shown = fmt_quantity(ordered[0][1]) if ordered else None
            table = "|".join(f"{ce_id}:{fmt_quantity(value)}" for ce_id, value in ordered)

        if result.chosen is None:
            self.kernel.line(self.rb_id, MATCH_FAILED_LINE, job_id, "NoMatchingResources")
            self._finalize(record, ABORTED, "NoMatchingResources")
        else:
            record.ce = self.fabric.ces[result.chosen]
            close_ses = self.info.ces[result.chosen].close_ses
            if replicas:  # a job without inputs keeps the shared ()
                record.chosen_replicas = {lfn: next(rep for rep in reps if rep[0] in close_ses)
                                          for lfn, reps in replicas.items()}
            self.kernel.line(self.rb_id, MATCHED_LINE, job_id, result.chosen, rank_shown, table)
            self._move(record, MATCHED)
        for observer in self.match_observers:
            observer(record, result)
        return result

    def _match_env(self, ce_id: str) -> dict:
        ce, (n, d) = self.info.ces[ce_id], self.fabric.entries[ce_id]
        return {
            "RunTimeEnvironment": ce.run_time_environment,
            "LRMSType": ce.lrms,
            "EstimatedTraversalTime": n / d,
            "CEId": ce.ce_id,
            "CloseSE": ce.close_ses,
        }

    # -- kept admissible sets -------------------------------------------

    def _admissible(self, vo: str, user_dn: str, requirements, pinned) -> tuple:
        """(reads_ett, ids) kept for (vo, user_dn, requirements, pinned),
        built on first use in this generation of the index and the mapfiles,
        with the fabric's order brought up to date.  A requirement that
        reads the ETT is left out of the build; each match tests it itself."""
        generation = (self.info.generation, self.vo.generation)
        if generation != self._generation:
            self._generation = generation
            self._kept.clear()
        self.fabric.refresh()
        key = (vo, user_dn, requirements, pinned)
        kept = self._kept.get(key)
        if kept is not None:
            return kept
        reads_ett = jdl.reads_attribute(requirements, "EstimatedTraversalTime")
        members = set()
        for ce in self.info.query(self.flavor, vo):
            if pinned not in (None, ce.ce_id) or ce.ce_id not in self.fabric.ces:
                continue  # not the pinned element, or published without an element
            if not self.vo.maps(ce.site_id, user_dn):
                continue
            if reads_ett or jdl.requirement_satisfied(requirements, self._match_env(ce.ce_id)):
                members.add(ce.ce_id)
        self._kept[key] = (reads_ett, members)
        return reads_ett, members

    def _resolve_inputs(self, description) -> "dict | None":
        """Each input name's sorted replicas, read once per match; None when
        the job names another catalogue or an input the catalogue lacks."""
        lfns = description.input_lfns
        if not lfns:
            return _NO_INPUTS
        rc = self.datagrid.rc
        if description.replica_catalog != rc.catalog_id or not all(map(rc.known, lfns)):
            return None
        return {lfn: rc.lookup(lfn) for lfn in lfns}

    # -- orchestration -------------------------------------------------

    def run_job(self, record: JobRecord) -> None:
        """Hand a matched job to its computing element and drive it to a
        terminal state through transfers, staging and execution."""
        if record.state != MATCHED:
            raise BrokerError(f"{record.job_id}: run_job requires MATCHED, not {record.state}")
        record.profile = self.fabric.profile_for(record.description)
        self._move(record, SCHEDULED)
        record.ce.enqueue(record)

    def _refused(self, record: JobRecord, denial) -> None:
        self._finalize(record, ABORTED, f"AuthorizationDenied({denial})")

    def _send(self, record: JobRecord, size: int, frm: str, to: str, what: str,
              then, *args) -> None:
        """Move one leg; `then(*args)` runs when it lands, and no route fails the job."""
        try:
            self.fabric.network.transfer(size, frm, to, what=what,
                                         on_done=partial(then, *args))
        except fabric_mod.NoRoute:
            self._finalize(record, DONE_FAILED, "NoRoute")

    def _on_dispatched(self, record: JobRecord) -> None:
        self._move(record, RUNNING)
        size = fabric_mod.SANDBOX_INPUT_FILE_BYTES * len(record.description.input_sandbox)
        self._send(record, size, self.endpoint, record.ce.site.endpoint,
                   f"input-sandbox:{record.job_id}", self._stage_next, record, 0)

    def _stage_next(self, record: JobRecord, index: int) -> None:
        inputs = sorted(record.chosen_replicas.items()) if record.chosen_replicas else ()
        if index >= len(inputs):
            record.ce.execute(record)
            return
        lfn, (se_id, path) = inputs[index]
        store = self.datagrid.store_of(se_id)
        row = store.files.get(path)
        if row is None:
            self._finalize(record, DONE_FAILED, "NoSuchPhysicalFile")
            return
        if not record.staged_checksums:  # the first input staged
            record.staged_checksums = {}
        size, record.staged_checksums[lfn] = row
        self._send(record, size, store.site.endpoint, record.ce.site.endpoint,
                   f"stage:{lfn}", self._stage_next, record, index + 1)

    def _on_exec_complete(self, record: JobRecord, outputs: list, exit_code: int) -> None:
        logs = [f for f in outputs if not f.is_data]
        if exit_code != 0:
            self._return_sandbox(record, logs, DONE_FAILED, "ExecFailed")
        elif record.profile.registers_output:
            self._store_next(record, next(f for f in outputs if f.is_data), logs)
        else:
            self._return_sandbox(record, outputs, DONE_OK, None)

    def _store_next(self, record: JobRecord, produced, sandbox: list) -> None:
        """Move the data product to the job's DefaultSE, else to its element's
        first close SE; an unknown SE or no route still returns the logs, and
        so does an SE without room for it, checked before and after it moves."""
        se_id = record.description.extra_string("DefaultSE")
        ce = record.ce
        try:
            store = self.datagrid.store_of(min(ce.record.close_ses) if se_id is None else se_id)
            if not store.room_for(produced.size_bytes):
                raise dg_mod.SeFull(f"{store.se_id} cannot take {produced.name}")
            self.fabric.network.transfer(
                produced.size_bytes, ce.site.endpoint, store.site.endpoint,
                what=f"output-data:{produced.name}",
                on_done=partial(self._landed, record, produced, store, sandbox))
        except dg_mod.SeFull as exc:
            self._output_failed(record, produced, sandbox, exc)
        except (dg_mod.UnknownSe, fabric_mod.NoRoute) as exc:
            self._return_sandbox(record, sandbox, DONE_FAILED, type(exc).__name__)

    def _landed(self, record: JobRecord, produced, store, sandbox: list) -> None:
        """Store and register the landed data product, then return the sandbox."""
        try:
            self.datagrid.put(store, produced.name, produced.size_bytes, produced.checksum)
        except dg_mod.DataGridError as exc:
            self._output_failed(record, produced, sandbox, exc)
            return
        record.registered_lfns = (produced.name,)  # a job's one data product
        self.kernel.line(self.rb_id, OUTPUT_REGISTERED_LINE, record.job_id, produced.name,
                         store.se_id)
        self._return_sandbox(record, sandbox, DONE_OK, None)

    def _output_failed(self, record: JobRecord, produced, sandbox: list, exc) -> None:
        reason = type(exc).__name__
        self.kernel.line(self.rb_id, OUTPUT_FAILED_LINE, record.job_id, produced.name, reason)
        self._return_sandbox(record, sandbox, DONE_FAILED, reason)

    def _return_sandbox(self, record: JobRecord, files: list, final_state: str,
                        reason: "str | None") -> None:
        self._send(record, sum(f.size_bytes for f in files), record.ce.site.endpoint,
                   self.endpoint, f"output-sandbox:{record.job_id}",
                   self._sandbox_landed, record, files, final_state, reason)

    def _sandbox_landed(self, record: JobRecord, files: list, final_state: str,
                        reason: "str | None") -> None:
        record.sandbox_out = files
        self._finalize(record, final_state, reason)

    def _finalize(self, record: JobRecord, final_state: str, reason: "str | None") -> None:
        """The only way into DONE_OK, DONE_FAILED or ABORTED; frees the job's node."""
        record.reason = reason
        self._move(record, final_state)
        if record.wn >= 0:  # it took a node, which it holds until now
            record.ce.finish(record)

    # -- user-facing reads and retrieval -------------------------------

    def _record(self, job_id: str) -> JobRecord:
        record = self.jobs.get(job_id)
        if record is None:
            raise UnknownJob(job_id)
        return record

    def get_output(self, job_id: str, dest_dir=None) -> list:
        """Manifest of the held output sandbox; clears the job.  A second
        call raises AlreadyCleared."""
        record = self._record(job_id)
        if record.state == CLEARED:
            raise AlreadyCleared(job_id)
        if record.state not in (DONE_OK, DONE_FAILED):
            raise NotDone(f"{job_id} is {record.state}")
        manifest = [(f.name, f.size_bytes, f"{f.checksum:016x}")
                    for f in record.sandbox_out]
        if dest_dir is not None:
            import pathlib

            target = pathlib.Path(dest_dir)
            target.mkdir(parents=True, exist_ok=True)
            lines = ["name\tbytes\tchecksum"]
            lines += [f"{name}\t{size}\t{mark}" for name, size, mark in manifest]
            (target / f"{job_id}.manifest").write_text("".join(l + "\n" for l in lines))
        self._move(record, CLEARED)
        return manifest
