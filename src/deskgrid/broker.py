"""Resource broker: submission, match-making and job orchestration.

Job lifecycle:

    SUBMITTED -> WAITING -> MATCHED -> SCHEDULED -> RUNNING -> DONE_OK
                      \\         \\          \\                \\-> DONE_FAILED
                       \\---------+----------+--> ABORTED
    DONE_OK / DONE_FAILED -> CLEARED

Aborts happen only before RUNNING (no match, refused at the queue or at
dispatch); failures after dispatch end in DONE_FAILED with the reason
recorded.  Match-making happens in the same simulated instant as the
submission event: candidates of the broker's own schema flavor are
filtered by VO authorization, the job's requirement expression and -- for
data-driven jobs -- the presence of every input file on a storage element
close to the element; the survivor with the highest rank wins (default
rank is minus the estimated traversal time, compared exactly as integer
pairs), ties on rank go to the smallest element id, and replica ties to
the smallest (se, path).  A requirement that does not read the ETT is
evaluated once per element's advertised attributes and then reused.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import datagrid as dg_mod
from . import fabric as fabric_mod
from . import jdl
from .units import fmt_quantity, fmt_ratio
from .vomgmt import Denial, Proxy

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
    below every ranked element), in choice order.  Under the default rank,
    `table` holds minus the ETT times `denominator`, as ints, and
    `candidates` reads those as exact Fractions."""

    table: list
    chosen: "str | None"
    denominator: "int | None" = None

    @property
    def candidates(self) -> list:
        if self.denominator is None:
            return list(self.table)
        return [(ce_id, Fraction(value, self.denominator)) for ce_id, value in self.table]

    def shown(self, value) -> str:
        """A rank value as the trace renders it."""
        if self.denominator is None:
            return fmt_quantity(value)
        return fmt_ratio(value, self.denominator)


@dataclass
class JobRecord:
    job_id: str
    owner: Proxy
    description: jdl.JobDescription
    state: str = SUBMITTED
    pinned_ce: "str | None" = None
    matched_ce: "str | None" = None
    chosen_replicas: dict = field(default_factory=dict)
    staged_checksums: dict = field(default_factory=dict)
    registered_lfns: list = field(default_factory=list)
    sandbox_in: list = field(default_factory=list)
    sandbox_out: list = field(default_factory=list)
    timestamps: dict = field(default_factory=dict)
    reason: "str | None" = None

    def outcome(self) -> str:
        """Final verdict that survives clearing."""
        if self.state != CLEARED:
            return self.state
        return DONE_OK if DONE_OK in self.timestamps else DONE_FAILED


class ResourceBroker:
    def __init__(self, rb_id: str, flavor: str, *, kernel, info, vo, datagrid,
                 fabric, job_id_source: Callable[[], str]):
        self.rb_id = rb_id
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
        # requirement -> {advertised: satisfied}, or None when it reads the
        # ETT, which moves between matches
        self._requirement_memo: dict = {}

    @property
    def endpoint(self) -> str:
        return f"rb:{self.rb_id}"

    # -- state machine -------------------------------------------------

    def _move(self, record: JobRecord, new_state: str) -> None:
        if new_state not in _LEGAL[record.state]:
            raise IllegalTransition(f"{record.job_id}: {record.state} -> {new_state}")
        old = record.state
        record.state = new_state
        record.timestamps[new_state] = self.kernel.now_ms
        detail = {"job": record.job_id, "frm": old, "to": new_state}
        if record.reason and new_state in (ABORTED, DONE_FAILED):
            detail["reason"] = record.reason
        self.kernel.emit(self.rb_id, "job-state", **detail)
        for observer in self.transition_observers:
            observer(record, old, new_state)

    def _abort(self, record: JobRecord, reason: str) -> None:
        record.reason = reason
        self._move(record, ABORTED)

    # -- submission ----------------------------------------------------

    def submit(self, description: jdl.JobDescription, proxy: Proxy,
               pinned_ce: "str | None" = None) -> str:
        """Admit and queue one described job; returns its id.  The match
        runs as a separate event in the same simulated instant (plus the
        brokering delay, zero by default)."""
        if not proxy.valid_at(self.kernel.now_ms):
            raise ProxyExpired(f"{proxy.user_dn}: proxy expired")
        job_id = self.job_id_source()
        record = JobRecord(job_id, proxy, description, pinned_ce=pinned_ce)
        record.timestamps[SUBMITTED] = self.kernel.now_ms
        record.sandbox_in = [(name, fabric_mod.SANDBOX_INPUT_FILE_BYTES)
                             for name in description.input_sandbox]
        self.jobs[job_id] = record
        self.kernel.emit(self.rb_id, "submitted", job=job_id,
                         user=proxy.user_dn, profile=description.job_profile)
        self._move(record, WAITING)
        self.kernel.schedule("user-command", lambda: self._process(record),
                             self.kernel.now_ms + self.brokering_delay_ms)
        return job_id

    def _process(self, record: JobRecord) -> None:
        self.match(record.job_id)
        if record.state == MATCHED:
            self.run_job(record.job_id)

    # -- match-making --------------------------------------------------

    def _match_env(self, ce, ett: tuple) -> dict:
        return {
            "RunTimeEnvironment": ce.run_time_environment,
            "LRMSType": ce.lrms,
            "EstimatedTraversalTime": ett[0] / ett[1],
            "CEId": ce.ce_id,
            "CloseSE": ce.close_ses,
        }

    def match(self, job_id: str) -> MatchResult:
        record = self._record(job_id)
        if record.state != WAITING:
            raise BrokerError(f"{job_id}: match requires WAITING, not {record.state}")
        description = record.description
        requirements, rank = description.requirements, description.rank
        lfns = description.input_lfns
        catalog_ok = (not lfns
                      or description.replica_catalog == self.datagrid.rc.catalog_id)
        try:
            memo = self._requirement_memo[requirements]
        except KeyError:
            memo = self._requirement_memo[requirements] = (
                None if jdl.reads_attribute(requirements, "EstimatedTraversalTime") else {})
        if memo is None:
            memo = {}

        by_ett = []    # (ETT numerator, denominator, ce record): default rank
        scored = []    # (rank value, ce record)
        demoted = []   # rank unusable
        for ce in self.info.query(self.flavor, description.virtual_organisation):
            if record.pinned_ce is not None and ce.ce_id != record.pinned_ce:
                continue
            if self.vo.authorize(ce.site_id, record.owner, self.kernel.now_ms) is not None:
                continue
            if not catalog_ok:
                continue
            if lfns and not self._holds_inputs(ce, lfns):
                continue
            ett = self.fabric.ces[ce.ce_id].ett()
            advertised = (ce.ce_id, ce.lrms, ce.run_time_environment, ce.close_ses)
            if advertised not in memo:
                memo[advertised] = jdl.requirement_satisfied(requirements,
                                                             self._match_env(ce, ett))
            if not memo[advertised]:
                continue
            if rank is None:
                by_ett.append((*ett, ce))
                continue
            value = jdl.evaluate(rank, self._match_env(ce, ett))
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                scored.append((value, ce))
            else:
                demoted.append(ce)  # unusable rank sorts below everything

        denominator = None
        if by_ett:  # minus the ETTs, all over one denominator: exact ints
            denominator = math.lcm(*(d for _n, d, _ce in by_ett))
            scored = [(-n * (denominator // d), ce) for n, d, ce in by_ett]
        scored.sort(key=lambda pair: (-pair[0], pair[1].ce_id))
        demoted.sort(key=lambda ce: ce.ce_id)
        ordered = [(ce.ce_id, value) for value, ce in scored]
        ordered += [(ce.ce_id, None) for ce in demoted]
        result = MatchResult(ordered, ordered[0][0] if ordered else None, denominator)

        if result.chosen is None:
            self.kernel.emit(self.rb_id, "match-failed", job=job_id,
                             reason="NoMatchingResources")
            self._abort(record, "NoMatchingResources")
            for observer in self.match_observers:
                observer(record, result)
            return result

        chosen_ce = scored[0][1] if scored else demoted[0]
        record.matched_ce = chosen_ce.ce_id
        for lfn in lfns:
            close = [rep for rep in self.datagrid.lookup(lfn)
                     if rep[0] in chosen_ce.close_ses]
            record.chosen_replicas[lfn] = min(close)
        table = "|".join(f"{ce_id}:{result.shown(value)}" for ce_id, value in ordered)
        self.kernel.emit(self.rb_id, "matched", job=job_id, ce=result.chosen,
                         rank=result.shown(ordered[0][1]), candidates=table)
        self._move(record, MATCHED)
        for observer in self.match_observers:
            observer(record, result)
        return result

    def _holds_inputs(self, ce, lfns) -> bool:
        for lfn in lfns:
            if not self.datagrid.rc.known(lfn):
                return False
            if not any(se_id in ce.close_ses
                       for se_id, _path in self.datagrid.lookup(lfn)):
                return False
        return True

    # -- orchestration -------------------------------------------------

    def run_job(self, job_id: str) -> None:
        """Hand a matched job to its computing element and drive it to a
        terminal state through transfers, staging and execution."""
        record = self._record(job_id)
        if record.state != MATCHED:
            raise BrokerError(f"{job_id}: run_job requires MATCHED, not {record.state}")
        ce = self.fabric.ces[record.matched_ce]
        profile = self.fabric.profile_for(record.description)
        fabric_job = fabric_mod.FabricJob(
            job_id=job_id,
            proxy=record.owner,
            description=record.description,
            profile=profile,
            on_dispatched=lambda: self._on_dispatched(record),
            on_auth_denied=lambda denial: self._on_auth_denied(record, denial),
            on_exec_complete=lambda outputs, code: self._on_exec_complete(record, outputs, code),
        )
        self._move(record, SCHEDULED)
        try:
            ce.enqueue(fabric_job)
        except fabric_mod.AuthorizationDenied as denied:
            self._abort(record, str(denied))

    def _ce_of(self, record: JobRecord):
        return self.fabric.ces[record.matched_ce]

    def _on_auth_denied(self, record: JobRecord, denial: Denial) -> None:
        self._abort(record, f"AuthorizationDenied({denial})")

    def _on_dispatched(self, record: JobRecord) -> None:
        self._move(record, RUNNING)
        ce = self._ce_of(record)
        size = sum(size for _name, size in record.sandbox_in)
        try:
            self.fabric.network.transfer(
                size, self.endpoint, ce.site.endpoint,
                what=f"input-sandbox:{record.job_id}",
                on_done=lambda: self._stage_next(record, 0))
        except fabric_mod.NoRoute:
            self._fail(record, "NoRoute")

    def _stage_next(self, record: JobRecord, index: int) -> None:
        if record.state != RUNNING:
            return
        lfns = sorted(record.chosen_replicas)
        if index >= len(lfns):
            ce = self._ce_of(record)
            ce.execute(ce.running[record.job_id])
            return
        lfn = lfns[index]
        se_id, path = record.chosen_replicas[lfn]
        store = self.datagrid.store_of(se_id)
        physical = store.get(path)
        if physical is None:
            self._fail(record, "NoSuchPhysicalFile")
            return
        record.staged_checksums[lfn] = physical.checksum
        ce = self._ce_of(record)
        try:
            self.fabric.network.transfer(
                physical.size_bytes, store.site.endpoint, ce.site.endpoint,
                what=f"stage:{lfn}",
                on_done=lambda: self._stage_next(record, index + 1))
        except fabric_mod.NoRoute:
            self._fail(record, "NoRoute")

    def _on_exec_complete(self, record: JobRecord, outputs: list, exit_code: int) -> None:
        profile = self.fabric.profile_for(record.description)
        if exit_code != 0:
            logs = [f for f in outputs if not f.is_data]
            self._return_sandbox(record, logs, DONE_FAILED, "ExecFailed")
            return
        if profile.registers_output:
            to_register = [f for f in outputs if f.is_data]
            sandbox = [f for f in outputs if not f.is_data]
            self._store_next(record, to_register, 0, sandbox)
        else:
            self._return_sandbox(record, outputs, DONE_OK, None)

    def _output_se(self, record: JobRecord) -> str:
        forced = record.description.extra_string("DefaultSE")
        if forced is not None:
            return forced
        ce = self._ce_of(record)
        return min(ce.record.close_ses)

    def _store_next(self, record: JobRecord, files: list, index: int, sandbox: list) -> None:
        if index >= len(files):
            self._return_sandbox(record, sandbox, DONE_OK, None)
            return
        produced = files[index]
        try:
            se_id = self._output_se(record)
            store = self.datagrid.store_of(se_id)
        except dg_mod.UnknownSe:
            self._return_sandbox(record, sandbox, DONE_FAILED, "UnknownSe")
            return
        ce = self._ce_of(record)

        def landed():
            try:
                store.store(produced.name, produced.size_bytes, produced.checksum)
                self.datagrid.rc.register(produced.name, store, produced.name)
            except dg_mod.DataGridError as exc:
                record.reason = type(exc).__name__
                self.kernel.emit(self.rb_id, "output-failed", job=record.job_id,
                                 file=produced.name, reason=record.reason)
                self._return_sandbox(record, sandbox, DONE_FAILED, record.reason)
                return
            record.registered_lfns.append(produced.name)
            self.kernel.emit(self.rb_id, "output-registered", job=record.job_id,
                             lfn=produced.name, se=se_id)
            self._store_next(record, files, index + 1, sandbox)

        try:
            self.fabric.network.transfer(
                produced.size_bytes, ce.site.endpoint, store.site.endpoint,
                what=f"output-data:{produced.name}", on_done=landed)
        except fabric_mod.NoRoute:
            self._return_sandbox(record, sandbox, DONE_FAILED, "NoRoute")

    def _return_sandbox(self, record: JobRecord, files: list, final_state: str,
                        reason: "str | None") -> None:
        record.sandbox_out = list(files)
        ce = self._ce_of(record)
        size = sum(f.size_bytes for f in files)
        try:
            self.fabric.network.transfer(
                size, ce.site.endpoint, self.endpoint,
                what=f"output-sandbox:{record.job_id}",
                on_done=lambda: self._finalize(record, final_state, reason))
        except fabric_mod.NoRoute:
            self._finalize(record, DONE_FAILED, "NoRoute")

    def _finalize(self, record: JobRecord, final_state: str, reason: "str | None") -> None:
        record.reason = reason
        self._move(record, final_state)
        self._release(record)

    def _fail(self, record: JobRecord, reason: str) -> None:
        record.sandbox_out = []
        record.reason = reason
        self._move(record, DONE_FAILED)
        self._release(record)

    def _release(self, record: JobRecord) -> None:
        ce = self._ce_of(record)
        fabric_job = ce.running.get(record.job_id)
        if fabric_job is not None:
            ce.finish(fabric_job)

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
