"""Monte Carlo production layer: requests, job factory and bookkeeping.

A production request asks for N events of one step (CMKIN generation or
CMSIM detector simulation) split into ceil(N / events_per_job) jobs, the
last one carrying the remainder.  The factory walks each assignment
through declare -> create -> submit, the first two of which check the
request and log it.  Submit builds one typed job description per job under
the VO of the caller's proxy (generation jobs carry no input data;
simulation jobs each name their generator's product, as the fabric names
it, and the replica catalogue), hands them to a resource broker
all-or-nothing and opens one bookkeeping record per job.

Bookkeeping follows the journal model: while a job runs, events_done is
the count at its last monitor point, worked out from the fabric when the
record is read -- but only if the worker node has outbound connectivity;
when it ends, the final status, exit status and output file are always
recorded (the journal travels back with the sandbox), and a failed job
keeps the count of its last monitor point.  events_done never goes
backwards: a regressive update is logged and ignored.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from . import broker as broker_mod
from . import fabric as fabric_mod
from . import jdl
from .simcore import kind
from .vomgmt import Proxy

STEP_CMKIN = "CMKIN"
STEP_CMSIM = "CMSIM"
STEPS = (STEP_CMKIN, STEP_CMSIM)

REQ_NEW = "NEW"
REQ_DECLARED = "DECLARED"
REQ_CREATED = "CREATED"
REQ_SUBMITTED = "SUBMITTED"
REQ_COMPLETE = "COMPLETE"

BOSS_SUBMITTED = "submitted"
BOSS_RUNNING = "running"
BOSS_FINISHED = "finished"
BOSS_FAILED = "failed"
#: the broker states a record books
_BOOKED = {broker_mod.RUNNING, broker_mod.DONE_OK, broker_mod.DONE_FAILED, broker_mod.ABORTED}

#: seed given to job n of any dataset
JOB_SEED_BASE = 2000

#: every factory job asks for an element that publishes the CMS software
JOB_REQUIREMENTS = jdl.MemberCall(jdl.Lit("CMS"), jdl.Attr("RunTimeEnvironment"))


def job_seed_for(index: int) -> int:
    return JOB_SEED_BASE + index - 1


class ProductionError(Exception):
    pass


class UnknownAssignment(ProductionError):
    pass


class WrongState(ProductionError):
    pass


class MissingUpstream(ProductionError):
    pass


class JobsStillRunning(ProductionError):
    pass


class UnknownBossId(ProductionError):
    pass


@dataclass
class ProductionRequest:
    assignment_id: int
    dataset: str
    step: str
    total_events: int
    events_per_job: int
    rb_id: str
    default_se: "str | None" = None
    status: str = REQ_NEW
    scheduler_jobs: list = field(default_factory=list)  # broker job ids
    boss_ids: list = field(default_factory=list)
    summary: "dict | None" = None

    @property
    def job_count(self) -> int:
        return -(-self.total_events // self.events_per_job)  # exact, unlike a float ceil

    def split_events(self) -> list:
        """Per-job event counts; they always sum to total_events."""
        full, remainder = divmod(self.total_events, self.events_per_job)
        counts = [self.events_per_job] * full
        if remainder:
            counts.append(remainder)
        return counts


@dataclass(slots=True)
class BossJobRecord:
    boss_id: int
    scheduler_job_id: str
    job_type: str          # cmkin | cmsim
    dataset: str
    events_declared: int
    input_file: str = "-"
    output_file: str = "-"
    status: str = BOSS_SUBMITTED
    exit_status: "int | None" = None
    events_done: int = 0
    #: live monitor count while the job runs on a connected worker node
    monitor: "Callable[[], int] | None" = field(default=None, repr=False, compare=False)


class RefDb:
    """Request registry.  Simulation requests require a COMPLETE generation
    request for the same dataset; completion is judged when a summary is
    posted, never automatically."""

    def __init__(self):
        self.requests: dict[int, ProductionRequest] = {}
        self._next_id = 1

    def create_request(self, dataset: str, step: str, total_events: int,
                       events_per_job: int, rb_id: str,
                       default_se: "str | None" = None) -> ProductionRequest:
        if step not in STEPS:
            raise ProductionError(f"unknown step {step!r}")
        if total_events < 1 or events_per_job < 1:
            raise ProductionError("event counts must be positive")
        if step == STEP_CMSIM:
            self.upstream_of(dataset)
        request = ProductionRequest(self._next_id, dataset, step,
                                    total_events, events_per_job, rb_id,
                                    default_se=default_se)
        self.requests[self._next_id] = request
        self._next_id += 1
        return request

    def upstream_of(self, dataset: str) -> ProductionRequest:
        """The first COMPLETE generation request for `dataset`."""
        for r in self.requests.values():  # in assignment order
            if r.step == STEP_CMKIN and r.dataset == dataset and r.status == REQ_COMPLETE:
                return r
        raise MissingUpstream(f"no COMPLETE {STEP_CMKIN} request for dataset {dataset!r}")

    def get(self, assignment_id: int) -> ProductionRequest:
        request = self.requests.get(assignment_id)
        if request is None:
            raise UnknownAssignment(str(assignment_id))
        return request

    def dump(self) -> str:
        lines = []
        for aid in sorted(self.requests):
            r = self.requests[aid]
            summary = r.summary or {}
            lines.append(
                f"{aid}\t{r.dataset}\t{r.step}\ttotal={r.total_events}"
                f"\tper_job={r.events_per_job}\tjobs={r.job_count}"
                f"\tstatus={r.status}"
                f"\tok={summary.get('jobs_ok', '-')}"
                f"\tfailed={summary.get('jobs_failed', '-')}"
                f"\tevents_done={summary.get('total_events_done', '-')}"
                f"\tlfns={len(summary['lfns']) if summary else '-'}")
        return "".join(line + "\n" for line in lines)


def _discard(*_args, **_detail) -> None:
    """The emitter of a BossDb built without one."""


class BossDb:
    """Per-job bookkeeping records keyed by an integer id."""

    def __init__(self, emit=None):
        self.records: dict[int, BossJobRecord] = {}
        self.by_scheduler: dict[str, BossJobRecord] = {}
        self.violations: list = []
        self._emit = emit or _discard
        self._next_id = 1

    def open_record(self, scheduler_job_id: str, job_type: str, dataset: str,
                    events_declared: int, input_file: str = "-") -> BossJobRecord:
        record = BossJobRecord(self._next_id, scheduler_job_id, job_type,
                               dataset, events_declared, input_file=input_file)
        self.records[self._next_id] = record
        self.by_scheduler[scheduler_job_id] = record
        self._next_id += 1
        return record

    def get(self, boss_id: int) -> BossJobRecord:
        record = self.records.get(boss_id)
        if record is None:
            raise UnknownBossId(str(boss_id))
        return record

    def update_events_done(self, boss_id: int, value: int) -> None:
        record = self.get(boss_id)
        if value < record.events_done:
            # never roll the counter back; note the attempt and move on
            self.violations.append((boss_id, record.events_done, value))
            self._emit("boss", "monotonicity-violation", boss=boss_id,
                       have=record.events_done, got=value)
            return
        record.events_done = value

    def for_scheduler_job(self, job_id: str) -> "BossJobRecord | None":
        return self.by_scheduler.get(job_id)

    def query(self, status: "str | None" = None, job_type: "str | None" = None,
              dataset: "str | None" = None) -> list:
        out = []
        for r in self.records.values():  # ids only grow: insertion order is id order
            if status is not None and r.status != status:
                continue
            if job_type is not None and r.job_type != job_type:
                continue
            if dataset is not None and r.dataset != dataset:
                continue
            out.append(r)
        return out

    HEADER = "boss_id\tstatus\texit_status\tinput_file\toutput_file\tevents_declared\tevents_done"

    def dump(self, rows: "list | None" = None) -> str:
        rows = self.query() if rows is None else rows
        lines = [self.HEADER]
        for r in rows:
            exit_status = "-" if r.exit_status is None else str(r.exit_status)
            events_done = r.events_done if r.monitor is None else r.monitor()
            lines.append(f"{r.boss_id}\t{r.status}\t{exit_status}"
                         f"\t{r.input_file}\t{r.output_file}"
                         f"\t{r.events_declared}\t{events_done}")
        return "".join(line + "\n" for line in lines)


DECLARED_LINE = kind("declared", "assignment", "jobs")
CREATED_LINE = kind("created", "assignment", "jobs")
SUBMITTED_LINE = kind("submitted", "assignment", "jobs", "rb")
SUMMARY_LINE = kind("summary", "assignment", "ok", "failed", "status")


class ProductionManager:
    """Drives assignments through declare/create/submit and keeps the
    bookkeeping database in step with the running jobs."""

    def __init__(self, kernel, refdb: RefDb, boss: BossDb, brokers: dict,
                 datagrid, fabric):
        self.kernel = kernel
        self.refdb = refdb
        self.boss = boss
        self.brokers = brokers
        self.datagrid = datagrid
        self.fabric = fabric

    # -- assignment steps ---------------------------------------------

    def declare(self, assignment_id: int) -> None:
        request = self.refdb.get(assignment_id)
        if request.status != REQ_NEW:
            raise WrongState(f"assignment {assignment_id} is {request.status}")
        request.status = REQ_DECLARED
        self.kernel.line("factory", DECLARED_LINE, assignment_id, request.job_count)

    def create(self, assignment_id: int) -> None:
        request = self.refdb.get(assignment_id)
        if request.status != REQ_DECLARED:
            raise WrongState(f"assignment {assignment_id} is {request.status}")
        if request.step == STEP_CMSIM:
            upstream = self.refdb.upstream_of(request.dataset)
            if request.job_count > upstream.job_count:
                raise MissingUpstream(
                    f"assignment {assignment_id} wants {request.job_count} inputs, "
                    f"upstream produced {upstream.job_count}")
        request.status = REQ_CREATED
        self.kernel.line("factory", CREATED_LINE, assignment_id, request.job_count)

    def _job_description(self, request: ProductionRequest, index: int, events: int,
                         vo: str, dataset_lit: jdl.Lit,
                         se_lit: "jdl.Lit | None") -> jdl.JobDescription:
        dataset, seed = request.dataset, job_seed_for(index)
        extras = {"Dataset": dataset_lit, "JobIndex": jdl.Lit(index)}
        if se_lit is not None:
            extras["DefaultSE"] = se_lit
        input_data, catalog = (), None
        if request.step == STEP_CMSIM:  # the generator's product of the same index
            generator = self.fabric.profiles[STEP_CMKIN.lower()]
            product = fabric_mod.factory_product_name(generator, dataset, index, seed)
            input_data = (f"lfn:{product}",)
            catalog = self.datagrid.rc.catalog_id
        return jdl.JobDescription(
            executable=request.step.lower(),
            virtual_organisation=vo,
            requirements=JOB_REQUIREMENTS,
            input_sandbox=(f"{dataset}_{index}.cards",),
            input_data=input_data,
            replica_catalog=catalog,
            events=events,
            job_seed=seed,
            extras=extras)

    def submit(self, assignment_id: int, proxy: Proxy) -> list:
        """Build and submit every job of the assignment; refuses as a whole
        when the proxy is not valid now.  Each job declares the proxy's VO."""
        request = self.refdb.get(assignment_id)
        if request.status != REQ_CREATED:
            raise WrongState(f"assignment {assignment_id} is {request.status}")
        if not proxy.valid_at(self.kernel.now_ms):
            raise broker_mod.ProxyExpired(f"{proxy.user_dn}: proxy expired")
        rb = self.brokers.get(request.rb_id)
        if rb is None:
            raise ProductionError(f"unknown resource broker {request.rb_id!r}")
        dataset = jdl.Lit(request.dataset)  # one literal each, shared by every job
        default_se = None if request.default_se is None else jdl.Lit(request.default_se)
        for index, events in enumerate(request.split_events(), start=1):
            description = self._job_description(request, index, events, proxy.vo_name,
                                                dataset, default_se)
            job_id = rb.submit(description, proxy)
            inputs = description.input_lfns
            record = self.boss.open_record(job_id, description.executable, request.dataset,
                                           events, input_file=inputs[0] if inputs else "-")
            request.scheduler_jobs.append(job_id)
            request.boss_ids.append(record.boss_id)
        request.status = REQ_SUBMITTED
        self.kernel.line("factory", SUBMITTED_LINE, assignment_id,
                         len(request.scheduler_jobs), request.rb_id)
        return list(request.boss_ids)

    # -- summaries -----------------------------------------------------

    def post_summary(self, assignment_id: int) -> dict:
        """Collects the assignment's outcome; flips the request COMPLETE
        only when every job ended DONE_OK."""
        request = self.refdb.get(assignment_id)
        if request.status not in (REQ_SUBMITTED, REQ_COMPLETE):
            raise WrongState(f"assignment {assignment_id} is {request.status}")
        rb = self.brokers[request.rb_id]
        outcomes = []
        for job_id in request.scheduler_jobs:
            record = rb.jobs[job_id]
            if record.state not in broker_mod.TERMINAL_STATES:
                raise JobsStillRunning(f"{job_id} is {record.state}")
            outcomes.append(record)
        jobs_ok = sum(1 for r in outcomes if r.outcome() == broker_mod.DONE_OK)
        jobs_failed = len(outcomes) - jobs_ok
        lfns = sorted(lfn for r in outcomes for lfn in r.registered_lfns)
        events_done = sum(self.boss.records[b].events_done for b in request.boss_ids)
        summary = {
            "jobs_ok": jobs_ok,
            "jobs_failed": jobs_failed,
            "total_events_done": events_done,
            "lfns": lfns,
        }
        request.summary = summary
        if jobs_failed == 0:
            request.status = REQ_COMPLETE
        self.kernel.line("factory", SUMMARY_LINE, assignment_id, jobs_ok, jobs_failed,
                         request.status)
        return summary

    # -- hooks from the fabric and the brokers ------------------------

    def on_monitor_tick(self, job_id: str, events_done: int, outbound: bool) -> None:
        record = self.boss.for_scheduler_job(job_id)
        if record is None or not outbound:
            return  # nothing phones home from an isolated worker node
        self.boss.update_events_done(record.boss_id, events_done)

    def on_job_transition(self, job_record, old_state: str, new_state: str) -> None:
        if new_state not in _BOOKED:
            return  # no monitor is set before RUNNING, and none is left after it ends
        record = self.boss.for_scheduler_job(job_record.job_id)
        if record is None:
            return
        if new_state == broker_mod.RUNNING:
            ce = self.fabric.ces.get(job_record.matched_ce)
            if ce is not None and ce.site.outbound:
                record.status = BOSS_RUNNING
                record.monitor = partial(ce.monitor_count, job_record.job_id)
            return
        record.monitor = None
        if new_state == broker_mod.DONE_OK:
            record.status = BOSS_FINISHED
            record.exit_status = 0
            record.events_done = record.events_declared
            if job_record.registered_lfns:
                record.output_file = job_record.registered_lfns[0]
            return
        if new_state == broker_mod.DONE_FAILED:
            record.status = BOSS_FAILED
            record.exit_status = 1
            return
        if new_state == broker_mod.ABORTED:
            record.status = BOSS_FAILED
            record.exit_status = None
