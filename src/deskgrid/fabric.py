"""Site fabric: workload profiles, links, batch queues and execution.

Everything a job does on the fabric is synthetic but exactly timed:

    runtime  = events * per_event_cpu_seconds_at_1ghz * (1000 / cpu_mhz)
    transfer = sum over hops of (latency + size / bandwidth)

each an unreduced integer ratio of seconds -- a job's runtime is its
element's CPU pair (units, units per second), a transfer's is summed from
the hop parameters over a common denominator -- rounded once to
milliseconds by `to_millis(n, per)` and added to the kernel's integer-ms
clock, with no Fraction built on the way.  File content is never
materialised; a job's outputs are (name, size, checksum) triples fully
determined by the workload profile, dataset, job index and event count,
so reruns anywhere agree byte-for-byte on what they claim to have
produced.

A computing element is the only record of its load: its FIFO queue, its
running jobs, each holding the index of its worker node, and a heap of
free node indices, so the lowest free node takes the next job.  It owns
its estimated traversal time, `ett()`, which the broker reads directly;
nothing copies the load.

A running job's monitor points, every `monitor_every_events` events, are
never scheduled: `FabricJob.monitor_count` works out which lie behind now.
The element keeps the CPU its running jobs have left as a cached term
with a horizon, the first instant at or after the last rescan on which a
running job has a monitor point.  A read before the horizon reuses the
term, since no monitor point lies between; a read at or past it rescans.
Dispatch, the start and end of execution, the release of a node and a
change of CPU unit drop the term, so the next read rescans.

Routes are at most one WAN hop plus the destination LAN: endpoints are
sites, broker hosts and the user-interface host, and a pair without an
explicit link falls back to the topology's default WAN parameters when
configured, otherwise there is no route.  A route follows from its
endpoints: the LAN leg, one (bandwidth, latency) pair shared by every
site, is added exactly when the destination is a site.  Links are not
contended.
"""
from __future__ import annotations

import hashlib
import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable

from . import vomgmt
from .jdl import JobDescription
from .simcore import Kernel
from .units import KB, MB, fmt_ratio, to_millis


#: a horizon that every read is at or past: the cached running term is dropped
STALE = -1


class FabricError(Exception):
    pass


class NoRoute(FabricError):
    pass


class AuthorizationDenied(FabricError):
    def __init__(self, denial: vomgmt.Denial):
        self.denial = denial
        super().__init__(f"AuthorizationDenied({denial})")


# --------------------------------------------------------------------------
# workload profiles

@dataclass(frozen=True)
class WorkloadProfile:
    """What one event of a given application costs and produces.  The two
    per-event figures are also kept as int (numerator, denominator) pairs,
    read on the event path."""

    name: str
    per_event_cpu_1ghz: Fraction       # CPU seconds per event on a 1 GHz core
    output_bytes_per_event: Fraction
    monitor_every_events: int = 10
    registers_output: bool = False     # data product -> close SE + catalogue
    data_extension: str = "dat"
    cpu_pair: tuple = field(init=False, repr=False, compare=False)
    output_pair: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cpu_pair", self.per_event_cpu_1ghz.as_integer_ratio())
        object.__setattr__(self, "output_pair", self.output_bytes_per_event.as_integer_ratio())

    def validate(self) -> None:
        if self.per_event_cpu_1ghz <= 0 or self.output_bytes_per_event <= 0:
            raise FabricError(f"profile {self.name}: per-event figures must be positive")
        if self.monitor_every_events < 1:
            raise FabricError(f"profile {self.name}: monitor_every_events must be >= 1")

    def runtime_s(self, events: int, cpu_mhz: int) -> Fraction:
        return events * self.per_event_cpu_1ghz * Fraction(1000, cpu_mhz)

    def output_size(self, events: int) -> int:
        """events * output_bytes_per_event bytes, rounded half-up."""
        num, den = self.output_pair
        return (2 * events * num + den) // (2 * den)


def builtin_profiles() -> dict:
    """The three applications every site has installed, plus the fallback
    used when a description names something unknown."""
    return {
        "atlsim": WorkloadProfile("atlsim", Fraction(150), Fraction(180 * KB),
                                  data_extension="zebra"),
        "cmkin": WorkloadProfile("cmkin", Fraction(1, 2), Fraction(50 * KB),
                                 registers_output=True, data_extension="ntpl"),
        "cmsim": WorkloadProfile("cmsim", Fraction(350), Fraction(9, 5) * MB,
                                 registers_output=True, data_extension="fz"),
        "custom": WorkloadProfile("custom", Fraction(1), Fraction(KB)),
    }


def content_checksum(profile: str, dataset: str, job_index: int, events: int,
                     filename: str = "") -> int:
    """Stable 64-bit stand-in for the checksum of a produced file."""
    key = "\x1f".join((profile, dataset, str(job_index), str(events), filename))
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class OutputFile:
    name: str
    size_bytes: int
    checksum: int
    is_data: bool


STDOUT_BASE_BYTES = 1024
STDOUT_BYTES_PER_EVENT = 16
STDERR_BYTES = 512
SANDBOX_INPUT_FILE_BYTES = 4 * KB
SANDBOX_AUX_FILE_BYTES = 8 * KB


def data_file_name(jd: JobDescription, profile: WorkloadProfile) -> str:
    """Name of the data product.

    Factory jobs follow the fixed catalogue convention: the generator
    writes <dataset>_<n>.ntpl, the detector step writes
    <dataset>_<n>_<seed>.fz.  Sandbox-returning applications use the first
    OutputSandbox entry; anything else falls back to a name derived from
    the profile and seed."""
    tag = jd.production_tag()
    if tag is not None:
        dataset, index = tag
        if profile.name == "cmsim":
            return f"{dataset}_{index}_{jd.job_seed}.{profile.data_extension}"
        return f"{dataset}_{index}.{profile.data_extension}"
    if not profile.registers_output and jd.output_sandbox:
        return jd.output_sandbox[0]
    return f"{profile.name}_{jd.job_seed}.{profile.data_extension}"


def build_outputs(jd: JobDescription, profile: WorkloadProfile) -> list:
    """Deterministic manifest of everything the job leaves on its node."""
    tag = jd.production_tag() or ("", jd.job_seed)
    dataset, index = tag
    mark = partial(content_checksum, profile.name, dataset, index, jd.events)
    outputs = [
        OutputFile(jd.std_output, STDOUT_BASE_BYTES + STDOUT_BYTES_PER_EVENT * jd.events,
                   mark(jd.std_output), False),
        OutputFile(jd.std_error, STDERR_BYTES, mark(jd.std_error), False),
    ]
    data_name = data_file_name(jd, profile)
    outputs.append(OutputFile(data_name, profile.output_size(jd.events),
                              mark(data_name), True))
    for name in jd.output_sandbox:
        if name == data_name:
            continue
        outputs.append(OutputFile(name, SANDBOX_AUX_FILE_BYTES, mark(name), False))
    return outputs


# --------------------------------------------------------------------------
# network

class Network:
    """Named WAN links, the sites' LAN and optional WAN defaults, each a
    (bandwidth in bytes/s, latency in s) pair."""

    DEFAULT_LAN_BANDWIDTH = Fraction(100 * MB)
    DEFAULT_LAN_LATENCY = Fraction(1, 1000)

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        self._links: dict[frozenset, tuple] = {}
        self.default_wan: "tuple[Fraction, Fraction] | None" = None
        self.lan = (self.DEFAULT_LAN_BANDWIDTH, self.DEFAULT_LAN_LATENCY)

    def add_link(self, a: str, b: str, bandwidth: Fraction, latency: Fraction) -> None:
        self._links[frozenset((a, b))] = (bandwidth, latency)

    def hops(self, frm: str, to: str) -> list:
        """Hop parameter list for a transfer; raises NoRoute when the two
        endpoints have neither a link nor a WAN default."""
        route = []
        if frm != to:
            wan = self._links.get(frozenset((frm, to)), self.default_wan)
            if wan is None:
                raise NoRoute(f"no route between {frm} and {to}")
            route.append(wan)
        if to.startswith("site:"):
            route.append(self.lan)
        return route

    def duration(self, size_bytes: int, hops: list) -> tuple:
        """sum over hops of (latency + size / bandwidth) seconds, as an
        unreduced integer pair (numerator, denominator)."""
        num, den = 0, 1
        for bandwidth, latency in hops:
            hop_den = latency.denominator * bandwidth.numerator
            hop_num = (latency.numerator * bandwidth.numerator
                       + size_bytes * bandwidth.denominator * latency.denominator)
            num, den = num * hop_den + hop_num * den, den * hop_den
        return num, den

    def transfer(self, size_bytes: int, frm: str, to: str, *,
                 what: str, on_done: Callable[[], None]) -> int:
        """Schedule a transfer and return its completion event's seq;
        `on_done` runs at completion, after the trace entry is emitted."""
        num, den = self.duration(size_bytes, self.hops(frm, to))

        def complete():
            self.kernel.emit("net", "transfer-complete", what=what, frm=frm,
                             to=to, bytes=size_bytes, secs=fmt_ratio(num, den))
            on_done()

        return self.kernel.schedule("transfer-complete", complete,
                                    self.kernel.now_ms + to_millis(num, den))


# --------------------------------------------------------------------------
# sites and computing elements

@dataclass
class Site:
    site_id: str
    region: str               # EU or US
    outbound: bool = True     # worker nodes may open outbound connections

    @property
    def endpoint(self) -> str:
        return f"site:{self.site_id}"


@dataclass
class FabricJob:
    """The fabric-facing face of one job; the broker fills the callbacks."""

    job_id: str
    proxy: vomgmt.Proxy
    description: JobDescription
    profile: WorkloadProfile
    on_dispatched: Callable[[], None]
    on_auth_denied: Callable[[vomgmt.Denial], None]
    on_exec_complete: Callable[[list, int], None]
    cpu_units: int = 0                 # its CPU in its element's units and
    cpu_per_s: int = 1                 # ... units per second, set at enqueue
    events_done: int = 0               # every event, once execution has ended
    wn: int = -1                       # index of its worker node, once dispatched
    kernel: "Kernel | None" = None     # set when execution starts, with
    start_ms: int = 0
    start_seq: int = 0                 # ... the seq of its job-finish event

    def monitor_count(self) -> int:
        """Events done at the last monitor point reached so far.

        Point k lies at start_ms + floor(1000*R*k/E + 1/2) for runtime
        R = p/q, so points up to ms T have 2000*p*k < (2*(T - start_ms) + 1)*q*E.
        A point on T itself is reached only by reads outside delivery and by
        events queued from this job's job-finish on (it would sit just before).
        The floor is the same for any multiple of (p, q), so R is the
        unreduced CPU pair."""
        if self.kernel is None:
            return 0
        events, step = self.description.events, self.profile.monitor_every_events
        seq = self.kernel.delivering_seq
        bound = 2 * (self.kernel.now_ms - self.start_ms)
        bound += 1 if seq is None or seq >= self.start_seq else -1
        reached = (bound * self.cpu_per_s * events - 1) // (2000 * self.cpu_units * step)
        return step * max(0, min(reached, (events - 1) // step))

    def events_left(self) -> int:
        return self.description.events - max(self.events_done, self.monitor_count())

    def next_point_ms(self) -> "int | float":
        """Instant of the first monitor point at or after now; math.inf
        before execution, after it, and past the last point.  Point k, at
        start_ms + floor(1000*R*k/E + 1/2), lies at or after now exactly when
        2000*p*k >= (2*(now - start_ms) - 1)*q*E."""
        if self.kernel is None or self.events_done:
            return math.inf
        events, step = self.description.events, self.profile.monitor_every_events
        p, q = self.cpu_units, self.cpu_per_s
        before = (2 * (self.kernel.now_ms - self.start_ms) - 1) * q * events
        k = step * max(1, -(-before // (2000 * p * step)))
        if k > events - 1:
            return math.inf
        return self.start_ms + (2000 * p * k + q * events) // (2 * q * events)

    @property
    def cpu_total_s(self) -> Fraction:
        """Exact view of the CPU pair, for readers outside the event path."""
        return Fraction(self.cpu_units, self.cpu_per_s)

    def remaining_cpu_s(self) -> Fraction:
        return self.cpu_total_s * Fraction(self.events_left(), self.description.events)


class ComputingElement:
    """One batch queue over identical worker nodes, FIFO, work-conserving:
    a free node with a non-empty queue dispatches in the same instant."""

    def __init__(self, record, site: Site, kernel: Kernel, vo: vomgmt.VoManager):
        self.record = record
        self.site = site
        self.kernel = kernel
        self.vo = vo
        self.monitor_hook: "Callable | None" = None  # (job_id, events_done, outbound)
        self.free_wns = list(range(record.wn_count))  # a heap: the lowest index runs next
        self.queue: deque = deque()
        # CPU is counted in units of 1/(cpu_den * cpu_mhz) s, cpu_den being
        # the lcm of the per-event CPU denominators of the profiles seen
        # here, so every job's CPU is a whole number of units
        self.cpu_den = 1
        self.queued_units = 0  # CPU of the queued jobs, kept as they come and go
        self.running: dict[str, FabricJob] = {}
        # CPU left in the running jobs, in units, valid while now_ms < horizon
        self.running_units, self.horizon_ms = 0, STALE
        self.fail_next_execs = 0  # scenario-driven failure injection

    @property
    def ce_id(self) -> str:
        return self.record.ce_id

    # -- queueing ------------------------------------------------------

    def enqueue(self, job: FabricJob) -> None:
        denial = self.vo.authorize(self.site.site_id, job.proxy, self.kernel.now_ms)
        if denial is not None:
            self.kernel.emit(self.ce_id, "enqueue-denied", job=job.job_id, reason=str(denial))
            raise AuthorizationDenied(denial)
        den = job.profile.cpu_pair[1]
        if self.cpu_den % den:
            grown = math.lcm(self.cpu_den, den)
            self.queued_units *= grown // self.cpu_den
            self.cpu_den = grown
            self.horizon_ms = STALE
        job.cpu_units = job.description.events * self._units_per_event(job.profile)
        job.cpu_per_s = self.cpu_den * self.record.cpu_mhz
        self.queue.append(job)
        self.queued_units += job.cpu_units
        self.kernel.emit(self.ce_id, "enqueued", job=job.job_id, depth=len(self.queue))
        self.try_dispatch()

    def try_dispatch(self) -> None:
        while self.queue and self.free_wns:
            job = self.queue.popleft()
            self.queued_units -= job.description.events * self._units_per_event(job.profile)
            # authorization is re-checked when the job actually starts
            denial = self.vo.authorize(self.site.site_id, job.proxy, self.kernel.now_ms)
            if denial is not None:
                self.kernel.emit(self.ce_id, "dispatch-denied", job=job.job_id,
                                 reason=str(denial))
                job.on_auth_denied(denial)
                continue
            job.wn = heapq.heappop(self.free_wns)
            self.running[job.job_id] = job
            self.horizon_ms = STALE
            self.kernel.emit(self.ce_id, "dispatched", job=job.job_id, wn=job.wn)
            job.on_dispatched()

    # -- execution -----------------------------------------------------

    def execute(self, job: FabricJob) -> None:
        if job.job_id not in self.running:
            raise FabricError(f"{job.job_id} is not running on {self.ce_id}")
        self.kernel.emit(self.ce_id, "exec-start", job=job.job_id,
                         events=job.description.events,
                         runtime_s=fmt_ratio(job.cpu_units, job.cpu_per_s))
        job.kernel, job.start_ms = self.kernel, self.kernel.now_ms
        self.horizon_ms = STALE
        finish_ms = job.start_ms + to_millis(job.cpu_units, job.cpu_per_s)
        job.start_seq = self.kernel.schedule("job-finish", partial(self._exec_done, job),
                                             finish_ms)

    def _tick(self, job: FabricJob, events_done: int) -> None:
        if self.monitor_hook is not None:
            self.monitor_hook(job.job_id, events_done, self.site.outbound)

    def _exec_done(self, job: FabricJob) -> None:
        if job.job_id not in self.running:
            return
        last = job.monitor_count()
        if last:  # the journal's last monitor point, sent once
            self._tick(job, last)
        job.events_done = job.description.events
        self.horizon_ms = STALE
        exit_code = 0
        if self.fail_next_execs > 0:
            self.fail_next_execs -= 1
            exit_code = 1
        outputs = build_outputs(job.description, job.profile)
        self.kernel.emit(self.ce_id, "exec-complete", job=job.job_id, exit=exit_code)
        job.on_exec_complete(outputs, exit_code)

    def finish(self, job: FabricJob) -> None:
        """Release the worker node once every output leg is over."""
        if self.running.pop(job.job_id, None) is not None:
            heapq.heappush(self.free_wns, job.wn)
            self.horizon_ms = STALE
        self.kernel.emit(self.ce_id, "wn-freed", job=job.job_id)
        self.try_dispatch()

    # -- estimated traversal time --------------------------------------

    def _units_per_event(self, profile: WorkloadProfile) -> int:
        """CPU of one event here, in units: per_event_cpu_1ghz * 1000 / cpu_mhz s."""
        num, den = profile.cpu_pair
        return 1000 * num * (self.cpu_den // den)

    def scan_running(self) -> tuple:
        """(units, horizon ms): the CPU left in the running jobs, at most one
        per node, and the first instant at or after now on which one of them
        has a monitor point."""
        units, horizon = 0, math.inf
        for job in self.running.values():
            units += job.events_left() * self._units_per_event(job.profile)
            horizon = min(horizon, job.next_point_ms())
        return units, horizon

    def ett(self) -> tuple:
        """ETT in seconds as an unreduced pair of ints (units, units per
        second * wn_count): the running jobs' CPU left plus the queue's
        maintained backlog, over the nodes.  The running term is rescanned
        only by a read at or past its horizon, so a read on a monitor
        point's instant always rescans and sees the `delivering_seq` rule."""
        if self.kernel.now_ms >= self.horizon_ms:
            self.running_units, self.horizon_ms = self.scan_running()
        return (self.queued_units + self.running_units,
                self.cpu_den * self.record.cpu_mhz * self.record.wn_count)

    @property
    def queued_cpu_s(self) -> Fraction:
        return Fraction(self.queued_units, self.cpu_den * self.record.cpu_mhz)

    def ett_components(self) -> tuple:
        """Running jobs' remaining CPU seconds and the queue's backlog, as
        Fractions; a view for readers outside the match path."""
        running = [job.remaining_cpu_s() for job in self.running.values()]
        return running, [self.queued_cpu_s]


class Fabric:
    """All sites and computing elements plus the profile registry."""

    def __init__(self, kernel: Kernel, network: Network, vo: vomgmt.VoManager):
        self.kernel = kernel
        self.network = network
        self.vo = vo
        self.sites: dict[str, Site] = {}
        self.ces: dict[str, ComputingElement] = {}
        self.profiles: dict[str, WorkloadProfile] = builtin_profiles()

    def add_site(self, site: Site) -> None:
        self.sites[site.site_id] = site

    def add_ce(self, record) -> ComputingElement:
        site = self.sites[record.site_id]
        ce = ComputingElement(record, site, self.kernel, self.vo)
        self.ces[record.ce_id] = ce
        return ce

    def set_profile(self, profile: WorkloadProfile) -> None:
        profile.validate()
        self.profiles[profile.name] = profile

    def profile_for(self, jd: JobDescription) -> WorkloadProfile:
        return self.profiles.get(jd.job_profile, self.profiles["custom"])
