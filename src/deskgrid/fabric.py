"""Site fabric: workload profiles, links, batch queues and execution.

Everything a job does on the fabric is synthetic but exactly timed:

    runtime  = events * per_event_cpu_seconds_at_1ghz * (1000 / cpu_mhz)
    transfer = sum over hops of (latency + size / bandwidth)

each an unreduced integer ratio of seconds -- a job's runtime is its
element's CPU pair (units, units per second), a transfer's is its route's
integer triple applied to the size (see `Network`) -- rounded once to
milliseconds by `to_millis(n, per)` and added to the kernel's integer-ms
clock, with no Fraction built on the way.  File content is never
materialised; a job's outputs are (name, size, checksum) rows fully
determined by the workload profile, dataset, job index and event count,
so reruns anywhere agree byte-for-byte on what they claim to have
produced; a row hashes its checksum only when it is read.

A computing element is the only record of its load: its FIFO queue, its
running jobs, each holding the index of its worker node, and a heap of
free node indices, so the lowest free node takes the next job.  It refuses
a job whose owner it does not authorize, when queued or when dispatched,
through the job's `on_auth_denied` callback.  It owns its estimated
traversal time, `ett()`, which the broker reads directly; nothing copies
the load.

A running job's monitor points, every `monitor_every_events` events, are
never scheduled: `FabricJob.monitor_count` works out which lie behind now.
The element keeps the CPU its running jobs have left as a cached term
with a horizon, the first instant at or after the last rescan on which a
running job has a monitor point.  A read before the horizon reuses the
term, since no monitor point lies between; a read at or past it rescans.
Dispatch, the start and end of execution, the release of a node and a
change of CPU unit drop the term, so the next read rescans.  Each of them,
and every change of the queue's backlog, is a move of the ETT, which the
element reports to every watching broker by adding its id to that
broker's set of moved elements.

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
from typing import Callable, NamedTuple

from . import vomgmt
from .jdl import JobDescription
from .simcore import Kernel, kind
from .units import KB, MB, fmt_ratio, to_millis


#: a horizon that every read is at or past: the cached running term is dropped
STALE = -1


class FabricError(Exception):
    pass


class NoRoute(FabricError):
    pass


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
    return _key_checksum(_checksum_prefix(profile, dataset, job_index, events) + filename)


def _checksum_prefix(profile: str, dataset: str, job_index: int, events: int) -> str:
    return "\x1f".join((profile, dataset, str(job_index), str(events), ""))


def _key_checksum(key: str) -> int:
    return int.from_bytes(hashlib.blake2b(key.encode(), digest_size=8).digest(), "big")


class OutputFile(NamedTuple):
    name: str
    size_bytes: int
    prefix: str  # the job's checksum prefix, which the name completes
    is_data: bool

    @property
    def checksum(self) -> int:  # its `content_checksum`, hashed on each read
        return _key_checksum(self.prefix + self.name)


STDOUT_BASE_BYTES = 1024
STDOUT_BYTES_PER_EVENT = 16
STDERR_BYTES = 512
SANDBOX_INPUT_FILE_BYTES = 4 * KB
SANDBOX_AUX_FILE_BYTES = 8 * KB


def factory_product_name(profile: WorkloadProfile, dataset: str, index: int,
                         seed: int) -> str:
    """Name of the data product of factory job `index` of `dataset`, run as
    `profile` with `seed`: the detector step writes <dataset>_<n>_<seed>.<ext>,
    any other step <dataset>_<n>.<ext>, with the profile's extension."""
    if profile.name == "cmsim":
        return f"{dataset}_{index}_{seed}.{profile.data_extension}"
    return f"{dataset}_{index}.{profile.data_extension}"


def _data_file_name(jd: JobDescription, profile: WorkloadProfile, tag) -> str:
    """Name of the data product of `jd`, whose `production_tag()` is `tag`.

    Factory jobs follow the catalogue convention of `factory_product_name`.
    Sandbox-returning applications use the first OutputSandbox entry that
    is not one of the job's two logs; anything else falls back to a name
    derived from the profile and seed."""
    if tag is not None:
        return factory_product_name(profile, *tag, jd.job_seed)
    listed = [name for name in jd.output_sandbox if name not in (jd.std_output, jd.std_error)]
    if not profile.registers_output and listed:
        return listed[0]
    return f"{profile.name}_{jd.job_seed}.{profile.data_extension}"


def build_outputs(jd: JobDescription, profile: WorkloadProfile) -> list:
    """Deterministic manifest of everything the job leaves on its node: its
    two logs (one row holding both streams when StdOutput and StdError name
    one file, as `2>&1` writes it), its data product, then each further
    OutputSandbox name once."""
    tag = jd.production_tag()
    dataset, index = tag or ("", jd.job_seed)
    prefix = _checksum_prefix(profile.name, dataset, index, jd.events)
    data_name = _data_file_name(jd, profile, tag)
    shared = jd.std_error == jd.std_output
    stdout_bytes = STDOUT_BASE_BYTES + STDOUT_BYTES_PER_EVENT * jd.events
    outputs = [OutputFile(jd.std_output, stdout_bytes + (STDERR_BYTES if shared else 0),
                          prefix, False)]
    if not shared:
        outputs.append(OutputFile(jd.std_error, STDERR_BYTES, prefix, False))
    outputs.append(OutputFile(data_name, profile.output_size(jd.events), prefix, True))
    for name in dict.fromkeys(jd.output_sandbox):
        if name not in (jd.std_output, jd.std_error, data_name):
            outputs.append(OutputFile(name, SANDBOX_AUX_FILE_BYTES, prefix, False))
    return outputs


# --------------------------------------------------------------------------
# network

TRANSFER_COMPLETE_LINE = kind("transfer-complete", "what", "frm", "to", "bytes", "secs")


class Network:
    """Named WAN links, the sites' LAN and optional WAN defaults, each a
    (bandwidth in bytes/s, latency in s) pair.  A route is resolved once per
    ordered endpoint pair into an exact integer triple, s bytes taking
    (a + s*b)/d s, and dropped on any change of links, LAN or default WAN."""

    DEFAULT_LAN_BANDWIDTH = Fraction(100 * MB)
    DEFAULT_LAN_LATENCY = Fraction(1, 1000)

    def __init__(self, kernel: Kernel):
        # (frm, to) -> (a, b, d), or None for NoRoute; made first, as setting lan clears it
        self._routes: dict[tuple, "tuple | None"] = {}
        self.kernel = kernel
        self._links: dict[frozenset, tuple] = {}
        self.default_wan: "tuple[Fraction, Fraction] | None" = None
        self.lan = (self.DEFAULT_LAN_BANDWIDTH, self.DEFAULT_LAN_LATENCY)

    def __setattr__(self, name: str, value) -> None:
        if name in ("lan", "default_wan"):  # each is a leg of some routes
            self._routes.clear()
        super().__setattr__(name, value)

    def add_link(self, a: str, b: str, bandwidth: Fraction, latency: Fraction) -> None:
        self._links[frozenset((a, b))] = (bandwidth, latency)
        self._routes.clear()

    def remove_link(self, a: str, b: str) -> None:
        del self._links[frozenset((a, b))]
        self._routes.clear()

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

    def _route(self, frm: str, to: str) -> tuple:
        """The ordered pair's (a, b, d), resolved and kept if new; NoRoute if None."""
        if (frm, to) not in self._routes:
            self._routes[frm, to] = None  # stays if `hops` raises NoRoute
            a, b, d = 0, 0, 1
            for bandwidth, latency in self.hops(frm, to):  # adds latency + s / bandwidth
                hop_d = latency.denominator * bandwidth.numerator
                a, b, d = (a * hop_d + latency.numerator * bandwidth.numerator * d,
                           b * hop_d + bandwidth.denominator * latency.denominator * d,
                           d * hop_d)
            g = math.gcd(a, b, d)
            self._routes[frm, to] = (a // g, b // g, d // g)
        if self._routes[frm, to] is None:
            raise NoRoute(f"no route between {frm} and {to}")
        return self._routes[frm, to]

    def transfer(self, size_bytes: int, frm: str, to: str, *,
                 what: str, on_done: Callable[[], None]) -> int:
        """Schedule a transfer and return its completion event's seq;
        `on_done` runs at completion, after the trace entry is emitted."""
        a, b, d = self._routes.get((frm, to)) or self._route(frm, to)
        num = a + size_bytes * b
        complete = partial(self._complete, what, frm, to, size_bytes, num, d, on_done)
        return self.kernel.schedule("transfer-complete", complete,
                                    self.kernel.now_ms + to_millis(num, d))

    def _complete(self, what: str, frm: str, to: str, size_bytes: int, num: int, den: int,
                  on_done: Callable[[], None]) -> None:
        self.kernel.line("net", TRANSFER_COMPLETE_LINE, what, frm, to, size_bytes,
                         fmt_ratio(num, den))
        on_done()


# --------------------------------------------------------------------------
# sites and computing elements

@dataclass
class Site:
    site_id: str
    region: str               # EU or US
    outbound: bool = True     # worker nodes may open outbound connections
    endpoint: str = field(init=False, repr=False, compare=False)  # "site:<site_id>"

    def __post_init__(self):
        self.endpoint = f"site:{self.site_id}"


@dataclass(slots=True)
class FabricJob:
    """The fabric-facing face of one job; the broker fills the callbacks."""

    job_id: str
    proxy: vomgmt.Proxy
    description: JobDescription
    profile: WorkloadProfile
    on_dispatched: Callable[[], None]                # it took a worker node
    on_auth_denied: Callable[[vomgmt.Denial], None]  # refused at the queue or at dispatch
    on_exec_complete: Callable[[list, int], None]    # (outputs, exit code)
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


ENQUEUE_DENIED_LINE = kind("enqueue-denied", "job", "reason")
ENQUEUED_LINE = kind("enqueued", "job", "depth")
DISPATCH_DENIED_LINE = kind("dispatch-denied", "job", "reason")
DISPATCHED_LINE = kind("dispatched", "job", "wn")
EXEC_START_LINE = kind("exec-start", "job", "events", "runtime_s")
EXEC_COMPLETE_LINE = kind("exec-complete", "job", "exit")
WN_FREED_LINE = kind("wn-freed", "job")


class ComputingElement:
    """One batch queue over identical worker nodes, FIFO, work-conserving:
    a free node with a non-empty queue dispatches in the same instant."""

    def __init__(self, record, site: Site, kernel: Kernel, vo: vomgmt.VoManager):
        self.record = record
        self.ce_id: str = record.ce_id
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
        self.watchers: list = []  # one set of moved element ids per watching broker
        self.fail_next_execs = 0  # scenario-driven failure injection

    # -- queueing ------------------------------------------------------

    def enqueue(self, job: FabricJob) -> None:
        denial = self.vo.authorize(self.site.site_id, job.proxy, self.kernel.now_ms)
        if denial is not None:
            self.kernel.line(self.ce_id, ENQUEUE_DENIED_LINE, job.job_id, str(denial))
            job.on_auth_denied(denial)
            return
        den = job.profile.cpu_pair[1]
        regrown = self.cpu_den % den != 0
        if regrown:
            grown = math.lcm(self.cpu_den, den)
            self.queued_units *= grown // self.cpu_den
            self.cpu_den = grown
        job.cpu_units = job.description.events * self._units_per_event(job.profile)
        job.cpu_per_s = self.cpu_den * self.record.cpu_mhz
        self.queue.append(job)
        self.queued_units += job.cpu_units
        self._moved(running=regrown)
        self.kernel.line(self.ce_id, ENQUEUED_LINE, job.job_id, len(self.queue))
        self.try_dispatch()

    def try_dispatch(self) -> None:
        while self.queue and self.free_wns:
            job = self.queue.popleft()
            self.queued_units -= job.description.events * self._units_per_event(job.profile)
            # authorization is re-checked when the job actually starts
            denial = self.vo.authorize(self.site.site_id, job.proxy, self.kernel.now_ms)
            if denial is not None:
                self._moved(running=False)
                self.kernel.line(self.ce_id, DISPATCH_DENIED_LINE, job.job_id, str(denial))
                job.on_auth_denied(denial)
                continue
            job.wn = heapq.heappop(self.free_wns)
            self.running[job.job_id] = job
            self._moved()
            self.kernel.line(self.ce_id, DISPATCHED_LINE, job.job_id, job.wn)
            job.on_dispatched()

    # -- execution -----------------------------------------------------

    def execute(self, job: FabricJob) -> None:
        if job.job_id not in self.running:
            raise FabricError(f"{job.job_id} is not running on {self.ce_id}")
        self.kernel.line(self.ce_id, EXEC_START_LINE, job.job_id, job.description.events,
                         fmt_ratio(job.cpu_units, job.cpu_per_s))
        job.kernel, job.start_ms = self.kernel, self.kernel.now_ms
        self._moved()
        finish_ms = job.start_ms + to_millis(job.cpu_units, job.cpu_per_s)
        job.start_seq = self.kernel.schedule("job-finish", partial(self._exec_done, job),
                                             finish_ms)

    def _tick(self, job: FabricJob, events_done: int) -> None:
        if self.monitor_hook is not None:
            self.monitor_hook(job.job_id, events_done, self.site.outbound)

    def _exec_done(self, job: FabricJob) -> None:
        last = job.monitor_count()
        if last:  # the journal's last monitor point, sent once
            self._tick(job, last)
        job.events_done = job.description.events
        self._moved()
        exit_code = 0
        if self.fail_next_execs > 0:
            self.fail_next_execs -= 1
            exit_code = 1
        outputs = build_outputs(job.description, job.profile)
        self.kernel.line(self.ce_id, EXEC_COMPLETE_LINE, job.job_id, exit_code)
        job.on_exec_complete(outputs, exit_code)

    def monitor_count(self, job_id: str) -> int:
        """The running job's events done at its last monitor point."""
        return self.running[job_id].monitor_count()

    def finish(self, job: FabricJob) -> None:
        """Release the worker node once every output leg is over."""
        if self.running.pop(job.job_id, None) is not None:
            heapq.heappush(self.free_wns, job.wn)
            self._moved()
        self.kernel.line(self.ce_id, WN_FREED_LINE, job.job_id)
        self.try_dispatch()

    # -- estimated traversal time --------------------------------------

    def _moved(self, running: bool = True) -> None:
        """The ETT moved: every watching broker re-reads it at its next
        match.  `running` says the running term moved too, so it is dropped
        and the next read rescans it."""
        if running:
            self.horizon_ms = STALE
        for moved in self.watchers:
            moved.add(self.ce_id)

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

    def ett_components(self) -> tuple:
        """Running jobs' remaining CPU seconds and the queue's backlog, as
        Fractions; a view for readers outside the match path."""
        running = [Fraction(job.cpu_units * job.events_left(),
                            job.cpu_per_s * job.description.events)
                   for job in self.running.values()]
        return running, [Fraction(self.queued_units, self.cpu_den * self.record.cpu_mhz)]


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

    def add_ce(self, record) -> None:
        site = self.sites[record.site_id]
        self.ces[record.ce_id] = ComputingElement(record, site, self.kernel, self.vo)

    def set_profile(self, profile: WorkloadProfile) -> None:
        profile.validate()
        self.profiles[profile.name] = profile

    def profile_for(self, jd: JobDescription) -> WorkloadProfile:
        return self.profiles.get(jd.job_profile, self.profiles["custom"])
