import cProfile
import dataclasses
import hashlib
import importlib.resources
import math
import pstats
import random
import time
from collections import Counter
from fractions import Fraction
from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskgrid.broker import DONE_FAILED, DONE_OK, RUNNING
from deskgrid.cli import dispatch
from deskgrid.fabric import (ComputingElement, FabricError, FabricJob, Network, NoRoute,
                             Site, WorkloadProfile, build_outputs, builtin_profiles,
                             content_checksum)
from deskgrid.grid import default_topology_path, load_topology
from deskgrid.infosys import CERecord
from deskgrid.jdl import parse_jdl
from deskgrid.simcore import Kernel
from deskgrid.units import KB, MB, fmt_quantity, fmt_ratio, to_millis
from deskgrid.vomgmt import VoManager

from conftest import CMKIN_SMALL, OPERATOR, watch_matches

PROFILES = builtin_profiles()


# Exact Fraction views of the integer CPU books, for the assertions below

def cpu_total_s(job: FabricJob) -> Fraction:
    return Fraction(job.cpu_units, job.cpu_per_s)


def remaining_cpu_s(job: FabricJob) -> Fraction:
    return cpu_total_s(job) * Fraction(job.events_left(), job.description.events)


def queued_cpu_s(ce: ComputingElement) -> Fraction:
    return Fraction(ce.queued_units, ce.cpu_den * ce.record.cpu_mhz)

CMKIN_TEXT = (
    'Executable = "cmkin";\n'
    'Requirements = Member("CMS", other.RunTimeEnvironment);\n'
    'VirtualOrganisation = "datatag";\n'
    "Events = 250;\nJobSeed = {seed};\n"
)


def jd_text(profile="cmkin", events=50, seed=101, extra=""):
    return (
        f'Executable = "{profile}.sh";\n'
        'StdOutput = "out.log"; StdError = "err.log";\n'
        'Requirements = true;\n'
        'VirtualOrganisation = "testvo";\n'
        f"Events = {events}; JobSeed = {seed};\n" + extra
    )


# -- profiles ----------------------------------------------------------


def test_runtime_exact_values():
    assert PROFILES["atlsim"].runtime_s(100, 1000) == 15000
    assert PROFILES["cmkin"].runtime_s(250, 1000) == 125
    assert PROFILES["cmsim"].runtime_s(250, 2000) == 43750
    # faster clock scales inversely, no float drift
    assert PROFILES["atlsim"].runtime_s(100, 1400) == Fraction(75000, 7)


def test_output_sizes():
    assert PROFILES["cmkin"].output_size(256) == 256 * 50 * KB == 13_107_200
    assert PROFILES["cmkin"].output_size(250) == 12_800_000
    assert PROFILES["cmsim"].output_size(250) == 471_859_200
    assert PROFILES["atlsim"].output_size(100) == 100 * 180 * KB == 18_432_000
    assert PROFILES["custom"].output_size(3) == 3 * KB


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**9),
       st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**6)))
@example(1, Fraction(1, 2))      # exactly half a byte -> up
@example(3, Fraction(9, 5) * MB)
def test_output_size_rounds_the_exact_product_half_up(events, bytes_per_event):
    profile = WorkloadProfile("p", Fraction(1), bytes_per_event)
    assert profile.output_size(events) == int(events * bytes_per_event + Fraction(1, 2))


def test_checksum_is_deterministic_and_input_sensitive():
    base = content_checksum("cmkin", "jpsi", 3, 250, "jpsi_3.ntpl")
    assert base == content_checksum("cmkin", "jpsi", 3, 250, "jpsi_3.ntpl")
    varied = {
        content_checksum("cmsim", "jpsi", 3, 250, "jpsi_3.ntpl"),
        content_checksum("cmkin", "psi", 3, 250, "jpsi_3.ntpl"),
        content_checksum("cmkin", "jpsi", 4, 250, "jpsi_3.ntpl"),
        content_checksum("cmkin", "jpsi", 3, 251, "jpsi_3.ntpl"),
        content_checksum("cmkin", "jpsi", 3, 250, "jpsi_4.ntpl"),
    }
    assert base not in varied and len(varied) == 5
    assert 0 <= base < 1 << 64


# -- output manifests --------------------------------------------------


def data_file_name(jd, profile) -> str:
    """The name on the data row of `jd`'s output manifest."""
    (name,) = [o.name for o in build_outputs(jd, profile) if o.is_data]
    return name


def test_data_file_name_branches():
    cmkin, cmsim, atlsim = PROFILES["cmkin"], PROFILES["cmsim"], PROFILES["atlsim"]
    prod = parse_jdl(jd_text(extra='Dataset = "jpsi"; JobIndex = 7;\n'))
    assert data_file_name(prod, cmkin) == "jpsi_7.ntpl"
    prod_sim = parse_jdl(jd_text("cmsim", seed=2006,
                                 extra='Dataset = "jpsi"; JobIndex = 7;\n'))
    assert data_file_name(prod_sim, cmsim) == "jpsi_7_2006.fz"
    sandboxed = parse_jdl(jd_text("atlsim", seed=17,
                                  extra='OutputSandbox = {"part.zebra", "h.hbook"};\n'))
    assert data_file_name(sandboxed, atlsim) == "part.zebra"
    adhoc = parse_jdl(jd_text(seed=42))  # registers output, no dataset tag
    assert data_file_name(adhoc, cmkin) == "cmkin_42.ntpl"


def test_build_outputs_manifest():
    jd = parse_jdl(jd_text("atlsim", events=50, seed=17,
                           extra='OutputSandbox = {"part.zebra", "h.hbook"};\n'))
    outputs = build_outputs(jd, PROFILES["atlsim"])
    by_name = {o.name: o for o in outputs}
    assert by_name["out.log"].size_bytes == 1024 + 16 * 50 == 1824
    assert by_name["err.log"].size_bytes == 512
    assert by_name["part.zebra"].is_data
    assert by_name["part.zebra"].size_bytes == 50 * 180 * KB
    assert by_name["h.hbook"].size_bytes == 8 * KB and not by_name["h.hbook"].is_data
    # the data product named in the sandbox appears exactly once
    assert [o.name for o in outputs] == ["out.log", "err.log", "part.zebra", "h.hbook"]



def test_a_sandbox_listing_its_logs_and_a_name_twice_returns_each_name_once():
    """The usual EDG way to get the logs back is to list them in the
    OutputSandbox: they stay the two log rows, the data product is the first
    other entry, and a name listed twice is one row."""
    def outputs(*listed):
        sandbox = ", ".join(f'"{name}"' for name in listed)
        jd = parse_jdl(jd_text("atlsim", events=1, extra=f"OutputSandbox = {{{sandbox}}};\n"))
        return jd, build_outputs(jd, PROFILES["atlsim"])

    jd, made = outputs("out.log", "err.log", "h.hbook", "h.hbook")
    assert [(o.name, o.size_bytes, o.is_data) for o in made] == [
        ("out.log", 1024 + 16, False), ("err.log", 512, False), ("h.hbook", 180 * KB, True)]
    assert data_file_name(jd, PROFILES["atlsim"]) == "h.hbook"
    _jd, made = outputs("out.log", "part.zebra", "err.log", "h.hbook", "part.zebra", "h.hbook")
    assert [(o.name, o.is_data) for o in made] == [
        ("out.log", False), ("err.log", False), ("part.zebra", True), ("h.hbook", False)]


def test_a_log_both_streams_share_is_one_row_holding_both():
    """StdOutput and StdError naming one file give one row of both streams'
    bytes, as `2>&1` writes it, its checksum keyed by the name."""
    jd = parse_jdl(jd_text("atlsim", events=1).replace('"out.log"', '"run.log"')
                   .replace('"err.log"', '"run.log"'))
    made = build_outputs(jd, PROFILES["atlsim"])
    assert [(o.name, o.size_bytes, o.is_data) for o in made] == [
        ("run.log", 1040 + 512, False), ("atlsim_101.zebra", 180 * KB, True)]
    assert made[0].checksum == content_checksum("atlsim", "", 101, 1, "run.log")


MANIFESTS = [
    # (profile, extra description, (dataset, index) keyed, data product name)
    ("cmkin", 'Dataset = "jpsi"; JobIndex = 7;\n', ("jpsi", 7), "jpsi_7.ntpl"),
    ("cmsim", 'Dataset = "jpsi"; JobIndex = 7;\n', ("jpsi", 7), "jpsi_7_101.fz"),
    ("atlsim", 'OutputSandbox = {"part.zebra", "h.hbook"};\n', ("", 101), "part.zebra"),
    ("cmkin", "", ("", 101), "cmkin_101.ntpl"),
]


@pytest.mark.parametrize("profile, extra, key, data_name", MANIFESTS,
                         ids=["factory-cmkin", "factory-cmsim", "sandbox", "fallback"])
def test_each_manifest_checksum_is_the_content_checksum_of_its_file(profile, extra, key,
                                                                     data_name):
    jd = parse_jdl(jd_text(profile, extra=extra))
    outputs = build_outputs(jd, PROFILES[profile])
    assert [o.name for o in outputs if o.is_data] == [data_name]
    assert [o.checksum for o in outputs] == [
        content_checksum(profile, *key, jd.events, o.name) for o in outputs]
    for name in ("name", "size_bytes", "checksum", "is_data"):
        with pytest.raises(AttributeError):
            setattr(outputs[0], name, None)


#: sha256 of every held sandbox manifest of production.scn, as `get_output` lists it
PRODUCTION_MANIFESTS = "66fefadf5a978b6b7179cd52f22e34faf9bbb711bb567a1f3bec07ece1f703cd"


def test_production_get_output_manifests_are_pinned():
    path = importlib.resources.files("deskgrid").joinpath("data", "scenarios", "production.scn")
    grid = load_topology(default_topology_path())
    code, text = dispatch(grid, ["exec", str(path)])
    assert code == 0, text
    grid.kernel.run_to_completion()
    rows = [f"{job_id}\t{name}\t{size}\t{mark}"
            for rb in grid.brokers.values()
            for job_id, record in list(rb.jobs.items()) if record.state in (DONE_OK, DONE_FAILED)
            for name, size, mark in rb.get_output(job_id)]
    assert len(rows) == 32
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == PRODUCTION_MANIFESTS


# -- network -----------------------------------------------------------


def net():
    n = Network(Kernel())
    n.add_link("site:alpha", "site:beta", Fraction(20 * MB), Fraction(1, 10))
    return n


def test_hops_shapes():
    n = net()
    lan = (Fraction(100 * MB), Fraction(1, 1000))
    assert n.hops("site:alpha", "site:alpha") == [lan]  # within one site
    assert n.hops("rb:r", "rb:r") == []  # LAN only applies to sites
    link = (Fraction(20 * MB), Fraction(1, 10))
    assert n.hops("site:alpha", "site:beta") == [link, lan]
    assert n.hops("site:beta", "site:alpha") == [link, lan]
    with pytest.raises(NoRoute):
        n.hops("site:alpha", "rb:r")
    n.default_wan = (Fraction(10 * MB), Fraction(1, 20))
    assert n.hops("site:alpha", "rb:r") == [n.default_wan]  # no LAN tail
    assert n.hops("rb:r", "site:alpha") == [n.default_wan, lan]
    assert n.hops("rb:r", "ui") == [n.default_wan]


def test_lan_override():
    n = net()
    n.lan = (Fraction(MB), Fraction(2, 1000))
    link = (Fraction(20 * MB), Fraction(1, 10))
    assert n.hops("site:alpha", "site:beta") == [link, n.lan]
    assert n.hops("site:beta", "site:alpha") == [link, n.lan]
    assert n.hops("site:beta", "site:beta") == [n.lan]


def exact_seconds(n, size, frm, to) -> Fraction:
    """The oracle: the sum over `hops` of latency + size / bandwidth."""
    return sum((latency + Fraction(size) / bandwidth for bandwidth, latency in n.hops(frm, to)),
               Fraction(0))


def assert_timed_exactly(n, size, frm, to):
    """One transfer from now, drained: it lands at now_ms + to_millis(exact)
    and its line says `fmt_quantity(exact)` seconds."""
    exact, now_ms = exact_seconds(n, size, frm, to), n.kernel.now_ms
    n.transfer(size, frm, to, what="t", on_done=lambda: None)
    n.kernel.run_to_completion()
    entry = n.kernel.trace[-1]
    assert entry.action == "transfer-complete" and entry.detail["bytes"] == size
    assert entry.time_ms == now_ms + to_millis(exact)
    assert entry.time_ms == now_ms + math.floor(exact * 1000 + Fraction(1, 2))
    assert entry.detail["secs"] == fmt_quantity(exact)


def test_duration_megabyte_over_default_wan():
    n = net()
    n.default_wan = (Fraction(10 * MB), Fraction(1, 20))
    assert exact_seconds(n, MB, "rb:r", "ui") == Fraction(3, 20)  # 0.1 s pipe + 0.05 s latency
    for _ in range(2):  # the first resolves the route, the second reads it kept
        assert_timed_exactly(n, MB, "rb:r", "ui")
    assert n.kernel.now_ms == 300 and n.kernel.trace[-1].detail["secs"] == "0.15"


RATES = st.builds(Fraction, st.integers(1, 10**10), st.integers(1, 10**4))
DELAYS = st.builds(Fraction, st.integers(0, 10**5), st.integers(1, 10**5))


@settings(max_examples=200, deadline=None)
@given(st.tuples(RATES, DELAYS), st.tuples(RATES, DELAYS), st.tuples(RATES, DELAYS),
       st.integers(min_value=0, max_value=2**40),
       st.sampled_from([("site:alpha", "site:beta"), ("site:beta", "site:beta"),
                        ("rb:r", "site:alpha"), ("site:alpha", "rb:r"), ("rb:r", "ui")]))
def test_transfer_duration_is_the_exact_sum_over_hops(link, lan, wan, size, ends):
    """Twice over one route: resolved by the first transfer, kept for the
    second, which starts where the first ended."""
    n = Network(Kernel())
    n.add_link("site:alpha", "site:beta", *link)
    n.lan, n.default_wan = lan, wan
    assert_timed_exactly(n, size, *ends)
    assert_timed_exactly(n, size, *ends)


def test_a_kept_route_follows_every_change_of_links_lan_and_default_wan():
    """Each step first uses a route, so it is kept, then changes what it is
    made of; the next transfer takes the new route, or finds none."""
    n = net()
    alpha_rb, alpha_beta = ("site:alpha", "rb:r"), ("site:alpha", "site:beta")
    assert_timed_exactly(n, MB, *alpha_beta)
    for _ in range(2):  # no route, kept as such
        with pytest.raises(NoRoute):
            n.transfer(MB, *alpha_rb, what="t", on_done=lambda: None)
    n.default_wan = (Fraction(10 * MB), Fraction(1, 20))  # a kept NoRoute turns into a route
    assert_timed_exactly(n, MB, *alpha_rb)
    n.add_link(*alpha_rb, Fraction(MB), Fraction(1, 2))  # an explicit link beats the default
    assert_timed_exactly(n, MB, *alpha_rb)
    assert n.kernel.trace[-1].detail["secs"] == "1.5"
    n.remove_link(*alpha_rb)  # back to the default WAN
    assert_timed_exactly(n, MB, *alpha_rb)
    assert n.kernel.trace[-1].detail["secs"] == "0.15"
    n.default_wan = None  # the route turns into NoRoute
    with pytest.raises(NoRoute):
        n.transfer(MB, *alpha_rb, what="t", on_done=lambda: None)
    n.add_link(*alpha_rb, Fraction(2 * MB), Fraction(1, 4))  # ... and a link makes one again
    assert_timed_exactly(n, MB, *alpha_rb)
    assert n.kernel.trace[-1].detail["secs"] == "0.75"
    assert_timed_exactly(n, MB, *alpha_beta)
    n.lan = (Fraction(MB), Fraction(2, 1000))  # the LAN leg of every route to a site
    assert_timed_exactly(n, MB, *alpha_beta)
    assert n.kernel.trace[-1].detail["secs"] == "1.152"
    n.remove_link(*alpha_beta)  # no link and no default: NoRoute
    with pytest.raises(NoRoute):
        n.transfer(MB, *alpha_beta, what="t", on_done=lambda: None)
    with pytest.raises(KeyError):
        n.remove_link(*alpha_beta)


def test_transfer_completes_on_schedule_with_trace():
    n = net()
    done = []
    n.transfer(20 * MB, "site:alpha", "site:beta",
               what="t", on_done=lambda: done.append(n.kernel.now()))
    # link: 20 MB / 20 MB/s + 0.1 s; beta LAN: 20 MB / 100 MB/s + 0.001 s
    n.kernel.run_until(Fraction(1301, 1000))
    assert done == [Fraction(1301, 1000)]
    entry = n.kernel.trace[-1]
    assert entry.actor == "net" and entry.action == "transfer-complete"
    assert entry.detail["bytes"] == 20 * MB


def test_a_long_run_holds_one_string_per_endpoint_and_a_bounded_ratio_memo():
    """3,200 CMKIN jobs through rb_pisa: every transfer-complete row names a
    site or a broker by the very string its `endpoint` holds, and
    `fmt_ratio` keeps each distinct pair's text up to its bound, no more."""
    grid = load_topology(default_topology_path())
    fmt_ratio.cache_clear()
    proxy = grid.vo.create_proxy(OPERATOR, "datatag", 0, lifetime_s=1_000_000)
    request = grid.refdb.create_request("long", "CMKIN", 3200 * 250, 250, "rb_pisa")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    grid.production.submit(request.assignment_id, proxy)
    grid.kernel.run_to_completion()

    holders = [*grid.fabric.sites.values(), *grid.brokers.values()]
    endpoints = {holder.endpoint: holder.endpoint for holder in holders}
    legs = [e.values for e in grid.kernel.trace if e.action == "transfer-complete"]
    assert len(legs) == 3 * 3200  # input sandbox, data product, output sandbox
    for _what, frm, to, _bytes, _secs in legs:
        assert frm is endpoints[frm] and to is endpoints[to]
    memo = fmt_ratio.cache_info()
    assert memo.hits > memo.misses > 0
    assert memo.currsize == min(memo.misses, memo.maxsize) and memo.maxsize == 4096


# -- computing elements ------------------------------------------------


def harness(wn_count=1, cpu_mhz=1000, lifetime_s=43200):
    kernel = Kernel()
    vo = VoManager()
    vo.add_vo("testvo")
    vo.add_member("testvo", "/O=grid/CN=alice")
    vo.register_site("alpha", ["testvo"])
    vo.sync_all()
    record = CERecord("ce_alpha", "alpha", "PBS", ("EDG",), ("CMS",),
                      wn_count, cpu_mhz, ("testvo",), ("se_alpha",))
    site = Site("alpha", "EU")
    ce = ComputingElement(record, site, kernel, vo)
    proxy = vo.create_proxy("/O=grid/CN=alice", "testvo", kernel.now_ms,
                            lifetime_s=lifetime_s)
    return kernel, ce, proxy


def make_job(job_id, proxy, profile="cmkin", events=50, log=None):
    jd = parse_jdl(jd_text(profile, events=events))
    rec = [] if log is None else log
    return FabricJob(
        job_id, proxy, jd, PROFILES[profile],
        on_dispatched=lambda: rec.append(("run", job_id)),
        on_auth_denied=lambda denial: rec.append(("denied", job_id, str(denial))),
        on_exec_complete=lambda outputs, code: rec.append(("done", job_id, code)),
    ), rec


def test_fifo_dispatch_and_work_conservation():
    kernel, ce, proxy = harness(wn_count=1)
    log = []
    jobs = [make_job(f"j{i}", proxy, log=log)[0] for i in (1, 2, 3)]
    for job in jobs:
        ce.enqueue(job)
    # one node: j1 dispatches immediately, the rest wait in order
    assert log == [("run", "j1")]
    assert [j.job_id for j in ce.queue] == ["j2", "j3"]
    ce.execute(jobs[0])
    kernel.run_until(25)  # cmkin 50 events at 1 GHz
    assert ("done", "j1", 0) in log
    ce.finish(jobs[0])
    # freeing the node starts the next job in the same instant
    assert kernel.now() == 25 and ("run", "j2") in log
    assert len(ce.queue) == 1 and len(ce.running) == 1


def test_enqueue_rejects_invalid_proxy():
    kernel, ce, proxy = harness()
    kernel.run_until(43200)
    job, log = make_job("j1", proxy)
    ce.enqueue(job)
    assert log == [("denied", "j1", "ProxyExpired")]
    assert not ce.queue


def test_dispatch_recheck_denies_job_that_waited_too_long():
    kernel, ce, proxy = harness(wn_count=1, lifetime_s=100)
    log = []
    j1, _ = make_job("j1", proxy, events=1000, log=log)
    j2, _ = make_job("j2", proxy, log=log)
    ce.enqueue(j1)
    ce.execute(j1)
    ce.enqueue(j2)  # accepted now, the proxy is still good
    kernel.run_until(500)  # j1 runs 500 s, past the proxy lifetime
    ce.finish(j1)
    assert ("denied", "j2", "ProxyExpired") in log
    assert len(ce.running) == 0 and not ce.queue


def test_the_lowest_free_node_takes_the_next_job():
    kernel, ce, proxy = harness(wn_count=3)
    jobs = {f"j{i}": make_job(f"j{i}", proxy)[0] for i in range(1, 8)}

    def dispatched_nodes(*job_ids):
        for job_id in job_ids:
            ce.enqueue(jobs[job_id])
        return [e.detail["wn"] for e in kernel.trace
                if e.action == "dispatched" and e.detail["job"] in job_ids]

    assert dispatched_nodes("j1", "j2", "j3") == [0, 1, 2]
    ce.finish(jobs["j3"])  # node 2, then node 0
    ce.finish(jobs["j1"])
    assert dispatched_nodes("j4", "j5") == [0, 2]  # a FIFO free list gives 2, 0
    ce.finish(jobs["j4"])  # node 0, then node 2
    ce.finish(jobs["j5"])
    assert dispatched_nodes("j6", "j7") == [0, 2]  # a LIFO free list gives 2, 0


def progress_around(kernel, job, instants) -> list:
    """The job's monitor count 1 ms before, at and 1 ms after each instant
    (seconds), read outside event delivery."""
    seen = []
    for at in instants:
        for offset_ms in (-1, 0, 1):
            kernel.run_until(at + Fraction(offset_ms, 1000))
            seen.append(job.monitor_count())
    return seen


def test_monitor_tick_counts():
    kernel, ce, proxy = harness()
    sent = []
    ce.monitor_hook = lambda job_id, done, outbound: sent.append((kernel.now(), done))
    job, _ = make_job("j1", proxy, events=25)
    ce.enqueue(job)
    ce.execute(job)
    assert kernel.pending_count() == 1  # job-finish only
    # 25 events, report every 10: progress at 10 and 20, never at the end
    runtime = Fraction(25, 2)
    points = [runtime * Fraction(10, 25), runtime * Fraction(20, 25)]
    assert points == [5, 10]
    assert progress_around(kernel, job, points + [runtime]) == [0, 10, 10,
                                                               10, 20, 20,
                                                               20, 20, 20]
    kernel.run_to_completion()
    assert sent == [(runtime, 20)]  # the last point, sent once when execution ends


def test_monitor_single_tick_for_twenty_events():
    kernel, ce, proxy = harness()
    ticks = []
    ce.monitor_hook = lambda job_id, done, outbound: ticks.append(done)
    job, _ = make_job("j1", proxy, events=20)
    ce.enqueue(job)
    ce.execute(job)
    assert progress_around(kernel, job, [5, 10]) == [0, 10, 10, 10, 10, 10]
    kernel.run_to_completion()
    assert ticks == [10]


def test_monitor_count_matches_scheduled_points():
    """Oracle: schedule every monitor point as an event, the way the
    count is defined, and compare what readers see with the closed form.
    Readers sit on random instants around the points, some scheduled
    before execution starts and some after, plus reads between runs; the
    last point, sent when execution ends, counts every point."""
    rng = random.Random(7)
    for trial in range(60):
        kernel, ce, proxy = harness(cpu_mhz=rng.choice((700, 1000, 1400, 2333)))
        events = rng.randint(1, 400)
        step = rng.randint(1, 40)
        per_event = Fraction(rng.randint(1, 5000), rng.choice((1000, 7000, 100_000, 10**7)))
        profile = WorkloadProfile("p", per_event, Fraction(KB), monitor_every_events=step)
        jd = parse_jdl(jd_text(events=events))
        job = FabricJob("j1", proxy, jd, profile, on_dispatched=lambda: None,
                        on_auth_denied=lambda denial: None,
                        on_exec_complete=lambda outputs, code: None)
        start_ms = rng.randint(0, 50)
        runtime = profile.runtime_s(events, ce.record.cpu_mhz)
        probes = sorted(rng.randint(0, int(runtime * 1000) + 1) for _ in range(12))
        seen, expected, sent = [], [0], []
        ce.monitor_hook = lambda job_id, done, outbound: sent.append(done)

        def read(tag):
            seen.append((tag, kernel.now_ms, job.monitor_count(), expected[0]))

        for ms in probes[:6]:  # scheduled before execution starts
            kernel.schedule("user-command", partial(read, "early"), start_ms + ms)
        kernel.run_until(Fraction(start_ms, 1000))
        ce.enqueue(job)
        ce.execute(job)
        for k in range(step, events, step):
            kernel.schedule("monitor-tick", partial(expected.__setitem__, 0, k),
                            start_ms + to_millis(runtime * Fraction(k, events)))
        for ms in probes[6:]:  # scheduled after it
            kernel.schedule("user-command", partial(read, "late"), start_ms + ms)
        for ms in probes:
            kernel.run_until(Fraction(start_ms + ms, 1000))
            read("between")
        assert [row for row in seen if row[2] != row[3]] == [], trial
        kernel.run_to_completion()  # execution ends after every point
        assert sent == ([step * ((events - 1) // step)] if events > step else []), trial


@settings(max_examples=200, deadline=None)
@given(events=st.integers(1, 1000), step=st.integers(1, 50),
       cpu=st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
       start_ms=st.integers(0, 10**9), start_seq=st.integers(0, 50),
       reads=st.lists(st.tuples(st.integers(0, 10**9), st.integers(-1, 1), st.integers(0, 102)),
                      max_size=12),
       after=st.integers(0, 2))
@example(events=2, step=1, cpu=(1, 1000), start_ms=0, start_seq=5,  # point 1 on 0.5 ms
         reads=[(0, 0, 0), (0, -1, 10)], after=0)
def test_a_monitor_count_read_in_delivery_order_never_falls_and_counts_every_point_behind(
        events, step, cpu, start_ms, start_seq, reads, after):
    """Property behind the live BossDb count: reads in delivery order
    (instants ascending, seqs ascending within an instant, then one read
    outside delivery) never see the count fall, and each sees the last of
    the points that lie before the read, or on its instant when the read is
    outside delivery or its seq is the job-finish event's or later.  Point k
    lies at start_ms + floor(1000*R*k/E + 1/2) for runtime R = p/q s.  An
    even `where` reads on a point (or 1 ms beside it), an odd one anywhere
    from the start to 1 ms past the end; the job-finish event is read too."""
    p, q = cpu
    points = {k: start_ms + math.floor(Fraction(1000 * p * k, q * events) + Fraction(1, 2))
              for k in range(step, events, step)}
    on_points = sorted(points.values())
    end_ms = start_ms + to_millis(p, q)
    delivered = {start_seq: end_ms}  # seq -> instant; one event per seq
    for where, offset, seq in reads:
        if where % 2 == 0 and on_points:
            at = max(start_ms, on_points[where // 2 % len(on_points)] + offset)
        else:
            at = start_ms + where // 2 % (end_ms - start_ms + 2)
        delivered.setdefault(seq, at)
    order = sorted((at, seq) for seq, at in delivered.items())
    order.append((order[-1][0] + after, None))

    kernel = SimpleNamespace(now_ms=0, delivering_seq=None)
    job = FabricJob("j1", None, SimpleNamespace(events=events),
                    SimpleNamespace(monitor_every_events=step), None, None, None,
                    cpu_units=p, cpu_per_s=q, kernel=kernel, start_ms=start_ms,
                    start_seq=start_seq)
    last = 0
    for kernel.now_ms, kernel.delivering_seq in order:
        on_reached = kernel.delivering_seq is None or kernel.delivering_seq >= start_seq
        behind = [k for k, at in points.items()
                  if at < kernel.now_ms or (at == kernel.now_ms and on_reached)]
        count = job.monitor_count()
        assert count == max(behind, default=0), (kernel.now_ms, kernel.delivering_seq)
        assert count >= last
        last = count


def test_a_billion_events_cost_one_event():
    kernel, ce, proxy = harness()
    job, _ = make_job("j1", proxy, events=10**9)
    ce.enqueue(job)
    ce.execute(job)
    assert kernel.pending_count() <= 2
    kernel.run_until(cpu_total_s(job) / 4)
    assert job.monitor_count() == 10**9 // 4
    assert remaining_cpu_s(job) == cpu_total_s(job) * Fraction(3, 4)
    t0 = time.perf_counter()
    delivered = kernel.run_to_completion()
    assert delivered == 1 and time.perf_counter() - t0 < 0.5


BLIP_TEXT = (
    'Executable = "blip";\n'
    'Requirements = true;\n'
    'VirtualOrganisation = "testvo";\n'
    "Events = 1000;\nJobSeed = 1;\n"
)


def test_monitor_points_on_the_read_instant_count_for_later_events_only(mini, alice):
    """A job of 1000 events of 10 us reports every 10 events; at 2 GHz its
    points 10..90 round onto its exec-start ms.  A match event scheduled
    before that start but delivered in its ms does not see them; a match
    scheduled after the start, in the same ms, does."""
    mini.fabric.set_profile(WorkloadProfile("blip", Fraction(1, 100_000), Fraction(KB)))
    rb = mini.brokers["rb_test"]
    rb.brokering_delay_ms = 20
    matches = watch_matches(mini)
    mini.submit(BLIP_TEXT, "rb_test", pinned_ce="ce_beta")  # matched at 20 ms
    mini.kernel.run_until(Fraction(51, 1000))
    early = mini.submit(BLIP_TEXT, "rb_test")  # matched at 71 ms
    mini.kernel.run_until(Fraction(71, 1000))
    starts = [(e.time_ms, e.actor) for e in mini.kernel.trace if e.action == "exec-start"]
    assert starts == [(71, "ce_beta")]
    late = mini.submit(BLIP_TEXT, "rb_glue")  # matched at 71 ms, after the start
    mini.kernel.run_until(Fraction(71, 1000))
    assert matches[early].candidates == [
        ("ce_alpha", 0), ("ce_beta", Fraction(-1, 200))]  # nothing done
    assert matches[late].candidates == [
        ("ce_beta", Fraction(-91, 20000))]  # 90 of 1000 done
    # outside delivery every point up to now has been reached; the late
    # job (5 ms) waits in the queue behind it
    assert mini.info.estimated_traversal_time("ce_beta") == Fraction(91 + 100, 20000)


SANDBOXED_CMKIN = CMKIN_SMALL.replace("JobSeed = 101;", (
    'JobSeed = {seed};\nInputSandbox = {{"run.cards"}};\nOutputSandbox = {{"run.hbook"}};'))


def test_a_run_builds_no_fraction(mini, alice):
    """Profile a whole run: input sandboxes in, CMKIN ntuples registered on
    close storage, sandboxes back, monitor points read by the production
    bookkeeping.  Every duration on the way is an integer ratio."""
    request = mini.refdb.create_request("jpsi", "CMKIN", 60, 20, "rb_test")
    mini.production.declare(request.assignment_id)
    mini.production.create(request.assignment_id)
    mini.production.submit(request.assignment_id, alice)
    for seed in range(4):
        mini.submit(SANDBOXED_CMKIN.format(seed=seed), "rb_test")
    profile = cProfile.Profile()
    profile.enable()
    mini.kernel.run_to_completion()
    profile.disable()
    assert len(mini.all_jobs()) == 7
    assert all(record.state == DONE_OK for _rb, record in mini.all_jobs())
    assert sum(e.action == "output-registered" for e in mini.kernel.trace) == 7
    moved = {e.detail["what"].split(":")[0] for e in mini.kernel.trace
             if e.action == "transfer-complete"}
    assert {"input-sandbox", "output-sandbox"} <= moved and len(moved) == 3
    built = [calls for (path, _line, name), (_cc, calls, *_rest)
             in pstats.Stats(profile).stats.items()
             if name == "__new__" and path.endswith("fractions.py")]
    assert built == []


def test_fail_next_execs_injection():
    kernel, ce, proxy = harness()
    ce.fail_next_execs = 1
    log = []
    j1, _ = make_job("j1", proxy, log=log)
    ce.enqueue(j1)
    ce.execute(j1)
    kernel.run_to_completion()
    ce.finish(j1)
    j2, _ = make_job("j2", proxy, log=log)
    ce.enqueue(j2)
    ce.execute(j2)
    kernel.run_to_completion()
    assert ("done", "j1", 1) in log and ("done", "j2", 0) in log


def test_remaining_cpu_and_ett_components():
    kernel, ce, proxy = harness(wn_count=2)
    j1, _ = make_job("j1", proxy, events=250)
    j2, _ = make_job("j2", proxy, events=250)
    j3, _ = make_job("j3", proxy, events=250)
    for job in (j1, j2, j3):
        ce.enqueue(job)
    ce.execute(j1)
    j1.events_done = 50
    running, queued = ce.ett_components()
    assert remaining_cpu_s(j1) == 100  # 125 s total, a fifth done
    assert sorted(running) == [100, 125]
    assert queued == [125]


def test_queued_backlog_follows_enqueue_and_both_dispatch_outcomes():
    kernel, ce, proxy = harness(wn_count=1, lifetime_s=100)
    j1, _ = make_job("j1", proxy, events=1000)
    j2, _ = make_job("j2", proxy, events=250)
    j3, _ = make_job("j3", proxy, events=50)
    for job in (j1, j2, j3):
        ce.enqueue(job)
    assert queued_cpu_s(ce) == 125 + 25  # j1 started at once
    ce.execute(j1)
    kernel.run_until(500)  # past the proxy lifetime
    ce.finish(j1)  # j2 and j3 leave the queue refused
    assert queued_cpu_s(ce) == 0 and not ce.queue


def test_validate_reports_a_drifted_queued_backlog(mini):
    ce = mini.fabric.ces["ce_beta"]
    ce.queued_units += 1
    assert mini.validate() == ["ce_beta: queued CPU backlog drifted"]


def test_validate_reports_a_drifted_running_term_only_while_it_is_valid(mini, alice):
    mini.submit(CMKIN_SMALL, "rb_test", pinned_ce="ce_beta")
    mini.kernel.run_until(1)
    ce = mini.fabric.ces["ce_beta"]
    ce.ett()
    assert ce.running_units > 0 and mini.kernel.now_ms < ce.horizon_ms
    ce.running_units += 1
    assert mini.validate() == ["ce_beta: running CPU term drifted"]
    assert mini.validate() == ["ce_beta: running CPU term drifted"]  # left as found
    mini.kernel.run_until(Fraction(ce.horizon_ms, 1000))
    assert mini.validate() == []  # the next read rescans it
    ce.ett()
    assert ce.running_units == ce.scan_running()[0]


def test_validate_reports_a_published_record_that_disagrees_with_the_element(mini):
    beta = mini.info.ces["ce_beta"]
    mini.info.publish_ce(dataclasses.replace(beta, run_time_environment=("CMS", "ATLAS-3.2.1")))
    assert mini.validate() == []  # other tags only
    for changed in ({"wn_count": 3, "cpu_mhz": 500}, {"wn_count": 3}, {"cpu_mhz": 500},
                    {"site_id": "alpha"}, {"close_ses": ("se_alpha",)}):
        mini.info.publish_ce(dataclasses.replace(beta, **changed))
        assert mini.validate() == ["ce_beta: published record disagrees with the element"]
    mini.info.publish_ce(beta)
    assert mini.validate() == []


def test_ett_equals_full_rescan_at_every_match_of_a_randomized_bulk_run():
    """Oracle for the maintained queue backlog: at every match, every
    candidate's ETT equals a rescan of its running jobs and queue, every
    queued and running job's CPU pair is its profile's runtime there,
    every element's free node indices and its running jobs' nodes
    partition its nodes, and the grid's books are clean.  The run mixes
    four production requests at random times over both brokers, exec
    failures, and short-lived proxies whose jobs are queued and then
    refused when a node frees up."""
    grid = load_topology(default_topology_path())
    rng = random.Random(13)
    operator = "/O=grid/OU=datatag/CN=factory operator"
    matches, problems = [], []

    def rescanned_ett(ce_id):
        ce = grid.fabric.ces[ce_id]
        backlog = (sum((remaining_cpu_s(j) for j in ce.running.values()), Fraction(0))
                   + sum((cpu_total_s(j) for j in ce.queue), Fraction(0)))
        return backlog / ce.record.wn_count

    def oracle(record, result):
        matches.append(record.job_id)
        for ce_id, _value in result.candidates:
            if grid.info.estimated_traversal_time(ce_id) != rescanned_ett(ce_id):
                problems.append((record.job_id, ce_id))
        for ce_id, ce in grid.fabric.ces.items():  # free and busy nodes partition them all
            nodes = sorted([*ce.free_wns, *(job.wn for job in ce.running.values())])
            if nodes != list(range(ce.record.wn_count)):
                problems.append((record.job_id, ce_id, nodes))
            for job in (*ce.queue, *ce.running.values()):
                runtime = job.profile.runtime_s(job.description.events, ce.record.cpu_mhz)
                if Fraction(job.cpu_units, job.cpu_per_s) != runtime:
                    problems.append((record.job_id, job.job_id, "CPU pair"))
        problems.extend(grid.validate())

    for rb in grid.brokers.values():
        rb.match_observers.append(oracle)
    proxy = grid.vo.create_proxy(operator, "datatag", 0, lifetime_s=500_000)
    for n in range(4):
        per_job = rng.randint(150, 350)
        request = grid.refdb.create_request(f"oracle{n}", "CMKIN",
                                            per_job * rng.randint(20, 40) - rng.randint(0, 9),
                                            per_job, rng.choice(("rb_pisa", "rb_milano")))
        grid.production.declare(request.assignment_id)
        grid.production.create(request.assignment_id)
        grid.kernel.schedule("user-command",
                             partial(grid.production.submit, request.assignment_id, proxy),
                             1000 * rng.randint(0, 300))
    for ce_id in rng.sample(sorted(grid.fabric.ces), 4):
        grid.fabric.ces[ce_id].fail_next_execs = rng.randint(1, 3)

    doomed = []

    def submit_short_lived():
        short = grid.vo.create_proxy(operator, "datatag", grid.kernel.now_ms,
                                     lifetime_s=30)
        rb = grid.brokers["rb_pisa"]
        visible = grid.info.query(rb.flavor, "datatag")
        deepest = max(visible, key=lambda ce: (len(grid.fabric.ces[ce.ce_id].queue),
                                               ce.ce_id))
        doomed.append((rb, rb.submit(parse_jdl(CMKIN_TEXT.format(seed=len(doomed) + 1)),
                                     short, pinned_ce=deepest.ce_id)))

    for at in sorted(rng.randint(300, 600) for _ in range(6)):
        grid.kernel.schedule("user-command", submit_short_lived, 1000 * at)
    grid.kernel.run_to_completion()

    assert len(matches) >= 100
    assert problems == []
    assert grid.validate() == []
    reasons = [rb.jobs[job_id].reason for rb, job_id in doomed]
    assert "AuthorizationDenied(ProxyExpired)" in reasons
    failed = [r for _rb, r in grid.all_jobs() if r.outcome() == DONE_FAILED]
    assert failed
    assert all(queued_cpu_s(ce) == 0 for ce in grid.fabric.ces.values())


def test_ett_stays_exact_when_one_element_mixes_per_event_denominators():
    """Oracle for the per-element CPU unit: cmkin jobs (1/2 s per event)
    run and queue beside jobs of profiles registered mid-run, at 1/3 and
    7/100000 s per event, so elements change their unit while they hold
    work.  At every match, every candidate's ETT equals a Fraction rescan
    and the grid's books are clean."""
    grid = load_topology(default_topology_path())
    rng = random.Random(17)
    operator = "/O=grid/OU=datatag/CN=factory operator"
    proxy = grid.vo.create_proxy(operator, "datatag", 0, lifetime_s=500_000)
    rb = grid.brokers["rb_pisa"]
    matches, problems, mixed = [], [], []

    def rescanned_ett(ce):
        backlog = (sum((remaining_cpu_s(j) for j in ce.running.values()), Fraction(0))
                   + sum((cpu_total_s(j) for j in ce.queue), Fraction(0)))
        return backlog / ce.record.wn_count

    def oracle(record, result):
        matches.append(record.job_id)
        for ce_id, _value in result.candidates:
            ce = grid.fabric.ces[ce_id]
            if grid.info.estimated_traversal_time(ce_id) != rescanned_ett(ce):
                problems.append((record.job_id, ce_id))
            held = [*ce.running.values(), *ce.queue]
            if len({j.profile.per_event_cpu_1ghz.denominator for j in held}) > 1:
                mixed.append(ce_id)
        problems.extend(grid.validate())

    rb.match_observers.append(oracle)
    request = grid.refdb.create_request("mixed", "CMKIN", 250 * 300, 250, "rb_pisa")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    grid.production.submit(request.assignment_id, proxy)

    custom = {"third": Fraction(1, 3), "tiny": Fraction(7, 100_000)}
    for at, name in ((100, "third"), (200, "tiny")):
        grid.kernel.schedule("user-command", partial(
            grid.fabric.set_profile, WorkloadProfile(name, custom[name], Fraction(KB))),
            1000 * at)
    visible = [ce.ce_id for ce in grid.info.query(rb.flavor, "datatag")]
    for seed in range(1, 41):
        name = rng.choice(sorted(custom))
        text = CMKIN_TEXT.replace('"cmkin"', f'"{name}"').format(seed=seed)
        grid.kernel.schedule("user-command", partial(
            rb.submit, parse_jdl(text), proxy, pinned_ce=rng.choice(visible)),
            1000 * rng.randint(210, 700))
    grid.kernel.run_to_completion()

    assert len(matches) == 340
    assert problems == []
    assert len(set(mixed)) >= 5
    assert max(ce.cpu_den for ce in grid.fabric.ces.values()) == 300_000
    assert grid.validate() == []
    assert all(rb.jobs[j].outcome() == "DONE_OK" for j in matches)
    assert all(ce.queued_units == 0 for ce in grid.fabric.ces.values())


def test_the_running_term_equals_a_rescan_at_every_match_and_beside_monitor_points(
        monkeypatch):
    """Oracle for the running term's horizon.  At every match, at probes on
    and 1 ms beside monitor points, and at the end, every element is read
    as the broker reads it and its cached running term is compared with a
    full rescan.  A job's probes on its own points sit on both sides of the
    job-finish seq tie: one is scheduled before its execution starts (the
    point is not reached there), the rest after (it is).  The run mixes
    production requests arriving over time on both brokers, exec failures,
    bursts of jobs at 1/3 and 7/100000 s per event that change the CPU unit
    of busy elements, and late jobs whose input replica is lost while their
    sandbox is in flight, so they leave their node without running, each
    followed by a job whose match reads every element in between."""
    grid = load_topology(default_topology_path())
    kernel = grid.kernel
    rng = random.Random(19)
    operator = "/O=grid/OU=datatag/CN=factory operator"
    proxy = grid.vo.create_proxy(operator, "datatag", 0, lifetime_s=500_000)
    rb = grid.brokers["rb_pisa"]
    visible = [ce.ce_id for ce in grid.info.query(rb.flavor, "datatag")]
    problems, reads = [], Counter()

    def compare(where):
        reads[where] += 1
        for ce_id, ce in grid.fabric.ces.items():
            ce.ett()
            if ce.running_units != ce.scan_running()[0]:
                problems.append((where, kernel.now_ms, ce_id))

    for broker in grid.brokers.values():
        broker.match_observers.append(lambda _record, _result: compare("match"))

    def probe(side, job, k):
        if side in ("before", "on") and (job.monitor_count() >= k) != (side == "on"):
            problems.append((side, job.job_id, k, "seq tie"))
        compare(side)

    execute = ComputingElement.execute

    def execute_with_probes(ce, job):
        events, step = job.description.events, job.profile.monitor_every_events
        runtime_ms = Fraction(1000 * job.cpu_units, job.cpu_per_s)
        points = [(kernel.now_ms + math.floor(runtime_ms * k / events + Fraction(1, 2)), k)
                  for k in range(step, events, step)]
        picked = points[:1] + rng.sample(points[1:], min(2, len(points[1:])))
        for at, k in picked:
            kernel.schedule("user-command", partial(probe, "before", job, k), at)
        execute(ce, job)
        for at, k in picked:
            for side, when in (("early", at - 1), ("on", at), ("late", at + 1)):
                if when >= kernel.now_ms:
                    kernel.schedule("user-command", partial(probe, side, job, k), when)

    monkeypatch.setattr(ComputingElement, "execute", execute_with_probes)

    for n in range(3):
        per_job = rng.randint(150, 350)
        request = grid.refdb.create_request(f"horizon{n}", "CMKIN",
                                            per_job * rng.randint(20, 40) - rng.randint(0, 9),
                                            per_job, rng.choice(("rb_pisa", "rb_milano")))
        grid.production.declare(request.assignment_id)
        grid.production.create(request.assignment_id)
        kernel.schedule("user-command",
                        partial(grid.production.submit, request.assignment_id, proxy),
                        1000 * rng.randint(0, 300))
    for ce_id in rng.sample(sorted(grid.fabric.ces), 3):
        grid.fabric.ces[ce_id].fail_next_execs = rng.randint(1, 3)

    custom = {"third": Fraction(1, 3), "tiny": Fraction(7, 100_000)}
    for name, per_event in custom.items():
        grid.fabric.set_profile(WorkloadProfile(name, per_event, Fraction(KB)))
    bursts = []

    def burst(name, ce_id, size):
        for _ in range(size):
            text = CMKIN_TEXT.replace('"cmkin"', f'"{name}"').format(seed=len(bursts) + 1)
            bursts.append(rb.submit(parse_jdl(text), proxy, pinned_ce=ce_id))

    for at in sorted(rng.randint(50, 500) for _ in range(16)):
        kernel.schedule("user-command", partial(
            burst, rng.choice(sorted(custom)), rng.choice(visible), rng.randint(2, 3)),
            1000 * at)

    lost = {}  # job id -> (storage element, the path its input replica had)

    def submit_with_input(n, ce_id):
        store = grid.datagrid.ses[min(grid.fabric.ces[ce_id].record.close_ses)]
        name = f"horizon_input_{n}.ntpl"
        store.store(name, 10 * KB, n)
        grid.datagrid.rc.register(name, store, name)
        text = (CMKIN_TEXT.format(seed=1000 + n)
                + f'InputData = {{"lfn:{name}"}};\nReplicaCatalog = "rc_cnaf";\n')
        lost[rb.submit(parse_jdl(text), proxy, pinned_ce=ce_id)] = (store, name)
        # matched after it, so read while its sandbox is in flight
        rb.submit(parse_jdl(CMKIN_TEXT.format(seed=2000 + n)), proxy)

    def lose_the_replica(record, _old, new):
        if new == RUNNING and record.job_id in lost:
            store, name = lost[record.job_id]
            store.used_bytes -= store.files.pop(name).size_bytes

    rb.transition_observers.append(lose_the_replica)
    for n, at in enumerate(sorted(rng.randint(1500, 2500) for _ in range(6))):
        kernel.schedule("user-command", partial(submit_with_input, n, rng.choice(visible)),
                        1000 * at)
    kernel.run_to_completion()
    compare("end")

    assert problems == []
    assert reads["match"] >= 100 and min(reads[s] for s in ("before", "on", "early", "late")) >= 100
    assert len(bursts) >= 30
    assert max(ce.cpu_den for ce in grid.fabric.ces.values()) == 300_000
    assert {rb.jobs[job_id].reason for job_id in lost} == {"NoSuchPhysicalFile"}
    assert any(r.outcome() == DONE_FAILED and r.reason == "ExecFailed"
               for _rb, r in grid.all_jobs())
    assert grid.validate() == []


def test_a_profile_needs_positive_per_event_figures_and_a_monitor_step(mini):
    for cpu, size in ((0, KB), (1, 0)):
        with pytest.raises(FabricError, match="per-event figures must be positive"):
            mini.fabric.set_profile(WorkloadProfile("zero", Fraction(cpu), Fraction(size)))
    with pytest.raises(FabricError, match="monitor_every_events must be >= 1"):
        mini.fabric.set_profile(dataclasses.replace(PROFILES["cmkin"], monitor_every_events=0))
    assert "zero" not in mini.fabric.profiles
    assert mini.fabric.profiles["cmkin"].monitor_every_events == 10


def test_execute_refuses_a_job_that_is_not_running_there():
    _kernel, ce, proxy = harness(wn_count=1)
    first, queued = (make_job(job_id, proxy)[0] for job_id in ("j1", "j2"))
    ce.enqueue(first)
    ce.enqueue(queued)
    with pytest.raises(FabricError, match="j2 is not running on ce_alpha"):
        ce.execute(queued)


def test_validate_reports_an_element_the_index_lost(mini):
    del mini.info.ces["ce_beta"]
    assert mini.validate() == ["ce_beta: not published"]
