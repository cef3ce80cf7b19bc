import cProfile
import dataclasses
import hashlib
import pstats
import random
from collections import Counter
from fractions import Fraction

import pytest

from deskgrid import jdl
from deskgrid.broker import (ABORTED, CLEARED, DONE_FAILED, DONE_OK, MATCHED,
                             RUNNING, SCHEDULED, SUBMITTED, WAITING,
                             AlreadyCleared, BrokerError, IllegalTransition,
                             NotDone, ProxyExpired, UnknownJob)
from deskgrid.fabric import ComputingElement, FabricJob, WorkloadProfile
from deskgrid.grid import Grid
from deskgrid.jdl import parse_expr, parse_jdl
from deskgrid.topology import parse_topology
from deskgrid.units import GB, KB, fmt_quantity

from conftest import CMKIN_SMALL, MINI_TOPOLOGY, make_mini, watch_matches

DATA_JDL = """\
Executable = "cmsim";
Requirements = Member("CMS", other.RunTimeEnvironment);
VirtualOrganisation = "testvo";
InputData = {"lfn:d.ntpl"};
ReplicaCatalog = "rc_test";
Events = 10;
JobSeed = 7;
"""


def submitted(grid, jdl=CMKIN_SMALL, pinned=None, rb="rb_test"):
    grid.proxy_init("/C=XX/CN=alice", "testvo")
    job_id = grid.submit(jdl, rb, pinned_ce=pinned)
    grid.kernel.run_to(grid.kernel.now_ms)
    return job_id


def test_submit_reaches_running_in_the_same_instant(mini, alice):
    job_id = mini.submit(CMKIN_SMALL, "rb_test")
    rb = mini.brokers["rb_test"]
    assert rb.jobs[job_id].state == WAITING  # match is queued, not yet run
    mini.kernel.run_until(0)
    record = rb.jobs[job_id]
    assert record.state == RUNNING and mini.kernel.now_ms == 0
    for state in (SUBMITTED, WAITING, MATCHED, SCHEDULED, RUNNING):
        assert record.timestamps[state] == 0


def test_idle_tie_breaks_alphabetically_then_load_pushes_away(mini, alice):
    matches = watch_matches(mini)
    j1 = mini.submit(CMKIN_SMALL, "rb_test")
    j2 = mini.submit(CMKIN_SMALL, "rb_test")
    mini.kernel.run_until(0)
    rb = mini.brokers["rb_test"]
    assert rb.jobs[j1].matched_ce == "ce_alpha"  # both idle, lowest id wins
    second = rb.jobs[j2]
    assert second.matched_ce == "ce_beta"
    # the audit trail shows alpha demoted by its freshly acquired load
    assert matches[j2].candidates == [
        ("ce_beta", Fraction(0)), ("ce_alpha", Fraction(-25, 2))]


def test_glue_broker_only_sees_glue_elements(mini, alice):
    matches = watch_matches(mini)
    job_id = mini.submit(CMKIN_SMALL, "rb_glue")
    mini.kernel.run_until(0)
    record = mini.brokers["rb_glue"].jobs[job_id]
    assert record.matched_ce == "ce_beta"
    assert [c for c, _v in matches[job_id].candidates] == ["ce_beta"]


def test_requirements_narrow_the_candidate_set(mini, alice):
    matches = watch_matches(mini)
    tagged = CMKIN_SMALL.replace(
        'Member("CMS", other.RunTimeEnvironment)',
        'Member("ATLAS-3.2.1", other.RunTimeEnvironment)')
    job_id = mini.submit(tagged, "rb_test")
    mini.kernel.run_until(0)
    record = mini.brokers["rb_test"].jobs[job_id]
    assert record.matched_ce == "ce_alpha"
    assert [c for c, _v in matches[job_id].candidates] == ["ce_alpha"]


def test_impossible_requirements_abort_with_no_matching_resources(mini, alice):
    matches = watch_matches(mini)
    bad = CMKIN_SMALL.replace("CMS", "NOPE")
    job_id = mini.submit(bad, "rb_test")
    mini.kernel.run_until(0)
    record = mini.brokers["rb_test"].jobs[job_id]
    assert record.state == ABORTED and record.reason == "NoMatchingResources"
    assert matches[job_id].chosen is None
    assert any(e.action == "match-failed" for e in mini.kernel.trace)


def test_pinning_to_an_element_that_fails_requirements_aborts(mini, alice):
    tagged = CMKIN_SMALL.replace(
        'Member("CMS", other.RunTimeEnvironment)',
        'Member("ATLAS-3.2.1", other.RunTimeEnvironment)')
    job_id = mini.submit(tagged, "rb_test", pinned_ce="ce_beta")
    mini.kernel.run_until(0)
    assert mini.brokers["rb_test"].jobs[job_id].state == ABORTED


def test_unusable_rank_demotes_but_still_matches(mini, alice):
    matches = watch_matches(mini)
    job_id = mini.submit(CMKIN_SMALL + 'Rank = "not a number";\n', "rb_test")
    mini.kernel.run_until(0)
    record = mini.brokers["rb_test"].jobs[job_id]
    assert record.matched_ce == "ce_alpha"
    assert matches[job_id].candidates == [("ce_alpha", None), ("ce_beta", None)]


def test_undefined_rank_is_equally_unusable(mini, alice):
    matches = watch_matches(mini)
    job_id = mini.submit(CMKIN_SMALL + "Rank = other.NoSuchFigure;\n", "rb_test")
    mini.kernel.run_until(0)
    assert matches[job_id].candidates == [("ce_alpha", None), ("ce_beta", None)]


def test_explicit_rank_overrides_the_traversal_time_default(mini, alice):
    j1 = mini.submit(CMKIN_SMALL, "rb_test")      # loads ce_alpha
    j2 = mini.submit(CMKIN_SMALL + "Rank = other.EstimatedTraversalTime;\n",
                     "rb_test")
    mini.kernel.run_until(0)
    # preferring the *longest* queue sends the second job onto alpha anyway
    assert mini.brokers["rb_test"].jobs[j2].matched_ce == "ce_alpha"


def test_data_driven_match_follows_the_replica(mini, alice):
    dg = mini.datagrid
    dg.store_of("se_beta").store("d.ntpl", 1000, 31)
    dg.rc.register("d.ntpl", dg.store_of("se_beta"), "d.ntpl")
    job_id = mini.submit(DATA_JDL, "rb_test")
    mini.kernel.run_until(0)
    record = mini.brokers["rb_test"].jobs[job_id]
    assert record.matched_ce == "ce_beta"
    assert record.chosen_replicas == {"d.ntpl": ("se_beta", "d.ntpl")}
    mini.kernel.run_to_completion()
    assert record.state == DONE_OK
    assert record.staged_checksums == {"d.ntpl": 31}


def test_lowest_replica_pair_is_chosen(mini, alice):
    dg = mini.datagrid
    dg.store_of("se_beta").store("b_copy", 1000, 31)
    dg.store_of("se_beta").store("a_copy", 1000, 31)
    dg.rc.register("d.ntpl", dg.store_of("se_beta"), "b_copy")
    dg.rc.register("d.ntpl", dg.store_of("se_beta"), "a_copy")
    job_id = mini.submit(DATA_JDL, "rb_test")
    mini.kernel.run_until(0)
    record = mini.brokers["rb_test"].jobs[job_id]
    assert record.chosen_replicas["d.ntpl"] == ("se_beta", "a_copy")


def test_unknown_input_data_aborts(mini, alice):
    job_id = mini.submit(DATA_JDL, "rb_test")
    mini.kernel.run_until(0)
    record = mini.brokers["rb_test"].jobs[job_id]
    assert record.state == ABORTED and record.reason == "NoMatchingResources"


def test_foreign_catalogue_never_matches(mini, alice):
    dg = mini.datagrid
    dg.store_of("se_beta").store("d.ntpl", 1000, 31)
    dg.rc.register("d.ntpl", dg.store_of("se_beta"), "d.ntpl")
    job_id = mini.submit(DATA_JDL.replace("rc_test", "rc_elsewhere"), "rb_test")
    mini.kernel.run_until(0)
    assert mini.brokers["rb_test"].jobs[job_id].state == ABORTED


def test_a_replica_registered_between_matches_widens_the_next_match(mini, alice):
    """Inputs are looked up at each match, not kept from the last one."""
    matches = watch_matches(mini)
    dg = mini.datagrid
    dg.store_of("se_beta").store("d.ntpl", 1000, 31)
    dg.rc.register("d.ntpl", dg.store_of("se_beta"), "d.ntpl")
    first = mini.submit(DATA_JDL, "rb_test")
    mini.kernel.run_until(0)
    assert candidates_of(matches, first) == ["ce_beta"]
    dg.store_of("se_alpha").store("d.ntpl", 1000, 31)
    dg.rc.register("d.ntpl", dg.store_of("se_alpha"), "d.ntpl")
    second = mini.submit(DATA_JDL, "rb_test")
    mini.kernel.run_until(0)
    assert candidates_of(matches, second) == ["ce_alpha", "ce_beta"]
    record = mini.brokers["rb_test"].jobs[second]
    assert record.chosen_replicas == {"d.ntpl": ("se_alpha", "d.ntpl")}


def test_expired_proxy_is_refused_at_the_door(mini, alice):
    mini.kernel.run_until(43200)
    with pytest.raises(ProxyExpired):
        mini.brokers["rb_test"].submit(parse_jdl(CMKIN_SMALL), alice)


def test_queue_wait_outliving_the_proxy_aborts_at_dispatch(mini, alice):
    short = mini.vo.create_proxy("/C=XX/CN=alice", "testvo",
                                 mini.kernel.now_ms, lifetime_s=60)
    rb = mini.brokers["rb_test"]
    long_job = CMKIN_SMALL.replace("Events = 50", "Events = 1000")
    j1 = rb.submit(parse_jdl(long_job), alice, pinned_ce="ce_beta")
    j2 = rb.submit(parse_jdl(CMKIN_SMALL), short, pinned_ce="ce_beta")
    mini.kernel.run_until(0)
    assert rb.jobs[j1].state == RUNNING
    assert rb.jobs[j2].state == SCHEDULED  # queued behind j1 on the only node
    mini.kernel.run_to_completion()
    assert rb.jobs[j1].state == DONE_OK
    record = rb.jobs[j2]
    assert record.state == ABORTED
    assert record.reason == "AuthorizationDenied(ProxyExpired)"


def watch_admitted(grid) -> dict:
    """Job id -> (its match's candidate ids, sorted; the ids of the elements
    of the broker's flavor that `authorize` admits for its owner then)."""
    seen = {}
    for rb in grid.brokers.values():
        def observe(record, result, rb=rb):
            owner, now_ms = record.owner, grid.kernel.now_ms
            admitted = [ce.ce_id for ce in grid.info.query(rb.flavor, owner.vo_name)
                        if grid.vo.authorize(ce.site_id, owner, now_ms) is None]
            seen[record.job_id] = (sorted(c for c, _v in result.candidates), admitted)
        rb.match_observers.append(observe)
    return seen


@pytest.mark.parametrize("delay_ms", [59_999, 60_000])
def test_a_match_admits_what_authorize_admits_up_to_the_expiry_instant(mini, delay_ms):
    """The proxy is valid at submission; its expiry instant is already
    invalid, so a match delayed onto it finds no element."""
    proxy = mini.vo.create_proxy("/C=XX/CN=alice", "testvo", 0, lifetime_s=60)
    rb = mini.brokers["rb_test"]
    rb.brokering_delay_ms = delay_ms
    seen = watch_admitted(mini)
    job_id = rb.submit(parse_jdl(CMKIN_SMALL), proxy)
    mini.kernel.run_until(60)
    candidates, admitted = seen[job_id]
    assert candidates == admitted == (["ce_alpha", "ce_beta"] if delay_ms < 60_000 else [])
    if not candidates:
        assert rb.jobs[job_id].reason == "NoMatchingResources"


def test_a_match_admits_what_authorize_admits_after_one_site_resyncs(mini):
    """bob leaves testvo and only alpha re-reads the directory: beta's
    mapfile is a snapshot that still holds him."""
    bob = mini.vo.create_proxy("/C=XX/CN=bob", "testvo", 0)
    mini.vo.remove_member("testvo", "/C=XX/CN=bob")
    mini.vo.sync_mapfile("alpha")
    seen = watch_admitted(mini)
    job_id = mini.brokers["rb_test"].submit(parse_jdl(CMKIN_SMALL), bob)
    mini.kernel.run_until(0)
    assert seen[job_id] == (["ce_beta"], ["ce_beta"])


def test_full_lifecycle_and_output_retrieval(mini, alice, tmp_path):
    rb = mini.brokers["rb_test"]
    job_id = mini.submit(CMKIN_SMALL, "rb_test")
    mini.kernel.run_until(0)
    with pytest.raises(NotDone):
        rb.get_output(job_id)
    mini.kernel.run_to_completion()
    record = rb.jobs[job_id]
    assert record.state == DONE_OK
    assert record.registered_lfns == ("cmkin_101.ntpl",)
    assert mini.datagrid.rc.lookup("cmkin_101.ntpl") == [("se_alpha", "cmkin_101.ntpl")]
    manifest = rb.get_output(job_id, dest_dir=tmp_path)
    assert [name for name, _s, _c in manifest] == ["std.out", "std.err"]
    text = (tmp_path / f"{job_id}.manifest").read_text()
    assert text.splitlines()[0] == "name\tbytes\tchecksum"
    assert record.state == CLEARED and record.outcome() == DONE_OK
    with pytest.raises(AlreadyCleared):
        rb.get_output(job_id)


def test_a_shared_log_returns_the_bytes_of_both_streams_in_one_file(mini, alice):
    """A job whose StdOutput and StdError name one file returns one log of
    both streams: the sandbox leg moves the bytes and takes the time of the
    two logs it replaces."""
    def sandbox_leg(grid, text):
        job_id = grid.submit(text, "rb_test")
        grid.kernel.run_to_completion()
        (leg,) = [e.detail for e in grid.kernel.trace
                  if e.detail.get("what") == f"output-sandbox:{job_id}"]
        return leg, grid.brokers["rb_test"].get_output(job_id)

    shared, manifest = sandbox_leg(mini, CMKIN_SMALL + 'StdOutput = "run.log";\n'
                                                       'StdError = "run.log";\n')
    assert [(name, size) for name, size, _mark in manifest] == [
        ("run.log", 1024 + 16 * 50 + 512)]
    apart = make_mini()
    apart.proxy_init("/C=XX/CN=alice", "testvo")
    separate, manifest = sandbox_leg(apart, CMKIN_SMALL)
    assert [name for name, _size, _mark in manifest] == ["std.out", "std.err"]
    assert shared == separate and shared["bytes"] == 2336


def test_run_job_requires_a_match_first(mini, alice):
    rb = mini.brokers["rb_test"]
    job_id = rb.submit(parse_jdl(CMKIN_SMALL), alice)
    with pytest.raises(BrokerError):
        rb.run_job(rb.jobs[job_id])
    with pytest.raises(UnknownJob):
        rb.get_output("j999")


def test_a_job_an_element_queues_or_runs_is_its_brokers_record(mini, alice):
    """A bulk request on the mini grid, after the t=0 matches: each job held
    in an element's queue or among its running jobs is the broker's own
    record of it, not a copy, and the running ones are held by their ids."""
    request = mini.refdb.create_request("jpsi", "CMKIN", 40 * 250, 250, "rb_test")
    mini.production.declare(request.assignment_id)
    mini.production.create(request.assignment_id)
    mini.production.submit(request.assignment_id, alice)
    mini.kernel.run_to(0)
    rb = mini.brokers["rb_test"]
    queued = [job for ce in mini.fabric.ces.values() for job in ce.queue]
    running = [(job_id, job) for ce in mini.fabric.ces.values()
               for job_id, job in ce.running.items()]
    assert len(queued) == 37 and len(running) == 3
    assert all(job is rb.jobs[job.job_id] for job in queued)
    assert all(job is rb.jobs[job_id] for job_id, job in running)


def test_an_ended_job_is_neither_matched_nor_moved_again(mini, alice):
    rb = mini.brokers["rb_test"]
    job_id = mini.submit(CMKIN_SMALL, "rb_test")
    mini.kernel.run_to_completion()
    record = rb.jobs[job_id]
    assert record.state == DONE_OK
    with pytest.raises(BrokerError, match="match requires WAITING, not DONE_OK"):
        rb.match(record)
    with pytest.raises(IllegalTransition, match=f"{job_id}: DONE_OK -> RUNNING"):
        rb._move(record, RUNNING)
    assert record.state == DONE_OK and mini.validate() == []


def test_exec_failure_returns_logs_only(mini, alice):
    mini.fabric.ces["ce_alpha"].fail_next_execs = 1
    job_id = mini.submit(CMKIN_SMALL, "rb_test", pinned_ce="ce_alpha")
    mini.kernel.run_to_completion()
    record = mini.brokers["rb_test"].jobs[job_id]
    assert record.state == DONE_FAILED and record.reason == "ExecFailed"
    assert all(not f.is_data for f in record.sandbox_out)
    assert not record.registered_lfns


def test_full_storage_fails_the_job_at_registration(mini, alice):
    store = mini.datagrid.store_of("se_alpha")
    store.store("filler", GB - 2_000_000, 1)
    job_id = mini.submit(CMKIN_SMALL, "rb_test", pinned_ce="ce_alpha")
    mini.kernel.run_to_completion()
    record = mini.brokers["rb_test"].jobs[job_id]
    assert record.state == DONE_FAILED and record.reason == "SeFull"
    assert any(e.action == "output-failed" for e in mini.kernel.trace)


def test_default_se_attribute_redirects_the_output(mini, alice):
    jdl = CMKIN_SMALL + 'DefaultSE = "se_beta";\n'
    job_id = mini.submit(jdl, "rb_test", pinned_ce="ce_alpha")
    mini.kernel.run_to_completion()
    record = mini.brokers["rb_test"].jobs[job_id]
    assert record.state == DONE_OK
    assert mini.datagrid.rc.lookup("cmkin_101.ntpl")[0][0] == "se_beta"


def test_observers_see_every_move_and_matches_before_handoff(mini, alice):
    rb = mini.brokers["rb_test"]
    moves = []
    rb.transition_observers.append(
        lambda record, old, new: moves.append((record.job_id, old, new)))
    seen_at_match = []
    rb.match_observers.append(
        lambda record, result: seen_at_match.append(
            (record.state, len(mini.fabric.ces[result.chosen].running))))
    job_id = mini.submit(CMKIN_SMALL, "rb_test")
    mini.kernel.run_to_completion()
    assert seen_at_match == [(MATCHED, 0)]  # observed before the enqueue
    assert [(old, new) for _j, old, new in moves] == [
        (SUBMITTED, WAITING), (WAITING, MATCHED), (MATCHED, SCHEDULED),
        (SCHEDULED, RUNNING), (RUNNING, DONE_OK)]
    assert job_id == moves[0][0]


def test_missing_route_fails_the_running_job():
    bare = MINI_TOPOLOGY.replace("default_wan_bandwidth = 10 MB/s\n", "")
    bare = bare.replace("default_wan_latency = 0.05\n", "")
    grid = Grid(parse_topology(bare, "<bare>"))
    grid.proxy_init("/C=XX/CN=alice", "testvo")
    job_id = grid.submit(CMKIN_SMALL, "rb_test")
    grid.kernel.run_to_completion()
    record = grid.brokers["rb_test"].jobs[job_id]
    assert record.state == DONE_FAILED and record.reason == "NoRoute"


# -- requirements tested at set builds and at matches -----------------

def with_requirements(text: str) -> str:
    return CMKIN_SMALL.replace('Member("CMS", other.RunTimeEnvironment)', text)


def candidates_of(matches, job_id):
    return [ce_id for ce_id, _v in matches[job_id].candidates]


def test_reused_requirement_results_follow_a_republished_record(mini, alice):
    """A requirement is tested when its kept set is built, and a publish
    drops the kept sets: republishing an element with other tags changes
    the next match."""
    matches = watch_matches(mini)
    atlas = with_requirements('Member("ATLAS-3.2.1", other.RunTimeEnvironment)')
    first = mini.submit(atlas, "rb_test")
    mini.kernel.run_until(0)
    assert candidates_of(matches, first) == ["ce_alpha"]
    beta = mini.info.ces["ce_beta"]
    mini.info.publish_ce(dataclasses.replace(
        beta, run_time_environment=("CMS", "ATLAS-3.2.1")))
    second = mini.submit(atlas, "rb_test")
    mini.kernel.run_until(0)
    assert candidates_of(matches, second) == ["ce_beta", "ce_alpha"]  # beta idle
    mini.info.publish_ce(beta)
    third = mini.submit(atlas, "rb_test")
    mini.kernel.run_until(0)
    assert candidates_of(matches, third) == ["ce_alpha"]


def test_a_requirement_on_the_traversal_time_is_evaluated_at_each_match(mini, alice):
    """Each job of 50 cmkin events adds 12.5 s to either element's ETT."""
    matches = watch_matches(mini)
    short = with_requirements(
        'Member("CMS", other.RunTimeEnvironment) && other.EstimatedTraversalTime < 10')
    jobs = [mini.submit(short, "rb_test") for _ in range(3)]
    mini.kernel.run_until(0)
    assert candidates_of(matches, jobs[0]) == ["ce_alpha", "ce_beta"]
    assert candidates_of(matches, jobs[1]) == ["ce_beta"]
    assert candidates_of(matches, jobs[2]) == []
    assert mini.brokers["rb_test"].jobs[jobs[2]].reason == "NoMatchingResources"


def test_true_and_one_are_different_requirements(mini, alice):
    """`true == 1` in Python, but only `true` is a satisfied requirement,
    so the two must not share a kept set."""
    matches = watch_matches(mini)
    assert parse_expr("true") != parse_expr("1")
    assert parse_expr("{1, true}") != parse_expr("{true, 1}")
    yes = mini.submit(with_requirements("true"), "rb_test")
    no = mini.submit(with_requirements("1"), "rb_test")
    mini.kernel.run_until(0)
    assert candidates_of(matches, yes) == ["ce_alpha", "ce_beta"]
    assert mini.brokers["rb_test"].jobs[no].reason == "NoMatchingResources"


# -- exact ranking -----------------------------------------------------

PAIR_TOPOLOGY = """\
[general]
replica_catalog = rc_pair
default_wan_bandwidth = 10 MB/s
default_wan_latency = 0.05

[vo testvo]
/C=XX/CN=alice

[site one]
region = EU
accept_vos = testvo

[ce ce_a]
site = one
lrms = PBS
flavors = EDG
wn_count = {wn_a}
cpu_mhz = {mhz_a}
tags = CMS
close_ses = se_one

[ce ce_b]
site = one
lrms = PBS
flavors = EDG
wn_count = {wn_b}
cpu_mhz = {mhz_b}
tags = CMS
close_ses = se_one

[se se_one]
site = one
capacity = 1 GB

[broker rb_test]
flavor = EDG
"""

BLIP = """\
Executable = "blip";
Requirements = true;
VirtualOrganisation = "testvo";
Events = {events};
JobSeed = 1;
"""


def loaded_pair(mhz_a, wn_a, events_a, mhz_b, wn_b, events_b):
    """Two elements, each running one job of 1 CPU s per event at 1 GHz
    (the fallback profile), then one more job matched between them;
    returns the grid, that job's record and its match."""
    grid = Grid(parse_topology(PAIR_TOPOLOGY.format(mhz_a=mhz_a, wn_a=wn_a, mhz_b=mhz_b,
                                                    wn_b=wn_b), "<pair>"))
    matches = watch_matches(grid)
    grid.proxy_init("/C=XX/CN=alice", "testvo")
    grid.submit(BLIP.format(events=events_a), "rb_test", pinned_ce="ce_a")
    grid.submit(BLIP.format(events=events_b), "rb_test", pinned_ce="ce_b")
    grid.kernel.run_until(0)
    job_id = grid.submit(BLIP.format(events=1), "rb_test")
    grid.kernel.run_until(0)
    return grid, grid.brokers["rb_test"].jobs[job_id], matches[job_id]


def test_ranks_closer_than_one_double_apart_order_exactly():
    """ETT = 1000 * events / cpu_mhz.  The two differ by 1000/(999983 *
    999979) s, about 1e-9 s at 1e8 s: the same double, different rationals.
    ce_b is faster by that much, so it wins despite its larger id."""
    events_a, events_b = 99_998_050_004, 99_997_650_005
    assert events_a * 999_979 - events_b * 999_983 == 1
    _grid, record, result = loaded_pair(999_983, 1, events_a, 999_979, 1, events_b)
    ett_a, ett_b = Fraction(1000 * events_a, 999_983), Fraction(1000 * events_b, 999_979)
    assert float(ett_a) == float(ett_b) and ett_b < ett_a
    assert record.matched_ce == "ce_b"
    assert result.candidates == [("ce_b", -ett_b), ("ce_a", -ett_a)]


def test_equal_ranks_on_different_denominators_tie_to_the_smaller_id():
    """5 s each: 30 events on 2 nodes at 3 GHz, 5 events on 1 node at 1 GHz."""
    grid, record, result = loaded_pair(3000, 2, 30, 1000, 1, 5)
    assert record.matched_ce == "ce_a"
    assert result.candidates == [("ce_a", -5), ("ce_b", -5)]
    matched = [e for e in grid.kernel.trace if e.action == "matched"][-1]
    assert matched.detail["candidates"] == "ce_a:-5|ce_b:-5"
    assert matched.detail["rank"] == "-5"


ODD = WorkloadProfile("odd", Fraction(1, 7), Fraction(KB))

ODD_JDL = """\
Executable = "odd";
Requirements = true;
VirtualOrganisation = "testvo";
Events = {events};
JobSeed = 5;
"""


@pytest.mark.parametrize("seed", range(3))
def test_every_rendered_table_is_the_exact_ranking(mini, alice, seed):
    """A seeded run on both brokers: CMKIN jobs of any size, jobs pinned to
    either element of a profile registered mid-run (1/7 CPU s per event, so
    the elements' CPU units shrink and their ETT pairs change without their
    values changing), and ce_beta republished without, then with, GLUE.  At
    every match the trace shows the table rendered from the exact
    candidates, and the choice is the least exact ETT, ties to the smaller
    id."""
    rng = random.Random(seed)
    checked = []

    def check(record, result):
        if result.chosen is None:
            return
        shown = next(e for e in reversed(mini.kernel.trace) if e.action == "matched")
        assert shown.detail["job"] == record.job_id
        assert shown.detail["candidates"] == "|".join(
            f"{c}:{fmt_quantity(v)}" for c, v in result.candidates)
        assert shown.detail["rank"] == fmt_quantity(result.candidates[0][1])
        ett = {c: mini.info.estimated_traversal_time(c) for c, _v in result.candidates}
        assert result.chosen == min(ett, key=lambda c: (ett[c], c))
        assert result.candidates == [(c, -ett[c]) for c in sorted(ett, key=lambda c: (ett[c], c))]
        checked.append(record.job_id)

    for rb in mini.brokers.values():
        rb.match_observers.append(check)
    beta = mini.info.ces["ce_beta"]
    for step in range(60):
        if step == 20:
            mini.fabric.set_profile(ODD)
        elif step == 30:
            mini.info.publish_ce(dataclasses.replace(beta, schema_flavors=("EDG",)))
        elif step == 45:
            mini.info.publish_ce(beta)
        for _ in range(rng.randint(1, 3)):
            rb = rng.choice(["rb_test", "rb_glue"])
            if step >= 20 and rng.random() < 0.3:
                mini.submit(ODD_JDL.format(events=rng.randint(1, 40)), rb,
                            pinned_ce=rng.choice(["ce_alpha", "ce_beta"]))
            else:
                mini.submit(CMKIN_SMALL.replace("Events = 50",
                                                f"Events = {rng.randint(1, 80)}"), rb)
        mini.kernel.run_to(mini.kernel.now_ms + 1000 * rng.randint(0, 20))
    mini.kernel.run_to_completion()
    assert len(checked) > 80
    assert {ce.cpu_den for ce in mini.fabric.ces.values()} == {14}


def test_a_default_rank_match_builds_no_fraction(mini, alice):
    """Load both elements with running and queued jobs, then profile the
    matches themselves: the default rank is integer arithmetic only."""
    for _ in range(5):
        mini.submit(CMKIN_SMALL, "rb_test")
    mini.kernel.run_until(0)
    rb = mini.brokers["rb_test"]
    pending = [rb.submit(parse_jdl(CMKIN_SMALL), alice) for _ in range(3)]
    profile = cProfile.Profile()
    profile.enable()
    results = [rb.match(rb.jobs[job_id]) for job_id in pending]
    profile.disable()
    assert all(len(result.table) == 2 for result in results)
    built = [calls for (path, _line, name), (_cc, calls, *_rest)
             in pstats.Stats(profile).stats.items()
             if name == "__new__" and path.endswith("fractions.py")]
    assert built == []


def test_a_bulk_run_rescans_each_running_job_once_per_refresh(mini, alice, monkeypatch):
    """A factory request of 60 jobs on the mini grid, submitted at once, and
    three jobs whose requirement reads the ETT.  Running jobs are counted
    only when an element refreshes its running term, once each, far fewer
    times than matches x candidates x running jobs; whether a requirement
    reads the ETT is decided once per distinct requirement."""
    calls, refreshed, naive = Counter(), [], []
    scan, events_left, reads = (ComputingElement.scan_running, FabricJob.events_left,
                                jdl.reads_attribute)

    def counted_scan(ce):
        refreshed.append(len(ce.running))
        return scan(ce)

    def counted_events_left(job):
        calls["events_left"] += 1
        return events_left(job)

    def counted_reads(expr, name):
        calls["reads_attribute"] += 1
        return reads(expr, name)

    monkeypatch.setattr(ComputingElement, "scan_running", counted_scan)
    monkeypatch.setattr(FabricJob, "events_left", counted_events_left)
    monkeypatch.setattr(jdl, "reads_attribute", counted_reads)
    rb = mini.brokers["rb_test"]
    rb.match_observers.append(lambda _record, result: naive.append(
        sum(len(mini.fabric.ces[ce_id].running) for ce_id, _value in result.table)))
    request = mini.refdb.create_request("bulk", "CMKIN", 60 * 50, 50, "rb_test")
    mini.production.declare(request.assignment_id)
    mini.production.create(request.assignment_id)
    mini.production.submit(request.assignment_id, alice)
    for seed in range(3):
        mini.submit(with_requirements("other.EstimatedTraversalTime < 100000").replace(
            "JobSeed = 101;", f"JobSeed = {seed};"), "rb_test")
    mini.kernel.run_to_completion()

    assert len(naive) == 63
    assert all(record.state == DONE_OK for _rb, record in mini.all_jobs())
    assert calls["events_left"] <= sum(refreshed)
    assert 10 * calls["events_left"] < sum(naive)
    assert calls["reads_attribute"] == 2


# -- how a job ends ------------------------------------------------------

ALICE = "/C=XX/CN=alice"

# the mini grid with no default WAN: rb_test reaches alpha by its own link,
# and ce_alpha is also close to se_gamma, at a site linked to nothing
ROUTED_TOPOLOGY = MINI_TOPOLOGY.replace(
    "default_wan_bandwidth = 10 MB/s\ndefault_wan_latency = 0.05\n", "").replace(
    "close_ses = se_alpha\n", "close_ses = se_alpha se_gamma\n") + """
[site gamma]
region = EU
accept_vos = testvo

[se se_gamma]
site = gamma
capacity = 1 GB

[link rb:rb_test site:alpha]
bandwidth = 10 MB/s
latency = 0.05
"""

LOGS = [("std.out", 1824), ("std.err", 512)]


def booked(grid, text, pinned=None, proxy=None):
    """Submit `text` to rb_test and open its bookkeeping record, as the
    factory does for each job it submits."""
    description = parse_jdl(text)
    proxy = proxy or grid.proxy_init(ALICE, "testvo")
    job_id = grid.brokers["rb_test"].submit(description, proxy, pinned_ce=pinned)
    grid.bossdb.open_record(job_id, description.job_profile, "exits", description.events)
    return job_id


def no_match(grid):
    return booked(grid, CMKIN_SMALL.replace('"CMS"', '"NOPE"'))


def refused_at_the_queue(grid):
    """alice leaves testvo between her match and the enqueue; beta accepts
    no other VO of hers."""
    def leave(_record, _old, new):
        if new == MATCHED:
            grid.vo.remove_member("testvo", ALICE)
            grid.vo.sync_mapfile("beta")
    grid.brokers["rb_test"].transition_observers.append(leave)
    return booked(grid, CMKIN_SMALL, pinned="ce_beta")


def refused_at_dispatch(grid):
    booked(grid, CMKIN_SMALL.replace("Events = 50", "Events = 1000"), pinned="ce_beta")
    short = grid.vo.create_proxy(ALICE, "testvo", grid.kernel.now_ms, lifetime_s=60)
    return booked(grid, CMKIN_SMALL, pinned="ce_beta", proxy=short)


def input_sandbox_unrouted(grid):
    return booked(grid, CMKIN_SMALL, pinned="ce_beta")


def staging_unrouted(grid):
    grid.datagrid.store_of("se_gamma").store("d.ntpl", 1000, 31)
    grid.datagrid.rc.register("d.ntpl", grid.datagrid.store_of("se_gamma"), "d.ntpl")
    return booked(grid, DATA_JDL)


def input_lost(grid):
    store = grid.datagrid.store_of("se_beta")
    store.store("d.ntpl", 1000, 31)
    grid.datagrid.rc.register("d.ntpl", grid.datagrid.store_of("se_beta"), "d.ntpl")
    store.used_bytes -= store.files.pop("d.ntpl")[0]  # the catalogue still lists it
    return booked(grid, DATA_JDL)


def exec_failed(grid):
    grid.fabric.ces["ce_alpha"].fail_next_execs = 1
    return booked(grid, CMKIN_SMALL, pinned="ce_alpha")


def storage_full(grid):
    grid.datagrid.store_of("se_alpha").store("filler", GB - 2_000_000, 1)
    return booked(grid, CMKIN_SMALL, pinned="ce_alpha")


def output_catalogued_elsewhere(grid):
    """The product's name is already catalogued at se_beta under another size."""
    grid.datagrid.store_of("se_beta").store("cmkin_101.ntpl", 1000, 31)
    grid.datagrid.rc.register("cmkin_101.ntpl", grid.datagrid.store_of("se_beta"), "cmkin_101.ntpl")
    return booked(grid, CMKIN_SMALL, pinned="ce_alpha")


def output_se_unknown(grid):
    return booked(grid, CMKIN_SMALL + 'DefaultSE = "se_nowhere";\n', pinned="ce_alpha")


def output_unrouted(grid):
    return booked(grid, CMKIN_SMALL + 'DefaultSE = "se_gamma";\n', pinned="ce_alpha")


def sandbox_return_unrouted(grid):
    """The broker's one route to alpha goes while the job executes there,
    from 0.051 s to 25.051 s; its output lands at alpha, on se_alpha, and
    its logs never reach the broker."""
    job_id = booked(grid, CMKIN_SMALL, pinned="ce_alpha")
    grid.kernel.schedule("user-command",
                         lambda: grid.network.remove_link("rb:rb_test", "site:alpha"), 1000)
    return job_id


EXITS = [
    # (how, topology, state, reason, from, bookkeeping (status, exit), manifest)
    (no_match, MINI_TOPOLOGY, ABORTED, "NoMatchingResources", WAITING, None, None),
    (refused_at_the_queue, MINI_TOPOLOGY, ABORTED, "AuthorizationDenied(NotInMapfile)",
     SCHEDULED, None, None),
    (refused_at_dispatch, MINI_TOPOLOGY, ABORTED, "AuthorizationDenied(ProxyExpired)",
     SCHEDULED, None, None),
    (input_sandbox_unrouted, ROUTED_TOPOLOGY, DONE_FAILED, "NoRoute", RUNNING, 1, []),
    (staging_unrouted, ROUTED_TOPOLOGY, DONE_FAILED, "NoRoute", RUNNING, 1, []),
    (input_lost, MINI_TOPOLOGY, DONE_FAILED, "NoSuchPhysicalFile", RUNNING, 1, []),
    (exec_failed, MINI_TOPOLOGY, DONE_FAILED, "ExecFailed", RUNNING, 1, LOGS),
    (storage_full, MINI_TOPOLOGY, DONE_FAILED, "SeFull", RUNNING, 1, LOGS),
    (output_catalogued_elsewhere, MINI_TOPOLOGY, DONE_FAILED, "ChecksumMismatch", RUNNING, 1,
     LOGS),
    (output_se_unknown, MINI_TOPOLOGY, DONE_FAILED, "UnknownSe", RUNNING, 1, LOGS),
    (output_unrouted, ROUTED_TOPOLOGY, DONE_FAILED, "NoRoute", RUNNING, 1, LOGS),
    (sandbox_return_unrouted, ROUTED_TOPOLOGY, DONE_FAILED, "NoRoute", RUNNING, 1, []),
]


@pytest.mark.parametrize("how, topology, state, reason, frm, exit_status, manifest", EXITS,
                         ids=[case[0].__name__ for case in EXITS])
def test_every_exit_leaves_the_books_consistent(how, topology, state, reason, frm,
                                                exit_status, manifest):
    """Each way a job can end: its state and reason, the trace's last word
    on it, its bookkeeping record, its output, and no node still held."""
    grid = Grid(parse_topology(topology, "<exits>"))
    job_id = how(grid)
    grid.kernel.run_to_completion()
    record = grid.brokers["rb_test"].jobs[job_id]
    assert (record.state, record.reason) == (state, reason)
    last = [e for e in grid.kernel.trace
            if e.action == "job-state" and e.detail["job"] == job_id][-1]
    assert (last.actor, last.detail) == (
        "rb_test", {"job": job_id, "frm": frm, "to": state, "reason": reason})
    boss = grid.bossdb.for_scheduler_job(job_id)
    assert (boss.status, boss.exit_status) == ("failed", exit_status)
    for ce in grid.fabric.ces.values():
        assert not ce.running and not ce.queue
        assert sorted([*ce.free_wns, *ce.unused_wns]) == list(range(ce.record.wn_count))
    assert grid.validate() == []
    if manifest is None:
        with pytest.raises(NotDone):
            grid.brokers["rb_test"].get_output(job_id)
    else:
        got = grid.brokers["rb_test"].get_output(job_id)
        assert [(name, size) for name, size, _mark in got] == manifest


def job_lines(grid, job_id) -> dict:
    """The job's exec-complete, output-data and output-failed lines, by action
    (transfer-complete only for its data product's leg)."""
    lines = {}
    for e in grid.kernel.trace:
        detail = e.detail
        if e.action in ("exec-complete", "output-failed") and detail["job"] == job_id:
            lines[e.action] = e
        elif e.action == "transfer-complete" and detail["what"].startswith("output-data:"):
            lines["output-data"] = e
    return lines


def test_a_product_that_cannot_fit_fails_before_it_moves():
    """A full SE is seen at the exec-end instant: no output-data leg, and the
    output-failed line sits beside the exec-complete line."""
    grid = Grid(parse_topology(MINI_TOPOLOGY, "<exits>"))
    job_id = storage_full(grid)
    grid.kernel.run_to_completion()
    lines = job_lines(grid, job_id)
    assert "output-data" not in lines
    assert lines["output-failed"].detail == {"job": job_id, "file": "cmkin_101.ntpl",
                                             "reason": "SeFull"}
    assert lines["output-failed"].time_ms == lines["exec-complete"].time_ms
    assert grid.datagrid.store_of("se_alpha").files.keys() == {"filler"}
    assert grid.validate() == []


def test_an_se_that_fills_while_the_product_moves_fails_it_on_landing():
    """Room is checked again when the product lands: filled in flight, the SE
    refuses it then, and the job still ends DONE_FAILED SeFull."""
    twin = Grid(parse_topology(MINI_TOPOLOGY, "<exits>"))
    job_id = booked(twin, CMKIN_SMALL, pinned="ce_alpha")
    twin.kernel.run_to_completion()
    moved = job_lines(twin, job_id)
    assert moved["exec-complete"].time_ms < moved["output-data"].time_ms
    assert "output-failed" not in moved

    grid = Grid(parse_topology(MINI_TOPOLOGY, "<exits>"))
    assert booked(grid, CMKIN_SMALL, pinned="ce_alpha") == job_id
    grid.kernel.run_until(Fraction(moved["exec-complete"].time_ms, 1000))
    store = grid.datagrid.store_of("se_alpha")
    store.store("filler", store.capacity_bytes - moved["output-data"].detail["bytes"] + 1, 1)
    grid.kernel.run_to_completion()
    record = grid.brokers["rb_test"].jobs[job_id]
    assert (record.state, record.reason) == (DONE_FAILED, "SeFull")
    assert not record.registered_lfns
    lines = job_lines(grid, job_id)
    assert lines["output-data"].format() == moved["output-data"].format()
    assert lines["output-failed"].detail["reason"] == "SeFull"
    assert lines["output-failed"].time_ms == lines["output-data"].time_ms
    assert store.files.keys() == {"filler"} and grid.validate() == []


def test_a_product_the_catalogue_refuses_leaves_the_se_as_it_was():
    """A landed product whose name the catalogue holds under another size
    fails ChecksumMismatch and is taken off the SE again; the trace is the
    one written when the refused file stayed on the SE."""
    grid = Grid(parse_topology(MINI_TOPOLOGY, "<exits>"))
    job_id = output_catalogued_elsewhere(grid)
    grid.kernel.run_to_completion()
    record = grid.brokers["rb_test"].jobs[job_id]
    assert (record.state, record.reason) == (DONE_FAILED, "ChecksumMismatch")
    store = grid.datagrid.store_of("se_alpha")
    assert store.files == {} and store.used_bytes == 0
    assert grid.datagrid.rc.lookup("cmkin_101.ntpl") == [("se_beta", "cmkin_101.ntpl")]
    lines = job_lines(grid, job_id)
    assert lines["output-failed"].detail["reason"] == "ChecksumMismatch"
    assert lines["output-failed"].time_ms == lines["output-data"].time_ms
    assert hashlib.sha256(grid.kernel.export_trace().encode()).hexdigest() == (
        "8774021c12118bcf05cc133332afaeedb196e85224aa5b622797130807e08ef5")
    assert grid.validate() == []


def test_grid_submit_needs_a_known_broker_and_a_proxy(mini):
    with pytest.raises(BrokerError, match="no proxy; run proxy init first"):
        mini.submit(CMKIN_SMALL, "rb_test")
    mini.proxy_init("/C=XX/CN=alice", "testvo")
    with pytest.raises(BrokerError, match="unknown resource broker 'rb_nowhere'"):
        mini.submit(CMKIN_SMALL, "rb_nowhere")
    assert mini.all_jobs() == []
