import cProfile
import dataclasses
import pstats
from collections import Counter
from fractions import Fraction

import pytest

from deskgrid import jdl
from deskgrid.broker import (ABORTED, CLEARED, DONE_FAILED, DONE_OK, MATCHED,
                             RUNNING, SCHEDULED, SUBMITTED, WAITING,
                             AlreadyCleared, BrokerError, NotDone,
                             ProxyExpired, UnknownJob)
from deskgrid.fabric import ComputingElement, FabricJob
from deskgrid.grid import Grid
from deskgrid.jdl import parse_expr, parse_jdl
from deskgrid.topology import parse_topology
from deskgrid.units import GB

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
    grid.kernel.run_until(grid.kernel.now())
    return job_id


def test_submit_reaches_running_in_the_same_instant(mini, alice):
    job_id = mini.submit(CMKIN_SMALL, "rb_test")
    rb = mini.brokers["rb_test"]
    assert rb.jobs[job_id].state == WAITING  # match is queued, not yet run
    mini.kernel.run_until(0)
    record = rb.jobs[job_id]
    assert record.state == RUNNING and mini.kernel.now() == 0
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
    dg.register("d.ntpl", "se_beta", "d.ntpl")
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
    dg.register("d.ntpl", "se_beta", "b_copy")
    dg.register("d.ntpl", "se_beta", "a_copy")
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
    dg.register("d.ntpl", "se_beta", "d.ntpl")
    job_id = mini.submit(DATA_JDL.replace("rc_test", "rc_elsewhere"), "rb_test")
    mini.kernel.run_until(0)
    assert mini.brokers["rb_test"].jobs[job_id].state == ABORTED


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


def test_full_lifecycle_and_output_retrieval(mini, alice, tmp_path):
    rb = mini.brokers["rb_test"]
    job_id = mini.submit(CMKIN_SMALL, "rb_test")
    mini.kernel.run_until(0)
    with pytest.raises(NotDone):
        rb.get_output(job_id)
    mini.kernel.run_to_completion()
    record = rb.jobs[job_id]
    assert record.state == DONE_OK
    assert record.registered_lfns == ["cmkin_101.ntpl"]
    assert mini.datagrid.lookup("cmkin_101.ntpl") == [("se_alpha", "cmkin_101.ntpl")]
    manifest = rb.get_output(job_id, dest_dir=tmp_path)
    assert [name for name, _s, _c in manifest] == ["std.out", "std.err"]
    text = (tmp_path / f"{job_id}.manifest").read_text()
    assert text.splitlines()[0] == "name\tbytes\tchecksum"
    assert record.state == CLEARED and record.outcome() == DONE_OK
    with pytest.raises(AlreadyCleared):
        rb.get_output(job_id)


def test_run_job_requires_a_match_first(mini, alice):
    rb = mini.brokers["rb_test"]
    job_id = rb.submit(parse_jdl(CMKIN_SMALL), alice)
    with pytest.raises(BrokerError):
        rb.run_job(job_id)
    with pytest.raises(UnknownJob):
        rb.run_job("j999")


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
    assert mini.datagrid.lookup("cmkin_101.ntpl")[0][0] == "se_beta"


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
    grid = Grid(parse_topology(bare, "<bare>"), seed=1)
    grid.proxy_init("/C=XX/CN=alice", "testvo")
    job_id = grid.submit(CMKIN_SMALL, "rb_test")
    grid.kernel.run_to_completion()
    record = grid.brokers["rb_test"].jobs[job_id]
    assert record.state == DONE_FAILED and record.reason == "NoRoute"


# -- requirement results reused across jobs ---------------------------

def with_requirements(text: str) -> str:
    return CMKIN_SMALL.replace('Member("CMS", other.RunTimeEnvironment)', text)


def candidates_of(matches, job_id):
    return [ce_id for ce_id, _v in matches[job_id].candidates]


def test_reused_requirement_results_follow_a_republished_record(mini, alice):
    """Results are reused per advertised attributes, not per element id:
    republishing an element with other tags changes the next match."""
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
    so the two must not share reused results."""
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
                                                    wn_b=wn_b), "<pair>"), seed=1)
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
    results = [rb.match(job_id) for job_id in pending]
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
    calls, refreshed, naive, depth = Counter(), [], [], [0]
    scan, events_left, reads = (ComputingElement.scan_running, FabricJob.events_left,
                                jdl.reads_attribute)

    def counted_scan(ce):
        refreshed.append(len(ce.running))
        return scan(ce)

    def counted_events_left(job):
        calls["events_left"] += 1
        return events_left(job)

    def counted_reads(expr, name):  # it recurses through the module name
        calls["reads_attribute"] += depth[0] == 0
        depth[0] += 1
        try:
            return reads(expr, name)
        finally:
            depth[0] -= 1

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
