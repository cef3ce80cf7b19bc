import gc
import pathlib
import re
from collections import Counter
from dataclasses import fields
from types import SimpleNamespace

import pytest

from deskgrid import broker as broker_mod
from deskgrid import fabric as fabric_mod
from deskgrid.grid import Grid, default_topology_path, load_topology
from deskgrid.jdl import parse_jdl
from deskgrid.production import (BossDb, JobsStillRunning, MissingUpstream,
                                 ProductionError, RefDb, UnknownAssignment,
                                 UnknownBossId, WrongState, job_seed_for)

from deskgrid.topology import parse_topology

from conftest import OPERATOR, make_mini
from jdl_reference import description_text
from test_cli import ok


def grid_with_factory():
    grid = make_mini()
    proxy = grid.proxy_init("/C=XX/CN=alice", "testvo")
    return grid, proxy


def submitted_descriptions(grid, request) -> list:
    """The description each job of `request` was submitted with."""
    jobs = grid.brokers[request.rb_id].jobs
    return [jobs[job_id].description for job_id in request.scheduler_jobs]


def run_assignment(grid, proxy, aid):
    grid.production.declare(aid)
    grid.production.create(aid)
    boss_ids = grid.production.submit(aid, proxy)
    grid.kernel.run_to_completion()
    return boss_ids


# -- request registry --------------------------------------------------


def test_split_fills_jobs_and_puts_the_remainder_last():
    refdb = RefDb()
    even = refdb.create_request("jpsi", "CMKIN", 2000, 250, "rb_test")
    assert even.job_count == 8
    assert even.split_events() == [250] * 8
    ragged = refdb.create_request("psi", "CMKIN", 2100, 250, "rb_test")
    assert ragged.job_count == 9
    assert ragged.split_events() == [250] * 8 + [100]
    tiny = refdb.create_request("eta", "CMKIN", 100, 250, "rb_test")
    assert tiny.split_events() == [100]
    assert sum(ragged.split_events()) == 2100


def test_the_job_count_is_exact_where_a_float_quotient_rounds():
    """2**53 + 1 events at 2**53 a job are two jobs, though the two numbers
    divide to 1.0 in floats."""
    grid, _proxy = grid_with_factory()
    per_job = 2**53
    text = ok(grid, ["refdb", "request", "--dataset", "big", "--step", "CMKIN",
                     "--events", str(per_job + 1), "--per-job", str(per_job),
                     "--rb", "rb_test"])
    assert text.endswith("jobs=2")
    assert ok(grid, ["impala", "declare", "1"]).endswith("jobs=2")
    assert ok(grid, ["impala", "create", "1"]).endswith("jobs=2")
    assert "\tjobs=2\t" in ok(grid, ["refdb", "dump"])
    assert grid.refdb.get(1).split_events() == [per_job, 1]


def test_job_seeds_count_up_from_the_base():
    assert [job_seed_for(n) for n in (1, 2, 3)] == [2000, 2001, 2002]
    grid, proxy = grid_with_factory()
    for dataset in ("jpsi", "other"):  # seeds restart per assignment
        request = grid.refdb.create_request(dataset, "CMKIN", 500, 250, "rb_test")
        grid.production.declare(request.assignment_id)
        grid.production.create(request.assignment_id)
        grid.production.submit(request.assignment_id, proxy)
        assert [jd.job_seed for jd in submitted_descriptions(grid, request)] == [2000, 2001]


def test_request_validation():
    refdb = RefDb()
    with pytest.raises(ProductionError):
        refdb.create_request("jpsi", "DIGI", 100, 10, "rb_test")
    with pytest.raises(ProductionError):
        refdb.create_request("jpsi", "CMKIN", 0, 10, "rb_test")
    with pytest.raises(UnknownAssignment):
        refdb.get(99)


def test_simulation_requires_a_complete_generation_upstream():
    refdb = RefDb()
    with pytest.raises(MissingUpstream, match="no COMPLETE CMKIN request for dataset 'jpsi'"):
        refdb.create_request("jpsi", "CMSIM", 100, 10, "rb_test")
    gen = refdb.create_request("jpsi", "CMKIN", 100, 10, "rb_test")
    with pytest.raises(MissingUpstream):  # exists, but not COMPLETE yet
        refdb.create_request("jpsi", "CMSIM", 100, 10, "rb_test")
    gen.status = "COMPLETE"
    refdb.create_request("jpsi", "CMSIM", 100, 10, "rb_test")
    with pytest.raises(MissingUpstream):  # wrong dataset
        refdb.create_request("psi", "CMSIM", 100, 10, "rb_test")


def test_assignment_state_machine_is_strict():
    grid, proxy = grid_with_factory()
    request = grid.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_test")
    aid = request.assignment_id
    with pytest.raises(WrongState):
        grid.production.post_summary(aid)
    with pytest.raises(WrongState):
        grid.production.create(aid)
    with pytest.raises(WrongState):
        grid.production.submit(aid, proxy)
    grid.production.declare(aid)
    with pytest.raises(WrongState):
        grid.production.declare(aid)
    grid.production.create(aid)
    with pytest.raises(WrongState):
        grid.production.create(aid)
    grid.production.submit(aid, proxy)
    assert [jd.job_seed for jd in submitted_descriptions(grid, request)] == [2000, 2001]


def test_simulation_cannot_outnumber_its_inputs():
    grid, proxy = grid_with_factory()
    gen = grid.refdb.create_request("jpsi", "CMKIN", 250, 250, "rb_test")
    run_assignment(grid, proxy, gen.assignment_id)
    grid.production.post_summary(gen.assignment_id)
    sim = grid.refdb.create_request("jpsi", "CMSIM", 500, 250, "rb_test")
    grid.production.declare(sim.assignment_id)
    with pytest.raises(MissingUpstream):
        grid.production.create(sim.assignment_id)


def test_generated_descriptions_parse_with_factory_bookkeeping():
    grid, proxy = grid_with_factory()
    request = grid.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_test",
                                        default_se="se_beta")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    grid.production.submit(request.assignment_id, proxy)
    descriptions = submitted_descriptions(grid, request)
    assert len(descriptions) == 2
    jd = parse_jdl(description_text(descriptions[1]))
    assert jd.job_profile == "cmkin"
    assert jd.production_tag() == ("jpsi", 2)
    assert jd.job_seed == 2001 and jd.events == 250
    assert jd.extra_string("DefaultSE") == "se_beta"
    assert jd.input_sandbox == ("jpsi_2.cards",)
    assert not jd.input_data
    # the request's own values are one literal each, shared by its jobs
    first, second = (description.extras for description in descriptions)
    assert first["Dataset"] is second["Dataset"] and first["DefaultSE"] is second["DefaultSE"]
    assert first["JobIndex"] != second["JobIndex"]


def test_simulation_descriptions_name_their_input_tuples():
    grid, proxy = grid_with_factory()
    gen = grid.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_test")
    run_assignment(grid, proxy, gen.assignment_id)
    grid.production.post_summary(gen.assignment_id)
    sim = grid.refdb.create_request("jpsi", "CMSIM", 500, 250, "rb_test")
    grid.production.declare(sim.assignment_id)
    grid.production.create(sim.assignment_id)
    grid.production.submit(sim.assignment_id, proxy)
    jd = parse_jdl(description_text(submitted_descriptions(grid, sim)[0]))
    assert jd.input_data == ("lfn:jpsi_1.ntpl",)
    assert jd.replica_catalog == "rc_test"


#: the description files the factory used to write for a 2-job CMKIN
#: request with a default SE, then for the CMSIM request on its output
FACTORY_FILES = {
    "CMKIN": [
        '# factory job 1/2 of assignment 1\nExecutable = "cmkin";\nStdOutput = "std.out";\n'
        'StdError = "std.err";\nInputSandbox = {"jpsi_1.cards"};\n'
        'Requirements = Member("CMS", other.RunTimeEnvironment);\n'
        'VirtualOrganisation = "testvo";\nEvents = 250;\nJobSeed = 2000;\n'
        'Dataset = "jpsi";\nJobIndex = 1;\nDefaultSE = "se_beta";\n',
        '# factory job 2/2 of assignment 1\nExecutable = "cmkin";\nStdOutput = "std.out";\n'
        'StdError = "std.err";\nInputSandbox = {"jpsi_2.cards"};\n'
        'Requirements = Member("CMS", other.RunTimeEnvironment);\n'
        'VirtualOrganisation = "testvo";\nEvents = 250;\nJobSeed = 2001;\n'
        'Dataset = "jpsi";\nJobIndex = 2;\nDefaultSE = "se_beta";\n',
    ],
    "CMSIM": [
        '# factory job 1/2 of assignment 2\nExecutable = "cmsim";\nStdOutput = "std.out";\n'
        'StdError = "std.err";\nInputSandbox = {"jpsi_1.cards"};\n'
        'Requirements = Member("CMS", other.RunTimeEnvironment);\n'
        'InputData = {"lfn:jpsi_1.ntpl"};\nReplicaCatalog = "rc_test";\n'
        'VirtualOrganisation = "testvo";\nEvents = 250;\nJobSeed = 2000;\n'
        'Dataset = "jpsi";\nJobIndex = 1;\n',
        '# factory job 2/2 of assignment 2\nExecutable = "cmsim";\nStdOutput = "std.out";\n'
        'StdError = "std.err";\nInputSandbox = {"jpsi_2.cards"};\n'
        'Requirements = Member("CMS", other.RunTimeEnvironment);\n'
        'InputData = {"lfn:jpsi_2.ntpl"};\nReplicaCatalog = "rc_test";\n'
        'VirtualOrganisation = "testvo";\nEvents = 250;\nJobSeed = 2001;\n'
        'Dataset = "jpsi";\nJobIndex = 2;\n',
    ],
}


def test_built_descriptions_equal_the_files_the_factory_used_to_write():
    grid, proxy = grid_with_factory()
    gen = grid.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_test",
                                    default_se="se_beta")
    run_assignment(grid, proxy, gen.assignment_id)
    grid.production.post_summary(gen.assignment_id)
    sim = grid.refdb.create_request("jpsi", "CMSIM", 500, 250, "rb_test")
    grid.production.declare(sim.assignment_id)
    grid.production.create(sim.assignment_id)
    grid.production.submit(sim.assignment_id, proxy)
    built = {"CMKIN": submitted_descriptions(grid, gen),
             "CMSIM": submitted_descriptions(grid, sim)}
    for step, files in FACTORY_FILES.items():
        assert built[step] == [parse_jdl(text) for text in files]
        for jd in built[step]:
            assert parse_jdl(description_text(jd)) == jd


def test_a_factory_job_declares_the_vo_of_the_proxy_that_submits_it():
    """With [vo ivdgl] ahead of [vo datatag] in the shipped topology, a
    datatag proxy submits a request, and every job declares datatag: the
    order of the VOs plays no part."""
    head, *sections = re.split(r"(?m)^(?=\[)", pathlib.Path(default_topology_path()).read_text())
    datatag, ivdgl = (sections.index(next(s for s in sections if s.startswith(f"[vo {vo}]")))
                      for vo in ("datatag", "ivdgl"))
    sections[datatag], sections[ivdgl] = sections[ivdgl], sections[datatag]
    grid = Grid(parse_topology(head + "".join(sections), "<ivdgl first>"))
    proxy = grid.vo.create_proxy(OPERATOR, "datatag", 0, lifetime_s=1_000_000)
    request = grid.refdb.create_request("vo", "CMKIN", 8 * 250, 250, "rb_pisa")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    grid.production.submit(request.assignment_id, proxy)
    grid.kernel.run_to_completion()
    records = [grid.brokers["rb_pisa"].jobs[job_id] for job_id in request.scheduler_jobs]
    assert [record.description.virtual_organisation for record in records] == ["datatag"] * 8
    assert all(record.state == broker_mod.DONE_OK for record in records)
    assert grid.validate() == []


def test_a_simulation_job_reads_the_product_its_generator_registered():
    """With the cmkin profile writing `.root`, the generator registers
    jpsi_1.root and jpsi_2.root; the simulation request asks for those
    names, books them as its input files and completes."""
    text = pathlib.Path(default_topology_path()).read_text()
    grid = Grid(parse_topology(text + "\n[profile cmkin]\ndata_extension = root\n",
                               "<cmkin writes root>"))
    proxy = grid.vo.create_proxy(OPERATOR, "datatag", 0, lifetime_s=1_000_000)
    gen = grid.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_pisa")
    run_assignment(grid, proxy, gen.assignment_id)
    assert grid.production.post_summary(gen.assignment_id)["lfns"] == ["jpsi_1.root",
                                                                      "jpsi_2.root"]
    sim = grid.refdb.create_request("jpsi", "CMSIM", 500, 250, "rb_pisa")
    run_assignment(grid, proxy, sim.assignment_id)
    assert grid.production.post_summary(sim.assignment_id)["jobs_ok"] == 2
    assert sim.status == "COMPLETE"
    assert [jd.input_data for jd in submitted_descriptions(grid, sim)] == [
        ("lfn:jpsi_1.root",), ("lfn:jpsi_2.root",)]
    rows = grid.bossdb.dump(grid.bossdb.query(job_type="cmsim")).splitlines()[1:]
    assert [row.split("\t")[3] for row in rows] == ["jpsi_1.root", "jpsi_2.root"]


def test_submit_is_all_or_nothing_on_proxy_validity():
    grid, proxy = grid_with_factory()
    request = grid.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_test")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    grid.kernel.run_until(43200)  # the proxy dies of old age
    with pytest.raises(broker_mod.ProxyExpired):
        grid.production.submit(request.assignment_id, proxy)
    assert request.status == "CREATED"
    assert not request.scheduler_jobs and not grid.bossdb.records
    # so is a request to a broker the grid does not have
    proxy = grid.vo.create_proxy(proxy.user_dn, proxy.vo_name, grid.kernel.now_ms)
    stray = grid.refdb.create_request("psi", "CMKIN", 500, 250, "rb_nowhere")
    grid.production.declare(stray.assignment_id)
    grid.production.create(stray.assignment_id)
    with pytest.raises(ProductionError, match="unknown resource broker 'rb_nowhere'"):
        grid.production.submit(stray.assignment_id, proxy)
    assert stray.status == "CREATED"
    assert not stray.scheduler_jobs and not grid.bossdb.records


# -- bookkeeping database ----------------------------------------------


def test_events_done_never_rolls_back():
    emitted = []
    boss = BossDb(emit=lambda actor, action, **kv: emitted.append((actor, action, kv)))
    record = boss.open_record("j1", "cmkin", "jpsi", 250)
    boss.update_events_done(record.boss_id, 100)
    boss.update_events_done(record.boss_id, 90)
    boss.update_events_done(record.boss_id, 110)
    assert record.events_done == 110
    assert boss.violations == [(record.boss_id, 100, 90)]
    assert emitted == [("boss", "monotonicity-violation",
                        {"boss": record.boss_id, "have": 100, "got": 90})]
    with pytest.raises(UnknownBossId):
        boss.update_events_done(99, 1)


def test_query_filters_and_dump_layout():
    boss = BossDb()
    boss.open_record("j2", "cmkin", "jpsi", 250)
    boss.open_record("j1", "cmsim", "jpsi", 250, input_file="jpsi_1.ntpl")
    boss.open_record("j3", "cmkin", "psi", 100)
    assert [r.boss_id for r in boss.query()] == [1, 2, 3]
    assert [r.boss_id for r in boss.query(job_type="cmkin")] == [1, 3]
    assert [r.boss_id for r in boss.query(dataset="jpsi")] == [1, 2]
    assert boss.query(status="finished") == []
    dump = boss.dump().splitlines()
    assert dump[0] == ("boss_id\tstatus\texit_status\tinput_file\toutput_file"
                       "\tevents_declared\tevents_done")
    assert dump[1] == "1\tsubmitted\t-\t-\t-\t250\t0"
    assert dump[2] == "2\tsubmitted\t-\tjpsi_1.ntpl\t-\t250\t0"


def test_monitor_ticks_feed_the_record_only_from_connected_sites():
    grid, _proxy = grid_with_factory()
    record = grid.bossdb.open_record("j1", "cmkin", "jpsi", 250)
    grid.production.on_monitor_tick("j1", 50, outbound=False)
    assert record.status == "submitted" and record.events_done == 0
    # a job reports progress only once it runs
    job = SimpleNamespace(job_id="j1", matched_ce="ce_alpha")
    grid.production.on_job_transition(job, "SCHEDULED", broker_mod.RUNNING)
    grid.production.on_monitor_tick("j1", 50, outbound=True)
    assert record.status == "running" and record.events_done == 50
    grid.production.on_monitor_tick("unknown-job", 10, outbound=True)  # ignored


def test_transition_hook_maps_scheduler_states_to_boss_states():
    grid, _proxy = grid_with_factory()
    boss = grid.bossdb
    production = grid.production
    ok = boss.open_record("j1", "cmkin", "jpsi", 250)
    job = SimpleNamespace(job_id="j1", matched_ce="ce_alpha",
                          registered_lfns=["jpsi_1.ntpl"])
    production.on_job_transition(job, "SCHEDULED", broker_mod.RUNNING)
    assert ok.status == "running"
    production.on_job_transition(job, broker_mod.RUNNING, broker_mod.DONE_OK)
    assert (ok.status, ok.exit_status, ok.events_done, ok.output_file) == (
        "finished", 0, 250, "jpsi_1.ntpl")

    failed = boss.open_record("j2", "cmkin", "jpsi", 250)
    job2 = SimpleNamespace(job_id="j2", matched_ce="ce_alpha", registered_lfns=[])
    production.on_job_transition(job2, broker_mod.RUNNING, broker_mod.DONE_FAILED)
    assert (failed.status, failed.exit_status) == ("failed", 1)

    aborted = boss.open_record("j3", "cmkin", "jpsi", 250)
    job3 = SimpleNamespace(job_id="j3", matched_ce=None, registered_lfns=[])
    production.on_job_transition(job3, "WAITING", broker_mod.ABORTED)
    assert (aborted.status, aborted.exit_status) == ("failed", None)


def test_running_status_respects_site_isolation():
    grid, _proxy = grid_with_factory()
    record = grid.bossdb.open_record("j1", "cmkin", "jpsi", 250)
    grid.fabric.sites["alpha"].outbound = False
    job = SimpleNamespace(job_id="j1", matched_ce="ce_alpha", registered_lfns=[])
    grid.production.on_job_transition(job, "SCHEDULED", broker_mod.RUNNING)
    assert record.status == "submitted"  # nothing heard back yet


# -- end to end through the mini grid ---------------------------------


def test_generation_then_simulation_follow_their_data():
    grid, proxy = grid_with_factory()
    gen = grid.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_test")
    run_assignment(grid, proxy, gen.assignment_id)
    summary = grid.production.post_summary(gen.assignment_id)
    assert summary == {"jobs_ok": 2, "jobs_failed": 0,
                       "total_events_done": 500,
                       "lfns": ["jpsi_1.ntpl", "jpsi_2.ntpl"]}
    assert gen.status == "COMPLETE"
    ntpl_sites = {lfn: grid.datagrid.lookup(lfn)[0][0] for lfn in summary["lfns"]}
    assert set(ntpl_sites.values()) == {"se_alpha", "se_beta"}  # spread by load
    rb = grid.brokers["rb_test"]
    shared = {f.name: f.default for f in fields(broker_mod.JobRecord)}
    for index, job_id in enumerate(gen.scheduler_jobs, start=1):
        record = rb.jobs[job_id]
        # a generation job reads no input: its input books are the shared ()
        assert record.chosen_replicas is shared["chosen_replicas"] == ()
        assert record.staged_checksums is shared["staged_checksums"] == ()
        assert record.registered_lfns == [f"jpsi_{index}.ntpl"]
        assert [f.name for f in record.sandbox_out] == ["std.out", "std.err"]

    sim = grid.refdb.create_request("jpsi", "CMSIM", 500, 250, "rb_test")
    boss_ids = run_assignment(grid, proxy, sim.assignment_id)
    grid.production.post_summary(sim.assignment_id)
    assert sim.status == "COMPLETE"
    se_of_ce = {"ce_alpha": "se_alpha", "ce_beta": "se_beta"}
    for index, job_id in enumerate(sim.scheduler_jobs, start=1):
        record, lfn = rb.jobs[job_id], f"jpsi_{index}.ntpl"
        # each simulation job ran where its input tuple already lived
        assert se_of_ce[record.matched_ce] == ntpl_sites[lfn]
        assert record.chosen_replicas == {lfn: (ntpl_sites[lfn], lfn)}
        assert record.staged_checksums == {lfn: grid.datagrid.rc.meta(lfn)[1]}
        assert record.registered_lfns == [f"jpsi_{index}_{1999 + index}.fz"]
    for index, boss_id in enumerate(boss_ids, start=1):
        row = grid.bossdb.get(boss_id)
        assert row.status == "finished" and row.exit_status == 0
        assert row.input_file == f"jpsi_{index}.ntpl"
        assert row.output_file == f"jpsi_{index}_{1999 + index}.fz"
        assert row.events_done == 250


def test_a_factory_run_hashes_each_registered_product_once(monkeypatch):
    """A manifest row hashes its checksum only when read: the run reads each
    landed product's once, to store and register it, and a log's waits for
    `get_output`, which still lists its content checksum."""
    hashed, key_checksum = Counter(), fabric_mod._key_checksum

    def counted(key):
        hashed[key] += 1
        return key_checksum(key)

    monkeypatch.setattr(fabric_mod, "_key_checksum", counted)
    grid, proxy = grid_with_factory()
    gen = grid.refdb.create_request("jpsi", "CMKIN", 750, 250, "rb_test")
    run_assignment(grid, proxy, gen.assignment_id)
    lfns = grid.production.post_summary(gen.assignment_id)["lfns"]
    assert lfns == ["jpsi_1.ntpl", "jpsi_2.ntpl", "jpsi_3.ntpl"]
    keys = {lfn: "\x1f".join(("cmkin", "jpsi", lfn[5], "250", lfn)) for lfn in lfns}
    assert hashed == Counter(keys.values())
    for lfn, key in keys.items():
        assert grid.datagrid.rc.meta(lfn) == (12_800_000, key_checksum(key))

    rb = grid.brokers["rb_test"]
    for index, job_id in enumerate(gen.scheduler_jobs, start=1):
        marks = {name: f"{fabric_mod.content_checksum('cmkin', 'jpsi', index, 250, name):016x}"
                 for name in ("std.out", "std.err")}
        assert rb.get_output(job_id) == [("std.out", 1024 + 16 * 250, marks["std.out"]),
                                         ("std.err", 512, marks["std.err"])]


class DroppedCells(list):
    """Trace cells that keep nothing: `+=` leaves the list as it is."""

    def __iadd__(self, cells):
        return self


def test_a_finished_generation_job_leaves_at_most_ten_tracked_objects():
    """The books of a finished CMKIN job are few objects for the collector
    to walk: the tracked objects a 300-job request leaves beyond a 100-job
    one, with the trace dropped, number fewer than 11 per job."""
    def tracked(jobs: int) -> int:
        grid = load_topology(default_topology_path())
        grid.kernel._cells = DroppedCells()
        proxy = grid.vo.create_proxy(OPERATOR, "datatag", 0, lifetime_s=1_000_000)
        request = grid.refdb.create_request("bulk", "CMKIN", jobs * 250, 250, "rb_pisa")
        run_assignment(grid, proxy, request.assignment_id)
        assert grid.production.post_summary(request.assignment_id)["jobs_ok"] == jobs
        gc.collect()
        gc.collect()
        return len(gc.get_objects())

    tracked(100)  # first-use caches fill here, not between the two counts
    low = tracked(100)
    assert tracked(300) - low < 11 * 200


def test_declare_and_create_leave_nothing_per_job():
    """A created request holds its split, not its jobs: declare and create
    of a 1,100-job request leave fewer than 0.5 tracked objects a job."""
    def tracked() -> int:
        gc.collect()
        gc.collect()
        return len(gc.get_objects())

    grid = load_topology(default_topology_path())
    grid.kernel._cells = DroppedCells()
    request = grid.refdb.create_request("bulk", "CMKIN", 1100 * 250, 250, "rb_pisa")
    before = tracked()
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    assert tracked() - before < 0.5 * 1100


def test_summary_refuses_while_jobs_are_in_flight():
    grid, proxy = grid_with_factory()
    request = grid.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_test")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    grid.production.submit(request.assignment_id, proxy)
    grid.kernel.run_until(0)
    with pytest.raises(JobsStillRunning):
        grid.production.post_summary(request.assignment_id)


def test_failed_job_blocks_completion():
    grid, proxy = grid_with_factory()
    grid.fabric.ces["ce_alpha"].fail_next_execs = 1
    request = grid.refdb.create_request("jpsi", "CMKIN", 500, 250, "rb_test")
    run_assignment(grid, proxy, request.assignment_id)
    summary = grid.production.post_summary(request.assignment_id)
    assert summary["jobs_ok"] == 1 and summary["jobs_failed"] == 1
    assert request.status == "SUBMITTED"  # not COMPLETE
    assert "status=SUBMITTED" in grid.refdb.dump()
