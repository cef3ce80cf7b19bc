"""Acceptance checks for the testbed simulator, one test per criterion.

Run `pytest tests/test_acceptance.py -v` to get a pass/fail line for each
of the ten claims the package stands on, and for the paper's own claim,
checked as an ablation of the US elements' EDG flavor.  Criteria that
share an expensive run (the generation/simulation pipeline, the 200-job
bulk run) share a module-scoped fixture instead of repeating it.
"""
import hashlib
import importlib.resources
import pathlib
import random
import re
import time
from types import SimpleNamespace

import pytest

from deskgrid import jdl
from deskgrid.broker import ABORTED, DONE_OK
from deskgrid.cli import dispatch
from deskgrid.grid import Grid, default_topology_path, load_topology
from deskgrid.topology import parse_topology
from deskgrid.vomgmt import NotAVoMember

from jdl_reference import description_text, gen_env, gen_expr, model_eval, values_agree

MARIA = "/O=grid/OU=datatag/CN=Maria Rossi"
FACTORY = "/O=grid/OU=datatag/CN=factory operator"

CONDOR_CES = {"ce_boston", "ce_milwaukee", "ce_pasadena", "ce_argonne"}


def fresh_grid() -> Grid:
    return load_topology(default_topology_path())


def data_path(*parts) -> str:
    return str(importlib.resources.files("deskgrid").joinpath("data", *parts))


def cmkin_text(events: int, seed: int, vo: str = "datatag") -> str:
    return (
        'Executable = "cmkin";\n'
        'Requirements = Member("CMS", other.RunTimeEnvironment);\n'
        f'VirtualOrganisation = "{vo}";\n'
        f"Events = {events};\nJobSeed = {seed};\n"
    )


# -- shared expensive runs ---------------------------------------------


@pytest.fixture(scope="module")
def pipeline():
    """CMKIN(2000 events, 250/job) then CMSIM over the same dataset."""
    grid = fresh_grid()
    proxy = grid.proxy_init(FACTORY, "datatag")
    gen = grid.refdb.create_request("jpsi", "CMKIN", 2000, 250, "rb_pisa")
    grid.production.declare(gen.assignment_id)
    grid.production.create(gen.assignment_id)
    grid.production.submit(gen.assignment_id, proxy)
    grid.kernel.run_to_completion()
    gen_summary = grid.production.post_summary(gen.assignment_id)
    sim = grid.refdb.create_request("jpsi", "CMSIM", 2000, 250, "rb_pisa")
    grid.production.declare(sim.assignment_id)
    grid.production.create(sim.assignment_id)
    grid.production.submit(sim.assignment_id, grid.proxy_init(FACTORY, "datatag"))
    grid.kernel.run_to_completion()
    sim_summary = grid.production.post_summary(sim.assignment_id)
    return SimpleNamespace(grid=grid, gen=gen, sim=sim,
                           gen_summary=gen_summary, sim_summary=sim_summary)


@pytest.fixture(scope="module")
def bulk():
    """200 generation jobs over the whole testbed, wall clock measured."""
    grid = fresh_grid()
    seen_candidates = []
    for rb in grid.brokers.values():
        rb.match_observers.append(
            lambda record, result: seen_candidates.append(
                [ce_id for ce_id, _v in result.candidates]))
    proxy = grid.proxy_init(FACTORY, "datatag")
    request = grid.refdb.create_request("ptmin50", "CMKIN", 50000, 250, "rb_pisa")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    started = time.monotonic()
    grid.production.submit(request.assignment_id, proxy)
    grid.kernel.run_to_completion()
    wall_s = time.monotonic() - started
    return SimpleNamespace(grid=grid, request=request, wall_s=wall_s,
                           candidates=seen_candidates)


# -- the ten criteria --------------------------------------------------


def test_criterion_01_visibility_counts(bulk):
    grid = fresh_grid()
    edg = grid.info.query("EDG", "datatag")
    glue = grid.info.query("GLUE", "datatag")
    assert len(edg) == 13
    assert sorted(ce.ce_id for ce in glue) == [
        "ce_gainesville", "ce_milano", "ce_padova"]
    # over the 200-job run, Condor pools never entered any match
    assert len(bulk.candidates) == 200
    sightings = [ce for row in bulk.candidates for ce in row if ce in CONDOR_CES]
    assert sightings == []


def test_criterion_02_default_rank_is_argmin_ett():
    grid = fresh_grid()
    rb = grid.brokers["rb_pisa"]
    info = grid.info
    matches = []
    violations = []

    def oracle(record, result):
        if result.chosen is None or record.description.rank is not None:
            return
        rescanned = [(info.estimated_traversal_time(ce_id), ce_id)
                     for ce_id, _value in result.candidates]
        best = min(rescanned)[1]
        ranked = sorted(result.candidates, key=lambda cv: (-cv[1], cv[0]))
        if best != result.chosen or ranked != result.candidates:
            violations.append((record.job_id, best, result.chosen))
        matches.append(record.job_id)

    rb.match_observers.append(oracle)
    proxy = grid.vo.create_proxy(MARIA, "datatag", grid.kernel.now_ms,
                                 lifetime_s=200_000)
    # a fixed derivation, so these 1,000 arrivals never change (pinned below)
    rng = random.Random(int.from_bytes(hashlib.blake2b(
        b"2:acceptance-randomized-arrivals", digest_size=8).digest(), "big"))
    arrivals = sorted(rng.randrange(0, 20_000_000) for _ in range(1000))
    assert arrivals[:3] == [3704, 13715, 30919]
    for n, at in enumerate(arrivals):
        text = cmkin_text(rng.randrange(10, 400), seed=n + 1)
        grid.kernel.schedule("user-command",
                             lambda t=text: rb.submit(jdl.parse_jdl(t), proxy), at)
    grid.kernel.run_to_completion()
    assert len(matches) >= 1000
    assert violations == []


def test_criterion_03_simulation_follows_its_data(pipeline):
    grid, sim = pipeline.grid, pipeline.sim
    rb = grid.brokers["rb_pisa"]
    assert len(sim.scheduler_jobs) == 8
    for index, job_id in enumerate(sim.scheduler_jobs, start=1):
        record = rb.jobs[job_id]
        assert record.state == DONE_OK
        lfn = f"jpsi_{index}.ntpl"
        se_id, _path = record.chosen_replicas[lfn]
        ce = grid.info.ces[record.matched_ce]
        assert se_id in ce.close_ses                      # ran next to its input
        assert se_id in {s for s, _p in grid.datagrid.lookup(lfn)}
        _size, catalogue_mark = grid.datagrid.rc.meta(lfn)
        assert record.staged_checksums[lfn] == catalogue_mark


def test_criterion_04_identical_results_at_every_site():
    grid = fresh_grid()
    grid.proxy_init(MARIA, "datatag")
    text = importlib.resources.files("deskgrid").joinpath(
        "data", "jdl", "atlas_100.jdl").read_text()
    edg_ces = sorted(ce.ce_id for ce in grid.info.query("EDG", "datatag"))
    jobs = [grid.submit(text, "rb_pisa", pinned_ce=ce_id) for ce_id in edg_ces]
    grid.kernel.run_to_completion()
    rb = grid.brokers["rb_pisa"]
    manifests = []
    for job_id in jobs:
        assert rb.jobs[job_id].state == DONE_OK
        manifests.append(rb.get_output(job_id))
    assert len(manifests) == 13
    assert all(m == manifests[0] for m in manifests[1:])


def test_criterion_05_closed_form_runtimes():
    grid = fresh_grid()
    grid.proxy_init(MARIA, "datatag")
    plan = [
        ("atlsim", 100, "ce_bologna", 15_000_000),   # 1000 MHz
        ("cmkin", 250, "ce_bologna", 125_000),
        ("cmsim", 250, "ce_geneva", 43_750_000),     # 2000 MHz
    ]
    jobs = {}
    for profile, events, ce_id, _expect in plan:
        text = (f'Executable = "{profile}";\nRequirements = true;\n'
                'VirtualOrganisation = "datatag";\n'
                f"Events = {events};\nJobSeed = 1;\n")
        jobs[profile] = (grid.submit(text, "rb_pisa", pinned_ce=ce_id), ce_id)
    grid.kernel.run_to_completion()
    for profile, _events, ce_id, expect_ms in plan:
        job_id, _ce = jobs[profile]
        marks = {e.action: e.time_ms for e in grid.kernel.trace
                 if e.actor == ce_id and e.detail.get("job") == job_id
                 and e.action in ("exec-start", "exec-complete")}
        assert abs(marks["exec-complete"] - marks["exec-start"] - expect_ms) <= 1


def test_criterion_06_pipeline_bookkeeping(pipeline):
    grid = pipeline.grid
    rows = grid.bossdb.query()
    assert len(rows) == 16
    assert all(r.status == "finished" and r.exit_status == 0 for r in rows)
    for row in rows:
        n = int(row.scheduler_job_id[1:])  # j1..j8 cmkin, j9..j16 cmsim
        index = (n - 1) % 8 + 1
        if row.job_type == "cmkin":
            assert row.input_file == "-"
            assert row.output_file == f"jpsi_{index}.ntpl"
        else:
            assert row.input_file == f"jpsi_{index}.ntpl"
            assert row.output_file == f"jpsi_{index}_{1999 + index}.fz"
        assert row.events_done == 250
    assert pipeline.gen.status == "COMPLETE"
    assert len(pipeline.gen_summary["lfns"]) == 8
    assert pipeline.sim.status == "COMPLETE"


def test_criterion_07_same_seed_same_story():
    scenario = data_path("scenarios", "production.scn")
    exports = []
    for _run in range(2):
        grid = fresh_grid()
        code, _text = dispatch(grid, ["exec", scenario])
        assert code == 0
        exports.append((grid.kernel.export_trace(), grid.bossdb.dump()))
    assert exports[0][0] == exports[1][0]
    assert exports[0][1] == exports[1][1]


def test_criterion_08_authorization_refusals():
    grid = fresh_grid()
    with pytest.raises(NotAVoMember):
        grid.vo.create_proxy("/O=grid/CN=stranger", "datatag", grid.kernel.now_ms)

    # three 20 s jobs fill bologna; the victim joins the queue 1 s before
    # its proxy expires and waits ~10 s for a node
    blocker_proxy = grid.proxy_init(MARIA, "datatag")
    rb = grid.brokers["rb_pisa"]
    for n in range(3):
        rb.submit(jdl.parse_jdl(cmkin_text(40, seed=n + 1)), blocker_proxy,
                  pinned_ce="ce_bologna")
    victim_proxy = grid.vo.create_proxy(MARIA, "datatag", grid.kernel.now_ms,
                                        lifetime_s=11)
    grid.kernel.run_until(10)
    victim = rb.submit(jdl.parse_jdl(cmkin_text(40, seed=9)), victim_proxy,
                       pinned_ce="ce_bologna")
    grid.kernel.run_until(10)
    assert rb.jobs[victim].state == "SCHEDULED"  # admitted, queued, waiting
    grid.kernel.run_to_completion()
    record = rb.jobs[victim]
    assert record.state == ABORTED
    assert record.reason == "AuthorizationDenied(ProxyExpired)"
    waited_ms = record.timestamps[ABORTED] - record.timestamps["SCHEDULED"]
    assert 9_000 <= waited_ms <= 12_000


def test_criterion_09_two_hundred_jobs_span_both_regions(bulk):
    grid, request = bulk.grid, bulk.request
    rb = grid.brokers["rb_pisa"]
    assert len(request.scheduler_jobs) == 200
    regions = set()
    for job_id in request.scheduler_jobs:
        record = rb.jobs[job_id]
        assert record.state == DONE_OK
        site_id = grid.info.ces[record.matched_ce].site_id
        regions.add(grid.fabric.sites[site_id].region)
    assert regions == {"EU", "US"}
    assert bulk.wall_s < 10.0


def without_edg_in_the_us(text: str) -> str:
    """The topology `text` with EDG dropped from every US element's flavors;
    an element left with none publishes GLOBUS_ONLY."""
    sections = re.split(r"(?m)^(?=\[)", text)
    us_sites = {re.match(r"\[site (\S+)\]", section).group(1) for section in sections
                if section.startswith("[site ") and re.search(r"(?m)^region = US$", section)}

    def ablated(section: str) -> str:
        site = re.search(r"(?m)^site = (\S+)$", section)
        if not section.startswith("[ce ") or site.group(1) not in us_sites:
            return section
        flavors = re.search(r"(?m)^flavors = (.*)$", section)
        kept = [f for f in flavors.group(1).split() if f != "EDG"] or ["GLOBUS_ONLY"]
        return section[:flavors.start(1)] + " ".join(kept) + section[flavors.end(1):]

    return "".join(ablated(section) for section in sections)


def jobs_by_region_and_site(topology_text: str) -> dict:
    """`bulk200.scn` on the topology: how many jobs ran at each site, by region."""
    grid = Grid(parse_topology(topology_text, "<ablation>"))
    code, text = dispatch(grid, ["exec", data_path("scenarios", "bulk200.scn")])
    assert code == 0, text
    grid.kernel.run_to_completion()
    assert grid.validate() == []
    table = {}
    for _rb, record in grid.all_jobs():
        assert record.state == DONE_OK
        site = grid.fabric.ces[record.matched_ce].site
        sites = table.setdefault(site.region, {})
        sites[site.site_id] = sites.get(site.site_id, 0) + 1
    return table


def test_the_us_runs_edg_jobs_only_through_the_edg_flavor():
    """The paper's claim as an ablation: jobs ran indifferently on US and
    European resources because US elements publish the EDG flavor.  Without
    it, the same 200 jobs of `rb_milano`, an EDG broker, all run in Europe."""
    shipped = pathlib.Path(default_topology_path()).read_text()
    interoperable = jobs_by_region_and_site(shipped)
    assert interoperable == {
        "US": {"batavia": 34, "bloomington": 9, "brookhaven": 13, "gainesville": 13,
               "sandiego": 18},
        "EU": {"bologna": 13, "bristol": 9, "geneva": 34, "karlsruhe": 18, "lisbon": 7,
               "milano": 12, "padova": 13, "valencia": 7}}
    assert [sum(interoperable[region].values()) for region in ("US", "EU")] == [87, 113]
    ablated = without_edg_in_the_us(shipped)
    assert re.findall(r"(?m)^flavors = .*$", ablated).count("flavors = GLOBUS_ONLY") == 8
    assert "flavors = GLUE\n" in ablated  # ce_gainesville keeps its second flavor
    assert jobs_by_region_and_site(ablated) == {
        "EU": {"bologna": 23, "bristol": 16, "geneva": 61, "karlsruhe": 32, "lisbon": 12,
               "milano": 21, "padova": 23, "valencia": 12}}


def test_criterion_10_description_language_suite():
    fixtures = ("atlas_100.jdl", "cms_gen_small.jdl", "data_driven.jdl",
                "awkward.jdl", "rank_idle.jdl", "minimal.jdl")
    for name in fixtures:
        text = importlib.resources.files("deskgrid").joinpath(
            "data", "jdl", name).read_text()
        once = description_text(jdl.parse_jdl(text))
        assert description_text(jdl.parse_jdl(once)) == once

    agreed = 0
    for case in range(10_000):
        rng = random.Random(case)
        expr = gen_expr(rng)
        env = gen_env(rng)
        if values_agree(jdl.evaluate(expr, env), model_eval(expr, env)):
            agreed += 1
    assert agreed == 10_000
