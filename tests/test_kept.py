"""The brokers' kept admissible sets and the fabric's default-rank order.

A match re-reads only the elements whose ETT moved since the fabric last
read them, and ranks by default from the fabric's one order, kept to the
ids its broker's admissible set holds.  These tests redo matches from
scratch and compare, check the order against its entries, count ETT reads
on a wide testbed and across brokers, and reach each way a kept set is
built or dropped and the order moved or rescaled."""
import dataclasses
import pathlib
import random
import re
from collections import Counter
from fractions import Fraction
from functools import partial

from deskgrid import jdl
from deskgrid.broker import ABORTED, DONE_OK
from deskgrid.cli import dispatch
from deskgrid.fabric import ComputingElement, WorkloadProfile
from deskgrid.grid import Grid, default_topology_path, load_topology
from deskgrid.infosys import CERecord
from deskgrid.jdl import parse_jdl
from deskgrid.topology import parse_topology
from deskgrid.units import KB, fmt_quantity, fmt_ratio

from conftest import CMKIN_SMALL, OPERATOR, watch_matches

LUCA = "/O=grid/OU=datatag/CN=Luca Bianchi"

JOB_TEXT = (
    'Executable = "{profile}";\n'
    "Requirements = {requirement};\n"
    'VirtualOrganisation = "datatag";\n'
    "Events = {events};\nJobSeed = {seed};\n"
)
CMS = 'Member("CMS", other.RunTimeEnvironment)'


def rescanned(grid, rb, record) -> list:
    """The match of `record` redone from scratch, as (ce_id, rank value)
    in choice order: every element `rb` sees for the job's VO, filtered by
    pin, mapfile, close replicas and requirement, each ETT read afresh."""
    description, owner = record.description, record.owner
    rc, lfns = grid.datagrid.rc, description.input_lfns
    if not owner.valid_at(grid.kernel.now_ms) or (lfns and (
            description.replica_catalog != rc.catalog_id
            or not all(rc.known(lfn) for lfn in lfns))):
        return []
    holders = [{se_id for se_id, _path in rc.lookup(lfn)} for lfn in lfns]
    found = []
    for ce in grid.info.query(rb.flavor, description.virtual_organisation):
        if record.pinned_ce not in (None, ce.ce_id):
            continue
        if not grid.vo.maps(ce.site_id, owner.user_dn):
            continue
        if any(held.isdisjoint(ce.close_ses) for held in holders):
            continue
        n, d = grid.fabric.ces[ce.ce_id].ett()
        env = {"RunTimeEnvironment": ce.run_time_environment, "LRMSType": ce.lrms,
               "EstimatedTraversalTime": n / d, "CEId": ce.ce_id, "CloseSE": ce.close_ses}
        if jdl.requirement_satisfied(description.requirements, env):
            found.append((ce.ce_id, Fraction(n, d), env))
    if description.rank is None:
        return [(ce_id, -ett) for ce_id, ett, _env in sorted(found, key=lambda f: (f[1], f[0]))]
    values = [(ce_id, jdl.evaluate(description.rank, env)) for ce_id, _ett, env in found]

    def usable(value):
        return isinstance(value, (int, float)) and not isinstance(value, bool)

    ranked = sorted([cv for cv in values if usable(cv[1])], key=lambda cv: (-cv[1], cv[0]))
    return ranked + sorted((ce_id, None) for ce_id, value in values if not usable(value))


def test_the_kept_path_equals_a_full_rescan_at_every_match():
    """At every match of a randomized run on both EDG brokers, the choice,
    the candidates and the `matched` line's table equal a match redone from
    scratch, and the grid's books, kept entries included, are clean.  The
    run mixes production requests arriving over time; pinned bursts at 1/3
    and 7/100000 s per event that change busy elements' CPU units; jobs
    that read replicas, jobs whose requirement reads the ETT and jobs with
    an explicit rank; a user removed from the VO and four sites' mapfiles
    synced, one of them where his jobs queue and are refused at dispatch; an element
    republished without the EDG flavor and back; and jobs whose proxy
    lapses between submission and match."""
    grid = load_topology(default_topology_path())
    kernel = grid.kernel
    rng = random.Random(29)
    seen, problems = Counter(), []
    pisa, milano = grid.brokers["rb_pisa"], grid.brokers["rb_milano"]
    milano.brokering_delay_ms = 500  # so a proxy can lapse before the match

    def oracle(rb, record, result):
        expected = rescanned(grid, rb, record)
        chosen = expected[0][0] if expected else None
        if (result.chosen, result.candidates) != (chosen, expected):
            problems.append((record.job_id, result.chosen, result.candidates, expected))
        if chosen is not None:
            shown = next(e for e in reversed(kernel.trace) if e.action == "matched")
            table = "|".join(f"{ce_id}:{fmt_quantity(value)}" for ce_id, value in expected)
            if (shown.detail["job"], shown.detail["candidates"]) != (record.job_id, table):
                problems.append((record.job_id, shown.format(), table))
        description = record.description
        seen["match"] += 1
        seen["pinned"] += record.pinned_ce is not None
        seen["data"] += bool(description.input_lfns) and chosen is not None
        seen["lapsed"] += not record.owner.valid_at(kernel.now_ms)
        seen["rank"] += description.rank is not None
        seen["reads ETT"] += jdl.reads_attribute(description.requirements,
                                                 "EstimatedTraversalTime")
        seen["after sync"] += record.owner.user_dn == LUCA and kernel.now_ms > 700_000
        problems.extend(grid.validate())

    for rb in (pisa, milano):
        rb.match_observers.append(partial(oracle, rb))
    for name, per_event in (("third", Fraction(1, 3)), ("tiny", Fraction(7, 100_000))):
        grid.fabric.set_profile(WorkloadProfile(name, per_event, Fraction(KB)))
    operator = grid.vo.create_proxy(OPERATOR, "datatag", 0, lifetime_s=500_000)
    luca = grid.vo.create_proxy(LUCA, "datatag", 0, lifetime_s=500_000)
    visible = [ce.ce_id for ce in grid.info.query("EDG", "datatag")]
    seeds = iter(range(1, 1_000_000))

    def submit(rb, proxy, profile="cmkin", requirement=CMS, extra="", pinned=None):
        text = JOB_TEXT.format(profile=profile, requirement=requirement,
                               events=rng.randint(50, 300), seed=next(seeds))
        rb.submit(parse_jdl(text + extra), proxy, pinned_ce=pinned)

    def at(seconds, action, *args):
        kernel.schedule("user-command", partial(action, *args), 1000 * seconds)

    for n in range(3):
        per_job = rng.randint(150, 350)
        request = grid.refdb.create_request(f"kept{n}", "CMKIN",
                                            per_job * rng.randint(20, 40) - rng.randint(0, 9),
                                            per_job, (pisa, milano)[n % 2].rb_id)
        grid.production.declare(request.assignment_id)
        grid.production.create(request.assignment_id)
        at(rng.randint(0, 300), grid.production.submit, request.assignment_id, operator)

    def luca_submits():
        short_queue, ranked = rng.random() < 0.5, rng.random() < 0.4
        submit(rng.choice((pisa, milano)), luca,
               requirement=f"{CMS} && other.EstimatedTraversalTime < 30" if short_queue else CMS,
               extra="Rank = other.EstimatedTraversalTime;\n" if ranked else "")

    def burst():
        rb, ce_id = rng.choice((pisa, milano)), rng.choice(visible)
        name = rng.choice(("third", "tiny"))
        for _ in range(rng.randint(2, 3)):
            submit(rb, operator, profile=name, requirement="true", pinned=ce_id)

    def with_input(n):
        store = grid.datagrid.ses[min(grid.fabric.ces[rng.choice(visible)].record.close_ses)]
        name = f"kept_input_{n}.ntpl"
        store.store(name, 10 * KB, n)
        grid.datagrid.rc.register(name, store, name)
        submit(rng.choice((pisa, milano)), operator,
               extra=f'InputData = {{"lfn:{name}"}};\nReplicaCatalog = "rc_cnaf";\n')

    def lapsing():
        short = grid.vo.create_proxy(OPERATOR, "datatag", kernel.now_ms,
                                     lifetime_s=Fraction(3, 10))
        submit(milano, short)

    def luca_leaves(crowded):
        """His jobs queued on `crowded` are refused when a node frees there."""
        grid.vo.remove_member("datatag", LUCA)
        sites = sorted(grid.fabric.ces[ce_id].site.site_id for ce_id in visible)
        sites.remove(grid.fabric.ces[crowded].site.site_id)
        for site_id in [grid.fabric.ces[crowded].site.site_id, *rng.sample(sites, 3)]:
            code, text = dispatch(grid, ["vo", "sync", "--site", site_id])
            assert code == 0, text

    padova = grid.info.ces["ce_padova"]
    at(400, grid.info.publish_ce, dataclasses.replace(padova, schema_flavors=("GLUE",)))
    at(900, grid.info.publish_ce, padova)
    crowded = rng.choice(visible)
    for _ in range(grid.fabric.ces[crowded].record.wn_count + 3):
        at(690, submit, milano, luca, "cmkin", CMS, "", crowded)
    at(700, luca_leaves, crowded)
    for when in rng.sample(range(0, 1500), 40):
        at(when, luca_submits)
    for when in rng.sample(range(50, 800), 12):
        at(when, burst)
    for n, when in enumerate(rng.sample(range(200, 1200), 8)):
        at(when, with_input, n)
    for when in rng.sample(range(100, 1400), 6):
        at(when, lapsing)
    kernel.run_to_completion()

    assert problems == []
    assert seen["match"] > 150 and seen["lapsed"] == 6
    assert min(seen[k] for k in ("pinned", "data", "rank", "reads ETT", "after sync")) >= 5
    assert max(ce.cpu_den for ce in grid.fabric.ces.values()) == 300_000
    reasons = Counter(record.reason for _rb, record in grid.all_jobs())
    assert reasons["AuthorizationDenied(NotInMapfile)"] >= 1
    assert reasons["NoMatchingResources"] >= 6
    assert grid.validate() == []


def rebuilt_order(fabric) -> list:
    """The fabric's default-rank order rebuilt from its entries: one row
    per element, keyed over its D, sorted."""
    D = fabric.denominator
    return sorted((n * D // d, ce_id, f"{ce_id}:{fmt_ratio(-n, d)}")
                  for ce_id, (n, d) in fabric.entries.items())


def test_the_fabric_keeps_one_order_of_every_element():
    """At every match of a randomized bulk run on both EDG brokers, the
    fabric's one order equals its entries rebuilt over its D.  The run
    mixes production requests on either broker with pinned jobs at 1/3 and
    7/100000 s per event, which grow D while the order holds rows."""
    grid = load_topology(default_topology_path())
    fabric = grid.fabric
    rng = random.Random(41)
    edg = (grid.brokers["rb_pisa"], grid.brokers["rb_milano"])
    denominators, matches, problems = set(), [], []

    def check(record, _result):
        matches.append(record.job_id)
        denominators.add(fabric.denominator)
        if fabric.order != rebuilt_order(fabric):
            problems.append(grid.kernel.now_ms)

    for rb in edg:
        rb.match_observers.append(check)
    for name, per_event in (("third", Fraction(1, 3)), ("tiny", Fraction(7, 100_000))):
        grid.fabric.set_profile(WorkloadProfile(name, per_event, Fraction(KB)))
    operator = grid.vo.create_proxy(OPERATOR, "datatag", 0, lifetime_s=1_000_000)
    visible = [ce.ce_id for ce in grid.info.query("EDG", "datatag")]
    for n in range(4):
        per_job = rng.randint(100, 300)
        request = grid.refdb.create_request(f"order{n}", "CMKIN",
                                            per_job * rng.randint(20, 40) - rng.randint(0, 9),
                                            per_job, rng.choice(edg).rb_id)
        grid.production.declare(request.assignment_id)
        grid.production.create(request.assignment_id)
        grid.kernel.schedule("user-command", partial(grid.production.submit,
                                                     request.assignment_id, operator),
                             rng.randint(0, 300_000))
    for seed in range(1, 31):
        text = JOB_TEXT.format(profile=rng.choice(("third", "tiny")), requirement="true",
                               events=rng.randint(2, 9), seed=seed)
        grid.kernel.schedule("user-command", partial(
            rng.choice(edg).submit, parse_jdl(text), operator, rng.choice(visible)),
            rng.randint(0, 400_000))
    grid.kernel.run_to_completion()

    assert problems == [] and len(matches) > 100
    assert len(fabric.order) == len(fabric.ces) and len(denominators) >= 4
    assert grid.validate() == []


def suffixed(section: str, suffix: str) -> str:
    """A [site], [ce] or [se] section under a suffixed id, naming the
    suffixed site and storage elements."""
    lines = section.splitlines(keepends=True)
    out = [lines[0].rstrip().removesuffix("]") + suffix + "]\n"]
    for line in lines[1:]:
        key, eq, value = line.partition("=")
        if eq and key.strip() in ("site", "close_ses"):
            line = f"{key}= {' '.join(word + suffix for word in value.split())}\n"
        out.append(line)
    return "".join(out)


def widened(copies: int) -> str:
    """The shipped testbed with every site, element and storage element
    there `copies` times; the copies reach everything over the default
    WAN, and the VOs and brokers are the shipped ones."""
    text = pathlib.Path(default_topology_path()).read_text()
    sections = re.split(r"(?m)^(?=\[)", text)
    wide = [suffixed(section, f"_{n}") for n in range(1, copies) for section in sections
            if re.match(r"\[(site|ce|se) ", section)]
    return text + "\n" + "".join(wide)


def test_a_match_on_a_sixteen_fold_testbed_reads_few_elements(monkeypatch):
    """1,600 jobs thrown at one broker over 208 EDG-visible elements: a
    match re-reads only the elements that moved since the last, at most
    two a match on average, where a rescan would read all 208."""
    grid = Grid(parse_topology(widened(16), "<wide>"))
    assert len(grid.info.query("EDG", "datatag")) == 16 * 13
    reads, ett = Counter(), ComputingElement.ett

    def counted(ce, running=None):
        reads["ett"] += 1
        return ett(ce, running)

    monkeypatch.setattr(ComputingElement, "ett", counted)
    rb = grid.brokers["rb_pisa"]
    rb.match_observers.append(lambda _record, _result: reads.update(["match"]))
    proxy = grid.vo.create_proxy(OPERATOR, "datatag", 0, lifetime_s=1_000_000)
    request = grid.refdb.create_request("wide", "CMKIN", 1600 * 250, 250, "rb_pisa")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    grid.production.submit(request.assignment_id, proxy)
    grid.kernel.run_to_completion()

    assert reads["match"] == 1600
    assert reads["ett"] <= 2 * reads["match"]
    assert all(record.state == DONE_OK for _rb, record in grid.all_jobs())
    assert grid.validate() == []


def test_a_move_is_read_once_however_many_brokers_watch(monkeypatch):
    """One CMS job through rb_pisa, then one through rb_milano, both at
    t=0: the first match reads every element once, and the second reads
    only the element the first job moved, where a copy of the order per
    broker would read every element rb_milano sees."""
    grid = load_topology(default_topology_path())
    reads, per_match, ett = [], [], ComputingElement.ett

    def counted(ce, running=None):
        reads.append(ce.ce_id)
        return ett(ce, running)

    def seen(record, _result):
        per_match.append((record.matched_ce, list(reads)))
        reads.clear()

    monkeypatch.setattr(ComputingElement, "ett", counted)
    proxy = grid.vo.create_proxy(OPERATOR, "datatag", 0)
    text = JOB_TEXT.format(profile="cmkin", requirement=CMS, events=100, seed=1)
    for rb_id in ("rb_pisa", "rb_milano"):
        grid.brokers[rb_id].match_observers.append(seen)
        grid.brokers[rb_id].submit(parse_jdl(text), proxy)
    grid.kernel.run_until(0)
    (first, first_reads), (second, second_reads) = per_match
    assert second_reads == [first] and second is not None
    assert sorted(first_reads) == sorted(grid.fabric.ces)


def test_a_record_published_without_an_element_is_left_out_and_reported(mini, alice):
    """A record the index accepts for an id the fabric has no element for
    is left out of every kept set: the job runs on a real element, and
    `validate` names the record."""
    mini.info.publish_ce(CERecord("ce_ghost", "alpha", "PBS", ("EDG",), ("CMS",), 4, 3000,
                                  ("testvo",), ("se_alpha",)))
    job = mini.submit(CMKIN_SMALL, "rb_test")
    mini.kernel.run_to_completion()
    record = mini.brokers["rb_test"].jobs[job]
    assert (record.state, record.matched_ce) == (DONE_OK, "ce_alpha")
    assert mini.validate() == ["ce_ghost: published without an element"]


def test_matches_on_a_monitor_point_read_it_as_a_rescan_does(mini, alice):
    """ce_beta runs a 12.5 s job from 51 ms, with monitor points every
    2.5 s.  rb_test reads beta at 1 s, short of the point at 2551 ms.  Two
    matches fall on that instant: one queued before the job started, which
    must not see the point, and one queued after, which must.  Both re-read
    beta, as its horizon is due each time."""
    rb = mini.brokers["rb_test"]
    seen = []
    rb.match_observers.append(lambda record, result: seen.append(
        (record.job_id, result.candidates, rescanned(mini, rb, record))))
    running = mini.submit(CMKIN_SMALL, "rb_test", pinned_ce="ce_beta")
    rb.brokering_delay_ms = 2551
    before = mini.submit(CMKIN_SMALL, "rb_test")
    rb.brokering_delay_ms = 0
    mini.kernel.run_until(1)
    mini.submit(CMKIN_SMALL, "rb_test", pinned_ce="ce_alpha")
    mini.kernel.run_until(1)
    assert mini.fabric.ces["ce_beta"].running[running].next_point_ms() == 2551
    mini.kernel.schedule("user-command", partial(rb.submit, parse_jdl(CMKIN_SMALL), alice), 2551)
    mini.kernel.run_until(Fraction(2551, 1000))
    assert [job_id for job_id, _got, _want in seen] == ["j1", "j3", before, "j4"]
    assert all(got == want for _job_id, got, want in seen)
    assert dict(seen[2][1])["ce_beta"] == Fraction(-25, 2)
    assert dict(seen[3][1])["ce_beta"] == -10


# -- building and dropping a kept set; moving and rescaling the order ----

def with_requirement(requirement: str) -> str:
    return CMKIN_SMALL.replace('Member("CMS", other.RunTimeEnvironment)', requirement)


def test_a_pair_whose_denominator_d_lacks_rescales_the_kept_order(mini, alice):
    """An idle element's ETT pair is over 1000 * cpu_mhz * wn_count, 2000
    on either.  A CMKIN job (1/2 s per event) on ce_alpha doubles alpha's
    denominator and a job of 1/7 s per event there multiplies it by seven:
    the next match reads the broker's order rescaled to a D of 28000."""
    matches = watch_matches(mini)
    mini.fabric.set_profile(WorkloadProfile("odd", Fraction(1, 7), Fraction(KB)))
    first = mini.submit(CMKIN_SMALL, "rb_test")
    mini.kernel.run_until(0)
    assert matches[first].denominator == 2000
    mini.submit(JOB_TEXT.format(profile="odd", requirement="true", events=7, seed=1)
                .replace("datatag", "testvo"), "rb_test", pinned_ce="ce_alpha")
    second = mini.submit(CMKIN_SMALL, "rb_test")
    mini.kernel.run_until(0)
    assert matches[second].denominator == 28000
    assert matches[second].candidates == [("ce_beta", 0), ("ce_alpha", -13)]
    assert mini.validate() == []


def test_a_grown_denominator_rescales_an_order_without_the_element_that_moved(mini, alice):
    """bob's kept set, pinned to ce_beta, admits beta at 12.5 s behind his
    own job.  A job of 1/7 s per event on ce_alpha grows D sevenfold when
    rb_test reads alpha at bob's next match; the order is rescaled, and
    bob's set, which lacks alpha, still reads beta at 12.5 s."""
    rb = mini.brokers["rb_test"]
    seen = []
    rb.match_observers.append(lambda record, result: seen.append(
        (record.owner.user_dn, result.denominator, result.candidates,
         rescanned(mini, rb, record))))
    mini.fabric.set_profile(WorkloadProfile("odd", Fraction(1, 7), Fraction(KB)))
    bob = mini.vo.create_proxy("/C=XX/CN=bob", "testvo", 0)
    rb.submit(parse_jdl(CMKIN_SMALL), bob, pinned_ce="ce_beta")
    mini.kernel.run_until(0)
    mini.submit(JOB_TEXT.format(profile="odd", requirement="true", events=3, seed=1)
                .replace("datatag", "testvo"), "rb_test", pinned_ce="ce_alpha")
    mini.kernel.run_until(1)
    rb.submit(parse_jdl(CMKIN_SMALL), bob, pinned_ce="ce_beta")
    mini.kernel.run_until(1)
    assert [(owner, d) for owner, d, _got, _want in seen] == [
        ("/C=XX/CN=bob", 2000), ("/C=XX/CN=alice", 4000), ("/C=XX/CN=bob", 28000)]
    assert seen[2][2] == [("ce_beta", Fraction(-25, 2))]
    assert all(got == want for _owner, _d, got, want in seen)
    assert len(rb._kept) == 2 and mini.validate() == []


def test_two_requirements_on_the_traversal_time_keep_a_set_each(mini, alice):
    """alice's jobs under `< 5` and `< 100000` are kept apart, and each
    match tests its own requirement on every element of its set."""
    rb = mini.brokers["rb_test"]
    seen = []
    rb.match_observers.append(lambda record, result: seen.append(
        (result.candidates, rescanned(mini, rb, record))))
    for bound in (5, 100000, 5, 100000, 5):
        mini.submit(with_requirement(f"other.EstimatedTraversalTime < {bound}"), "rb_test")
    mini.kernel.run_until(0)
    assert [len(got) for got, _want in seen] == [2, 2, 0, 2, 0]
    assert all(got == want for got, want in seen)
    assert sorted(reads_ett for reads_ett, _order in rb._kept.values()) == [True, True]
    assert len(rb._kept) == 2


def test_a_requirement_on_a_list_literal_admits_its_members(mini, alice):
    """`Member(other.CEId, {"ce_alpha"})` keeps ce_alpha alone, as a rescan
    does, although beta is idle and alpha busy."""
    rb = mini.brokers["rb_test"]
    seen = []
    rb.match_observers.append(lambda record, result: seen.append(
        (result.candidates, rescanned(mini, rb, record))))
    for _ in range(2):
        mini.submit(with_requirement('Member(other.CEId, {"ce_alpha"})'), "rb_test")
    mini.kernel.run_until(0)
    assert all(got == want for got, want in seen)
    assert [got for got, _want in seen] == [[("ce_alpha", 0)], [("ce_alpha", Fraction(-25, 2))]]


def test_a_vo_sync_drops_the_kept_sets(mini):
    """bob's first match keeps both elements; he leaves testvo and beta's
    mapfile is synced, so his next match admits alpha only."""
    matches = watch_matches(mini)
    bob = mini.vo.create_proxy("/C=XX/CN=bob", "testvo", 0)
    rb = mini.brokers["rb_test"]
    first = rb.submit(parse_jdl(CMKIN_SMALL), bob)
    mini.kernel.run_until(0)
    assert [ce_id for ce_id, _v in matches[first].candidates] == ["ce_alpha", "ce_beta"]
    mini.vo.remove_member("testvo", "/C=XX/CN=bob")
    assert dispatch(mini, ["vo", "sync", "--site", "beta"])[0] == 0
    second = rb.submit(parse_jdl(CMKIN_SMALL), bob)
    mini.kernel.run_until(0)
    assert [ce_id for ce_id, _v in matches[second].candidates] == ["ce_alpha"]


def test_a_publish_drops_the_kept_sets(mini, alice):
    """ce_beta republished without the EDG flavor leaves rb_test's next
    match, and comes back with the next publish."""
    matches = watch_matches(mini)
    beta = mini.info.ces["ce_beta"]
    jobs = [mini.submit(CMKIN_SMALL, "rb_test")]
    mini.kernel.run_until(0)
    mini.info.publish_ce(dataclasses.replace(beta, schema_flavors=("GLUE",)))
    jobs.append(mini.submit(CMKIN_SMALL, "rb_test"))
    mini.kernel.run_until(0)
    mini.info.publish_ce(beta)
    jobs.append(mini.submit(CMKIN_SMALL, "rb_test"))
    mini.kernel.run_until(0)
    assert [[ce_id for ce_id, _v in matches[job].candidates] for job in jobs] == [
        ["ce_alpha", "ce_beta"], ["ce_alpha"], ["ce_beta", "ce_alpha"]]


def test_a_proxy_lapsed_by_its_match_finds_nothing_in_a_kept_set(mini, alice):
    """The kept set is the owner's whatever the instant: a proxy that
    lapses between submission and match admits nothing, and the next job
    under a valid proxy reads the same kept set."""
    matches = watch_matches(mini)
    rb = mini.brokers["rb_test"]
    rb.brokering_delay_ms = 1000
    first = rb.submit(parse_jdl(CMKIN_SMALL), alice)
    short = mini.vo.create_proxy("/C=XX/CN=alice", "testvo", 0, lifetime_s=1)
    lapsed = rb.submit(parse_jdl(CMKIN_SMALL), short)
    later = rb.submit(parse_jdl(CMKIN_SMALL), alice)
    mini.kernel.run_until(1)
    assert matches[lapsed].candidates == [] and matches[lapsed].chosen is None
    assert (rb.jobs[lapsed].state, rb.jobs[lapsed].reason) == (ABORTED, "NoMatchingResources")
    assert [ce_id for ce_id, _v in matches[first].candidates] == ["ce_alpha", "ce_beta"]
    assert matches[later].candidates == [("ce_beta", 0), ("ce_alpha", Fraction(-25, 2))]
    assert len(rb._kept) == 1


def test_validate_reports_a_kept_entry_an_element_did_not_report(mini, alice):
    """Both elements stop reporting their moves to the fabric; a job that
    rb_glue places on ce_beta then moves beta's ETT unseen, until the
    elements report to the fabric again and beta moves."""
    mini.submit(CMKIN_SMALL, "rb_test")
    mini.kernel.run_until(0)
    assert mini.validate() == []
    for ce in mini.fabric.ces.values():
        ce.moved = {}
    mini.submit(CMKIN_SMALL, "rb_glue")
    mini.kernel.run_until(0)
    assert mini.validate() == ["ce_beta: kept ETT drifted"]
    for ce in mini.fabric.ces.values():
        ce.moved = mini.fabric.moved
    mini.kernel.run_to_completion()
    assert mini.validate() == []
