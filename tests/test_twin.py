"""Real and twin grids agree on drawn workloads.

Each workload runs on the mini grid and on its twin (see `twin`), which
throws its kept ETT order, kept admissible sets, running terms, routes and
rendered ratios away before each use.  The workloads mix factory requests,
user jobs pinned or not, with explicit ranks and requirements on the
traversal time, inputs read from replicas, replications, link changes,
proxies that lapse while their jobs queue, and one republish.  A second
test adds jobs that leave their node without running, as a job whose input
copy is lost before it is staged does."""
import dataclasses
from fractions import Fraction

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from deskgrid.broker import RUNNING
from deskgrid.fabric import WorkloadProfile
from deskgrid.jdl import parse_jdl
from deskgrid.units import KB, MB

from conftest import make_mini
from twin import make_twin

ALICE = "/C=XX/CN=alice"
INPUT = "in.dat"
REQUIREMENTS = ('Member("CMS", other.RunTimeEnvironment)', "true",
                "other.EstimatedTraversalTime < 20", "other.EstimatedTraversalTime < 90")
RANKS = ("", "Rank = other.EstimatedTraversalTime;\n",
         "Rank = -other.EstimatedTraversalTime;\n", "Rank = other.CEId;\n")
LINKS = (None, (Fraction(20 * MB), Fraction(1, 10)), (Fraction(MB), Fraction(1, 2)))
BROKERS = ("rb_test", "rb_glue")


def request(grid, n, proxy, jobs, per_job, rb_id, se_id):
    created = grid.refdb.create_request(f"ds{n}", "CMKIN", jobs * per_job, per_job, rb_id,
                                        default_se=se_id)
    grid.production.declare(created.assignment_id)
    grid.production.create(created.assignment_id)
    grid.production.submit(created.assignment_id, proxy)


def job(grid, n, proxy, rb_id, pinned, requirement, rank, profile, events, reads, lifetime):
    if lifetime is not None:  # lapses while the job may still queue
        proxy = grid.vo.create_proxy(ALICE, "testvo", grid.kernel.now_ms, lifetime_s=lifetime)
    text = (f'Executable = "{profile}";\nRequirements = {REQUIREMENTS[requirement]};\n'
            f'VirtualOrganisation = "testvo";\nEvents = {events};\nJobSeed = {n + 1};\n'
            + RANKS[rank])
    if reads:
        text += f'InputData = {{"lfn:{INPUT}"}};\nReplicaCatalog = "rc_test";\n'
    grid.brokers[rb_id].submit(parse_jdl(text), proxy, pinned_ce=pinned)


def replicate(grid, n, proxy, se_id):
    grid.datagrid.replicate(INPUT, se_id)


def link(grid, n, proxy, params):
    if params is None:
        if frozenset(("site:alpha", "site:beta")) in grid.network._links:
            grid.network.remove_link("site:alpha", "site:beta")
    else:
        grid.network.add_link("site:alpha", "site:beta", *params)


def lost_input(grid, n, proxy, rb_id, events):
    """A job pinned to ce_alpha whose input copy on se_alpha goes when it is
    RUNNING, so it leaves its node without running, and at once a job whose
    match reads every element while the first one's sandbox is in flight."""
    name, store = f"lost{n}.dat", grid.datagrid.ses["se_alpha"]
    grid.datagrid.put(store, name, 10 * KB, n)
    text = (f'Executable = "cmkin";\nRequirements = true;\nVirtualOrganisation = "testvo";\n'
            f'Events = {events};\nJobSeed = {n + 1};\nInputData = {{"lfn:{name}"}};\n'
            'ReplicaCatalog = "rc_test";\n')
    lost = grid.brokers[rb_id].submit(parse_jdl(text), proxy, pinned_ce="ce_alpha")

    def lose(record, _old, new):
        if record.job_id == lost and new == RUNNING:
            store.remove(name)  # its catalogue entry stays

    grid.brokers[rb_id].transition_observers.append(lose)
    job(grid, n, proxy, rb_id, None, 1, 0, "cmkin", events, False, None)


# half the jobs too short for a monitor point, so their running term has no horizon
EVENTS = st.one_of(st.integers(1, 9), st.integers(10, 80))
STEPS = st.one_of(
    st.tuples(st.just(request), st.integers(1, 4), st.sampled_from((10, 50, 120)),
              st.sampled_from(BROKERS), st.sampled_from((None, "se_alpha", "se_beta"))),
    st.tuples(st.just(job), st.sampled_from(BROKERS),
              st.sampled_from((None, "ce_alpha", "ce_beta")),
              st.integers(0, len(REQUIREMENTS) - 1), st.integers(0, len(RANKS) - 1),
              st.sampled_from(("cmkin", "third")), EVENTS, st.booleans(),
              st.one_of(st.none(), st.integers(1, 60))),
    st.tuples(st.just(replicate), st.sampled_from(("se_alpha", "se_beta"))),
    st.tuples(st.just(link), st.sampled_from(LINKS)),
)
LOST = st.tuples(st.just(lost_input), st.sampled_from(BROKERS), EVENTS)
# ms since the previous step: often within a transfer or a short job
GAPS = st.one_of(st.integers(0, 400), st.integers(0, 3_000), st.integers(0, 40_000))


@st.composite
def workloads(draw, steps=STEPS):
    steps = draw(st.lists(st.tuples(GAPS, steps), min_size=1, max_size=10))
    return steps, draw(st.integers(0, len(steps)))


def books(steps, republish_at, twin: bool) -> tuple:
    """The workload's trace export and dumps on a fresh mini grid, or on its
    twin."""
    grid = make_twin(make_mini()) if twin else make_mini()
    grid.fabric.set_profile(WorkloadProfile("third", Fraction(1, 3), Fraction(MB)))
    proxy = grid.vo.create_proxy(ALICE, "testvo", 0, lifetime_s=1_000_000)
    store = grid.datagrid.ses["se_alpha"]
    grid.datagrid.put(store, INPUT, 20 * MB, 1)
    beta = grid.info.ces["ce_beta"]
    now_ms = 0
    for n, (gap, (action, *args)) in enumerate(steps):
        now_ms += gap
        grid.kernel.run_until(Fraction(now_ms, 1000))
        if n == republish_at:
            grid.info.publish_ce(dataclasses.replace(beta, schema_flavors=("GLUE",)))
        action(grid, n, proxy, *args)
    grid.kernel.run_to_completion()
    return (grid.kernel.export_trace(), grid.bossdb.dump(), grid.datagrid.rc.dump(),
            grid.refdb.dump())


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(workloads())
# a short job ends between requests, whose matches read the running
# term of its element: drawn examples hit this only by chance
@example(([(0, (request, 1, 10, "rb_test", None)),
           (0, (job, "rb_test", None, 0, 0, "cmkin", 2, False, None)),
           (223, (request, 1, 10, "rb_test", None)),
           (828, (request, 1, 10, "rb_test", None))], 0))
# the shrunk counterexamples to the other moves and forgettings of
# `tests/mutants.py` that drawn examples find only by chance: an element's
# report of a regrown running term, of a dispatch and of a start
@example(([(0, (request, 3, 10, "rb_glue", None))], 0))
@example(([(0, (request, 3, 10, "rb_test", None))], 0))
@example(([(0, (request, 1, 10, "rb_test", None)), (0, (request, 1, 50, "rb_test", None)),
           (0, (request, 1, 10, "rb_test", None)),
           (2551, (request, 1, 10, "rb_glue", None))], 2))
# a running move not lost to a queue move reported before it
@example(([(0, (request, 1, 10, "rb_test", None)), (0, (request, 1, 10, "rb_test", None)),
           (0, (request, 4, 10, "rb_test", None))], 3))
# the broker's kept sets and the network's routes, each forgotten when
# its inputs change
@example(([(0, (request, 1, 10, "rb_test", None)), (0, (request, 1, 10, "rb_test", None))], 1))
@example(([(0, (replicate, "se_beta")), (0, (link, LINKS[2])), (0, (replicate, "se_beta"))], 0))
def test_a_workload_runs_the_same_on_the_grid_and_on_its_twin(workload):
    steps, republish_at = workload
    assert books(steps, republish_at, twin=False) == books(steps, republish_at, twin=True)


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(workloads(st.one_of(STEPS, LOST)))
def test_a_job_that_leaves_its_node_without_running_runs_the_same_on_the_twin(workload):
    steps, republish_at = workload
    assert books(steps, republish_at, twin=False) == books(steps, republish_at, twin=True)
