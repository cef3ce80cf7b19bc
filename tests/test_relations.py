"""Relations between runs that hold for any input: neither the order in
which a topology lists its sections, nor how a run is stepped, nor when it
starts changes what it does."""
import importlib.resources
import pathlib
import random
import re
import shutil
from fractions import Fraction

import pytest

from deskgrid.cli import dispatch
from deskgrid.grid import Grid, default_topology_path, load_topology
from deskgrid.topology import parse_topology

from conftest import staggered_bulk
from test_golden import GOLDEN, _sha


def books(grid) -> tuple:
    return grid.kernel.export_trace(), grid.bossdb.dump(), grid.datagrid.rc.dump()


def stepped_bulk(step_ms=None) -> tuple:
    """The 200-job `staggered_bulk` run drained by `run_to_completion`, or
    by `run_until` in steps of `step_ms`."""
    grid = load_topology(default_topology_path())
    staggered_bulk(grid)
    kernel = grid.kernel
    if step_ms is None:
        kernel.run_to_completion()
    else:
        while kernel.pending_count():
            kernel.run_until(Fraction(kernel.now_ms + step_ms, 1000))
    assert grid.validate() == []
    return books(grid)


@pytest.fixture(scope="module")
def whole() -> tuple:
    return stepped_bulk()


@pytest.mark.parametrize("step_ms", [1, 7000])
def test_run_until_in_any_steps_gives_what_run_to_completion_gives(step_ms, whole):
    """Steps of 1 ms land on every monitor point and on every instant a
    later request is matched while earlier jobs run, where the brokers'
    kept horizons fall due; steps of 7 s land between them."""
    assert whole[0].count("\tmatched\t") == 200
    assert stepped_bulk(step_ms) == whole


def shuffled_sections(seed: int) -> str:
    """The shipped topology with its sections, each with the comments that
    follow it, in a seeded random order; the leading comment stays first."""
    head, *sections = re.split(r"(?m)^(?=\[)", pathlib.Path(default_topology_path()).read_text())
    order = list(sections)
    random.Random(seed).shuffle(order)
    assert order != sections
    return head + "".join(order)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_the_order_of_the_topologys_sections_changes_no_digest(name, seed):
    grid = Grid(parse_topology(shuffled_sections(seed), f"worldgrid-shuffled-{seed}"))
    path = importlib.resources.files("deskgrid").joinpath("data", "scenarios", name)
    code, text = dispatch(grid, ["exec", str(path)])
    assert code == 0, text
    grid.kernel.run_to_completion()
    assert (_sha(grid.kernel.export_trace()), _sha(grid.bossdb.dump()),
            _sha(grid.datagrid.rc.dump())) == GOLDEN[name]
    # a factory job declares its proxy's VO, whichever [vo] section is first
    factory_vos = {grid.brokers[request.rb_id].jobs[job_id].description.virtual_organisation
                   for request in grid.refdb.requests.values()
                   for job_id in request.scheduler_jobs}
    assert factory_vos == (set() if name == "validation.scn" else {"datatag"})


def shifted_scenario(text: str, delta_s: int) -> str:
    """The scenario `text` with every `at` time and `run --until` argument
    `delta_s` seconds later."""
    later = lambda m: f"{m.group(1)}{int(m.group(2)) + delta_s}"
    text, ats = re.subn(r"(?m)^(at )(\d+)", later, text)
    assert ats
    return re.sub(r"(--until )(\d+)", later, text)


def scenario_run(path) -> tuple:
    """(exit code, grid) of `exec path` on the shipped testbed, drained."""
    grid = load_topology(default_topology_path())
    code, _text = dispatch(grid, ["exec", str(path)])
    grid.kernel.run_to_completion()
    return code, grid


@pytest.mark.parametrize("delta_s", [1000, 86399])
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_scenario_started_later_moves_every_instant_and_nothing_else(name, delta_s,
                                                                        tmp_path):
    """Each row keeps its actor, kind and values and moves by exactly the
    shift; the books do not move at all.  The shifted copy sits next to a
    copy of the JDL files, which `validation.scn` reads as `../jdl/`."""
    data = pathlib.Path(str(importlib.resources.files("deskgrid").joinpath("data")))
    shutil.copytree(data / "jdl", tmp_path / "jdl")
    (tmp_path / "scenarios").mkdir()
    later = tmp_path / "scenarios" / name
    later.write_text(shifted_scenario((data / "scenarios" / name).read_text(), delta_s))
    code, grid = scenario_run(data / "scenarios" / name)
    later_code, later_grid = scenario_run(later)
    assert later_code == code == 0
    assert [(e.time_ms + 1000 * delta_s, *e[1:]) for e in grid.kernel.trace] == \
        [tuple(e) for e in later_grid.kernel.trace]
    for books_of in (lambda g: g.bossdb.dump(), lambda g: g.datagrid.rc.dump(),
                     lambda g: g.refdb.dump()):
        assert books_of(later_grid) == books_of(grid)


#: additions to the shipped topology that no job of `production.scn` can
#: see: (the line they follow, the added lines)
INVISIBLE_ADDITIONS = {
    "globus-only element at a new site": ("flavor = GLUE\n", """
[site hidden]
region = US
accept_vos = datatag ivdgl

[ce ce_hidden]
site = hidden
lrms = CONDOR
flavors = GLOBUS_ONLY
wn_count = 4
cpu_mhz = 3000
tags = CMS
close_ses = se_bologna
"""),
    "member of a VO no job's owner uses": ("/O=grid/OU=ivdgl/CN=Dana Whitfield\n",
                                           "/O=grid/OU=ivdgl/CN=Nadia Okafor\n"),
    "link between two sites no transfer joins": ("flavor = GLUE\n", """
[link site:bologna site:karlsruhe]
bandwidth = 1 MB/s
latency = 0.5
"""),
}


def naming_jobs(grid, job_ids: set) -> list:
    """The trace lines, as exported, one of whose values is a job id of
    `job_ids` or ends in `:<job id>`, as a transfer's `what` does."""
    return [entry.format() for entry in grid.kernel.trace
            if any(str(value).rpartition(":")[2] in job_ids for value in entry.values)]


@pytest.fixture(scope="module")
def production_base():
    path = importlib.resources.files("deskgrid").joinpath("data", "scenarios", "production.scn")
    code, grid = scenario_run(path)
    assert code == 0
    return path, grid


@pytest.mark.parametrize("addition", sorted(INVISIBLE_ADDITIONS))
def test_an_addition_no_job_can_see_changes_nothing_about_the_jobs(addition, production_base):
    """An element of a flavor no broker reads, a new member of a VO the
    jobs do not run under, or a link between two sites no transfer of the
    run joins leaves every line about an existing job, and the books, as
    they were."""
    path, base = production_base
    records = [record for _rb, record in base.all_jobs()]
    jobs = {record.job_id for record in records}
    assert jobs and {record.owner.vo_name for record in records} == {"datatag"}
    joined = {frozenset((entry.detail["frm"], entry.detail["to"]))
              for entry in base.kernel.trace if entry.action == "transfer-complete"}
    assert frozenset(("site:bologna", "site:karlsruhe")) not in joined
    assert {"site:bologna", "site:karlsruhe"} <= set().union(*joined)  # both sites work

    after, added = INVISIBLE_ADDITIONS[addition]
    text = pathlib.Path(default_topology_path()).read_text()
    assert text.count(after) == 1
    text = text.replace(after, after + added)
    grid = Grid(parse_topology(text, "worldgrid-plus"))
    code, _text = dispatch(grid, ["exec", str(path)])
    assert code == 0
    grid.kernel.run_to_completion()
    assert {record.job_id for _rb, record in grid.all_jobs()} == jobs
    assert naming_jobs(grid, jobs) == naming_jobs(base, jobs)
    assert grid.bossdb.dump() == base.bossdb.dump()
    assert grid.datagrid.rc.dump() == base.datagrid.rc.dump()
    assert grid.validate() == []
