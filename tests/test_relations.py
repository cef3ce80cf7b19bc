"""Relations between runs that hold for any input: neither the order in
which a topology lists its sections nor how a run is stepped changes what
it does."""
import importlib.resources
import pathlib
import random
import re
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
