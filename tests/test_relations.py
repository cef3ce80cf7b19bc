"""Relations between runs that hold for any input: how a run is stepped
does not change what it does."""
from fractions import Fraction

import pytest

from deskgrid.grid import default_topology_path, load_topology

from conftest import staggered_bulk


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
