"""A grid cut mid-run pickles, and its copy finishes the run as the
original would: nothing on the event heap or in a job's callbacks is a
closure, so every pending event, transfer and live monitor travels with
the copy."""
import importlib.resources
import pathlib
import pickle

import pytest

from deskgrid.cli import dispatch
from deskgrid.grid import default_topology_path, load_topology
from deskgrid.scenario import parse_scenario

from conftest import make_mini

PRODUCTION = pathlib.Path(str(
    importlib.resources.files("deskgrid").joinpath("data", "scenarios", "production.scn")))


def books(grid) -> tuple:
    return grid.kernel.export_trace(), grid.bossdb.dump(), grid.datagrid.rc.dump()


def production_run(cut_ms=None) -> tuple:
    """production.scn drained to completion; with `cut_ms`, the grid is
    run to that instant, between two of its commands, and replaced by its
    pickled copy, which runs the rest."""
    grid = load_topology(default_topology_path())
    for step in parse_scenario(PRODUCTION.read_text(), str(PRODUCTION)):
        if cut_ms is not None and step.at_s * 1000 > cut_ms:
            grid.kernel.run_until(cut_ms / 1000)
            grid = pickle.loads(pickle.dumps(grid))
            cut_ms = None
        grid.kernel.run_until(step.at_s)
        code, text = dispatch(grid, list(step.argv), base_dir=PRODUCTION.parent)
        assert code == 0, text
    grid.kernel.run_to_completion()
    return books(grid)


@pytest.fixture(scope="module")
def uninterrupted() -> tuple:
    return production_run()


@pytest.mark.parametrize("cut_ms", [
    5_000,        # between commands, nothing in flight
    10_030,       # the generation jobs' input sandboxes in flight
    60_000,       # generation running: BossDb reads each job's monitor live
    310_100,      # the simulation jobs' stage-ins in flight
    44_062_000,   # a data product on its way to its storage element
    50_000_000,   # simulation running
])
def test_a_production_run_cut_and_pickled_finishes_as_the_uninterrupted_run(
        cut_ms, uninterrupted):
    assert production_run(cut_ms) == uninterrupted


def test_a_replication_in_flight_survives_a_pickle_round_trip():
    def replicated(cut: bool) -> tuple:
        grid = make_mini()
        for argv in (["rc", "seed", "x.dat", "se_alpha", "1000"],
                     ["rc", "replicate", "x.dat", "se_beta"]):
            code, text = dispatch(grid, argv)
            assert code == 0, text
        assert grid.kernel.pending_count() == 1
        if cut:
            grid = pickle.loads(pickle.dumps(grid))
        grid.kernel.run_to_completion()
        return books(grid)

    whole = replicated(cut=False)
    assert "replica-added" in whole[0] and "se_beta" in whole[2]
    assert replicated(cut=True) == whole
