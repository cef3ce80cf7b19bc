"""A grid cut mid-run pickles, and its copy finishes the run as the
original would: nothing on the event heap, in a job's callbacks or in a
broker's or the fabric's kept state is a closure, so every pending event,
transfer, live monitor, kept set and the fabric's order travel with the
copy."""
import importlib.resources
import pathlib
import pickle
from fractions import Fraction
from functools import partial

import pytest

from deskgrid.cli import dispatch
from deskgrid.fabric import WorkloadProfile
from deskgrid.grid import default_topology_path, load_topology
from deskgrid.production import BossDb
from deskgrid.scenario import parse_scenario
from deskgrid.units import KB

from conftest import CMKIN_SMALL, make_mini, staggered_bulk
from test_kept import rebuilt_order

PRODUCTION = pathlib.Path(str(
    importlib.resources.files("deskgrid").joinpath("data", "scenarios", "production.scn")))


def books(grid) -> tuple:
    return grid.kernel.export_trace(), grid.bossdb.dump(), grid.datagrid.rc.dump()


def production_run(cut_ms=None, at_cut=None) -> tuple:
    """production.scn drained to completion; with `cut_ms`, the grid is
    run to that instant, between two of its commands, and replaced by its
    pickled copy, which runs the rest.  `at_cut(grid, copy)` sees both."""
    grid = load_topology(default_topology_path())
    for step in parse_scenario(PRODUCTION.read_text(), str(PRODUCTION)):
        if cut_ms is not None and step.at_ms > cut_ms:
            grid.kernel.run_until(cut_ms / 1000)
            copy = pickle.loads(pickle.dumps(grid))
            if at_cut is not None:
                at_cut(grid, copy)
            grid, cut_ms = copy, None
        grid.kernel.run_to(step.at_ms)
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


def test_a_production_run_cut_with_its_routes_kept_finishes_as_the_uninterrupted_run(
        uninterrupted):
    """Cut while the simulation jobs' stage-ins are in flight: every route a
    leg has used so far is kept, and the copy keeps the same routes."""
    def kept(grid, copy):
        routes = grid.network._routes
        assert len(routes) >= 8 and None not in routes.values()
        assert copy.network._routes == routes

    assert production_run(310_100, kept) == uninterrupted


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


def test_a_bulk_run_cut_while_brokers_keep_their_sets_finishes_as_the_uninterrupted_run():
    """Cut after the second request's matches: each EDG broker keeps an
    admissible set, elements reported moved since the last match, the
    fabric has horizons pending on its heap, and queues are deep.  In the
    copy, every element's set of moved ids is the very set the fabric
    reads."""
    def bulk(cut: bool) -> tuple:
        grid = load_topology(default_topology_path())
        staggered_bulk(grid)
        if cut:
            grid.kernel.run_until(40)
            edg = [grid.brokers["rb_pisa"], grid.brokers["rb_milano"]]
            assert all(rb._kept for rb in edg) and grid.fabric.moved
            assert any(at > 40_000 for at, _ce_id in grid.fabric._due)
            assert sum(len(ce.queue) for ce in grid.fabric.ces.values()) > 30
            grid = pickle.loads(pickle.dumps(grid))
            assert len(grid.fabric.ces) == 17
            assert all(ce.moved is grid.fabric.moved for ce in grid.fabric.ces.values())
        grid.kernel.run_to_completion()
        assert grid.validate() == []
        return books(grid)

    assert bulk(cut=True) == bulk(cut=False)


def test_a_run_cut_just_after_a_brokers_denominator_grew_finishes_as_the_uninterrupted_run():
    """On the mini grid, a job of 1/7 s per event lands on ce_alpha at 1 s
    and the fabric reads alpha again at rb_test's next match, at 2 s: D
    grows sevenfold and the order is rescaled.  The grid is cut right
    there, and the copy keeps D, rb_test's kept sets and the order and
    finishes as the run."""
    def run(cut: bool) -> tuple:
        grid = make_mini()
        grid.fabric.set_profile(WorkloadProfile("odd", Fraction(1, 7), Fraction(KB)))
        grid.proxy_init("/C=XX/CN=alice", "testvo")
        odd = CMKIN_SMALL.replace('"cmkin"', '"odd"').replace("Events = 50", "Events = 3")
        for at_ms, text, pinned in ((0, CMKIN_SMALL, None), (1000, odd, "ce_alpha"),
                                    (2000, CMKIN_SMALL, None), (3000, CMKIN_SMALL, None)):
            grid.kernel.schedule("user-command",
                                 partial(grid.submit, text, "rb_test", pinned), at_ms)
        rb = grid.brokers["rb_test"]
        if cut:
            grid.kernel.run_until(1.5)
            assert grid.fabric.denominator == 4000
            grid.kernel.run_until(2)
            assert grid.fabric.denominator == 28000
            kept = dict(rb._kept)
            assert grid.fabric.order == rebuilt_order(grid.fabric)
            grid = pickle.loads(pickle.dumps(grid))
            rb = grid.brokers["rb_test"]
            assert grid.fabric.denominator == 28000 and rb._kept == kept
            assert grid.fabric.order == rebuilt_order(grid.fabric)
        grid.kernel.run_to_completion()
        assert grid.validate() == []
        return books(grid)

    assert run(cut=True) == run(cut=False)


def test_a_bossdb_built_without_an_emitter_pickles():
    boss = pickle.loads(pickle.dumps(BossDb()))
    boss.open_record("j1", "cmkin", "ds", 100)
    boss.update_events_done(1, 50)
    boss.update_events_done(1, 40)  # a roll-back goes to the default emitter
    assert boss.get(1).events_done == 50 and boss.violations == [(1, 50, 40)]
