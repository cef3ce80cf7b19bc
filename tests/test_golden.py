"""Golden digests: the shipped scenarios reproduce byte for byte.

Each shipped scenario runs on the shipped testbed and is then drained
to completion.  The sha256 of the exported trace, the BossDb dump and
the replica-catalogue dump are pinned here, so any change to
simulated results -- not just a difference between two runs of the same
code -- shows up.  A change that alters results on purpose re-pins these
digests and says why.
"""
import hashlib
import importlib.resources
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from deskgrid.cli import dispatch
from deskgrid.grid import Grid, default_topology_path, load_topology
from deskgrid.scenario import parse_scenario, run_scenario
from deskgrid.topology import parse_topology

GOLDEN = {
    # scenario: (trace, bossdb, rc)
    "production.scn": (
        "f0ef563f9bccfe530b374beaed5da020026b11d96d35174ec48c12716485feb1",
        "2b445ec8474cb372861f3431acc30f14d48a24b3f21f710a5b5123b144d51a3e",
        "1e6775914b968d4fd821fd77a190a5b51275e170401769e6642cf9b03e68690c"),
    "validation.scn": (  # atlsim registers nothing: the catalogue stays empty
        "b5198b15352970d929e8e476e33da3ac84ceaaef5bf6520c0f5f09e3598b83ed",
        "5dc34786fec3b14b59dc36d5cf1f4e2331cb9a68ed8575e15535348b94c10b45",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bulk200.scn": (
        "92d0c4d24de11ac9a3a75b1f6e3e6691110d387bc78f7c69816968739056ffbe",
        "7d854194caffc8ac5c5e67ba6d508d9394bed2b32fa20fcd7d70dc591b250d0d",
        "c3e93ebb2c8855b52b500f22893cd29263cf081c688d47eb2a7b513fd610f43d"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_shipped(name: str) -> Grid:
    """The shipped testbed after running the shipped scenario `name` and
    draining the queue."""
    grid = load_topology(default_topology_path())
    path = importlib.resources.files("deskgrid").joinpath("data", "scenarios", name)
    code, text = dispatch(grid, ["exec", str(path)])
    assert code == 0, text
    grid.kernel.run_to_completion()
    return grid


def scenario_digests(name: str) -> tuple:
    """(trace, bossdb, rc) sha256 digests after running `name`."""
    grid = run_shipped(name)
    return (_sha(grid.kernel.export_trace()), _sha(grid.bossdb.dump()),
            _sha(grid.datagrid.rc.dump()))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_digests_are_pinned(name):
    assert scenario_digests(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_trace_row_holds_exact_values_under_its_kinds_keys(name):
    """An export writes each stored value through its kind's template and
    converts none, which renders as `fmt_quantity` does only for an exact
    `str` or `int`; and a row's values line up with its kind's keys."""
    trace = run_shipped(name).kernel.trace
    assert trace
    for entry in trace:
        assert {type(value) for value in entry.values} <= {str, int}, entry
        assert list(entry.detail) == list(entry.kind.keys), entry
        assert len(entry.values) == len(entry.kind.keys), entry


def test_the_digests_do_not_depend_on_the_hash_seed():
    """production.scn gives its pinned digests in fresh interpreters whose
    str hashes, and so set iteration orders, differ."""
    pinned = list(GOLDEN["production.scn"])
    root = pathlib.Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from test_golden import scenario_digests; "
            "print(*scenario_digests('production.scn'))")
    runs = [subprocess.Popen(
        [sys.executable, "-c", code, str(root / "tests")],
        env={**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": hash_seed},
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for hash_seed in ("0", "777")]
    for run in runs:
        out, err = run.communicate(timeout=120)
        assert (run.returncode, err) == (0, "")
        assert out.split() == pinned


# -- monitor points read at, just before and just after their instants --

# Shipped testbed with lisbon made isolated: the shipped isolated
# sites are Condor pools no broker can see.  24 CMKIN jobs start at 51 ms
# (bologna's two at 21 ms); their monitor points fall at
#   1400 MHz (karlsruhe, milano, sandiego): 3622, 7194, 10765, ... ms
#   2000 MHz (batavia, geneva):             2551, 5051, 7551, ... ms
#   800 MHz (lisbon isolated, valencia):    6301, 12551, ... ms
# Boss queries and `run --until` land on those instants and 1 ms either
# side.  Three small requests are submitted at 7.193, 7.194 and 7.195 s,
# so their matches read the traversal time of every running job there;
# the first of them to finish on ce_geneva (j26, exec-complete at
# 107.244 s) is the one that fails, and its record keeps 390 events.
MONITOR_SCENARIO = """\
at 0 proxy init --user "/O=grid/OU=datatag/CN=factory operator" --vo datatag --lifetime 1000000
at 0 refdb request --dataset gold --step CMKIN --events 23990 --per-job 1000 --rb rb_pisa
at 0 impala declare 1
at 0 impala create 1
at 0 impala submit 1
at 2.551 boss query --dataset gold
at 3.621 boss query --dataset gold
at 3.622 boss query --dataset gold
at 3.623 boss query --dataset gold
at 3.623 run --until 6.300
at 6.300 boss query
at 6.300 run --until 6.301
at 6.301 boss query
at 6.301 run --until 6.302
at 6.302 boss query
at 7 refdb request --dataset tin --step CMKIN --events 800 --per-job 400 --rb rb_milano
at 7 refdb request --dataset lead --step CMKIN --events 800 --per-job 400 --rb rb_milano
at 7 refdb request --dataset zinc --step CMKIN --events 800 --per-job 400 --rb rb_pisa
at 7 impala declare 2
at 7 impala declare 3
at 7 impala declare 4
at 7 impala create 2
at 7 impala create 3
at 7 impala create 4
at 7.193 impala submit 2
at 7.194 impala submit 3
at 7.195 impala submit 4
at 7.195 run --until 10.765
at 10.765 boss query --status running
at 107.243 boss query --dataset tin
at 107.244 boss query --dataset tin
at 107.245 boss query --dataset tin
at 107.295 boss query --dataset tin
at 250.050 boss query --dataset gold
at 250.051 boss query --dataset gold
at 250.052 boss query --dataset gold
at 2000 refdb summary 1
at 2000 refdb summary 2
at 2000 refdb summary 3
at 2000 refdb summary 4
at 2000 boss query
at 2000 rc dump
"""
#: monitor-point instants (ms) the scenario reads exactly
MONITOR_INSTANTS = (2551, 3622, 6301, 7194, 10765, 250051)
MONITOR_GOLDEN = (  # trace, every step's output and BossDb dump, catalogue
    "78ab3e12263cbb8a219ca58d110d38a0a21f22d3bed06e500e642b9d007d4192",
    "3f960c02fac27840955c14e570e7ef79a6dbae53f6d87460944e00231eb83548",
    "7fc82da8362a63c28e526717aae3a2c8229bb51d8829c020d2e7cfd1a4deea36")


def monitor_grid() -> Grid:
    text = pathlib.Path(default_topology_path()).read_text()
    text = text.replace("[site lisbon]\n", "[site lisbon]\noutbound = false\n")
    grid = Grid(parse_topology(text, "worldgrid-lisbon-isolated"))
    grid.fabric.ces["ce_geneva"].fail_next_execs = 1
    return grid


def monitor_points(grid) -> dict:
    """Instant (ms) -> (ce, events done) of every monitor point of every
    started job, from the exec-start entries of the trace: point k of a
    job of E events and runtime R started at S falls at S + R*k/E rounded
    half-up to the ms."""
    points: dict = {}
    for entry in grid.kernel.trace:
        if entry.action != "exec-start":
            continue
        ce = grid.fabric.ces[entry.actor]
        events = entry.detail["events"]
        runtime = grid.fabric.profiles["cmkin"].runtime_s(events, ce.record.cpu_mhz)
        for k in range(10, events, 10):
            at = entry.time_ms + int(runtime * k * 1000 / events + Fraction(1, 2))
            points.setdefault(at, []).append((ce.ce_id, k))
    return points


def test_monitor_reads_at_and_beside_their_instants_are_pinned():
    grid = monitor_grid()
    steps = hashlib.sha256()
    for step in parse_scenario(MONITOR_SCENARIO, "monitor.scn"):
        [(_step, code, text)] = run_scenario(grid, [step], dispatch)
        assert code == 0, text
        if step.argv[0] != "run":  # `run` reports how many events it delivered
            steps.update(text.encode())
        steps.update(grid.bossdb.dump().encode())
    grid.kernel.run_to_completion()
    points = monitor_points(grid)
    assert all(at in points for at in MONITOR_INSTANTS)
    assert ("ce_lisbon", 10) in points[6301] and ("ce_valencia", 10) in points[6301]
    failed = grid.bossdb.get(26)
    assert (failed.status, failed.events_done) == ("failed", 390)
    assert (_sha(grid.kernel.export_trace()), steps.hexdigest(),
            _sha(grid.datagrid.rc.dump())) == MONITOR_GOLDEN
