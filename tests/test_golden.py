"""Golden digests: the shipped scenarios reproduce byte for byte.

Each shipped scenario runs at a fixed seed on the shipped testbed and is
then drained to completion.  The sha256 of the exported trace, the BossDb
dump and the replica-catalogue dump are pinned here, so any change to
simulated results -- not just a difference between two runs of the same
code -- shows up.  A change that alters results on purpose re-pins these
digests and says why.
"""
import hashlib
import importlib.resources

import pytest

from deskgrid.cli import dispatch
from deskgrid.grid import default_topology_path, load_topology

GOLDEN = {
    # scenario: (seed, trace, bossdb, rc)
    "production.scn": (
        11,
        "f0ef563f9bccfe530b374beaed5da020026b11d96d35174ec48c12716485feb1",
        "2b445ec8474cb372861f3431acc30f14d48a24b3f21f710a5b5123b144d51a3e",
        "1e6775914b968d4fd821fd77a190a5b51275e170401769e6642cf9b03e68690c"),
    "validation.scn": (  # atlsim registers nothing: the catalogue stays empty
        3,
        "b5198b15352970d929e8e476e33da3ac84ceaaef5bf6520c0f5f09e3598b83ed",
        "5dc34786fec3b14b59dc36d5cf1f4e2331cb9a68ed8575e15535348b94c10b45",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bulk200.scn": (
        9,
        "92d0c4d24de11ac9a3a75b1f6e3e6691110d387bc78f7c69816968739056ffbe",
        "7d854194caffc8ac5c5e67ba6d508d9394bed2b32fa20fcd7d70dc591b250d0d",
        "c3e93ebb2c8855b52b500f22893cd29263cf081c688d47eb2a7b513fd610f43d"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_digests(name: str, seed: int) -> tuple:
    """(trace, bossdb, rc) sha256 digests after running `name` at `seed`."""
    grid = load_topology(default_topology_path(), seed=seed)
    path = importlib.resources.files("deskgrid").joinpath("data", "scenarios", name)
    code, text = dispatch(grid, ["exec", str(path)])
    assert code == 0, text
    grid.kernel.run_to_completion()
    return (_sha(grid.kernel.export_trace()), _sha(grid.bossdb.dump()),
            _sha(grid.datagrid.rc.dump()))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_scenario_digests_are_pinned(name):
    seed, *pinned = GOLDEN[name]
    assert scenario_digests(name, seed) == tuple(pinned)
