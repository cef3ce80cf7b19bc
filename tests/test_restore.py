"""A grid pickled in one process resumes in another under another hash
seed exactly as it would have run on uninterrupted.

Requirement trees are plain frozen dataclasses: a restored kept set's key
hashes anew in the process that loads it, so a tree built there finds it.
The two children run one after the other, never in parallel:

    python tests/test_restore.py cut FILE      # PYTHONHASHSEED=0
    python tests/test_restore.py resume FILE   # PYTHONHASHSEED=1
"""
import hashlib
import os
import pathlib
import pickle
import subprocess
import sys

from deskgrid.grid import default_topology_path, load_topology
from deskgrid.production import JOB_REQUIREMENTS

from conftest import OPERATOR, staggered_bulk

TESTS = pathlib.Path(__file__).resolve().parent
EDG = ("rb_pisa", "rb_milano")


def bulk_run_to_40_s():
    """The staggered bulk run at 40 s: both EDG brokers keep their sets."""
    grid = load_topology(default_topology_path())
    staggered_bulk(grid)
    grid.kernel.run_until(40)
    assert all(grid.brokers[rb_id]._kept for rb_id in EDG)
    return grid


def finish(grid) -> list:
    """Submit one more factory request through rb_pisa, drain the run and
    return the digests of its trace, BossDb, catalogue and RefDb."""
    proxy = grid.vo.create_proxy(OPERATOR, "datatag", grid.kernel.now_ms,
                                 lifetime_s=1_000_000)
    request = grid.refdb.create_request("restored", "CMKIN", 20 * 100, 100, "rb_pisa")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    grid.production.submit(request.assignment_id, proxy)
    grid.kernel.run_to_completion()
    assert grid.validate() == []
    books = (grid.kernel.export_trace(), grid.bossdb.dump(), grid.datagrid.rc.dump(),
             grid.refdb.dump())
    return [hashlib.sha256(text.encode()).hexdigest() for text in books]


def resume(path: pathlib.Path) -> list:
    grid = pickle.loads(path.read_bytes())
    for rb_id in EDG:
        kept = grid.brokers[rb_id]._kept
        # each key holds a restored tree, equal to this process's own and
        # found by it: the key hashed anew under this process's seed
        assert all(tree is not JOB_REQUIREMENTS and tree == JOB_REQUIREMENTS
                   for _vo, _dn, tree, _pin in kept)
        assert all((vo, dn, JOB_REQUIREMENTS, pin) in kept for vo, dn, _tree, pin in kept)
    return finish(grid)


def child(step: str, path: pathlib.Path, seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join((str(TESTS.parent / "src"), str(TESTS))))
    done = subprocess.run([sys.executable, __file__, step, str(path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_run_cut_under_one_hash_seed_resumes_under_another_as_the_uninterrupted_run(
        tmp_path):
    path = tmp_path / "bulk.pickle"
    child("cut", path, "0")
    resumed = child("resume", path, "1").split()
    assert resumed == finish(bulk_run_to_40_s())


if __name__ == "__main__":
    step, path = sys.argv[1], pathlib.Path(sys.argv[2])
    if step == "cut":
        path.write_bytes(pickle.dumps(bulk_run_to_40_s()))
    else:
        print(" ".join(resume(path)))
