"""The shipped demos run and print what they always printed.

Each demo runs in a fresh interpreter against the package in `src/`; its
standard output is pinned by sha256, so a demo that stops running or whose
story changes fails here.
"""
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

STDOUT_DIGESTS = {
    "broker_audit.py": "bd8ea7e05db7e32cb6b4a444e1b08f6ee83f6ab7e93f8f3a72f4cf9dee6cf01c",
    "mc_chain.py": "20514c82289101e7c32c7c7ab47eb9e0a428c883534f3974f6bae46ea0c31dae",
    "quickstart.py": "2fd3b058ac5c128d2e69c4d5f4f5dfee45ba011c0faf0ec7ec44407a0bffcfdf",
}


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_demo_output_is_unchanged(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=ROOT, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_DIGESTS[name]
