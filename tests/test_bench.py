"""The benchmark's traced repetition still runs against the package.

`bench/tracer.py` wraps package functions by attribute name, so renaming
or deleting one breaks `--trace 1` runs without failing any other test.
This runs one short traced repetition in a fresh interpreter and checks
it against the pinned digests in `bench/digests.json`.
"""
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_traced_long_events_repetition_matches_its_pins():
    proc = subprocess.run(
        [sys.executable, "bench/rep.py", "--workload", "long_events",
         "--seed", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    pins = json.loads((ROOT / "bench" / "digests.json").read_text())
    assert pins["seed"] == 1
    assert result["digests"] == pins["digests"]["long_events"]
    assert result["checks_failed"] == 0 and result["jobs_failed"] == 0
    layers = result["layers"]
    # every wrapped entry point was reached through its wrapper
    for key in ("simcore.schedule_calls", "units.to_millis_calls",
                "fabric.tick_calls", "production.monitor_tick_calls",
                "vomgmt.authorize_calls", "broker.match_calls"):
        assert layers[key] > 0, key
    # factory jobs reach the broker as typed descriptions holding parsed
    # extras: no description text or expression is parsed on the way
    assert layers["jdl.parse_jdl_calls"] == 0
    assert layers["jdl.parse_expr_calls"] == 0
    # each of the two EDG brokers builds one admissible set over the 13
    # elements it sees, testing the requirement once per element there;
    # no match evaluates it again
    assert layers["jdl.eval_calls"] == 26
    assert layers["infosys.query_calls"] == 2
