"""`tests/unreached.py --shipped` names every shipped run there is: a
scenario, demo or benchmark workload added later is traced too.  Only file
names are read here; nothing is traced."""
import json

import unreached


def test_the_shipped_census_names_every_scenario_demo_and_workload():
    root = unreached.ROOT
    assert sorted(unreached.SCENARIOS) == sorted(
        path.name for path in (unreached.SRC / "data" / "scenarios").glob("*.scn"))
    assert sorted(unreached.DEMOS) == sorted(path.name for path in (root / "demos").glob("*.py"))
    workloads = json.loads((root / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(unreached.WORKLOADS) == sorted(workload["name"] for workload in workloads)
