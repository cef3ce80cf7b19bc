"""Package calls per CMKIN job, counted by `cost.py` and pinned in
`cost_pins.json`: no module may make more calls than its pin, nor the
package more than its total, and a longer run may not cost more per job.
A count repeats exactly, so on a Python with no pin the last two checks
still run."""
import json
import sys

import pytest

import cost


@pytest.fixture(scope="module")
def table():
    return cost.count_calls(800)


def test_calls_per_cmkin_job_stay_within_their_pins(table):
    version = f"{sys.version_info[0]}.{sys.version_info[1]}"
    pins = json.loads(cost.PINS.read_text()).get(version)
    if pins is None:
        pytest.skip(f"no call counts pinned for Python {version}")
    assert pins["jobs"] == 800
    modules = cost.by_module(table)
    over = {module: (calls, pins["modules"].get(module, 0))
            for module, calls in modules.items() if calls > pins["modules"].get(module, 0)}
    assert over == {}
    assert sum(modules.values()) <= pins["calls"]


def test_a_count_repeats_and_calls_per_job_do_not_rise_with_the_run(table):
    assert cost.count_calls(800) == table
    fewer = 200
    assert sum(table.values()) * fewer <= sum(cost.count_calls(fewer).values()) * 800
