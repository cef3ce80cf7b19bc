"""What a CMKIN job costs the package, counted rather than timed.

    python tests/cost.py [--json]

The workload is one CMKIN request of 250-event jobs, submitted through
`rb_pisa` on the shipped testbed and run to completion.  Its
`declare` and `create` are not counted; `submit` and the run are.  Under
`sys.setprofile`, every `call` event whose code lies in the `deskgrid`
package is counted, by module and by function.  Code named `<...>`
(comprehensions, generator expressions) is left out: Python 3.12 inlines
comprehensions, so counts that held them would not compare across
versions.  `fmt_ratio`'s memo is cleared first, so a count, and the bytes
below, are the same in any process, whatever ran in it before.

These counts repeat exactly on one interpreter, unlike a timer on a shared
host.  `cost_pins.json` holds the counts at 800 jobs, keyed by Python minor
version; `test_cost.py` checks each module's count and the total against
them, and that calls per job do not rise from 200 to 800 jobs.  A change
that lowers a count lowers its pin.

The script prints calls per job by module at 200, 800 and 3,200 jobs.
With `--json` it prints the table per function, and also runs 3,200 jobs
with no profiler and the trace dropped, for the collections per
generation (`gc.callbacks`) and the `tracemalloc` peak in bytes per job.  It uses only the standard library and is not itself
collected as a test.
"""
from __future__ import annotations

import argparse
import gc
import json
import pathlib
import sys
import tracemalloc
from collections import Counter

if __name__ == "__main__":  # run as a script: the package beside these tests
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import deskgrid
from deskgrid.grid import default_topology_path, load_topology
from deskgrid.units import fmt_ratio

PACKAGE = str(pathlib.Path(deskgrid.__file__).resolve().parent)
PINS = pathlib.Path(__file__).resolve().with_name("cost_pins.json")
OPERATOR = "/O=grid/OU=datatag/CN=factory operator"
EVENTS_PER_JOB = 250
SIZES = (200, 800, 3200)
MEMORY_JOBS = 3200


class DroppedCells(list):
    """Trace cells that keep nothing: `+=` leaves the list as it is."""

    def __iadd__(self, cells):
        return self


def prepared(jobs: int, drop_trace: bool = False):
    """The shipped testbed with one declared and created CMKIN request of
    `jobs` jobs; returns (grid, submit), `submit()` submitting it."""
    grid = load_topology(default_topology_path())
    if drop_trace:
        grid.kernel._cells = DroppedCells()
    proxy = grid.vo.create_proxy(OPERATOR, "datatag", 0, lifetime_s=10**8)
    request = grid.refdb.create_request("cost", "CMKIN", jobs * EVENTS_PER_JOB,
                                        EVENTS_PER_JOB, "rb_pisa")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    return grid, lambda: grid.production.submit(request.assignment_id, proxy)


def count_calls(jobs: int) -> Counter:
    """(module, function) -> package calls made by submitting and running
    `jobs` jobs."""
    grid, submit = prepared(jobs)
    fmt_ratio.cache_clear()
    calls: Counter = Counter()

    def profiler(frame, event, _arg):
        if event == "call":
            calls[frame.f_code] += 1

    sys.setprofile(profiler)
    try:
        submit()
        grid.kernel.run_to_completion()
    finally:
        sys.setprofile(None)
    table: Counter = Counter()
    for code, n in calls.items():
        path = pathlib.Path(code.co_filename)
        if str(path.parent) == PACKAGE and not code.co_name.startswith("<"):
            table[path.stem, getattr(code, "co_qualname", code.co_name)] += n
    return table


def by_module(table: Counter) -> dict:
    modules: Counter = Counter()
    for (module, _function), n in table.items():
        modules[module] += n
    return dict(sorted(modules.items(), key=lambda item: (-item[1], item[0])))


def memory(jobs: int = MEMORY_JOBS) -> dict:
    """Collections per generation and the `tracemalloc` peak per job over
    `submit` and the run, with no profiler and the trace dropped."""
    grid, submit = prepared(jobs, drop_trace=True)
    fmt_ratio.cache_clear()
    collections = [0, 0, 0]

    def collected(phase, info):
        if phase == "stop":
            collections[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(collected)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        submit()
        grid.kernel.run_to_completion()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.callbacks.remove(collected)
    return {"jobs": jobs, "collections": collections,
            "peak_bytes_per_job": round((peak - base) / jobs, 1)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", action="store_true",
                        help="print per-function tables, collections and bytes as JSON")
    args = parser.parse_args(argv)
    runs = []
    for jobs in SIZES:
        table = count_calls(jobs)
        runs.append({"jobs": jobs, "calls": sum(table.values()),
                     "modules": by_module(table),
                     "functions": {f"{module}.{function}": n for (module, function), n
                                   in sorted(table.items(), key=lambda item: -item[1])}})
    if args.json:
        print(json.dumps({"python": f"{sys.version_info[0]}.{sys.version_info[1]}",
                          "runs": runs, "memory": memory()}, indent=1))
        return 0
    for run in runs:
        jobs = run["jobs"]
        modules = ", ".join(f"{module} {n / jobs:.2f}" for module, n in run["modules"].items())
        print(f"{jobs} jobs: {run['calls'] / jobs:.2f} calls a job ({modules})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
