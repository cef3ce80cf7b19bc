"""One measured repetition of one workload, in a fresh process.

    python3 bench/rep.py --workload NAME --seed N --trace 0|1 [--spans PATH]

Sets the testbed up several times (median set-up time), runs the workload
once, checks the outcome and prints one JSON object: host timings, the
sha256 digests of the simulated results, the operations attempted and
failed, and -- with `--trace 1` -- the per-layer numbers from the span
wrappers in `tracer.py`.  Without tracing, the run is also timed in blocks
of BLOCK_POPS kernel events, and every scenario command and trace export
on its own; the simulation is deterministic, so these units line up across
repetitions.  `run.py` starts one of these per repetition so that every
repetition starts from the same interpreter state and its peak resident
memory is its own.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import pathlib
import resource
import statistics
import sys
import time
import types

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from deskgrid import broker as broker_mod  # noqa: E402
from deskgrid import cli, scenario, simcore, topology  # noqa: E402
from deskgrid.grid import Grid  # noqa: E402

import workloads  # noqa: E402

TOPOLOGY = ROOT / "src" / "deskgrid" / "data" / "worldgrid.toposample"
SETUP_MIN_S = 0.05            # set up again until this much time ...
SETUP_MIN_CALLS = 5           # ... and at least this many set-ups; median reported
EXPORT_SHARE = 0.1            # keep exporting the trace for this share of run_s ...
EXPORT_MIN_CALLS = 4          # ... and at least this many calls
BLOCK_POPS = 4                # kernel events per timed block of the run


def _setup(workload: str, seed: int, scenario_text: "str | None"):
    t0 = time.perf_counter()
    config = topology.parse_topology_file(TOPOLOGY)
    t1 = time.perf_counter()
    grid = Grid(config, seed=seed)
    t2 = time.perf_counter()
    steps = None
    if scenario_text is not None:
        steps = scenario.parse_scenario(scenario_text, f"{workload}.scn")
    t3 = time.perf_counter()
    return grid, steps, (t1 - t0, t2 - t1, t3 - t2)


def _stamp_blocks(stamps: list) -> None:
    """Append the clock to `stamps` at every BLOCK_POPS-th event the kernel
    pops.  The kernel reaches `heapq` through its module attribute, so the
    stamping pop is installed there; what it pops is unchanged."""
    pop, clock = heapq.heappop, time.perf_counter
    count = 0

    def heappop(heap):
        nonlocal count
        count += 1
        if count % BLOCK_POPS == 0:
            stamps.append(clock())
        return pop(heap)
    simcore.heapq = types.SimpleNamespace(heappush=heapq.heappush, heappop=heappop)


def _timed(fn, samples: list, stamps: list):
    """`fn`, with each call's duration appended to `samples` and its start
    and end to `stamps`, so that a command is a block of its own."""
    clock = time.perf_counter

    def call(*args, **kwargs):
        t0 = clock()
        stamps.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = clock()
            stamps.append(t1)
            samples.append(t1 - t0)
    return call


def _run_production(grid, requests) -> dict:
    """Declare, create and submit every request at t=0, then drain."""
    grid.proxy_init(workloads.OPERATOR, workloads.VO)
    aids = []
    for dataset, total, per_job, rb in requests:
        request = grid.refdb.create_request(dataset, "CMKIN", total, per_job, rb)
        aids.append(request.assignment_id)
        grid.production.declare(request.assignment_id)
        grid.production.create(request.assignment_id)
        grid.production.submit(request.assignment_id, grid.current_proxy)
    grid.kernel.run_to_completion()
    return {"aids": aids, "commands": 0, "commands_failed": 0}


def _run_chain(grid, steps, cmd_ms: list, stamps: list) -> dict:
    def dispatch(g, argv, base_dir=None):
        # looked up per call so that a traced run sees its wrapper
        return cli.dispatch(g, argv, base_dir=base_dir)

    results = scenario.run_scenario(grid, steps, _timed(dispatch, cmd_ms, stamps))
    failed = sum(1 for _step, code, _text in results if code != 0)
    failed += len(steps) - len(results)  # steps never reached after a failure
    for step, code, text in results:
        if code != 0:
            print(f"line {step.line}: exit {code}: {text}", file=sys.stderr)
    return {"aids": sorted(grid.refdb.requests), "commands": len(steps),
            "commands_failed": failed}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check(grid, outcome: dict) -> tuple:
    """(jobs, jobs_failed, checks, checks_failed, problems)."""
    problems = list(grid.validate())
    jobs = grid.all_jobs()
    bad_jobs = [r.job_id for _rb, r in jobs if r.state != broker_mod.DONE_OK]
    checks = 2 + len(outcome["aids"])
    checks_failed = int(bool(problems))
    if grid.kernel.pending_count():
        problems.append("event queue not drained")
        checks_failed += 1
    for aid in outcome["aids"]:
        status = grid.refdb.get(aid).status
        if status != "COMPLETE":
            problems.append(f"assignment {aid} is {status}")
            checks_failed += 1
    if bad_jobs:
        problems.append(f"{len(bad_jobs)} jobs not DONE_OK, first {bad_jobs[0]}")
    return len(jobs), len(bad_jobs), checks, checks_failed, problems


def run(workload: str, seed: int, trace: bool, spans_path: "str | None") -> dict:
    if workload == "bulk_cmkin":
        requests, text = workloads.bulk_requests(seed), None
    elif workload == "long_events":
        requests, text = workloads.long_requests(seed), None
    else:
        requests, text = None, workloads.chain_scenario(seed)

    tracer = None
    if trace:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()

    setups = []
    while len(setups) < SETUP_MIN_CALLS or sum(map(sum, setups)) < SETUP_MIN_S:
        grid, steps, parts = _setup(workload, seed, text)
        setups.append(parts)
    parse_s, build_s, scn_s = (statistics.median(parts[k] for parts in setups)
                               for k in range(3))
    gc.collect()
    if tracer is not None:
        tracer.reset()

    cmd_ms: list = []
    stamps: list = []
    if tracer is None:
        _stamp_blocks(stamps)
    t0 = time.perf_counter()
    if text is None:
        outcome = _run_production(grid, requests)
    else:
        outcome = _run_chain(grid, steps, cmd_ms, stamps)
    t1 = time.perf_counter()
    marks = [t0] + stamps + [t1]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if text is None:
        for aid in outcome["aids"]:
            grid.production.post_summary(aid)
    layers = None
    if tracer is not None:
        tracer.stop()
        layers = tracer.layer_metrics(grid)
        if spans_path:
            tracer.write_spans(spans_path)

    exports = []
    trace_text = ""
    while len(exports) < EXPORT_MIN_CALLS or sum(exports) < EXPORT_SHARE * (t1 - t0):
        e0 = time.perf_counter()
        trace_text = grid.kernel.export_trace()
        exports.append(time.perf_counter() - e0)

    jobs, jobs_failed, checks, checks_failed, problems = _check(grid, outcome)
    for problem in problems:
        print(problem, file=sys.stderr)
    return {
        "workload": workload,
        "seed": seed,
        "setup_s": parse_s + build_s + scn_s,
        "topology_parse_s": parse_s,
        "grid_build_s": build_s,
        "scenario_parse_s": scn_s,
        "run_s": t1 - t0,
        "blocks": [b - a for a, b in zip(marks, marks[1:])],
        "peak_mb": peak_kb / 1024,
        "export_s": exports,
        "cmd_ms": [s * 1000 for s in cmd_ms],
        "jobs": jobs,
        "jobs_failed": jobs_failed,
        "commands": outcome["commands"],
        "commands_failed": outcome["commands_failed"],
        "checks": checks,
        "checks_failed": checks_failed,
        "digests": {
            "trace": _digest(trace_text),
            "bossdb": _digest(grid.bossdb.dump()),
            "rc": _digest(grid.datagrid.rc.dump()),
            "refdb": _digest(grid.refdb.dump()),
        },
        "layers": layers,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bulk_cmkin", "long_events", "data_chain"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    result = run(args.workload, args.seed, bool(args.trace), args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
