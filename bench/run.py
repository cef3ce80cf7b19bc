"""deskgrid benchmark: host cost of simulating three workloads on the
shipped testbed, with the simulated results checked against pinned digests.

    python3 bench/run.py --workload bulk_cmkin|long_events|data_chain \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, nothing is installed.  Each repetition is a fresh process
(`rep.py`), started one after another -- a closed batch with one client and
no threads -- until `--seconds` of host time are used (at least MIN_REPS
repetitions with `--trace 0`, one untraced/traced pair with `--trace 1`).
Each repetition is held to the processor, of those this process may use,
on which a short fixed loop runs fastest just before it starts: on a
shared host one processor is often slowed by another tenant for seconds to
minutes while another is not, and a repetition left to the scheduler stays
where it started.

Every number is host time or host memory, what the simulator costs.
Simulated time is a result: it must not move, and the sha256 digests of
`export_trace()`, `bossdb.dump()`, `rc.dump()` and `refdb.dump()` guard it.
At the seed pinned in `digests.json` they must equal the pins; at any other
seed every repetition must agree with the first.  Every repetition also
checks that `Grid.validate()` is empty, that the event queue drained, that
every job is DONE_OK, every assignment COMPLETE and every scenario command
exited 0.  Each job, command and check is one attempted operation; each
miss is one failed operation, and `fail_ratio` is their ratio.

`--trace 0` prints the end-to-end metrics.  Every unit of work that repeats
identically in each repetition is reported at the fastest time any
repetition took for it.  `run_s` is the sum of its units, from the first
submission or command until the queue drains: the stretches between
every fourth kernel event, the start and the end of a scenario command.
`trace_export_s` is the fastest of the exports each repetition makes for
a tenth of its run time.  The simulation is deterministic, so these units
line up across repetitions, and interference from other tenants of a
shared host only ever adds time.  On a 2-vCPU Xeon virtual machine whose
speed halves for stretches of a second to several minutes, this spread
least between runs; the median repetition spread most.  `setup_s` is the
fastest over repetitions of each one's median set-up, and `peak_mb` the
median peak resident memory of a repetition.

data_chain also prints `cmd_ms_p50` and `cmd_ms_p99`, percentiles of host
ms per `cli.dispatch` call, each call at its fastest repetition.  They are
not in the result object: the other two workloads have no command line,
and every metric there must exist on every workload.  data_chain's
`run_s`, which is there, is mostly `cli.dispatch`.

`--trace 1` prints the per-layer metrics from the span wrappers in
`tracer.py`, and writes the spans of the last traced repetition to
`.bench_out/spans-<workload>.tsv`.

When a change alters simulated results on purpose, re-pin by running
`python3 bench/rep.py --workload W --seed 1 --trace 0` for each workload
and copying its `digests` into `digests.json`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "deskgrid"
OUT = ROOT / ".bench_out"
WORKLOADS = ("bulk_cmkin", "long_events", "data_chain")
MIN_REPS = 4                   # untraced repetitions per run
DEADLINE_S = 170               # the whole run ends within this, whatever happens
CPUS = sorted(os.sched_getaffinity(0))
PROBE_LOOPS = 5                # timed loops per processor when choosing one

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "jobs_per_s": "1/s", "peak_mb": "MB",
    "trace_export_s": "s",
}
SETUP_LAYERS = {"topology.parse_s": "topology_parse_s",
                "grid.build_s": "grid_build_s",
                "scenario.parse_s": "scenario_parse_s"}


class RepFailed(Exception):
    pass


def _rep(workload: str, seed: int, trace: bool, started: float, cpu: int) -> dict:
    """One repetition in a fresh process, held to processor `cpu`."""
    argv = [sys.executable, str(BENCH / "rep.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(int(trace))]
    if trace:
        argv += ["--spans", str(OUT / f"spans-{workload}.tsv")]
    budget = DEADLINE_S - (time.perf_counter() - started)
    if budget <= 0:
        raise RepFailed("no time left for a repetition")
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=budget,
                              preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    except subprocess.TimeoutExpired:
        raise RepFailed(f"repetition did not finish within {budget:.0f} s") from None
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RepFailed(f"repetition exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _probe_s() -> float:
    t0 = time.perf_counter()
    sum(i * i for i in range(10_000))
    return time.perf_counter() - t0


def _quietest_cpu() -> int:
    """The processor on which a short fixed loop now runs fastest."""
    best = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        best.append((min(_probe_s() for _ in range(PROBE_LOOPS)), cpu))
    os.sched_setaffinity(0, CPUS)
    return min(best)[1]


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _digest_misses(reps: list, pinned: "dict | None") -> int:
    reference = pinned if pinned is not None else reps[0]["digests"]
    misses = 0
    for rep in reps:
        for key, value in rep["digests"].items():
            if reference.get(key) != value:
                print(f"digest mismatch: {key} at seed {rep['seed']}", file=sys.stderr)
                misses += 1
    return misses


def _fastest(series: list) -> list:
    """Fastest time of each unit across repetitions; units line up by
    position (see `_misaligned`)."""
    return [min(unit) for unit in zip(*series)]


def _misaligned(reps: list) -> int:
    """1 when the repetitions did not time the same units, which only a
    nondeterministic run can cause."""
    shapes = {(len(r["blocks"]), len(r["cmd_ms"])) for r in reps}
    if len(shapes) > 1:
        print(f"repetitions timed different units: {sorted(shapes)}", file=sys.stderr)
    return int(len(shapes) > 1)


def _end_to_end(reps: list) -> dict:
    run_s = sum(_fastest([r["blocks"] for r in reps]))
    return {
        "setup_s": min(r["setup_s"] for r in reps),
        "run_s": run_s,
        "jobs_per_s": reps[0]["jobs"] / run_s,
        "peak_mb": statistics.median(r["peak_mb"] for r in reps),
        "trace_export_s": min(min(r["export_s"]) for r in reps),
    }


def _per_layer(traced: list, untraced: list) -> tuple:
    """(metrics, counts checked, count mismatches).  Counts must repeat
    exactly across the traced repetitions; timings are the fastest
    repetition's."""
    layers = [r["layers"] for r in traced]
    metrics = {}
    checked = mismatches = 0
    for name, first in layers[0].items():
        values = [layer[name] for layer in layers]
        if name.endswith("_s") or "_ms_" in name:
            metrics[name] = min(values)
        elif name == "broker.match_growth":
            metrics[name] = statistics.median(values)
        else:
            checked += 1
            mismatches += any(v != first for v in values)
            metrics[name] = first
    for name, key in SETUP_LAYERS.items():
        metrics[name] = min(r[key] for r in traced)
    metrics["trace.overhead_ratio"] = (min(r["run_s"] for r in traced)
                                       / min(r["run_s"] for r in untraced))
    return metrics, checked, mismatches


def _unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_ratio", "_growth", "_per_match")):
        return "ratio"
    return "count"


def _src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.rglob("*.py")))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no deskgrid sources at {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    pins = json.loads((BENCH / "digests.json").read_text())
    pinned = pins["digests"][args.workload] if args.seed == pins["seed"] else None
    OUT.mkdir(exist_ok=True)

    untraced, traced = [], []
    try:
        while True:
            elapsed = time.perf_counter() - started
            done = traced if args.trace else untraced
            enough = len(done) >= (1 if args.trace else MIN_REPS)
            per_rep = elapsed / max(1, len(untraced) + len(traced))
            if enough and elapsed + per_rep * (2 if args.trace else 1) > args.seconds:
                break
            untraced.append(_rep(args.workload, args.seed, False, started, _quietest_cpu()))
            if args.trace:
                traced.append(_rep(args.workload, args.seed, True, started, _quietest_cpu()))
    except RepFailed as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    reps = untraced + traced
    attempted = sum(r["jobs"] + r["commands"] + r["checks"] + len(r["digests"])
                    for r in reps)
    failed = sum(r["jobs_failed"] + r["commands_failed"] + r["checks_failed"]
                 for r in reps)
    failed += _digest_misses(reps, pinned)
    if args.trace:
        metrics, checked, mismatches = _per_layer(traced, untraced)
        attempted += checked
        failed += mismatches
    else:
        attempted += 1
        failed += _misaligned(untraced)
        metrics = _end_to_end(untraced)

    print(f"workload {args.workload} seed {args.seed} "
          f"repetitions {len(untraced)} untraced, {len(traced)} traced; "
          f"digests {'pinned' if pinned else 'compared across repetitions'}")
    print(f"src_lines {_src_lines()} (metadata)")
    print(f"input per repetition: {untraced[0]['jobs']} jobs, "
          f"{untraced[0]['commands']} scenario commands")
    for name, value in metrics.items():
        print(f"{name} {value!r} {_unit(name)}")
    if not args.trace and args.workload == "data_chain":
        cmd_ms = _fastest([r["cmd_ms"] for r in untraced])
        print(f"cmd_ms_p50 {_percentile(cmd_ms, 50)!r} ms")
        print(f"cmd_ms_p99 {_percentile(cmd_ms, 99)!r} ms")
        print(f"cmd_ms samples {len(cmd_ms)} cli.dispatch calls, each at its fastest "
              f"of {len(untraced)} repetitions")
    print(f"fail_ratio {failed / attempted!r} ratio ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
