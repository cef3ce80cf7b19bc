"""Seeded inputs for the three benchmark workloads.

Every workload runs on the shipped testbed (17 sites; 13 EDG-visible
elements with 36 worker nodes).  The workload seed varies the generated
inputs -- per-job `Events`, broker choice, request split, arrival offsets
and replica targets -- but never the shape: job counts, total events and
command counts are the same for every seed, so host time is comparable
across seeds.  No model component draws from `Kernel.substream`, so the
seed reaches the simulator only through these inputs.

- bulk_cmkin: 800 CMKIN jobs of 200-300 events in four requests, all
  submitted at t=0.  Queues run ~22 deep per EDG node, so match-making
  (information-index queries and exact traversal-time estimates) and JDL
  parsing dominate, plus ~24 monitor ticks per job.
- long_events: 8 CMKIN jobs of 100k-200k events, one request each, fewer
  jobs than nodes.  Only 8 matches; ~99% of kernel events are monitor
  ticks, so the event heap, fabric ticks and bookkeeping updates dominate.
- data_chain: a scenario of 1,022 `cli` commands.  60 datasets arrive
  about 1,000 simulated seconds apart; each runs a CMKIN request of 4
  jobs of at most 10 events (no ticks), replicates half its ntuples,
  then a data-driven CMSIM request over them.  Queues stay shallow; the
  command line, scenario parser and replica catalogue reads and writes
  are what it exercises.
"""
from __future__ import annotations

import random
import shlex

OPERATOR = "/O=grid/OU=datatag/CN=factory operator"
VO = "datatag"
BROKERS = ("rb_pisa", "rb_milano")
#: the 13 storage elements of the shipped testbed
STORAGE = ("se_batavia", "se_bloomington", "se_bologna", "se_bristol",
           "se_brookhaven", "se_gainesville", "se_geneva", "se_karlsruhe",
           "se_lisbon", "se_milano", "se_padova", "se_sandiego", "se_valencia")

BULK_REQUESTS = 4
BULK_JOBS = 800
BULK_MIN_REQUEST_JOBS = 150
BULK_MEAN_EVENTS = 250

LONG_JOBS = 8
LONG_MEAN_EVENTS = 150_000
LONG_SPREAD = 50_000

CHAIN_DATASETS = 60            # 17 commands each; fewer would go below 1,000
CHAIN_JOBS = 4
CHAIN_EVENTS_PER_JOB = 10      # more than 10 would schedule monitor ticks
CHAIN_ARRIVAL_S = 1000
CHAIN_REPLICAS = 2             # ntuples replicated per dataset
CHAIN_SIM_WAIT_S = 15000       # CMSIM submit -> summary; jobs need <= ~5,000 s


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def bulk_requests(seed: int) -> list:
    """(dataset, total_events, events_per_job, rb) per request.  Job count
    and total events are fixed; the split and per-job events vary."""
    rng = _rng("bulk_cmkin", seed)
    spare = BULK_JOBS - BULK_MIN_REQUEST_JOBS * BULK_REQUESTS
    cuts = sorted(rng.randint(0, spare) for _ in range(BULK_REQUESTS - 1))
    counts = [BULK_MIN_REQUEST_JOBS + b - a for a, b in zip([0] + cuts, cuts + [spare])]
    target = BULK_JOBS * BULK_MEAN_EVENTS
    requests = []
    for i, jobs in enumerate(counts):
        if i < len(counts) - 1:
            per_job = rng.randint(200, 300)
        else:  # the last request brings the total back to the target
            per_job = min(300, max(200, round(target / jobs)))
        short = rng.randint(0, 9)  # the last job of each request is shorter
        total = jobs * per_job - short
        target -= total
        requests.append((f"bulk{seed}_{i}", total, per_job, rng.choice(BROKERS)))
    return requests


def long_requests(seed: int) -> list:
    """One single-job request per job; events come in pairs around the mean
    so the total is the same for every seed."""
    rng = _rng("long_events", seed)
    events = []
    for _ in range(LONG_JOBS // 2):
        d = rng.randint(0, LONG_SPREAD)
        events += [LONG_MEAN_EVENTS + d, LONG_MEAN_EVENTS - d]
    rng.shuffle(events)
    return [(f"long{seed}_{i}", n, n, rng.choice(BROKERS))
            for i, n in enumerate(events)]


def chain_scenario(seed: int) -> str:
    """Scenario text for data_chain.  Lines of different datasets
    interleave, so assignment ids are given out in execution order."""
    rng = _rng("data_chain", seed)
    timeline = []  # (time, dataset, order, step, argv); step names the request

    def at(t, i, step, *argv):
        timeline.append((t, i, len(timeline), step, argv))

    for i in range(CHAIN_DATASETS):
        ds = f"chain{seed}_{i}"
        arrive = CHAIN_ARRIVAL_S * i + rng.randint(0, 400)
        events = CHAIN_JOBS * CHAIN_EVENTS_PER_JOB - rng.randint(0, 9)
        for step, t0 in (("CMKIN", arrive), ("CMSIM", arrive + 200)):
            at(t0, i, step, "refdb", "request", "--dataset", ds, "--step", step,
               "--events", str(events), "--per-job", str(CHAIN_EVENTS_PER_JOB),
               "--rb", rng.choice(BROKERS))
            for verb in ("declare", "create", "submit"):
                at(t0, i, step, "impala", verb, "{aid}")
            done = t0 + (100 if step == "CMKIN" else CHAIN_SIM_WAIT_S)
            at(done, i, step, "refdb", "summary", "{aid}")
            at(done, i, step, "assert", "refdb-status", "{aid}", "COMPLETE")
            if step == "CMKIN":
                picks = rng.sample(range(1, CHAIN_JOBS + 1), CHAIN_REPLICAS)
                for j in sorted(picks):
                    lfn = f"{ds}_{j}.ntpl"
                    at(done, i, step, "rc", "replicate", lfn, rng.choice(STORAGE))
                    at(arrive + 150, i, step, "rc", "lookup", lfn)
            else:
                at(done, i, step, "boss", "query", "--dataset", ds)

    timeline.sort(key=lambda entry: (entry[0], entry[2]))
    aids: dict = {}
    lines = [f"at 0 proxy init --user {shlex.quote(OPERATOR)} --vo {VO} "
             f"--lifetime 100000000"]
    for t, i, _order, step, argv in timeline:
        if argv[:2] == ("refdb", "request"):
            aids[(i, step)] = len(aids) + 1
        words = [w.format(aid=aids.get((i, step))) for w in argv]
        lines.append(f"at {t} " + " ".join(shlex.quote(w) for w in words))
    last = timeline[-1][0]
    lines.append(f"at {last} run")
    return "\n".join(lines) + "\n"
