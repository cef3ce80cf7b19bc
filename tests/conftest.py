import os
import random
from functools import partial

import pytest
from hypothesis import Phase, settings

from deskgrid.grid import Grid
from deskgrid.topology import parse_topology

# `tests/mutants.py` runs its tests with this profile: a mutant is killed by
# the first failing example, so Hypothesis does not shrink it
settings.register_profile("mutants", phases=(Phase.explicit, Phase.generate), database=None)
if os.environ.get("DESKGRID_MUTANTS"):
    settings.load_profile("mutants")

# Two sites, two computing elements, everything deliberately small enough
# to predict transfer and runtime figures by hand:
#   ce_alpha: PBS, EDG, 2 nodes at 1000 MHz, close to se_alpha
#   ce_beta:  LSF, EDG+GLUE, 1 node at 2000 MHz, close to se_beta
#   alpha<->beta link 20 MB/s at 0.1 s, everything else on the 10 MB/s
#   default WAN at 0.05 s; LANs at the built-in 100 MB/s and 1 ms.
MINI_TOPOLOGY = """\
[general]
replica_catalog = rc_test
default_wan_bandwidth = 10 MB/s
default_wan_latency = 0.05

[vo testvo]
/C=XX/CN=alice
/C=XX/CN=bob

[vo othervo]
/C=XX/CN=carol
/C=XX/CN=alice

[site alpha]
region = EU
accept_vos = testvo othervo

[ce ce_alpha]
site = alpha
lrms = PBS
flavors = EDG
wn_count = 2
cpu_mhz = 1000
tags = CMS ATLAS-3.2.1 CMS-1.2
close_ses = se_alpha

[se se_alpha]
site = alpha
capacity = 1 GB

[site beta]
region = US
accept_vos = testvo

[ce ce_beta]
site = beta
lrms = LSF
flavors = EDG GLUE
wn_count = 1
cpu_mhz = 2000
tags = CMS
close_ses = se_beta

[se se_beta]
site = beta
capacity = 1 GB

[broker rb_test]
flavor = EDG

[broker rb_glue]
flavor = GLUE

[link site:alpha site:beta]
bandwidth = 20 MB/s
latency = 0.1
"""


def make_mini() -> Grid:
    return Grid(parse_topology(MINI_TOPOLOGY, "<mini>"))


@pytest.fixture
def mini() -> Grid:
    return make_mini()


def watch_matches(grid) -> dict:
    """Job id -> the `MatchResult` of its latest match, on every broker of
    `grid`, as the brokers' match observers see it."""
    results = {}
    for rb in grid.brokers.values():
        rb.match_observers.append(
            lambda record, result: results.__setitem__(record.job_id, result))
    return results


@pytest.fixture
def alice(mini):
    """A valid proxy on the mini grid, installed as the session proxy."""
    return mini.proxy_init("/C=XX/CN=alice", "testvo")


CMKIN_SMALL = """\
Executable = "cmkin";
Requirements = Member("CMS", other.RunTimeEnvironment);
VirtualOrganisation = "testvo";
Events = 50;
JobSeed = 101;
"""


def seeded_mutations(inputs, extra_lines, extra_values, count, seed, end=""):
    """`count` copies of the `inputs` texts, each with 1-3 seeded line
    deletions, insertions of a donor line (any input line or one of
    `extra_lines`) and value swaps (the text after `=` on a line ending
    in `end` becomes any such value or one of `extra_values`)."""
    donors = [line for text in inputs for line in text.splitlines() if line.strip()]
    donors += extra_lines
    values = [line.split("=", 1)[1].strip().removesuffix(end) for line in donors
              if "=" in line and line.rstrip().endswith(end)]
    values += extra_values
    rng = random.Random(seed)
    for _ in range(count):
        lines = rng.choice(inputs).splitlines()
        for _ in range(rng.randint(1, 3)):
            op = rng.randrange(3)
            if op == 0 and lines:
                del lines[rng.randrange(len(lines))]
            elif op == 1:
                lines.insert(rng.randrange(len(lines) + 1), rng.choice(donors))
            else:
                keyed = [i for i, line in enumerate(lines)
                         if "=" in line and line.rstrip().endswith(end)]
                if keyed:
                    i = rng.choice(keyed)
                    lines[i] = lines[i].split("=", 1)[0] + "= " + rng.choice(values) + end
        yield "\n".join(lines) + "\n"


OPERATOR = "/O=grid/OU=datatag/CN=factory operator"

# (submission ms, broker) of the four 50-job requests of `staggered_bulk`:
# the later ones are matched while earlier jobs run between monitor points
STAGGERED = ((0, "rb_pisa"), (37_301, "rb_milano"), (120_017, "rb_pisa"),
             (190_003, "rb_milano"))


def staggered_bulk(grid, per_job=100) -> None:
    """Queue four CMKIN requests of 50 jobs each on the shipped testbed,
    their submissions scheduled at the `STAGGERED` instants."""
    proxy = grid.vo.create_proxy(OPERATOR, "datatag", 0, lifetime_s=1_000_000)
    for n, (at_ms, rb_id) in enumerate(STAGGERED):
        request = grid.refdb.create_request(f"staggered{n}", "CMKIN", 50 * per_job - n,
                                            per_job, rb_id)
        grid.production.declare(request.assignment_id)
        grid.production.create(request.assignment_id)
        grid.kernel.schedule("user-command",
                             partial(grid.production.submit, request.assignment_id, proxy),
                             at_ms)
