"""Command front-end.

One process runs one simulation: the topology is loaded, the command (or
a whole scenario via `exec`) runs against it, and the process exits.
Exit codes: 0 success, 1 the operation failed (refused submit, failed
assert, unknown name), 2 bad usage or a broken topology/scenario file.

Each command is declared once, by its usage line, and argv is read by
that same line.  Lowercase words name the command (`a|b` gives
aliases); UPPER words are positionals, and `[X...]` takes any number;
`--opt V` is a required option and `[--opt V]` an optional one.  N, M,
AID and SIZE are read as ASCII ints, and `A|B` is a choice.  A word that
starts with `--` names an option, spelled out in full, and the next
word is its value: `--per` for `--per-job` and `--opt=value` are bad
usage.

Every command is also reachable in-process through `dispatch(grid,
argv)`, which is what scenario files use; a scenario advances the
simulated clock between commands, so `deskgrid exec day1.scn` replays a
whole day of testbed operations deterministically.
"""
from __future__ import annotations

import itertools
import os
import pathlib
import re
import sys
from collections import Counter

from . import broker as broker_mod
from . import datagrid as dg_mod
from . import fabric as fabric_mod
from . import infosys
from . import jdl
from . import production as prod_mod
from . import scenario as scn_mod
from . import vomgmt
from .grid import Grid, default_topology_path, load_topology
from .simcore import PastTime
from .topology import ConfigError
from .units import as_fraction, as_int, millis_to_text


class UsageError(Exception):
    pass


_INTS = ("N", "M", "AID", "SIZE")
# one slot of a usage line: optional bracket, option flag, placeholder
_SLOT = re.compile(r"(\[?)(?:(--[\w-]+) )?([^\s\]]+)\]?")


def _value(holder: str, word, slot: str):
    """`word` given where the usage line has `holder`, as handlers take it."""
    if word is None:
        raise UsageError(f"{slot} needs a value")
    if "|" in holder and word not in holder.split("|"):
        raise UsageError(f"{slot} is one of {holder}, not {word!r}")
    if holder not in _INTS:
        return word
    try:
        return as_int(word)
    except ValueError:
        raise UsageError(f"{slot} is an integer, not {word!r}") from None


class _Command:
    """One command, read from its usage line."""

    def __init__(self, usage: str, handler):
        self.usage, self.handler = usage, handler
        words = usage.split()
        names = list(itertools.takewhile(lambda w: w[0].isalpha() and w.islower(), words))
        self.depth = len(names)
        self.aliases = list(itertools.product(*(name.split("|") for name in names)))
        self.positionals = []  # (placeholder, key)
        self.rest = None       # key of a trailing [X...]
        self.options = {}      # flag -> (placeholder, key)
        self.defaults = {}     # key -> value of an optional option left out
        for bracket, flag, holder in _SLOT.findall(" ".join(words[self.depth:])):
            key = (flag[2:] or holder.split(".")[0]).lower().replace("-", "_")
            if flag:
                self.options[flag] = (holder, key)
                if bracket:
                    self.defaults[key] = None
            elif holder.endswith("..."):
                self.rest = key
            else:
                self.positionals.append((holder, key))

    def read(self, argv) -> dict:
        """The handler's keyword arguments for the words after the name."""
        values = dict(self.defaults)
        loose = []
        words = iter(argv)
        for word in words:
            if not word.startswith("--"):
                loose.append(word)
            elif word in self.options:
                holder, key = self.options[word]
                values[key] = _value(holder, next(words, None), word)
            else:
                raise UsageError(f"unknown option {word}")
        wanted = len(self.positionals)
        if len(loose) < wanted or (len(loose) > wanted and self.rest is None):
            raise UsageError(f"wants {wanted} arguments, got {len(loose)}")
        for (holder, key), word in zip(self.positionals, loose):
            values[key] = _value(holder, word, holder)
        if self.rest is not None:
            values[self.rest] = loose[wanted:]
        for flag, (_holder, key) in self.options.items():
            if key not in values:
                raise UsageError(f"missing {flag}")
        return values


_COMMANDS: dict = {}  # command words, one entry per alias -> _Command


def command(usage: str):
    """Declare the decorated `handler(grid, base_dir, **values)` as the
    command `usage` describes."""
    def declare(handler):
        cmd = _Command(usage, handler)
        for alias in cmd.aliases:
            _COMMANDS[alias] = cmd
        return handler
    return declare


def _usage(prefix: str) -> str:
    return "\n".join(prefix + usage
                     for usage in dict.fromkeys(c.usage for c in _COMMANDS.values()))


def _flush(grid: Grid) -> None:
    # deliver everything scheduled for the current instant before reporting
    grid.kernel.run_until(grid.kernel.now())


def _resolve_input(name: str, base_dir) -> pathlib.Path:
    """`name` in the scenario's directory, or in the working directory
    outside a scenario."""
    path = pathlib.Path(base_dir or "") / name
    if not path.exists():
        raise FileNotFoundError(f"no such file: {name}")
    return path


def dispatch(grid: Grid, argv, base_dir=None):
    """Run one command against a live grid; returns (exit_code, text)."""
    cmd = _COMMANDS.get(tuple(argv[:2])) or _COMMANDS.get(tuple(argv[:1]))
    if cmd is None:
        return 2, "deskgrid: unknown command; the commands are:\n" + _usage("deskgrid ")
    try:
        values = cmd.read(argv[cmd.depth:])
    except UsageError as exc:
        return 2, f"deskgrid: {exc}\nusage: deskgrid {cmd.usage}"
    try:
        code, text = cmd.handler(grid, base_dir, **values)
    except scn_mod.ScenarioError as exc:
        return 2, f"error: {exc}"
    except (broker_mod.BrokerError, jdl.JdlError, vomgmt.VoError,
            dg_mod.DataGridError, prod_mod.ProductionError,
            fabric_mod.FabricError, infosys.InfoSysError, PastTime,
            OSError, ValueError) as exc:
        return 1, f"error: {exc}"
    _flush(grid)
    return code, text


@command("topo load|show")
def _topo_load(grid, base_dir):
    flavors = Counter(f for ce in grid.info.ces.values() for f in ce.schema_flavors)
    lines = [f"sites\t{len(grid.fabric.sites)}", f"ces\t{len(grid.fabric.ces)}"]
    lines += [f"ces[{flavor}]\t{flavors[flavor]}" for flavor in sorted(flavors)]
    lines.append(f"ses\t{len(grid.datagrid.ses)}")
    lines.append(f"brokers\t{len(grid.brokers)}")
    lines.append(f"vos\t{len(grid.vo.vo_names())}")
    return 0, "\n".join(lines)


@command("topo validate")
def _topo_validate(grid, base_dir):
    problems = grid.validate()
    return (1, "\n".join(problems)) if problems else (0, "ok")


@command("vo sync [--site S]")
def _vo_sync(grid, base_dir, site):
    lines = []
    for site_id in [site] if site else sorted(grid.fabric.sites):
        grid.vo.sync_mapfile(site_id)
        lines.append(f"== {site_id}")
        lines.append(grid.vo.mapfile_dump(site_id).rstrip("\n"))
    return 0, "\n".join(lines)


@command("proxy init --user DN --vo VO [--lifetime S]")
def _proxy_init(grid, base_dir, user, vo, lifetime):
    lifetime = None if lifetime is None else as_fraction(lifetime)
    proxy = grid.proxy_init(user, vo, lifetime_s=lifetime)
    return 0, (f"proxy for {proxy.user_dn} vo={proxy.vo_name} "
               f"valid {proxy.lifetime_ms // 1000}s")


@command("submit FILE.jdl --rb RB [--ce CE]")
def _submit(grid, base_dir, file, rb, ce):
    path = _resolve_input(file, base_dir)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read description {path}: {exc}") from None
    job_id = grid.submit(text, rb, pinned_ce=ce)
    _flush(grid)
    _rb, record = grid.find_job(job_id)
    return 0, f"job {job_id} {record.state} ce={record.matched_ce or '-'}"


@command("status [JOB...]")
def _status(grid, base_dir, job):
    if job:
        records = [grid.find_job(job_id)[1] for job_id in job]
    else:
        records = [record for _rb, record in grid.all_jobs()]
    return 0, "\n".join(["job\tstate\tce\treason"] + [
        f"{r.job_id}\t{r.state}\t{r.matched_ce or '-'}\t{r.reason or '-'}" for r in records])


@command("get-output JOB [--dest DIR]")
def _get_output(grid, base_dir, job, dest):
    rb, _record = grid.find_job(job)
    rows = [f"{name}\t{size}\t{mark}" for name, size, mark in rb.get_output(job, dest)]
    return 0, "\n".join(["name\tbytes\tchecksum", *rows, f"cleared {job}"])


@command("rc register|seed LFN SE SIZE")
def _rc_register(grid, base_dir, lfn, se, size):
    lfn = jdl.strip_lfn_prefix(lfn)
    store = grid.datagrid.store_of(se)
    grid.datagrid.put(store, lfn, size, fabric_mod.content_checksum("seed", lfn, 0, size, lfn))
    return 0, f"seeded {lfn} on {se} ({size} bytes)"


@command("rc lookup LFN")
def _rc_lookup(grid, base_dir, lfn):
    return 0, "\n".join(f"{se_id}\t{path}" for se_id, path in grid.datagrid.lookup(lfn))


@command("rc replicate LFN SE")
def _rc_replicate(grid, base_dir, lfn, se):
    if grid.datagrid.replicate(lfn, se) is None:
        return 0, f"{lfn} already held on {se}"
    return 0, f"replicating {lfn} to {se}"


@command("rc dump")
def _rc_dump(grid, base_dir):
    return 0, grid.datagrid.rc.dump().rstrip("\n")


@command(f"refdb request --dataset D --step {'|'.join(prod_mod.STEPS)} --events N "
         "--per-job M --rb RB [--se SE]")
def _refdb_request(grid, base_dir, dataset, step, events, per_job, rb, se):
    request = grid.refdb.create_request(dataset, step, events, per_job, rb, default_se=se)
    return 0, (f"assignment {request.assignment_id} {request.dataset} "
               f"{request.step} jobs={request.job_count}")


@command("refdb summary AID")
def _refdb_summary(grid, base_dir, aid):
    summary = grid.production.post_summary(aid)
    lines = [f"assignment {aid} {grid.refdb.get(aid).status}",
             f"jobs_ok\t{summary['jobs_ok']}",
             f"jobs_failed\t{summary['jobs_failed']}",
             f"events_done\t{summary['total_events_done']}"]
    lines += [f"lfn\t{lfn}" for lfn in summary["lfns"]]
    return 0, "\n".join(lines)


@command("refdb dump")
def _refdb_dump(grid, base_dir):
    return 0, grid.refdb.dump().rstrip("\n")


@command("impala declare AID")
def _impala_declare(grid, base_dir, aid):
    grid.production.declare(aid)
    return 0, f"assignment {aid} declared jobs={grid.refdb.get(aid).job_count}"


@command("impala create AID")
def _impala_create(grid, base_dir, aid):
    grid.production.create(aid)
    return 0, f"assignment {aid} created jobs={grid.refdb.get(aid).job_count}"


@command("impala submit AID")
def _impala_submit(grid, base_dir, aid):
    if grid.current_proxy is None:
        return 1, "error: no proxy; run proxy init first"
    boss_ids = grid.production.submit(aid, grid.current_proxy)
    _flush(grid)
    return 0, (f"assignment {aid} submitted jobs={len(boss_ids)} "
               f"boss={boss_ids[0]}..{boss_ids[-1]}")


@command("boss query [--status S] [--type T] [--dataset D]")
def _boss_query(grid, base_dir, **filters):
    rows = grid.bossdb.query(status=filters["status"], job_type=filters["type"],
                             dataset=filters["dataset"])
    return 0, grid.bossdb.dump(rows).rstrip("\n")


@command("run [--until SECONDS]")
def _run(grid, base_dir, until):
    kernel = grid.kernel
    delivered = (kernel.run_to_completion() if until is None
                 else kernel.run_until(as_fraction(until)))
    return 0, f"delivered {delivered} events, now {millis_to_text(kernel.now_ms)}"


@command("report")
def _report(grid, base_dir):
    report = grid.report()
    lines = [f"{state}\t{report['by_state'][state]}" for state in sorted(report["by_state"])]
    lines.append(f"total\t{report['total']}")
    for site_id in sorted(report["by_site"]):
        states = report["by_site"][site_id]
        if states:
            cells = " ".join(f"{s}={states[s]}" for s in sorted(states))
            lines.append(f"site {site_id}\t{cells}")
    return 0, "\n".join(lines)


@command("trace export PATH")
def _trace_export(grid, base_dir, path):
    text = grid.kernel.export_trace()
    pathlib.Path(path).write_text(text)
    count = text.count("\n")
    return 0, f"wrote {count} trace lines to {path}"


@command("assert job-state JOB STATE")
def _assert_job_state(grid, base_dir, job, state):
    _rb, record = grid.find_job(job)
    if record.state != state:
        return 1, f"assert failed: {job} is {record.state}, wanted {state}"
    return 0, f"{job} is {state}"


@command("assert refdb-status AID STATUS")
def _assert_refdb_status(grid, base_dir, aid, status):
    request = grid.refdb.get(aid)
    if request.status != status:
        return 1, f"assert failed: assignment {aid} is {request.status}, wanted {status}"
    return 0, f"assignment {aid} is {status}"


@command("exec SCENARIO.scn")
def _exec(grid, base_dir, scenario):
    try:
        path = _resolve_input(scenario, base_dir)
    except FileNotFoundError:
        raise scn_mod.ScenarioError("no such file", scenario) from None
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise scn_mod.ScenarioError(f"cannot read scenario: {exc}", str(path)) from None
    steps = scn_mod.parse_scenario(text, str(path))
    lines, code = [], 0
    for step, code, text in scn_mod.run_scenario(grid, steps, dispatch,
                                                 base_dir=path.parent):
        lines.append(f"-- at {step.at_s} {' '.join(map(scn_mod.quote, step.argv))}")
        if text:
            lines.append(text)
    return code, "\n".join(lines)


@command("help")
def _help(grid, base_dir):
    return 0, _usage("deskgrid ")


def _say(text: str, stream) -> None:
    """Print `text` to `stream`, quietly when its reader has gone: what is
    still buffered then goes nowhere, so the flush at exit raises nothing
    and the command's exit code stands."""
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    topo = None
    if len(argv) > 1 and argv[0] == "--topo":
        topo, argv = argv[1], argv[2:]
    if not argv:
        _say("deskgrid [--topo FILE] COMMAND...\n" + _usage("  "), sys.stderr)
        return 2
    try:
        grid = load_topology(topo or default_topology_path())
    except ConfigError as exc:
        _say(f"error: {exc}", sys.stderr)
        return 2
    code, text = dispatch(grid, argv)
    if text:
        _say(text, sys.stderr if code else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
