"""Command front-end.

One process runs one simulation: the topology is loaded, the command (or
a whole scenario via `exec`) runs against it, and the process exits.
Exit codes: 0 success, 1 the operation failed (refused submit, failed
assert, unknown name), 2 bad usage or a broken topology/scenario file.

Every command is also reachable in-process through `dispatch(grid,
argv)`, which is what scenario files use; a scenario advances the
simulated clock between commands, so `deskgrid exec day1.scn` replays a
whole day of testbed operations deterministically.
"""
from __future__ import annotations

import argparse
import pathlib
import sys

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
from .units import as_fraction, millis_to_text


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems instead of exiting the process."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")

    def exit(self, status=0, message=None):
        raise UsageError((message or "").strip())


def _build_parser() -> _Parser:
    top = _Parser(prog="deskgrid", add_help=False)
    sub = top.add_subparsers(dest="command", required=True)

    topo = sub.add_parser("topo", add_help=False)
    topo_sub = topo.add_subparsers(dest="topo_command", required=True)
    topo_sub.add_parser("load", add_help=False, aliases=["show"])
    topo_sub.add_parser("validate", add_help=False)

    vo = sub.add_parser("vo", add_help=False)
    vo_sub = vo.add_subparsers(dest="vo_command", required=True)
    vo_sync = vo_sub.add_parser("sync", add_help=False)
    vo_sync.add_argument("--site")

    proxy = sub.add_parser("proxy", add_help=False)
    proxy_sub = proxy.add_subparsers(dest="proxy_command", required=True)
    proxy_init = proxy_sub.add_parser("init", add_help=False)
    proxy_init.add_argument("--user", required=True)
    proxy_init.add_argument("--vo", required=True)
    proxy_init.add_argument("--lifetime", type=str, default=None)

    submit = sub.add_parser("submit", add_help=False)
    submit.add_argument("jdl_file")
    submit.add_argument("--rb", required=True)
    submit.add_argument("--ce", default=None)

    status = sub.add_parser("status", add_help=False)
    status.add_argument("jobs", nargs="*")

    out = sub.add_parser("get-output", add_help=False)
    out.add_argument("job")
    out.add_argument("--dest", default=None)

    rc = sub.add_parser("rc", add_help=False)
    rc_sub = rc.add_subparsers(dest="rc_command", required=True)
    seed = rc_sub.add_parser("register", add_help=False, aliases=["seed"])
    seed.add_argument("lfn")
    seed.add_argument("se")
    seed.add_argument("size", type=int)
    look = rc_sub.add_parser("lookup", add_help=False)
    look.add_argument("lfn")
    rep = rc_sub.add_parser("replicate", add_help=False)
    rep.add_argument("lfn")
    rep.add_argument("se")
    rc_sub.add_parser("dump", add_help=False)

    refdb = sub.add_parser("refdb", add_help=False)
    refdb_sub = refdb.add_subparsers(dest="refdb_command", required=True)
    req = refdb_sub.add_parser("request", add_help=False)
    req.add_argument("--dataset", required=True)
    req.add_argument("--step", required=True, choices=prod_mod.STEPS)
    req.add_argument("--events", required=True, type=int)
    req.add_argument("--per-job", required=True, type=int)
    req.add_argument("--rb", required=True)
    req.add_argument("--se", default=None)
    summ = refdb_sub.add_parser("summary", add_help=False)
    summ.add_argument("assignment", type=int)
    refdb_sub.add_parser("dump", add_help=False)

    impala = sub.add_parser("impala", add_help=False)
    impala_sub = impala.add_subparsers(dest="impala_command", required=True)
    for step_name in ("declare", "create", "submit"):
        one = impala_sub.add_parser(step_name, add_help=False)
        one.add_argument("assignment", type=int)

    boss = sub.add_parser("boss", add_help=False)
    boss_sub = boss.add_subparsers(dest="boss_command", required=True)
    query = boss_sub.add_parser("query", add_help=False)
    query.add_argument("--status", default=None)
    query.add_argument("--type", dest="job_type", default=None)
    query.add_argument("--dataset", default=None)

    run = sub.add_parser("run", add_help=False)
    run.add_argument("--until", default=None)

    sub.add_parser("report", add_help=False)

    trace = sub.add_parser("trace", add_help=False)
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser("export", add_help=False)
    export.add_argument("path")

    check = sub.add_parser("assert", add_help=False)
    check_sub = check.add_subparsers(dest="assert_command", required=True)
    job_state = check_sub.add_parser("job-state", add_help=False)
    job_state.add_argument("job")
    job_state.add_argument("state")
    refdb_status = check_sub.add_parser("refdb-status", add_help=False)
    refdb_status.add_argument("assignment", type=int)
    refdb_status.add_argument("status")

    ex = sub.add_parser("exec", add_help=False)
    ex.add_argument("scenario")

    sub.add_parser("help", add_help=False)
    return top


_PARSER = _build_parser()  # parse_args keeps no state between calls

_COMMANDS = ("topo load|validate", "vo sync [--site S]",
             "proxy init --user DN --vo VO [--lifetime S]",
             "submit FILE.jdl --rb RB [--ce CE]", "status [JOB...]",
             "get-output JOB [--dest DIR]",
             "rc register LFN SE SIZE | lookup LFN | replicate LFN SE | dump",
             "refdb request --dataset D --step S --events N --per-job M --rb RB [--se SE]",
             "refdb summary AID | dump",
             "impala declare|create|submit AID",
             "boss query [--status S] [--type T] [--dataset D]",
             "run [--until SECONDS]", "report", "trace export PATH",
             "assert job-state JOB STATE | refdb-status AID STATUS",
             "exec SCENARIO.scn")


def _flush(grid: Grid) -> None:
    # deliver everything scheduled for the current instant before reporting
    grid.kernel.run_until(grid.kernel.now())


def _resolve_input(name: str, base_dir) -> pathlib.Path:
    p = pathlib.Path(name)
    if p.exists():
        return p
    if base_dir is not None:
        q = pathlib.Path(base_dir) / name
        if q.exists():
            return q
    raise FileNotFoundError(f"no such file: {name}")


def _job_line(record) -> str:
    ce = record.matched_ce or "-"
    reason = record.reason or "-"
    return f"{record.job_id}\t{record.state}\t{ce}\t{reason}"


def dispatch(grid: Grid, argv, base_dir=None):
    """Run one command against a live grid; returns (exit_code, text)."""
    try:
        args = _PARSER.parse_args(argv)
    except UsageError as exc:
        return 2, str(exc)
    try:
        code, text = _run_command(grid, args, base_dir)
    except scn_mod.ScenarioError as exc:
        return 2, f"error: {exc}"
    except (broker_mod.BrokerError, jdl.JdlError, vomgmt.VoError,
            dg_mod.DataGridError, prod_mod.ProductionError,
            fabric_mod.FabricError, infosys.InfoSysError, PastTime,
            OSError, ValueError) as exc:
        return 1, f"error: {exc}"
    _flush(grid)
    return code, text


def _run_command(grid: Grid, args, base_dir):
    kernel = grid.kernel
    lines: list[str] = []

    if args.command == "help":
        return 0, "\n".join("deskgrid " + c for c in _COMMANDS)

    if args.command == "topo":
        if args.topo_command in ("load", "show"):
            flavors: dict[str, int] = {}
            for ce in grid.info.ces.values():
                for flavor in ce.schema_flavors:
                    flavors[flavor] = flavors.get(flavor, 0) + 1
            lines.append(f"sites\t{len(grid.fabric.sites)}")
            lines.append(f"ces\t{len(grid.fabric.ces)}")
            for flavor in sorted(flavors):
                lines.append(f"ces[{flavor}]\t{flavors[flavor]}")
            lines.append(f"ses\t{len(grid.datagrid.ses)}")
            lines.append(f"brokers\t{len(grid.brokers)}")
            lines.append(f"vos\t{len(grid.vo.vo_names())}")
            return 0, "\n".join(lines)
        problems = grid.validate()
        if problems:
            return 1, "\n".join(problems)
        return 0, "ok"

    if args.command == "vo":
        sites = [args.site] if args.site else sorted(grid.fabric.sites)
        for site_id in sites:
            grid.vo.sync_mapfile(site_id)
            lines.append(f"== {site_id}")
            lines.append(grid.vo.mapfile_dump(site_id).rstrip("\n"))
        return 0, "\n".join(lines)

    if args.command == "proxy":
        lifetime = None if args.lifetime is None else as_fraction(args.lifetime)
        proxy = grid.proxy_init(args.user, args.vo, lifetime_s=lifetime)
        valid = proxy.lifetime_ms // 1000
        return 0, f"proxy for {proxy.user_dn} vo={proxy.vo_name} valid {valid}s"

    if args.command == "submit":
        text = _resolve_input(args.jdl_file, base_dir).read_text()
        job_id = grid.submit(text, args.rb, pinned_ce=args.ce)
        _flush(grid)
        _rb, record = grid.find_job(job_id)
        return 0, f"job {job_id} {record.state} ce={record.matched_ce or '-'}"

    if args.command == "status":
        lines.append("job\tstate\tce\treason")
        if args.jobs:
            for job_id in args.jobs:
                _rb, record = grid.find_job(job_id)
                lines.append(_job_line(record))
        else:
            for _rb, record in grid.all_jobs():
                lines.append(_job_line(record))
        return 0, "\n".join(lines)

    if args.command == "get-output":
        rb, _record = grid.find_job(args.job)
        manifest = rb.get_output(args.job, dest_dir=args.dest)
        lines.append("name\tbytes\tchecksum")
        lines += [f"{name}\t{size}\t{mark}" for name, size, mark in manifest]
        lines.append(f"cleared {args.job}")
        return 0, "\n".join(lines)

    if args.command == "rc":
        rc = grid.datagrid.rc
        if args.rc_command in ("register", "seed"):
            lfn = jdl.strip_lfn_prefix(args.lfn)
            store = grid.datagrid.store_of(args.se)
            mark = fabric_mod.content_checksum("seed", lfn, 0, args.size, lfn)
            store.store(lfn, args.size, mark)
            rc.register(lfn, store, lfn)
            return 0, f"seeded {lfn} on {args.se} ({args.size} bytes)"
        if args.rc_command == "lookup":
            for se_id, path in grid.datagrid.lookup(args.lfn):
                lines.append(f"{se_id}\t{path}")
            return 0, "\n".join(lines)
        if args.rc_command == "replicate":
            event = grid.datagrid.replicate(args.lfn, args.se)
            if event is None:
                return 0, f"{args.lfn} already held on {args.se}"
            return 0, f"replicating {args.lfn} to {args.se}"
        return 0, rc.dump().rstrip("\n")

    if args.command == "refdb":
        if args.refdb_command == "request":
            request = grid.refdb.create_request(args.dataset, args.step,
                                                args.events, args.per_job,
                                                args.rb, default_se=args.se)
            return 0, (f"assignment {request.assignment_id} {request.dataset} "
                       f"{request.step} jobs={request.job_count}")
        if args.refdb_command == "summary":
            summary = grid.production.post_summary(args.assignment)
            request = grid.refdb.get(args.assignment)
            lines.append(f"assignment {args.assignment} {request.status}")
            lines.append(f"jobs_ok\t{summary['jobs_ok']}")
            lines.append(f"jobs_failed\t{summary['jobs_failed']}")
            lines.append(f"events_done\t{summary['total_events_done']}")
            lines += [f"lfn\t{lfn}" for lfn in summary["lfns"]]
            return 0, "\n".join(lines)
        return 0, grid.refdb.dump().rstrip("\n")

    if args.command == "impala":
        aid = args.assignment
        if args.impala_command == "declare":
            workspace = grid.production.declare(aid)
            return 0, f"assignment {aid} declared jobs={len(workspace['jobs'])}"
        if args.impala_command == "create":
            descriptions = grid.production.create(aid)
            return 0, f"assignment {aid} created jobs={len(descriptions)}"
        if grid.current_proxy is None:
            return 1, "error: no proxy; run proxy init first"
        boss_ids = grid.production.submit(aid, grid.current_proxy)
        _flush(grid)
        return 0, (f"assignment {aid} submitted jobs={len(boss_ids)} "
                   f"boss={boss_ids[0]}..{boss_ids[-1]}")

    if args.command == "boss":
        rows = grid.bossdb.query(status=args.status, job_type=args.job_type,
                                 dataset=args.dataset)
        return 0, grid.bossdb.dump(rows).rstrip("\n")

    if args.command == "run":
        if args.until is not None:
            delivered = kernel.run_until(as_fraction(args.until))
        else:
            delivered = kernel.run_to_completion()
        return 0, f"delivered {delivered} events, now {millis_to_text(kernel.now_ms)}"

    if args.command == "report":
        report = grid.report()
        for state in sorted(report["by_state"]):
            lines.append(f"{state}\t{report['by_state'][state]}")
        lines.append(f"total\t{report['total']}")
        for site_id in sorted(report["by_site"]):
            states = report["by_site"][site_id]
            if not states:
                continue
            cells = " ".join(f"{s}={states[s]}" for s in sorted(states))
            lines.append(f"site {site_id}\t{cells}")
        return 0, "\n".join(lines)

    if args.command == "trace":
        text = grid.kernel.export_trace()
        pathlib.Path(args.path).write_text(text)
        count = text.count("\n")
        return 0, f"wrote {count} trace lines to {args.path}"

    if args.command == "assert":
        if args.assert_command == "job-state":
            _rb, record = grid.find_job(args.job)
            if record.state != args.state:
                return 1, (f"assert failed: {args.job} is {record.state}, "
                           f"wanted {args.state}")
            return 0, f"{args.job} is {args.state}"
        request = grid.refdb.get(args.assignment)
        if request.status != args.status:
            return 1, (f"assert failed: assignment {args.assignment} is "
                       f"{request.status}, wanted {args.status}")
        return 0, f"assignment {args.assignment} is {args.status}"

    if args.command == "exec":
        path = _resolve_input(args.scenario, base_dir)
        steps = scn_mod.parse_scenario(path.read_text(), str(path))
        results = scn_mod.run_scenario(grid, steps, dispatch,
                                       base_dir=path.parent)
        code = 0
        for step, step_code, text in results:
            lines.append(f"-- at {step.at_s} {' '.join(step.argv)}")
            if text:
                lines.append(text)
            code = step_code
        return code, "\n".join(lines)

    return 2, f"unknown command {args.command!r}"


def main(argv=None) -> int:
    top = _Parser(prog="deskgrid", add_help=False)
    top.add_argument("--topo", default=None)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument("rest", nargs=argparse.REMAINDER)
    try:
        args = top.parse_args(argv)
        if not args.rest:
            raise UsageError("deskgrid [--topo FILE] [--seed N] COMMAND...\n"
                             + "\n".join("  " + c for c in _COMMANDS))
        topo_path = args.topo or default_topology_path()
        grid = load_topology(topo_path, seed=args.seed)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    code, text = dispatch(grid, args.rest)
    if text:
        print(text, file=sys.stderr if code else sys.stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
