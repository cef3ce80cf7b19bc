"""Print every statement of `src/deskgrid` that no test executes, or that
no shipped run executes.

    python tests/unreached.py [extra pytest arguments]
    python tests/unreached.py --shipped

Runs the test suite in this process under a `sys.settrace` line tracer (no
coverage package), with `tests/test_bench.py` left out, then prints one
`file:line` per unreached statement -- `file:first-last` for a run of
them with no reached statement between.  A simple statement counts as
reached when any of its lines runs, a compound one (`if`, `def`, `try`,
...) when its header does; statements that compile to no code, such as
docstrings, are not counted.  A run listed in `ALLOWED` is printed with
its reason; the script exits non-zero when the suite fails, when a run is
unreached that `ALLOWED` does not list, or when a listed run is reached
(or has moved).  It takes about a minute and is not itself collected as a
test.

`--shipped` traces the program's own traffic instead of the suite: each
shipped scenario through `cli.dispatch(grid, ["exec", ...])`, drained and
followed by the trace export, the BossDb, catalogue and RefDb dumps and
`validate()`; each demo; and each benchmark workload as
`bench/rep.py --trace 0` builds and runs it, at the seed
`bench/digests.json` pins.  It prints what that traffic leaves unreached,
with the count of statements per module, and exits non-zero only when a
run goes wrong (a scenario step fails, `validate()` finds a problem, a
workload misses its pinned digests).  What it lists is code that only the
suite reaches: contract checks, error exits and features no shipped run
uses.
"""
from __future__ import annotations

import ast
import contextlib
import io
import json
import pathlib
import runpy
import sys
import threading
from collections import Counter, defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "deskgrid"

#: unreached runs that stay so, as printed, each with the reason; at most 8
ALLOWED = {
    "src/deskgrid/cli.py:393-395": "`_say` on a closed pipe; `test_cli.py` reaches it "
                                   "only in a child process, which the tracer does not follow",
    "src/deskgrid/cli.py:418": "the `python -m deskgrid.cli` entry line; reached only in "
                               "a child process",
}
assert len(ALLOWED) <= 8

#: what `--shipped` runs, by name: the shipped scenarios, the demos and the
#: benchmark workloads
SCENARIOS = ("bulk200.scn", "production.scn", "validation.scn")
DEMOS = ("broker_audit.py", "mc_chain.py", "quickstart.py")
WORKLOADS = ("bulk_cmkin", "data_chain", "long_events")


def code_lines(code) -> set:
    """The lines any instruction of `code`, or of a code object nested in
    it, is attributed to."""
    lines = {line for _start, _end, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def statements(path: pathlib.Path) -> list:
    """(first, last, lines) of each statement of `path` that compiles to
    code, in line order; `lines` are the ones that make it reached."""
    source = path.read_text()
    compiled = code_lines(compile(source, str(path), "exec"))
    found = []
    for node in ast.walk(ast.parse(source, str(path))):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        lines = compiled.intersection(range(first, last + 1))
        if lines:
            found.append((first, last, lines))
    return sorted(found, key=lambda stmt: stmt[:2])


def run_traced(work) -> "tuple[int, dict]":
    """`work()`'s exit code, and file path -> the lines of `src/deskgrid`
    that ran while it did."""
    prefix = str(SRC) + "/"
    ran = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SRC.parent))
    sys.settrace(enter)
    threading.settrace(enter)
    try:
        code = work()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def run_suite(pytest_args: list) -> int:
    import pytest  # deskgrid is first imported under the tracer

    return pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                        "--ignore", str(ROOT / "tests" / "test_bench.py"),
                        str(ROOT / "tests"), *pytest_args])


def run_shipped() -> int:
    """Run every shipped scenario, demo and benchmark workload; the number
    of them that went wrong."""
    from deskgrid import cli
    from deskgrid.grid import default_topology_path, load_topology

    failed = []
    for name in SCENARIOS:
        grid = load_topology(default_topology_path())
        code, _text = cli.dispatch(grid, ["exec", str(SRC / "data" / "scenarios" / name)])
        grid.kernel.run_to_completion()
        for dump in (grid.kernel.export_trace, grid.bossdb.dump, grid.datagrid.rc.dump,
                     grid.refdb.dump):
            dump()
        if code or grid.validate():
            failed.append(name)
    for name in DEMOS:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")

    sys.path.insert(0, str(ROOT / "bench"))
    import rep

    pins = json.loads((ROOT / "bench" / "digests.json").read_text())
    for name in WORKLOADS:
        result = rep.run(name, pins["seed"], False, None)
        if (result["digests"] != pins["digests"][name] or result["jobs_failed"]
                or result["commands_failed"] or result["checks_failed"]):
            failed.append(name)
    for name in failed:
        print(f"{name}: went wrong", file=sys.stderr)
    return len(failed)


def unreached(ran: dict) -> list:
    """(`file:first-last`, statements) of each run of statements whose
    lines never ran."""
    out = []

    def close(path, run):
        span = str(run[0]) if run[0] == run[1] else f"{run[0]}-{run[1]}"
        out.append((f"{path.relative_to(ROOT)}:{span}", run[2]))

    for path in sorted(SRC.glob("*.py")):
        hit, run = ran.get(str(path), set()), None
        for first, last, lines in statements(path):
            if not lines & hit:
                run = (run[0], last, run[2] + 1) if run else (first, last, 1)
            elif run:
                close(path, run)
                run = None
        if run:
            close(path, run)
    return out


def census(found: list) -> str:
    """Unreached statements per module, most first."""
    per_module = Counter()
    for run, count in found:
        per_module[pathlib.Path(run.split(":")[0]).stem] += count
    return ", ".join(f"{module} {count}" for module, count in per_module.most_common())


def main(argv: list) -> int:
    if argv == ["--shipped"]:
        code, ran = run_traced(run_shipped)
        found = unreached(ran)
        for run, _count in found:
            print(run)
        print(f"{sum(count for _run, count in found)} statements in {len(found)} runs of "
              f"{SRC.relative_to(ROOT)} no shipped run reaches: {census(found)}")
        return code
    code, ran = run_traced(lambda: run_suite(argv))
    found = [run for run, _count in unreached(ran)]
    for run in found:
        print(f"{run}\tallowed: {ALLOWED[run]}" if run in ALLOWED else run)
    new = [run for run in found if run not in ALLOWED]
    stale = [run for run in ALLOWED if run not in found]
    for run in stale:
        print(f"{run}\tallowed, but reached or moved")
    print(f"{len(found)} unreached runs of statements in {SRC.relative_to(ROOT)}, "
          f"{len(new)} not allowed; {len(stale)} allowed runs not found")
    return code or int(bool(new or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
