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
docstrings, are not counted.  `ALLOWED` names a run by its key: the
qualified name of the function (or class, or module) holding its first
statement, then the text of its statements, so an edit elsewhere in the
file leaves the key as it is.  A run listed there is printed with its
reason; the script exits non-zero when the suite fails, when a run is
unreached that `ALLOWED` does not list, or when a listed run is reached
(or its statements have changed).  It takes about a minute and is not itself collected as a
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

#: unreached runs that stay so, by key (see `run_key`), each with the
#: reason; at most 8
ALLOWED = {
    "cli._say: devnull = os.open(os.devnull, os.O_WRONLY); "
    "os.dup2(devnull, stream.fileno()); os.close(devnull)":
        "`_say` on a closed pipe; `test_cli.py` reaches it only in a child process, "
        "which the tracer does not follow",
    "cli: sys.exit(main())": "the `python -m deskgrid.cli` entry line; reached only in "
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
    """(first, last, lines, scope, text) of each statement of `path` that
    compiles to code, in line order; `lines` are the ones that make it
    reached, `scope` is the qualified name of what holds it (the module's
    own name at the top level) and `text` its lines, stripped and joined."""
    source = path.read_text()
    source_lines = source.splitlines()
    compiled = code_lines(compile(source, str(path), "exec"))
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt):
                first = min([child.lineno]
                            + [d.lineno for d in getattr(child, "decorator_list", ())])
                body = getattr(child, "body", None)
                last = max(child.lineno, body[0].lineno - 1) if body else child.end_lineno
                lines = compiled.intersection(range(first, last + 1))
                if lines:
                    text = " ".join(line.strip() for line in source_lines[first - 1:last])
                    found.append((first, last, lines, scope, text))
                if hasattr(child, "name"):  # a def or a class
                    inner = f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source, str(path)), path.stem)
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


def run_key(run: list) -> str:
    """The key of a run of statements: the scope of its first, then the
    text of each."""
    return f"{run[0][3]}: " + "; ".join(stmt[4] for stmt in run)


def unreached(ran: dict) -> list:
    """(`file:first-last`, statements, key) of each run of statements
    whose lines never ran."""
    out = []

    def close(path, run):
        first, last = run[0][0], run[-1][1]
        span = str(first) if first == last else f"{first}-{last}"
        out.append((f"{path.relative_to(ROOT)}:{span}", len(run), run_key(run)))

    for path in sorted(SRC.glob("*.py")):
        hit, run = ran.get(str(path), set()), []
        for stmt in statements(path):
            if not stmt[2] & hit:
                run.append(stmt)
            elif run:
                close(path, run)
                run = []
        if run:
            close(path, run)
    return out


def census(found: list) -> str:
    """Unreached statements per module, most first."""
    per_module = Counter()
    for run, count, _key in found:
        per_module[pathlib.Path(run.split(":")[0]).stem] += count
    return ", ".join(f"{module} {count}" for module, count in per_module.most_common())


def main(argv: list) -> int:
    if argv == ["--shipped"]:
        code, ran = run_traced(run_shipped)
        found = unreached(ran)
        for run, _count, _key in found:
            print(run)
        print(f"{sum(count for _run, count, _key in found)} statements in {len(found)} runs of "
              f"{SRC.relative_to(ROOT)} no shipped run reaches: {census(found)}")
        return code
    code, ran = run_traced(lambda: run_suite(argv))
    found = unreached(ran)
    for run, _count, key in found:
        print(f"{run}\tallowed: {ALLOWED[key]}" if key in ALLOWED else run)
    keys = {key for _run, _count, key in found}
    new = [key for key in keys if key not in ALLOWED]
    stale = [key for key in ALLOWED if key not in keys]
    for key in stale:
        print(f"{key}\tallowed, but reached or moved")
    print(f"{len(found)} unreached runs of statements in {SRC.relative_to(ROOT)}, "
          f"{len(new)} not allowed; {len(stale)} allowed runs not found")
    return code or int(bool(new or stale))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
