"""Print every statement of `src/deskgrid` that no test executes.

    python tests/unreached.py [extra pytest arguments]

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
"""
from __future__ import annotations

import ast
import pathlib
import sys
import threading
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "deskgrid"

#: unreached runs that stay so, as printed, each with the reason; at most 8
ALLOWED = {
    "src/deskgrid/cli.py:395-397": "`_say` on a closed pipe; `test_cli.py` reaches it "
                                   "only in a child process, which the tracer does not follow",
    "src/deskgrid/cli.py:420": "the `python -m deskgrid.cli` entry line; reached only in "
                               "a child process",
}
assert len(ALLOWED) <= 8


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


def run_traced(pytest_args: list) -> "tuple[int, dict]":
    """The suite's exit code, and file path -> the lines of it that ran."""
    prefix = str(SRC) + "/"
    ran = defaultdict(set)

    def local(frame, event, _arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def enter(frame, _event, _arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(SRC.parent))
    import pytest  # deskgrid is first imported under the tracer

    sys.settrace(enter)
    threading.settrace(enter)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            "--ignore", str(ROOT / "tests" / "test_bench.py"),
                            str(ROOT / "tests"), *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def unreached(ran: dict) -> list:
    """`file:first-last` runs of statements whose lines never ran."""
    out = []

    def close(path, run):
        span = str(run[0]) if run[0] == run[1] else f"{run[0]}-{run[1]}"
        out.append(f"{path.relative_to(ROOT)}:{span}")

    for path in sorted(SRC.glob("*.py")):
        hit, run = ran.get(str(path), set()), None
        for first, last, lines in statements(path):
            if not lines & hit:
                run = (run[0] if run else first, last)
            elif run:
                close(path, run)
                run = None
        if run:
            close(path, run)
    return out


def main(argv: list) -> int:
    code, ran = run_traced(argv)
    found = unreached(ran)
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
