"""Scenario scripts: timestamped command lines driving one simulation.

A scenario is a text file of

    at <seconds> <command and arguments...>

lines with nondecreasing times (shell-style quoting, `#` comments).  The
runner advances the clock to each line's time, fires the command through
the supplied dispatcher, and stops at the first failing command.  A
scenario line may not `exec` another scenario.
"""
from __future__ import annotations

import shlex
from dataclasses import dataclass
from fractions import Fraction

from .units import as_fraction


class ScenarioError(Exception):
    def __init__(self, message: str, path: str = "<scenario>", line: "int | None" = None):
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class ScenarioStep:
    line: int
    at_s: Fraction
    argv: tuple


def parse_scenario(text: str, path: str = "<scenario>") -> list:
    steps = []
    last = Fraction(0)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            words = shlex.split(raw, comments=True)
        except ValueError as exc:
            raise ScenarioError(str(exc), path, lineno) from None
        if not words:
            continue
        if words[0] != "at" or len(words) < 3:
            raise ScenarioError("expected: at <seconds> <command...>", path, lineno)
        try:
            at = as_fraction(words[1])
        except (ValueError, TypeError):
            raise ScenarioError(f"bad time {words[1]!r}", path, lineno) from None
        if words[2] == "exec":
            raise ScenarioError("exec cannot run inside a scenario", path, lineno)
        if at < last:
            raise ScenarioError(f"time {words[1]} goes backwards", path, lineno)
        last = at
        steps.append(ScenarioStep(lineno, at, tuple(words[2:])))
    return steps


def run_scenario(grid, steps, dispatch, base_dir=None) -> list:
    """Returns (step, code, text) per executed step; execution stops after
    the first step that fails."""
    results = []
    for step in steps:
        grid.kernel.run_until(step.at_s)
        code, text = dispatch(grid, list(step.argv), base_dir=base_dir)
        results.append((step, code, text))
        if code != 0:
            break
    return results
