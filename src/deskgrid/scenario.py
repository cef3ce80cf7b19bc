"""Scenario scripts: timestamped command lines driving one simulation.

A scenario is a text file of

    at <seconds> <command and arguments...>

lines with nondecreasing times.  The runner advances the clock to each
line's time, fires the command through the supplied dispatcher, and stops
at the first failing command.  A scenario line may not `exec` another
scenario.

Each line is split into words by POSIX shell quoting rules, cut down to
what a command line needs (`split_words`; `quote` writes a word back):
words break on space and tab; single quotes are literal; inside double
quotes only `\\"` and `\\\\` are escapes; a backslash outside quotes
escapes the next character; `#` starts a comment, even inside a word;
there is no line continuation.  A plain line, one without quotes,
backslash, `#` or line break, is split on its blanks directly.  Times are
ASCII decimals or ratios (`5`, `0.25`, `1/3`), each run of one time text
read once; a step holds its instant in integer ms and its time text as
written, which `exec` echoes as exact seconds.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from .units import as_pair, to_millis


class ScenarioError(Exception):
    def __init__(self, message: str, path: str = "<scenario>", line: "int | None" = None):
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


_WORD = re.compile(r"""(?:[^ \t\r\n'"\\#]+|'[^']*'|"(?:[^"\\]|\\.)*"|\\.)+""")
# Blanks and words, taken greedily by `match`, which may stop anywhere and
# so never backtracks; the line is valid when they reach its end or a `#`.
# A `fullmatch` would try every split of a run of plain characters before
# an unclosed quote, in time exponential in the run.
_WORDS = re.compile(rf"(?:[ \t\r\n]+|{_WORD.pattern})*")
_QUOTED_PART = re.compile(r"""'([^']*)'|"((?:[^"\\]|\\.)*)"|\\(.)""")
_DOUBLE_QUOTED_ESCAPE = re.compile(r'\\(["\\])')
_SAFE = re.compile(r"[\w@%+=:,./-]+", re.ASCII)


def _unquote_part(match) -> str:
    single, double, escaped = match.groups()
    if single is not None:
        return single
    if double is not None:
        return _DOUBLE_QUOTED_ESCAPE.sub(r"\1", double)
    return escaped


def split_words(line: str) -> list:
    """The words of one line (no line break in it); a `ValueError` for an
    unclosed quote or a trailing escape, with the text `shlex` gives."""
    if not ("'" in line or '"' in line or "\\" in line or "#" in line
            or "\r" in line or "\n" in line):
        return list(filter(None, line.replace("\t", " ").split(" ")))
    end = _WORDS.match(line).end()
    rest = line[end:]
    if rest[:1] not in ("", "#"):
        # `rest` is an unclosed quote, or a lone `\` ending the line; an odd
        # run of `\` ending an unclosed `"` leaves its last one unpaired
        dangling = rest[0] != "'" and (len(rest) - len(rest.rstrip("\\"))) % 2
        raise ValueError("No escaped character" if dangling else "No closing quotation")
    words = _WORD.findall(line, 0, end)
    if "'" in line or '"' in line or "\\" in line:
        words = [_QUOTED_PART.sub(_unquote_part, word) for word in words]
    return words


def quote(word: str) -> str:
    """`word` as `split_words` reads it back: as it is when it holds only
    safe characters, else single-quoted."""
    if _SAFE.fullmatch(word):
        return word
    return "'" + word.replace("'", "'\"'\"'") + "'"


@dataclass(slots=True)
class ScenarioStep:
    line: int
    at_ms: int
    at_text: str
    argv: tuple


def parse_scenario(text: str, path: str = "<scenario>") -> list:
    steps = []
    last_n, last_d, last_text = 0, 1, None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        try:
            words = split_words(raw)
        except ValueError as exc:
            raise ScenarioError(str(exc), path, lineno) from None
        if not words:
            continue
        if words[0] != "at" or len(words) < 3:
            raise ScenarioError("expected: at <seconds> <command...>", path, lineno)
        if words[1] != last_text:
            try:
                n, d = as_pair(words[1])
            except (ValueError, TypeError):
                raise ScenarioError(f"bad time {words[1]!r}", path, lineno) from None
            if n * last_d < last_n * d and words[2] != "exec":  # an `exec` is reported below
                raise ScenarioError(f"time {words[1]} goes backwards", path, lineno)
            last_n, last_d, last_text, at_ms = n, d, words[1], to_millis(n, d)
        if words[2] == "exec":
            raise ScenarioError("exec cannot run inside a scenario", path, lineno)
        steps.append(ScenarioStep(lineno, at_ms, last_text, tuple(words[2:])))
    return steps


def run_scenario(grid, steps, dispatch, base_dir=None) -> list:
    """Runs the clock to each step's instant, in integer ms, and fires its
    command.  Returns (step, code, text) per executed step; execution stops
    after the first step that fails."""
    results = []
    for step in steps:
        grid.kernel.run_to(step.at_ms)
        code, text = dispatch(grid, list(step.argv), base_dir=base_dir)
        results.append((step, code, text))
        if code != 0:
            break
    return results
