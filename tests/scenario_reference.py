"""The scenario reader as it stood before steps held integer ms, for tests only.

`parse_scenario` here reads each run of one time text to a `Fraction`,
checks the order by comparing Fractions and keeps the Fraction on the step
as `at_s`; its `as_fraction` reads a string as the package's did then.
Both are kept verbatim, so `test_scenario.py` can check that the package
reads every text to the same lines and words, with `at_ms` the instant
`to_millis(at_s)` and the time text's exact seconds equal to `at_s`, or
fails with the same `ScenarioError`.  Word splitting and `ScenarioError`
are the package's own.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from deskgrid.scenario import ScenarioError, split_words

MAX_EXPONENT = 400
_EXPONENT = re.compile(r"[eE]([-+]?[0-9]+(?:_[0-9]+)*)")


def as_fraction(value) -> Fraction:
    """Exact rational view of a seconds-like value.

    Floats are read through their decimal repr so that 0.1 means 1/10,
    not the nearest binary double.  A string is read as ASCII only: a
    string holding any other character, with a zero denominator or with a
    decimal exponent beyond `MAX_EXPONENT` either way, is a ValueError,
    like any other malformed string.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a duration")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        if not value.isascii():
            raise ValueError(f"not an ASCII number: {value!r}")
        if value.isdigit():
            return Fraction(int(value))
        whole, _, part = value.partition(".")
        if whole.isdigit() and part.isdigit():
            scale = 10 ** len(part)
            return Fraction(int(whole) * scale + int(part), scale)
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
            raise ValueError(f"exponent beyond {MAX_EXPONENT} in {value!r}")
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as seconds")


@dataclass(slots=True)
class ScenarioStep:
    line: int
    at_s: Fraction
    argv: tuple


def parse_scenario(text: str, path: str = "<scenario>") -> list:
    steps = []
    last, last_text = Fraction(0), None
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
                at = as_fraction(words[1])
            except (ValueError, TypeError):
                raise ScenarioError(f"bad time {words[1]!r}", path, lineno) from None
            if at < last and words[2] != "exec":  # an `exec` is reported below
                raise ScenarioError(f"time {words[1]} goes backwards", path, lineno)
            last, last_text = at, words[1]
        if words[2] == "exec":
            raise ScenarioError("exec cannot run inside a scenario", path, lineno)
        steps.append(ScenarioStep(lineno, last, tuple(words[2:])))
    return steps
