"""Shared numeric plumbing: the millisecond time base and binary size units.

Simulated time is kept as non-negative integer milliseconds everywhere
inside the package; seconds (int, float, decimal string or Fraction) are
accepted at the boundaries and converted exactly.  A duration is rounded
once, half-up, and added to the ms clock: for a non-negative duration d,
`now_ms + to_millis(d)` is the instant `to_millis(now_ms / 1000 + d)`.
Inside the package a duration is an unreduced integer ratio, n/per
seconds, and `to_millis(n, per)` rounds it in integers alone.  Sizes are
read exactly by `parse_amount`, with KB/MB/GB meaning the 1024-based
units; stored sizes are integer bytes.
"""
from __future__ import annotations

import re
from fractions import Fraction

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

_SIZE_UNITS = {"B": 1, "KB": KB, "MB": MB, "GB": GB}
_SIZE_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(B|KB|MB|GB)?\s*$")


def as_fraction(value) -> Fraction:
    """Exact rational view of a seconds-like value.

    Floats are read through their decimal repr so that 0.1 means 1/10,
    not the nearest binary double.  A string is read as ASCII only: a
    string holding any other character, or with a zero denominator, is a
    ValueError, like any other malformed string.
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
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as seconds")


def as_int(text: str) -> int:
    """`int(text)` for ASCII text; text holding any other character, such
    as a non-ASCII digit `int` would read, is a ValueError."""
    if not text.isascii():
        raise ValueError(f"not an ASCII number: {text!r}")
    return int(text)


def to_millis(n, per: int = 1) -> int:
    """n/per seconds to integer milliseconds, rounding half-up (toward +inf).

    `per` is a positive int; an int `n` builds no Fraction, any other
    seconds-like `n` is read by `as_fraction`."""
    if type(n) is not int:
        seconds = as_fraction(n)
        n, per = seconds.numerator, seconds.denominator * per
    return (2000 * n + per) // (2 * per)


def millis_to_text(ms: int) -> str:
    """Fixed-point rendering (three decimals) used by traces and tables."""
    sign = "-" if ms < 0 else ""
    ms = abs(ms)
    return f"{sign}{ms // 1000}.{ms % 1000:03d}"


def parse_amount(text: str) -> Fraction:
    """'1.8 MB' / '50 KB' / '1024' -> exact Fraction bytes (binary units)."""
    m = _SIZE_RE.match(text)
    if not m:
        raise ValueError(f"bad size: {text!r}")
    return Fraction(m.group(1)) * _SIZE_UNITS[m.group(2) or "B"]


def parse_size(text: str) -> int:
    """'12 MB' / '50 KB' / '1024' -> integer bytes (binary units)."""
    amount = parse_amount(text)
    if amount.denominator != 1:
        raise ValueError(f"bad size: {text!r} is not a whole number of bytes")
    return int(amount)


def parse_rate(text: str) -> Fraction:
    """'10 MB/s' (or a bare bytes-per-second number) -> Fraction bytes/s."""
    try:
        rate = parse_amount(text.rstrip().removesuffix("/s"))
    except ValueError:
        raise ValueError(f"bad rate: {text!r}") from None
    if rate <= 0:
        raise ValueError(f"bad rate: {text!r} must be positive")
    return rate


def fmt_quantity(value) -> str:
    """Stable one-token rendering of numbers for trace details and tables.

    A trace line (`simcore.exact`) keeps an exact `str` or `int` value as it
    is and holds this text for every other value."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return repr(float(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def fmt_ratio(numerator: int, denominator: int) -> str:
    """`fmt_quantity(Fraction(numerator, denominator))` without building the
    Fraction; int true division is correctly rounded, as `float(Fraction)` is."""
    if numerator % denominator == 0:
        return str(numerator // denominator)
    return repr(numerator / denominator)
