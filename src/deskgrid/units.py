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

Number text is read in integers: a plain ASCII decimal such as `0.05` or
`1.8` is its digits over a power of ten, the one form sizes and rates take.
Seconds text has one reader with two views, `as_pair`'s exact integer pair
(which a scenario step rounds once to ms) and `as_fraction`'s Fraction; any
other text (a sign, spaces, `_`, an exponent, `/`, `1.` or `.5`) is read by
one `Fraction`, after the exponent bound.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

_SIZE_UNITS = {"B": 1, "KB": KB, "MB": MB, "GB": GB}
_SIZE_RE = re.compile(r"^\s*([0-9]+)(?:\.([0-9]+))?\s*(B|KB|MB|GB)?\s*$")
# A decimal exponent past this bound is refused: `1e10000000` would build a
# ten-million-digit integer.  Every float repr, `5e-324` to `1.8e308`, fits.
MAX_EXPONENT = 400
_EXPONENT = re.compile(r"[eE]([-+]?[0-9]+(?:_[0-9]+)*)")


def as_fraction(value) -> Fraction:
    """Exact rational view of a seconds-like value: a float is read through
    its decimal repr, so that 0.1 means 1/10.  Non-ASCII or malformed text, a
    zero denominator or an exponent beyond `MAX_EXPONENT` is a ValueError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("boolean is not a duration")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if not isinstance(value, str):
        raise TypeError(f"cannot interpret {value!r} as seconds")
    if pair := _plain(value):
        return Fraction(*pair)
    if not value.isascii():
        raise ValueError(f"not an ASCII number: {value!r}")
    exponent = _EXPONENT.search(value)
    if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
        raise ValueError(f"exponent beyond {MAX_EXPONENT} in {value!r}")
    try:
        return Fraction(value.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


def as_pair(text: str) -> tuple:
    """`text`'s exact seconds as an int pair (n, d), d > 0, or `as_fraction`'s error."""
    return _plain(text) or as_fraction(text).as_integer_ratio()


def _plain(text: str) -> "tuple | None":
    """A plain ASCII decimal's digits over a power of ten, (n, d), else None."""
    whole, dot, part = text.partition(".")
    if text.isascii() and whole.isdigit() and (part.isdigit() or not dot):
        scale = 10 ** len(part)
        return int(whole) * scale + int(part or 0), scale


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


def _amount(text: str) -> tuple:
    """'1.8 MB' -> (18 * MB, 10): bytes as an unreduced pair of ints."""
    m = _SIZE_RE.match(text)
    if not m:
        raise ValueError(f"bad size: {text!r}")
    whole, part, unit = m.groups(default="")
    scale = 10 ** len(part)
    return (int(whole) * scale + int(part or 0)) * _SIZE_UNITS[unit or "B"], scale


def parse_amount(text: str) -> Fraction:
    """'1.8 MB' / '50 KB' / '1024' -> exact Fraction bytes (binary units)."""
    return Fraction(*_amount(text))


def parse_size(text: str) -> int:
    """'12 MB' / '50 KB' / '1024' -> integer bytes (binary units)."""
    n, scale = _amount(text)
    if n % scale:
        raise ValueError(f"bad size: {text!r} is not a whole number of bytes")
    return n // scale


def parse_rate(text: str) -> Fraction:
    """'10 MB/s' (or a bare bytes-per-second number) -> Fraction bytes/s."""
    try:
        n, scale = _amount(text.rstrip().removesuffix("/s"))
    except ValueError:
        raise ValueError(f"bad rate: {text!r}") from None
    if not n:
        raise ValueError(f"bad rate: {text!r} must be positive")
    return Fraction(n, scale)


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


@lru_cache(maxsize=4096)
def fmt_ratio(numerator: int, denominator: int) -> str:
    """`fmt_quantity(Fraction(numerator, denominator))` without building the
    Fraction; int true division is correctly rounded, as `float(Fraction)` is.
    A run repeats few pairs, so texts are memoised, bounded at 4,096 (LRU)."""
    if numerator % denominator == 0:
        return str(numerator // denominator)
    return repr(numerator / denominator)
