import cProfile
import math
import pstats
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskgrid import units
from deskgrid.units import (GB, KB, MB, as_fraction, as_int, fmt_quantity, fmt_ratio,
                            millis_to_text, parse_amount, parse_rate,
                            parse_size, to_millis)

import topology_reference


def test_as_fraction_reads_floats_by_decimal_repr():
    assert as_fraction(0.1) == Fraction(1, 10)
    assert as_fraction("0.1") == Fraction(1, 10)
    assert as_fraction(3) == Fraction(3)
    assert as_fraction(Fraction(7, 2)) == Fraction(7, 2)


def test_as_fraction_rejects_bools_and_junk():
    with pytest.raises(TypeError):
        as_fraction(True)
    with pytest.raises(TypeError):
        as_fraction(object())


def test_as_fraction_reads_ascii_strings_only():
    for text in ("٣", "١/٣", "3 ", "  3", "²"):
        with pytest.raises(ValueError, match="not an ASCII number"):
            as_fraction(text)
    assert as_fraction("1_000") == as_fraction("1e3") == 1000
    assert as_fraction("+5") == as_fraction(" 5 ") == as_fraction("0005") == 5
    assert as_fraction("1/3") == Fraction(1, 3)
    assert as_fraction("-0.25") == Fraction(-1, 4)
    for text in ("", " ", "5 5", "1/0"):
        with pytest.raises(ValueError):
            as_fraction(text)


def test_as_fraction_refuses_a_decimal_exponent_beyond_the_bound():
    assert as_fraction("1e400") == as_fraction("1E+4_00") == 10**400
    assert as_fraction("1e-400") == as_fraction(" 1.0e-0400 ") == Fraction(1, 10**400)
    assert as_fraction("1e3") == 1000
    # `10**10000000` alone takes seconds to build; the refusal reads the text
    for text in ("1e401", "1e-401", "1E+401", "1e4_01", "2.5e10000000", "-1e3000000"):
        with pytest.raises(ValueError, match=r"^exponent beyond 400 in "):
            as_fraction(text)


def fractions_built(read, text) -> int:
    """`Fraction.__new__` calls made by `read(text)`, profiled."""
    profile = cProfile.Profile()
    profile.runcall(read, text)
    return sum(calls for (path, _line, name), (_cc, calls, *_rest)
               in pstats.Stats(profile).stats.items()
               if name == "__new__" and path.endswith("fractions.py"))


@pytest.mark.parametrize("text", ["1/3", "+1.5", "1e3", " 7 ", "1_000", "1.", ".5", "0.05", "12"])
def test_seconds_text_builds_at_most_one_fraction(text):
    """`as_fraction` builds one Fraction for any text; `as_pair` builds one
    only for text that is not a plain decimal, and none for a plain one."""
    plain = text in ("0.05", "12")
    assert fractions_built(as_fraction, text) == 1
    assert fractions_built(units.as_pair, text) == (0 if plain else 1)
    assert Fraction(*units.as_pair(text)) == as_fraction(text) == Fraction(text.strip())


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
@example(-1e-300)
def test_as_fraction_reads_every_float_repr_inside_the_exponent_bound(x):
    assert as_fraction(repr(x)) == as_fraction(x) == Fraction(repr(x))


def test_as_int_reads_ascii_strings_only():
    for text in ("\u0663", "\u0661\u0660", "\u00b2"):
        with pytest.raises(ValueError, match="not an ASCII number"):
            as_int(text)
    assert as_int("-5") == -5
    assert as_int("+5") == as_int(" 5 ") == as_int("0005") == 5
    for text in ("", "5.0", "1/3", "five"):
        with pytest.raises(ValueError):
            as_int(text)


def test_to_millis_rounds_half_up():
    assert to_millis(Fraction(1, 3)) == 333       # 333.33.. -> down
    assert to_millis(Fraction(2, 3)) == 667       # 666.66.. -> up
    assert to_millis("0.0005") == 1               # exactly half -> up
    assert to_millis("0.0004") == 0
    assert to_millis(2) == 2000


def test_to_millis_rounds_negatives_half_up_too():
    assert to_millis(-1) == -1000
    assert to_millis("-0.0005") == 0              # exactly half -> up
    assert to_millis("-0.0015") == -1
    assert to_millis("-0.9995") == -999
    assert to_millis("-0.0006") == -1


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-2**200, max_value=2**200),
       st.integers(min_value=1, max_value=2**200))
@example(1, 2000)                # exactly half a ms -> up
@example(-1, 2000)               # exactly minus half a ms -> up, to 0
@example(6, 12000)               # unreduced half a ms
@example(2**64 + 1, 2**64)       # past 2**64
def test_to_millis_of_a_pair_rounds_the_ratio_half_up(n, per):
    assert to_millis(n, per) == math.floor(Fraction(n, per) * 1000 + Fraction(1, 2))


def test_to_millis_reads_a_non_int_numerator_exactly():
    assert to_millis("0.0015", 3) == 1            # 0.5 ms -> up
    assert to_millis(Fraction(1, 2), 1000) == 1   # 0.5 ms -> up
    assert to_millis(0.1, 4) == 25
    with pytest.raises(TypeError):
        to_millis(True, 2)


def test_millis_to_text_fixed_point():
    assert millis_to_text(0) == "0.000"
    assert millis_to_text(150) == "0.150"
    assert millis_to_text(43750_000) == "43750.000"
    assert millis_to_text(-75) == "-0.075"


def test_parse_size_binary_units():
    assert parse_size("1024") == 1024
    assert parse_size("50 KB") == 50 * KB
    assert parse_size("12 MB") == 12 * MB
    assert parse_size("10 GB") == 10 * GB
    assert parse_size("1.5 KB") == 1536


def test_parse_size_rejects_rates_and_fractional_bytes():
    with pytest.raises(ValueError):
        parse_size("10 MB/s")
    with pytest.raises(ValueError):
        parse_size("0.3 B")
    with pytest.raises(ValueError):
        parse_size("fast")


def test_parse_amount_is_exact_and_strict():
    assert parse_amount("1.8 MB") == Fraction(9, 5) * MB
    assert parse_amount("0.3 B") == Fraction(3, 10)
    assert parse_amount("1.5 KB") == 1536
    for text in ("1.2.3 MB", ". KB", "10 MB/s", "", "MB"):
        with pytest.raises(ValueError):
            parse_amount(text)


def test_parse_rate():
    assert parse_rate("10 MB/s") == Fraction(10 * MB)
    assert parse_rate("2048") == Fraction(2048)
    assert parse_rate("1.5 KB /s") == Fraction(1536)
    with pytest.raises(ValueError):
        parse_rate("0 MB/s")
    with pytest.raises(ValueError, match=r"^bad rate: '10 MB/s/s'$"):
        parse_rate("10 MB/s/s")


def test_fmt_quantity_stable_tokens():
    assert fmt_quantity(None) == "-"
    assert fmt_quantity(True) == "true"
    assert fmt_quantity(False) == "false"
    assert fmt_quantity(Fraction(4, 2)) == "2"
    assert fmt_quantity(Fraction(125, 2)) == "62.5"
    assert fmt_quantity(3) == "3"
    assert fmt_quantity("x") == "x"


@settings(max_examples=500, deadline=None)
@given(st.integers(min_value=-2**200, max_value=2**200),
       st.integers(min_value=1, max_value=2**200))
@example(0, 7)
@example(-25, 2)
@example(-91, 20000)
@example(2**64 + 1, 2**64)      # just above 1: rounds to 1.0, not the int 1
@example(-(3 * 2**70), 3)        # divisible: an exact int beyond 2**64
@example(10**17 + 1, 10)         # no double holds it exactly
def test_fmt_ratio_renders_like_the_fraction(numerator, denominator):
    text = fmt_ratio(numerator, denominator)
    assert text == fmt_quantity(Fraction(numerator, denominator))
    assert fmt_ratio(numerator, denominator) == text  # a repeated pair, from the memo


# -- the number readers against the `Fraction(text)` route ----------------

NUMBER_PARTS = st.sampled_from(
    ["", "0", "1", "5", "00", "10", "007", ".", ".", "_", "+", "-", "e", "E", "/", " ", "\t",
     "\u0661", "\u0665", "\u00a0", "400", "401", "e400", "e-401", "1" * 40, "B", " KB",
     "MB", " GB", "/s", " /s"])


def reader_outcome(read, text):
    try:
        value = read(text)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return type(value), value


@pytest.mark.parametrize("name", ["as_fraction", "parse_amount", "parse_size", "parse_rate"])
@settings(max_examples=300, deadline=None)
@given(text=st.lists(NUMBER_PARTS, max_size=7).map("".join))
@example(text="1.")
@example(text=".5")
@example(text="00.10")
@example(text="1_000")
@example(text="1_000.5")
@example(text="+1.5")
@example(text=" 1.5 ")
@example(text="1.5\n")
@example(text="0." + "0123456789" * 30)
@example(text="1" * 3000 + "." + "1" * 3000)   # each part, not the two joined, under int's limit
@example(text="1" * 5000 + ".5")                # a whole part past it: the same error text
@example(text="\u0661.\u0665")
@example(text="1.5e400")
@example(text="1.5e401")
@example(text="1e-400")
@example(text="1e-401")
@example(text="1.8 MB")
@example(text="0.3 B")
@example(text="1. KB")
@example(text=".5 KB")
@example(text="0.5 GB/s")
@example(text="0.0 MB/s")
def test_number_readers_equal_the_fraction_route(name, text):
    """Each reader returns what the reader that built every value through
    `Fraction(text)` returns, of the same type, or raises the same error."""
    assert reader_outcome(getattr(units, name), text) == \
        reader_outcome(getattr(topology_reference, name), text)
