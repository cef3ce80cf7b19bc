"""Scenario word splitting, checked against `shlex` as the reference.

`scenario.split_words` must read every line as
`shlex.split(line, comments=True)` does: the same words, or a ValueError
with the same text.  `scenario.quote` must write a word as `shlex.quote`
does, so that `exec` echoes lines that read back to their steps.
"""
import importlib.resources
import random
import shlex
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskgrid import scenario, units
from deskgrid.cli import dispatch
from deskgrid.grid import default_topology_path, load_topology
from deskgrid.scenario import parse_scenario, quote, split_words
from deskgrid.units import as_fraction, to_millis

import scenario_reference

# Blanks, both quotes, the escape, the comment sign, a form feed and a
# NEL (word characters to shlex, though `splitlines` breaks on them), a
# non-ASCII letter and two plain ones.  No `\n` or `\r`: `splitlines`
# never leaves them in a line.
ALPHABET = " \t'\"\\#\x0c\x85éab"
# Characters of a plain line, which `split_words` splits on blanks itself:
# space and tab, then the ones `str.split` breaks on and `shlex` keeps in a
# word (line and form feed, file, NEL, no-break and ideographic spaces).
PLAIN = " \t\x0b\x0c\x1c\x85\xa0\u3000éab"

SHIPPED = importlib.resources.files("deskgrid").joinpath("data", "scenarios")


def outcome(split, line):
    try:
        return split(line)
    except ValueError as exc:
        return str(exc)


def reference(line):
    return shlex.split(line, comments=True)


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=16))
@example("a#b")
@example("''")
@example("a''b")
@example(r'"a\"b\\c\d"')
@example("'it'\"'\"'s'")
@example("\\")
@example('"x\\')
@example('"x\\\\')
@example("'x")
@example('"x')
@example("a" * 40 + "'")
def test_split_words_reads_a_line_as_shlex_does(line):
    assert outcome(split_words, line) == outcome(reference, line)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=PLAIN, max_size=16))
@example("a\x0bb")
@example("\xa0 \u3000\t")
def test_split_words_reads_a_plain_line_as_shlex_does(line):
    assert split_words(line) == reference(line)


@pytest.mark.parametrize("line, words", [
    ("a#b", ["a"]),
    ("''", [""]),
    ("a''b", ["ab"]),
    (r'"a\"b\\c\d"', ['a"b\\c\\d']),
    ("'it'\"'\"'s'", ["it's"]),
    ("at 0 proxy init --user \"/O=grid/CN=factory operator\" # who",
     ["at", "0", "proxy", "init", "--user", "/O=grid/CN=factory operator"]),
    (" \t# only a comment", []),
    ("a\xa0b  c", ["a\xa0b", "c"]),
    ("\u3000a\tb\u3000", ["\u3000a", "b\u3000"]),
])
def test_split_words_fixed_cases(line, words):
    assert split_words(line) == words


@pytest.mark.parametrize("line, message", [
    ("\\", "No escaped character"),
    ('"x\\', "No escaped character"),
    ("'x", "No closing quotation"),
    ('"x', "No closing quotation"),
    ('"x\\\\', "No closing quotation"),
    ("a" * 100_000 + "'", "No closing quotation"),
])
def test_split_words_refuses_an_open_quote_or_escape(line, message):
    with pytest.raises(ValueError) as excinfo:
        split_words(line)
    assert str(excinfo.value) == message


@pytest.mark.parametrize("bad, message", [
    ('at 1 report "open', "No closing quotation"),
    ("report", "expected: at <seconds> <command...>"),
    ("at 1", "expected: at <seconds> <command...>"),
])
def test_parse_scenario_refuses_a_line_at_its_number(bad, message):
    with pytest.raises(scenario.ScenarioError) as excinfo:
        parse_scenario(f"at 0 report\n\n{bad}\nat 2 report\n", "x.scn")
    assert str(excinfo.value) == f"x.scn:3: {message}"


@pytest.mark.parametrize("lines, message", [
    (["at 2 report", "at 2 report", "at 1 report"], "time 1 goes backwards"),
    (["at 2 report", "at 1 exec x.scn"], "exec cannot run inside a scenario"),
    (["at 2 report", "at 2 exec x.scn"], "exec cannot run inside a scenario"),
    (["at 2 report", "at 1e3000000 report"], "bad time '1e3000000'"),
    (["at 2 report", "at x exec x.scn"], "bad time 'x'"),
])
def test_a_repeated_time_text_is_checked_in_order(lines, message):
    with pytest.raises(scenario.ScenarioError) as excinfo:
        parse_scenario("\n".join(lines), "x.scn")
    assert str(excinfo.value) == f"x.scn:{len(lines)}: {message}"


def test_equal_times_in_other_texts_are_not_backwards():
    steps = parse_scenario("at 0.5 report\nat 1/2 run\nat 0.50 report\n")
    assert [(s.line, s.at_ms, s.argv) for s in steps] == [
        (1, 500, ("report",)), (2, 500, ("run",)), (3, 500, ("report",))]


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=ALPHABET + "/=-@%.", max_size=12))
def test_quote_writes_a_word_as_shlex_does_and_reads_back(word):
    assert quote(word) == shlex.quote(word)
    assert split_words(quote(word)) == [word]


def render(rng, word):
    """`word` as one of the ways a scenario author may write it."""
    style = rng.randrange(4)
    if style == 0:
        return shlex.quote(word)
    if style == 1:
        return '"' + word.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if style == 2:
        return "".join("\\" + c if c in " \t'\"\\#" else c for c in word)
    return quote(word)


def generated_scenario(seed: int, lines: int) -> str:
    rng = random.Random(seed)
    letters = "ab/=-é '\"\\#\t"
    at, out = Fraction(0), []
    for _ in range(lines):
        kind = rng.randrange(10)
        if kind == 0:
            out.append(rng.choice(["", "   ", "# a comment 'with \"quotes", "\t#"]))
            continue
        at += rng.choice([0, 0, 1, Fraction(1, 3), Fraction(1, 4)])
        time = str(at) if at.denominator in (1, 3) else f"{float(at)}"
        words = ["".join(rng.choice(letters) for _ in range(rng.randrange(8)))
                 for _ in range(rng.randrange(1, 6))]
        line = f"at {time} report " + " ".join(render(rng, w) for w in words)
        if kind == 1:
            line += rng.choice([" # trailing", "#glued"])
        out.append(rng.choice(["", " ", "\t"]) + line)
    return "\n".join(out) + "\n"


def shipped_texts():
    return {p.name: p.read_text(encoding="utf-8")
            for p in SHIPPED.iterdir() if p.name.endswith(".scn")}


def test_parse_scenario_gives_the_steps_shlex_gives(monkeypatch):
    texts = shipped_texts()
    assert sorted(texts) == ["bulk200.scn", "production.scn", "validation.scn"]
    texts["generated"] = generated_scenario(seed=2026, lines=1000)
    ours = {name: parse_scenario(text, name) for name, text in texts.items()}
    assert len(ours["generated"]) > 800
    assert any(" " in word or "'" in word or '"' in word
               for step in ours["generated"] for word in step.argv)
    monkeypatch.setattr(scenario, "split_words", reference)
    assert {name: parse_scenario(text, name) for name, text in texts.items()} == ours


def test_each_run_of_one_time_text_is_read_once(monkeypatch):
    text = generated_scenario(seed=36, lines=1000)
    times = [line.split()[1] for line in text.splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    runs = 1 + sum(a != b for a, b in zip(times, times[1:]))
    assert len(times) > 800 and runs < len(times) * 0.8
    read = []
    monkeypatch.setattr(scenario, "as_pair", lambda text: read.append(text) or
                        units.as_pair(text))
    steps = parse_scenario(text)
    assert len(read) == runs and \
        [s.at_ms for s in steps] == [to_millis(Fraction(t)) for t in times]


def test_exec_refuses_a_huge_exponent_before_the_clock_moves(mini, tmp_path):
    scn = tmp_path / "huge.scn"
    scn.write_text("at 0 report\nat 1e3000000 report\n")
    assert dispatch(mini, ["exec", str(scn)]) == (2, f"error: {scn}:2: bad time '1e3000000'")
    assert mini.kernel.now_ms == 0


def test_exec_echoes_lines_that_read_back_to_their_steps():
    for name, text in shipped_texts().items():
        steps = parse_scenario(text)
        grid = load_topology(default_topology_path())
        code, output = dispatch(grid, ["exec", str(SHIPPED.joinpath(name))])
        assert code == 0, output
        echoed = [line[3:] for line in output.splitlines() if line.startswith("-- ")]
        assert [(Fraction(s.at_text), s.at_ms, s.argv)
                for s in parse_scenario("\n".join(echoed))] == \
            [(Fraction(s.at_text), s.at_ms, s.argv) for s in steps], name


# Times as an author may write them, valid or not: plain decimals, ratios
# (a zero denominator among them), signs, `_`, a bare point either side,
# exponents at and one past the bound, non-ASCII digits, and decimals
# whose parts, or the pair of them, pass `int`'s 4,300-digit limit.
TIMES = st.one_of(
    st.builds(lambda whole, part: whole + ("." + part if part else ""),
              st.text("0123456789", min_size=1, max_size=4),
              st.text("0123456789", max_size=6)),
    st.builds("{}/{}".format, st.integers(-2, 30), st.integers(0, 7)),
    st.sampled_from(["+1.5", "-2", "1_000", "1.", ".5", " 1", "1e400", "1e401", "1E-400",
                     "1e-401", "2.5e+4_00", "1e4_01", "١٢", "１", "²",
                     "x", "1.2.3", "inf", "9" * 2200 + "." + "9" * 2200, "1" * 4301,
                     "0." + "1" * 4301]))


@st.composite
def scenario_texts(draw):
    lines, time = [], "0"
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", "  # a comment"])))
            continue
        time = draw(st.one_of(st.just(time), TIMES))
        command = draw(st.sampled_from(["report"] * 8 + ["'two words'", "exec x.scn"]))
        lines.append(f"at {quote(time)} {command}")
    return "\n".join(lines)


def read_steps(text):
    try:
        return [(s.line, s.argv, s.at_ms, as_fraction(s.at_text))
                for s in parse_scenario(text, "x.scn")]
    except scenario.ScenarioError as exc:
        return str(exc)


def read_reference_steps(text):
    try:
        return [(s.line, s.argv, to_millis(s.at_s), s.at_s)
                for s in scenario_reference.parse_scenario(text, "x.scn")]
    except scenario.ScenarioError as exc:
        return str(exc)


@settings(max_examples=500, deadline=None)
@given(scenario_texts())
@example("at 0.0004 report\nat 0.0003 report")    # both round to 0 ms, and still go back
@example("at 0.5 report\nat 1/2 run\nat 0.50 report")
@example("at 1/3 report\nat 0.333 report")
@example("at -1 report")
@example("at 2 report\nat 1 exec x.scn")
@example("at 2/3 report\nat 0.0005 report")      # rounded half-up, not cut
def test_steps_equal_the_fraction_reader(text):
    """Every text reads to the lines and words the reader that kept a
    Fraction per step reads, with `at_ms` its `to_millis(at_s)` and the
    time text's exact seconds its `at_s`, or fails with the same error."""
    assert read_steps(text) == read_reference_steps(text)


def test_plain_decimal_steps_build_no_fraction_and_run_without_converting(mini, monkeypatch):
    """Steps hold integer ms from the parse on: reading plain decimals builds
    no Fraction, and running the steps makes no `to_millis` call."""
    built, converted = [], []

    class Watched(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            built.append(numerator)
            return super().__new__(cls, numerator, denominator)

    monkeypatch.setattr(units, "Fraction", Watched)
    texts = [*shipped_texts().values(), "at 0.25 report\nat 1.5 run\nat 1.50 report\n"]
    steps = [parse_scenario(text) for text in texts]
    assert sum(map(len, steps)) > 50 and built == []
    monkeypatch.setattr(scenario, "to_millis",
                        lambda *args: converted.append(args) or to_millis(*args))
    results = scenario.run_scenario(mini, steps[-1], lambda grid, argv, base_dir: (0, ""))
    assert len(results) == 3 and mini.kernel.now_ms == 1500 and converted == []
