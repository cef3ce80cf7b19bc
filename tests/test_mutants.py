"""Every mutant of `tests/mutants.py` still names its code: each snippet
occurs exactly once in its file, so the catalogue mutates what it says.
Nothing is mutated or run here."""
import mutants


def test_every_catalogued_snippet_occurs_once_in_its_file():
    counts = [(name, snippet, mutants.source(name).read_text().count(snippet))
              for name, snippet, _replacement, _tests in mutants.MUTANTS]
    assert [row for row in counts if row[2] != 1] == []
