import ast
import gc
import pathlib
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deskgrid
from deskgrid import simcore, units
from deskgrid.simcore import Kernel, Kind, PastTime, TraceEntry, kind
from deskgrid.units import fmt_quantity, millis_to_text, to_millis


def test_two_hop_chain_lands_on_exact_milliseconds():
    # 150 ms first leg, then 125 ms scheduled from within the handler:
    # fires at 150 ms and 275 ms exactly.
    k = Kernel()
    seen = []

    def second():
        seen.append(("second", k.now_ms))

    def first():
        seen.append(("first", k.now_ms))
        k.schedule("hop", second, k.now_ms + 125)

    k.schedule("hop", first, 150)
    k.run_to_completion()
    assert seen == [("first", 150), ("second", 275)]
    assert k.now_ms == 275


def test_same_instant_events_fire_in_insertion_order():
    k = Kernel()
    order = []
    k.schedule("e", lambda: order.append("a"), 1000)
    k.schedule("e", lambda: order.append("b"), 1000)
    k.schedule("e", lambda: order.append("c"), 1500)
    k.schedule("e", lambda: order.append("d"), 1000)
    k.run_until(2)
    assert order == ["a", "b", "d", "c"]


def test_events_inserted_for_now_during_delivery_still_run():
    k = Kernel()
    order = []

    def outer():
        order.append("outer")
        k.schedule("e", lambda: order.append("inner"), k.now_ms)

    k.schedule("e", outer, 5000)
    delivered = k.run_until(5)
    assert order == ["outer", "inner"]
    assert delivered == 2


def test_a_raising_payload_is_consumed_and_the_run_stops_at_its_instant():
    k = Kernel()
    log = []

    class Boom(Exception):
        pass

    def boom():
        log.append("boom")
        raise Boom

    k.schedule("a", lambda: log.append("a"), 1000)
    k.schedule("boom", boom, 2000)
    k.schedule("c", lambda: log.append("c"), 3000)
    k.schedule("b", lambda: log.append("b"), 2000)
    with pytest.raises(Boom):
        k.run_until(5)
    assert log == ["a", "boom"]
    assert k.now_ms == 2000 and k.delivering_seq is None and k.pending_count() == 2
    assert k.run_until(5) == 2
    assert log == ["a", "boom", "b", "c"] and k.now_ms == 5000

    k.schedule("boom", boom, 6000)
    k.schedule("d", lambda: log.append("d"), 7000)
    with pytest.raises(Boom):
        k.run_to_completion()
    assert k.now_ms == 6000 and k.delivering_seq is None and k.pending_count() == 1
    assert k.run_to_completion() == 1
    assert log[-2:] == ["boom", "d"] and k.now_ms == 7000


def test_run_until_advances_clock_even_without_events():
    k = Kernel()
    assert k.run_until(10) == 0
    assert k.now_ms == 10_000
    assert k.now() == Fraction(10)


def test_past_scheduling_and_past_targets_refused():
    k = Kernel()
    k.run_until(5)
    with pytest.raises(PastTime):
        k.schedule("e", lambda: None, 4000)
    with pytest.raises(PastTime):
        k.run_until(1)


def test_trace_entry_format():
    k = Kernel()
    k.run_until("0.15")
    k.emit("rb_test", "matched", job="j1", rank=Fraction(-125, 2), flag=True)
    line = k.trace[-1].format()
    assert line == "0.150\trb_test\tmatched\tjob=j1 rank=-62.5 flag=true"
    k.emit("rb_test", "x", none=None, f=0.1, label=Label("y"), count=Count(5), n=7)
    assert k.trace[-1].detail == {"none": "-", "f": "0.1", "label": "<y>", "count": "#5", "n": 7}
    assert k.export_trace().endswith("\tx\tnone=- f=0.1 label=<y> count=#5 n=7\n")


def reference_line(entry: TraceEntry) -> str:
    """The reference rendering: a stamp per entry, every value through `fmt_quantity`."""
    kv = " ".join(f"{k}={fmt_quantity(v)}" for k, v in entry.detail.items())
    return f"{millis_to_text(entry.time_ms)}\t{entry.actor}\t{entry.action}\t{kv}"


class Label(str):
    def __str__(self):
        return f"<{str.__str__(self)}>"


class Count(int):
    def __str__(self):
        return f"#{int.__repr__(self)}"


detail_values = st.one_of(
    st.text(max_size=6), st.text(max_size=6).map(Label),
    st.integers(), st.integers().map(Count), st.booleans(), st.none(),
    st.integers().map(Fraction), st.fractions(),
    st.floats(), st.sampled_from([-0.0, 1e16]))
trace_entries = st.builds(
    TraceEntry,
    st.one_of(st.integers(-2, 2).map(lambda n: 1000 * n + 5),  # repeats, negatives
              st.integers(-10**12, 10**12)),
    st.text(max_size=6), st.text(max_size=6),
    st.dictionaries(st.text(max_size=4), detail_values, max_size=4))


@settings(max_examples=200, deadline=None)
@given(st.lists(trace_entries, max_size=12))
@example(entries=[])
@example(entries=[TraceEntry(5, "a", "b"), TraceEntry(5, "a", "c", {"x": Label("y")}),
                  TraceEntry(-995, "a", "b", {"z": -0.0}), TraceEntry(5, "a", "b")])
@example(entries=[  # template marks in actions and keys; values of each type
    TraceEntry(5, "a{", "{0}", {"{}": True, "}=": None, "=": Fraction(-125, 2)}),
    TraceEntry(5, "{1}", "b}=", {"{{k": 0.1, "k}}": Label("{0}"), "k=v": Count(-7)}),
    TraceEntry(6, "a", "{", {"}": False, "{0": Fraction(4), "x": 1e16, "y": "{}"}),
    TraceEntry(6, "a", "{", {"}": Count(0), "{0": Label(""), "x": -0.0, "y": 3})])
def test_the_trace_renders_as_the_reference_does(entries):
    k = Kernel()
    for entry in entries:  # instants that need not be monotone, nor positive
        k.now_ms = entry.time_ms
        k.line(entry.actor, entry.kind, *entry.values)
    text = k.export_trace()
    assert text == "".join(f"{reference_line(e)}\n" for e in entries)
    assert text == "".join(e.format() + "\n" for e in entries)


def test_template_marks_in_an_action_or_a_key_render_verbatim():
    """`%`, `{` and `}` in an action, a key, the actor or a value are text,
    not template marks, in `TraceEntry.format` and in `export_trace` alike."""
    k = Kernel()
    k.line("rb%s", kind("100%", "%s", "{0}", "%%}{"), "%d", 5, "{}")
    k.emit("a", "b%}", **{"%(x)s": "%", "{": 1})
    lines = ["0.000\trb%s\t100%\t%s=%d {0}=5 %%}{={}", "0.000\ta\tb%}\t%(x)s=% {=1"]
    assert [entry.format() for entry in k.trace] == lines
    assert k.export_trace() == "".join(line + "\n" for line in lines)


def test_every_line_call_passes_one_value_per_key_of_its_kind():
    """Read from the source, so call sites no test runs are checked too:
    each module-level `NAME = kind(action, *keys)` in `src/` is written
    somewhere, and each `<x>.line(actor, NAME, *values)` names a kind
    declared in its own module and passes one value per key."""
    declared, calls = {}, []
    for path in sorted(pathlib.Path(deskgrid.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            value = getattr(node, "value", None)
            if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "kind":
                (target,) = node.targets
                assert all(isinstance(arg, ast.Constant) for arg in value.args)
                declared[path.name, target.id] = len(value.args) - 1
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "line":
                assert not node.keywords and not any(
                    isinstance(arg, ast.Starred) for arg in node.args), node.lineno
                _actor, name, *values = node.args
                calls.append(((path.name, name.id), len(values), node.lineno))
    assert len(declared) >= 20 and len(calls) >= len(declared)
    assert [(kind, line) for kind, count, line in calls if declared.get(kind) != count] == []
    assert {kind for kind, _count, _line in calls} == set(declared)


def test_an_export_stamps_each_instant_once_and_formats_no_str(mini, alice, monkeypatch):
    """A factory request on the mini grid, exported with the time stamp and
    the value renderer counted: one stamp per run of lines at one instant,
    and no value rendered, since each row holds exact `str` and `int`
    values that its kind's template writes as they are."""
    request = mini.refdb.create_request("bulk", "CMKIN", 20 * 50, 50, "rb_test")
    mini.production.declare(request.assignment_id)
    mini.production.create(request.assignment_id)
    mini.production.submit(request.assignment_id, alice)
    mini.kernel.run_to_completion()
    trace = mini.kernel.trace
    runs = 1 + sum(a.time_ms != b.time_ms for a, b in zip(trace, trace[1:]))
    assert runs < len(trace)
    assert {type(v) for e in trace for v in e.values} == {str, int}
    stamps, formatted = [], []

    def counted_stamp(ms):
        stamps.append(ms)
        return millis_to_text(ms)

    def counted_quantity(value):
        formatted.append(type(value))
        return fmt_quantity(value)

    monkeypatch.setattr(simcore, "millis_to_text", counted_stamp)
    monkeypatch.setattr(simcore, "fmt_quantity", counted_quantity)
    monkeypatch.setattr(units, "fmt_quantity", counted_quantity)
    text = mini.kernel.export_trace()
    assert len(stamps) == runs
    assert formatted == []
    assert text == "".join(f"{reference_line(e)}\n" for e in trace)


def test_the_held_trace_gives_the_collector_nothing_to_scan(mini, alice):
    """A line is four cells of one flat list, and the one object it adds is
    its values tuple of `str` and `int`, which the collector untracks: after
    a run and a collection no entry is alive and no cell but a `Kind` is
    tracked."""
    def entries_alive():
        return sum(type(o) is TraceEntry for o in gc.get_objects())

    gc.collect()
    before = entries_alive()
    request = mini.refdb.create_request("bulk", "CMKIN", 20 * 50, 50, "rb_test")
    mini.production.declare(request.assignment_id)
    mini.production.create(request.assignment_id)
    mini.production.submit(request.assignment_id, alice)
    mini.kernel.run_to_completion()
    gc.collect()
    cells = mini.kernel._cells
    assert len(cells) == 4 * len(mini.kernel.trace) > 400
    assert entries_alive() == before
    assert [c for c in cells if gc.is_tracked(c) and type(c) is not Kind] == []


def test_the_trace_view_reads_back_every_line_as_written():
    k = Kernel()
    tick = kind("tick", "n")
    for n in range(5):
        k.run_until(Fraction(n, 10))
        k.line("a", tick, n)
    last = k.emit("b", "done", count=Fraction(1, 4), ok=True)
    rows = [(0, "a", tick, (0,)), (100, "a", tick, (1,)), (200, "a", tick, (2,)),
            (300, "a", tick, (3,)), (400, "a", tick, (4,)),
            (400, "b", kind("done", "count", "ok"), ("0.25", "true"))]
    trace = k.trace
    assert len(trace) == 6 and last == rows[-1]
    assert list(trace) == rows and all(type(e) is TraceEntry for e in trace)
    assert trace[0] == rows[0] and trace[-1] == rows[-1] and trace[-6] == rows[0]
    assert trace[-1].detail == {"count": "0.25", "ok": "true"} and trace[3].action == "tick"
    assert trace[1:4] == rows[1:4] and trace[::-2] == rows[::-2] and trace[7:] == []
    assert list(reversed(trace)) == rows[::-1]
    for index in (6, -7, 10**6):
        with pytest.raises(IndexError):
            trace[index]
    with pytest.raises(AttributeError):
        k.trace = []
    copied = pickle.loads(pickle.dumps(k))
    assert list(copied.trace) == list(k.trace)
    assert pickle.loads(pickle.dumps(trace[-1])) == trace[-1]
    assert copied.trace[-1].kind is k.trace[-1].kind
    assert copied.export_trace() == k.export_trace()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=5000), max_size=40))
def test_delivery_respects_time_then_insertion_order(times):
    k = Kernel()
    log = []
    for i, t in enumerate(times):
        k.schedule("e", (lambda i=i, t=t: log.append((t, i))), t)
    k.run_to_completion()
    assert log == sorted(log)
    assert len(log) == len(times)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=10**15),
       st.fractions(min_value=0, max_denominator=10**9))
@example(now_ms=7, d=Fraction(1, 2000))  # exactly half a ms: rounds up both ways
def test_a_duration_rounds_the_same_added_to_ms_or_to_seconds(now_ms, d):
    # callers schedule at now_ms + to_millis(d); rounding the exact sum in
    # seconds gives the same instant, so traces do not depend on which
    assert now_ms + to_millis(d) == to_millis(Fraction(now_ms, 1000) + d)
