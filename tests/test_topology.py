import dataclasses
import hashlib
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskgrid import units
from deskgrid.fabric import WorkloadProfile
from deskgrid.grid import Grid, default_topology_path, load_topology
from deskgrid.topology import ConfigError, parse_topology, parse_topology_file

import topology_reference
from conftest import MINI_TOPOLOGY, seeded_mutations


def err(text: str) -> str:
    with pytest.raises(ConfigError) as excinfo:
        config = parse_topology(text, "<t>")
        Grid(config)  # reached only when the text itself parses
    return str(excinfo.value)


# -- the shipped testbed ----------------------------------------------


def test_shipped_testbed_shape():
    grid = load_topology(default_topology_path())
    assert len(grid.fabric.sites) == 17
    assert len(grid.fabric.ces) == 17
    assert len(grid.datagrid.ses) == 13
    assert sorted(grid.brokers) == ["rb_cnaf", "rb_milano", "rb_pisa"]
    assert sorted(grid.vo.vo_names()) == ["datatag", "ivdgl"]
    assert grid.validate() == []
    regions = {site.region for site in grid.fabric.sites.values()}
    assert regions == {"EU", "US"}
    assert len(grid.info.query("EDG", "datatag")) == 13
    assert len(grid.info.query("GLUE", "datatag")) == 3


def test_condor_pools_stay_off_the_workload_path():
    grid = load_topology(default_topology_path())
    condor = [ce for ce in grid.info.ces.values() if ce.lrms == "CONDOR"]
    assert len(condor) == 4
    assert all(ce.schema_flavors == ("GLOBUS_ONLY",) for ce in condor)
    isolated = [s for s in grid.fabric.sites.values() if not s.outbound]
    assert sorted(s.site_id for s in isolated) == ["boston", "pasadena"]


def test_mini_fixture_counts():
    grid = Grid(parse_topology(MINI_TOPOLOGY, "<mini>"))
    assert sorted(grid.fabric.ces) == ["ce_alpha", "ce_beta"]
    assert grid.validate() == []


# -- parse diagnostics ------------------------------------------------


def test_malformed_header_and_early_content():
    assert err("[site alpha\nregion = EU\n") == \
        "<t>:1: malformed section header '[site alpha'"
    assert err("region = EU\n") == "<t>:1: content before the first section"
    assert err("[moon alpha]\n") == "<t>:1: unknown section kind [moon]"
    assert err("[site]\n") == "<t>:1: [site] needs a name"
    site = "[site a]\nregion = EU\naccept_vos =\n"
    assert err("[site a b]\nregion = EU\naccept_vos =\n") == \
        "<t>:1: [site] takes exactly one name"
    assert err(site + "[broker rb x]\nflavor = GLUE\n") == \
        "<t>:4: [broker] takes exactly one name"
    assert err("[general x]\n" + site) == "<t>:1: [general] takes no name"


def test_duplicate_sections_and_keys():
    text = "[site a]\nregion = EU\naccept_vos =\n\n[site a]\nregion = EU\naccept_vos =\n"
    assert err(text) == "<t>:5: duplicate section [site a]"
    text = "[site a]\nregion = EU\nregion = US\naccept_vos =\n"
    assert err(text) == "<t>:3: [site a]: duplicate key region"


def test_general_and_link_sections_appear_once():
    text = MINI_TOPOLOGY + "\n[link site:beta site:alpha]\nbandwidth = 1 KB/s\nlatency = 5\n"
    header = text.splitlines().index("[link site:beta site:alpha]") + 1
    assert err(text) == f"<t>:{header}: duplicate section [link site:beta site:alpha]"
    text = MINI_TOPOLOGY + "\n[link site:alpha site:beta]\nbandwidth = 1 KB/s\nlatency = 5\n"
    assert err(text) == f"<t>:{header}: duplicate section [link site:alpha site:beta]"
    text = MINI_TOPOLOGY + "\n[general]\nreplica_catalog = rc_other\n"
    header = text.splitlines().index("[general]", 1) + 1
    assert err(text) == f"<t>:{header}: duplicate section [general]"


def test_general_diagnostics_name_the_section_plainly():
    base = "[site a]\nregion = EU\naccept_vos =\n"
    assert err("[general]\ncolour = blue\n" + base) == "<t>:2: [general]: unknown key colour"
    assert err("[general]\ncolour\n" + base) == "<t>:2: [general]: expected key = value"


def test_missing_and_unknown_keys():
    assert err("[site a]\naccept_vos =\n") == "<t>:1: [site a]: missing key region"
    assert err("[site a]\nregion = EU\naccept_vos =\ncolour = blue\n") == \
        "<t>:4: [site a]: unknown key colour"
    assert err("[site a]\nregion = MARS\naccept_vos =\n") == \
        "<t>:2: region must be EU or US, got 'MARS'"


def test_value_diagnostics():
    base = "[site a]\nregion = EU\naccept_vos =\n"
    assert "expected an integer" in err(
        base + "[ce c]\nsite = a\nlrms = PBS\nflavors = EDG\n"
               "wn_count = many\ncpu_mhz = 1000\nclose_ses = s\n")
    assert "below 1" in err(
        base + "[ce c]\nsite = a\nlrms = PBS\nflavors = EDG\n"
               "wn_count = 0\ncpu_mhz = 1000\nclose_ses = s\n")
    bad_cap = err(base + "[se s]\nsite = a\ncapacity = huge\n")
    assert bad_cap.startswith("<t>:6:") and "huge" in bad_cap
    assert "expected a boolean" in err(base.replace("region = EU\n",
                                                    "region = EU\noutbound = maybe\n"))
    # counts and seconds are ASCII: `int` and `Fraction` would read these
    # Arabic-Indic digits as 2 and 0.05
    assert err(base + "[ce c]\nsite = a\nlrms = PBS\nflavors = EDG\n"
                      "wn_count = \u0662\ncpu_mhz = 1000\nclose_ses = s\n") == (
        "<t>:8: expected an integer, got '\u0662'")
    assert err("[general]\ndefault_wan_bandwidth = 10 MB/s\n"
               "default_wan_latency = \u0660.\u0660\u0665\n" + base) == (
        "<t>:3: expected seconds, got '\u0660.\u0660\u0665'")


def test_seconds_with_a_huge_exponent_are_refused_at_once():
    assert err("[general]\ndefault_wan_bandwidth = 10 MB/s\n"
               "default_wan_latency = 1e3000000\n") == "<t>:3: expected seconds, got '1e3000000'"


def test_general_wan_needs_both_halves():
    text = "[general]\ndefault_wan_bandwidth = 10 MB/s\n[site a]\nregion = EU\naccept_vos =\n"
    assert err(text) == "<t>:1: default WAN needs both bandwidth and latency"
    text = "[general]\ndefault_wan_bandwidth = warp\ndefault_wan_latency = 0.05\n" \
           "[site a]\nregion = EU\naccept_vos =\n"
    assert err(text).startswith("<t>:2:")


def test_link_declarations():
    base = "[site a]\nregion = EU\naccept_vos =\n"
    assert err(base + "[link site:a]\nbandwidth = 1 MB/s\nlatency = 0\n") == \
        "<t>:4: [link] needs exactly two endpoints"
    assert "bad endpoint" in err(
        base + "[link site:a box:b]\nbandwidth = 1 MB/s\nlatency = 0\n")
    assert "durations cannot be negative" in err(
        base + "[link site:a ui]\nbandwidth = 1 MB/s\nlatency = -1\n")
    assert err(base + "[link site:a site:a]\nbandwidth = 1 MB/s\nlatency = 0\n") == \
        "<t>:4: [link] cannot join site:a to itself"


def test_vo_sections_take_one_dn_per_line():
    text = "[vo v]\nmembers = alice\n[site a]\nregion = EU\naccept_vos =\n"
    assert err(text) == "<t>:2: [vo v]: expected one DN per line"
    text = "[vo v]\nalice smith\n[site a]\nregion = EU\naccept_vos = v\n"
    assert err(text) == "<t>:2: [vo v]: expected one DN per line"
    text = "[vo v]\n/C=XX/CN=a\n/C=XX/CN=a\n[site a]\nregion = EU\naccept_vos =\n"
    assert err(text) == "<t>:3: [vo v]: duplicate member /C=XX/CN=a"


def test_empty_topology_is_refused():
    assert err("[general]\n") == "<t>: topology declares no sites"


def test_broker_flavor_is_checked():
    text = MINI_TOPOLOGY.replace("flavor = GLUE", "flavor = SHINY")
    with pytest.raises(ConfigError) as excinfo:
        parse_topology(text, "<t>")
    assert "broker flavor must be EDG or GLUE" in str(excinfo.value)


# -- cross references checked while building the grid -----------------


def test_undeclared_references_are_reported_with_their_line():
    text = MINI_TOPOLOGY.replace("site = beta\nlrms = LSF", "site = gamma\nlrms = LSF")
    message = err(text)
    assert "undeclared site" in message and message.startswith("<t>:")
    message = err(MINI_TOPOLOGY.replace("close_ses = se_beta", "close_ses = se_gone"))
    assert "undeclared close SE se_gone" in message
    message = err(MINI_TOPOLOGY.replace("[se se_beta]\nsite = beta",
                                        "[se se_beta]\nsite = nowhere"))
    assert "SE se_beta sits at undeclared site" in message
    message = err(MINI_TOPOLOGY.replace("accept_vos = testvo othervo",
                                        "accept_vos = testvo ghostvo"))
    assert "accepts" in message and "ghostvo" in message
    message = err(MINI_TOPOLOGY.replace("[link site:alpha site:beta]",
                                        "[link site:alpha site:gamma]"))
    assert "link endpoint site:gamma is not declared" in message


def test_an_element_with_no_close_se_is_refused_at_its_header():
    """Its outputs would have nowhere to go: the first job that registers
    one would stop the run."""
    text = MINI_TOPOLOGY.replace("close_ses = se_beta", "close_ses =")
    header = text.splitlines().index("[ce ce_beta]") + 1
    assert err(text) == f"<t>:{header}: CE ce_beta lists no close SE"


def test_condor_cannot_advertise_the_edg_schema():
    text = MINI_TOPOLOGY.replace("lrms = LSF", "lrms = CONDOR")
    header = text.splitlines().index("[ce ce_beta]") + 1
    message = err(text)
    assert "Condor" in message and message.startswith(f"<t>:{header}:")
    accepted = text.replace("cpu_mhz = 2000", "cpu_mhz = 2000\nallow_condor_edg = yes")
    grid = Grid(parse_topology(accepted, "<t>"))
    assert grid.info.ces["ce_beta"].lrms == "CONDOR"


def test_profile_sections_extend_and_override():
    text = MINI_TOPOLOGY + (
        "\n[profile cmkin]\nper_event_cpu_1ghz = 2\n"
        "\n[profile digi]\nper_event_cpu_1ghz = 1/4\noutput_per_event = 1.5 KB\n"
        "monitor_every = 5\nregisters_output = yes\ndata_extension = digi\n")
    grid = Grid(parse_topology(text, "<t>"))
    tweaked = grid.fabric.profiles["cmkin"]
    assert tweaked.per_event_cpu_1ghz == 2
    assert tweaked.output_bytes_per_event == Fraction(50 * 1024)  # untouched
    fresh = grid.fabric.profiles["digi"]
    assert isinstance(fresh, WorkloadProfile)
    assert fresh.per_event_cpu_1ghz == Fraction(1, 4)
    assert fresh.output_bytes_per_event == Fraction(3, 2) * 1024
    assert fresh.monitor_every_events == 5 and fresh.registers_output
    assert fresh.data_extension == "digi"


def test_new_profile_needs_both_per_event_figures():
    text = MINI_TOPOLOGY + "\n[profile digi]\nper_event_cpu_1ghz = 1\n"
    message = err(text)
    assert "new profile digi needs" in message


@pytest.mark.parametrize("size", ["1.2.3 MB", ". KB"])
def test_malformed_per_event_size_is_a_config_error(size):
    text = MINI_TOPOLOGY + (
        f"\n[profile digi]\nper_event_cpu_1ghz = 1\noutput_per_event = {size}\n")
    line = text.splitlines().index(f"output_per_event = {size}") + 1
    assert err(text) == f"<t>:{line}: bad size: {size!r}"


# -- seeded mutations ---------------------------------------------------

#: lines the shipped inputs lack, so mutations also reach every key, the
#: duplicate-section checks and bad values
EXTRA_TOPOLOGY_LINES = (
    "[general]", "[profile cmkin]", "[profile digi]", "[link site:beta site:alpha]",
    "[link ui rb:rb_test]", "[link site:alpha]", "[link site:alpha box:b]", "[moon m]",
    "[site]", "[vo]", "lan_bandwidth = 100 MB/s", "lan_latency = 0.001",
    "outbound = no", "allow_condor_edg = yes", "per_event_cpu_1ghz = 1/4",
    "output_per_event = 1.5 KB", "monitor_every = 5", "registers_output = yes",
    "data_extension = digi", "colour = blue", "/C=XX/CN=dave", "no equals sign",
)
EXTRA_TOPOLOGY_VALUES = (
    "", "0", "-1", "1/0", "many", "maybe", "huge", "MARS", "SHINY", "EU", "GLUE",
    "1.2.3 MB", "0 MB/s", "2.5", "se_gone",
)


def _mutated_topologies(count: int, seed: int):
    with open(default_topology_path()) as f:
        shipped = f.read()
    return seeded_mutations((shipped, MINI_TOPOLOGY), EXTRA_TOPOLOGY_LINES,
                            EXTRA_TOPOLOGY_VALUES, count, seed)


def _topology_outcome(text: str) -> str:
    try:
        return repr(parse_topology(text, "<t>"))
    except ConfigError as exc:
        return str(exc)


#: sha256 of the outcomes below, joined by "\n\0"
MUTATION_DIGEST = "a11981927dd72f2d42079380e390216622df0dfc177b37841c4668c277498db4"


def test_seeded_mutation_outcomes_are_pinned():
    """Every diagnostic and every parsed config over 2,000 seeded line
    deletions, insertions and value swaps of the shipped and mini
    topologies, pinned as one digest."""
    outcomes = [_topology_outcome(text) for text in _mutated_topologies(2000, 20260)]
    digest = hashlib.sha256("\n\x00".join(outcomes).encode()).hexdigest()
    assert digest == MUTATION_DIGEST


def test_a_profile_section_with_a_zero_per_event_figure_is_refused():
    message = err(MINI_TOPOLOGY + "\n[profile cmkin]\nper_event_cpu_1ghz = 0\n")
    assert "profile cmkin: per-event figures must be positive" in message


# -- the reader against its earlier form ----------------------------------

#: keys of each keyed kind, in the order the format documents them
KIND_KEYS = {
    "general": ("replica_catalog", "default_wan_bandwidth", "default_wan_latency",
                "lan_bandwidth", "lan_latency"),
    "site": ("region", "accept_vos", "outbound"),
    "ce": ("site", "lrms", "flavors", "wn_count", "cpu_mhz", "tags", "close_ses",
           "allow_condor_edg"),
    "se": ("site", "capacity"),
    "link": ("bandwidth", "latency"),
    "broker": ("flavor",),
    "profile": ("per_event_cpu_1ghz", "output_per_event", "monitor_every",
                "registers_output", "data_extension"),
}
RATES = (("10 MB/s", "1.5 KB /s", "2048", "0.5 GB/s"), ("0 MB/s", "warp", "1. MB/s"))
SECONDS = (("0.05", "0.001", "1/20", "0", "1.", ".5", "+2"),
           ("-1", "1e401", "\u0660.\u0660\u0665", "1/0"))
#: (valid, broken) values of each key
KEY_VALUES = {
    "replica_catalog": (("rc", "rc_x"), ()), "default_wan_bandwidth": RATES,
    "default_wan_latency": SECONDS, "lan_bandwidth": RATES, "lan_latency": SECONDS,
    "region": (("EU", "US"), ("MARS",)), "accept_vos": (("v", "v w", "v,w", ""), ()),
    "outbound": (("yes", "false", "0"), ("maybe",)), "site": (("a", "b", "a=b"), ()),
    "lrms": (("PBS", "LSF", "CONDOR"), ()), "flavors": (("EDG", "EDG GLUE", "GLOBUS_ONLY"), ()),
    "wn_count": (("1", "3", "+2"), ("0", "many", "\u0662")),
    "cpu_mhz": (("1000", "1400"), ("-5", "1.5")), "tags": (("CMS", "CMS, ATLAS-3.2.1", ""), ()),
    "close_ses": (("s", "s t", ""), ()), "allow_condor_edg": (("yes", "off"), ("perhaps",)),
    "capacity": (("1 GB", "10 GB", "1.5 KB", "00.50 KB"), ("00.10 KB", "0.3 B", "huge", "1.2.")),
    "bandwidth": RATES, "latency": SECONDS, "flavor": (("EDG", "GLUE"), ("SHINY",)),
    "per_event_cpu_1ghz": (("1/4", "2", "0.5", "0"), ("1/0",)),
    "output_per_event": (("1.8 MB", "50 KB", "1536"), (". KB",)),
    "monitor_every": (("5", "12"), ("0",)), "registers_output": (("yes", "no"), ()),
    "data_extension": (("digi", ""), ()), "colour": ((), ("blue",)), "": ((), ("x",)),
}
#: (valid, broken) names of each kind's header
NAMES = {"general": ([[]], [["x"]]),
         "link": ([["site:a", "site:b"], ["site:b", "ui"], ["rb:r", "site:a"], ["site:a", "ui"]],
                  [["site:a"], ["site:a", "box:b"], ["ui", "ui"], ["site:a", "site:b", "ui"]])}
ONE_NAME = ([["a"], ["b"], ["c"], ["d"], ["v"]], [[], ["a", "b"]])
#: how a section of a broken text breaks, if it does
BREAKS = (None, None, None, "header", "names", "kind", "keys", "value", "line")
#: what `splitlines` ends a line on, "\n" the most often
LINE_ENDS = ("\n",) * 6 + ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1e", "\x85", "\u2028")
#: what `strip` takes off, none the most often
PADS = ("",) * 6 + (" ", "\t", "\u00a0", "\u2003", "\u3000")
COMMENTS = ("",) * 6 + (" # note", "#", "# key = value", "# [site x]")


@st.composite
def topology_section(draw, broken: bool, kinds=("site", "ce", "se", "link", "vo", "broker",
                                                 "profile", "general")) -> list:
    """The lines of one section of one of `kinds`, its header first; a
    section of a `broken` text may break in one of the `BREAKS` ways."""
    breaks = draw(st.sampled_from(BREAKS)) if broken else None
    kind = "moon" if breaks == "kind" else draw(st.sampled_from(kinds))
    valid_names, broken_names = NAMES.get(kind, ONE_NAME)
    names = draw(st.sampled_from(broken_names if breaks == "names" else valid_names))
    header = "[" + " ".join([kind, *names]) + "]"
    if breaks == "header":
        header = draw(st.sampled_from([header[:-1], header.upper(), "[ " + header[1:], "[]"]))
    if kind == "vo":
        members = ["/C=XX/CN=a", "/C=XX/CN=b", "/O=grid/CN=c d"]
        if breaks in ("keys", "value", "line"):
            members.append("alice")
        return [header, *draw(st.lists(st.sampled_from(members), max_size=3,
                                       unique=breaks is None))]
    keys = KIND_KEYS.get(kind, ("colour",))
    if breaks == "keys":  # missing, repeated and unknown keys
        chosen = draw(st.lists(st.sampled_from([*keys, "colour", ""]), max_size=4))
    else:  # every key once, so that sections read through
        chosen = draw(st.permutations(keys))
    breakable = [key for key in chosen if KEY_VALUES[key][1]]
    bad_key = draw(st.sampled_from(breakable)) if breaks == "value" and breakable else None
    lines = []
    for key in chosen:
        valid, bad = KEY_VALUES[key]
        value = draw(st.sampled_from(bad if key == bad_key or not valid else valid))
        lines.append(f"{key} = {value}")
    if breaks == "line":
        lines.insert(draw(st.integers(0, len(lines))), "no equals sign")
    return [header, *lines]


@st.composite
def topology_text(draw) -> str:
    """A testbed text from the grammar, valid or broken, in any layout."""
    broken = draw(st.booleans())
    lines = []
    if broken and draw(st.sampled_from(BREAKS)) == "line":
        lines.append(draw(st.sampled_from(["region = EU", "/C=XX/CN=a"])))
    lines += draw(topology_section(broken, ("site",)))  # a testbed declares one
    for _ in range(draw(st.integers(0, 6))):
        lines += draw(topology_section(broken))
    text = []
    for line in lines:
        if draw(st.sampled_from(COMMENTS)):  # a blank, whitespace-only or comment line first
            text.append(draw(st.sampled_from(PADS)) + draw(st.sampled_from(COMMENTS)))
            text.append(draw(st.sampled_from(LINE_ENDS)))
        text += [draw(st.sampled_from(PADS)), line, draw(st.sampled_from(PADS)),
                 draw(st.sampled_from(COMMENTS)), draw(st.sampled_from(LINE_ENDS))]
    return "".join(text)


def typed(value):
    """`value` with the type of every part beside it, so that equal
    outcomes are equal in type too (a Fraction 2 is not the int 2)."""
    if dataclasses.is_dataclass(value):
        return type(value), tuple((f.name, typed(getattr(value, f.name)))
                                  for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return type(value), tuple(typed(part) for part in value)
    if isinstance(value, dict):
        return dict, tuple((key, typed(part)) for key, part in value.items())
    return type(value), value


def parse_outcome(parse, text):
    try:
        return typed(parse(text, "<t>"))
    except ConfigError as exc:
        return str(exc)


SITE = "[site a]\nregion = EU\naccept_vos = v\n"


@settings(max_examples=200, deadline=None)
@given(topology_text())
@example(SITE + "[se s]\nsite = a=b # where it sits\ncapacity = 1 GB#x\n")  # '#', '=' in values
@example("[vo v]\n/C=XX/CN=a#b\n/C=XX/CN=a\n" + SITE)
@example("[site a]\rregion = EU\x0caccept_vos = v\x1c[broker r]\u2028flavor = EDG\x85")
@example("[site a]\r\n \t \nregion\u00a0= EU\u3000\n\u2003\naccept_vos = v\n\x0b")
@example("[site a] # the first site\nregion = EU\naccept_vos =\n[general]#\n")
@example("[site a]#[site b]\nregion = EU\naccept_vos = v\n")
@example("region = EU\n" + SITE)
@example("# a testbed\n\n" + SITE + "[link site:a ui]\nbandwidth = 1 MB/s\nlatency = 0.5\n")
@example(SITE + "colour\n[se s]\nsite = a\n[site b\n")  # the header is reported first
@example(SITE + "[se s]\nsite = a\ncapacity = 1 GB\ncolour = blue\nsite = b\n")
@example("[general]\ndefault_wan_bandwidth = warp\n" + SITE)
@example("[profile digi]\nmonitor_every = 0\nper_event_cpu_1ghz = 1/4\n" + SITE)
def test_the_reader_equals_its_earlier_form(text):
    """Every text, valid or broken, reads to a config equal in every value
    and type to the one the `_Section` reader built, or fails with the same
    diagnostic."""
    assert parse_outcome(parse_topology, text) == \
        parse_outcome(topology_reference.parse_topology, text)


def test_reading_a_testbed_builds_no_fraction_from_text(monkeypatch):
    """The number readers turn plain decimals into integers before any
    Fraction is built: no `str` reaches the `Fraction` they call."""
    arguments = []

    class Watched(Fraction):
        def __new__(cls, numerator=0, denominator=None):
            arguments.append(type(numerator))
            return super().__new__(cls, numerator, denominator)

    monkeypatch.setattr(units, "Fraction", Watched)
    parse_topology_file(default_topology_path())
    parse_topology(MINI_TOPOLOGY, "<mini>")
    assert arguments and str not in arguments
