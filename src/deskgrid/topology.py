"""Sectioned plain-text topology files.

A testbed declaration is a list of `[kind name...]` sections holding
`key = value` lines; `[vo <name>]` sections instead hold one member DN
(starting with `/`) per line.  `#` comments and blank lines are free.
A header holds its kind and the names listed below, no more words; each
section appears once, a link once per unordered pair of two different
endpoints.  Every diagnostic carries the file path and a line number: a
missing key is reported at its section's header, a value that does not
read at its own line.

The text is read in one pass first, its `splitlines` lines each cut at the
first `#`, stripped and gathered under the header above, so a malformed
header anywhere is reported before any key.  Each kind then reads its
keys in its table's order: a line without `=` or a repeated key first,
then a missing key or bad value as its key comes, an unknown key last.

    [general]             catalogue id, WAN defaults, the sites' LAN
    [vo <name>]           member DNs
    [site <id>]           region = EU|US, accept_vos, outbound
    [ce <id>]             site, lrms, flavors, wn_count, cpu_mhz, tags, close_ses
    [se <id>]             site, capacity
    [link <ep> <ep>]      bandwidth, latency        (ep: site:<id> | rb:<id> | ui)
    [broker <id>]         flavor = EDG|GLUE
    [profile <name>]      per_event_cpu_1ghz, output_per_event, monitor_every, ...
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .units import as_fraction, as_int, parse_amount, parse_rate, parse_size


class ConfigError(Exception):
    def __init__(self, message: str, path: str = "<topology>", line: "int | None" = None):
        self.path = path
        self.line = line
        where = path if line is None else f"{path}:{line}"
        super().__init__(f"{where}: {message}")


@dataclass
class GeneralCfg:
    replica_catalog: str = "rc"
    default_wan: "tuple | None" = None          # (bytes/s, seconds)
    lan_bandwidth: "Fraction | None" = None
    lan_latency: "Fraction | None" = None


@dataclass
class VoCfg:
    name: str
    members: list
    line: int


@dataclass
class SiteCfg:
    site_id: str
    region: str
    accept_vos: list
    outbound: bool
    line: int


@dataclass
class CeCfg:
    ce_id: str
    site_id: str
    lrms: str
    flavors: tuple
    wn_count: int
    cpu_mhz: int
    tags: tuple
    close_ses: tuple
    allow_condor_edg: bool
    line: int


@dataclass
class SeCfg:
    se_id: str
    site_id: str
    capacity_bytes: int
    line: int


@dataclass
class LinkCfg:
    a: str
    b: str
    bandwidth: Fraction
    latency: Fraction
    line: int


@dataclass
class BrokerCfg:
    rb_id: str
    flavor: str
    line: int


@dataclass
class ProfileCfg:
    name: str
    fields: dict
    line: int


@dataclass
class TopologyConfig:
    path: str
    general: GeneralCfg = field(default_factory=GeneralCfg)
    vos: list = field(default_factory=list)
    sites: list = field(default_factory=list)
    ces: list = field(default_factory=list)
    ses: list = field(default_factory=list)
    links: list = field(default_factory=list)
    brokers: list = field(default_factory=list)
    profiles: list = field(default_factory=list)


_SECTION_RE = re.compile(r"^\[([a-z]+)((?:\s+\S+)*)\]$")
_ENDPOINT_RE = re.compile(r"^(site:[\w-]+|rb:[\w-]+|ui)$")


# Value readers: each takes the text after `=` and raises a plain
# ValueError, which `parse_topology` reports at the value's line.

def _words(value: str) -> tuple:
    return tuple(value.replace(",", " ").split())


def _word_list(value: str) -> list:
    return list(_words(value))


def _bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _count(value: str) -> int:
    try:
        number = as_int(value)
    except ValueError:
        raise ValueError(f"expected an integer, got {value!r}") from None
    if number < 1:
        raise ValueError(f"value {number} is below 1")
    return number


def _seconds(value: str) -> Fraction:
    try:
        seconds = as_fraction(value)
    except ValueError:
        raise ValueError(f"expected seconds, got {value!r}") from None
    if seconds < 0:
        raise ValueError("durations cannot be negative")
    return seconds


def _choice(what: str, *options: str):
    def read(value: str) -> str:
        if value not in options:
            raise ValueError(f"{what} must be {' or '.join(options)}, got {value!r}")
        return value
    return read


_REQUIRED = object()  # a key the section must give
_ABSENT = object()  # a [profile] key not given: the base profile's field stays

#: kind -> its keys as (key, reader, default when not given), in reading order
_KEYS = {
    "general": (("replica_catalog", str, "rc"), ("default_wan_bandwidth", parse_rate, None),
                ("default_wan_latency", _seconds, None), ("lan_bandwidth", parse_rate, None),
                ("lan_latency", _seconds, None)),
    "site": (("region", _choice("region", "EU", "US"), _REQUIRED),
             ("accept_vos", _word_list, _REQUIRED), ("outbound", _bool, True)),
    "ce": (("site", str, _REQUIRED), ("lrms", str, _REQUIRED), ("flavors", _words, _REQUIRED),
           ("wn_count", _count, _REQUIRED), ("cpu_mhz", _count, _REQUIRED),
           ("tags", _words, ()), ("close_ses", _words, _REQUIRED),
           ("allow_condor_edg", _bool, False)),
    "se": (("site", str, _REQUIRED), ("capacity", parse_size, _REQUIRED)),
    "link": (("bandwidth", parse_rate, _REQUIRED), ("latency", _seconds, _REQUIRED)),
    "broker": (("flavor", _choice("broker flavor", "EDG", "GLUE"), _REQUIRED),),
    "profile": (("per_event_cpu_1ghz", _seconds, _ABSENT),
                ("output_per_event", parse_amount, _ABSENT),  # may be '1.8 MB'
                ("monitor_every", _count, _ABSENT), ("registers_output", _bool, _ABSENT),
                ("data_extension", str, _ABSENT)),
}
#: the WorkloadProfile field of each [profile] key, in the same order
_PROFILE_FIELDS = ("per_event_cpu_1ghz", "output_bytes_per_event", "monitor_every_events",
                   "registers_output", "data_extension")
#: kind -> (config list, row type): a row of header names, values in key order, header line
_ROWS = {"site": ("sites", SiteCfg), "ce": ("ces", CeCfg), "se": ("ses", SeCfg),
         "link": ("links", LinkCfg), "broker": ("brokers", BrokerCfg)}


def _label(kind: str, names: list) -> str:
    """The section as its diagnostics name it, built only for one."""
    return "[" + " ".join([kind, *names]) + "]"


def _scan(text: str, path: str) -> list:
    """(kind, header words, header line, [(lineno, text)]) per section."""
    sections, lines = [], None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.index("#")]
        line = line.strip()
        if not line:
            continue
        if line[0] == "[":
            m = _SECTION_RE.match(line)
            if not m:
                raise ConfigError(f"malformed section header {line!r}", path, lineno)
            lines = []
            sections.append((m[1], m[2].split(), lineno, lines))
        elif lines is None:
            raise ConfigError("content before the first section", path, lineno)
        else:
            lines.append((lineno, line))
    return sections


def parse_topology(text: str, path: str = "<topology>") -> TopologyConfig:
    config = TopologyConfig(path)
    seen = set()
    for kind, names, header_line, lines in _scan(text, path):
        if kind == "link":
            if len(names) != 2:
                raise ConfigError("[link] needs exactly two endpoints", path, header_line)
            for ep in names:
                if not _ENDPOINT_RE.match(ep):
                    raise ConfigError(f"bad endpoint {ep!r} (site:<id>, rb:<id> or ui)",
                                      path, header_line)
            if names[0] == names[1]:
                raise ConfigError(f"[link] cannot join {names[0]} to itself",
                                  path, header_line)
        elif kind == "general":
            if names:
                raise ConfigError("[general] takes no name", path, header_line)
        elif not names:
            raise ConfigError(f"[{kind}] needs a name", path, header_line)
        elif len(names) > 1:
            raise ConfigError(f"[{kind}] takes exactly one name", path, header_line)
        identity = (kind, frozenset(names))  # a link's endpoints are unordered
        if identity in seen:
            raise ConfigError(f"duplicate section {_label(kind, names)}", path, header_line)
        seen.add(identity)

        if kind == "vo":
            members = []
            for lineno, line in lines:
                if not line.startswith("/"):
                    raise ConfigError(f"{_label(kind, names)}: expected one DN per line",
                                      path, lineno)
                if line in members:
                    raise ConfigError(f"{_label(kind, names)}: duplicate member {line}",
                                      path, lineno)
                members.append(line)
            config.vos.append(VoCfg(names[0], members, header_line))
            continue
        keys = _KEYS.get(kind)
        if keys is None:  # before any of its lines is read
            raise ConfigError(f"unknown section kind [{kind}]", path, header_line)

        entries = {}  # key -> (value, lineno) of the keys not yet read
        for lineno, line in lines:
            key, eq, value = line.partition("=")
            if not eq:
                raise ConfigError(f"{_label(kind, names)}: expected key = value", path, lineno)
            key = key.strip()
            if key in entries:
                raise ConfigError(f"{_label(kind, names)}: duplicate key {key}", path, lineno)
            entries[key] = (value.strip(), lineno)
        if kind == "general" and (("default_wan_bandwidth" in entries)
                                  != ("default_wan_latency" in entries)):
            raise ConfigError("default WAN needs both bandwidth and latency", path, header_line)
        values = []
        for key, read, default in keys:
            found = entries.pop(key, None)
            if found is None:
                if default is _REQUIRED:
                    raise ConfigError(f"{_label(kind, names)}: missing key {key}",
                                      path, header_line)
                values.append(default)
                continue
            try:
                values.append(read(found[0]))
            except ValueError as exc:
                raise ConfigError(str(exc), path, found[1]) from None
        for key, (_value, lineno) in entries.items():  # the first key left is unknown
            raise ConfigError(f"{_label(kind, names)}: unknown key {key}", path, lineno)

        if kind == "general":
            catalog, bandwidth, latency, *lan = values
            config.general = GeneralCfg(catalog, None if bandwidth is None
                                        else (bandwidth, latency), *lan)
        elif kind == "profile":
            config.profiles.append(ProfileCfg(names[0], {
                name: value for name, value in zip(_PROFILE_FIELDS, values)
                if value is not _ABSENT}, header_line))
        else:
            attr, row = _ROWS[kind]
            getattr(config, attr).append(row(*names, *values, header_line))

    if not config.sites:
        raise ConfigError("topology declares no sites", path)
    return config


def parse_topology_file(path) -> TopologyConfig:
    import pathlib

    p = pathlib.Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read topology: {exc}", str(path)) from None
    return parse_topology(text, str(path))
