"""Sectioned plain-text topology files.

A testbed declaration is a list of `[kind name...]` sections holding
`key = value` lines; `[vo <name>]` sections instead hold one member DN
(starting with `/`) per line.  `#` comments and blank lines are free.
A header holds its kind and the names listed below, no more words; each
section appears once, a link once per unordered pair of two different
endpoints.  Every diagnostic carries the file path and a line number: a
missing key is reported at its section's header, a value that does not
read at its own line.

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
# ValueError, which `_Section.get` reports at the value's line.

def _words(value: str) -> tuple:
    return tuple(value.replace(",", " ").split())


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


_REQUIRED = object()  # `_Section.get`'s default: the key must be given
_KEYED_KINDS = ("general", "site", "ce", "se", "link", "broker", "profile")

#: [profile] key -> (WorkloadProfile field, reader), in reading order
_PROFILE_KEYS = {
    "per_event_cpu_1ghz": ("per_event_cpu_1ghz", _seconds),
    "output_per_event": ("output_bytes_per_event", parse_amount),  # may be '1.8 MB'
    "monitor_every": ("monitor_every_events", _count),
    "registers_output": ("registers_output", _bool),
    "data_extension": ("data_extension", str),
}


class _Section:
    """The `key = value` lines of one section, each key read once.

    Every diagnostic names the section by its label and points at the
    header line, or at the line of the value that failed to read."""

    def __init__(self, label: str, line: int, lines: list, path: str):
        self.label = label
        self.line = line
        self.path = path
        self.entries = {}  # key -> (value, lineno) of the keys not yet read
        for lineno, text in lines:
            if "=" not in text:
                raise self.error(f"{label}: expected key = value", lineno)
            key, value = text.split("=", 1)
            key = key.strip()
            if key in self.entries:
                raise self.error(f"{label}: duplicate key {key}", lineno)
            self.entries[key] = (value.strip(), lineno)

    def error(self, message: str, line: "int | None" = None) -> ConfigError:
        return ConfigError(message, self.path, self.line if line is None else line)

    def has(self, key: str) -> bool:
        return key in self.entries

    def get(self, key: str, read=str, default=_REQUIRED):
        found = self.entries.pop(key, None)
        if found is None:
            if default is _REQUIRED:
                raise self.error(f"{self.label}: missing key {key}")
            return default
        value, lineno = found
        try:
            return read(value)
        except ValueError as exc:
            raise self.error(str(exc), lineno) from None

    def done(self) -> None:
        for key, (_value, lineno) in self.entries.items():
            raise self.error(f"{self.label}: unknown key {key}", lineno)


def _scan(text: str, path: str) -> list:
    """(kind, header words, header line, [(lineno, text)]) per section."""
    sections = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                raise ConfigError(f"malformed section header {line!r}", path, lineno)
            sections.append((m.group(1), m.group(2).split(), lineno, []))
        elif not sections:
            raise ConfigError("content before the first section", path, lineno)
        else:
            sections[-1][3].append((lineno, line))
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
        label = "[" + " ".join([kind, *names]) + "]"
        identity = (kind, frozenset(names))  # a link's endpoints are unordered
        if identity in seen:
            raise ConfigError(f"duplicate section {label}", path, header_line)
        seen.add(identity)

        if kind == "vo":
            members = []
            for lineno, line in lines:
                if not line.startswith("/"):
                    raise ConfigError(f"{label}: expected one DN per line", path, lineno)
                if line in members:
                    raise ConfigError(f"{label}: duplicate member {line}", path, lineno)
                members.append(line)
            config.vos.append(VoCfg(names[0], members, header_line))
            continue
        if kind not in _KEYED_KINDS:  # before any of its lines is read
            raise ConfigError(f"unknown section kind [{kind}]", path, header_line)

        s = _Section(label, header_line, lines, path)
        if kind == "general":
            g = config.general
            g.replica_catalog = s.get("replica_catalog", default=g.replica_catalog)
            if s.has("default_wan_bandwidth") != s.has("default_wan_latency"):
                raise s.error("default WAN needs both bandwidth and latency")
            if s.has("default_wan_bandwidth"):
                g.default_wan = (s.get("default_wan_bandwidth", parse_rate),
                                 s.get("default_wan_latency", _seconds))
            g.lan_bandwidth = s.get("lan_bandwidth", parse_rate, None)
            g.lan_latency = s.get("lan_latency", _seconds, None)
        elif kind == "site":
            config.sites.append(SiteCfg(
                names[0], s.get("region", _choice("region", "EU", "US")),
                list(s.get("accept_vos", _words)), s.get("outbound", _bool, True),
                header_line))
        elif kind == "ce":
            config.ces.append(CeCfg(
                names[0], s.get("site"), s.get("lrms"), s.get("flavors", _words),
                s.get("wn_count", _count), s.get("cpu_mhz", _count),
                s.get("tags", _words, ()), s.get("close_ses", _words),
                s.get("allow_condor_edg", _bool, False), header_line))
        elif kind == "se":
            config.ses.append(SeCfg(names[0], s.get("site"),
                                    s.get("capacity", parse_size), header_line))
        elif kind == "link":
            config.links.append(LinkCfg(*names, s.get("bandwidth", parse_rate),
                                        s.get("latency", _seconds), header_line))
        elif kind == "broker":
            flavor = s.get("flavor", _choice("broker flavor", "EDG", "GLUE"))
            config.brokers.append(BrokerCfg(names[0], flavor, header_line))
        elif kind == "profile":
            config.profiles.append(ProfileCfg(names[0], {
                field_name: s.get(key, read)
                for key, (field_name, read) in _PROFILE_KEYS.items() if s.has(key)},
                header_line))
        s.done()

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
