"""The topology reader as it stood before its one-pass rewrite, for tests only.

`parse_topology` here is the sectioned reader that built a `_Section`
object per section and read each kind through an `if kind == ...` ladder,
and its number readers build every value through `Fraction(text)`.  Both
are kept verbatim, so `test_topology.py` and `test_units.py` can check
that the package reads every text, valid or broken, to an equal config
with exact values of equal types, or fails with the same diagnostic.
The config rows and `ConfigError` are the package's own.
"""
from __future__ import annotations

import re
from fractions import Fraction

from deskgrid.topology import (BrokerCfg, CeCfg, ConfigError, LinkCfg, ProfileCfg, SeCfg,
                               SiteCfg, TopologyConfig, VoCfg)
from deskgrid.units import GB, KB, MB

# -- number readers -------------------------------------------------------

_SIZE_UNITS = {"B": 1, "KB": KB, "MB": MB, "GB": GB}
_SIZE_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(B|KB|MB|GB)?\s*$")
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
        exponent = _EXPONENT.search(value)
        if exponent and abs(int(exponent[1])) > MAX_EXPONENT:
            raise ValueError(f"exponent beyond {MAX_EXPONENT} in {value!r}")
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


# -- sections --------------------------------------------------------------

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
