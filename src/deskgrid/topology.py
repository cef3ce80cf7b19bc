"""Sectioned plain-text topology files.

A testbed declaration is a list of `[kind name...]` sections holding
`key = value` lines; `[vo <name>]` sections instead hold one member DN
per line.  `#` comments and blank lines are free.  Every diagnostic
carries the file path and line number.

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

from .units import parse_amount, parse_rate, parse_size


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


def _split_list(value: str) -> list:
    return [part for part in re.split(r"[,\s]+", value.strip()) if part]


def _parse_bool(value: str, path, line) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}", path, line)


def _parse_int(value: str, path, line, *, minimum=None) -> int:
    try:
        number = int(value.strip())
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", path, line) from None
    if minimum is not None and number < minimum:
        raise ConfigError(f"value {number} is below {minimum}", path, line)
    return number


def _parse_seconds(value: str, path, line) -> Fraction:
    try:
        seconds = Fraction(value.strip())
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"expected seconds, got {value!r}", path, line) from None
    if seconds < 0:
        raise ConfigError("durations cannot be negative", path, line)
    return seconds


class _Sections:
    """Raw section scan; keeps line numbers for every entry."""

    def __init__(self, text: str, path: str):
        self.path = path
        self.sections = []  # (kind, args, header_line, entries)
        current = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].rstrip()
            if not line.strip():
                continue
            if line.lstrip().startswith("["):
                m = _SECTION_RE.match(line.strip())
                if not m:
                    raise ConfigError(f"malformed section header {line.strip()!r}",
                                      path, lineno)
                current = (m.group(1), m.group(2).split(), lineno, [])
                self.sections.append(current)
                continue
            if current is None:
                raise ConfigError("content before the first section", path, lineno)
            current[3].append((lineno, line.strip()))


def _entries_to_dict(kind, name, entries, path) -> dict:
    out = {}
    for lineno, line in entries:
        if "=" not in line:
            raise ConfigError(f"[{kind} {name}]: expected key = value", path, lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"[{kind} {name}]: duplicate key {key}", path, lineno)
        out[key] = (value.strip(), lineno)
    return out


def _take(found: dict, key: str, kind, name, path, header_line, required=False,
          default=None):
    if key in found:
        return found.pop(key)
    if required:
        raise ConfigError(f"[{kind} {name}]: missing key {key}", path, header_line)
    return (default, header_line)


def _reject_leftovers(found: dict, kind, name, path):
    for key, (_value, lineno) in found.items():
        raise ConfigError(f"[{kind} {name}]: unknown key {key}", path, lineno)


def parse_topology(text: str, path: str = "<topology>") -> TopologyConfig:
    config = TopologyConfig(path)
    seen_names: dict[str, int] = {}
    for kind, args, header_line, entries in _Sections(text, path).sections:
        if kind != "general" and kind != "link":
            if not args:
                raise ConfigError(f"[{kind}] needs a name", path, header_line)
            name = args[0]
            key = f"{kind}:{name}"
            if key in seen_names:
                raise ConfigError(f"duplicate section [{kind} {name}]", path, header_line)
            seen_names[key] = header_line

        if kind == "general":
            found = _entries_to_dict(kind, "", entries, path)
            g = config.general
            if "replica_catalog" in found:
                g.replica_catalog = found.pop("replica_catalog")[0]
            bw = found.pop("default_wan_bandwidth", None)
            lat = found.pop("default_wan_latency", None)
            if (bw is None) != (lat is None):
                raise ConfigError("default WAN needs both bandwidth and latency",
                                  path, header_line)
            if bw is not None:
                try:
                    rate = parse_rate(bw[0])
                except ValueError as exc:
                    raise ConfigError(str(exc), path, bw[1]) from None
                g.default_wan = (rate, _parse_seconds(lat[0], path, lat[1]))
            if "lan_bandwidth" in found:
                value, lineno = found.pop("lan_bandwidth")
                try:
                    g.lan_bandwidth = parse_rate(value)
                except ValueError as exc:
                    raise ConfigError(str(exc), path, lineno) from None
            if "lan_latency" in found:
                value, lineno = found.pop("lan_latency")
                g.lan_latency = _parse_seconds(value, path, lineno)
            _reject_leftovers(found, kind, "", path)

        elif kind == "vo":
            members = []
            for lineno, line in entries:
                if "=" in line and not line.startswith("/"):
                    raise ConfigError(f"[vo {args[0]}]: expected one DN per line",
                                      path, lineno)
                if line in members:
                    raise ConfigError(f"[vo {args[0]}]: duplicate member {line}",
                                      path, lineno)
                members.append(line)
            config.vos.append(VoCfg(args[0], members, header_line))

        elif kind == "site":
            found = _entries_to_dict(kind, args[0], entries, path)
            region, lineno = _take(found, "region", kind, args[0], path, header_line,
                                   required=True)
            if region not in ("EU", "US"):
                raise ConfigError(f"region must be EU or US, got {region!r}", path, lineno)
            vos, _ = _take(found, "accept_vos", kind, args[0], path, header_line,
                           required=True)
            outbound, lineno = _take(found, "outbound", kind, args[0], path,
                                     header_line, default="true")
            config.sites.append(SiteCfg(args[0], region, _split_list(vos),
                                        _parse_bool(outbound, path, lineno),
                                        header_line))
            _reject_leftovers(found, kind, args[0], path)

        elif kind == "ce":
            found = _entries_to_dict(kind, args[0], entries, path)
            site, _ = _take(found, "site", kind, args[0], path, header_line, required=True)
            lrms, _ = _take(found, "lrms", kind, args[0], path, header_line, required=True)
            flavors, _ = _take(found, "flavors", kind, args[0], path, header_line,
                               required=True)
            wn, lineno = _take(found, "wn_count", kind, args[0], path, header_line,
                               required=True)
            wn_count = _parse_int(wn, path, lineno, minimum=1)
            mhz, lineno = _take(found, "cpu_mhz", kind, args[0], path, header_line,
                                required=True)
            cpu_mhz = _parse_int(mhz, path, lineno, minimum=1)
            tags, _ = _take(found, "tags", kind, args[0], path, header_line, default="")
            close, _ = _take(found, "close_ses", kind, args[0], path, header_line,
                             required=True)
            override, lineno = _take(found, "allow_condor_edg", kind, args[0], path,
                                     header_line, default="false")
            config.ces.append(CeCfg(args[0], site, lrms,
                                    tuple(_split_list(flavors)), wn_count, cpu_mhz,
                                    tuple(_split_list(tags or "")),
                                    tuple(_split_list(close)),
                                    _parse_bool(override, path, lineno), header_line))
            _reject_leftovers(found, kind, args[0], path)

        elif kind == "se":
            found = _entries_to_dict(kind, args[0], entries, path)
            site, _ = _take(found, "site", kind, args[0], path, header_line, required=True)
            cap, lineno = _take(found, "capacity", kind, args[0], path, header_line,
                                required=True)
            try:
                capacity = parse_size(cap)
            except ValueError as exc:
                raise ConfigError(str(exc), path, lineno) from None
            config.ses.append(SeCfg(args[0], site, capacity, header_line))
            _reject_leftovers(found, kind, args[0], path)

        elif kind == "link":
            if len(args) != 2:
                raise ConfigError("[link] needs exactly two endpoints", path, header_line)
            for ep in args:
                if not _ENDPOINT_RE.match(ep):
                    raise ConfigError(f"bad endpoint {ep!r} (site:<id>, rb:<id> or ui)",
                                      path, header_line)
            found = _entries_to_dict(kind, " ".join(args), entries, path)
            bw, lineno = _take(found, "bandwidth", kind, " ".join(args), path,
                               header_line, required=True)
            try:
                bandwidth = parse_rate(bw)
            except ValueError as exc:
                raise ConfigError(str(exc), path, lineno) from None
            lat, lineno = _take(found, "latency", kind, " ".join(args), path,
                                header_line, required=True)
            config.links.append(LinkCfg(args[0], args[1], bandwidth,
                                        _parse_seconds(lat, path, lineno), header_line))
            _reject_leftovers(found, kind, " ".join(args), path)

        elif kind == "broker":
            found = _entries_to_dict(kind, args[0], entries, path)
            flavor, lineno = _take(found, "flavor", kind, args[0], path, header_line,
                                   required=True)
            if flavor not in ("EDG", "GLUE"):
                raise ConfigError(f"broker flavor must be EDG or GLUE, got {flavor!r}",
                                  path, lineno)
            config.brokers.append(BrokerCfg(args[0], flavor, header_line))
            _reject_leftovers(found, kind, args[0], path)

        elif kind == "profile":
            found = _entries_to_dict(kind, args[0], entries, path)
            fields = {}
            if "per_event_cpu_1ghz" in found:
                value, lineno = found.pop("per_event_cpu_1ghz")
                fields["per_event_cpu_1ghz"] = _parse_seconds(value, path, lineno)
            if "output_per_event" in found:
                value, lineno = found.pop("output_per_event")
                try:  # per-event sizes may be fractional, like '1.8 MB'
                    fields["output_bytes_per_event"] = parse_amount(value)
                except ValueError as exc:
                    raise ConfigError(str(exc), path, lineno) from None
            if "monitor_every" in found:
                value, lineno = found.pop("monitor_every")
                fields["monitor_every_events"] = _parse_int(value, path, lineno, minimum=1)
            if "registers_output" in found:
                value, lineno = found.pop("registers_output")
                fields["registers_output"] = _parse_bool(value, path, lineno)
            if "data_extension" in found:
                fields["data_extension"] = found.pop("data_extension")[0]
            config.profiles.append(ProfileCfg(args[0], fields, header_line))
            _reject_leftovers(found, kind, args[0], path)

        else:
            raise ConfigError(f"unknown section kind [{kind}]", path, header_line)

    if not config.sites:
        raise ConfigError("topology declares no sites", path)
    return config


def parse_topology_file(path) -> TopologyConfig:
    import pathlib

    p = pathlib.Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read topology: {exc}", str(path)) from None
    return parse_topology(text, str(path))
