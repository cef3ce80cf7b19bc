"""Virtual organisations, proxies and per-site grid-mapfiles.

A site's mapfile is a snapshot: it holds the union of the member lists of
the VOs the site accepts, as of the last sync.  Authorization consults the
snapshot, never the live directory, so a user removed from a VO keeps
working at a site until that site syncs again.  Denials are ordinary
return values (the broker turns them into job state), not exceptions.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from .units import to_millis

DEFAULT_PROXY_LIFETIME_S = 43200  # 12 hours


class VoError(Exception):
    pass


class NotAVoMember(VoError):
    pass


class UnknownVo(VoError):
    pass


class UnknownSite(VoError):
    pass


class Denial(enum.Enum):
    PROXY_EXPIRED = "ProxyExpired"
    NOT_IN_MAPFILE = "NotInMapfile"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class Proxy:
    user_dn: str
    vo_name: str
    issued_at_ms: int
    lifetime_ms: int

    def valid_at(self, now_ms: int) -> bool:
        # the expiry instant itself is already invalid
        return now_ms < self.issued_at_ms + self.lifetime_ms


class VoManager:
    def __init__(self):
        self._members: dict[str, list[str]] = {}
        self._site_vos: dict[str, tuple] = {}
        self._mapfiles: dict[str, dict[str, str]] = {}
        # counts mapfile syncs: an answer of `maps` holds while this stays the same
        self.generation = 0

    # -- directory maintenance ----------------------------------------

    def add_vo(self, name: str) -> None:
        self._members.setdefault(name, [])

    def vo_names(self) -> list[str]:
        return list(self._members)

    def add_member(self, vo: str, dn: str) -> None:
        if vo not in self._members:
            raise UnknownVo(vo)
        if dn not in self._members[vo]:
            self._members[vo].append(dn)

    def remove_member(self, vo: str, dn: str) -> None:
        if vo not in self._members:
            raise UnknownVo(vo)
        try:
            self._members[vo].remove(dn)
        except ValueError:
            raise NotAVoMember(f"{dn} is not in {vo}") from None

    def register_site(self, site_id: str, accept_vos: list[str]) -> None:
        for vo in accept_vos:
            if vo not in self._members:
                raise UnknownVo(vo)
        self._site_vos[site_id] = tuple(accept_vos)
        self._mapfiles.setdefault(site_id, {})

    # -- proxies -------------------------------------------------------

    def create_proxy(self, user_dn: str, vo: str, now_ms: int,
                     lifetime_s=None) -> Proxy:
        if vo not in self._members:
            raise UnknownVo(vo)
        if user_dn not in self._members[vo]:
            raise NotAVoMember(f"{user_dn} is not a member of {vo}")
        lifetime = DEFAULT_PROXY_LIFETIME_S if lifetime_s is None else lifetime_s
        lifetime_ms = to_millis(lifetime)
        if lifetime_ms <= 0:
            raise VoError(f"proxy lifetime must be at least 1 ms, not {lifetime}s")
        return Proxy(user_dn, vo, now_ms, lifetime_ms)

    # -- mapfiles ------------------------------------------------------

    def sync_mapfile(self, site_id: str) -> dict[str, str]:
        """Rebuild the site's mapfile from the live directories."""
        if site_id not in self._site_vos:
            raise UnknownSite(site_id)
        self._mapfiles[site_id] = mapping = self._mapping(self._site_vos[site_id])
        self.generation += 1
        return dict(mapping)

    def sync_all(self) -> None:
        """`sync_mapfile` for every site, with one mapping built per accepted-VO
        list: sites may share it, as a mapfile is replaced, never changed."""
        built = {vos: self._mapping(vos) for vos in set(self._site_vos.values())}
        for site_id, vos in self._site_vos.items():
            self._mapfiles[site_id] = built[vos]
        self.generation += len(self._site_vos)

    def _mapping(self, vos: tuple) -> dict[str, str]:
        """A user in several of `vos` gets the pool tag of the first of them."""
        mapping: dict[str, str] = {}
        for vo in vos:
            tag = "." + vo
            for dn in self._members[vo]:
                mapping.setdefault(dn, tag)
        return mapping

    def mapfile(self, site_id: str) -> dict[str, str]:
        if site_id not in self._site_vos:
            raise UnknownSite(site_id)
        return dict(self._mapfiles[site_id])

    def mapfile_dump(self, site_id: str) -> str:
        entries = self.mapfile(site_id)
        return "".join(f"{dn} {tag}\n" for dn, tag in sorted(entries.items()))

    # -- authorization -------------------------------------------------

    def maps(self, site_id: str, user_dn: str) -> bool:
        """Whether the site's mapfile, as of its last sync, maps `user_dn`."""
        try:
            return user_dn in self._mapfiles[site_id]
        except KeyError:
            raise UnknownSite(site_id) from None

    def authorize(self, site_id: str, proxy: Proxy, now_ms: int) -> Denial | None:
        """None means admitted; otherwise the denial reason.  Expiry is
        checked before the mapfile so an expired proxy is always reported
        as expired."""
        mapped = self.maps(site_id, proxy.user_dn)
        if not proxy.valid_at(now_ms):
            return Denial.PROXY_EXPIRED
        if not mapped:
            return Denial.NOT_IN_MAPFILE
        return None
