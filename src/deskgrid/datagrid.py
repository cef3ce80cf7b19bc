"""Storage elements and the replica catalogue.

A storage element sits at one fabric site and is a content store of
(path, size, checksum) triples with a hard capacity; the catalogue maps
logical file names to their physical copies, kept sorted.  Every replica
of a logical file shares one size and one checksum, registration
verifies both against the physical file, and replication to an element
that already holds a copy is an idempotent no-op.  The `lfn:` URI
prefix is accepted everywhere and stripped.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .fabric import Network, Site
from .jdl import strip_lfn_prefix
from .simcore import Kernel, kind


class DataGridError(Exception):
    pass


class SeFull(DataGridError):
    pass


class DuplicatePath(DataGridError):
    pass


class NoSuchPhysicalFile(DataGridError):
    pass


class ChecksumMismatch(DataGridError):
    pass


class UnknownLfn(DataGridError):
    pass


class UnknownSe(DataGridError):
    pass


@dataclass(frozen=True, slots=True)
class PhysicalFile:
    size_bytes: int
    checksum: int


class StorageElement:
    """Content store at one site; used_bytes is always exactly the sum of
    stored file sizes."""

    def __init__(self, se_id: str, site: Site, capacity_bytes: int):
        if capacity_bytes < 0:
            raise DataGridError(f"{se_id}: negative capacity {capacity_bytes}")
        self.se_id = se_id
        self.site = site
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self.files: dict[str, PhysicalFile] = {}  # by path

    def store(self, path: str, size_bytes: int, checksum: int) -> PhysicalFile:
        if path in self.files:
            raise DuplicatePath(f"{self.se_id} already holds {path}")
        if size_bytes < 0:
            raise DataGridError(f"{self.se_id} cannot store {path} of negative size {size_bytes}")
        if not self.room_for(size_bytes):
            raise SeFull(f"{self.se_id} cannot take {size_bytes} more bytes")
        pf = PhysicalFile(size_bytes, checksum)
        self.files[path] = pf
        self.used_bytes += size_bytes
        return pf

    def remove(self, path: str) -> None:
        self.used_bytes -= self.files.pop(path).size_bytes

    def get(self, path: str) -> "PhysicalFile | None":
        return self.files.get(path)

    def room_for(self, size_bytes: int) -> bool:
        return self.used_bytes + size_bytes <= self.capacity_bytes


class ReplicaCatalog:
    """Each logical name's (size, checksum) and its copies: one tuple of
    (se_id, path) pairs, sorted when a copy registers, so `lookup` and `dump`
    sort nothing, and which the collector, unlike a set, stops tracking."""

    def __init__(self, catalog_id: str):
        self.catalog_id = catalog_id
        self._replicas: dict[str, tuple] = {}
        self._meta: dict[str, tuple] = {}  # lfn -> (size, checksum)

    def register(self, lfn: str, store: StorageElement, path: str) -> None:
        lfn = strip_lfn_prefix(lfn)
        pf = store.get(path)
        if pf is None:
            raise NoSuchPhysicalFile(f"{store.se_id}:{path}")
        if lfn in self._meta:
            size, checksum = self._meta[lfn]
            if (pf.size_bytes, pf.checksum) != (size, checksum):
                raise ChecksumMismatch(
                    f"{lfn}: replica at {store.se_id}:{path} disagrees with the catalogue")
        else:
            self._meta[lfn] = (pf.size_bytes, pf.checksum)
        copies, copy = self._replicas.get(lfn, ()), (store.se_id, path)
        if copy not in copies:
            self._replicas[lfn] = tuple(sorted(copies + (copy,)))

    def known(self, lfn: str) -> bool:
        return strip_lfn_prefix(lfn) in self._replicas

    def lookup(self, lfn: str) -> list:
        """All (se_id, path) replicas, sorted; unknown names raise."""
        lfn = strip_lfn_prefix(lfn)
        if lfn not in self._replicas:
            raise UnknownLfn(lfn)
        return list(self._replicas[lfn])

    def meta(self, lfn: str) -> tuple:
        lfn = strip_lfn_prefix(lfn)
        if lfn not in self._meta:
            raise UnknownLfn(lfn)
        return self._meta[lfn]

    def dump(self) -> str:
        lines = []
        for lfn in sorted(self._replicas):
            size, checksum = self._meta[lfn]
            for se_id, path in self._replicas[lfn]:
                lines.append(f"{lfn} {se_id} {path} {size} {checksum:016x}")
        return "".join(line + "\n" for line in lines)


REPLICA_FAILED_LINE = kind("replica-failed", "lfn", "to", "reason")
REPLICA_ADDED_LINE = kind("replica-added", "lfn", "se", "path")


class DataGrid:
    """The storage elements plus the one replica catalogue, with enough of
    the fabric wired in to move replicas between elements."""

    def __init__(self, kernel: Kernel, network: Network, catalog_id: str):
        self.kernel = kernel
        self.network = network
        self.rc = ReplicaCatalog(catalog_id)
        self.ses: dict[str, StorageElement] = {}

    def add_se(self, store: StorageElement) -> None:
        self.ses[store.se_id] = store

    def store_of(self, se_id: str) -> StorageElement:
        store = self.ses.get(se_id)
        if store is None:
            raise UnknownSe(se_id)
        return store

    def put(self, store: StorageElement, name: str, size_bytes: int, checksum: int) -> None:
        """Store `name` on `store` and catalogue it under that name, or, when
        either refuses it, leave both as they were."""
        store.store(name, size_bytes, checksum)
        try:
            self.rc.register(name, store, name)
        except ChecksumMismatch:
            store.remove(name)
            raise

    def replicate(self, lfn: str, to_se: str):
        """Copy one replica of `lfn` onto `to_se` over the fabric links.

        Returns the seq of the scheduled completion event, or None when
        the target already holds a copy.  The source is the first replica in
        (se_id, path) order.  Room is checked up front; the store happens
        at transfer completion and a failure there is traced, not raised."""
        lfn = strip_lfn_prefix(lfn)
        replicas = self.lookup(lfn)
        if any(se_id == to_se for se_id, _path in replicas):
            return None
        target = self.store_of(to_se)
        size, _checksum = self.rc.meta(lfn)
        if not target.room_for(size):
            raise SeFull(f"{to_se} cannot take {lfn} ({size} bytes)")
        src_se, src_path = replicas[0]
        source = self.store_of(src_se)
        return self.network.transfer(
            size, source.site.endpoint, target.site.endpoint, what=f"replica:{lfn}",
            on_done=partial(self._replicated, lfn, source, src_path, target))

    def _replicated(self, lfn: str, source: StorageElement, src_path: str,
                    target: StorageElement) -> None:
        pf = source.get(src_path)
        if pf is None:
            self.kernel.line(self.rc.catalog_id, REPLICA_FAILED_LINE, lfn, target.se_id,
                             "NoSuchPhysicalFile")
            return
        try:
            target.store(src_path, pf.size_bytes, pf.checksum)
        except (SeFull, DuplicatePath) as exc:
            self.kernel.line(self.rc.catalog_id, REPLICA_FAILED_LINE, lfn, target.se_id,
                             type(exc).__name__)
            return
        self.rc.register(lfn, target, src_path)
        self.kernel.line(self.rc.catalog_id, REPLICA_ADDED_LINE, lfn, target.se_id, src_path)

    def lookup(self, lfn: str) -> list:
        return self.rc.lookup(lfn)
