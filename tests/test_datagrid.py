import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deskgrid.datagrid import (ChecksumMismatch, DataGrid, DataGridError,
                               DuplicatePath, NoSuchPhysicalFile, SeFull,
                               StorageElement, UnknownLfn, UnknownSe)
from deskgrid.fabric import Site
from deskgrid.grid import Grid
from deskgrid.topology import parse_topology
from deskgrid.units import KB, MB

from conftest import MINI_TOPOLOGY, make_mini


def element(capacity=10 * MB, se_id="se_t"):
    return StorageElement(se_id, Site("alpha", "EU"), capacity)


def test_store_tracks_used_bytes_exactly():
    se = element()
    se.store("a", 3 * MB, 1)
    se.store("b", 2 * MB, 2)
    assert se.used_bytes == 5 * MB
    assert se.files.get("a")[0] == 3 * MB
    assert se.files.get("missing") is None
    assert se.room_for(5 * MB)
    assert not se.room_for(5 * MB + 1)


def test_store_refuses_overflow_and_duplicates():
    se = element(capacity=4 * MB)
    se.store("a", 3 * MB, 1)
    with pytest.raises(SeFull):
        se.store("b", 2 * MB, 2)
    with pytest.raises(DuplicatePath):
        se.store("a", 1, 3)
    with pytest.raises(DataGridError):
        se.store("c", -5, 4)
    assert se.used_bytes == 3 * MB  # failures change nothing
    assert se.files.get("c") is None


def test_a_negative_capacity_is_refused():
    with pytest.raises(DataGridError, match="negative capacity"):
        element(capacity=-1)
    assert element(capacity=0).room_for(0)


def test_validate_reports_used_bytes_out_of_step_with_contents(mini):
    mini.datagrid.store_of("se_beta").used_bytes += 1
    assert mini.validate() == ["se_beta: used bytes out of step with contents"]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 30), st.integers(1, 1024)), max_size=25))
def test_used_bytes_always_sum_of_contents(ops):
    se = element(capacity=8 * KB)
    for i, (key, size) in enumerate(ops):
        try:
            se.store(f"f{key}", size, i)
        except (SeFull, DuplicatePath):
            pass
        assert se.used_bytes == sum(size for size, _checksum in se.files.values())
        assert 0 <= se.used_bytes <= se.capacity_bytes


def test_catalog_register_needs_physical_file():
    grid = make_mini()
    dg = grid.datagrid
    with pytest.raises(NoSuchPhysicalFile):
        dg.rc.register("ghost.dat", dg.store_of("se_alpha"), "ghost.dat")
    with pytest.raises(UnknownSe):
        dg.rc.register("x", dg.store_of("se_ghost"), "x")


def test_catalog_checksum_consistency_across_replicas():
    grid = make_mini()
    dg = grid.datagrid
    dg.store_of("se_alpha").store("d.ntpl", 1000, 77)
    dg.rc.register("d.ntpl", dg.store_of("se_alpha"), "d.ntpl")
    # a second physical copy must agree byte for byte with the catalogue
    dg.store_of("se_beta").store("d.ntpl", 1000, 78)
    with pytest.raises(ChecksumMismatch):
        dg.rc.register("d.ntpl", dg.store_of("se_beta"), "d.ntpl")
    dg.store_of("se_beta").store("d2.ntpl", 999, 77)
    with pytest.raises(ChecksumMismatch):
        dg.rc.register("lfn:d.ntpl", dg.store_of("se_beta"), "d2.ntpl")


def test_lookup_sorted_and_lfn_prefix_transparent():
    grid = make_mini()
    dg = grid.datagrid
    dg.store_of("se_beta").store("p", 10, 5)
    dg.store_of("se_alpha").store("q", 10, 5)
    dg.store_of("se_alpha").store("p", 10, 5)
    # registered out of (se, path) order, and one copy twice
    for se_id, path in (("se_beta", "p"), ("se_alpha", "q"), ("se_alpha", "p"),
                        ("se_alpha", "q")):
        dg.rc.register("lfn:data" if se_id == "se_beta" else "data", dg.store_of(se_id), path)
    copies = [("se_alpha", "p"), ("se_alpha", "q"), ("se_beta", "p")]
    assert dg.rc.lookup("data") == copies
    dg.rc.lookup("data").pop()  # each lookup is the caller's own list
    assert dg.rc.lookup("lfn:data") == dg.rc.lookup("data") == copies
    assert dg.rc.dump() == "".join(f"data {se_id} {path} 10 {5:016x}\n"
                                   for se_id, path in copies)
    assert dg.rc.meta("data") == (10, 5)
    with pytest.raises(UnknownLfn):
        dg.rc.lookup("nothing")


def test_generation_ntuple_size_number():
    # 250 events at 50 KB per event
    assert 250 * 50 * KB == 12_800_000


def test_replicate_timing_over_link_plus_destination_lan():
    grid = make_mini()
    dg = grid.datagrid
    size = 100 * MB
    dg.store_of("se_alpha").store("big.fz", size, 9)
    dg.rc.register("big.fz", dg.store_of("se_alpha"), "big.fz")
    dg.replicate("big.fz", "se_beta")
    # alpha->beta link: 100 MB / 20 MB/s + 0.1 s latency = 5.1 s
    # beta LAN:         100 MB / 100 MB/s + 0.001 s      = 1.001 s
    # lands at exactly 6.101 s
    grid.kernel.run_until(Fraction(6100, 1000))
    assert [r[0] for r in dg.rc.lookup("big.fz")] == ["se_alpha"]
    grid.kernel.run_until(Fraction(6101, 1000))
    assert [r[0] for r in dg.rc.lookup("big.fz")] == ["se_alpha", "se_beta"]
    assert dg.store_of("se_beta").files.get("big.fz")[1] == 9


@pytest.mark.parametrize("general, lands_ms", [
    # beta LAN: 100 MB / 50 MB/s + 0.01 s = 2.01 s after the 5.1 s link
    ("lan_bandwidth = 50 MB/s\nlan_latency = 0.01\n", 7110),
    # only the latency set: 100 MB / 100 MB/s (built in) + 0.01 s
    ("lan_latency = 0.01\n", 6110),
    ("lan_bandwidth = 50 MB/s\n", 7101),
])
def test_general_lan_keys_set_the_lan_leg_of_a_replication(general, lands_ms):
    text = MINI_TOPOLOGY.replace("[vo testvo]", general + "\n[vo testvo]", 1)
    grid = Grid(parse_topology(text, "<mini>"))
    dg = grid.datagrid
    dg.store_of("se_alpha").store("big.fz", 100 * MB, 9)
    dg.rc.register("big.fz", dg.store_of("se_alpha"), "big.fz")
    dg.replicate("big.fz", "se_beta")
    grid.kernel.run_until(Fraction(lands_ms - 1, 1000))
    assert [r[0] for r in dg.rc.lookup("big.fz")] == ["se_alpha"]
    grid.kernel.run_until(Fraction(lands_ms, 1000))
    assert [r[0] for r in dg.rc.lookup("big.fz")] == ["se_alpha", "se_beta"]


def test_replicate_is_idempotent_and_checks_room_up_front():
    grid = make_mini()
    dg = grid.datagrid
    dg.store_of("se_alpha").store("a", 10, 1)
    dg.rc.register("a", dg.store_of("se_alpha"), "a")
    assert dg.replicate("a", "se_alpha") is None  # already held
    dg.store_of("se_beta").store("filler", 1024 * MB - 5, 2)
    with pytest.raises(SeFull):
        dg.replicate("a", "se_beta")


def test_replicate_failure_at_completion_is_traced_not_raised():
    for spoil, reason in (
            # the path gets taken while the copy is in flight
            (lambda dg: dg.store_of("se_beta").store("a", 10, 99), "DuplicatePath"),
            # the source copy is lost while it is in flight
            (lambda dg: dg.store_of("se_alpha").files.pop("a"), "NoSuchPhysicalFile")):
        grid = make_mini()
        dg = grid.datagrid
        dg.store_of("se_alpha").store("a", 10, 1)
        dg.rc.register("a", dg.store_of("se_alpha"), "a")
        dg.replicate("a", "se_beta")
        spoil(dg)
        grid.kernel.run_to_completion()
        assert [e.detail for e in grid.kernel.trace if e.action == "replica-failed"] == [
            {"lfn": "a", "to": "se_beta", "reason": reason}]
        assert dg.rc.lookup("a") == [("se_alpha", "a")]


def test_dump_format():
    grid = make_mini()
    dg = grid.datagrid
    dg.store_of("se_alpha").store("b.ntpl", 11, 0xABC)
    dg.rc.register("b.ntpl", dg.store_of("se_alpha"), "b.ntpl")
    dg.store_of("se_alpha").store("a.ntpl", 7, 0xDEF)
    dg.rc.register("a.ntpl", dg.store_of("se_alpha"), "a.ntpl")
    dump = dg.rc.dump()
    assert dump.splitlines() == [
        f"a.ntpl se_alpha a.ntpl 7 {0xDEF:016x}",
        f"b.ntpl se_alpha b.ntpl 11 {0xABC:016x}",
    ]


def test_the_metadata_of_an_unknown_name_is_refused():
    with pytest.raises(UnknownLfn):
        make_mini().datagrid.rc.meta("lfn:nothing")


def test_a_stored_file_has_one_row_that_the_catalogue_shares():
    """The catalogue holds the first copy's own `(size, checksum)` row, a
    replica's row equals it, and the collector does not walk a row."""
    grid = make_mini()
    dg = grid.datagrid
    alpha, beta = dg.store_of("se_alpha"), dg.store_of("se_beta")
    dg.put(alpha, "r.fz", 10 * MB, 9)
    assert dg.rc.meta("r.fz") is alpha.files["r.fz"]
    dg.replicate("r.fz", "se_beta")
    grid.kernel.run_to_completion()
    assert dg.rc.lookup("r.fz") == [("se_alpha", "r.fz"), ("se_beta", "r.fz")]
    assert beta.files["r.fz"] == dg.rc.meta("r.fz") == (10 * MB, 9)
    gc.collect()
    assert not gc.is_tracked(alpha.files["r.fz"]) and not gc.is_tracked(beta.files["r.fz"])
