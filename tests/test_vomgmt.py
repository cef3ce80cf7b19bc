import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deskgrid.grid import default_topology_path, load_topology
from deskgrid.vomgmt import (DEFAULT_PROXY_LIFETIME_S, Denial, NotAVoMember,
                             UnknownSite, UnknownVo, VoError, VoManager)


def manager():
    vo = VoManager()
    vo.add_vo("testvo")
    vo.add_vo("othervo")
    vo.add_member("testvo", "/C=XX/CN=alice")
    vo.add_member("testvo", "/C=XX/CN=bob")
    vo.add_member("othervo", "/C=XX/CN=alice")  # dual membership
    vo.add_member("othervo", "/C=XX/CN=carol")
    vo.register_site("alpha", ["testvo", "othervo"])
    vo.register_site("beta", ["othervo", "testvo"])  # opposite precedence
    vo.sync_all()
    return vo


def test_proxy_expiry_boundary_is_exclusive():
    vo = manager()
    proxy = vo.create_proxy("/C=XX/CN=alice", "testvo", 1000, lifetime_s=10)
    assert proxy.valid_at(1000)
    assert proxy.valid_at(10_999)       # one ms before the boundary
    assert not proxy.valid_at(11_000)   # issued + lifetime exactly
    assert not proxy.valid_at(12_000)


def test_default_lifetime_is_twelve_hours():
    vo = manager()
    proxy = vo.create_proxy("/C=XX/CN=bob", "testvo", 0)
    assert proxy.lifetime_ms == DEFAULT_PROXY_LIFETIME_S * 1000
    assert DEFAULT_PROXY_LIFETIME_S == 12 * 3600


def test_proxy_lifetime_must_be_positive():
    vo = manager()
    for lifetime in (-5, 0, "0.0004"):  # the last rounds to 0 ms
        with pytest.raises(VoError):
            vo.create_proxy("/C=XX/CN=alice", "testvo", 0, lifetime_s=lifetime)
    assert vo.create_proxy("/C=XX/CN=alice", "testvo", 0, lifetime_s="0.001").lifetime_ms == 1


def test_proxy_refused_for_outsiders():
    vo = manager()
    with pytest.raises(NotAVoMember):
        vo.create_proxy("/C=XX/CN=mallory", "testvo", 0)
    with pytest.raises(UnknownVo):
        vo.create_proxy("/C=XX/CN=alice", "ghosts", 0)


def test_mapfile_pool_tag_follows_site_vo_precedence():
    vo = manager()
    assert vo.mapfile("alpha")["/C=XX/CN=alice"] == ".testvo"
    assert vo.mapfile("beta")["/C=XX/CN=alice"] == ".othervo"
    assert vo.mapfile("alpha")["/C=XX/CN=carol"] == ".othervo"


def test_mapfile_dump_sorted():
    vo = manager()
    dump = vo.mapfile_dump("alpha")
    lines = dump.strip().split("\n")
    assert lines == sorted(lines)
    assert "/C=XX/CN=alice .testvo" in lines


def test_mapfile_is_a_snapshot_until_resync():
    vo = manager()
    proxy = vo.create_proxy("/C=XX/CN=bob", "testvo", 0)
    vo.remove_member("testvo", "/C=XX/CN=bob")
    # directory changed, site file did not
    assert vo.authorize("alpha", proxy, 0) is None
    vo.sync_mapfile("alpha")
    assert vo.authorize("alpha", proxy, 0) is Denial.NOT_IN_MAPFILE
    # and the other way: a new member only appears after a sync
    vo.add_member("testvo", "/C=XX/CN=dave")
    dave = vo.create_proxy("/C=XX/CN=dave", "testvo", 0)
    assert vo.authorize("beta", dave, 0) is Denial.NOT_IN_MAPFILE
    vo.sync_mapfile("beta")
    assert vo.authorize("beta", dave, 0) is None


def test_expiry_reported_before_mapfile_membership():
    vo = manager()
    proxy = vo.create_proxy("/C=XX/CN=bob", "testvo", 0, lifetime_s=5)
    vo.remove_member("testvo", "/C=XX/CN=bob")
    vo.sync_all()
    # expired and unmapped: the expiry wins the report
    assert vo.authorize("alpha", proxy, 60_000) is Denial.PROXY_EXPIRED
    assert vo.authorize("alpha", proxy, 1_000) is Denial.NOT_IN_MAPFILE


def test_authorize_unknown_site():
    vo = manager()
    proxy = vo.create_proxy("/C=XX/CN=alice", "testvo", 0)
    with pytest.raises(UnknownSite):
        vo.authorize("atlantis", proxy, 0)


def test_denial_renders_as_reason_token():
    assert str(Denial.PROXY_EXPIRED) == "ProxyExpired"
    assert str(Denial.NOT_IN_MAPFILE) == "NotInMapfile"


def test_site_registration_validates_vos():
    vo = VoManager()
    vo.add_vo("one")
    with pytest.raises(UnknownVo):
        vo.register_site("x", ["one", "ghosts"])


def test_membership_and_mapfile_calls_refuse_unknown_names():
    vo = manager()
    with pytest.raises(UnknownVo):
        vo.add_member("ghosts", "/C=XX/CN=alice")
    with pytest.raises(UnknownVo):
        vo.remove_member("ghosts", "/C=XX/CN=alice")
    with pytest.raises(NotAVoMember):
        vo.remove_member("testvo", "/C=XX/CN=carol")
    for call in (vo.sync_mapfile, vo.mapfile):
        with pytest.raises(UnknownSite):
            call("atlantis")
    assert vo.mapfile("beta") == {"/C=XX/CN=alice": ".othervo", "/C=XX/CN=carol": ".othervo",
                                  "/C=XX/CN=bob": ".testvo"}


def test_sync_all_gives_each_shipped_site_the_mapfile_of_its_own_sync():
    grid = load_topology(default_topology_path())
    vo, sites = grid.vo, sorted(grid.fabric.sites)
    synced = {site: vo.mapfile(site) for site in sites}
    assert len({tuple(sorted(m.items())) for m in synced.values()}) > 1
    generation = vo.generation
    vo.sync_all()
    assert vo.generation == generation + len(sites)
    assert {site: vo.mapfile(site) for site in sites} == synced
    assert {site: vo.sync_mapfile(site) for site in sites} == synced


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 4), max_size=5), min_size=1, max_size=4),
       st.lists(st.lists(st.integers(0, 3), max_size=4), min_size=1, max_size=6))
@example([[0, 1], [0, 2]], [[0, 1], [1, 0], [0, 1]])  # user 0 in both VOs, opposite orders
def test_sync_all_equals_a_sync_per_site_on_drawn_memberships(members, sites):
    """`members[v]` are the users of VO v and `sites[s]` the VOs site s
    accepts, in order; a user in several of them maps to the first."""
    vo = VoManager()
    for v, users in enumerate(members):
        vo.add_vo(f"vo{v}")
        for user in users:
            vo.add_member(f"vo{v}", f"/CN=user{user}")
    for s, accepted in enumerate(sites):
        vo.register_site(f"site{s}", [f"vo{v % len(members)}" for v in accepted])
    vo.sync_all()
    shared = {f"site{s}": vo.mapfile(f"site{s}") for s in range(len(sites))}
    assert shared == {site: vo.sync_mapfile(site) for site in shared}
    vo.sync_all()
    vo.add_vo("late")
    vo.register_site("site0", ["late"])  # replaced, not changed in place
    vo.sync_mapfile("site0")
    assert {site: vo.mapfile(site) for site in shared} == {**shared, "site0": {}}
