from fractions import Fraction

import pytest

from deskgrid.infosys import (CERecord, InformationIndex, InfoSysError,
                              InvariantViolation, UnknownCE)


def ce(ce_id="ce_x", **kw):
    base = dict(ce_id=ce_id, site_id="x", lrms="PBS", schema_flavors=("EDG",),
                run_time_environment=("CMS",), wn_count=2, cpu_mhz=1000,
                authorized_vos=("testvo",), close_ses=("se_x",))
    base.update(kw)
    return CERecord(**base)


class FakeTap:
    """An element's ETT pair: its backlog over its nodes, unreduced."""

    def __init__(self, running, queued, wn_count):
        self._r = [Fraction(x) for x in running]
        self._q = [Fraction(x) for x in queued]
        self._wn = wn_count

    def ett(self):
        total = sum(self._r + self._q, Fraction(0))
        return total.numerator, total.denominator * self._wn


def test_ett_is_backlog_over_node_count():
    index = InformationIndex({"ce_x": FakeTap([300, 100], [200], 3)})
    index.publish_ce(ce(wn_count=3))
    # (300 + 100 + 200) / 3 nodes
    assert index.estimated_traversal_time("ce_x") == Fraction(200)


def test_ett_exact_fraction_no_float_drift():
    index = InformationIndex({"ce_x": FakeTap([Fraction(125, 2)], [], 1)})
    index.publish_ce(ce(wn_count=1))
    assert index.estimated_traversal_time("ce_x") == Fraction(125, 2)


def test_ett_without_tap_is_idle_and_unknown_ce_raises():
    index = InformationIndex()
    index.publish_ce(ce())
    assert index.estimated_traversal_time("ce_x") == 0
    with pytest.raises(UnknownCE):
        index.estimated_traversal_time("ce_ghost")


def test_condor_cannot_publish_edg_flavor():
    index = InformationIndex()
    with pytest.raises(InvariantViolation, match="Condor"):
        index.publish_ce(ce(lrms="CONDOR", schema_flavors=("EDG",)))
    # globus-only publishing is fine, and so is the explicit override
    index.publish_ce(ce(ce_id="ce_c1", lrms="CONDOR", schema_flavors=("GLOBUS_ONLY",)))
    index.publish_ce(ce(ce_id="ce_c2", lrms="CONDOR", schema_flavors=("EDG",),
                        allow_condor_edg=True))


def test_record_validation_limits():
    index = InformationIndex()
    with pytest.raises(InvariantViolation):
        index.publish_ce(ce(lrms="SGE"))
    with pytest.raises(InvariantViolation):
        index.publish_ce(ce(schema_flavors=()))
    with pytest.raises(InvariantViolation):
        index.publish_ce(ce(wn_count=0))


def test_query_filters_by_flavor_and_vo_and_sorts():
    index = InformationIndex()
    index.publish_ce(ce(ce_id="ce_b", schema_flavors=("EDG", "GLUE")))
    index.publish_ce(ce(ce_id="ce_a", schema_flavors=("EDG",)))
    index.publish_ce(ce(ce_id="ce_g", schema_flavors=("GLUE",)))
    index.publish_ce(ce(ce_id="ce_v", authorized_vos=("othervo",)))
    assert [r.ce_id for r in index.query("EDG", "testvo")] == ["ce_a", "ce_b"]
    assert [r.ce_id for r in index.query("GLUE", "testvo")] == ["ce_b", "ce_g"]
    with pytest.raises(InfoSysError):
        index.query("GLOBUS_ONLY", "testvo")


def test_a_query_answer_follows_every_valid_publish():
    """A republish that drops a flavor or a VO shows at the next query, a
    publish that fails validation leaves the answer as it was, and each
    caller gets its own list."""
    def ids(flavor, vo):
        return [r.ce_id for r in index.query(flavor, vo)]

    index = InformationIndex()
    index.publish_ce(ce(ce_id="ce_a"))
    index.publish_ce(ce(ce_id="ce_b", schema_flavors=("EDG", "GLUE")))
    assert ids("EDG", "testvo") == ["ce_a", "ce_b"]
    index.publish_ce(ce(ce_id="ce_b", schema_flavors=("GLUE",)))
    assert ids("EDG", "testvo") == ["ce_a"] and ids("GLUE", "testvo") == ["ce_b"]
    index.publish_ce(ce(ce_id="ce_a", authorized_vos=("othervo",)))
    assert ids("EDG", "testvo") == [] and ids("EDG", "othervo") == ["ce_a"]
    for bad in (ce(ce_id="ce_a", lrms="SGE"), ce(ce_id="ce_c", wn_count=0)):
        with pytest.raises(InvariantViolation):
            index.publish_ce(bad)
        assert ids("EDG", "othervo") == ["ce_a"] and ids("EDG", "testvo") == []
    index.query("EDG", "othervo").clear()
    assert ids("EDG", "othervo") == ["ce_a"]


def test_republish_replaces_record():
    index = InformationIndex()
    index.publish_ce(ce(cpu_mhz=1000))
    index.publish_ce(ce(cpu_mhz=1400))
    assert index.ces["ce_x"].cpu_mhz == 1400


def test_a_record_needs_a_positive_clock():
    with pytest.raises(InvariantViolation, match="ce_x: cpu_mhz must be positive"):
        InformationIndex().publish_ce(ce(cpu_mhz=0))
