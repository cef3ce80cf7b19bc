"""A twin grid: the same grid with its derived state thrown away before
each use, so it computes everything afresh.

A workload run on a real grid and on its twin must give the same trace
export and the same BossDb, catalogue and RefDb dumps, byte for byte; any
difference is a kept value that went stale (differential testing, after
McKeeman 1998).  The twin uses the invalidations the program already has:

- before each match, every element reports a move of its running term,
  so the fabric rescans it, the fabric's order is emptied, so the refresh
  rebuilds it from fresh reads, each broker's kept admissible sets are
  dropped, and `fmt_ratio`'s cache is cleared;
- before each transfer, the route memo is dropped.

The twin drops routes by setting the LAN, through the very clear in
`Network.__setattr__` that a change of the LAN or default WAN relies on;
with that clear deleted, real and twin still agree.  The route test of
`test_fabric.py` is what catches it.
"""
from functools import wraps

from deskgrid.units import fmt_ratio


def _before(forget, method):
    @wraps(method)
    def forgetful(*args, **kwargs):
        forget()
        return method(*args, **kwargs)
    return forgetful


def make_twin(grid):
    """Turn `grid` into a twin, in place, and return it."""
    fabric, network = grid.fabric, grid.network

    def forget_before_match():
        for ce in fabric.ces.values():
            ce._moved()
        fabric.entries.clear()
        fabric.order.clear()
        for rb in grid.brokers.values():
            rb._kept.clear()
        fmt_ratio.cache_clear()

    def forget_routes():
        network.lan = network.lan  # setting a leg of the routes drops them all

    for rb in grid.brokers.values():
        rb.match = _before(forget_before_match, rb.match)
    network.transfer = _before(forget_routes, network.transfer)
    return grid
