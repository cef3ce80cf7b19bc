"""Span wrappers installed from outside the program, and the per-layer
numbers computed from them.

`Tracer.install()` replaces functions at the attribute each caller looks
up: module functions (`deskgrid.jdl.parse_jdl`), names a module imported
into itself (`deskgrid.simcore.to_millis`), class methods
(`InformationIndex.estimated_traversal_time`) and, at `Kernel.schedule`,
every event payload, wrapped by its kind.  It must run before the grid is
built, because the grid keeps bound methods (the monitor hook, transition
observers, the bookkeeping emitter).

A span is (name, start, end, parent).  Spans stay in memory until the run
ends; a span's self time is its duration minus that of its child spans.
Counts beside the spans (events by kind, heap high-water mark, ETT terms,
candidates per match, `to_millis` calls, ...) are exact and repeat from run
to run; timings are host seconds.
"""
from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

from deskgrid import broker, cli, datagrid, fabric, infosys, jdl, production
from deskgrid import simcore, units, vomgmt

EVENT_KINDS = ("monitor-tick", "job-finish", "transfer-complete", "user-command")
#: modules whose summed span self time is reported as <module>.self_s
SELF_MODULES = ("simcore", "jdl", "infosys", "vomgmt", "broker", "fabric",
                "datagrid", "production", "cli")

# (owner, attribute, span name); owners are modules or classes
SPANS = (
    (simcore.Kernel, "run_until", "simcore.run_until"),
    (jdl, "parse_jdl", "jdl.parse_jdl"),
    (jdl, "parse_expr", "jdl.parse_expr"),
    (infosys.InformationIndex, "query", "infosys.query"),
    (infosys.InformationIndex, "estimated_traversal_time", "infosys.ett"),
    (broker.ResourceBroker, "submit", "broker.submit"),
    (broker.ResourceBroker, "run_job", "broker.run_job"),
    (broker.ResourceBroker, "_on_dispatched", "broker.on_dispatched"),
    (broker.ResourceBroker, "_stage_next", "broker.stage"),
    (broker.ResourceBroker, "_on_exec_complete", "broker.on_exec_complete"),
    (broker.ResourceBroker, "_store_next", "broker.store_output"),
    (broker.ResourceBroker, "_return_sandbox", "broker.return_sandbox"),
    (broker.ResourceBroker, "_finalize", "broker.finalize"),
    (fabric.ComputingElement, "enqueue", "fabric.enqueue"),
    (fabric.ComputingElement, "try_dispatch", "fabric.dispatch"),
    (fabric.ComputingElement, "execute", "fabric.execute"),
    (fabric.ComputingElement, "_tick", "fabric.tick"),
    (fabric.ComputingElement, "_exec_done", "fabric.exec_done"),
    (fabric.ComputingElement, "finish", "fabric.finish"),
    (fabric, "build_outputs", "fabric.build_outputs"),
    (datagrid.ReplicaCatalog, "lookup", "datagrid.lookup"),
    (datagrid.ReplicaCatalog, "register", "datagrid.register"),
    (datagrid.StorageElement, "store", "datagrid.store"),
    (datagrid.DataGrid, "replicate", "datagrid.replicate"),
    (production.ProductionManager, "declare", "production.declare"),
    (production.ProductionManager, "create", "production.create"),
    (production.ProductionManager, "submit", "production.submit"),
    (production.ProductionManager, "post_summary", "production.summary"),
    (production.ProductionManager, "on_monitor_tick", "production.monitor_tick"),
    (production.ProductionManager, "on_job_transition", "production.transition"),
    (cli, "dispatch", "cli.dispatch"),
)
#: modules that call `to_millis` through a name imported into themselves
TO_MILLIS_OWNERS = (units, simcore, fabric, vomgmt)


def _quantile(values: list, q: int) -> float:
    """q-th percentile (1..99) by `statistics.quantiles`; one value is its
    own percentile."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index)
        self.stack: list = []
        self.counts: Counter = Counter()
        self.heap_peak = 0
        self.active = True

    def reset(self) -> None:
        """Forget everything recorded so far (the set-up runs)."""
        self.spans.clear()
        self.counts.clear()
        self.heap_peak = 0

    def stop(self) -> None:
        self.active = False

    # -- wrappers ------------------------------------------------------

    def wrap(self, name: str, fn, flat: bool = False):
        """`fn` recorded as span `name`.  With `flat`, a call made while
        the innermost span already has this name (recursion) gets none."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def spanned(*args, **kwargs):
            if not self.active or (flat and stack and spans[stack[-1]] == name):
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(name)   # placeholder; read by nested `flat` checks
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
        return spanned

    def _count(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        for owner, attr, name in SPANS:
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))
        for owner in TO_MILLIS_OWNERS:
            owner.to_millis = self._count("units.to_millis_calls", owner.to_millis)
        simcore.Kernel.emit = self._count("simcore.emit_calls", simcore.Kernel.emit)
        jdl.evaluate = self.wrap("jdl.eval", jdl.evaluate, flat=True)
        jdl.requirement_satisfied = self.wrap("jdl.eval", jdl.requirement_satisfied,
                                              flat=True)
        self._install_counting()

    def _install_counting(self) -> None:
        counts = self.counts
        wrap = self.wrap
        tracer = self

        schedule = simcore.Kernel.schedule

        def scheduled(kernel, kind, payload, fire_at):
            event = schedule(kernel, kind, wrap(f"simcore.event.{kind}", payload),
                             fire_at)
            if tracer.active and len(kernel._heap) > tracer.heap_peak:
                tracer.heap_peak = len(kernel._heap)
            return event
        simcore.Kernel.schedule = wrap("simcore.schedule", scheduled)

        components = fabric.ComputingElement.ett_components

        def ett_components(ce):
            running, queued = components(ce)
            counts["infosys.ett_terms"] += len(running) + len(queued)
            return running, queued
        fabric.ComputingElement.ett_components = wrap("fabric.ett_components",
                                                      ett_components)

        authorize = vomgmt.VoManager.authorize

        def authorized(vo, site_id, proxy, now_ms):
            denial = authorize(vo, site_id, proxy, now_ms)
            counts["vomgmt.denials"] += denial is not None
            return denial
        vomgmt.VoManager.authorize = wrap("vomgmt.authorize", authorized)

        match = broker.ResourceBroker.match

        def matched(rb, job_id):
            result = match(rb, job_id)
            counts["broker.candidates"] += len(result.candidates)
            return result
        broker.ResourceBroker.match = wrap("broker.match", matched)

        move = broker.ResourceBroker._move

        def moved(rb, record, new_state):
            counts["broker.aborts"] += new_state == broker.ABORTED
            return move(rb, record, new_state)
        broker.ResourceBroker._move = wrap("broker.transition", moved)

        transfer = fabric.Network.transfer

        def transferred(network, size_bytes, frm, to, **kwargs):
            counts["fabric.transfer_bytes"] += size_bytes
            return transfer(network, size_bytes, frm, to, **kwargs)
        fabric.Network.transfer = wrap("fabric.transfer", transferred)

        update = production.BossDb.update_events_done

        def updated(boss, boss_id, value):
            before = boss.get(boss_id).events_done
            update(boss, boss_id, value)
            counts["fabric.useful_ticks"] += boss.get(boss_id).events_done != before
        production.BossDb.update_events_done = updated

    # -- results -------------------------------------------------------

    def _by_name(self) -> tuple:
        """(calls, total s, self s, durations in call order) per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        durations: dict = defaultdict(list)
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child[idx]
            durations[name].append(end - start)
        return calls, total, own, durations

    def layer_metrics(self, grid) -> dict:
        """Every per-layer metric of the traced run except the set-up
        timings and the overhead ratio, which the caller adds."""
        calls, total, own, durations = self._by_name()
        counts = self.counts
        events = {k: calls[f"simcore.event.{k}"] for k in EVENT_KINDS}
        matches = [d * 1000 for d in durations["broker.match"]]
        decile = max(1, len(matches) // 10)
        module_self: dict = defaultdict(float)
        for name, value in own.items():
            module_self[name.split(".", 1)[0]] += value
        trace = grid.kernel.trace
        failures = sum(1 for e in trace if e.action in ("replica-failed", "output-failed"))

        m = {
            "simcore.events_delivered": sum(n for name, n in calls.items()
                                            if name.startswith("simcore.event.")),
            **{f"simcore.events.{k}": v for k, v in events.items()},
            "simcore.schedule_calls": calls["simcore.schedule"],
            "simcore.schedule_s": total["simcore.schedule"],
            "simcore.loop_self_s": own["simcore.run_until"],
            "simcore.heap_peak": self.heap_peak,
            "simcore.emit_calls": counts["simcore.emit_calls"],
            "simcore.trace_entries": len(trace),
            "units.to_millis_calls": counts["units.to_millis_calls"],
            "jdl.parse_jdl_calls": calls["jdl.parse_jdl"],
            "jdl.parse_jdl_s": total["jdl.parse_jdl"],
            "jdl.parse_expr_calls": calls["jdl.parse_expr"],
            "jdl.parse_expr_s": total["jdl.parse_expr"],
            "jdl.eval_calls": calls["jdl.eval"],
            "jdl.eval_s": total["jdl.eval"],
            "infosys.query_calls": calls["infosys.query"],
            "infosys.query_s": total["infosys.query"],
            "infosys.ett_calls": calls["infosys.ett"],
            "infosys.ett_s": total["infosys.ett"],
            "infosys.ett_terms": counts["infosys.ett_terms"],
            "vomgmt.authorize_calls": calls["vomgmt.authorize"],
            "vomgmt.authorize_s": total["vomgmt.authorize"],
            "vomgmt.denials": counts["vomgmt.denials"],
            "broker.submit_s": total["broker.submit"],
            "broker.match_calls": calls["broker.match"],
            "broker.match_s": total["broker.match"],
            "broker.match_ms_p50": _quantile(matches, 50) if matches else 0.0,
            "broker.match_ms_p99": _quantile(matches, 99) if matches else 0.0,
            "broker.candidates_per_match": (counts["broker.candidates"] / len(matches)
                                            if matches else 0.0),
            "broker.aborts": counts["broker.aborts"],
            "broker.match_growth": (statistics.median(matches[-decile:])
                                    / statistics.median(matches[:decile])
                                    if matches else 0.0),
            "fabric.tick_calls": calls["fabric.tick"],
            "fabric.tick_s": total["fabric.tick"],
            "fabric.ticks_useful_ratio": (counts["fabric.useful_ticks"] / events["monitor-tick"]
                                          if events["monitor-tick"] else 0.0),
            "fabric.execute_s": total["fabric.execute"],
            "fabric.dispatch_s": total["fabric.dispatch"],
            "fabric.transfer_calls": calls["fabric.transfer"],
            "fabric.transfer_s": total["fabric.transfer"],
            "fabric.transfer_bytes": counts["fabric.transfer_bytes"],
            "fabric.build_outputs_s": total["fabric.build_outputs"],
            "datagrid.lookup_calls": calls["datagrid.lookup"],
            "datagrid.lookup_s": total["datagrid.lookup"],
            "datagrid.register_calls": calls["datagrid.register"],
            "datagrid.store_s": total["datagrid.store"],
            "datagrid.replicate_calls": calls["datagrid.replicate"],
            "datagrid.replicate_s": total["datagrid.replicate"],
            "datagrid.failures": failures,
            "production.create_s": total["production.create"],
            "production.submit_s": total["production.submit"],
            "production.monitor_tick_calls": calls["production.monitor_tick"],
            "production.monitor_tick_s": total["production.monitor_tick"],
            "production.transition_s": total["production.transition"],
            "production.summary_s": total["production.summary"],
            "cli.dispatch_calls": calls["cli.dispatch"],
            "cli.dispatch_self_s": own["cli.dispatch"],
        }
        for module in SELF_MODULES:
            m[f"{module}.self_s"] = module_self[module]
        return m

    def write_spans(self, path: str) -> None:
        """Tab-separated spans: index, name, start, end, parent index."""
        with open(path, "w") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                out.write(f"{idx}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
