"""One assembled testbed: every service wired over a shared kernel.

Building a Grid from a parsed topology is where cross-references are
checked (dangling sites, elements or brokers fail with the offending
file line), VO mapfiles get their first sync, computing elements are
published to the information index, whose ETT view reads them, storage
elements are placed at their sites in the data grid, and the production
layer is hooked into broker transitions and job monitors.  Elements are
the only record of their load, so `validate` has no copy of it to
compare; it rescans each queue against the element's queued CPU, each
element's running jobs against its cached running term while that is
still valid, each broker's kept ETT of an element against a fresh read
while the element has reported no move and its horizon is not due, and
each storage element's contents against its used bytes.
"""
from __future__ import annotations

import dataclasses

from . import broker as broker_mod
from . import datagrid as dg_mod
from . import fabric as fabric_mod
from . import infosys
from . import jdl
from . import production as prod_mod
from . import topology
from . import vomgmt
from .simcore import Kernel, exact, kind
from .topology import ConfigError, TopologyConfig

PROXY_INIT_LINE = kind("proxy-init", "user", "vo", "lifetime_s")


class Grid:
    def __init__(self, config: TopologyConfig, seed=None):
        # `seed` is ignored: bench/rep.py passes it, and only a benchmark change edits bench/
        self.kernel = Kernel()
        self.vo = vomgmt.VoManager()
        self.network = fabric_mod.Network(self.kernel)
        self.fabric = fabric_mod.Fabric(self.kernel, self.network, self.vo)
        self.info = infosys.InformationIndex(self.fabric.ces)
        self.datagrid = dg_mod.DataGrid(self.kernel, self.network,
                                        config.general.replica_catalog)
        self.brokers: dict[str, broker_mod.ResourceBroker] = {}
        self.refdb = prod_mod.RefDb()
        self.bossdb = prod_mod.BossDb(emit=self.kernel.emit)
        self.current_proxy: "vomgmt.Proxy | None" = None
        self._job_seq = 0
        self._build(config)
        self.production = prod_mod.ProductionManager(
            self.kernel, self.refdb, self.bossdb, self.brokers, self.datagrid, self.fabric)
        for ce in self.fabric.ces.values():
            ce.monitor_hook = self.production.on_monitor_tick
        for rb in self.brokers.values():
            rb.transition_observers.append(self.production.on_job_transition)

    # -- construction --------------------------------------------------

    def _build(self, config: TopologyConfig) -> None:
        path = config.path
        for vo_cfg in config.vos:
            self.vo.add_vo(vo_cfg.name)
            for dn in vo_cfg.members:
                self.vo.add_member(vo_cfg.name, dn)

        general = config.general
        if general.default_wan is not None:
            self.network.default_wan = general.default_wan
        if general.lan_bandwidth is not None:
            self.network.lan = (general.lan_bandwidth, self.network.lan[1])
        if general.lan_latency is not None:
            self.network.lan = (self.network.lan[0], general.lan_latency)

        declared_vos = {v.name for v in config.vos}
        for site_cfg in config.sites:
            for vo_name in site_cfg.accept_vos:
                if vo_name not in declared_vos:
                    raise ConfigError(f"site {site_cfg.site_id} accepts "
                                      f"undeclared VO {vo_name}", path, site_cfg.line)
            self.fabric.add_site(fabric_mod.Site(
                site_cfg.site_id, site_cfg.region, site_cfg.outbound))
            self.vo.register_site(site_cfg.site_id, list(site_cfg.accept_vos))
        self.vo.sync_all()

        for se_cfg in config.ses:
            site = self.fabric.sites.get(se_cfg.site_id)
            if site is None:
                raise ConfigError(f"SE {se_cfg.se_id} sits at undeclared site "
                                  f"{se_cfg.site_id}", path, se_cfg.line)
            self.datagrid.add_se(dg_mod.StorageElement(se_cfg.se_id, site,
                                                       se_cfg.capacity_bytes))

        for ce_cfg in config.ces:
            if ce_cfg.site_id not in self.fabric.sites:
                raise ConfigError(f"CE {ce_cfg.ce_id} sits at undeclared site "
                                  f"{ce_cfg.site_id}", path, ce_cfg.line)
            for se_id in ce_cfg.close_ses:
                if se_id not in self.datagrid.ses:
                    raise ConfigError(f"CE {ce_cfg.ce_id} lists undeclared close SE "
                                      f"{se_id}", path, ce_cfg.line)
            site_cfg = next(s for s in config.sites if s.site_id == ce_cfg.site_id)
            record = infosys.CERecord(
                ce_id=ce_cfg.ce_id,
                site_id=ce_cfg.site_id,
                lrms=ce_cfg.lrms,
                schema_flavors=ce_cfg.flavors,
                run_time_environment=ce_cfg.tags,
                wn_count=ce_cfg.wn_count,
                cpu_mhz=ce_cfg.cpu_mhz,
                authorized_vos=tuple(site_cfg.accept_vos),
                close_ses=ce_cfg.close_ses,
                allow_condor_edg=ce_cfg.allow_condor_edg,
            )
            try:
                self.info.publish_ce(record)
            except infosys.InvariantViolation as exc:
                raise ConfigError(str(exc), path, ce_cfg.line) from None
            self.fabric.add_ce(record)

        known_endpoints = {"ui"}
        known_endpoints.update(f"site:{s.site_id}" for s in config.sites)
        known_endpoints.update(f"rb:{b.rb_id}" for b in config.brokers)
        for link_cfg in config.links:
            for ep in (link_cfg.a, link_cfg.b):
                if ep not in known_endpoints:
                    raise ConfigError(f"link endpoint {ep} is not declared",
                                      path, link_cfg.line)
            self.network.add_link(link_cfg.a, link_cfg.b,
                                  link_cfg.bandwidth, link_cfg.latency)

        for rb_cfg in config.brokers:
            self.brokers[rb_cfg.rb_id] = broker_mod.ResourceBroker(
                rb_cfg.rb_id, rb_cfg.flavor,
                kernel=self.kernel, info=self.info, vo=self.vo,
                datagrid=self.datagrid, fabric=self.fabric,
                job_id_source=self._next_job_id)

        for prof_cfg in config.profiles:
            base = self.fabric.profiles.get(prof_cfg.name)
            if base is None:
                missing = [k for k in ("per_event_cpu_1ghz", "output_bytes_per_event")
                           if k not in prof_cfg.fields]
                if missing:
                    raise ConfigError(f"new profile {prof_cfg.name} needs "
                                      f"per_event_cpu_1ghz and output_per_event",
                                      path, prof_cfg.line)
                base = fabric_mod.WorkloadProfile(prof_cfg.name,
                                                 prof_cfg.fields["per_event_cpu_1ghz"],
                                                 prof_cfg.fields["output_bytes_per_event"])
            try:
                self.fabric.set_profile(dataclasses.replace(base, **prof_cfg.fields))
            except fabric_mod.FabricError as exc:
                raise ConfigError(str(exc), path, prof_cfg.line) from None

    def _next_job_id(self) -> str:
        self._job_seq += 1
        return f"j{self._job_seq}"

    # -- user session helpers ------------------------------------------

    def proxy_init(self, user_dn: str, vo_name: str, lifetime_s=None) -> vomgmt.Proxy:
        proxy = self.vo.create_proxy(user_dn, vo_name, self.kernel.now_ms,
                                     lifetime_s=lifetime_s)
        self.current_proxy = proxy
        self.kernel.line("ui", PROXY_INIT_LINE, user_dn, vo_name,
                         exact(vomgmt.DEFAULT_PROXY_LIFETIME_S
                               if lifetime_s is None else lifetime_s))
        return proxy

    def submit(self, jdl_text: str, rb_id: str, pinned_ce=None) -> str:
        """Submit one description file under the current proxy.  This is
        where a user's text is parsed; brokers take typed descriptions."""
        rb = self.brokers.get(rb_id)
        if rb is None:
            raise broker_mod.BrokerError(f"unknown resource broker {rb_id!r}")
        if self.current_proxy is None:
            raise broker_mod.BrokerError("no proxy; run proxy init first")
        return rb.submit(jdl.parse_jdl(jdl_text), self.current_proxy,
                         pinned_ce=pinned_ce)

    def find_job(self, job_id: str) -> tuple:
        for rb in self.brokers.values():
            record = rb.jobs.get(job_id)
            if record is not None:
                return rb, record
        raise broker_mod.UnknownJob(job_id)

    def all_jobs(self) -> list:
        """(broker, record) pairs over every broker, in job-id order."""
        pairs = [(rb, record) for rb in self.brokers.values()
                 for record in rb.jobs.values()]
        pairs.sort(key=lambda pair: int(pair[1].job_id.lstrip("j")))
        return pairs

    def validate(self) -> list:
        """Consistency findings for `topo validate`; empty means clean."""
        problems = []
        for ce_id, ce in self.fabric.ces.items():
            published = self.info.ces.get(ce_id)
            if published is None:
                problems.append(f"{ce_id}: not published")
                continue
            # the ETT divides by the element's nodes and speed; the broker picks
            # replicas by the published site and SEs, outputs go by the element's
            fields = ("wn_count", "cpu_mhz", "site_id", "close_ses")
            if any(getattr(published, f) != getattr(ce.record, f) for f in fields):
                problems.append(f"{ce_id}: published record disagrees with the element")
            # from the profiles, not the jobs' own CPU pairs, in seconds
            rescanned = sum(job.profile.runtime_s(job.description.events, ce.record.cpu_mhz)
                            for job in ce.queue)
            if ce.queued_units != rescanned * ce.cpu_den * ce.record.cpu_mhz:
                problems.append(f"{ce_id}: queued CPU backlog drifted")
            # a term past its horizon is rescanned by its next read anyway
            if (self.kernel.now_ms < ce.horizon_ms
                    and ce.running_units != ce.scan_running()[0]):
                problems.append(f"{ce_id}: running CPU term drifted")
        for rb_id, rb in self.brokers.items():
            problems += [f"{rb_id}: kept ETT of {ce_id} drifted" for ce_id in rb.drifted()]
        for se_id, store in self.datagrid.ses.items():
            held = sum(pf.size_bytes for pf in store.files.values())
            if held != store.used_bytes:
                problems.append(f"{se_id}: used bytes out of step with contents")
        return problems

    def report(self) -> dict:
        """Counts by job state, per site and overall."""
        by_state: dict[str, int] = {}
        by_site: dict[str, dict] = {s: {} for s in self.fabric.sites}
        for _rb, record in self.all_jobs():
            by_state[record.state] = by_state.get(record.state, 0) + 1
            if record.matched_ce is not None:
                site_id = self.fabric.ces[record.matched_ce].site.site_id
                site_states = by_site.setdefault(site_id, {})
                site_states[record.state] = site_states.get(record.state, 0) + 1
        return {"by_state": by_state, "by_site": by_site,
                "total": sum(by_state.values())}


def load_topology(path) -> Grid:
    return Grid(topology.parse_topology_file(path))


def default_topology_path() -> str:
    import importlib.resources

    return str(importlib.resources.files("deskgrid").joinpath(
        "data", "worldgrid.toposample"))
