"""Two-step Monte Carlo production on the shipped testbed.

Generation first: 2000 events cut into 250-event jobs, spread wherever
the brokers find idle nodes, ntuples registered next to the node that
made them.  Then detector simulation over the same dataset: each job
names its input ntuple, so it can only match the element whose close
storage holds that file.

Run:  python3 demos/mc_chain.py
"""
from deskgrid.grid import default_topology_path, load_topology

OPERATOR = "/O=grid/OU=datatag/CN=factory operator"


def run_step(grid, dataset, step):
    proxy = grid.proxy_init(OPERATOR, "datatag")
    request = grid.refdb.create_request(dataset, step, 2000, 250, "rb_pisa")
    grid.production.declare(request.assignment_id)
    grid.production.create(request.assignment_id)
    grid.production.submit(request.assignment_id, proxy)
    grid.kernel.run_to_completion()
    summary = grid.production.post_summary(request.assignment_id)
    print(f"{step} assignment {request.assignment_id}: {request.status}, "
          f"{summary['jobs_ok']} ok, {summary['total_events_done']} events")
    return request


def main():
    grid = load_topology(default_topology_path())
    gen = run_step(grid, "jpsi2mu", "CMKIN")

    print("ntuples landed at:")
    for lfn in gen.summary["lfns"]:
        where = ", ".join(se for se, _path in grid.datagrid.rc.lookup(lfn))
        print(f"  {lfn:<18} {where}")
    print()

    sim = run_step(grid, "jpsi2mu", "CMSIM")
    rb = grid.brokers["rb_pisa"]
    print("simulation jobs ran next to their inputs:")
    for job_id in sim.scheduler_jobs:
        record = rb.jobs[job_id]
        lfn = next(iter(record.chosen_replicas))
        se_id, _path = record.chosen_replicas[lfn]
        print(f"  {job_id}: {lfn} served by {se_id}, ran on {record.matched_ce}")

    print()
    print("bookkeeping:")
    for line in grid.bossdb.dump().splitlines():
        print(" ", line)


if __name__ == "__main__":
    main()
