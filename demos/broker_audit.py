"""Watch the broker rank candidates as load builds up.

A match observer sees every decision: the candidate table with its rank
values (minus the estimated traversal time, so bigger is better) and the
element that won.  Submitting a burst of identical jobs shows the
default rank spreading them across the emptiest elements.

Run:  python3 demos/broker_audit.py
"""
from deskgrid.grid import default_topology_path, load_topology

JOB = """\
Executable = "cmsim";
Requirements = Member("CMS", other.RunTimeEnvironment);
VirtualOrganisation = "datatag";
Events = 100;
JobSeed = %d;
"""


def main():
    grid = load_topology(default_topology_path())
    rb = grid.brokers["rb_pisa"]

    def audit(record, result):
        print(f"{record.job_id} -> {result.chosen}")
        for ce_id, value in result.candidates[:4]:
            shown = "undefined" if value is None else f"{float(value):9.1f} s"
            print(f"    {ce_id:<16} rank {shown}")
        if len(result.candidates) > 4:
            print(f"    ... {len(result.candidates) - 4} more")

    rb.match_observers.append(audit)
    grid.proxy_init("/O=grid/OU=datatag/CN=Maria Rossi", "datatag")
    for n in range(6):
        grid.submit(JOB % (n + 1), "rb_pisa")
    grid.kernel.run_to_completion()

    print()
    print("where they ended up:")
    for job_id, record in sorted(rb.jobs.items()):
        print(f"  {job_id}: {record.outcome()} on {record.matched_ce}")


if __name__ == "__main__":
    main()
