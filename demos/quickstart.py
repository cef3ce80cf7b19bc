"""Submit one job to the shipped testbed and watch it land.

Run:  python3 demos/quickstart.py
"""
from deskgrid.grid import default_topology_path, load_topology

JOB = """\
Executable = "cmkin";
Requirements = Member("CMS", other.RunTimeEnvironment);
VirtualOrganisation = "datatag";
Events = 250;
JobSeed = 1;
"""


def main():
    grid = load_topology(default_topology_path())
    grid.proxy_init("/O=grid/OU=datatag/CN=Maria Rossi", "datatag")
    job_id = grid.submit(JOB, "rb_pisa")
    grid.kernel.run_to_completion()

    rb, record = grid.find_job(job_id)
    print(f"{job_id}: {record.state} on {record.matched_ce}")
    print("held outputs:")
    for name, size, mark in rb.get_output(job_id):
        print(f"  {name}  {size} bytes  {mark}")
    print()
    print("last trace lines:")
    for entry in grid.kernel.trace[-5:]:
        print(" ", entry.format())


if __name__ == "__main__":
    main()
