"""A catalogue of source mutants, each with the tests that must kill it.

    python tests/mutants.py

Each row of `MUTANTS` names a file under `src/deskgrid`, an exact snippet
of it, its replacement and the tests that kill the mutant, each of them
failing on it alone.  The
script copies `src/` and `tests/` to a temporary directory, then, one
mutant after another and never in parallel, writes the mutated file there,
runs the row's tests in one `pytest -x` subprocess and puts the file back.
A mutant is killed when its tests fail (pytest exit code 1); any other
outcome, a pass or a crash, lets it survive.  Hypothesis runs under the
`mutants` profile of `conftest.py`, which skips shrinking, so a killed
mutant costs about the time to its first failing example.  The script
prints one line per mutant and exits 1 if any survives.  It uses only the
standard library, is not itself collected as a test, and takes about
a minute; `test_mutants.py` checks in tier-1 that every snippet occurs exactly
once in its file.
"""
from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]

TWIN = "tests/test_twin.py"
RUNNING_TERM = ("tests/test_fabric.py::"
                "test_the_running_term_equals_a_rescan_at_every_match_and_beside_monitor_points")
DRIFTED_TERM = ("tests/test_fabric.py::"
                "test_validate_reports_a_drifted_running_term_only_while_it_is_valid")
ROUTES = "tests/test_fabric.py::test_a_kept_route_follows_every_change_of_links_lan_and_default_wan"
PAST_THE_BOUND = ("tests/test_jdl.py::"
                  "test_one_level_past_the_depth_bound_is_refused_at_the_token_that_passes_it")
FIXED_WORDS = "tests/test_scenario.py::test_split_words_fixed_cases"
PLAIN_LINE = "tests/test_scenario.py::test_split_words_reads_a_plain_line_as_shlex_does"
TIME_ORDER = "tests/test_scenario.py::test_a_repeated_time_text_is_checked_in_order"
TIME_READ_ONCE = "tests/test_scenario.py::test_each_run_of_one_time_text_is_read_once"
EQUAL_TIMES = "tests/test_scenario.py::test_equal_times_in_other_texts_are_not_backwards"
TIME_READER = "tests/test_scenario.py::test_steps_equal_the_fraction_reader"
EXPONENT = "tests/test_units.py::test_as_fraction_refuses_a_decimal_exponent_beyond_the_bound"
CHECKSUMS = "tests/test_datagrid.py::test_catalog_checksum_consistency_across_replicas"
COPIES = "tests/test_datagrid.py::test_lookup_sorted_and_lfn_prefix_transparent"
PER_DATASET = "tests/test_production.py::test_per_dataset_reads_equal_a_scan_of_every_row"
UNSCANNED = ("tests/test_production.py::"
             "test_per_dataset_reads_do_not_scan_every_request_and_record")
UPSTREAM = "tests/test_production.py::test_simulation_requires_a_complete_generation_upstream"
QUERY = "tests/test_production.py::test_query_filters_and_dump_layout"
RUN_TO_NOW = "tests/test_simcore.py::test_run_to_now_delivers_what_is_due_at_this_instant"
REPLICA_COMMANDS = "tests/test_cli.py::test_replica_commands_roundtrip"
HALF_MS = "tests/test_simcore.py::test_a_duration_rounds_the_same_added_to_ms_or_to_seconds"
HALF_UP = "tests/test_units.py::test_to_millis_rounds_half_up"
PAIR_HALF_UP = "tests/test_units.py::test_to_millis_of_a_pair_rounds_the_ratio_half_up"
READERS = "tests/test_units.py::test_number_readers_equal_the_fraction_route"
EARLIER_FORM = "tests/test_topology.py::test_the_reader_equals_its_earlier_form"
PLAIN_LABEL = "tests/test_topology.py::test_general_diagnostics_name_the_section_plainly"
UNKNOWN_KEY = "tests/test_topology.py::test_missing_and_unknown_keys"
SHIPPED_MAPFILES = ("tests/test_vomgmt.py::"
                    "test_sync_all_gives_each_shipped_site_the_mapfile_of_its_own_sync")
DRAWN_MAPFILES = "tests/test_vomgmt.py::test_sync_all_equals_a_sync_per_site_on_drawn_memberships"
EVERY_EXIT = "tests/test_broker.py::test_every_exit_leaves_the_books_consistent"
UNROUTED_SANDBOX = EVERY_EXIT + "[input_sandbox_unrouted]"
OUTLIVED_PROXY = "tests/test_broker.py::test_queue_wait_outliving_the_proxy_aborts_at_dispatch"
SCENARIO_DIGESTS = "tests/test_golden.py::test_shipped_scenario_digests_are_pinned"

#: (file, snippet, replacement, tests that kill the mutant)
MUTANTS = (
    # each move an element reports to the fabric
    ("fabric.py", "        self._moved(running=regrown)\n", "", (TWIN,)),
    ("fabric.py", "            self.running[job.job_id] = job\n            self._moved()\n",
     "            self.running[job.job_id] = job\n", (TWIN,)),
    ("fabric.py", "job.kernel, job.start_ms = self.kernel, self.kernel.now_ms\n"
                  "        self._moved()\n",
     "job.kernel, job.start_ms = self.kernel, self.kernel.now_ms\n", (TWIN,)),
    ("fabric.py", "job.events_done = job.description.events\n        self._moved()\n",
     "job.events_done = job.description.events\n", (TWIN,)),
    ("fabric.py", "heapq.heappush(self.free_wns, job.wn)\n            self._moved()\n",
     "heapq.heappush(self.free_wns, job.wn)\n", (TWIN, RUNNING_TERM)),
    # a job is running before its broker hears of its dispatch, and a running
    # job's node is freed when it ends
    ("fabric.py", "            self.running[job.job_id] = job\n            self._moved()\n"
                  "            self.kernel.line(self.ce_id, DISPATCHED_LINE, job.job_id, job.wn)\n"
                  "            job.broker._on_dispatched(job)\n",
     "            job.broker._on_dispatched(job)\n"
     "            self.running[job.job_id] = job\n            self._moved()\n"
     "            self.kernel.line(self.ce_id, DISPATCHED_LINE, job.job_id, job.wn)\n",
     (UNROUTED_SANDBOX, SCENARIO_DIGESTS)),
    ("broker.py", "        if record.wn >= 0:  # it took a node, which it holds until now\n"
                  "            record.ce.finish(record)\n", "", (EVERY_EXIT, OUTLIVED_PROXY)),
    # a running move is not lost to a queue move reported before it
    ("fabric.py", "self.moved[self.ce_id] = running or self.moved.get(self.ce_id, False)",
     "self.moved.setdefault(self.ce_id, running)", (TWIN,)),
    # the fabric's horizon: pushed at each rescan, and rescanned when due
    ("fabric.py", "                heapq.heappush(self._due, (term[1], ce_id))\n",
     "                pass\n", (TWIN, RUNNING_TERM)),
    ("fabric.py", "                moved[ce_id] = True\n",
     "                moved.setdefault(ce_id, False)\n", (TWIN, RUNNING_TERM)),
    ("fabric.py", "if units != scanned or pair != self.ces[ce_id].ett(scanned):",
     "if pair != self.ces[ce_id].ett(scanned):", (DRIFTED_TERM,)),
    # the broker's kept sets and the network's routes
    ("broker.py", "            self._generation = generation\n            self._kept.clear()\n",
     "            self._generation = generation\n", (TWIN,)),
    ("fabric.py", "self._links[frozenset((a, b))] = (bandwidth, latency)\n"
                  "        self._routes.clear()\n",
     "self._links[frozenset((a, b))] = (bandwidth, latency)\n", (TWIN,)),
    # the twin forgets routes by setting the LAN, which goes through this
    # clear, so only the route test kills its deletion
    ("fabric.py", '"default_wan"):  # each is a leg of some routes\n            self._routes.clear()\n',
     '"default_wan"):  # each is a leg of some routes\n            pass\n', (ROUTES,)),
    ("fabric.py", "del self._links[frozenset((a, b))]\n        self._routes.clear()\n",
     "del self._links[frozenset((a, b))]\n", (TWIN, ROUTES)),
    # the parser's depth bound, on a chain and on nesting
    ("jdl.py", "if depth + height > MAX_DEPTH:", "if depth + height > MAX_DEPTH + 1:",
     (PAST_THE_BOUND,)),
    ("jdl.py", "if depth >= MAX_DEPTH:", "if depth > MAX_DEPTH:", (PAST_THE_BOUND,)),
    # a scenario's plain-line split and its times, each run of one text read once
    ("scenario.py", '"\\\\" in line or "#" in line', '"\\\\" in line', (FIXED_WORDS,)),
    ("scenario.py", 'list(filter(None, line.replace("\\t", " ").split(" ")))', "line.split()",
     (FIXED_WORDS, PLAIN_LINE)),
    ("scenario.py", 'if n * last_d < last_n * d and words[2] != "exec":',
     'if n * last_d < last_n * d and words[1] == last_text and words[2] != "exec":',
     (TIME_ORDER,)),
    ("scenario.py", 'if n * last_d < last_n * d and words[2] != "exec":',
     "if n * last_d < last_n * d:", (TIME_ORDER,)),
    ("scenario.py", "if words[1] != last_text:", "if True:", (TIME_READ_ONCE,)),
    # an equal time in another text is not backwards; an instant rounds half-up
    ("scenario.py", "if n * last_d < last_n * d and", "if n * last_d <= last_n * d and",
     (EQUAL_TIMES, TIME_READER)),
    ("scenario.py", "to_millis(n, d)", "n * 1000 // d", (TIME_READ_ONCE, TIME_READER)),
    # the exponent bound, moved by one either way
    ("units.py", "> MAX_EXPONENT:", "> MAX_EXPONENT + 1:", (EXPONENT,)),
    ("units.py", "> MAX_EXPONENT:", ">= MAX_EXPONENT:", (EXPONENT,)),
    # a replica agrees with the whole catalogued row, and each copy is listed once
    ("datagrid.py", "if row != pair:", "if row[1] != pair[1]:", (CHECKSUMS,)),
    ("datagrid.py", "if copy not in copies:", "if True:", (COPIES,)),
    # each dataset's rows, appended by their one writer
    ("production.py", "        self._by_dataset.setdefault(dataset, []).append(request)\n", "",
     (PER_DATASET, UNSCANNED, UPSTREAM)),
    ("production.py", "        self._by_dataset.setdefault(dataset, []).append(record)\n", "",
     (PER_DATASET, UNSCANNED, QUERY)),
    # a run to the clock's own instant is allowed; every command flushes with one
    ("simcore.py", "if target_ms < self.now_ms:", "if target_ms <= self.now_ms:",
     (RUN_TO_NOW, REPLICA_COMMANDS)),
    # milliseconds round half-up, not half-even
    ("units.py", "return (2000 * n + per) // (2 * per)", "return round(Fraction(1000 * n, per))",
     (HALF_MS, HALF_UP, PAIR_HALF_UP)),
    # a plain decimal's scale, in seconds and in sizes
    ("units.py", "        scale = 10 ** len(part)\n", "        scale = 10 ** (len(part) - 1)\n",
     (READERS, EARLIER_FORM)),
    ("units.py", "\n    scale = 10 ** len(part)\n", "\n    scale = 10 ** (len(part) - 1)\n",
     (READERS, EARLIER_FORM)),
    # a topology line: its comment cut at the '#', its '=' required, its unknown keys refused
    ("topology.py", 'line = line[:line.index("#")]', 'line = line[:line.index("#") + 1]',
     (EARLIER_FORM,)),
    ("topology.py", "            if not eq:\n", "            if False:\n",
     (PLAIN_LABEL, EARLIER_FORM)),
    ("topology.py", "in entries.items():  # the first key left is unknown",
     "in {}.items():  # the first key left is unknown", (UNKNOWN_KEY, EARLIER_FORM)),
    # each site gets the mapping built for its own accepted-VO list
    ("vomgmt.py", "self._mapfiles[site_id] = built[vos]",
     "self._mapfiles[site_id] = next(iter(built.values()))", (SHIPPED_MAPFILES, DRAWN_MAPFILES)),
)


def source(name: str, root: pathlib.Path = ROOT) -> pathlib.Path:
    return root / "src" / "deskgrid" / name


def run(root: pathlib.Path, name: str, snippet: str, replacement: str, tests) -> bool:
    """Apply one mutant in the copy at `root`, run its tests and restore the
    file; True when the tests kill it."""
    path = source(name, root)
    original = path.read_text()
    path.write_text(original.replace(snippet, replacement, 1))
    try:
        env = dict(os.environ, PYTHONPATH=str(root / "src"), DESKGRID_MUTANTS="1",
                   PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *tests], cwd=root, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return done.returncode == 1
    finally:
        path.write_text(original)


def main() -> int:
    survived = 0
    with tempfile.TemporaryDirectory(prefix="deskgrid-mutants-") as tmp:
        root = pathlib.Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, root / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "pyproject.toml", root)
        for n, (name, snippet, replacement, tests) in enumerate(MUTANTS, 1):
            started = time.perf_counter()
            killed = run(root, name, snippet, replacement, tests)
            survived += not killed
            first = snippet.strip().splitlines()[-1]
            print(f"{n:2} {'killed' if killed else 'SURVIVED'} {time.perf_counter() - started:5.1f}s"
                  f"  {name}: {first}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
