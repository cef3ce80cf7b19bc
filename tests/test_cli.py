import itertools
import os
import pathlib
import pickle
import re
import subprocess
import sys

import pytest

from deskgrid import cli
from deskgrid.cli import dispatch, main
from deskgrid.grid import default_topology_path, load_topology
from deskgrid.jdl import MAX_DEPTH
from deskgrid.production import BossDb
from deskgrid.scenario import ScenarioError, parse_scenario

from conftest import CMKIN_SMALL, MINI_TOPOLOGY
from test_jdl import PAST_THE_BOUND, tall


def ok(grid, argv, base_dir=None):
    code, text = dispatch(grid, argv, base_dir=base_dir)
    assert code == 0, text
    return text


REQUEST = ["refdb", "request", "--dataset", "d", "--step", "CMKIN", "--events", "5",
           "--rb", "rb_test"]


def test_usage_errors_exit_two(mini):
    # options are spelled out in full and take the next word as their value
    for argv in ([], ["bogus"], ["submit"], ["rc"], ["proxy", "init"], ["vo", "sync", "--site"],
                 REQUEST + ["--per", "5"], REQUEST + ["--per-job=5"],
                 # ints are ASCII: `int` would read these Arabic-Indic digits
                 REQUEST[:-3] + ["\u0663", "--rb", "rb_test", "--per-job", "1"],
                 ["rc", "seed", "x", "se_alpha", "\u0661\u0660"]):
        code, _text = dispatch(mini, argv)
        assert code == 2, argv


def test_domain_errors_exit_one(mini):
    code, text = dispatch(mini, ["status", "j999"])
    assert code == 1 and text.startswith("error: ")
    code, text = dispatch(mini, ["submit", "nowhere.jdl", "--rb", "rb_test"])
    assert code == 1 and "no such file" in text
    code, text = dispatch(mini, ["rc", "lookup", "ghost"])
    assert code == 1
    code, text = dispatch(mini, ["proxy", "init", "--user", "/C=XX/CN=nobody",
                                 "--vo", "testvo"])
    assert code == 1 and "not a member" in text
    ok(mini, REQUEST + ["--per-job", "5"])
    assert dispatch(mini, ["impala", "submit", "1"]) == (
        1, "error: no proxy; run proxy init first")
    assert dispatch(mini, ["assert", "refdb-status", "1", "COMPLETE"]) == (
        1, "assert failed: assignment 1 is NEW, wanted COMPLETE")


def test_a_zero_denominator_is_a_domain_error(mini):
    for argv in (["run", "--until", "1/0"],
                 ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo",
                  "--lifetime", "1/0"]):
        code, text = dispatch(mini, argv)
        assert code == 1 and text.startswith("error: ") and "denominator" in text, argv


def test_a_huge_exponent_is_a_domain_error_at_once(mini):
    for argv in (["run", "--until", "1e3000000"],
                 ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo",
                  "--lifetime", "1e3000000"]):
        assert dispatch(mini, argv) == (1, "error: exponent beyond 400 in '1e3000000'"), argv
    assert mini.kernel.now_ms == 0 and mini.current_proxy is None


def test_seconds_are_ascii(mini, tmp_path):
    for argv in (["run", "--until", "١/٣"],
                 ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo",
                  "--lifetime", "٣"]):
        code, text = dispatch(mini, argv)
        assert code == 1 and text.startswith("error: ") and "ASCII" in text, argv
    assert mini.kernel.now_ms == 0 and mini.current_proxy is None
    scn = tmp_path / "arabic.scn"
    scn.write_text("at 0 report\nat ٣ run\n", encoding="utf-8")
    code, text = dispatch(mini, ["exec", str(scn)])
    assert (code, text) == (2, f"error: {scn}:2: bad time '٣'")


def test_running_back_in_time_names_the_exact_instant(mini):
    code, text = dispatch(mini, ["run", "--until", "-1"])
    assert code == 1 and text == "error: cannot run back to -1.000, now is 0.000"


def test_proxy_init_refuses_a_lifetime_that_is_not_positive(mini):
    for lifetime in ("-5", "0"):
        code, text = dispatch(mini, ["proxy", "init", "--user", "/C=XX/CN=alice",
                                     "--vo", "testvo", "--lifetime", lifetime])
        assert code == 1 and "lifetime" in text, lifetime
    assert mini.current_proxy is None


def test_rc_register_refuses_a_negative_size(mini):
    code, text = dispatch(mini, ["rc", "register", "neg.dat", "se_beta", "-5"])
    assert code == 1 and "negative" in text
    assert mini.datagrid.store_of("se_beta").used_bytes == 0
    code, _text = dispatch(mini, ["rc", "lookup", "neg.dat"])
    assert code == 1
    assert ok(mini, ["topo", "validate"]) == "ok"


def test_a_refused_rc_register_leaves_nothing_on_the_se():
    """A copy whose size disagrees with the catalogue is refused and not
    kept, so the right copy can then be registered on the same SE."""
    grid = load_topology(default_topology_path())
    ok(grid, ["rc", "register", "x.dat", "se_batavia", "100"])
    store = grid.datagrid.store_of("se_bloomington")
    files, used = dict(store.files), store.used_bytes
    code, text = dispatch(grid, ["rc", "register", "x.dat", "se_bloomington", "200"])
    assert code == 1 and "disagrees with the catalogue" in text
    assert (store.files, store.used_bytes) == (files, used)
    assert grid.validate() == []
    ok(grid, ["rc", "register", "x.dat", "se_bloomington", "100"])
    assert ok(grid, ["rc", "lookup", "x.dat"]).splitlines() == [
        "se_batavia\tx.dat", "se_bloomington\tx.dat"]


def test_topo_show_and_validate(mini):
    assert ok(mini, ["topo", "show"]).splitlines() == [
        "sites\t2", "ces\t2", "ces[EDG]\t2", "ces[GLUE]\t1",
        "ses\t2", "brokers\t2", "vos\t2"]
    # load is the canonical spelling, show stays as an alias
    assert ok(mini, ["topo", "load"]) == ok(mini, ["topo", "show"])
    assert ok(mini, ["topo", "validate"]) == "ok"


def test_vo_sync_lists_mapfiles(mini):
    text = ok(mini, ["vo", "sync", "--site", "alpha"])
    assert text.splitlines()[0] == "== alpha"
    assert any("alice" in line and ".testvo" in line for line in text.splitlines())


def test_submit_status_run_get_output(mini, tmp_path):
    jdl = tmp_path / "job.jdl"
    jdl.write_text(CMKIN_SMALL)
    ok(mini, ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo"])
    text = ok(mini, ["submit", str(jdl), "--rb", "rb_test"])
    assert text == "job j1 RUNNING ce=ce_alpha"
    status = ok(mini, ["status"])
    assert status.splitlines()[0] == "job\tstate\tce\treason"
    assert "j1\tRUNNING\tce_alpha\t-" in status
    code, text = dispatch(mini, ["get-output", "j1"])
    assert code == 1  # still running
    ok(mini, ["run"])
    assert "j1\tDONE_OK" in ok(mini, ["status", "j1"])
    out = ok(mini, ["get-output", "j1", "--dest", str(tmp_path)])
    assert out.splitlines()[0] == "name\tbytes\tchecksum"
    assert out.splitlines()[-1] == "cleared j1"
    assert (tmp_path / "j1.manifest").exists()
    code, _text = dispatch(mini, ["get-output", "j1"])
    assert code == 1  # already cleared


def test_replica_commands_roundtrip(mini):
    ok(mini, ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo"])
    assert "seeded d.ntpl on se_beta" in ok(
        mini, ["rc", "seed", "lfn:d.ntpl", "se_beta", "1000"])
    assert ok(mini, ["rc", "lookup", "d.ntpl"]) == "se_beta\td.ntpl"
    # register is the canonical spelling of seed
    assert "seeded e.ntpl" in ok(mini, ["rc", "register", "e.ntpl", "se_beta", "5"])
    assert "replicating" in ok(mini, ["rc", "replicate", "d.ntpl", "se_alpha"])
    ok(mini, ["run"])
    assert ok(mini, ["rc", "lookup", "d.ntpl"]).splitlines() == [
        "se_alpha\td.ntpl", "se_beta\td.ntpl"]
    assert "already held" in ok(mini, ["rc", "replicate", "d.ntpl", "se_beta"])
    dump = ok(mini, ["rc", "dump"])
    assert dump.splitlines()[0].startswith("d.ntpl se_alpha d.ntpl 1000 ")


def test_factory_chain_through_the_front_end(mini):
    ok(mini, ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo"])
    text = ok(mini, ["refdb", "request", "--dataset", "jpsi", "--step", "CMKIN",
                     "--events", "500", "--per-job", "250", "--rb", "rb_test"])
    assert text == "assignment 1 jpsi CMKIN jobs=2"
    assert ok(mini, ["impala", "declare", "1"]) == "assignment 1 declared jobs=2"
    assert ok(mini, ["impala", "create", "1"]) == "assignment 1 created jobs=2"
    assert ok(mini, ["impala", "submit", "1"]) == \
        "assignment 1 submitted jobs=2 boss=1..2"
    code, text = dispatch(mini, ["refdb", "summary", "1"])
    assert code == 1 and "error:" in text  # jobs still on the testbed
    ok(mini, ["run"])
    summary = ok(mini, ["refdb", "summary", "1"])
    assert "assignment 1 COMPLETE" in summary
    assert "lfn\tjpsi_1.ntpl" in summary and "lfn\tjpsi_2.ntpl" in summary
    assert ok(mini, ["assert", "refdb-status", "1", "COMPLETE"]) == \
        "assignment 1 is COMPLETE"
    boss = ok(mini, ["boss", "query", "--type", "cmkin"])
    assert boss.splitlines()[0].startswith("boss_id\t")
    assert boss.count("finished") == 2
    assert "status=COMPLETE" in ok(mini, ["refdb", "dump"])


def test_dataset_names_need_no_escaping_by_the_user(mini):
    ok(mini, ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo"])
    ok(mini, ["refdb", "request", "--dataset", 'j"psi', "--step", "CMKIN",
              "--events", "500", "--per-job", "250", "--rb", "rb_test"])
    for verb in ("declare", "create", "submit"):
        ok(mini, ["impala", verb, "1"])
    ok(mini, ["run"])
    ok(mini, ["refdb", "summary", "1"])
    assert ok(mini, ["assert", "refdb-status", "1", "COMPLETE"]) == \
        "assignment 1 is COMPLETE"
    assert 'j"psi_1.ntpl' in ok(mini, ["rc", "dump"])


def test_consecutive_commands_do_not_share_options(mini):
    # each dispatch reads its own argv from scratch; options given to one
    # command must not stay set for the next
    ok(mini, ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo"])
    ok(mini, ["refdb", "request", "--dataset", "jpsi", "--step", "CMKIN",
              "--events", "500", "--per-job", "250", "--rb", "rb_test"])
    for step in ("declare", "create", "submit"):
        ok(mini, ["impala", step, "1"])
    assert ok(mini, ["boss", "query", "--status", "finished"]).splitlines() == [
        BossDb.HEADER]
    rows = ok(mini, ["boss", "query"]).splitlines()
    assert len(rows) == 3 and "finished" not in "".join(rows)
    assert ok(mini, ["run", "--until", "1"]).endswith("now 1.000")
    ok(mini, ["run"])
    assert mini.kernel.pending_count() == 0
    assert ok(mini, ["boss", "query"]).count("finished") == 2


def test_assert_job_state_failure_path(mini, tmp_path):
    jdl = tmp_path / "job.jdl"
    jdl.write_text(CMKIN_SMALL)
    ok(mini, ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo"])
    ok(mini, ["submit", str(jdl), "--rb", "rb_test"])
    code, text = dispatch(mini, ["assert", "job-state", "j1", "DONE_OK"])
    assert code == 1 and text == "assert failed: j1 is RUNNING, wanted DONE_OK"
    assert ok(mini, ["assert", "job-state", "j1", "RUNNING"]) == "j1 is RUNNING"


def test_trace_export(mini, tmp_path):
    ok(mini, ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo"])
    target = tmp_path / "run.trace"
    text = ok(mini, ["trace", "export", str(target)])
    assert text.startswith("wrote 1 trace lines")
    assert target.read_text() == \
        "0.000\tui\tproxy-init\tuser=/C=XX/CN=alice vo=testvo lifetime_s=43200\n"


def test_report_counts_by_state_and_site(mini, tmp_path):
    jdl = tmp_path / "job.jdl"
    jdl.write_text(CMKIN_SMALL)
    ok(mini, ["proxy", "init", "--user", "/C=XX/CN=alice", "--vo", "testvo"])
    ok(mini, ["submit", str(jdl), "--rb", "rb_test"])
    ok(mini, ["run"])
    report = ok(mini, ["report"])
    assert "DONE_OK\t1" in report and "total\t1" in report
    assert "site alpha\tDONE_OK=1" in report


def test_exec_runs_a_scenario_with_relative_inputs(mini, tmp_path):
    (tmp_path / "job.jdl").write_text(CMKIN_SMALL)
    scn = tmp_path / "day.scn"
    scn.write_text(
        "# one job, checked after lunch\n"
        "at 0 proxy init --user /C=XX/CN=alice --vo testvo\n"
        "at 0 submit job.jdl --rb rb_test\n"
        "at 100 assert job-state j1 DONE_OK\n"
        "at 100 report\n")
    text = ok(mini, ["exec", str(scn)])
    assert "-- at 0 submit job.jdl --rb rb_test" in text
    assert "j1 is DONE_OK" in text
    assert "DONE_OK\t1" in text


def test_a_scenario_reads_its_inputs_from_its_own_directory(mini, tmp_path, monkeypatch):
    """A relative name inside a scenario is read next to the scenario, even
    when the working directory holds a file of that name; at top level it
    is read from the working directory."""
    scenario_dir, work = tmp_path / "scenario", tmp_path / "work"
    scenario_dir.mkdir()
    work.mkdir()
    (scenario_dir / "job.jdl").write_text(CMKIN_SMALL)
    (work / "job.jdl").write_text(CMKIN_SMALL.replace("Events = 50", "Events = 7"))
    scn = scenario_dir / "day.scn"
    scn.write_text("at 0 proxy init --user /C=XX/CN=alice --vo testvo\n"
                   "at 0 submit job.jdl --rb rb_test\n")
    monkeypatch.chdir(work)
    ok(mini, ["exec", str(scn)])
    ok(mini, ["submit", "job.jdl", "--rb", "rb_test"])
    jobs = mini.brokers["rb_test"].jobs
    assert [jobs[j].description.events for j in ("j1", "j2")] == [50, 7]


def test_exec_stops_at_the_first_failing_step(mini, tmp_path):
    scn = tmp_path / "bad.scn"
    scn.write_text(
        "at 0 proxy init --user /C=XX/CN=alice --vo testvo\n"
        "at 1 assert job-state j1 DONE_OK\n"
        "at 2 report\n")
    code, text = dispatch(mini, ["exec", str(scn)])
    assert code == 1
    assert "error:" in text or "assert failed" in text
    assert "-- at 2 report" not in text


def test_scenario_clock_must_not_go_backwards(mini, tmp_path):
    scn = tmp_path / "back.scn"
    scn.write_text("at 10 report\nat 5 report\n")
    with pytest.raises(ScenarioError) as excinfo:
        parse_scenario(scn.read_text(), str(scn))
    assert ":2:" in str(excinfo.value)
    code, text = dispatch(mini, ["exec", str(scn)])
    assert code == 2 and text.startswith("error:")


def test_main_is_a_one_shot_process(tmp_path, capsys):
    topo = tmp_path / "mini.topo"
    topo.write_text(MINI_TOPOLOGY)
    assert main(["--topo", str(topo), "topo", "validate"]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    assert main(["--topo", str(topo), "status", "jX"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main([]) == 2
    assert capsys.readouterr().err.startswith("deskgrid [--topo FILE] COMMAND...\n")
    assert main(["--seed", "x", "report"]) == 2
    assert main(["--seed", "3", "--topo", str(topo), "topo", "validate"]) == 2
    err = capsys.readouterr().err
    assert "unknown command" in err and "--seed" not in err
    broken = tmp_path / "broken.topo"
    broken.write_text("[site only]\n")
    assert main(["--topo", str(broken), "topo", "show"]) == 2
    assert "missing key region" in capsys.readouterr().err
    assert main(["--topo", str(tmp_path / "void.topo"), "report"]) == 2


def test_an_input_file_that_is_not_utf8_is_a_broken_file(tmp_path, capsys):
    topo = tmp_path / "latin1.topo"
    topo.write_bytes(MINI_TOPOLOGY.encode() + "# café\n".encode("latin-1"))
    assert main(["--topo", str(topo), "topo", "show"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {topo}: cannot read topology: 'utf-8' codec")
    good = tmp_path / "mini.topo"
    good.write_text(MINI_TOPOLOGY)
    scn = tmp_path / "latin1.scn"
    scn.write_bytes("# café\nat 0 report\n".encode("latin-1"))
    assert main(["--topo", str(good), "exec", str(scn)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {scn}: cannot read scenario: 'utf-8' codec")


def test_a_description_that_is_not_utf8_is_reported_with_its_path(tmp_path, capsys):
    good = tmp_path / "mini.topo"
    good.write_text(MINI_TOPOLOGY)
    bad = tmp_path / "bad.jdl"
    bad.write_bytes(CMKIN_SMALL.encode() + "# café\n".encode("latin-1"))
    assert main(["--topo", str(good), "submit", str(bad), "--rb", "rb_test"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read description {bad}: 'utf-8' codec")
    scn = tmp_path / "day.scn"
    scn.write_text("at 0 proxy init --user /C=XX/CN=alice --vo testvo\n"
                   "at 0 submit bad.jdl --rb rb_test\n")
    assert main(["--topo", str(good), "exec", str(scn)]) == 1
    assert f"error: cannot read description {bad}: 'utf-8' codec" in capsys.readouterr().err


def test_a_missing_scenario_is_a_broken_file(tmp_path, capsys):
    good = tmp_path / "mini.topo"
    good.write_text(MINI_TOPOLOGY)
    missing = tmp_path / "missing.scn"
    assert main(["--topo", str(good), "exec", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: {missing}: no such file\n"


def test_a_missing_description_is_a_failed_submit(tmp_path, capsys):
    good = tmp_path / "mini.topo"
    good.write_text(MINI_TOPOLOGY)
    missing = tmp_path / "missing.jdl"
    assert main(["--topo", str(good), "submit", str(missing), "--rb", "rb_test"]) == 1
    assert capsys.readouterr().err == f"error: no such file: {missing}\n"


def deep_description(shape: str, levels: int) -> str:
    return (f'Executable = "cmkin";\nVirtualOrganisation = "testvo";\n'
            f"Requirements = {tall(shape, levels)};\n")


def test_requirements_at_the_depth_bound_are_matched_by_a_scenario_and_pickle(mini, tmp_path):
    """Each shape is submitted twice by `exec` and matched inside a kernel
    delivery; the second tree, equal to the first, finds its kept set.  The
    grid holding them all pickles, and its copy finishes as the grid does."""
    lines = ["at 0 proxy init --user /C=XX/CN=alice --vo testvo"]
    for shape in PAST_THE_BOUND:
        (tmp_path / f"{shape}.jdl").write_text(deep_description(shape, MAX_DEPTH))
        lines += [f"at 0 submit {shape}.jdl --rb rb_test"] * 2
    (tmp_path / "deep.scn").write_text("\n".join(lines) + "\n")
    ok(mini, ["exec", str(tmp_path / "deep.scn")])
    rb = mini.brokers["rb_test"]
    assert len(rb.jobs) == 12 and all(record.matched_ce for record in rb.jobs.values())
    assert len(rb._kept) == 6
    copy = pickle.loads(pickle.dumps(mini))
    for grid in (mini, copy):
        ok(grid, ["run"])
    assert copy.kernel.export_trace() == mini.kernel.export_trace()


def test_a_description_one_level_past_the_depth_bound_is_a_failed_submit(tmp_path, capsys):
    topo = tmp_path / "mini.topo"
    topo.write_text(MINI_TOPOLOGY)
    text = deep_description("chain", MAX_DEPTH + 1)
    (tmp_path / "deep.jdl").write_text(text)
    (tmp_path / "deep.scn").write_text("at 0 proxy init --user /C=XX/CN=alice --vo testvo\n"
                                       "at 0 submit deep.jdl --rb rb_test\n")
    assert main(["--topo", str(topo), "exec", str(tmp_path / "deep.scn")]) == 1
    requirement = text.splitlines()[2]
    col = requirement.rindex("&&") + 1
    assert capsys.readouterr().err.endswith(
        f"\nerror: line 3, col {col}: expression nests deeper than {MAX_DEPTH} levels\n")


def test_main_runs_against_the_shipped_testbed(capsys):
    assert main(["topo", "show"]) == 0
    out = capsys.readouterr().out
    assert "sites\t17" in out and "ces[GLUE]\t3" in out


@pytest.mark.parametrize("argv", [
    ["topo", "show"], ["topo", "validate"],
    pytest.param([], id="usage"),
    pytest.param(["--topo", "missing.topo", "topo", "show"], id="missing-topo"),
])
def test_main_is_quiet_when_its_reader_has_gone(argv, tmp_path):
    """The stream the command writes to -- stdout on success, stderr for a
    usage or configuration error -- is a pipe whose read end is closed
    before the process starts, so every write to it fails; the command
    still exits with its own code and writes nothing to the other stream."""
    code = 0 if argv[:1] == ["topo"] else 2
    closed, other = ("stdout", "stderr") if code == 0 else ("stderr", "stdout")
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    try:
        proc = subprocess.run([sys.executable, "-m", "deskgrid.cli", *argv],
                              **{closed: write_end, other: subprocess.PIPE},
                              cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)},
                              timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, getattr(proc, other)) == (code, b"")


def test_help_lists_every_command(mini):
    text = ok(mini, ["help"])
    for token in ("topo", "vo sync", "proxy init", "submit", "status",
                  "get-output", "rc register", "refdb request", "impala",
                  "boss query", "run", "report", "trace export", "assert",
                  "exec"):
        assert token in text


def test_exec_is_refused_inside_a_scenario(mini, tmp_path):
    scn = tmp_path / "self.scn"
    scn.write_text("at 0 report\nat 0 exec self.scn\n")
    code, text = dispatch(mini, ["exec", str(scn)])
    assert code == 2 and text == f"error: {scn}:2: exec cannot run inside a scenario"


def test_readme_shows_the_help_output(mini):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("The full command set is `deskgrid help`:\n\n```\n")[1]
    assert block.split("```")[0].splitlines() == ok(mini, ["help"]).splitlines()


INTS = ("N", "M", "AID", "SIZE")


def usage_slots(usage):
    """The aliases of a usage line's command, and its other words as
    (flag or None, placeholder, optional) slots."""
    words = usage.split()[1:]  # after "deskgrid"
    names = []
    while words and re.fullmatch(r"[a-z][a-z|-]*", words[0]):
        names.append(words.pop(0).split("|"))
    slots = []
    while words:
        word = words.pop(0)
        flag = word.lstrip("[") if word.lstrip("[").startswith("--") else None
        holder = words.pop(0) if flag else word.lstrip("[")
        slots.append((flag, holder.rstrip("]"), word.startswith("[")))
    return [list(alias) for alias in itertools.product(*names)], slots


def filled(slots, given=None):
    """argv words for `slots`, every placeholder filled in: an integer, a
    choice or a word, and two words for `[X...]`.  `given` maps a slot's
    index to the word given there instead."""
    argv = []
    for i, (flag, holder, _optional) in enumerate(slots):
        if flag:
            argv.append(flag)
        if given and i in given:
            argv.append(given[i])
        elif holder in INTS:
            argv.append("1")
        elif "|" in holder:
            argv.append(holder.split("|")[-1])
        else:
            argv += ["a", "b"] if holder.endswith("...") else ["a"]
    return argv


def test_every_usage_line_is_the_grammar_of_its_command(mini, monkeypatch):
    """Each alias with every placeholder filled reaches the handler; a
    missing positional or required option, an unknown option, a word too
    many, a non-integer for N, M, AID or SIZE and a word outside a choice
    exit 2."""
    usages = ok(mini, ["help"]).splitlines()
    for cmd in set(cli._COMMANDS.values()):
        monkeypatch.setattr(cmd, "handler", lambda grid, base_dir, **values: (0, "reached"))
    declared = []
    for usage in usages:
        aliases, slots = usage_slots(usage)
        declared += [tuple(alias) for alias in aliases]
        for alias in aliases:
            assert dispatch(mini, alias + filled(slots)) == (0, "reached"), alias
        name = aliases[0]
        assert dispatch(mini, name + filled(slots) + ["--bogus", "a"])[0] == 2, usage
        extra = dispatch(mini, name + filled(slots) + ["a"])[0]
        assert extra == (0 if usage.endswith("...]") else 2), usage
        for i, (_flag, holder, optional) in enumerate(slots):
            if not optional:
                dropped = filled(slots[:i] + slots[i + 1:])
                assert dispatch(mini, name + dropped)[0] == 2, (usage, holder)
            if holder in INTS or "|" in holder:
                bad = "a1" if holder in INTS else holder.split("|")[-1] + "X"
                assert dispatch(mini, name + filled(slots, {i: bad}))[0] == 2, (usage, bad)
    assert sorted(declared) == sorted(cli._COMMANDS)
