"""Command-line behavior: exit codes, output shapes, replay bundles."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from teasim import asm
from teasim.cli import SUITES, main
from teasim.gen import MAX_FORWARD_STEPS, PROPERTIES, GenConfig


def write_prog(tmp_path, text, name="prog.asm"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestRun:
    def test_isa_run_halts(self, tmp_path, capsys):
        path = write_prog(tmp_path, asm.render(asm.load_bundled("primality")))
        assert main(["run", "--machine", "isa", path]) == 0
        out = capsys.readouterr().out
        assert "%teasim-state isa" in out
        assert "halt 1" in out

    def test_ma_run_matches_register(self, tmp_path, capsys):
        path = write_prog(tmp_path, asm.render(asm.load_bundled("primality")))
        assert main(["run", "--machine", "ma", path]) == 0
        out = capsys.readouterr().out
        # r10 = 1: 97 is prime
        rf_line = next(l for l in out.splitlines() if l.startswith("rf"))
        assert rf_line.split()[11] == "0x1"

    def test_budget_exhaustion_exit_code(self, tmp_path, capsys):
        path = write_prog(tmp_path, "jge r0 0\n")  # no halt ever commits
        assert main(["run", path, "--max-steps", "60"]) == 3
        capsys.readouterr()

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write_prog(tmp_path, "loadi r99 1\n")
        assert main(["run", path]) == 2
        assert "unknown register" in capsys.readouterr().err

    def test_trace_mode(self, tmp_path, capsys):
        path = write_prog(tmp_path, "loadi r1 7\nhalt\n")
        assert main(["run", path, "--trace", "--max-steps", "50"]) == 0
        out = capsys.readouterr().out
        assert "cyc 0 | fetch" in out
        assert "commit" in out

    def test_param_override(self, tmp_path, capsys):
        path = write_prog(tmp_path, "halt\n")
        assert main(["run", path, "--param", "rs-count=6"]) == 0
        out = capsys.readouterr().out
        assert "param rs-count 6" in out

    def test_ma_h_emits_history(self, tmp_path, capsys):
        path = write_prog(tmp_path, "loadi r1 7\nhalt\n")
        assert main(["run", path, "--machine", "ma-h"]) == 0
        assert "%teasim-history" in capsys.readouterr().out

    def test_reg_count_param_widens_register_file(self, tmp_path, capsys):
        path = write_prog(tmp_path, "loadi r13 5\nhalt\n")
        assert main(["run", path, "--param", "reg-count=16"]) == 0
        out = capsys.readouterr().out
        rf_line = next(l for l in out.splitlines() if l.startswith("rf"))
        assert rf_line.split()[1:] == ["0x0"] * 13 + ["0x5", "0x0", "0x0"]

    def test_reg_count_param_narrows_register_file(self, tmp_path, capsys):
        path = write_prog(tmp_path, "loadi r10 5\nhalt\n")
        assert main(["run", path, "--param", "reg-count=4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 1: unknown register r10")

    def test_params_file_error_names_file_and_line(self, tmp_path, capsys):
        prog = write_prog(tmp_path, "halt\n")
        params = write_prog(tmp_path, "# comment\nfetch-num\n", "p.params")
        assert main(["run", prog, "--params", params]) == 2
        assert capsys.readouterr().err == (
            f"error: {params} line 2: expected key=value, got 'fetch-num'\n")

    def test_internal_error_exits_two(self, tmp_path, capsys, monkeypatch):
        def broken_step(s):
            raise RuntimeError("step failed")

        monkeypatch.setattr("teasim.cli.step_core", broken_step)
        path = write_prog(tmp_path, "halt\n")
        assert main(["run", path]) == 2
        captured = capsys.readouterr()
        assert captured.err == "internal error: step failed\n"


class TestCheck:
    def test_clean_suite_exit_zero(self, capsys):
        argv = ["check", "--suite", "entangled", "--trials", "15", "--seed", "5"]
        assert main(argv) == 0
        assert "  entangled: 15 trials, 0 failing" in capsys.readouterr().out
        assert main(argv + ["--json"]) == 0
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["trials"] == 15

    def test_buggy_suite_exit_one_and_json(self, capsys):
        rc = main(["check", "--suite", "spectre-buggy", "--trials", "10",
                   "--seed", "5", "--json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "teasim-report/2"
        assert doc["tea_count"] >= 1

    def test_trials_counts_the_trials_run(self, capsys):
        # The tenth failing case is trial 28: no trial after it runs.
        argv = ["check", "--suite", "spectre-buggy", "--trials", "300",
                "--seed", "1"]
        assert main(argv + ["--json"]) == 1
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert len(report["failures"]) == GenConfig().max_failures
        assert report["failures"][-1]["trial"] == 28
        assert report["trials"] == 29
        assert main(argv) == 1
        assert "  spectre: 29 trials, 10 failing" in capsys.readouterr().out

    def test_each_fill_is_reported_once(self, capsys):
        # The action audit is the one check of a cache fill: no failing
        # spectre case also reports it as an unmatched architectural run.
        assert main(["check", "--suite", "spectre-buggy", "--trials", "40",
                     "--seed", "3", "--json"]) == 1
        (report,) = json.loads(capsys.readouterr().out)["reports"]
        assert report["failures"]
        for f in report["failures"]:
            found = {(x["obligation"], x["kind"]) for x in f["findings"]}
            assert ("wsk-a-run", "tea-spectre") not in found
            assert "action-soundness" in {o for o, _ in found}

    def test_unknown_suite(self, capsys):
        assert main(["check", "--suite", "nope"]) == 2
        capsys.readouterr()

    def test_suites_name_registered_properties(self):
        # No suite names a deleted property, and `all` reaches each
        # registered property once.
        for suite, props in SUITES.items():
            assert set(props) <= set(PROPERTIES), suite
        assert sorted(SUITES["all"]) == sorted(PROPERTIES)

    def test_bundle_write_and_replay(self, tmp_path, capsys):
        rc = main(["check", "--suite", "meltdown-buggy", "--trials", "2",
                   "--seed", "5", "--json", "--bundle-dir", str(tmp_path)])
        assert rc == 1
        failures = json.loads(capsys.readouterr().out)["reports"][0]["failures"]
        bundles = sorted(tmp_path.glob("*.bundle"))
        assert len(bundles) == len(failures) > 0
        # A bundle is the report's failure entry plus the property.
        for f in failures:
            path = tmp_path / f"meltdown-buggy-wsk-{f['trial']}.bundle"
            assert json.loads(path.read_text()) == {**f, "property": "wsk"}
        assert main(["check", "--replay", str(bundles[0])]) == 1
        out = capsys.readouterr().out
        assert "tea-meltdown" in out

    @pytest.mark.parametrize("suite", ["meltdown-safe", "spectre-buggy"])
    def test_unwritable_bundle_dir_fails_before_the_trials(
            self, tmp_path, capsys, suite):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["check", "--suite", suite, "--trials", "1",
                     "--bundle-dir", str(taken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write bundles to ")


def bundle(drop=(), **fields):
    record = {"property": "wsk", "trial": 0, "findings": [],
              "program": "halt\n", "forward_steps": 0, "seed_cache": []}
    record.update(fields)
    return json.dumps({k: v for k, v in record.items() if k not in drop})


# Probes whether the kernel line 4096 is cached; user memory is 0..127.
PROBE = ".access 0 127\n.data 4096 57\nloadi r1 4096\nin-cache r7 r1 r0\nhalt\n"

# argv with {tmp} standing for the test's directory, and the files to
# put there first.
USAGE_ERRORS = {
    "replay-missing-file": (["check", "--replay", "{tmp}/absent.bundle"], {}),
    "replay-bad-forward-steps": (["check", "--replay", "{tmp}/b.bundle"],
                                 {"b.bundle": bundle(forward_steps="x")}),
    "replay-bad-seed-cache": (["check", "--replay", "{tmp}/b.bundle"],
                              {"b.bundle": bundle(seed_cache=[[4]])}),
    "replay-seed-cache-not-a-pair": (["check", "--replay", "{tmp}/b.bundle"],
                                     {"b.bundle": bundle(seed_cache=[[1, 0], 5])}),
    "replay-bundle-not-an-object": (["check", "--replay", "{tmp}/b.bundle"],
                                    {"b.bundle": "[1, 2]"}),
    # a kernel line in the seeded cache: it would replay as a false
    # tea-meltdown report
    "replay-seed-cache-kernel-line": (
        ["check", "--replay", "{tmp}/b.bundle"],
        {"b.bundle": bundle(program=PROBE, seed_cache=[[4096, 57]])}),
    "replay-seed-cache-negative-address": (
        ["check", "--replay", "{tmp}/b.bundle"],
        {"b.bundle": bundle(program=PROBE, seed_cache=[[-1, 0]])}),
    "replay-seed-cache-wrong-value": (
        ["check", "--replay", "{tmp}/b.bundle"],
        {"b.bundle": bundle(program=PROBE, seed_cache=[[4, 9]])}),
    "replay-bad-program": (["check", "--replay", "{tmp}/b.bundle"],
                           {"b.bundle": bundle(program="loadi r99 1\n")}),
    "replay-program-not-text": (["check", "--replay", "{tmp}/b.bundle"],
                                {"b.bundle": bundle(program=None)}),
    # a replay that would rebuild its sample for too many steps
    "replay-forward-steps-oversized": (
        ["check", "--replay", "{tmp}/b.bundle"],
        {"b.bundle": bundle(property="entangled",
                            forward_steps=MAX_FORWARD_STEPS + 1)}),
    # a property that no longer exists: its replay test is entangled's
    # entangled-sample obligation
    "replay-removed-property": (["check", "--replay", "{tmp}/b.bundle"],
                                {"b.bundle": bundle(property="replay-identity")}),
    # a property that no longer exists: its audit passed by construction
    "replay-removed-writeback-property": (
        ["check", "--replay", "{tmp}/b.bundle"],
        {"b.bundle": bundle(property="action-writeback")}),
    # a property that no longer exists: it could not fail, since the
    # ISA's in-cache tests the access map first
    "replay-removed-incache-property": (
        ["check", "--replay", "{tmp}/b.bundle"],
        {"b.bundle": bundle(property="incache-constraint")}),
    # a record missing a field
    "replay-truncated-line": (["check", "--replay", "{tmp}/b.bundle"],
                              {"b.bundle": bundle(drop=("forward_steps",))}),
    "negative-trials": (["check", "--suite", "entangled", "--trials", "-5"], {}),
    # a negative step budget is not a budget that ran out (exit 3)
    "run-negative-max-steps": (["run", "{tmp}/p.asm", "--max-steps", "-3"],
                               {"p.asm": "halt\n"}),
    "demo-negative-max-steps": (["demo", "meltdown", "--max-steps", "-1"], {}),
    "param-without-value": (["run", "{tmp}/p.asm", "--param", "bogus"],
                            {"p.asm": "halt\n"}),
    "unknown-param": (["run", "{tmp}/p.asm", "--param", "bogus=1"],
                      {"p.asm": "halt\n"}),
    "params-line-without-value": (
        ["run", "{tmp}/p.asm", "--params", "{tmp}/p.params"],
        {"p.asm": "halt\n", "p.params": "fetch-num\n"}),
    "prefetch-missing-arguments": (
        ["run", "{tmp}/p.asm", "--param", "prefetch=stride"],
        {"p.asm": "ldri r1 r0 4\nhalt\n"}),
    "prefetch-unknown-policy": (
        ["run", "{tmp}/p.asm", "--param", "prefetch=bogus"],
        {"p.asm": "ldri r1 r0 4\nhalt\n"}),
    "prefetch-empty": (["run", "{tmp}/p.asm", "--param", "prefetch="],
                       {"p.asm": "ldri r1 r0 4\nhalt\n"}),
    "reg-count-negative": (["run", "{tmp}/p.asm", "--param", "reg-count=-3"],
                           {"p.asm": "halt\n"}),
    "reg-count-zero": (["run", "{tmp}/p.asm", "--param", "reg-count=0"],
                       {"p.asm": "halt\n"}),
    "reg-count-oversized": (
        ["run", "{tmp}/p.asm", "--param", "reg-count=100000000"],
        {"p.asm": "halt\n"}),
    "prefetch-count-oversized": (
        ["run", "{tmp}/p.asm", "--param", "prefetch=next 100000000"],
        {"p.asm": "ldri r1 r0 4\nhalt\n"}),
    "prefetch-count-negative": (
        ["run", "{tmp}/p.asm", "--param", "prefetch=next -3"],
        {"p.asm": "ldri r1 r0 4\nhalt\n"}),
    # its prefetch set would be the load's own line, three times over
    "prefetch-stride-repeats": (
        ["run", "{tmp}/p.asm", "--param", "prefetch=stride 0 3"],
        {"p.asm": "ldri r1 r0 4\nhalt\n"}),
    # a load takes two stations in one cycle, so with one it never issues
    "rs-count-below-decode-width": (
        ["run", "{tmp}/p.asm", "--param", "rs-count=1"],
        {"p.asm": "ldri r1 r0 4\nhalt\n"}),
    # usage errors that the argument parser detects
    "run-without-program": (["run"], {}),
    "trials-not-an-integer": (["check", "--trials", "x"], {}),
    "unknown-subcommand": (["bogus"], {}),
    "org-without-address": (["run", "{tmp}/p.asm"], {"p.asm": ".org\nhalt\n"}),
    "entry-without-address": (["run", "{tmp}/p.asm"],
                              {"p.asm": ".entry\nhalt\n"}),
}


@pytest.mark.parametrize("argv, files", USAGE_ERRORS.values(),
                         ids=USAGE_ERRORS.keys())
def test_usage_error_exits_two(tmp_path, capsys, argv, files):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text, message", [
    ("[1, 2]", "a bundle is a JSON object, got list"),
    (bundle(seed_cache=[[1, 0], 5]), "seed_cache must hold [address, value] "
                                     "integer pairs, got [[1, 0], 5]"),
])
def test_malformed_bundle_is_named(tmp_path, capsys, text, message):
    path = tmp_path / "b.bundle"
    path.write_text(text)
    assert main(["check", "--replay", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot replay {path}: {message}\n"


# Program lines, well-formed and malformed, for the exit-code contract.
LINES = (
    "halt", "noop", "loadi r1 5", "loadi r2 200", "addi r1 r1 1",
    "add r3 r1 r2", "mul r3 r3 r3", "ldri r4 r1 4", "ldr r5 r1 r2",
    "in-cache r6 r1 r2", "tsx-start 2", "tsx-end", "jge r1 2",
    ".access 0 127", ".data 4 9", ".entry 0", ".org 3",
    "loadi r99 1", "bogus r1", "ldri r1", ".org", ".data 4", ".access 9 2",
    ".access 5 20", "loadi r1 0x1g", "loadi r1 99999999999", ".weird 1",
)
programs = st.one_of(
    st.lists(st.sampled_from(LINES), max_size=6).map(lambda ls: "\n".join(ls) + "\n"),
    st.text(alphabet="r0123456789 .-xadhilt\n", max_size=24),
)
params = st.one_of(
    st.sampled_from(["fetch-num", "reg-count", "bogus", ""]),
    st.builds("{}={}".format,
              st.sampled_from(["fetch-num", "max-rob", "rs-count", "reg-count",
                               "prefetch", "bogus", ""]),
              st.one_of(st.integers(-3, 300).map(str),
                        st.sampled_from(["none", "next 2", "stride 3 2", "next",
                                         "stride 1", "next 1000", "x", ""]))),
)
records = st.builds(
    lambda rec, drop: {k: v for k, v in rec.items() if k != drop},
    st.fixed_dictionaries({
        "property": st.one_of(st.sampled_from(sorted(PROPERTIES)), st.just("bogus"),
                              st.integers()),
        "program": st.one_of(programs, st.integers(), st.none()),
        "forward_steps": st.one_of(st.integers(-2, 8), st.just("x"), st.none()),
        "seed_cache": st.one_of(
            st.lists(st.lists(st.integers(-1, 130), max_size=3), max_size=3),
            st.just("ab"), st.integers()),
        "trial": st.integers(), "findings": st.just([]),
    }),
    st.sampled_from(["", "property", "program", "forward_steps", "seed_cache"]),
)
bundles = st.one_of(records.map(json.dumps),
                    st.sampled_from(["", "{", "[]", "null", '"x"', "3"]))


def call_with_file(argv, text):
    """main(argv) with {file} standing for a file holding text; returns
    (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input")
        with open(path, "w") as fh:
            fh.write(text)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([a.format(file=path) for a in argv])
    return rc, out.getvalue(), err.getvalue()


def assert_usage_error_shape(rc, err):
    if rc == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=programs, overrides=st.lists(params, max_size=3),
       machine=st.sampled_from(["isa", "ma", "ma-h"]), trace=st.booleans())
def test_run_exit_codes(text, overrides, machine, trace):
    argv = ["run", "{file}", "--machine", machine, "--max-steps", "100"]
    argv += [f"--param={p}" for p in overrides] + ["--trace"] * trace
    rc, _, err = call_with_file(argv, text)
    assert rc in (0, 2, 3)
    assert_usage_error_shape(rc, err)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(text=bundles, as_json=st.booleans())
def test_replay_exit_codes(text, as_json):
    rc, _, err = call_with_file(["check", "--replay", "{file}"] + ["--json"] * as_json,
                                text)
    assert rc in (0, 1, 2)
    assert_usage_error_shape(rc, err)


class TestDemoBench:
    def test_meltdown_demo(self, capsys):
        assert main(["demo", "meltdown"]) == 0
        out = capsys.readouterr().out
        assert "recovered (r10):   57" in out
        assert "architectural run (r10):        none" in out

    def test_spectre_demo(self, capsys):
        assert main(["demo", "spectre"]) == 0
        out = capsys.readouterr().out
        assert "unauthorized" in out
        assert "(empty)" in out

    # Budgets too small for the attack's runs to halt.
    @pytest.mark.parametrize("attack, steps", [("meltdown", 30),
                                               ("spectre", 3),
                                               ("meltdown", 0),
                                               ("spectre", 18)])
    def test_budget_exhaustion_exit_code(self, capsys, attack, steps):
        assert main(["demo", attack, "--max-steps", str(steps)]) == 3
        captured = capsys.readouterr()
        assert captured.out == (f"step budget exhausted: a run did not halt "
                                f"within {steps} steps\n")
        assert captured.err == ""


def test_only_run_imports_snapshot():
    """In a fresh interpreter, `check` leaves the state printer
    unimported; `run` imports it."""
    package = os.path.dirname(asm.__file__)
    program = os.path.join(package, "programs", "meltdown.asm")
    code = f"""if True:
        import contextlib, io, sys
        from teasim.cli import main
        for argv in (["check", "--suite", "entangled", "--trials", "1", "--json"],
                     ["run", {program!r}, "--machine", "isa"]):
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(argv)
            print(rc, "teasim.snapshot" in sys.modules)
    """
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env=env)
    assert out.stdout == "0 False\n0 True\n"


class TestRepeatedCalls:
    """main builds its parser once per process; no call may see another's
    arguments or environment."""

    def test_tea_seed_read_by_each_check(self, capsys, monkeypatch):
        argv = ["check", "--suite", "entangled", "--trials", "1", "--json"]
        for env, seed in (("4", 4), ("7", 7), (None, 0)):
            if env is None:
                monkeypatch.delenv("TEA_SEED", raising=False)
            else:
                monkeypatch.setenv("TEA_SEED", env)
            assert main(argv) == 0
            (report,) = json.loads(capsys.readouterr().out)["reports"]
            assert report["seed"] == seed
        monkeypatch.setenv("TEA_SEED", "4")
        assert main(argv + ["--seed", "9"]) == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["seed"] == 9

    def test_invalid_tea_seed_fails_check_only(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TEA_SEED", "abc")
        assert main(["check", "--suite", "entangled", "--trials", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: TEA_SEED must be an integer, got 'abc'\n"
        # An explicit seed, and a subcommand that draws nothing, ignore it.
        assert main(["check", "--suite", "entangled", "--trials", "1",
                     "--seed", "2"]) == 0
        assert main(["run", write_prog(tmp_path, "halt\n")]) == 0
        assert capsys.readouterr().err == ""

    def test_param_overrides_do_not_add_up(self, tmp_path, capsys):
        path = write_prog(tmp_path, "halt\n")
        assert main(["run", path, "--param", "rs-count=6"]) == 0
        assert "param rs-count 6" in capsys.readouterr().out
        assert main(["run", path, "--param", "fetch-num=2"]) == 0
        out = capsys.readouterr().out
        assert "param fetch-num 2" in out
        assert "param rs-count 6" not in out

    def test_usage_error_then_valid_call(self, capsys):
        assert main(["check", "--trials", "x"]) == 2
        assert capsys.readouterr().err == (
            "error: argument --trials: invalid int value: 'x'\n")
        assert main(["check", "--suite", "nope"]) == 2
        capsys.readouterr()
        assert main(["check", "--suite", "entangled", "--trials", "2",
                     "--seed", "5"]) == 0
        assert "  entangled: 2 trials, 0 failing" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: teasim check")

    def test_patched_command_runs(self, monkeypatch):
        seen = []
        monkeypatch.setattr("teasim.cli.cmd_check",
                            lambda args: seen.append(args.suite) or 42)
        assert main(["check", "--suite", "entangled"]) == 42
        assert seen == ["entangled"]
