import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from lifeguard.abstract import AbstractEngine
from lifeguard.cli import main
from lifeguard.messages import load_trace, serialize_trace
from lifeguard.rules import load_spec
from lifeguard.validation import validate

from pairs import CAP_SPEC, init_trace, pair_trace


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerifyCommand:
    def test_safe_exits_zero(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "verify",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"),
                               "--mode", "exhaustive")
        assert code == 0
        assert "Safe" in out

    def test_violation_exits_one_and_writes_witness(self, capsys, fixtures_dir, tmp_path):
        witness_path = tmp_path / "w.trace"
        code, out, _ = run_cli(capsys, "verify",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_buggy.trace"),
                               "--mode", "exhaustive",
                               "--witness-out", str(witness_path))
        assert code == 1
        assert "Violation" in out
        witness = load_trace(witness_path)
        assert witness.messages[-1].is_dis()
        assert "execute" in str(witness.messages[-1])

    def test_json_report_schema(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "verify",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_buggy.trace"),
                               "--report", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["schema"] == 1
        assert doc["verdict"] == "violation"
        assert doc["subtrace_sequence"] == [1, 2, 2]

    def test_bounded_unknown_exits_two(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "verify",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_buggy.trace"),
                               "--mode", "bounded:2")
        assert code == 2
        assert "Unknown" in out

    def test_unknown_json_reports_depth_and_frontier(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "verify",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_buggy.trace"),
                               "--mode", "bounded:2", "--report", "json")
        doc = json.loads(out)
        assert code == 2 and doc["schema"] == 1 and doc["verdict"] == "unknown"
        assert (doc["depth_reached"], doc["frontier"]) == (2, 0)

    def test_stats_and_json_count_unit_replays(self, capsys, fixtures_dir):
        st = ["--spec", str(fixtures_dir / "spec_run.ls"),
              "--trace", str(fixtures_dir / "trace_fixed.trace")]
        code, out, _ = run_cli(capsys, "verify", *st, "--stats")
        assert code == 0
        replays = int(out.splitlines()[-1].removeprefix("unit replays: "))
        assert out.splitlines()[-2].startswith("states explored: ")
        _, out, _ = run_cli(capsys, "verify", *st, "--report", "json")
        assert json.loads(out)["unit_replays"] == replays > 0

    def test_unknown_json_gives_the_timeout_reason(self, capsys, fixtures_dir, monkeypatch):
        # A clock that jumps a minute per reading: the deadline has passed
        # by the first unit replay.
        from lifeguard import verification

        ticks = iter(range(0, 10 ** 6, 60))
        monkeypatch.setattr(verification, "time", type("Clock", (), {
            "monotonic": staticmethod(lambda: next(ticks))}))
        code, out, _ = run_cli(capsys, "verify",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"),
                               "--timeout", "1", "--report", "json")
        doc = json.loads(out)
        assert code == 2 and doc["verdict"] == "unknown" and doc["reason"] == "timeout"
        assert doc["lines"] == ["Unknown: timeout"]

    def test_state_cap_below_one_is_a_usage_error(self, capsys, fixtures_dir):
        with pytest.raises(SystemExit) as exc:
            main(["verify",
                  "--spec", str(fixtures_dir / "spec_run.ls"),
                  "--trace", str(fixtures_dir / "trace_fixed.trace"),
                  "--state-cap", "0"])
        assert exc.value.code == 2
        assert "--state-cap must be at least 1" in capsys.readouterr().err

    def test_state_cap_flag_reaches_verify(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "verify",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"),
                               "--state-cap", "1")
        assert code == 2
        assert "state cap 1 exceeded" in out

    def test_text_and_json_verdicts_agree(self, capsys, fixtures_dir):
        _, text_out, _ = run_cli(capsys, "verify",
                                 "--spec", str(fixtures_dir / "spec_run.ls"),
                                 "--trace", str(fixtures_dir / "trace_fixed.trace"))
        _, json_out, _ = run_cli(capsys, "verify",
                                 "--spec", str(fixtures_dir / "spec_run.ls"),
                                 "--trace", str(fixtures_dir / "trace_fixed.trace"),
                                 "--report", "json")
        assert "Safe" in text_out
        assert json.loads(json_out)["verdict"] == "safe"


class TestValidateCommand:
    def test_valid_exits_zero(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "validate",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"))
        assert code == 0
        assert "valid" in out

    def test_invalid_prefix_report(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "validate",
                               "--spec", str(fixtures_dir / "spec_run_noenable.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"))
        assert code == 1
        assert "onPostExecute" in out
        assert "12/16" in out

    def test_corpus_mode(self, capsys, fixtures_dir, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        fixed = (fixtures_dir / "trace_fixed.trace").read_text()
        buggy = (fixtures_dir / "trace_buggy.trace").read_text()
        (corpus / "b_fixed.trace").write_text(fixed)
        (corpus / "a_buggy.trace").write_text(buggy)
        code, out, _ = run_cli(capsys, "validate",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--corpus", str(corpus),
                               "--report", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["valid"] == 2 and doc["total"] == 2
        # reports sorted by trace path regardless of execution order
        paths = [r["trace"] for r in doc["results"]]
        assert paths == sorted(paths)
        assert "prefix_histogram" in doc
        assert doc["prefix_histogram"][">=1"] == 2

    def test_corpus_reports_a_malformed_trace_and_goes_on(self, capsys, fixtures_dir,
                                                          tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a_bad.trace").write_text("ci execute(t#1:AsyncTask)\n")
        (corpus / "b_fixed.trace").write_text((fixtures_dir / "trace_fixed.trace").read_text())
        code, out, _ = run_cli(capsys, "validate",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--corpus", str(corpus),
                               "--report", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["total"] == 2 and doc["valid"] == 1
        bad, fixed = doc["results"]
        assert bad["verdict"] == "error" and "line 1" in bad["reason"]
        assert fixed["verdict"] == "valid"
        assert doc["prefix_histogram"][">=1"] == 1

    def test_corpus_unreadable_entries_are_errors(self, capsys, fixtures_dir, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a_fixed.trace").write_text((fixtures_dir / "trace_fixed.trace").read_text())
        (corpus / "b_latin1.trace").write_bytes(b"cb onShow(a#1:Activity) # caf\xe9\n")
        (corpus / "d.trace").mkdir()
        code, out, _ = run_cli(capsys, "validate",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--corpus", str(corpus),
                               "--report", "json")
        assert code == 1
        doc = json.loads(out)
        assert doc["total"] == 3 and doc["valid"] == 1
        assert [r["verdict"] for r in doc["results"]] == ["valid", "error", "error"]
        assert "UTF-8" in doc["results"][1]["reason"]
        for bad in ("b_latin1.trace", "d.trace"):
            code, _, err = run_cli(capsys, "validate",
                                   "--spec", str(fixtures_dir / "spec_run.ls"),
                                   "--trace", str(corpus / bad))
            assert code == 2 and err.count("\n") == 1 and err.startswith("error: ")

    def test_needs_exactly_one_input(self, capsys, fixtures_dir, tmp_path):
        with pytest.raises(SystemExit):
            main(["validate", "--spec", str(fixtures_dir / "spec_run.ls")])


class TestRunCommand:
    def test_run_fixed_program(self, capsys, fixtures_dir, tmp_path, trace_fixed):
        out_path = tmp_path / "out.trace"
        code, _, err = run_cli(capsys, "run",
                               "--program", str(fixtures_dir / "program_fixed.ll"),
                               "--schedule", "0,0,0",
                               "--max-steps", "500",
                               "--trace-out", str(out_path))
        assert code == 0
        assert "finished" in err
        assert load_trace(out_path) == trace_fixed

    def test_run_schedule_from_file(self, capsys, fixtures_dir, tmp_path):
        out_path = tmp_path / "out.trace"
        code, _, _ = run_cli(capsys, "run",
                             "--program", str(fixtures_dir / "program_buggy.ll"),
                             "--schedule", "@" + str(fixtures_dir / "schedule_double_click.sched"),
                             "--trace-out", str(out_path))
        assert code == 1  # run ends in the bad state
        assert load_trace(out_path).messages[-1].is_dis()

    @pytest.mark.parametrize("program,schedule,steps,code,status", [
        ("program_buggy.ll", "schedule_double_click.sched", 151, 1, "bad (151 steps, 12 messages)"),
        ("program_fixed.ll", "schedule_fixed.sched", 176, 0, "finished (176 steps, 16 messages)"),
    ])
    def test_run_status_at_the_step_budget(self, capsys, fixtures_dir, program, schedule,
                                           steps, code, status):
        got, _, err = run_cli(capsys, "run", "--program", str(fixtures_dir / program),
                              "--schedule", "@" + str(fixtures_dir / schedule),
                              "--max-steps", str(steps))
        assert (got, err) == (code, f"status: {status}\n")

    def test_run_rejects_initless_program(self, capsys, tmp_path):
        prog = tmp_path / "p.ll"
        prog.write_text("let f = (x =>[app] x) in unit\n")
        code, _, err = run_cli(capsys, "run", "--program", str(prog), "--schedule", "0")
        assert code == 2
        assert "init" in err

    def test_stuck_run_says_why(self, capsys, tmp_path):
        prog = tmp_path / "p.ll"
        prog.write_text(
            "let a = a#1:Activity in\n"
            "let cb = (a =>[app] unit) in\n"
            "let boot = (a =>[fwk] (disallow (bind cb a); invoke (bind cb a))) in\n"
            "invoke (bind boot a)\n")
        code, out, err = run_cli(capsys, "run", "--program", str(prog), "--schedule", "0")
        assert code == 2
        assert out == ""
        assert err == ("status: stuck (23 steps, 0 messages): "
                       "invoke of disallowed app thunk cb[a#1:Activity]\n")

    def test_malformed_program_exits_two(self, capsys, tmp_path):
        prog = tmp_path / "p.ll"
        prog.write_text("let f = in\n")
        code, _, err = run_cli(capsys, "run", "--program", str(prog), "--schedule", "0")
        assert code == 2
        assert "error" in err


class TestGroundAndExplain:
    def test_ground_dump(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "ground",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"))
        assert code == 0
        assert "-/>" in out and "->" in out
        assert "alphabet" in out

    def test_ground_rules_reparse(self, capsys, fixtures_dir):
        from lifeguard.rules import parse_spec

        code, out, _ = run_cli(capsys, "ground",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"))
        rule_lines = [l for l in out.splitlines() if "->" in l or "-/>" in l]
        parsed = parse_spec("\n".join(rule_lines))
        assert len(parsed.rules) == len(rule_lines)

    def test_ground_marks_the_sliced_subset(self, capsys, tmp_path, fixtures_dir):
        # The full grounding is printed; the sliced one only counted.
        trace = tmp_path / "pairs.trace"
        trace.write_text(serialize_trace(pair_trace(3)))
        argv = ["ground", "--spec", str(fixtures_dir / "spec_run.ls"), "--trace", str(trace)]
        code, out, _ = run_cli(capsys, *argv, "--report", "json")
        report = json.loads(out)
        assert code == 0 and report["rules"] == 37
        assert report["instance_counts"] == [3, 3, 9, 9, 9, 3, 1]
        assert report["sliced_instance_counts"] == [3, 3, 3, 3, 3, 3, 1]
        code, out, _ = run_cli(capsys, *argv)
        rows = [line.split() for line in out.splitlines()]
        assert ["3", "9", "3", "2,2,2,2,2,2,2,2,2"] in rows
        assert "sliced: 19 of 37 instances, 38 of 50 messages" in out.splitlines()

    def test_explain_valid_trace(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "explain",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"))
        assert code == 0
        assert "fires" in out
        assert "validated to the end" in out

    def test_explain_blocked_trace(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "explain",
                               "--spec", str(fixtures_dir / "spec_run_noenable.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"))
        assert code == 1
        assert "BLOCKED" in out
        assert "permitted-back" in out

    def test_explain_flags_an_inconsistent_initial_state(self, capsys, tmp_path, fixtures_dir):
        # validate reports step 0 as inconsistent; explain flags the initial
        # line the way it flags a step.
        spec = tmp_path / "inconsistent.ls"
        spec.write_text("eps -> ci execute(t#1:AsyncTask)\n"
                        "eps -/> ci execute(t#1:AsyncTask)\n")
        argv = ["--spec", str(spec), "--trace", str(fixtures_dir / "trace_fixed.trace")]
        code, out, _ = run_cli(capsys, "validate", *argv, "--report", "json")
        assert json.loads(out)["inconsistent_steps"] == [0]
        code, out, _ = run_cli(capsys, "explain", *argv)
        assert code == 1
        assert out.splitlines()[0] == ("initial: permitted-back 0, prohibited-in 8"
                                       "  (WARNING: permit/prohibit inconsistency)")


def test_explain_agrees_with_validate(capsys, fixtures_dir, tmp_path):
    # explain fails exactly where validate stops, on every fixture pair and
    # on a dis-terminated witness, predicted or missed by the spec.
    witness = tmp_path / "witness.trace"
    assert run_cli(capsys, "verify", "--spec", str(fixtures_dir / "spec_run.ls"),
                   "--trace", str(fixtures_dir / "trace_buggy.trace"),
                   "--witness-out", str(witness))[0] == 1
    permissive = tmp_path / "permissive.ls"
    permissive.write_text("")
    specs = sorted(fixtures_dir.glob("*.ls")) + [permissive]
    traces = sorted(fixtures_dir.glob("*.trace")) + [witness]
    failures = ("BLOCKED (not permitted)", "BAD (prohibited in-message)",
                "dis (MISSED by the spec)")
    for spec in specs:
        for trace in traces:
            report = validate(load_spec(spec), load_trace(trace))
            code, out, _ = run_cli(capsys, "explain", "--spec", str(spec), "--trace", str(trace))
            assert code == (0 if report.valid else 1), (spec.name, trace.name)
            failing = [int(line.split()[0]) for line in out.splitlines()
                       if line.endswith(failures)]
            assert failing == ([] if report.valid else [report.prefix_len + 1])
            if trace == witness and spec.name in ("spec_run.ls", "permissive.ls"):
                status = "dis (predicted)" if spec.name == "spec_run.ls" \
                    else "dis (MISSED by the spec)"
                assert out.splitlines()[-1].endswith(status), spec.name


class TestErrorPaths:
    def test_missing_file(self, capsys, fixtures_dir):
        code, _, err = run_cli(capsys, "verify",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", "/nonexistent.trace")
        assert code == 2
        assert "error" in err

    def test_malformed_trace(self, capsys, fixtures_dir, tmp_path):
        bad = tmp_path / "bad.trace"
        bad.write_text("ci execute(t#1:AsyncTask)\ncb onClick(l#1:OnClickListener,b#1:Button)\n")
        code, _, err = run_cli(capsys, "validate",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(bad))
        assert code == 2
        assert "line 1" in err


    def test_dfa_cap_overflow_is_one_error_line(self, capsys, fixtures_dir, monkeypatch):
        from lifeguard import dfa

        build = dfa.build_dfa
        monkeypatch.setattr(dfa, "build_dfa",
                            lambda regex, n_letters: build(regex, n_letters, 0))
        code, _, err = run_cli(capsys, "validate",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"))
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: spec rule #1, ")
        assert "exceeded 0 states" in err

    def test_dfa_cap_overflow_is_an_error_row_in_a_corpus(self, capsys, fixtures_dir,
                                                          monkeypatch, tmp_path):
        from lifeguard import dfa

        build = dfa.build_dfa
        monkeypatch.setattr(dfa, "build_dfa",
                            lambda regex, n_letters: build(regex, n_letters, 0))
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("trace_fixed.trace", "trace_buggy.trace"):
            (corpus / name).write_text((fixtures_dir / name).read_text())
        code, out, err = run_cli(capsys, "validate",
                                 "--spec", str(fixtures_dir / "spec_run.ls"),
                                 "--corpus", str(corpus), "--report", "json")
        assert code == 1 and err == ""
        rows = json.loads(out)["results"]
        assert [row["verdict"] for row in rows] == ["error", "error"]
        assert all(row["reason"].startswith("spec rule #1, ") for row in rows)
        assert all("exceeded 0 states" in row["reason"] for row in rows)


class TestGroundingCap:
    """A single-trace validate or verify whose grounding exceeds the cap
    reports unknown, as validate --corpus does, and exits 2."""

    @pytest.fixture
    def inputs(self, tmp_path):
        spec, trace = tmp_path / "cap.ls", tmp_path / "cap.trace"
        spec.write_text(CAP_SPEC)
        trace.write_text(serialize_trace(init_trace(60)))
        return ["--spec", str(spec), "--trace", str(trace)]

    REASON = ("sliced grounding enumerates 216000 rule assignments (cap 200000); "
              "worst rule is #1 with 216000 assignments")

    def test_validate_json_report(self, capsys, inputs):
        code, out, err = run_cli(capsys, "validate", *inputs, "--report", "json")
        assert code == 2 and err == ""
        doc = json.loads(out)
        assert doc["verdict"] == "unknown" and doc["reason"].startswith(self.REASON)

    def test_verify_json_report(self, capsys, inputs):
        code, out, err = run_cli(capsys, "verify", *inputs, "--report", "json")
        assert code == 2 and err == ""
        doc = json.loads(out)
        assert doc["verdict"] == "unknown" and doc["reason"].startswith(self.REASON)
        assert (doc["states_explored"], doc["depth_reached"], doc["frontier"]) == (0, 0, 0)
        assert doc["unit_replays"] == 0

    @pytest.mark.parametrize("command, head", [("validate", "unknown: "),
                                               ("verify", "Unknown: ")])
    def test_text_report_gives_the_reason(self, capsys, inputs, command, head):
        code, out, err = run_cli(capsys, command, *inputs)
        assert code == 2 and err == ""
        assert out.startswith(head + self.REASON) and out.count("\n") == 1

    def test_corpus_row_agrees(self, capsys, inputs, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "cap.trace").write_text((tmp_path / "cap.trace").read_text())
        code, out, _ = run_cli(capsys, "validate", "--spec", inputs[1],
                               "--corpus", str(corpus), "--report", "json")
        row = json.loads(out)["results"][0]
        assert code == 1 and row["verdict"] == "unknown"
        assert row["reason"].startswith(self.REASON)


@pytest.mark.parametrize("argv", [
    ["verify", "--mode", "foo"],
    ["verify", "--mode", "bounded:abc"],
    ["verify", "--mode", "bounded:0"],
    ["verify", "--mode", "bounded:-3"],
    ["run", "--schedule", "seed:abc"],
    ["run", "--schedule", "1,x"],
    ["run", "--seed", "1", "--max-steps", "0"],
], ids=" ".join)
def test_bad_option_value_is_one_error_line(capsys, fixtures_dir, argv):
    if argv[0] == "verify":
        inputs = ["--spec", str(fixtures_dir / "spec_run.ls"),
                  "--trace", str(fixtures_dir / "trace_fixed.trace")]
    else:
        inputs = ["--program", str(fixtures_dir / "program_fixed.ll")]
    code, out, err = run_cli(capsys, *argv, *inputs)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and "Traceback" not in err


class TestTimeouts:
    def test_sub_second_timeout_is_a_usage_error(self, capsys, fixtures_dir):
        # nan compares false with everything, so it must not pass as >= 1.
        for value in ("0.5", "nan"):
            with pytest.raises(SystemExit):
                main(["validate",
                      "--spec", str(fixtures_dir / "spec_run.ls"),
                      "--trace", str(fixtures_dir / "trace_fixed.trace"),
                      "--timeout", value])

    def test_generous_timeout_still_validates(self, capsys, fixtures_dir):
        code, out, _ = run_cli(capsys, "validate",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--trace", str(fixtures_dir / "trace_fixed.trace"),
                               "--timeout", "60")
        assert code == 0 and "valid" in out

    def test_api_timeout_surfaces_as_unknown_in_corpus_rows(self, capsys, fixtures_dir,
                                                            tmp_path, monkeypatch):
        import lifeguard.cli as cli_mod
        from lifeguard.validation import ValidationTimeout

        def always_times_out(spec, trace, timeout=None):
            raise ValidationTimeout("validation exceeded its time budget at step 0")

        monkeypatch.setattr(cli_mod, "validate", always_times_out)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "x.trace").write_text((fixtures_dir / "trace_fixed.trace").read_text())
        code, out, _ = run_cli(capsys, "validate",
                               "--spec", str(fixtures_dir / "spec_run.ls"),
                               "--corpus", str(corpus),
                               "--timeout", "1",
                               "--report", "json")
        doc = json.loads(out)
        assert doc["results"][0]["verdict"] == "unknown"
        assert code == 1


def test_output_does_not_depend_on_hash_seed(fixtures_dir, tmp_path):
    # Set iteration order varies with the hash seed; none of it may reach
    # what the commands print.
    trace = tmp_path / "pairs.trace"
    trace.write_text(serialize_trace(pair_trace(4, frozenset({2}))))
    run_spec = ["--spec", str(fixtures_dir / "spec_run.ls"), "--trace", str(trace)]
    commands = [["ground", *run_spec, "--report", "json"],
                ["explain", *run_spec],
                ["verify", *run_spec, "--report", "json"],
                ["explain", "--spec", str(fixtures_dir / "spec_lifecycle.ls"),
                 "--trace", str(fixtures_dir / "trace_buggy.trace")]]
    src = pathlib.Path(__file__).resolve().parent.parent / "src"

    def outputs(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(src))
        return [subprocess.run([sys.executable, "-m", "lifeguard.cli", *argv],
                               capture_output=True, text=True, env=env).stdout
                for argv in commands]

    first = outputs("0")
    assert all(first)
    assert outputs("1") == first


def test_benchmark_tracer_targets_resolve():
    # perfbench/run.py --trace 1 wraps these names; renaming or deleting
    # one would otherwise break the traced run without failing a test.
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attribute, *_ in tracer.WRAPPED:
        assert callable(getattr(importlib.import_module(f"lifeguard.{module}"), attribute))
    for method in tracer.ENGINE_METHODS:
        assert callable(vars(AbstractEngine).get(method)), method
