"""Acceptance suite: the exit criteria for the toolkit, one test per
criterion, each printing a PASS line with the checked bound."""

import json
import random
import time


from lifeguard.abstract import BAD, BLOCKED, AbstractEngine
from lifeguard.cli import main as cli_main
from lifeguard.grounding import ground_spec
from lifeguard.interp import FINISHED, BAD_STATUS, load_program, parse_schedule, run
from lifeguard.messages import DIS_CI, serialize_trace
from lifeguard.validation import validate
from lifeguard.verification import (
    Safe,
    Violation,
    split_subtraces,
    verify,
)

from gen import random_spec, random_trace
from reference_engine import accepts, brute_force_verify, fold_step
from test_abstract import engine_outcomes, scratch_outcomes
from test_dfa_grounding import LETTERS, OPERATOR_COVERAGE, brute_language, compile_matcher

CREATE, CLICK, POST_EXECUTE = 0, 1, 2


def test_criterion_1_running_example_violation(spec_run, trace_buggy):
    start = time.monotonic()
    result = verify(spec_run, trace_buggy, mode="exhaustive")
    elapsed = time.monotonic() - start
    assert isinstance(result, Violation)
    assert result.subtrace_sequence == (CREATE, CLICK, CLICK)
    assert str(result.witness.messages[-1]) == "dis ci execute(t#1:AsyncTask)"
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: buggy trace yields Create;Click;Click ending in "
          f"dis ci execute(t#1:AsyncTask) in {elapsed * 1000:.0f} ms")


def test_criterion_2_proof_and_precision_ordering(spec_run, spec_lifecycle, spec_top,
                                                  trace_fixed):
    start = time.monotonic()
    lifestate = verify(spec_run, trace_fixed, mode="exhaustive")
    lifecycle = verify(spec_lifecycle, trace_fixed, mode="exhaustive")
    top = verify(spec_top, trace_fixed, mode="exhaustive")
    elapsed = time.monotonic() - start
    assert isinstance(lifestate, Safe)
    assert isinstance(lifecycle, Violation)
    assert isinstance(top, Violation)
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: lifestate model verifies the fixed trace Safe; "
          f"top and lifecycle models false-alarm ({elapsed * 1000:.0f} ms)")


def test_criterion_3_validation_prefix_diagnostic(spec_run, spec_run_noenable, trace_fixed):
    broken = validate(spec_run_noenable, trace_fixed)
    assert not broken.valid
    assert broken.blocking_message.kind == "cb"
    assert broken.blocking_message.fun == "onPostExecute"
    assert str(broken.blocking_message.args[0]) == "t#1:AsyncTask"
    units = split_subtraces(trace_fixed)
    create_click = len(units[CREATE].messages) + len(units[CLICK].messages)
    assert broken.prefix_len == create_click  # exactly the Create and Click units
    full = validate(spec_run, trace_fixed)
    assert full.valid
    print(f"\nACCEPTANCE 3 PASS: missing enable rule blocks at cb onPostExecute(t#1) "
          f"after a validated prefix of {broken.prefix_len} messages "
          f"(Create+Click); full spec validates all {full.prefix_len}")


def test_criterion_4_interpreter_reproduces_fixtures(fixtures_dir, trace_fixed):
    program = load_program(fixtures_dir / "program_fixed.ll")
    schedule = parse_schedule((fixtures_dir / "schedule_fixed.sched").read_text())
    result = run(program, schedule, 500)
    assert result.status == FINISHED
    assert result.trace == trace_fixed

    buggy = load_program(fixtures_dir / "program_buggy.ll")
    double_click = parse_schedule((fixtures_dir / "schedule_double_click.sched").read_text())
    crash = run(buggy, double_click, 500)
    assert crash.status == BAD_STATUS
    last = crash.trace.messages[-1]
    assert last.kind == DIS_CI and last.fun == "execute"
    print("\nACCEPTANCE 4 PASS: fixed program replays the recorded trace exactly; "
          "buggy program under the double-click schedule ends bad with dis ci execute")


def test_criterion_5_incremental_equals_from_scratch(spec_run, trace_fixed, trace_buggy):
    checked = 0
    for trace in (trace_fixed, trace_buggy):
        ground = ground_spec(spec_run, trace)
        engine = AbstractEngine(ground)
        assert engine_outcomes(engine, trace.messages) == \
            scratch_outcomes(ground, trace.messages)
        checked += 1
    rng = random.Random(515)
    for _ in range(200):
        trace = random_trace(rng, max_messages=20, max_objects=3)
        spec = random_spec(rng)
        ground = ground_spec(spec, trace)
        engine = AbstractEngine(ground)
        assert engine_outcomes(engine, trace.messages) == \
            scratch_outcomes(ground, trace.messages)
        checked += 1
    print(f"\nACCEPTANCE 5 PASS: DFA-incremental stores equal full-history "
          f"evaluation on {checked} traces (exact set equality)")


def test_criterion_6_oracle_agreement(spec_run, spec_lifecycle, spec_top,
                                      trace_fixed, trace_buggy):
    pairs = [(spec, trace)
             for spec in (spec_run, spec_lifecycle, spec_top)
             for trace in (trace_fixed, trace_buggy)]
    rng = random.Random(606)
    pairs += [(random_spec(rng), random_trace(rng, max_messages=12)) for _ in range(50)]
    agreements = 0
    violations = 0
    for spec, trace in pairs:
        for k in range(1, 5):
            bounded = verify(spec, trace, mode=f"bounded:{k}")
            brute = brute_force_verify(spec, trace, k)
            assert isinstance(bounded, Violation) == isinstance(brute, Violation)
            agreements += 1
            if isinstance(bounded, Violation):
                assert validate(spec, bounded.witness).valid
                assert validate(spec, brute.witness).valid
                violations += 1

    # Safe fixture withstands random repetition sampling.
    assert isinstance(verify(spec_run, trace_fixed), Safe)
    units = split_subtraces(trace_fixed)
    engine = AbstractEngine(ground_spec(spec_run, trace_fixed))
    for _ in range(10000):
        state = engine.initial_state()
        for _ in range(rng.randint(1, 8)):
            unit = units[rng.randrange(len(units))]
            blocked = False
            for m in unit.messages:
                outcome, step = fold_step(engine, state, m)
                assert outcome != BAD, "Safe verdict refuted by sampling"
                if outcome == BLOCKED:
                    blocked = True
                    break
                state = step
            if blocked:
                break
    print(f"\nACCEPTANCE 6 PASS: bounded search and brute-force enumeration agree "
          f"on {agreements} verdicts (k<=4, {violations} violations, all witnesses "
          f"replay); Safe fixture withstood 10000 repetition samples")


def test_criterion_7_matcher_dfa_equivalence():
    words_checked = 0
    for matcher in OPERATOR_COVERAGE:
        accepted, universe = brute_language(matcher, LETTERS, max_len=8)
        auto, letter_of = compile_matcher(matcher, LETTERS)
        for word in universe:
            assert accepts(auto, (letter_of[m] for m in word)) == (word in accepted), \
                str(matcher)
            words_checked += 1
    print(f"\nACCEPTANCE 7 PASS: compiled DFAs agree with the brute-force matcher "
          f"on {words_checked} words (length <= 8, 3-letter alphabet, all "
          f"operators including intersection and complement)")


def test_criterion_8_corpus_histogram_shape(tmp_path, capsys):
    # Large-corpus rates need external trace corpora and are out of scope;
    # what must work is the corpus report format: one line per trace plus
    # the cumulative validated-prefix histogram.
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    rng = random.Random(88)
    # Repeated use of the same start() is the injected protocol hole, so
    # traces fail at scattered depths and the histogram has real shape.
    spec_text = ("TRUE* ; ci start(x:Widget) -/> ci start(x)\n"
                 "TRUE* ; ci start(x:Task) -/> ci start(x)\n")
    spec_path = tmp_path / "synthetic.ls"
    spec_path.write_text(spec_text)
    for i in range(30):
        trace = random_trace(rng, max_messages=rng.choice((12, 30, 60, 90)))
        (corpus / f"t{i:03}.trace").write_text(serialize_trace(trace))

    code = cli_main(["validate", "--spec", str(spec_path), "--corpus", str(corpus),
                     "--report", "json"])
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["total"] == 30
    assert len(doc["results"]) == 30
    hist = doc["prefix_histogram"]
    counts = [hist[f">={b}"] for b in (1, 25, 50, 75)]
    assert counts == sorted(counts, reverse=True)  # cumulative buckets shrink
    assert counts[0] > 0
    # the per-trace lines agree with the histogram
    recomputed = [0, 0, 0, 0]
    for r in doc["results"]:
        for j, b in enumerate((1, 25, 50, 75)):
            if r.get("prefix_len", 0) >= b:
                recomputed[j] += 1
    assert recomputed == counts
    assert code in (0, 1)
    print(f"\nACCEPTANCE 8 PASS: corpus report reproduces the cumulative prefix "
          f"histogram shape {dict(zip(('>=1', '>=25', '>=50', '>=75'), counts))} "
          f"on a 30-trace synthetic corpus; corpus-scale verification rates are "
          f"out of scope by design")
