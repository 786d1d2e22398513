"""Self-test of checks.py: every check accepts the right answer and
rejects wrong ones; and of run.py's reading of Unknown verdicts.  Needs
no lifeguard; run with

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import random
import sys

import checks
import gen
import run
from checks import SPEC_NOENABLE, SPEC_RUN

failures: list[str] = []


def accepts(name: str, problems: list[str]) -> None:
    if problems:
        failures.append(f"{name}: rejected the right answer: {problems}")


def rejects(name: str, problems: list[str]) -> None:
    if not problems:
        failures.append(f"{name}: accepted a wrong answer")


def test_formulas() -> None:
    got = (checks.expected_instances(SPEC_RUN, 4), checks.expected_alphabet(4, 0),
           checks.expected_instances(SPEC_RUN, 16), checks.expected_alphabet(16, 0))
    if got != (61, 74, 817, 674):
        failures.append(f"formulas give {got}, the ROADMAP measured (61, 74, 817, 674)")
    right = {"instances": 61, "alphabet": 73}
    accepts("ground", checks.check_ground(SPEC_RUN, 4, frozenset({2}), right))
    rejects("ground instances", checks.check_ground(SPEC_NOENABLE, 4, frozenset({2}), right))
    rejects("ground alphabet", checks.check_ground(SPEC_RUN, 4, frozenset(), right))


def test_verify() -> None:
    rng = random.Random(3)
    _, units = gen.pairs_trace(5, frozenset(), rng)
    accepts("verify safe", checks.check_verify(units, frozenset(), {"verdict": "safe"}))
    rejects("verify safe as violation",
            checks.check_verify(units, frozenset(), {"verdict": "violation"}))

    skip = frozenset({2, 4})
    _, units = gen.pairs_trace(5, skip, rng)
    sequence, witness = checks.expected_witnesses(units, skip)[0]
    right = {"verdict": "violation", "sequence": sequence, "witness": witness}
    accepts("verify violation", checks.check_verify(units, skip, right))
    rejects("verify violation as safe", checks.check_verify(units, skip, {"verdict": "safe"}))
    rejects("verify unknown", checks.check_verify(units, skip, {"verdict": "unknown"}))
    rejects("witness sequence",
            checks.check_verify(units, skip, {**right, "sequence": sequence[:2] + [0]}))
    rejects("witness without dis",
            checks.check_verify(units, skip, {**right, "witness": witness[:-1]}))
    clean = next(i for i, u in enumerate(units) if u[0] == gen.click_open(1))
    wrong = units[0] + units[clean] + [gen.click_open(1), "dis " + gen.execute_call(1)]
    rejects("witness of a non-skipping pair", checks.check_verify(
        units, skip, {"verdict": "violation", "sequence": [0, clean, clean], "witness": wrong}))


def test_validate() -> None:
    text, _ = gen.pairs_trace(3, frozenset(), random.Random(4))
    lines = text.splitlines()
    first_post = next(i for i, line in enumerate(lines) if line.startswith("cb onPostExecute("))
    valid = {"valid": True, "prefix_len": len(lines), "total_len": len(lines),
             "blocking_message": None}
    invalid = {"valid": False, "prefix_len": first_post, "total_len": len(lines),
               "blocking_message": lines[first_post]}
    accepts("validate spec_run", checks.check_validate(SPEC_RUN, lines, valid))
    rejects("validate spec_run invalid", checks.check_validate(SPEC_RUN, lines, invalid))
    accepts("validate noenable", checks.check_validate(SPEC_NOENABLE, lines, invalid))
    rejects("validate noenable valid", checks.check_validate(SPEC_NOENABLE, lines, valid))
    rejects("validate noenable prefix", checks.check_validate(
        SPEC_NOENABLE, lines, {**invalid, "prefix_len": first_post + 1}))
    later = [i for i, line in enumerate(lines) if line.startswith("cb onPostExecute(")][-1]
    rejects("validate noenable blocking", checks.check_validate(
        SPEC_NOENABLE, lines, {**invalid, "prefix_len": later, "blocking_message": lines[later]}))
    no_post = gen.create_unit(2) + gen.click_unit(1, False)
    accepts("validate noenable without completion", checks.check_validate(
        SPEC_NOENABLE, no_post, {"valid": True, "prefix_len": len(no_post),
                                 "total_len": len(no_post), "blocking_message": None}))


def test_recorded() -> None:
    n = 3
    events = [("click", 2), ("click", 1), ("post", 2), ("click", 3), ("post", 1), ("post", 3)]
    finished = gen.pairs_units(n, frozenset(), events)
    text = "".join(line + "\n" for unit in finished for line in unit)
    accepts("recorded finished", checks.check_recorded(n, frozenset(), "finished", text))
    rejects("recorded status", checks.check_recorded(n, frozenset(), "bad", text))
    rejects("recorded skip ignored", checks.check_recorded(n, frozenset({2}), "finished", text))
    rejects("recorded no create", checks.check_recorded(n, frozenset(), "finished",
                                                        text.split("\n", 1)[1]))
    early = gen.pairs_units(n, frozenset(), [("post", 1)] + events)
    rejects("recorded completion before click", checks.check_recorded(
        n, frozenset(), "finished", "".join(line + "\n" for u in early for line in u)))
    short = "".join(line + "\n" for unit in finished[:-1] for line in unit)
    rejects("recorded missing completion", checks.check_recorded(n, frozenset(), "finished",
                                                                 short))

    skip = frozenset({1})
    bad_units = gen.pairs_units(n, skip, events[:3])
    bad = "".join(line + "\n" for unit in bad_units for line in unit)
    bad += gen.click_open(1) + "\ndis " + gen.execute_call(1) + "\n"
    accepts("recorded bad", checks.check_recorded(n, skip, "bad", bad))
    rejects("recorded bad of a non-skipping pair", checks.check_recorded(
        n, frozenset({2}), "bad", bad))
    with_enable = "".join(line + "\n" for unit in gen.pairs_units(n, frozenset(), events[:3])
                          for line in unit)
    rejects("recorded setEnabled in a skipping pair", checks.check_recorded(
        n, skip, "bad", with_enable + gen.click_open(1) + "\ndis " + gen.execute_call(1) + "\n"))


def test_corpus() -> None:
    rng = random.Random(5)
    traces = {f"t{i}.trace": gen.pairs_trace(i + 1, frozenset(), rng)[0].splitlines()
              for i in range(4)}
    traces["t4.trace"] = gen.create_unit(1)
    for spec in (SPEC_RUN, SPEC_NOENABLE):
        expected = {name: checks.expected_validation(spec, lines)
                    for name, lines in traces.items()}
        results = [{"trace": f"corpus/{name}", "verdict": "valid" if v else "invalid",
                    "prefix_len": p} for name, (v, p, _) in expected.items()]
        n_valid = sum(v for v, _, _ in expected.values())
        histogram = {f">={b}": sum(p >= b for _, p, _ in expected.values())
                     for b in (1, 25, 50, 75)}
        report = {"results": results, "valid": n_valid, "prefix_histogram": histogram}
        code = 0 if n_valid == len(traces) else 1
        accepts(f"corpus {spec}", checks.check_corpus(spec, traces, code, report))
        rejects(f"corpus {spec} exit", checks.check_corpus(spec, traces, 2, report))
        shifted = {**histogram, ">=25": histogram[">=25"] + 1}
        rejects(f"corpus {spec} histogram", checks.check_corpus(
            spec, traces, code, {**report, "prefix_histogram": shifted}))
        flipped = [{**results[0], "verdict": "invalid" if results[0]["verdict"] == "valid"
                    else "valid"}] + results[1:]
        rejects(f"corpus {spec} verdict", checks.check_corpus(
            spec, traces, code, {**report, "results": flipped}))
        rejects(f"corpus {spec} missing trace", checks.check_corpus(
            spec, traces, code, {**report, "results": results[1:]}))


def test_unknown() -> None:
    """An Unknown, of verify or of one corpus trace, is told apart from
    a verdict: the run counts it as failed without calling it wrong."""
    corpus = {"exit": 0, "report": {"results": [{"trace": "a.trace", "verdict": "valid"},
                                                {"trace": "b.trace", "verdict": "invalid"}]}}
    timed_out = {"trace": "c.trace", "verdict": "unknown", "reason": "timeout"}
    got = (run.unknown_reason({"verdict": "safe"}),
           run.unknown_reason({"verdict": "unknown", "reason": "timeout"}),
           run.unknown_reason(corpus),
           run.unknown_reason({**corpus, "report": {"results": [
               *corpus["report"]["results"], timed_out]}}),
           run.unknown_reason({"runs": []}))
    if got != (None, "timeout", None, "timeout", None):
        failures.append(f"unknown_reason gives {got}")


def main() -> int:
    tests = [test_formulas, test_verify, test_validate, test_recorded, test_corpus,
             test_unknown]
    for test in tests:
        test()
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(tests)} check groups self-tested, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
