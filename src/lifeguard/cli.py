"""Command-line entry point.

Subcommands: run (execute a program under a schedule and record its trace),
validate (check a spec against recorded traces, single or corpus), verify
(predictive-trace verification), ground (dump the ground spec), explain
(per-step store diagnostics for a trace).

Exit codes: 0 = valid / Safe / finished, 1 = invalid / Violation / bad,
2 = Unknown, usage error, or internal error.  JSON reports carry a stable
``schema: 1`` field.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .abstract import AbstractEngine
from .grounding import (DEFAULT_INSTANTIATION_CAP, GroundingCapError, GroundingError,
                        compile_spec, ground_spec)
from .messages import TraceError, format_message, load_trace, read_source, serialize_trace
from .rules import ARROWS, SpecError, load_spec
from .validation import (NOT_PERMITTED, PROHIBITED, ValidationTimeout, trace_mask, validate,
                         walk)
from .verification import (DEFAULT_STATE_CAP, Safe, SubTraceError, Unknown, Violation,
                           parse_mode, verify)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2

# Histogram buckets for corpus validation reports: cumulative counts of
# traces validating at least this many steps.
PREFIX_BUCKETS = (1, 25, 50, 75)


def _emit(report: dict, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "json":
        report = {"schema": SCHEMA_VERSION, **report}
        print(json.dumps(report, indent=2, sort_keys=True), file=out)
    else:
        for line in report.get("lines", []):
            print(line, file=out)


# ---------------------------------------------------------------------------
# run


def _cmd_run(args) -> int:
    from . import interp

    try:
        program = interp.load_program(args.program)
        if not interp.uses_framework_init(program):
            print("error: program's main expression must begin by invoking a "
                  "framework (fwk) init function", file=sys.stderr)
            return EXIT_UNKNOWN
        if args.schedule is not None:
            text = args.schedule
            if text.startswith("@"):
                text = read_source(text[1:], interp.ScheduleError)
            schedule = interp.parse_schedule(text)
        else:
            schedule = interp.Schedule(seed=args.seed)
        result = interp.run(program, schedule, max_steps=args.max_steps)
    except (interp.ProgramError, interp.ScheduleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    text = serialize_trace(result.trace)
    if args.trace_out:
        Path(args.trace_out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    reason = f": {result.reason}" if result.reason else ""
    print(f"status: {result.status} ({result.steps} steps, "
          f"{len(result.trace.messages)} messages){reason}", file=sys.stderr)
    if result.status == interp.FINISHED:
        return EXIT_OK
    if result.status == interp.BAD_STATUS:
        return EXIT_FAIL
    return EXIT_UNKNOWN


# ---------------------------------------------------------------------------
# validate


def _validation_report_dict(path, report) -> dict:
    d = {
        "command": "validate",
        "trace": str(path),
        "verdict": "valid" if report.valid else "invalid",
        "prefix_len": report.prefix_len,
        "prefix_len_filtered": report.prefix_len_filtered,
        "total_len": report.total_len,
    }
    if not report.valid:
        d["blocking_message"] = format_message(report.blocking_message)
        d["reason"] = report.reason
        d["last_firing_rules"] = [i + 1 for i in report.last_firing_rules]
        d["blocking_permitted"] = sorted(format_message(m) for m in report.blocking_permitted)
        d["blocking_prohibited"] = sorted(format_message(m) for m in report.blocking_prohibited)
    if report.inconsistency_steps:
        d["inconsistent_steps"] = list(report.inconsistency_steps)
    return d


def _validate_one(spec, path, timeout):
    try:
        trace = load_trace(path)
        report = validate(spec, trace, timeout=timeout)
        return _validation_report_dict(path, report)
    except (ValidationTimeout, GroundingCapError) as e:
        return {"command": "validate", "trace": str(path), "verdict": "unknown",
                "reason": str(e)}
    except (TraceError, GroundingError, OSError) as e:
        return {"command": "validate", "trace": str(path), "verdict": "error",
                "reason": str(e)}


def _cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    if args.corpus:
        paths = sorted(Path(args.corpus).glob("*.trace"))
        if not paths:
            print(f"error: no *.trace files under {args.corpus}", file=sys.stderr)
            return EXIT_UNKNOWN
        results = [_validate_one(spec, p, args.timeout) for p in paths]
        histogram = {f">={b}": 0 for b in PREFIX_BUCKETS}
        n_valid = 0
        lines = []
        for r in results:
            if r["verdict"] == "valid":
                n_valid += 1
            steps = r.get("prefix_len", 0)
            for b in PREFIX_BUCKETS:
                if steps >= b:
                    histogram[f">={b}"] += 1
            extra = "" if r["verdict"] == "valid" else f" [{r.get('reason', '')}]"
            lines.append(f"{r['trace']}: {r['verdict']} "
                         f"(prefix {r.get('prefix_len', '?')}/{r.get('total_len', '?')}){extra}")
        lines.append(f"valid: {n_valid}/{len(results)}")
        lines.append("cumulative validated-prefix histogram:")
        for b in PREFIX_BUCKETS:
            lines.append(f"  >= {b:>3} steps: {histogram[f'>={b}']}")
        report = {"command": "validate", "corpus": str(args.corpus),
                  "results": results, "valid": n_valid, "total": len(results),
                  "prefix_histogram": histogram, "lines": lines}
        _emit(report, args.report)
        return EXIT_OK if n_valid == len(results) else EXIT_FAIL
    try:
        trace = load_trace(args.trace)
        report = validate(spec, trace, timeout=args.timeout)
    except (ValidationTimeout, GroundingCapError) as e:
        _emit({"command": "validate", "trace": args.trace, "verdict": "unknown",
               "reason": str(e), "lines": [f"unknown: {e}"]}, args.report)
        return EXIT_UNKNOWN
    d = _validation_report_dict(args.trace, report)
    if report.valid:
        d["lines"] = [f"valid ({report.prefix_len}/{report.total_len} messages; "
                      f"{report.prefix_len_filtered} spec-relevant)"]
    else:
        d["lines"] = [
            f"invalid at message {report.prefix_len + 1}: "
            f"{format_message(report.blocking_message)}",
            f"reason: {report.reason}",
            f"validated prefix: {report.prefix_len}/{report.total_len} messages "
            f"({report.prefix_len_filtered} spec-relevant)",
            f"last rules touching this message: "
            f"{[i + 1 for i in report.last_firing_rules] or 'none'}",
        ]
    _emit(d, args.report)
    return EXIT_OK if report.valid else EXIT_FAIL


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args) -> int:
    spec = load_spec(args.spec)
    trace = load_trace(args.trace)
    try:
        result = verify(spec, trace, mode=args.mode, state_cap=args.state_cap,
                        timeout=args.timeout)
    except GroundingCapError as e:
        result = Unknown(bound_hit=False, reason=str(e))
    lines = []
    if isinstance(result, Safe):
        verdict = "safe"
        lines.append(f"Safe: no rearrangement reaches a protocol violation "
                     f"({result.states_explored} states explored, "
                     f"certificate size {result.certificate_size})")
        if result.unreachable_units:
            lines.append(f"units never openable: "
                         f"{[i + 1 for i in result.unreachable_units]}")
        code = EXIT_OK
    elif isinstance(result, Violation):
        verdict = "violation"
        lines.append(f"Violation: witness of {len(result.witness.messages)} messages, "
                     f"unit sequence {[i + 1 for i in result.subtrace_sequence]}")
        lines.append(f"witness ends with: {format_message(result.witness.messages[-1])}")
        code = EXIT_FAIL
    else:
        verdict = "unknown"
        lines.append(f"Unknown: {result.reason}")
        code = EXIT_UNKNOWN
    if args.witness_out and isinstance(result, Violation):
        Path(args.witness_out).write_text(serialize_trace(result.witness), encoding="utf-8")
        lines.append(f"witness written to {args.witness_out}")
    if args.stats:
        lines.append(f"states explored: {result.states_explored}")
        lines.append(f"unit replays: {result.replays}")
    report = {"command": "verify", "trace": args.trace, "spec": args.spec,
              "verdict": verdict, "states_explored": result.states_explored,
              "unit_replays": result.replays, "lines": lines}
    if isinstance(result, Violation):
        report["subtrace_sequence"] = [i + 1 for i in result.subtrace_sequence]
        report["witness"] = [format_message(m) for m in result.witness.messages]
    if isinstance(result, Safe):
        report["certificate_size"] = result.certificate_size
        report["unreachable_units"] = [i + 1 for i in result.unreachable_units]
    if isinstance(result, Unknown):
        report["depth_reached"] = result.depth_reached
        report["frontier"] = result.frontier
        report["reason"] = result.reason
    _emit(report, args.report)
    return code


# ---------------------------------------------------------------------------
# ground


def _cmd_ground(args) -> int:
    spec = load_spec(args.spec)
    trace = load_trace(args.trace)
    ground = ground_spec(spec, trace, cap=args.grounding_cap)
    sliced = ground_spec(spec, trace, cap=args.grounding_cap, sliced=True)
    lines = []
    for gr in ground.rules:
        lines.append(f"{gr.matcher} {ARROWS[gr.polarity]} {format_message(gr.target)}")
    lines.append("")
    lines.append(f"alphabet: {len(ground.alphabet)} messages (+1 OTHER class)")
    lines.append(f"{'rule':>5} {'instances':>10} {'sliced':>7} {'dfa states (per instance)':>28}")
    per_rule_states: dict[int, list[int]] = {}
    for compiled in compile_spec(ground):
        per_rule_states.setdefault(compiled.source_index, []).append(compiled.dfa.n_states)
    for idx, (count, kept) in enumerate(zip(ground.instance_counts, sliced.instance_counts)):
        sizes = per_rule_states.get(idx, [])
        lines.append(f"{idx + 1:>5} {count:>10} {kept:>7} {','.join(map(str, sizes)) or '-':>28}")
    lines.append(f"sliced: {len(sliced.rules)} of {len(ground.rules)} instances, "
                 f"{len(sliced.alphabet)} of {len(ground.alphabet)} messages")
    report = {"command": "ground", "rules": len(ground.rules),
              "alphabet": [format_message(m) for m in ground.alphabet],
              "instance_counts": list(ground.instance_counts),
              "sliced_instance_counts": list(sliced.instance_counts), "lines": lines}
    _emit(report, args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# explain


_FAILURE_LABELS = {NOT_PERMITTED: "BLOCKED (not permitted)",
                   PROHIBITED: "BAD (prohibited in-message)"}
_INCONSISTENT = "  (WARNING: permit/prohibit inconsistency)"


def _cmd_explain(args) -> int:
    spec = load_spec(args.spec)
    trace = load_trace(args.trace)
    engine = AbstractEngine(ground_spec(spec, trace, sliced=True))
    letters = engine.intern(trace.messages)
    shown = trace_mask(letters)
    state = engine.initial_state()
    print(f"initial: permitted-back {(state.permitted & shown).bit_count()}, "
          f"prohibited-in {(state.prohibited & shown).bit_count()}"
          f"{_INCONSISTENT if state.inconsistent else ''}")
    for index, _, reason, before, after in walk(engine, state, trace.messages, letters):
        m = trace.messages[index]
        head = f"{index + 1:>4} {format_message(m):<60}"
        if m.is_dis():
            print(f"{head} dis ({'predicted' if reason is None else 'MISSED by the spec'})")
            return EXIT_OK if reason is None else EXIT_FAIL
        if reason is not None:
            print(f"{head} {_FAILURE_LABELS[reason]}")
            for name, mask in (("permitted-back", before.permitted),
                               ("prohibited-in", before.prohibited)):
                print(f"  {name}:")
                for stored in engine.decode(mask & shown):
                    print(f"    {format_message(stored)}")
            return EXIT_FAIL
        fired_text = ", ".join(
            f"#{f.source_index + 1}{ARROWS[f.polarity]}"
            f"{format_message(f.target)}"
            for f in engine.fired_rules(after) if f.target_bit & shown
        )
        # Decoded in alphabet order, which is message sort order.
        delta = " ".join(
            f"{sign}{name}:{format_message(changed)}"
            for name, b, a in (("perm", before.permitted, after.permitted),
                               ("proh", before.prohibited, after.prohibited))
            for sign, mask in (("+", a & ~b), ("-", b & ~a))
            for changed in engine.decode(mask & shown)
        )
        line = f"{head} ok"
        if fired_text:
            line += f"  fires [{fired_text}]"
        if delta:
            line += f"  {delta}"
        if after.inconsistent:
            line += _INCONSISTENT
        print(line)
    print("trace validated to the end")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lifeguard",
        description="Validation and predictive verification of event-driven "
                    "app-framework protocol traces",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute a program and record its trace")
    p_run.add_argument("--program", required=True)
    group = p_run.add_mutually_exclusive_group(required=True)
    group.add_argument("--schedule", help="comma-separated event indices, or @file")
    group.add_argument("--seed", type=int, help="pseudorandom schedule seed")
    p_run.add_argument("--max-steps", type=int, default=10000)
    p_run.add_argument("--trace-out")

    p_val = sub.add_parser("validate", help="check a spec against recorded traces")
    p_val.add_argument("--spec", required=True)
    p_val.add_argument("--trace")
    p_val.add_argument("--corpus", help="directory of *.trace files")
    p_val.add_argument("--timeout", type=float, help="seconds per trace")
    p_val.add_argument("--report", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", help="predictive-trace verification")
    p_ver.add_argument("--spec", required=True)
    p_ver.add_argument("--trace", required=True)
    p_ver.add_argument("--mode", default="exhaustive",
                       help="exhaustive or bounded:K")
    p_ver.add_argument("--witness-out")
    p_ver.add_argument("--stats", action="store_true")
    p_ver.add_argument("--timeout", type=float)
    p_ver.add_argument("--state-cap", type=int, dest="state_cap", default=DEFAULT_STATE_CAP)
    p_ver.add_argument("--report", choices=("text", "json"), default="text")

    p_gnd = sub.add_parser("ground", help="dump the ground spec for a trace")
    p_gnd.add_argument("--spec", required=True)
    p_gnd.add_argument("--trace", required=True)
    p_gnd.add_argument("--grounding-cap", type=int, default=DEFAULT_INSTANTIATION_CAP)
    p_gnd.add_argument("--report", choices=("text", "json"), default="text")

    p_exp = sub.add_parser("explain", help="per-step store diagnostics")
    p_exp.add_argument("--spec", required=True)
    p_exp.add_argument("--trace", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Written with "not >=" so that nan is rejected too.
    if getattr(args, "timeout", None) is not None and not args.timeout >= 1:
        parser.error("--timeout must be at least 1 second")
    if getattr(args, "state_cap", 1) < 1:
        parser.error("--state-cap must be at least 1")
    # Checked before any file is read, and reported as one line like a bad file.
    try:
        if args.subcommand == "verify":
            parse_mode(args.mode)
        elif args.subcommand == "run" and args.max_steps < 1:
            raise ValueError(f"--max-steps must be at least 1, got {args.max_steps}")
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    try:
        if args.subcommand == "run":
            return _cmd_run(args)
        if args.subcommand == "validate":
            if bool(args.trace) == bool(args.corpus):
                parser.error("validate needs exactly one of --trace / --corpus")
            return _cmd_validate(args)
        if args.subcommand == "verify":
            return _cmd_verify(args)
        if args.subcommand == "ground":
            return _cmd_ground(args)
        if args.subcommand == "explain":
            return _cmd_explain(args)
        parser.error(f"unknown subcommand {args.subcommand}")
    except (TraceError, SpecError, SubTraceError, GroundingError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNKNOWN
    return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
