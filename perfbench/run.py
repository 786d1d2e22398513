"""Benchmark for lifeguard: predictive verify and wide validate, each with
a recorded corpus alongside, from seeded inputs.

    python3 perfbench/run.py --workload pairs-verify --seed 1 --seconds 55 --trace 0

Runs whole rounds of the workload's operations until --seconds have
passed, each operation in a fresh interpreter (see worker.py), checks
every output against checks.py, and prints one JSON line last:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
Times and rates are scaled to a reference machine speed (speed.py).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import checks
import gen
import speed
from checks import SPEC_NOENABLE, SPEC_RUN
from tracer import COUNTS, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPECS = {name: ROOT / "fixtures" / f"{name}.ls" for name in (SPEC_RUN, SPEC_NOENABLE)}

OP_TIMEOUT_S = 60  # lifeguard's own timeout parameters; today's slowest op takes ~7 s
WORKER_KILL_S = 100  # a worker still running by then is killed and counts as failed
SETUP_TRIALS = 3  # at the start, then SETUP_PER_ROUND before each round
SETUP_PER_ROUND = 2
RECORD_MAX_STEPS = 100_000
RECORD_SCHEDULES = 8  # recordings of each program in one record operation
RECORD_STAGES = 2  # record-and-corpus stages in every round

END_TO_END = {
    "setup_s": "s",
    "safe_verify_s": "s",
    "violation_verify_s": "s",
    "validate_s": "s",
    "corpus_traces_per_s": "traces/s",
    "record_msgs_per_s": "msgs/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Op:
    """One operation, run in its own worker; its sample feeds `metric`.
    Operations of one metric whose costs differ by construction (another
    spec, another size) carry different labels; see `label_medians`."""

    metric: str
    label: str
    job: dict
    check: Callable[[dict], list[str]]
    # The metric's sample from the output and the operation's time; by
    # default the time itself.
    sample: Callable[[dict, float], float] = lambda result, seconds: seconds
    after: Optional[Callable[[dict], None]] = None  # runs once the output is checked


class Inputs:
    """Writes a workload's generated inputs under one directory."""

    def __init__(self, work: Path, rng: random.Random) -> None:
        self.work = work
        self.rng = rng
        self.count = 0

    def write(self, sub: str, name: str, text: str) -> Path:
        path = self.work / sub / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return path

    def pairs(self, n: int, skips: int) -> tuple[Path, frozenset[int], list[list[str]]]:
        """An n-pair trace in a seeded order with `skips` skipping pairs.
        The first skipping pair is the one clicked (n//2 + 1)-th, so that
        the search work before a violation is found does not depend on the
        seed; any other skipping pair is one clicked later."""
        events = gen.interleaving(n, self.rng)
        clicks = [i for kind, i in events if kind == "click"]
        first = n // 2
        skip = frozenset(clicks[first:first + min(skips, 1)]
                         + self.rng.sample(clicks[first + 1:], max(skips - 1, 0)))
        units = gen.pairs_units(n, skip, events)
        self.count += 1
        path = self.write("traces", f"p{self.count:02}-n{n}.trace", gen.text(units))
        return path, skip, units

    def skip_set(self, n: int, k: int) -> frozenset[int]:
        return frozenset(self.rng.sample(range(1, n + 1), k))


def _job(op: str, **fields) -> dict:
    return {"op": op, "timeout": OP_TIMEOUT_S, **fields}


def verify_op(inputs: Inputs, n: int, skips: int) -> Op:
    path, skip, units = inputs.pairs(n, skips)

    def check(result: dict) -> list[str]:
        return (checks.check_verify(units, skip, result)
                + checks.check_ground(SPEC_RUN, n, skip, result))

    metric = "violation_verify_s" if skip else "safe_verify_s"
    return Op(metric, f"n{n}",
              _job("verify", spec=str(SPECS[SPEC_RUN]), trace_file=str(path)), check)


def validate_ops(inputs: Inputs, n: int) -> list[Op]:
    """One trace against both specs: valid under spec_run, invalid at the
    first onPostExecute under spec_run_noenable."""
    path, skip, units = inputs.pairs(n, 0)
    lines = [line for unit in units for line in unit]
    ops = []
    for spec in (SPEC_RUN, SPEC_NOENABLE):
        def check(result: dict, spec=spec) -> list[str]:
            return (checks.check_validate(spec, lines, result)
                    + checks.check_ground(spec, n, skip, result))
        ops.append(Op("validate_s", f"n{n} {spec}",
                      _job("validate", spec=str(SPECS[spec]), trace_file=str(path)), check))
    return ops


def record_and_corpus_ops(inputs: Inputs, sizes: range, schedules: int,
                          tag: str) -> list[Op]:
    """One operation records every program (one per size with every pair
    disabling its button, one with a random pair skipping it) under
    `schedules` seeded schedules and checks each recording's structure.
    The longest recording of every program then forms a corpus that is
    checked through the CLI against both specs.  `tag` keeps the files of
    several such stages in one round apart."""
    programs = []
    for n in sizes:
        for skip in (frozenset(), inputs.skip_set(n, 1)):
            name = f"n{n}" + "".join(f"-skip{k}" for k in sorted(skip))
            path = inputs.write(f"programs{tag}", f"{name}.ll", gen.pairs_program(n, skip))
            programs.append((n, skip, path))
    seeds = [[inputs.rng.randrange(2**31) for _ in range(schedules)] for _ in programs]
    corpus_dir = inputs.work / f"corpus{tag}"
    corpus: dict[str, list[str]] = {}

    def by_program(result: dict):
        runs = iter(result["runs"])
        for n, skip, path in programs:
            yield n, skip, path, [next(runs) for _ in range(schedules)]

    def check_runs(result: dict) -> list[str]:
        return [problem for n, skip, _, runs in by_program(result) for run in runs
                for problem in checks.check_recorded(n, skip, run["status"], run["text"])]

    def write_corpus(result: dict) -> None:
        corpus_dir.mkdir(parents=True, exist_ok=True)
        for _, _, path, runs in by_program(result):
            longest = max(runs, key=lambda run: len(run["text"].splitlines()))
            (corpus_dir / f"{path.stem}.trace").write_text(longest["text"], encoding="utf-8")
            corpus[f"{path.stem}.trace"] = longest["text"].splitlines()

    ops = [Op("record_msgs_per_s", "record",
              _job("record", max_steps=RECORD_MAX_STEPS,
                   programs=[{"file": str(path), "seeds": s}
                             for (_, _, path), s in zip(programs, seeds)]),
              check_runs,
              sample=lambda result, _seconds: (
                  sum(len(run["text"].splitlines()) for run in result["runs"])
                  / sum(run["seconds"] for run in result["runs"])),
              after=write_corpus)]
    for spec in (SPEC_RUN, SPEC_NOENABLE):
        ops.append(Op("corpus_traces_per_s", spec,
                      _job("corpus", spec=str(SPECS[spec]), dir=str(corpus_dir)),
                      lambda result, spec=spec: checks.check_corpus(
                          spec, corpus, result["exit"], result["report"]),
                      sample=lambda result, seconds: len(result["report"]["results"]) / seconds))
    return ops


def companion_ops(inputs: Inputs, own: set[str], copies: int) -> list[Op]:
    """Smaller operations, `copies` of each, for the metrics a workload
    does not measure itself, so that every workload reports every
    end-to-end metric; and the record-and-corpus stages."""
    ops = []
    for _ in range(copies):
        if "safe_verify_s" not in own:
            ops.append(verify_op(inputs, 5, 0))
        if "violation_verify_s" not in own:
            ops.append(verify_op(inputs, 6, 1))
        if "validate_s" not in own:
            ops += validate_ops(inputs, 6)
    for stage in range(RECORD_STAGES):
        ops += record_and_corpus_ops(inputs, range(1, 7), RECORD_SCHEDULES, str(stage))
    return ops


def plan_pairs_verify(inputs: Inputs) -> list[Op]:
    """Exhaustive verify: two Safe traces at n=7 (129 states today) and
    two Violation traces at n=8, one with one and one with two pairs
    skipping setEnabled."""
    return [verify_op(inputs, 7, 0), verify_op(inputs, 7, 0),
            verify_op(inputs, 8, 1), verify_op(inputs, 8, 2)]


def plan_wide_validate(inputs: Inputs) -> list[Op]:
    """One n=12 trace validated against both specs."""
    return validate_ops(inputs, 12)


# Each plan with the number of copies of its companion operations per
# round, chosen so that a run samples every metric about equally often.
WORKLOADS = {
    "pairs-verify": (plan_pairs_verify, 2),
    "wide-validate": (plan_wide_validate, 3),
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """The round's operations, taking one of each metric in turn so that
    every metric is sampled across the whole round.  A record operation
    comes before the corpus checks that read its recordings."""
    if work.exists():
        shutil.rmtree(work)
    inputs = Inputs(work, random.Random(seed))
    plan, copies = WORKLOADS[workload]
    ops = plan(inputs)
    ops += companion_ops(inputs, {op.metric for op in ops}, copies)
    by_metric: dict[str, list[Op]] = {}
    for op in ops:
        by_metric.setdefault(op.metric, []).append(op)
    groups = list(by_metric.values())
    return [group[i] for i in range(max(map(len, groups))) for group in groups if i < len(group)]


def run_worker(job: dict, trace: bool, kill_after: float = WORKER_KILL_S) -> dict:
    """Runs one job in a fresh interpreter and returns its reply; a crash,
    a non-zero exit or a kill becomes {"ok": False}."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps({**job, "src": str(SRC), "trace": trace}),
                              capture_output=True, text=True, timeout=kill_after, cwd=HERE)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"worker killed after {kill_after} s"}
    if proc.returncode != 0 or not proc.stdout.strip():
        return {"ok": False, "error": f"worker exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unknown_reason(result: dict) -> Optional[str]:
    """The reason of an Unknown verdict: verify's, or that of any trace of
    a corpus check (the CLI reports a trace whose --timeout expired as
    unknown).  None when lifeguard gave a verdict."""
    for r in [result, *result.get("report", {}).get("results", [])]:
        if r.get("verdict") == "unknown":
            return r.get("reason", "")
    return None


def is_rate(metric: str) -> bool:
    return END_TO_END[metric].endswith("/s")


def label_medians(by_label: dict[str, list[float]]) -> float:
    """The run's figure for a time or rate metric: the median of each
    label's samples, averaged over the labels."""
    return statistics.fmean(map(statistics.median, by_label.values()))


class Tally:
    def __init__(self, scaler: speed.Scaler) -> None:
        self.scaler = scaler
        self.attempted = 0
        self.failed = 0
        self.correct = True
        # metric -> label -> samples, as measured and scaled (speed.py)
        self.measured: dict[str, dict[str, list[float]]] = {name: {} for name in END_TO_END}
        self.samples: dict[str, dict[str, list[float]]] = {name: {} for name in END_TO_END}
        self.op_seconds = 0.0
        self.layers = {name: 0.0 for name in LAYERS}
        self.counts = {name: 0 for name in COUNTS}
        self.spans: list[dict] = []
        self.peak_rss_mb = 0.0
        self.peak_label = ""

    def run(self, op: Op, trace: bool, label: str) -> None:
        self.attempted += 1
        reply = run_worker(op.job, trace)
        scale = self.scaler.step()
        if not reply["ok"]:
            self.fail(label, reply["error"])
            return
        result = reply["result"]
        if reply["rss_mb"] > self.peak_rss_mb:
            self.peak_rss_mb, self.peak_label = reply["rss_mb"], label
        reason = unknown_reason(result)
        if reason is not None:
            self.fail(label, f"Unknown: {reason}")
            return
        try:
            problems = op.check(result)
        except Exception as e:  # an output of the wrong shape is a wrong answer
            problems = [f"malformed output: {e!r}"]
        if problems:
            self.correct = False
            self.fail(label, "; ".join(problems))
            return
        if op.after is not None:
            op.after(result)
        seconds = reply["seconds"]
        self.op_seconds += seconds * scale
        value = op.sample(result, seconds)
        self.measured[op.metric].setdefault(op.label, []).append(value)
        self.samples[op.metric].setdefault(op.label, []).append(
            value / scale if is_rate(op.metric) else value * scale)
        if trace:
            for name, value in reply["layers"].items():
                self.layers[name] += value * scale
            for name, value in reply["counts"].items():
                self.counts[name] += value
            self.spans += [{"op": label, **span} for span in reply["spans"]]

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        print(f"FAILED {label}: {why}", file=sys.stderr)


def setup(workload: str, seed: int, work: Path) -> tuple[list[Op], float]:
    """One set-up: generate the inputs and start a fresh interpreter that
    imports lifeguard, as every operation's worker does."""
    start = time.perf_counter()
    ops = build(workload, seed, work)
    reply = run_worker({"op": "import"}, False)
    if not reply["ok"]:
        raise SystemExit(f"lifeguard does not import: {reply['error']}")
    return ops, time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Terminating the run also kills its worker and removes its inputs.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (SRC / "lifeguard" / "__init__.py").is_file() or not all(
            p.is_file() for p in SPECS.values()):
        print(f"error: no lifeguard sources and fixtures under {ROOT}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scaler = speed.Scaler()
    setup_times: list[float] = []  # as measured; scaled alongside
    setup_scaled: list[float] = []

    def timed_setup() -> list[Op]:
        ops, seconds = setup(args.workload, args.seed, work)
        setup_times.append(seconds)
        setup_scaled.append(seconds * scaler.step())
        return ops

    try:
        # Set-up also runs before each round, so that its median samples
        # the whole run.
        for _ in range(SETUP_TRIALS):
            timed_setup()
        plain, traced = Tally(scaler), Tally(scaler)
        rounds = 0
        round_s = 0.0
        deadline = time.monotonic() + args.seconds
        # A round starts only if it should end less than half a round late.
        while rounds == 0 or time.monotonic() + round_s / 2 < deadline:
            round_start = time.monotonic()
            for _ in range(SETUP_PER_ROUND):
                ops = timed_setup()
            # With --trace 1 an untraced and a traced round alternate, so
            # the tracing overhead compares the same operations.
            for trace in ((False, True) if args.trace else (False,)):
                tally = traced if trace else plain
                for i, op in enumerate(ops):
                    tally.run(op, trace, f"round {rounds} op {i} ({op.job['op']}, {op.metric})")
            rounds += 1
            round_s = time.monotonic() - round_start
        if args.trace:
            write_spans(args, traced.spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"speed factors (speed.py) {statistics.quantiles(scaler.factors, n=4)}",
          file=sys.stderr)
    if args.trace:
        metrics = {f"{name}_s": {"value": traced.layers[name] / rounds, "unit": "s/round"}
                   for name in LAYERS}
        metrics.update({name: {"value": traced.counts[name] / rounds, "unit": "count/round"}
                        for name in COUNTS})
        overhead = 100 * (traced.op_seconds / plain.op_seconds - 1) if plain.op_seconds else None
        metrics["tracing.overhead_pct"] = {"value": overhead, "unit": "%"}
    else:
        measured = {name: label_medians(by_label)
                    for name, by_label in plain.measured.items() if by_label}
        measured["setup_s"] = statistics.median(setup_times)
        print(f"as measured, before scaling: {json.dumps(measured)}", file=sys.stderr)
        values = {name: label_medians(by_label)
                  for name, by_label in plain.samples.items() if by_label}
        values["setup_s"] = statistics.median(setup_scaled)
        values["peak_rss_mb"] = plain.peak_rss_mb
        print(f"peak_rss_mb {plain.peak_rss_mb:.2f} set by {plain.peak_label}", file=sys.stderr)
        metrics = {name: {"value": values.get(name), "unit": unit}
                   for name, unit in END_TO_END.items()}
    failed = plain.failed + traced.failed
    print(json.dumps({"correct": plain.correct and traced.correct,
                      "attempted": plain.attempted + traced.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def write_spans(args, spans: list[dict]) -> None:
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(spans), encoding="utf-8")
    print(f"{len(spans)} spans written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
