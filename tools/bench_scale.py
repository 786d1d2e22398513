"""Time each phase of validate on n-pair traces of growing size, or compare
two such records.

    python tools/bench_scale.py [--out BENCH_scale.json] [--repeat K]
    python tools/bench_scale.py --compare OLD.json [NEW.json]

One row per spec and size, on the pair traces of tests/pairs.py (every
click, then every completion): fixtures/spec_run.ls at n = 8 ... 512,
spec_run_until.ls at n = 8 ... 128 and spec_run_redundant.ls at
n = 8 ... 256, doubling n.  Each of K repetitions parses the spec and the
trace's text afresh, grounds the spec sliced, builds the engine and folds
the whole trace, as one validate does in a fresh process; a row keeps the
best time of each phase and the instance and alphabet counts.  A
repetition whose grounding or engine build passes BUDGET_S, or whose
grounding exceeds the instantiation cap, stops its row, which is recorded
as skipped with the reason.  Two more spec_run.ls rows, at n = 2,048 and
8,192, are measured first, each as one repetition in a fresh child
process: they also record the process's peak RSS (ru_maxrss) after
grounding and after the engine build.  They run while this process is
still small, since a child's ru_maxrss starts from its parent's at the
moment it is started.  Then one row per size of the interpreter:
interp.run of perfbench/gen.py's pairs_program at n = 8, 32 and 128 (no
pair skipping) under seed RUN_SEED, K times; a row keeps the steps, the
messages recorded, the best run_s and the microseconds per step.
Everything else runs in this process, with the standard library only.

The record also names the commit, the SHA-256 of `git diff COMMIT -- src
tests fixtures tools` when the measured code differs from it (else null),
the Python version and the core count.  --compare prints, per row, each
phase's time and peak RSS (or run_s) in NEW over its value in OLD."""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import pathlib
import platform
import resource
import subprocess
import sys
import time

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from lifeguard.abstract import AbstractEngine  # noqa: E402
from lifeguard.dfa import LimitExceeded, deadline_after  # noqa: E402
from lifeguard.grounding import ground_spec  # noqa: E402
from lifeguard.interp import Schedule, parse_program, run  # noqa: E402
from lifeguard.messages import parse_trace, serialize_trace  # noqa: E402
from lifeguard.rules import parse_spec  # noqa: E402
from pairs import pair_trace  # noqa: E402
from programs import load_gen  # noqa: E402

SIZES = {
    "spec_run.ls": (8, 16, 32, 64, 128, 256, 512),
    "spec_run_until.ls": (8, 16, 32, 64, 128),
    "spec_run_redundant.ls": (8, 16, 32, 64, 128, 256),
}
PHASES = ("parse_s", "ground_s", "engine_s", "fold_s")
FRESH_SIZES = {"spec_run.ls": (2048, 8192)}
RSS = ("rss_ground_mb", "rss_engine_mb")
BUDGET_S = 20.0  # for one repetition's grounding and engine build
RUN_SIZES = (8, 32, 128)
RUN_SEED = 1
RUN_MAX_STEPS = 10 ** 6  # n = 128 takes about 147,000 steps


def measure(spec_text: str, trace_text: str) -> dict:
    """One validate pipeline's phase times, counts and the peak RSS after
    grounding and after the engine build; raises LimitExceeded past the
    budget or the cap."""
    start = time.perf_counter()
    spec, trace = parse_spec(spec_text), parse_trace(trace_text)
    parsed = time.perf_counter()
    deadline = deadline_after(BUDGET_S)
    ground = ground_spec(spec, trace, sliced=True, deadline=deadline)
    grounded = time.perf_counter()
    rss_ground = peak_rss_mb()
    engine = AbstractEngine(ground, deadline)
    built = time.perf_counter()
    rss_engine = peak_rss_mb()
    for _ in engine.fold(engine.initial_state(), engine.intern(trace.messages)):
        pass
    folded = time.perf_counter()
    return {"parse_s": parsed - start, "ground_s": grounded - parsed, "engine_s": built - grounded,
            "fold_s": folded - built, "instances": len(ground.rules),
            "alphabet": len(ground.alphabet), "rss_ground_mb": rss_ground,
            "rss_engine_mb": rss_engine}


def peak_rss_mb() -> float:
    """This process's peak resident set size so far (ru_maxrss is in KiB
    on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def row(spec_name: str, n: int, repeat: int, keep: tuple[str, ...] = ()) -> dict:
    spec_text = (REPO / "fixtures" / spec_name).read_text(encoding="utf-8")
    trace_text = serialize_trace(pair_trace(n))
    out: dict = {"spec": spec_name, "n": n, "messages": trace_text.count("\n")}
    runs = []
    for _ in range(repeat):
        gc.collect()  # so that no repetition pays for the garbage of the one before
        try:
            runs.append(measure(spec_text, trace_text))
        except LimitExceeded as e:
            return {**out, "skipped": str(e)}
    out.update({phase: min(run[phase] for run in runs) for phase in PHASES})
    out.update({key: runs[0][key] for key in ("instances", "alphabet") + keep})
    return out


def fresh_row(spec_name: str, n: int) -> dict:
    """One repetition of row, with its peak RSS, in a new interpreter."""
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(row, (spec_name, n, 1, RSS))


def run_row(n: int, repeat: int) -> dict:
    # The parser descends once per nested let and if, and from n = 124 on
    # the program nests them past Python's default limit of 1,000 calls,
    # where parse_program raises ProgramError.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        program = parse_program(load_gen().pairs_program(n, frozenset()))
    finally:
        sys.setrecursionlimit(limit)
    times = []
    for _ in range(repeat):
        gc.collect()
        start = time.perf_counter()
        result = run(program, Schedule(seed=RUN_SEED), max_steps=RUN_MAX_STEPS)
        times.append(time.perf_counter() - start)
    best = min(times)
    return {"program": "pairs_program", "n": n, "seed": RUN_SEED, "status": result.status,
            "steps": result.steps, "messages": len(result.trace.messages), "run_s": best,
            "us_per_step": best / result.steps * 1e6}


def commit() -> dict:
    def git(*args: str) -> bytes:
        try:
            return subprocess.run(["git", *args], cwd=REPO, capture_output=True,
                                  check=True).stdout
        except (OSError, subprocess.CalledProcessError):
            return b""
    head = git("rev-parse", "HEAD").decode().strip() or "unknown"
    diff = git("diff", head, "--", "src", "tests", "fixtures", "tools") if head != "unknown" else b""
    return {"commit": head, "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None}


def record(out: pathlib.Path, repeat: int) -> None:
    fresh = []
    for spec_name, sizes in FRESH_SIZES.items():
        for n in sizes:
            fresh.append(fresh_row(spec_name, n))
            print(json.dumps(fresh[-1]), flush=True)
    rows = []
    for spec_name, sizes in SIZES.items():
        for n in sizes:
            rows.append(row(spec_name, n, repeat))
            print(json.dumps(rows[-1]), flush=True)
    rows += fresh
    for n in RUN_SIZES:
        rows.append(run_row(n, repeat))
        print(json.dumps(rows[-1]), flush=True)
    doc = {**commit(), "python": platform.python_version(), "cores": os.cpu_count(),
           "repeat": repeat, "budget_s": BUDGET_S, "rows": rows}
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def compare(old_path: pathlib.Path, new_path: pathlib.Path) -> None:
    old, new = (json.loads(p.read_text(encoding="utf-8")) for p in (old_path, new_path))
    before = {(r.get("spec") or r["program"], r["n"]): r for r in old["rows"]}
    for kind, phases in (("spec", PHASES + RSS), ("program", ("run_s",))):
        rows = [r for r in new["rows"] if kind in r]
        if not rows:
            continue
        names = [p.rsplit("_", 1)[0] for p in phases]
        print(f"{kind:<22} {'n':>4}  " + "  ".join(f"{name:>7}" for name in names)
              + "   (new / old)")
        for r in rows:
            o = before.get((r[kind], r["n"]))
            if "skipped" in r or o is None or "skipped" in o:
                cells = ["skipped" if "skipped" in r else "no old row" if o is None
                         else "skipped in old"]
            else:
                cells = [f"{r[p] / o[p]:{max(7, len(name))}.2f}"
                         for p, name in zip(phases, names) if p in r and p in o]
            print(f"{r[kind]:<22} {r['n']:>4}  " + "  ".join(cells))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=pathlib.Path, default=REPO / "BENCH_scale.json")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--compare", nargs="+", type=pathlib.Path, metavar="JSON",
                        help="OLD.json [NEW.json, by default --out]")
    args = parser.parse_args()
    if args.compare:
        compare(args.compare[0], args.compare[1] if len(args.compare) > 1 else args.out)
    else:
        record(args.out, args.repeat)


if __name__ == "__main__":
    main()
