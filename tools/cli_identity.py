"""Record what a fixed set of lifeguard CLI commands print, or compare two
such records.

    python tools/cli_identity.py record ROOT OUT.json
    python tools/cli_identity.py compare A.json B.json

record runs every command in a fresh interpreter with ROOT/src first on
PYTHONPATH and keeps its stdout, stderr and exit code.  The commands run in
a scratch directory that holds the fixtures and generated pair traces under
relative names, so the records of two checkouts compare byte for byte.
The inputs are built by this checkout's tests/pairs.py, whichever ROOT is
recorded.  compare prints each command whose output or exit code differs
and exits 1 if any does.

The set: ground (text and json), validate (text and json), verify (text,
json, --stats, --mode bounded:2 --report json, and --mode bounded:64
--stats, which pins exact BFS state counts) and explain for every
fixtures/*.ls spec against both fixture traces and the n = 4 and n = 8
pair traces with no and with one skipping pair; validate --corpus (text
and json) per spec over all those traces, and over a second corpus that
holds the malformed trace below, the over-cap trace, the n = 8 pair trace
named to sort before an n = 4 one, and both fixture traces, so that one
spec object meets a failing trace, a large trace before a small one, and
every kind of row; validate and verify (text and
json) of a spec whose grounding exceeds the instantiation cap; ground
(text and json) under spec_run.ls of the n = 300 pair trace, whose full
grounding exceeds that cap and whose sliced one does not; ground,
validate, verify and explain under every spec of trace_fixed.trace
rewritten with comments, blank lines, tabs and CRLF line ends, and the
four under spec_run.ls of a copy with one malformed line; and run of
both fixture programs and of a program that gets stuck, under each fixture
schedule and seeds 1-3, with the default step budget and with budgets that
cut the run short (1 and 40 steps) or land near its end (150 steps); and
run --seed 1 of each program in tests/programs.py, which gets stuck or
does not parse."""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "tests")]

from lifeguard.messages import serialize_trace  # noqa: E402
from pairs import CAP_SPEC, init_trace, pair_trace  # noqa: E402
from programs import BROKEN, STUCK  # noqa: E402

RUN_BUDGETS = (1, 40, 150)

STUCK_PROGRAM = """\
let a = a#1:Activity in
let cb = (a =>[app] unit) in
let boot = (a =>[fwk] (disallow (bind cb a); invoke (bind cb a))) in
invoke (bind boot a)
"""


def _noisy(text: str) -> str:
    """The trace text with a comment header, blank and whitespace-only
    lines, tabs around each line's parts, a trailing comment on every
    other line and CRLF line ends."""
    out = ["# trace_fixed.trace, rewritten", "", " \t "]
    for i, line in enumerate(text.splitlines()):
        line = "\t" + line.replace(" ", " \t").replace("(", "\t(\t").replace(",", "\t, ")
        out.append(line + (f"  # message {i + 1}" if i % 2 else "\t"))
    return "\r\n".join(out + ["# end", ""])


def _inputs(work: pathlib.Path) -> tuple[list[str], ...]:
    """Copy the fixtures into work, write the pair traces, the stuck
    programs, the programs that do not parse, the over-cap spec and trace,
    the n = 300 pair trace and the rewritten and malformed fixture traces,
    and return the spec, trace, program, schedule and failing program
    names."""
    fixtures = REPO / "fixtures"
    for path in fixtures.iterdir():
        shutil.copy(path, work / path.name)
    corpus = work / "corpus"
    corpus.mkdir()
    traces = ["trace_fixed.trace", "trace_buggy.trace"]
    for n in (4, 8):
        for skip in (frozenset(), frozenset({2})):
            name = f"pairs{n}{'_skip2' if skip else ''}.trace"
            (work / name).write_text(serialize_trace(pair_trace(n, skip)), encoding="utf-8")
            traces.append(name)
    for name in traces:
        shutil.copy(work / name, corpus / name)
    (work / "program_stuck.ll").write_text(STUCK_PROGRAM, encoding="utf-8")
    failing = []
    for name, (text, _) in {**STUCK, **BROKEN}.items():
        failing.append(f"{name}.ll")
        (work / failing[-1]).write_text(text, encoding="utf-8")
    (work / "cap.ls").write_text(CAP_SPEC, encoding="utf-8")
    (work / "cap.trace").write_text(serialize_trace(init_trace(60)), encoding="utf-8")
    (work / "pairs300.trace").write_text(serialize_trace(pair_trace(300)), encoding="utf-8")
    noisy = _noisy((fixtures / "trace_fixed.trace").read_text(encoding="utf-8"))
    (work / "noisy.trace").write_bytes(noisy.encode("utf-8"))
    # A comment must follow whitespace, so message 10 no longer parses.
    malformed = noisy.replace(")  # message 10", ")# message 10")
    assert malformed != noisy
    (work / "malformed.trace").write_bytes(malformed.encode("utf-8"))
    mixed = work / "corpus2"
    mixed.mkdir()
    for name in ("malformed.trace", "cap.trace", "trace_fixed.trace", "trace_buggy.trace"):
        shutil.copy(work / name, mixed / name)
    shutil.copy(work / "pairs8.trace", mixed / "a_pairs8.trace")
    shutil.copy(work / "pairs4.trace", mixed / "b_pairs4.trace")
    specs = sorted(p.name for p in fixtures.glob("*.ls"))
    programs = sorted(p.name for p in fixtures.glob("*.ll")) + ["program_stuck.ll"]
    schedules = sorted(p.name for p in fixtures.glob("*.sched"))
    return specs, traces, programs, schedules, failing


def commands(specs, traces, programs, schedules, failing) -> list[list[str]]:
    out = []
    for spec in specs:
        for trace in traces:
            st = ["--spec", spec, "--trace", trace]
            out += [["ground", *st], ["ground", *st, "--report", "json"],
                    ["validate", *st], ["validate", *st, "--report", "json"],
                    ["verify", *st], ["verify", *st, "--report", "json"],
                    ["verify", *st, "--stats"],
                    ["verify", *st, "--mode", "bounded:2", "--report", "json"],
                    ["verify", *st, "--mode", "bounded:64", "--stats"],
                    ["explain", *st]]
        out += [["validate", "--spec", spec, "--corpus", corpus, *report]
                for corpus in ("corpus", "corpus2") for report in ([], ["--report", "json"])]
    for spec in specs:
        out += [[command, "--spec", spec, "--trace", "noisy.trace"]
                for command in ("ground", "validate", "verify", "explain")]
    out += [[command, "--spec", "spec_run.ls", "--trace", "malformed.trace"]
            for command in ("ground", "validate", "verify", "explain")]
    cap = ["--spec", "cap.ls", "--trace", "cap.trace"]
    out += [[command, *cap, *report] for command in ("validate", "verify")
            for report in ([], ["--report", "json"])]
    out += [["ground", "--spec", "spec_run.ls", "--trace", "pairs300.trace", *report]
            for report in ([], ["--report", "json"])]
    for program in programs:
        for how in [["--schedule", "@" + s] for s in schedules] + \
                   [["--seed", str(seed)] for seed in (1, 2, 3)]:
            out += [["run", "--program", program, *how, *budget]
                    for budget in ([], *(["--max-steps", str(k)] for k in RUN_BUDGETS))]
    out += [["run", "--program", program, "--seed", "1"] for program in failing]
    return out


def record(root: pathlib.Path, out_path: pathlib.Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(root.resolve() / "src"), PYTHONHASHSEED="0")
    with tempfile.TemporaryDirectory() as tmp:
        work = pathlib.Path(tmp)
        results = []
        for argv in commands(*_inputs(work)):
            proc = subprocess.run([sys.executable, "-m", "lifeguard.cli", *argv], cwd=work,
                                  env=env, capture_output=True, text=True)
            results.append({"argv": argv, "code": proc.returncode,
                            "stdout": proc.stdout, "stderr": proc.stderr})
    out_path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"{len(results)} commands recorded to {out_path}")


def compare(a_path: pathlib.Path, b_path: pathlib.Path) -> int:
    a = json.loads(a_path.read_text(encoding="utf-8"))
    b = json.loads(b_path.read_text(encoding="utf-8"))
    if [r["argv"] for r in a] != [r["argv"] for r in b]:
        print("the records hold different command sets")
        return 1
    differ = [(x, y) for x, y in zip(a, b) if x != y]
    for x, y in differ:
        print(" ".join(x["argv"]))
        for key in ("code", "stdout", "stderr"):
            if x[key] != y[key]:
                print(f"  {key}: {x[key]!r}\n     → {y[key]!r}")
    print(f"{len(a)} commands, {len(differ)} differ")
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "record":
        record(pathlib.Path(argv[1]), pathlib.Path(argv[2]))
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        return compare(pathlib.Path(argv[1]), pathlib.Path(argv[2]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
