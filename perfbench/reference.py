"""Reference figures: the ROADMAP baseline table, re-measured.

    python3 perfbench/reference.py

The trace is the n-pair family in its plain order (onCreate, the n clicks,
the n completions) under fixtures/spec_run.ls.  Every figure comes from
its own fresh interpreter: compile is the grounding.compile self time of
a traced validate, validate and verify are text-to-verdict times.  verify
gets lifeguard's timeout of 120 s, so n=16 ends Unknown today.  Takes
about three minutes with n=16.
"""

from __future__ import annotations

import sys
from pathlib import Path

import gen
from checks import SPEC_RUN
from run import ROOT, SPECS, run_worker

VERIFY_TIMEOUT_S = 120
SIZES = (4, 8, 16)


def measure(n: int, work: Path) -> str:
    events = [("click", i) for i in range(1, n + 1)] + [("post", i) for i in range(1, n + 1)]
    units = gen.pairs_units(n, frozenset(), events)
    path = work / f"reference-n{n}.trace"
    path.write_text("".join(line + "\n" for unit in units for line in unit), encoding="utf-8")
    job = {"spec": str(SPECS[SPEC_RUN]), "trace_file": str(path), "timeout": VERIFY_TIMEOUT_S}
    traced = run_worker({**job, "op": "validate"}, True)
    validate = run_worker({**job, "op": "validate"}, False)
    verify = run_worker({**job, "op": "verify"}, False, kill_after=2 * VERIFY_TIMEOUT_S)
    for reply in (traced, validate, verify):
        if not reply["ok"]:
            return f"| {n} | failed: {reply['error'].strip().splitlines()[-1]} |"
    result = verify["result"]
    verdict = (f"{verify['seconds']:.2f} s, {result['verdict']}, {result['states']} states")
    return (f"| {n} | {sum(map(len, units))} | {validate['result']['instances']} "
            f"| {validate['result']['alphabet']} | {traced['layers']['grounding.compile']:.2f} s "
            f"| {validate['seconds']:.2f} s | {verdict} |")


def main() -> int:
    work = ROOT / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    print("| n | msgs | ground rules | alphabet | compile | validate | verify |")
    print("|---|------|--------------|----------|---------|----------|--------|")
    for n in SIZES:
        print(measure(n, work), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
