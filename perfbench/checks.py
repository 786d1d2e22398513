"""Independent expectations for every output the benchmark reads back.

Nothing here runs lifeguard or compares against stored output: each
expectation follows from how gen.py built the input (the number of pairs,
which pairs skip setEnabled, the order of the units).  Each check returns
a list of problems, empty when the output is right.
"""

from __future__ import annotations

import gen

SPEC_RUN = "spec_run"
SPEC_NOENABLE = "spec_run_noenable"


def expected_instances(spec: str, n: int) -> int:
    """spec_run grounds to 3n^2+3n+1 rule instances on n pairs;
    spec_run_noenable lacks the execute -> onPostExecute rule (n instances)."""
    return 3 * n * n + (3 if spec == SPEC_RUN else 2) * n + 1


def expected_alphabet(n: int, skips: int) -> int:
    """Both specs: 2n^2+10n+2 messages, one fewer per pair whose click unit
    has no setEnabled return (the call itself still comes from rule 3)."""
    return 2 * n * n + 10 * n + 2 - skips


def expected_validation(spec: str, lines: list[str]) -> tuple[bool, int, str | None]:
    """(valid, prefix_len, blocking message) for a trace of the n-pair
    family.  Under spec_run every such trace is valid, including a recorded
    one ending in the dis message the spec predicts.  spec_run_noenable
    never permits onPostExecute, so the first one blocks."""
    if spec == SPEC_NOENABLE:
        for index, line in enumerate(lines):
            if line.startswith("cb onPostExecute("):
                return False, index, line
    return True, len(lines), None


def check_ground(spec: str, n: int, skip: frozenset[int], result: dict) -> list[str]:
    problems = []
    if result["instances"] != expected_instances(spec, n):
        problems.append(f"{spec} n={n}: {result['instances']} rule instances, "
                        f"expected {expected_instances(spec, n)}")
    if result["alphabet"] != expected_alphabet(n, len(skip)):
        problems.append(f"{spec} n={n} skip={sorted(skip)}: alphabet {result['alphabet']}, "
                        f"expected {expected_alphabet(n, len(skip))}")
    return problems


def check_validate(spec: str, lines: list[str], result: dict) -> list[str]:
    valid, prefix_len, blocking = expected_validation(spec, lines)
    got = (result["valid"], result["prefix_len"], result["blocking_message"])
    if got != (valid, prefix_len, blocking) or result["total_len"] != len(lines):
        return [f"{spec}: validate gave (valid, prefix, blocking) {got} of {result['total_len']},"
                f" expected {(valid, prefix_len, blocking)} of {len(lines)}"]
    return []


def expected_witnesses(units: list[list[str]], skip: frozenset[int]) -> list[tuple[list, list]]:
    """The fewest-unit violations: onCreate, one full click of a skipping
    pair k, then its second click, which calls execute(t#k) again."""
    out = []
    for index, unit in enumerate(units):
        for k in skip:
            if unit[0] == gen.click_open(k):
                witness = units[0] + unit + [gen.click_open(k), "dis " + gen.execute_call(k)]
                out.append(([0, index, index], witness))
    return out


def check_verify(units: list[list[str]], skip: frozenset[int], result: dict) -> list[str]:
    if not skip:
        if result["verdict"] != "safe":
            return [f"verify gave {result['verdict']}, expected safe (no pair skips setEnabled)"]
        return []
    if result["verdict"] != "violation":
        return [f"verify gave {result['verdict']}, expected a violation (pairs {sorted(skip)} "
                f"skip setEnabled)"]
    if (result["sequence"], result["witness"]) not in expected_witnesses(units, skip):
        return [f"violation witness with unit sequence {result['sequence']} is not onCreate, "
                f"a skipping pair's click and its second click"]
    return []


def check_recorded(n: int, skip: frozenset[int], status: str, text: str) -> list[str]:
    """The unit structure the n-pair program implies for any schedule."""
    lines = text.splitlines()
    create = gen.create_unit(n)
    if lines[:len(create)] != create:
        return ["recorded trace does not start with the onCreate unit"]
    pos = len(create)
    clicked: set[int] = set()
    posted: set[int] = set()
    opens = {gen.click_open(i): ("click", i) for i in range(1, n + 1)}
    opens.update({gen.post_open(i): ("post", i) for i in range(1, n + 1)})
    while pos < len(lines):
        kind, i = opens.get(lines[pos], (None, 0))
        if kind == "click" and i in clicked:
            end = [gen.click_open(i), "dis " + gen.execute_call(i)]
            if i not in skip or lines[pos:] != end or status != "bad":
                return [f"second click of pair {i} at line {pos + 1} is not a skipping pair's "
                        f"final dis execute"]
            return []
        if kind == "click":
            unit = gen.click_unit(i, i in skip)
            clicked.add(i)
        elif kind == "post" and i in clicked and i not in posted:
            unit = gen.post_unit(i)
            posted.add(i)
        else:
            return [f"line {pos + 1}: {lines[pos]!r} does not open a unit the program allows"]
        if lines[pos:pos + len(unit)] != unit:
            return [f"line {pos + 1}: unit of pair {i} differs from {unit}"]
        pos += len(unit)
    if skip or status != "finished" or len(clicked) != n or len(posted) != n:
        return [f"run ended {status} after {len(clicked)} clicks and {len(posted)} completions "
                f"(skipping pairs {sorted(skip)})"]
    return []


def check_corpus(spec: str, traces: dict[str, list[str]], exit_code: int,
                 report: dict) -> list[str]:
    """Per-trace verdicts and prefix lengths, the valid count, the exit
    code, and the cumulative histogram recomputed from the expected prefix
    lengths over the buckets the report names."""
    expected = {name: expected_validation(spec, lines) for name, lines in traces.items()}
    problems = []
    results = {r["trace"].rsplit("/", 1)[-1]: r for r in report.get("results", [])}
    if sorted(results) != sorted(expected):
        return [f"{spec}: corpus report covers {sorted(results)}, expected {sorted(expected)}"]
    for name, (valid, prefix_len, _) in expected.items():
        r = results[name]
        if (r["verdict"], r.get("prefix_len")) != ("valid" if valid else "invalid", prefix_len):
            problems.append(f"{spec}: {name} reported {r['verdict']} at {r.get('prefix_len')}, "
                            f"expected {'valid' if valid else 'invalid'} at {prefix_len}")
    n_valid = sum(valid for valid, _, _ in expected.values())
    if report.get("valid") != n_valid or exit_code != (0 if n_valid == len(expected) else 1):
        problems.append(f"{spec}: {report.get('valid')} valid with exit {exit_code}, "
                        f"expected {n_valid} valid")
    histogram = report.get("prefix_histogram", {})
    recomputed = {key: sum(p >= int(key[2:]) for _, p, _ in expected.values()) for key in histogram}
    if not histogram or histogram != recomputed:
        problems.append(f"{spec}: histogram {histogram}, recomputed {recomputed}")
    return problems
