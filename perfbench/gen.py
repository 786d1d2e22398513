"""Seeded inputs for the benchmark: n-pair button/task traces and the
event-calculus programs that record them.

Pair i owns a task t#i, a button b#i and a listener l#i.  The onCreate
unit initialises every task and registers every listener; the click unit
of pair i disables its button (unless the pair "skips" setEnabled) and
starts its task; the completion unit runs onPostExecute(t#i).  Every
function here returns plain text: the program under test sees nothing
else.
"""

from __future__ import annotations

import random

ACTIVITY = "a#1:Activity"


def task(i: int) -> str:
    return f"t#{i}:AsyncTask"


def button(i: int) -> str:
    return f"b#{i}:Button"


def listener(i: int) -> str:
    return f"l#{i}:OnClickListener"


def create_unit(n: int) -> list[str]:
    out = [f"cb onCreate({ACTIVITY})"]
    for i in range(1, n + 1):
        out += [f"ci init({task(i)})",
                f"ciret unit = init({task(i)})",
                f"ci setOnClickListener({button(i)},{listener(i)})",
                f"ciret unit = setOnClickListener({button(i)},{listener(i)})"]
    out.append(f"cbret unit = onCreate({ACTIVITY})")
    return out


def click_open(i: int) -> str:
    return f"cb onClick({listener(i)},{button(i)})"


def execute_call(i: int) -> str:
    return f"ci execute({task(i)})"


def click_unit(i: int, skips: bool) -> list[str]:
    out = [click_open(i)]
    if not skips:
        out += [f"ci setEnabled({button(i)},false)",
                f"ciret unit = setEnabled({button(i)},false)"]
    out += [execute_call(i),
            f"ciret unit = execute({task(i)})",
            f"cbret unit = onClick({listener(i)},{button(i)})"]
    return out


def post_open(i: int) -> str:
    return f"cb onPostExecute({task(i)})"


def post_unit(i: int) -> list[str]:
    return [post_open(i), f"cbret unit = onPostExecute({task(i)})"]


def interleaving(n: int, rng: random.Random) -> list[tuple[str, int]]:
    """A uniformly chosen next event at each point: any unclicked pair's
    click, or the completion of any clicked pair."""
    unclicked = list(range(1, n + 1))
    running: list[int] = []
    events = []
    while unclicked or running:
        pool = [("click", i) for i in unclicked] + [("post", i) for i in running]
        kind, i = rng.choice(pool)
        events.append((kind, i))
        if kind == "click":
            unclicked.remove(i)
            running.append(i)
        else:
            running.remove(i)
    return events


def pairs_units(n: int, skip: frozenset[int], events) -> list[list[str]]:
    """The trace as a list of callback units, onCreate first."""
    units = [create_unit(n)]
    for kind, i in events:
        units.append(click_unit(i, i in skip) if kind == "click" else post_unit(i))
    return units


def text(units: list[list[str]]) -> str:
    return "".join(line + "\n" for unit in units for line in unit)


def pairs_trace(n: int, skip: frozenset[int], rng: random.Random) -> tuple[str, list[list[str]]]:
    units = pairs_units(n, skip, interleaving(n, rng))
    return text(units), units


def pairs_program(n: int, skip: frozenset[int]) -> str:
    """An app that behaves as the n-pair traces describe.  The framework
    keeps one click registration per button; handlers find a pair's
    objects by comparing the button argument."""

    def by_button(values: list[str], default: str = "unit") -> str:
        expr = default
        for i in range(n, 0, -1):
            expr = f"(if eq b b{i} then {values[i - 1]} else {expr})"
        return expr

    lines = [f"let a = {ACTIVITY} in"]
    for i in range(1, n + 1):
        lines.append(f"let t{i} = {task(i)} in let b{i} = {button(i)} in "
                     f"let l{i} = {listener(i)} in let reg{i} = newcell unit in")
    regs = [f"reg{i}" for i in range(1, n + 1)]
    tasks = [f"t{i}" for i in range(1, n + 1)]
    disable = "invoke (bind (bind setEnabled b) false)"
    disables = ["unit" if i in skip else disable for i in range(1, n + 1)]
    creates = "; ".join(f"invoke (bind init t{i}); invoke (bind (bind setOnClickListener b{i}) l{i})"
                        for i in range(1, n + 1))
    lines += [
        "let init = (t =>[fwk] unit) in",
        "let onPostExecute = (t =>[app] unit) in",
        "let handlePostExecute = (t =>[fwk] (disable thk; invoke (bind onPostExecute t))) in",
        "let execute = (t =>[fwk] (disallow thk; enable (bind handlePostExecute t); unit)) in",
        f"let setEnabled = ((b, en) =>[fwk] if en then unit else "
        f"(disable (get {by_button(regs)}); unit)) in",
        f"let onClick = ((l, b) =>[app] ({by_button(disables)}; "
        f"invoke (bind execute {by_button(tasks)}))) in",
        "let handleClick = ((l, b) =>[fwk] invoke (bind (bind onClick l) b)) in",
        f"let setOnClickListener = ((b, l) =>[fwk] (let h = bind (bind handleClick l) b in "
        f"(set {by_button(regs)} h; enable h; unit))) in",
        f"let onCreate = (a =>[app] ({creates})) in",
        "let handleCreate = (a =>[fwk] (disable thk; invoke (bind onCreate a))) in",
        "let boot = (a =>[fwk] (enable (bind handleCreate a); unit)) in",
        "invoke (bind boot a)",
    ]
    return "\n".join(lines) + "\n"
