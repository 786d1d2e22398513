"""Traces of n independent button/task pairs.

Pair i owns t#i:AsyncTask, b#i:Button and l#i:OnClickListener.  The
onCreate unit initialises every task and registers every listener; the
click unit of pair i disables its button (unless the pair is in skip) and
starts its task; the completion unit runs onPostExecute(t#i).  Under
fixtures/spec_run.ls a trace is Safe iff no pair skips the disable.

init_trace and CAP_SPEC make a spec whose grounding exceeds the default
instantiation cap."""

from __future__ import annotations

import random
from typing import Optional, Sequence

from lifeguard.messages import Trace, parse_trace


def _create(n: int) -> list[str]:
    out = ["cb onCreate(a#1:Activity)"]
    for i in range(1, n + 1):
        out += [f"ci init(t#{i}:AsyncTask)",
                f"ciret unit = init(t#{i}:AsyncTask)",
                f"ci setOnClickListener(b#{i}:Button,l#{i}:OnClickListener)",
                f"ciret unit = setOnClickListener(b#{i}:Button,l#{i}:OnClickListener)"]
    return out + ["cbret unit = onCreate(a#1:Activity)"]


def _click(i: int, skips: bool) -> list[str]:
    cb = f"onClick(l#{i}:OnClickListener,b#{i}:Button)"
    disable = [] if skips else [f"ci setEnabled(b#{i}:Button,false)",
                                f"ciret unit = setEnabled(b#{i}:Button,false)"]
    return [f"cb {cb}", *disable, f"ci execute(t#{i}:AsyncTask)",
            f"ciret unit = execute(t#{i}:AsyncTask)", f"cbret unit = {cb}"]


def _post(i: int) -> list[str]:
    return [f"cb onPostExecute(t#{i}:AsyncTask)", f"cbret unit = onPostExecute(t#{i}:AsyncTask)"]


def random_order(n: int, rng: random.Random) -> list[tuple[str, int]]:
    """Clicks and completions in a random order that completes each pair
    after its click."""
    unclicked, running, events = list(range(1, n + 1)), [], []
    while unclicked or running:
        kind, i = rng.choice([("click", i) for i in unclicked] + [("post", i) for i in running])
        events.append((kind, i))
        (unclicked if kind == "click" else running).remove(i)
        if kind == "click":
            running.append(i)
    return events


def pair_trace(n: int, skip: frozenset = frozenset(),
               order: Optional[Sequence[tuple[str, int]]] = None) -> Trace:
    """The n-pair trace; by default every click, then every completion."""
    if order is None:
        order = [("click", i) for i in range(1, n + 1)] + [("post", i) for i in range(1, n + 1)]
    lines = _create(n)
    for kind, i in order:
        lines += _click(i, i in skip) if kind == "click" else _post(i)
    return parse_trace("".join(line + "\n" for line in lines))


# Both polarities over three universal AsyncTask parameters: on a trace
# with n tasks the slicer enumerates n^3 assignments per rule, so n = 60
# (216,000) exceeds the default cap of 200,000.
CAP_SPEC = ("eps -> ci execute(forall x:AsyncTask, forall y:AsyncTask, forall z:AsyncTask)\n"
            "eps -/> ci execute(forall x:AsyncTask, forall y:AsyncTask, forall z:AsyncTask)\n")


def init_trace(n: int) -> Trace:
    """One onCreate unit around init(t#i:AsyncTask) for i = 1..n."""
    lines = ["cb onCreate(a#1:Activity)"]
    for i in range(1, n + 1):
        lines += [f"ci init(t#{i}:AsyncTask)", f"ciret unit = init(t#{i}:AsyncTask)"]
    lines.append("cbret unit = onCreate(a#1:Activity)")
    return parse_trace("".join(line + "\n" for line in lines))
