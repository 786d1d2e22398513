"""Traces of n independent button/task pairs, built by perfbench/gen.py,
the benchmark's own generator.

Pair i owns t#i:AsyncTask, b#i:Button and l#i:OnClickListener.  The
onCreate unit initialises every task and registers every listener; the
click unit of pair i disables its button (unless the pair is in skip) and
starts its task; the completion unit runs onPostExecute(t#i).  Under
fixtures/spec_run.ls a trace is Safe iff no pair skips the disable.

init_trace and CAP_SPEC make a spec whose grounding exceeds the default
instantiation cap."""

from __future__ import annotations

from typing import Optional, Sequence

from lifeguard.messages import Trace, parse_trace

from programs import load_gen

_GEN = load_gen()

# Clicks and completions in a random order that completes each pair after
# its click: random_order(n, rng).
random_order = _GEN.interleaving


def pair_trace(n: int, skip: frozenset = frozenset(),
               order: Optional[Sequence[tuple[str, int]]] = None) -> Trace:
    """The n-pair trace; by default every click, then every completion."""
    if order is None:
        order = [("click", i) for i in range(1, n + 1)] + [("post", i) for i in range(1, n + 1)]
    return parse_trace(_GEN.text(_GEN.pairs_units(n, skip, order)))


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
