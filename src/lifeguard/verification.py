"""Dynamic predictive-trace verification.

The trace is split into callback units: maximal depth-0 cb..cbret segments,
each the entire execution of one event-dispatched callback.  Verification
explores every sequence of unit repetitions the spec admits -- at unit
boundaries it branches over the units whose opening callback is currently
permitted, inside a unit it folds the abstract step -- and decides by
explicit-state reachability whether any such sequence reaches a prohibited
in-message.  The result is a minimal violation witness or a proof that no
rearrangement reaches bad.  Units that touch disjoint rules and store bits
commute, so exhaustive mode follows one order of them where it can
(partial-order reduction); bounded mode is exact breadth-first search.
"""

from __future__ import annotations

import re
import time
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .abstract import BAD, BLOCKED, AbstractEngine, AbstractState, StepEvent
from .grounding import ground_spec
from .messages import CB, CBRET, CI, CIRET, Message, Trace, is_violation
from .rules import LifestateSpec


class SubTraceError(Exception):
    pass


DEFAULT_STATE_CAP = 5_000_000


@dataclass(frozen=True)
class SubTrace:
    """One callback unit: begins with a cb at depth 0 and ends with its
    matching cbret; internal messages are well-nested."""

    messages: tuple[Message, ...]
    index: int


def split_subtraces(t: Trace) -> list[SubTrace]:
    """Maximal depth-0 cb..cbret segments, in order.

    The trace must be dis-free and must not end inside a unit; Trace
    already rejects any depth-0 message that is not a callback entry."""
    if is_violation(t):
        raise SubTraceError("cannot split a dis-terminated trace into units")
    units: list[SubTrace] = []
    current: list[Message] = []
    depth = 0
    for m in t.messages:
        if depth == 0:
            current = [m]
            depth = 1
            continue
        current.append(m)
        if m.kind in (CB, CI):
            depth += 1
        elif m.kind in (CBRET, CIRET):
            depth -= 1
            if depth == 0:
                units.append(SubTrace(tuple(current), len(units)))
                current = []
    if depth != 0:
        raise SubTraceError("trace ends inside a callback unit")
    return units


@dataclass(frozen=True)
class Safe:
    """No reachable rearrangement hits a prohibited in-message."""

    states_explored: int
    certificate_size: int
    unreachable_units: tuple[int, ...] = ()
    replays: int = field(default=0, compare=False)  # unit folds done


@dataclass(frozen=True)
class Violation:
    witness: Trace
    subtrace_sequence: tuple[int, ...]
    states_explored: int = 0
    replays: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unknown:
    bound_hit: bool
    states_explored: int = 0
    reason: str = ""
    depth_reached: int = 0  # units on the longest path to a discovered state
    frontier: int = 0  # states still queued when the search stopped
    replays: int = field(default=0, compare=False)


VerificationResult = Union[Safe, Violation, Unknown]


def parse_mode(mode: str) -> Optional[int]:
    """None for ``exhaustive``, otherwise the unit bound K >= 1 of
    ``bounded:K``."""
    if mode == "exhaustive":
        return None
    m = re.fullmatch(r"bounded:([0-9]+)", str(mode))
    if m is None or int(m[1]) < 1:
        raise ValueError(f"unknown verification mode {mode!r}: expected exhaustive "
                         f"or bounded:K with K >= 1")
    return int(m[1])


def _unit_path(parent: dict, state: AbstractState) -> list[int]:
    """Unit indices on the path by which BFS first reached state."""
    path = []
    while parent[state][0] is not None:
        state, unit_index, _ = parent[state]
        path.append(unit_index)
    return path[::-1]


def _violation(units: list[SubTrace], path: list[int], event: StepEvent,
               explored: int) -> Violation:
    """The witness of a BAD step inside the last unit of path: every earlier
    unit, then that unit's messages before the prohibited one, then the
    prohibited one dis-wrapped."""
    unit = units[path[-1]].messages
    messages = [m for i in path[:-1] for m in units[i].messages]
    messages += unit[:event.index]
    messages.append(unit[event.index].wrap_dis())
    return Violation(witness=Trace(tuple(messages)), subtrace_sequence=tuple(path),
                     states_explored=explored)


class _Stop(Exception):
    """Ends a search with the reason an Unknown gives."""


class _Search:
    """Breadth-first reachability over abstract states at unit boundaries.

    The exact search takes every unit whose opening callback is permitted
    as a successor.  The reduced search takes the units of a stubborn set
    (Valmari 1990; Godefroid 1996).  Units whose footprints
    (AbstractEngine.footprint) overlap are dependent.  A member whose fold
    reaches a state, or is blocked inside the unit, adds its dependents:
    only they can change where its fold stops, or make it bad.  A member
    whose opening is not permitted adds the units that permit it.  The
    set grows from the first unit whose fold reaches another
    state; a unit that moves no rule never does, and is folded for a BAD
    step only when no other unit is enabled.  A path that avoids the set
    commutes with its members, so it reaches a BAD fold, or a state where
    some unit's opening is permitted, from their successors as well; the
    reduced search therefore keeps the verdict and the exact unreachable
    units.  A state that is not settled, or has a stubborn successor
    discovered no deeper than itself (so no cycle of the reduced graph
    ignores a unit), is expanded fully.  Folds of the reduced search are
    kept per (state, unit) for the exact re-run that makes a witness
    minimal."""

    def __init__(self, engine: AbstractEngine, units: list[SubTrace], state_cap: int,
                 deadline: Optional[float]):
        self.engine, self.units = engine, units
        self.letters = [engine.intern(u.messages) for u in units]
        self.openings = [1 << letters[0] for letters in self.letters]
        self.state_cap, self.deadline = state_cap, deadline
        self.memo: dict[tuple[AbstractState, int], StepEvent] = {}
        self.replays = 0
        self.init = engine.initial_state()

    def plan(self) -> bool:
        """The units' footprints for the reduced search; False where some
        unit has none."""
        self.prints = [self.engine.footprint(letters) for letters in self.letters]
        return None not in self.prints

    def dependents_of(self, u: int) -> int:
        """The units whose footprints overlap unit u's."""
        moved, reads, permits, prohibits = self.prints[u]
        return sum(1 << v for v, (moved2, reads2, permits2, prohibits2) in enumerate(self.prints)
                   if moved & moved2 or (permits | prohibits) & reads2
                   or (permits2 | prohibits2) & reads or permits & prohibits2
                   or prohibits & permits2)

    def permitters(self, letter: int) -> int:
        """The units whose moved rules permit the letter."""
        return sum(1 << u for u, (_, _, permits, _) in enumerate(self.prints)
                   if permits >> letter & 1)

    def run(self, bound: Optional[int]) -> VerificationResult:
        if bound is not None or not self.plan():
            result = self.explore(bound)
        else:
            result = self.explore(None, reduced=True)
            if isinstance(result, tuple):
                exact = self.explore(len(result[0]))
                result = exact if isinstance(exact, tuple) else result
        return _violation(self.units, *result) if isinstance(result, tuple) else result

    def fold(self, state: AbstractState, u: int, keep: bool) -> StepEvent:
        """The last event of unit u's fold from state."""
        last = self.memo.get((state, u))
        if last is None:
            if self.deadline is not None and time.monotonic() > self.deadline:
                raise _Stop("timeout")
            self.replays += 1
            *_, last = self.engine.fold(state, self.letters[u])
            if keep:
                self.memo[state, u] = last
        return last

    def explore(self, bound: Optional[int], reduced: bool = False
                ) -> Union[Safe, Unknown, tuple[list[int], StepEvent, int]]:
        """BFS from the initial state, exact or reduced.  A BAD fold ends
        it with the unit path, the fold's last event and the states
        explored, from which _violation builds the witness."""
        init = self.init
        # Every discovered state, with the state and unit it was first
        # reached by and its depth; witnesses are rebuilt from it.
        self.parent = parent = {init: (None, None, 0)}
        queue = deque([init])
        explored = depth_reached = opened = 0
        truncated = False
        try:
            while queue:
                state = queue.popleft()
                depth = parent[state][2]
                permitted = [u for u, opening in enumerate(self.openings)
                             if opening & state.permitted]
                if bound is not None and depth >= bound:
                    # Would this state still have somewhere to go?
                    truncated = truncated or bool(permitted)
                    continue
                explored += 1
                opened |= sum(1 << u for u in permitted)
                if reduced and self.engine.settled(state):
                    successors = self._stubborn(state, depth, permitted)
                else:
                    successors = ((u, self.fold(state, u, reduced)) for u in permitted)
                for u, last in successors:
                    if last.outcome == BAD:
                        return _unit_path(parent, state) + [u], last, explored
                    if last.outcome != BLOCKED and last.after not in parent:
                        if len(parent) >= self.state_cap:
                            raise _Stop(f"state cap {self.state_cap} exceeded")
                        parent[last.after] = (state, u, depth + 1)
                        depth_reached = depth + 1
                        queue.append(last.after)
        except _Stop as stop:
            return Unknown(False, explored, str(stop), depth_reached, len(queue))
        if truncated:
            return Unknown(True, explored, "unit bound reached before closing the state space",
                           depth_reached, len(queue))
        unreachable = tuple(u for u in range(len(self.units)) if not opened >> u & 1)
        return Safe(explored, len(parent), unreachable)

    def _stubborn(self, state: AbstractState, depth: int,
                  permitted: list[int]) -> list[tuple[int, StepEvent]]:
        """The folds of the stubborn set's members that reach another
        state, in unit order, or of every permitted unit."""
        pending = 0
        for u in sorted(permitted, key=lambda u: not self.prints[u][0]):
            last = self.fold(state, u, True)
            if last.outcome == BAD:
                return [(u, last)]
            if last.outcome != BLOCKED and last.after != state:
                pending = 1 << u
                break
        done, successors = 0, []
        while pending:
            u = (pending & -pending).bit_length() - 1  # the lowest pending unit
            done |= 1 << u
            if not self.openings[u] & state.permitted:
                pending |= self.permitters(self.letters[u][0])
            else:
                last = self.fold(state, u, True)
                if last.outcome == BAD:
                    return [(u, last)]
                pending |= self.dependents_of(u)
                if last.outcome != BLOCKED and last.after != state:
                    successors.append((u, last))
            pending &= ~done
        successors.sort(key=lambda pair: pair[0])
        if any(last.after in self.parent and self.parent[last.after][2] <= depth
               for _, last in successors):
            return [(u, self.fold(state, u, True)) for u in permitted]
        return successors


def verify(
    spec: LifestateSpec,
    trace: Trace,
    mode: str = "exhaustive",
    state_cap: int = DEFAULT_STATE_CAP,
    timeout: Optional[float] = None,
) -> VerificationResult:
    """Reachability over abstract states at unit boundaries.

    Bounded mode is exact BFS capped at K units per path, and may return
    Unknown.  Exhaustive mode terminates because the abstract state space
    is finite; it searches the reduced graph, and after a violation re-runs
    exact BFS bounded to the violation's depth, so a witness has the fewest
    units, ties broken by the lowest unit index sequence -- unless that
    re-run hits the state cap or the deadline, when the reduced search's
    violation, real but possibly longer, is returned.  A Safe
    from the reduced search counts the states it visited, a subset of the
    reachable ones, and its unreachable units are exact.  The spec is
    grounded sliced.  The deadline counts from entry, so grounding and the
    engine build spend it too, and it is checked before every unit replay."""
    deadline = time.monotonic() + timeout if timeout is not None else None
    if is_violation(trace):
        # The recorded execution already witnesses the violation.
        return Violation(witness=trace, subtrace_sequence=(), states_explored=0)
    bound = parse_mode(mode)
    search = _Search(AbstractEngine(ground_spec(spec, trace, sliced=True)),
                     split_subtraces(trace), state_cap, deadline)
    return replace(search.run(bound), replays=search.replays)
