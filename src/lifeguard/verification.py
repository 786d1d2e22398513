"""Dynamic predictive-trace verification.

The trace is split into callback units: maximal depth-0 cb..cbret segments,
each the entire execution of one event-dispatched callback.  Verification
explores every sequence of unit repetitions the spec admits -- at unit
boundaries it branches over the units whose opening callback is currently
permitted, inside a unit it folds the abstract step -- and decides by
explicit-state reachability whether any such sequence reaches a prohibited
in-message.  The result is a minimal violation witness or a proof that no
rearrangement reaches bad.
"""

from __future__ import annotations

import re
import time
from collections import deque
from dataclasses import dataclass
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


@dataclass(frozen=True)
class Violation:
    witness: Trace
    subtrace_sequence: tuple[int, ...]
    states_explored: int = 0


@dataclass(frozen=True)
class Unknown:
    bound_hit: bool
    states_explored: int = 0
    reason: str = ""
    depth_reached: int = 0  # units on the longest path to a discovered state
    frontier: int = 0  # states still queued when the search stopped


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
    while parent[state] is not None:
        state, unit_index = parent[state]
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


def verify(
    spec: LifestateSpec,
    trace: Trace,
    mode: str = "exhaustive",
    state_cap: int = DEFAULT_STATE_CAP,
    timeout: Optional[float] = None,
) -> VerificationResult:
    """Breadth-first reachability over abstract states at unit boundaries.

    BFS order guarantees a witness with the fewest units, ties broken by
    the lowest unit index sequence.  Exhaustive mode terminates because the
    abstract state space is finite; bounded mode caps the number of units
    per path and may return Unknown.  The spec is grounded sliced.  The
    deadline counts from entry, so grounding and the engine build spend it
    too, and it is checked before every unit replay."""
    deadline = time.monotonic() + timeout if timeout is not None else None
    if is_violation(trace):
        # The recorded execution already witnesses the violation.
        return Violation(witness=trace, subtrace_sequence=(), states_explored=0)
    bound = parse_mode(mode)
    units = split_subtraces(trace)
    engine = AbstractEngine(ground_spec(spec, trace, sliced=True))
    unit_letters = [engine.intern(u.messages) for u in units]
    openings = [1 << letters[0] for letters in unit_letters]

    init = engine.initial_state()
    # Every discovered state, with the state and unit it was first reached
    # by (None for the initial state); witnesses are rebuilt from it.
    parent: dict[AbstractState, Optional[tuple[AbstractState, int]]] = {init: None}
    queue = deque([(init, 0)])
    explored = 0
    depth_reached = 0
    opened_units: set[int] = set()
    truncated = False

    def unknown(bound_hit: bool, reason: str) -> Unknown:
        return Unknown(bound_hit, explored, reason, depth_reached, len(queue))

    while queue:
        state, depth = queue.popleft()
        if bound is not None and depth >= bound:
            # Would this state still have somewhere to go?
            if any(opening & state.permitted for opening in openings):
                truncated = True
            continue
        explored += 1
        for unit, letters, opening in zip(units, unit_letters, openings):
            if deadline is not None and time.monotonic() > deadline:
                return unknown(False, "timeout")
            if not opening & state.permitted:
                continue
            opened_units.add(unit.index)
            *_, last = engine.fold(state, letters)
            if last.outcome == BAD:
                return _violation(units, _unit_path(parent, state) + [unit.index], last,
                                  explored)
            if last.outcome == BLOCKED:
                # This repetition is not realizable under the spec.
                continue
            if last.after not in parent:
                if len(parent) >= state_cap:
                    return unknown(False, f"state cap {state_cap} exceeded")
                parent[last.after] = (state, unit.index)
                depth_reached = depth + 1
                queue.append((last.after, depth + 1))
    unreachable = tuple(u.index for u in units if u.index not in opened_units)
    if truncated:
        return unknown(True, "unit bound reached before closing the state space")
    return Safe(states_explored=explored, certificate_size=len(parent),
                unreachable_units=unreachable)

