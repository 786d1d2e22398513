"""The interpreter's machine run from a state for one step, which only tests
drive: the package runs whole runs through ``interp.run``.  Every rule
exists once, in ``Machine._exec``, so a stepped run cannot disagree with
``run``."""

from __future__ import annotations

from typing import Optional

from lifeguard.interp import BAD, STUCK, Machine, MachineState, StuckError
from lifeguard.messages import Message, Value


def is_value(state: MachineState) -> bool:
    return isinstance(state.control, Value)


def is_terminal(state: MachineState) -> bool:
    c = state.control
    return c is BAD or (isinstance(c, Value) and not state.cont and not state.enabled)


class SteppingMachine(Machine):
    def step(self, state: MachineState) -> list[tuple[Optional[Message], MachineState]]:
        """All successors of a non-terminal state with their message labels,
        each the machine run from state for one step.

        Every rule is deterministic except event dispatch, which yields one
        successor per enabled thunk (in sorted order)."""
        if is_terminal(state):
            raise ValueError("step on a terminal state")
        if state.cont or not is_value(state):
            labels, status, _, reason, succ = self._exec(state, 1, lambda n: None)
            if status == STUCK:
                raise StuckError(reason)
            return [(labels[0] if labels else None, succ)]
        return [(None, self._exec(state, 1, lambda n, i=i: i)[4])
                for i in range(len(state.enabled))]

    def advance(self, state: MachineState) -> tuple[Optional[Message], MachineState]:
        """The successor of a state that is neither terminal nor at the
        event loop, with its message label: the one element of step."""
        if not state.cont and is_value(state):
            raise ValueError("advance at the event loop, where only step applies")
        (succ,) = self.step(state)
        return succ
