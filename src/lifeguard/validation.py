"""Trace validation: does the abstract transition system accept a recorded
trace, and if not, what is the longest validated prefix and which message
blocks it.

A dis-terminated trace validates only if the model predicts the observed
violation, i.e. the final in-message is prohibited at that point; a spec
that would have allowed it is reported invalid with reason
"missed violation".  walk judges every step of the fold; validate reports
from it and the explain command prints it.
"""

from __future__ import annotations

import time
from typing import FrozenSet, Iterable, Iterator, Optional, Sequence

from .abstract import BAD, BLOCKED, AbstractEngine, AbstractState
from .grounding import GroundSpec, ground_spec
from .messages import Message, Record, Trace
from .rules import LifestateSpec

NOT_PERMITTED = "back-message not permitted"
PROHIBITED = "predicted violation not observed: in-message is prohibited"
MISSED = "missed violation: the spec permits the recorded dis step"
_REASONS = {BLOCKED: NOT_PERMITTED, BAD: PROHIBITED}


class ValidationTimeout(Exception):
    pass


class ValidationReport(Record):
    """Outcome of validating one trace.

    prefix_len counts every validated message; prefix_len_filtered counts
    only validated messages that occur in some ground rule (matcher atom or
    target), the relevance-filtered step count."""

    __slots__ = ("valid", "prefix_len", "prefix_len_filtered", "total_len", "blocking_message",
                 "blocking_permitted", "blocking_prohibited", "last_firing_rules", "reason",
                 "inconsistency_steps")

    def __init__(self, valid: bool, prefix_len: int, prefix_len_filtered: int, total_len: int,
                 blocking_message: Optional[Message] = None,
                 blocking_permitted: Optional[FrozenSet[Message]] = None,
                 blocking_prohibited: Optional[FrozenSet[Message]] = None,
                 last_firing_rules: tuple[int, ...] = (), reason: Optional[str] = None,
                 inconsistency_steps: tuple[int, ...] = ()):
        if valid and (blocking_message is not None or prefix_len != total_len):
            raise ValueError("a valid report has no blocking message and covers the trace")
        if not valid and blocking_message is None:
            raise ValueError("an invalid report has a blocking message")
        self.valid, self.prefix_len, self.total_len = valid, prefix_len, total_len
        self.prefix_len_filtered, self.blocking_message = prefix_len_filtered, blocking_message
        self.blocking_permitted, self.blocking_prohibited = blocking_permitted, blocking_prohibited
        self.last_firing_rules, self.reason = last_firing_rules, reason
        self.inconsistency_steps = inconsistency_steps


def trace_mask(letters: Iterable[int]) -> int:
    """Bitmask of the letters.  Over a trace's letters it is the part of
    the alphabet that reports show, since the stores agree with the full
    grounding's on exactly the messages of the trace."""
    mask = 0
    for letter in letters:
        mask |= 1 << letter
    return mask


def _last_firing_rules(engine: AbstractEngine, prefix: Sequence[int],
                       target: int) -> tuple[int, ...]:
    """Blame for a failure on the target letter after the validated prefix:
    the spec rules targeting it that fired at the last state of the fold
    (the initial state or the state after a validated message) where any
    of them fired.  Re-folds the prefix's letters, so a valid trace never
    pays for it, and reads the fired rules back from the last state."""
    bit = 1 << target
    states = [engine.initial_state()]
    states += [event.after for event in engine.fold(states[0], prefix)]
    for state in reversed(states):
        blame = tuple(rule.source_index for rule in engine.fired_rules(state)
                      if rule.target_bit == bit)
        if blame:
            return blame
    return ()


def walk(engine: AbstractEngine, state: AbstractState, messages: Sequence[Message],
         letters: Sequence[int]
         ) -> Iterator[tuple[int, int, Optional[str], AbstractState, Optional[AbstractState]]]:
    """Fold the messages from state, given with their letters (interned
    once by the caller), and judge every step against the model: yields
    (index, letter, reason, before, after), where reason is None if the
    model accepts the step and otherwise says why the trace is invalid
    there.  A dis step is accepted iff the fold calls it BAD, that is, iff
    the model predicts the recorded violation.  The walk ends after the
    first step with a reason (a dis message is always last)."""
    for index, outcome, before, after in engine.fold(state, letters):
        if messages[index].is_dis():
            reason = None if outcome == BAD else MISSED
        else:
            reason = _REASONS.get(outcome)
        yield index, letters[index], reason, before, after


def validate_ground(
    ground: GroundSpec,
    trace: Trace,
    deadline: Optional[float] = None,
) -> ValidationReport:
    """Build the engine of a ground spec and walk the trace against it."""
    engine = AbstractEngine(ground)
    messages = trace.messages
    letters = engine.intern(messages)
    relevant = trace_mask(engine.intern(ground.relevant))
    shown = trace_mask(letters)
    state = engine.initial_state()
    filtered = 0
    inconsistent_at = [0] if state.inconsistent else []
    total = len(messages)
    for i, letter, reason, before, after in walk(engine, state, messages, letters):
        if deadline is not None and time.monotonic() > deadline:
            raise ValidationTimeout(f"validation exceeded its time budget at step {i}")
        if reason is not None:
            return ValidationReport(
                False, i, filtered, total,
                blocking_message=messages[i],
                blocking_permitted=frozenset(engine.decode(before.permitted & shown)),
                blocking_prohibited=frozenset(engine.decode(before.prohibited & shown)),
                last_firing_rules=_last_firing_rules(engine, letters[:i], letter),
                reason=reason,
                inconsistency_steps=tuple(inconsistent_at),
            )
        if (1 << letter) & relevant:
            filtered += 1
        if after is not None and after.inconsistent:
            inconsistent_at.append(i + 1)
    return ValidationReport(True, total, filtered, total,
                            inconsistency_steps=tuple(inconsistent_at))


def validate(
    spec: LifestateSpec,
    trace: Trace,
    timeout: Optional[float] = None,
) -> ValidationReport:
    """Ground the spec against the trace, sliced, and fold the abstract
    step over its messages; valid iff no step is blocked or bad before the
    end.  The timeout counts from entry, so grounding and the engine build
    spend it too."""
    deadline = time.monotonic() + timeout if timeout is not None else None
    return validate_ground(ground_spec(spec, trace, sliced=True), trace, deadline)
