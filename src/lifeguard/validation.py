"""Trace validation: does the abstract transition system accept a recorded
trace, and if not, what is the longest validated prefix and which message
blocks it.

A dis-terminated trace validates only if the model predicts the observed
violation, i.e. the final in-message is prohibited at that point; a spec
that would have allowed it is reported invalid with reason
"missed violation".
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, Optional

from .abstract import BAD, BLOCKED, AbstractEngine, AbstractState
from .grounding import DEFAULT_INSTANTIATION_CAP, ground_spec
from .messages import Message, Trace
from .rules import LifestateSpec


class ValidationTimeout(Exception):
    pass


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validating one trace.

    prefix_len counts every validated message; prefix_len_filtered counts
    only validated messages that occur in some ground rule (matcher atom or
    target), the relevance-filtered step count."""

    valid: bool
    prefix_len: int
    prefix_len_filtered: int
    total_len: int
    blocking_message: Optional[Message] = None
    blocking_permitted: Optional[FrozenSet[Message]] = None
    blocking_prohibited: Optional[FrozenSet[Message]] = None
    last_firing_rules: tuple[int, ...] = ()
    reason: Optional[str] = None
    inconsistency_steps: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.valid:
            assert self.blocking_message is None and self.prefix_len == self.total_len
        else:
            assert self.blocking_message is not None


def _rule_letters(engine: AbstractEngine) -> int:
    """Bitmask of the messages that occur in some ground rule (matcher atom
    or target)."""
    mask = 0
    for rule in engine.rules:
        mask |= rule.target_bit
        for letter in rule.columns:
            mask |= 1 << letter
    return mask


def _last_firing_rules(engine: AbstractEngine, letters: tuple[int, ...],
                       target: int) -> tuple[int, ...]:
    """Blame for a failure on the target letter after the validated letters:
    the spec rules targeting it that fired at the last state of the fold
    (the initial state or the state after a validated message) where any
    of them fired.  Re-folds the prefix, so a valid trace never pays for it."""
    bit = 1 << target
    touching = [(i, rule) for i, rule in enumerate(engine.rules) if rule.target_bit == bit]

    def fired(state: AbstractState) -> tuple[int, ...]:
        return tuple(rule.source_index for i, rule in touching
                     if rule.dfa.accepting[state.rule_states[i]])

    state = engine.initial_state()
    blame = fired(state)
    for event in engine.fold(state, letters):
        blame = fired(event.after) or blame
    return blame


def validate_ground(
    engine: AbstractEngine,
    trace: Trace,
    deadline: Optional[float] = None,
) -> ValidationReport:
    """Fold the abstract step over the trace against a prepared engine."""
    messages = trace.messages
    letters = engine.intern(messages)
    relevant = _rule_letters(engine)
    state = engine.initial_state()
    filtered = 0
    inconsistent_at = [0] if state.inconsistent else []
    total = len(messages)
    for i, outcome, before, after in engine.fold(state, letters):
        if deadline is not None and time.monotonic() > deadline:
            raise ValidationTimeout(f"validation exceeded its time budget at step {i}")
        m = messages[i]
        if m.is_dis():
            if outcome == BAD:
                # The model predicts the observed violation: accepted.
                if (1 << letters[i]) & relevant:
                    filtered += 1
                break
            reason = "missed violation: the spec permits the recorded dis step"
        elif outcome == BLOCKED:
            reason = "back-message not permitted"
        elif outcome == BAD:
            reason = "predicted violation not observed: in-message is prohibited"
        else:
            if (1 << letters[i]) & relevant:
                filtered += 1
            if after.inconsistent:
                inconsistent_at.append(i + 1)
            continue
        return ValidationReport(
            False, i, filtered, total,
            blocking_message=m,
            blocking_permitted=engine.permitted_messages(before),
            blocking_prohibited=engine.prohibited_messages(before),
            last_firing_rules=_last_firing_rules(engine, letters[:i], letters[i]),
            reason=reason,
            inconsistency_steps=tuple(inconsistent_at),
        )
    return ValidationReport(True, total, filtered, total,
                            inconsistency_steps=tuple(inconsistent_at))


def validate(
    spec: LifestateSpec,
    trace: Trace,
    cap: int = DEFAULT_INSTANTIATION_CAP,
    timeout: Optional[float] = None,
) -> ValidationReport:
    """Ground the spec against the trace and fold the abstract step over
    its messages; valid iff no step is blocked or bad before the end."""
    ground = ground_spec(spec, trace, cap=cap)
    engine = AbstractEngine(ground)
    deadline = time.monotonic() + timeout if timeout is not None else None
    return validate_ground(engine, trace, deadline)
