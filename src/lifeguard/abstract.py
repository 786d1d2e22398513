"""Abstract transition system over permitted-back and prohibited-in stores.

An abstract state summarizes the message history with one DFA state per
compiled rule instead of the explicit history, which keeps the reachable
state space finite.  Stepping a back-message requires it to be permitted;
stepping an in-message that is prohibited ends in the bad state carrying
the dis-wrapped witness message.  Messages outside the ground alphabet
advance the rule DFAs through the OTHER letter and are never blocked.

The consistency check follows the set-disjointness reading: a step is
inconsistent when some message is simultaneously permitted and prohibited,
in which case the permitted store collapses to empty and the prohibited
store to the full in-message alphabet, exactly as the update formulas read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Sequence, Union

from .grounding import CompiledRule, GroundSpec, compile_spec, letter_map
from .messages import Message


@dataclass(frozen=True)
class AbstractState:
    """Permitted back-messages, prohibited in-messages, and the per-rule
    DFA states summarizing the history.  history_len and the inconsistency
    flag are diagnostics and excluded from equality."""

    permitted: FrozenSet[Message]
    prohibited: FrozenSet[Message]
    rule_states: tuple[int, ...]
    history_len: int = field(default=0, compare=False)
    inconsistent: bool = field(default=False, compare=False)


@dataclass(frozen=True)
class Blocked:
    """A back-message outside the permitted store: the abstract system has
    no transition for it."""

    message: Message
    state: AbstractState
    reason: str = "back-message not permitted"


@dataclass(frozen=True)
class BadState:
    """A prohibited in-message was consumed: protocol violation, with the
    dis-wrapped message as the witness suffix."""

    witness_suffix: Message
    state: AbstractState


StepResult = Union[AbstractState, Blocked, BadState]


def consistent(permits: FrozenSet[Message], prohibits: FrozenSet[Message]) -> bool:
    """No message is both permitted and prohibited by the firing rules."""
    return permits.isdisjoint(prohibits)


def update_back(
    permitted: FrozenSet[Message],
    permits: FrozenSet[Message],
    prohibits: FrozenSet[Message],
    is_consistent: bool,
    back_alphabet: Sequence[Message],
) -> FrozenSet[Message]:
    """New permitted-back store: on inconsistency nothing is permitted;
    otherwise a back-message survives if it is not prohibited and is either
    freshly permitted or was already in the store."""
    if not is_consistent:
        return frozenset()
    return frozenset(
        m for m in back_alphabet
        if m not in prohibits and (m in permits or m in permitted)
    )


def update_in(
    prohibited: FrozenSet[Message],
    permits: FrozenSet[Message],
    prohibits: FrozenSet[Message],
    is_consistent: bool,
    in_alphabet: Sequence[Message],
) -> FrozenSet[Message]:
    """New prohibited-in store: on inconsistency every in-message is
    prohibited (the implication is vacuous); otherwise an in-message is
    prohibited if it is not permitted and is either freshly prohibited or
    was already in the store."""
    if not is_consistent:
        return frozenset(in_alphabet)
    return frozenset(
        m for m in in_alphabet
        if m not in permits and (m in prohibits or m in prohibited)
    )


@dataclass(frozen=True)
class FiredRule:
    index: int  # position in the compiled rule list
    source_index: int  # originating spec rule
    polarity: str
    target: Message


class AbstractEngine:
    """Compiled ground spec plus the stepping logic shared by validation
    and verification."""

    def __init__(self, ground: GroundSpec, compiled: Optional[tuple[CompiledRule, ...]] = None):
        self.ground = ground
        self.rules = compiled if compiled is not None else compile_spec(ground)
        self.letters = letter_map(ground.alphabet)
        self.other_letter = len(ground.alphabet)
        self.back_alphabet = ground.back_alphabet()
        self.in_alphabet = ground.in_alphabet()
        self.alphabet_set = frozenset(ground.alphabet)

    def letter(self, m: Message) -> int:
        return self.letters.get(m, self.other_letter)

    def fired_rules(self, rule_states: tuple[int, ...]) -> list[FiredRule]:
        out = []
        for i, (rule, sid) in enumerate(zip(self.rules, rule_states)):
            if rule.dfa.accepting[sid]:
                out.append(FiredRule(i, rule.source_index, rule.polarity, rule.target))
        return out

    def firing_sets(self, rule_states: tuple[int, ...]) -> tuple[FrozenSet[Message], FrozenSet[Message]]:
        """Targets of permit rules and prohibit rules whose DFA accepts the
        history summarized by rule_states."""
        permits = set()
        prohibits = set()
        for rule, sid in zip(self.rules, rule_states):
            if rule.dfa.accepting[sid]:
                (permits if rule.is_permit() else prohibits).add(rule.target)
        return frozenset(permits), frozenset(prohibits)

    def initial_state(self) -> AbstractState:
        """Start every rule DFA and evaluate the update functions on the
        empty history: the permitted store starts from all back-messages,
        the prohibited store from the empty set."""
        rule_states = tuple(rule.dfa.start for rule in self.rules)
        permits, prohibits = self.firing_sets(rule_states)
        cons = consistent(permits, prohibits)
        permitted = update_back(frozenset(self.back_alphabet), permits, prohibits, cons,
                                self.back_alphabet)
        prohibited = update_in(frozenset(), permits, prohibits, cons, self.in_alphabet)
        return AbstractState(permitted, prohibited, rule_states, 0, not cons)

    def advance(self, state: AbstractState, m: Message) -> AbstractState:
        """Advance rule DFAs by the message and recompute the stores."""
        letter = self.letter(m)
        rule_states = tuple(
            rule.dfa.step(sid, letter) for rule, sid in zip(self.rules, state.rule_states)
        )
        permits, prohibits = self.firing_sets(rule_states)
        cons = consistent(permits, prohibits)
        permitted = update_back(state.permitted, permits, prohibits, cons, self.back_alphabet)
        prohibited = update_in(state.prohibited, permits, prohibits, cons, self.in_alphabet)
        return AbstractState(permitted, prohibited, rule_states,
                             state.history_len + 1, not cons)

    def step(self, state: AbstractState, m: Message) -> StepResult:
        """One abstract transition.

        Back-messages must be permitted (unless outside the alphabet);
        prohibited in-messages transition to bad with the dis witness."""
        if m.is_dis():
            raise ValueError("abstract step consumes plain messages, not dis messages")
        if m.is_back():
            if m in self.alphabet_set and m not in state.permitted:
                return Blocked(m, state)
        else:
            if m in state.prohibited:
                return BadState(m.wrap_dis(), state)
        return self.advance(state, m)
