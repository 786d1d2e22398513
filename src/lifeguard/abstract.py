"""Abstract transition system over permitted-back and prohibited-in stores.

An abstract state summarizes the message history with one DFA state per
compiled rule instead of the explicit history, which keeps the reachable
state space finite.  Stepping a back-message requires it to be permitted
(else the step is BLOCKED); stepping an in-message that is prohibited is
BAD, a protocol violation.  Messages outside the ground alphabet
advance the rule DFAs through the OTHER letter and are never blocked.
Every rule steps by its DFA's OTHER column unless the letter is one of
its atoms, so a step maps each rule through that column and then patches
the few rules that mention the letter.

The engine interns every alphabet message as its index (its letter), and
a store is an int bitmask over letters: bit i is set iff alphabet[i] is in
the store.  The OTHER letter's bit lies outside both store masks, so OTHER
is never permitted, prohibited or blocked.  Messages are decoded back to
dataclasses only for reports (permitted_messages, prohibited_messages).
A state is the plain tuple (rule_states, permitted, prohibited,
inconsistent), so the explorer's visited set keys on the state itself.

The consistency check follows the set-disjointness reading: a step is
inconsistent when some message is simultaneously permitted and prohibited,
in which case the permitted store collapses to empty and the prohibited
store to the full in-message alphabet, exactly as the update formulas read.
"""

from __future__ import annotations

from functools import reduce
from operator import getitem, or_
from typing import FrozenSet, Iterable, Iterator, NamedTuple, Optional

from .grounding import CompiledRule, GroundSpec, compile_spec, letter_map
from .messages import Message


class AbstractState(NamedTuple):
    """The per-rule DFA states summarizing the history, the
    permitted-back and prohibited-in stores as letter bitmasks, and whether
    the last update was inconsistent.  The tuple is the state's identity:
    inconsistent is a function of rule_states alone, so it never tells two
    states apart that the other fields equate."""

    rule_states: tuple[int, ...]
    permitted: int
    prohibited: int
    inconsistent: bool = False


OK = "ok"
BLOCKED = "blocked"
BAD = "bad"


class StepEvent(NamedTuple):
    """One step of a fold: the position of the letter in the folded
    sequence, the outcome (OK, BLOCKED or BAD), the state the step started
    from, and for OK the successor state (None otherwise)."""

    index: int
    outcome: str
    before: AbstractState
    after: Optional[AbstractState]


class AbstractEngine:
    """Compiled ground spec plus the stepping fold shared by validation,
    verification and explain."""

    def __init__(self, ground: GroundSpec):
        self.rules = compile_spec(ground)
        self.alphabet = ground.alphabet
        self.letters = letter_map(ground.alphabet)
        self.other_letter = len(ground.alphabet)
        self.back_alphabet = ground.back_alphabet()
        self.in_alphabet = ground.in_alphabet()
        self.back_mask = sum(1 << self.letters[m] for m in self.back_alphabet)
        self.in_mask = sum(1 << self.letters[m] for m in self.in_alphabet)
        # Per shared DFA and local letter, the next state by state.
        dfas = {id(rule.dfa): rule.dfa for rule in self.rules}
        moves = {key: tuple(zip(*dfa.transitions)) for key, dfa in dfas.items()}
        self._other = tuple(moves[id(rule.dfa)][-1] for rule in self.rules)
        self._patches: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for i, rule in enumerate(self.rules):
            for move, letter in zip(moves[id(rule.dfa)], rule.columns):
                self._patches.setdefault(letter, []).append((i, move))
        # Per rule and DFA state, what the rule contributes to the firing
        # word: nothing where the state rejects; else its target bit, moved
        # above the other_letter + 1 permit bits for a prohibit rule.
        self._shift = self.other_letter + 1
        self._fire = tuple(_fire(rule, 0 if rule.is_permit() else self._shift)
                           for rule in self.rules)

    def letter(self, m: Message) -> int:
        return self.letters.get(m, self.other_letter)

    def intern(self, messages: Iterable[Message]) -> tuple[int, ...]:
        """Letters of the messages.  A dis message is interned as the
        in-message it wraps: folding it asks whether the spec predicts the
        violation (the step is BAD) or misses it (OK)."""
        return tuple(self.letter(m.unwrap() if m.is_dis() else m) for m in messages)

    def decode(self, mask: int) -> tuple[Message, ...]:
        """The alphabet messages whose bits are set, in alphabet order."""
        out = []
        while mask:
            low = mask & -mask
            out.append(self.alphabet[low.bit_length() - 1])
            mask ^= low
        return tuple(out)

    def permitted_messages(self, state: AbstractState) -> FrozenSet[Message]:
        return frozenset(self.decode(state.permitted))

    def prohibited_messages(self, state: AbstractState) -> FrozenSet[Message]:
        return frozenset(self.decode(state.prohibited))

    def fired_rules(self, rule_states: tuple[int, ...]) -> list[CompiledRule]:
        """The rules whose DFA accepts in rule_states, in rule order."""
        return [rule for rule, sid in zip(self.rules, rule_states)
                if rule.dfa.accepting[sid]]

    def firing_sets(self, rule_states: tuple[int, ...]) -> tuple[int, int]:
        """Target bits of the permit rules and of the prohibit rules whose
        DFA accepts the history summarized by rule_states."""
        # Few distinct contributions: deduplicate before OR-ing wide ints.
        fired = reduce(or_, set(map(getitem, self._fire, rule_states)), 0)
        return fired & ((1 << self._shift) - 1), fired >> self._shift

    def _update(self, rule_states: tuple[int, ...], permitted: int,
                prohibited: int) -> AbstractState:
        permits, prohibits = self.firing_sets(rule_states)
        if permits & prohibits:
            return AbstractState(rule_states, 0, self.in_mask, True)
        return AbstractState(rule_states,
                             (permitted | permits) & ~prohibits & self.back_mask,
                             (prohibited | prohibits) & ~permits & self.in_mask)

    def initial_state(self) -> AbstractState:
        """Start every rule DFA and evaluate the update functions on the
        empty history: the permitted store starts from all back-messages,
        the prohibited store from the empty set."""
        rule_states = tuple(rule.dfa.start for rule in self.rules)
        return self._update(rule_states, self.back_mask, 0)

    def advance(self, state: AbstractState, letter: int) -> AbstractState:
        """Advance rule DFAs by the letter and recompute the stores."""
        before = state.rule_states
        rule_states = list(map(getitem, self._other, before))
        for i, move in self._patches.get(letter, ()):
            rule_states[i] = move[before[i]]
        return self._update(tuple(rule_states), state.permitted, state.prohibited)

    def fold(self, state: AbstractState, letters: Iterable[int]) -> Iterator[StepEvent]:
        """Step through the letters from state, one event per letter; the
        fold ends after the first BLOCKED or BAD event."""
        for index, letter in enumerate(letters):
            bit = 1 << letter
            if bit & self.back_mask & ~state.permitted:
                yield StepEvent(index, BLOCKED, state, None)
                return
            if bit & state.prohibited:
                yield StepEvent(index, BAD, state, None)
                return
            after = self.advance(state, letter)
            yield StepEvent(index, OK, state, after)
            state = after


def _fire(rule: CompiledRule, shift: int) -> tuple[int, ...]:
    bit = rule.target_bit << shift
    return tuple(bit if accepting else 0 for accepting in rule.dfa.accepting)
