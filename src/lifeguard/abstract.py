"""Abstract transition system over permitted-back and prohibited-in stores.

An abstract state summarizes the message history with one DFA state per
compiled rule instead of the explicit history, which keeps the reachable
state space finite.  Stepping a back-message requires it to be permitted
(else the step is BLOCKED); stepping an in-message that is prohibited is
BAD, a protocol violation.  Messages outside the ground alphabet
advance the rule DFAs through the OTHER letter and are never blocked.

A rule whose DFA state is fixed under OTHER and not accepting is at rest:
an unrelated letter leaves it where it is, and it adds nothing to the
firing word.  Almost every rule is at rest almost all the time, so a
state keeps the sorted indices of the rules that are not (live), and a
step moves only the live rules by OTHER and the few rules whose atoms
include the letter by their own columns.  The firing word is ORed over
the live rules only.  A step therefore costs what the letter and the
history touch, not the number of ground rules.

The engine interns every alphabet message as its index (its letter), and
a store is an int bitmask over letters: bit i is set iff alphabet[i] is in
the store.  The OTHER letter's bit lies outside both store masks, so OTHER
is never permitted, prohibited or blocked.  Messages are decoded back to
dataclasses only for reports (decode).
Every rule's DFA state is packed into one int, w bits per rule (w fits
the largest state index of any DFA), so a step XOR-patches the rules it
moved and a state copies and hashes in one int.  A state is the plain
tuple (rule_states, live, permitted, prohibited, inconsistent), so the
explorer's visited set keys on the state itself.

The consistency check follows the set-disjointness reading: a step is
inconsistent when some message is simultaneously permitted and prohibited,
in which case the permitted store collapses to empty and the prohibited
store to the full in-message alphabet, exactly as the update formulas read.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .grounding import CompiledRule, GroundSpec, compile_spec, letter_map
from .messages import Message


class AbstractState(NamedTuple):
    """The packed per-rule DFA states summarizing the history (rule i's
    state in bits [i*w, (i+1)*w) of rule_states), the sorted indices of
    the rules not at rest, the permitted-back and prohibited-in stores as
    letter bitmasks, and whether the last update was inconsistent.  The
    tuple is the state's identity: live and inconsistent are functions of
    rule_states alone, so they never tell two states apart that the other
    fields equate."""

    rule_states: int
    live: tuple[int, ...]
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
        # Per shared DFA and local letter, the next state by state; per
        # shared DFA and state, whether a rule there is at rest.
        dfas = {id(rule.dfa): rule.dfa for rule in self.rules}
        moves = {key: tuple(zip(*dfa.transitions)) for key, dfa in dfas.items()}
        rest = {key: tuple(other == sid and not accepting for sid, (other, accepting)
                           in enumerate(zip(moves[key][-1], dfa.accepting)))
                for key, dfa in dfas.items()}
        self._width = max([(dfa.n_states - 1).bit_length() for dfa in dfas.values()] + [1])
        self._state_mask = (1 << self._width) - 1
        self._other = tuple(moves[id(rule.dfa)][-1] for rule in self.rules)
        # Per rule, the state it must be in when not live and when live:
        # its DFA's one rest state and its one busy state, or None where
        # the DFA has several and the packed word must be read.
        known = {key: (_only([sid for sid, r in enumerate(at_rest) if r]),
                       _only([sid for sid, r in enumerate(at_rest) if not r]))
                 for key, at_rest in rest.items()}
        self._known = tuple(known[id(rule.dfa)] for rule in self.rules)
        self._patches: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for i, rule in enumerate(self.rules):
            for move, letter in zip(moves[id(rule.dfa)], rule.columns):
                self._patches.setdefault(letter, []).append((i, move))
        # Per rule and DFA state, what the rule contributes to the firing
        # word: None where the rule is at rest; 0 where the state rejects;
        # else its target bit, moved above the other_letter + 1 permit bits
        # for a prohibit rule.
        self._shift = self.other_letter + 1
        self._permit_bits = (1 << self._shift) - 1
        self._fire = tuple(_fire(rule, 0 if rule.is_permit() else self._shift,
                                 rest[id(rule.dfa)])
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

    def rule_state(self, state: AbstractState, i: int) -> int:
        """Rule i's DFA state in state."""
        return (state.rule_states >> i * self._width) & self._state_mask

    def fired_rules(self, state: AbstractState) -> list[CompiledRule]:
        """The rules whose DFA accepts in state, in rule order."""
        return [self.rules[i] for i in state.live
                if self.rules[i].dfa.accepting[self.rule_state(state, i)]]

    def _update(self, word: int, moved: dict[int, int], permitted: int,
                prohibited: int) -> AbstractState:
        """The state with packed rule states word, where moved holds the DFA
        state of every rule that may be busy (every other rule is at rest):
        live and the firing word are read off moved alone."""
        fire, live, fired = self._fire, [], 0
        for i, sid in moved.items():
            contribution = fire[i][sid]
            if contribution is not None:
                live.append(i)
                fired |= contribution
        live.sort()
        if not fired:
            # Nothing fires: the stores carry over unchanged.
            return AbstractState(word, tuple(live), permitted, prohibited)
        permits, prohibits = fired & self._permit_bits, fired >> self._shift
        if permits & prohibits:
            return AbstractState(word, tuple(live), 0, self.in_mask, True)
        return AbstractState(word, tuple(live),
                             (permitted | permits) & ~prohibits & self.back_mask,
                             (prohibited | prohibits) & ~permits & self.in_mask)

    def initial_state(self) -> AbstractState:
        """Start every rule DFA and evaluate the update functions on the
        empty history: the permitted store starts from all back-messages,
        the prohibited store from the empty set."""
        starts = {i: rule.dfa.start for i, rule in enumerate(self.rules)}
        word = sum(sid << i * self._width for i, sid in starts.items() if sid)
        return self._update(word, starts, self.back_mask, 0)

    def advance(self, state: AbstractState, letter: int) -> AbstractState:
        """Advance the rules that mention the letter by its column and the
        other live rules by OTHER, XOR-patch the changes into the packed
        word, then recompute the stores.  Every other rule is at rest and
        stays where it is."""
        packed, width, mask, live = state.rule_states, self._width, self._state_mask, state.live
        known, moved, delta = self._known, {}, 0
        for i, move in self._patches.get(letter, ()):
            sid = known[i][i in live]
            if sid is None:
                sid = (packed >> i * width) & mask
            new = moved[i] = move[sid]
            if new != sid:
                delta |= (new ^ sid) << i * width
        for i in live:
            if i not in moved:
                sid = known[i][True]
                if sid is None:
                    sid = (packed >> i * width) & mask
                new = moved[i] = self._other[i][sid]
                if new != sid:
                    delta |= (new ^ sid) << i * width
        return self._update(packed ^ delta, moved, state.permitted, state.prohibited)

    # Verification alone reads the rest of the engine, so it is built on
    # first use.

    @cached_property
    def _fixed(self) -> tuple[frozenset[int], ...]:
        """Per rule, the DFA states fixed under OTHER, where it sits in a
        settled state."""
        fixed: dict[int, frozenset[int]] = {}
        for other in self._other:  # one tuple per shared DFA
            if id(other) not in fixed:
                fixed[id(other)] = frozenset(sid for sid, to in enumerate(other) if to == sid)
        return tuple(fixed[id(other)] for other in self._other)

    @cached_property
    def _steady(self) -> dict[int, int]:
        """Per rule whose DFA accepts in a state fixed under OTHER (steady),
        what it fires there at every step."""
        return {i: _word(self._fire[i], fixed) for i, (rule, fixed)
                in enumerate(zip(self.rules, self._fixed))
                if any(rule.dfa.accepting[sid] for sid in fixed)}

    def settled(self, state: AbstractState) -> bool:
        """The last update was consistent and no rule moves under OTHER,
        so a letter leaves every rule outside its patches where it is."""
        return not state.inconsistent and all(
            self.rule_state(state, i) in self._fixed[i] for i in state.live)

    def footprint(self, letters: Sequence[int]) -> Optional[tuple[int, int, int, int]]:
        """What folding the letters from any settled state can touch: the
        mask of rules the letters move, the mask of letters whose store
        bits the steps read, and the permit and prohibit target bits of the
        moved rules.  Each moved rule is followed from every DFA state
        fixed under OTHER.  None where the fold may end with a moved rule
        that moves under OTHER or take an inconsistent step, since then it
        reaches rules or store bits outside these masks."""
        columns: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        reads = 0
        for k, letter in enumerate(letters):
            reads |= 1 << letter
            for i, move in self._patches.get(letter, ()):
                columns.setdefault(i, []).append((k, move))
        moved = permits = prohibits = steady = 0
        for i in columns:
            moved |= 1 << i
            if self.rules[i].is_permit():
                permits |= self.rules[i].target_bit
            else:
                prohibits |= self.rules[i].target_bit
        for i, word in self._steady.items():
            if not moved >> i & 1:
                steady |= word  # an unmoved steady rule fires at every step
        steady_permits, steady_prohibits = steady & self._permit_bits, steady >> self._shift
        # Per step, what the moved rules may fire, where a moved rule fires
        # a target one way and some rule the other.
        words = [0] * len(letters) if (permits & (prohibits | steady_prohibits)
                                       or prohibits & steady_permits) else []
        for i, moved_at in columns.items():
            if not self._settle(i, moved_at, len(letters), words):
                return None
        for word in words:
            fired_permits, fired_prohibits = word & self._permit_bits, word >> self._shift
            if fired_permits & (fired_prohibits | steady_prohibits) or \
                    fired_prohibits & steady_permits:
                return None
        return moved, reads & (self.back_mask | self.in_mask), permits, prohibits

    def _settle(self, i: int, moved_at: list[tuple[int, tuple[int, ...]]], n: int,
                words: list[int]) -> bool:
        """Follow rule i from every state fixed under OTHER through n
        letters that move it at moved_at and by OTHER elsewhere, ORing into
        words (if any) what it may fire at each step: whether it ends fixed
        under OTHER."""
        other, fire = self._other[i], self._fire[i]
        states, k = self._fixed[i], 0
        for column, move in moved_at + [(n, None)]:
            while k < column and (words or any(other[s] != s for s in states)):
                states = {other[sid] for sid in states}
                if words:
                    words[k] |= _word(fire, states)
                k += 1
            if move is not None:
                states, k = {move[sid] for sid in states}, column + 1
                if words:
                    words[column] |= _word(fire, states)
        return all(other[s] == s for s in states)

    def fold(self, state: AbstractState, letters: Iterable[int]) -> Iterator[StepEvent]:
        """Step through the letters from state, one event per letter; the
        fold ends after the first BLOCKED or BAD event."""
        for index, letter in enumerate(letters):
            bit = 1 << letter
            if bit & self.back_mask and not bit & state.permitted:
                yield StepEvent(index, BLOCKED, state, None)
                return
            if bit & state.prohibited:
                yield StepEvent(index, BAD, state, None)
                return
            after = self.advance(state, letter)
            yield StepEvent(index, OK, state, after)
            state = after


def _fire(rule: CompiledRule, shift: int, rest: tuple[bool, ...]
          ) -> tuple[Optional[int], ...]:
    bit = rule.target_bit << shift
    return tuple(None if at_rest else bit if accepting else 0
                 for accepting, at_rest in zip(rule.dfa.accepting, rest))


def _word(fire: tuple[Optional[int], ...], states: Iterable[int]) -> int:
    """What a rule fires in any of the states."""
    word = 0
    for sid in states:
        word |= fire[sid] or 0
    return word


def _only(states: list[int]) -> Optional[int]:
    return states[0] if len(states) == 1 else None
