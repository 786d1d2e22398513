"""Abstract transition system over permitted-back and prohibited-in stores.

An abstract state summarizes the message history with one DFA state per
compiled rule instead of the explicit history, which keeps the reachable
state space finite.  Stepping a back-message requires it to be permitted
(else the step is BLOCKED); stepping an in-message that is prohibited is
BAD, a protocol violation.  Messages outside the ground alphabet
advance the rule DFAs through the OTHER letter and are never blocked.

A rule whose DFA state is fixed under OTHER and not accepting is at rest:
an unrelated letter leaves it where it is, and it fires nothing.  Almost
every rule is at rest almost all the time, so a state keeps the sorted
indices of the rules that are not (live), and a step moves only the live
rules by OTHER and the few rules whose atoms include the letter by their
own columns.  A step ORs the target letter's bit of each live rule that
fires into its permits or its prohibits, so it costs what the letter and
the history touch, not the number of ground rules.  What a step reads of
a DFA is laid out once per DFA that rules share, in one _Table, and per
rule the engine keeps small ints: its memory is O(rules + alphabet).

The engine numbers the alphabet once, each message as its index (its
letter), and compiles the rules against that numbering.  A store is an
int bitmask over letters: bit i is set iff alphabet[i] is in the store,
and the back and in masks are the alphabet's letters of each kind.  The
OTHER letter's bit lies outside both, so OTHER is never permitted,
prohibited or blocked.  Messages are decoded back to Message records
only for reports (decode).
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

from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .dfa import Dfa, check_deadline
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
    verification and explain.  compile_spec and the loop that files the
    rules under their letters read the deadline every 1,024 rules."""

    def __init__(self, ground: GroundSpec, deadline: Optional[float] = None):
        self.alphabet = ground.alphabet
        self.letters = letter_map(ground.alphabet)
        self.rules = compile_spec(ground, self.letters, deadline)
        self.other_letter = len(ground.alphabet)
        self.back_mask = self.in_mask = 0
        for letter, m in enumerate(ground.alphabet):
            if m.is_back():
                self.back_mask |= 1 << letter
            elif m.is_in():
                self.in_mask |= 1 << letter
        dfas = {id(rule.dfa): rule.dfa for rule in self.rules}
        tables = {key: _table(dfa) for key, dfa in dfas.items()}
        self._tables = tuple(tables[id(rule.dfa)] for rule in self.rules)
        self._width = max([(len(t.fire) - 1).bit_length() for t in tables.values()] + [1])
        self._state_mask = (1 << self._width) - 1
        # advance reads these two per rule at every step, and _update the
        # next three.
        self._other = tuple(t.columns[-1] for t in self._tables)
        self._known = tuple(t.known for t in self._tables)
        self._fire = tuple(t.fire for t in self._tables)
        self._targets = tuple(rule.letter for rule in self.rules)
        self._permit = tuple(rule.is_permit() for rule in self.rules)
        # The rules that accept in a state fixed under OTHER, where they fire
        # at every step.
        self._steady = [i for i, t in enumerate(self._tables) if t.steady]
        # Per letter, the rules it moves by their own column.
        self._patches: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        for i, (rule, table) in enumerate(zip(self.rules, self._tables)):
            if i & 1023 == 1023:
                check_deadline(deadline, "building the engine")
            for move, letter in zip(table.columns, rule.columns):
                self._patches.setdefault(letter, []).append((i, move))

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
        live and what fires are read off moved alone."""
        fire, targets, permit = self._fire, self._targets, self._permit
        live, permits, prohibits = [], 0, 0
        for i, sid in moved.items():
            accepts = fire[i][sid]
            if accepts is not None:
                live.append(i)
                if accepts and permit[i]:
                    permits |= 1 << targets[i]
                elif accepts:
                    prohibits |= 1 << targets[i]
        live.sort()
        if not (permits or prohibits):
            # Nothing fires: the stores carry over unchanged.
            return AbstractState(word, tuple(live), permitted, prohibited)
        if permits & prohibits:
            return AbstractState(word, tuple(live), 0, self.in_mask, True)
        return AbstractState(word, tuple(live),
                             (permitted | permits) & ~prohibits & self.back_mask,
                             (prohibited | prohibits) & ~permits & self.in_mask)

    def initial_state(self) -> AbstractState:
        """Start every rule DFA in state 0 and evaluate the update functions
        on the empty history: the permitted store starts from all back-messages,
        the prohibited store from the empty set."""
        return self._update(0, dict.fromkeys(range(len(self.rules)), 0), self.back_mask, 0)

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

    def settled(self, state: AbstractState) -> bool:
        """The last update was consistent and no rule moves under OTHER,
        so a letter leaves every rule outside its patches where it is."""
        return not state.inconsistent and all(
            self.rule_state(state, i) in self._tables[i].fixed for i in state.live)

    def footprint(self, letters: Sequence[int]) -> Optional[tuple[int, int, int, int]]:
        """What folding the letters from any settled state can touch: the
        mask of rules the letters move, the mask of letters whose store
        bits the steps read, and the permit and prohibit target bits of the
        moved rules.  Each moved rule is followed from every DFA state
        fixed under OTHER.  None where the fold may end with a moved rule
        that moves under OTHER or take an inconsistent step, since then it
        reaches rules or store bits outside these masks."""
        columns: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        reads = moved = 0
        for k, letter in enumerate(letters):
            reads |= 1 << letter
            for i, move in self._patches.get(letter, ()):
                moved |= 1 << i
                columns.setdefault(i, []).append((k, move))
        permits, prohibits = self._fired(columns)
        # An unmoved steady rule fires at every step.
        steady_permits, steady_prohibits = self._fired(
            i for i in self._steady if not moved >> i & 1)
        # Per step, the targets the moved rules may fire each way, where a
        # moved rule fires a target one way and some rule the other.
        n = len(letters) if (permits & (prohibits | steady_prohibits)
                             or prohibits & steady_permits) else 0
        fired_permits, fired_prohibits = [0] * n, [0] * n
        for i, moved_at in columns.items():
            words = fired_permits if self._permit[i] else fired_prohibits
            if not self._settle(i, moved_at, len(letters), words):
                return None
        for fired_permit, fired_prohibit in zip(fired_permits, fired_prohibits):
            if fired_permit & (fired_prohibit | steady_prohibits) or \
                    fired_prohibit & steady_permits:
                return None
        return moved, reads & (self.back_mask | self.in_mask), permits, prohibits

    def _fired(self, rules: Iterable[int]) -> tuple[int, int]:
        """The target bits the rules fire, permits and prohibits apart."""
        permits = prohibits = 0
        for i in rules:
            if self._permit[i]:
                permits |= 1 << self._targets[i]
            else:
                prohibits |= 1 << self._targets[i]
        return permits, prohibits

    def _settle(self, i: int, moved_at: list[tuple[int, tuple[int, ...]]], n: int,
                words: list[int]) -> bool:
        """Follow rule i from every state fixed under OTHER through n
        letters that move it at moved_at and by OTHER elsewhere, ORing its
        target bit into words (if any) at each step where it may fire:
        whether it ends fixed under OTHER."""
        other, fire, bit = self._other[i], self._fire[i], 1 << self._targets[i]
        states, k = self._tables[i].fixed, 0
        for column, move in moved_at + [(n, None)]:
            while k < column and (words or any(other[s] != s for s in states)):
                states = {other[sid] for sid in states}
                if words and any(fire[sid] for sid in states):
                    words[k] |= bit
                k += 1
            if move is not None:
                states, k = {move[sid] for sid in states}, column + 1
                if words and any(fire[sid] for sid in states):
                    words[column] |= bit
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


class _Table(NamedTuple):
    """One shared DFA as the engine reads it: per local letter (OTHER last)
    the next state by state, the states fixed under OTHER, per state None
    where a rule there is at rest and else whether it fires its target
    (the state accepts), the one rest and the one busy state (each None
    unless there is exactly one), and whether a fixed state accepts."""

    columns: tuple[tuple[int, ...], ...]
    fixed: frozenset[int]
    fire: tuple[Optional[bool], ...]
    known: tuple[Optional[int], Optional[int]]
    steady: bool


def _table(dfa: Dfa) -> _Table:
    columns = tuple(zip(*dfa.transitions))
    fixed = frozenset(sid for sid, to in enumerate(columns[-1]) if to == sid)
    fire = tuple(None if sid in fixed and not accepting else accepting
                 for sid, accepting in enumerate(dfa.accepting))
    resting = [sid for sid, fires in enumerate(fire) if fires is None]
    busy = [sid for sid, fires in enumerate(fire) if fires is not None]
    known = tuple(states[0] if len(states) == 1 else None for states in (resting, busy))
    return _Table(columns, fixed, fire, known, any(dfa.accepting[sid] for sid in fixed))

