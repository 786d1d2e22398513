"""The frozenset abstract engine, validator and BFS verifier that the
interned-integer engine replaced, kept as the oracle for differential tests.

Stores are frozensets of Message dataclasses rebuilt over the whole back
or in alphabet at every step; the validator records blame at every step;
the verifier carries the unit path and the full message history in every
queue entry.  They share the compiled rule DFAs with lifeguard.abstract but
step through each rule's table laid out over the whole alphabet, so a
disagreement points at the per-letter rule index, the store
representation, the stepping fold or the search bookkeeping."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, Sequence

from lifeguard.dfa import Dfa
from lifeguard.grounding import CompiledRule, compile_spec, ground_spec, letter_map
from lifeguard.messages import Message, Trace, is_violation
from lifeguard.rules import matcher_atoms
from lifeguard.validation import ValidationReport
from lifeguard.verification import (
    Safe,
    Unknown,
    Violation,
    parse_mode,
    split_subtraces,
)


def laid_out(rule: CompiledRule, n_letters: int) -> Dfa:
    """The rule's shared local DFA as a table over all n_letters global
    letters: every column starts as the OTHER column, then each atom's
    column is copied to its global letter."""
    transitions = []
    for local_row in rule.dfa.transitions:
        row = [local_row[-1]] * n_letters
        for column, target in zip(rule.columns, local_row):
            row[column] = target
        transitions.append(tuple(row))
    return Dfa(n_letters, tuple(transitions), rule.dfa.accepting, rule.dfa.start)


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
class RefState:
    permitted: FrozenSet[Message]
    prohibited: FrozenSet[Message]
    rule_states: tuple[int, ...]
    inconsistent: bool = False


class ReferenceEngine:
    """Frozenset stores over the ground spec's compiled rules, stepped
    through their laid-out tables."""

    def __init__(self, ground):
        self.rules = compile_spec(ground)
        self.tables = tuple(laid_out(rule, len(ground.alphabet) + 1) for rule in self.rules)
        self.letters = letter_map(ground.alphabet)
        self.other_letter = len(ground.alphabet)
        self.back_alphabet = ground.back_alphabet()
        self.in_alphabet = ground.in_alphabet()
        self.alphabet_set = frozenset(ground.alphabet)

    def firing_sets(self, rule_states):
        permits, prohibits = set(), set()
        for rule, sid in zip(self.rules, rule_states):
            if rule.dfa.accepting[sid]:
                (permits if rule.is_permit() else prohibits).add(rule.target)
        return frozenset(permits), frozenset(prohibits)

    def fired_source_indices(self, rule_states):
        """Per target message, the source indices of the accepting rules
        with that target, in rule order."""
        by_target = {}
        for rule, sid in zip(self.rules, rule_states):
            if rule.dfa.accepting[sid]:
                by_target.setdefault(rule.target, []).append(rule.source_index)
        return by_target

    def _update(self, rule_states, permitted, prohibited):
        permits, prohibits = self.firing_sets(rule_states)
        cons = consistent(permits, prohibits)
        return RefState(update_back(permitted, permits, prohibits, cons, self.back_alphabet),
                        update_in(prohibited, permits, prohibits, cons, self.in_alphabet),
                        rule_states, not cons)

    def initial_state(self) -> RefState:
        rule_states = tuple(rule.dfa.start for rule in self.rules)
        return self._update(rule_states, frozenset(self.back_alphabet), frozenset())

    def step(self, state: RefState, m: Message):
        """("blocked", None), ("bad", None) or ("ok", successor).  Messages
        outside the alphabet advance the DFAs by OTHER and never block."""
        if m.is_back():
            if m in self.alphabet_set and m not in state.permitted:
                return ("blocked", None)
        elif m in state.prohibited:
            return ("bad", None)
        letter = self.letters.get(m, self.other_letter)
        rule_states = tuple(table.transitions[sid][letter]
                            for table, sid in zip(self.tables, state.rule_states))
        return ("ok", self._update(rule_states, state.permitted, state.prohibited))


def fold_step(engine, state, m):
    """One step of the integer engine's fold on a plain message, shaped like
    ReferenceEngine.step: ("ok", successor), ("blocked", None) or
    ("bad", None)."""
    event = next(engine.fold(state, engine.intern((m,))))
    return event.outcome, event.after


def reference_validate(spec, trace) -> ValidationReport:
    """Fold the frozenset step over the trace, noting after every step which
    rules last fired for each target (the blame for a later failure)."""
    ground = ground_spec(spec, trace)
    engine = ReferenceEngine(ground)
    rule_messages = set()
    for rule in ground.rules:
        rule_messages.add(rule.target)
        rule_messages.update(atom.to_message() for atom in matcher_atoms(rule.matcher))
    state = engine.initial_state()
    last_touch = {}
    filtered = 0
    inconsistent_at = []
    total = len(trace.messages)

    def note_firings(step_index):
        for target, indices in engine.fired_source_indices(state.rule_states).items():
            last_touch[target] = tuple(indices)
        if state.inconsistent:
            inconsistent_at.append(step_index)

    def invalid(i, m, blamed, reason):
        return ValidationReport(False, i, filtered, total, blocking_message=m,
                                blocking_permitted=state.permitted,
                                blocking_prohibited=state.prohibited,
                                last_firing_rules=last_touch.get(blamed, ()),
                                reason=reason, inconsistency_steps=tuple(inconsistent_at))

    note_firings(0)
    for i, m in enumerate(trace.messages):
        if m.is_dis():
            inner = m.unwrap()
            if inner in state.prohibited:
                filtered += inner in rule_messages
                return ValidationReport(True, total, filtered, total,
                                        inconsistency_steps=tuple(inconsistent_at))
            return invalid(i, m, inner, "missed violation: the spec permits the recorded dis step")
        outcome, after = engine.step(state, m)
        if outcome == "blocked":
            return invalid(i, m, m, "back-message not permitted")
        if outcome == "bad":
            return invalid(i, m, m, "predicted violation not observed: in-message is prohibited")
        state = after
        filtered += m in rule_messages
        note_firings(i + 1)
    return ValidationReport(True, total, filtered, total,
                            inconsistency_steps=tuple(inconsistent_at))


def reference_verify(spec, trace, mode="exhaustive", state_cap=5_000_000):
    """Breadth-first search over unit boundaries with the path and message
    history in every queue entry: the verifier as it was before parent
    pointers and integer stores."""
    if is_violation(trace):
        return Violation(witness=trace, subtrace_sequence=(), states_explored=0)
    bound = parse_mode(mode)
    units = split_subtraces(trace)
    engine = ReferenceEngine(ground_spec(spec, trace))
    init = engine.initial_state()
    visited = {init}
    queue = deque([(init, 0, (), ())])
    explored = 0
    depth_reached = 0
    opened_units = set()
    truncated = False
    while queue:
        state, depth, path, history = queue.popleft()
        if bound is not None and depth >= bound:
            if any(u.opening() in state.permitted for u in units):
                truncated = True
            continue
        explored += 1
        for unit in units:
            opening = unit.opening()
            if opening in engine.alphabet_set and opening not in state.permitted:
                continue
            opened_units.add(unit.index)
            nxt, consumed, outcome = state, [], "ok"
            for m in unit.messages:
                outcome, after = engine.step(nxt, m)
                if outcome != "ok":
                    break
                consumed.append(m)
                nxt = after
            if outcome == "bad":
                witness = history + tuple(consumed) + (m.wrap_dis(),)
                return Violation(Trace(witness), path + (unit.index,), explored)
            if outcome == "blocked":
                continue
            if nxt not in visited:
                if len(visited) >= state_cap:
                    return Unknown(False, explored, f"state cap {state_cap} exceeded",
                                   depth_reached, len(queue))
                visited.add(nxt)
                depth_reached = depth + 1
                queue.append((nxt, depth + 1, path + (unit.index,), history + unit.messages))
    unreachable = tuple(u.index for u in units if u.index not in opened_units)
    if truncated:
        return Unknown(True, explored, "unit bound reached before closing the state space",
                       depth_reached, len(queue))
    return Safe(explored, len(visited), unreachable)
