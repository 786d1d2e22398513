"""The oracles that the differential tests check the package against.

- The frozenset abstract engine, validator and BFS verifier that the
  interned-integer engine replaced.  Stores are frozensets of Message
  dataclasses rebuilt over the whole back or in alphabet at every step;
  the validator records blame at every step; the verifier carries the unit
  path and the full message history in every queue entry.  They share the
  compiled rule DFAs with lifeguard.abstract but step through each rule's
  table laid out over the whole alphabet, so a disagreement points at the
  per-letter rule index, the store representation, the stepping fold or
  the search bookkeeping.
- brute_force_verify, which enumerates unit sequences explicitly and
  replays each through the frozenset engine, so it checks the explorer
  and the integer engine together.
- matches, the whole-history semantics of a matcher, and accepts, which
  runs a DFA on a word: the definitions that compiled DFAs are checked
  against."""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional, Sequence, Union

from lifeguard.dfa import Dfa
from lifeguard.grounding import CompiledRule, compile_spec, ground_spec, letter_map
from lifeguard.messages import Message, Trace, is_violation
from lifeguard.rules import (
    Binding,
    LifestateSpec,
    MAny,
    MAtom,
    MConcat,
    MEmpty,
    MEps,
    MIntersect,
    MNegate,
    MStar,
    MUnion,
    Matcher,
    apply_binding,
    matcher_atoms,
)
from lifeguard.validation import ValidationReport
from lifeguard.verification import (
    Safe,
    Unknown,
    Violation,
    VerificationResult,
    parse_mode,
    split_subtraces,
)


def matches(trace: Union[Trace, Sequence[Message]], binding: Binding, matcher: Matcher) -> bool:
    """Whole-history matching: does the entire message sequence satisfy the
    matcher under the binding?

    Atoms match a single message by substitution equality; complement and
    intersection are evaluated directly on each segment, which coincides
    with language complement/intersection over any alphabet containing the
    trace's messages."""
    word: Sequence[Message] = trace.messages if isinstance(trace, Trace) else tuple(trace)
    memo: dict[tuple[int, int, int], bool] = {}
    nodes: dict[int, Matcher] = {}

    def seg(i: int, j: int, m: Matcher) -> bool:
        key = (i, j, id(m))
        nodes[id(m)] = m
        hit = memo.get(key)
        if hit is not None:
            return hit
        memo[key] = False  # cycle guard for star
        if isinstance(m, MAtom):
            # A trace message is ground, so an atom left with a variable differs.
            out = j == i + 1 and apply_binding(binding, m.message) == word[i]
        elif isinstance(m, MAny):
            out = j == i + 1
        elif isinstance(m, MEps):
            out = i == j
        elif isinstance(m, MEmpty):
            out = False
        elif isinstance(m, MConcat):
            out = any(seg(i, k, m.left) and seg(k, j, m.right) for k in range(i, j + 1))
        elif isinstance(m, MUnion):
            out = seg(i, j, m.left) or seg(i, j, m.right)
        elif isinstance(m, MIntersect):
            out = seg(i, j, m.left) and seg(i, j, m.right)
        elif isinstance(m, MNegate):
            out = not seg(i, j, m.inner)
        elif isinstance(m, MStar):
            if i == j:
                out = True
            else:
                out = any(seg(i, k, m.inner) and seg(k, j, m) for k in range(i + 1, j + 1))
        else:
            raise TypeError(f"unknown matcher {type(m).__name__}")
        memo[key] = out
        return out

    return seg(0, len(word), matcher)


def accepts(dfa: Dfa, word: Iterable[int]) -> bool:
    """Does the DFA, run from its start state, accept the word of letters?"""
    state = dfa.start
    for letter in word:
        state = dfa.transitions[state][letter]
    return dfa.accepting[state]


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
    back_alphabet: Iterable[Message],
) -> FrozenSet[Message]:
    """New permitted-back store: on inconsistency nothing is permitted;
    otherwise a back-message survives if it is not prohibited and is either
    freshly permitted or was already in the store."""
    if not is_consistent:
        return frozenset()
    return ((permits | permitted) - prohibits).intersection(back_alphabet)


def update_in(
    prohibited: FrozenSet[Message],
    permits: FrozenSet[Message],
    prohibits: FrozenSet[Message],
    is_consistent: bool,
    in_alphabet: Iterable[Message],
) -> FrozenSet[Message]:
    """New prohibited-in store: on inconsistency every in-message is
    prohibited (the implication is vacuous); otherwise an in-message is
    prohibited if it is not permitted and is either freshly prohibited or
    was already in the store."""
    if not is_consistent:
        return frozenset(in_alphabet)
    return ((prohibits | prohibited) - permits).intersection(in_alphabet)


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
        self.back_alphabet = frozenset(ground.back_alphabet())
        self.in_alphabet = frozenset(ground.in_alphabet())
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
        return self._update(rule_states, self.back_alphabet, frozenset())

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


def unpacked(engine, state) -> tuple[int, ...]:
    """The integer engine's packed rule word as one DFA state per rule, in
    rule order: the shape of RefState.rule_states."""
    return tuple(engine.rule_state(state, i) for i in range(len(engine.rules)))


def full_scan(engine, state) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Scan every rule of the integer engine's state: the indices of the
    rules not at rest (their DFA state moves under OTHER or accepts) and
    the indices of the accepting rules.  These are what the engine's live
    field and fired_rules read off the live rules alone."""
    live, accepting = [], []
    for i, (rule, sid) in enumerate(zip(engine.rules, unpacked(engine, state))):
        if rule.dfa.transitions[sid][-1] != sid or rule.dfa.accepting[sid]:
            live.append(i)
        if rule.dfa.accepting[sid]:
            accepting.append(i)
    return tuple(live), tuple(accepting)


def fold_step(engine, state, m):
    """One step of the integer engine's fold on a plain message, shaped like
    ReferenceEngine.step: ("ok", successor), ("blocked", None) or
    ("bad", None)."""
    event = next(engine.fold(state, engine.intern((m,))))
    return event.outcome, event.after


def reference_validate(spec, trace, ground=None) -> ValidationReport:
    """Fold the frozenset step over the trace, noting after every step which
    rules last fired for each target (the blame for a later failure).  The
    engine is built from ground, by default the full grounding; the
    spec-relevant count is always the full grounding's, and the blocking
    stores show only messages that occur in the trace."""
    full = ground_spec(spec, trace)
    engine = ReferenceEngine(ground or full)
    seen = frozenset(m.unwrap() if m.is_dis() else m for m in trace.messages)
    rule_messages = set()
    for rule in full.rules:
        rule_messages.add(rule.target)
        rule_messages.update(matcher_atoms(rule.matcher))
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
                                blocking_permitted=state.permitted & seen,
                                blocking_prohibited=state.prohibited & seen,
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


def reference_verify(spec, trace, mode="exhaustive", state_cap=5_000_000, ground=None):
    """Breadth-first search over unit boundaries with the path and message
    history in every queue entry: the verifier as it was before parent
    pointers and integer stores, over ground (by default the full
    grounding)."""
    if is_violation(trace):
        return Violation(witness=trace, subtrace_sequence=(), states_explored=0)
    bound = parse_mode(mode)
    units = split_subtraces(trace)
    engine = ReferenceEngine(ground or ground_spec(spec, trace))
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
            if any(u.messages[0] in state.permitted for u in units):
                truncated = True
            continue
        explored += 1
        for unit in units:
            opening = unit.messages[0]
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


# Bounded verify is exact BFS.  Past the depth of every state space the
# tests build (a few dozen units at most), it explores what exhaustive
# exact BFS explores; a deeper space would end in Unknown, not pass.
EXACT = "bounded:64"


def agrees_with_exact(reduced: VerificationResult, exact: VerificationResult) -> bool:
    """The exhaustive (reduced) search against exact BFS: the same verdict;
    a Violation byte-identical, states explored included; a Safe with the
    same unreachable units and at most the exact state and certificate
    counts."""
    if type(reduced) is not type(exact):
        return False
    if isinstance(exact, Safe):
        return (reduced.unreachable_units == exact.unreachable_units
                and reduced.states_explored <= exact.states_explored
                and reduced.certificate_size <= exact.certificate_size)
    return reduced == exact


class VerificationTimeout(Exception):
    pass


def brute_force_verify(
    spec: LifestateSpec,
    trace: Trace,
    k: int,
    timeout: Optional[float] = None,
    ground=None,
) -> VerificationResult:
    """Enumerate every sequence of up to k units explicitly, shortest first
    and then in index order, and replay each through the frozenset
    reference step.  A sequence goes on from the state in which its prefix
    one unit shorter ended; states are never compared, so no sequence is
    pruned as already seen, as verify prunes revisited states.  It shares
    no stepping code with verify, so it checks the explorer and the
    integer engine together.

    Agrees with bounded verification on the violation verdict at depth k;
    sequences interrupted by a blocked back-message are unrealizable and
    skipped, with every longer sequence they start.  The engine is built
    from ground, by default the sliced grounding that verify uses.  The
    deadline counts from entry, so grounding spends it too."""
    deadline = time.monotonic() + timeout if timeout is not None else None
    if is_violation(trace):
        return Violation(witness=trace, subtrace_sequence=(), states_explored=0)
    units = split_subtraces(trace)
    engine = ReferenceEngine(ground or ground_spec(spec, trace, sliced=True))
    # The end state of every realizable sequence one unit shorter.
    ends = {(): engine.initial_state()}
    sequences_run = 0
    for length in range(1, k + 1):
        reached = {}
        for seq in itertools.product(range(len(units)), repeat=length):
            if deadline is not None and time.monotonic() > deadline:
                raise VerificationTimeout(
                    f"brute-force enumeration timed out after {sequences_run} sequences"
                )
            sequences_run += 1
            state = ends.get(seq[:-1])
            if state is None:
                continue
            last = units[seq[-1]].messages
            for index, m in enumerate(last):
                outcome, after = engine.step(state, m)
                if outcome == "bad":
                    history = tuple(x for i in seq[:-1] for x in units[i].messages)
                    return Violation(Trace(history + last[:index] + (m.wrap_dis(),)), seq,
                                     sequences_run)
                if outcome == "blocked":
                    break
                state = after
            else:
                reached[seq] = state
        ends = reached
    return Unknown(bound_hit=True, states_explored=sequences_run,
                   reason=f"no violation within {k} units")
