"""Finitization of lifestate specs against a trace's value universe, and
compilation of ground matchers to DFAs for incremental history tracking.

Grounding instantiates each rule once per type-compatible assignment of its
free variables to universe values (typed variables range over same-type
object identities, untyped ones over every value).  The ground alphabet is
every message of the trace plus every message occurring in a ground rule;
one reserved OTHER letter covers all messages outside the alphabet, which
makes complement and intersection decidable and grounding-stable.

Compilation works per rule shape.  Each ground rule gets a local alphabet:
its distinct atom messages, numbered in order of first occurrence, plus a
local OTHER letter.  Instances of one spec rule translate to equal local
regexes (unless binding makes two of their atoms coincide), so
compile_spec builds each distinct local regex once and every instance
shares that DFA, keeping only the global letters of its atoms.  This is
exact: a message that is not one of the rule's atoms is rejected by every
atom and accepted by the wildcard, just as the local OTHER letter is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable

from . import dfa as _dfa
from .messages import (
    Message,
    Trace,
    Value,
    format_message,
    value_type_name,
    values_of_message,
)
from .rules import (
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
    PERMIT,
    apply_binding,
    apply_binding_matcher,
    free_vars,
    matcher_atoms,
    rule_annotations,
)


class GroundingError(Exception):
    pass


DEFAULT_INSTANTIATION_CAP = 200000


@dataclass(frozen=True)
class ValueUniverse:
    """Values observed in a trace, keyed by object type, plus the primitive
    constants that occur (in argument or return position)."""

    by_type: tuple[tuple[str, tuple[Value, ...]], ...]
    constants: tuple[Value, ...]

    def of_type(self, type_name: str) -> tuple[Value, ...]:
        for name, values in self.by_type:
            if name == type_name:
                return values
        return ()

    def all_values(self) -> tuple[Value, ...]:
        out = [v for _, values in self.by_type for v in values]
        out.extend(self.constants)
        return tuple(sorted(out, key=lambda v: v.sort_key()))


def value_universe(t: Trace) -> ValueUniverse:
    """Exactly the values occurring in the trace, including return positions."""
    by_type: dict[str, set[Value]] = {}
    constants: set[Value] = set()
    for m in t.messages:
        for v in values_of_message(m):
            ty = value_type_name(v)
            if ty is None:
                constants.add(v)
            else:
                by_type.setdefault(ty, set()).add(v)
    packed = tuple(
        (name, tuple(sorted(by_type[name], key=lambda v: v.sort_key())))
        for name in sorted(by_type)
    )
    return ValueUniverse(packed, tuple(sorted(constants, key=lambda v: v.sort_key())))


@dataclass(frozen=True)
class GroundRule:
    """A variable-free rule instance."""

    matcher: Matcher
    polarity: str
    target: Message
    source_index: int  # index of the originating rule in the spec
    binding: tuple[tuple[str, Value], ...] = ()

    def is_permit(self) -> bool:
        return self.polarity == PERMIT


@dataclass(frozen=True)
class GroundSpec:
    rules: tuple[GroundRule, ...]
    alphabet: tuple[Message, ...]
    instance_counts: tuple[int, ...]  # per source rule

    def back_alphabet(self) -> tuple[Message, ...]:
        return tuple(m for m in self.alphabet if m.is_back())

    def in_alphabet(self) -> tuple[Message, ...]:
        return tuple(m for m in self.alphabet if m.is_in())


def ground_spec(
    spec: LifestateSpec,
    trace: Trace,
    cap: int = DEFAULT_INSTANTIATION_CAP,
) -> GroundSpec:
    """Instantiate every rule over the trace's value universe.

    Deterministic: rules in spec order, assignments in sorted value order.
    Aborts with a diagnostic naming the worst rule when the total instance
    count exceeds the cap."""
    universe = value_universe(trace)
    all_values = universe.all_values()
    ground_rules: list[GroundRule] = []
    counts: list[int] = []
    total = 0
    worst: tuple[int, int] = (-1, -1)  # (count, rule index)
    for idx, rule in enumerate(spec.rules):
        annotations = rule_annotations(rule)
        names = sorted(free_vars(rule))
        domains = []
        for name in names:
            ty = annotations.get(name)
            domain = universe.of_type(ty) if ty is not None else all_values
            domains.append(domain)
        count = 1
        for d in domains:
            count *= len(d)
        counts.append(count)
        if count > worst[0]:
            worst = (count, idx)
        total += count
        if total > cap:
            raise GroundingError(
                f"grounding needs {total} rule instances (cap {cap}); "
                f"worst rule is #{worst[1] + 1} with {worst[0]} instances: "
                f"{spec.rules[worst[1]]}"
            )
        for assignment in itertools.product(*domains):
            binding = dict(zip(names, assignment))
            ground_rules.append(
                GroundRule(
                    apply_binding_matcher(binding, rule.matcher),
                    rule.polarity,
                    apply_binding(binding, rule.target).to_message(),
                    idx,
                    tuple(sorted(binding.items())),
                )
            )
    alphabet: set[Message] = {m.unwrap() if m.is_dis() else m for m in trace.messages}
    for gr in ground_rules:
        alphabet.add(gr.target)
        for atom in matcher_atoms(gr.matcher):
            alphabet.add(atom.to_message())
    ordered = tuple(sorted(alphabet, key=lambda m: m.sort_key()))
    return GroundSpec(tuple(ground_rules), ordered, tuple(counts))


# ---------------------------------------------------------------------------
# Compilation to DFAs


@dataclass(frozen=True)
class CompiledRule:
    """A ground rule with its matcher compiled to a total DFA over the
    rule's own atoms plus a last, OTHER letter; local letter i stands for
    the global letter columns[i], and every global letter outside columns
    moves like OTHER.  Instances of one rule shape share the DFA object.
    target_bit is 1 << (the target's letter), the rule's bit in the
    engine's store bitmasks."""

    dfa: _dfa.Dfa
    columns: tuple[int, ...]
    polarity: str
    target: Message
    source_index: int
    target_bit: int

    def is_permit(self) -> bool:
        return self.polarity == PERMIT


def _translate(m: Matcher, letter: Callable[[Message], int]) -> _dfa.Re:
    if isinstance(m, MAtom):
        return _dfa.RSym(letter(m.message.to_message()))
    if isinstance(m, MAny):
        return _dfa.ANY
    if isinstance(m, MEps):
        return _dfa.EPS
    if isinstance(m, MEmpty):
        return _dfa.EMPTY
    if isinstance(m, MConcat):
        return _dfa.mk_cat(_translate(m.left, letter), _translate(m.right, letter))
    if isinstance(m, MStar):
        return _dfa.mk_star(_translate(m.inner, letter))
    if isinstance(m, MUnion):
        return _dfa.mk_or((_translate(m.left, letter), _translate(m.right, letter)))
    if isinstance(m, MIntersect):
        return _dfa.mk_and((_translate(m.left, letter), _translate(m.right, letter)))
    if isinstance(m, MNegate):
        return _dfa.mk_not(_translate(m.inner, letter))
    raise TypeError(type(m).__name__)


def letter_map(alphabet: Iterable[Message]) -> dict[Message, int]:
    return {m: i for i, m in enumerate(alphabet)}


def _compile(
    rule: GroundRule,
    letter_of: dict[Message, int],
    shapes: dict[_dfa.Re, _dfa.Dfa],
) -> CompiledRule:
    """Compile the matcher over its own atoms plus a local OTHER letter,
    reusing the DFA of an equal local regex from shapes."""
    local: dict[int, int] = {}  # global letter -> local letter
    regex = _translate(rule.matcher, lambda m: local.setdefault(letter_of[m], len(local)))
    automaton = shapes.get(regex)
    if automaton is None:
        try:
            automaton = _dfa.build_dfa(regex, n_letters=len(local) + 1)
        except _dfa.DfaSizeError as e:
            raise GroundingError(
                f"spec rule #{rule.source_index + 1}, instance {rule.matcher} "
                f"{rule.polarity} {format_message(rule.target)}: {e}"
            ) from None
        shapes[regex] = automaton
    return CompiledRule(automaton, tuple(local), rule.polarity, rule.target,
                        rule.source_index, 1 << letter_of[rule.target])


def compile_spec(ground: GroundSpec) -> tuple[CompiledRule, ...]:
    """Compile every ground rule; instances whose local regexes are equal
    (the same rule shape, whichever objects it binds) share one DFA."""
    letter_of = letter_map(ground.alphabet)
    shapes: dict[_dfa.Re, _dfa.Dfa] = {}
    return tuple(_compile(r, letter_of, shapes) for r in ground.rules)
