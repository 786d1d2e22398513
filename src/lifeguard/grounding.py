"""Finitization of lifestate specs against a trace's value universe, and
compilation of ground matchers to DFAs for incremental history tracking.

Grounding instantiates each rule once per type-compatible assignment of its
free variables to universe values (typed variables range over same-type
object identities, untyped ones over every value).  The ground alphabet is
every message of the trace plus every message occurring in a ground rule;
one reserved OTHER letter covers all messages outside the alphabet, which
makes complement and intersection decidable and grounding-stable.

validate, verify and explain ground sliced (ground_spec(..., sliced=True)):
they keep only the instances that can change a verdict on the trace, as
parametric trace slicing creates monitors only for the bindings a trace
shows.  Validation and verification step trace messages only, so an
instance none of whose atoms occurs in the trace and whose matcher accepts
no word of OTHER* never fires; and once those are dropped, a group of
instances of one polarity whose common target never occurs in the trace
sets a store bit that nothing reads and can never make a step
inconsistent.  The slicer finds the rest by joining each rule's atoms and
target with the trace's messages over value ids before any instance is
built, so spec_run.ls grounds to 6n + 1 instances on n button/task pairs
instead of 3n^2 + 3n + 1.  Both groundings give equal verdicts, witnesses
and unit sequences, and equal stores on every trace message; merged states
can only make verify explore fewer.  The full grounding stays the reference
and what `lifeguard ground` prints.

Compilation works per rule template.  A ground rule keeps no matcher,
only its binding and atoms: its rule's distinct atoms, bound, which like
its target are the trace's own messages where the trace holds them.  Its
local alphabet is those atoms, numbered in order, plus a local OTHER
letter, so its DFA depends only on the spec rule and on the local letter
each distinct atom of the rule gets (unless binding makes two coincide,
its own position).  compile_spec looks the DFA up under that pair and
translates the spec rule's matcher only on a miss, building each distinct
local regex once.  This is exact: a message that is not one of the rule's
atoms is rejected by every atom and accepted by the wildcard, just as the
local OTHER letter is.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Iterator, Optional

from . import dfa as _dfa
from .messages import (
    RETURN_KINDS,
    Message,
    Record,
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
    Rule,
    SVar,
    apply_binding,
    apply_binding_matcher,
    free_vars,
    matcher_atoms,
    rule_annotations,
)


class GroundingError(Exception):
    pass


class GroundingCapError(GroundingError):
    """Grounding would exceed its instantiation cap: the spec cannot be
    checked on this trace within the limit, so the verdict is unknown."""


DEFAULT_INSTANTIATION_CAP = 200000


class ValueUniverse(Record):
    """Values observed in a trace, keyed by object type, plus the primitive
    constants that occur (in argument or return position)."""

    __slots__ = ("by_type", "constants")

    def __init__(self, by_type: tuple[tuple[str, tuple[Value, ...]], ...],
                 constants: tuple[Value, ...]):
        self.by_type, self.constants = by_type, constants

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


class GroundRule(Record):
    """The instance of rule, the spec's rule number source_index, under
    binding (its free variables in sorted order, each with its value): the
    bound target, and atoms, the rule's distinct atoms bound, each once in
    order of first occurrence.  The matcher is built only when read."""

    __slots__ = ("rule", "source_index", "target", "atoms", "binding")

    def __init__(self, rule: Rule, source_index: int, target: Message,
                 atoms: tuple[Message, ...], binding: tuple[tuple[str, Value], ...] = ()):
        self.rule, self.source_index, self.target = rule, source_index, target
        self.atoms, self.binding = atoms, binding

    @property
    def matcher(self) -> Matcher:
        return apply_binding_matcher(dict(self.binding), self.rule.matcher)

    @property
    def polarity(self) -> str:
        return self.rule.polarity


class GroundSpec(Record):
    """Ground rules in spec order, the ground alphabet in message order,
    the number of instances of each source rule, and relevant: the trace's
    messages (dis unwrapped) that are an atom or the target of some
    instance of the full grounding, sliced or not."""

    __slots__ = ("rules", "alphabet", "instance_counts", "relevant")

    def __init__(self, rules: tuple[GroundRule, ...], alphabet: tuple[Message, ...],
                 instance_counts: tuple[int, ...], relevant: frozenset[Message]):
        self.rules, self.alphabet = rules, alphabet
        self.instance_counts, self.relevant = instance_counts, relevant

    def back_alphabet(self) -> tuple[Message, ...]:
        return tuple(m for m in self.alphabet if m.is_back())

    def in_alphabet(self) -> tuple[Message, ...]:
        return tuple(m for m in self.alphabet if m.is_in())


def _domains(spec: LifestateSpec, universe: ValueUniverse
             ) -> list[tuple[tuple[str, ...], tuple[tuple[Value, ...], ...]]]:
    """Per rule, its free variables in sorted order and the values each
    ranges over (typed variables over same-type object identities, untyped
    ones over every value)."""
    all_values = universe.all_values()
    out = []
    for rule in spec.rules:
        annotations = rule_annotations(rule)
        names = tuple(sorted(free_vars(rule)))
        out.append((names, tuple(universe.of_type(annotations[name])
                                 if annotations[name] is not None else all_values
                                 for name in names)))
    return out


class _Cap:
    """Charges rule instances, or with sliced the assignments the slicer
    enumerates, to their rule, and aborts with a diagnostic naming the worst
    rule as soon as the total exceeds the cap."""

    def __init__(self, spec: LifestateSpec, cap: int, sliced: bool):
        self.rules, self.cap = spec.rules, cap
        self.what = ("sliced grounding enumerates", "assignments") if sliced else (
            "grounding needs", "instances")
        self.counts = [0] * len(spec.rules)
        self.total = 0

    def charge(self, idx: int, count: int) -> None:
        self.counts[idx] += count
        self.total += count
        if self.total > self.cap:
            worst = max(range(len(self.counts)), key=self.counts.__getitem__)
            verb, noun = self.what
            raise GroundingCapError(
                f"{verb} {self.total} rule {noun} (cap {self.cap}); worst rule is "
                f"#{worst + 1} with {self.counts[worst]} {noun}: {self.rules[worst]}"
            )


def ground_spec(
    spec: LifestateSpec,
    trace: Trace,
    cap: int = DEFAULT_INSTANTIATION_CAP,
    sliced: bool = False,
) -> GroundSpec:
    """Instantiate every rule over the trace's value universe; with sliced,
    only the instances that can change a verdict on the trace (see
    _Slicer).

    Deterministic: rules in spec order, assignments in sorted value order,
    so a sliced grounding is a subsequence of the full one.  Aborts with a
    diagnostic naming the worst rule when the full grounding's instance
    count exceeds the cap or, with sliced, when the assignments the slicer
    enumerates do."""
    universe = value_universe(trace)
    plans = _domains(spec, universe)
    seen = {m.unwrap() if m.is_dis() else m for m in trace.messages}
    slicer = _Slicer(spec, plans, seen)
    charges = _Cap(spec, cap, sliced)
    if sliced:
        kept = slicer.kept(charges)
    else:
        for idx, (_, domains) in enumerate(plans):
            charges.charge(idx, math.prod(len(d) for d in domains))
        kept = [itertools.product(*domains) for _, domains in plans]
    ground_rules: list[GroundRule] = []
    counts: list[int] = []
    alphabet = set(seen)
    for idx, (rule, (names, _), assignments) in enumerate(zip(spec.rules, plans, kept)):
        before, patterns = len(ground_rules), slicer.joins[idx].patterns
        for assignment in assignments:
            target, *atoms = [slicer.message(pattern, assignment) for pattern in patterns]
            atoms = tuple(dict.fromkeys(atoms))
            ground_rules.append(GroundRule(rule, idx, target, atoms, tuple(zip(names, assignment))))
            alphabet.add(target)
            alphabet.update(atoms)
        counts.append(len(ground_rules) - before)
    ordered = tuple(sorted(alphabet, key=lambda m: m.sort_key()))
    return GroundSpec(tuple(ground_rules), ordered, tuple(counts), slicer.relevant())


def _key(m) -> tuple:
    """A message or atom as its shape (kind, function, parameter count) and
    its parameters, the return last."""
    params = tuple(values_of_message(m))
    return (m.kind, m.fun, len(params)), params


def _by_shape(keys: Iterable[tuple]) -> dict[tuple, list[tuple]]:
    out: dict[tuple, list[tuple]] = {}
    for shape, params in keys:
        out.setdefault(shape, []).append(params)
    return out


class _Join:
    """One source rule's assignments, as tuples of indices into its
    variables' domains, joined with message keys.  In a pattern (an atom or
    the target) a variable is its slot in the sorted variables."""

    def __init__(self, rule: Rule, names: tuple[str, ...],
                 domains: tuple[tuple[Value, ...], ...]):
        slot = {name: s for s, name in enumerate(names)}
        self.domains = domains
        self.index = [{v: j for j, v in enumerate(d)} for d in domains]
        self.patterns = []
        for pm in (rule.target, *_distinct_atoms(rule.matcher)):
            shape, params = _key(pm)
            self.patterns.append(
                (shape, tuple(slot[p.name] if isinstance(p, SVar) else p for p in params)))
        self.matcher = rule.matcher
        self.permit = rule.polarity == PERMIT

    def unify(self, pattern, keys: dict) -> Iterator[tuple[tuple, dict[int, int]]]:
        """The keys the pattern unifies with, each with the domain index it
        fixes for each of the pattern's variables."""
        shape, params = pattern
        for values in keys.get(shape, ()):
            fixed: dict[int, int] = {}
            for p, v in zip(params, values):
                if isinstance(p, int):
                    j = self.index[p].get(v)
                    if j is None or fixed.setdefault(p, j) != j:
                        break
                elif p != v:
                    break
            else:
                yield (shape, values), fixed

    def size(self, fixed: dict[int, int]) -> int:
        """How many assignments agree with fixed."""
        return math.prod(len(d) for s, d in enumerate(self.domains) if s not in fixed)

    def extend(self, fixed: dict[int, int]) -> Iterator[tuple[int, ...]]:
        """Every assignment that agrees with fixed."""
        return itertools.product(*[(fixed[s],) if s in fixed else range(len(d))
                                   for s, d in enumerate(self.domains)])

    def key(self, pattern, a: tuple[int, ...]) -> tuple:
        shape, params = pattern
        return shape, tuple(self.domains[p][a[p]] if isinstance(p, int) else p for p in params)


class _Slicer:
    """Joins a spec's atoms and targets with the messages of one trace, so
    nothing is instantiated until it is kept.

    An instance is kept unless it is of one of two kinds that cannot
    change a verdict, since validation and verification only ever step
    trace messages:
    1. none of its atoms occurs in the trace and its matcher accepts no
       word of OTHER*, so it never fires;
    2. after kind 1 is dropped, it belongs to a single-polarity group of
       instances with one target that never occurs in the trace: the group
       sets a store bit nothing reads and can never make a step
       inconsistent.
    Atoms never match OTHER, so whether a matcher accepts on OTHER* does
    not depend on the binding; it is decided once per source rule."""

    def __init__(self, spec: LifestateSpec, plans, seen: set[Message]):
        self.seen = {_key(m): m for m in seen}
        self.by_shape = _by_shape(self.seen)
        self.joins = [_Join(rule, names, domains)
                      for rule, (names, domains) in zip(spec.rules, plans)]

    def message(self, pattern, assignment: tuple[Value, ...]) -> Message:
        """The pattern under a value assignment: the trace's own message
        where one is equal, so each is built and hashed once."""
        (kind, fun, _), params = pattern
        values = tuple([assignment[p] if isinstance(p, int) else p for p in params])
        m = self.seen.get((pattern[0], values))
        if m is None:
            ret = values[-1] if kind in RETURN_KINDS else None
            m = Message(kind, fun, values if ret is None else values[:-1], ret)
        return m

    def relevant(self) -> frozenset[Message]:
        """Trace messages that unify with an atom or the target of a rule
        whose every variable has a value: the full grounding's atom and
        target messages among the trace's."""
        out = set()
        for join in self.joins:
            if all(join.domains):
                for pattern in join.patterns:
                    out.update(self.seen[key] for key, _ in join.unify(pattern, self.by_shape))
        return frozenset(out)

    def kept(self, charges: _Cap) -> list[list[tuple[Value, ...]]]:
        """Per rule, the value assignments of the kept instances, in the
        full grounding's order.

        They are the kind-1 survivors whose target occurs in the trace or
        is mixed: an unseen target that kind-1 survivors of both
        polarities aim at.  Every mixed target is an unseen target of the
        polarity with fewer survivors, so only those are enumerated; every
        other assignment comes from joining a target with the seen and
        mixed messages.  Every enumerated assignment is charged to its
        rule before it is made."""
        def extend(idx: int, fixed: dict[int, int]) -> Iterator[tuple[int, ...]]:
            charges.charge(idx, self.joins[idx].size(fixed))
            return self.joins[idx].extend(fixed)

        accepts = [_accepts_on_other(join.matcher) for join in self.joins]
        survivors, sizes = [], {True: 0, False: 0}
        for join, accept in zip(self.joins, accepts):
            # Partial assignments whose every extension survives kind 1.
            fixings = [{}] if accept else [fixed for atom in join.patterns[1:]
                                           for _, fixed in join.unify(atom, self.by_shape)]
            survivors.append(fixings)
            sizes[join.permit] += sum(map(join.size, fixings))
        few = sizes[True] <= sizes[False]
        unseen = set()
        for idx, (join, fixings) in enumerate(zip(self.joins, survivors)):
            if join.permit == few:
                for fixed in fixings:
                    for a in extend(idx, fixed):
                        unseen.add(join.key(join.patterns[0], a))
        unseen = _by_shape(unseen.difference(self.seen))
        targets = set(self.seen)
        for idx, (join, accept) in enumerate(zip(self.joins, accepts)):
            if join.permit != few:
                for key, fixed in join.unify(join.patterns[0], unseen):
                    if any(self._fires(join, accept, a) for a in extend(idx, fixed)):
                        targets.add(key)
        targets = _by_shape(targets)
        out = []
        for idx, (join, accept) in enumerate(zip(self.joins, accepts)):
            kept = sorted(a for _, fixed in join.unify(join.patterns[0], targets)
                          for a in extend(idx, fixed) if self._fires(join, accept, a))
            out.append([tuple(d[j] for d, j in zip(join.domains, a)) for a in kept])
        return out

    def _fires(self, join: _Join, accepts: bool, a: tuple[int, ...]) -> bool:
        """Whether assignment a survives kind 1: the matcher accepts on
        OTHER* or one of its atoms occurs in the trace."""
        return accepts or any(join.key(atom, a) in self.seen for atom in join.patterns[1:])


def _accepts_on_other(matcher: Matcher) -> bool:
    """Whether the matcher accepts some word of OTHER letters alone: its
    DFA over the one letter OTHER, where no atom matches, has an accepting
    state.  Past the DFA size cap the answer is yes, which keeps every
    instance and leaves the error to their compilation."""
    try:
        automaton = _dfa.build_dfa(_translate(matcher, None), 1)
    except _dfa.DfaSizeError:
        return True
    return any(automaton.accepting)


# ---------------------------------------------------------------------------
# Compilation to DFAs


class CompiledRule(Record):
    """A ground rule with its matcher compiled to a total DFA over the
    rule's own atoms plus a last, OTHER letter; local letter i stands for
    the global letter columns[i], and every global letter outside columns
    moves like OTHER.  Instances of one rule shape share the DFA object.
    target_bit is 1 << (the target's letter), the rule's bit in the
    engine's store bitmasks."""

    __slots__ = ("dfa", "columns", "polarity", "target", "source_index", "target_bit")

    def __init__(self, dfa: _dfa.Dfa, columns: tuple[int, ...], polarity: str, target: Message,
                 source_index: int, target_bit: int):
        self.dfa, self.columns, self.polarity = dfa, columns, polarity
        self.target, self.source_index, self.target_bit = target, source_index, target_bit

    def is_permit(self) -> bool:
        return self.polarity == PERMIT


def _translate(m: Matcher, letter: Optional[Callable[[Message], int]]) -> _dfa.Re:
    """The matcher as a regex, each atom as the letter that letter gives
    its message; with letter None no atom matches anything, which is how
    every atom sees OTHER."""
    if isinstance(m, MAtom):
        return _dfa.EMPTY if letter is None else _dfa.RSym(letter(m.message))
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


def compile_spec(ground: GroundSpec) -> tuple[CompiledRule, ...]:
    """Compile every ground rule; instances whose local regexes are equal
    share one DFA, across rules too."""
    letter_of = letter_map(ground.alphabet)
    templates: dict[int, tuple[Message, ...]] = {}  # per source index, its distinct atoms
    dfas: dict[tuple[int, tuple[int, ...]], _dfa.Dfa] = {}  # per (source index, numbering)
    shapes: dict[_dfa.Re, _dfa.Dfa] = {}
    out = []
    for rule in ground.rules:
        template = templates.get(rule.source_index)
        if template is None:
            template = templates[rule.source_index] = _distinct_atoms(rule.rule.matcher)
        numbering = tuple(range(len(template)))
        if len(rule.atoms) < len(template):
            local, binding = {m: i for i, m in enumerate(rule.atoms)}, dict(rule.binding)
            numbering = tuple(local[apply_binding(binding, a)] for a in template)
        key = rule.source_index, numbering
        if key not in dfas:
            regex = _translate(rule.rule.matcher, dict(zip(template, numbering)).__getitem__)
            if regex not in shapes:
                try:
                    shapes[regex] = _dfa.build_dfa(regex, n_letters=len(rule.atoms) + 1)
                except _dfa.DfaSizeError as e:
                    raise GroundingError(
                        f"spec rule #{rule.source_index + 1}, instance {rule.matcher} "
                        f"{rule.polarity} {format_message(rule.target)}: {e}"
                    ) from None
            dfas[key] = shapes[regex]
        out.append(CompiledRule(dfas[key], tuple([letter_of[m] for m in rule.atoms]),
                                rule.polarity, rule.target, rule.source_index,
                                1 << letter_of[rule.target]))
    return tuple(out)


def _distinct_atoms(matcher: Matcher) -> tuple[Message, ...]:
    """The matcher's atoms, each once, in order of first occurrence."""
    return tuple(dict.fromkeys(matcher_atoms(matcher)))
