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

A spec is planned once and each trace joined with the plan.  The plan
(_Plan) holds per rule its sorted variables and their types, its target
and distinct atoms as patterns, its polarity, whether it accepts on OTHER
alone, and the template DFAs compile_spec fills.  It lives as long as the
spec object, so validate --corpus plans its spec once.  Nothing in it
depends on a trace, and a DfaSizeError is never kept, so each compilation
names its own instance.  The join (_Join) numbers the trace's values and
the plan's constants once, in sort_key order, and works on those ids.

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
    KINDS,
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
    instance of the full grounding, sliced or not.  _plan is the plan of
    the spec it grounds, whose DFA tables compile_spec fills; a GroundSpec
    built by hand has none and cannot be compiled."""

    __slots__ = ("rules", "alphabet", "instance_counts", "relevant", "_plan")

    def __init__(self, rules: tuple[GroundRule, ...], alphabet: tuple[Message, ...],
                 instance_counts: tuple[int, ...], relevant: frozenset[Message],
                 _plan: Optional[_Plan] = None):
        self.rules, self.alphabet = rules, alphabet
        self.instance_counts, self.relevant, self._plan = instance_counts, relevant, _plan


class _Plan:
    """What grounding and compilation need of a spec on any trace (see
    the module docstring).  Per rule: names, types (None for untyped),
    patterns (shape, params) with each variable as its slot, templates (the
    distinct atoms), permit and accepts; then the patterns' constants and
    compile_spec's DFAs, keyed by (source index, numbering) and by regex."""

    __slots__ = ("names", "types", "patterns", "templates", "permit", "accepts", "constants",
                 "dfas", "shapes")

    def __init__(self, spec: LifestateSpec):
        self.names, self.types, self.patterns, self.permit, self.accepts = [], [], [], [], []
        self.templates = [_distinct_atoms(rule.matcher) for rule in spec.rules]
        self.constants: set[Value] = set()
        for rule, atoms in zip(spec.rules, self.templates):
            annotations = rule_annotations(rule)
            names = tuple(sorted(free_vars(rule)))
            slot = {name: s for s, name in enumerate(names)}
            patterns = []
            for pm in (rule.target, *atoms):
                params = tuple(values_of_message(pm))
                self.constants.update(p for p in params if not isinstance(p, SVar))
                patterns.append(((pm.kind, pm.fun, len(params)),
                                 tuple(slot[p.name] if isinstance(p, SVar) else p for p in params)))
            self.names.append(names)
            self.types.append(tuple(annotations[name] for name in names))
            self.patterns.append(patterns)
            self.permit.append(rule.polarity == PERMIT)
            self.accepts.append(_accepts_on_other(rule.matcher))
        self.dfas: dict[tuple[int, tuple[int, ...]], _dfa.Dfa] = {}
        self.shapes: dict[_dfa.Re, _dfa.Dfa] = {}


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
    _Join.kept).

    Deterministic: rules in spec order, assignments in sorted value order,
    so a sliced grounding is a subsequence of the full one.  Aborts with a
    diagnostic naming the worst rule when the full grounding's instance
    count exceeds the cap or, with sliced, when the assignments the slicer
    enumerates do.  The spec's plan is built on its first grounding and
    kept in the spec object."""
    plan = spec._plan = spec._plan or _Plan(spec)
    join = _Join(plan, trace)
    charges = _Cap(spec, cap, sliced)
    if sliced:
        kept = join.kept(charges)
    else:
        for idx, domains in enumerate(join.domains):
            charges.charge(idx, math.prod(map(len, domains)))
        kept = [itertools.product(*domains) for domains in join.domains]
    ground_rules: list[GroundRule] = []
    counts: list[int] = []
    values = join.values
    for idx, (rule, names, patterns, assignments) in enumerate(
            zip(spec.rules, plan.names, join.patterns, kept)):
        before = len(ground_rules)
        for a in assignments:
            target, *atoms = [join.message(pattern, a) for pattern in patterns]
            ground_rules.append(GroundRule(rule, idx, target, tuple(dict.fromkeys(atoms)),
                                           tuple(zip(names, [values[i] for i in a]))))
        counts.append(len(ground_rules) - before)
    return GroundSpec(tuple(ground_rules), join.alphabet(), tuple(counts), join.relevant, plan)


def _by_shape(keys: Iterable[tuple]) -> dict[tuple, list[tuple]]:
    out: dict[tuple, list[tuple]] = {}
    for shape, params in keys:
        out.setdefault(shape, []).append(params)
    return out


def _order(key: tuple) -> tuple:
    """A message key's place in message order (Message.sort_key): value
    ids are numbered in sort_key order."""
    (kind, fun, n), ids = key
    n -= kind in RETURN_KINDS
    return KINDS.index(kind), fun, ids[:n], ids[n:]


class _Join:
    """A spec's plan joined with one trace's messages on value ids.  A
    message is keyed by (kind, function, parameter count) and its
    parameters' ids, the return last; an assignment is a tuple of ids; in
    a pattern a variable is its slot s and the constant with id i is ~i.
    A Message is built only for an unseen target or atom of a kept instance.

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
    not depend on the binding; the plan decides it once per source rule."""

    def __init__(self, plan: _Plan, trace: Trace):
        self.plan = plan
        # Equal values of one parsed trace are one object, so most are
        # told apart by identity, and hashed once each.
        params = [(m, m.args if m.ret is None else (*m.args, m.ret))
                  for m in (m.unwrap() if m.is_dis() else m for m in trace.messages)]
        flat = [v for _, values in params for v in values]
        objects = dict(zip(map(id, flat), flat))
        in_trace = set(objects.values())
        self.values = sorted(in_trace | plan.constants, key=lambda v: v.sort_key())
        ids = {v: i for i, v in enumerate(self.values)}
        id_of = {key: ids[v] for key, v in objects.items()}
        # Per annotation (None for untyped) the ids of the trace's values.
        domain: dict[Optional[str], list[int]] = {None: []}
        for i, v in enumerate(self.values):
            if v in in_trace:
                domain[None].append(i)
                if value_type_name(v) is not None:
                    domain.setdefault(value_type_name(v), []).append(i)
        members = {ty: frozenset(d) for ty, d in domain.items()}
        self.domains = [tuple(domain.get(ty, ()) for ty in types) for types in plan.types]
        self.members = [tuple(members.get(ty, frozenset()) for ty in types)
                        for types in plan.types]
        self.patterns = [[(shape, tuple(p if isinstance(p, int) else ~ids[p] for p in params))
                          for shape, params in patterns] for patterns in plan.patterns]
        # The trace's messages, then every target and atom built.
        self.messages: dict[tuple, Message] = {}
        for m, values in params:
            self.messages.setdefault(((m.kind, m.fun, len(values)),
                                      tuple([id_of[id(v)] for v in values])), m)
        self.seen = frozenset(self.messages)
        by_shape = _by_shape(self.seen)
        # Per rule and pattern, the trace messages it unifies with.
        self.hits = [[list(self.unify(r, pattern, by_shape)) for pattern in patterns]
                     for r, patterns in enumerate(self.patterns)]
        # Trace messages that unify with a pattern of a rule with instances.
        self.relevant = frozenset(self.messages[key] for r, hits in enumerate(self.hits)
                                  if all(self.domains[r]) for pattern in hits
                                  for key, _ in pattern)

    def unify(self, r: int, pattern, keys: dict) -> Iterator[tuple[tuple, dict[int, int]]]:
        """The keys rule r's pattern unifies with, each with the id it
        fixes for each of the pattern's variables."""
        shape, params = pattern
        members = self.members[r]
        for ids in keys.get(shape, ()):
            fixed: dict[int, int] = {}
            for p, v in zip(params, ids):
                if p >= 0:
                    if v not in members[p] or fixed.setdefault(p, v) != v:
                        break
                elif p != ~v:
                    break
            else:
                yield (shape, ids), fixed

    def size(self, r: int, fixed: dict[int, int]) -> int:
        """How many of rule r's assignments agree with fixed."""
        return math.prod(len(d) for s, d in enumerate(self.domains[r]) if s not in fixed)

    def extend(self, r: int, fixed: dict[int, int]) -> Iterator[tuple[int, ...]]:
        """Every assignment of rule r that agrees with fixed."""
        return itertools.product(*[(fixed[s],) if s in fixed else d
                                   for s, d in enumerate(self.domains[r])])

    @staticmethod
    def key(pattern, a: tuple[int, ...]) -> tuple:
        shape, params = pattern
        return shape, tuple([a[p] if p >= 0 else ~p for p in params])

    def message(self, pattern, a: tuple[int, ...]) -> Message:
        """The pattern under assignment a: the trace's own message where
        one is equal, so each is built and hashed once."""
        key = self.key(pattern, a)
        m = self.messages.get(key)
        if m is None:
            (kind, fun, _), ids = key
            values = [self.values[i] for i in ids]
            ret = values.pop() if kind in RETURN_KINDS else None
            m = self.messages[key] = Message(kind, fun, tuple(values), ret)
        return m

    def alphabet(self) -> tuple[Message, ...]:
        """The trace's messages and every target and atom built, in
        message order."""
        return tuple(self.messages[key] for key in sorted(self.messages, key=_order))

    def kept(self, charges: _Cap) -> list[list[tuple[int, ...]]]:
        """Per rule, the assignments of the kept instances, in the full
        grounding's order.

        They are the kind-1 survivors whose target occurs in the trace or
        is mixed: an unseen target that kind-1 survivors of both
        polarities aim at.  Every mixed target is an unseen target of the
        polarity with fewer survivors, so only those are enumerated; every
        other assignment comes from joining a target with the seen and
        mixed messages.  Every enumerated assignment is charged to its
        rule before it is made."""
        def extend(r: int, fixed: dict[int, int]) -> Iterator[tuple[int, ...]]:
            charges.charge(r, self.size(r, fixed))
            return self.extend(r, fixed)

        permit = self.plan.permit
        # Per rule, partial assignments whose every extension survives kind 1.
        survivors, sizes = [], {True: 0, False: 0}
        for r, (hits, accepts) in enumerate(zip(self.hits, self.plan.accepts)):
            fixings = [{}] if accepts else [fixed for atom in hits[1:] for _, fixed in atom]
            survivors.append(fixings)
            sizes[permit[r]] += sum(self.size(r, fixed) for fixed in fixings)
        few = sizes[True] <= sizes[False]
        unseen = set()
        for r, fixings in enumerate(survivors):
            if permit[r] == few:
                for fixed in fixings:
                    for a in extend(r, fixed):
                        unseen.add(self.key(self.patterns[r][0], a))
        unseen = _by_shape(unseen.difference(self.seen))
        mixed = set()
        for r, patterns in enumerate(self.patterns):
            if permit[r] != few:
                for key, fixed in self.unify(r, patterns[0], unseen):
                    if any(self._fires(r, a) for a in extend(r, fixed)):
                        mixed.add(key)
        mixed = _by_shape(mixed)
        return [sorted(a for _, fixed in [*hits[0], *self.unify(r, self.patterns[r][0], mixed)]
                       for a in extend(r, fixed) if self._fires(r, a))
                for r, hits in enumerate(self.hits)]

    def _fires(self, r: int, a: tuple[int, ...]) -> bool:
        """Whether rule r's assignment a survives kind 1: the matcher
        accepts on OTHER* or one of its atoms occurs in the trace."""
        return self.plan.accepts[r] or any(self.key(atom, a) in self.seen
                                           for atom in self.patterns[r][1:])


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


def compile_spec(ground: GroundSpec, letters: dict[Message, int]) -> tuple[CompiledRule, ...]:
    """Compile every ground rule over letters, the alphabet's letter_map;
    instances whose local regexes are equal share one DFA, across rules and
    across the groundings of one spec object, whose plan keeps the DFAs.  A
    DfaSizeError is not kept, so each compilation that meets it names its
    own instance.  Only ground_spec's output, which carries its spec's
    plan, can be compiled."""
    plan = ground._plan
    dfas, shapes = plan.dfas, plan.shapes
    out = []
    for rule in ground.rules:
        template = plan.templates[rule.source_index]
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
        out.append(CompiledRule(dfas[key], tuple([letters[m] for m in rule.atoms]),
                                rule.polarity, rule.target, rule.source_index,
                                1 << letters[rule.target]))
    return tuple(out)


def _distinct_atoms(matcher: Matcher) -> tuple[Message, ...]:
    """The matcher's atoms, each once, in order of first occurrence."""
    return tuple(dict.fromkeys(matcher_atoms(matcher)))
