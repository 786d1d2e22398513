"""Finitization of lifestate specs against a trace's value universe, and
compilation of ground matchers to DFAs for incremental history tracking.

Grounding instantiates each rule once per type-compatible assignment of its
free variables to universe values (typed variables range over same-type
object identities, untyped ones over every value).  The ground alphabet is
every message of the trace plus every message occurring in a ground rule;
one reserved OTHER letter covers all messages outside the alphabet, which
makes complement and intersection decidable and grounding-stable.

Every command grounds sliced (ground_spec(..., sliced=True)): it keeps
only the instances that can change a verdict on the trace, as parametric
trace slicing creates monitors only for the bindings a trace shows.
Validation and verification step trace messages only, so an
instance none of whose atoms occurs in the trace and whose matcher accepts
no word of OTHER* never fires; and once those are dropped, a group of
instances of one polarity whose common target never occurs in the trace
sets a store bit that nothing reads and can never make a step
inconsistent.  The slicer finds the rest by joining each rule's atoms and
target with the trace's messages over value ids before any instance is
built, so spec_run.ls grounds to 6n + 1 instances on n button/task pairs
instead of 3n^2 + 3n + 1.  Both groundings give equal verdicts, witnesses
and unit sequences, and equal stores on every trace message; merged states
can only make verify explore fewer.  The full grounding stays the
reference that the tests and the benchmark check the slice against.

A spec is planned once and each trace joined with the plan.  The plan
(_Plan) holds per rule its sorted variables and their types, its target
and distinct atoms as patterns, its polarity, whether it accepts on OTHER
alone, and the template DFAs compile_spec fills.  It lives as long as the
spec object, so validate --corpus plans its spec once.  Nothing in it
depends on a trace, and a DfaSizeError is never kept, so each compilation
names its own instance.  The join (_Join) numbers the trace's values and
the plan's constants in one pass, in sort_key order, and keys messages by
their ids; an assignment unification fixes whole is built and charged once.

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
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional

from . import dfa as _dfa
from .messages import (
    KINDS,
    RETURN_KINDS,
    Message,
    ObjectId,
    Record,
    Trace,
    Value,
    format_message,
    is_violation,
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


class GroundingCapError(GroundingError, _dfa.LimitExceeded):
    """Grounding would exceed its instantiation cap, so the verdict is unknown."""


DEFAULT_INSTANTIATION_CAP = 200000
_RANK = {kind: i for i, kind in enumerate(KINDS)}  # a message key's kind


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
    and, sliced or not, the number of instances of each source rule in the
    full grounding (the product of its variables' domain sizes, never
    built) and relevant: the trace's messages (dis unwrapped) that are an
    atom or the target of some instance of the full grounding.  _plan is
    the plan of the spec it grounds, whose DFA tables compile_spec fills; a
    GroundSpec built by hand has none and cannot be compiled."""

    __slots__ = ("rules", "alphabet", "instance_counts", "relevant", "_plan")

    def __init__(self, rules: tuple[GroundRule, ...], alphabet: tuple[Message, ...],
                 instance_counts: tuple[int, ...], relevant: frozenset[Message],
                 _plan: Optional[_Plan] = None):
        self.rules, self.alphabet = rules, alphabet
        self.instance_counts, self.relevant, self._plan = instance_counts, relevant, _plan


class _Plan:
    """What grounding and compilation need of a spec on any trace (see
    the module docstring).  Per rule: names, types (None for untyped),
    tails, patterns (shape, row positions, key getter, uid: the first equal
    up to variable names), templates, permit and accepts; then constants,
    uids and compile_spec's DFAs, by (source index, numbering) and regex."""

    __slots__ = ("names", "types", "tails", "patterns", "templates", "permit", "accepts",
                 "constants", "distinct", "dfas", "shapes")

    def __init__(self, spec: LifestateSpec):
        self.names = [tuple(sorted(free_vars(rule))) for rule in spec.rules]
        self.types = [tuple(map(rule_annotations(rule).__getitem__, names))
                      for rule, names in zip(spec.rules, self.names)]
        self.templates = [_distinct_atoms(rule.matcher) for rule in spec.rules]
        self.permit = [rule.polarity == PERMIT for rule in spec.rules]
        self.accepts = [_accepts_on_other(rule.matcher) for rule in spec.rules]
        self.tails, self.patterns = [[] for _ in spec.rules], [[] for _ in spec.rules]
        self.constants: set[Value] = set()
        self.distinct: dict[tuple, tuple[int, int]] = {}
        for r, (rule, names, types) in enumerate(zip(spec.rules, self.names, self.types)):
            k, tail, patterns = len(names), self.tails[r], self.patterns[r]
            for j, pm in enumerate((rule.target, *self.templates[r])):
                values = tuple(values_of_message(pm))
                shape, at, params = (KINDS.index(pm.kind), pm.fun, len(values)), k + len(tail), []
                tail.append(shape)
                for p in values:
                    if not isinstance(p, SVar):
                        self.constants.add(p)
                        tail.append(p)
                    params.append(names.index(p.name) if isinstance(p, SVar) else k + len(tail) - 1)
                uid = self.distinct.setdefault(
                    (shape, types, *[tail[p - k] if p >= k else p for p in params]), (r, j))
                patterns.append((shape, tuple(params), itemgetter(at, *params) if params else
                                 lambda row, key=(shape,): key, uid))
        self.dfas: dict[tuple[int, tuple[int, ...]], _dfa.Dfa] = {}
        self.shapes: dict[_dfa.Re, _dfa.Dfa] = {}


class _Cap:
    """Charges rule instances, or with sliced the assignments the slicer
    enumerates, to their rule, and aborts with a diagnostic naming the worst
    rule as soon as the total exceeds DEFAULT_INSTANTIATION_CAP, read when
    grounding starts; reads the deadline per 1,024."""

    def __init__(self, spec: LifestateSpec, sliced: bool, deadline: Optional[float]):
        self.rules, self.cap, self.deadline = spec.rules, DEFAULT_INSTANTIATION_CAP, deadline
        self.what = ("sliced grounding enumerates", "assignments") if sliced else (
            "grounding needs", "instances")
        self.counts = [0] * len(spec.rules)
        self.total = 0

    def charge(self, idx: int, count: int) -> None:
        self.counts[idx] += count
        before, self.total = self.total, self.total + count
        if self.total > self.cap:
            worst = max(range(len(self.counts)), key=self.counts.__getitem__)
            verb, noun = self.what
            raise GroundingCapError(
                f"{verb} {self.total} rule {noun} (cap {self.cap}); worst rule is "
                f"#{worst + 1} with {self.counts[worst]} {noun}: {self.rules[worst]}"
            )
        if before >> 10 != self.total >> 10:
            _dfa.check_deadline(self.deadline, "grounding")


def ground_spec(spec: LifestateSpec, trace: Trace, sliced: bool = False,
                deadline: Optional[float] = None) -> GroundSpec:
    """Instantiate every rule over the trace's value universe; with sliced,
    only the instances that can change a verdict on the trace (see
    _Join.kept).

    Deterministic: rules in spec order, assignments in sorted value order,
    so a sliced grounding is a subsequence of the full one.  Aborts with a
    diagnostic naming the worst rule when the full grounding's instance
    count exceeds DEFAULT_INSTANTIATION_CAP or, with sliced, when the
    assignments the slicer enumerates do (GroundingCapError), and with
    LimitExceeded, which that extends, past the deadline (read per 1,024
    assignments charged or rules built).  A spec's plan is built on its
    first grounding and kept in the spec object."""
    plan = spec._plan = spec._plan or _Plan(spec)
    join = _Join(plan, trace)
    charges = _Cap(spec, sliced, deadline)
    counts = tuple(math.prod(map(len, domains)) for domains in join.domains)
    if not sliced:  # the full grounding is charged before any instance is built
        for r, count in enumerate(counts):
            charges.charge(r, count)
    kept = join.kept(charges) if sliced else [join.rows(r, [((), (None,) * len(domains))], None)
                                              for r, domains in enumerate(join.domains)]
    ground_rules: list[GroundRule] = []
    value, message = join.values.__getitem__, join.messages.__getitem__
    for idx, (rule, names, rows) in enumerate(zip(spec.rules, plan.names, kept)):
        for a, target, atoms in rows:
            if len(ground_rules) & 1023 == 1023:
                _dfa.check_deadline(deadline, "grounding")
            ground_rules.append(GroundRule(rule, idx, message(target), tuple(map(message, atoms)),
                                           tuple(zip(names, map(value, a)))))
    return GroundSpec(tuple(ground_rules), join.alphabet(), counts, join.relevant, plan)


def _by_shape(keys: Iterable[tuple]) -> dict[tuple, list[tuple]]:
    out: dict[tuple, list[tuple]] = {}
    for key in keys:
        out.setdefault(key[0], []).append(key)
    return out


def _order(key: tuple) -> tuple:
    """A message key's place in message order (Message.sort_key): value
    ids are numbered in sort_key order."""
    rank, fun, n = key[0]
    n += KINDS[rank] not in RETURN_KINDS
    return rank, fun, key[1:n], key[n:]


class _Messages(dict):
    """Messages by key, building one the trace lacks from its ids' values."""

    def __missing__(self, key: tuple) -> Message:
        (rank, fun, _), *ids = key
        values = [self.universe[i] for i in ids]
        ret = values.pop() if KINDS[rank] in RETURN_KINDS else None
        m = self[key] = Message(KINDS[rank], fun, tuple(values), ret)
        return m


class _Join:
    """A spec's plan joined with one trace's messages on value ids.  A
    message's key is its shape (kind's rank in KINDS, function, parameter
    count), then its parameters' ids, the return last; an assignment is a
    tuple of ids, a row an assignment then its rule's tail (see _Plan).  A
    Message is built only for an unseen target or atom of a kept instance.

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
        # told apart by identity, hashed once each and numbered in one pass.
        messages = (*trace.messages[:-1], trace.messages[-1].unwrap()) if is_violation(
            trace) else trace.messages
        params = [(m, m.args if m.ret is None else (*m.args, m.ret)) for m in messages]
        flat = [v for _, values in params for v in values]
        objects = dict(zip(map(id, flat), flat))
        self.values = sorted(set(objects.values()) | plan.constants, key=lambda v: v.sort_key())
        ids = {v: i for i, v in enumerate(self.values)}
        number = list(map({key: ids[v] for key, v in objects.items()}.__getitem__, map(id, flat)))
        ends = itertools.accumulate([len(values) for _, values in params])
        # The trace's messages, then every target and atom built.
        self.messages = _Messages({((_RANK[m.kind], m.fun, len(values)),
                                    *number[end - len(values):end]): m
                                   for (m, values), end in zip(params, ends)})
        self.messages.universe = self.values
        self.seen = frozenset(self.messages)
        # Per annotation (None for untyped) the ids of the trace's values.
        domain: dict[Optional[str], list[int]] = {None: []}
        for i, v in enumerate(self.values):
            if id(v) in objects:
                domain[None].append(i)
                if isinstance(v, ObjectId):
                    domain.setdefault(v.type_name, []).append(i)
        members = {ty: frozenset(d) for ty, d in domain.items()}
        self.domains = [tuple([domain.get(ty, ()) for ty in types]) for types in plan.types]
        self.members = [tuple([members.get(ty, frozenset()) for ty in types])
                        for types in plan.types]
        self.tails = [tuple([ids[p] if isinstance(p, Value) else p for p in tail])
                      for tail in plan.tails]
        # Per rule and pattern, the trace messages it unifies with.
        by_shape = _by_shape(self.seen)
        unified = {uid: list(self.unify(*uid, by_shape)) for uid in plan.distinct.values()}
        self.hits = [[unified[uid] for *_, uid in patterns] for patterns in plan.patterns]
        # Trace messages that unify with a pattern of a rule with instances.
        self.relevant = frozenset(self.messages[key] for uid in {
            uid for r, patterns in enumerate(plan.patterns) if all(self.domains[r])
            for *_, uid in patterns} for key, _ in unified[uid])

    def unify(self, r: int, j: int, keys: dict) -> Iterator[tuple[tuple, tuple]]:
        """The keys rule r's pattern j unifies with, each with the id it
        fixes for each of the rule's variables (None where it fixes none)."""
        shape, params, _, _ = self.plan.patterns[r][j]
        members, tail, k = self.members[r], self.tails[r], len(self.members[r])
        for key in keys.get(shape, ()):
            fixed = [None] * k
            for p, v in zip(params, key[1:]):
                if p >= k:
                    if tail[p - k] != v:
                        break
                elif v in members[p] and fixed[p] in (None, v):
                    fixed[p] = v
                else:
                    break
            else:
                yield key, tuple(fixed)

    def extend(self, r: int, fixed: tuple) -> tuple[int, Iterable[tuple[int, ...]]]:
        """How many of rule r's assignments agree with fixed, and which."""
        if None not in fixed:
            return 1, (fixed,)
        options = [d if v is None else (v,) for v, d in zip(fixed, self.domains[r])]
        return math.prod(map(len, options)), itertools.product(*options)

    def rows(self, r: int, hits: Iterable[tuple[tuple, tuple]], charges: Optional[_Cap]
             ) -> Iterator[tuple[tuple[int, ...], tuple, tuple[tuple, ...]]]:
        """Per hit, each assignment of rule r agreeing with its fixing, with
        its target's and distinct atoms' keys, charged first given charges."""
        tail, (target, *atoms) = self.tails[r], [get for _, _, get, _ in self.plan.patterns[r]]
        for _, fixed in hits:
            count, assignments = self.extend(r, fixed)
            if charges:
                charges.charge(r, count)
            for a in assignments:
                row = a + tail
                yield a, target(row), tuple(dict.fromkeys([atom(row) for atom in atoms]))

    def alphabet(self) -> tuple[Message, ...]:
        """The trace's messages and every target and atom built, in
        message order: keys, led by the kind's rank, sort as they are unless
        a function occurs with two parameter counts (see _order)."""
        order = sorted(self.messages)
        shapes = {key[0] for key in order}
        if len({shape[:2] for shape in shapes}) < len(shapes):
            order.sort(key=_order)
        return tuple(map(self.messages.__getitem__, order))

    def kept(self, charges: _Cap) -> list[list[tuple]]:
        """Per rule, the rows of the kept instances, in the full grounding's
        order.

        They are the kind-1 survivors whose target occurs in the trace or
        is mixed: an unseen target that kind-1 survivors of both
        polarities aim at.  Every mixed target is an unseen target of the
        polarity with fewer survivors, so only those are enumerated; every
        other assignment comes from joining a target with the seen and
        mixed messages.  Every enumerated assignment is charged to its
        rule before it is made."""
        def fires(r: int, hits: Iterable[tuple[tuple, tuple]]) -> Iterable[tuple]:
            rows = self.rows(r, hits, charges)
            return rows if accepts[r] else (row for row in rows if not seen.isdisjoint(row[2]))

        permit, accepts, seen = self.plan.permit, self.plan.accepts, self.seen
        # Per rule, the hits whose every extension survives kind 1.
        survivors, sizes = [], {True: 0, False: 0}
        for r, hits in enumerate(self.hits):
            survivors.append([((), (None,) * len(self.domains[r]))] if accepts[r] else [
                hit for atom in hits[1:] for hit in atom])
            sizes[permit[r]] += sum(self.extend(r, fixed)[0] for _, fixed in survivors[r])
        few = sizes[True] <= sizes[False]
        unseen = _by_shape({target for r, hits in enumerate(survivors) if permit[r] == few
                            for _, target, _ in self.rows(r, hits, charges)} - seen)
        mixed = _by_shape({target for r in range(len(permit)) if unseen and permit[r] != few
                           for _, target, _ in fires(r, self.unify(r, 0, unseen))})
        return [sorted(fires(r, [*hits[0], *self.unify(r, 0, mixed)]))
                for r, hits in enumerate(self.hits)]


def _accepts_on_other(matcher: Matcher) -> bool:
    """Whether the matcher accepts some word of OTHER letters alone: its
    DFA over the one letter OTHER, where no atom matches, has an accepting
    state.  Past the DFA size cap the answer is yes, which keeps every
    instance and leaves the error to their compilation."""
    regex = _translate(matcher, None)
    if regex in (_dfa.EMPTY, _dfa.EPS):  # decided without a DFA
        return regex == _dfa.EPS
    try:
        automaton = _dfa.build_dfa(regex, 1)
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
    letter is the target's letter: the rule fires bit letter of the
    engine's store bitmasks."""

    __slots__ = ("dfa", "columns", "polarity", "target", "source_index", "letter")

    def __init__(self, dfa: _dfa.Dfa, columns: tuple[int, ...], polarity: str, target: Message,
                 source_index: int, letter: int):
        self.dfa, self.columns, self.polarity = dfa, columns, polarity
        self.target, self.source_index, self.letter = target, source_index, letter

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


def compile_spec(ground: GroundSpec, letters: dict[Message, int],
                 deadline: Optional[float] = None) -> tuple[CompiledRule, ...]:
    """Compile every ground rule over letters, the alphabet's letter_map;
    instances whose local regexes are equal share one DFA, across rules and
    across the groundings of one spec object, whose plan keeps the DFAs.  A
    DfaSizeError is not kept, so each compilation that meets it names its
    own instance.  Only ground_spec's output, which carries its spec's
    plan, can be compiled.  The deadline is read every 1,024 rules or DFA
    states built."""
    plan = ground._plan
    dfas, shapes = plan.dfas, plan.shapes
    out = []
    for i, rule in enumerate(ground.rules):
        if i & 1023 == 1023:
            _dfa.check_deadline(deadline, "building the engine")
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
                    shapes[regex] = _dfa.build_dfa(regex, len(rule.atoms) + 1, deadline=deadline)
                except _dfa.DfaSizeError as e:
                    raise GroundingError(
                        f"spec rule #{rule.source_index + 1}, instance {rule.matcher} "
                        f"{rule.polarity} {format_message(rule.target)}: {e}"
                    ) from None
            dfas[key] = shapes[regex]
        out.append(CompiledRule(dfas[key], tuple([letters[m] for m in rule.atoms]),
                                rule.polarity, rule.target, rule.source_index,
                                letters[rule.target]))
    return tuple(out)


def _distinct_atoms(matcher: Matcher) -> tuple[Message, ...]:
    """The matcher's atoms, each once, in order of first occurrence."""
    return tuple(dict.fromkeys(matcher_atoms(matcher)))
