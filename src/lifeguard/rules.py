"""Lifestate specification language: parametrized messages, history
matchers, and permit/prohibit rules.

A rule ``r -> m`` permits message ``m`` whenever the whole message history
matches the regular expression ``r``; ``r -/> m`` prohibits it.  Matchers
are anchored on the entire history, so suffix-triggered rules are written
with an explicit ``TRUE* ;`` prefix.

Spec file grammar (one rule per line, ``#`` comments)::

    rule    := matcher ('->' | '-/>') target
    matcher := union of intersections of concatenations
               operators: ';' concat, '*' star, '+' union, '&' intersect,
               '!' complement, 'eps', 'empty', 'TRUE' (single-message
               wildcard, alias '_'), parentheses
    atom    := (cb|ci) f(p, ...)  |  (cbret|ciret) p = f(p, ...)
    p       := x | x:Type | value | forall x:Type   (forall in targets only)

Values are written as in traces (``messages.parse_value``); a line is
split into tokens by ``messages.tokenize``, which programs use too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

from .messages import (
    APP,
    CB,
    CBRET,
    CI,
    CIRET,
    FWK,
    NAMED_VALUES,
    Cursor,
    FunctionSymbol,
    Message,
    Thunk,
    Token,
    Trace,
    Value,
    parse_value,
    read_source,
    strip_comment,
    tokenize,
    value_type_name,
)


class SpecError(Exception):
    """Malformed specification text or rule structure."""

    def __init__(self, msg: str, line: Optional[int] = None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)


class BindingTypeError(Exception):
    """A binding maps a typed variable to a value of a different type."""


# ---------------------------------------------------------------------------
# Parameters and parametrized messages


@dataclass(frozen=True)
class SVar:
    """A symbolic variable, optionally type-annotated.

    ``universal`` marks a target-only variable grounded over every
    type-compatible value of the universe."""

    name: str
    type_name: Optional[str] = None
    universal: bool = False

    def __str__(self) -> str:
        prefix = "forall " if self.universal else ""
        suffix = f":{self.type_name}" if self.type_name else ""
        return f"{prefix}{self.name}{suffix}"


@dataclass(frozen=True)
class PLit:
    value: Value

    def __str__(self) -> str:
        return str(self.value)


Param = Union[SVar, PLit]

_PM_KINDS = (CB, CI, CBRET, CIRET)
_PM_PACKAGE = {CB: APP, CBRET: APP, CI: FWK, CIRET: FWK}


@dataclass(frozen=True)
class ParamMessage:
    kind: str
    fun: str
    args: tuple[Param, ...]
    ret: Optional[Param] = None

    def __post_init__(self) -> None:
        if self.kind not in _PM_KINDS:
            raise ValueError(f"parametrized messages use kinds {_PM_KINDS}, got {self.kind!r}")
        if (self.ret is not None) != (self.kind in (CBRET, CIRET)):
            raise ValueError("return parameter present iff kind is a return kind")

    def params(self) -> Iterable[Param]:
        yield from self.args
        if self.ret is not None:
            yield self.ret

    def variables(self) -> set[str]:
        return {p.name for p in self.params() if isinstance(p, SVar)}

    def is_ground(self) -> bool:
        return not self.variables()

    def to_message(self) -> Message:
        if not self.is_ground():
            raise ValueError(f"{self} is not ground")
        args = tuple(p.value for p in self.args)  # type: ignore[union-attr]
        ret = self.ret.value if self.ret is not None else None  # type: ignore[union-attr]
        return Message(self.kind, Thunk(FunctionSymbol(self.fun, _PM_PACKAGE[self.kind]), args), ret)

    def __str__(self) -> str:
        args = ",".join(str(p) for p in self.args)
        if self.ret is not None:
            return f"{self.kind} {self.ret} = {self.fun}({args})"
        return f"{self.kind} {self.fun}({args})"


# ---------------------------------------------------------------------------
# Matchers


class Matcher:
    __slots__ = ()


@dataclass(frozen=True)
class MAtom(Matcher):
    message: ParamMessage

    def __str__(self) -> str:
        return str(self.message)


@dataclass(frozen=True)
class MAny(Matcher):
    def __str__(self) -> str:
        return "TRUE"


@dataclass(frozen=True)
class MEps(Matcher):
    def __str__(self) -> str:
        return "eps"


@dataclass(frozen=True)
class MEmpty(Matcher):
    def __str__(self) -> str:
        return "empty"


@dataclass(frozen=True)
class MConcat(Matcher):
    left: Matcher
    right: Matcher

    def __str__(self) -> str:
        return f"{_paren(self.left, 2)} ; {_paren(self.right, 2)}"


@dataclass(frozen=True)
class MStar(Matcher):
    inner: Matcher

    def __str__(self) -> str:
        return f"{_paren(self.inner, 4)}*"


@dataclass(frozen=True)
class MUnion(Matcher):
    left: Matcher
    right: Matcher

    def __str__(self) -> str:
        return f"{_paren(self.left, 0)} + {_paren(self.right, 0)}"


@dataclass(frozen=True)
class MIntersect(Matcher):
    left: Matcher
    right: Matcher

    def __str__(self) -> str:
        return f"{_paren(self.left, 1)} & {_paren(self.right, 1)}"


@dataclass(frozen=True)
class MNegate(Matcher):
    inner: Matcher

    def __str__(self) -> str:
        return f"!{_paren(self.inner, 3)}"


_LEVELS = {MUnion: 0, MIntersect: 1, MConcat: 2, MNegate: 3, MStar: 4}


def _paren(m: Matcher, context: int) -> str:
    level = _LEVELS.get(type(m), 5)
    text = str(m)
    return f"({text})" if level < context else text


# ---------------------------------------------------------------------------
# Rules and specs

PERMIT = "permit"
PROHIBIT = "prohibit"
# The rule arrow of each polarity, in spec text and in every printed rule.
ARROWS = {PERMIT: "->", PROHIBIT: "-/>"}


@dataclass(frozen=True)
class Rule:
    matcher: Matcher
    polarity: str
    target: ParamMessage

    def __post_init__(self) -> None:
        if self.polarity not in ARROWS:
            raise ValueError(f"polarity must be permit or prohibit, got {self.polarity!r}")

    def __str__(self) -> str:
        return f"{self.matcher} {ARROWS[self.polarity]} {self.target}"


@dataclass(frozen=True)
class LifestateSpec:
    rules: tuple[Rule, ...] = ()

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


def matcher_atoms(m: Matcher) -> Iterable[ParamMessage]:
    if isinstance(m, MAtom):
        yield m.message
    elif isinstance(m, (MConcat, MUnion, MIntersect)):
        yield from matcher_atoms(m.left)
        yield from matcher_atoms(m.right)
    elif isinstance(m, (MStar, MNegate)):
        yield from matcher_atoms(m.inner)


def matcher_vars(m: Matcher) -> set[str]:
    out: set[str] = set()
    for atom in matcher_atoms(m):
        out |= atom.variables()
    return out


def free_vars(rule: Rule) -> set[str]:
    """All symbolic variables of a rule (matcher and target, including
    universally-quantified target variables)."""
    return matcher_vars(rule.matcher) | rule.target.variables()


def rule_annotations(rule: Rule) -> dict[str, Optional[str]]:
    """Variable name -> unified type annotation (None = unannotated).

    Conflicting annotations for the same variable are an error."""
    out: dict[str, Optional[str]] = {}
    params = list(rule.target.params())
    for atom in matcher_atoms(rule.matcher):
        params.extend(atom.params())
    for p in params:
        if not isinstance(p, SVar):
            continue
        if p.name in out and p.type_name and out[p.name] and out[p.name] != p.type_name:
            raise SpecError(
                f"variable {p.name!r} annotated both {out[p.name]} and {p.type_name}"
            )
        if p.name not in out or (p.type_name and not out[p.name]):
            out[p.name] = p.type_name
    return out


def check_rule(rule: Rule) -> None:
    """Scoping invariant: target variables are matcher-bound or universal."""
    bound = matcher_vars(rule.matcher)
    for p in rule.target.params():
        if isinstance(p, SVar) and not p.universal and p.name not in bound:
            raise SpecError(
                f"target variable {p.name!r} is not bound by the matcher "
                f"and not declared with forall"
            )
    for atom in matcher_atoms(rule.matcher):
        for p in atom.params():
            if isinstance(p, SVar) and p.universal:
                raise SpecError("forall parameters are only allowed in rule targets")
    rule_annotations(rule)


# ---------------------------------------------------------------------------
# Binding application and matching

Binding = Mapping[str, Value]


def apply_binding_param(binding: Binding, p: Param) -> Param:
    if isinstance(p, SVar) and p.name in binding:
        v = binding[p.name]
        if p.type_name is not None and value_type_name(v) != p.type_name:
            raise BindingTypeError(
                f"variable {p.name}:{p.type_name} bound to {v} of type "
                f"{value_type_name(v)}"
            )
        return PLit(v)
    return p


def apply_binding(binding: Binding, pm: ParamMessage) -> ParamMessage:
    """Substitute bound variables; unbound variables stay symbolic."""
    args = tuple(apply_binding_param(binding, p) for p in pm.args)
    ret = apply_binding_param(binding, pm.ret) if pm.ret is not None else None
    return ParamMessage(pm.kind, pm.fun, args, ret)


def apply_binding_matcher(binding: Binding, m: Matcher) -> Matcher:
    if isinstance(m, MAtom):
        return MAtom(apply_binding(binding, m.message))
    if isinstance(m, MConcat):
        return MConcat(apply_binding_matcher(binding, m.left), apply_binding_matcher(binding, m.right))
    if isinstance(m, MUnion):
        return MUnion(apply_binding_matcher(binding, m.left), apply_binding_matcher(binding, m.right))
    if isinstance(m, MIntersect):
        return MIntersect(apply_binding_matcher(binding, m.left), apply_binding_matcher(binding, m.right))
    if isinstance(m, MStar):
        return MStar(apply_binding_matcher(binding, m.inner))
    if isinstance(m, MNegate):
        return MNegate(apply_binding_matcher(binding, m.inner))
    return m


def _atom_matches(binding: Binding, pm: ParamMessage, msg: Message) -> bool:
    ground = apply_binding(binding, pm)
    if not ground.is_ground():
        return False
    return ground.to_message() == msg


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
            out = j == i + 1 and _atom_matches(binding, m.message, word[i])
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


# ---------------------------------------------------------------------------
# Parsing


class _RuleParser(Cursor):
    def __init__(self, tokens: list[Token], line: int):
        super().__init__(tokens, SpecError)
        self.line = line

    def parse_rule(self) -> Rule:
        matcher = self.parse_union()
        arrow = self.next()
        polarity = next((p for p, text in ARROWS.items() if text == arrow.text), None)
        if polarity is None:
            raise SpecError(f"expected -> or -/>, got {arrow.text!r}", self.line)
        target = self.parse_atom(allow_forall=True)
        if self.peek() is not None:
            raise SpecError(f"trailing tokens after target: {self.peek().text!r}", self.line)
        rule = Rule(matcher, polarity, target.message)
        try:
            check_rule(rule)
        except SpecError as e:
            raise SpecError(str(e), self.line) from None
        return rule

    def parse_union(self) -> Matcher:
        left = self.parse_intersect()
        while self.at("+"):
            self.next()
            left = MUnion(left, self.parse_intersect())
        return left

    def parse_intersect(self) -> Matcher:
        left = self.parse_concat()
        while self.at("&"):
            self.next()
            left = MIntersect(left, self.parse_concat())
        return left

    def parse_concat(self) -> Matcher:
        left = self.parse_postfix()
        while self.at(";"):
            self.next()
            left = MConcat(left, self.parse_postfix())
        return left

    def parse_postfix(self) -> Matcher:
        m = self.parse_prim()
        while self.at("*"):
            self.next()
            m = MStar(m)
        return m

    def parse_prim(self) -> Matcher:
        tok = self.peek()
        if tok is None:
            raise SpecError("unexpected end of matcher", self.line)
        if tok.text == "!":
            self.next()
            return MNegate(self.parse_postfix())
        if tok.text == "(":
            self.next()
            inner = self.parse_union()
            self.expect(")")
            while self.at("*"):
                self.next()
                inner = MStar(inner)
            return inner
        if tok.text == "eps":
            self.next()
            return MEps()
        if tok.text == "empty":
            self.next()
            return MEmpty()
        if tok.text in ("TRUE", "_"):
            self.next()
            return MAny()
        return self.parse_atom(allow_forall=False)

    def parse_atom(self, allow_forall: bool) -> MAtom:
        kind_tok = self.next()
        if kind_tok.text not in _PM_KINDS:
            raise SpecError(f"expected message kind cb/ci/cbret/ciret, got {kind_tok.text!r}", self.line)
        kind = kind_tok.text
        ret: Optional[Param] = None
        if kind in (CBRET, CIRET):
            ret = self.parse_param(allow_forall)
            self.expect("=")
        fun_tok = self.next()
        if fun_tok.kind != "ident":
            raise SpecError(f"expected function name, got {fun_tok.text!r}", self.line)
        self.expect("(")
        args: list[Param] = []
        if not self.at(")"):
            while True:
                args.append(self.parse_param(allow_forall))
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(")")
        return MAtom(ParamMessage(kind, fun_tok.text, tuple(args), ret))

    def parse_param(self, allow_forall: bool) -> Param:
        tok = self.peek()
        if tok is None:
            raise SpecError("unexpected end of parameter list", self.line)
        if tok.text == "forall":
            if not allow_forall:
                raise SpecError("forall parameters are only allowed in rule targets", self.line)
            self.next()
            name = self.next()
            if name.kind != "ident":
                raise SpecError(f"expected variable after forall, got {name.text!r}", self.line)
            self.expect(":")
            ty = self.next()
            if ty.kind != "ident":
                raise SpecError(f"expected type after forall {name.text}:", self.line)
            return SVar(name.text, ty.text, universal=True)
        if tok.kind in ("objlit", "string", "int") or tok.text in NAMED_VALUES:
            self.next()
            return PLit(parse_value(tok.text, self.line))
        if tok.kind == "ident":
            self.next()
            if self.at(":"):
                self.next()
                ty = self.next()
                if ty.kind != "ident":
                    raise SpecError(f"expected type after {tok.text}:", self.line)
                return SVar(tok.text, ty.text)
            return SVar(tok.text)
        raise SpecError(f"cannot parse parameter {tok.text!r}", self.line)


def parse_rule(text: str, line: int = 1) -> Rule:
    return _RuleParser(tokenize(text, line, SpecError), line).parse_rule()


def parse_spec(text: str) -> LifestateSpec:
    """Parse spec file content: one rule per line, ``#`` comments allowed."""
    rules = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = strip_comment(raw).strip()
        if not stripped:
            continue
        rules.append(parse_rule(stripped, lineno))
    return LifestateSpec(tuple(rules))


def load_spec(path) -> LifestateSpec:
    return parse_spec(read_source(path, SpecError))
