"""Lifestate specification language: symbolic variables, history
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

An atom or a target is a ``messages.Message`` whose parameters are
``SVar``s or values, so a ground atom is the trace message it matches.
Values are written as in traces (``messages.parse_value``); a line is
split into tokens by ``messages.tokenize``, which programs use too.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from .messages import (
    CB,
    CBRET,
    CI,
    CIRET,
    NAMED_VALUES,
    Cursor,
    Message,
    Record,
    Token,
    Value,
    parse_value,
    read_source,
    strip_comment,
    tokenize,
    value_type_name,
    values_of_message,
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
# Parameters


class SVar(Record):
    """A symbolic variable, optionally type-annotated.

    ``universal`` marks a target-only variable grounded over every
    type-compatible value of the universe."""

    __slots__ = ("name", "type_name", "universal")

    def __init__(self, name: str, type_name: Optional[str] = None, universal: bool = False):
        self.name, self.type_name, self.universal = name, type_name, universal

    def __str__(self) -> str:
        prefix = "forall " if self.universal else ""
        suffix = f":{self.type_name}" if self.type_name else ""
        return f"{prefix}{self.name}{suffix}"


Param = Union[SVar, Value]

# The kinds an atom or target may have; the parser rejects the dis kinds.
_PM_KINDS = (CB, CI, CBRET, CIRET)


# ---------------------------------------------------------------------------
# Matchers


class Matcher(Record):
    __slots__ = ()


class MAtom(Matcher):
    __slots__ = ("message",)

    def __init__(self, message: Message):
        self.message = message

    def __str__(self) -> str:
        return str(self.message)


class MAny(Matcher):
    __slots__ = ()

    def __str__(self) -> str:
        return "TRUE"


class MEps(Matcher):
    __slots__ = ()

    def __str__(self) -> str:
        return "eps"


class MEmpty(Matcher):
    __slots__ = ()

    def __str__(self) -> str:
        return "empty"


class MConcat(Matcher):
    __slots__ = ("left", "right")

    def __init__(self, left: Matcher, right: Matcher):
        self.left, self.right = left, right

    def __str__(self) -> str:
        return f"{_paren(self.left, 2)} ; {_paren(self.right, 2)}"


class MStar(Matcher):
    __slots__ = ("inner",)

    def __init__(self, inner: Matcher):
        self.inner = inner

    def __str__(self) -> str:
        return f"{_paren(self.inner, 4)}*"


class MUnion(Matcher):
    __slots__ = ("left", "right")

    def __init__(self, left: Matcher, right: Matcher):
        self.left, self.right = left, right

    def __str__(self) -> str:
        return f"{_paren(self.left, 0)} + {_paren(self.right, 0)}"


class MIntersect(Matcher):
    __slots__ = ("left", "right")

    def __init__(self, left: Matcher, right: Matcher):
        self.left, self.right = left, right

    def __str__(self) -> str:
        return f"{_paren(self.left, 1)} & {_paren(self.right, 1)}"


class MNegate(Matcher):
    __slots__ = ("inner",)

    def __init__(self, inner: Matcher):
        self.inner = inner

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


class Rule(Record):
    __slots__ = ("matcher", "polarity", "target")

    def __init__(self, matcher: Matcher, polarity: str, target: Message):
        if polarity not in ARROWS:
            raise ValueError(f"polarity must be permit or prohibit, got {polarity!r}")
        self.matcher, self.polarity, self.target = matcher, polarity, target

    def __str__(self) -> str:
        return f"{self.matcher} {ARROWS[self.polarity]} {self.target}"


class LifestateSpec(Record):
    """Rules in file order.  _plan, grounding's plan of them, is a cache
    that ground_spec sets on first use and compile_spec fills; every
    grounding of this object, and every engine built from one, shares it."""

    __slots__ = ("rules", "_plan")

    def __init__(self, rules: tuple[Rule, ...] = ()):
        self.rules = rules
        self._plan = None

    def __str__(self) -> str:
        return "\n".join(str(r) for r in self.rules)


def matcher_atoms(m: Matcher) -> Iterable[Message]:
    if isinstance(m, MAtom):
        yield m.message
    elif isinstance(m, (MConcat, MUnion, MIntersect)):
        yield from matcher_atoms(m.left)
        yield from matcher_atoms(m.right)
    elif isinstance(m, (MStar, MNegate)):
        yield from matcher_atoms(m.inner)


def message_vars(m: Message) -> set[str]:
    """The names of the symbolic variables among an atom's parameters; a
    ground atom has none."""
    return {p.name for p in values_of_message(m) if isinstance(p, SVar)}


def matcher_vars(m: Matcher) -> set[str]:
    out: set[str] = set()
    for atom in matcher_atoms(m):
        out |= message_vars(atom)
    return out


def free_vars(rule: Rule) -> set[str]:
    """All symbolic variables of a rule (matcher and target, including
    universally-quantified target variables)."""
    return matcher_vars(rule.matcher) | message_vars(rule.target)


def rule_annotations(rule: Rule) -> dict[str, Optional[str]]:
    """Variable name -> unified type annotation (None = unannotated).

    Conflicting annotations for the same variable are an error."""
    out: dict[str, Optional[str]] = {}
    params = list(values_of_message(rule.target))
    for atom in matcher_atoms(rule.matcher):
        params.extend(values_of_message(atom))
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
    for p in values_of_message(rule.target):
        if isinstance(p, SVar) and not p.universal and p.name not in bound:
            raise SpecError(
                f"target variable {p.name!r} is not bound by the matcher "
                f"and not declared with forall"
            )
    rule_annotations(rule)


# ---------------------------------------------------------------------------
# Binding application

Binding = Mapping[str, Value]


def apply_binding_param(binding: Binding, p: Param) -> Param:
    if isinstance(p, SVar) and p.name in binding:
        v = binding[p.name]
        if p.type_name is not None and value_type_name(v) != p.type_name:
            raise BindingTypeError(
                f"variable {p.name}:{p.type_name} bound to {v} of type "
                f"{value_type_name(v)}"
            )
        return v
    return p


def apply_binding(binding: Binding, m: Message) -> Message:
    """Substitute bound variables; unbound variables stay symbolic."""
    args = tuple(apply_binding_param(binding, p) for p in m.args)
    ret = apply_binding_param(binding, m.ret) if m.ret is not None else None
    return Message(m.kind, m.fun, args, ret)


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
        return MAtom(Message(kind, fun_tok.text, tuple(args), ret))

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
            return parse_value(tok.text, self.line)
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
    """Parse one rule; the parser recurses once per nesting level, so a
    matcher nested deeper than the interpreter's stack allows is a
    SpecError."""
    try:
        return _RuleParser(tokenize(text, line, SpecError), line).parse_rule()
    except RecursionError:
        raise SpecError("matcher nested too deeply", line) from None


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
