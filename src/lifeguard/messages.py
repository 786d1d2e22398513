"""Values, messages, and observable traces.

This module is the shared vocabulary of the whole toolkit: concrete values
(object identities and primitive constants), call/return messages exchanged
across the app-framework interface, and finite observable traces with their
textual file format.  It also holds the front end that traces, specs and
programs share: the value syntax, the comment rule, the lexer and the
token cursor of the spec and program parsers.

Trace file format (one message per line, ``#`` starts a comment when at the
beginning of a line or preceded by whitespace -- object identities like
``a#1:Activity`` are never split):

    cb f(v, ...)            callback entry        (framework -> app)
    ci f(v, ...)            callin entry          (app -> framework)
    cbret v = f(v, ...)     callback return       (app -> framework)
    ciret v = f(v, ...)     callin return         (framework -> app)
    dis ci f(v, ...)        disallowed callin attempt, always last
    dis cbret v = f(v, ...) prohibited callback return, always last

Whitespace may separate any two parts of a line.  Values are written
``name#n:Type`` (object identity), ``true``, ``false``, integers, ``unit``,
or ``"strings"``, in which ``\\"``, ``\\\\`` and ``\\n`` (a line break) are the
only escapes.  Lines end at ``\\n`` only: other line-break characters do
not end a line.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence


class TraceError(Exception):
    """Base error for malformed trace text or trace structure."""

    def __init__(self, msg: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)


class TraceParseError(TraceError):
    """Syntactically malformed trace text."""


class TraceNestingError(TraceError):
    """Structurally malformed message sequence (nesting, dis placement)."""


# ---------------------------------------------------------------------------
# Values


class Value:
    """Base class for concrete values carried by messages.

    All concrete values are immutable and hashable; equality is structural.
    """

    __slots__ = ()

    def sort_key(self) -> tuple:
        raise NotImplementedError


@dataclass(frozen=True)
class Unit(Value):
    def sort_key(self) -> tuple:
        return (0,)

    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class Bool(Value):
    flag: bool

    def sort_key(self) -> tuple:
        return (1, self.flag)

    def __str__(self) -> str:
        return "true" if self.flag else "false"


@dataclass(frozen=True)
class Int(Value):
    n: int

    def sort_key(self) -> tuple:
        return (2, self.n)

    def __str__(self) -> str:
        return str(self.n)


@dataclass(frozen=True)
class Str(Value):
    s: str

    def sort_key(self) -> tuple:
        return (3, self.s)

    def __str__(self) -> str:
        quoted = self.s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{quoted}"'


@dataclass(frozen=True)
class ObjectId(Value):
    """An allocated object identity ``label#index:Type``.

    The label is a human-readable tag with no semantic weight beyond being
    part of the identity; the index disambiguates allocations.
    """

    label: str
    index: int
    type_name: str

    def __post_init__(self) -> None:
        if not self.type_name:
            raise ValueError("object identity requires a non-empty type name")

    def sort_key(self) -> tuple:
        return (4, self.type_name, self.label, self.index)

    def __str__(self) -> str:
        return f"{self.label}#{self.index}:{self.type_name}"


UNIT = Unit()
TRUE = Bool(True)
FALSE = Bool(False)


def value_type_name(v: Value) -> Optional[str]:
    """Type tag used when grounding typed variables; None for primitives."""
    return v.type_name if isinstance(v, ObjectId) else None


# ---------------------------------------------------------------------------
# Messages

APP = "app"
FWK = "fwk"

CB = "cb"
CI = "ci"
CBRET = "cbret"
CIRET = "ciret"
DIS_CI = "dis_ci"
DIS_CBRET = "dis_cbret"

KINDS = (CB, CI, CBRET, CIRET, DIS_CI, DIS_CBRET)
RETURN_KINDS = (CBRET, CIRET, DIS_CBRET)

# Callbacks are app functions invoked by the framework; callins are
# framework functions invoked by the app.  The message kind therefore
# determines the callee's package.
_KIND_PACKAGE = {CB: APP, CBRET: APP, DIS_CBRET: APP, CI: FWK, CIRET: FWK, DIS_CI: FWK}


@dataclass(frozen=True)
class FunctionSymbol:
    name: str
    package: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("function symbol requires a name")
        if self.package not in (APP, FWK):
            raise ValueError(f"unknown package tag {self.package!r}")


@dataclass(frozen=True)
class Thunk:
    """A function symbol bound to concrete argument values."""

    fun: FunctionSymbol
    args: tuple[Value, ...]

    def sort_key(self) -> tuple:
        return (self.fun.name, self.fun.package, tuple(a.sort_key() for a in self.args))


@dataclass(frozen=True)
class Message:
    """One observable app-framework interaction.

    ``cb`` and ``ciret`` are back-messages (framework to app); ``ci`` and
    ``cbret`` are in-messages (app to framework); ``dis_*`` wraps the
    blocked in-message that ends a violating trace.
    """

    kind: str
    thunk: Thunk
    ret: Optional[Value] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown message kind {self.kind!r}")
        if (self.ret is not None) != (self.kind in RETURN_KINDS):
            raise ValueError(f"return value present iff kind is a return kind ({self.kind})")
        expected = _KIND_PACKAGE[self.kind]
        if self.thunk.fun.package != expected:
            raise ValueError(
                f"{self.kind} message requires a {expected}-tagged function, "
                f"got {self.thunk.fun.package}"
            )

    def is_dis(self) -> bool:
        return self.kind in (DIS_CI, DIS_CBRET)

    def base_kind(self) -> str:
        """Kind with any dis-wrapping stripped."""
        return {DIS_CI: CI, DIS_CBRET: CBRET}.get(self.kind, self.kind)

    def is_back(self) -> bool:
        return self.kind in (CB, CIRET)

    def is_in(self) -> bool:
        return self.kind in (CI, CBRET)

    def unwrap(self) -> "Message":
        """The plain in-message inside a dis message."""
        if not self.is_dis():
            raise ValueError("unwrap on a non-dis message")
        return Message(self.base_kind(), self.thunk, self.ret)

    def wrap_dis(self) -> "Message":
        """Wrap an in-message as the disallowed attempt that ends a trace."""
        if not self.is_in():
            raise ValueError("only in-messages can be dis-wrapped")
        kind = DIS_CI if self.kind == CI else DIS_CBRET
        return Message(kind, self.thunk, self.ret)

    def sort_key(self) -> tuple:
        ret_key = self.ret.sort_key() if self.ret is not None else ()
        return (KINDS.index(self.kind), self.thunk.sort_key(), ret_key)

    def __str__(self) -> str:
        return format_message(self)


def _check_structure(messages: Sequence[Message]) -> None:
    """Enforce trace invariants: dis placement and call/return nesting.

    Nesting follows the app-framework dialogue: a callback entry is legal
    only when control is on the framework side (no open call, or the
    innermost open call is a callin), a callin entry only when control is on
    the app side (innermost open call is a callback), and every return must
    match the innermost open call of the same thunk.  Dis messages record a
    blocked attempt and are exempt from the side discipline, but must come
    last.
    """
    stack: list[Message] = []
    for i, m in enumerate(messages):
        line = i + 1
        if m.is_dis():
            if i != len(messages) - 1:
                raise TraceNestingError("dis message must be the last message", line)
            continue
        if m.kind == CB:
            if stack and stack[-1].kind == CB:
                raise TraceNestingError(
                    "callback entry while control is on the app side", line
                )
            stack.append(m)
        elif m.kind == CI:
            if not stack or stack[-1].kind != CB:
                raise TraceNestingError(
                    "callin entry with no enclosing callback", line
                )
            stack.append(m)
        else:  # cbret / ciret
            opener = CB if m.kind == CBRET else CI
            if not stack or stack[-1].kind != opener:
                raise TraceNestingError(f"{m.kind} does not close an open {opener}", line)
            if stack[-1].thunk != m.thunk:
                raise TraceNestingError(
                    f"{m.kind} of {m.thunk.fun.name} does not match the open "
                    f"{opener} of {stack[-1].thunk.fun.name}",
                    line,
                )
            stack.pop()


@dataclass(frozen=True)
class Trace:
    """A finite sequence of observable messages.

    Invariants (checked on construction): at most one dis message and only
    in final position; call/return messages are well-nested per the
    app-framework dialogue.  Unclosed calls at the end are allowed -- a
    trace may be the prefix of a longer recording.
    """

    messages: tuple[Message, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "messages", tuple(self.messages))
        _check_structure(self.messages)

    def __len__(self) -> int:
        return len(self.messages)

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages)

    def __getitem__(self, idx):
        return self.messages[idx]


def is_violation(t: Trace) -> bool:
    """True iff the trace is non-empty and ends with a dis message."""
    return len(t.messages) > 0 and t.messages[-1].is_dis()


# ---------------------------------------------------------------------------
# Parsing
#
# One set of patterns for names, object identities, strings and integers
# serves all three formats: specs and programs are split into tokens by
# tokenize, and a trace line is matched whole by _MESSAGE_RE.

_NAME = r"[A-Za-z_]\w*"
_OBJECT = rf"{_NAME}#\d+:{_NAME}"
_STRING = r'"(?:[^"\\]|\\["\\n])*"'
_INT = r"-?\d+"
_VALUE = rf"{_OBJECT}|{_STRING}|{_INT}|{_NAME}"

NAMED_VALUES = {"unit": UNIT, "true": TRUE, "false": FALSE}

_OBJECT_RE = re.compile(rf"({_NAME})#(\d+):({_NAME})")
_STRING_RE = re.compile(_STRING)
_INT_RE = re.compile(_INT)
_ESCAPE_RE = re.compile(r"\\(.)")
_UNESCAPE = {'"': '"', "\\": "\\", "n": "\n"}
_COMMENT_RE = re.compile(rf"({_STRING})|(?:(?<=\s)|^)#.*$")

_TOKEN_RE = re.compile(
    rf"(?P<objlit>{_OBJECT})|(?P<string>{_STRING})|(?P<ident>{_NAME})|(?P<int>{_INT})"
    r"|(?P<punct>-/>|->|=>|[()\[\],;=*+&!:])|(?P<bad>\S)"
)

_VALUE_RE = re.compile(_VALUE)
_MESSAGE_RE = re.compile(
    rf"(?:(?P<dis>dis)\s+)?(?P<kind>cbret|ciret|cb|ci)\s+(?:(?P<ret>{_VALUE})\s*=\s*)?"
    rf"(?P<fun>{_NAME})\s*\((?P<args>\s*(?:(?:{_VALUE})\s*(?:,\s*(?:{_VALUE})\s*)*)?)\)"
)


def strip_comment(line: str) -> str:
    """Drop a ``#`` comment; a ``#`` inside an object identity or a string
    is kept."""
    return _COMMENT_RE.sub(lambda m: m[1] or "", line)


def parse_value(text: str, line: Optional[int] = None) -> Value:
    """Parse one value token (shared with the spec and program parsers)."""
    text = text.strip()
    if text in NAMED_VALUES:
        return NAMED_VALUES[text]
    m = _OBJECT_RE.fullmatch(text)
    if m:
        return ObjectId(m[1], int(m[2]), m[3])
    if _INT_RE.fullmatch(text):
        return Int(int(text))
    if _STRING_RE.fullmatch(text):
        return Str(_ESCAPE_RE.sub(lambda m: _UNESCAPE[m[1]], text[1:-1]))
    raise TraceParseError(f"cannot parse value {text!r}", line)


class Token(NamedTuple):
    kind: str  # objlit, string, ident, int or punct
    text: str
    line: int


def tokenize(text: str, line: int, error) -> list[Token]:
    """The tokens of one line of spec or program text; whitespace separates
    tokens and is dropped.  A character that starts no token raises
    ``error(message, line)``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise error(f"unexpected character {m.group()!r}", line)
        tokens.append(Token(m.lastgroup, m.group(), line))
    return tokens


class Cursor:
    """A position in a token list, for the recursive-descent spec and
    program parsers; errors are raised as ``error(message, line)``."""

    def __init__(self, tokens: list[Token], error):
        self.tokens = tokens
        self.error = error
        self.pos = 0

    def peek(self, offset: int = 0) -> Optional[Token]:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1].line if self.tokens else None
            raise self.error("unexpected end of input", last)
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise self.error(f"expected {text!r}, got {tok.text!r}", tok.line)
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.text == text


def parse_message_line(text: str, line: int) -> Message:
    """Parse one trace line (comment and surrounding whitespace removed)."""
    m = _MESSAGE_RE.fullmatch(text)
    if m is None:
        raise TraceParseError(f"expected '[dis] kind [ret =] f(args)', got {text!r}", line)
    dis, kind, ret, fun, args = m.group("dis", "kind", "ret", "fun", "args")
    if (ret is not None) != (kind in RETURN_KINDS):
        form = "<ret> = f(args)" if ret is None else "f(args) without a return value"
        raise TraceParseError(f"{kind} expects {form}, got {text!r}", line)
    if dis:
        if kind not in (CI, CBRET):
            raise TraceParseError("dis wraps in-messages only (ci or cbret)", line)
        kind = DIS_CI if kind == CI else DIS_CBRET
    values = tuple(parse_value(v, line) for v in _VALUE_RE.findall(args))
    thunk = Thunk(FunctionSymbol(fun, _KIND_PACKAGE[kind]), values)
    return Message(kind, thunk, None if ret is None else parse_value(ret, line))


def parse_trace(text: str) -> Trace:
    """Parse trace file content into a Trace; round-trips with serialize_trace."""
    messages: list[Message] = []
    lines_of: list[int] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = strip_comment(raw).strip()
        if not stripped:
            continue
        messages.append(parse_message_line(stripped, lineno))
        lines_of.append(lineno)
    try:
        return Trace(tuple(messages))
    except TraceNestingError as e:
        # Re-raise with the source line of the offending message.
        if e.line is not None and 1 <= e.line <= len(lines_of):
            raise TraceNestingError(str(e).split(": ", 1)[-1], lines_of[e.line - 1]) from None
        raise


def read_source(path, error) -> str:
    """The UTF-8 text of a trace, spec or program file; text that does not
    decode raises ``error``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


# ---------------------------------------------------------------------------
# Serialization


def format_value(v: Value) -> str:
    return str(v)


def format_message(m: Message) -> str:
    base = m.base_kind()
    call = f"{m.thunk.fun.name}({','.join(format_value(a) for a in m.thunk.args)})"
    if base in (CBRET, CIRET):
        ret = m.ret if m.ret is not None else UNIT
        body = f"{base} {format_value(ret)} = {call}"
    else:
        body = f"{base} {call}"
    return f"dis {body}" if m.is_dis() else body


def serialize_trace(t: Trace) -> str:
    """Canonical textual form; the empty trace serializes to the empty string."""
    if not t.messages:
        return ""
    return "\n".join(format_message(m) for m in t.messages) + "\n"


def values_of_message(m: Message) -> Iterator[Value]:
    """All values occurring in the message (arguments and return)."""
    yield from m.thunk.args
    if m.ret is not None:
        yield m.ret


def load_trace(path) -> Trace:
    return parse_trace(read_source(path, TraceParseError))
