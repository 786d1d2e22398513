"""Values, messages, and observable traces.

This module is the shared vocabulary of the whole toolkit: concrete values
(object identities and primitive constants), call/return messages exchanged
across the app-framework interface, and finite observable traces with their
textual file format.

Trace file format (one message per line, ``#`` starts a comment when at the
beginning of a line or preceded by whitespace -- object identities like
``a#1:Activity`` are never split):

    cb f(v, ...)            callback entry        (framework -> app)
    ci f(v, ...)            callin entry          (app -> framework)
    cbret v = f(v, ...)     callback return       (app -> framework)
    ciret v = f(v, ...)     callin return         (framework -> app)
    dis ci f(v, ...)        disallowed callin attempt, always last
    dis cbret v = f(v, ...) prohibited callback return, always last

Values are written ``name#n:Type`` (object identity), ``true``, ``false``,
integers, ``"strings"``, or ``unit``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence


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
        quoted = self.s.replace("\\", "\\\\").replace('"', '\\"')
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

_OBJECT_RE = re.compile(r"^([A-Za-z_]\w*)#(\d+):([A-Za-z_]\w*)$")
_INT_RE = re.compile(r"^-?\d+$")
_IDENT_RE = re.compile(r"^[A-Za-z_]\w*$")
_COMMENT_RE = re.compile(r"(?:(?<=\s)|^)#.*$")


def strip_comment(line: str) -> str:
    """Drop a ``#`` comment; a ``#`` inside an object identity is kept."""
    return _COMMENT_RE.sub("", line)


def parse_value(text: str, line: Optional[int] = None) -> Value:
    """Parse one value token (shared with the spec and program parsers)."""
    text = text.strip()
    if text == "unit":
        return UNIT
    if text == "true":
        return TRUE
    if text == "false":
        return FALSE
    if _INT_RE.match(text):
        return Int(int(text))
    if text.startswith('"'):
        if not text.endswith('"') or len(text) < 2:
            raise TraceParseError(f"unterminated string literal {text!r}", line)
        body = text[1:-1]
        out, i = [], 0
        while i < len(body):
            c = body[i]
            if c == "\\":
                if i + 1 >= len(body) or body[i + 1] not in ('"', "\\"):
                    raise TraceParseError(f"bad escape in string literal {text!r}", line)
                out.append(body[i + 1])
                i += 2
            else:
                out.append(c)
                i += 1
        return Str("".join(out))
    m = _OBJECT_RE.match(text)
    if m:
        return ObjectId(m.group(1), int(m.group(2)), m.group(3))
    raise TraceParseError(f"cannot parse value {text!r}", line)


def split_args(text: str, line: Optional[int] = None) -> list[str]:
    """Split a comma-separated argument list, respecting string literals."""
    text = text.strip()
    if not text:
        return []
    parts, buf, in_str, escaped = [], [], False, False
    for c in text:
        if in_str:
            buf.append(c)
            if escaped:
                escaped = False
            elif c == "\\":
                escaped = True
            elif c == '"':
                in_str = False
        elif c == '"':
            buf.append(c)
            in_str = True
        elif c == ",":
            parts.append("".join(buf))
            buf = []
        else:
            buf.append(c)
    if in_str:
        raise TraceParseError("unterminated string literal in argument list", line)
    parts.append("".join(buf))
    return parts


def _parse_call(text: str, line: int) -> tuple[str, tuple[Value, ...]]:
    text = text.strip()
    if not text.endswith(")") or "(" not in text:
        raise TraceParseError(f"expected f(args), got {text!r}", line)
    name, argtext = text[:-1].split("(", 1)
    name = name.strip()
    if not _IDENT_RE.match(name):
        raise TraceParseError(f"bad function name {name!r}", line)
    args = tuple(parse_value(a, line) for a in split_args(argtext, line))
    return name, args


def parse_message_line(line_text: str, line: int) -> Message:
    text = line_text.strip()
    dis = False
    if text.startswith("dis "):
        dis = True
        text = text[4:].strip()
    for kind in (CBRET, CIRET, CB, CI):
        if text.startswith(kind + " "):
            rest = text[len(kind):].strip()
            break
    else:
        raise TraceParseError(f"unknown message form {line_text.strip()!r}", line)
    ret_value: Optional[Value] = None
    if kind in (CB, CI):
        if dis and kind == CB:
            raise TraceParseError("dis wraps in-messages only (ci or cbret)", line)
        name, args = _parse_call(rest, line)
        msg_kind = DIS_CI if dis else kind
    else:
        if dis and kind == CIRET:
            raise TraceParseError("dis wraps in-messages only (ci or cbret)", line)
        if "=" not in rest:
            raise TraceParseError(f"expected '<ret> = f(args)' in {line_text.strip()!r}", line)
        ret_text, call_text = rest.split("=", 1)
        ret_value = parse_value(ret_text, line)
        name, args = _parse_call(call_text, line)
        msg_kind = DIS_CBRET if dis else kind
    package = _KIND_PACKAGE[msg_kind]
    thunk = Thunk(FunctionSymbol(name, package), args)
    return Message(msg_kind, thunk, ret_value)


def parse_trace(text: str) -> Trace:
    """Parse trace file content into a Trace; round-trips with serialize_trace."""
    messages: list[Message] = []
    lines_of: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    with open(path, "r", encoding="utf-8") as f:
        return parse_trace(f.read())
