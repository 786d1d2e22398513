"""Values, messages, and observable traces.

This module is the shared vocabulary of the whole toolkit: concrete values
(object identities and primitive constants), call/return messages exchanged
across the app-framework interface, and finite observable traces with their
textual file format.  It also holds the front end that traces, specs and
programs share: the value syntax, the comment rule, the lexer and the
token cursor of the spec and program parsers.

A message is one flat record, ``Message(kind, fun, args, ret)``: the kind,
the called function's name, the argument values and, for the return kinds
only, the returned value.  The kind fixes the callee's package -- a
callback is app code, a callin framework code -- so no package is stored.
Spec atoms and targets are Messages too, with each parameter a
``rules.SVar`` or a plain value; a ground atom is a trace message.

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
from operator import attrgetter
from typing import Iterator, NamedTuple, Optional, Sequence


class TraceError(Exception):
    """Base error for malformed trace text or trace structure."""

    def __init__(self, msg: str, line: Optional[int] = None):
        self.reason = msg
        self.line = line
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)


class TraceParseError(TraceError):
    """Syntactically malformed trace text."""


class TraceNestingError(TraceError):
    """Structurally malformed message sequence (nesting, dis placement)."""


# ---------------------------------------------------------------------------
# Records and values


class Record:
    """Base of the package's immutable records, which are not dataclasses
    because ``@dataclass`` costs about 1 ms per class at every start.  The
    slots are set once by ``__init__``.  A record's key is the tuple of the
    slots its own class declares, except names that start with an
    underscore: records of one class with equal keys are equal, and a
    record hashes as its key.  A slot that a base class declares is not
    compared.  An underscore slot, also left out of the repr, holds what is
    computed from the fields: it alone may be set or filled later, as a
    cache (``LifestateSpec._plan``)."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = [n for n in cls.__dict__.get("__slots__", ()) if not n.startswith("_")]
        # attrgetter of one name gives the bare value, not a 1-tuple.
        if not names:
            key = lambda record: ()  # noqa: E731
        elif len(names) == 1:
            key = lambda record, get=attrgetter(names[0]): (get(record),)  # noqa: E731
        else:
            key = attrgetter(*names)
        cls._key = staticmethod(key)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__
                           if not name.startswith("_"))
        return f"{type(self).__name__}({fields})"


class Hashed(Record):
    """A record hashed often that stores its hash on first use, in a slot
    of this base that the subclass's ``__init__`` sets to None, so the
    key and repr leave it out.  Two records whose stored hashes differ are
    unequal without a comparison of their keys."""

    __slots__ = ("_hash",)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        h, g = self._hash, other._hash
        if h is not None and g is not None and h != g:
            return False
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            self._hash = h = hash(self._key(self))
        return h


class Value(Record):
    """Base class for concrete values carried by messages.

    All concrete values are immutable and hashable; equality is structural.
    """

    __slots__ = ()

    def sort_key(self) -> tuple:
        raise NotImplementedError


class Unit(Value):
    __slots__ = ()

    def sort_key(self) -> tuple:
        return (0,)

    def __str__(self) -> str:
        return "unit"


class Bool(Value):
    __slots__ = ("flag",)

    def __init__(self, flag: bool):
        self.flag = flag

    def sort_key(self) -> tuple:
        return (1, self.flag)

    def __str__(self) -> str:
        return "true" if self.flag else "false"


class Int(Value):
    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def sort_key(self) -> tuple:
        return (2, self.n)

    def __str__(self) -> str:
        return str(self.n)


class Str(Value):
    __slots__ = ("s",)

    def __init__(self, s: str):
        self.s = s

    def sort_key(self) -> tuple:
        return (3, self.s)

    def __str__(self) -> str:
        quoted = self.s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{quoted}"'


class ObjectId(Value, Hashed):
    """An allocated object identity ``label#index:Type``.

    The label is a human-readable tag with no semantic weight beyond being
    part of the identity; the index disambiguates allocations.
    """

    __slots__ = ("label", "index", "type_name")

    def __init__(self, label: str, index: int, type_name: str):
        if not type_name:
            raise ValueError("object identity requires a non-empty type name")
        self.label, self.index, self.type_name = label, index, type_name
        self._hash = None

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
_BASE_KIND = {DIS_CI: CI, DIS_CBRET: CBRET}


class Message(Hashed):
    """One observable app-framework interaction.

    ``cb`` and ``ciret`` are back-messages (framework to app); ``ci`` and
    ``cbret`` are in-messages (app to framework); ``dis_*`` wraps the
    blocked in-message that ends a violating trace.  A spec atom or target
    may carry ``rules.SVar`` parameters; ``sort_key`` applies only to
    ground messages.
    """

    __slots__ = ("kind", "fun", "args", "ret")

    def __init__(self, kind: str, fun: str, args: tuple[Value, ...] = (),
                 ret: Optional[Value] = None):
        if kind not in KINDS:
            raise ValueError(f"unknown message kind {kind!r}")
        if not fun:
            raise ValueError("message requires a function name")
        if (ret is not None) != (kind in RETURN_KINDS):
            raise ValueError(f"return value present iff kind is a return kind ({kind})")
        self.kind, self.fun, self.args, self.ret = kind, fun, args, ret
        self._hash = None

    def is_dis(self) -> bool:
        return self.kind in (DIS_CI, DIS_CBRET)

    def base_kind(self) -> str:
        """Kind with any dis-wrapping stripped."""
        return _BASE_KIND.get(self.kind, self.kind)

    def is_back(self) -> bool:
        return self.kind in (CB, CIRET)

    def is_in(self) -> bool:
        return self.kind in (CI, CBRET)

    def unwrap(self) -> "Message":
        """The plain in-message inside a dis message."""
        if not self.is_dis():
            raise ValueError("unwrap on a non-dis message")
        return Message(self.base_kind(), self.fun, self.args, self.ret)

    def wrap_dis(self) -> "Message":
        """Wrap an in-message as the disallowed attempt that ends a trace."""
        if not self.is_in():
            raise ValueError("only in-messages can be dis-wrapped")
        kind = DIS_CI if self.kind == CI else DIS_CBRET
        return Message(kind, self.fun, self.args, self.ret)

    def sort_key(self) -> tuple:
        ret_key = self.ret.sort_key() if self.ret is not None else ()
        return (KINDS.index(self.kind), self.fun, tuple(a.sort_key() for a in self.args), ret_key)

    def __str__(self) -> str:
        return format_message(self)


def _check_structure(messages: Sequence[Message]) -> None:
    """Enforce trace invariants: dis placement and call/return nesting.

    Nesting follows the app-framework dialogue: a callback entry is legal
    only when control is on the framework side (no open call, or the
    innermost open call is a callin), a callin entry only when control is on
    the app side (innermost open call is a callback), and every return must
    match the innermost open call of the same function and arguments.  Dis
    messages record a blocked attempt and are exempt from the side
    discipline, but must come last.
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
            if (stack[-1].fun, stack[-1].args) != (m.fun, m.args):
                raise TraceNestingError(
                    f"{m.kind} of {m.fun} does not match the open {opener} of {stack[-1].fun}",
                    line)
            stack.pop()


class Trace(Record):
    """A finite sequence of observable messages.

    Invariants (checked on construction): at most one dis message and only
    in final position; call/return messages are well-nested per the
    app-framework dialogue.  Unclosed calls at the end are allowed -- a
    trace may be the prefix of a longer recording.
    """

    __slots__ = ("messages",)

    def __init__(self, messages: Sequence[Message] = ()):
        self.messages = tuple(messages)
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
# tokenize, and a trace line is matched whole by _LINE_RE.

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
_MESSAGE = (
    rf"(?:(?P<dis>dis)\s+)?(?P<kind>cbret|ciret|cb|ci)\s+(?:(?P<ret>{_VALUE})\s*=\s*)?"
    rf"(?P<fun>{_NAME})\s*\((?P<args>\s*(?:(?:{_VALUE})\s*(?:,\s*(?:{_VALUE})\s*)*)?)\)"
)
# A raw trace line: a message or nothing, then a comment or nothing.  No
# two whitespace runs meet, so a line it rejects fails in linear time; only
# such lines need _MESSAGE alone, which the re cache compiles on first use.
_LINE_RE = re.compile(rf"\s*(?:(?P<message>{_MESSAGE})\s*)?(?:(?<!\S)#.*)?")


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
    program parsers; errors are raised as ``error(message, line)``.  The
    input ends on its last token's line, or on line end when it has none."""

    def __init__(self, tokens: list[Token], error, end: Optional[int] = None):
        self.tokens = tokens
        self.error = error
        self.pos = 0
        self.end = tokens[-1].line if tokens else end

    def peek(self, offset: int = 0) -> Optional[Token]:
        idx = self.pos + offset
        return self.tokens[idx] if idx < len(self.tokens) else None

    def next(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise self.error("unexpected end of input", self.end)
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
    return _message(re.fullmatch(_MESSAGE, text), text, line, {})


def _message(m: Optional[re.Match], text: str, line: int, values: dict[str, Value]) -> Message:
    """The message of m, a match of _MESSAGE on text; values maps the
    text of each value parsed before to its Value."""
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
    parsed = [values.get(v) or values.setdefault(v, parse_value(v, line))
              for v in _VALUE_RE.findall(args)]
    if ret is not None:
        ret = values.get(ret) or values.setdefault(ret, parse_value(ret, line))
    return Message(kind, fun, tuple(parsed), ret)


def parse_trace(text: str) -> Trace:
    """Parse trace file content into a Trace; round-trips with serialize_trace.
    Each distinct value text is parsed once, and a line _LINE_RE rejects
    takes the per-line path, which raises the error."""
    messages: list[Message] = []
    lines_of: list[int] = []
    values: dict[str, Value] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        m = _LINE_RE.fullmatch(raw)
        if m is None:
            message = parse_message_line(strip_comment(raw).strip(), lineno)
        elif m["message"] is None:
            continue
        else:
            message = _message(m, m["message"], lineno, values)
        messages.append(message)
        lines_of.append(lineno)
    try:
        return Trace(tuple(messages))
    except TraceNestingError as e:
        # Re-raise with the source line of the offending message.
        raise TraceNestingError(e.reason, lines_of[e.line - 1]) from None


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


def format_message(m: Message) -> str:
    base = m.base_kind()
    call = f"{m.fun}({','.join(map(str, m.args))})"
    if m.ret is not None:
        body = f"{base} {m.ret} = {call}"
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
    yield from m.args
    if m.ret is not None:
        yield m.ret


def load_trace(path) -> Trace:
    return parse_trace(read_source(path, TraceParseError))
