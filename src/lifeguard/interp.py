"""Interpreter for the core event-driven calculus.

The machine runs programs built from thunks (function values bound to
arguments) with explicit permission stores: an enabled-events set feeding a
non-deterministic event loop and a disallowed-calls set whose members
terminate the program in the bad state when invoked directly.  An
instrumented stepper labels package-switching calls and returns with
observable messages, so a run yields an observable trace.

Surface syntax::

    let x = e in e
    x => [app|fwk] e          (x, y) => [fwk] e
    bind e e    invoke e
    enable e    disable e     allow e    disallow e
    thk  unit  true  false  42  a#1:Activity
    if e then e else e        e ; e
    newcell e   get e   set e e
    add e e     eq e e

Literals are the trace values other than strings, and lines are split
into tokens by ``messages.tokenize``, which specs use too.  ``#`` starts a
comment at the beginning of a line or after whitespace.  The ``force``
form is machine-internal and rejected in surface programs.

The parser reads a program in one pass: as it reads, it checks scopes,
and it let-binds every operand of a primitive form and every
if-condition that is not an atom, so the machine sees only atoms there.
A program with several errors reports the first one in source order.
Cells are numbered by allocation order within a run: cell n is the n-th
``newcell``.

The machine is one register loop, ``Machine._exec``: it keeps a state's
fields in local variables and the running thunk's package in one more,
applies every rule in place after one dispatch on the control's type,
and packs a ``MachineState`` only when it stops.  A let whose bound is an
atom or a primitive takes one pass of the loop, counted as its three
steps (push, the bound's rule, pop), without building its frame.
``run`` drives it from the initial state to the end of a run.  The
package imports this module on first use, so the checker commands do not
load it.
"""

from __future__ import annotations

import itertools
import random
import re
from typing import NamedTuple, Optional

from .messages import (
    APP,
    CB,
    CBRET,
    CI,
    CIRET,
    DIS_CI,
    FALSE,
    FWK,
    NAMED_VALUES,
    UNIT,
    Bool,
    Cursor,
    Hashed,
    Int,
    Message,
    ObjectId,
    Record,
    Str,
    TRUE,
    Trace,
    Unit,
    Value,
    parse_value,
    read_source,
    strip_comment,
    tokenize,
)


class ProgramError(Exception):
    """Base error for program parsing and scope checking."""

    def __init__(self, msg: str, line: Optional[int] = None):
        if line is not None:
            msg = f"line {line}: {msg}"
        super().__init__(msg)


class StuckError(Exception):
    """The machine reached a state no rule applies to."""


class ScheduleError(Exception):
    """A schedule that does not parse, or that selects an event index out
    of range."""


# ---------------------------------------------------------------------------
# Surface AST


class Expr(Record):
    __slots__ = ()


class ELit(Expr):
    __slots__ = ("value",)

    def __init__(self, value: Value):
        self.value = value


class EVar(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class EThk(Expr):
    __slots__ = ()


class ELam(Expr):
    __slots__ = ("params", "package", "body", "name")

    def __init__(self, params: tuple[str, ...], package: str, body: Expr, name: str = "<anon>"):
        self.params, self.package, self.body, self.name = params, package, body, name


class ELet(Expr):
    __slots__ = ("var", "bound", "body")

    def __init__(self, var: str, bound: Expr, body: Expr):
        self.var, self.bound, self.body = var, bound, body


class EIf(Expr):
    __slots__ = ("cond", "then", "orelse")

    def __init__(self, cond: Expr, then: Expr, orelse: Expr):
        self.cond, self.then, self.orelse = cond, then, orelse


class EPrim(Expr):
    """A primitive machine form: op applied to operand atoms.

    Ops: bind, invoke, enable, disable, allow, disallow, newcell, get, set,
    add, eq."""

    __slots__ = ("op", "operands")

    def __init__(self, op: str, operands: tuple[Expr, ...]):
        self.op, self.operands = op, operands


_ATOMS = (ELit, EVar, EThk, ELam)

_PERMISSION_OPS = ("enable", "disable", "allow", "disallow")
_ARITY = {**dict.fromkeys(("invoke", *_PERMISSION_OPS, "newcell", "get"), 1),
          **dict.fromkeys(("bind", "set", "add", "eq"), 2)}

KEYWORDS = {
    "let", "in", "if", "then", "else", "thk", "unit", "true", "false",
    "app", "fwk", "force", *_ARITY,
}


# ---------------------------------------------------------------------------
# Parser (recursive descent over the shared tokens of ``messages.tokenize``)


class _Parser(Cursor):
    """Parses, scope-checks and let-normalizes in one pass.

    Each parse method takes the names in scope and the package of the
    enclosing function (None at top level), and returns lowered syntax:
    an operand of a primitive form or an if-condition that is not an atom
    is let-bound to a fresh ``%n`` temporary as soon as it is parsed, so
    temporaries are numbered in source order, inner ones first."""

    def __init__(self, tokens, end: int):
        super().__init__(tokens, ProgramError, end)
        self.fresh = itertools.count()

    def atom(self, expr: Expr, lets: list[tuple[str, Expr]]) -> Expr:
        if isinstance(expr, _ATOMS):
            return expr
        tmp = f"%{next(self.fresh)}"
        lets.append((tmp, expr))
        return EVar(tmp)

    # expr := (let | if | prefix) [';' expr]
    # Without seq a following ';' belongs to the enclosing context (used for
    # let right-hand sides and if arms, which extend rightwards only via
    # explicit parentheses).
    def parse_expr(self, bound: frozenset[str], pkg: Optional[str], seq: bool = True) -> Expr:
        tok = self.peek()
        if tok is None:
            self.next()  # raises: the program has ended
        if tok.text == "let":
            self.next()
            name_tok = self.next()
            if name_tok.kind != "ident" or name_tok.text in KEYWORDS:
                raise ProgramError(f"bad binder {name_tok.text!r}", name_tok.line)
            self.expect("=")
            value = self.parse_expr(bound, pkg, seq=False)
            self.expect("in")
            body = self.parse_expr(bound | {name_tok.text}, pkg)
            if isinstance(value, ELam) and value.name == "<anon>":
                value = ELam(value.params, value.package, value.body, name_tok.text)
            return ELet(name_tok.text, value, body)
        if tok.text == "if":
            self.next()
            lets: list[tuple[str, Expr]] = []
            cond = self.atom(self.parse_expr(bound, pkg, seq=False), lets)
            self.expect("then")
            then = self.parse_expr(bound, pkg, seq=False)
            self.expect("else")
            first = _let_all(lets, EIf(cond, then, self.parse_expr(bound, pkg, seq=False)))
        else:
            first = self.parse_prefix(bound, pkg)
        if seq and self.at(";"):
            self.next()
            return ELet("%seq", first, self.parse_expr(bound, pkg))
        return first

    def parse_prefix(self, bound: frozenset[str], pkg: Optional[str]) -> Expr:
        tok = self.peek()
        arity = _ARITY.get(tok.text) if tok is not None and tok.kind == "ident" else None
        if arity is None:
            return self.parse_operand(bound, pkg)
        self.next()
        if tok.text in _PERMISSION_OPS and pkg == APP:
            raise ProgramError(f"app code may not use {tok.text!r}", tok.line)
        lets: list[tuple[str, Expr]] = []
        operands = tuple(self.atom(self.parse_operand(bound, pkg), lets) for _ in range(arity))
        return _let_all(lets, EPrim(tok.text, operands))

    def _lambda_ahead(self) -> bool:
        # '(' ident (',' ident)* ')' '=>' ...
        if not self.at("("):
            return False
        i = 1
        while True:
            tok, sep = self.peek(i), self.peek(i + 1)
            if tok is None or tok.kind != "ident" or sep is None:
                return False
            if sep.text != ",":
                nxt = self.peek(i + 2)
                return sep.text == ")" and nxt is not None and nxt.text == "=>"
            i += 2

    def parse_lambda(self, bound: frozenset[str]) -> ELam:
        params: list[str] = []
        paren = self.at("(")
        if paren:
            self.next()
        while True:
            tok = self.next()
            if tok.kind != "ident" or tok.text in KEYWORDS:
                raise ProgramError(f"bad parameter {tok.text!r}", tok.line)
            params.append(tok.text)
            if not (paren and self.at(",")):
                break
            self.next()
        if paren:
            self.expect(")")
        self.expect("=>")
        self.expect("[")
        pkg_tok = self.next()
        if pkg_tok.text not in (APP, FWK):
            raise ProgramError(f"package tag must be app or fwk, got {pkg_tok.text!r}", pkg_tok.line)
        self.expect("]")
        if len(set(params)) != len(params):
            raise ProgramError("duplicate parameter names", pkg_tok.line)
        body = self.parse_expr(bound | set(params), pkg_tok.text)
        return ELam(tuple(params), pkg_tok.text, body)

    def parse_operand(self, bound: frozenset[str], pkg: Optional[str]) -> Expr:
        tok = self.peek()
        if tok is None:
            self.next()  # raises: the program has ended
        if self._lambda_ahead():
            return self.parse_lambda(bound)
        if tok.kind == "ident" and self.peek(1) is not None and self.peek(1).text == "=>":
            return self.parse_lambda(bound)
        if tok.text == "(":
            self.next()
            inner = self.parse_expr(bound, pkg)
            self.expect(")")
            return inner
        if tok.kind in ("objlit", "int") or tok.text in NAMED_VALUES:
            self.next()
            return ELit(parse_value(tok.text))
        if tok.kind == "ident":
            if tok.text == "thk":
                if pkg is None:
                    raise ProgramError("'thk' outside a function body", tok.line)
                self.next()
                return EThk()
            if tok.text == "force":
                raise ProgramError("'force' is machine-internal", tok.line)
            if tok.text in KEYWORDS:
                raise ProgramError(f"unexpected keyword {tok.text!r}", tok.line)
            if tok.text not in bound:
                raise ProgramError(f"unbound identifier {tok.text!r}", tok.line)
            self.next()
            return EVar(tok.text)
        raise ProgramError(f"unexpected token {tok.text!r}", tok.line)


def _let_all(lets: list[tuple[str, Expr]], body: Expr) -> Expr:
    """body under the let-bindings of lets, the first outermost."""
    for var, value in reversed(lets):
        body = ELet(var, value, body)
    return body


def parse_program(text: str) -> Expr:
    """Parse, scope-check, and normalize a surface program.  The parser
    recurses once per nesting level, so a program nested deeper than the
    interpreter's stack allows is a ProgramError at the line reached."""
    lines = text.split("\n")
    tokens = [tok for lineno, raw in enumerate(lines, start=1)
              for tok in tokenize(strip_comment(raw), lineno, ProgramError)]
    parser = _Parser(tokens, len(lines))
    try:
        expr = parser.parse_expr(frozenset(), None)
    except RecursionError:
        tok = parser.peek()
        raise ProgramError("program nested too deeply", tok.line if tok else parser.end) from None
    if parser.peek() is not None:
        tok = parser.peek()
        raise ProgramError(f"trailing tokens starting at {tok.text!r}", tok.line)
    return expr


def load_program(path) -> Expr:
    return parse_program(read_source(path, ProgramError))


# ---------------------------------------------------------------------------
# Runtime values


class _Code(Value):
    """The slots of a Closure that its key leaves out: the body and the
    captured environment."""

    __slots__ = ("body", "env")


class Closure(_Code):
    """A function value with its captured environment.

    Closures compare by allocation identity: the uid is assigned when the
    function literal is evaluated, so two thunks over the same let-bound
    function are equal while distinct literals never are.  The body and
    env are slots of the base class, so they are not compared."""

    __slots__ = ("params", "package", "name", "uid")

    def __init__(self, params: tuple[str, ...], body: Expr, package: str, env: "Env", name: str,
                 uid: int):
        self.params, self.body, self.package = params, body, package
        self.env, self.name, self.uid = env, name, uid

    def sort_key(self) -> tuple:
        return (5, self.name, self.uid)

    def __str__(self) -> str:
        return f"<fun {self.name} [{self.package}]>"


class RThunk(Value, Hashed):
    """A closure bound to arguments.  The enabled set hashes thunks and the
    event loop sorts them, so a thunk stores its hash and its sort key on
    first use."""

    __slots__ = ("closure", "args", "_sort_key")

    def __init__(self, closure: Closure, args: tuple[Value, ...]):
        self.closure, self.args = closure, args
        self._hash = self._sort_key = None

    def sort_key(self) -> tuple:
        key = self._sort_key
        if key is None:
            closure = self.closure
            self._sort_key = key = (6, closure.name, closure.uid,
                                    tuple(a.sort_key() for a in self.args))
        return key

    def __str__(self) -> str:
        return f"{self.closure.name}[{','.join(map(str, self.args))}]"


class CellRef(Value):
    __slots__ = ("cell",)

    def __init__(self, cell: int):
        self.cell = cell

    def sort_key(self) -> tuple:
        return (7, self.cell)

    def __str__(self) -> str:
        return f"<cell {self.cell}>"


class Env:
    """Immutable chained environment."""

    __slots__ = ("_frame", "_parent")

    def __init__(self, frame: Optional[dict] = None, parent: Optional["Env"] = None):
        self._frame = frame or {}
        self._parent = parent


EMPTY_ENV = Env()


# Continuation frames (top of stack is the last tuple element) and MForce,
# the control form of a thunk about to be applied.  The machine dispatches
# on their type and never compares them.


class FLet(NamedTuple):
    var: str
    body: Expr
    env: Env


class FThunk(NamedTuple):
    """A running thunk, and the package of the code beneath it, to which
    its return goes back (None beneath an event's thunk)."""

    thunk: RThunk
    caller: Optional[str]


class MForce(NamedTuple):
    thunk: RThunk


BAD = "bad"


class MachineState(NamedTuple):
    """Configuration: control, environment, cell store, permission stores,
    and the continuation stack.  The distinguished bad state uses the BAD
    control marker."""

    control: object
    env: Env = EMPTY_ENV
    store: tuple[Value, ...] = ()
    enabled: frozenset = frozenset()
    disallowed: frozenset = frozenset()
    cont: tuple[FLet | FThunk, ...] = ()


# _tuple(cls, fields) builds a named tuple without its keyword-handling __new__.
_tuple = tuple.__new__


def initial_state(program: Expr) -> MachineState:
    return MachineState(control=program)


def _caller_package(cont: list) -> Optional[str]:
    """Package of the running thunk, from the continuation."""
    for frame in reversed(cont):
        if type(frame) is FThunk:
            return frame.thunk.closure.package
    return None


_SERIALIZABLE = (Unit, Bool, Int, Str, ObjectId)


def _observable_args(thunk: RThunk) -> tuple[Value, ...]:
    for a in thunk.args:
        if not isinstance(a, _SERIALIZABLE):
            raise StuckError(
                f"value {a} crosses the app-framework interface but is not observable"
            )
    return thunk.args


# (callee package, caller package) -> (entry kind, return kind) of the
# calls that cross the app-framework interface.
_CROSSINGS = {(APP, FWK): (CB, CBRET), (FWK, APP): (CI, CIRET)}


def _eval_atom(expr: Expr, env: Optional[Env], uids) -> Value:
    """The value of an atom; a function literal takes the next closure uid,
    and a variable reads its innermost binding along env's chain."""
    t = type(expr)
    if t is EVar:
        name = expr.name
    elif t is ELit:
        return expr.value
    elif t is EThk:
        name = "thk"
    elif t is ELam:
        return Closure(expr.params, expr.body, expr.package, env, expr.name, next(uids))
    else:
        raise StuckError(f"operand {t.__name__} is not an atom")
    while env is not None:
        if name in env._frame:
            return env._frame[name]
        env = env._parent
    raise StuckError(f"unbound identifier {name!r} at run time")


_VALUES = frozenset((Unit, Bool, Int, Str, ObjectId, Closure, RThunk, CellRef))
_THUNK_OPS = frozenset(("invoke", *_PERMISSION_OPS))
# The bounds whose let the machine runs in one pass: their rule yields a
# value, an MForce or BAD without touching the continuation.
_FUSED = frozenset((*_ATOMS, EPrim))


def _sort_key(value: Value) -> tuple:
    return value.sort_key()


FINISHED = "finished"
BAD_STATUS = "bad"
BUDGET_EXHAUSTED = "budget_exhausted"
STUCK = "stuck"


class Machine:
    """Small-step executor.  A Machine owns the uid supply for closures so
    that states from one run are internally consistent.

    ``_exec`` is the machine: it holds a state's six fields in local
    registers (the continuation and cell store as lists, the permission
    stores as sets), and the package of the running thunk in a seventh.
    It applies one rule per step in place, chosen by the control's type
    and for a primitive by its op, and packs a MachineState only when it
    stops, so it can also be run from any state for one step.  A let whose
    bound is an atom or a primitive takes one pass of the loop when the
    budget has room for three steps: the push, the bound's rule and the
    pop, each counted; a bound that yields an MForce or BAD leaves its
    frame pushed, as the push step would."""

    def __init__(self) -> None:
        self._uids = itertools.count(1)

    def _exec(self, state: MachineState, max_steps: int, choose) -> tuple:
        """Run from state for at most max_steps steps.

        At the event loop with events enabled, ``choose(len(enabled))``
        gives the index into the sorted enabled events, or None to finish.
        Returns (labels, status, steps, stuck reason, final state); the
        final state is None for a stuck run."""
        c, env, store, enabled, disallowed, cont = state
        store, enabled, disallowed, cont = list(store), set(enabled), set(disallowed), list(cont)
        pkg = _caller_package(cont)
        uids = self._uids
        labels: list[Message] = []
        steps = 0
        try:
            while True:
                if c is BAD:
                    status = BAD_STATUS
                    break
                if not cont and isinstance(c, Value):
                    choice = choose(len(enabled)) if enabled else None
                    if choice is None:
                        status = FINISHED
                        break
                if steps == max_steps:
                    status = BUDGET_EXHAUSTED
                    break
                t = type(c)
                let = None
                if t is ELet:
                    if type(c.bound) not in _FUSED or steps + 3 > max_steps:
                        cont.append(_tuple(FLet, (c.var, c.body, env)))
                        c = c.bound
                        steps += 1
                        continue
                    # The push step; this pass goes on with the bound's rule
                    # and then binds its value, the pop step.
                    let, c = c, c.bound
                    t = type(c)
                    steps += 1
                if t in _VALUES:
                    if not cont:
                        # Event: pick an enabled thunk.  Its frame is the
                        # bottom of the stack, so its return has no caller to
                        # cross the interface to and is never labelled.
                        events = sorted(enabled, key=_sort_key)
                        if not 0 <= choice < len(events):
                            raise ScheduleError(f"schedule index {choice} out of range for "
                                                f"{len(events)} enabled events")
                        thunk = events[choice]
                        c = _tuple(MForce, (thunk,))
                        cont.append(_tuple(FThunk, (thunk, pkg)))
                        pkg = thunk.closure.package
                    elif type(cont[-1]) is FLet:
                        top = cont.pop()
                        env = Env({top.var: c}, top.env)
                        c = top.body
                    else:
                        thunk, pkg = cont.pop()
                        kinds = _CROSSINGS.get((thunk.closure.package, pkg))
                        if kinds is not None:
                            if not isinstance(c, _SERIALIZABLE):
                                raise StuckError(f"return value {c} crosses the interface but "
                                                 f"is not observable")
                            labels.append(Message(kinds[1], thunk.closure.name,
                                                  _observable_args(thunk), c))
                elif t is EIf:
                    cond = _eval_atom(c.cond, env, uids)
                    if type(cond) is not Bool:
                        raise StuckError(f"if condition is {cond}, not a boolean")
                    c = c.then if cond.flag else c.orelse
                elif t is EPrim:
                    op = c.op
                    operands = c.operands
                    v = _eval_atom(operands[0], env, uids)
                    w = _eval_atom(operands[1], env, uids) if len(operands) > 1 else None
                    if op == "eq":
                        c = TRUE if v is w or v == w else FALSE
                    elif op == "bind":
                        if type(v) is Closure:
                            c = RThunk(v, (w,))
                        elif type(v) is not RThunk:
                            raise StuckError(f"bind on non-function {v}")
                        elif len(v.args) >= len(v.closure.params):
                            raise StuckError(f"bind on saturated thunk {v}")
                        else:
                            c = RThunk(v.closure, v.args + (w,))
                    elif op == "newcell":
                        # Cell n is store[n - 1]: cells are numbered by allocation order.
                        store.append(v)
                        c = CellRef(len(store))
                    elif op == "add":
                        if not (type(v) is Int and type(w) is Int):
                            raise StuckError("add on non-integers")
                        c = Int(v.n + w.n)
                    elif op in ("get", "set"):
                        if type(v) is not CellRef:
                            raise StuckError(f"{op} on non-cell {v}")
                        if not 0 < v.cell <= len(store):
                            raise StuckError(f"read of unallocated cell {v.cell}")
                        if op == "get":
                            c = store[v.cell - 1]
                        else:
                            store[v.cell - 1] = w
                            c = UNIT
                    elif op not in _THUNK_OPS:
                        raise StuckError(f"unknown primitive {op!r}")
                    elif type(v) is not RThunk:
                        raise StuckError(f"{op} on non-thunk {v}")
                    elif op != "invoke":
                        if op == "enable":
                            enabled.add(v)
                        elif op == "disable":
                            enabled.discard(v)
                        elif op == "disallow":
                            disallowed.add(v)
                        else:
                            disallowed.discard(v)
                        c = v
                    elif v not in disallowed:
                        c = _tuple(MForce, (v,))
                    elif v.closure.package != FWK:
                        raise StuckError(f"invoke of disallowed app thunk {v}")
                    else:
                        labels.append(Message(DIS_CI, v.closure.name, _observable_args(v)))
                        c = BAD
                elif t is MForce:
                    thunk = c.thunk
                    closure = thunk.closure
                    if len(thunk.args) != len(closure.params):
                        raise StuckError(f"forcing {closure.name} with {len(thunk.args)} of "
                                         f"{len(closure.params)} arguments")
                    kinds = _CROSSINGS.get((closure.package, pkg))
                    if kinds is not None:
                        labels.append(Message(kinds[0], closure.name, _observable_args(thunk)))
                    frame = dict(zip(closure.params, thunk.args))
                    frame["thk"] = thunk
                    env = Env(frame, closure.env)
                    c = closure.body
                    cont.append(_tuple(FThunk, (thunk, pkg)))
                    pkg = closure.package
                elif t in _ATOMS:
                    c = _eval_atom(c, env, uids)
                else:
                    raise StuckError(f"no rule for control {t.__name__}")
                steps += 1
                if let is not None:
                    if c is BAD or type(c) is MForce:
                        cont.append(_tuple(FLet, (let.var, let.body, env)))
                    else:
                        env = Env({let.var: c}, env)
                        c = let.body
                        steps += 1
        except StuckError as e:
            return labels, STUCK, steps, str(e), None
        return labels, status, steps, "", _tuple(MachineState, (
            c, env, tuple(store), frozenset(enabled), frozenset(disallowed), tuple(cont)))


# ---------------------------------------------------------------------------
# Schedules and whole runs


class Schedule(Record):
    """Event choices for a run: an explicit index list or a seeded RNG."""

    __slots__ = ("picks", "seed")

    def __init__(self, picks: Optional[tuple[int, ...]] = None, seed: Optional[int] = None):
        if (picks is None) == (seed is None):
            raise ValueError("schedule is either an explicit list or a seed")
        self.picks, self.seed = picks, seed


def parse_schedule(text: str) -> Schedule:
    text = text.strip()
    try:
        if text.startswith("seed:"):
            return Schedule(seed=int(text[len("seed:"):]))
        return Schedule(picks=tuple(int(p) for p in re.split(r"[,\s]+", text) if p))
    except ValueError:
        raise ScheduleError(f"cannot parse schedule {text!r}: expected comma-separated "
                            f"event indices or seed:N") from None


class RunResult(Record):
    """The recorded trace, how the run ended, and for a stuck run why."""

    __slots__ = ("trace", "status", "steps", "reason")

    def __init__(self, trace: Trace, status: str, steps: int, reason: str = ""):
        self.trace, self.status, self.steps, self.reason = trace, status, steps, reason


def run(program: Expr, schedule: Schedule, max_steps: int = 10000) -> RunResult:
    """Execute a program under a schedule, collecting the observable trace.

    Status is ``bad`` iff the trace ends in a dis message; an explicit
    schedule that runs out at the event loop finishes the run.  A run
    that takes max_steps steps is classified by the state they reach, so
    it is ``budget_exhausted`` only if that state is neither bad nor
    finished."""
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    if schedule.seed is not None:
        choose = random.Random(schedule.seed).randrange
    else:
        picks = iter(schedule.picks)
        choose = lambda n: next(picks, None)  # noqa: E731
    labels, status, steps, reason, _ = Machine()._exec(initial_state(program), max_steps, choose)
    return RunResult(Trace(tuple(labels)), status, steps, reason)


# ---------------------------------------------------------------------------
# Program shape check (framework preamble + init invocation)


def uses_framework_init(program: Expr) -> bool:
    """True if the program's main expression, after its defining lets,
    begins by invoking a thunk over a fwk-tagged function (the framework's
    designated init)."""
    bindings: dict[str, Expr] = {}

    def resolve(e: Expr) -> Expr:
        seen = set()
        while isinstance(e, EVar) and e.name in bindings and e.name not in seen:
            seen.add(e.name)
            e = bindings[e.name]
        return e

    def fun_is_fwk(e: Expr) -> bool:
        e = resolve(e)
        if isinstance(e, ELam):
            return e.package == FWK
        if isinstance(e, EPrim) and e.op == "bind":
            return fun_is_fwk(e.operands[0])
        return False

    expr = program
    while isinstance(expr, ELet):
        bindings[expr.var] = expr.bound
        expr = expr.body
    if isinstance(expr, EPrim) and expr.op == "invoke":
        return fun_is_fwk(expr.operands[0])
    return False
