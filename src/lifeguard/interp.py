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

One lowering pass checks scopes and let-normalizes the parsed program, so
that primitive forms and if-conditions see only atoms.  Cells are numbered
by allocation order within a run: cell n is the n-th ``newcell``.

The machine is one register loop, ``Machine._exec``: it keeps a state's
fields in local variables, applies every rule in place after one dispatch
on the control's type, and packs a ``MachineState`` only when it stops.
``run`` drives it to the end of a run; ``Machine.step`` and
``Machine.advance`` load it from a state and run it for one step.  The
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
    """A primitive machine form: op applied to operand expressions.

    Ops: bind, invoke, enable, disable, allow, disallow, newcell, get, set,
    add, eq.  After normalization every operand is an atom.
    """

    __slots__ = ("op", "operands")

    def __init__(self, op: str, operands: tuple[Expr, ...]):
        self.op, self.operands = op, operands


UNARY_OPS = ("invoke", "enable", "disable", "allow", "disallow", "newcell", "get")
BINARY_OPS = ("bind", "set", "add", "eq")

KEYWORDS = {
    "let", "in", "if", "then", "else", "thk", "unit", "true", "false",
    "app", "fwk", "force", *UNARY_OPS, *BINARY_OPS,
}


# ---------------------------------------------------------------------------
# Parser (recursive descent over the shared tokens of ``messages.tokenize``)


class _Parser(Cursor):
    # expr := (let | if | prefix) [';' expr]
    # Without seq a following ';' belongs to the enclosing context (used for
    # let right-hand sides and if arms, which extend rightwards only via
    # explicit parentheses).
    def parse_expr(self, seq: bool = True) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ProgramError("unexpected end of program")
        if tok.text == "let":
            self.next()
            name_tok = self.next()
            if name_tok.kind != "ident" or name_tok.text in KEYWORDS:
                raise ProgramError(f"bad binder {name_tok.text!r}", name_tok.line)
            self.expect("=")
            bound = self.parse_expr(seq=False)
            self.expect("in")
            body = self.parse_expr()
            if isinstance(bound, ELam) and bound.name == "<anon>":
                bound = ELam(bound.params, bound.package, bound.body, name_tok.text)
            return ELet(name_tok.text, bound, body)
        if tok.text == "if":
            self.next()
            cond = self.parse_expr(seq=False)
            self.expect("then")
            then = self.parse_expr(seq=False)
            self.expect("else")
            first: Expr = EIf(cond, then, self.parse_expr(seq=False))
        else:
            first = self.parse_prefix()
        if seq and self.at(";"):
            self.next()
            return ELet("%seq", first, self.parse_expr())
        return first

    def parse_prefix(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind == "ident":
            if tok.text == "force":
                raise ProgramError("'force' is machine-internal", tok.line)
            if tok.text in UNARY_OPS:
                self.next()
                return EPrim(tok.text, (self.parse_operand(),))
            if tok.text in BINARY_OPS:
                self.next()
                a = self.parse_operand()
                b = self.parse_operand()
                return EPrim(tok.text, (a, b))
        return self.parse_operand()

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

    def parse_lambda(self) -> ELam:
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
        body = self.parse_expr()
        if len(set(params)) != len(params):
            raise ProgramError("duplicate parameter names", pkg_tok.line)
        return ELam(tuple(params), pkg_tok.text, body)

    def parse_operand(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise ProgramError("unexpected end of program")
        if self._lambda_ahead():
            return self.parse_lambda()
        if tok.kind == "ident" and self.peek(1) is not None and self.peek(1).text == "=>":
            return self.parse_lambda()
        if tok.text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.kind in ("objlit", "int") or tok.text in NAMED_VALUES:
            self.next()
            return ELit(parse_value(tok.text))
        if tok.kind == "ident":
            if tok.text == "thk":
                self.next()
                return EThk()
            if tok.text == "force":
                raise ProgramError("'force' is machine-internal", tok.line)
            if tok.text in KEYWORDS:
                raise ProgramError(f"unexpected keyword {tok.text!r}", tok.line)
            self.next()
            return EVar(tok.text)
        raise ProgramError(f"unexpected token {tok.text!r}", tok.line)


# ---------------------------------------------------------------------------
# Lowering: scope checks and let-normalization in one walk


def _is_atom(expr: Expr) -> bool:
    return isinstance(expr, (ELit, EVar, EThk, ELam))


def _lower(program: Expr) -> Expr:
    """Scope-check a surface program and rewrite the operands of primitive
    forms and if-conditions into atoms.

    Compound operands are let-bound to fresh ``%n`` temporaries so that the
    machine's primitive steps only ever see values, mirroring a let-normal
    form presentation.  Nodes are visited in source order, so the first
    scope error in the program is the one reported."""
    fresh = itertools.count()

    def atomize(expr: Expr, bound: frozenset[str], fun_pkg: Optional[str],
                lets: list[tuple[str, Expr]]) -> Expr:
        expr = lower(expr, bound, fun_pkg)
        if _is_atom(expr):
            return expr
        tmp = f"%{next(fresh)}"
        lets.append((tmp, expr))
        return EVar(tmp)

    def lower(expr: Expr, bound: frozenset[str], fun_pkg: Optional[str]) -> Expr:
        if isinstance(expr, ELit):
            return expr
        if isinstance(expr, EVar):
            if expr.name not in bound:
                raise ProgramError(f"unbound identifier {expr.name!r}")
            return expr
        if isinstance(expr, EThk):
            if fun_pkg is None:
                raise ProgramError("'thk' outside a function body")
            return expr
        if isinstance(expr, ELam):
            body = lower(expr.body, bound | set(expr.params), expr.package)
            return ELam(expr.params, expr.package, body, expr.name)
        if isinstance(expr, ELet):
            return ELet(expr.var, lower(expr.bound, bound, fun_pkg),
                        lower(expr.body, bound | {expr.var}, fun_pkg))
        lets: list[tuple[str, Expr]] = []
        if isinstance(expr, EIf):
            cond = atomize(expr.cond, bound, fun_pkg, lets)
            out: Expr = EIf(cond, lower(expr.then, bound, fun_pkg),
                            lower(expr.orelse, bound, fun_pkg))
        elif isinstance(expr, EPrim):
            if expr.op in ("enable", "disable", "allow", "disallow") and fun_pkg == APP:
                raise ProgramError(f"app code may not use {expr.op!r}")
            out = EPrim(expr.op, tuple(atomize(sub, bound, fun_pkg, lets)
                                       for sub in expr.operands))
        else:
            raise ProgramError(f"unknown expression node {type(expr).__name__}")
        for tmp, value in reversed(lets):
            out = ELet(tmp, value, out)
        return out

    return lower(program, frozenset(), None)


def parse_program(text: str) -> Expr:
    """Parse, scope-check, and normalize a surface program."""
    tokens = [tok for lineno, raw in enumerate(text.split("\n"), start=1)
              for tok in tokenize(strip_comment(raw), lineno, ProgramError)]
    parser = _Parser(tokens, ProgramError)
    expr = parser.parse_expr()
    if parser.peek() is not None:
        tok = parser.peek()
        raise ProgramError(f"trailing tokens starting at {tok.text!r}", tok.line)
    return _lower(expr)


def load_program(path) -> Expr:
    return parse_program(read_source(path, ProgramError))


# ---------------------------------------------------------------------------
# Runtime values


class Closure(Value):
    """A function value with its captured environment.

    Closures compare by allocation identity: the uid is assigned when the
    function literal is evaluated, so two thunks over the same let-bound
    function are equal while distinct literals never are; body and env
    are not compared."""

    __slots__ = ("params", "body", "package", "env", "name", "uid")

    def __init__(self, params: tuple[str, ...], body: Expr, package: str, env: "Env", name: str,
                 uid: int):
        self.params, self.body, self.package = params, body, package
        self.env, self.name, self.uid = env, name, uid

    def __eq__(self, other):
        if other.__class__ is Closure:
            return (self.params, self.package, self.name, self.uid) == (
                other.params, other.package, other.name, other.uid)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.params, self.package, self.name, self.uid))

    def sort_key(self) -> tuple:
        return (5, self.name, self.uid)

    def __str__(self) -> str:
        return f"<fun {self.name} [{self.package}]>"


class RThunk(Value):
    __slots__ = ("closure", "args")

    def __init__(self, closure: Closure, args: tuple[Value, ...]):
        self.closure, self.args = closure, args

    def __eq__(self, other):
        if other.__class__ is RThunk:
            return (self.closure, self.args) == (other.closure, other.args)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.closure, self.args))

    def sort_key(self) -> tuple:
        return (6, self.closure.name, self.closure.uid, tuple(a.sort_key() for a in self.args))

    def __str__(self) -> str:
        return f"{self.closure.name}[{','.join(map(str, self.args))}]"


class CellRef(Value):
    __slots__ = ("cell",)

    def __init__(self, cell: int):
        self.cell = cell

    def __eq__(self, other):
        return self.cell == other.cell if other.__class__ is CellRef else NotImplemented

    def __hash__(self) -> int:
        return hash((self.cell,))

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

    def lookup(self, name: str) -> Value:
        env: Optional[Env] = self
        while env is not None:
            if name in env._frame:
                return env._frame[name]
            env = env._parent
        raise StuckError(f"unbound identifier {name!r} at run time")


EMPTY_ENV = Env()


# Continuation frames (top of stack is the last tuple element) and MForce,
# the control form of a thunk about to be applied.  The machine dispatches
# on their type and never compares them.


class FLet(NamedTuple):
    var: str
    body: Expr
    env: Env


class FThunk(NamedTuple):
    thunk: RThunk


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

    def is_value(self) -> bool:
        return isinstance(self.control, Value)

    def is_terminal(self) -> bool:
        c = self.control
        return c is BAD or (isinstance(c, Value) and not self.cont and not self.enabled)


# _tuple(cls, fields) builds a named tuple without its keyword-handling __new__.
_tuple = tuple.__new__


def initial_state(program: Expr) -> MachineState:
    return MachineState(control=program)


def _caller_package(cont: list) -> Optional[str]:
    """Package of the running caller thunk, from the continuation."""
    for frame in reversed(cont):
        if type(frame) is not FLet:
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


def _label(thunk: RThunk, cont: list, value: Optional[Value] = None) -> Optional[Message]:
    """The message for forcing thunk under cont or, given its return value,
    for returning to cont; None if the call does not cross the interface."""
    kinds = _CROSSINGS.get((thunk.closure.package, _caller_package(cont)))
    if kinds is None:
        return None
    if value is None:
        return Message(kinds[0], thunk.closure.name, _observable_args(thunk))
    if not isinstance(value, _SERIALIZABLE):
        raise StuckError(f"return value {value} crosses the interface but is not observable")
    return Message(kinds[1], thunk.closure.name, _observable_args(thunk), value)


_ATOMS = (ELit, EVar, EThk, ELam)


def _eval_atom(expr: Expr, env: Env, uids) -> Value:
    """The value of an atom; a function literal takes the next closure uid."""
    t = type(expr)
    if t is EVar:
        return env.lookup(expr.name)
    if t is ELit:
        return expr.value
    if t is ELam:
        return Closure(expr.params, expr.body, expr.package, env, expr.name, next(uids))
    if t is EThk:
        return env.lookup("thk")
    raise StuckError(f"operand {t.__name__} is not an atom")


_VALUES = frozenset((Unit, Bool, Int, Str, ObjectId, Closure, RThunk, CellRef))
_THUNK_OPS = frozenset(("invoke", "enable", "disable", "allow", "disallow"))


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
    stores as sets), applies one rule per step in place, chosen by the
    control's type and for a primitive by its op, and packs a
    MachineState only when it stops.  ``run``, ``advance`` and ``step`` all
    go through it."""

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
                if t is ELet:
                    cont.append(_tuple(FLet, (c.var, c.body, env)))
                    c = c.bound
                elif t in _VALUES:
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
                        cont.append(_tuple(FThunk, (thunk,)))
                    elif type(cont[-1]) is FLet:
                        top = cont.pop()
                        env = Env({top.var: c}, top.env)
                        c = top.body
                    else:
                        label = _label(cont.pop().thunk, cont, c)
                        if label is not None:
                            labels.append(label)
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
                        c = TRUE if v == w else FALSE
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
                    label = _label(thunk, cont)
                    if label is not None:
                        labels.append(label)
                    frame = dict(zip(closure.params, thunk.args))
                    frame["thk"] = thunk
                    env = Env(frame, closure.env)
                    c = closure.body
                    cont.append(_tuple(FThunk, (thunk,)))
                elif t in _ATOMS:
                    c = _eval_atom(c, env, uids)
                else:
                    raise StuckError(f"no rule for control {t.__name__}")
                steps += 1
        except StuckError as e:
            return labels, STUCK, steps, str(e), None
        return labels, status, steps, "", _tuple(MachineState, (
            c, env, tuple(store), frozenset(enabled), frozenset(disallowed), tuple(cont)))

    def advance(self, state: MachineState) -> tuple[Optional[Message], MachineState]:
        """The successor of a state that is neither terminal nor at the
        event loop, with its message label: the one element of step."""
        if not state.cont and state.is_value():
            raise ValueError("advance at the event loop, where only step applies")
        (succ,) = self.step(state)
        return succ

    def step(self, state: MachineState) -> list[tuple[Optional[Message], MachineState]]:
        """All successors of a non-terminal state with their message labels,
        each the machine run from state for one step.

        Every rule is deterministic except event dispatch, which yields one
        successor per enabled thunk (in sorted order)."""
        if state.is_terminal():
            raise ValueError("step on a terminal state")
        if state.cont or not state.is_value():
            labels, status, _, reason, succ = self._exec(state, 1, lambda n: None)
            if status == STUCK:
                raise StuckError(reason)
            return [(labels[0] if labels else None, succ)]
        return [(None, self._exec(state, 1, lambda n, i=i: i)[4])
                for i in range(len(state.enabled))]


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
