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
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .messages import (
    APP,
    CB,
    CBRET,
    CI,
    CIRET,
    DIS_CI,
    FWK,
    NAMED_VALUES,
    UNIT,
    Bool,
    Cursor,
    FunctionSymbol,
    Int,
    Message,
    ObjectId,
    Str,
    Thunk,
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


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class ELit(Expr):
    value: Value


@dataclass(frozen=True)
class EVar(Expr):
    name: str


@dataclass(frozen=True)
class EThk(Expr):
    pass


@dataclass(frozen=True)
class ELam(Expr):
    params: tuple[str, ...]
    package: str
    body: Expr
    name: str = "<anon>"


@dataclass(frozen=True)
class ELet(Expr):
    var: str
    bound: Expr
    body: Expr


@dataclass(frozen=True)
class EIf(Expr):
    cond: Expr
    then: Expr
    orelse: Expr


@dataclass(frozen=True)
class EPrim(Expr):
    """A primitive machine form: op applied to operand expressions.

    Ops: bind, invoke, enable, disable, allow, disallow, newcell, get, set,
    add, eq.  After normalization every operand is an atom.
    """

    op: str
    operands: tuple[Expr, ...]


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


@dataclass(frozen=True)
class Closure(Value):
    """A function value with its captured environment.

    Closures compare by allocation identity: the uid is assigned when the
    function literal is evaluated, so two thunks over the same let-bound
    function are equal while distinct literals never are."""

    params: tuple[str, ...]
    body: Expr = field(compare=False, hash=False, repr=False)
    package: str
    env: "Env" = field(compare=False, hash=False, repr=False)
    name: str
    uid: int

    def sort_key(self) -> tuple:
        return (5, self.name, self.uid)

    def __str__(self) -> str:
        return f"<fun {self.name} [{self.package}]>"


@dataclass(frozen=True)
class RThunk(Value):
    closure: Closure
    args: tuple[Value, ...]

    def sort_key(self) -> tuple:
        return (6, self.closure.name, self.closure.uid, tuple(a.sort_key() for a in self.args))

    def __str__(self) -> str:
        return f"{self.closure.name}[{','.join(map(str, self.args))}]"


@dataclass(frozen=True)
class CellRef(Value):
    cell: int

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


# Continuation frames (top of stack is the last tuple element).


@dataclass(frozen=True)
class FLet:
    var: str
    body: Expr
    env: Env


@dataclass(frozen=True)
class FThunk:
    thunk: RThunk


@dataclass(frozen=True)
class FEvent:
    thunk: RThunk


Frame = Union[FLet, FThunk, FEvent]


@dataclass(frozen=True)
class MForce:
    """Machine-internal control form: a thunk about to be applied."""

    thunk: RThunk


BAD = "bad"


@dataclass(frozen=True)
class MachineState:
    """Configuration: control, environment, cell store, permission stores,
    and the continuation stack.  The distinguished bad state uses the BAD
    control marker."""

    control: object
    env: Env = EMPTY_ENV
    store: tuple[Value, ...] = ()
    enabled: frozenset = frozenset()
    disallowed: frozenset = frozenset()
    cont: tuple[Frame, ...] = ()

    def is_bad(self) -> bool:
        return self.control is BAD

    def is_value(self) -> bool:
        return isinstance(self.control, Value)

    def is_terminal(self) -> bool:
        c = self.control
        return c is BAD or (isinstance(c, Value) and not self.cont and not self.enabled)

    def with_control(self, control: object, env: Optional[Env] = None,
                     cont: Optional[tuple[Frame, ...]] = None) -> "MachineState":
        """This state with a new control, and optionally a new env or cont."""
        return MachineState(control, self.env if env is None else env, self.store,
                            self.enabled, self.disallowed, self.cont if cont is None else cont)


def initial_state(program: Expr) -> MachineState:
    return MachineState(control=program)


def _caller_package(cont: tuple[Frame, ...]) -> Optional[str]:
    """Package of the running caller thunk, from the continuation."""
    for frame in reversed(cont):
        if isinstance(frame, (FThunk, FEvent)):
            return frame.thunk.closure.package
    return None


_SERIALIZABLE = (Unit, Bool, Int, Str, ObjectId)


def _observable_thunk(thunk: RThunk) -> Thunk:
    for a in thunk.args:
        if not isinstance(a, _SERIALIZABLE):
            raise StuckError(
                f"value {a} crosses the app-framework interface but is not observable"
            )
    fun = FunctionSymbol(thunk.closure.name, thunk.closure.package)
    return Thunk(fun, thunk.args)


# (callee package, caller package) -> (entry kind, return kind) of the
# calls that cross the app-framework interface.
_CROSSINGS = {(APP, FWK): (CB, CBRET), (FWK, APP): (CI, CIRET)}


def _label(thunk: RThunk, cont: tuple[Frame, ...],
           value: Optional[Value] = None) -> Optional[Message]:
    """The message for forcing thunk under cont or, given its return value,
    for returning to cont; None if the call does not cross the interface."""
    kinds = _CROSSINGS.get((thunk.closure.package, _caller_package(cont)))
    if kinds is None:
        return None
    if value is None:
        return Message(kinds[0], _observable_thunk(thunk))
    if not isinstance(value, _SERIALIZABLE):
        raise StuckError(f"return value {value} crosses the interface but is not observable")
    return Message(kinds[1], _observable_thunk(thunk), value)


def _eval_atom(expr: Expr, env: Env, uid_counter) -> Value:
    if isinstance(expr, ELit):
        return expr.value
    if isinstance(expr, EVar):
        return env.lookup(expr.name)
    if isinstance(expr, EThk):
        return env.lookup("thk")
    if isinstance(expr, ELam):
        return Closure(expr.params, expr.body, expr.package, env, expr.name, next(uid_counter))
    raise StuckError(f"operand {type(expr).__name__} is not an atom")


class Machine:
    """Small-step executor.  A Machine owns the uid supply for closures so
    that states from one run are internally consistent."""

    def __init__(self) -> None:
        self._uids = itertools.count(1)

    def step(self, state: MachineState) -> list[tuple[Optional[Message], MachineState]]:
        """All successors of a non-terminal state with their message labels.

        Every rule is deterministic except event dispatch, which yields one
        successor per enabled thunk (in sorted order)."""
        if state.is_terminal():
            raise ValueError("step on a terminal state")
        c = state.control

        if isinstance(c, Value):
            if state.cont:
                top = state.cont[-1]
                rest = state.cont[:-1]
                if isinstance(top, FLet):
                    return [(None, state.with_control(top.body, Env({top.var: c}, top.env), rest))]
                if isinstance(top, FThunk):
                    return [(_label(top.thunk, rest, c), state.with_control(c, cont=rest))]
                if isinstance(top, FEvent):
                    return [(None, state.with_control(c, cont=rest))]
                raise StuckError(f"unknown continuation frame {top!r}")
            # Event: value at the top level, pick any enabled thunk.
            return [(None, state.with_control(MForce(thunk), cont=(FEvent(thunk),)))
                    for thunk in sorted(state.enabled, key=lambda t: t.sort_key())]

        if isinstance(c, MForce):
            thunk = c.thunk
            closure = thunk.closure
            if len(thunk.args) != len(closure.params):
                raise StuckError(
                    f"forcing {closure.name} with {len(thunk.args)} of "
                    f"{len(closure.params)} arguments"
                )
            frame = dict(zip(closure.params, thunk.args))
            frame["thk"] = thunk
            return [(_label(thunk, state.cont),
                     state.with_control(closure.body, Env(frame, closure.env),
                                        state.cont + (FThunk(thunk),)))]

        if isinstance(c, ELet):
            return [(None, state.with_control(
                c.bound, cont=state.cont + (FLet(c.var, c.body, state.env),)))]

        if isinstance(c, EIf):
            cond = _eval_atom(c.cond, state.env, self._uids)
            if not isinstance(cond, Bool):
                raise StuckError(f"if condition is {cond}, not a boolean")
            return [(None, state.with_control(c.then if cond.flag else c.orelse))]

        if _is_atom(c):
            return [(None, state.with_control(_eval_atom(c, state.env, self._uids)))]

        if isinstance(c, EPrim):
            return [self._prim(c, state)]

        raise StuckError(f"no rule for control {type(c).__name__}")

    def _prim(self, expr: EPrim, state: MachineState) -> tuple[Optional[Message], MachineState]:
        vals = [_eval_atom(a, state.env, self._uids) for a in expr.operands]
        op = expr.op

        if op == "bind":
            target, arg = vals
            if isinstance(target, Closure):
                return None, state.with_control(RThunk(target, (arg,)))
            if isinstance(target, RThunk):
                if len(target.args) >= len(target.closure.params):
                    raise StuckError(f"bind on saturated thunk {target}")
                return None, state.with_control(RThunk(target.closure, target.args + (arg,)))
            raise StuckError(f"bind on non-function {target}")
        if op == "invoke":
            (thunk,) = vals
            if not isinstance(thunk, RThunk):
                raise StuckError(f"invoke on non-thunk {thunk}")
            if thunk in state.disallowed:
                return Message(DIS_CI, _observable_thunk(thunk)), state.with_control(BAD)
            return None, state.with_control(MForce(thunk))
        if op in ("enable", "disable", "allow", "disallow"):
            (thunk,) = vals
            if not isinstance(thunk, RThunk):
                raise StuckError(f"{op} on non-thunk {thunk}")
            if op == "enable":
                return None, replace(state, control=thunk, enabled=state.enabled | {thunk})
            if op == "disable":
                return None, replace(state, control=thunk, enabled=state.enabled - {thunk})
            if op == "disallow":
                return None, replace(state, control=thunk, disallowed=state.disallowed | {thunk})
            return None, replace(state, control=thunk, disallowed=state.disallowed - {thunk})
        if op == "newcell":
            # Cell n is store[n - 1]: cells are numbered by allocation order.
            return None, replace(state, control=CellRef(len(state.store) + 1),
                                 store=state.store + (vals[0],))
        if op in ("get", "set"):
            ref = vals[0]
            if not isinstance(ref, CellRef):
                raise StuckError(f"{op} on non-cell {ref}")
            if not 0 < ref.cell <= len(state.store):
                raise StuckError(f"read of unallocated cell {ref.cell}")
            i = ref.cell - 1
            if op == "get":
                return None, state.with_control(state.store[i])
            store = state.store[:i] + (vals[1],) + state.store[i + 1:]
            return None, replace(state, control=UNIT, store=store)
        if op == "add":
            a, b = vals
            if not (isinstance(a, Int) and isinstance(b, Int)):
                raise StuckError("add on non-integers")
            return None, state.with_control(Int(a.n + b.n))
        if op == "eq":
            a, b = vals
            return None, state.with_control(Bool(a == b))
        raise StuckError(f"unknown primitive {op!r}")


# ---------------------------------------------------------------------------
# Schedules and whole runs


@dataclass(frozen=True)
class Schedule:
    """Event choices for a run: an explicit index list or a seeded RNG."""

    picks: Optional[tuple[int, ...]] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if (self.picks is None) == (self.seed is None):
            raise ValueError("schedule is either an explicit list or a seed")


def parse_schedule(text: str) -> Schedule:
    text = text.strip()
    try:
        if text.startswith("seed:"):
            return Schedule(seed=int(text[len("seed:"):]))
        return Schedule(picks=tuple(int(p) for p in re.split(r"[,\s]+", text) if p))
    except ValueError:
        raise ScheduleError(f"cannot parse schedule {text!r}: expected comma-separated "
                            f"event indices or seed:N") from None


FINISHED = "finished"
BAD_STATUS = "bad"
BUDGET_EXHAUSTED = "budget_exhausted"
STUCK = "stuck"


@dataclass(frozen=True)
class RunResult:
    trace: Trace
    status: str
    steps: int


def run(program: Expr, schedule: Schedule, max_steps: int = 10000) -> RunResult:
    """Execute a program under a schedule, collecting the observable trace.

    Status is ``bad`` iff the trace ends in a dis message; an explicit
    schedule that runs out at the event loop finishes the run."""
    if max_steps < 1:
        raise ValueError("max_steps must be positive")
    machine = Machine()
    state = initial_state(program)
    rng = random.Random(schedule.seed) if schedule.seed is not None else None
    picks = iter(schedule.picks or ())
    labels: list[Message] = []
    steps = 0
    status = BUDGET_EXHAUSTED
    while steps < max_steps:
        if state.is_bad():
            status = BAD_STATUS
            break
        if state.is_value() and not state.cont:
            if not state.enabled:
                status = FINISHED
                break
            choice = next(picks, None) if rng is None else rng.randrange(len(state.enabled))
            if choice is None:
                status = FINISHED
                break
            succs = machine.step(state)
            if not 0 <= choice < len(succs):
                raise ScheduleError(
                    f"schedule index {choice} out of range for {len(succs)} enabled events"
                )
            label, state = succs[choice]
        else:
            try:
                succs = machine.step(state)
            except StuckError:
                status = STUCK
                break
            if len(succs) != 1:
                raise AssertionError("only event dispatch may fan out")
            label, state = succs[0]
        if label is not None:
            labels.append(label)
        steps += 1
    trace = Trace(tuple(labels))
    return RunResult(trace, status, steps)


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
