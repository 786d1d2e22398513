"""Seeded random generators for traces and specs used by the property
suites.  Deterministic given the Random instance.

Function arities are fixed per name so that generated rule atoms actually
collide with generated trace messages."""

from __future__ import annotations

import functools
import pathlib
import random

from lifeguard.messages import (
    CB,
    CBRET,
    CI,
    CIRET,
    FALSE,
    TRUE,
    UNIT,
    Int,
    Message,
    ObjectId,
    Trace,
)
from lifeguard.rules import (
    LifestateSpec,
    MAny,
    MAtom,
    MConcat,
    MEps,
    MStar,
    PERMIT,
    PROHIBIT,
    Rule,
    SVar,
    load_spec,
    parse_rule,
)

TYPES = ("Widget", "Task")
CALLBACKS = {"onShow": 1, "onPing": 1}
CALLINS = {"start": 1, "stop": 1, "poke": 2}
CONSTS = (TRUE, FALSE, UNIT, Int(1))


def make_objects(rng: random.Random, max_objects: int = 3) -> list[ObjectId]:
    n = rng.randint(1, max_objects)
    out = []
    for i in range(n):
        ty = TYPES[i % len(TYPES)]
        out.append(ObjectId(ty[0].lower(), i + 1, ty))
    return out


def _value(rng: random.Random, objects):
    if rng.random() < 0.85:
        return rng.choice(objects)
    return rng.choice(CONSTS)


def _args(rng, objects, arity: int) -> tuple:
    return tuple(_value(rng, objects) for _ in range(arity))


def random_trace(rng: random.Random, max_messages: int = 20, max_objects: int = 3) -> Trace:
    """A well-formed event-loop trace: complete cb..cbret units containing
    ci/ciret pairs."""
    objects = make_objects(rng, max_objects)
    messages: list[Message] = []
    while len(messages) < max_messages - 1:
        name = rng.choice(sorted(CALLBACKS))
        cb_args = _args(rng, objects, CALLBACKS[name])
        unit = [Message(CB, name, cb_args)]
        for _ in range(rng.randint(0, 3)):
            ci_name = rng.choice(sorted(CALLINS))
            ci_args = _args(rng, objects, CALLINS[ci_name])
            unit.append(Message(CI, ci_name, ci_args))
            unit.append(Message(CIRET, ci_name, ci_args, UNIT))
        unit.append(Message(CBRET, name, cb_args, UNIT))
        if len(messages) + len(unit) > max_messages:
            break
        messages.extend(unit)
        if rng.random() < 0.2:
            break
    if not messages:
        name = rng.choice(sorted(CALLBACKS))
        cb_args = _args(rng, objects, CALLBACKS[name])
        messages = [Message(CB, name, cb_args), Message(CBRET, name, cb_args, UNIT)]
    return Trace(tuple(messages))


def _param_message(rng: random.Random, kind: str, vars_pool) -> Message:
    names = CALLBACKS if kind == CB else CALLINS
    name = rng.choice(sorted(names))
    args = []
    for _ in range(names[name]):
        if vars_pool and rng.random() < 0.8:
            args.append(rng.choice(vars_pool))
        else:
            args.append(rng.choice(CONSTS))
    return Message(kind, name, tuple(args))


def random_spec(rng: random.Random, max_rules: int = 5) -> LifestateSpec:
    """Scoping-valid rules in the shapes that occur in practice: eps
    anchors, whole-history suffix triggers, and self-prohibitions."""
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        ty = rng.choice(TYPES)
        var = SVar("x", ty)
        shape = rng.random()
        if shape < 0.3:
            # a callin disallows itself once used
            name = rng.choice(sorted(CALLINS))
            args = tuple(var if i == 0 else rng.choice(CONSTS)
                         for i in range(CALLINS[name]))
            atom = Message(CI, name, args)
            matcher = MConcat(MStar(MAny()), MAtom(atom))
            rules.append(Rule(matcher, PROHIBIT, atom))
        elif shape < 0.5:
            # eps anchor with a universal target
            target = _param_message(rng, rng.choice((CB, CI)),
                                    [SVar("u", ty, universal=True)])
            rules.append(Rule(MEps(), rng.choice((PERMIT, PROHIBIT)), target))
        else:
            # suffix trigger permitting or prohibiting another message
            trigger = _param_message(rng, rng.choice((CB, CI)), [var])
            matcher = MConcat(MStar(MAny()), MAtom(trigger))
            pool = [p for p in trigger.args if isinstance(p, SVar)]
            pool = pool or [SVar("u", ty, universal=True)]
            target = _param_message(rng, rng.choice((CB, CI)), pool)
            rules.append(Rule(matcher, rng.choice((PERMIT, PROHIBIT)), target))
    return LifestateSpec(tuple(rules))


@functools.cache
def _spec_run() -> LifestateSpec:
    return load_spec(pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "spec_run.ls")


# The messages of the pair traces (tests/pairs.py), each object parameter
# a typed variable.
PAIR_MESSAGES = (
    ("cb", "onCreate", ("a:Activity",)),
    ("ci", "init", ("t:AsyncTask",)),
    ("ci", "setOnClickListener", ("b:Button", "l:OnClickListener")),
    ("cb", "onClick", ("l:OnClickListener", "b:Button")),
    ("ci", "setEnabled", ("b:Button", "false")),
    ("ci", "execute", ("t:AsyncTask",)),
    ("cb", "onPostExecute", ("t:AsyncTask",)),
)


def random_pair_spec(rng: random.Random) -> LifestateSpec:
    """fixtures/spec_run.ls plus 1-3 random rules over the pair traces'
    vocabulary.  Each is triggered by a message or its return, as a suffix
    (TRUE* ; m), since m (TRUE* ; m ; TRUE*) or never m (!(TRUE* ; m ;
    TRUE*)), and permits or prohibits a callback or callin that shares one
    of the trigger's variables.  A trigger left accepting at the end of a
    unit, such as a suffix trigger on a return, leaves that unit without a
    footprint."""
    rules = []
    for _ in range(rng.randint(1, 3)):
        kind, name, params = rng.choice(PAIR_MESSAGES)
        call = f"{name}({', '.join(params)})"
        atom = rng.choice((f"{kind} {call}", f"{kind}ret unit = {call}"))
        matcher = rng.choice(("TRUE* ; {}", "TRUE* ; {} ; TRUE*", "!(TRUE* ; {} ; TRUE*)"))
        var, ty = rng.choice([p.split(":") for p in params if ":" in p])
        target_kind, target, target_params = rng.choice(
            [m for m in PAIR_MESSAGES if any(p.endswith(":" + ty) for p in m[2])])
        args = [var if p.endswith(":" + ty) else f"forall u{i}:{p.split(':')[1]}" if ":" in p
                else p for i, p in enumerate(target_params)]
        rules.append(parse_rule(f"{matcher.format(atom)} {rng.choice(('->', '-/>'))} "
                                f"{target_kind} {target}({', '.join(args)})"))
    return LifestateSpec(_spec_run().rules + tuple(rules))


# The functions of random_program: the pair traces' callbacks (app) and
# callins (fwk), and the framework's three event handlers.  A parameter is
# named by its type: a Activity, t AsyncTask, b Button, l OnClickListener,
# en a boolean.
PROGRAM_FUNCTIONS = (
    ("onCreate", "app", ("a",)),
    ("onClick", "app", ("l", "b")),
    ("onPostExecute", "app", ("t",)),
    ("init", "fwk", ("t",)),
    ("setOnClickListener", "fwk", ("b", "l")),
    ("setEnabled", "fwk", ("b", "en")),
    ("execute", "fwk", ("t",)),
    ("handleCreate", "fwk", ("a",)),
    ("handleClick", "fwk", ("l", "b")),
    ("handlePostExecute", "fwk", ("t",)),
)
HANDLERS = frozenset(("handleCreate", "handleClick", "handlePostExecute"))


def random_program(rng: random.Random) -> str:
    """A program over the pair traces' vocabulary.  It binds one or two
    pairs' objects and a counter cell, then PROGRAM_FUNCTIONS in a random
    order, then a boot function that enables some handlers, and invokes
    boot.  Each body is a few random statements: invoke, bind, if on eq,
    newcell, get, set and add in any package, and in a framework body
    enable, disable, allow and disallow.  A body reaches only functions
    bound before its own, so a callback's invoke of a callin calls back
    into the framework and a callin's invoke of a callback nests, but no
    call recurses; a handler disables itself first and enables only
    earlier handlers, so every run ends.  Disallowed callins make bad runs,
    and a cell passed across the interface or a disallowed callback
    invoked makes stuck ones."""
    n = rng.randint(1, 2)
    globals_ = {"a": ["a"], "t": [f"t{i}" for i in range(1, n + 1)],
                "b": [f"b{i}" for i in range(1, n + 1)],
                "l": [f"l{i}" for i in range(1, n + 1)], "en": ["true", "false"]}
    lines = ["let a = a#1:Activity in"]
    lines += [f"let t{i} = t#{i}:AsyncTask in let b{i} = b#{i}:Button in "
              f"let l{i} = l#{i}:OnClickListener in" for i in range(1, n + 1)]
    lines.append(f"let c = newcell {rng.randint(0, 2)} in")
    defined: list[tuple[str, str, tuple[str, ...]]] = []

    def arg(ty: str, params: tuple[str, ...]) -> str:
        roll = rng.random()
        if roll < 0.03:
            return "c"  # a cell: not observable
        if roll < 0.08:
            return "(get c)"
        return rng.choice([p for p in params if p == ty] + globals_[ty])

    def thunk(fun: tuple[str, str, tuple[str, ...]], params: tuple[str, ...]) -> str:
        expr = fun[0]
        for ty in fun[2]:
            expr = f"(bind {expr} {arg(ty, params)})"
        return expr

    def condition(params: tuple[str, ...]) -> str:
        roll = rng.random()
        if roll < 0.4:
            return f"eq (get c) {rng.randint(0, 3)}"
        if roll < 0.8:
            ty = rng.choice(("a", "t", "b", "l"))
            return f"eq {arg(ty, params)} {arg(ty, params)}"
        return arg("en", params)

    def statement(package: str, params: tuple[str, ...], depth: int) -> str:
        handlers = [f for f in defined if f[0] in HANDLERS]
        others = [f for f in defined if f[0] not in HANDLERS]
        kinds = ["call", "call", "count", "branch", "let"]
        if package == "fwk":
            kinds += ["enable", "permission", "permission"]
        kind = rng.choice(kinds)
        if kind == "call" and defined and depth < 2 and rng.random() < 0.4:
            # A let-bound thunk, invoked by name: the invoke is itself a
            # let's bound.
            return (f"let h = {thunk(rng.choice(defined), params)} in "
                    f"(invoke h; {statement(package, params, depth + 1)})")
        if kind == "call" and defined:
            return f"invoke {thunk(rng.choice(defined), params)}"
        if kind == "enable" and handlers:
            op = rng.choice(("enable", "disable"))
            return f"{op} {thunk(rng.choice(handlers), params)}"
        if kind == "permission":
            target = thunk(rng.choice(others), params) if others and rng.random() < 0.8 else "thk"
            return f"{rng.choice(('allow', 'disallow', 'disallow'))} {target}"
        if kind == "count":
            return f"set c (add (get c) {rng.randint(1, 2)})"
        if kind == "branch" and depth < 2:
            return (f"if {condition(params)} then ({statement(package, params, depth + 1)}) "
                    f"else ({statement(package, params, depth + 1)})")
        if kind == "let" and depth < 2:
            return (f"let v = newcell (get c) in "
                    f"(set v (add (get v) 1); {statement(package, params, depth + 1)})")
        return "unit"

    for fun in rng.sample(PROGRAM_FUNCTIONS, len(PROGRAM_FUNCTIONS)):
        name, package, params = fun
        body = [statement(package, params, 0) for _ in range(rng.randint(1, 3))]
        if name in HANDLERS:
            body.insert(0, "disable thk")
        if rng.random() < 0.9:
            body.append("unit")  # else the last statement's value may not be observable
        head = params[0] if len(params) == 1 else f"({', '.join(params)})"
        lines.append(f"let {name} = ({head} =>[{package}] ({'; '.join(body)})) in")
        defined.append(fun)
    boot = [f"enable {thunk(h, ('a',))}"
            for h in rng.sample([f for f in defined if f[0] in HANDLERS], rng.randint(1, 3))]
    lines.append(f"let boot = (a =>[fwk] ({'; '.join(boot)}; unit)) in")
    lines.append("invoke (bind boot a)")
    return "\n".join(lines) + "\n"
