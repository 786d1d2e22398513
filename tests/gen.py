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
