"""One plan per spec object, many traces.

ground_spec keeps what it needs of a spec, whatever the trace, in the spec
object, and compile_spec keeps the rule-template DFAs there.  A spec object
that has grounded other traces must ground a trace exactly as a fresh spec
object does, and its engines must share their DFA objects.  The alphabet
is sorted on value ids numbered in sort_key order, so it must come out in
Message.sort_key order whatever mix of values the trace and the spec's
constants hold."""

import pathlib
import random

import pytest

from lifeguard.abstract import AbstractEngine
from lifeguard.grounding import compile_spec, ground_spec, letter_map
from lifeguard.messages import (CB, CBRET, CI, CIRET, FALSE, TRUE, UNIT, Int, Message, ObjectId,
                                Str, Trace, load_trace)
from lifeguard.rules import LifestateSpec, load_spec, matcher_atoms, parse_spec

from gen import random_spec, random_trace
from pairs import pair_trace
from test_template_compile import DFAS

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
SPECS = sorted(FIXTURES.glob("*.ls"))
TRACES = [*(load_trace(path) for path in sorted(FIXTURES.glob("*.trace"))),
          *(pair_trace(n, skip) for n in range(1, 9) for skip in (frozenset(), frozenset({1})))]


def assert_grounds_as_a_fresh_spec(spec, trace):
    fresh = LifestateSpec(spec.rules)
    for sliced in (False, True):
        got, expected = ground_spec(spec, trace, sliced=sliced), ground_spec(fresh, trace,
                                                                             sliced=sliced)
        assert got.rules == expected.rules
        assert got.alphabet == expected.alphabet
        assert got.instance_counts == expected.instance_counts
        assert got.relevant == expected.relevant
        assert compile_spec(got, letter_map(got.alphabet)) == \
            compile_spec(expected, letter_map(expected.alphabet))


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_a_spec_grounds_each_trace_as_a_fresh_spec_does(path):
    spec = load_spec(path)
    # Every trace after the first meets a plan that other traces filled.
    for trace in [*TRACES, *reversed(TRACES)]:
        assert_grounds_as_a_fresh_spec(spec, trace)


def test_a_generated_spec_grounds_a_second_trace_as_a_fresh_spec_does():
    rng = random.Random(23)
    for _ in range(300):
        spec = random_spec(rng)
        first, second = (random_trace(rng, max_messages=20, max_objects=3) for _ in range(2))
        ground_spec(spec, first, sliced=True)
        ground = ground_spec(spec, first)
        compile_spec(ground, letter_map(ground.alphabet))
        assert_grounds_as_a_fresh_spec(spec, second)


@pytest.mark.parametrize("path", SPECS, ids=lambda p: p.stem)
def test_engines_of_one_spec_share_their_dfas(path):
    spec = load_spec(path)
    engines = [AbstractEngine(ground_spec(spec, pair_trace(n), sliced=True)) for n in (3, 5)]
    engines.append(AbstractEngine(ground_spec(spec, pair_trace(4))))
    dfas = {id(rule.dfa) for engine in engines for rule in engine.rules}
    assert len(dfas) == DFAS[path.stem]
    fresh = AbstractEngine(ground_spec(load_spec(path), pair_trace(5), sliced=True))
    assert [rule.dfa for rule in fresh.rules] == [rule.dfa for rule in engines[1].rules]
    assert not dfas & {id(rule.dfa) for rule in fresh.rules}


# Values of every kind, and functions called with several arities, so that
# a message order on ids that joined the arguments and the return would
# differ from Message.sort_key.
VALUES = (UNIT, TRUE, FALSE, Int(-2), Int(0), Int(7), Str(""), Str("a"), Str("b b"),
          ObjectId("w", 1, "Widget"), ObjectId("w", 2, "Widget"), ObjectId("t", 1, "Task"),
          ObjectId("a", 3, "Task"))
# Constants that the traces never hold: 5, "zz", -3 and 1 in a return.
MIXED_SPEC = parse_spec(
    'TRUE* ; ci poke(x, 7) -> ci poke(x, "zz")\n'
    "TRUE* ; ci poke(x, y) -/> cb onShow(y)\n"
    "TRUE* ; ciret r = poke(x:Widget, y) -/> ci stop(r, false, -3)\n"
    "eps -> ci start(forall w:Widget, unit, 5)\n"
    "TRUE* ; cb onShow(x) -> ciret 1 = stop(x)\n"
)


def mixed_trace(rng: random.Random) -> Trace:
    def args():
        return tuple(rng.choice(VALUES) for _ in range(rng.randint(0, 2)))

    messages = []
    for _ in range(rng.randint(1, 4)):
        cb_args = args()
        messages.append(Message(CB, "onShow", cb_args))
        for _ in range(rng.randint(0, 3)):
            fun, ci_args = rng.choice(("poke", "stop", "start")), args()
            messages += [Message(CI, fun, ci_args), Message(CIRET, fun, ci_args,
                                                            rng.choice(VALUES))]
        messages.append(Message(CBRET, "onShow", cb_args, rng.choice(VALUES)))
    return Trace(tuple(messages))


def test_the_alphabet_is_in_message_order():
    rng = random.Random(5)
    for _ in range(200):
        trace = mixed_trace(rng)
        for sliced in (False, True):
            ground = ground_spec(MIXED_SPEC, trace, sliced=sliced)
            expected = set(trace.messages) | {rule.target for rule in ground.rules}
            expected.update(a for rule in ground.rules for a in matcher_atoms(rule.matcher))
            assert ground.alphabet == tuple(sorted(expected, key=Message.sort_key))
