"""Instances compiled from their rule's template.

ground_spec keeps each instance as its spec rule, binding, bound target
and bound distinct atoms, and builds no ground matcher; an atom or target
the trace holds is the trace's message object itself.  compile_spec looks
an instance's DFA up under its source rule and the local letter of each of
the rule's distinct atoms, and translates the spec rule's matcher only on
a miss.  The ground matcher, built on demand, must be the binding applied
to the rule's matcher, and the engine must hold one DFA object per
distinct local regex, across rules too, as the per-instance compilation
did: the counts below are those it gave."""

import collections
import pathlib
import random

import pytest

from lifeguard.abstract import AbstractEngine
from lifeguard.grounding import ground_spec
from lifeguard.messages import load_trace
from lifeguard.rules import apply_binding, apply_binding_matcher, load_spec, matcher_atoms

from gen import random_trace
from pairs import pair_trace
from test_compile_reference import COINCIDING_ATOMS

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
TRACES = [load_trace(FIXTURES / "trace_fixed.trace"), load_trace(FIXTURES / "trace_buggy.trace"),
          *(pair_trace(n) for n in range(1, 9))]

# Distinct DFA objects per fixture spec, on every trace above, full and
# sliced: spec_run's rules 1 and 2 (TRUE* ; ci execute(t)) share one.
DFAS = {"spec_lifecycle": 2, "spec_run": 2, "spec_run_noenable": 2, "spec_run_redundant": 2,
        "spec_run_until": 3, "spec_top": 1}


def _distinct_atoms(matcher):
    return tuple(dict.fromkeys(matcher_atoms(matcher)))


def assert_instances_follow_their_rule(spec, trace, ground):
    # An atom or target that the trace holds is one of the trace's own
    # message objects.
    held, ids = set(trace.messages), {id(m) for m in trace.messages}
    for gr in ground.rules:
        assert all(id(m) in ids for m in (gr.target, *gr.atoms) if m in held)
        rule = spec.rules[gr.source_index]
        binding = dict(gr.binding)
        assert gr.rule == rule and gr.polarity == rule.polarity
        assert gr.matcher == apply_binding_matcher(binding, rule.matcher)
        assert gr.atoms == _distinct_atoms(gr.matcher)
        assert gr.target == apply_binding(binding, rule.target)
        assert set(gr.atoms) | {gr.target} <= set(ground.alphabet)


def _dfa_count(ground) -> int:
    return len({id(rule.dfa) for rule in AbstractEngine(ground).rules})


def test_the_table_covers_every_fixture_spec():
    assert set(DFAS) == {path.stem for path in FIXTURES.glob("*.ls")}


@pytest.mark.parametrize("name", sorted(DFAS))
def test_fixture_instances_follow_their_rule_and_share_dfas(name):
    spec = load_spec(FIXTURES / f"{name}.ls")
    for trace in TRACES:
        for sliced in (False, True):
            ground = ground_spec(spec, trace, sliced=sliced)
            assert_instances_follow_their_rule(spec, trace, ground)
            assert _dfa_count(ground) == DFAS[name]


def test_coinciding_atoms_follow_their_rule_and_share_dfas():
    rng = random.Random(19)
    counts, coinciding = collections.Counter(), 0
    for _ in range(40):
        trace = random_trace(rng, max_messages=16)
        for sliced in (False, True):
            ground = ground_spec(COINCIDING_ATOMS, trace, sliced=sliced)
            assert_instances_follow_their_rule(COINCIDING_ATOMS, trace, ground)
            counts[_dfa_count(ground)] += 1
            coinciding += sum(len(gr.atoms) < len(_distinct_atoms(gr.rule.matcher))
                              for gr in ground.rules)
    assert coinciding > 0
    assert sorted(counts.items()) == [(0, 25), (1, 15), (2, 28), (4, 12)]
