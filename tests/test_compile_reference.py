"""compile_spec against the whole-alphabet compilation it replaced.

The reference translates every ground matcher over the global letter map
and runs the derivative construction over all N+1 letters, one instance at
a time.  compile_spec builds each rule shape once over the rule's own atoms
and gives each instance that shared DFA plus its atom columns; laid out
over the whole alphabet, the two must give isomorphic DFAs: a state
bijection that maps start to start and preserves acceptance and every
transition over all N+1 letters."""

import itertools
import random

import pytest

from lifeguard import dfa as D
from lifeguard.grounding import _translate, compile_spec, ground_spec, letter_map
from lifeguard.rules import parse_spec

from gen import random_spec, random_trace
from reference_engine import laid_out

# Two-atom matchers whose atoms coincide when the bound objects do
# (b = c, x = y), next to instances where they differ.
COINCIDING_ATOMS = parse_spec(
    "TRUE* ; ci setOnClickListener(b:Button, l:OnClickListener) ; TRUE* ; "
    "ci setOnClickListener(c:Button, l) -> cb onClick(l, b)\n"
    "(TRUE* ; ci poke(x:Widget, y:Widget)) & !(TRUE* ; ci poke(y, x) ; TRUE*) "
    "-/> ci start(x)\n"
    "!(TRUE* ; (ci start(x:Widget) + ci stop(y:Widget))) ; ci start(y) -> cb onShow(x)\n"
)

FIXTURE_SPECS = ("spec_run", "spec_run_noenable", "spec_lifecycle", "spec_top")
FIXTURE_TRACES = ("trace_fixed", "trace_buggy")


def reference_compile_spec(ground):
    """Whole-alphabet compilation: one construction per ground instance.
    An atom outside the alphabet fails the lookup instead of getting a
    letter."""
    letters = letter_map(ground.alphabet)
    return tuple(
        D.build_dfa(_translate(r.matcher, letters.__getitem__),
                    n_letters=len(ground.alphabet) + 1)
        for r in ground.rules
    )


def assert_isomorphic(got, want):
    assert got.n_letters == want.n_letters
    assert got.n_states == want.n_states
    to_want = {0: 0}
    queue = [0]
    while queue:
        s = queue.pop()
        t = to_want[s]
        assert got.accepting[s] == want.accepting[t]
        for letter in range(got.n_letters):
            s2, t2 = got.transitions[s][letter], want.transitions[t][letter]
            if s2 not in to_want:
                to_want[s2] = t2
                queue.append(s2)
            assert to_want[s2] == t2, (s, letter)
    # reachable states map one-to-one onto all states of the reference
    assert len(to_want) == got.n_states
    assert sorted(to_want.values()) == list(range(want.n_states))


def assert_same_as_reference(spec, trace):
    ground = ground_spec(spec, trace)
    compiled = compile_spec(ground, letter_map(ground.alphabet))
    reference = reference_compile_spec(ground)
    assert len(compiled) == len(reference) == len(ground.rules)
    for cr, gr, want in zip(compiled, ground.rules, reference):
        assert (cr.polarity, cr.target, cr.source_index) == \
            (gr.polarity, gr.target, gr.source_index)
        assert_isomorphic(laid_out(cr, len(ground.alphabet) + 1), want)
    return ground


@pytest.mark.parametrize("spec_name,trace_name",
                         list(itertools.product(FIXTURE_SPECS, FIXTURE_TRACES)))
def test_fixture_pairs_match_reference(request, spec_name, trace_name):
    assert_same_as_reference(request.getfixturevalue(spec_name),
                             request.getfixturevalue(trace_name))


def test_coinciding_atoms_on_fixture_match_reference(trace_fixed):
    ground = assert_same_as_reference(COINCIDING_ATOMS, trace_fixed)
    assert any(r.source_index == 0 for r in ground.rules)


def test_seeded_random_pairs_match_reference():
    rng = random.Random(20)
    coinciding = 0
    for _ in range(60):
        trace = random_trace(rng, max_messages=16)
        assert_same_as_reference(random_spec(rng), trace)
        ground = assert_same_as_reference(COINCIDING_ATOMS, trace)
        coinciding += sum(
            1 for r in ground.rules
            if r.source_index == 1 and dict(r.binding)["x"] == dict(r.binding)["y"]
        )
    assert coinciding > 0

