"""The interned-integer engine, validate and verify against the frozenset
reference in reference_engine.py: every step outcome, every decoded store,
every validation report and every verification result must be equal.
validate and verify ground sliced, so the reference runs on the sliced
grounding; test_sliced_grounding.py checks the slice against the full
grounding."""

import itertools
import random

import pytest

from lifeguard.abstract import OK, AbstractEngine
from lifeguard.grounding import ground_spec
from lifeguard.messages import UNIT, Message, ObjectId
from lifeguard.rules import parse_spec
from lifeguard.validation import validate
from lifeguard.verification import verify

from gen import random_spec, random_trace
from pairs import pair_trace, random_order
from reference_engine import (
    EXACT,
    ReferenceEngine,
    agrees_with_exact,
    fold_step,
    reference_validate,
    reference_verify,
    full_scan,
    unpacked,
)

FIXTURE_SPECS = ("spec_run", "spec_run_noenable", "spec_lifecycle", "spec_top")
FIXTURE_TRACES = ("trace_fixed", "trace_buggy")

W1 = ObjectId("w", 1, "Widget")
# Messages outside every generated alphabet: they step by OTHER.
STRAY = (Message("cb", "offworld", (W1,)),
         Message("ci", "offworld", (W1,)),
         Message("ciret", "offworld", (W1,), UNIT))


# Starting a task both permits and prohibits starting it again: the
# stores collapse after every ci init.
INCONSISTENT = parse_spec(
    "TRUE* ; ci init(t:AsyncTask) -> ci execute(t)\n"
    "TRUE* ; ci init(t:AsyncTask) -/> ci execute(t)\n"
    "TRUE* ; ci execute(t:AsyncTask) -> cb onPostExecute(t)\n"
)

# Rules whose DFAs have 2, 4 and 8 states, so one packed word holds rule
# states of several widths, and anchored matchers whose start state is
# live until the first letter.
WIDE = parse_spec(
    "TRUE* ; ci init(t:AsyncTask) ; TRUE* ; ci execute(t) ; TRUE* ; cb onPostExecute(t)"
    " -/> ci execute(t)\n"
    "cb onCreate(a:Activity) ; (ci init(t:AsyncTask) ; ciret unit = init(t) ;"
    " ci setOnClickListener(b:Button, l:OnClickListener) ;"
    " ciret unit = setOnClickListener(b, l))* ; TRUE* -> cb onClick(l, b)\n"
    "TRUE* ; ci setEnabled(b:Button, false) -/> cb onClick(forall l:OnClickListener, b)\n"
    "TRUE* ; ci execute(t:AsyncTask) -> cb onPostExecute(t)\n"
    "eps -/> cb onPostExecute(forall t:AsyncTask)\n"
    "eps -/> cb onClick(forall l:OnClickListener, forall b:Button)\n"
)


def fixture_pairs(request):
    specs = [request.getfixturevalue(s) for s in FIXTURE_SPECS] + [INCONSISTENT]
    return [(spec, request.getfixturevalue(t))
            for spec, t in itertools.product(specs, FIXTURE_TRACES)]


def seeded_pairs(n_pairs=200, seed=2026):
    rng = random.Random(seed)
    return [(random_spec(rng), random_trace(rng, max_messages=20, max_objects=3))
            for _ in range(n_pairs)]


def view(engine, state):
    return (frozenset(engine.decode(state.permitted)), frozenset(engine.decode(state.prohibited)),
            unpacked(engine, state), state.inconsistent)


def ref_view(state):
    return (state.permitted, state.prohibited, state.rule_states, state.inconsistent)


def fold_outcomes(engine, messages):
    """The initial state, then per step of the shared fold its outcome and
    for OK the successor's decoded stores."""
    state = engine.initial_state()
    out = [(OK, view(engine, state))]
    for event in engine.fold(state, engine.intern(messages)):
        out.append((event.outcome, view(engine, event.after) if event.outcome == OK else None))
    return out


def reference_outcomes(ref, messages):
    state = ref.initial_state()
    out = [(OK, ref_view(state))]
    for m in messages:
        outcome, after = ref.step(state, m)
        out.append((outcome, ref_view(after) if outcome == OK else None))
        if outcome != OK:
            break
        state = after
    return out


def assert_steps_match(spec, trace, rng):
    ground = ground_spec(spec, trace)
    engine, ref = AbstractEngine(ground), ReferenceEngine(ground)
    assert fold_outcomes(engine, trace.messages) == reference_outcomes(ref, trace.messages)
    # A random walk over the alphabet and stray messages: every attempt is
    # compared from the same state, and only OK steps move on.
    pool = list(ground.alphabet) + list(STRAY)
    state, ref_state = engine.initial_state(), ref.initial_state()
    for _ in range(40):
        m = rng.choice(pool)
        (outcome, after), (ref_outcome, ref_after) = (fold_step(engine, state, m),
                                                      ref.step(ref_state, m))
        assert outcome == ref_outcome, m
        if outcome == OK:
            assert view(engine, after) == ref_view(ref_after), m
            state, ref_state = after, ref_after


def test_steps_match_reference_on_fixtures(request):
    rng = random.Random(1)
    for spec, trace in fixture_pairs(request):
        assert_steps_match(spec, trace, rng)


def test_steps_match_reference_on_seeded_pairs():
    rng = random.Random(2)
    for spec, trace in seeded_pairs():
        assert_steps_match(spec, trace, rng)


def test_steps_match_reference_on_mixed_widths():
    rng = random.Random(5)
    for n in range(1, 5):
        assert_steps_match(WIDE, pair_trace(n, frozenset({n})), rng)


def test_validate_matches_reference(request, spec_run, trace_buggy):
    pairs = fixture_pairs(request) + seeded_pairs()
    # dis-terminated traces: predicted under spec_run, missed without rules
    witness = verify(spec_run, trace_buggy).witness
    pairs += [(spec_run, witness), (random_spec(random.Random(3)), witness)]
    invalid = 0
    for spec, trace in pairs:
        report = validate(spec, trace)
        assert report == reference_validate(spec, trace, ground_spec(spec, trace, sliced=True))
        invalid += not report.valid
    assert invalid > 20  # blame and blocking stores are compared, not only verdicts


def verify_cases(request):
    cases = fixture_pairs(request)
    spec_run, noenable = (request.getfixturevalue(s) for s in ("spec_run", "spec_run_noenable"))
    rng = random.Random(4)
    for n in (1, 2, 3, 4, 5, 6):
        for skip in (frozenset(), frozenset({rng.randint(1, n)})):
            trace = pair_trace(n, skip, random_order(n, rng))
            cases += [(spec_run, trace)] if n == 6 else [(spec_run, trace), (noenable, trace)]
    return cases


def test_live_rules_and_firing_word_match_a_full_scan(request):
    """At every step of the fold, live holds exactly the rules not at rest
    and fired_rules, which reads only the live rules, names exactly the
    accepting rules of a scan over every rule."""
    spec_run, noenable = (request.getfixturevalue(s) for s in ("spec_run", "spec_run_noenable"))
    cases = fixture_pairs(request) + seeded_pairs()
    for n in range(1, 7):
        trace = pair_trace(n, frozenset({n}))
        cases += [(spec_run, trace), (noenable, trace), (WIDE, trace)]
    sizes = 0
    for spec, trace in cases:
        engine = AbstractEngine(ground_spec(spec, trace))
        sizes = max(sizes, len({rule.dfa.n_states for rule in engine.rules}))
        state = engine.initial_state()
        states = [state] + [e.after for e in engine.fold(state, engine.intern(trace.messages))
                            if e.after is not None]
        for state in states:
            live, accepting = full_scan(engine, state)
            assert state.live == live
            assert engine.fired_rules(state) == [engine.rules[i] for i in accepting]
            assert all(sid < rule.dfa.n_states
                       for rule, sid in zip(engine.rules, unpacked(engine, state)))
    assert sizes >= 3  # DFAs of several sizes share one packed word


@pytest.mark.parametrize("mode", ["exhaustive", "bounded:1", "bounded:3"])
def test_verify_matches_reference_bfs(request, mode):
    kinds = set()
    for spec, trace in verify_cases(request):
        # Exhaustive reference BFS is matched by the package's exact
        # explorer; the reduced exhaustive search must agree with both.
        result = verify(spec, trace, mode=EXACT if mode == "exhaustive" else mode)
        reference = reference_verify(spec, trace, mode=mode,
                                     ground=ground_spec(spec, trace, sliced=True))
        assert result == reference
        if mode == "exhaustive":
            assert agrees_with_exact(verify(spec, trace), reference)
        kinds.add(type(result).__name__)
    assert kinds >= ({"Safe", "Violation"} if mode == "exhaustive" else {"Unknown"})


def test_verify_matches_reference_at_state_cap(request):
    for spec, trace in fixture_pairs(request):
        for cap in (1, 2, 3):
            assert verify(spec, trace, mode=EXACT, state_cap=cap) == reference_verify(
                spec, trace, state_cap=cap, ground=ground_spec(spec, trace, sliced=True))
