"""The sliced grounding against the full one.

ground_spec(spec, trace, sliced=True) keeps only the rule instances that
can change a verdict on the trace.  It is checked three ways: against
reference_slice, which reads the two dropped kinds directly off the full
grounding's compiled instances; by validate, verify and the brute_force_verify
oracle of reference_engine.py answering as they do over the full grounding;
and by the frozenset reference engine, run on the sliced grounding,
exploring exactly the states that verify does."""

import itertools
import random
import time

import pytest

from lifeguard import validation, verification
from lifeguard.abstract import AbstractEngine
from lifeguard.dfa import LimitExceeded
from lifeguard.grounding import GroundingError, compile_spec, ground_spec, letter_map
from lifeguard.messages import parse_trace
from lifeguard.rules import matcher_atoms, parse_spec
from lifeguard.validation import validate
from lifeguard.verification import Safe, Unknown, Violation, verify

from gen import random_spec, random_trace
from pairs import pair_trace, random_order
import reference_engine
from reference_engine import (EXACT, VerificationTimeout, brute_force_verify,
                              reference_validate, reference_verify)

FIXTURE_SPECS = ("spec_run", "spec_run_noenable", "spec_lifecycle", "spec_top")
FIXTURE_TRACES = ("trace_fixed", "trace_buggy")

# Shapes the generator does not make: matchers that accept on OTHER*
# (through a complement, a fixed length or eps) next to atoms that may
# never occur, and permit and prohibit rules that aim at targets the
# trace never shows, so that some unseen targets have both polarities.
EXTRA = parse_spec(
    "!(TRUE* ; ci start(x:Widget) ; TRUE*) -> cb onShow(x)\n"
    "TRUE ; TRUE -/> ci stop(forall x:Task)\n"
    "TRUE* ; ci poke(x:Widget, y:Task) -> ci stop(y)\n"
    "TRUE* ; cb onPing(y:Task) -/> ci poke(forall x:Widget, y)\n"
    "TRUE* ; ci start(x:Widget) ; TRUE* ; ci stop(x) -> cb onPing(x)\n"
    "eps -/> cb onPing(forall x:Widget)\n"
    "(TRUE* ; ci start(x:Widget)) & !(TRUE* ; ci poke(x, y:Task) ; TRUE*) -/> ci stop(y)\n"
)


def seen_messages(trace):
    return {m.unwrap() if m.is_dis() else m for m in trace.messages}


def reference_slice(spec, trace):
    """The full grounding's instances minus the two kinds, read off each
    compiled instance: kind 1 has no atom among the trace's messages and
    no accepting state on its DFA's OTHER path from the start; kind 2 is
    what remains of a single-polarity target group whose target is not a
    trace message."""
    full = ground_spec(spec, trace)
    seen = seen_messages(trace)

    def fires(rule, compiled):
        if any(atom in seen for atom in matcher_atoms(rule.matcher)):
            return True
        state, visited = 0, set()
        while state not in visited:
            if compiled.dfa.accepting[state]:
                return True
            visited.add(state)
            state = compiled.dfa.transitions[state][-1]
        return False

    compiled = compile_spec(full, letter_map(full.alphabet))
    survivors = [r for r, c in zip(full.rules, compiled) if fires(r, c)]
    polarities = {}
    for r in survivors:
        polarities.setdefault(r.target, set()).add(r.polarity)
    return tuple(r for r in survivors if r.target in seen or len(polarities[r.target]) == 2)


def full_relevance(spec, trace):
    full = ground_spec(spec, trace)
    messages = {r.target for r in full.rules}
    messages.update(a for r in full.rules for a in matcher_atoms(r.matcher))
    return frozenset(messages & seen_messages(trace))


def fixture_cases(request):
    specs = [request.getfixturevalue(s) for s in FIXTURE_SPECS] + [EXTRA]
    return [(spec, request.getfixturevalue(t))
            for spec, t in itertools.product(specs, FIXTURE_TRACES)]


def seeded_cases(n_pairs=300, seed=11):
    rng = random.Random(seed)
    cases = []
    for i in range(n_pairs):
        trace = random_trace(rng, max_messages=20, max_objects=3)
        cases.append((EXTRA if i % 5 == 0 else random_spec(rng), trace))
    return cases


def pair_cases(request, ns, rng):
    """spec_run and spec_run_noenable on pair traces with no, one and two
    skipping pairs, in random orders."""
    specs = [request.getfixturevalue(s) for s in ("spec_run", "spec_run_noenable")]
    cases = []
    for n in ns:
        for skips in (0, 1, 2):
            skip = frozenset(rng.sample(range(1, n + 1), min(skips, n)))
            trace = pair_trace(n, skip, random_order(n, rng))
            cases += [(spec, trace) for spec in specs]
    return cases


def full_grounding(monkeypatch):
    """Make verify ground in full."""
    monkeypatch.setattr(verification, "ground_spec",
                        lambda spec, trace, sliced=False, **kwargs: ground_spec(spec, trace,
                                                                                 **kwargs))


def test_slice_matches_its_definition(request):
    cases = fixture_cases(request) + seeded_cases() + pair_cases(request, range(1, 7),
                                                                 random.Random(1))
    dropped = mixed = 0
    for spec, trace in cases:
        full, sliced = ground_spec(spec, trace), ground_spec(spec, trace, sliced=True)
        assert sliced.rules == reference_slice(spec, trace)
        assert sliced.instance_counts == tuple(
            sum(r.source_index == i for r in sliced.rules) for i in range(len(spec.rules)))
        expected = seen_messages(trace) | {r.target for r in sliced.rules}
        expected |= {a for r in sliced.rules for a in matcher_atoms(r.matcher)}
        assert sliced.alphabet == tuple(sorted(expected, key=lambda m: m.sort_key()))
        assert sliced.relevant == full.relevant == full_relevance(spec, trace)
        dropped += len(full.rules) - len(sliced.rules)
        mixed += sum(r.target not in seen_messages(trace) for r in sliced.rules)
    assert dropped > 1000 and mixed > 0  # both kinds drop, and mixed groups stay


def test_spec_run_keeps_6n_plus_1_instances(spec_run):
    for n in [*range(1, 33), 200]:
        sliced = ground_spec(spec_run, pair_trace(n), sliced=True)
        assert sliced.instance_counts == (n,) * 6 + (1,), n
        assert len(sliced.rules) == 6 * n + 1


def test_validate_of_200_pairs_fits_a_two_second_timeout(spec_run):
    # Over the full grounding of 120,601 instances this took about 14 s.
    assert validate(spec_run, pair_trace(200), timeout=2).valid


def test_the_sliced_cap_counts_what_the_slicer_enumerates(spec_run):
    # The full grounding of 258 pairs needs 200,208 instances, over the
    # default cap; the sliced one keeps 1,549 and enumerates few more.
    with pytest.raises(GroundingError, match="grounding needs 200208 rule instances"):
        ground_spec(spec_run, pair_trace(258))
    assert len(ground_spec(spec_run, pair_trace(258), sliced=True).rules) == 6 * 258 + 1
    assert validate(spec_run, pair_trace(258)).valid


def test_a_forall_heavy_slice_still_hits_the_cap():
    # Both rules accept on OTHER* and keep all 144 (listener, button)
    # assignments at n=12; the slicer enumerates the permit rule's first.
    spec = parse_spec("eps -> cb onClick(forall l:OnClickListener, forall b:Button)\n"
                      "eps -/> cb onClick(forall l:OnClickListener, forall b:Button)\n")
    trace = pair_trace(12)
    with pytest.raises(GroundingError, match=r"^sliced grounding enumerates \d+ rule "
                       r"assignments \(cap 100\); worst rule is #1 with 144 assignments"):
        ground_spec(spec, trace, cap=100, sliced=True)
    assert ground_spec(spec, trace, cap=1000, sliced=True).instance_counts == (144, 144)


def test_validate_agrees_with_the_full_grounding(request, spec_run, trace_buggy):
    cases = (fixture_cases(request) + seeded_cases()
             + pair_cases(request, range(1, 11), random.Random(2)))
    witness = verify(spec_run, trace_buggy).witness
    cases += [(spec_run, witness), (EXTRA, witness)]
    invalid = 0
    for spec, trace in cases:
        report = validate(spec, trace)
        assert report == reference_validate(spec, trace)
        invalid += not report.valid
    assert invalid > 20


def test_verify_agrees_with_the_full_grounding(request, monkeypatch):
    cases = (fixture_cases(request) + seeded_cases()
             + pair_cases(request, range(1, 11), random.Random(3)))
    sliced = [verify(spec, trace) for spec, trace in cases]
    sliced_exact = [verify(spec, trace, mode=EXACT) for spec, trace in cases]
    brute = [brute_force_verify(spec, trace, 2) for spec, trace in cases]
    full_grounding(monkeypatch)
    kinds, fewer = set(), 0
    for (spec, trace), got, got_exact, got_brute in zip(cases, sliced, sliced_exact, brute):
        want = verify(spec, trace)
        assert type(got) is type(want)
        # Merged states can only shrink the exact state space.
        want_exact = verify(spec, trace, mode=EXACT)
        assert got_exact.states_explored <= want_exact.states_explored
        fewer += got_exact.states_explored < want_exact.states_explored
        if isinstance(got, Violation):
            assert (got.witness, got.subtrace_sequence) == (want.witness, want.subtrace_sequence)
        if isinstance(got, Safe):
            assert got.unreachable_units == want.unreachable_units
            assert got_exact.certificate_size <= want_exact.certificate_size
        assert got_brute == brute_force_verify(spec, trace, 2, ground=ground_spec(spec, trace))
        kinds.add(type(got).__name__)
    assert kinds == {"Safe", "Violation"} and fewer > 0


@pytest.mark.parametrize("mode", ["exhaustive", "bounded:2"])
def test_verify_explores_the_reference_states_on_the_sliced_grounding(request, mode):
    cases = (fixture_cases(request) + seeded_cases()
             + pair_cases(request, range(1, 6), random.Random(4)))
    for spec, trace in cases:
        assert verify(spec, trace, mode=EXACT if mode == "exhaustive" else mode) == \
            reference_verify(spec, trace, mode=mode, ground=ground_spec(spec, trace, sliced=True))


def test_a_set_enabled_step_touches_no_more_rules_as_n_grows(spec_run):
    """On the plain-order pair trace, every setEnabled call and return
    visits the live rules plus the rules whose atoms include its letter;
    over the full grounding that grows with the listeners under forall."""

    def widest(n):
        trace = pair_trace(n)
        engine = AbstractEngine(ground_spec(spec_run, trace, sliced=True))
        letters = engine.intern(trace.messages)
        out = 0
        for event in engine.fold(engine.initial_state(), letters):
            if trace.messages[event.index].fun == "setEnabled":
                letter = letters[event.index]
                patched = sum(letter in rule.columns for rule in engine.rules)
                out = max(out, len(event.before.live) + patched)
        return out

    assert 0 < widest(32) <= widest(8)


def slow_grounding(monkeypatch, module, seconds):
    def slow(*args, **kwargs):
        time.sleep(seconds)
        return ground_spec(*args, **kwargs)

    monkeypatch.setattr(module, "ground_spec", slow)


class TestDeadlineFromEntry:
    """The timeout counts from entry, so time spent grounding spends it."""

    def test_validate(self, spec_run, trace_fixed, monkeypatch):
        slow_grounding(monkeypatch, validation, 0.2)
        with pytest.raises(LimitExceeded, match="^timeout while validating step 0$"):
            validate(spec_run, trace_fixed, timeout=0.1)

    def test_verify(self, spec_run, trace_fixed, monkeypatch):
        slow_grounding(monkeypatch, verification, 0.2)
        result = verify(spec_run, trace_fixed, timeout=0.1)
        assert isinstance(result, Unknown) and result.reason == "timeout while searching"

    def test_brute_force_verify(self, spec_run, trace_fixed, monkeypatch):
        slow_grounding(monkeypatch, reference_engine, 0.2)
        with pytest.raises(VerificationTimeout, match="after 0 sequences"):
            brute_force_verify(spec_run, trace_fixed, 2, timeout=0.1)


def test_dfa_cap_in_the_other_check_leaves_the_error_to_compilation(monkeypatch):
    """Past the DFA cap the OTHER* check keeps the rule's instances, and
    compiling the first of them raises the one-line GroundingError."""
    from lifeguard import dfa

    build = dfa.build_dfa
    monkeypatch.setattr(dfa, "build_dfa", lambda regex, n_letters, deadline=None:
                        build(regex, n_letters, 0, deadline))
    spec = parse_spec("eps ; TRUE -/> ci start(forall x:Widget)")
    trace = parse_trace("cb onShow(w#1:Widget)\nci start(w#1:Widget)\n"
                        "ciret unit = start(w#1:Widget)\ncbret unit = onShow(w#1:Widget)\n")
    assert ground_spec(spec, trace, sliced=True) == ground_spec(spec, trace)
    with pytest.raises(GroundingError, match=r"^spec rule #1, instance .*exceeded 0 states$"):
        validate(spec, trace)
