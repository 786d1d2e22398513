import gc
import random
import tracemalloc

import pytest

from lifeguard import abstract, grounding
from lifeguard.abstract import BAD, BLOCKED, OK, AbstractEngine
from lifeguard.grounding import ground_spec
from lifeguard.messages import (
    UNIT,
    Message,
    ObjectId,
)
from lifeguard.rules import PERMIT, parse_spec

from gen import random_spec, random_trace
from pairs import pair_trace
from reference_engine import consistent, fold_step, matches, update_back, update_in

A1 = ObjectId("a", 1, "Activity")
T1 = ObjectId("t", 1, "AsyncTask")
B1 = ObjectId("b", 1, "Button")
L1 = ObjectId("l", 1, "OnClickListener")


def stores(engine, state):
    """The permitted-back and prohibited-in stores of state as messages."""
    return frozenset(engine.decode(state.permitted)), frozenset(engine.decode(state.prohibited))


def firing_sets(engine, state):
    """Target bits of the permit rules and of the prohibit rules whose DFA
    accepts in state."""
    permits = prohibits = 0
    for rule in engine.fired_rules(state):
        if rule.is_permit():
            permits |= 1 << rule.letter
        else:
            prohibits |= 1 << rule.letter
    return permits, prohibits


def ci(name, *args):
    return Message("ci", name, tuple(args))


def cb(name, *args):
    return Message("cb", name, tuple(args))


def ciret(name, *args, ret=UNIT):
    return Message("ciret", name, tuple(args), ret)


CB_CLICK = cb("onClick", L1, B1)
CB_POST = cb("onPostExecute", T1)
CB_CREATE = cb("onCreate", A1)
CI_EXEC = ci("execute", T1)


@pytest.fixture(scope="module")
def engine_fixed(spec_run, trace_fixed):
    return AbstractEngine(ground_spec(spec_run, trace_fixed))


def advance_through(engine, state, messages):
    for m in messages:
        outcome, state = fold_step(engine, state, m)
        assert outcome == OK, f"unexpected {outcome} at {m}"
    return state


class TestStoreUpdates:
    def test_consistent(self):
        assert consistent(frozenset(), frozenset())
        assert consistent(frozenset({CB_POST}), frozenset({CI_EXEC}))
        assert not consistent(frozenset({CI_EXEC}), frozenset({CI_EXEC}))

    def test_update_back_frame(self):
        back = (CB_CREATE, CB_CLICK)
        mu = frozenset({CB_CREATE})
        out = update_back(mu, frozenset(), frozenset(), True, back)
        assert out == mu

    def test_update_back_permit_adds(self):
        back = (CB_POST,)
        out = update_back(frozenset(), frozenset({CB_POST}), frozenset(), True, back)
        assert CB_POST in out

    def test_update_back_inconsistent_empties(self):
        back = (CB_CREATE, CB_CLICK)
        out = update_back(frozenset(back), frozenset(), frozenset(), False, back)
        assert out == frozenset()

    def test_update_in_prohibit_adds(self):
        inn = (CI_EXEC,)
        out = update_in(frozenset(), frozenset(), frozenset({CI_EXEC}), True, inn)
        assert CI_EXEC in out

    def test_update_in_permit_reallows(self):
        inn = (CI_EXEC,)
        out = update_in(frozenset({CI_EXEC}), frozenset({CI_EXEC}), frozenset(), True, inn)
        assert CI_EXEC not in out

    def test_update_in_inconsistent_fills(self):
        inn = (CI_EXEC,)
        out = update_in(frozenset(), frozenset(), frozenset(), False, inn)
        assert out == frozenset(inn)


class TestBuild:
    def test_one_numbering_per_engine(self, monkeypatch, spec_run, trace_fixed):
        """An engine build numbers the alphabet once, and compiles its rules
        against that numbering."""
        calls = []
        letter_map = grounding.letter_map

        def counted(alphabet):
            calls.append(alphabet)
            return letter_map(alphabet)

        for module in (grounding, abstract):
            monkeypatch.setattr(module, "letter_map", counted)
        for trace in (trace_fixed, pair_trace(3)):
            calls.clear()
            engine = AbstractEngine(ground_spec(spec_run, trace))
            assert calls == [engine.alphabet]

    def test_what_the_engine_keeps_grows_linearly_in_the_trace(self, spec_run):
        """Each rule keeps its target letter, not a bitmask as wide as the
        alphabet, so doubling the pair trace at most about doubles what an
        engine build retains (with such a mask per rule it retained 3.1x
        as much)."""
        def retained(n):
            ground = ground_spec(spec_run, pair_trace(n), sliced=True)
            gc.collect()
            tracemalloc.start()
            try:
                engine = AbstractEngine(ground)
                gc.collect()
                size = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert engine.rules
            return size

        retained(2)  # the spec's plan keeps the DFAs the first build compiles
        assert retained(1024) / retained(512) <= 2.5

    def test_store_masks_are_the_alphabet_kinds(self, request):
        """back_mask holds exactly the back-messages of the alphabet and
        in_mask exactly its in-messages."""
        for spec in ("spec_run", "spec_lifecycle", "spec_top"):
            for trace in ("trace_fixed", "trace_buggy"):
                engine = AbstractEngine(ground_spec(request.getfixturevalue(spec),
                                                    request.getfixturevalue(trace)))
                assert engine.decode(engine.back_mask) == tuple(
                    m for m in engine.alphabet if m.kind in ("cb", "ciret"))
                assert engine.decode(engine.in_mask) == tuple(
                    m for m in engine.alphabet if m.kind in ("ci", "cbret"))


class TestInitialState:
    def test_fixed_initial_stores(self, engine_fixed):
        s = engine_fixed.initial_state()
        permitted, prohibited = stores(engine_fixed, s)
        assert CB_CREATE in permitted
        assert CB_CLICK not in permitted
        assert CB_POST not in permitted
        for m in engine_fixed.decode(engine_fixed.back_mask):
            if m.kind == "ciret":
                assert m in permitted
        assert prohibited == frozenset()

    def test_empty_spec_is_top_model(self, trace_fixed):
        engine = AbstractEngine(ground_spec(parse_spec(""), trace_fixed))
        s = engine.initial_state()
        assert stores(engine, s) == (frozenset(engine.decode(engine.back_mask)), frozenset())

    def test_eps_prohibit_in_message(self, trace_buggy):
        engine = AbstractEngine(ground_spec(parse_spec("eps -/> ci execute(t#1:AsyncTask)"),
                                            trace_buggy))
        s = engine.initial_state()
        assert CI_EXEC in stores(engine, s)[1]


class TestFiringSets:
    def test_initial_eps_rules_fire(self, engine_fixed):
        s = engine_fixed.initial_state()
        permits, prohibits = firing_sets(engine_fixed, s)
        assert {CB_CLICK, CB_POST}.issubset(engine_fixed.decode(prohibits))

    def test_after_execute(self, engine_fixed, trace_fixed):
        # history: Create unit, then the Click unit through ci execute
        idx = next(i for i, m in enumerate(trace_fixed.messages) if m == CI_EXEC)
        s = advance_through(engine_fixed, engine_fixed.initial_state(),
                            trace_fixed.messages[: idx + 1])
        permits, prohibits = firing_sets(engine_fixed, s)
        assert frozenset(engine_fixed.decode(permits)) == frozenset({CB_POST})
        assert frozenset(engine_fixed.decode(prohibits)) == frozenset({CI_EXEC})

    def test_after_set_enabled(self, engine_fixed, trace_fixed):
        idx = next(i for i, m in enumerate(trace_fixed.messages)
                   if m.fun == "setEnabled")
        s = advance_through(engine_fixed, engine_fixed.initial_state(),
                            trace_fixed.messages[: idx + 1])
        _, prohibits = firing_sets(engine_fixed, s)
        assert frozenset(engine_fixed.decode(prohibits)) == frozenset({CB_CLICK})


class TestAbsStep:
    def test_initial_click_blocked(self, engine_fixed):
        assert fold_step(engine_fixed, engine_fixed.initial_state(), CB_CLICK) == (BLOCKED, None)

    def test_double_execute_is_bad(self, spec_run, trace_buggy):
        engine = AbstractEngine(ground_spec(spec_run, trace_buggy))
        # Create unit + Click unit of the buggy trace, then a second click
        # reaching execute again.
        state = advance_through(engine, engine.initial_state(), trace_buggy.messages[:10])
        outcome, state = fold_step(engine, state, CB_CLICK)
        assert outcome == OK
        assert fold_step(engine, state, CI_EXEC) == (BAD, None)

    def test_other_messages_never_blocked(self, engine_fixed):
        s = engine_fixed.initial_state()
        stray_back = ciret("offworld", A1)
        stray_in = ci("offworld", A1)
        assert fold_step(engine_fixed, s, stray_back)[0] == OK
        assert fold_step(engine_fixed, s, stray_in)[0] == OK

    def test_frame_property(self, engine_fixed):
        # A message matched by no rule leaves both stores unchanged.
        s = engine_fixed.initial_state()
        nxt = fold_step(engine_fixed, s, CB_CREATE)[1]
        # onCreate is matched by the once-only rule; use an OTHER message
        stray = ci("offworld", A1)
        after = fold_step(engine_fixed, s, stray)[1]
        assert stores(engine_fixed, after) == stores(engine_fixed, s)

    def test_state_is_its_own_key(self, spec_run, spec_lifecycle, trace_fixed, trace_buggy):
        # The inconsistent flag joins the identity: it must be a function of
        # rule_states, and equal tuples must hash equal.
        inconsistent = parse_spec(
            "eps -> ci execute(t#1:AsyncTask)\n"
            "eps -/> ci execute(t#1:AsyncTask)\n"
        )
        for spec in (spec_run, spec_lifecycle, inconsistent):
            for trace in (trace_fixed, trace_buggy):
                engine = AbstractEngine(ground_spec(spec, trace))
                init = engine.initial_state()
                letters = engine.intern(trace.messages)
                states = [init] + [e.after for e in engine.fold(init, letters) if e.after]
                again = [init] + [e.after for e in engine.fold(init, letters) if e.after]
                for state, twin in zip(states, again, strict=True):
                    p, q = firing_sets(engine, state)
                    assert state.inconsistent == bool(p & q)
                    assert state == twin and hash(state) == hash(twin)
                    assert state == tuple(state) and hash(state) == hash(tuple(state))
                if spec is inconsistent:
                    assert init.inconsistent

    @pytest.mark.parametrize("n, bound", [(16, 4), (32, 8)])
    def test_a_step_touches_few_rules(self, spec_run, n, bound):
        # Structural, not timed: over the plain-order pair trace only a few
        # of the n**2-sized rule set are live, so a step that moves the
        # live rules alone costs what the letter and history touch.
        trace = pair_trace(n)
        engine = AbstractEngine(ground_spec(spec_run, trace))
        assert len(engine.rules) > 800
        init = engine.initial_state()
        live = [len(e.after.live) for e in engine.fold(init, engine.intern(trace.messages))]
        assert len(live) == len(trace.messages)
        assert sum(live) / len(live) < bound


# ---------------------------------------------------------------------------
# Incremental (DFA) versus from-scratch (full-history matching) equivalence


def scratch_outcomes(ground, messages):
    """Fold the store updates using matches() on the full history at every
    step: the defining semantics, with no DFA summarization."""
    back = [m for m in ground.alphabet if m.is_back()]
    inn = [m for m in ground.alphabet if m.is_in()]
    alphabet = set(ground.alphabet)

    def firing(history):
        permits, prohibits = set(), set()
        for r in ground.rules:
            if matches(history, {}, r.matcher):
                (permits if r.polarity == PERMIT else prohibits).add(r.target)
        return frozenset(permits), frozenset(prohibits)

    permits, prohibits = firing([])
    cons = consistent(permits, prohibits)
    mu = update_back(frozenset(back), permits, prohibits, cons, back)
    nu = update_in(frozenset(), permits, prohibits, cons, inn)
    outcomes = [("state", mu, nu)]
    history = []
    for m in messages:
        if m.is_back() and m in alphabet and m not in mu:
            outcomes.append(("blocked", m))
            return outcomes
        if m.is_in() and m in nu:
            outcomes.append(("bad", m))
            return outcomes
        history.append(m)
        permits, prohibits = firing(history)
        cons = consistent(permits, prohibits)
        mu = update_back(mu, permits, prohibits, cons, back)
        nu = update_in(nu, permits, prohibits, cons, inn)
        outcomes.append(("state", mu, nu))
    return outcomes


def engine_outcomes(engine, messages):
    state = engine.initial_state()
    outcomes = [("state", *stores(engine, state))]
    for m in messages:
        outcome, result = fold_step(engine, state, m)
        if outcome != OK:
            outcomes.append((outcome, m))
            return outcomes
        state = result
        outcomes.append(("state", *stores(engine, state)))
    return outcomes


class TestIncrementalEqualsFromScratch:
    def test_on_fixture_traces(self, spec_run, trace_fixed, trace_buggy):
        for trace in (trace_fixed, trace_buggy):
            ground = ground_spec(spec_run, trace)
            engine = AbstractEngine(ground)
            assert engine_outcomes(engine, trace.messages) == \
                scratch_outcomes(ground, trace.messages)

    def test_on_random_traces_and_specs(self, spec_run):
        rng = random.Random(2024)
        for i in range(200):
            trace = random_trace(rng, max_messages=20, max_objects=3)
            spec = random_spec(rng)
            ground = ground_spec(spec, trace)
            engine = AbstractEngine(ground)
            got = engine_outcomes(engine, trace.messages)
            expected = scratch_outcomes(ground, trace.messages)
            assert got == expected, f"iteration {i}"


class TestInconsistency:
    def test_simultaneous_permit_and_prohibit_collapses_stores(self, trace_buggy):
        from lifeguard.rules import parse_spec

        spec = parse_spec(
            "eps -> ci execute(t#1:AsyncTask)\n"
            "eps -/> ci execute(t#1:AsyncTask)\n"
        )
        engine = AbstractEngine(ground_spec(spec, trace_buggy))
        s = engine.initial_state()
        assert s.inconsistent
        assert stores(engine, s) == (frozenset(), frozenset(engine.decode(engine.in_mask)))

    def test_inconsistency_is_surfaced_not_fatal(self, trace_buggy):
        from lifeguard.rules import parse_spec
        from lifeguard.validation import validate

        spec = parse_spec(
            "eps -> ci execute(t#1:AsyncTask)\n"
            "eps -/> ci execute(t#1:AsyncTask)\n"
        )
        report = validate(spec, trace_buggy)
        assert 0 in report.inconsistency_steps
        # with every back-message unpermitted, the first cb blocks
        assert not report.valid and report.prefix_len == 0
