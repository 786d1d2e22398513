import random
import time

import pytest

from lifeguard.messages import (
    UNIT,
    Message,
    ObjectId,
    Trace,
    parse_trace,
)
from lifeguard.rules import parse_spec
from lifeguard.validation import validate
from lifeguard.verification import (
    Safe,
    SubTraceError,
    Unknown,
    Violation,
    split_subtraces,
    verify,
)
from lifeguard.abstract import BAD, BLOCKED, AbstractEngine
from lifeguard.grounding import ground_spec

from gen import random_spec, random_trace
from pairs import pair_trace, random_order
from reference_engine import (EXACT, VerificationTimeout, agrees_with_exact, brute_force_verify,
                              fold_step)

T1 = ObjectId("t", 1, "AsyncTask")


def msg(kind, name, *args, ret=None):
    return Message(kind, name, tuple(args), ret)


class TestSplitSubtraces:
    def test_fixed_fixture_units(self, trace_fixed):
        units = split_subtraces(trace_fixed)
        assert [len(u.messages) for u in units] == [6, 6, 4]
        names = [u.messages[0].fun for u in units]
        assert names == ["onCreate", "onClick", "onPostExecute"]

    def test_empty_trace(self):
        assert split_subtraces(Trace(())) == []

    def test_single_pair(self):
        t = Trace((msg("cb", "onShow", T1), msg("cbret", "onShow", T1, ret=UNIT)))
        units = split_subtraces(t)
        assert len(units) == 1 and len(units[0].messages) == 2

    def test_unit_boundaries_are_well_nested(self, trace_buggy):
        for u in split_subtraces(trace_buggy):
            first, last = u.messages[0], u.messages[-1]
            assert first.kind == "cb"
            assert last.kind == "cbret"
            assert (first.fun, first.args) == (last.fun, last.args)

    def test_truncated_unit_rejected(self, trace_fixed):
        with pytest.raises(SubTraceError, match="ends inside"):
            split_subtraces(Trace(trace_fixed.messages[:-1]))

    def test_dis_trace_rejected(self):
        t = Trace((msg("cb", "onShow", T1), msg("dis_ci", "execute", T1)))
        with pytest.raises(SubTraceError):
            split_subtraces(t)


class TestVerifyFixtures:
    def test_buggy_trace_yields_create_click_click(self, spec_run, trace_buggy):
        result = verify(spec_run, trace_buggy, mode="exhaustive")
        assert isinstance(result, Violation)
        assert result.subtrace_sequence == (0, 1, 1)
        assert str(result.witness.messages[-1]) == "dis ci execute(t#1:AsyncTask)"

    def test_fixed_trace_is_safe(self, spec_run, trace_fixed):
        result = verify(spec_run, trace_fixed, mode="exhaustive")
        assert isinstance(result, Safe)
        assert result.certificate_size >= 1

    def test_lifecycle_model_false_alarm(self, spec_lifecycle, trace_fixed):
        result = verify(spec_lifecycle, trace_fixed, mode="exhaustive")
        assert isinstance(result, Violation)

    def test_top_model_false_alarm(self, spec_top, trace_fixed):
        result = verify(spec_top, trace_fixed, mode="exhaustive")
        assert isinstance(result, Violation)
        assert result.subtrace_sequence == (1, 1)

    def test_dis_input_short_circuits(self, spec_run):
        t = Trace((msg("cb", "onClick", T1), msg("dis_ci", "execute", T1)))
        result = verify(spec_run, t)
        assert isinstance(result, Violation)
        assert result.witness == t

    def test_witnesses_replay_to_bad(self, spec_run, spec_lifecycle, spec_top,
                                     trace_buggy, trace_fixed):
        for spec, trace in ((spec_run, trace_buggy),
                            (spec_lifecycle, trace_fixed),
                            (spec_top, trace_fixed)):
            result = verify(spec, trace)
            assert isinstance(result, Violation)
            report = validate(spec, result.witness)
            assert report.valid, "witness must replay to the bad state"

    def test_bounded_mode(self, spec_run, trace_buggy, trace_fixed):
        assert isinstance(verify(spec_run, trace_buggy, mode="bounded:3"), Violation)
        shallow = verify(spec_run, trace_buggy, mode="bounded:2")
        assert isinstance(shallow, Unknown) and shallow.bound_hit
        # the fixed trace closes its state space within a small bound
        assert isinstance(verify(spec_run, trace_fixed, mode="bounded:8"), Safe)

    def test_state_cap_returns_unknown(self, spec_lifecycle, trace_fixed):
        result = verify(spec_lifecycle, trace_fixed, state_cap=1)
        assert isinstance(result, (Violation, Unknown))

    def test_never_permitted_units_reported(self, trace_fixed):
        # A model that never enables onPostExecute cannot open that unit.
        spec = parse_spec(
            "eps -/> cb onPostExecute(forall t:AsyncTask)\n"
            "TRUE* ; cb onCreate(a:Activity) -/> cb onCreate(a)\n"
        )
        result = verify(spec, trace_fixed)
        assert isinstance(result, Safe)
        assert 2 in result.unreachable_units


class TestPairFamily:
    """The pair family's state space: the abstract state after any set of
    clicks and completions is determined by which pairs are done, so a
    Safe trace of n pairs has 2**n + 1 states whatever the recorded
    order, and no state may be merged or split."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_safe_state_counts(self, spec_run, n):
        # A fact about exact BFS, which bounded mode runs.
        rng = random.Random(n)
        for order in (None, random_order(n, rng), random_order(n, rng)):
            result = verify(spec_run, pair_trace(n, order=order), mode=EXACT)
            assert isinstance(result, Safe)
            assert result.states_explored == result.certificate_size == 2 ** n + 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reduced_safe_state_counts(self, spec_run, n):
        # The reduced search clicks the pairs in one order: the initial
        # state, onCreate, then one state per click.
        rng = random.Random(n)
        for order in (None, random_order(n, rng), random_order(n, rng)):
            result = verify(spec_run, pair_trace(n, order=order))
            assert isinstance(result, Safe)
            assert result.states_explored == result.certificate_size == n + 2
            assert result.replays <= 2 * (2 * n + 1)

    @pytest.mark.parametrize("n, skip, explored", [(4, 2, 4), (6, 3, 5)])
    def test_one_skip_witness(self, spec_run, n, skip, explored):
        # Create, click the skipping pair, click it again: its second
        # execute is prohibited.
        trace = pair_trace(n, frozenset({skip}))
        result = verify(spec_run, trace)
        assert isinstance(result, Violation)
        assert result.subtrace_sequence == (0, skip, skip)
        assert result.states_explored == explored
        units = split_subtraces(trace)
        create, click = units[0].messages, units[skip].messages
        assert result.witness == Trace(create + click + (click[0], click[1].wrap_dis()))


class TestBruteForceOracle:
    def test_golden_buggy_sequence(self, spec_run, trace_buggy):
        result = brute_force_verify(spec_run, trace_buggy, 3)
        assert isinstance(result, Violation)
        assert result.subtrace_sequence == (0, 1, 1)
        assert str(result.witness.messages[-1]) == "dis ci execute(t#1:AsyncTask)"

    def test_fixed_no_violation_within_depth_four(self, spec_run, trace_fixed):
        result = brute_force_verify(spec_run, trace_fixed, 4)
        assert isinstance(result, Unknown)

    def test_empty_spec_never_violates(self, trace_buggy):
        result = brute_force_verify(parse_spec(""), trace_buggy, 1)
        assert isinstance(result, Unknown)

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_agreement_on_fixtures(self, k, spec_run, spec_lifecycle, spec_top,
                                   trace_fixed, trace_buggy):
        for spec in (spec_run, spec_lifecycle, spec_top):
            for trace in (trace_fixed, trace_buggy):
                bounded = verify(spec, trace, mode=f"bounded:{k}")
                brute = brute_force_verify(spec, trace, k)
                assert isinstance(bounded, Violation) == isinstance(brute, Violation), \
                    (k, spec.rules[0], len(trace.messages))
                if isinstance(bounded, Violation):
                    assert validate(spec, bounded.witness).valid
                    assert validate(spec, brute.witness).valid

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_skip_pair_witness(self, spec_run, n):
        # Every pair in turn skips its disable: the witness creates, then
        # clicks that pair twice, exactly as verify finds it.
        for skip in range(1, n + 1):
            trace = pair_trace(n, frozenset({skip}))
            result = brute_force_verify(spec_run, trace, 3)
            assert isinstance(result, Violation)
            assert result.subtrace_sequence == (0, skip, skip)
            assert result.witness == verify(spec_run, trace).witness
            assert validate(spec_run, result.witness).valid

    def test_catches_an_engine_mutant_that_verify_shares(self, spec_run, monkeypatch):
        # An advance that ignores the letter's patches moves only the live
        # rules, by OTHER: verify folds through it and misses the second
        # execute of the skipping pair.  brute_force_verify steps the
        # frozenset reference engine, so it still finds the violation.
        advance = AbstractEngine.advance

        def ignore_patches(self, state, letter):
            patches, self._patches = self._patches, {}
            try:
                return advance(self, state, letter)
            finally:
                self._patches = patches

        monkeypatch.setattr(AbstractEngine, "advance", ignore_patches)
        trace = pair_trace(2, frozenset({2}))
        assert isinstance(verify(spec_run, trace), Safe)
        result = brute_force_verify(spec_run, trace, 3)
        assert isinstance(result, Violation)
        assert result.subtrace_sequence == (0, 2, 2)

    def test_agreement_on_random_pairs(self):
        rng = random.Random(99)
        checked = 0
        for i in range(50):
            trace = random_trace(rng, max_messages=14)
            spec = random_spec(rng)
            for k in (2, 3):
                bounded = verify(spec, trace, mode=f"bounded:{k}")
                brute = brute_force_verify(spec, trace, k)
                assert isinstance(bounded, Violation) == isinstance(brute, Violation), i
                if isinstance(bounded, Violation):
                    assert validate(spec, bounded.witness).valid
                    checked += 1
        assert checked > 0  # the generator does produce violating pairs


class TestSafeSoundness:
    def test_random_repetition_sampling(self, spec_run, trace_fixed):
        # Safe means no repetition sequence reaches bad: sample widely.
        units = split_subtraces(trace_fixed)
        engine = AbstractEngine(ground_spec(spec_run, trace_fixed))
        rng = random.Random(7)
        assert isinstance(verify(spec_run, trace_fixed), Safe)
        for _ in range(10000):
            state = engine.initial_state()
            for _ in range(rng.randint(1, 8)):
                unit = units[rng.randrange(len(units))]
                stop = False
                for m in unit.messages:
                    outcome, result = fold_step(engine, state, m)
                    assert outcome != BAD, "Safe verdict refuted"
                    if outcome == BLOCKED:
                        stop = True
                        break
                    state = result
                if stop:
                    break

    def test_pruned_branches_are_outside_the_model(self, spec_run, trace_fixed):
        # A blocked opening callback corresponds to a word the abstract
        # system has no transition for; check the gate agrees with the
        # permitted store.
        units = split_subtraces(trace_fixed)
        engine = AbstractEngine(ground_spec(spec_run, trace_fixed))
        state = engine.initial_state()
        post = units[2]
        assert post.messages[0] not in engine.decode(state.permitted)
        assert fold_step(engine, state, post.messages[0])[0] == BLOCKED


class TestCapsAndTimeouts:
    def test_verify_timeout_returns_unknown(self, spec_run, trace_fixed):
        result = verify(spec_run, trace_fixed, timeout=0.0)
        assert isinstance(result, Unknown)
        assert "timeout" in result.reason

    def test_brute_force_timeout_raises(self, spec_run, trace_fixed):
        # A deadline that has already passed stops the enumeration before
        # its first sequence.
        with pytest.raises(VerificationTimeout, match="after 0 sequences"):
            brute_force_verify(spec_run, trace_fixed, 2, timeout=-1)

    def test_unknown_says_how_far_it_got(self, spec_run, trace_buggy):
        result = verify(spec_run, trace_buggy, mode="bounded:2")
        assert isinstance(result, Unknown) and result.bound_hit
        assert (result.depth_reached, result.frontier) == (2, 0)
        # initial, after onCreate, after the first and second clicks: the
        # third click exceeds the cap with two clicked states queued
        capped = verify(spec_run, pair_trace(3), mode=EXACT, state_cap=4)
        assert isinstance(capped, Unknown) and "state cap" in capped.reason
        assert (capped.depth_reached, capped.frontier) == (2, 2)
        # The reduced search reaches the fourth state one click deeper,
        # with nothing else queued, and stops at the fifth.
        capped = verify(spec_run, pair_trace(3), state_cap=4)
        assert isinstance(capped, Unknown) and "state cap" in capped.reason
        assert (capped.states_explored, capped.depth_reached, capped.frontier) == (4, 3, 0)

    @pytest.mark.parametrize("mode, delay", [(EXACT, 0), ("exhaustive", 0.05)])
    def test_timeout_is_checked_before_every_unit_replay(self, spec_run, monkeypatch,
                                                         mode, delay):
        # One state of the 16-pair trace has 33 units to replay; a deadline
        # checked only when a state is popped overran by whole expansions.
        # Exact BFS, which bounded mode runs, needs 2**16 + 1 states here;
        # the reduced search needs 33 replays, each slowed by delay.
        trace = pair_trace(16)
        starts = []
        fold = AbstractEngine.fold

        def timed_fold(self, state, letters):
            starts.append(time.monotonic())
            time.sleep(delay)
            return fold(self, state, letters)

        monkeypatch.setattr(AbstractEngine, "fold", timed_fold)
        begin = time.monotonic()
        result = verify(spec_run, trace, mode=mode, timeout=1)
        elapsed = time.monotonic() - begin
        assert isinstance(result, Unknown) and result.reason == "timeout"
        assert result.states_explored > 0 and result.depth_reached > 0
        # Exact BFS leaves states queued; the reduced search is one chain.
        assert (result.frontier > 0) == (mode == EXACT)
        # The deadline is begin + 1 or a few microseconds later: at most the
        # replay in flight and one started in that sliver may follow it.
        assert sum(t > begin + 1 for t in starts) <= 2
        assert elapsed < 1.5


class TestReducedSearch:
    """Exhaustive verify searches a stubborn-set reduction of the unit
    graph; exact BFS (bounded mode) and brute force are its oracles."""

    # onZ opens onT, onU, onV, onA and onC, once; the states after it are
    # settled, so the search from there is reduced.
    GATE = ([f"eps -/> cb {cb}(forall w:Widget)" for cb in ("onT", "onU", "onV", "onA", "onC")]
            + [f"TRUE* ; cb onZ(w:Widget) -> cb {cb}(w)"
               for cb in ("onT", "onU", "onV", "onA", "onC")]
            + ["TRUE* ; cb onZ(w:Widget) -/> cb onZ(w)"])

    def test_agrees_with_exact_bfs_and_brute_force(self, request, fixtures_dir):
        specs = [request.getfixturevalue(path.stem) for path in sorted(fixtures_dir.glob("*.ls"))]
        traces = [request.getfixturevalue(name) for name in ("trace_fixed", "trace_buggy")]
        cases = [(spec, trace, 4) for spec in specs for trace in traces]
        rng = random.Random(15)
        for n in range(1, 11):
            for skips in (0, 1, 2):
                skip = frozenset(rng.sample(range(1, n + 1), min(skips, n)))
                trace = pair_trace(n, skip, random_order(n, rng))
                cases += [(spec, trace, 3 if n <= 3 else 0) for spec in specs]
        cases += [(random_spec(rng), random_trace(rng, max_messages=16), 3) for _ in range(300)]
        fewer, kinds = 0, set()
        for spec, trace, depth in cases:
            result, exact = verify(spec, trace), verify(spec, trace, mode=EXACT)
            assert agrees_with_exact(result, exact)
            fewer += result.states_explored < exact.states_explored
            kinds.add(type(result).__name__)
            if depth:
                brute = brute_force_verify(spec, trace, depth)
                found = isinstance(result, Violation) and len(result.subtrace_sequence) <= depth
                assert isinstance(brute, Violation) == found
        assert kinds == {"Safe", "Violation"} and fewer > 20

    @pytest.mark.parametrize("n, seconds", [(16, 0.5), (64, 2.0)])
    def test_safe_scales_linearly(self, spec_run, n, seconds):
        begin = time.monotonic()
        result = verify(spec_run, pair_trace(n))
        assert time.monotonic() - begin < seconds
        assert isinstance(result, Safe) and result.states_explored <= 2 * n + 2

    def test_one_skip_witness_at_n24(self, spec_run):
        result = verify(spec_run, pair_trace(24, frozenset({13})))
        assert isinstance(result, Violation) and result.subtrace_sequence == (0, 13, 13)
        assert result.states_explored == 15  # exact BFS up to the 13th click

    def test_since_until_variant_matches_spec_run(self, spec_run, spec_run_until):
        # Rule (4) as since/until keeps a steady rule live between units
        # while a pair's clicks are enabled; the verdicts, witnesses and
        # unit sequences are those of the suffix-trigger spec.
        rng = random.Random(8)
        for n in range(1, 9):
            for skips in (0, 1, 2):
                skip = frozenset(rng.sample(range(1, n + 1), min(skips, n)))
                trace = pair_trace(n, skip, random_order(n, rng))
                want, got = verify(spec_run, trace), verify(spec_run_until, trace)
                assert type(got) is type(want)
                if isinstance(want, Violation):
                    assert (got.witness, got.subtrace_sequence) == \
                        (want.witness, want.subtrace_sequence)
                else:
                    assert got.states_explored == want.states_explored == n + 2
        engine = AbstractEngine(ground_spec(spec_run_until, pair_trace(2), sliced=True))
        *_, created = engine.fold(engine.initial_state(),
                                  engine.intern(split_subtraces(pair_trace(2))[0].messages))
        # After onCreate both pairs' rule (4) instances are steady.
        assert engine.settled(created.after) and len(created.after.live) == 2

    @pytest.mark.parametrize("units, rules, sequence", [
        # onV locks out onA, whose unit runs at most once and calls back onB
        # inside run, where an eps prohibit blocks it until enable: the
        # stubborn set from onV holds the onA unit, blocked, and must add
        # the units that write onB.
        ([("onZ", "init"), ("onV", "lock"), ("onA", "run/onB"), ("onC", "enable")],
         GATE + ["eps -/> cb onB(forall w:Widget)", "TRUE* ; ci enable(w:Widget) -> cb onB(w)",
                 "TRUE* ; ci lock(w:Widget) -/> cb onA(w)",
                 "TRUE* ; ci run(w:Widget) -/> ci run(w)"], (0, 3, 2, 2)),
        # The same with onB blocked by a prohibit that run fires inside the
        # unit until disarm: the writer of that prohibit unblocks it.
        ([("onZ", "init"), ("onV", "lock"), ("onA", "run/onB"), ("onC", "disarm")],
         GATE + ["!(TRUE* ; ci disarm(w:Widget) ; TRUE*) ; ci run(w) -/> cb onB(w)",
                 "TRUE* ; ci lock(w:Widget) -/> cb onA(w)",
                 "TRUE* ; ci run(w:Widget) -/> ci run(w)"], (0, 3, 2, 2)),
        # perm re-permits onW, a fold back to its own state until forbid
        # prohibits onW and boom; lock, the first unit, locks perm out.
        ([("onT", "lock"), ("onA", "perm"), ("onE", "forbid"), ("onW", "boom")],
         ["TRUE* ; ci lock(w:Widget) -/> cb onA(w)", "TRUE* ; ci perm(w:Widget) -> cb onW(w)",
          "TRUE* ; ci forbid(w:Widget) -/> cb onW(w)",
          "TRUE* ; ci forbid(w:Widget) -/> ci boom(w)"], (2, 1, 3)),
        # onT permits onW once and onU prohibits it and boom: the two write
        # onW opposite ways, and only onU before onT reaches boom.
        ([("onZ", "init"), ("onT", "perm"), ("onU", "forbid"), ("onW", "boom")],
         GATE + ["eps -/> cb onW(forall w:Widget)", "TRUE* ; cb onT(w:Widget) -/> cb onT(w)",
                 "TRUE* ; ci perm(w:Widget) -> cb onW(w)",
                 "TRUE* ; ci forbid(w:Widget) -/> cb onW(w)",
                 "TRUE* ; ci forbid(w:Widget) -/> ci boom(w)"], (0, 2, 1, 3)),
        # onT and onU move one rule, which prohibits boom only after a and
        # then b; onT, once only, also permits onR.
        ([("onZ", "init"), ("onT", "b"), ("onU", "a"), ("onR", "boom")],
         GATE + ["eps -/> cb onR(forall w:Widget)", "TRUE* ; cb onT(w:Widget) -/> cb onT(w)",
                 "TRUE* ; ci b(w:Widget) -> cb onR(w)",
                 "TRUE* ; ci a(w:Widget) ; TRUE* ; ci b(w) -/> ci boom(w)"], (0, 2, 1, 3)),
        # set and unset toggle onF between two states; onB, never in their
        # stubborn sets, is bad after onZ and must not be ignored on the cycle.
        ([("onZ", "init"), ("onT", "set"), ("onU", "unset"), ("onB", "boom")],
         GATE + ["eps -/> cb onF(forall w:Widget)", "TRUE* ; cb onZ(w:Widget) -/> ci boom(w)",
                 "TRUE* ; ci set(w:Widget) -> cb onF(w)",
                 "TRUE* ; ci unset(w:Widget) -/> cb onF(w)"], (0, 3)),
        # onU prohibits go, which onT calls once: onT reads what onU writes.
        ([("onZ", "init"), ("onT", "go"), ("onU", "forbid")],
         GATE + ["TRUE* ; cb onT(w:Widget) -/> cb onT(w)",
                 "TRUE* ; ci forbid(w:Widget) -/> ci go(w)"], (0, 2, 1)),
        # onB moves no rule, so it never leaves a state, but after onZ it is
        # the one unit left and its fold is bad.
        ([("onZ", "init"), ("onB", "boom")],
         GATE + ["TRUE* ; cb onZ(w:Widget) -/> ci boom(w)"], (0, 1)),
        # The first letter of any unit ends the history that is just onA, so
        # at the initial state onB, which moves no rule, still kills the
        # permit that lets go pass.
        ([("onA", "go"), ("onB", "nop")],
         ["eps -/> ci go(forall w:Widget)", "cb onA(w:Widget) -> ci go(w)"], (1, 0)),
        # onT, never opened for x, is blocked at x; onE prohibits z, which
        # onT calls back before y, and onA prohibits y.  The stubborn set
        # from onE holds onT, blocked at x, and must add onA, which writes
        # a letter onT reads before it: onA then onT is bad at y.
        ([("onZ", "init"), ("onT", "pre/z", "y", "post/x"), ("onE", "ez"), ("onA", "ay")],
         GATE + ["eps -/> cb x(forall w:Widget)", "TRUE* ; ci ez(w:Widget) -/> cb z(w)",
                 "TRUE* ; ci ay(w:Widget) -/> ci y(w)"], (0, 3, 1)),
    ], ids=["blocked-permit", "blocked-prohibit", "own-state", "write-write", "one-rule",
            "cycle", "read-write", "unmoved-bad", "unsettled", "blocked-read"])
    def test_each_dependence_keeps_the_violation(self, units, rules, sequence):
        # A unit is its callback and its calls in order; "run/onB" is a
        # call to run that calls back onB.
        w = "(w#1:Widget)"
        lines = []
        for cb, *calls in units:
            lines.append(f"cb {cb}{w}")
            for call, *inner in (call.split("/") for call in calls):
                lines += [f"ci {call}{w}",
                          *(f"{kind} {cb}{w}" for cb in inner for kind in ("cb", "cbret unit =")),
                          f"ciret unit = {call}{w}"]
            lines.append(f"cbret unit = {cb}{w}")
        trace, spec = parse_trace("\n".join(lines) + "\n"), parse_spec("\n".join(rules) + "\n")
        result = verify(spec, trace)
        assert isinstance(result, Violation) and result.subtrace_sequence == sequence
        assert result == verify(spec, trace, mode=EXACT)

    @pytest.mark.parametrize("rules, footprint", [
        # Only onX, the target, is outside the letters the unit reads.
        (["TRUE* ; ci a(w:Widget) -> cb onX(w)"], True),
        # Fired both ways at one step: the step is inconsistent.
        (["TRUE* ; ci a(w:Widget) -> cb onX(w)", "TRUE* ; ci a(w:Widget) -/> cb onX(w)"], False),
        # Fired one way while a steady rule fires the other.
        (["TRUE* ; ci a(w:Widget) -> cb onX(w)", "!(TRUE* ; ci b(w:Widget) ; TRUE*) -/> cb onX(w)"],
         False),
        # Left accepting at the unit's end, so the next letter moves it.
        (["TRUE* ; cbret unit = onC(w:Widget) -> cb onX(w)"], False),
    ])
    def test_footprint(self, rules, footprint):
        w = "(w#1:Widget)"
        trace = parse_trace(f"cb onC{w}\nci a{w}\nciret unit = a{w}\ncbret unit = onC{w}\n"
                            f"cb onX{w}\ncbret unit = onX{w}\n")
        spec = parse_spec("\n".join(rules) + "\n")
        engine = AbstractEngine(ground_spec(spec, trace, sliced=True))
        unit, other = split_subtraces(trace)
        got = engine.footprint(engine.intern(unit.messages))
        assert (got is not None) == footprint
        if footprint:
            moved, reads, permits, prohibits = got
            assert moved == 1 and prohibits == 0
            assert engine.decode(permits) == other.messages[:1]
            assert set(engine.decode(reads)) == set(unit.messages)
        assert agrees_with_exact(verify(spec, trace), verify(spec, trace, mode=EXACT))

    def test_only_settled_states_are_reduced(self, spec_run):
        # The eps rules start accepting and move on the first letter.
        engine = AbstractEngine(ground_spec(spec_run, pair_trace(2), sliced=True))
        init = engine.initial_state()
        *_, created = engine.fold(init, engine.intern(split_subtraces(pair_trace(2))[0].messages))
        assert not engine.settled(init) and engine.settled(created.after)

    def test_exact_rerun_reuses_the_reduced_folds(self, spec_run, monkeypatch):
        # Every (state, unit) pair is folded once across both passes.
        folds = []
        fold = AbstractEngine.fold

        def counted(self, state, letters):
            folds.append((state, letters))
            return fold(self, state, letters)

        monkeypatch.setattr(AbstractEngine, "fold", counted)
        result = verify(spec_run, pair_trace(8, frozenset({5, 6})))
        assert isinstance(result, Violation) and result.subtrace_sequence == (0, 5, 5)
        assert len(folds) == len(set(folds)) == result.replays

    def test_capped_exact_rerun_keeps_the_reduced_violation(self, spec_run):
        # The reduced search reaches its violation within 7 states; the exact
        # re-run discovers more before reaching its own, so the reduced
        # witness, real but longer, is returned.
        trace = pair_trace(8, frozenset({5, 6}))
        result = verify(spec_run, trace, state_cap=7)
        assert isinstance(result, Violation) and result.states_explored == 7
        assert result.subtrace_sequence == (0, 1, 2, 3, 4, 5, 5)
        assert validate(spec_run, result.witness).valid
        assert verify(spec_run, trace).subtrace_sequence == (0, 5, 5)
