import random
import time

import pytest

from lifeguard.messages import (
    UNIT,
    Message,
    ObjectId,
    Trace,
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
from reference_engine import VerificationTimeout, brute_force_verify, fold_step

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
        rng = random.Random(n)
        for order in (None, random_order(n, rng), random_order(n, rng)):
            result = verify(spec_run, pair_trace(n, order=order))
            assert isinstance(result, Safe)
            assert result.states_explored == result.certificate_size == 2 ** n + 1

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
        capped = verify(spec_run, pair_trace(3), state_cap=4)
        assert isinstance(capped, Unknown) and "state cap" in capped.reason
        assert (capped.depth_reached, capped.frontier) == (2, 2)

    def test_timeout_is_checked_before_every_unit_replay(self, spec_run, monkeypatch):
        # One state of the 16-pair trace has 33 units to replay; a deadline
        # checked only when a state is popped overran by whole expansions.
        trace = pair_trace(16)
        starts = []
        fold = AbstractEngine.fold

        def timed_fold(self, state, letters):
            starts.append(time.monotonic())
            return fold(self, state, letters)

        monkeypatch.setattr(AbstractEngine, "fold", timed_fold)
        begin = time.monotonic()
        result = verify(spec_run, trace, timeout=1)
        elapsed = time.monotonic() - begin
        assert isinstance(result, Unknown) and result.reason == "timeout"
        assert result.states_explored > 0 and result.depth_reached > 0
        assert result.frontier > 0
        # The deadline is begin + 1 or a few microseconds later: at most the
        # replay in flight and one started in that sliver may follow it.
        assert sum(t > begin + 1 for t in starts) <= 2
        assert elapsed < 1.5
