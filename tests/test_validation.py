import random


from lifeguard.messages import (
    Message,
    ObjectId,
    Trace,
)
from lifeguard.rules import parse_spec
from lifeguard.validation import validate

from gen import random_trace

T1 = ObjectId("t", 1, "AsyncTask")


def msg(kind, name, *args, ret=None):
    return Message(kind, name, tuple(args), ret)


class TestValidateFixtures:
    def test_spec_run_accepts_fixed(self, spec_run, trace_fixed):
        report = validate(spec_run, trace_fixed)
        assert report.valid
        assert report.prefix_len == len(trace_fixed)

    def test_missing_enable_rule_blocks_at_post_execute(self, spec_run_noenable, trace_fixed):
        report = validate(spec_run_noenable, trace_fixed)
        assert not report.valid
        assert report.blocking_message.fun == "onPostExecute"
        assert report.blocking_message.kind == "cb"
        # validated prefix covers exactly the Create and Click units
        assert report.prefix_len == 12
        assert report.blocking_permitted is not None
        assert report.blocking_prohibited is not None
        # blame points at the eps-rule that prohibited onPostExecute
        assert report.last_firing_rules == (4,)

    def test_empty_spec_accepts_any_dis_free_trace(self, trace_fixed, trace_buggy):
        top = parse_spec("")
        rng = random.Random(3)
        for trace in (trace_fixed, trace_buggy, *(random_trace(rng) for _ in range(20))):
            assert validate(top, trace).valid

    def test_spec_run_accepts_recorded_buggy_trace(self, spec_run, trace_buggy):
        assert validate(spec_run, trace_buggy).valid


class TestDisTerminatedTraces:
    def make_witness(self, trace_buggy):
        # Create unit + Click unit + second click reaching the dis.
        click_open = trace_buggy.messages[6]
        return Trace(trace_buggy.messages[:10] + (click_open,
                     msg("dis_ci", "execute", T1)))

    def test_predicted_violation_validates(self, spec_run, trace_buggy):
        witness = self.make_witness(trace_buggy)
        report = validate(spec_run, witness)
        assert report.valid
        assert report.prefix_len == len(witness)

    def test_missed_violation_reported(self, trace_buggy):
        witness = self.make_witness(trace_buggy)
        # A spec that never prohibits anything cannot predict the dis step.
        report = validate(parse_spec(""), witness)
        assert not report.valid
        assert report.reason is not None and "missed violation" in report.reason
        assert report.blocking_message.is_dis()

    def test_predicted_violation_mid_trace_invalidates(self, spec_run, trace_buggy):
        # If the model prohibits an in-message that the real execution
        # performed without dying, the model is wrong.
        double_exec = Trace(trace_buggy.messages[:9] + trace_buggy.messages[7:9]
                            + trace_buggy.messages[9:10])
        report = validate(spec_run, double_exec)
        assert not report.valid
        assert "prohibited" in report.reason


class TestPrefixMaximality:
    def test_prefix_is_largest_clean_fold(self, spec_run_noenable, trace_fixed):
        report = validate(spec_run_noenable, trace_fixed)
        k = report.prefix_len
        # every shorter prefix validates; the (k+1)-prefix does not
        for cut in range(k + 1):
            sub = Trace(trace_fixed.messages[:cut])
            assert validate(spec_run_noenable, sub).valid
        longer = Trace(trace_fixed.messages[: k + 1])
        assert not validate(spec_run_noenable, longer).valid

    def test_rule_deletion_not_monotone(self, spec_run, spec_run_noenable, trace_fixed):
        # Deleting a permit rule can invalidate a previously valid trace.
        assert validate(spec_run, trace_fixed).valid
        assert not validate(spec_run_noenable, trace_fixed).valid
        # Deleting a prohibit rule can validate a previously invalid trace.
        always_bad = parse_spec("eps -/> cb onCreate(forall a:Activity)")
        assert not validate(always_bad, trace_fixed).valid
        assert validate(parse_spec(""), trace_fixed).valid

    def test_filtered_count_at_most_raw(self, spec_run, trace_fixed):
        report = validate(spec_run, trace_fixed)
        assert 0 <= report.prefix_len_filtered <= report.prefix_len
        # six of the sixteen fixture messages occur in the rules
        assert report.prefix_len_filtered == 6
