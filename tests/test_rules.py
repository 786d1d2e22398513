import random

import pytest

from lifeguard.messages import (
    APP,
    FALSE,
    FWK,
    UNIT,
    FunctionSymbol,
    Message,
    ObjectId,
    Thunk,
)
from lifeguard.rules import (
    BindingTypeError,
    LifestateSpec,
    MAny,
    MAtom,
    MConcat,
    MEps,
    MIntersect,
    MNegate,
    MStar,
    MUnion,
    PERMIT,
    PLit,
    PROHIBIT,
    ParamMessage,
    SVar,
    SpecError,
    apply_binding,
    free_vars,
    matches,
    parse_rule,
    parse_spec,
)

from gen import random_trace

T1 = ObjectId("t", 1, "AsyncTask")
B1 = ObjectId("b", 1, "Button")
L1 = ObjectId("l", 1, "OnClickListener")


def ci(name, *args):
    return Message("ci", Thunk(FunctionSymbol(name, FWK), tuple(args)))


def cb(name, *args):
    return Message("cb", Thunk(FunctionSymbol(name, APP), tuple(args)))


class TestParseSpec:
    def test_self_disallow_rule(self):
        rule = parse_rule("TRUE* ; ci execute(t:AsyncTask) -/> ci execute(t)")
        assert rule.polarity == PROHIBIT
        assert free_vars(rule) == {"t"}
        assert isinstance(rule.matcher, MConcat)
        assert isinstance(rule.matcher.left, MStar)

    def test_forall_target_rule(self):
        rule = parse_rule(
            "TRUE* ; ci setEnabled(b:Button, false) -/> cb onClick(forall l:OnClickListener, b)"
        )
        assert rule.polarity == PROHIBIT
        assert free_vars(rule) == {"b", "l"}
        l_param = rule.target.args[0]
        assert isinstance(l_param, SVar) and l_param.universal

    def test_undeclared_target_variable_is_scoping_error(self):
        with pytest.raises(SpecError, match="forall"):
            parse_rule("eps -> cb onCreate(a:Activity)")

    def test_forall_rejected_in_matcher(self):
        with pytest.raises(SpecError):
            parse_rule("TRUE* ; ci f(forall x:Task) -> ci g(x)")

    def test_conflicting_annotations(self):
        with pytest.raises(SpecError, match="annotated"):
            parse_rule("TRUE* ; ci f(t:Task) ; ci g(t:Widget) -> ci h(t)")

    def test_fixture_spec_counts(self, spec_run, spec_lifecycle, spec_top):
        assert len(spec_run.rules) == 7
        assert len(spec_lifecycle.rules) == 6
        assert len(spec_top.rules) == 1

    def test_operators_parse(self):
        rule = parse_rule("!(eps + TRUE) & TRUE* -> cb onShow(forall x:Widget)")
        assert isinstance(rule.matcher, MIntersect)
        assert isinstance(rule.matcher.left, MNegate)

    def test_spec_roundtrip_through_str(self, spec_run):
        again = parse_spec(str(spec_run))
        assert again == spec_run

    def test_hash_inside_a_string_is_not_a_comment(self):
        spec = parse_spec('TRUE* ; ci f("a #b") -> ci g("#") # a comment')
        assert str(spec) == 'TRUE* ; ci f("a #b") -> ci g("#")'

    def test_bad_string_escape_is_a_spec_error(self):
        with pytest.raises(SpecError):
            parse_spec('TRUE* ; ci f("a\\t") -> ci g()')
        # \n is the one escape besides \" and \\
        rule = parse_spec('TRUE* ; ci f("a\\n") -> ci g()').rules[0]
        assert "\n" not in str(rule) and '"a\\n"' in str(rule)


class TestApplyBinding:
    def test_identity_on_ground(self):
        pm = ParamMessage("ci", "execute", (PLit(T1),))
        assert apply_binding({}, pm) == pm

    def test_single_substitution(self):
        pm = ParamMessage("ci", "execute", (SVar("t", "AsyncTask"),))
        out = apply_binding({"t": T1}, pm)
        assert out == ParamMessage("ci", "execute", (PLit(T1),))
        assert out.is_ground()

    def test_partial_substitution_keeps_symbols(self):
        pm = ParamMessage("cb", "onClick", (SVar("l"), SVar("b")))
        out = apply_binding({"b": B1}, pm)
        assert out.args[0] == SVar("l")
        assert out.args[1] == PLit(B1)
        assert not out.is_ground()

    def test_idempotent_for_total_bindings(self):
        pm = ParamMessage("cb", "onClick", (SVar("l"), SVar("b")))
        binding = {"l": L1, "b": B1}
        once = apply_binding(binding, pm)
        assert apply_binding(binding, once) == once

    def test_type_mismatch(self):
        pm = ParamMessage("ci", "execute", (SVar("t", "AsyncTask"),))
        with pytest.raises(BindingTypeError):
            apply_binding({"t": B1}, pm)


class TestMatches:
    EXEC_T = MConcat(MStar(MAny()), MAtom(ParamMessage("ci", "execute", (SVar("t", "AsyncTask"),))))

    def test_eps_on_empty(self):
        assert matches([], {}, MEps())
        assert not matches([ci("execute", T1)], {}, MEps())

    def test_suffix_trigger_on_buggy_prefix(self, trace_buggy):
        # Prefix of the recorded buggy trace ending at the first execute.
        idx = next(i for i, m in enumerate(trace_buggy.messages)
                   if m.thunk.fun.name == "execute")
        prefix = trace_buggy.messages[: idx + 1]
        assert matches(prefix, {"t": T1}, self.EXEC_T)

    def test_full_fixed_trace_does_not_end_with_execute(self, trace_fixed):
        assert not matches(trace_fixed, {"t": T1}, self.EXEC_T)

    def test_unbound_atom_matches_nothing(self):
        assert not matches([ci("execute", T1)], {}, self.EXEC_T)

    def test_any_is_single_message(self):
        assert matches([ci("f")], {}, MAny())
        assert not matches([], {}, MAny())
        assert not matches([ci("f"), ci("g")], {}, MAny())

    def test_intersection_and_negation(self):
        w = [ci("f"), ci("g")]
        two = MConcat(MAny(), MAny())
        not_two = MNegate(two)
        assert matches(w, {}, two)
        assert not matches(w, {}, not_two)
        assert matches(w, {}, MIntersect(two, MStar(MAny())))

    def test_de_morgan_on_random_traces(self):
        rng = random.Random(13)
        r1 = MConcat(MStar(MAny()), MAtom(ParamMessage("ci", "start", (SVar("x", "Widget"),))))
        r2 = MEps()
        lhs = MNegate(MUnion(r1, r2))
        rhs = MIntersect(MNegate(r1), MNegate(r2))
        for _ in range(60):
            t = random_trace(rng, max_messages=12)
            w1 = ObjectId("w", 1, "Widget")
            binding = {"x": w1}
            assert matches(t, binding, lhs) == matches(t, binding, rhs)

    def test_star_of_nullable_terminates(self):
        m = MStar(MUnion(MEps(), MAny()))
        assert matches([ci("f"), ci("g"), ci("h")], {}, m)
        assert matches([], {}, m)


class TestFreeVars:
    def test_self_rule(self):
        rule = parse_rule("TRUE* ; ci execute(t:AsyncTask) -/> ci execute(t)")
        assert free_vars(rule) == {"t"}

    def test_set_enabled_rule(self, spec_run):
        rule = spec_run.rules[2]
        assert free_vars(rule) == {"b", "l"}

    def test_ground_rule(self):
        rule = parse_rule("eps -/> ci execute(t#1:AsyncTask)")
        assert free_vars(rule) == set()


class TestDeMorganOnFixtures:
    def test_fixture_traces(self, trace_fixed, trace_buggy):
        r1 = MConcat(MStar(MAny()),
                     MAtom(ParamMessage("ci", "execute", (SVar("t", "AsyncTask"),))))
        r2 = MAtom(ParamMessage("cb", "onCreate", (SVar("a", "Activity"),)))
        lhs = MNegate(MUnion(r1, r2))
        rhs = MIntersect(MNegate(r1), MNegate(r2))
        binding = {"t": T1, "a": ObjectId("a", 1, "Activity")}
        for trace in (trace_fixed, trace_buggy):
            for cut in range(len(trace) + 1):
                prefix = trace.messages[:cut]
                assert matches(prefix, binding, lhs) == matches(prefix, binding, rhs)
