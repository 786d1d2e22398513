import random

import pytest

from lifeguard.messages import (
    APP,
    CB,
    CBRET,
    CI,
    FWK,
    UNIT,
    FunctionSymbol,
    Int,
    Message,
    ObjectId,
    Str,
    Thunk,
    Trace,
    TraceNestingError,
    TraceParseError,
    is_violation,
    parse_trace,
    parse_value,
    serialize_trace,
)

from gen import random_trace


def msg(kind, name, *args, ret=None):
    package = APP if kind in ("cb", "cbret", "dis_cbret") else FWK
    return Message(kind, Thunk(FunctionSymbol(name, package), tuple(args)), ret)


A1 = ObjectId("a", 1, "Activity")
T1 = ObjectId("t", 1, "AsyncTask")


class TestParseTrace:
    def test_minimal_pair(self):
        t = parse_trace("cb onCreate(a#1:Activity)\ncbret unit = onCreate(a#1:Activity)")
        assert len(t) == 2
        assert t[0] == msg("cb", "onCreate", A1)
        assert t[1] == msg("cbret", "onCreate", A1, ret=UNIT)

    def test_fixture_is_fifteen_plus_one_messages(self, fixtures_dir):
        text = (fixtures_dir / "trace_fixed.trace").read_text()
        t = parse_trace(text)
        # Create unit (6) + Click unit (6) + PostExecute unit (4).
        assert len(t) == 16
        kinds = [m.kind for m in t]
        assert kinds.count("cb") == 3 and kinds.count("cbret") == 3

    def test_nesting_error_depth_zero_callin(self):
        with pytest.raises(TraceNestingError) as e:
            parse_trace("ci execute(t#1:AsyncTask)\ncb onClick(l#1:OnClickListener,b#1:Button)")
        assert "line 1" in str(e.value)

    def test_nesting_error_callback_inside_callback(self):
        text = "cb onShow(a#1:Activity)\ncb onPing(a#1:Activity)"
        with pytest.raises(TraceNestingError):
            parse_trace(text)

    def test_mismatched_return_thunk(self):
        text = "cb onShow(a#1:Activity)\ncbret unit = onShow(t#1:AsyncTask)"
        with pytest.raises(TraceNestingError):
            parse_trace(text)

    def test_dis_must_be_last(self):
        text = "dis ci execute(t#1:AsyncTask)\ncb onShow(a#1:Activity)"
        with pytest.raises(TraceNestingError):
            parse_trace(text)

    def test_comments_and_blank_lines(self):
        text = "# header\n\ncb onShow(a#1:Activity)  # inline\ncbret unit = onShow(a#1:Activity)\n"
        assert len(parse_trace(text)) == 2

    def test_object_hash_not_a_comment(self):
        t = parse_trace("cb onShow(a#1:Activity)")
        assert t[0].thunk.args == (A1,)

    def test_syntax_error_carries_line(self):
        with pytest.raises(TraceParseError) as e:
            parse_trace("cb onShow(a#1:Activity)\nwat")
        assert "line 2" in str(e.value)

    def test_string_and_int_values(self):
        text = 'cb onShow(a#1:Activity)\nci f(42)\nciret "a,b" = f(42)\n'
        t = parse_trace(text)
        assert t[1].thunk.args == (Int(42),)
        assert t[2].ret == Str("a,b")

    def test_unescaped_quote_inside_string_is_rejected(self):
        with pytest.raises(TraceParseError) as e:
            parse_trace('cb onShow(a#1:Activity)\nci f()\nciret "x "q" = f()\n')
        assert "line 3" in str(e.value)

    def test_escaped_strings_round_trip(self):
        text = ('cb show("a\\"b","c\\\\d","a #b")\n'
                'ci put("x = \\"y\\"",-1)\n'
                'ciret "k=\\"v\\\\\\"" = put("x = \\"y\\"",-1)\n'
                'cbret unit = show("a\\"b","c\\\\d","a #b")\n')
        t = parse_trace(text)
        assert t[0].thunk.args == (Str('a"b'), Str("c\\d"), Str("a #b"))
        assert t[2].ret == Str('k="v\\"')
        assert serialize_trace(t) == text
        # A newline is written as the escape \n; the other line breaks of
        # str.splitlines are ordinary characters, since lines end at \n only.
        for ch in "\n\r\x0c\x85\u2028":
            arg = Str(f"a{ch}b")
            t = Trace((msg("cb", "show", arg), msg("cbret", "show", arg, ret=Str(ch))))
            text = serialize_trace(t)
            assert text.count("\n") == 2
            assert parse_trace(text) == t


class TestSerialize:
    def test_empty(self):
        assert serialize_trace(Trace(())) == ""

    def test_single_dis_line(self):
        t = Trace((msg("dis_ci", "execute", T1),))
        assert serialize_trace(t) == "dis ci execute(t#1:AsyncTask)\n"

    def test_buggy_fixture_is_serialization_fixed_point(self, fixtures_dir):
        text = (fixtures_dir / "trace_buggy.trace").read_text()
        t = parse_trace(text)
        assert len(t) == 14
        assert serialize_trace(t) == text
        assert serialize_trace(parse_trace(serialize_trace(t))) == text

    def test_roundtrip_random_traces(self):
        rng = random.Random(7)
        for _ in range(100):
            t = random_trace(rng)
            assert parse_trace(serialize_trace(t)) == t

    def test_roundtrip_value_forms(self):
        line = 'cb onShow(a#1:Activity,true,false,-3,"x\\"y\\\\z",unit)'
        t = parse_trace(line)
        assert parse_trace(serialize_trace(t)) == t


class TestIsViolation:
    def test_empty(self):
        assert not is_violation(Trace(()))

    def test_fixed_fixture(self, trace_fixed):
        assert not is_violation(trace_fixed)

    def test_dis_terminated(self):
        t = Trace((msg("cb", "onClick", A1), msg("dis_ci", "execute", T1)))
        assert is_violation(t)


class TestMessageInvariants:
    def test_ret_only_on_return_kinds(self):
        with pytest.raises(ValueError):
            Message(CB, Thunk(FunctionSymbol("f", APP), ()), UNIT)
        with pytest.raises(ValueError):
            Message(CBRET, Thunk(FunctionSymbol("f", APP), ()))

    def test_direction_partition(self):
        back = msg("ciret", "f", ret=UNIT)
        inn = msg("ci", "f")
        dis = msg("dis_ci", "f")
        for m in (back, inn, dis):
            assert m.is_back() + m.is_in() + m.is_dis() == 1

    def test_kind_fixes_package(self):
        with pytest.raises(ValueError):
            Message(CI, Thunk(FunctionSymbol("f", APP), ()))

    def test_value_equality(self):
        assert ObjectId("a", 1, "Activity") == A1
        assert ObjectId("b", 1, "Activity") != A1
        assert parse_value("unit") is UNIT or parse_value("unit") == UNIT

    def test_prefix_with_dropped_returns_stays_well_formed(self, trace_fixed):
        # Any prefix is a legal trace once unmatched material stays open;
        # the structural checker accepts unclosed calls at the end.
        for k in range(len(trace_fixed) + 1):
            Trace(trace_fixed.messages[:k])
