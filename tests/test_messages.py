import pathlib
import random
import time

import pytest

from lifeguard.messages import (
    CB,
    CBRET,
    CI,
    UNIT,
    Int,
    Message,
    ObjectId,
    Str,
    Trace,
    TraceNestingError,
    TraceParseError,
    is_violation,
    parse_message_line,
    parse_trace,
    parse_value,
    serialize_trace,
    strip_comment,
)

from gen import random_trace
from pairs import pair_trace


def msg(kind, name, *args, ret=None):
    return Message(kind, name, tuple(args), ret)


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
        # The error names the source line, which blank and comment lines
        # move away from the message index.
        text = "cb onShow(a#1:Activity)\n\n# c\ncbret unit = onShow(t#1:AsyncTask)"
        with pytest.raises(TraceNestingError) as e:
            parse_trace(text)
        assert str(e.value) == "line 4: cbret of onShow does not match the open cb of onShow"

    def test_dis_must_be_last(self):
        text = "dis ci execute(t#1:AsyncTask)\ncb onShow(a#1:Activity)"
        with pytest.raises(TraceNestingError):
            parse_trace(text)

    def test_comments_and_blank_lines(self):
        text = "# header\n\ncb onShow(a#1:Activity)  # inline\ncbret unit = onShow(a#1:Activity)\n"
        assert len(parse_trace(text)) == 2

    def test_object_hash_not_a_comment(self):
        t = parse_trace("cb onShow(a#1:Activity)")
        assert t[0].args == (A1,)

    def test_syntax_error_carries_line(self):
        with pytest.raises(TraceParseError) as e:
            parse_trace("cb onShow(a#1:Activity)\nwat")
        assert "line 2" in str(e.value)

    def test_string_and_int_values(self):
        text = 'cb onShow(a#1:Activity)\nci f(42)\nciret "a,b" = f(42)\n'
        t = parse_trace(text)
        assert t[1].args == (Int(42),)
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
        assert t[0].args == (Str('a"b'), Str("c\\d"), Str("a #b"))
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
            Message(CB, "f", (), UNIT)
        with pytest.raises(ValueError):
            Message(CBRET, "f", ())

    def test_direction_partition(self):
        back = msg("ciret", "f", ret=UNIT)
        inn = msg("ci", "f")
        dis = msg("dis_ci", "f")
        for m in (back, inn, dis):
            assert m.is_back() + m.is_in() + m.is_dis() == 1

    def test_function_name_required(self):
        with pytest.raises(ValueError):
            Message(CI, "")

    def test_value_equality(self):
        assert ObjectId("a", 1, "Activity") == A1
        assert ObjectId("b", 1, "Activity") != A1
        assert parse_value("unit") is UNIT or parse_value("unit") == UNIT

    def test_prefix_with_dropped_returns_stays_well_formed(self, trace_fixed):
        # Any prefix is a legal trace once unmatched material stays open;
        # the structural checker accepts unclosed calls at the end.
        for k in range(len(trace_fixed) + 1):
            Trace(trace_fixed.messages[:k])


def per_line_parse(text):
    """The per-line path parse_trace takes only for lines its one regex does
    not match: strip_comment and parse_message_line on every line."""
    messages, lines_of = [], []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        stripped = strip_comment(raw).strip()
        if stripped:
            messages.append(parse_message_line(stripped, lineno))
            lines_of.append(lineno)
    try:
        return Trace(messages)
    except TraceNestingError as e:
        raise TraceNestingError(e.reason, lines_of[e.line - 1]) from None


def outcome(parse, text):
    """The trace with the class of every value, or the error's type, text
    and line."""
    try:
        trace = parse(text)
    except (TraceParseError, TraceNestingError) as e:
        return type(e), str(e), e.line
    return trace, [repr(m) for m in trace]


FIXTURE_TRACES = sorted((pathlib.Path(__file__).resolve().parent.parent / "fixtures")
                        .glob("*.trace"))

# Lines on their own and inside an open callback, so that callins nest.
EDGE_LINES = [
    "# a full-line comment",
    "   # an indented comment",
    "#",
    "cb onCreate(a#1:Activity)  # trailing comment",
    "cb onCreate(a#1:Activity)\t# after a tab",
    "cb onCreate(a#1:Activity) #",
    "cb onCreate(a#1:Activity)#c",
    "cb onCreate(a#1:Activity)# c",
    "ci f(a#1:Activity,b#12:Button)",
    "ci f(a #1:Activity)",
    "ci f(a#1 :Activity)",
    'ci f("a #b", "#", "x\\"#y")',
    'ci f("a #b") # "c #d"',
    'ciret "#" = f()',
    "\tci f(\ta#1:Activity\t,\t2\t)\t",
    "ci f(a#1:Activity)\r",
    "ci f()\r# c\r",
    "",
    "   ",
    "\t\r",
    "\x0c\x85ci f(-3, true, false, unit)\xa0",
    "ci f( )",
    "dis ci f(a#1:Activity)",
    "dis  ci   f ( a#1:Activity )  # blocked",
    "dis cbret unit = onCreate(a#1:Activity)",
    "dis cb f()",
    "dis ciret unit = f()",
    "dis ci",
    "cb unit = f()",
    "ci unit = f()",
    "cbret f()",
    "ciret f(a#1:Activity)",
    "ciret unit=f()",
    'ci f("abc)',
    'ci f("abc',
    'ci f("a\\q")',
    "ci f(foo)",
    "ci f(1,)",
    "ci f(,1)",
    "ci 1f()",
    "cix f()",
    "wat",
    "ci f()) # extra",
    "ciret unit = f()",
    "cbret unit = onCreate(a#1:Activity)",
    "cbret unit = g(a#1:Activity)",
    "cb g()",
]


def _edge_texts():
    for line in EDGE_LINES:
        yield line
        yield f"cb onCreate(a#1:Activity)\n{line}\nci g()\n"
        yield f"# header\n\ncb onCreate(a#1:Activity)\r\n{line}\r\nci g()\r\n"


@pytest.mark.parametrize("text", list(_edge_texts()))
def test_parse_trace_agrees_with_the_per_line_path_on_edge_lines(text):
    assert outcome(parse_trace, text) == outcome(per_line_parse, text)


@pytest.mark.parametrize("path", FIXTURE_TRACES, ids=lambda p: p.name)
def test_parse_trace_agrees_with_the_per_line_path_on_fixtures(path):
    text = path.read_text(encoding="utf-8")
    assert outcome(parse_trace, text) == outcome(per_line_parse, text)
    assert outcome(parse_trace, text.replace("\n", "\r\n")) == \
        outcome(per_line_parse, text.replace("\n", "\r\n"))


@pytest.mark.parametrize("n", range(1, 11))
def test_parse_trace_agrees_with_the_per_line_path_on_pair_traces(n):
    for skip in (frozenset(), frozenset({1})):
        text = serialize_trace(pair_trace(n, skip))
        assert outcome(parse_trace, text) == outcome(per_line_parse, text)
        assert parse_trace(text) == pair_trace(n, skip)


def test_parse_trace_parses_each_value_text_once():
    t = parse_trace("cb onCreate(a#1:Activity)\nci f(a#1:Activity, 7)\n"
                    "ciret 7 = f(a#1:Activity,7)\n")
    assert t[0].args[0] is t[1].args[0] is t[2].args[0]
    assert t[1].args[1] is t[2].args[1] is t[2].ret


def test_a_long_malformed_line_is_rejected_in_linear_time():
    # A line regex with two adjacent optional whitespace runs backtracks
    # quadratically on a line it does not match: 4,000 blanks and one bad
    # character took 0.7 s.
    start = time.perf_counter()
    with pytest.raises(TraceParseError):
        parse_trace(" " * 20000 + "x")
    assert time.perf_counter() - start < 1.0
