"""The package's records: one sample of each, and the equality, hashing,
defaults and construction checks every record keeps."""

import pytest

from lifeguard.dfa import ANY, Dfa, RAnd, RAny, RCat, REmpty, REps, RNot, ROr, RStar, RSym
from lifeguard.grounding import CompiledRule, GroundRule, GroundSpec
from lifeguard.interp import (APP, EMPTY_ENV, CellRef, Closure, EIf, ELam, ELet, ELit, EPrim,
                              EThk, EVar, Env, RThunk, RunResult, Schedule)
from lifeguard.messages import (CB, CBRET, CI, UNIT, Bool, Int, Message, ObjectId, Record, Str,
                                Trace, TraceNestingError, Unit)
from lifeguard.rules import (PERMIT, LifestateSpec, MAny, MAtom, MConcat, MEmpty, MEps,
                             MIntersect, MNegate, MStar, MUnion, Rule, SVar)
from lifeguard.validation import ValidationReport
from lifeguard.verification import Safe, SubTrace, Unknown, Violation

B1 = ObjectId("b", 1, "Button")
CLICK = Message(CB, "onClick", (B1,))
CLICK_RET = Message(CBRET, "onClick", (B1,), UNIT)
DFA = Dfa(2, ((0, 1), (1, 1)), (False, True))
CLOSURE = Closure(("x",), EThk(), APP, EMPTY_ENV, "f", 1)

# One constructor of a sample instance per record class; each call builds
# new instances all the way down.
SAMPLES = [
    lambda: Unit(),
    lambda: Bool(True),
    lambda: Int(3),
    lambda: Str("a b"),
    lambda: ObjectId("b", 1, "Button"),
    lambda: Message(CB, "onClick", (ObjectId("b", 1, "Button"),)),
    lambda: Trace([Message(CB, "onClick"), Message(CBRET, "onClick", (), Unit())]),
    lambda: SVar("b", "Button", universal=True),
    lambda: MAtom(Message(CB, "onClick", (SVar("b"),))),
    lambda: MAny(),
    lambda: MEps(),
    lambda: MEmpty(),
    lambda: MConcat(MStar(MAny()), MAtom(Message(CB, "f"))),
    lambda: MStar(MAny()),
    lambda: MUnion(MEps(), MAny()),
    lambda: MIntersect(MAny(), MNegate(MEmpty())),
    lambda: MNegate(MEps()),
    lambda: Rule(MAny(), PERMIT, Message(CB, "f")),
    lambda: LifestateSpec((Rule(MEps(), PERMIT, Message(CB, "f")),)),
    lambda: RSym(1),
    lambda: RAny(),
    lambda: REps(),
    lambda: REmpty(),
    lambda: RCat(RSym(0), RStar(RSym(1))),
    lambda: RStar(RSym(1)),
    lambda: ROr(frozenset({RSym(0), RSym(1)})),
    lambda: RAnd(frozenset({RStar(RAny()), RSym(1)})),
    lambda: RNot(REmpty()),
    lambda: Dfa(2, ((0, 1), (1, 1)), (False, True)),
    lambda: GroundRule(Rule(MAtom(Message(CB, "f", (SVar("b"),))), PERMIT, Message(CB, "g")), 0,
                       Message(CB, "g"), (Message(CB, "f", (Int(1),)),), (("b", Int(1)),)),
    lambda: GroundSpec((GroundRule(Rule(MEps(), PERMIT, Message(CB, "f")), 0, Message(CB, "f"),
                                   ()),),
                       (Message(CB, "f"),), (1,), frozenset({Message(CB, "f")})),
    lambda: CompiledRule(DFA, (0,), PERMIT, Message(CB, "f"), 0, 1),
    lambda: ELit(Int(1)),
    lambda: EVar("x"),
    lambda: EThk(),
    lambda: ELam(("x",), APP, EVar("x"), "f"),
    lambda: ELet("x", ELit(Unit()), EVar("x")),
    lambda: EIf(EVar("c"), EThk(), ELit(Unit())),
    lambda: EPrim("invoke", (EVar("t"),)),
    lambda: Closure(("x",), EThk(), APP, EMPTY_ENV, "f", 1),
    lambda: RThunk(CLOSURE, (Int(2),)),
    lambda: CellRef(1),
    lambda: Schedule(picks=(0, 1)),
    lambda: RunResult(Trace(), "finished", 3, ""),
    lambda: ValidationReport(False, 1, 1, 2, Message(CI, "f"), frozenset(), frozenset({CLICK}),
                             (0,), "blocked", (1,)),
    lambda: SubTrace((CLICK, CLICK_RET), 0),
    lambda: Safe(3, 4, (1,), replays=5),
    lambda: Violation(Trace([CLICK]), (0,), 2, replays=1),
    lambda: Unknown(True, 1, "cap", 2, 3, replays=4),
]

# Fields left out of equality and the hash, per class.
NOT_COMPARED = {Closure: {"body", "env"}, Safe: {"replays"}, Violation: {"replays"},
                Unknown: {"replays"}}


def _fields(record) -> list[str]:
    """Every field of the record: the slots of its class and its bases.  A
    slot whose name starts with an underscore stores a value computed from
    the fields (a hash) and is not one."""
    return [name for cls in reversed(type(record).__mro__)
            for name in cls.__dict__.get("__slots__", ()) if not name.startswith("_")]


def _compared(record) -> tuple:
    skip = NOT_COMPARED.get(type(record), set())
    return tuple(getattr(record, name) for name in _fields(record) if name not in skip)


def _leaf_records() -> set[type]:
    """The record classes of the package that no record class extends."""
    out, pending = set(), [Record]
    while pending:
        cls = pending.pop()
        subclasses = cls.__subclasses__()
        pending.extend(subclasses)
        if not subclasses and cls.__module__.startswith("lifeguard."):
            out.add(cls)
    return out


def test_the_table_has_one_sample_of_every_record():
    classes = [type(make()) for make in SAMPLES]
    assert len(classes) == len(set(classes)) == 49
    assert set(classes) == _leaf_records()


@pytest.mark.parametrize("make", SAMPLES, ids=lambda make: type(make()).__name__)
def test_equal_fields_give_equal_records_and_hashes(make):
    a, b = make(), make()
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(_compared(a))
    assert {a: 1}[b] == 1


@pytest.mark.parametrize("make", SAMPLES, ids=lambda make: type(make()).__name__)
def test_keyword_construction_and_slots(make):
    record = make()
    assert type(record)(**{name: getattr(record, name) for name in _fields(record)}) == record
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("make", SAMPLES, ids=lambda make: type(make()).__name__)
def test_a_record_is_unequal_to_other_records(make):
    record = make()
    others = [other() for other in SAMPLES if type(other()) is not type(record)]
    assert all(record != other for other in others)
    assert record.__eq__(object()) is NotImplemented


@pytest.mark.parametrize("a, b", [
    (Bool(True), Int(1)),
    (RStar(RSym(0)), RNot(RSym(0))),
    (MEps(), MAny()),
    (REps(), MEps()),
    (ROr(frozenset({RSym(0), RSym(1)})), RAnd(frozenset({RSym(0), RSym(1)}))),
], ids=lambda r: type(r).__name__)
def test_records_of_different_classes_are_unequal(a, b):
    assert a != b and b != a
    assert not a == b
    assert a.__eq__(b) is NotImplemented
    assert len({a, b}) == 2


@pytest.mark.parametrize("make", [
    lambda: ObjectId("b", 1, "Button"),
    lambda: Message(CBRET, "onClick", (ObjectId("b", 1, "Button"),), UNIT),
    lambda: RSym(1),
    lambda: REps(),
    lambda: RCat(RSym(0), RStar(RSym(1))),
    lambda: RNot(ROr(frozenset({RSym(0), RAnd(frozenset({RStar(RAny()), RSym(1)}))}))),
], ids=["ObjectId", "Message", "RSym", "REps", "RCat", "RNot"])
def test_a_stored_hash_is_the_hash_of_the_fields(make):
    record, fresh = make(), make()
    assert record._hash is None and fresh._hash is None
    before = repr(record)
    assert hash(record) == hash(record) == hash(_compared(record)) == hash(fresh)
    assert record == fresh and fresh == record and repr(record) == before == repr(fresh)
    assert {record: 1}[fresh] == 1 and {fresh: 1}[record] == 1


def test_fields_outside_equality_are_ignored():
    other_env = Env({"y": UNIT}, EMPTY_ENV)
    assert Closure(("x",), EThk(), APP, EMPTY_ENV, "f", 1) == Closure(
        ("x",), EVar("y"), APP, other_env, "f", 1)
    assert Closure(("x",), EThk(), APP, EMPTY_ENV, "f", 1) != Closure(
        ("x",), EThk(), APP, EMPTY_ENV, "f", 2)
    assert Safe(3, 4, replays=1) == Safe(3, 4, replays=9)
    assert hash(Safe(3, 4, replays=1)) == hash(Safe(3, 4, replays=9))
    assert Violation(Trace(), (), 1, replays=1) == Violation(Trace(), (), 1, replays=2)
    assert Unknown(False, replays=0) == Unknown(False, replays=7)
    assert Unknown(False, replays=7).replays == 7


def test_defaults():
    assert (Message(CB, "f").args, Message(CB, "f").ret) == ((), None)
    assert Message(kind=CB, fun="f") == Message(CB, "f", (), None)
    assert (SVar("x").type_name, SVar("x").universal) == (None, False)
    assert ELam(("x",), APP, EThk()).name == "<anon>"
    unknown = Unknown(bound_hit=True)
    assert (unknown.bound_hit, unknown.states_explored, unknown.reason, unknown.depth_reached,
            unknown.frontier, unknown.replays) == (True, 0, "", 0, 0, 0)
    assert Safe(1, 2).unreachable_units == () and Safe(1, 2).replays == 0
    assert GroundRule(Rule(MAny(), PERMIT, CLICK), 0, CLICK, ()).binding == ()
    assert RunResult(Trace(), "finished", 0).reason == ""
    assert Trace().messages == () and LifestateSpec().rules == ()
    assert ValidationReport(True, 0, 0, 0).blocking_message is None


def test_repr_names_the_class_and_fields():
    assert repr(Int(3)) == "Int(n=3)"
    assert repr(Message(CB, "f")) == "Message(kind='cb', fun='f', args=(), ret=None)"
    assert repr(RStar(ANY)) == "RStar(inner=RAny())"


@pytest.mark.parametrize("build, error", [
    (lambda: Message("callback", "f"), ValueError),
    (lambda: Message(CB, ""), ValueError),
    (lambda: Message(CB, "f", (), UNIT), ValueError),
    (lambda: Message(CBRET, "f"), ValueError),
    (lambda: ObjectId("b", 1, ""), ValueError),
    (lambda: Rule(MAny(), "allow", CLICK), ValueError),
    (lambda: Trace([CLICK_RET]), TraceNestingError),
    (lambda: Trace([Message(CI, "f")]), TraceNestingError),
    (lambda: Schedule(), ValueError),
    (lambda: Schedule(picks=(0,), seed=1), ValueError),
    (lambda: ValidationReport(True, 1, 1, 2), ValueError),
    (lambda: ValidationReport(True, 2, 2, 2, blocking_message=CLICK), ValueError),
    (lambda: ValidationReport(False, 1, 1, 2), ValueError),
])
def test_construction_checks_raise(build, error):
    with pytest.raises(error):
        build()


def test_trace_keeps_a_tuple_of_its_messages():
    messages = [CLICK, CLICK_RET]
    trace = Trace(messages)
    messages.pop()
    assert trace.messages == (CLICK, CLICK_RET)
    assert trace == Trace((CLICK, CLICK_RET))
