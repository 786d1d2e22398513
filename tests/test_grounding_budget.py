"""What grounding charges to its cap, how every phase reads the deadline,
and how validate and verify report a budget that runs out.

The sliced grounding charges each rule the assignments the slicer
enumerates (see grounding._Join.kept).  recount derives those charges
from the full grounding's instances alone, so an enumeration that skips,
repeats or charges an assignment differently disagrees with it.  The
deadline tests run on a clock that only moves when it is read."""

import itertools
import json
import random
import time

import pytest

from lifeguard import grounding, validation, verification
from lifeguard.abstract import AbstractEngine
from lifeguard.cli import main
from lifeguard.dfa import LimitExceeded
from lifeguard.grounding import GroundingCapError, compile_spec, ground_spec, letter_map
from lifeguard.messages import parse_trace, serialize_trace
from lifeguard.rules import PERMIT, apply_binding, matcher_atoms, parse_spec
from lifeguard.validation import validate, validate_ground
from lifeguard.verification import Unknown, verify

from gen import random_pair_spec, random_spec, random_trace
from pairs import CAP_SPEC, init_trace, pair_trace, random_order
from test_sliced_grounding import EXTRA, FIXTURE_SPECS, FIXTURE_TRACES


def recount(spec, trace):
    """Per rule, the assignments the slicer enumerates, counted over the
    full grounding's instances: the kind-1 survivors of the polarity with
    fewer of them, then the instances of the other polarity aiming at an
    unseen target those survivors aim at, then every instance aiming at a
    trace message or at a mixed target.  A survivor counts once per atom
    occurring in the trace, or once if its matcher accepts on OTHER*.
    Also returns the mixed targets."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(grounding, "DEFAULT_INSTANTIATION_CAP", 10 ** 9)
        full = ground_spec(spec, trace)
    seen = {m.unwrap() if m.is_dis() else m for m in trace.messages}
    accepts = {}
    for rule, compiled in zip(full.rules, compile_spec(full, letter_map(full.alphabet))):
        state, visited = 0, set()
        while state not in visited:
            visited.add(state)
            state = compiled.dfa.transitions[state][-1]
        accepts[rule.source_index] = any(compiled.dfa.accepting[s] for s in visited)
    instances = []  # (rule, target, how many times it survives kind 1, whether it fires)
    for rule in full.rules:
        binding = dict(rule.binding)
        atoms = [apply_binding(binding, a) for a in dict.fromkeys(matcher_atoms(rule.rule.matcher))]
        hits = 1 if accepts[rule.source_index] else sum(a in seen for a in atoms)
        instances.append((rule.source_index, rule.target, hits, hits > 0))
    permit = [rule.polarity == PERMIT for rule in spec.rules]
    sizes = {True: 0, False: 0}
    for r, _, hits, _ in instances:
        sizes[permit[r]] += hits
    few = sizes[True] <= sizes[False]
    counts = [0] * len(spec.rules)
    unseen = set()
    for r, target, hits, _ in instances:
        if permit[r] == few:
            counts[r] += hits
            if hits and target not in seen:
                unseen.add(target)
    mixed = set()
    for r, target, _, fires in instances:
        if permit[r] != few and target in unseen:
            counts[r] += 1
            if fires:
                mixed.add(target)
    for r, target, _, _ in instances:
        counts[r] += target in seen or target in mixed
    return counts, mixed


@pytest.fixture
def caps(monkeypatch):
    """Every _Cap that ground_spec makes, in order."""
    made = []

    class Recorded(grounding._Cap):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(grounding, "_Cap", Recorded)
    return made


def charge_cases(request):
    rng = random.Random(24)
    cases = []
    for _ in range(300):
        n = rng.randint(1, 4)
        skip = frozenset(rng.sample(range(1, n + 1), min(rng.randint(0, 2), n)))
        cases.append((random_pair_spec(rng), pair_trace(n, skip, random_order(n, rng))))
    for i in range(100):
        trace = random_trace(rng, max_messages=20, max_objects=3)
        cases.append((EXTRA if i % 2 else random_spec(rng), trace))
    specs = [request.getfixturevalue(s) for s in FIXTURE_SPECS] + [EXTRA]
    cases += [(spec, request.getfixturevalue(t))
              for spec, t in itertools.product(specs, FIXTURE_TRACES)]
    return cases


def test_each_rule_is_charged_what_the_slicer_enumerates(request, caps):
    with_mixed = 0
    for spec, trace in charge_cases(request):
        ground_spec(spec, trace, sliced=True)
        cap = caps[-1]
        want, mixed = recount(spec, trace)
        assert cap.counts == want, (spec, trace)
        assert cap.total == sum(want)
        with_mixed += bool(mixed)
        # The full grounding charges each rule its instances.
        full = ground_spec(spec, trace)
        assert caps[-1].counts == list(full.instance_counts)
    assert with_mixed > 10


def test_spec_run_charges_each_fixed_assignment_once(spec_run, caps):
    # On 12 pairs the slicer enumerates the 24 targets of the permit rules'
    # survivors, then the 73 instances it keeps; a trace message fixes each
    # of them whole.
    ground, cap = ground_spec(spec_run, pair_trace(12), sliced=True), caps[-1]
    assert cap.counts == recount(spec_run, pair_trace(12))[0]
    assert (cap.total, len(ground.rules)) == (24 + 73, 73)


class Clock:
    """time.monotonic that moves step seconds at every reading, and counts
    the readings."""

    def __init__(self, step: float):
        self.now, self.step, self.reads = 0.0, step, 0

    def __call__(self) -> float:
        self.reads += 1
        now, self.now = self.now, self.now + self.step
        return now


@pytest.fixture
def clock(monkeypatch):
    clock = Clock(10.0)
    monkeypatch.setattr(time, "monotonic", clock)
    return clock


class TestDeadline:
    def test_verify_stops_grounding_at_the_first_reading(self, clock, caps):
        # 12 tasks: 1,728 assignments per rule, so the first charge passes
        # 1,024 and reads the clock, which stands past the 5 s deadline.
        result = verify(parse_spec(CAP_SPEC), init_trace(12), timeout=5)
        assert isinstance(result, Unknown) and not result.bound_hit
        assert result.reason == "timeout while grounding"
        assert clock.reads == 2  # entry, then the first charge past 1,024
        assert caps[-1].total == 1728

    def test_validate_stops_grounding(self, clock):
        with pytest.raises(LimitExceeded, match="^timeout while grounding$"):
            validate(parse_spec(CAP_SPEC), init_trace(12), timeout=5)
        assert clock.reads == 2

    def test_the_engine_build_reads_the_deadline(self, clock, monkeypatch):
        # 8 tasks: 512 instances per rule, so the grounding of 1,024 rules
        # passes the deadline to an engine build that reads it.
        spec, trace = parse_spec(CAP_SPEC), init_trace(8)
        ground = ground_spec(spec, trace, sliced=True)
        assert len(ground.rules) == 1024 and clock.reads == 0
        with pytest.raises(LimitExceeded, match="^timeout while building the engine$"):
            AbstractEngine(ground, deadline=-1)
        with pytest.raises(LimitExceeded, match="^timeout while building the engine$"):
            validate_ground(ground, trace, deadline=-1)
        monkeypatch.setattr(verification, "ground_spec", lambda *args, **kwargs: ground)
        result = verify(spec, trace, timeout=5)
        assert isinstance(result, Unknown) and result.reason == "timeout while building the engine"

    def test_reads_are_one_per_1024_charges_or_rules(self, clock, caps):
        ground = ground_spec(parse_spec(CAP_SPEC), init_trace(12), sliced=True,
                             deadline=float("inf"))
        # 6,912 assignments charged, no charge passing two multiples of
        # 1,024, and 3,456 rules built.
        assert (caps[-1].total, len(ground.rules)) == (6912, 3456)
        assert clock.reads == 6912 // 1024 + 3456 // 1024
        clock.reads = 0
        AbstractEngine(ground, deadline=float("inf"))
        # In compile_spec, then in the loop that lays out the rules' tables.
        assert clock.reads == 2 * (len(ground.rules) // 1024)

    def test_the_table_layout_after_compile_spec_reads_the_deadline(self, clock):
        # compile_spec reads the clock at 0, 10 and 20 s for its 3,456
        # rules; the table layout's first reading, at 30 s, is past 25 s.
        ground = ground_spec(parse_spec(CAP_SPEC), init_trace(12), sliced=True)
        assert len(ground.rules) == 3456 and clock.reads == 0
        with pytest.raises(LimitExceeded, match="^timeout while building the engine$"):
            AbstractEngine(ground, deadline=25)
        assert clock.reads == 4

    @pytest.mark.parametrize("spec_name", ["spec_run", "spec_run_until"])
    def test_a_benchmark_sized_trace_never_reads_the_clock(self, fixtures_dir, clock, spec_name):
        spec = parse_spec((fixtures_dir / f"{spec_name}.ls").read_text())
        ground = ground_spec(spec, pair_trace(12), sliced=True, deadline=5)
        AbstractEngine(ground, deadline=5)
        assert clock.reads == 0

    def test_a_corpus_trace_that_expires_while_grounding_is_an_unknown_row(
            self, tmp_path, capsys, clock):
        (tmp_path / "spec.ls").write_text(CAP_SPEC)
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a_tasks.trace").write_text(serialize_trace(init_trace(12)))
        (corpus / "b_tasks.trace").write_text(serialize_trace(init_trace(2)))
        code = main(["validate", "--spec", str(tmp_path / "spec.ls"), "--corpus", str(corpus),
                     "--timeout", "5", "--report", "json"])
        rows = json.loads(capsys.readouterr().out)["results"]
        assert code == 1
        assert [(r["verdict"], r.get("reason")) for r in rows] == [
            ("unknown", "timeout while grounding"),
            ("unknown", "timeout while validating step 0")]


# One rule whose DFA has 65,536 states, on a trace that grounds it once.
BIG_DFA_SPEC = "TRUE* ; cb a() ; " + " ; ".join(["TRUE"] * 15) + " -/> ci b()"
AB_TRACE = "cb a()\nci b()\nciret unit = b()\ncbret unit = a()\n"


def unclocked_grounding(monkeypatch):
    """validate and verify ground without a deadline, so that a grounding
    of 1,024 rules passes it to the engine build."""
    def ground(spec, trace, sliced, deadline):
        return ground_spec(spec, trace, sliced=sliced)

    for module in (validation, verification):
        monkeypatch.setattr(module, "ground_spec", ground)


def phase_case(phase, fixtures_dir, monkeypatch):
    """The spec and trace whose check expires in the phase."""
    if phase == "grounding":
        return parse_spec(CAP_SPEC), init_trace(12)
    if phase == "engine build":  # in compile_spec, at its 1,024th rule
        unclocked_grounding(monkeypatch)
        return parse_spec(CAP_SPEC), init_trace(8)
    if phase == "DFA build":  # in build_dfa, at its 1,024th state
        return parse_spec(BIG_DFA_SPEC), parse_trace(AB_TRACE)
    return (parse_spec((fixtures_dir / "spec_run.ls").read_text()),
            parse_trace((fixtures_dir / "trace_fixed.trace").read_text()))


@pytest.mark.parametrize("check", ["validate", "verify"])
@pytest.mark.parametrize("phase, reasons", [
    ("grounding", ("grounding", "grounding")),
    ("engine build", ("building the engine", "building the engine")),
    ("DFA build", ("building the engine", "building the engine")),
    ("fold or search", ("validating step 0", "searching")),
])
def test_every_phase_gives_one_timeout_text(clock, fixtures_dir, monkeypatch, check, phase,
                                            reasons):
    """validate raises LimitExceeded and verify returns an Unknown, with
    ``timeout while <phase>``, at the first reading past the deadline."""
    spec, trace = phase_case(phase, fixtures_dir, monkeypatch)
    reason = "timeout while " + reasons[check == "verify"]
    if check == "validate":
        with pytest.raises(LimitExceeded, match=f"^{reason}$"):
            validate(spec, trace, timeout=5)
    else:
        result = verify(spec, trace, timeout=5)
        assert isinstance(result, Unknown) and not result.bound_hit and result.reason == reason
    assert clock.reads == 2  # entry, then the first reading, past the deadline


def test_the_grounding_cap_is_a_limit():
    """Past the instantiation cap, validate raises the cap's diagnostic
    and verify returns it as an Unknown, as for a timeout."""
    spec, trace = parse_spec(CAP_SPEC), init_trace(60)
    with pytest.raises(GroundingCapError) as cap:
        ground_spec(spec, trace, sliced=True)
    reason = str(cap.value)
    assert reason.startswith("sliced grounding enumerates 216000 rule assignments (cap 200000); "
                             "worst rule is #1 with 216000 assignments")
    with pytest.raises(LimitExceeded) as raised:
        validate(spec, trace)
    assert str(raised.value) == reason
    assert verify(spec, trace) == Unknown(bound_hit=False, reason=reason)


@pytest.mark.parametrize("check", ["validate", "verify"])
def test_a_large_dfa_build_stops_at_the_deadline(check):
    # Building the 65,536-state DFA takes about 2 s; build_dfa reads the
    # deadline every 1,024 states.
    spec, trace = parse_spec(BIG_DFA_SPEC), parse_trace(AB_TRACE)
    begin = time.monotonic()
    if check == "validate":
        with pytest.raises(LimitExceeded, match="^timeout while building the engine$"):
            validate(spec, trace, timeout=0.2)
    else:
        result = verify(spec, trace, timeout=0.2)
        assert result == Unknown(False, reason="timeout while building the engine")
    assert time.monotonic() - begin < 0.5
