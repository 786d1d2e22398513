import pytest

from lifeguard.interp import (
    FINISHED,
    BAD_STATUS,
    BUDGET_EXHAUSTED,
    ProgramError,
    Schedule,
    ScheduleError,
    initial_state,
    load_program,
    parse_program,
    parse_schedule,
    run,
    uses_framework_init,
)
from lifeguard.messages import DIS_CI, Trace, serialize_trace
from lifeguard.validation import validate

from programs import BROKEN, STUCK, load_gen
from stepping import SteppingMachine, is_terminal, is_value


def run_source(source, schedule="", max_steps=1000):
    return run(parse_program(source), parse_schedule(schedule), max_steps)


class TestParseProgram:
    def test_minimal_fwk_function(self):
        expr = parse_program("let id = (x =>[fwk] x) in unit")
        assert expr is not None

    def test_unbound_identifier(self):
        with pytest.raises(ProgramError, match="unbound"):
            parse_program("let f = (x =>[fwk] y) in unit")

    def test_app_code_cannot_manage_permissions(self):
        for op in ("enable", "disable", "allow", "disallow"):
            src = f"let f = (x =>[app] {op} thk) in unit"
            with pytest.raises(ProgramError, match="app code"):
                parse_program(src)
        # the same body under a fwk tag is fine
        parse_program("let f = (x =>[fwk] disallow thk) in unit")

    def test_force_rejected_in_surface_syntax(self):
        with pytest.raises(ProgramError, match="force"):
            parse_program("let f = (x =>[fwk] force x) in unit")

    def test_thk_needs_function_body(self):
        with pytest.raises(ProgramError, match="thk"):
            parse_program("invoke thk")

    @pytest.mark.parametrize("text,message", [
        ("", "line 1: unexpected end of input"),
        ("# only a comment\n", "line 2: unexpected end of input"),
        ("let x", "line 1: unexpected end of input"),
        ("let x =", "line 1: unexpected end of input"),
        ("let x = unit", "line 1: unexpected end of input"),
        ("let x = unit in\n\n", "line 1: unexpected end of input"),
        ("let f = ((x, y, x) =>[fwk] x) in unit", "line 1: duplicate parameter names"),
        ("invoke force", "line 1: 'force' is machine-internal"),
        *BROKEN.values(),
    ])
    def test_program_errors(self, text, message):
        with pytest.raises(ProgramError) as caught:
            parse_program(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize("text,message", [
        # A scope error before a syntax error is the one reported.
        ("let f = (x =>[fwk] y) in (", "line 1: unbound identifier 'y'"),
        ("let f = (x =>[fwk] thk) in\ninvoke thk )", "line 2: 'thk' outside a function body"),
        # Duplicate parameters are checked before the body is read.
        ("let f = ((x, x) =>[fwk] y) in unit", "line 1: duplicate parameter names"),
        # The op is checked before its operands.
        ("let f = (x =>[app] enable (bind g y)) in unit", "line 1: app code may not use 'enable'"),
        ("let f = (x =>[fwk] if y then z else unit) in unit", "line 1: unbound identifier 'y'"),
    ])
    def test_the_first_error_in_source_order_is_reported(self, text, message):
        with pytest.raises(ProgramError) as caught:
            parse_program(text)
        assert str(caught.value) == message

    def test_a_program_nested_past_the_stack_is_a_program_error(self):
        # The handler nests one if ... else per pair, and the parser
        # recurses per nesting level: at n = 130 it runs out of stack.
        with pytest.raises(ProgramError, match=r"^line \d+: program nested too deeply$") as caught:
            parse_program(load_gen().pairs_program(130, frozenset()))
        assert caught.value.__suppress_context__

    def test_fixture_programs_parse(self, fixtures_dir):
        for name in ("program_fixed.ll", "program_buggy.ll"):
            program = load_program(fixtures_dir / name)
            assert uses_framework_init(program)

    def test_init_shape_check_rejects_plain_value(self):
        assert not uses_framework_init(parse_program("unit"))
        assert not uses_framework_init(
            parse_program("let f = (x =>[app] x) in invoke (bind f unit)")
        )


class TestStepRules:
    def test_enable_adds_thunk_and_event_fans_out(self):
        src = """
        let f = (x =>[fwk] x) in
        let g = (x =>[fwk] x) in
        (enable (bind f unit); enable (bind g unit); unit)
        """
        machine = SteppingMachine()
        state = initial_state(parse_program(src))
        while not (is_value(state) and not state.cont):
            succs = machine.step(state)
            assert len(succs) == 1
            state = succs[0][1]
        assert len(state.enabled) == 2
        succs = machine.step(state)
        assert len(succs) == 2  # event fan-out equals the enabled-set size

    def test_determinism_outside_event(self):
        src = "let f = (x =>[fwk] disallow thk) in invoke (bind f unit)"
        machine = SteppingMachine()
        state = initial_state(parse_program(src))
        while not is_terminal(state):
            succs = machine.step(state)
            assert len(succs) == 1
            state = succs[0][1]

    def test_invoke_disallowed_reaches_bad_with_dis_label(self):
        src = """
        let f = (x =>[fwk] (disallow thk; unit)) in
        let g = (x =>[app] (invoke (bind f unit); invoke (bind f unit))) in
        let h = (x =>[fwk] invoke (bind g x)) in
        let boot = (x =>[fwk] (enable (bind h unit); unit)) in
        invoke (bind boot unit)
        """
        result = run_source(src, "0")
        assert result.status == BAD_STATUS
        assert result.trace.messages[-1].kind == DIS_CI
        assert result.trace.messages[-1].fun == "f"

    def test_allow_reverses_disallow(self):
        src = """
        let f = (x =>[fwk] disallow thk) in
        let g = (x =>[fwk] (invoke (bind f unit); allow (bind f unit); invoke (bind f unit); unit)) in
        invoke (bind g unit)
        """
        result = run_source(src)
        assert result.status == FINISHED

    def test_enabled_persistence_after_event(self):
        # An event stays enabled unless the body disables it.
        src = """
        let f = (x =>[fwk] x) in
        let boot = (x =>[fwk] (enable (bind f unit); unit)) in
        invoke (bind boot unit)
        """
        result = run_source(src, "0,0,0")
        assert result.status == FINISHED  # schedule exhausted, events remain

    def test_cells(self):
        src = """
        let c = newcell 1 in
        let f = (x =>[fwk] (set c (add (get c) 41); get c)) in
        let g = (x =>[fwk] if eq (get c) 42 then unit else invoke unit) in
        (invoke (bind f unit); invoke (bind g unit))
        """
        assert run_source(src).status == FINISHED

    def test_two_cells_keep_their_own_values(self):
        src = """
        let c = newcell 1 in
        let d = newcell 2 in
        let f = (x =>[fwk] (set d 20;
                            if eq (get c) 1 then unit else invoke unit;
                            if eq (get d) 20 then unit else invoke unit;
                            set c 10;
                            if eq (get c) 10 then unit else invoke unit;
                            if eq (get d) 20 then unit else invoke unit)) in
        invoke (bind f unit)
        """
        assert run_source(src).status == FINISHED

    def test_stuck_invoking_non_thunk(self):
        assert run_source("invoke unit").status == "stuck"

    def test_stuck_invoking_disallowed_app_thunk(self):
        # Only callins can be disallowed: framework code that disallows a
        # callback and then invokes it has no observable dis message.
        src = """
        let a = a#1:Activity in
        let cb = (a =>[app] unit) in
        let boot = (a =>[fwk] (disallow (bind cb a); invoke (bind cb a))) in
        invoke (bind boot a)
        """
        result = run_source(src)
        assert result.status == "stuck"
        assert result.reason == "invoke of disallowed app thunk cb[a#1:Activity]"

    @pytest.mark.parametrize("name", sorted(STUCK))
    def test_stuck_reason(self, name):
        text, reason = STUCK[name]
        result = run(parse_program(text), Schedule(seed=1))
        assert (result.status, result.reason) == ("stuck", reason)


class TestRun:
    def test_trivial_program_finishes_empty(self):
        result = run_source("unit", "", 10)
        assert result.status == FINISHED
        assert result.trace == Trace(())

    def test_fixed_program_reproduces_fixture(self, fixtures_dir, trace_fixed):
        program = load_program(fixtures_dir / "program_fixed.ll")
        schedule = parse_schedule((fixtures_dir / "schedule_fixed.sched").read_text())
        result = run(program, schedule, 500)
        assert result.status == FINISHED
        assert result.trace == trace_fixed

    def test_buggy_program_double_click_goes_bad(self, fixtures_dir):
        program = load_program(fixtures_dir / "program_buggy.ll")
        schedule = parse_schedule((fixtures_dir / "schedule_double_click.sched").read_text())
        result = run(program, schedule, 500)
        assert result.status == BAD_STATUS
        last = result.trace.messages[-1]
        assert last.kind == DIS_CI and last.fun == "execute"

    def test_buggy_program_recorded_schedule_reproduces_fixture(self, fixtures_dir, trace_buggy):
        program = load_program(fixtures_dir / "program_buggy.ll")
        schedule = parse_schedule((fixtures_dir / "schedule_buggy_recorded.sched").read_text())
        result = run(program, schedule, 500)
        assert result.status == FINISHED
        assert result.trace == trace_buggy

    # (status, steps, messages) of each fixture program under each fixture
    # schedule and three seeds; a step merged or split changes the counts.
    OBSERVED_COUNTS = {
        ("program_fixed.ll", "schedule_buggy_recorded.sched"): ScheduleError,
        ("program_fixed.ll", "schedule_double_click.sched"): (FINISHED, 176, 16),
        ("program_fixed.ll", "schedule_fixed.sched"): (FINISHED, 176, 16),
        ("program_fixed.ll", "seed:1"): (FINISHED, 176, 16),
        ("program_fixed.ll", "seed:2"): (FINISHED, 176, 16),
        ("program_fixed.ll", "seed:3"): (FINISHED, 176, 16),
        ("program_buggy.ll", "schedule_buggy_recorded.sched"): (FINISHED, 157, 14),
        ("program_buggy.ll", "schedule_double_click.sched"): (BAD_STATUS, 151, 12),
        ("program_buggy.ll", "schedule_fixed.sched"): (BAD_STATUS, 151, 12),
        ("program_buggy.ll", "seed:1"): (BAD_STATUS, 171, 16),
        ("program_buggy.ll", "seed:2"): (BAD_STATUS, 151, 12),
        ("program_buggy.ll", "seed:3"): (BAD_STATUS, 171, 16),
    }

    @pytest.mark.parametrize("program_name,schedule_name", sorted(OBSERVED_COUNTS))
    def test_observed_counts(self, fixtures_dir, program_name, schedule_name):
        program = load_program(fixtures_dir / program_name)
        if schedule_name.startswith("seed:"):
            schedule = parse_schedule(schedule_name)
        else:
            schedule = parse_schedule((fixtures_dir / schedule_name).read_text())
        expected = self.OBSERVED_COUNTS[program_name, schedule_name]
        if expected is ScheduleError:
            with pytest.raises(ScheduleError):
                run(program, schedule, 500)
            return
        result = run(program, schedule, 500)
        assert (result.status, result.steps, len(result.trace.messages)) == expected

    def test_budget_exhaustion(self, fixtures_dir):
        program = load_program(fixtures_dir / "program_fixed.ll")
        result = run(program, Schedule(seed=1), 25)
        assert result.status == BUDGET_EXHAUSTED

    @pytest.mark.parametrize("program_name,schedule_name,steps,status", [
        ("program_buggy.ll", "schedule_double_click.sched", 151, BAD_STATUS),
        ("program_fixed.ll", "schedule_fixed.sched", 176, FINISHED),
    ])
    def test_status_at_the_step_budget(self, fixtures_dir, program_name, schedule_name,
                                       steps, status):
        # A run whose last allowed step reaches the bad or a finished state
        # ends in that state, not with the budget exhausted.
        program = load_program(fixtures_dir / program_name)
        schedule = parse_schedule((fixtures_dir / schedule_name).read_text())
        result = run(program, schedule, steps)
        assert (result.status, result.steps) == (status, steps)
        assert result.trace == run(program, schedule, steps + 1).trace
        assert result.trace.messages[-1].is_dis() == (status == BAD_STATUS)
        short = run(program, schedule, steps - 1)
        assert (short.status, short.steps) == (BUDGET_EXHAUSTED, steps - 1)

    def test_seeded_schedule_is_reproducible(self, fixtures_dir):
        program = load_program(fixtures_dir / "program_buggy.ll")
        a = run(program, Schedule(seed=11), 400)
        b = run(program, Schedule(seed=11), 400)
        assert a.trace == b.trace and a.status == b.status

    def test_schedule_out_of_range(self, fixtures_dir):
        program = load_program(fixtures_dir / "program_fixed.ll")
        with pytest.raises(ScheduleError):
            run(program, parse_schedule("5"), 500)

    def test_emitted_traces_are_well_formed(self, fixtures_dir):
        # Trace construction checks well-nestedness on every run.
        program = load_program(fixtures_dir / "program_buggy.ll")
        for seed in range(10):
            result = run(program, Schedule(seed=seed), 300)
            serialize_trace(result.trace)

    def test_run_traces_validate_against_sound_spec(self, fixtures_dir, spec_run):
        # Soundness feed: anything the fixed or buggy model does is accepted
        # by the protocol spec, including the dis-terminated run.
        for name, sched in (("program_fixed.ll", "0,0,0"),
                            ("program_buggy.ll", "0,0,1"),
                            ("program_buggy.ll", "0,0,0")):
            program = load_program(fixtures_dir / name)
            result = run(program, parse_schedule(sched), 500)
            report = validate(spec_run, result.trace)
            assert report.valid, (name, sched, report)
