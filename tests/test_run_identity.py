"""What a run produces, pinned, and the one stepper behind it.

The pins are (status, steps, the first 16 hex digits of the sha256 of the
serialized trace) of seeded runs, recorded with the frozen-dataclass
machine that the table-driven machine replaced: both fixture
programs under seeds 1-20, and the benchmark's pair programs
(perfbench/gen.py pairs_program(n, skip)) for n = 1..4, with no pair and
with pair 1 skipping setEnabled, under seeds 1-8.  A rule that changes
what a run labels, or merges or splits a step, changes a pin.  LOWERED
pins what parse_program makes of the programs that the cut-off sweep
runs.  The sweep runs them, and 200 programs of tests/gen.py's
random_program, at every budget up to 60 and around the end of each run,
against a driver that takes each step through tests/stepping.py."""

import hashlib
import pathlib
import random

import pytest

from lifeguard.interp import (
    BAD,
    BAD_STATUS,
    BUDGET_EXHAUSTED,
    FINISHED,
    STUCK,
    EIf,
    ELam,
    ELet,
    ELit,
    EPrim,
    EThk,
    EVar,
    Env,
    Machine,
    Schedule,
    ScheduleError,
    StuckError,
    initial_state,
    load_program,
    parse_program,
    parse_schedule,
    run,
)
from lifeguard.messages import Bool, Unit, serialize_trace

from gen import random_program
from programs import load_gen
from stepping import SteppingMachine, is_terminal, is_value

REPO = pathlib.Path(__file__).resolve().parent.parent


def _pin(program, seed):
    result = run(program, Schedule(seed=seed))
    digest = hashlib.sha256(serialize_trace(result.trace).encode()).hexdigest()[:16]
    return result.status, result.steps, digest


FIXTURE_RUNS = {
    ('program_buggy.ll', 1): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 2): ('bad', 151, '61569524dd5bd532'),
    ('program_buggy.ll', 3): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 4): ('bad', 151, '61569524dd5bd532'),
    ('program_buggy.ll', 5): ('bad', 151, '61569524dd5bd532'),
    ('program_buggy.ll', 6): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 7): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 8): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 9): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 10): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 11): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 12): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 13): ('bad', 151, '61569524dd5bd532'),
    ('program_buggy.ll', 14): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 15): ('bad', 151, '61569524dd5bd532'),
    ('program_buggy.ll', 16): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 17): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 18): ('bad', 171, '3d6a3681c3d932d5'),
    ('program_buggy.ll', 19): ('bad', 151, '61569524dd5bd532'),
    ('program_buggy.ll', 20): ('bad', 151, '61569524dd5bd532'),
    ('program_fixed.ll', 1): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 2): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 3): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 4): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 5): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 6): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 7): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 8): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 9): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 10): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 11): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 12): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 13): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 14): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 15): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 16): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 17): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 18): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 19): ('finished', 176, '51d5962697024bc8'),
    ('program_fixed.ll', 20): ('finished', 176, '51d5962697024bc8'),
}
PAIR_RUNS = {
    (1, (), 1): ('finished', 192, '650335cd20b5fdf6'),
    (1, (), 2): ('finished', 192, '650335cd20b5fdf6'),
    (1, (), 3): ('finished', 192, '650335cd20b5fdf6'),
    (1, (), 4): ('finished', 192, '650335cd20b5fdf6'),
    (1, (), 5): ('finished', 192, '650335cd20b5fdf6'),
    (1, (), 6): ('finished', 192, '650335cd20b5fdf6'),
    (1, (), 7): ('finished', 192, '650335cd20b5fdf6'),
    (1, (), 8): ('finished', 192, '650335cd20b5fdf6'),
    (1, (1,), 1): ('bad', 197, '9de5a76073c6917b'),
    (1, (1,), 2): ('bad', 183, '61569524dd5bd532'),
    (1, (1,), 3): ('bad', 197, '9de5a76073c6917b'),
    (1, (1,), 4): ('bad', 183, '61569524dd5bd532'),
    (1, (1,), 5): ('bad', 183, '61569524dd5bd532'),
    (1, (1,), 6): ('bad', 197, '9de5a76073c6917b'),
    (1, (1,), 7): ('bad', 197, '9de5a76073c6917b'),
    (1, (1,), 8): ('bad', 197, '9de5a76073c6917b'),
    (2, (), 1): ('finished', 340, '52e60be80e22e10d'),
    (2, (), 2): ('finished', 340, '0d56ae9f0e34ba2e'),
    (2, (), 3): ('finished', 340, '52e60be80e22e10d'),
    (2, (), 4): ('finished', 340, '4e6876f07db3b4d4'),
    (2, (), 5): ('finished', 340, '4e6876f07db3b4d4'),
    (2, (), 6): ('finished', 340, 'dc7b401e62d9406e'),
    (2, (), 7): ('finished', 340, '52e60be80e22e10d'),
    (2, (), 8): ('finished', 340, 'dc7b401e62d9406e'),
    (2, (1,), 1): ('bad', 317, 'c0c94bdf1917a65d'),
    (2, (1,), 2): ('bad', 239, '2241be7fd650f117'),
    (2, (1,), 3): ('bad', 345, 'b130cc994913b099'),
    (2, (1,), 4): ('bad', 345, 'b687116172b91479'),
    (2, (1,), 5): ('bad', 331, '73464aa5cd765671'),
    (2, (1,), 6): ('bad', 331, '731ecacee0caa3ee'),
    (2, (1,), 7): ('bad', 331, '0461dd81e94f6b62'),
    (2, (1,), 8): ('bad', 331, '731ecacee0caa3ee'),
    (3, (), 1): ('finished', 504, 'a37114980c668c2f'),
    (3, (), 2): ('finished', 504, '5aa81f2e97119ad1'),
    (3, (), 3): ('finished', 504, '6ed6732921b480bd'),
    (3, (), 4): ('finished', 504, '248f763764c4a513'),
    (3, (), 5): ('finished', 504, 'f28eef4d0f3d0b4c'),
    (3, (), 6): ('finished', 504, 'a8c694a571825023'),
    (3, (), 7): ('finished', 504, '4829e3e70f664f4c'),
    (3, (), 8): ('finished', 504, 'a8c694a571825023'),
    (3, (1,), 1): ('bad', 403, '92843050209dbe38'),
    (3, (1,), 2): ('bad', 299, 'f607f52a8a20dfed'),
    (3, (1,), 3): ('bad', 509, 'a715b49c05eacd4e'),
    (3, (1,), 4): ('bad', 481, 'df18d7c14657fe7a'),
    (3, (1,), 5): ('bad', 495, 'f70fe6e9e92b066d'),
    (3, (1,), 6): ('bad', 467, '17d5d004e4518c13'),
    (3, (1,), 7): ('bad', 403, 'cc64a44d24af55d8'),
    (3, (1,), 8): ('bad', 495, 'a924a7d2e474c5fb'),
    (4, (), 1): ('finished', 684, 'b21d039648dd0875'),
    (4, (), 2): ('finished', 684, 'f70fdc0a0ffb0cb1'),
    (4, (), 3): ('finished', 684, 'ba7853c918a58d28'),
    (4, (), 4): ('finished', 684, '1d9f978ad9942361'),
    (4, (), 5): ('finished', 684, '22314434c7c88f1e'),
    (4, (), 6): ('finished', 684, '441d9c41e3ac7c74'),
    (4, (), 7): ('finished', 684, 'c32b813d341d60c1'),
    (4, (), 8): ('finished', 684, '5b2929de2a6b399d'),
    (4, (1,), 1): ('bad', 453, '6ffa3cc490893b29'),
    (4, (1,), 2): ('bad', 363, '62a595b32cd6704e'),
    (4, (1,), 3): ('bad', 585, '13372bee2b2a57ae'),
    (4, (1,), 4): ('bad', 481, '405fb77a80f94f71'),
    (4, (1,), 5): ('bad', 545, 'cb38c38a6a6e874c'),
    (4, (1,), 6): ('bad', 555, '73d3e63c53f18753'),
    (4, (1,), 7): ('bad', 557, 'af2def5ce6d3a1b2'),
    (4, (1,), 8): ('bad', 545, '1973ba076d059e39'),
}


@pytest.mark.parametrize("name,seed", sorted(FIXTURE_RUNS))
def test_fixture_runs_are_pinned(fixtures_dir, name, seed):
    assert _pin(load_program(fixtures_dir / name), seed) == FIXTURE_RUNS[name, seed]


def test_pair_program_runs_are_pinned():
    gen = load_gen()
    programs = {(n, skip): parse_program(gen.pairs_program(n, frozenset(skip)))
                for n, skip, _ in PAIR_RUNS}
    got = {(n, skip, seed): _pin(programs[n, skip], seed) for n, skip, seed in PAIR_RUNS}
    assert got == PAIR_RUNS


def _plain(x):
    """x with every environment replaced by its bindings and its parent's,
    and every named tuple by its type name and fields, so that states two
    machines build compare by what they hold."""
    if isinstance(x, Env):
        return ("Env", {k: _plain(v) for k, v in x._frame.items()}, _plain(x._parent))
    if isinstance(x, (tuple, list)):
        return (type(x).__name__, *map(_plain, x))
    return x


@pytest.mark.parametrize("name", ["program_buggy.ll", "program_fixed.ll"])
def test_step_is_advance_off_the_event_loop(fixtures_dir, name):
    # Two machines in lockstep, so that the closure uids they hand out
    # agree: step(s) == [advance(s)] on every state off the event loop, and
    # the labels along the way are the run's trace.
    program = load_program(fixtures_dir / name)
    for seed in range(1, 21):
        stepper, advancer = SteppingMachine(), SteppingMachine()
        rng = random.Random(seed)
        state, labels, steps = initial_state(program), [], 0
        while not is_terminal(state):
            if is_value(state) and not state.cont:
                with pytest.raises(ValueError):
                    advancer.advance(state)
                succs = stepper.step(state)
                assert _plain(succs) == _plain(advancer.step(state))
                label, state = succs[rng.randrange(len(state.enabled))]
            else:
                succs = stepper.step(state)
                assert _plain(succs) == _plain([advancer.advance(state)])
                label, state = succs[0]
            labels += [label] if label is not None else []
            steps += 1
        with pytest.raises(ValueError):
            stepper.step(state)
        result = run(program, Schedule(seed=seed))
        assert (tuple(labels), steps) == (result.trace.messages, result.steps)


# Budget and stuck cut-offs: run against a driver that takes every step
# through SteppingMachine.step, so that each state is packed and loaded again.

STUCK_PROGRAMS = {
    "stuck-disallowed-app": """
        let a = a#1:Activity in
        let cb = (a =>[app] unit) in
        let boot = (a =>[fwk] (disallow (bind cb a); invoke (bind cb a))) in
        invoke (bind boot a)
        """,
    "stuck-non-thunk": "let f = (x =>[fwk] (enable thk; invoke unit)) in invoke (bind f unit)",
}


def _sweep_programs():
    gen = load_gen()
    fixtures = REPO / "fixtures"
    programs = {name: load_program(fixtures / name)
                for name in ("program_buggy.ll", "program_fixed.ll")}
    for n in range(1, 7):
        for skip in (frozenset(), frozenset({(n + 1) // 2})):
            programs[f"pairs{n}-skip{sorted(skip)}"] = parse_program(gen.pairs_program(n, skip))
    programs.update((name, parse_program(text)) for name, text in STUCK_PROGRAMS.items())
    return programs


SWEEP_PROGRAMS = _sweep_programs()
SCHEDULES = [Schedule(seed=seed) for seed in range(1, 9)] + [
    parse_schedule((REPO / "fixtures" / name).read_text())
    for name in ("schedule_buggy_recorded.sched", "schedule_double_click.sched",
                 "schedule_fixed.sched")] + [parse_schedule("0,9")]  # index 9 is out of range


def _chooser(schedule):
    """The event choices of a run under schedule, as run makes them."""
    if schedule.seed is not None:
        return random.Random(schedule.seed).randrange
    picks = iter(schedule.picks)
    return lambda n: next(picks, None)


def _stepped(program, schedule, limit):
    """For each budget from 1 to limit, (status, steps, trace, reason,
    final state) of a run driven through SteppingMachine.step and cut at
    that budget; ("ScheduleError", message) from the first budget that
    reaches a pick out of range."""
    machine, choose = SteppingMachine(), _chooser(schedule)
    state, labels, steps, outcomes = initial_state(program), [], 0, []
    while True:
        if state.control is BAD:
            end = BAD_STATUS, steps, tuple(labels), "", state
            break
        at_loop = not state.cont and is_value(state)
        if at_loop:
            choice = choose(len(state.enabled)) if state.enabled else None
            if choice is None:
                end = FINISHED, steps, tuple(labels), "", state
                break
        if steps:
            outcomes.append((BUDGET_EXHAUSTED, steps, tuple(labels), "", state))
            if steps == limit:
                return outcomes
        try:
            succs = machine.step(state)
        except StuckError as e:
            end = STUCK, steps, tuple(labels), str(e), None
            break
        if at_loop:
            if not 0 <= choice < len(succs):
                end = "ScheduleError", (f"schedule index {choice} out of range for "
                                        f"{len(succs)} enabled events")
                break
        else:
            assert len(succs) == 1
            choice = 0
        label, state = succs[choice]
        labels += [label] if label is not None else []
        steps += 1
    return outcomes + [end] * (limit - len(outcomes))


def _exec_from_start(program, schedule, max_steps):
    """(status, steps, trace, reason, final state) of Machine._exec run
    from the initial state for at most max_steps steps."""
    labels, status, steps, reason, state = Machine()._exec(initial_state(program), max_steps,
                                                           _chooser(schedule))
    return status, steps, tuple(labels), reason, state


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except ScheduleError as e:
        return "ScheduleError", str(e)
    if isinstance(result, tuple):
        return result
    return result.status, result.steps, result.trace.messages, result.reason


# Every budget up to SWEEP_BUDGET runs: the first let-heavy steps of each
# program, where the machine runs a let in one pass of its loop, end at
# every step of every let.
SWEEP_BUDGET = 60


def _check_cut_offs(program, schedule):
    """At every budget from 1 to SWEEP_BUDGET and one step either side of
    the run's length (without its bad pick, if any), run ends as the
    stepped driver does, and Machine._exec from the initial state stops in
    the state that as many single steps reach, compared with the two
    machines in lockstep so that the closure uids they hand out agree.
    Returns how the full run ends: its status, or "ScheduleError"."""
    full = _outcome(run, program, schedule)
    ended = full[0]
    if ended == "ScheduleError":
        # The bad pick is read where the run without it finishes.
        full = _outcome(run, program, Schedule(picks=schedule.picks[:-1]))
    steps = full[1]
    budgets = sorted(set(range(1, SWEEP_BUDGET + 1)) | {steps - 1, steps, steps + 1} - {0})
    stepped = _stepped(program, schedule, budgets[-1])
    for budget in budgets:
        want = stepped[budget - 1]
        assert _outcome(run, program, schedule, budget) == want[:4], (schedule, budget)
        assert _plain(_outcome(_exec_from_start, program, schedule, budget)) == _plain(want), \
            (schedule, budget)
    return ended


# The sha256 of repr(parse_program(text)) of each program above, recorded
# with the two-pass front end that the one-pass parser replaced: a
# temporary numbered differently or an operand left compound changes a pin.
LOWERED = {
    'program_fixed.ll':
        'a7645b373313e81fa0ac3297a98c3c738c41394b10c28e723ed6c9ed22db01fd',
    'program_buggy.ll':
        'f0c33435507f2e46632930ded4ae2441ef26c2537acd5442ee47fe45c9140127',
    'stuck-disallowed-app':
        '2476522ddd7a46862f5594da74e2aa22d843079278ca9286d6f252ad43cbdc55',
    'stuck-non-thunk':
        '1e15c61d62cb7b9f87c457bbf768fff11434c95846b9ceeb9886e616ee606e6a',
    'pairs1-skip[]':
        'dc65d6b860d370cfd0ddcd2438da59e414e6431df9cb69034f2f1ddd3e3ad58e',
    'pairs1-skip[1]':
        'bcda23b531d5ac7b08f8df54cd30675acb1f256ad0ff9cc53e5c619a7562c3e3',
    'pairs2-skip[]':
        '73174aafe5391319d1bdd2015cf56556afca6c8bb0821f0e9a597501d720cff7',
    'pairs2-skip[1]':
        '2f3a4d03aac08bbc98d30dad42b6b31b459e3cf49d0ccd7115c85c7e51111d09',
    'pairs3-skip[]':
        '1f754506837d1f8d188860de089de64599a92626cc14eeb8a45fe672c9fd43df',
    'pairs3-skip[2]':
        '78bc52f6bda9d54a8a9a4e549420a701fe3b03af9479fb9bfe08e5afaf917f82',
    'pairs4-skip[]':
        'd14f9fc868da5982f371a2ec21b8019afc7ea429c89ff699af31d44e448ad7c4',
    'pairs4-skip[2]':
        'ec8deb6f0a939e74973c22f01e386c866aee828be35bffe19be7647b86d10811',
    'pairs5-skip[]':
        '512d1f18ce8040b8356a178d9c9b7b3319bb7c1201da1c756bd20dc048694446',
    'pairs5-skip[3]':
        'c333e80b3474b4fdb1f3f52d30ef290887eba0b4be06048effbe9a2c72ee6e00',
    'pairs6-skip[]':
        'ff1e6e4a78678c14530d1c728b6f4a7d92e1cd3f40006fb4805add9b8aeece8a',
    'pairs6-skip[3]':
        '2df6a67e976f04c3c84fc14762d770d68ac92a0a10b7ad08a2e28663f2e9679b',
}


@pytest.mark.parametrize("name", sorted(SWEEP_PROGRAMS))
def test_lowered_programs_are_pinned(name):
    digest = hashlib.sha256(repr(SWEEP_PROGRAMS[name]).encode()).hexdigest()
    assert digest == LOWERED[name]


@pytest.mark.parametrize("name", sorted(SWEEP_PROGRAMS))
def test_run_equals_a_stepped_driver_at_every_cut_off(name):
    statuses = {_check_cut_offs(SWEEP_PROGRAMS[name], schedule) for schedule in SCHEDULES}
    # The full runs end every way but by the budget, and every program
    # that does not get stuck first reads the out-of-range pick.
    assert statuses & {BAD_STATUS, FINISHED, STUCK}
    assert BUDGET_EXHAUSTED not in statuses
    assert "ScheduleError" in statuses or statuses == {STUCK}


# Generated programs (tests/gen.py random_program), each under three seeded
# schedules, against the same driver at the same budgets.

RANDOM_PROGRAMS = [parse_program(random_program(random.Random(seed))) for seed in range(200)]
SURFACE_FORMS = {"let", ";", "if", "app function", "fwk function", "function of two",
                 "thk", "variable", "unit", "true", "false", "Int", "ObjectId",
                 "bind", "invoke", "enable", "disable", "allow", "disallow",
                 "newcell", "get", "set", "add", "eq"}


def _forms(expr):
    """The surface forms that a lowered program is made of."""
    t = type(expr)
    if t is ELet:
        return {";" if expr.var == "%seq" else "let"} | _forms(expr.bound) | _forms(expr.body)
    if t is EIf:
        return {"if"} | _forms(expr.cond) | _forms(expr.then) | _forms(expr.orelse)
    if t is ELam:
        forms = {f"{expr.package} function"} | _forms(expr.body)
        return forms | {"function of two"} if len(expr.params) > 1 else forms
    if t is EPrim:
        return {expr.op}.union(*map(_forms, expr.operands))
    if t is ELit:
        value = expr.value
        return {str(value) if type(value) in (Unit, Bool) else type(value).__name__}
    return {"thk"} if t is EThk else {"variable"} if t is EVar else {t.__name__}


def test_random_programs_use_every_surface_form():
    assert set().union(*map(_forms, RANDOM_PROGRAMS)) == SURFACE_FORMS


@pytest.mark.parametrize("first", range(0, len(RANDOM_PROGRAMS), 50))
def test_run_equals_a_stepped_driver_on_random_programs(first):
    statuses = {_check_cut_offs(program, Schedule(seed=seed))
                for program in RANDOM_PROGRAMS[first:first + 50] for seed in (1, 2, 3)}
    assert statuses == {BAD_STATUS, FINISHED, STUCK}
