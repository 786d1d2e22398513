"""What a run produces, pinned, and the one stepper behind it.

The pins are (status, steps, the first 16 hex digits of the sha256 of the
serialized trace) of seeded runs, recorded with the frozen-dataclass
machine that the table-driven Machine.advance replaced: both fixture
programs under seeds 1-20, and the benchmark's pair programs
(perfbench/gen.py pairs_program(n, skip)) for n = 1..4, with no pair and
with pair 1 skipping setEnabled, under seeds 1-8.  A rule that changes
what a run labels, or merges or splits a step, changes a pin."""

import hashlib
import importlib.util
import pathlib
import random

import pytest

from lifeguard.interp import (
    BAD,
    BAD_STATUS,
    BUDGET_EXHAUSTED,
    FINISHED,
    STUCK,
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
from lifeguard.messages import serialize_trace

REPO = pathlib.Path(__file__).resolve().parent.parent


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", REPO / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


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
    gen = _load_gen()
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
        stepper, advancer = Machine(), Machine()
        rng = random.Random(seed)
        state, labels, steps = initial_state(program), [], 0
        while not state.is_terminal():
            if state.is_value() and not state.cont:
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
# through Machine.step, so that each state is packed and loaded again.

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
    gen = _load_gen()
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


def _stepped(program, schedule, max_steps):
    """(status, steps, trace, reason) of a run driven through Machine.step."""
    machine = Machine()
    state = initial_state(program)
    rng = random.Random(schedule.seed) if schedule.seed is not None else None
    picks = iter(schedule.picks or ())
    labels, steps = [], 0
    while True:
        if state.control is BAD:
            return BAD_STATUS, steps, tuple(labels), ""
        at_loop = not state.cont and state.is_value()
        if at_loop:
            choice = None if not state.enabled else (
                next(picks, None) if rng is None else rng.randrange(len(state.enabled)))
            if choice is None:
                return FINISHED, steps, tuple(labels), ""
        if steps == max_steps:
            return BUDGET_EXHAUSTED, steps, tuple(labels), ""
        try:
            succs = machine.step(state)
        except StuckError as e:
            return STUCK, steps, tuple(labels), str(e)
        if at_loop:
            if not 0 <= choice < len(succs):
                raise ScheduleError(f"schedule index {choice} out of range for "
                                    f"{len(succs)} enabled events")
        else:
            assert len(succs) == 1
            choice = 0
        label, state = succs[choice]
        labels += [label] if label is not None else []
        steps += 1


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except ScheduleError as e:
        return "ScheduleError", str(e)
    if isinstance(result, tuple):
        return result
    return result.status, result.steps, result.trace.messages, result.reason


@pytest.mark.parametrize("name", sorted(SWEEP_PROGRAMS))
def test_run_equals_a_stepped_driver_at_every_cut_off(name):
    program = SWEEP_PROGRAMS[name]
    statuses = set()
    for schedule in SCHEDULES:
        full = _outcome(run, program, schedule)
        statuses.add(full[0])
        if full[0] == "ScheduleError":
            # The bad pick is read where the run without it finishes.
            full = _outcome(run, program, Schedule(picks=schedule.picks[:-1]))
        steps = full[1]
        for budget in sorted({1, 2, 3, 17, steps - 1, steps, steps + 1} - {0}):
            assert _outcome(run, program, schedule, budget) == \
                _outcome(_stepped, program, schedule, budget), (schedule, budget)
    # The full runs end every way but by the budget, and every program
    # that does not get stuck first reads the out-of-range pick.
    assert statuses & {BAD_STATUS, FINISHED, STUCK}
    assert BUDGET_EXHAUSTED not in statuses
    assert "ScheduleError" in statuses or statuses == {STUCK}
