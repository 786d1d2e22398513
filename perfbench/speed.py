"""The machine's current speed, measured by a fixed piece of work.

This shared machine runs the same code at different speeds, for seconds
or for minutes at a time (README, Steadiness).  The benchmark therefore
times a fixed calibration workload, which does not involve lifeguard,
before and after every set-up and every operation, and reports each
step's time as it would be at the reference speed:

    scaled time = measured time * REFERENCE_S / calibration time

where the calibration time is the mean of the one just before and the
one just after the step; a rate is divided by the same factor.  A change
to lifeguard does not change the calibration, so it moves a scaled figure
exactly as it moves the measured one.
"""

from __future__ import annotations

import gc
import time

# One pass of the calibration work on the machine the README's figures
# come from, in its usual state; fixed so that runs compare.
REFERENCE_S = 0.0065
# Passes timed together.  The speed also flickers within milliseconds, so
# one calibration averages several passes.
REPEATS = 8


def _work() -> int:
    """Tuples and frozensets as dict keys, list appends and short strings:
    the kind of work lifeguard's grounding and automata do."""
    table: dict = {}
    for i in range(6000):
        key = (i % 97, frozenset((i % 5, i % 11, i % 13)))
        table.setdefault(key, []).append(str(i))
    return sum(len(key[1]) + sum(map(len, values)) for key, values in table.items())


def calibrate() -> float:
    """The mean time of one pass over REPEATS passes, after one untimed
    pass that warms the allocator.  The garbage collector is off
    meanwhile, so that the size of the benchmark's own heap does not
    enter."""
    gc.disable()
    try:
        _work()
        start = time.perf_counter()
        for _ in range(REPEATS):
            _work()
        return (time.perf_counter() - start) / REPEATS
    finally:
        gc.enable()


class Scaler:
    """Calibrates after each measured step, and gives the step's factor
    from the calibrations on either side of it."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.factors: list[float] = []

    def step(self) -> float:
        before, self.last = self.last, calibrate()
        factor = REFERENCE_S / ((before + self.last) / 2)
        self.factors.append(factor)
        return factor
