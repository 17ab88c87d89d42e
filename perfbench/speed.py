"""Host-speed calibration for timings taken on a shared, noisy host.

On a host shared with other tenants the same Python code runs up to 1.5x
slower for stretches of several seconds, so run-to-run spreads of raw wall
times exceed any useful bound.  Each timing is therefore scaled by a
reference task of the same kind, timed just before and just after it:

- a library call by a fixed pure-Python loop (tuple hashing and dict
  inserts, like the engine's hot path): CAL_REF_S / loop time;
- a subprocess by a bare interpreter start (`python -c pass`), which shares
  the exec, import-system and page-fault costs that the loop does not see:
  START_REF_S / start time.

A scaled figure reads as the time the call would take on a host where the
reference task takes its reference time.  Neither reference task touches
the program under test, so scaled times move with the program's speed and
not the host's.
"""

from __future__ import annotations

import gc
import math
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

#: The loop's duration that scaled times refer to (about its quiet-host time).
CAL_REF_S = 0.0005
#: The bare interpreter start that scaled subprocess times refer to.
START_REF_S = 0.06
#: Calibrate at most this often between short calls (a point costs ~1.5 ms).
TICK_EVERY_S = 0.02


def _loop() -> int:
    table = {}
    for i in range(1500):
        key = (i, i >> 3, "k")
        table[key] = hash(key) ^ i
    return len(table)


def calibration_s() -> float:
    """Fastest of three runs of the loop, with the cyclic collector paused so
    that the program's heap cannot charge its collections to the loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class Speedometer:
    """Calibration points taken between timed calls.

    `tick()` before each call takes a point when TICK_EVERY_S has passed
    since the last one; `tick(force=True)` after the last call closes the
    series.  `scaled(start, seconds)` scales a call by the mean of the
    points just before and just after it.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.values: list[float] = []

    def tick(self, force: bool = False) -> None:
        if force or not self.times or time.perf_counter() - self.times[-1] >= TICK_EVERY_S:
            value = calibration_s()
            self.times.append(time.perf_counter())
            self.values.append(value)

    def factor(self, start: float, end: float) -> float:
        before = max(0, bisect_right(self.times, start) - 1)
        after = min(len(self.times) - 1, bisect_left(self.times, end))
        return CAL_REF_S / ((self.values[before] + self.values[after]) / 2)

    def scaled(self, start: float, seconds: float) -> float:
        return seconds * self.factor(start, start + seconds)


def interpreter_start_s(**run_args) -> float:
    """Wall time of `python -c pass`, with the subprocess arguments given."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, check=True, **run_args)
    return time.perf_counter() - start


def time_subprocesses(commands: list[list[str]], **run_args):
    """Run each command in turn, one at a time, bracketed by bare starts.

    Returns (completed process, wall seconds, wall seconds scaled to
    START_REF_S) for each command.
    """
    starts = [interpreter_start_s(**run_args)]
    runs = []
    for command in commands:
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, **run_args)
        runs.append((proc, time.perf_counter() - start))
        starts.append(interpreter_start_s(**run_args))
    return [
        (proc, wall, wall * START_REF_S / ((starts[i] + starts[i + 1]) / 2))
        for i, (proc, wall) in enumerate(runs)
    ]
