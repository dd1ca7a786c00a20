"""A fixed yardstick of CPU speed, timed while the measured code runs.

The machine a benchmark runs on is shared, so its speed drifts by tens of
percent between and within runs.  :class:`Sampler` times one pass of a
fixed kernel every ``INTERVAL_S`` seconds of process CPU time from a
``SIGPROF`` handler, i.e. interleaved with the work being measured; dividing
the work's time (less the kernel's own) by the mean pass time cancels most
of that drift.  On 4x6 exact solves the per-frame spread between runs fell
from 9-13% (raw, or divided by kernel passes timed just before and after
the frame) to 2-4%.  A CPU-time timer spaces the passes evenly over the
time the process runs; a wall-clock timer fires late after the process was
descheduled and so over-samples those moments.

The kernel does the same kind of work as the solvers' hot loop -- pivots of
a dense primal simplex on a fixed 40-row linear program, i.e. short numpy
calls on small arrays driven by a Python loop -- but it is the benchmark's
own code and calls nothing from ``mecoffload``, so no change to the program
can speed up the yardstick itself.

A short set-up in a fresh interpreter is mostly start-up and imports,
which the in-process kernel does not track (a pass's time differs by up to
2x between fresh processes on one machine, while start-up costs do not
follow).  Its yardstick is a fresh process too: this module run as a
script, timed just before each set-up.  Over 14 alternating pairs during a
1.6x speed shift, set-up alone spread 22% (CV) and its ratio to the
yardstick 11%.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

_ROWS, _COLS = 40, 50
_PIVOTS = 40
#: Seconds of process CPU time between two timed passes inside measured code.
INTERVAL_S = 0.05
#: Pass time in seconds that normalised times are quoted against: about one
#: pass on the 2-core x86-64 machine the reference figures in README.md
#: come from.  It only fixes the unit; every comparison uses the same
#: constant on both sides.
NOMINAL_S = 0.001
#: Passes run by this module as a script: the yardstick process for set-up.
START_PASSES = 20
#: Wall seconds that set-up times are quoted against: about one run of this
#: module as a script (interpreter start, numpy import, ``START_PASSES``
#: passes) on the same machine.
START_NOMINAL_S = 0.25

_rng = np.random.default_rng(20220318)
_A = np.hstack([_rng.uniform(0.0, 1.0, (_ROWS, _COLS)), np.eye(_ROWS)])
_B = _rng.uniform(1.0, 2.0, _ROWS)
_C = np.concatenate([-_rng.uniform(0.5, 1.5, _COLS), np.zeros(_ROWS)])


def kernel(passes: int = 1) -> float:
    """Simplex passes from the slack basis; returns the objective reached so
    no work can be skipped."""
    total = 0.0
    for _ in range(passes):
        basis = list(range(_COLS, _COLS + _ROWS))
        b_inv = np.eye(_ROWS)
        x_b = _B.copy()
        for _ in range(_PIVOTS):
            y = _C[basis] @ b_inv
            reduced = _C - y @ _A
            entering = int(np.argmin(reduced))
            if reduced[entering] > -1e-12:
                break
            col = b_inv @ _A[:, entering]
            ratios = np.where(col > 1e-12, x_b / np.where(col > 1e-12, col, 1.0), np.inf)
            leave = int(np.argmin(ratios))
            step = ratios[leave]
            x_b -= step * col
            x_b[leave] = step
            row = b_inv[leave] / col[leave]
            col[leave] = 0.0
            b_inv -= np.outer(col, row)
            b_inv[leave] = row
            basis[leave] = entering
        total += float(_C[basis] @ x_b)
    return total


def pass_seconds(passes: int = 1) -> float:
    """Wall seconds per pass, over ``passes`` passes run now."""
    t0 = time.perf_counter()
    kernel(passes)
    return (time.perf_counter() - t0) / passes


class Sampler:
    """Context manager that times one pass every ``INTERVAL_S`` CPU seconds.

    The handler runs between bytecodes of the main thread, so it never
    interrupts a numpy call halfway.  ``times`` holds the pass times; their
    sum is wall time the measured code did not use.  ``on_pass``, if given,
    is called with each pass time as it is taken.
    """

    def __init__(self, on_pass=None) -> None:
        self.times: list[float] = []
        self._on_pass = on_pass
        self._previous = None

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)

    def _tick(self, signum, frame) -> None:
        seconds = pass_seconds()
        self.times.append(seconds)
        if self._on_pass is not None:
            self._on_pass(seconds)


def factor(times) -> float:
    """Multiplier from raw seconds to seconds at the nominal pass time."""
    return NOMINAL_S / statistics.fmean(times)


if __name__ == "__main__":
    kernel(START_PASSES)
