"""Machine-speed calibration, timed alongside the program.

The benchmark runs on shared hosts whose speed drifts by up to 1.6x
within minutes, and the program's times drift with it. To take that out,
a fixed unit of reference work is timed in the same process, interleaved
with the program: after every timed operation the calibrator runs units
until their total time reaches ``FRACTION`` of the program's time since
the window opened. So the units sample the machine in the same spells as
the program, in proportion to how long the program ran in each.

A time is then reported at the reference speed: the measured time times
``REFERENCE_UNIT_S`` over the mean time of one unit in the same window.
A change to the program moves the reported time by the same share as the
measured one; a slower or faster spell of the machine slows or speeds the
program and the unit alike, and cancels.

The unit is the benchmark's own: the QRE residual of a fixed 3-agent game
by :mod:`refeval` (small numpy arrays and one linear solve) and a short
pure-Python loop, the mix of interpreter work and numpy calls that the
solvers make. It imports nothing from ``maxent_marl``, so no change to the
program can move it.
"""

from __future__ import annotations

import math
import time

import numpy as np

import refeval

FRACTION = 0.2
# One unit's time on the machine the reference figures of README.md were
# measured on (a 2.1 GHz Xeon vCPU, Python 3.11, numpy 2.4).
REFERENCE_UNIT_S = 2.0e-4
_COUNTS = (3, 3, 3)
_STATES = 4
_LOOP = 300
_WARM_UP = 50


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(20240)
        joint = math.prod(_COUNTS)
        self._reward = rng.uniform(-1.0, 1.0, size=(_STATES, joint))
        transition = rng.uniform(size=(_STATES, joint, _STATES))
        self._transition = transition / transition.sum(axis=2, keepdims=True)
        self._policies = [rng.dirichlet(np.ones(c), size=_STATES) for c in _COUNTS]
        for _ in range(_WARM_UP):
            self._unit()
        self.unit_times = []  # mean unit time of every closed window
        self._open()

    def _open(self):
        self._program_s = 0.0
        self._units_s = 0.0
        self._units = 0

    def _unit(self):
        refeval.qre_residual(self._reward, self._transition, 0.9, self._policies, 1.0)
        total = 0
        for i in range(_LOOP):
            total += i * i
        return total

    def follow(self, program_s):
        """Count ``program_s`` of program time, then top the units up to their share."""
        self._program_s += program_s
        while self._units_s < FRACTION * self._program_s:
            started = time.perf_counter()
            self._unit()
            self._units_s += time.perf_counter() - started
            self._units += 1

    def close(self):
        """The factor that brings this window's times to the reference speed; opens the next."""
        unit_s = self._units_s / self._units
        self.unit_times.append(unit_s)
        self._open()
        return REFERENCE_UNIT_S / unit_s
