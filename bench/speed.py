"""Machine-speed calibration for the end-to-end timings.

The speed of the shared machine the benchmark was written on drifts by a
fifth and more over tens of seconds (two vCPUs of an Intel Xeon; no steal
time, so it is the host, not the scheduler): twelve identical torus passes
took 8.3 to 14.2 s of wall time, an interquartile range of 0.30 of the
median.  A fixed calibration task timed between analyses tracks that drift:
scaling each analysis's wall time by REFERENCE_S over the calibration time
around it cut the spread of those twelve passes to 0.08.  So audit_s and
setup_s read as seconds at a reference speed of that machine; the raw wall
times stay in every run record.

The task mixes the two kinds of work the program does, small Python objects
stepped one at a time and numpy/scipy distance sweeps, and uses no code of
the repository outside bench/, so a change to the program moves the
timings and not the calibration.
"""

import statistics
import time

import numpy as np
from scipy.spatial import distance

ROUNDS = 4
REFERENCE_S = 0.042   # calibration_s() in a typical phase of that machine

_A = np.random.default_rng(0).random((500, 1))


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x % 1.0
        self.y = y % 1.0

    def step(self):
        return _Point(self.x + 0.6180339887, self.y + self.x)


def _objects():
    points = [_Point(i / 1000.0, 0.0) for i in range(1000)]
    for _ in range(40):
        points = [p.step() for p in points]


def _arrays():
    m = distance.cdist(_A, _A, "cityblock")
    for k in range(12):
        d = distance.cdist(_A + 0.01 * k, _A, "cityblock")
        np.minimum(d, 1.0 - d, out=d)
        np.minimum(m, d, out=m)


def calibration_s():
    """Median wall time of ROUNDS rounds of the calibration task; the
    median keeps a round cut by a brief stall from moving the scale."""
    times = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        _objects()
        _arrays()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def at_reference(wall_s, calibrations):
    """Wall times of consecutive steps scaled to the reference speed;
    calibrations[i] and calibrations[i + 1] bracket step i."""
    return sum(w * 2.0 * REFERENCE_S / (calibrations[i] + calibrations[i + 1])
               for i, w in enumerate(wall_s))
