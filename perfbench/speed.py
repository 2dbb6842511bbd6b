"""Speed probe: scales wall times to a reference machine speed.

On the shared 2-core x86-64 VM this benchmark was tuned on, a vCPU has
phases lasting tens of seconds in which it runs 30-50% slower, in user
time as much as in wall time.  Unscaled, the desk job's median moved by
25% (quartile spread over median) across ten runs.  A fixed probe timed
during the job tracks those phases: over 14 desk jobs in one process,
dividing each job's time by its median probe result cut the quartile
spread from 33% to 6%.  The probe is the geometric mean of a Python loop
and a numpy pass, because the jobs mix both kinds of work; the numpy
pass alone left 12%.

A scaled time is ``(wall - time spent probing) * PROBE_REF_S / median
probe result``: seconds at the speed where one probe takes
``PROBE_REF_S`` (its usual result on that host).  The probe does not
touch rtetomo, so a change to the package cannot move it.
"""

import signal
import statistics
import time

import numpy as np

PROBE_REF_S = 1.6e-3
PROBE_PERIOD_S = 0.25
_DATA = np.linspace(0.0, 1.0, 1 << 18)


def probe():
    """(result, seconds spent): the result is the geometric mean of the
    seconds a pure-Python loop and a 2 MB numpy elementwise pass take."""
    t0 = time.perf_counter()
    x = 0
    for i in range(15000):
        x += i * i
    t1 = time.perf_counter()
    np.exp(_DATA * 0.5 + 1.0)
    t2 = time.perf_counter()
    return ((t1 - t0) * (t2 - t1)) ** 0.5, t2 - t0


def scale(wall, samples, spent=0.0):
    """``wall`` minus ``spent``, scaled by the median of the probe ``samples``."""
    return (wall - spent) * PROBE_REF_S / statistics.median(samples)


class SpeedProbe:
    """Probe once on entry and then every ``PROBE_PERIOD_S`` seconds until
    exit, from a SIGALRM handler in this (the main) thread.

    The handler runs between bytecodes of whatever the job is doing, so
    it samples the CPU the job runs on; ``spent`` is the time the
    handler took, which :func:`scale` removes from the job's wall time.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, _signum, _frame):
        took, spent = probe()
        self.samples.append(took)
        self.spent += spent

    def __enter__(self):
        self.samples = [probe()[0]]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *_exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, wall):
        return scale(wall, self.samples, self.spent)


def report_after_import():
    """For the set-up measurement: probe five times and print the probe
    results and the time spent probing, so the parent can scale the
    interpreter's wall time."""
    runs = [probe() for _ in range(5)]
    print(" ".join(repr(took) for took, _ in runs), sum(spent for _, spent in runs))
