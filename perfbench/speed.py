"""Wall clock with a machine-speed probe, for timing on a shared host.

On a few vCPUs of a shared host the same computation runs up to 1.5x slower
for stretches of five to sixty seconds, because of other tenants.  A run of
tens of seconds therefore lands in a slow stretch or a fast one, and its wall
time says as much about the neighbours as about qbmag.

The probe measures that speed while the benchmark runs.  It times a fixed
reference computation, one *unit*, that shares no code with qbmag but does
the same kind of work: ``scipy.integrate.quad`` over a Python integrand on
numpy scalars, and numpy expressions on small arrays.  Units run from a
SIGALRM handler every ``interval`` seconds inside the operations, or in
bursts between them when the operation's work runs in other processes.  The
time spent in units is taken out of each operation's wall time.

``cost`` gives an operation both its net wall time and that time in
*reference seconds*: the net wall time divided by 1000 times the mean unit
duration around the operation.  One reference second is the machine time of
1000 units, so a qbmag change moves it while a slower neighbour moves both
sides of the ratio.
"""

import bisect
import math
import signal
from time import perf_counter

import numpy as np
from scipy import integrate

#: units are looked up this many seconds either side of an operation
WINDOW_S = 0.5

#: share of the slowest and of the fastest unit durations dropped from a
#: window's mean; a unit the scheduler interrupts reads far too long
TRIM = 0.1

_X = np.linspace(0.0, 3.0, 2000)


def _integrand(u, a):
    u = np.float64(u)
    z = np.exp(-a * u) * np.exp(3j * u) / (1.0 + u * u)
    return float(z.real + 0.1 * abs(z))


def reference_unit():
    """The fixed reference computation, about 0.7 ms on a 2-vCPU Xeon VM."""
    s = 0.0
    for k in range(2):
        s += integrate.quad(_integrand, 0.0, 8.0 + k, args=(0.1 * k,))[0]
        s += float(np.sum(np.exp(-_X * (k + 1)) * np.cos(_X)))
    return s


class Clock:
    """Marks and costs of operations; probes the machine speed when told to."""

    def __init__(self):
        self.times = []  # end time of each unit
        self.durations = []  # duration of each unit
        self.spent = 0.0  # seconds spent in units so far

    def _unit(self, *_):
        start = perf_counter()
        reference_unit()
        end = perf_counter()
        self.times.append(end)
        self.durations.append(end - start)
        self.spent += end - start

    def burst(self, n):
        for _ in range(n):
            self._unit()

    def start(self, interval):
        """Run a unit every ``interval`` seconds until ``stop``."""
        signal.signal(signal.SIGALRM, self._unit)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return perf_counter(), self.spent

    def cost(self, start, end):
        """(net wall seconds, reference seconds) between two marks.

        Reference seconds are None when no unit ran near the interval.  Call
        this after the probing has stopped, so that the window after the
        interval is complete.
        """
        net = (end[0] - start[0]) - (end[1] - start[1])
        lo = bisect.bisect_left(self.times, start[0] - WINDOW_S)
        hi = bisect.bisect_right(self.times, end[0] + WINDOW_S)
        window = sorted(self.durations[lo:hi])
        if not window:
            return net, None
        cut = int(TRIM * len(window))
        kept = window[cut : len(window) - cut] or window
        return net, net / (1000.0 * math.fsum(kept) / len(kept))


def split(cost, n):
    """Each of ``n`` operations' share of one (wall_s, ref_s) cost."""
    wall, ref = cost
    return wall / n, None if ref is None else ref / n
