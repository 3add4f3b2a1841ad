"""Machine-speed sampling, so that timings survive a noisy shared host.

On a shared machine the same code runs up to twice as slow for tens of
seconds at a time, and medians over a run do not remove that. A timer
signal therefore interrupts the measuring process every PERIOD_S and runs a
fixed pure-Python snippet, recording how long it took. The snippet's time is
removed from the clock the benchmark times with (clock()), and a timing is
rescaled to the reference speed, at which the snippet takes REFERENCE_S:

    scaled = net seconds * REFERENCE_S / (mean snippet time near the interval)

The snippet is the benchmark's own code, so a change to the library moves
scaled and unscaled times alike. On the shared 2-core machine used to choose
the bounds, snippet and library timings correlated at 0.91-0.94 over 0.5-2 s
intervals, and scaling cut the spread of 10-20 s averages from 0.1-0.3 to
0.01-0.05 of their median.
"""

import bisect
import signal
import time

PERIOD_S = 0.05
REFERENCE_S = 1.5e-3   # fixed for good: changing it rescales every metric
WINDOW_S = 0.5         # samples this close to an interval describe its speed
CALIBRATION_RUNS = 30  # snippet runs behind calibrate()'s median


def snippet():
    """Fixed interpreter work: arithmetic, dict and list stores, indexing."""
    x = 0.0
    d = {}
    cells = [0.0] * 64
    for i in range(6000):
        x += i * 0.5
        d[i & 63] = x
        cells[i & 63] = abs(x - cells[(i + 1) & 63])
    return x


def calibrate():
    """The speed factor from CALIBRATION_RUNS snippet runs in a row: for a
    short interval just timed, such as set-up, where timer samples would be
    few."""
    costs = []
    for _ in range(CALIBRATION_RUNS):
        start = time.perf_counter()
        snippet()
        costs.append(time.perf_counter() - start)
    return REFERENCE_S / sorted(costs)[CALIBRATION_RUNS // 2]


class SpeedSampler:
    def __init__(self):
        self.times = []    # clock() at each sample
        self.costs = []    # seconds the snippet took
        self.stolen = 0.0  # total seconds spent in samples

    def clock(self):
        """perf_counter() minus the time spent in samples."""
        while True:
            before = self.stolen
            now = time.perf_counter()
            if self.stolen == before:
                return now - before

    def _sample(self, signum, frame):
        start = time.perf_counter()
        snippet()
        cost = time.perf_counter() - start
        self.times.append(start - self.stolen)
        self.costs.append(cost)
        self.stolen += cost

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self):
        """The machine's median speed over the samples, as a share of the reference."""
        costs = sorted(self.costs)
        return REFERENCE_S / costs[len(costs) // 2]

    def factor(self, t0, t1):
        """REFERENCE_S over the mean snippet time within WINDOW_S of [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo == hi:  # no sample close by: take the nearest one
            lo = min(lo, len(self.costs) - 1)
            hi = lo + 1
        costs = self.costs[lo:hi]
        return REFERENCE_S * len(costs) / sum(costs)
