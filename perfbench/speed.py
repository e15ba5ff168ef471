"""Machine-speed calibration for timings taken on a shared host.

On a shared machine the speed a process gets drifts by 10-20 % over
tens of seconds, with other tenants' load, which no amount of repetition
inside one run averages away.  :class:`Pacer` therefore interleaves a
fixed, ``repro``-independent probe (:class:`Probe`) with the
measured work: it runs one probe whenever :attr:`Pacer.interval`
seconds of work have passed, keeps probe time out of the work clock, and
scales every timing by the speed the probes saw around it.  A timing so
scaled reads as it would on a machine where one probe takes
:data:`PROBE_REF_S`; a change to the program moves it, a neighbour's
load does not.
"""

import bisect
import random
import time

#: Nominal seconds of one probe; normalised timings are expressed at
#: the machine speed where a probe takes exactly this long.
PROBE_REF_S = 0.010
#: Probes nearest to a timed interval that set its speed factor.
WINDOW = 8


class Probe:
    """A fixed ~10 ms of interpreter work, in three parts.

    Bisection and dict lookups over a small key set (cache-resident, as
    the program's per-block work is) and over a large one (cache-missing,
    as its index seeks over a whole table are), and building then
    sorting small dicts (allocation-heavy, as parsing and planning are).
    Neighbours' load slows the three differently, and the program does
    all three.
    """

    def __init__(self):
        rng = random.Random(0)
        self.lookups = []
        for keys, lookups in ((4_096, 6_000), (200_000, 3_000)):
            ordered = sorted(rng.randbytes(8) for _ in range(keys))
            self.lookups.append((ordered,
                                 {key: i for i, key in enumerate(ordered)},
                                 [rng.choice(ordered)
                                  for _ in range(lookups)]))
        self.words = [rng.choice(("select", "from", "where", "and", "t.id",
                                  "mc.note", "=", "'x'", "(", ")"))
                      for _ in range(2_500)]

    def __call__(self):
        total = 0
        for keys, index, lookups in self.lookups:
            for key in lookups:
                total += index[keys[bisect.bisect_left(keys, key)]]
        tokens = [{"kind": word, "at": i, "text": word.upper() + str(i)}
                  for i, word in enumerate(self.words)]
        tokens.sort(key=lambda token: (token["kind"], token["at"]))
        return total + len(tokens)


class Pacer:
    """Work clock with interleaved speed probes."""

    def __init__(self, probe, interval=0.08):
        self.interval = interval
        self._probe = probe
        self._probe()                  # warm
        self._paused = 0.0             # probe seconds, off the work clock
        self._last = self.now()
        self.times = []                # work clock at each probe
        self.durations = []            # seconds of each probe

    def now(self):
        """Seconds of work so far: wall clock minus probe time."""
        return time.perf_counter() - self._paused

    def probe(self, count=1):
        """Run ``count`` probes now."""
        for _ in range(count):
            start = time.perf_counter()
            self._probe()
            seconds = time.perf_counter() - start
            self._paused += seconds
            self.times.append(self.now())
            self.durations.append(seconds)
        self._last = self.now()

    def tick(self):
        """Probe if an interval of work has passed since the last one."""
        if self.now() - self._last >= self.interval:
            self.probe()

    def factor(self, start=None, end=None):
        """Speed factor for the work interval [start, end] of the clock.

        ``PROBE_REF_S`` over the mean duration of the :data:`WINDOW`
        probes nearest to the interval's midpoint; over all probes when
        no interval is given.
        """
        if not self.durations:
            raise RuntimeError("no speed probes taken")
        if start is None:
            chosen = self.durations
        else:
            middle = (start + end) / 2
            at = bisect.bisect_left(self.times, middle)
            lo = max(0, min(at - WINDOW // 2, len(self.times) - WINDOW))
            chosen = self.durations[lo:lo + WINDOW]
        return PROBE_REF_S * len(chosen) / sum(chosen)
