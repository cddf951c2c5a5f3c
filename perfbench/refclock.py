"""A clock that reads time at a fixed reference speed of the interpreter.

The benchmark runs on a shared host whose speed is not steady: for spells
of a tenth of a second to a minute, other tenants slow every instruction of
this process by up to 1.8x, and the slowdown shows in its CPU time as much
as in wall time.  Neither a median nor a minimum over a run removes a spell
that lasts the whole run.

`RefClock` therefore times a small fixed piece of pure-Python work, the
probe, every INTERVAL_S (from a SIGALRM handler, so inside long slimlat
calls too) and at every reading.  Between two probes, elapsed time is
scaled by PROBE_REF_S over the mean of the two probe times, so a stretch
the host ran at half speed counts half.  The probes' own time is left out.
A reading is therefore the time the work would have taken at the speed
where one probe takes PROBE_REF_S; on a steady host that is close to plain
wall time.  The probe never touches slimlat, so a change to slimlat moves
these readings as much as it moves wall time.
"""

from __future__ import annotations

import signal
import time

PROBE_REF_S = 0.001     # reference time of one probe
INTERVAL_S = 0.025      # probe period; probes cost about 5 % of the run

# Down-sets of the 5 x 5 grid poset, as bitmasks over its 25 cells.
_CELLS = [(i, j) for i in range(5) for j in range(5)]
_DOWN = [
    sum(1 << t for t, (a, b) in enumerate(_CELLS) if a <= i and b <= j)
    for i, j in _CELLS
]
_SIZE = [bin(d).count("1") for d in _DOWN]
_JOIN = [0] * len(_DOWN) ** 2


def probe_work():
    """The join table of the grid's principal down-sets, the int and list
    traffic of slimlat's lattice tables in small.  It allocates no object
    the garbage collector tracks, so probes do not move its collections."""
    down, size, join, n = _DOWN, _SIZE, _JOIN, len(_DOWN)
    for x in range(n):
        dx = down[x]
        for y in range(n):
            u = dx | down[y]
            best, best_size = -1, n + 1
            for z in range(n):
                if down[z] & u == u and size[z] < best_size:
                    best, best_size = z, size[z]
            join[x * n + y] = best


class RefClock:
    def __init__(self):
        self.reading = 0.0
        self.probes = 0
        self.probe_s = 0.0      # wall time spent in probes
        self._busy = False
        self._last_end = self._last_probe = None
        self._probe()

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def now(self):
        """Reference seconds since the clock was made."""
        self._probe()
        return self.reading

    def wall(self):
        """Wall seconds with the probes' own time left out."""
        return time.perf_counter() - self.probe_s

    def _on_alarm(self, signum, frame):
        if not self._busy:
            self._probe()

    def _probe(self):
        self._busy = True
        clock = time.perf_counter
        start = clock()
        probe_work()
        end = clock()
        took = end - start
        if self._last_end is not None:
            speed = 2 * PROBE_REF_S / (self._last_probe + took)
            self.reading += (start - self._last_end) * speed
        self._last_end, self._last_probe = end, took
        self.probes += 1
        self.probe_s += took
        self._busy = False
