"""Host speed reference: a fixed piece of exact arithmetic, independent of
siltglue, timed between the ops of a pass.

The benchmark runs on a shared virtual machine whose per-core speed drifts
by up to 2x over seconds to minutes, in CPU time as well as wall time,
because neighbours on the host contend for the core and its caches.  A
slow phase slows the ops and this kernel alike: over 20-op windows of one
repeated decompose op, op and kernel medians both ranged 1.9x while their
ratio stayed within 4%.  So each op's time is scaled by NOMINAL_S over the
kernel's time measured around that op, which gives the op's cost at the
host's nominal speed.  The kernel never calls into siltglue, so a change
to the program moves the ops and not the reference.
"""

import gc
import random
import time
from fractions import Fraction

# CPU time of one kernel run on an uncontended core of the reference host
# (2-vCPU Intel Xeon virtual machine, Python 3.11.7); a unit, not a tuning
# knob: every scaled time is in seconds at this speed.
NOMINAL_S = 0.0025

_N = 9
_rng = random.Random(20011)
_MATRIX = tuple(tuple(Fraction(_rng.randrange(-99, 100)) for _ in range(_N))
                for _ in range(_N))


def _eliminate():
    a = [list(row) for row in _MATRIX]
    for c in range(_N):
        p = next(i for i in range(c, _N) if a[i][c])
        a[c], a[p] = a[p], a[c]
        for i in range(_N):
            if i != c and a[i][c]:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return a


def sample() -> float:
    """CPU seconds of one kernel run.  The collector is paused so that a
    collection of the program's heap is not charged to the reference."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.process_time()
        _eliminate()
        return time.process_time() - t
    finally:
        if enabled:
            gc.enable()
