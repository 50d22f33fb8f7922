"""Host-speed reference: a fixed chunk of Python work, timed during each pass.

The benchmark runs on shared hosts whose speed is not steady. On a 2-vCPU KVM
guest (Intel Xeon), a fixed loop ran at two speeds about 1.7x apart,
switching within milliseconds, and the share of time at the slow speed
drifted between about 10 % and 90 % over minutes; passes of the same inputs
ran up to 30 % apart. To take the host out of the figures, `Sampler`
interrupts an untraced pass every `INTERVAL_S` (SIGALRM) and runs `chunk()`,
a fixed piece of Fraction, dict and string work that does not touch
growthlab. The chunks are timed and their time is taken out of the pass's
times, and the pass's speed factor is the mean chunk rate over `REF_RATE`
(an op of a second or more gets a factor of its own, from its own chunks):

    reference seconds = seconds measured x speed factor

that is, the time the pass would take on a host that runs `chunk()`,
interleaved with the pass, `REF_RATE` times a second. A change to growthlab
moves reference seconds as it moves wall time, since the chunk's cost does
not depend on growthlab; a slow spell of the host slows the chunk in step
and cancels out. On that guest, closed_form passes of one seed that took
5.7-7.5 s measured 7.7-8.0 reference seconds.
"""

from __future__ import annotations

import signal
import statistics
from fractions import Fraction
from time import perf_counter, process_time

INTERVAL_S = 0.01  # one chunk (about 0.3 ms) every 10 ms: about 3 % of a pass
REF_RATE = 2500.0  # chunks per second of the nominal reference host
# an op that ran at least this many chunks (about 1 s) is scaled by its own
# speed factor; shorter ops, by their pass's
OP_SAMPLES = 100


def chunk() -> int:
    """The fixed reference work: a 4 x 4 Fraction product, then dict and str work."""
    m = [[Fraction(7 * i + j, j + 3) for j in range(4)] for i in range(4)]
    p = [[sum(m[i][k] * m[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
    return len({f"r{i}": ",".join(map(str, row)) for i, row in enumerate(p)})


class Sampler:
    """Runs and times `chunk()` on a wall-clock timer while it is entered.

    `spent` and `spent_cpu` are the wall and CPU seconds spent in chunks so
    far, to be taken out of the times they fall into; `speed()` is the mean
    chunk rate over `REF_RATE`.
    """

    def __init__(self):
        self.rates: list[float] = []
        self.spent = 0.0
        self.spent_cpu = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # a tick that comes due while a chunk runs (the process was
        # descheduled) is dropped rather than nested
        if self._busy:
            return
        self._busy = True
        cpu = process_time()
        start = perf_counter()
        chunk()
        took = perf_counter() - start
        self.spent_cpu += process_time() - cpu
        self.spent += took
        self.rates.append(1.0 / took)
        self._busy = False

    def __enter__(self) -> Sampler:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, start: int = 0, stop: int | None = None) -> float:
        """Speed factor over all chunks, or over chunks `start` to `stop`."""
        return statistics.fmean(self.rates[start:stop]) / REF_RATE
