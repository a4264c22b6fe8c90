"""Host-speed probe: a fixed pure-Python loop, timed every 50 ms in the worker.

The measurement host is shared, and the speed of its CPU swings by tens of
percent within seconds and stays slow or fast for minutes.  A job's raw
time therefore says as much about the host as about the library.  The
probe runs the same small, fixed piece of work on a timer signal, in the
worker's own thread, between the library's bytecodes.  Its time against
``REF_S`` is the host's slowdown at that moment, measured on the same CPU
and in the same process as the job.

A job that took ``t`` seconds, with the probe's own time taken out, while
the probes read ``p_1 .. p_m`` seconds, is reported as
``t * mean(REF_S / p_i)``: the time it would have taken on a host that runs
the probe in ``REF_S`` seconds.  A job too short to contain ``BASIS``
probes uses the last ``BASIS`` probes up to its end, so that one probe's
own noise does not decide a short job's time.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.05      # one probe every 50 ms of wall time
LOOPS = 1000         # about 1 ms of work: 2% of the worker's time
# The reference host speed: the probe takes 1 ms there.  It is about the
# median probe time on the 2-vCPU Xeon host the first numbers come from.
REF_S = 1.0e-3
PRIMING = 5          # probes taken at once when the timer starts
BASIS = 8            # fewest probes a speed factor is averaged over: 0.4 s


def probe_work(loops: int = LOOPS) -> int:
    """Fixed integer, bit and dict work, like the library's inner loops."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(loops):
        m = (i * 2654435761) & 0xFFFFF
        acc ^= m >> 3
        table[m & 1023] = acc
        if bin(m).count("1") > 10:
            acc += 1
    return acc


class HostProbe:
    """Probe samples ``(end, seconds)`` in time order, taken on SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self, *_signal_args) -> None:
        t0 = perf_counter()
        probe_work()
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))

    def start(self) -> None:
        for _ in range(PRIMING):
            self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> tuple[float, float]:
        """Probe seconds spent since ``mark``, and the speed factor over them.

        The factor is the mean of ``REF_S / p`` over the probes taken since
        ``mark``, widened back to the last ``BASIS`` probes if fewer were taken.
        """
        spent = sum(d for _, d in self.samples[mark:])
        basis = self.samples[max(0, min(mark, len(self.samples) - BASIS)):]
        return spent, statistics.fmean(REF_S / d for _, d in basis)
