"""Host speed, sampled during the measured work, to scale times to a reference host.

The benchmark runs on a few vCPUs of a shared host, whose speed moves by a
third and more within minutes as other tenants' load comes and goes; the
drift shows in CPU time as much as in wall time, so it cannot be measured
away.  While a `Sampler` is active, a fixed reference kernel runs every
PERIOD_S from a timer signal, inside the decisions too, and each measured
interval is scaled as

    (its seconds outside the kernel) * (REF_S / median kernel time within WINDOW_S of it) ** ALPHA.

The result reads as seconds on a host where the kernel takes REF_S.  No
single kernel tracks every decision in every episode of drift, so the
kernel mixes the library's two kinds of work (row reduction on numpy
arrays of Python ints, and plain dict-and-list code).  Over six minutes on
a 2-vCPU 2.1 GHz Xeon, the 20-second medians of three decisions moved with
a standard deviation of 7-9% (of their logarithm) as measured and of 3-6%
once divided by either kind of kernel.

The decisions follow the kernel less than one for one when the host is
quiet: in a spell where the kernel ran 35% faster, the ladder's decisions
ran about 26% faster.  Over two sets of ten runs per workload on that
host, one of them in such a spell, rescaling each run by its median kernel
time to the power ALPHA = 0.75 kept every end-to-end median of one set
within 6% of the other's; a power of 1 left shifts of up to 16%, and no
scaling shifts of up to 58%.  Two later sets run with ALPHA = 0.75 agreed
within 3.3%.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

# about the kernel's median time on a 2-vCPU 2.1 GHz Xeon, Python 3.11, numpy 2.4
REF_S = 0.0025
PERIOD_S = 0.025  # a call every 25 ms: about a tenth of the run
WINDOW_S = 0.5
ALPHA = 0.75


def kernel(n=14, p=1000003, loops=3000):
    """A fixed mix of the library's two kinds of work: row reduction over
    GF(p) of a pseudo-random n x n object-dtype array, then a loop of dict
    updates and a sort on plain Python ints.  Returns (rank, checksum)."""
    x = 12345
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2147483648
            row.append(x % p)
        rows.append(row)
    m = np.array(rows, dtype=object)
    rank = 0
    for c in range(n):
        piv = next((r for r in range(rank, n) if m[r, c]), None)
        if piv is None:
            continue
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, c]), -1, p)) % p
        for r in range(n):
            if r != rank and m[r, c]:
                m[r] = (m[r] - m[r, c] * m[rank]) % p
        rank += 1
    counts = {}
    pairs = []
    for i in range(loops):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + i
        if i % 7 == 0:
            pairs.append((k, i))
    pairs.sort()
    return rank, sum(counts.values()) ^ pairs[0][1]


class Sampler:
    """Times the kernel every PERIOD_S while active, from a SIGALRM handler,
    so that it also runs inside long decisions; keeps each call's interval.

    Use as a context manager around the measured work.  The handler runs
    between bytecodes of the main thread, so the process stays single-threaded.
    """

    def __init__(self):
        self.begin = []
        self.end = []
        self._saved = None

    def _tick(self, signum, frame):
        t0 = perf_counter()
        kernel()
        self.begin.append(t0)
        self.end.append(perf_counter())

    def __enter__(self):
        self._tick(None, None)  # so that work shorter than PERIOD_S has a call nearby
        self._saved = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._tick(None, None)

    def _between(self, lo, hi):
        """Indices of the kernel calls that overlap [lo, hi]."""
        return range(bisect.bisect_right(self.end, lo), bisect.bisect_left(self.begin, hi))

    def factor(self, start, stop):
        """(REF_S / the kernel's median time within WINDOW_S of [start, stop]) ** ALPHA.
        Call it, and `scaled`, once the sampler is no longer active."""
        near = self._between(start - WINDOW_S, stop + WINDOW_S)
        if not near:  # nothing close: the nearest call on either side
            near = range(max(0, near.start - 1), min(len(self.end), near.stop + 1))
        return (REF_S / statistics.median(self.end[i] - self.begin[i] for i in near)) ** ALPHA

    def scaled(self, start, stop):
        """Seconds in [start, stop] outside the kernel, times `factor`."""
        own = sum(min(stop, self.end[i]) - max(start, self.begin[i])
                  for i in self._between(start, stop))
        return (stop - start - own) * self.factor(start, stop)

    def slowdown(self):
        """The kernel's median time over the run, as a multiple of REF_S."""
        return statistics.median(e - b for b, e in zip(self.begin, self.end)) / REF_S
