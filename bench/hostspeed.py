"""Host speed, sampled while the program runs, to scale wall time to a
fixed reference speed.

The benchmark's host shares its cores with other work.  The same fixed
computation ran 1.4 (Python bytecode) to 1.8 (small LAPACK calls) times
slower in some stretches than in others, stretches lasting from a
second to minutes, with no CPU steal recorded: no choice of run length
or median removes that from wall time.  So a :class:`Sampler` runs a
fixed reference computation every ``INTERVAL_S`` seconds of wall time
(from a ``SIGALRM`` timer, between the program's bytecodes) and records
the host's speed as ``REFERENCE_S`` over the reference's wall time.  A
stretch of wall time is scaled by the mean speed sampled inside it,
which gives the time it would have taken at the reference speed.  The
reference does what the program's inner loops do: small complex SVDs and
Hermitian eigenvalue calls, one 24 x 24 SVD, element-wise numpy on small
arrays and dictionary updates in Python.  The sampler's own time is
taken out of the stretches it interrupts.

Nothing here imports ``pencillab``, so no change to the program changes
the reference.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
from numpy.linalg import eigvalsh, svd

REFERENCE_S = 0.5e-3  # a reference call taking this long is speed 1 (about a quiet host here)
INTERVAL_S = 0.05

_rng = np.random.default_rng(2402)
_M8 = _rng.standard_normal((8, 8)) + 1j * _rng.standard_normal((8, 8))
_H8 = _M8 + _M8.conj().T
_M24 = _rng.standard_normal((24, 24)) + 1j * _rng.standard_normal((24, 24))


def reference() -> float:
    """The fixed computation whose wall time measures the host's speed."""
    total = 0.0
    for _ in range(6):
        total += svd(_M8, compute_uv=False)[0] + eigvalsh(_H8)[0]
    total += svd(_M24, compute_uv=False)[0]
    x = _M8
    for _ in range(30):
        x = (0.5 * x + _M8).sum(axis=0, keepdims=True) + _M8
    counts: dict[int, float] = {}
    for i in range(900):
        counts[i % 17] = counts.get(i % 17, 0.0) + 0.5 * i
    return total + abs(x[0, 0]) + counts[0]


class Sampler:
    """Samples the host's speed on a wall-clock timer while started.

    ``mark()`` before and ``scaled(mark)`` after a stretch of work give
    its wall time, less the sampler's own, times the mean speed sampled
    in it (or, for a stretch too short to hold a sample, the last speed
    sampled before it).
    """

    def __init__(self) -> None:
        self.speeds: list[float] = []
        self.busy_s = 0.0
        self._previous = None

    def sample(self) -> None:
        start = time.perf_counter()
        reference()
        elapsed = time.perf_counter() - start
        self.speeds.append(REFERENCE_S / elapsed)
        self.busy_s += elapsed

    def _tick(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[float, float, int]:
        return time.perf_counter(), self.busy_s, len(self.speeds)

    def scaled(self, mark: tuple[float, float, int]) -> tuple[float, float]:
        """(wall seconds, seconds at the reference speed) since ``mark``."""
        start, busy, first = mark
        wall = time.perf_counter() - start - (self.busy_s - busy)
        inside = self.speeds[first:] or self.speeds[first - 1:first]
        return wall, wall * statistics.fmean(inside)
