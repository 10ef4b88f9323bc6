"""Machine-speed probe: scales wall times to a fixed reference speed.

On a shared 2-vCPU virtual machine (CPython 3.11, numpy 2.4, OpenBLAS on one
thread) the same code ran up to 1.8x slower in one 5 s window than in the
next: a fixed ``solve_vecp`` call took 29-51 ms in successive windows, and
its CPU time tracked its wall time.  Unscaled, ten 30 s runs of a workload
spread by up to a third on every time metric, whatever the program did.

A probe is a fixed computation from this file, independent of lpmax, in
three parts, one for each kind of work lpmax does: a Python-bound loop of
small numpy contractions (the recursion and the relaxation's iterations), a
LAPACK-bound loop of small ``eigh`` calls (the relaxation's projections) and
vectorized numpy over arrays of a few hundred kilobytes (the oracle's grid
scans).  The kinds do not slow by the same factor when the machine slows.
The timed loop runs probes between operations, so that at least
``PROBE_SHARE`` of the run goes to them, and inside every operation, from a
timer signal every ``INSIDE_PERIOD_S`` (see ``Probe.inside``).  An
operation's *speed factor* is the geometric mean, over the parts, of the
median probe time during the operation, or near it if too few probes ran
during it, divided by that part's reference time in ``REF_S``.  Its wall
time, less the probes that ran inside it, divided by the factor is the time
it would have taken at the reference speed: on a machine where the probe
parts take ``REF_S``, the scaled time is the wall time.

Probing inside operations matters for those that take seconds: the speed
changes within one, so probes at its two ends estimate its speed poorly.
"""
from __future__ import annotations

import contextlib
import math
import signal
import statistics
import time

import numpy as np

REF_S = (0.005, 0.003, 0.0025)  # reference times of the three parts
PY_STEPS = 400
LA_STEPS = 40
VEC_STEPS = 4
PROBE_SHARE = 0.05    # least share of the timed loop spent probing
INSIDE_PERIOD_S = 0.25  # wall time between probes inside an operation
WINDOW_S = 2.0        # with fewer than MIN_PROBES probes during an operation,
MIN_PROBES = 5        # those this close set its factor, else the nearest do


class Probe:
    """Times the probe and keeps every sample as (mid time, part times)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.tensor = rng.standard_normal((3, 4, 5))
        g = rng.standard_normal((24, 24))
        self.sym = (g + g.T) / 2.0
        self.rows = rng.standard_normal((4096, 16))
        self.samples: list[tuple[float, tuple[float, ...]]] = []
        self.busy_s = 0.0
        self.parts = (self._py, self._la, self._vec)
        for part in self.parts:
            part()

    def _py(self) -> float:
        """Alternating power iteration on F_A: many tiny numpy calls."""
        A = self.tensor
        xs = [np.ones(n) / math.sqrt(n) for n in A.shape]
        for _ in range(PY_STEPS):
            g0 = (A.reshape(-1, 5) @ xs[2]).reshape(3, 4) @ xs[1]
            xs[0] = g0 / np.linalg.norm(g0)
            g1 = xs[0] @ (A.reshape(-1, 5) @ xs[2]).reshape(3, 4)
            xs[1] = g1 / np.linalg.norm(g1)
            g2 = (xs[0] @ A.reshape(3, -1)).reshape(4, 5).T @ xs[1]
            xs[2] = g2 / np.linalg.norm(g2)
        return float(g2 @ xs[2])

    def _la(self) -> float:
        """Repeated small symmetric eigendecompositions."""
        S = self.sym
        for _ in range(LA_STEPS):
            w, V = np.linalg.eigh(S)
            S = (V * np.abs(w)) @ V.T
            S = S / np.abs(S).max()
        return float(S[0, 0])

    def _vec(self) -> float:
        """Elementwise powers, row sums and a sort over a 4096 x 16 array."""
        best = 0.0
        for _ in range(VEC_STEPS):
            sums = (np.abs(self.rows) ** 3.0).sum(axis=1)
            best = max(best, float(np.sort(sums)[-1]))
        return best

    def run(self) -> tuple[float, float]:
        """Runs the probe once; returns its first and last clock readings."""
        clock = time.perf_counter
        ticks = [clock()]
        for part in self.parts:
            part()
            ticks.append(clock())
        times = tuple(b - a for a, b in zip(ticks, ticks[1:]))
        self.samples.append((0.5 * (ticks[0] + ticks[-1]), times))
        self.busy_s += ticks[-1] - ticks[0]
        return ticks[0], ticks[-1]

    @contextlib.contextmanager
    def inside(self):
        """Runs the probe every ``INSIDE_PERIOD_S`` of wall time while the
        block runs, and yields the list of (start, end) clock readings of
        those probes.  A ``SIGALRM`` handler runs them in this thread,
        between the bytecodes of whatever the block is doing, so they see
        the speed the block runs at; the caller takes their time out of the
        block's."""
        spans = []

        def on_alarm(signum, frame):
            if spans and spans[-1] is None:     # a probe is running already
                return
            spans.append(None)
            spans[-1] = self.run()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INSIDE_PERIOD_S, INSIDE_PERIOD_S)
        try:
            yield spans
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, start: float, end: float) -> float:
        """Speed factor for work done between the clock readings start and
        end: probe time over reference time, near that interval."""
        return speed_factor(self.samples, start, end)


def speed_factor(samples, start: float, end: float) -> float:
    """Geometric mean over the probe parts of median(part time) / reference,
    over the samples within [start, end] if there are ``MIN_PROBES`` of
    them, else over those within ``WINDOW_S`` of it, else over the
    ``MIN_PROBES`` samples nearest to its middle."""
    near = [s for s in samples if start <= s[0] <= end]
    if len(near) < MIN_PROBES:
        near = [s for s in samples if start - WINDOW_S <= s[0] <= end + WINDOW_S]
    if len(near) < MIN_PROBES:
        mid = 0.5 * (start + end)
        near = sorted(samples, key=lambda s: abs(s[0] - mid))[:MIN_PROBES]
    logs = [math.log(statistics.median(s[1][k] for s in near) / ref)
            for k, ref in enumerate(REF_S)]
    return math.exp(statistics.fmean(logs))
