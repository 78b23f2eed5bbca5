"""Machine-speed probe: every timed phase is divided by the probe time
measured next to it.

The probe mixes the three kinds of work the solve does: an interpreted
scalar loop (like the shooting oracle), batched 3x3 eigendecompositions
(like the geometry layer) and a sparse LU factorization (like the Newton
steps).  None of it is etacurv code, so a change to the package cannot
move the probe.  On a shared 2-vCPU x86-64 VM the wall time of one solve
drifted by up to 1.7x within minutes; the ratio of a phase to its
neighbouring probes varied by 5-10% between runs (see README.md).
"""

import signal
import time
from contextlib import contextmanager

import numpy as np
import scipy.sparse
from scipy.sparse.linalg import splu  # bound here, so tracer wrappers miss it

#: probe time that maps to a factor of 1 (median on the VM named above)
PROBE_REF_S = 0.16
#: interval of the probes inside a phase; a 16 s solve gets about ten
PROBE_PERIOD_S = 1.5


class SpeedProbe:
    def __init__(self):
        k = 64
        tri = scipy.sparse.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(k, k))
        off = scipy.sparse.diags([-1.0, -1.0], [-1, 1], shape=(k, k))
        eye = scipy.sparse.eye(k)
        self._lap = (scipy.sparse.kron(eye, tri)
                     + scipy.sparse.kron(off, eye)).tocsc()
        a = np.random.default_rng(0).standard_normal((4000, 3, 3))
        self._sym = a + np.swapaxes(a, 1, 2)

    def __call__(self):
        """Seconds one probe took."""
        t0 = time.perf_counter()
        y, v = 0.0, 1.0
        for i in range(40000):
            y, v = y + 1e-4 * v, v - 1e-4 * y * (1.0 + 1e-9 * i)
        for _ in range(8):
            np.linalg.eigh(self._sym)
        for _ in range(4):
            splu(self._lap)
        return time.perf_counter() - t0


class PhaseClock:
    """Times consecutive phases and normalizes them by machine speed.

    Probes run before the first phase, after each phase, and every
    PROBE_PERIOD_S inside a phase (from a SIGALRM handler, so at a
    bytecode boundary of the main thread).  A phase's wall time excludes
    the probes inside it; its normalized time is that wall time times
    PROBE_REF_S / (mean probe time over the phase and its two neighbours).
    on_probe(seconds) is told of every in-phase probe, so that a tracer can
    take the probe time out of the spans it interrupted.
    """

    def __init__(self, probe, on_probe=None):
        self._probe = probe
        self._on_probe = on_probe
        self.probes = [probe()]
        self.wall = {}
        self.norm = {}

    @contextmanager
    def __call__(self, name):
        inside = []

        def on_alarm(signum, frame):
            inside.append(self._probe())
            if self._on_probe is not None:
                self._on_probe(inside[-1])

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        around = [self.probes[-1]] + inside + [self._probe()]
        self.probes += around[1:]
        self.wall[name] = dt - sum(inside)
        self.norm[name] = self.wall[name] * PROBE_REF_S * len(around) / sum(around)

    def factor(self, name):
        """Normalized over wall time of one phase."""
        return self.norm[name] / self.wall[name]
