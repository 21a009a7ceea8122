"""Machine-speed probes: fixed work, timed between operations.

The machine the baseline was measured on changes speed by up to half
within minutes, and carlembed's operations change with it.  Each
workload names the probe whose work is most like its own; end-to-end
times are scaled by the probe's quiet-machine time over its median time
in the run, which cancels the drift.

The probe runs in a child interpreter that the benchmark starts before
it imports carlembed, so nothing the program sets for its own process
(thread counts, BLAS settings, environment variables) reaches the probe.
OpenBLAS threads keep spinning for about a tenth of a second after a
call returns, so the child waits SETTLE_S before timing (the program's
threads park) and again before answering (its own threads park, and do
not slow the operation that follows).  A probe so takes about half a
second, and is taken before an operation only when EVERY_S have passed
since the last.
The child answers each line on its stdin with one probe time:

    python3 bench/probes.py KIND
"""

import functools
import math
import subprocess
import sys
import time

import numpy as np


@functools.cache
def _hermitian(n):
    rng = np.random.default_rng(n)
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


@functools.cache
def _points():
    rng = np.random.default_rng(0)
    return 0.3 * (rng.normal(size=1_000_000) + 1j * rng.normal(size=1_000_000))


def _interpreter():
    # Pure Python, like the Python-level loops of the workloads it stands for.
    total = 0
    for k in range(150_000):
        total += k * k


def _lapack():
    np.linalg.eigvalsh(_hermitian(600))


def _arrays():
    z = _points()
    float(np.sum(np.abs(np.exp(z) / (1.0 - 0.5 * z)) ** 2))


# kind: (work, its wall seconds on a quiet 2-CPU machine of the baseline,
# repetitions per probe).  The first run after a long BLAS operation is
# about a tenth slower, so the heavier probes take the median of three.
PROBES = {
    "interpreter": (_interpreter, 0.0105, 1),
    "lapack": (_lapack, 0.07, 3),
    "arrays": (_arrays, 0.045, 3),
}

SETTLE_S = 0.2
EVERY_S = 1.0


def probe_seconds(kind):
    work, _, reps = PROBES[kind]
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def at_reference_speed(seconds, kind, probe_s):
    """Scale a wall time to the quiet-machine speed, given the run's median probe time."""
    return seconds if kind is None else seconds * PROBES[kind][1] / probe_s


class Probe:
    """A child interpreter that times probe `kind` on request; use as a context manager.

    With kind None no child is started and no probe is taken.
    """

    def __init__(self, kind):
        self.kind = kind
        self.times = []
        self._last = -math.inf
        self._child = None if kind is None else subprocess.Popen(
            [sys.executable, __file__, kind],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def median(self):
        """Median probe time so far; 0 when no probe was taken."""
        return float(np.median(self.times)) if self.times else 0.0

    def tick(self):
        """Take a probe if EVERY_S have passed since the last one."""
        if self._child is not None and time.perf_counter() - self._last >= EVERY_S:
            self.times.append(self.seconds())
            self._last = time.perf_counter()

    def seconds(self):
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError(f"the {self.kind} probe exited with code {self._child.wait()}")
        return float(line)

    def close(self):
        if self._child is None:
            return
        if self._child.poll() is None:
            self._child.stdin.close()
            try:
                self._child.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.wait()
        self._child.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


if __name__ == "__main__":
    kind = sys.argv[1]
    for _ in sys.stdin:
        time.sleep(SETTLE_S)
        seconds = probe_seconds(kind)
        time.sleep(SETTLE_S)
        print(seconds, flush=True)
