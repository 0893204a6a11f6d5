"""Keeps the second CPU busy with a fixed loop while the benchmark measures.

On the 2-vCPU machine this benchmark was written on, an operation's time
depended on what ran on the other CPU.  With it idle, load from outside the
benchmark came and went there, the speed of both CPUs switched between two
levels up to 2x apart, and ten 50-second runs of ``optimize`` spread by
0.16-0.39 of their median (four sets of ten).  With this loop holding the
other CPU, operations run always under the same neighbour and take longer
(``optimize``'s median went from 5.3-6.8 s to 7.8 s), and ten runs spread
by about 0.1.

``BusyLoop`` pins the benchmark process to the first CPU it may use and a
helper process running ``LOOP_CODE`` to the second, and stops and waits for
the helper on exit.  The helper's mean time per repetition is kept as
``rep_ms``, a description of the machine during the run.
"""

from __future__ import annotations

import os
import subprocess
import sys

LOOP_CODE = r"""
import os, select, sys, time
import numpy as np
os.sched_setaffinity(0, {int(sys.argv[1])})
y = np.linspace(1.0, 2.0, 8)
reps, t0 = 0, time.perf_counter()
while not select.select([sys.stdin], [], [], 0)[0]:
    for _ in range(1000):
        d = np.empty_like(y)
        d[0] = -0.001 * y[0] * y[1] + 0.5 * y[0]
        d[1] = 0.3 * y[1] - 0.2 * y[0]
        d[2:] = 0.1 * y[2:]
        y = y + 1e-6 * d
    reps += 1
print(reps, time.perf_counter() - t0)
"""


class BusyLoop:
    """Context manager: the helper loop runs on the second CPU inside the block."""

    def __init__(self):
        self.rep_ms: float | None = None
        self._proc: subprocess.Popen | None = None
        self._affinity: set[int] = set()

    def __enter__(self) -> "BusyLoop":
        self._affinity = os.sched_getaffinity(0)
        cpus = sorted(self._affinity)
        if len(cpus) < 2:
            raise RuntimeError("the benchmark needs two CPUs: one measured, one for the busy loop")
        os.sched_setaffinity(0, {cpus[0]})
        self._proc = subprocess.Popen(
            [sys.executable, "-c", LOOP_CODE, str(cpus[1])],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        """Close the helper's stdin, which ends its loop, and wait for it."""
        try:
            out, _ = self._proc.communicate(input="", timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
            os.sched_setaffinity(0, self._affinity)
        if self._proc.returncode != 0:
            raise RuntimeError(f"busy loop exited with status {self._proc.returncode}")
        reps, seconds = out.split()
        self.rep_ms = 1e3 * float(seconds) / max(int(reps), 1)
