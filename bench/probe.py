"""Machine-speed probe.

This host's speed drifts by +-20% over tens of seconds to minutes, which
swamps the differences the benchmark must resolve.  The probe times a fixed
loop that never touches gadentropy but does the same kind of work its hot
paths do (small numpy arrays, 2x2 eigvalsh, Python objects and float math).
Workload timings are reported rescaled by REFERENCE_S / probe time, with the
probe measured right before and after each timed iteration, so they read as
seconds on this machine at its typical speed.  Over 10-run sets this cut the
run-to-run spread (IQR / median) of fig2 and verify from 3-11% to 2-5%; on
grid it helped in some sets (6% -> 3%) and not in others (13%), so part of
the drift is invisible to the probe.  Raw timings and probe times are kept
in the run record.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Typical probe() on the machine the baseline in bench/BASELINE.json was
# taken on (2 vCPU x86_64, Python 3.11, numpy 2.4).  Any constant works for
# comparing two commits; this one keeps the rescaled figures near real seconds.
REFERENCE_S = 0.0185


def _loop(n: int = 1000) -> float:
    acc = 0.0
    for i in range(n):
        x = 1e-4 * (i % 97)
        m = np.array([[0.5 + x, 0.3 - 0.1j], [0.3 + 0.1j, 0.5 - x]], dtype=np.complex128)
        m.setflags(write=False)
        e = np.linalg.eigvalsh(m)
        nz = e[e > 0.0]
        row = {"p": 0.5 + x, "r": x, "s": float(-np.sum(nz * np.log(nz)))}
        acc += row["s"] + math.log1p(row["p"]) * math.sqrt(1.0 - row["r"])
    return acc


def probe() -> float:
    """Median seconds of three runs of the fixed loop."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t)
    return statistics.median(times)
