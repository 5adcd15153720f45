"""A fixed calibration kernel that tracks the host's speed next to every timed op.

On a shared host the same op runs up to twice as slowly for stretches of
seconds to minutes, while the process keeps its CPU (CPU time equals wall
time).  No statistic of raw wall time survives that: two sets of runs of
identical code made an hour apart differ by more than any useful bound.
The slowdown is common to all code, so the benchmark times this kernel
right before the loop and right after every op, and reports each op's
latency rescaled to a reference host on which the kernel takes
``REF_MS``::

    normalized = latency * REF_MS / mean(kernel time before, kernel time after)

The kernel shares no code with qdini and never changes, so a change to
qdini moves the normalized figures exactly as it moves the raw ones; only
the host's speed is divided out.  It mixes what qdini spends its time on:
numpy calls on small arrays with Python float work around them, and small
dense eigensolves and products.  It calls numpy's eigensolver through a
reference taken at import, so the tracer's eigensolve counts never see it.
"""

from __future__ import annotations

import math
import time

import numpy as np

_eigh = np.linalg.eigh

# Kernel time in ms on the reference host.  It only fixes the scale of the
# normalized figures: close to the kernel's time on a 2-vCPU Intel Xeon VM
# (Python 3.11, numpy 2.4, OpenBLAS 0.3.31) in a quiet stretch.
REF_MS = 0.7

_rng = np.random.default_rng(20220518)
_Z = _rng.standard_normal((16, 16)) + 1j * _rng.standard_normal((16, 16))
_H = _Z @ _Z.conj().T / 16.0
_SPECTRUM = np.linspace(0.05, 1.0, 6)


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is optimized away."""
    acc = 0.0
    for i in range(40):
        v = _SPECTRUM * (1.0 + 1e-3 * i)
        v = v / np.sum(v)
        w = np.sort(np.clip(v, 0.0, None))[::-1]
        acc += float(np.max(w)) + sum(-x * math.log(x) for x in w.tolist() if x > 0.0)
    for _ in range(2):
        w, u = _eigh(_H)
        acc += float(np.real(np.trace((u * np.log(w)) @ u.conj().T)))
    return acc


def timed(reps: int = 1) -> float:
    """Mean seconds per kernel call over ``reps`` back-to-back calls."""
    t = time.perf_counter()
    for _ in range(reps):
        kernel()
    return (time.perf_counter() - t) / reps
