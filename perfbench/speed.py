"""Machine-speed reference for the timings.

On a shared 2-vCPU Xeon VM the machine speed drifts: the same library calls
took anywhere from 0.54 s to 0.99 s from one second to the next, and whole
10-second runs differed by up to 35%.  A fixed kernel of numpy calls
on grid-sized arrays plus an interpreter loop, sharing no code with the
library, is timed in short bursts between the ops.  Each op's time is scaled
by ``K_REF_S`` over the kernel's time around that op, so the timings read as
if the machine ran the kernel in ``K_REF_S`` seconds.  Interleaved this way,
on that VM, the run-to-run spread of ``decide`` throughput fell from 0.23 to
0.034 of its median.
"""

from __future__ import annotations

import time

import numpy as np

K_REF_S = 0.30e-3  # the kernel's time on a quiet 2-vCPU Xeon VM at 2.0 GHz
BURST_SHARE = 0.05  # a burst after an op lasts this share of the op
FIRST_BURST_S = 0.02
WINDOW = 8  # kernel bursts averaged on each side of an op

_X = np.geomspace(1e-12, 1e12, 577)


def kernel() -> float:
    acc = 0.0
    for i in range(12):
        u = np.log(_X)
        v = np.exp(np.minimum(1.5 * u, 700.0))
        w = np.maximum.accumulate(np.where(np.isfinite(v), v, 0.0))
        idx = np.searchsorted(w, v[::7])
        acc += float(w[-1]) * 1e-300 + int(idx[0]) + i
        for j in range(40):
            acc += j * 0.5
    return acc


def burst(budget_s: float) -> float:
    """Mean seconds per kernel, run at least once and until ``budget_s``."""
    count = 0
    start = time.perf_counter()
    while True:
        kernel()
        count += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget_s:
            return elapsed / count


def normalise(durations: list, kernels: list) -> list:
    """Scale op i, bracketed by kernel bursts i and i+1, by K_REF_S over the
    mean kernel time of the bursts within ``WINDOW`` of it."""
    out = []
    for i, d in enumerate(durations):
        near = kernels[max(0, i - WINDOW): i + 2 + WINDOW]
        out.append(d * K_REF_S * len(near) / sum(near))
    return out
