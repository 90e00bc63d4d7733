"""A fixed reference kernel that measures how fast the host runs right now.

On a shared machine one core's speed drifts by a third and more over
seconds to minutes, with the load of the neighbours: the same egoview job in the
same process takes anywhere from 0.7 to 1.3 s, in stretches that last
longer than a job.  No median over one run removes that.  So the worker
times this kernel between every two measured intervals (timed jobs and
set-up probes) and reports each interval in reference-speed seconds:

    scaled = elapsed / (mean kernel time around the interval) * REFERENCE_S

"Around" is the KERNEL_REACH samples on either side, a few seconds of
machine time: one 0.1 s sample is itself too noisy to scale by, but the
drift is slow enough for a short window to follow it.

A program change that doubles a job's work doubles its scaled time; a
host that slows everything down by a third leaves it unchanged.  The raw
wall times stay in each run's details line.

The kernel does the kind of work egoview does: Python loops over floats,
small numpy products of box corners, dict and list building.  It depends
on numpy and the standard library only, never on the program under test.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's median time on the shared host the benchmark was
# written on (Intel Xeon, 2 vCPUs, Python 3.11, numpy 2.4), where single
# samples ranged from 0.07 to 0.14 s.  Scaled times are the program's times
# at that speed.
REFERENCE_S = 0.100
# Kernel samples on each side of an interval that its scale is taken from.
KERNEL_REACH = 4

_CORNERS = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)])
_ROTATION = np.array([[0.96, -0.28, 0.0], [0.27, 0.93, -0.25], [0.07, 0.24, 0.97]])


def reference_kernel() -> float:
    """A fixed amount of work; returns a checksum so nothing is skipped."""
    total = 0.0
    table: dict[int, float] = {}
    for i in range(7500):
        offset = np.array([0.01 * (i % 37), 0.02 * (i % 11), 2.0 + 0.001 * i])
        cam = (_CORNERS + offset) @ _ROTATION.T
        z = cam[:, 2]
        us = (500.0 * cam[:, 0] / z).tolist()
        vs = (500.0 * cam[:, 1] / z).tolist()
        x0, x1, y0, y1 = min(us), max(us), min(vs), max(vs)
        area = max(0.0, x1 - x0) * max(0.0, y1 - y0)
        acc = 0.0
        for u, v in zip(us, vs):
            acc += u * u + v * v if u > v else u - v
        table[i % 97] = table.get(i % 97, 0.0) + area + acc
        total += area / (1.0 + abs(acc))
    return total + sum(table.values())


def time_reference() -> float:
    """Wall seconds of one run of the reference kernel."""
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def scaled(intervals: list[tuple[float, int]], kernels: list[float],
           reach: int = KERNEL_REACH) -> list[float]:
    """Each (elapsed, k) interval in reference-speed seconds, where k is the
    index in kernels of the sample taken right after the interval (so
    kernels[k - 1] was taken right before it)."""
    out = []
    for elapsed, k in intervals:
        around = kernels[max(0, k - reach):k + reach]
        out.append(elapsed / (sum(around) / len(around)) * REFERENCE_S)
    return out
