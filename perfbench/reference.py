"""A fixed reference kernel that measures how fast the machine runs right now.

The host this benchmark was tuned on changes speed by up to 2x over seconds
to minutes, and the change moves every timing at once. run.py times this
kernel before the first operation of a pass and after every operation, and
three times on each side of every fresh start, and scales each timing by
REFERENCE_S over the kernel's time around it, so that a timing reads what
it would at the machine's reference speed. The kernel never calls betamix,
so a change to the program moves the scaled timings as much as the clock.

About half of the kernel is interpreted Python (a loop and float
formatting) and half a de Casteljau-like numpy recurrence over rows of
2048 points, the two kinds of work the workloads do; the machine's slow
state slows the first more than the second.
"""

from time import perf_counter

import numpy as np

# the kernel's median time inside a run on the reference machine when it is
# quiet (see README), so that there scaled and unscaled timings agree
REFERENCE_S = 0.0066

_X = np.linspace(0.001, 0.999, 2048)
_ROWS = np.random.default_rng(0).random((48, 2048))


def kernel():
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    text = ",".join(f"{v:.17g}" for v in _ROWS[0, :1024])
    rows = _ROWS
    while rows.shape[0] > 1:
        rows = (1.0 - _X) * rows[:-1] + _X * rows[1:]
    return acc + len(text) + float(rows[0, 0])


def timed_kernel():
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
