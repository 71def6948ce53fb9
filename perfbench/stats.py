"""Latency summaries.

A tail percentile is reported with the number of samples beyond it: the
benchmark's rule is at least ten samples beyond each reported percentile,
so a p75 needs at least 40 samples and a p90 at least 100.
"""

from fractions import Fraction

import numpy as np

from .oracle import det


def percentile(values, percent):
    """Nearest-rank percentile: the smallest sample with at least `percent`
    per cent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = -(-percent * len(ordered) // 100)  # ceil, in integers
    return ordered[max(rank, 1) - 1]


def samples_beyond(count, percent):
    """Samples strictly above the nearest-rank percentile's rank."""
    return count - -(-percent * count // 100)


# Fixed work timed between operations.  On a shared 2-core virtual machine
# the same solve took from 217 to 362 ms (medians over 4 s windows of one
# 75 s run); the package and this computation slow down together, so
# dividing each latency by the reference time measured around it cancels
# most of that swing (the ratio stayed within 23-31).  It mixes the
# package's kinds of work: big-integer elimination, fractions, and a numpy
# quadratic form over a coordinate box.
_REF_MATRIX = tuple(tuple((7 * i + 13 * j) % 11 - 5 + 3 * (i == j)
                          for j in range(8)) for i in range(8))
_REF_GRAM = np.array(((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, -2, 1),
                      (0, 0, 1, -4)), dtype=np.int64)
_REF_BOX = np.stack([g.ravel() for g in np.meshgrid(
    *[np.arange(-7, 8, dtype=np.int64)] * 4, indexing="ij")], axis=1)


def reference_work():
    total = 0
    for _ in range(30):
        total += det(_REF_MATRIX)
        total += sum(Fraction(x, 7) for row in _REF_MATRIX
                     for x in row).numerator
    squares = np.einsum("ij,jk,ik->i", _REF_BOX, _REF_GRAM, _REF_BOX)
    return total + int((squares == 0).sum())


def relative_latencies(op_mid, op_dur, ref_mid, ref_dur):
    """Each latency divided by the reference time interpolated at the
    operation's midpoint."""
    return np.asarray(op_dur) / np.interp(op_mid, ref_mid, ref_dur)
