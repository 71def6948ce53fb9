"""Vectorized coordinate-box searches.

The only numerically hot loops in the package are enumerations of lattice
vectors with a prescribed square inside a coordinate box.  They are
evaluated with numpy over the whole box.  Results are int64 numpy arrays in
lexicographic order; inputs that could overflow int64 are rejected, never
wrapped.
"""

import numpy as np

_INT64_MAX = 2 ** 62  # one spare bit of headroom


def _overflow_guard(gram, bound):
    n = len(gram)
    gmax = int(max(abs(int(x)) for row in gram for x in row) or 1)
    worst = n * n * bound * bound * gmax
    if worst >= _INT64_MAX:
        raise OverflowError("box search would exceed int64 range")


def _box(n, bound):
    """All vectors with coordinates in [-bound, bound], lexicographic order."""
    side = 2 * bound + 1
    if side ** n > 50_000_000:
        raise MemoryError("box of %d^%d vectors is too large" % (side, n))
    rng = np.arange(-bound, bound + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * n), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def backend_name():
    """Name of the box evaluator, reported in benchmark environments."""
    return "numpy"


def box_squares(gram, bound):
    """(vectors, squares) over the whole box."""
    _overflow_guard(gram, bound)
    vecs = _box(len(gram), bound)
    g = np.asarray(gram, dtype=np.int64)
    return vecs, np.einsum("ij,jk,ik->i", vecs, g, vecs)


def vectors_with_square(gram, bound, target):
    """All box vectors of the given square, lexicographic order, as tuples."""
    vecs, sq = box_squares(gram, bound)
    hit = vecs[sq == target]
    return [tuple(int(x) for x in row) for row in hit]


def isotropic_vectors(gram, bound):
    out = vectors_with_square(gram, bound, 0)
    return [v for v in out if any(v)]
