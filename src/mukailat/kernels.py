"""Vectorized coordinate-box searches, the only module that imports numpy.

The only numerically hot loops in the package are enumerations of lattice
vectors inside a coordinate box: those of a prescribed square, and those
whose reflection is integral.  They are evaluated with numpy, and the
isotropic search one slab of fixed first coordinate at a time, so a caller
that stops early evaluates only the slabs it reached.  Results come as
tuples of Python ints in lexicographic order; inputs that could overflow
int64 are rejected, never wrapped.
"""

import numpy as np

_INT64_MAX = 2 ** 62  # one spare bit of headroom
_MAX_BOX = 50_000_000  # vectors in one box search


def _overflow_guard(gram, bound):
    n = len(gram)
    gmax = int(max(abs(int(x)) for row in gram for x in row) or 1)
    worst = n * n * bound * bound * gmax
    if worst >= _INT64_MAX:
        raise OverflowError("box search would exceed int64 range")


def max_box_bound(n):
    """Largest bound whose n-dimensional box [-bound, bound]^n is searched."""
    bound = 0
    while (2 * bound + 3) ** n <= _MAX_BOX:
        bound += 1
    return bound


def _box_size_guard(n, bound):
    side = 2 * bound + 1
    if side ** n > _MAX_BOX:
        raise MemoryError("box of %d^%d vectors is too large" % (side, n))


def _box(n, bound):
    """All vectors with coordinates in [-bound, bound], lexicographic order."""
    _box_size_guard(n, bound)
    side = 2 * bound + 1
    box = np.indices((side,) * n, dtype=np.int64).reshape(n, -1)
    box -= bound
    return box.T


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


def integral_reflections(gram, radius):
    """(u, u.u) for the box vectors u of nonzero square whose reflection is
    integral on the lattice (u.u divides 2 G u): square 2 first, then
    square -2, then every other square, each in lexicographic box order."""
    vecs, sqs = box_squares(gram, radius)
    n = len(gram)
    # narrow an index array one gram column at a time: no second full-box
    # array is built, and the overflow guard of box_squares bounds pair2
    idx = np.flatnonzero(sqs)
    for j in range(n):
        pair2 = 2 * sum(vecs[idx, i] * gram[i][j] for i in range(n))
        idx = idx[pair2 % sqs[idx] == 0]
    hit = sqs[idx]
    idx = np.concatenate((idx[hit == 2], idx[hit == -2], idx[abs(hit) != 2]))
    for u, sq in zip(vecs[idx].tolist(), sqs[idx].tolist()):
        yield tuple(u), sq


def isotropic_vectors(gram, bound):
    """Iterator over the nonzero box vectors of square 0, lexicographic order,
    as tuples.  The guards run on the call; the box is evaluated one slab of
    fixed first coordinate a at a time, where a vector (a, r) has square
    q(r) + a * 2<e0, r> + a^2 * g00 with q(r) from one box of the trailing
    block."""
    _overflow_guard(gram, bound)
    n = len(gram)
    _box_size_guard(n, bound)
    g = np.asarray(gram, dtype=np.int64)
    if n > 1:
        rest, base = box_squares(g[1:, 1:], bound)
    else:
        rest, base = np.zeros((1, 0), np.int64), np.zeros(1, np.int64)
    return _isotropic_slabs(rest, base, 2 * rest @ g[0, 1:], int(g[0, 0]),
                            bound)


def _isotropic_slabs(rest, base, lin, g00, bound):
    for a in range(-bound, bound + 1):
        for r in rest[base + a * lin + a * a * g00 == 0].tolist():
            if a or any(r):
                yield (a, *r)
