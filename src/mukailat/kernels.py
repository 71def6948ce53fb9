"""Vectorized coordinate-box searches, the only module that imports numpy.

The only numerically hot loops in the package are enumerations of lattice
vectors inside a coordinate box: those of a prescribed square, and those
whose reflection is integral.  They are evaluated with numpy.  The isotropic
and the reflection scans read the box one slab of fixed first coordinate at
a time: they hold one box of the trailing block and one slab of squares,
never the whole box, and an isotropic caller that stops early evaluates
only the slabs it reached.  Results come as tuples of Python ints in
lexicographic order; inputs that could overflow int64 are rejected, never
wrapped.  _MAX_BOX bounds the vectors a scan evaluates, and the memory of
the searches that build the whole box.
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
    square -2, then every other square, each in lexicographic box order.
    The box is read one slab at a time; the hits are sorted into the three
    classes after the last slab."""
    _overflow_guard(gram, radius)
    _box_size_guard(len(gram), radius)
    g = np.asarray(gram, dtype=np.int64)
    rest, slabs = _slabs(g, radius)
    # 2 G u for u = (a, r) is 2 (a G[0] + r G[1:]); the overflow guard bounds
    # it, and the index array of a slab is narrowed one column at a time
    rest_g = rest @ g[1:]
    found, squares = [], []
    for a, sqs in slabs:
        idx = np.flatnonzero(sqs)
        for j in range(len(g)):
            pair2 = 2 * (a * g[0, j] + rest_g[idx, j])
            idx = idx[pair2 % sqs[idx] == 0]
        found.append(idx + (a + radius) * len(rest))  # index in the full box
        squares.append(sqs[idx])
    idx, hit = np.concatenate(found), np.concatenate(squares)
    order = np.concatenate((np.flatnonzero(hit == 2),
                            np.flatnonzero(hit == -2),
                            np.flatnonzero(abs(hit) != 2)))
    slab, row = np.divmod(idx[order], len(rest))
    for a, r, sq in zip((slab - radius).tolist(), rest[row].tolist(),
                        hit[order].tolist()):
        yield (a, *r), sq


def isotropic_vectors(gram, bound):
    """Iterator over the nonzero box vectors of square 0, lexicographic order,
    as tuples.  The guards run on the call, then the box is read one slab at
    a time."""
    _overflow_guard(gram, bound)
    _box_size_guard(len(gram), bound)
    rest, slabs = _slabs(np.asarray(gram, dtype=np.int64), bound)
    return _isotropic_slabs(rest, slabs)


def _isotropic_slabs(rest, slabs):
    for a, sqs in slabs:
        for r in rest[sqs == 0].tolist():
            if a or any(r):
                yield (a, *r)


def _slabs(g, bound):
    """The box [-bound, bound]^n of the gram array g, one slab of fixed first
    coordinate a at a time: returns rest, one box of the trailing block, and
    an iterator over (a, squares) for a in order, where squares[i] is the
    square of (a, *rest[i]), q(r) + a * 2<e0, r> + a^2 * g00 with q(r) from
    that one box.  The caller guards the full box."""
    if len(g) > 1:
        rest, base = box_squares(g[1:, 1:], bound)
    else:
        rest, base = np.zeros((1, 0), np.int64), np.zeros(1, np.int64)
    lin = 2 * rest @ g[0, 1:]
    g00 = int(g[0, 0])
    return rest, ((a, base + a * lin + a * a * g00)
                  for a in range(-bound, bound + 1))
