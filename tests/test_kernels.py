"""Box searches: squares, ordering, guard rails."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from mukailat import kernels
from mukailat.kernels import (backend_name, box_squares, vectors_with_square,
                              isotropic_vectors, integral_reflections)


U2_GRAM = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1), (0, 0, 1, 0))


def test_backend_name_is_known():
    assert backend_name() == "numpy"


def test_squares_match_python_reference():
    vecs, sqs = box_squares(U2_GRAM, 2)
    for v, s in zip(vecs, sqs):
        ref = sum(int(v[i]) * U2_GRAM[i][j] * int(v[j])
                  for i in range(4) for j in range(4))
        assert int(s) == ref


def test_vectors_with_square_lex_order():
    out = vectors_with_square(U2_GRAM, 2, 2)
    assert out == sorted(out)
    for v in out:
        assert 2 * (v[0] * v[1] + v[2] * v[3]) == 2


def test_isotropic_vectors_exclude_zero():
    out = list(isotropic_vectors(U2_GRAM, 1))
    assert all(any(v) for v in out)
    assert (1, 0, 0, 0) in out


def _reference_isotropic(gram, bound):
    """The former isotropic search, kept as a reference: filter the squares
    of the whole box."""
    out = vectors_with_square(gram, bound, 0)
    return [v for v in out if any(v)]


@st.composite
def even_grams(draw):
    """Symmetric even grams of rank 1..4 with small entries, degenerate
    ones included."""
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    return tuple(map(tuple, g))


@settings(max_examples=200, deadline=None)
@given(gram=even_grams(), bound=st.integers(0, 3))
def test_isotropic_slabs_match_the_whole_box(gram, bound):
    assert list(isotropic_vectors(gram, bound)) == \
        _reference_isotropic(gram, bound)


def test_isotropic_vectors_of_rank_one():
    for g00 in (0, 2, -4):
        for bound in (0, 1, 3):
            got = list(isotropic_vectors(((g00,),), bound))
            assert got == _reference_isotropic(((g00,),), bound)
    assert list(isotropic_vectors(((0,),), 2)) == [(-2,), (-1,), (1,), (2,)]


def test_isotropic_guards_raise_on_the_call():
    """Both slab scans guard the full n-dimensional box, not the trailing
    block they build.  The last two inputs pass the guards of the trailing
    block: a rank-2 radius-1500 box within the int64 headroom of one
    coordinate, and a 7073^2 box whose trailing block has 7073 vectors."""
    big = 2 ** 40
    wide = tuple(tuple(2 * int(i == j) for j in range(8)) for i in range(8))
    for gram, bound, error in ((((big, 0), (0, big)), 10 ** 7, OverflowError),
                               (wide, 50, MemoryError),
                               (((big, 0), (0, big)), 1500, OverflowError),
                               (((2, 0), (0, 2)), 3536, MemoryError)):
        with pytest.raises(error):
            isotropic_vectors(gram, bound)
        with pytest.raises(error):
            next(integral_reflections(gram, bound))


def test_overflow_guard_raises():
    big = 2 ** 40
    with pytest.raises(OverflowError):
        box_squares(((big, 0), (0, big)), 10 ** 7)


def test_box_size_guard():
    with pytest.raises(MemoryError):
        kernels._box(8, 50)


def test_box_is_the_lexicographic_product():
    for n, b in ((1, 0), (1, 3), (2, 2), (3, 1), (4, 2)):
        ref = list(itertools.product(range(-b, b + 1), repeat=n))
        assert kernels._box(n, b).tolist() == [list(v) for v in ref]
