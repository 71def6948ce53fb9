"""Box searches: squares, ordering, guard rails."""

import pytest

from mukailat import kernels
from mukailat.kernels import (backend_name, box_squares, vectors_with_square,
                              isotropic_vectors)


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
    out = isotropic_vectors(U2_GRAM, 1)
    assert all(any(v) for v in out)
    assert (1, 0, 0, 0) in out


def test_overflow_guard_raises():
    big = 2 ** 40
    with pytest.raises(OverflowError):
        box_squares(((big, 0), (0, big)), 10 ** 7)


def test_box_size_guard():
    with pytest.raises(MemoryError):
        kernels._box(8, 50)
