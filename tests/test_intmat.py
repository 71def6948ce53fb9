"""Exact linear algebra: determinants, normal forms, solvers."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mukailat import intmat
from mukailat.intmat import (mat, identity, transpose, mat_mul, mat_vec, det,
                             hnf_row, row_basis, snf, solve_integer,
                             solve_rational, inv_unimodular, inv_rational,
                             kernel_int, signature, is_integral, to_int)


small_entries = st.integers(min_value=-30, max_value=30)


def square_matrices(max_n=4):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(small_entries, min_size=n, max_size=n),
            min_size=n, max_size=n).map(mat))


def rect_matrices(max_n=4):
    return st.tuples(st.integers(1, max_n), st.integers(1, max_n)).flatmap(
        lambda shape: st.lists(
            st.lists(small_entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]).map(mat))


def test_det_known_values():
    assert det(()) == 1
    assert det(((5,),)) == 5
    assert det(((1, 2), (3, 4))) == -2
    assert det(((0, 1), (1, 0))) == -1
    assert det(((2, 0, 0), (0, 3, 0), (0, 0, 4))) == 24
    assert det(((1, 2), (2, 4))) == 0


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_det_matches_fraction_elimination(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            d = Fraction(0)
            break
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    assert det(a) == d


@given(rect_matrices())
@settings(max_examples=150, deadline=None)
def test_hnf_row_properties(a):
    h, u = hnf_row(a)
    assert mat_mul(u, a) == h
    assert det(u) in (1, -1)
    # echelon shape with positive pivots
    last = -1
    for row in h:
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            continue
        assert nz > last
        assert row[nz] > 0
        last = nz


@given(rect_matrices())
@settings(max_examples=150, deadline=None)
def test_snf_properties(a):
    d, u, v = snf(a)
    assert mat_mul(mat_mul(u, a), v) == d
    assert det(u) in (1, -1)
    assert det(v) in (1, -1)
    rows, cols = len(a), len(a[0])
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for x in diag:
        assert x >= 0
    for x, y in zip(diag, diag[1:]):
        if x:
            assert y % x == 0
        else:
            assert y == 0


@given(rect_matrices(), st.lists(small_entries, min_size=1, max_size=4))
@settings(max_examples=150, deadline=None)
def test_solve_integer_solution_is_exact(a, xs):
    cols = len(a[0])
    x = tuple((xs * cols)[:cols])
    b = mat_vec(a, x)
    got = solve_integer(a, b)
    assert got is not None
    assert mat_vec(a, got) == tuple(b)


def test_solve_integer_detects_unsolvable():
    # 2x = 1 has no integer solution
    assert solve_integer(((2,),), (1,)) is None
    # inconsistent overdetermined system
    assert solve_integer(((1,), (1,)), (0, 1)) is None


def test_solve_rational_inconsistent_raises():
    with pytest.raises(ValueError):
        solve_rational(((1, 1), (1, 1)), (0, 1))


def test_inv_unimodular_roundtrip():
    a = ((2, 1), (1, 1))
    assert mat_mul(a, inv_unimodular(a)) == identity(2)
    with pytest.raises(ValueError):
        inv_unimodular(((2, 0), (0, 1)))


def _random_unimodular(rng, n, steps=12):
    """Product of elementary row operations and sign flips."""
    a = identity(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        e = [list(r) for r in identity(n)]
        if i == j or rng.random() < 0.2:
            e[i][i] = -1
        else:
            e[i][j] = rng.randint(-3, 3)
        a = mat_mul(mat(e), a)
    return a


def test_inv_unimodular_matches_rational_inverse():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 6, 8):
        for _ in range(5):
            a = _random_unimodular(rng, n)
            assert inv_unimodular(a) == to_int(inv_rational(a))


@pytest.mark.parametrize("a", [
    ((1, 2), (2, 4)),                  # singular
    ((2, 0), (0, 1)),                  # det 2
    ((1, 1, 0), (1, -1, 0), (0, 0, 1)),  # det -2
    ((1, 0, 0), (0, 1, 0)),            # not square
    ((1, 0), (0, 1), (0, 0)),          # not square
])
def test_inv_unimodular_rejects_non_unimodular(a):
    with pytest.raises(ValueError):
        inv_unimodular(a)


def rational_rank(a):
    """Rank over Q by Fraction elimination: the reference for kernel_int."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        for i in range(r + 1, rows):
            if m[i][c] != 0:
                f = m[i][c] / p
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


@given(rect_matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_int_spans_kernel(a):
    ker = kernel_int(a)
    cols = len(a[0])
    for v in ker:
        assert mat_vec(a, v) == (0,) * len(a)
    assert len(ker) == cols - rational_rank(a)


def test_signature_examples():
    assert signature(((0, 1), (1, 0))) == (1, 1)
    assert signature(((2,),)) == (1, 0)
    assert signature(((-2,),)) == (0, 1)
    u3 = [[0] * 6 for _ in range(6)]
    for b in range(3):
        u3[2 * b][2 * b + 1] = u3[2 * b + 1][2 * b] = 1
    assert signature(mat(u3)) == (3, 3)
    with pytest.raises(ValueError):
        signature(((0, 0), (0, 2)))


def test_integrality_helpers():
    assert is_integral(((Fraction(2, 1), 3),))
    assert not is_integral(((Fraction(1, 2),),))
    assert to_int(((Fraction(4, 2), 1),)) == ((2, 1),)
