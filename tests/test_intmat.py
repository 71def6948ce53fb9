"""Exact linear algebra: determinants, normal forms, solvers."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mukailat import intmat
from mukailat.lattices import IntegerLattice, Embedding
from mukailat.intmat import (mat, identity, transpose, mat_mul, mat_vec, det,
                             hnf_row, row_basis, snf,
                             solve_rational, inv_unimodular, inv_rational,
                             kernel_int, orthogonal_basis, signature)


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


def test_det_refuses_a_matrix_that_is_not_square():
    """A wide matrix once gave the determinant of its leading square block
    and a tall one an IndexError."""
    for a in (((1, 2, 3), (4, 5, 6)), ((2, 0, 7),), ((1, 2), (3, 4), (5, 6)),
              ((1,), (2,)), ((1, 2), (3,))):
        with pytest.raises(ValueError, match="not square"):
            det(a)


def _fraction_det(a):
    """The determinant by Gaussian elimination over Fractions."""
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_det_matches_fraction_elimination(a):
    assert det(a) == _fraction_det(a)


# mostly 0 and +-1: many rows have 0 below the pivot, and pivots of +-1
# often equal the previous one, the case in which det leaves a row alone
unit_heavy = st.sampled_from((0, 0, 0, 0, 1, -1, None)).flatmap(
    lambda x: small_entries if x is None else st.just(x))


@st.composite
def sparse_square_matrices(draw, max_n=8):
    """Square matrices of size 0..max_n: unit-heavy entries, or a product
    L * R of triangular factors with +-1 on the diagonal and unit-heavy
    entries off it, whose Bareiss pivots are often equal."""
    n = draw(st.integers(0, max_n))
    cells = [[draw(unit_heavy) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        return mat(cells)
    low = [[cells[i][j] if j < i else 0 for j in range(n)] for i in range(n)]
    up = [[cells[i][j] if j > i else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        low[i][i] = draw(st.sampled_from((1, -1)))
        up[i][i] = draw(st.sampled_from((1, 1, -1)))
    return mat_mul(mat(low), mat(up))


@given(sparse_square_matrices())
@settings(max_examples=300, deadline=None)
def test_det_of_sparse_matrices_matches_fraction_elimination(a):
    assert det(a) == _fraction_det(a)


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


def test_solve_rational_inconsistent_raises():
    with pytest.raises(ValueError):
        solve_rational(((1, 1), (1, 1)), (0, 1))


@pytest.mark.parametrize("a, message", [
    (((1, 0, 0), (0, 1, 0)), "not square"),      # 2 x 3
    (((1, 0), (0, 1), (0, 0)), "not square"),    # 3 x 2
    (((1, 2), (2, 4)), None),                    # singular
])
def test_inv_rational_refuses_non_square_and_singular(a, message):
    """A 2 x 3 matrix had a 2 x 3 "inverse" and a 3 x 2 one was called
    singular; a singular one is refused from its first inconsistent
    column."""
    with pytest.raises(ValueError, match=message):
        inv_rational(a)


@pytest.mark.parametrize("b", [(1, 2, 3), (1,)])
def test_solve_rational_refuses_a_b_of_another_length(b):
    """b has one entry per row of a: a long b had its extra entry dropped
    and a short one ended in an IndexError."""
    with pytest.raises(ValueError, match="b must have 2 entries, got %d"
                       % len(b)):
        solve_rational(((1, 0), (0, 1)), b)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                       min_size=n, max_size=n).map(mat)))
def test_inv_rational_is_a_right_inverse(a):
    """a * inv_rational(a) is the identity for a nonsingular integer a of
    rank 1..8, whose columns solve_rational reads one unit vector at a
    time."""
    assume(det(a) != 0)
    inv = inv_rational(a)
    assert all(type(x) is Fraction for row in inv for x in row)
    product = tuple(tuple(sum(x * y for x, y in zip(row, col))
                          for col in transpose(inv)) for row in a)
    assert product == identity(len(a))


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


def _to_int(a):
    """A rational matrix with integral entries as an integer matrix."""
    assert all(Fraction(x).denominator == 1 for row in a for x in row)
    return tuple(tuple(int(x) for x in row) for row in a)


def test_inv_unimodular_matches_rational_inverse():
    rng = random.Random(7)
    for n in (1, 2, 3, 4, 6, 8):
        for _ in range(5):
            a = _random_unimodular(rng, n)
            assert inv_unimodular(a) == _to_int(inv_rational(a))


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


def _fraction_signature(g):
    """The former signature routine, congruent diagonalisation over Q: the
    reference for the integer orthogonal basis."""
    work = [[Fraction(x) for x in row] for row in g]
    p = q = 0
    while work:
        k = len(work)
        if work[0][0] == 0:
            j = next((j for j in range(1, k) if work[0][j] != 0), None)
            if j is None:
                raise ValueError("degenerate form")
            # replace e0 by e0 + ej, or by e0 - ej if that is isotropic too
            for i in range(k):
                work[i][0] += work[i][j]
            work[0] = [work[0][c] + work[j][c] for c in range(k)]
            if work[0][0] == 0:
                for i in range(k):
                    work[i][0] -= 2 * work[i][j]
                work[0] = [work[0][c] - 2 * work[j][c] for c in range(k)]
        a = work[0][0]
        if a > 0:
            p += 1
        else:
            q += 1
        work = [[work[i][c] - work[i][0] / a * work[0][c] for c in range(1, k)]
                for i in range(1, k)]
    return (p, q)


@st.composite
def even_grams(draw):
    """Symmetric, even, nondegenerate grams of rank 1..8; the small entries
    make isotropic pivots common."""
    n = draw(st.integers(1, 8))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-2, 2))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-2, 2))
    assume(det(g) != 0)
    return mat(g)


@given(even_grams())
@settings(max_examples=200, deadline=None)
def test_orthogonal_basis_diagonalises(g):
    basis = orthogonal_basis(g)
    vecs = [v for v, _ in basis]
    assert all(type(x) is int for v in vecs for x in v)
    gram = mat_mul(mat_mul(mat(vecs), g), transpose(vecs))
    for i, (v, a) in enumerate(basis):
        assert a != 0
        assert gram[i] == tuple(a if j == i else 0 for j in range(len(g)))
    assert det(mat(vecs)) != 0
    assert signature(g) == _fraction_signature(g)


# Entries far beyond int64, where a wrapping kernel would go wrong, and
# exact fractions; rows and vectors have independent lengths, so the
# references below also pin how the kernel truncates mismatched operands:
# it stops at the shorter one, as zip does.
big_ints = st.integers(min_value=-2 ** 200, max_value=2 ** 200)
exact_entries = st.one_of(big_ints, st.fractions(max_denominator=12))


def ragged(entries, max_len=4):
    return st.lists(st.lists(entries, max_size=max_len),
                    max_size=max_len).map(mat)


def _mat_mul_loops(a, b):
    cols = min((len(r) for r in b), default=0)
    out = []
    for row in a:
        out_row = []
        for j in range(cols):
            s = 0
            for k in range(min(len(row), len(b))):
                s += row[k] * b[k][j]
            out_row.append(s)
        out.append(tuple(out_row))
    return tuple(out)


def _mat_vec_loops(a, v):
    out = []
    for row in a:
        s = 0
        for k in range(min(len(row), len(v))):
            s += row[k] * v[k]
        out.append(s)
    return tuple(out)


def _all_int(m):
    return all(type(x) is int for row in m for x in row)


@given(ragged(exact_entries), ragged(exact_entries))
@settings(max_examples=150, deadline=None)
def test_mat_mul_matches_triple_loop(a, b):
    got = mat_mul(a, b)
    assert got == _mat_mul_loops(a, b)
    if _all_int(a) and _all_int(b):
        assert _all_int(got)


@st.composite
def sparse_row(draw, max_len=8):
    """A row of up to max_len entries with at most two nonzeros; its zeros
    are ints or Fractions."""
    n = draw(st.integers(0, max_len))
    row = [draw(st.sampled_from((0, Fraction(0)))) for _ in range(n)]
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True)
                  if n else st.just([])):
        row[j] = draw(exact_entries.filter(bool))
    return tuple(row)


def mixed_rows(max_len=8):
    """Ragged matrices whose rows are sparse or dense, mixed in one matrix."""
    dense = st.lists(exact_entries, max_size=max_len).map(tuple)
    return st.lists(st.one_of(sparse_row(max_len), dense),
                    max_size=max_len).map(tuple)


@given(mixed_rows(), mixed_rows())
@settings(max_examples=150, deadline=None)
def test_mat_mul_sparse_rows_match_triple_loop(a, b):
    """Rows with few nonzeros take the row-combination path, which must cut
    ragged operands and keep exact values as the dot path does."""
    got = mat_mul(a, b)
    assert got == _mat_mul_loops(a, b)
    if _all_int(a) and _all_int(b):
        assert _all_int(got)


@st.composite
def cut_operands(draw, max_len=6):
    """(a, b): b has up to max_len rows of about one width (each row one
    entry short or long at random); the rows of a hold at most two nonzeros
    and are up to two entries shorter or three longer than b has rows, and
    a row longer than that puts a nonzero past the last row of b."""
    nb, w = draw(st.integers(0, max_len)), draw(st.integers(1, max_len))
    b = tuple(tuple(draw(small_entries)
                    for _ in range(w + draw(st.integers(-1, 1))))
              for _ in range(nb))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        n = max(0, nb + draw(st.integers(-2, 3)))
        row = [0] * n
        spots = set(draw(st.lists(st.integers(0, n - 1), max_size=1))
                    if n else ())
        if n > nb:
            spots.add(draw(st.integers(nb, n - 1)))
        for j in spots:
            row[j] = draw(unit_heavy.filter(bool))
        rows.append(tuple(row))
    return tuple(rows), b


@given(cut_operands())
@settings(max_examples=200, deadline=None)
def test_mat_mul_sparse_rows_cut_at_the_shorter_operand(operands):
    """The sparse path visits only the nonzero entries of a row that have
    a row of b, so it cuts a row of a that is longer than b is tall, and a
    short row of b, as the triple loop (and zip) does."""
    a, b = operands
    assert mat_mul(a, b) == _mat_mul_loops(a, b)


# 4 in 9 zeros, 4 in 9 +-1 (ints or Fractions), the entries whose row of b
# mat_mul adds or subtracts with no multiplication, and 1 in 9 any value
unit_entries = st.sampled_from(
    (0, 0, 0, 0, 1, -1, Fraction(1), Fraction(-1), None)).flatmap(
        lambda x: exact_entries if x is None else st.just(x))


@st.composite
def unit_operands(draw, max_len=8):
    """(a, b): a of unit_entries, b of exact entries.  The rows of a run
    around the row count of b, and those of b around one width, each one
    entry short or long at random, so both operands are often ragged while
    the output width stays mostly nonzero."""
    inner, width = draw(st.integers(0, max_len)), draw(st.integers(1, max_len))

    def rows(entries, count, length):
        row = st.lists(entries, min_size=max(length - 1, 0),
                       max_size=length + 1).map(tuple)
        return draw(st.lists(row, min_size=count, max_size=count))

    a = rows(unit_entries, draw(st.integers(0, max_len)), inner)
    b = rows(exact_entries, max(inner + draw(st.integers(-1, 1)), 0), width)
    return tuple(a), tuple(b)


@given(unit_operands())
@settings(max_examples=200, deadline=None)
def test_mat_mul_unit_rows_match_triple_loop(operands):
    """Rows that mix +-1 with zeros and other entries give the products of
    the loops, on ragged operands too, and int operands give int entries."""
    a, b = operands
    got = mat_mul(a, b)
    assert got == _mat_mul_loops(a, b)
    if _all_int(a) and _all_int(b):
        assert _all_int(got)


@given(ragged(exact_entries), st.lists(exact_entries, max_size=5))
@settings(max_examples=150, deadline=None)
def test_mat_vec_matches_loop(a, v):
    got = mat_vec(a, tuple(v))
    assert got == _mat_vec_loops(a, v)
    if _all_int(a) and all(type(x) is int for x in v):
        assert all(type(x) is int for x in got)


@st.composite
def big_even_grams(draw, max_n=4):
    """Symmetric, even, nondegenerate grams with entries up to 2^201."""
    n = draw(st.integers(1, max_n))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(big_ints)
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(big_ints)
    assume(det(g) != 0)
    return mat(g)


@given(big_even_grams(), st.data())
@settings(max_examples=100, deadline=None)
def test_inner_matches_double_loop(g, data):
    n = len(g)
    vectors = st.lists(exact_entries, max_size=n + 1).map(tuple)
    u, v = data.draw(vectors), data.draw(vectors)
    want = 0
    for i in range(min(len(u), n)):
        for j in range(min(len(v), n)):
            want += u[i] * g[i][j] * v[j]
    assert intmat.dot(u, mat_vec(g, v)) == want


@given(big_even_grams(), st.data())
@settings(max_examples=100, deadline=None)
def test_to_ambient_matches_loop(g, data):
    n = len(g)
    r = data.draw(st.integers(1, n))
    basis = data.draw(st.lists(st.lists(big_ints, min_size=n, max_size=n),
                               min_size=r, max_size=r).map(mat))
    sub_gram = mat_mul(mat_mul(basis, g), transpose(basis))
    assume(det(sub_gram) != 0)
    sub = IntegerLattice(sub_gram, embedding=Embedding(IntegerLattice(g), basis))
    c = data.draw(st.lists(exact_entries, max_size=r + 1))
    want = []
    for j in range(n):
        s = 0
        for i in range(min(len(c), r)):
            s += c[i] * basis[i][j]
        want.append(s)
    assert mat_vec(transpose(sub.embedding.basis), tuple(c)) == tuple(want)
