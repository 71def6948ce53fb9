"""Exact linear algebra over Z and Q.

Matrices are tuples of tuples (rows).  Integer routines use Python's
arbitrary-precision ints, rational ones use fractions.Fraction, so nothing
here can silently overflow or round.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd
from itertools import compress, repeat
from operator import add, mul, neg, sub


def mat(rows):
    return tuple(tuple(r) for r in rows)


def ints(values, what, n=None):
    """values as a tuple; ValueError naming them `what` unless there are n
    of them (if n is given), TypeError unless each is an int (not a bool):
    the one rule for what enters the exact core, which every reader calls."""
    out = tuple(values)
    if n is not None and len(out) != n:
        raise ValueError("%s must have %d entries, got %d"
                         % (what, n, len(out)))
    for x in out:
        if type(x) is not int:
            raise TypeError("%s must be integers, got %r" % (what, out))
    return out


def int_mat(rows):
    """mat(rows); TypeError unless every entry is an int (not a bool)."""
    return tuple(ints(r, "matrix entries") for r in rows)


def json_object(doc, what):
    """doc, if it is a JSON object; TypeError otherwise."""
    if not isinstance(doc, dict):
        raise TypeError("%s must be a JSON object" % what)
    return doc


def int_vector(items):
    """A JSON list of ints as a tuple; TypeError for floats, bools or other
    entries, so nothing non-integral enters the exact routines."""
    if not isinstance(items, list):
        raise TypeError("expected a list of integers, got %r" % (items,))
    return ints(items, "list entries")


def int_matrix(rows):
    """A JSON list of integer rows as a matrix; TypeError otherwise."""
    if not isinstance(rows, list):
        raise TypeError("expected a list of rows, got %r" % (rows,))
    return tuple(int_vector(r) for r in rows)


@lru_cache(maxsize=None)
def identity(n):
    """The n x n identity, built once per n: it is immutable."""
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def block_diag(*blocks):
    """The block-diagonal matrix of the square blocks, in order."""
    n = sum(map(len, blocks))
    rows, off = [], 0
    for b in blocks:
        rows += [(0,) * off + tuple(r) + (0,) * (n - off - len(b)) for r in b]
        off += len(b)
    return tuple(rows)


# The one dot-product kernel, sum(map(mul, u, v)), spelled out in the two
# hot loops: Python ints (or Fractions) throughout, so nothing wraps; like
# zip, map stops at the shorter operand, so only the public readers refuse.

def mat_mul(a, b):
    """a * b.  A row of a with at most half of its entries nonzero gives its
    output row as the sum of x * (row j of b) over its nonzero entries
    x = a[i][j], where an entry 1 adds row j as it is and -1 subtracts it,
    with no multiplication; a row with one entry 1 is row j of b itself.  A
    denser row takes one dot product per column of b, and b is transposed
    only for such a row.  The crossover is measured on 8-row products:
    summing rows is cheaper up to all but one of 7 or 8 entries when they
    are all +-1, and up to 1 nonzero of 2 or 4 and 3 of 6 or 8 when none
    is; at one half, a row with no +-1 entry costs at most 14% more.  Both
    paths cut mismatched operands as zip does (the sparse one visits only
    the nonzero j below len(b)), and the output width is len(transpose(b))."""
    n = min(map(len, b)) if b else 0
    bt = None
    out = []
    for row in a:
        if 2 * (len(row) - row.count(0)) <= len(row):
            acc = None
            for j in compress(range(len(b)), row):
                x, brow = row[j], b[j]
                if x == 1:
                    acc = (tuple(brow[:n]) if acc is None
                           else tuple(map(add, acc, brow)))
                elif x == -1:
                    acc = (tuple(map(neg, brow[:n])) if acc is None
                           else tuple(map(sub, acc, brow)))
                else:
                    terms = map(mul, repeat(x, n), brow)
                    acc = (tuple(terms) if acc is None
                           else tuple(map(add, acc, terms)))
            out.append((0,) * n if acc is None else acc)
        else:
            if bt is None:
                bt = transpose(b)
            out.append(tuple([sum(map(mul, row, col)) for col in bt]))
    return tuple(out)


def mat_vec(a, v):
    return tuple([sum(map(mul, row, v)) for row in a])


def dot(u, v):
    return sum(map(mul, u, v))


def det(a):
    """Determinant of a square integer matrix (fraction-free Bareiss); a row
    with 0 below the pivot is kept as it is when pivot == prev."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(r) for r in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        top = m[k]
        p = top[k]
        for row in m[k + 1:]:
            x = row[k]
            if x == 0 and p == prev:
                continue
            for j in range(k + 1, n):
                row[j] = (row[j] * p - x * top[j]) // prev
        prev = p
    return sign * m[n - 1][n - 1]


def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def hnf_row(a):
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular, u*a == h, h in row echelon form with
    positive pivots and reduced entries above each pivot.  Zero rows of h
    are at the bottom.
    """
    m = [list(r) for r in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [list(r) for r in identity(rows)]
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # clear column c below row r by gcd elimination
        piv = None
        for i in range(r, rows):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        _swap_rows(m, r, piv)
        _swap_rows(u, r, piv)
        for i in range(r + 1, rows):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                for j in range(cols):
                    m[r][j] -= q * m[i][j]
                for j in range(rows):
                    u[r][j] -= q * u[i][j]
                _swap_rows(m, r, i)
                _swap_rows(u, r, i)
        if m[r][c] < 0:
            m[r] = [-x for x in m[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                for j in range(cols):
                    m[i][j] -= q * m[r][j]
                for j in range(rows):
                    u[i][j] -= q * u[r][j]
        r += 1
    return mat(m), mat(u)


def row_basis(a):
    """Rows of the HNF of a with zero rows dropped (canonical basis of the row lattice)."""
    h, _ = hnf_row(a)
    return tuple(r for r in h if any(r))


def snf(a):
    """Smith normal form.  Returns (d, u, v) with u*a*v == d diagonal,
    d[i][i] | d[i+1][i+1], u and v unimodular."""
    m = [list(r) for r in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def swap_cols(mm, i, j):
        for row in mm:
            row[i], row[j] = row[j], row[i]

    def min_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                x = m[i][j]
                if x != 0 and (best is None or abs(x) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(rows, cols):
        piv = min_pivot(t)
        if piv is None:
            break
        while True:
            i0, j0 = piv
            if i0 != t:
                _swap_rows(m, t, i0)
                _swap_rows(u, t, i0)
            if j0 != t:
                swap_cols(m, t, j0)
                swap_cols(v, t, j0)
            # one sweep of quotient-remainder elimination against the
            # smallest pivot; repeat with a fresh minimal pivot until clean
            cleared = True
            p = m[t][t]
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    q = m[i][t] // p
                    if q:
                        for j in range(cols):
                            m[i][j] -= q * m[t][j]
                        for j in range(rows):
                            u[i][j] -= q * u[t][j]
                    if m[i][t] != 0:
                        cleared = False
            p = m[t][t]
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    q = m[t][j] // p
                    if q:
                        for i in range(rows):
                            m[i][j] -= q * m[i][t]
                        for i in range(cols):
                            v[i][j] -= q * v[i][t]
                    if m[t][j] != 0:
                        cleared = False
            if cleared:
                break
            piv = min_pivot(t)
        # divisibility: fold any entry not divisible by the pivot back in
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if m[i][j] % m[t][t] != 0:
                    bad = i
                    break
            if bad:
                break
        if bad is not None:
            for j in range(cols):
                m[t][j] += m[bad][j]
            for j in range(rows):
                u[t][j] += u[bad][j]
            continue
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    return mat(m), mat(u), mat(v)


def inv_unimodular(a):
    """Inverse of a unimodular integer matrix, exact and integral: the HNF
    of a unimodular matrix is the identity, so its transform u (u*a == 1)
    is the inverse."""
    h, u = hnf_row(a)
    if h != identity(len(a)):
        raise ValueError("matrix is not unimodular")
    return u


def inv_rational(a):
    """Exact inverse over Q (entries are Fractions), whose column j solves
    a*x = e_j; ValueError unless a is square and nonsingular."""
    if any(len(row) != len(a) for row in a):
        raise ValueError("matrix is not square")
    return transpose([solve_rational(a, e) for e in identity(len(a))])


def solve_rational(a, b):
    """Solve a*x = b exactly over Q; ValueError unless b has one entry per
    row of a, or if the system is inconsistent."""
    rows = len(a)
    if len(b) != rows:
        raise ValueError("b must have %d entries, got %d" % (rows, len(b)))
    cols = len(a[0]) if rows else 0
    m = [[Fraction(x) for x in row] + [Fraction(bb)] for row, bb in zip(a, b)]
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols] != 0:
            raise ValueError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        x[c] = m[i][cols]
    return tuple(x)


def kernel_int(a):
    """Saturated basis (as rows) of {x : a @ x == 0} over Z."""
    return smith_kernel(snf(a))


def smith_kernel(smith):
    """The kernel rule on a Smith form (d, u, v) = snf(a): the columns of v
    past the rank of d, a saturated basis (as rows) of {x : a @ x == 0}."""
    d, _, v = smith
    rank = sum(1 for i in range(min(len(d), len(v))) if d[i][i] != 0)
    return transpose(v)[rank:]


def orthogonal_basis(g):
    """Pairwise-orthogonal integer vectors spanning Q^n for a nondegenerate
    symmetric integer matrix g, with their squares: [(v, v^T g v), ...].

    Symmetric Gram-Schmidt on the standard basis, over Z: after each pivot
    v of square a, every remaining vector w becomes |a| w - sign(a) <w, v> v
    (a positive multiple of its projection orthogonal to v) divided by the
    gcd of its entries.  An isotropic pivot is first replaced by v + w, or
    v - w if that is isotropic too, for the first remaining w it pairs
    with; ValueError if there is none (g is degenerate)."""
    n = len(g)
    work = identity(n)
    out = []
    while work:
        v = work[0]
        gv = mat_vec(g, v)
        a = dot(v, gv)
        if a == 0:
            w = next((w for w in work[1:] if dot(w, gv) != 0), None)
            if w is None:
                raise ValueError("degenerate form")
            v = tuple(x + y for x, y in zip(v, w))
            if dot(v, mat_vec(g, v)) == 0:
                v = tuple(x - 2 * y for x, y in zip(v, w))
            gv = mat_vec(g, v)
            a = dot(v, gv)
        out.append((v, a))
        s = 1 if a > 0 else -1
        rest = []
        for w in work[1:]:
            b = s * dot(w, gv)
            w = tuple(abs(a) * x - b * y for x, y in zip(w, v))
            d = gcd(*w)
            rest.append(tuple(x // d for x in w))
        work = rest
    return out


def signature(g, basis=None):
    """Exact signature (p, q) of a nondegenerate symmetric integer matrix:
    the signs of the squares of an orthogonal basis, orthogonal_basis(g)
    unless the caller passes it."""
    if basis is None:
        basis = orthogonal_basis(g)
    p = sum(1 for _, a in basis if a > 0)
    return (p, len(g) - p)
