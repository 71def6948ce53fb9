"""Exact linear algebra over Z and Q.

Matrices are tuples of tuples (rows).  Integer routines use Python's
arbitrary-precision ints, rational ones use fractions.Fraction, so nothing
here can silently overflow or round.
"""

from fractions import Fraction


def mat(rows):
    return tuple(tuple(r) for r in rows)


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def transpose(a):
    return tuple(zip(*a)) if a else ()


def mat_mul(a, b):
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def is_integral(a):
    """True if every entry (int or Fraction) is an integer."""
    for row in a:
        for x in row:
            if isinstance(x, Fraction) and x.denominator != 1:
                return False
    return True


def to_int(a):
    return tuple(tuple(int(x) for x in row) for row in a)


def det(a):
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
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
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
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
    """Inverse of a unimodular integer matrix, exact and integral."""
    n = len(a)
    d = det(a)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    inv = inv_rational(a)
    return to_int(inv)


def inv_rational(a):
    """Exact inverse over Q (entries are Fractions)."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        m[c] = [x / p for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return mat(row[n:] for row in m)


def solve_rational(a, b):
    """Solve a*x = b exactly over Q; b is a vector.  Raises on inconsistency."""
    rows = len(a)
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


def solve_integer(a, b):
    """Integer solution x of a @ x = b, or None if none exists."""
    d, u, v = snf(a)
    rows = len(a)
    cols = len(a[0]) if rows else 0
    y = mat_vec(u, b)
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    z = [0] * cols
    for i in range(rows):
        if i < rank:
            if y[i] % d[i][i] != 0:
                return None
            z[i] = y[i] // d[i][i]
        elif y[i] != 0:
            return None
    return mat_vec(v, z)


def kernel_int(a):
    """Saturated basis (as rows) of {x : a @ x == 0} over Z."""
    d, _, v = snf(a)
    rank = sum(1 for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i] != 0)
    cols = len(a[0])
    vt = transpose(v)
    return tuple(vt[j] for j in range(rank, cols))


def rational_rank(a):
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


def signature(g):
    """Exact signature (p, q) of a nondegenerate symmetric integer matrix,
    by congruent diagonalization over Q."""
    n = len(g)
    m = [[Fraction(x) for x in row] for row in g]
    p = q = 0
    idx = list(range(n))
    work = m
    while work:
        k = len(work)
        if work[0][0] == 0:
            j = next((j for j in range(1, k) if work[0][j] != 0), None)
            if j is None:
                raise ValueError("degenerate form")
            # replace basis vector e0 by e0 + ej to create a nonzero diagonal
            for i in range(k):
                work[i][0] += work[i][j]
            work[0] = [work[0][c] + work[j][c] for c in range(k)]
            if work[0][0] == 0:
                # e0, ej hyperbolic-like: e0 + ej still isotropic; use e0 - ej
                for i in range(k):
                    work[i][0] -= 2 * work[i][j]
                work[0] = [work[0][c] - 2 * work[j][c] for c in range(k)]
        a = work[0][0]
        if a > 0:
            p += 1
        else:
            q += 1
        nxt = []
        for i in range(1, k):
            f = work[i][0] / a
            row = [work[i][c] - f * work[0][c] for c in range(1, k)]
            nxt.append(row)
        work = nxt
    return (p, q)


def gcd_list(xs):
    from math import gcd
    g = 0
    for x in xs:
        g = gcd(g, x)
    return g
