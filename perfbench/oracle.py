"""Independent answer checks for the benchmark.

Each check recomputes what the package claims from first principles, in
plain integer arithmetic that shares no code with mukailat, and raises
`WrongAnswer` on any disagreement.
"""

from .inputs import U3_GRAM, T, mat_mul


class WrongAnswer(Exception):
    pass


def transpose(a):
    return tuple(zip(*a))


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def inner(gram, x, y):
    return sum(a * b for a, b in zip(x, mat_vec(gram, y)))


def det(a):
    """Bareiss fraction-free determinant of a square integer matrix."""
    m = [list(r) for r in a]
    n = len(m)
    sign, prev = 1, 1
    for c in range(n - 1):
        if m[c][c] == 0:
            piv = next((i for i in range(c + 1, n) if m[i][c]), None)
            if piv is None:
                return 0
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (m[i][j] * m[c][c] - m[i][c] * m[c][j]) // prev
        prev = m[c][c]
    return sign * m[n - 1][n - 1]


def is_isometry(m, gram):
    return mat_mul(mat_mul(transpose(m), gram), m) == tuple(map(tuple, gram))


def orientation(m, gram, frame):
    """0 if m keeps the orientation of the positive-definite span of `frame`
    (a basis of a maximal positive subspace), 1 if it reverses it.  The
    projection of m(frame) back onto the span has the sign of
    det(<frame_i, m frame_j>), because the frame's own gram is positive."""
    a = tuple(tuple(inner(gram, p, mat_vec(m, q)) for q in frame)
              for p in frame)
    d = det(a)
    if d == 0:
        raise WrongAnswer("image of the positive frame degenerates")
    return 0 if d > 0 else 1


U3_FRAME = ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1))
F_VEC = (0, 1, 0, 0, 0, 0)


def check_solution(k, xi1, xi2, g):
    """g must be a determinant-1, orientation-preserving isometry of U^3
    sending xi_i to beta_i - f for the normal-form targets beta_i."""
    if not is_isometry(g, U3_GRAM):
        raise WrongAnswer("solve: not an isometry of U^3")
    if det(g) != 1:
        raise WrongAnswer("solve: determinant is not 1")
    if orientation(g, U3_GRAM, U3_FRAME) != 0:
        raise WrongAnswer("solve: orientation reversed")
    l = inner(U3_GRAM, xi1, xi2)
    beta1 = (0, 0, 1, k - 1, 0, 0)
    beta2 = (0, 0, 0, l, k - 1, 1)
    for xi, beta in ((xi1, beta1), (xi2, beta2)):
        if mat_vec(g, xi) != tuple(b - f for b, f in zip(beta, F_VEC)):
            raise WrongAnswer("solve: xi is not sent to beta - f")


# --- words on the rank-8 lattice (r, xi, a) ---------------------------------

MUKAI_GRAM = tuple(
    tuple(U3_GRAM[i - 1][j - 1] if 1 <= i <= 6 and 1 <= j <= 6
          else -1 if {i, j} == {0, 7} else 0 for j in range(8))
    for i in range(8))

# omega = e + t f, the symplectic plane, and (1, 0, -1): positive 4-frame
MUKAI_FRAME = ((0, 1, T, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 0, 0),
               (0, 0, 0, 0, 0, 1, 1, 0), (1, 0, 0, 0, 0, 0, 0, -1))
VPERP_FRAME = ((1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0),
               (0, 0, 0, 0, 1, 1, 0))


def _from_columns(fn, n=8):
    cols = [fn(tuple(int(i == j) for i in range(n))) for j in range(n)]
    return transpose(cols)


def token_matrix(token):
    kind = token[0]
    if kind == "surface_lift":
        h = token[1]
        return _from_columns(lambda e: (e[0],) + mat_vec(h, e[1:7]) + (e[7],))
    if kind == "tensor":
        c = token[1]
        csq = inner(U3_GRAM, c, c)

        def act(e):
            r, x, a = e[0], e[1:7], e[7]
            return ((r,) + tuple(xi + r * ci for xi, ci in zip(x, c))
                    + (a + inner(U3_GRAM, x, c) + r * csq // 2,))
        return _from_columns(act)
    if kind == "poincare_dual":
        return _from_columns(lambda e: (e[7],) + e[1:7] + (e[0],))
    if kind == "inverse_poincare":  # the Poincare transform is an involution
        return _from_columns(lambda e: (e[7],) + tuple(-x for x in e[1:7])
                             + (e[0],))
    raise ValueError("unknown token kind %r" % (kind,))


def expected_certificate(m, k, tokens):
    """Everything `certify` should report for a word, recomputed directly:
    the composite, its orientation character, the sign-twisted restriction
    to v_perp in the canonical basis e, f, e2, f2, e3, f3, (1, 0, k), and
    the determinant, orientation and discriminant characters."""
    comp = tuple(tuple(int(i == j) for j in range(8)) for i in range(8))
    for tok in tokens:
        comp = mat_mul(token_matrix(tok), comp)
    v = (m,) + (0,) * 6 + (-m * k,)
    if mat_vec(comp, v) != v:
        raise WrongAnswer("certify: word does not fix v")
    ori = orientation(comp, MUKAI_GRAM, MUKAI_FRAME)
    sign = -1 if ori else 1
    basis = [tuple(int(i == j) for i in range(8)) for j in range(1, 7)]
    basis.append((1,) + (0,) * 6 + (k,))
    cols = []
    for b in basis:
        y = tuple(sign * c for c in mat_vec(comp, b))
        if y[7] != k * y[0]:
            raise WrongAnswer("certify: restriction leaves v_perp")
        cols.append(y[1:7] + (y[0],))
    restr = transpose(cols)
    # v_perp = U^3 + <-2k>; its discriminant group Z/2k is generated by the
    # class of (1, 0, k)/2k, on which the restriction multiplies by r[6][6]
    unit = restr[6][6] % (2 * k)
    disc = "+id" if unit == 1 else "-id" if unit == 2 * k - 1 else "other"
    d = det(restr)
    ori_r = orientation(restr, vperp_gram(k), VPERP_FRAME)
    disc_sign = {"+id": 1, "-id": -1}.get(disc)
    in_n = ori_r == 0 and disc_sign is not None and d * disc_sign == 1
    return {"composite": comp, "ori": ori, "restricted": restr,
            "characters": {"det": d, "ori": ori_r, "disc": disc},
            "in_N": in_n}


def vperp_gram(k):
    return tuple(tuple(U3_GRAM[i][j] if i < 6 and j < 6
                       else -2 * k if i == j == 6 else 0 for j in range(7))
                 for i in range(7))


def check_certificate(cert, expected):
    got = {"composite": cert.composite.matrix, "ori": cert.ori,
           "restricted": cert.restricted.matrix,
           "characters": dict(cert.characters), "in_N": cert.in_N}
    for key, want in expected.items():
        if got[key] != want:
            raise WrongAnswer("certify: %s is %r, expected %r"
                              % (key, got[key], want))
