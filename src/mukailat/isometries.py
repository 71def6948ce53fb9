"""Isometries between lattices and their characters.

An isometry is stored as an integer matrix whose columns are the images of
the source basis vectors in target coordinates, so vectors transform by
matrix * column.  The defining identity M^T * G_target * M == G_source is
checked at construction.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import intmat
from .intmat import (mat, mat_mul, mat_vec, transpose, inv_rational,
                     is_integral, to_int)
from .lattices import IntegerLattice


class IsometryError(ValueError):
    pass


class Isometry:
    def __init__(self, source, target, matrix):
        m = mat(matrix)
        if len(m) != target.rank or any(len(r) != source.rank for r in m):
            raise IsometryError("matrix shape does not match lattices")
        lhs = mat_mul(mat_mul(transpose(m), target.gram), m)
        if lhs != source.gram:
            raise IsometryError("matrix does not intertwine the forms")
        self.source = source
        self.target = target
        self.matrix = m

    def __repr__(self):
        return "Isometry(%dx%d)" % (len(self.matrix), len(self.matrix[0]))

    def __eq__(self, other):
        return (isinstance(other, Isometry) and self.matrix == other.matrix
                and self.source == other.source and self.target == other.target)

    def __hash__(self):
        return hash((self.matrix,))

    def apply(self, v):
        return mat_vec(self.matrix, v)

    def compose(self, other):
        """self after other (so the result maps other.source to self.target)."""
        if other.target.gram != self.source.gram:
            raise IsometryError("composition mismatch")
        return Isometry(other.source, self.target, mat_mul(self.matrix, other.matrix))

    def __matmul__(self, other):
        return self.compose(other)

    def inverse(self):
        inv = inv_rational(self.matrix)
        if not is_integral(inv):
            raise IsometryError("inverse is not integral")
        return Isometry(self.target, self.source, to_int(inv))

    def power(self, n):
        if self.source.gram != self.target.gram:
            raise IsometryError("powers need an endomorphism")
        if n < 0:
            return self.inverse().power(-n)
        out = identity_isometry(self.source)
        for _ in range(n):
            out = self.compose(out)
        return out

    def det(self):
        return intmat.det(self.matrix)

    def is_identity(self):
        return self.matrix == intmat.identity(len(self.matrix))

    def to_json(self):
        return {"source": self.source.to_json(), "target": self.target.to_json(),
                "matrix": [list(r) for r in self.matrix]}

    @classmethod
    def from_json(cls, data):
        return cls(IntegerLattice.from_json(data["source"]),
                   IntegerLattice.from_json(data["target"]),
                   mat(data["matrix"]))


def identity_isometry(lat):
    return Isometry(lat, lat, intmat.identity(lat.rank))


def minus_identity(lat):
    return Isometry(lat, lat, tuple(tuple(-x for x in r)
                                    for r in intmat.identity(lat.rank)))


@dataclass(frozen=True)
class OrientationDatum:
    """Spanning set of a maximal positive-definite subspace, as columns in
    lattice coordinates.  Rational columns are scaled by the lcm of their
    denominators: a positive multiple spans the same oriented line, and the
    stored columns are integral."""
    lattice: IntegerLattice
    columns: tuple  # p vectors, each of length rank

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(
            _clear_denominators(col) for col in self.columns))
        g = gram_of_columns(self.lattice, self.columns)
        if not _is_positive_definite(g):
            raise IsometryError("orientation datum must span a positive subspace")
        sig = self.lattice.signature()
        if len(self.columns) != sig[0]:
            raise IsometryError("orientation datum has wrong dimension")


def _clear_denominators(col):
    scale = lcm(*(x.denominator for x in col))
    return tuple(int(x * scale) for x in col)


def gram_of_columns(lat, cols):
    return tuple(tuple(lat.inner(u, v) for v in cols) for u in cols)


def _is_positive_definite(g):
    n = len(g)
    for k in range(1, n + 1):
        minor = tuple(tuple(g[i][j] for j in range(k)) for i in range(k))
        if intmat.det(minor) <= 0:
            return False
    return True


def positive_frame(lat):
    """Rational basis of a maximal positive-definite subspace, found by
    exact symmetric orthogonalization of the standard basis.  Any such frame
    gives the same orientation character values."""
    n = lat.rank
    basis = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    out = []
    work = list(basis)
    while work:
        v0 = work[0]
        if lat.norm(v0) == 0:
            j = next((j for j in range(1, len(work))
                      if lat.inner(v0, work[j]) != 0), None)
            if j is None:
                raise IsometryError("degenerate form")
            cand = tuple(a + b for a, b in zip(v0, work[j]))
            if lat.norm(cand) == 0:
                cand = tuple(a - b for a, b in zip(v0, work[j]))
            v0 = cand
        nv = lat.norm(v0)
        if nv > 0:
            out.append(v0)
        rest = []
        for w in work[1:]:
            f = Fraction(lat.inner(w, v0), 1) / nv
            rest.append(tuple(a - f * b for a, b in zip(w, v0)))
        work = rest
    return OrientationDatum(lat, tuple(out))


def det_char(g):
    """0 if det(g) == +1, 1 if det(g) == -1 (additive character values)."""
    d = g.det()
    if d == 1:
        return 0
    if d == -1:
        return 1
    raise IsometryError("isometry determinant must be +-1")


def ori_char(g, datum):
    """Orientation character: 0 if g preserves the orientation of the chosen
    positive subspace, 1 if it reverses it.  Projecting the image of the
    datum back onto its span gives the matrix gp^-1 * rhs, where gp is the
    gram of the datum and rhs[i][j] = <col_i, g(col_j)>; gp is positive
    definite, so the sign of that determinant is the sign of det(rhs), an
    exact integer."""
    if g.source.gram != g.target.gram:
        raise IsometryError("orientation character needs an endomorphism")
    if datum.lattice.gram != g.source.gram:
        raise IsometryError("datum belongs to a different lattice")
    lat = datum.lattice
    cols = datum.columns
    rhs = tuple(tuple(lat.inner(u, g.apply(v)) for v in cols) for u in cols)
    d = intmat.det(rhs)
    if d == 0:
        raise IsometryError("image subspace degenerates under projection")
    return 0 if d > 0 else 1


def reflection(lat, u):
    """Reflection in a vector of square +-2 (integral on any even lattice)."""
    uu = lat.norm(u)
    if uu not in (2, -2):
        raise IsometryError("reflection vector must have square +-2")
    n = lat.rank
    s = 1 if uu == 2 else -1
    cols = []
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        coeff = lat.inner(e, u)  # 2(e.u)/(u.u) = s * (e.u)
        cols.append(tuple(e[i] - s * coeff * u[i] for i in range(n)))
    return Isometry(lat, lat, transpose(cols))


def minus_reflection(lat, u):
    """-(u.u)/2 times the reflection in u, for u of square +-2: this is the
    reflection when u.u == -2 and minus the reflection when u.u == 2."""
    uu = lat.norm(u)
    if uu not in (2, -2):
        raise IsometryError("vector must have square +-2")
    r = reflection(lat, u)
    if uu == -2:
        return r
    return Isometry(lat, lat, tuple(tuple(-x for x in row) for row in r.matrix))
