"""Isometries between lattices and their characters.

An isometry is stored as an integer matrix whose columns are the images of
the source basis vectors in target coordinates, so vectors transform by
matrix * column.  Its entries are ints (TypeError otherwise), and the
defining identity M^T * G_target * M == G_source is checked at
construction, on the entries with i <= j: both sides are symmetric.
"""

from operator import neg, sub

from . import intmat
from .intmat import (int_mat, mat_mul, mat_vec, dot, transpose,
                     inv_unimodular, int_matrix, json_object, ints)
from .lattices import IntegerLattice


class IsometryError(ValueError):
    pass


class Isometry:
    def __init__(self, source, target, matrix):
        m = int_mat(matrix)
        if len(m) != target.rank or any(len(r) != source.rank for r in m):
            raise IsometryError("matrix shape does not match lattices")
        # M^T G M is symmetric like source.gram, so its entries with i <= j
        # decide the check; G is symmetric, so the rows of M^T G are the
        # columns of G M, which puts the sparse gram on the left of the
        # product; a rank-0 target still has source.rank columns
        cols = transpose(m) or ((),) * source.rank
        rows = transpose(mat_mul(target.gram, m)) or cols
        if any(dot(rows[i], cols[j]) != source.gram[i][j]
               for i in range(len(cols)) for j in range(i, len(cols))):
            raise IsometryError("matrix does not intertwine the forms")
        self.source = source
        self.target = target
        self.matrix = m

    def __repr__(self):
        return "Isometry(%dx%d)" % (self.target.rank, self.source.rank)

    def __eq__(self, other):
        return (isinstance(other, Isometry) and self.matrix == other.matrix
                and self.source == other.source and self.target == other.target)

    def __hash__(self):
        return hash((self.matrix,))

    def apply(self, v):
        return mat_vec(self.matrix, ints(v, "vector", self.source.rank))

    def compose(self, other):
        """self after other (so the result maps other.source to self.target)."""
        if other.target != self.source:
            raise IsometryError("composition mismatch")
        return Isometry(other.source, self.target, mat_mul(self.matrix, other.matrix))

    def inverse(self):
        try:
            inv = inv_unimodular(self.matrix)
        except ValueError:
            raise IsometryError("inverse has non-integral entries") from None
        return Isometry(self.target, self.source, inv)

    def det(self):
        return intmat.det(self.matrix)

    def is_identity(self):
        return self.matrix == intmat.identity(len(self.matrix))

    def to_json(self):
        return {"source": self.source.to_json(), "target": self.target.to_json(),
                "matrix": [list(r) for r in self.matrix]}

    @classmethod
    def from_json(cls, data):
        """Isometry from a JSON document; TypeError for a document that is
        not an object or for non-integer matrix entries."""
        json_object(data, "isometry")
        return cls(IntegerLattice.from_json(data["source"]),
                   IntegerLattice.from_json(data["target"]),
                   int_matrix(data["matrix"]))


def identity_isometry(lat):
    return Isometry(lat, lat, intmat.identity(lat.rank))


def minus_identity(lat):
    return Isometry(lat, lat, tuple(tuple(-x for x in r)
                                    for r in intmat.identity(lat.rank)))


def det_char(g):
    """0 if det(g) == +1, 1 if det(g) == -1 (additive character values)."""
    d = g.det()
    if d == 1:
        return 0
    if d == -1:
        return 1
    raise IsometryError("isometry determinant must be +-1")


def ori_char(g):
    """Orientation character: 0 if g preserves the orientation of a maximal
    positive-definite subspace, 1 if it reverses it; the value does not
    depend on the subspace, so the lattice's own `positive_frame` C is
    read.  Projecting the image of C back onto its span gives the matrix
    gp^-1 * rhs, where gp is the gram of C and rhs[i][j] = <c_i, g(c_j)>;
    gp is positive definite, so the sign of that determinant is the sign of
    det(rhs), an exact integer."""
    if g.source != g.target:
        raise IsometryError("orientation character needs an endomorphism")
    cols, cg = g.source.positive_frame
    # det(rhs^T), rhs^T = C (C G g)^T: the sparse C G and C on the left
    d = intmat.det(mat_mul(cols, transpose(mat_mul(cg, g.matrix))))
    if d == 0:
        raise IsometryError("image subspace degenerates under projection")
    return 0 if d > 0 else 1


def reflect(x, u, gu, sq):
    """x - (2 x.Gu / u.u) u, the reflection in u of x, read off gu = G u and
    sq = u.u; x may be a lattice vector or the numerator of a dual one.
    The reflection is integral when u.u divides 2 G u."""
    c = 2 * dot(x, gu) // sq
    return tuple(xi - c * ui for xi, ui in zip(x, u))


def reflection_matrix(u, gu, sq):
    """The matrix of `reflect`: column j is e_j - c_j u with
    c_j = 2 (G u)_j / u.u, read once per column, so row i is e_i - u_i c."""
    cs = [2 * x // sq for x in gu]
    return tuple(tuple(map(sub, e, map(ui.__mul__, cs)))
                 for e, ui in zip(intmat.identity(len(u)), u))


def reflection(lat, u):
    """Reflection in a vector of square +-2 (integral on any even lattice)."""
    return Isometry(lat, lat, signed_reflection_matrix(
        lat, u, False, "reflection vector"))


def minus_reflection(lat, u):
    """-(u.u)/2 times the reflection in u, for u of square +-2: this is the
    reflection when u.u == -2 and minus the reflection when u.u == 2."""
    return Isometry(lat, lat, signed_reflection_matrix(lat, u, True))


def signed_reflection_matrix(lat, u, minus, what="vector"):
    """reflection_matrix(u, G u, u.u) for u (intmat.ints, named `what`) of
    square +-2, negated for the minus reflection when u.u == 2: unchecked,
    so its callers check it once, as an Isometry."""
    u = ints(u, what, lat.rank)
    gu = mat_vec(lat.gram, u)
    uu = dot(u, gu)
    if uu not in (2, -2):
        raise IsometryError("%s must have square +-2" % what)
    m = reflection_matrix(u, gu, uu)
    if minus and uu == 2:
        m = tuple(tuple(map(neg, r)) for r in m)
    return m
