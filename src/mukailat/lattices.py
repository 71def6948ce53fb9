"""Even integral lattices with exact integer Gram matrices.

A lattice is a free Z-module with a symmetric, even, nondegenerate bilinear
form given by its Gram matrix.  A lattice may additionally carry an embedding
into an ambient lattice: a basis matrix whose rows are the basis vectors in
ambient coordinates.  All arithmetic is exact.
"""

from dataclasses import dataclass, field
from functools import cached_property

from . import intmat
from .intmat import (int_mat, mat_mul, mat_vec, dot, transpose,
                     row_basis, snf, smith_kernel, int_matrix, json_object,
                     block_diag, ints)


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class Embedding:
    """Primitive-or-not embedding data: rows of `basis` (intmat.ints) are the
    basis vectors of the sublattice in coordinates of `ambient`.  B G
    (`basis_gram`, as (G B^T)^T: the sparse G on the left) and the gram
    B G B^T are formed here once: the one place a sublattice's gram is made."""
    ambient: "IntegerLattice"
    basis: tuple  # r x n integer matrix, rows = basis vectors
    basis_gram: tuple = field(init=False, repr=False, compare=False)
    gram: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = tuple(ints(row, "embedding basis") for row in self.basis)
        ga = self.ambient.gram
        if any(len(row) != len(ga) for row in b):
            raise LatticeError("embedding basis must be rank x ambient rank")
        bt = transpose(b)
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "basis_gram", transpose(mat_mul(ga, bt)))
        object.__setattr__(self, "gram", mat_mul(self.basis_gram, bt))


class IntegerLattice:
    """Even nondegenerate lattice over Z.

    gram[i][j] is the pairing of basis vectors i and j, an int (TypeError
    otherwise).  A vector is `rank` ints in basis coordinates, and every
    method that takes one reads it through intmat.ints.
    """

    def __init__(self, gram, label=None, embedding=None):
        g = int_mat(gram)
        n = len(g)
        for row in g:
            if len(row) != n:
                raise LatticeError("gram matrix must be square")
        for i in range(n):
            for j in range(n):
                if g[i][j] != g[j][i]:
                    raise LatticeError("gram matrix must be symmetric")
            if g[i][i] % 2 != 0:
                raise LatticeError("lattice must be even")
        if n and intmat.det(g) == 0:
            raise LatticeError("gram matrix must be nondegenerate")
        if embedding is not None:
            if not embedding.basis:
                raise LatticeError("embedded sublattice must have rank >= 1")
            if len(embedding.basis) != n:
                raise LatticeError("embedding basis must be rank x ambient "
                                   "rank")
            if embedding.gram != g:
                raise LatticeError("embedding basis does not reproduce gram")
        self.gram = g
        self.rank = n
        self.label = label
        self.embedding = embedding

    def __repr__(self):
        name = self.label or "lattice"
        return "IntegerLattice(%s, rank=%d)" % (name, self.rank)

    def __eq__(self, other):
        return isinstance(other, IntegerLattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def inner(self, u, v):
        n = self.rank
        return dot(ints(u, "vector", n),
                   mat_vec(self.gram, ints(v, "vector", n)))

    def norm(self, u):
        return self.inner(u, u)

    def det(self):
        return intmat.det(self.gram)

    def signature(self):
        return intmat.signature(self.gram, self.orthogonal_basis)

    @cached_property
    def orthogonal_basis(self):
        """intmat.orthogonal_basis of the gram, computed once: `signature`
        counts its positive squares and `positive_frame` takes its vectors
        of positive square."""
        return tuple(intmat.orthogonal_basis(self.gram))

    @cached_property
    def positive_frame(self):
        """(C, C G): C the vectors of positive square in the orthogonal
        basis, an integer basis of a maximal positive-definite subspace, as
        rows, and C G the left factor of every `ori_char` product.  The
        orientation character does not depend on which frame is taken."""
        cols = tuple(v for v, a in self.orthogonal_basis if a > 0)
        return cols, mat_mul(cols, self.gram)

    # --- sublattice machinery (vectors in *this* lattice's coordinates) ---

    def embedded(self, ambient=None):
        """The Embedding, or LatticeError when there is none or its ambient
        lattice is not `ambient`: lattices are equal when their grams are."""
        if self.embedding is None:
            raise LatticeError("lattice has no embedding")
        if ambient is not None and self.embedding.ambient != ambient:
            raise LatticeError("sublattice is not embedded in this lattice")
        return self.embedding

    def sublattice(self, basis, label=None):
        """The sublattice whose basis vectors are the rows of `basis`, in
        this lattice's coordinates: the one constructor of an embedded
        sublattice.  Its gram is formed once, by the Embedding, and the
        lattice constructor refuses an empty basis and takes the one
        determinant, the one nondegeneracy test."""
        emb = Embedding(self, basis)
        return IntegerLattice(emb.gram, label=label, embedding=emb)

    def saturate(self, gens, label=None):
        """Smallest primitive sublattice containing the given generators.

        Returns an IntegerLattice embedded in self whose row basis spans
        span_Q(gens) intersected with self.  Degenerate spans are rejected.
        """
        rows = tuple(ints(g, "generator", self.rank) for g in gens)
        if not rows:
            raise LatticeError("need at least one generator")
        # saturated basis: the first r rows of V^-1 (r nonzero entries in
        # U rows V == D), read off U rows == D V^-1 by dividing row j by d_j
        d, u, _ = snf(rows)
        r = sum(1 for i in range(min(len(d), self.rank)) if d[i][i] != 0)
        sat = tuple(tuple(x // d[j][j] for x in row)
                    for j, row in enumerate(mat_mul(u[:r], rows)))
        return self.sublattice(row_basis(sat), label=label)

    def span(self, gens, label=None):
        """Sublattice generated by gens (not saturated), canonical HNF basis."""
        return self.sublattice(row_basis(tuple(
            ints(g, "generator", self.rank) for g in gens)), label=label)

    def orth_complement(self, sub, label=None):
        """Orthogonal complement of an embedded sublattice; always primitive."""
        sub.embedded(self)
        # x is in the complement iff B G x == 0
        return self.sublattice(row_basis(smith_kernel(sub.ambient_smith)),
                               label=label)

    def is_primitive(self, sub):
        """True if the embedded sublattice equals its saturation: Z^n / B is
        torsion-free, i.e. every invariant factor of the embedding basis B,
        read off the cached `basis_smith`, is 1."""
        sub.embedded(self)
        d = sub.basis_smith[0]
        return all(d[i][i] == 1 for i in range(sub.rank))

    def to_ambient(self, v):
        """Coordinates of v (in this lattice's basis) inside the ambient lattice."""
        return mat_vec(transpose(self.embedded().basis),
                       ints(v, "coordinates", self.rank))

    @cached_property
    def smith(self):
        """(d, u, v) = snf(gram), u * gram * v == d: the one computation of
        this lattice's dual, which is v * d^-1 * Z^n (gram^-1 = v d^-1 u).
        The projection and the discriminant group both read it."""
        return snf(self.gram)

    @cached_property
    def basis_smith(self):
        """(d, p, q) = snf(B) of the embedding basis B, p * B * q == [D | 0],
        computed once: `is_primitive` reads D and `coordinate_rule` is read
        off the whole form."""
        return snf(self.embedded().basis)

    @cached_property
    def coordinate_rule(self):
        """(W, Z, den), read off `basis_smith` (Cohen, GTM 138, 2.4): with
        y = q^T x, an ambient vector x lies in the sublattice exactly when
        y[r:] == 0 and d_i | y_i, and its coordinates are then
        p^T (y_i / d_i).  Z = (q[:, r:])^T gives y[r:], den = d_r (which
        every d_i divides) and W = p^T diag(d_r / d_i) (q[:, :r])^T, so
        W x / den are the coordinates, and den | W x exactly when every
        d_i | y_i, since p^T is unimodular.  For a primitive sublattice
        den == 1 and W is p^T (q[:, :r])^T."""
        d, p, q = self.basis_smith
        r = self.rank
        den = d[r - 1][r - 1]
        qt = transpose(q)
        scaled = tuple(tuple(den // d[i][i] * x for x in row)
                       for i, row in enumerate(qt[:r]))
        return mat_mul(transpose(p), scaled), qt[r:], den

    def coordinates(self, cols):
        """Coordinates, in this lattice's basis, of the ambient vectors that
        are the columns of `cols`, as the columns of a matrix; LatticeError
        unless every one lies in the sublattice (`coordinate_rule`)."""
        w, z, den = self.coordinate_rule
        if any(map(any, mat_mul(z, cols))):
            raise LatticeError("vector is not in the sublattice")
        c = mat_mul(w, cols)
        if den == 1:
            return c
        if any(x % den for row in c for x in row):
            raise LatticeError("vector is not in the sublattice")
        return tuple(tuple(x // den for x in row) for row in c)

    @cached_property
    def ambient_smith(self):
        """snf(B G), computed once for `orth_complement` and `glue`."""
        return snf(self.embedded().basis_gram)

    @cached_property
    def projection(self):
        """(num, den): num is the integer r x n matrix den * gram^-1 * B * G
        (B the embedding basis, G the ambient gram), so num @ w / den are the
        coordinates of the orthogonal projection of an ambient vector w.
        den is the last invariant factor d_n, which every d_i divides, so
        den * gram^-1 = v * diag(d_n / d_i) * u is integral.  `glue` and
        `extend_isometry` read it; a vector of the sublattice is read back
        by `coordinate_rule`, which needs no projection."""
        d, u, v = self.smith
        den = d[-1][-1] if d else 1
        scaled_u = tuple(tuple(den // d[i][i] * x for x in row)
                         for i, row in enumerate(u))
        return mat_mul(mat_mul(v, scaled_u), self.embedded().basis_gram), den

    def from_ambient(self, w):
        """Integer coordinates of an ambient vector in this lattice's basis,
        by `coordinates`; LatticeError unless w lies in the sublattice."""
        w = ints(w, "ambient vector", self.embedded().ambient.rank)
        return tuple(row[0] for row in self.coordinates(
            tuple((x,) for x in w)))

    # --- JSON interchange ---

    def to_json(self):
        out = {"label": self.label, "gram": [list(r) for r in self.gram]}
        if self.embedding is not None:
            out["embedding"] = {
                "ambient": self.embedding.ambient.to_json(),
                "basis": [list(r) for r in self.embedding.basis],
            }
        return out

    @classmethod
    def from_json(cls, data):
        """Lattice from a JSON document; TypeError for a document that is not
        an object or for non-integer gram or basis entries."""
        json_object(data, "lattice")
        emb = None
        if data.get("embedding"):
            doc = json_object(data["embedding"], "embedding")
            emb = Embedding(cls.from_json(doc["ambient"]),
                            int_matrix(doc["basis"]))
        return cls(int_matrix(data["gram"]), label=data.get("label"),
                   embedding=emb)


def hyperbolic_plane():
    return IntegerLattice(((0, 1), (1, 0)), label="U")


def direct_sum(*lats, label=None):
    """Orthogonal direct sum; no embedding data on the result."""
    return IntegerLattice(block_diag(*(l.gram for l in lats)), label=label)


def hyperbolic_sum(copies, label=None):
    return direct_sum(*(hyperbolic_plane() for _ in range(copies)),
                      label=label or ("U^%d" % copies))


def rank_one(n, label=None):
    """Rank-1 lattice generated by a vector of square n (n even, nonzero)."""
    return IntegerLattice(((n,),), label=label)

