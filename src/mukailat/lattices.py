"""Even integral lattices with exact integer Gram matrices.

A lattice is a free Z-module with a symmetric, even, nondegenerate bilinear
form given by its Gram matrix.  A lattice may additionally carry an embedding
into an ambient lattice: a basis matrix whose rows are the basis vectors in
ambient coordinates.  All arithmetic is exact.
"""

from dataclasses import dataclass
from functools import cached_property

from . import intmat
from .intmat import (mat, mat_mul, mat_vec, dot, transpose, row_basis, snf,
                     kernel_int, int_matrix, json_object)


class LatticeError(ValueError):
    pass


@dataclass(frozen=True)
class Embedding:
    """Primitive-or-not embedding data: rows of `basis` are the basis vectors
    of the sublattice written in coordinates of `ambient`."""
    ambient: "IntegerLattice"
    basis: tuple  # r x n integer matrix, rows = basis vectors


class IntegerLattice:
    """Even nondegenerate lattice over Z.

    gram[i][j] is the pairing of basis vectors i and j.  Vectors are tuples
    of ints in basis coordinates.
    """

    def __init__(self, gram, label=None, embedding=None):
        g = mat(gram)
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
            b = mat(embedding.basis)
            ga = embedding.ambient.gram
            if len(b) != n or any(len(row) != len(ga) for row in b):
                raise LatticeError("embedding basis must be rank x ambient "
                                   "rank")
            expect = mat_mul(mat_mul(b, ga), transpose(b))
            if expect != g:
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
        return dot(u, mat_vec(self.gram, v))

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

    # --- sublattice machinery (vectors in *this* lattice's coordinates) ---

    def saturate(self, gens, label=None):
        """Smallest primitive sublattice containing the given generators.

        Returns an IntegerLattice embedded in self whose row basis spans
        span_Q(gens) intersected with self.  Degenerate spans are rejected.
        """
        rows = mat(gens)
        if not rows:
            raise LatticeError("need at least one generator")
        # saturated basis: the first r rows of inv(V^T) where snf(rows)=U D V
        # and r is the rank, the number of nonzero entries of D
        d, u, v = snf(rows)
        r = sum(1 for i in range(min(len(d), self.rank)) if d[i][i] != 0)
        vinv = intmat.inv_unimodular(v)
        sat = tuple(tuple(vinv[j][c] for c in range(self.rank)) for j in range(r))
        sat = row_basis(sat)
        sub_gram = mat_mul(mat_mul(sat, self.gram), transpose(sat))
        if intmat.det(sub_gram) == 0:
            raise LatticeError("span is degenerate for this form")
        return IntegerLattice(sub_gram, label=label,
                              embedding=Embedding(self, sat))

    def span(self, gens, label=None):
        """Sublattice generated by gens (not saturated), canonical HNF basis."""
        basis = row_basis(mat(gens))
        sub_gram = mat_mul(mat_mul(basis, self.gram), transpose(basis))
        if not basis or intmat.det(sub_gram) == 0:
            raise LatticeError("span is degenerate for this form")
        return IntegerLattice(sub_gram, label=label,
                              embedding=Embedding(self, basis))

    def orth_complement(self, sub, label=None):
        """Orthogonal complement of an embedded sublattice; always primitive."""
        if sub.embedding is None or sub.embedding.ambient is not self:
            raise LatticeError("sublattice is not embedded in this lattice")
        bs = sub.embedding.basis
        cond = mat_mul(bs, self.gram)  # x in complement iff cond @ x == 0
        ker = kernel_int(cond)
        if not ker:
            raise LatticeError("complement is zero")
        basis = row_basis(ker)
        comp_gram = mat_mul(mat_mul(basis, self.gram), transpose(basis))
        if intmat.det(comp_gram) == 0:
            raise LatticeError("complement is degenerate")
        return IntegerLattice(comp_gram, label=label,
                              embedding=Embedding(self, basis))

    def is_primitive(self, sub):
        """True if the embedded sublattice equals its saturation: Z^n / B is
        torsion-free, i.e. every invariant factor of the embedding basis B
        is 1."""
        if sub.embedding is None or sub.embedding.ambient is not self:
            raise LatticeError("sublattice is not embedded in this lattice")
        d, _, _ = snf(sub.embedding.basis)
        return all(d[i][i] == 1 for i in range(sub.rank))

    def to_ambient(self, v):
        """Coordinates of v (in this lattice's basis) inside the ambient lattice."""
        if self.embedding is None:
            raise LatticeError("lattice has no embedding")
        return mat_vec(transpose(self.embedding.basis), v)

    @cached_property
    def smith(self):
        """(d, u, v) = snf(gram), u * gram * v == d: the one computation of
        this lattice's dual, which is v * d^-1 * Z^n (gram^-1 = v d^-1 u).
        The projection and the discriminant group both read it."""
        return snf(self.gram)

    @cached_property
    def projection(self):
        """(num, den): num is the integer r x n matrix den * gram^-1 * B * G
        (B the embedding basis, G the ambient gram), so num @ w / den are the
        coordinates of the orthogonal projection of an ambient vector w.
        den is the last invariant factor d_n, which every d_i divides, so
        den * gram^-1 = v * diag(d_n / d_i) * u is integral."""
        if self.embedding is None:
            raise LatticeError("lattice has no embedding")
        d, u, v = self.smith
        den = d[-1][-1] if d else 1
        scaled_u = tuple(tuple(den // d[i][i] * x for x in row)
                         for i, row in enumerate(u))
        bg = mat_mul(self.embedding.basis, self.embedding.ambient.gram)
        return mat_mul(mat_mul(v, scaled_u), bg), den

    def from_ambient(self, w):
        """Integer coordinates of an ambient vector in this lattice's basis;
        LatticeError unless w lies in the sublattice.  The floor of the
        projection maps back to w exactly when the projection is integral
        and w is in the span, since to_ambient is injective."""
        num, den = self.projection
        c = tuple(x // den for x in mat_vec(num, w))
        if self.to_ambient(c) != tuple(w):
            raise LatticeError("vector is not in the sublattice")
        return c

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
    n = sum(l.rank for l in lats)
    g = [[0] * n for _ in range(n)]
    off = 0
    for l in lats:
        for i in range(l.rank):
            for j in range(l.rank):
                g[off + i][off + j] = l.gram[i][j]
        off += l.rank
    return IntegerLattice(g, label=label)


def hyperbolic_sum(copies, label=None):
    return direct_sum(*(hyperbolic_plane() for _ in range(copies)),
                      label=label or ("U^%d" % copies))


def rank_one(n, label=None):
    """Rank-1 lattice generated by a vector of square n (n even, nonzero)."""
    return IntegerLattice(((n,),), label=label)

