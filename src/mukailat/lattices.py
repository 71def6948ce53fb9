"""Even integral lattices with exact integer Gram matrices.

A lattice is a free Z-module with a symmetric, even, nondegenerate bilinear
form given by its Gram matrix.  A lattice may additionally carry an embedding
into an ambient lattice: a basis matrix whose rows are the basis vectors in
ambient coordinates.  All arithmetic is exact.
"""

from dataclasses import dataclass
from math import gcd

from . import intmat
from .intmat import (mat, mat_mul, mat_vec, transpose, row_basis, snf,
                     kernel_int, solve_rational, rational_rank)


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
    of ints (or Fractions, for points of the dual) in basis coordinates.
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
        return sum(ui * x for ui, x in zip(u, mat_vec(self.gram, v)))

    def norm(self, u):
        return self.inner(u, u)

    def det(self):
        return intmat.det(self.gram)

    def signature(self):
        return intmat.signature(self.gram)

    # --- sublattice machinery (vectors in *this* lattice's coordinates) ---

    def saturate(self, gens, label=None):
        """Smallest primitive sublattice containing the given generators.

        Returns an IntegerLattice embedded in self whose row basis spans
        span_Q(gens) intersected with self.  Degenerate spans are rejected.
        """
        rows = mat(gens)
        if not rows:
            raise LatticeError("need at least one generator")
        r = rational_rank(rows)
        # saturated basis: the first r rows of inv(V^T) where snf(rows)=U D V
        d, u, v = snf(rows)
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
        """True if the embedded sublattice equals its saturation."""
        if sub.embedding is None or sub.embedding.ambient is not self:
            raise LatticeError("sublattice is not embedded in this lattice")
        sat = self.saturate(sub.embedding.basis)
        return row_basis(sub.embedding.basis) == row_basis(sat.embedding.basis)

    def to_ambient(self, v):
        """Coordinates of v (in this lattice's basis) inside the ambient lattice."""
        if self.embedding is None:
            raise LatticeError("lattice has no embedding")
        return tuple(sum(c * b for c, b in zip(v, col))
                     for col in transpose(self.embedding.basis))

    def from_ambient(self, w):
        """Express an ambient vector in this lattice's basis (exact; may be
        rational for dual points).  Raises if w is not in the rational span."""
        if self.embedding is None:
            raise LatticeError("lattice has no embedding")
        bt = transpose(self.embedding.basis)  # n x r
        return solve_rational(bt, w)

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
        emb = None
        if data.get("embedding"):
            amb = cls.from_json(data["embedding"]["ambient"])
            emb = Embedding(amb, mat(data["embedding"]["basis"]))
        return cls(mat(data["gram"]), label=data.get("label"), embedding=emb)


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


def is_primitive_vector(v):
    return gcd(*[abs(int(x)) for x in v]) == 1 if any(v) else False
