"""Discriminant groups, glue data for primitive sublattices, and extension
of isometries across an orthogonal decomposition.

The discriminant group of a nondegenerate even lattice is the finite quotient
of the dual by the lattice; it carries a quadratic form with values in Q mod
2Z and a bilinear pairing with values in Q mod 1.  Everything below is exact.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import intmat
from .intmat import (mat, mat_mul, mat_vec, transpose, snf, inv_unimodular,
                     solve_rational, is_integral, to_int)
from .lattices import IntegerLattice, LatticeError
from .isometries import Isometry, IsometryError


class ExtensionObstructed(ValueError):
    """The discriminant compatibility equation fails; no extension exists."""


class ExtensionInternalError(RuntimeError):
    """The rational extension failed to be integral although the
    compatibility equation held.  Indicates a bug, not an obstruction."""


@dataclass(frozen=True)
class NotFound(Exception):
    """A bounded search was exhausted.  Not a disproof of existence."""
    bound: int
    stage: str = "search"

    def __str__(self):
        return "no solution within bound %d (stage: %s)" % (self.bound, self.stage)


def _frac_mod(x, modulus):
    x = Fraction(x)
    return x - (x / modulus).__floor__() * modulus


class DiscriminantData:
    """Invariant-factor presentation of the discriminant group of a lattice.

    invariants: d_1 | d_2 | ... (each > 1); generator i has order d_i and a
    chosen lift in (1/d_i) * L, stored in L's basis coordinates.
    """

    def __init__(self, lattice):
        g = lattice.gram
        n = lattice.rank
        d, u, v = snf(g)
        dall = tuple(d[i][i] for i in range(n))
        keep = tuple(i for i in range(n) if dall[i] > 1)
        lifts = []
        vt = transpose(v)  # rows of vt are columns of v
        for i in keep:
            lifts.append(tuple(Fraction(x, dall[i]) for x in vt[i]))
        self.lattice = lattice
        self.invariants = tuple(dall[i] for i in keep)
        self.generator_lifts = tuple(lifts)
        self._u = u
        self._keep = keep
        self._dall = dall

    @property
    def order(self):
        out = 1
        for d in self.invariants:
            out *= d
        return out

    def elements(self):
        return itertools.product(*(range(d) for d in self.invariants))

    def reduce(self, cls):
        return tuple(int(c) % d for c, d in zip(cls, self.invariants))

    def class_of(self, y):
        """Class of a dual point y (rational vector in lattice coordinates)."""
        w = mat_vec(self.lattice.gram, y)
        for x in w:
            if Fraction(x).denominator != 1:
                raise LatticeError("vector is not in the dual lattice")
        coords = mat_vec(self._u, tuple(int(x) for x in w))
        return tuple(int(coords[i]) % self._dall[i] for i in self._keep)

    def lift(self, cls):
        out = tuple(Fraction(0) for _ in range(self.lattice.rank))
        for c, gen in zip(cls, self.generator_lifts):
            out = tuple(o + c * g for o, g in zip(out, gen))
        return out

    def q(self, cls):
        """Quadratic form value in [0, 2)."""
        y = self.lift(self.reduce(cls))
        return _frac_mod(self.lattice.norm(y), 2)

    def b(self, cls1, cls2):
        """Bilinear pairing value in [0, 1)."""
        y1 = self.lift(self.reduce(cls1))
        y2 = self.lift(self.reduce(cls2))
        return _frac_mod(self.lattice.inner(y1, y2), 1)

    def to_json(self):
        vals = []
        for i in range(len(self.invariants)):
            ei = tuple(int(i == a) for a in range(len(self.invariants)))
            q = self.q(ei)
            vals.append("%d/%d" % (q.numerator, q.denominator))
        return {"invariants": list(self.invariants), "qbar": vals}


def disc_group(lattice):
    return DiscriminantData(lattice)


class DiscMap:
    """Homomorphism between discriminant groups, given by generator images."""

    def __init__(self, source, target, images, check_q=True):
        self.source = source
        self.target = target
        self.images = tuple(target.reduce(im) for im in images)
        if len(self.images) != len(source.invariants):
            raise IsometryError("wrong number of generator images")
        if check_q:
            self._check_preserves_q()

    def _check_preserves_q(self):
        g = len(self.source.invariants)
        for i in range(g):
            ei = tuple(int(i == a) for a in range(g))
            if self.source.q(ei) != self.target.q(self.apply(ei)):
                raise IsometryError("map does not preserve the quadratic form")
            for j in range(i + 1, g):
                ej = tuple(int(j == a) for a in range(g))
                if self.source.b(ei, ej) != self.target.b(self.apply(ei),
                                                          self.apply(ej)):
                    raise IsometryError("map does not preserve the pairing")

    def apply(self, cls):
        g = len(self.target.invariants)
        out = [0] * g
        for c, im in zip(self.source.reduce(cls), self.images):
            for a in range(g):
                out[a] += c * im[a]
        return self.target.reduce(out)

    def compose(self, other):
        """self after other."""
        if other.target.invariants != self.source.invariants:
            raise IsometryError("composition mismatch")
        return DiscMap(other.source, self.target,
                       tuple(self.apply(im) for im in other.images),
                       check_q=False)

    def inverse(self):
        table = {}
        for cls in self.source.elements():
            table[self.apply(cls)] = cls
        if len(table) != self.source.order or self.source.order != self.target.order:
            raise IsometryError("map is not invertible")
        gens = []
        g = len(self.target.invariants)
        for i in range(g):
            ei = tuple(int(i == a) for a in range(g))
            gens.append(table[ei])
        return DiscMap(self.target, self.source, gens, check_q=False)

    def __eq__(self, other):
        return (isinstance(other, DiscMap)
                and self.source.invariants == other.source.invariants
                and self.target.invariants == other.target.invariants
                and self.images == other.images)

    def __hash__(self):
        return hash(self.images)

    def is_identity(self):
        g = len(self.source.invariants)
        return all(self.images[i] == tuple(int(i == a) for a in range(g))
                   for i in range(g))

    def is_minus_identity(self):
        g = len(self.source.invariants)
        return all(self.images[i] == self.target.reduce(
            tuple(-int(i == a) for a in range(g))) for i in range(g))

    def sign(self):
        """+1 / -1 if the map is plus or minus the identity, else None."""
        if self.is_identity():
            return 1
        if self.is_minus_identity():
            return -1
        return None


def identity_disc_map(data):
    g = len(data.invariants)
    return DiscMap(data, data, tuple(tuple(int(i == a) for a in range(g))
                                     for i in range(g)), check_q=False)


def disc_map(g, source_data=None, target_data=None):
    """Induced map on discriminant groups of an isometry g."""
    src = source_data or DiscriminantData(g.source)
    tgt = target_data or DiscriminantData(g.target)
    images = []
    for lift in src.generator_lifts:
        im = mat_vec(g.matrix, lift)
        images.append(tgt.class_of(im))
    return DiscMap(src, tgt, images, check_q=False)


def enum_disc_autos(k):
    """All residues a mod 2k with gcd(a, 2k) = 1 and a^2 = 1 mod 4k.

    These are exactly the automorphisms of the cyclic discriminant group of
    U^3 + <-2k> that preserve its quadratic form.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return [a for a in range(1, 2 * k + 1)
            if gcd(a, 2 * k) == 1 and (a * a - 1) % (4 * k) == 0]


def count_distinct_primes(k):
    cnt = 0
    n = k
    p = 2
    while p * p <= n:
        if n % p == 0:
            cnt += 1
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        cnt += 1
    return cnt


@dataclass
class GlueData:
    sub: IntegerLattice
    comp: IntegerLattice
    disc_sub: DiscriminantData
    disc_comp: DiscriminantData
    glue_gens: tuple   # ambient vectors generating H = L/(S+K)
    glue_orders: tuple
    gamma: DiscMap     # anti-isometry A_S -> A_K


def glue(S, K):
    """Glue data of a primitive sublattice S of a unimodular lattice and its
    orthogonal complement K.  The anti-isometry it returns controls which
    isometry pairs on (S, K) extend to the ambient lattice."""
    if S.embedding is None or K.embedding is None:
        raise LatticeError("S and K must be embedded")
    L = S.embedding.ambient
    if K.embedding.ambient is not L:
        raise LatticeError("S and K must share an ambient lattice")
    if abs(L.det()) != 1:
        raise LatticeError("ambient lattice must be unimodular")
    if not L.is_primitive(S):
        raise LatticeError("S must be primitive")
    n = L.rank
    if S.rank + K.rank != n:
        raise LatticeError("S + K must have full rank")

    bs, bk = S.embedding.basis, K.embedding.basis
    stacked = mat(list(bs) + list(bk))  # rows generate S + K inside L
    cmat = transpose(stacked)           # columns generate; coker via SNF
    d, u, v = snf(cmat)
    uinv = inv_unimodular(u)
    dall = tuple(d[i][i] for i in range(n))
    keep = tuple(i for i in range(n) if dall[i] > 1)
    gens = tuple(tuple(uinv[r][i] for r in range(n)) for i in keep)
    orders = tuple(dall[i] for i in keep)

    disc_s = DiscriminantData(S)
    disc_k = DiscriminantData(K)

    h_order = 1
    for o in orders:
        h_order *= o
    if h_order != disc_s.order or h_order != disc_k.order:
        raise LatticeError("glue group order does not match the discriminants")

    def proj(lat, basis, h):
        rhs = mat_vec(mat_mul(basis, L.gram), h)
        return solve_rational(lat.gram, rhs)

    im_s = [disc_s.class_of(proj(S, bs, h)) for h in gens]
    im_k = [disc_k.class_of(proj(K, bk, h)) for h in gens]

    def check_generates(images, data, side):
        t = len(data.invariants)
        if t == 0:
            return
        cols = [list(im) for im in images]
        cols += [[data.invariants[i] if a == i else 0 for i in range(t)]
                 for a in range(t)]
        m = tuple(tuple(col[i] for col in cols) for i in range(t))
        d, _, _ = snf(m)
        if any(d[i][i] != 1 for i in range(t)):
            raise LatticeError("projection to %s is not surjective" % side)

    check_generates(im_s, disc_s, "A_S")
    check_generates(im_k, disc_k, "A_K")

    # gamma on each generator of A_S: write it through the projection images
    # of the glue generators, then push the same combination into A_K
    gcount = len(disc_s.invariants)
    t = gcount
    images = []
    for i in range(gcount):
        ei = tuple(int(i == a) for a in range(t))
        if t:
            cols = [list(im) for im in im_s]
            cols += [[disc_s.invariants[r] if a == r else 0 for r in range(t)]
                     for a in range(t)]
            m = tuple(tuple(col[r] for col in cols) for r in range(t))
            x = intmat.solve_integer(m, ei)
            if x is None:
                raise LatticeError("glue generator expression failed")
            coeffs = x[:len(gens)]
        else:
            coeffs = ()
        img = [0] * len(disc_k.invariants)
        for c, imk in zip(coeffs, im_k):
            for a in range(len(img)):
                img[a] += c * imk[a]
        images.append(disc_k.reduce(img))
    gamma = DiscMap(disc_s, disc_k, images, check_q=False)
    # anti-isometry on generators (quadratic values and cross pairings)
    for i in range(gcount):
        ei = tuple(int(i == a) for a in range(gcount))
        if _frac_mod(disc_s.q(ei) + disc_k.q(gamma.apply(ei)), 2) != 0:
            raise LatticeError("glue map is not an anti-isometry")
        for j in range(i + 1, gcount):
            ej = tuple(int(j == a) for a in range(gcount))
            if _frac_mod(disc_s.b(ei, ej)
                         + disc_k.b(gamma.apply(ei), gamma.apply(ej)), 1) != 0:
                raise LatticeError("glue pairing is not anti-preserved")
    return GlueData(S, K, disc_s, disc_k, gens, orders, gamma)


def extend_isometry(phi, psi, glue1, glue2):
    """Extend a pair of isometries (on a primitive sublattice and on its
    complement) to the ambient lattice, when the discriminant actions agree
    through the glue anti-isometries."""
    S1, K1 = glue1.sub, glue1.comp
    S2, K2 = glue2.sub, glue2.comp
    phibar = disc_map(phi, glue1.disc_sub, glue2.disc_sub)
    psibar = disc_map(psi, glue1.disc_comp, glue2.disc_comp)
    lhs = psibar.compose(glue1.gamma)
    rhs = glue2.gamma.compose(phibar)
    if lhs != rhs:
        raise ExtensionObstructed("discriminant actions do not match through glue")

    L1 = S1.embedding.ambient
    L2 = S2.embedding.ambient
    n = L1.rank
    bs1, bk1 = S1.embedding.basis, K1.embedding.basis
    bs2, bk2 = S2.embedding.basis, K2.embedding.basis
    cols = []
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        cs = solve_rational(S1.gram, mat_vec(mat_mul(bs1, L1.gram), e))
        ck = solve_rational(K1.gram, mat_vec(mat_mul(bk1, L1.gram), e))
        ims = mat_vec(phi.matrix, cs)
        imk = mat_vec(psi.matrix, ck)
        amb = tuple(sum(c * b for c, b in zip(ims, col))
                    for col in transpose(bs2))
        amb2 = tuple(sum(c * b for c, b in zip(imk, col))
                     for col in transpose(bk2))
        cols.append(tuple(a + b for a, b in zip(amb, amb2)))
    m = transpose(cols)
    if not is_integral(m):
        raise ExtensionInternalError("rational extension is not integral")
    out = Isometry(L1, L2, to_int(m))
    # the restrictions must reproduce phi and psi exactly
    for j in range(S1.rank):
        e = tuple(int(i == j) for i in range(S1.rank))
        if out.apply(S1.to_ambient(e)) != S2.to_ambient(phi.apply(e)):
            raise ExtensionInternalError("extension does not restrict to phi")
    for j in range(K1.rank):
        e = tuple(int(i == j) for i in range(K1.rank))
        if out.apply(K1.to_ambient(e)) != K2.to_ambient(psi.apply(e)):
            raise ExtensionInternalError("extension does not restrict to psi")
    return out


def in_W(g, datum, disc=None):
    """Membership in the subgroup of orientation-preserving isometries acting
    as plus or minus the identity on the discriminant group."""
    from .isometries import ori_char
    if ori_char(g, datum) != 0:
        return False
    d = disc if disc is not None else disc_map(g)
    return d.sign() is not None


def in_N(g, datum, disc=None):
    """Membership in the index-2 subgroup where det times the discriminant
    sign is +1."""
    from .isometries import det_char
    d = disc if disc is not None else disc_map(g)
    if not in_W(g, datum, disc=d):
        return False
    s = d.sign()
    det_sign = 1 if det_char(g) == 0 else -1
    return det_sign * s == 1


def index_monodromy(k):
    """Index through the 2^(number of distinct primes of k) count, cross
    checked against the brute-force residue enumeration."""
    if k < 1:
        raise ValueError("k must be >= 1")
    expected = 2 ** count_distinct_primes(k)
    actual = len(enum_disc_autos(k))
    if expected != actual:
        raise RuntimeError("index formula mismatch at k=%d: %d vs %d"
                           % (k, expected, actual))
    return expected
