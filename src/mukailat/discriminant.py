"""Discriminant groups, glue data for primitive sublattices, and extension
of isometries across an orthogonal decomposition.

The discriminant group of a nondegenerate even lattice is the finite quotient
of the dual by the lattice; it carries a quadratic form with values in Q mod
2Z and a bilinear pairing with values in Q mod 1.  Everything below is exact.
"""

import itertools
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import prod
from operator import mod

from .intmat import mat_mul, mat_vec, dot, transpose, identity, ints
from .lattices import IntegerLattice, Embedding, LatticeError
from .isometries import Isometry, IsometryError, det_char, ori_char


class ExtensionObstructed(ValueError):
    """The discriminant compatibility equation fails; no extension exists."""


class IndexMismatch(RuntimeError):
    """The residue enumeration disagrees with the 2^(primes of k) count."""


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


class DiscriminantData:
    """Invariant-factor presentation of the discriminant group of a lattice,
    read off the lattice's cached Smith form u * gram * v == d.

    invariants: d_1 | d_2 | ... (each > 1); generator i has order d_i and is
    the class of generators[i] / d_i, an integer vector in L's basis
    coordinates (a column of v).  A dual point y has class
    (u * gram * y)_i mod d_i.  `pairing` is the integer matrix
    E^2 b(e_i, e_j) on the generators (E the exponent): the gram of their
    lifts, from which q and b are read.
    """

    def __init__(self, lattice):
        d, u, v = lattice.smith
        dall = tuple(d[i][i] for i in range(lattice.rank))
        self._keep = tuple(i for i in range(lattice.rank) if dall[i] > 1)
        self.lattice = lattice
        self.invariants = tuple(dall[i] for i in self._keep)
        vt = transpose(v)  # rows of vt are columns of v
        self.generators = tuple(vt[i] for i in self._keep)
        self.exponent = dall[-1] if dall else 1
        self._reducer = mat_mul(u, lattice.gram)
        lifts = tuple(self.lift(e)[0]
                      for e in identity(len(self.invariants)))
        self.pairing = Embedding(lattice, lifts).gram

    @property
    def order(self):
        return prod(self.invariants)

    def elements(self):
        return itertools.product(*(range(d) for d in self.invariants))

    def reduce(self, cls):
        """cls, one int per invariant (intmat.ints), reduced mod them:
        every method that takes a class reads it through here."""
        return tuple(map(mod, ints(cls, "class", len(self.invariants)),
                         self.invariants))

    def class_of(self, num, den):
        """Class of the dual point num / den (num an integer vector in
        lattice coordinates, den a positive int)."""
        if ints((den,), "denominator")[0] < 1:
            raise ValueError("denominator must be positive, got %d" % den)
        coords = mat_vec(self._reducer,
                         ints(num, "dual point", self.lattice.rank))
        if any(x % den for x in coords):
            raise LatticeError("vector is not in the dual lattice")
        return tuple(coords[i] // den % d
                     for i, d in zip(self._keep, self.invariants))

    def lift(self, cls):
        """(num, exponent): num / exponent is a dual point of class cls."""
        out = [0] * self.lattice.rank
        for c, gen, d in zip(self.reduce(cls), self.generators,
                             self.invariants):
            c *= self.exponent // d
            for a, x in enumerate(gen):
                out[a] += c * x
        return tuple(out), self.exponent

    def square(self, cls1, cls2=None):
        """E^2 b(cls1, cls2) as an integer (E the exponent) on the reduced
        classes; cls2 None reads cls1 once, for E^2 q(cls1) mod 2 E^2.  q and
        b read it; DiscMap.negates reads `pairing` in a pulled-back form."""
        c1 = self.reduce(cls1)
        c2 = c1 if cls2 is None else self.reduce(cls2)
        return dot(c1, mat_vec(self.pairing, c2))

    def q(self, cls):
        """Quadratic form value in [0, 2)."""
        n2 = self.exponent * self.exponent
        return Fraction(self.square(cls) % (2 * n2), n2)

    def b(self, cls1, cls2):
        """Bilinear pairing value in [0, 1)."""
        n2 = self.exponent * self.exponent
        return Fraction(self.square(cls1, cls2) % n2, n2)

    @cached_property
    def minus_identity(self):
        """The reduced images -e_i of minus the identity, built once:
        `DiscMap.is_minus_identity` compares with them."""
        return tuple(self.reduce(tuple(-x for x in e))
                     for e in identity(len(self.invariants)))

    def to_json(self):
        qs = map(self.q, identity(len(self.invariants)))
        return {"invariants": list(self.invariants),
                "qbar": ["%d/%d" % (q.numerator, q.denominator) for q in qs]}


class DiscMap:
    """Homomorphism between discriminant groups, given by generator images."""

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = tuple(target.reduce(im) for im in images)
        if len(self.images) != len(source.invariants):
            raise IsometryError("wrong number of generator images")

    def _combine(self, cls):
        """sum of c_i * images[i] over a reduced class c, not reduced."""
        g = len(self.target.invariants)
        out = [0] * g
        for c, im in zip(cls, self.images):
            for a in range(g):
                out[a] += c * im[a]
        return out

    def apply(self, cls):
        return self.target.reduce(self._combine(self.source.reduce(cls)))

    def compose(self, other):
        """self after other, combined from other's reduced images."""
        if other.target.invariants != self.source.invariants:
            raise IsometryError("composition mismatch")
        return DiscMap(other.source, self.target,
                       tuple(map(self._combine, other.images)))

    def __eq__(self, other):
        return (isinstance(other, DiscMap)
                and self.source.invariants == other.source.invariants
                and self.target.invariants == other.target.invariants
                and self.images == other.images)

    def __hash__(self):
        return hash(self.images)

    def is_identity(self):
        return self.images == identity(len(self.source.invariants))

    @cached_property
    def _form(self):
        """(F, E_S^2 E_T^2), F = E_T^2 P_S + E_S^2 Gam P_T Gam^T the integer
        form E_S^2 E_T^2 (b_S(x, y) + b_T(f x, f y)), P each `pairing` and
        Gam the images as rows, so f x is x Gam, not reduced (see `negates`)."""
        ns, nt = self.source.exponent ** 2, self.target.exponent ** 2
        gp = mat_mul(self.images, self.target.pairing)  # rows im_i P_T
        return tuple(tuple(nt * a + ns * dot(g, im)
                           for a, im in zip(rs, self.images))
                     for rs, g in zip(self.source.pairing, gp)), ns * nt

    def negates(self, cls1, cls2=None):
        """True if q(f x) + q(x) is in 2Z (cls2 None), or b(f x, f y) +
        b(x, y) in Z: x^T F y == 0 mod (2 or 1) E_S^2 E_T^2 with F of `_form`;
        x Gam unreduced serves: E^2 q is defined mod 2 E^2 and E^2 b mod E^2."""
        form, n2 = self._form
        c1 = self.source.reduce(cls1)
        c2 = c1 if cls2 is None else self.source.reduce(cls2)
        return dot(c1, mat_vec(form, c2)) % ((2 if cls2 is None else 1) * n2) == 0

    def is_minus_identity(self):
        return self.images == self.target.minus_identity

    def sign(self):
        """+1 / -1 if the map is plus or minus the identity, else None."""
        if self.is_identity():
            return 1
        if self.is_minus_identity():
            return -1
        return None


def identity_disc_map(data):
    return DiscMap(data, data, identity(len(data.invariants)))


def disc_map(f, source_data, target_data):
    """Induced map on discriminant groups of a linear map f of vectors, given
    the DiscriminantData of its source and of its target: `g.apply` for an
    isometry g, or any f that extends to the duals, such as an integral
    reflection.  The image of a generator y / d is the class of f(y) / d."""
    return DiscMap(source_data, target_data, tuple(
        target_data.class_of(f(v), d)
        for v, d in zip(source_data.generators, source_data.invariants)))


# enum_disc_autos scans the k odd residues mod 2k, so a larger k is refused
MAX_K = 10 ** 6


def enum_disc_autos(k):
    """All residues a mod 2k with gcd(a, 2k) = 1 and a^2 = 1 mod 4k.

    These are exactly the automorphisms of the cyclic discriminant group of
    U^3 + <-2k> that preserve its quadratic form.  The congruence alone
    decides: a^2 = 1 mod 4 forces a odd, and a prime dividing both a and k
    would divide a^2 - (a^2 - 1) = 1, so only the odd a in 1..2k-1 are
    scanned and no gcd is taken.  intmat.ints reads k.
    """
    if not 1 <= ints((k,), "k")[0] <= MAX_K:
        raise ValueError("k must be in 1..%d, got %d" % (MAX_K, k))
    m = 4 * k
    return [a for a in range(1, 2 * k, 2) if a * a % m == 1]


def count_distinct_primes(k):
    """Number of distinct primes dividing k; intmat.ints reads k, and
    ValueError for k < 1."""
    if ints((k,), "k")[0] < 1:
        raise ValueError("k must be positive, got %d" % k)
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
    gamma: DiscMap     # anti-isometry A_S -> A_K


def glue(S, K):
    """Glue data of a primitive sublattice S of a unimodular lattice L and its
    orthogonal complement K.  The anti-isometry it returns controls which
    isometry pairs on (S, K) extend to L.

    L is unimodular, so w -> (w . s_j)_j maps L onto the dual S^* exactly
    when S is primitive: then the one Smith form u * (B_S G) * v == d,
    `S.ambient_smith`, has every invariant factor 1, and R = v[:, :r] * u is
    a right inverse of B_S G.  w_i = R (gram_S y_i) in L projects to the
    generator y_i of A_S, and gamma(y_i) is the class of its image in K.
    LatticeError unless S and K live in equal lattices and B_S G B_K^T == 0:
    with the rank and order checks, that forces K == S^perp."""
    L = S.embedded().ambient
    bk = K.embedded(L).basis
    if L.smith[0] != identity(L.rank):
        raise LatticeError("ambient lattice must be unimodular")
    r = S.rank
    d, u, v = S.ambient_smith
    if any(d[i][i] != 1 for i in range(r)):
        raise LatticeError("S must be primitive")
    if r + K.rank != L.rank:
        raise LatticeError("S + K must have full rank")
    if any(map(any, mat_mul(S.embedding.basis_gram, transpose(bk)))):
        raise LatticeError("K must be orthogonal to S")

    disc_s = DiscriminantData(S)
    disc_k = DiscriminantData(K)
    if disc_s.order != disc_k.order:
        raise LatticeError("discriminant groups of S and K differ in order")
    right_inv = mat_mul(tuple(row[:r] for row in v), u)
    num_k, den_k = K.projection
    images = []
    for y, dy in zip(disc_s.generators, disc_s.invariants):
        w = mat_vec(right_inv, tuple(x // dy for x in mat_vec(S.gram, y)))
        images.append(disc_k.class_of(mat_vec(num_k, w), den_k))
    gamma = DiscMap(disc_s, disc_k, images)
    # anti-isometry on generators (quadratic values and cross pairings);
    # with the equal orders above this makes gamma bijective, since the
    # pairing on A_S is nondegenerate
    units = identity(len(disc_s.invariants))
    for i, ei in enumerate(units):
        if not gamma.negates(ei):
            raise LatticeError("glue map is not an anti-isometry")
        for ej in units[i + 1:]:
            if not gamma.negates(ei, ej):
                raise LatticeError("glue pairing is not anti-preserved")
    return GlueData(S, K, disc_s, disc_k, gamma)


def extend_isometry(phi, psi, glue1, glue2):
    """Extend phi: glue1.sub -> glue2.sub and psi: glue1.comp -> glue2.comp
    (IsometryError for lattices of other grams) to the ambient lattice, when
    the discriminant actions agree through the glue anti-isometries."""
    S1, K1 = glue1.sub, glue1.comp
    S2, K2 = glue2.sub, glue2.comp
    if phi.source != S1 or phi.target != S2:
        raise IsometryError("phi must map glue1.sub to glue2.sub")
    if psi.source != K1 or psi.target != K2:
        raise IsometryError("psi must map glue1.comp to glue2.comp")
    phibar = disc_map(phi.apply, glue1.disc_sub, glue2.disc_sub)
    psibar = disc_map(psi.apply, glue1.disc_comp, glue2.disc_comp)
    lhs = psibar.compose(glue1.gamma)
    rhs = glue2.gamma.compose(phibar)
    if lhs != rhs:
        raise ExtensionObstructed("discriminant actions do not match through glue")

    # an ambient vector is the sum of its projections to S1 and K1, so the
    # extension is (dk * B_S2^T phi num_S1 + ds * B_K2^T psi num_K1) / (ds dk)
    num_s, ds = S1.projection
    num_k, dk = K1.projection
    phi_amb = mat_mul(transpose(S2.embedding.basis), phi.matrix)
    psi_amb = mat_mul(transpose(K2.embedding.basis), psi.matrix)
    on_s = mat_mul(phi_amb, num_s)
    on_k = mat_mul(psi_amb, num_k)
    den = ds * dk
    m = tuple(tuple(dk * a + ds * b for a, b in zip(rs, rk))
              for rs, rk in zip(on_s, on_k))
    if any(x % den for row in m for x in row):
        raise ExtensionInternalError(
            "rational extension has non-integral entries")
    out = Isometry(S1.embedding.ambient, S2.embedding.ambient,
                   tuple(tuple(x // den for x in row) for row in m))
    # the restrictions must reproduce phi and psi exactly:
    # out B_S1^T == B_S2^T phi and out B_K1^T == B_K2^T psi
    if mat_mul(out.matrix, transpose(S1.embedding.basis)) != phi_amb:
        raise ExtensionInternalError("extension does not restrict to phi")
    if mat_mul(out.matrix, transpose(K1.embedding.basis)) != psi_amb:
        raise ExtensionInternalError("extension does not restrict to psi")
    return out


def characters(g, data):
    """Determinant, orientation and discriminant characters of an isometry g
    of the lattice of `data` (IsometryError for another one): det and disc
    as signs ("other" when g is not +-1 on A_L), ori as 0 or 1.  ori_char
    runs first: it refuses a g that is not an endomorphism."""
    if data.lattice != g.source:
        raise IsometryError("discriminant data of another lattice")
    ori = ori_char(g)
    return {"det": -1 if det_char(g) else 1,
            "ori": ori,
            "disc": {1: "+id", -1: "-id", None: "other"}[
                disc_map(g.apply, data, data).sign()]}


def in_W(chars):
    """Membership, read off `characters`, in the subgroup of orientation-
    preserving isometries acting as plus or minus the identity on the
    discriminant group."""
    return chars["ori"] == 0 and chars["disc"] != "other"


def in_N(chars):
    """Membership, read off `characters`, in the index-2 subgroup of W where
    det times the discriminant sign is +1."""
    return in_W(chars) and (chars["det"] == 1) == (chars["disc"] == "+id")


def index_monodromy(k, residues=None):
    """Index through the 2^(number of distinct primes of k) count, cross
    checked against the brute-force residue enumeration; `residues` is that
    enumeration when the caller has it already.  k is read as
    `count_distinct_primes` reads it, with or without `residues`."""
    if residues is None:
        residues = enum_disc_autos(k)
    expected = 2 ** count_distinct_primes(k)
    actual = len(residues)
    if expected != actual:
        raise IndexMismatch("index formula mismatch at k=%d: %d vs %d"
                            % (k, expected, actual))
    return expected
