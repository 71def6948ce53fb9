"""Rank-8 extended cohomology lattice of an abelian surface.

Coordinates: index 0 is the degree-0 part, indices 1..6 the degree-2 part
(three hyperbolic blocks e,f | e2,f2 | e3,f3, with the first block the
designated Neron-Severi block), index 7 the degree-4 part.  The pairing of
(r1, x1, a1) and (r2, x2, a2) is x1.x2 - r1*a2 - r2*a1.

Carries the cohomological actions of the standard derived equivalences
(tensoring by a line bundle, the Poincare bundle and its dual variant, the
dual functor, and an elliptic-fibration transform) plus two independent
implementations of the orientation character.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .intmat import mat, mat_vec, transpose, solve_rational
from .lattices import IntegerLattice, Embedding
from .isometries import Isometry, IsometryError, OrientationDatum, ori_char


class DecisionDegenerate(ValueError):
    """The orientation test class has nonpositive square; the cone test
    cannot decide."""


def _h2_gram():
    g = [[0] * 6 for _ in range(6)]
    for b in range(3):
        g[2 * b][2 * b + 1] = g[2 * b + 1][2 * b] = 1
    return mat(g)


def _mukai_gram():
    g = [[0] * 8 for _ in range(8)]
    h2 = _h2_gram()
    for i in range(6):
        for j in range(6):
            g[1 + i][1 + j] = h2[i][j]
    g[0][7] = g[7][0] = -1
    return mat(g)


H2_GRAM = _h2_gram()
MUKAI_GRAM = _mukai_gram()


def h2_inner(x, y):
    return sum(xi * v for xi, v in zip(x, mat_vec(H2_GRAM, y)))


@dataclass(frozen=True)
class MukaiVector:
    r: int
    xi: tuple
    a: int

    def __post_init__(self):
        if len(self.xi) != 6:
            raise ValueError("degree-2 component must have 6 coordinates")

    def vec8(self):
        return (self.r,) + tuple(self.xi) + (self.a,)

    @classmethod
    def from_vec8(cls, v):
        return cls(v[0], tuple(v[1:7]), v[7])

    def square(self):
        return mukai_pairing(self, self)

    def is_primitive(self):
        return gcd(*[abs(int(c)) for c in self.vec8()]) == 1

    def scale(self, m):
        return MukaiVector(m * self.r, tuple(m * c for c in self.xi), m * self.a)

    def to_json(self):
        return {"r": self.r, "xi": list(self.xi), "a": self.a}

    @classmethod
    def from_json(cls, d):
        return cls(d["r"], tuple(d["xi"]), d["a"])


def mukai_pairing(x, y):
    return h2_inner(x.xi, y.xi) - x.r * y.a - y.r * x.a


class MukaiModel:
    """Fixed rational model of the weight-2 structure on the rank-8 lattice.

    omega = e + t*f is the reference polarization (t >= 2), the positive
    plane (e2+f2, e3+f3) models the symplectic-form directions, and the
    orientation datum is {omega, e2+f2, e3+f3, (1,0,-1)}.
    """

    def __init__(self, t=2):
        if t < 2:
            raise ValueError("polarization parameter t must be >= 2")
        self.t = t
        self.lattice = IntegerLattice(MUKAI_GRAM, label="mukai")
        self.h2_lattice = IntegerLattice(H2_GRAM, label="h2")
        self.omega = (1, t, 0, 0, 0, 0)
        self.sigma_plane = ((0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1))
        omega8 = (0, 1, t, 0, 0, 0, 0, 0)
        rho1 = (0, 0, 0, 1, 1, 0, 0, 0)
        rho2 = (0, 0, 0, 0, 0, 1, 1, 0)
        s1 = (1, 0, 0, 0, 0, 0, 0, -1)
        self.eps = OrientationDatum(self.lattice, (omega8, rho1, rho2, s1))
        self.h2_datum = OrientationDatum(
            self.h2_lattice,
            ((1, t, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1)))

    def is_ns(self, c):
        return all(x == 0 for x in c[2:])

    def strictly_effective(self, xi):
        return any(xi) and h2_inner(xi, self.omega) > 0

    def is_valid_mukai_vector(self, v):
        if v.r < 0:
            return False
        if v.r > 0:
            return True
        return self.strictly_effective(v.xi) or (not any(v.xi) and v.a > 0)


@dataclass(frozen=True)
class MkTriple:
    """Multiplicity m >= 1 and a primitive square-2k vector with k > 2."""
    m: int
    k: int
    t: int = 2

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.k <= 2:
            raise ValueError("k must be > 2")

    def model(self):
        return MukaiModel(self.t)

    @property
    def w(self):
        return MukaiVector(1, (0,) * 6, -self.k)

    @property
    def v(self):
        return self.w.scale(self.m)

    def to_json(self):
        return {"m": self.m, "k": self.k, "t": self.t}

    @classmethod
    def from_json(cls, d):
        return cls(d["m"], d["k"], d.get("t", 2))


def v_perp(model, v):
    """Orthogonal complement of a positive-square vector, embedded in the
    rank-8 lattice.  For v = m*(1,0,-k) the basis is the canonical one:
    e, f, e2, f2, e3, f3, (1,0,...,0,k)."""
    vv = v.vec8()
    if not any(vv):
        raise ValueError("vector must be nonzero")
    m = gcd(*[abs(int(c)) for c in vv])
    w = tuple(c // m for c in vv)
    sq = v.square()
    if sq <= 0:
        raise ValueError("vector must have positive square")
    k = (sq // (m * m)) // 2
    canonical = w == (1, 0, 0, 0, 0, 0, 0, -k)
    if canonical:
        basis = []
        for i in range(1, 7):
            basis.append(tuple(int(j == i) for j in range(8)))
        basis.append((1, 0, 0, 0, 0, 0, 0, k))
        sub_gram = mat(tuple(tuple(model.lattice.inner(a, b) for b in basis)
                             for a in basis))
        return IntegerLattice(sub_gram, label="v_perp",
                              embedding=Embedding(model.lattice, mat(basis)))
    sub = model.lattice.saturate((w,))
    return model.lattice.orth_complement(sub, label="v_perp")


def fm_action(model, kind, c=None):
    """Cohomological action of an elementary derived equivalence, as an
    isometry of the rank-8 lattice."""
    n = 8
    cols = []
    if kind == "tensor":
        if c is None:
            raise ValueError("tensor action needs a class")
        c = tuple(c)
        if len(c) != 6 or not model.is_ns(c):
            raise ValueError("tensor class must lie in the Neron-Severi block")
        csq = h2_inner(c, c)
        for j in range(n):
            e = tuple(int(i == j) for i in range(n))
            r, xi, a = e[0], e[1:7], e[7]
            xi2 = tuple(x + r * ci for x, ci in zip(xi, c))
            a2 = a + h2_inner(xi, c) + r * (csq // 2)
            cols.append((r,) + xi2 + (a2,))
    elif kind == "poincare":
        for j in range(n):
            e = tuple(int(i == j) for i in range(n))
            cols.append((e[7],) + tuple(-x for x in e[1:7]) + (e[0],))
    elif kind == "dual":
        for j in range(n):
            e = tuple(int(i == j) for i in range(n))
            cols.append((e[0],) + tuple(-x for x in e[1:7]) + (e[7],))
    elif kind == "poincare_dual":
        for j in range(n):
            e = tuple(int(i == j) for i in range(n))
            cols.append((e[7],) + tuple(e[1:7]) + (e[0],))
    elif kind == "elliptic":
        images = {
            0: (0, 1, 0, 0, 0, 0, 0, 1),    # (1,0,0) -> (0,e,1)
            7: (0, 0, -1, 0, 0, 0, 0, 0),   # (0,0,1) -> (0,-f,0)
            1: (-1, 0, -1, 0, 0, 0, 0, 0),  # e -> (-1,-f,0)
            2: (0, 0, 0, 0, 0, 0, 0, 1),    # f -> (0,0,1)
        }
        for j in range(n):
            if j in images:
                cols.append(images[j])
            else:
                cols.append(tuple(-int(i == j) for i in range(n)))
    else:
        raise ValueError("unknown action kind: %r" % (kind,))
    return Isometry(model.lattice, model.lattice, transpose(cols))


def epsilon_ori(model, phi):
    """Orientation character against the fixed positive 4-frame."""
    return ori_char(phi, model.eps)


def _in_h11(model, x):
    rho1 = (0, 0, 0, 1, 1, 0, 0, 0)
    rho2 = (0, 0, 0, 0, 0, 1, 1, 0)
    return (model.lattice.inner(x, rho1) == 0
            and model.lattice.inner(x, rho2) == 0)


def hodge_ori(model, phi):
    """Orientation character computed through the positive-cone criterion.

    Works for isometries respecting the model's rational weight decomposition
    (the positive symplectic plane maps to itself).  Decides by building the
    degree-2 test class and checking cone membership against omega.
    """
    if phi.source.gram != MUKAI_GRAM or phi.target.gram != MUKAI_GRAM:
        raise IsometryError("expected an isometry of the rank-8 lattice")
    rho1 = (0, 0, 0, 1, 1, 0, 0, 0)
    rho2 = (0, 0, 0, 0, 0, 1, 1, 0)
    for rho in (rho1, rho2):
        im = phi.apply(rho)
        # image must stay in the symplectic plane
        coeffs = solve_rational(transpose((rho1, rho2)), im)
        del coeffs
    t = model.t
    omega8 = (0, 1, t, 0, 0, 0, 0, -t)  # (0, omega, -omega^2/2)
    e0 = tuple(int(i == 0) for i in range(8))
    e7 = tuple(int(i == 7) for i in range(8))
    r = phi.apply(e7)[0]
    chi = phi.apply(e0)[0]
    chi_om = phi.apply(omega8)[0]
    u0 = (-r, 0, 0, 0, 0, 0, 0, chi)
    u1 = (0, -r, -r * t, 0, 0, 0, 0, r * t + chi_om)
    if r != 0:
        c1 = Fraction(chi_om, r) + t
        c2 = Fraction(chi, r) - t
        cls = tuple(c1 * x - c2 * y
                    for x, y in zip(phi.apply(u0)[1:7], phi.apply(u1)[1:7]))
    else:
        pu = phi.apply(omega8)[1:7]
        pe = phi.apply(e0)[1:7]
        d0 = phi.apply(u0)[1:7]
        d1 = phi.apply(u1)[1:7]
        cls = tuple(chi * a - chi_om * b - t * (x - y)
                    for a, b, x, y in zip(pu, pe, d0, d1))
    sq = h2_inner(cls, cls)
    if sq <= 0:
        raise DecisionDegenerate("test class has nonpositive square")
    return 0 if h2_inner(cls, model.omega) > 0 else 1
