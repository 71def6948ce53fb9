"""Rank-8 extended cohomology lattice of an abelian surface.

Coordinates: index 0 is the degree-0 part, indices 1..6 the degree-2 part
(three hyperbolic blocks e,f | e2,f2 | e3,f3, with the first block the
designated Neron-Severi block), index 7 the degree-4 part.  The pairing of
(r1, x1, a1) and (r2, x2, a2) is x1.x2 - r1*a2 - r2*a1.

The lattice is one module-level `MUKAI`, and its degree-2 block one `U3`:
neither depends on the multiplicity m or on the polarization parameter t.
Carries the cohomological actions of the standard derived equivalences
(tensoring by a line bundle, the Poincare bundle and its dual variant, the
dual functor, and an elliptic-fibration transform) plus two independent
implementations of the orientation character.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .intmat import (transpose, identity, json_object, int_vector,
                     block_diag, ints, dot)
from .lattices import IntegerLattice
from .isometries import Isometry, IsometryError, ori_char


class DecisionDegenerate(ValueError):
    """The orientation test class has nonpositive square; the cone test
    cannot decide."""


H2_GRAM = block_diag(*[((0, 1), (1, 0))] * 3)
# the degree-0 and degree-4 parts pair to -1
MUKAI_GRAM = (((0,) * 7 + (-1,),)
              + tuple((0,) + row + (0,) for row in H2_GRAM)
              + ((-1,) + (0,) * 7,))
# the one rank-8 lattice and the one U^3 of the process, so each Smith form,
# orthogonal basis and positive frame is computed once
MUKAI = IntegerLattice(MUKAI_GRAM, label="mukai")
U3 = IntegerLattice(H2_GRAM, label="U^3")


@dataclass(frozen=True)
class MukaiVector:
    """(r, xi, a); TypeError unless every coordinate is an int (not a
    bool), so no float reaches the exact core, ValueError unless xi has 6
    coordinates.  xi is kept as the tuple that intmat.ints returns."""
    r: int
    xi: tuple
    a: int

    def __post_init__(self):
        ints((self.r, self.a), "Mukai vector coordinates")
        object.__setattr__(self, "xi", ints(self.xi, "degree-2 component",
                                            U3.rank))

    def vec8(self):
        return (self.r,) + self.xi + (self.a,)

    def square(self):
        return mukai_pairing(self, self)

    def is_primitive(self):
        return gcd(*self.vec8()) == 1

    def scale(self, m):
        return MukaiVector(m * self.r, tuple(m * c for c in self.xi), m * self.a)

    def to_json(self):
        return {"r": self.r, "xi": list(self.xi), "a": self.a}

    @classmethod
    def from_json(cls, d):
        """Vector from a JSON document; TypeError unless it is an object
        and r, a and the entries of the list xi are ints."""
        return cls(json_object(d, "Mukai vector")["r"], int_vector(d["xi"]),
                   d["a"])


def mukai_pairing(x, y):
    return U3.inner(x.xi, y.xi) - x.r * y.a - y.r * x.a


class MukaiModel:
    """Fixed rational model of the weight-2 structure on `MUKAI`.

    omega = e + t*f is the reference polarization (an int t >= 2) and the
    positive plane (e2+f2, e3+f3) models the symplectic-form directions.  The
    model holds only t and omega, which the cone test of `hodge_ori` and the
    effectivity of Mukai vectors read; the lattice does not depend on t.
    """

    def __init__(self, t=2):
        ints((t,), "t")
        if t < 2:
            raise ValueError("polarization parameter t must be >= 2")
        self.t = t
        self.omega = (1, t, 0, 0, 0, 0)

    def strictly_effective(self, xi):
        return any(xi) and U3.inner(xi, self.omega) > 0

    def is_valid_mukai_vector(self, v):
        if v.r < 0:
            return False
        if v.r > 0:
            return True
        return self.strictly_effective(v.xi) or (not any(v.xi) and v.a > 0)


@dataclass(frozen=True)
class MkTriple:
    """Multiplicity m >= 1, a primitive square-2k vector with k > 2 and the
    polarization parameter t >= 2 of its model.  The complement of v = m*w
    is that of w, so it reads k alone; t only enters `propdual_word`'s
    class.  TypeError unless m, k and t are ints (not bools)."""
    m: int
    k: int
    t: int = 2

    def __post_init__(self):
        ints((self.m, self.k, self.t), "m, k and t")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.k <= 2:
            raise ValueError("k must be > 2")
        MukaiModel(self.t)

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
        """Triple from a JSON document; TypeError unless it is an object
        and m, k and t are ints."""
        return cls(json_object(d, "triple")["m"], d["k"], d.get("t", 2))


def v_perp(v):
    """Orthogonal complement of v = m*(1,0,-k) with m, k >= 1, embedded in
    the rank-8 lattice in the canonical basis e, f, e2, f2, e3, f3,
    (1,0,...,0,k); ValueError for any other vector."""
    if v.r < 1 or any(v.xi) or v.a >= 0 or v.a % v.r:
        raise ValueError("v_perp needs v = m*(1,0,-k) with m, k >= 1, got %r"
                         % (v.vec8(),))
    k = -v.a // v.r
    basis = identity(8)[1:7] + ((1, 0, 0, 0, 0, 0, 0, k),)
    return MUKAI.sublattice(basis, label="v_perp")


# the linear action on (r, xi, a) of each elementary derived equivalence:
# tensoring by a line bundle of class c (the one action that reads c), the
# Poincare bundle, the dual, both, and the elliptic-fibration transform,
# which sends (1,0,0), (0,0,1), e, f to (0,e,1), (0,-f,0), (-1,-f,0),
# (0,0,1) and is minus the identity on the other two blocks
FM_ACTIONS = {
    "tensor": lambda r, xi, a, c: (
        r, tuple(x + r * ci for x, ci in zip(xi, c)),
        a + U3.inner(xi, c) + r * (U3.norm(c) // 2)),
    "poincare": lambda r, xi, a, c: (a, tuple(-x for x in xi), r),
    "dual": lambda r, xi, a, c: (r, tuple(-x for x in xi), a),
    "poincare_dual": lambda r, xi, a, c: (a, xi, r),
    "elliptic": lambda r, xi, a, c: (
        -xi[0], (r, -a - xi[0]) + tuple(-x for x in xi[2:]), r + xi[1]),
}
# (kind, class) keys whose checked action is kept for reuse
FM_ACTION_CACHE_SIZE = 128


def fm_action(kind, c=None):
    """Cohomological action of an elementary derived equivalence, as an
    isometry of `MUKAI`.  The action is built and checked once per
    (kind, c) and shared: callers must not mutate it.  Only `tensor` takes
    a class c; ValueError for a class with any other kind.  TypeError
    unless c is all ints, checked before the cache, whose keys cannot tell
    1 from 1.0 or True."""
    return _fm_action(kind, None if c is None else ints(c, "class entries"))


@lru_cache(maxsize=FM_ACTION_CACHE_SIZE)
def _fm_action(kind, c):
    if kind not in FM_ACTIONS:
        raise ValueError("unknown action kind: %r" % (kind,))
    if kind == "tensor":
        if c is None:
            raise ValueError("tensor action needs a class")
        if any(ints(c, "tensor class", U3.rank)[2:]):
            raise ValueError("tensor class must lie in the Neron-Severi block")
    elif c is not None:
        raise ValueError("only the tensor action takes a class, got %r for %r"
                         % (c, kind))
    # column j is the image of the basis vector e_j, read as (r, xi, a)
    cols = (FM_ACTIONS[kind](e[0], e[1:7], e[7], c) for e in identity(8))
    return Isometry(MUKAI, MUKAI,
                    transpose([(r,) + xi + (a,) for r, xi, a in cols]))


def h2_lift(h):
    """The rank-8 matrix acting as the 6 x 6 matrix h in degree 2 and as the
    identity in degrees 0 and 4; an isometry of the rank-8 lattice exactly
    when h is one of U^3."""
    return (((1,) + (0,) * 7,)
            + tuple((0,) + tuple(row) + (0,) for row in h)
            + ((0,) * 7 + (1,),))


def epsilon_ori(phi):
    """Orientation character of an isometry of the rank-8 lattice."""
    if phi.source != MUKAI:
        raise IsometryError("expected an isometry of the rank-8 lattice")
    return ori_char(phi)


def hodge_ori(model, phi):
    """Orientation character computed through the positive-cone criterion.

    Works for isometries respecting the model's rational weight decomposition
    (the positive symplectic plane maps to itself).  Decides by building the
    degree-2 test class and checking cone membership against omega.
    """
    if phi.source != MUKAI or phi.target != MUKAI:
        raise IsometryError("expected an isometry of the rank-8 lattice")
    for rho in ((0, 0, 0, 1, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1, 1, 0)):
        im = phi.apply(rho)
        # the symplectic plane is spanned by e2+f2 and e3+f3
        if im != (0, 0, 0, im[3], im[3], im[5], im[5], 0):
            raise IsometryError("phi moves rho out of the symplectic plane")
    t = model.t
    omega8 = (0, 1, t, 0, 0, 0, 0, -t)  # (0, omega, -omega^2/2)
    m0 = phi.matrix[0]  # the degree-0 parts of the images, row 0 of M
    r, chi, chi_om = m0[7], m0[0], dot(m0, omega8)  # of e7, e0 and omega8
    u0 = (-r, 0, 0, 0, 0, 0, 0, chi)
    u1 = (0, -r, -r * t, 0, 0, 0, 0, r * t + chi_om)
    if r != 0:
        # r times the test class, which is integral; the sign of r enters
        # the cone test below
        c1 = chi_om + r * t
        c2 = chi - r * t
        cls = tuple(c1 * x - c2 * y
                    for x, y in zip(phi.apply(u0)[1:7], phi.apply(u1)[1:7]))
    else:
        pu = phi.apply(omega8)[1:7]
        pe = tuple(row[0] for row in phi.matrix[1:7])  # image of e0
        d0 = phi.apply(u0)[1:7]
        d1 = phi.apply(u1)[1:7]
        cls = tuple(chi * a - chi_om * b - t * (x - y)
                    for a, b, x, y in zip(pu, pe, d0, d1))
    sq = U3.norm(cls)
    if sq <= 0:
        raise DecisionDegenerate("test class has nonpositive square")
    return 0 if (r or 1) * U3.inner(cls, model.omega) > 0 else 1
