"""Constructive pipeline moving a pair of primitive square-(2k-2) vectors of
U^3 onto a normal form by a determinant-1, orientation-preserving isometry.

Stages: build the target pair and the rank-2 isometry between the spans,
split a hyperbolic plane off each rank-4 complement by bounded search, find a
companion isometry of the complements matching the glue condition, extend to
the full lattice, then correct determinant (swap the isotropic generators of
the split-off plane) and orientation (minus the identity on that plane).
Every search is bounded and reports honest exhaustion.
"""

import itertools
from dataclasses import dataclass, field
from math import gcd

import numpy as np

from . import intmat, kernels
from .intmat import (mat, mat_vec, mat_mul, transpose, is_integral, to_int,
                     solve_rational)
from .lattices import IntegerLattice
from .isometries import (Isometry, OrientationDatum, ori_char,
                         identity_isometry, minus_identity)
from .discriminant import (NotFound, glue, extend_isometry, disc_map,
                           identity_disc_map)
from .mukai import H2_GRAM


class TargetsNotIntegral(ValueError):
    """The normal-form construction leaves the lattice: the span of the two
    input vectors is not primitive, so the prescribed images of its saturation
    generators acquire denominators.  The construction does not apply."""


AMBIENT = IntegerLattice(H2_GRAM, label="U^3")
U3_DATUM = OrientationDatum(AMBIENT, ((1, 1, 0, 0, 0, 0),
                                      (0, 0, 1, 1, 0, 0),
                                      (0, 0, 0, 0, 1, 1)))
F_VEC = (0, 1, 0, 0, 0, 0)


@dataclass(frozen=True)
class LemsimoProblem:
    k: int
    xi1: tuple
    xi2: tuple
    bound: int = 10

    def __post_init__(self):
        if self.k <= 2:
            raise ValueError("k must be > 2")
        if self.bound < 0:
            raise ValueError("bound must be >= 0")
        for xi in (self.xi1, self.xi2):
            if len(xi) != 6:
                raise ValueError("vectors live in a rank-6 lattice")
            if gcd(*[abs(int(c)) for c in xi]) != 1:
                raise ValueError("input vectors must be primitive")
            if AMBIENT.norm(xi) != 2 * self.k - 2:
                raise ValueError("input vectors must have square 2k-2")
        if self.xi2 == self.xi1 or self.xi2 == tuple(-c for c in self.xi1):
            raise ValueError("xi2 must differ from +-xi1 (rank-2 span needed)")

    @property
    def l(self):
        return AMBIENT.inner(self.xi1, self.xi2)


@dataclass
class LemsimoSolution:
    g: Isometry
    beta1: tuple
    beta2: tuple
    trace: list = field(default_factory=list)


def target_betas(k, l):
    beta1 = (0, 0, 1, k - 1, 0, 0)
    beta2 = (0, 0, 0, l, k - 1, 1)
    return beta1, beta2


def build_targets(problem):
    """Target pair in the second and third hyperbolic blocks, plus the
    isometry of rank-2 spans sending xi_i to beta_i - f."""
    k, l = problem.k, problem.l
    beta1, beta2 = target_betas(k, l)
    s1 = AMBIENT.saturate((problem.xi1, problem.xi2), label="S1")
    span_mat = transpose((problem.xi1, problem.xi2))  # 6 x 2
    ys = []
    for x in s1.embedding.basis:
        lam, mu = solve_rational(span_mat, x)
        y = tuple(lam * b1 + mu * b2 - (lam + mu) * fv
                  for b1, b2, fv in zip(beta1, beta2, F_VEC))
        if any(c.denominator != 1 for c in y):
            raise TargetsNotIntegral(
                "span of the inputs is not primitive; prescribed images "
                "have denominators")
        ys.append(tuple(int(c) for c in y))
    s2 = AMBIENT.span(ys, label="S2")
    if not AMBIENT.is_primitive(s2):
        raise TargetsNotIntegral("target span fails to be primitive")
    cols = [s2.from_ambient(y) for y in ys]
    if not is_integral(cols):
        raise TargetsNotIntegral("target span basis mismatch")
    phi = Isometry(s1, s2, transpose(to_int(cols)))
    for xi, beta in ((problem.xi1, beta1), (problem.xi2, beta2)):
        src = s1.from_ambient(xi)
        expect = tuple(b - fv for b, fv in zip(beta, F_VEC))
        if s2.to_ambient(phi.apply(src)) != expect:
            raise RuntimeError("target isometry misses beta - f")
    return beta1, beta2, phi


@dataclass
class Split:
    """A hyperbolic plane split off a rank-4 lattice: change of basis to
    (u, u', w1, w2) with u, u' the standard isotropic pair."""
    lattice: IntegerLattice
    block: IntegerLattice     # gram U + gram(W)
    to_block: Isometry        # lattice -> block


def iter_splits(K, bound):
    """Yield hyperbolic-plane splittings of K, one per distinct complement
    gram, from primitive isotropic box vectors pairing onto all of Z.
    Different isotropic vectors can produce inequivalent complements, so a
    caller searching for a particular complement should try several."""
    n = K.rank
    seen = set()
    for u in kernels.isotropic_vectors(K.gram, bound):
        if gcd(*[abs(c) for c in u]) != 1:
            continue
        pair = mat_vec(K.gram, u)
        g = gcd(*[abs(int(c)) for c in pair])
        if g != 1:
            continue
        x = _solve_unit_pairing(pair)
        half = K.norm(x) // 2
        uprime = tuple(xi - half * ui for xi, ui in zip(x, u))
        # complement of the plane <u, u'> inside K
        cond = mat((mat_vec(K.gram, u), mat_vec(K.gram, uprime)))
        wbasis = intmat.row_basis(intmat.kernel_int(cond))
        if len(wbasis) == 2:
            gw0 = mat_mul(mat_mul(wbasis, K.gram), transpose(wbasis))
            _, p = _reduce_gram2(gw0)
            wbasis = mat_mul(transpose(p), wbasis)
        newbasis = mat((u, uprime) + tuple(wbasis))
        if abs(intmat.det(newbasis)) != 1:
            continue
        gw = mat_mul(mat_mul(wbasis, K.gram), transpose(wbasis))
        if gw in seen:
            continue
        seen.add(gw)
        block_gram = [[0] * n for _ in range(n)]
        block_gram[0][1] = block_gram[1][0] = 1
        for i in range(n - 2):
            for j in range(n - 2):
                block_gram[2 + i][2 + j] = gw[i][j]
        block = IntegerLattice(block_gram, label="U+W")
        minv = to_int(intmat.inv_rational(transpose(newbasis)))
        iso = Isometry(K, block, minv)
        yield Split(K, block, iso)


def split_off_U(K, bound):
    """First hyperbolic-plane splitting of K found in the box, or NotFound."""
    for split in iter_splits(K, bound):
        return split
    raise NotFound(bound, stage="split")


def _solve_unit_pairing(pair):
    """Integer x with sum(pair[i] * x[i]) == 1, via iterated extended gcd."""
    x = [0] * len(pair)
    g = 0
    gx = [0] * len(pair)
    for i, c in enumerate(pair):
        c = int(c)
        if c == 0:
            continue
        if g == 0:
            g = abs(c)
            gx = [0] * len(pair)
            gx[i] = 1 if c > 0 else -1
            continue
        a, b, gg = _xgcd(g, abs(c))
        new = [a * t for t in gx]
        new[i] += b * (1 if c > 0 else -1)
        gx = new
        g = gg
        if g == 1:
            break
    if g != 1:
        raise ValueError("pairing values are not coprime")
    return tuple(gx)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, a


def _reduce_gram2(g):
    """Lagrange size reduction of a 2x2 symmetric gram.  Returns (gr, p)
    with p unimodular and p^T g p = gr; gr has small entries for definite
    forms and is at least shear-reduced for indefinite ones."""
    a, b, d = g[0][0], g[0][1], g[1][1]
    p = [[1, 0], [0, 1]]

    def shear(q):
        # second basis vector -= q * first
        nonlocal b, d
        d = d - 2 * q * b + q * q * a
        b = b - q * a
        p[0][1] -= q * p[0][0]
        p[1][1] -= q * p[1][0]

    def swap():
        nonlocal a, b, d
        a, d = d, a
        p[0][0], p[0][1] = p[0][1], p[0][0]
        p[1][0], p[1][1] = p[1][1], p[1][0]

    from fractions import Fraction
    for _ in range(256):
        if a == 0 and d == 0:
            break
        if a == 0 or (d != 0 and abs(d) < abs(a)):
            swap()
            continue
        q = round(Fraction(b, a))
        if q != 0:
            shear(q)
            continue
        break
    return mat(((a, b), (b, d))), mat(p)


def _gram2_autos(g, bound):
    """All unimodular 2x2 p with p^T g p == g, columns drawn from the
    coordinate box of the given radius."""
    c1s = kernels.vectors_with_square(g, bound, g[0][0])
    c2s = kernels.vectors_with_square(g, bound, g[1][1])
    out = []
    for c1 in c1s:
        row = mat_vec(g, c1)
        for c2 in c2s:
            if row[0] * c2[0] + row[1] * c2[1] != g[0][1]:
                continue
            p = ((c1[0], c2[0]), (c1[1], c2[1]))
            if abs(intmat.det(p)) == 1:
                out.append(p)
    return out


def _match_gram2(g_from, g_to, bound):
    """First unimodular 2x2 p (lex order) with p^T g_from p == g_to."""
    c1s = kernels.vectors_with_square(g_from, bound, g_to[0][0])
    c2s = kernels.vectors_with_square(g_from, bound, g_to[1][1])
    for c1 in c1s:
        row = mat_vec(g_from, c1)
        for c2 in c2s:
            if row[0] * c2[0] + row[1] * c2[1] != g_to[0][1]:
                continue
            p = ((c1[0], c2[0]), (c1[1], c2[1]))
            if abs(intmat.det(p)) == 1:
                return p
    return None


def _swap_iso(block):
    """Interchange the two isotropic generators of the split-off plane."""
    n = block.rank
    m = [[0] * n for _ in range(n)]
    m[0][1] = m[1][0] = 1
    for i in range(2, n):
        m[i][i] = 1
    return Isometry(block, block, mat(m))


def _minus_u_iso(block):
    """Minus the identity on the split-off plane, identity elsewhere."""
    n = block.rank
    m = [[0] * n for _ in range(n)]
    m[0][0] = m[1][1] = -1
    for i in range(2, n):
        m[i][i] = 1
    return Isometry(block, block, mat(m))


def find_companion(phi, K1, K2, glue1, glue2, bound):
    """Isometry of the complements whose discriminant action matches the glue
    requirement for phi; bounded search, honest NotFound."""
    phibar = disc_map(phi, glue1.disc_sub, glue2.disc_sub)
    target = glue2.gamma.compose(phibar).compose(glue1.gamma.inverse())

    # fast path: identity works
    if K1.gram == K2.gram:
        ident = Isometry(K1, K2, intmat.identity(K1.rank))
        if disc_map(ident, glue1.disc_comp, glue2.disc_comp) == target:
            return ident
    if bound <= 0:
        raise NotFound(bound, stage="companion")

    splits1 = list(itertools.islice(iter_splits(K1, bound), 32))
    splits2 = list(itertools.islice(iter_splits(K2, bound), 32))
    if not splits1 or not splits2:
        raise NotFound(bound, stage="split")
    n = K1.rank

    def wgram(split):
        return tuple(tuple(split.block.gram[2 + i][2 + j]
                           for j in range(n - 2)) for i in range(n - 2))

    # rank-2 complements of different splittings can be inequivalent even
    # when the full lattices are isometric, so scan pairs of splittings
    split1 = split2 = full = None
    for s1, s2 in itertools.product(splits1, splits2):
        gw1, gw2 = wgram(s1), wgram(s2)
        if gw1 == gw2:
            pmat = intmat.identity(n - 2)
        else:
            pmat = _match_gram2(gw2, gw1, bound)
            if pmat is None:
                continue
        full = [[0] * n for _ in range(n)]
        full[0][0] = full[1][1] = 1
        for i in range(n - 2):
            for j in range(n - 2):
                full[2 + i][2 + j] = pmat[i][j]
        split1, split2, full = s1, s2, mat(full)
        break
    if full is None:
        split1, split2 = splits1[0], splits2[0]
        full = _block_iso_search(split1.block.gram, split2.block.gram, bound)
        if full is None:
            raise NotFound(bound, stage="companion-w")
    mid = Isometry(split1.block, split2.block, full)
    psi0 = split2.to_block.inverse().compose(mid).compose(split1.to_block)

    d_k1 = glue1.disc_comp
    d_k2 = glue2.disc_comp
    delta = target.compose(disc_map(psi0, d_k1, d_k2).inverse())
    if delta.is_identity():
        return psi0

    # reflections in larger boxes are slow, so escalate the radius only
    # when the cheaper generator sets fail to reach the target
    h = None
    for radius in sorted({min(bound, 3), min(bound, 6), bound}):
        gens = _disc_generators(K2, split2, d_k2, radius)
        h = _bfs_disc(delta, gens, d_k2)
        if h is not None:
            break
    if h is None:
        raise NotFound(bound, stage="companion")
    return h.compose(psi0)


def _disc_generators(K, split, data, bound):
    """Isometries of K whose discriminant images seed the subgroup search:
    sign flips, the hyperbolic-plane corrections, automorphisms of the rank-2
    block, and the integral reflections in coordinate-box vectors (square 2,
    then square -2, then the rest).  Deduplicated by discriminant image, so
    the first witness of each image is kept."""
    cands = [minus_identity(K)]
    for base in (_swap_iso(split.block), _minus_u_iso(split.block)):
        cands.append(split.to_block.inverse().compose(base)
                     .compose(split.to_block))
    gw = tuple(tuple(split.block.gram[2 + i][2 + j]
                     for j in range(K.rank - 2)) for i in range(K.rank - 2))
    if len(gw) == 2:
        for pm in _gram2_autos(gw, bound):
            n = K.rank
            full = [[0] * n for _ in range(n)]
            full[0][0] = full[1][1] = 1
            for i in range(2):
                for j in range(2):
                    full[2 + i][2 + j] = pm[i][j]
            base = Isometry(split.block, split.block, mat(full))
            cands.append(split.to_block.inverse().compose(base)
                         .compose(split.to_block))
    cands.extend(_integral_reflections(K, bound))
    seen = {}
    for iso in cands:
        d = disc_map(iso, data, data)
        if d.images not in seen:
            seen[d.images] = (d, iso)
    return list(seen.values())


def _block_iso_search(g1, g2, bound, node_cap=200_000):
    """Bounded backtracking search for an integer matrix m with
    m^T g2 m == g1 and columns in the coordinate box.  Columns are filled in
    order of increasing candidate-pool size; pairing constraints against the
    columns already chosen are applied vectorized.  Returns m or None."""
    n = len(g1)
    vecs, sqs = kernels.box_squares(g2, bound)
    g2np = np.asarray(g2, dtype=np.int64)
    pools = {i: vecs[sqs == g1[i][i]] for i in range(n)}
    order = sorted(range(n), key=lambda i: len(pools[i]))
    chosen = {}
    pairvecs = {}
    nodes = [0]

    def rec(pos):
        if pos == n:
            return True
        i = order[pos]
        pool = pools[i]
        mask = np.ones(len(pool), dtype=bool)
        for j, pv in pairvecs.items():
            mask &= (pool @ pv) == g1[i][j]
        for row in pool[mask]:
            nodes[0] += 1
            if nodes[0] > node_cap:
                return False
            chosen[i] = row
            pairvecs[i] = g2np @ row
            if rec(pos + 1):
                return True
            del chosen[i], pairvecs[i]
        return False

    if not rec(0):
        return None
    return mat(tuple(tuple(int(chosen[j][i]) for j in range(n))
                     for i in range(n)))


def _integral_reflections(K, radius):
    """Reflections in box vectors of any nonzero square that happen to be
    integral on K (the square divides twice every pairing value).  Square 2
    comes first, then square -2, then every other square, each in
    lexicographic box order."""
    vecs, sqs = kernels.box_squares(K.gram, radius)
    n = K.rank
    # narrow an index array one gram column at a time: no second full-box
    # array is built, and the overflow guard of box_squares bounds pair2
    idx = np.flatnonzero(sqs)
    for j in range(n):
        pair2 = 2 * sum(vecs[idx, i] * K.gram[i][j] for i in range(n))
        idx = idx[pair2 % sqs[idx] == 0]
    hit = sqs[idx]
    idx = np.concatenate((idx[hit == 2], idx[hit == -2], idx[abs(hit) != 2]))
    out = []
    for u, sq in zip(vecs[idx].tolist(), sqs[idx].tolist()):
        gu = mat_vec(K.gram, u)
        cols = []
        for j in range(n):
            coef = 2 * gu[j] // sq
            cols.append(tuple((1 if i == j else 0) - coef * u[i]
                              for i in range(n)))
        out.append(Isometry(K, K, transpose(cols)))
    return out


def _bfs_disc(target, gens, data):
    """Breadth-first search in the subgroup of discriminant automorphisms
    generated by the given witnesses; returns an isometry mapping to target."""
    ident = identity_disc_map(data)
    start = identity_isometry(gens[0][1].source) if gens else None
    frontier = [(ident, start)]
    seen = {ident.images}
    if target.is_identity():
        return start
    while frontier:
        nxt = []
        for d, wit in frontier:
            for gd, giso in gens:
                nd = gd.compose(d)
                if nd.images in seen:
                    continue
                nwit = giso.compose(wit)
                if nd == target:
                    return nwit
                seen.add(nd.images)
                nxt.append((nd, nwit))
        frontier = nxt
    return None


def solve(problem):
    """Run the full pipeline; returns a solution with a stage trace."""
    trace = []
    beta1, beta2, phi = build_targets(problem)
    s1, s2 = phi.source, phi.target
    trace.append({"stage": "targets", "beta1": beta1, "beta2": beta2})
    k1 = AMBIENT.orth_complement(s1, label="K1")
    k2 = AMBIENT.orth_complement(s2, label="K2")
    glue1 = glue(s1, k1)
    glue2 = glue(s2, k2)
    trace.append({"stage": "glue",
                  "disc_S1": glue1.disc_sub.invariants,
                  "disc_K1": glue1.disc_comp.invariants})
    try:
        psi = find_companion(phi, k1, k2, glue1, glue2, problem.bound)
    except NotFound as nf:
        raise NotFound(nf.bound, stage="companion:" + nf.stage)
    trace.append({"stage": "companion", "matrix": psi.matrix})
    g = extend_isometry(phi, psi, glue1, glue2)
    trace.append({"stage": "extend", "det": g.det()})

    split2 = split_off_U(k2, problem.bound)

    def lift_correction(base):
        corr = split2.to_block.inverse().compose(base).compose(split2.to_block)
        if not disc_map(corr, glue2.disc_comp, glue2.disc_comp).is_identity():
            raise RuntimeError("correction acts on the discriminant")
        return extend_isometry(identity_isometry(s2), corr, glue2, glue2)

    if g.det() == -1:
        eta = lift_correction(_swap_iso(split2.block))
        if eta.det() != -1:
            raise RuntimeError("determinant correction has determinant 1")
        g = eta.compose(g)
        trace.append({"stage": "det-fix"})
    if ori_char(g, U3_DATUM) == 1:
        theta = lift_correction(_minus_u_iso(split2.block))
        if theta.det() != 1 or ori_char(theta, U3_DATUM) != 1:
            raise RuntimeError("orientation correction is not a pure "
                               "orientation flip")
        g = theta.compose(g)
        trace.append({"stage": "ori-fix"})

    if g.det() != 1:
        raise RuntimeError("pipeline produced determinant %d" % g.det())
    if ori_char(g, U3_DATUM) != 0:
        raise RuntimeError("pipeline reversed the orientation")
    for xi, beta in ((problem.xi1, beta1), (problem.xi2, beta2)):
        expect = tuple(b - fv for b, fv in zip(beta, F_VEC))
        if g.apply(xi) != expect:
            raise RuntimeError("pipeline produced a wrong image")
    trace.append({"stage": "done"})
    return LemsimoSolution(g, beta1, beta2, trace)
