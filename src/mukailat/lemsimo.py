"""Constructive pipeline moving a pair of primitive square-(2k-2) vectors of
U^3 onto a normal form by a determinant-1, orientation-preserving isometry.

Stages: build the target pair and the rank-2 isometry between the spans,
split a hyperbolic plane off each rank-4 complement by bounded search, find a
companion isometry of the complements matching the glue condition, and extend
to the full lattice.  A wrong determinant or orientation is fixed by the
reflections of U^3 in u - u' and u + u', (u, u') the hyperbolic pair split
off K2: they are kept with the target side and multiplied onto the answer.
Inside the search, maps are integer matrices; a map passed on (the
companion, a correction, the answer) is one integer product checked once as
an Isometry.  Every search is bounded and reports honest exhaustion.
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial, reduce
from math import gcd

from . import intmat, kernels
# solve_rational has no caller here; perfbench's tracer test asserts this
# binding, so it stays until that test stops naming the search layers
from .intmat import (mat, mat_vec, mat_mul, transpose, inv_unimodular,
                     block_diag, ints, solve_rational)
from .lattices import IntegerLattice, LatticeError
from .isometries import (Isometry, ori_char, reflect, reflection,
                         reflection_matrix)
from .discriminant import (NotFound, glue, extend_isometry, disc_map,
                           identity_disc_map)
from .mukai import U3 as AMBIENT


class TargetsNotIntegral(ValueError):
    """The normal-form construction leaves the lattice: the span of the two
    input vectors is not primitive, so the prescribed images of its saturation
    vectors have denominators.  The construction does not apply."""


F_VEC = (0, 1, 0, 0, 0, 0)


def check_bound(bound):
    """TypeError unless bound is an int, ValueError unless the searches of
    a solve can run their rank-4 box of coordinates in [-bound, bound]."""
    ints((bound,), "bound")
    top = kernels.max_box_bound(4)
    if not 0 <= bound <= top:
        raise ValueError("bound must be in 0..%d, got %d" % (top, bound))


@dataclass(frozen=True)
class LemsimoProblem:
    k: int
    xi1: tuple
    xi2: tuple
    bound: int = 10

    def __post_init__(self):
        ints((self.k,), "k")
        for name in ("xi1", "xi2"):  # kept as tuples: equal pairs compare equal
            object.__setattr__(self, name,
                               ints(getattr(self, name), name, AMBIENT.rank))
        if self.k <= 2:
            raise ValueError("k must be > 2")
        check_bound(self.bound)
        for xi in (self.xi1, self.xi2):
            if AMBIENT.norm(xi) != 2 * self.k - 2:
                raise ValueError("input vectors must have square 2k-2")

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


def targets(beta1, beta2):
    """The images t_i = beta_i - f prescribed for xi1 and xi2."""
    return tuple(tuple(b - fv for b, fv in zip(beta, F_VEC))
                 for beta in (beta1, beta2))


def input_span(problem):
    """S1, the span of the inputs with the basis (xi1, xi2): the one rule
    for which pairs are admissible.  LatticeError when the span is
    degenerate, TargetsNotIntegral when it is not primitive.  The e2 and f3
    coordinates of (t1, t2) form a unit minor, so a rational combination of
    the t_i is integral exactly when its coefficients are: the prescribed
    images stay in the lattice exactly when the span of the inputs is
    primitive."""
    if abs(problem.l) == 2 * problem.k - 2:
        raise LatticeError("span of the inputs is degenerate")
    s1 = AMBIENT.sublattice((problem.xi1, problem.xi2), label="S1")
    if not AMBIENT.is_primitive(s1):
        raise TargetsNotIntegral(
            "span of the inputs is not primitive; prescribed images have "
            "denominators")
    return s1


def build_targets(problem):
    """Target pair in the second and third hyperbolic blocks, plus the
    isometry of rank-2 spans sending xi_i to t_i.  Each span keeps the basis
    it is given, so the isometry is the identity matrix.  The span of the
    inputs is `input_span`'s, and the span of the targets is read from the
    target side."""
    beta1, beta2 = target_betas(problem.k, problem.l)
    s1 = input_span(problem)
    s2 = _target_side(problem.k, problem.l, problem.bound).glue2.sub
    return beta1, beta2, Isometry(s1, s2, intmat.identity(2))


class _ScanPrefix:
    """The items that the deterministic scan() has yielded so far, and
    whether it has ended.  It holds the scan's factory, not an iterator, so
    a kept prefix pins no box arrays: a reader that runs past `items`
    restarts the scan and skips them, which continues the same sequence."""

    def __init__(self, scan):
        self.scan = scan
        self.items = []
        self.done = False

    def read(self):
        """The items of scan(): the listed ones, then the rest, appended as
        they are first reached."""
        yield from self.items
        if self.done:
            return
        for item in itertools.islice(self.scan(), len(self.items), None):
            self.items.append(item)
            yield item
        self.done = True


class TargetSide:
    """The target side of the solves on one (k, l, bound): the glue of S2
    and K2, the splittings of K2 that companion scans have built, per
    (splitting index, radius) the discriminant generators that companion
    searches have built, and the det/ori corrections once a solve has
    needed them.  Every value in it is finished (see _ScanPrefix)."""

    def __init__(self, glue2, bound):
        self.glue2 = glue2
        self.splits = _ScanPrefix(partial(_first_splits, glue2.comp, bound))
        self.generators = {}

    @cached_property
    def corrections(self):
        """Per (det_fix, ori_fix), the isometry E of U^3 multiplied onto an
        answer, from the reflections in u - u' (square -2: det -1, keeps
        the orientation) and u + u' (square 2: det -1, reverses it), with
        (u, u') the hyperbolic pair of the first splitting of K2.  Both lie
        in a unimodular plane of K2 orthogonal to S2, so E fixes S2 and
        acts trivially on A_K2: E extend(phi, psi) is extend(phi, c psi),
        c the action of E on K2."""
        u, uprime = map(self.glue2.comp.to_ambient,
                        self.splits.items[0].basis[:2])
        minus = reflection(AMBIENT, tuple(a - b for a, b in zip(u, uprime)))
        plus = reflection(AMBIENT, tuple(a + b for a, b in zip(u, uprime)))
        return {(True, False): minus, (False, True): plus.compose(minus),
                (True, True): plus}


# (k, l, bound) keys whose target side is kept for reuse; a solve-small pool
# of 1000 inputs holds 96-97 of them
TARGET_SIDE_CACHE_SIZE = 128


@lru_cache(maxsize=TARGET_SIDE_CACHE_SIZE)
def _target_side(k, l, bound):
    """The target side of (k, l, bound), built once: the targets
    t_i = beta_i - f depend on (k, l) alone.  The caller has checked that
    |l| != 2k - 2, so their span is nondegenerate."""
    s2 = AMBIENT.sublattice(targets(*target_betas(k, l)), label="S2")
    return TargetSide(glue(s2, AMBIENT.orth_complement(s2, label="K2")),
                      bound)


@dataclass
class Split:
    """A hyperbolic plane <u, u'> = U split off a rank-4 lattice, `basis`
    the rows u, u', w1, w2: F = basis^T takes the block, of gram U + w_gram,
    to the lattice, F^T G F == U + w_gram.  F^-1 is built on first access."""
    lattice: IntegerLattice
    basis: tuple
    w_gram: tuple

    @cached_property
    def inverse(self):
        """F^-1, from lattice coordinates to block coordinates."""
        return inv_unimodular(transpose(self.basis))

    def pull_back(self, block_map):
        """F B F^-1: the matrix of the map of the lattice that acts as the
        block matrix B on the block."""
        return mat_mul(mat_mul(transpose(self.basis), block_map), self.inverse)


# splittings of each complement tried by the companion search
MAX_SPLITS = 32


def iter_splits(K, bound):
    """Yield hyperbolic-plane splittings of K, one per distinct complement
    gram, from primitive isotropic box vectors pairing onto all of Z.
    Different isotropic vectors can produce inequivalent complements, so a
    caller searching for a particular complement should try several."""
    seen = set()
    n = K.rank
    for u in kernels.isotropic_vectors(K.gram, bound):
        # -u came earlier in box order and splits off the same plane
        if next(c for c in u if c) > 0:
            continue
        pair = mat_vec(K.gram, u)
        if gcd(*pair) != 1:  # also makes u primitive
            continue
        x = _solve_unit_pairing(pair)
        half = K.norm(x) // 2
        uprime = tuple(xi - half * ui for xi, ui in zip(x, u))
        # K = <u, u'> + W with W the image of the orthogonal projection
        # x -> x - <x,u'> u - <x,u> u'; the plane is unimodular, so the
        # change of basis to (u, u', W) is too
        pair2 = mat_vec(K.gram, uprime)
        wbasis = intmat.row_basis(tuple(
            tuple(int(i == j) - pair2[j] * u[i] - pair[j] * uprime[i]
                  for i in range(n)) for j in range(n)))
        gw = mat_mul(mat_mul(wbasis, K.gram), transpose(wbasis))
        if len(wbasis) == 2:
            gw, p = _reduce_gram2(gw)
            wbasis = mat_mul(transpose(p), wbasis)
        if gw in seen:
            continue
        seen.add(gw)
        yield Split(K, (u, uprime) + wbasis, gw)


def split_off_U(K, bound):
    """First hyperbolic-plane splitting of K found in the box, or NotFound."""
    for split in iter_splits(K, bound):
        return split
    raise NotFound(bound, stage="split")


def _solve_unit_pairing(pair):
    """Integer x with sum(pair[i] * x[i]) == 1, via iterated extended gcd."""
    g = 0
    gx = [0] * len(pair)
    for i, c in enumerate(pair):
        if c == 0:
            continue
        if g == 0:
            g = abs(c)
            gx[i] = 1 if c > 0 else -1
            continue
        a, b, g = _xgcd(g, abs(c))
        gx = [a * t for t in gx]
        gx[i] += b * (1 if c > 0 else -1)
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

    for _ in range(256):
        if a == 0 and d == 0:
            break
        if a == 0 or (d != 0 and abs(d) < abs(a)):
            swap()
            continue
        # b / a rounded half to even
        q, r = divmod(b, a)
        if 2 * abs(r) > abs(a) or (2 * abs(r) == abs(a) and q % 2):
            q += 1
        if q != 0:
            shear(q)
            continue
        break
    return mat(((a, b), (b, d))), mat(p)


def _gram2_maps(g_from, g_to, bound):
    """Unimodular 2x2 p with p^T g_from p == g_to, columns drawn from the
    coordinate box of the given radius, in lexicographic order."""
    c1s = kernels.vectors_with_square(g_from, bound, g_to[0][0])
    c2s = kernels.vectors_with_square(g_from, bound, g_to[1][1])
    for c1 in c1s:
        row = mat_vec(g_from, c1)
        for c2 in c2s:
            if row[0] * c2[0] + row[1] * c2[1] != g_to[0][1]:
                continue
            p = ((c1[0], c2[0]), (c1[1], c2[1]))
            if abs(intmat.det(p)) == 1:
                yield p


def _first_splits(K, bound):
    """The splittings of K that a companion scan reads, in order."""
    return itertools.islice(iter_splits(K, bound), MAX_SPLITS)


def _companion_base(K1, bound, splits2):
    """Isometry K1 -> K2 through the first pair of splittings whose rank-2
    complements the box shows isometric, and the index in splits2, the
    scan prefix of the splittings of K2, of the splitting it passes
    through.  Rank-2 complements of different splittings can be
    inequivalent even when the full lattices are isometric, so pairs are
    scanned in (i, j) order, each splitting built when the scan first
    reaches it: every row rereads splits2, and a row that runs past it
    extends it.  The isometry is the one product F2 Mid F1^-1, checked
    once."""
    scanned = False
    for split1 in _first_splits(K1, bound):
        for j, split2 in enumerate(splits2.read()):
            scanned = True
            if split1.w_gram == split2.w_gram:
                pmat = intmat.identity(2)
            else:
                pmat = next(_gram2_maps(split2.w_gram, split1.w_gram, bound),
                            None)
            if pmat is not None:
                mid = block_diag(intmat.identity(2), pmat)
                return Isometry(K1, split2.lattice, mat_mul(mat_mul(
                    transpose(split2.basis), mid), split1.inverse)), j
    raise NotFound(bound, stage="companion-w" if scanned else "split")


def find_companion(phi, glue1, side, bound):
    """Isometry psi of the complements glue1.comp -> K2 that extends with
    phi, that is disc(psi) gamma1 == gamma2 disc(phi); bounded search,
    honest NotFound.  The splittings of K2 and the generator sets come from
    the target side, and the search extends them."""
    if bound <= 0:
        raise NotFound(bound, stage="companion")
    glue2 = side.glue2
    psi0, j = _companion_base(glue1.comp, bound, side.splits)

    d_k2 = glue2.disc_comp
    have = disc_map(psi0.apply, glue1.disc_comp, d_k2).compose(glue1.gamma)
    want = glue2.gamma.compose(
        disc_map(phi.apply, glue1.disc_sub, glue2.disc_sub))
    if have == want:
        return psi0

    # reflections in larger boxes are slow, so escalate the radius only
    # when the cheaper generator sets fail to reach the target
    for radius in sorted({min(bound, 3), min(bound, 6), bound}):
        gens = side.generators.setdefault((j, radius), _ScanPrefix(partial(
            _disc_generators, glue2.comp, side.splits.items[j], d_k2, radius)))
        h = _bfs_disc(have, want, gens, d_k2)
        if h is not None:
            return Isometry(glue1.comp, glue2.comp, mat_mul(h, psi0.matrix))
    raise NotFound(bound, stage="companion")


def _disc_generators(K, split, data, bound):
    """Matrices of isometries of K whose discriminant images seed the
    subgroup search: minus the identity, automorphisms of the rank-2 block,
    and the integral reflections in coordinate-box vectors (square 2, then
    -2, then the rest).  Maps acting on the split-off plane alone are left
    out: that plane is unimodular, so they act as the identity on A_K.
    Yields (disc image, matrix) the first time each image appears; a
    reflection's image is read off its vector, and its matrix is built only
    when the image is new."""
    seen = set()
    minus = tuple(tuple(-x for x in r) for r in intmat.identity(K.rank))
    autos = (split.pull_back(block_diag(intmat.identity(2), pm))
             for pm in _gram2_maps(split.w_gram, split.w_gram, bound))
    for m in itertools.chain((minus,), autos):
        d = disc_map(partial(mat_vec, m), data, data)
        if d.images not in seen:
            seen.add(d.images)
            yield d, m
    for u, sq in kernels.integral_reflections(K.gram, bound):
        gu = mat_vec(K.gram, u)
        d = disc_map(lambda y: reflect(y, u, gu, sq), data, data)
        if d.images not in seen:
            seen.add(d.images)
            yield d, reflection_matrix(u, gu, sq)


def _bfs_disc(have, want, gens, data):
    """Breadth-first search in the subgroup of discriminant automorphisms
    generated by the (disc image, matrix) pairs of the scan prefix gens, the
    first of them minus the identity; returns the matrix of an isometry h
    with disc(h) have == want, or None.  Every node rereads the pairs built
    so far, and a node that runs past them extends gens.  Nodes carry
    generator-index paths: h is the product of the matrices along the
    path."""
    ident = identity_disc_map(data)
    frontier = [(ident, ())]
    seen = {ident.images}
    while frontier:
        nxt = []
        for d, path in frontier:
            for i, (gd, _) in enumerate(gens.read()):
                nd = gd.compose(d)
                if nd.images in seen:
                    continue
                if nd.compose(have) == want:
                    return reduce(lambda m, j: mat_mul(gens.items[j][1], m),
                                  path + (i,),
                                  intmat.identity(data.lattice.rank))
                seen.add(nd.images)
                nxt.append((nd, path + (i,)))
        frontier = nxt
    return None


def solve(problem):
    """Run the full pipeline; returns a solution with a stage trace."""
    trace = []
    beta1, beta2, phi = build_targets(problem)
    side = _target_side(problem.k, problem.l, problem.bound)
    trace.append({"stage": "targets", "beta1": beta1, "beta2": beta2})
    glue1 = glue(phi.source, AMBIENT.orth_complement(phi.source, label="K1"))
    glue2 = side.glue2
    trace.append({"stage": "glue",
                  "disc_S1": glue1.disc_sub.invariants,
                  "disc_K1": glue1.disc_comp.invariants})
    try:
        psi = find_companion(phi, glue1, side, problem.bound)
    except NotFound as nf:
        raise NotFound(nf.bound, stage="companion:" + nf.stage)
    trace.append({"stage": "companion", "matrix": psi.matrix})
    g = extend_isometry(phi, psi, glue1, glue2)
    det, ori = g.det(), ori_char(g)
    trace.append({"stage": "extend", "det": det})
    det_fix, ori_fix = det == -1, ori == 1
    if det_fix:
        trace.append({"stage": "det-fix"})
    if ori_fix:
        trace.append({"stage": "ori-fix"})
    if det_fix or ori_fix:
        g = side.corrections[det_fix, ori_fix].compose(g)
        det, ori = g.det(), ori_char(g)

    if det != 1:
        raise RuntimeError("pipeline produced determinant %d" % det)
    if ori != 0:
        raise RuntimeError("pipeline reversed the orientation")
    for xi, t in zip((problem.xi1, problem.xi2), targets(beta1, beta2)):
        if g.apply(xi) != t:
            raise RuntimeError("pipeline produced a wrong image")
    trace.append({"stage": "done"})
    return LemsimoSolution(g, beta1, beta2, trace)
