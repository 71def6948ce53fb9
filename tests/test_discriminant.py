"""Discriminant groups, glue data, and extension of isometries."""

import functools
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from mukailat import discriminant, intmat, lattices
from mukailat.intmat import (det, inv_rational, inv_unimodular, mat, mat_vec,
                             snf, solve_rational, transpose)
from mukailat.lattices import (IntegerLattice, LatticeError, hyperbolic_sum,
                               direct_sum, rank_one)
from mukailat.isometries import (Isometry, IsometryError, identity_isometry,
                                 minus_identity, reflection, minus_reflection,
                                 ori_char)
from mukailat.discriminant import (DiscriminantData, DiscMap, disc_map,
                                   identity_disc_map, enum_disc_autos,
                                   count_distinct_primes, index_monodromy,
                                   glue, extend_isometry, ExtensionObstructed,
                                   NotFound, characters, in_W, in_N)
from mukailat.kernels import vectors_with_square, integral_reflections
from mukailat.lemsimo import AMBIENT, LemsimoProblem, solve
from mukailat.monodromy import WordError, restrict
from mukailat.mukai import (MUKAI, U3, MkTriple, MukaiModel, epsilon_ori,
                            hodge_ori, v_perp)
from mukailat.verify import _random_primitive_sublattice, sample_admissible_pair


def _perp(k):
    return direct_sum(hyperbolic_sum(3), rank_one(-2 * k))


def test_disc_group_of_rank_one():
    data = DiscriminantData(rank_one(-6))
    assert data.invariants == (6,)
    assert data.order == 6
    assert data.q((1,)) == Fraction(-1, 6) % 2
    assert data.b((1,), (1,)) == Fraction(-1, 6) % 1


def test_disc_group_of_unimodular_is_trivial():
    data = DiscriminantData(hyperbolic_sum(2))
    assert data.invariants == ()
    assert data.order == 1


def test_disc_group_of_perp_lattice():
    for k in (3, 4, 7):
        data = DiscriminantData(_perp(k))
        assert data.invariants == (2 * k,)
        assert data.q((1,)) == Fraction(-1, 2 * k) % 2


def test_class_of_and_lift_are_inverse():
    lat = rank_one(-8)
    data = DiscriminantData(lat)
    for c in range(8):
        assert data.class_of(*data.lift((c,))) == (c % 8,)


@pytest.mark.parametrize("bad", [(1.5,), (True,), (Fraction(1),)])
def test_class_readers_refuse_non_integers(bad):
    """On the k = 3 complement a truncating reduce gave q((1.5,)) = 11/6,
    and apply((1.5,)) = (1,); lift gave float numerators."""
    data = DiscriminantData(v_perp(MkTriple(1, 3).v))
    for read in (data.q, lambda c: data.b(c, (1,)), lambda c: data.b((1,), c),
                 data.lift, identity_disc_map(data).apply):
        with pytest.raises(TypeError):
            read(bad)


# the k = 3 complement (rank 7 in the rank-8 lattice, invariants (6,)), a
# reflection of U^3 and the vector or class that each reader below accepts
_VP = v_perp(MkTriple(1, 3).v)
_DATA = DiscriminantData(_VP)
_G = reflection(AMBIENT, (1, 1, 0, 0, 0, 0))
_E = (1, 2, 0, 0, 0, 0)
_NUM, _DEN = _DATA.lift((1,))
_READERS = {
    "inner, left": (lambda u: AMBIENT.inner(u, _E), _E),
    "inner, right": (lambda v: AMBIENT.inner(_E, v), _E),
    "norm": (AMBIENT.norm, _E),
    "to_ambient": (_VP.to_ambient, (1,) * 7),
    "from_ambient": (_VP.from_ambient, _VP.to_ambient((1,) * 7)),
    "Isometry.apply": (_G.apply, _E),
    "reduce": (_DATA.reduce, (1,)),
    "q": (_DATA.q, (1,)),
    "b, left": (lambda c: _DATA.b(c, (1,)), (1,)),
    "b, right": (lambda c: _DATA.b((1,), c), (1,)),
    "lift": (_DATA.lift, (1,)),
    "DiscMap.apply": (identity_disc_map(_DATA).apply, (1,)),
    "DiscMap images": (lambda c: DiscMap(_DATA, _DATA, [c]), (1,)),
    "class_of": (lambda y: _DATA.class_of(y, _DEN), _NUM),
    "square, left": (lambda c: _DATA.square(c, (1,)), (1,)),
    "square, right": (lambda c: _DATA.square((1,), c), (1,)),
    "DiscMap.negates": (identity_disc_map(_DATA).negates, (1,)),
    "reflection": (lambda u: reflection(AMBIENT, u), (1, 1, 0, 0, 0, 0)),
    "minus_reflection": (lambda u: minus_reflection(AMBIENT, u),
                         (1, 1, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(_READERS))
@pytest.mark.parametrize("fault", ["short", "long", "float", "bool",
                                   "Fraction"])
def test_vector_readers_refuse_wrong_lengths_and_non_integers(name, fault):
    """Each public reader of a vector or a class refuses one entry too few
    or too many with a ValueError that names the length, and a float, a
    bool or a Fraction with a TypeError: none cuts or pads its input as zip
    does, and none returns a result or ends in an IndexError."""
    read, good = _READERS[name]
    assert read(good) is not None
    n = len(good)
    bad = {"short": good[:-1], "long": good + (0,),
           "float": (good[0] + 0.5,) + good[1:], "bool": (True,) + good[1:],
           "Fraction": (Fraction(good[0]),) + good[1:]}[fault]
    if len(bad) != n:
        error, message = ValueError, "must have %d entries, got %d" % (
            n, len(bad))
    else:
        error, message = TypeError, "must be integers"
    with pytest.raises(error, match=message):
        read(bad)


def test_a_class_of_another_length_is_refused():
    """On the k = 3 complement reduce zipped a class with the invariants:
    q((1, 5)) was q((1,)), q(()) was 0, lift((1, 7)) was the lift of (1,)
    and apply((2, 9)) was (2,)."""
    for call in (lambda: _DATA.q((1, 5)), lambda: _DATA.q(()),
                 lambda: _DATA.lift((1, 7)),
                 lambda: identity_disc_map(_DATA).apply((2, 9))):
        with pytest.raises(ValueError, match="class must have 1 entries"):
            call()


def test_class_of_reads_its_denominator():
    """class_of(lift((1,))[0], 6.0) was the float class (1.0,); a
    denominator is an int (intmat.ints) and positive."""
    assert _DATA.class_of(_NUM, _DEN) == (1,)
    for den in (6.0, True, Fraction(6)):
        with pytest.raises(TypeError, match="denominator must be integers"):
            _DATA.class_of(_NUM, den)
    for den in (0, -6):
        with pytest.raises(ValueError, match="denominator must be positive"):
            _DATA.class_of(_NUM, den)


def test_class_of_rejects_non_dual_points():
    data = DiscriminantData(rank_one(-8))
    with pytest.raises(LatticeError):
        data.class_of((1,), 3)


def test_enum_disc_autos_small_cases():
    assert enum_disc_autos(3) == [1, 5]
    assert enum_disc_autos(4) == [1, 7]
    assert enum_disc_autos(6) == [1, 5, 7, 11]
    assert enum_disc_autos(1) == [1]


def _gcd_scan(k):
    """The former enumeration, kept as the reference: every a in 1..2k
    with gcd(a, 2k) = 1 and a^2 = 1 mod 4k."""
    return [a for a in range(1, 2 * k + 1)
            if gcd(a, 2 * k) == 1 and (a * a - 1) % (4 * k) == 0]


def test_enum_disc_autos_matches_the_gcd_scan():
    """The odd-a scan with a * a % 4k == 1 matches the gcd scan and the
    former odd-a test (a^2 - 1) % 4k == 0."""
    for k in range(1, 2001):
        want = _gcd_scan(k)
        assert enum_disc_autos(k) == want
        assert want == [a for a in range(1, 2 * k, 2)
                        if (a * a - 1) % (4 * k) == 0]


@pytest.mark.parametrize("read", [enum_disc_autos, index_monodromy])
@pytest.mark.parametrize("k", [True, 3.0])
def test_k_is_read_as_an_integer(read, k):
    """intmat.ints reads k: True was read as 1 and 3.0 ended in Python's
    "'float' object cannot be interpreted as an integer"."""
    with pytest.raises(TypeError, match="k must be integers"):
        read(k)


def test_index_formula_matches_prime_count():
    for k in range(1, 60):
        assert index_monodromy(k) == 2 ** count_distinct_primes(k)


def test_disc_map_of_reflections():
    # reflections in square +-2 vectors act trivially on the discriminant;
    # the signed reflection in a +2 vector therefore acts as -id
    from mukailat.isometries import minus_reflection
    lat = _perp(3)
    data = DiscriminantData(lat)
    for u in ((1, -1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0),
              (1, 2, 0, 0, 0, 0, 1)):
        assert disc_map(reflection(lat, u).apply, data, data).sign() == 1
    assert disc_map(minus_reflection(lat, (1, 1, 0, 0, 0, 0, 0)).apply,
                    data, data).sign() == -1
    assert disc_map(identity_isometry(lat).apply, data, data).sign() == 1


def test_disc_map_compose_and_inverse():
    lat = _perp(5)
    data = DiscriminantData(lat)
    d = disc_map(minus_identity(lat).apply, data, data)
    assert d.compose(d).is_identity()
    assert identity_disc_map(data).sign() == 1


def _former_sign(f):
    """DiscMap.sign as it was: -e_i rebuilt and reduced on every call."""
    units = intmat.identity(len(f.source.invariants))
    if f.images == units:
        return 1
    if f.images == tuple(f.target.reduce(tuple(-x for x in e))
                         for e in units):
        return -1
    return None


# one to three invariants, with exponents 2 (where -id is id), 4, 6 and 14
_SIGN_DATA = tuple(DiscriminantData(lat) for lat in (
    _perp(7), rank_one(-2), direct_sum(rank_one(-4), rank_one(4)),
    direct_sum(rank_one(2), rank_one(-2), rank_one(6)),
    direct_sum(hyperbolic_sum(1), rank_one(-4), rank_one(-12))))


def test_sign_matches_the_former_comprehension():
    """sign() on random maps, and on maps whose every image is e_i or
    -e_i, reads the kept minus-identity images as the former rebuilt ones."""
    seen = set()

    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def check(data):
        d = data.draw(st.sampled_from(_SIGN_DATA))
        images = []
        for e in intmat.identity(len(d.invariants)):
            images.append(data.draw(st.one_of(
                st.just(e), st.just(tuple(-x for x in e)),
                st.tuples(*(st.integers(-n, 2 * n) for n in d.invariants)))))
        f = DiscMap(d, d, images)
        want = _former_sign(f)
        assert f.sign() == want
        assert f.sign() == want  # again, on the kept images
        seen.add(want)

    check()
    assert seen == {1, -1, None}


def _frac_mod(x, modulus):
    x = Fraction(x)
    return x - (x / modulus).__floor__() * modulus


class _FractionLifts:
    """The former presentation of a discriminant group, kept as the
    reference for the integer one: Fraction generator lifts v_i / d_i from
    snf(gram) = (d, u, v), and the class of a dual point y read from the
    integer vector gram * y."""

    def __init__(self, lat):
        d, u, v = snf(lat.gram)
        dall = [d[i][i] for i in range(lat.rank)]
        self.keep = [i for i in range(lat.rank) if dall[i] > 1]
        self.invariants = tuple(dall[i] for i in self.keep)
        vt = transpose(v)
        self.lifts = [tuple(Fraction(x, dall[i]) for x in vt[i])
                      for i in self.keep]
        self.lat, self.u, self.dall = lat, u, dall

    def class_of(self, y):
        w = mat_vec(self.lat.gram, y)
        assert all(Fraction(x).denominator == 1 for x in w)
        coords = mat_vec(self.u, tuple(int(x) for x in w))
        return tuple(int(coords[i]) % self.dall[i] for i in self.keep)

    def lift(self, cls):
        out = tuple(Fraction(0) for _ in range(self.lat.rank))
        for c, gen in zip(cls, self.lifts):
            out = tuple(o + c * g for o, g in zip(out, gen))
        return out

    def q(self, cls):
        l = self.lift(cls)
        return _frac_mod(intmat.dot(l, mat_vec(self.lat.gram, l)), 2)

    def b(self, cls1, cls2):
        return _frac_mod(intmat.dot(
            self.lift(cls1), mat_vec(self.lat.gram, self.lift(cls2))), 1)

    def disc_images(self, g):
        return tuple(self.class_of(mat_vec(g.matrix, y)) for y in self.lifts)


@st.composite
def small_even_grams(draw):
    """Symmetric, even, nondegenerate grams of rank 1..4, small entries."""
    n = draw(st.integers(1, 4))
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-4, 4))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    assume(det(g) != 0)
    return mat(g)


@settings(max_examples=60, deadline=None)
@given(gram=small_even_grams(), data=st.data())
def test_integer_layer_matches_fraction_lifts(gram, data):
    lat = IntegerLattice(gram)
    disc = DiscriminantData(lat)
    ref = _FractionLifts(lat)
    assert disc.invariants == ref.invariants
    elems = list(itertools.islice(disc.elements(), 12))
    for cls in elems:
        assert disc.class_of(*disc.lift(cls)) == cls
        assert disc.q(cls) == ref.q(cls)
        for cls2 in elems[:4]:
            assert disc.b(cls, cls2) == ref.b(cls, cls2)
    # classes of dual points gram^-1 z
    z = data.draw(st.lists(st.integers(-9, 9), min_size=lat.rank,
                           max_size=lat.rank))
    y = mat_vec(inv_rational(lat.gram), z)
    num = tuple(int(x * disc.exponent) for x in y)
    assert disc.class_of(num, disc.exponent) == ref.class_of(y)
    # induced maps of words in -1 and integral reflections
    # each reflection built from the (u, u.u) that is yielded and gu = G u:
    # column j is e_j - (2 gu_j / sq) u
    n = lat.rank
    gens = [minus_identity(lat)] + [
        Isometry(lat, lat, transpose([
            tuple(int(i == j) - 2 * gu[j] // sq * u[i] for i in range(n))
            for j in range(n)]))
        for u, sq in integral_reflections(lat.gram, 1)
        for gu in (mat_vec(lat.gram, u),)]
    word = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=3))
    g = identity_isometry(lat)
    for h in word:
        assert disc_map(h.compose(g).apply, disc, disc) == disc_map(
            h.apply, disc, disc).compose(disc_map(g.apply, disc, disc))
        g = h.compose(g)
    d = disc_map(g.apply, disc, disc)
    assert d.images == ref.disc_images(g)
    assert disc_map(g.inverse().apply, disc, disc).compose(d).is_identity()


@settings(max_examples=60, deadline=None)
@given(gram=small_even_grams(), data=st.data())
def test_q_matches_the_fraction_reduction(gram, data):
    """q reduces the integer numerator mod 2 den^2 before it builds one
    Fraction; the former value Fraction(norm, den^2) % 2 is the reference,
    on reduced and unreduced classes alike."""
    disc = DiscriminantData(IntegerLattice(gram))
    classes = list(itertools.islice(disc.elements(), 24))
    classes += [tuple(data.draw(st.integers(-50, 50)) for _ in disc.invariants)
                for _ in range(4)]
    for cls in classes:
        y, den = disc.lift(disc.reduce(cls))
        want = Fraction(disc.lattice.norm(y), den * den) % 2
        got = disc.q(cls)
        assert got == want and type(got) is Fraction


@settings(max_examples=60, deadline=None)
@given(gram=small_even_grams())
def test_q_and_b_read_the_pairing_matrix(gram):
    """pairing[i][j] is E^2 b(e_i, e_j) on the generators, from the lifts;
    q and b then read it, with no lift and no lattice pairing per call."""
    disc = DiscriminantData(IntegerLattice(gram))
    units = intmat.identity(len(disc.invariants))
    lifts = [disc.lift(e)[0] for e in units]
    assert disc.pairing == tuple(
        tuple(disc.lattice.inner(y1, y2) for y2 in lifts) for y1 in lifts)
    n2 = disc.exponent ** 2
    want = {}
    for c1 in disc.elements():
        y1, _ = disc.lift(c1)
        for c2, y2 in zip(units, lifts):
            want[c1, c2] = (Fraction(disc.lattice.norm(y1), n2) % 2,
                            Fraction(disc.lattice.inner(y1, y2), n2) % 1)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(disc, "lift", None)
        m.setattr(IntegerLattice, "inner", None)
        for (c1, c2), value in want.items():
            assert (disc.q(c1), disc.b(c1, c2)) == value


def orth_group_elements(data, cap=2000):
    """Brute-force list of all quadratic-form automorphisms of a discriminant
    group, as DiscMaps.  Errors if the group order exceeds the cap."""
    if data.order > cap:
        raise ValueError("discriminant group too large for brute force")
    gcount = len(data.invariants)
    out = []
    gens = [tuple(int(i == a) for a in range(gcount)) for i in range(gcount)]
    for images in itertools.product(data.elements(), repeat=gcount):
        m = DiscMap(data, data, images)
        # must preserve q and b on generators, be invertible and be a
        # homomorphism respecting orders
        if any(data.q(e) != data.q(m.apply(e)) for e in gens):
            continue
        if any(data.b(e, f) != data.b(m.apply(e), m.apply(f))
               for e, f in itertools.combinations(gens, 2)):
            continue
        ok = True
        for i, ei in enumerate(gens):
            order = data.invariants[i]
            scaled = data.reduce(tuple(order * x for x in m.apply(ei)))
            if any(scaled):
                ok = False
                break
        if not ok:
            continue
        seen = set(m.apply(c) for c in data.elements())
        if len(seen) == data.order:
            out.append(m)
    return out


def test_orth_group_elements_matches_residue_count():
    for k in (3, 4, 6):
        lat = _perp(k)
        data = DiscriminantData(lat)
        elems = orth_group_elements(data)
        assert len(elems) == len(enum_disc_autos(k))


def _glued_pair():
    u3 = hyperbolic_sum(3)
    s = u3.saturate(((1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0)))
    k = u3.orth_complement(s)
    return u3, s, k


def test_glue_anti_isometry():
    _, s, k = _glued_pair()
    gd = glue(s, k)
    assert gd.disc_sub.order == gd.disc_comp.order
    g = len(gd.disc_sub.invariants)
    for cls in gd.disc_sub.elements():
        qs = gd.disc_sub.q(cls)
        qk = gd.disc_comp.q(gd.gamma.apply(cls))
        assert (qs + qk) % 2 == 0


def test_glue_requires_primitive_sublattice():
    u3 = hyperbolic_sum(3)
    s = u3.span(((2, 4, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)))
    k = u3.orth_complement(s)
    with pytest.raises(LatticeError, match="S must be primitive"):
        glue(s, k)


def _solve_integer(a, b):
    """Integer solution x of a @ x = b, or None if none exists."""
    d, u, v = snf(a)
    rows, cols = len(a), len(a[0])
    y = mat_vec(u, b)
    rank = sum(1 for i in range(min(rows, cols)) if d[i][i] != 0)
    z = [0] * cols
    for i in range(rows):
        if i < rank:
            if y[i] % d[i][i] != 0:
                return None
            z[i] = y[i] // d[i][i]
        elif y[i] != 0:
            return None
    return mat_vec(v, z)


def _glue_group_gamma(S, K):
    """Images of gamma by the former algorithm, kept as the reference: the
    glue group H = L/(S+K) from the Smith form of the stacked bases, the
    classes of the projections of its generators in A_S and A_K, and each
    generator of A_S written through the A_S classes by an integer solve,
    the same combination then taken in A_K."""
    n = S.embedding.ambient.rank
    d, u, _ = snf(transpose(S.embedding.basis + K.embedding.basis))
    uinv = inv_unimodular(u)
    gens = [tuple(uinv[r][i] for r in range(n))
            for i in range(n) if d[i][i] > 1]
    disc_s, disc_k = DiscriminantData(S), DiscriminantData(K)

    def classes(lat, data):
        num, den = lat.projection
        return [data.class_of(mat_vec(num, h), den) for h in gens]

    im_s, im_k = classes(S, disc_s), classes(K, disc_k)
    t = len(disc_s.invariants)
    m_s = transpose(im_s + [tuple(disc_s.invariants[i] if a == i else 0
                                  for i in range(t)) for a in range(t)])
    images = []
    for i in range(t):
        x = _solve_integer(m_s, tuple(int(i == a) for a in range(t)))
        assert x is not None
        img = [sum(c * imk[a] for c, imk in zip(x, im_k))
               for a in range(len(disc_k.invariants))]
        images.append(disc_k.reduce(img))
    return tuple(images)


def test_glue_matches_glue_group_reference():
    rng = random.Random(7)
    ranks = set()
    for _ in range(120):
        s, k = _random_primitive_sublattice(rng, max_rank=4)
        ranks.add(s.rank)
        assert glue(s, k).gamma.images == _glue_group_gamma(s, k)
    assert ranks == {1, 2, 3, 4}
    for m in (1, 2):
        for kk in range(3, 9):
            triple = MkTriple(m, kk)
            s = MUKAI.saturate((triple.v.vec8(),))
            k = v_perp(triple.v)
            assert glue(s, k).gamma.images == _glue_group_gamma(s, k)


def _scaled(data, images, c):
    return [data.reduce(tuple(c * x for x in im)) for im in images]


# cyclic targets of exponents 2..10, for maps out of a glued A_S whose
# target has another exponent than the source
_CYCLIC = [(DiscriminantData(rank_one(n)), _FractionLifts(rank_one(n)))
           for n in (2, -4, 6, -6, 8, -10)]


def test_integer_anti_isometry_test_matches_fraction_sums():
    """Over 200 glued pairs, DiscMap.negates decides, in integers, as the
    Fraction values of the former presentation do: q(f x) + q(x) in 2Z on
    every class (the first 40 of a large group), and b(f x, f y) + b(x, y)
    in Z on the generators.  f is gamma, gamma times 0, 2, 3 and -1, random
    images in A_K, or random images in a cyclic group of another exponent."""
    rng = random.Random(17)
    outcomes, cached_q = set(), {}
    for _ in range(200):
        s, k = _random_primitive_sublattice(rng)
        gd = glue(s, k)
        ref_s = _FractionLifts(s)
        q_s = {x: ref_s.q(x)
               for x in itertools.islice(gd.disc_sub.elements(), 40)}
        units = intmat.identity(len(gd.disc_sub.invariants))
        comp = (gd.disc_comp, _FractionLifts(k))
        maps = [(comp, _scaled(gd.disc_comp, gd.gamma.images, c))
                for c in (1, 0, 2, 3, -1)]
        for target, ref_t in (comp, rng.choice(_CYCLIC)):
            maps.append(((target, ref_t), [
                tuple(rng.randrange(d) for d in target.invariants)
                for _ in units]))
        for (target, ref_t), ims in maps:
            f = DiscMap(gd.disc_sub, target, ims)
            q_t = cached_q.setdefault(
                ref_t, functools.lru_cache(maxsize=None)(ref_t.q))
            for x, qx in q_s.items():
                want = (qx + q_t(f.apply(x))) % 2 == 0
                assert f.negates(x) == want
                outcomes.add(("q", want, target is comp[0]))
            for x, y in itertools.product(units, repeat=2):
                want = (ref_s.b(x, y) + ref_t.b(f.apply(x), f.apply(y))) % 1
                assert f.negates(x, y) == (want == 0)
                outcomes.add(("b", want == 0, target is comp[0]))
    assert outcomes == {(form, want, same) for form in "qb"
                        for want in (True, False) for same in (True, False)}


def _negates_by_squares(f, x, y=None):
    """The former DiscMap.negates, kept as the reference: E^2 b of x (and
    y) in the source and of their images in the target, each class
    reduced by `square` and `apply`, summed with the other exponent."""
    ns, nt = f.source.exponent ** 2, f.target.exponent ** 2
    s = f.source.square(x, y)
    t = f.target.square(f.apply(x), None if y is None else f.apply(y))
    return (s * nt + t * ns) % ((2 if y is None else 1) * ns * nt) == 0


def _random_hom(rng, source, target):
    """A random homomorphism: generator i of order d goes to a class whose
    entry j is a multiple of e_j / gcd(d, e_j), e_j the target invariant."""
    return DiscMap(source, target, [
        tuple(rng.randrange(gcd(d, e)) * (e // gcd(d, e))
              for e in target.invariants) for d in source.invariants])


def _glued_maps(rng, count):
    """(f, g): maps out of the A_S of `count` random glued pairs.  f is
    gamma, gamma times 0, 2, 3 or -1, or a random homomorphism to A_K or to
    a cyclic group of another exponent; g is a random homomorphism out of
    f's target, to A_S or to a cyclic group."""
    for _ in range(count):
        s, k = _random_primitive_sublattice(rng)
        gd = glue(s, k)
        maps = [DiscMap(gd.disc_sub, gd.disc_comp,
                        _scaled(gd.disc_comp, gd.gamma.images, c))
                for c in (1, 0, 2, 3, -1)]
        for target in (gd.disc_comp, rng.choice(_CYCLIC)[0]):
            maps.append(_random_hom(rng, gd.disc_sub, target))
        for f in maps:
            target = rng.choice((gd.disc_sub, rng.choice(_CYCLIC)[0]))
            yield f, _random_hom(rng, f.target, target)


def _unreduced(rng, data, cls):
    return tuple(c + rng.randint(-2, 2) * d
                 for c, d in zip(cls, data.invariants))


def test_negates_matches_the_three_reduce_formula():
    """negates reads x^T F y on the pulled-back form F; the former sum of
    `square` values is the reference, on every class of a small group (the
    first 40 of a large one), on unreduced classes and on all generator
    pairs, for glued pairs and targets of another exponent."""
    rng = random.Random(23)
    outcomes = set()
    for f, _ in _glued_maps(rng, 120):
        other = f.target.exponent != f.source.exponent
        for x in itertools.islice(f.source.elements(), 40):
            for cls in (x, _unreduced(rng, f.source, x)):
                want = _negates_by_squares(f, cls)
                assert f.negates(cls) == want
                outcomes.add(("q", want, other))
        units = intmat.identity(len(f.source.invariants))
        for x, y in itertools.product(units, repeat=2):
            want = _negates_by_squares(f, x, y)
            assert f.negates(x, y) == want
            assert f.negates(_unreduced(rng, f.source, x),
                             _unreduced(rng, f.source, y)) == want
            outcomes.add(("b", want, other))
    assert outcomes == {(form, want, other) for form in "qb"
                        for want in (True, False) for other in (True, False)}


def test_negates_reduces_each_class_once(monkeypatch):
    _, s, k = _glued_pair()
    gamma = glue(s, k).gamma
    assert len(gamma.source.invariants) == 2
    gamma.negates((1, 1))  # builds the pulled-back form
    calls = []
    real = DiscriminantData.reduce

    def counting(self, cls):
        calls.append(cls)
        return real(self, cls)

    monkeypatch.setattr(DiscriminantData, "reduce", counting)
    x, y = (5, -3), (7, 2)
    assert gamma.negates(x)
    assert calls == [x]
    calls.clear()
    assert gamma.negates(x, y)
    assert calls == [x, y]


def test_compose_equals_elementwise_apply():
    """g.compose(f) reduces each image once; on every element (the first
    60 of a large group) it agrees with g.apply(f.apply(x)), and its images
    are those of the former construction, g.apply on each image of f."""
    rng = random.Random(29)
    for f, g in _glued_maps(rng, 60):
        h = g.compose(f)
        assert h.images == tuple(g.apply(im) for im in f.images)
        for x in itertools.islice(f.source.elements(), 60):
            assert h.apply(x) == g.apply(f.apply(x))


def test_extend_isometry_refuses_isometries_of_other_lattices():
    """phi must map glue1.sub to glue2.sub and psi glue1.comp to
    glue2.comp: an identity of another sublattice (gram <6> against the
    glued <4>), or a glue2 whose sublattice or complement has another gram,
    is refused, naming the map, before its matrix is read."""
    u3 = hyperbolic_sum(3)

    def glued(v):
        sub = u3.saturate((v,))
        return glue(sub, u3.orth_complement(sub))

    gd, gd6, gd2 = (glued(v) for v in ((1, 2, 0, 0, 0, 0), (1, 3, 0, 0, 0, 0),
                                       (0, 0, 1, 2, 0, 0)))
    assert gd.sub.gram == gd2.sub.gram == ((4,),) and gd6.sub.gram == ((6,),)
    assert gd.comp.gram != gd2.comp.gram
    id_s, id_k = identity_isometry(gd.sub), identity_isometry(gd.comp)
    for phi, psi, glue2, name in (
            (identity_isometry(gd6.sub), id_k, gd, "phi"),
            (id_s, id_k, gd6, "phi"),
            (id_s, identity_isometry(gd6.comp), gd, "psi"),
            (id_s, id_s, gd, "psi"),
            (id_s, id_k, gd2, "psi")):
        with pytest.raises(IsometryError, match=name):
            extend_isometry(phi, psi, gd, glue2)
    assert extend_isometry(id_s, id_k, gd, gd).is_identity()


def test_glue_refuses_a_gamma_that_is_not_an_anti_isometry(monkeypatch):
    """glue raises LatticeError exactly when the Fraction values say that
    its gamma, patched here, is not an anti-isometry on the generators: a
    gamma patched to 0 always fails on a nontrivial group, -gamma never
    does, and random images do either."""
    built = []

    class Patched(DiscMap):
        def __init__(self, source, target, images):
            super().__init__(source, target, patch(target, images))
            built.append(self)

    monkeypatch.setattr(discriminant, "DiscMap", Patched)
    rng = random.Random(19)
    outcomes = set()
    patches = {"zero": lambda t, ims: _scaled(t, ims, 0),
               "minus": lambda t, ims: _scaled(t, ims, -1),
               "random": lambda t, ims: [
                   tuple(rng.randrange(d) for d in t.invariants)
                   for _ in ims]}
    for _ in range(60):
        s, k = _random_primitive_sublattice(rng)
        ref_s, ref_k = _FractionLifts(s), _FractionLifts(k)
        for name in ("zero", "minus") + ("random",) * 4:
            patch = patches[name]
            try:
                glue(s, k)
                refused = False
            except LatticeError as e:
                assert "anti" in str(e)
                refused = True
            f = built[-1]
            units = intmat.identity(len(f.source.invariants))
            anti = all(
                (ref_s.b(x, y) + ref_k.b(f.apply(x), f.apply(y))) % 1 == 0
                and (ref_s.q(x) + ref_k.q(f.apply(x))) % 2 == 0
                for x in units for y in units)
            assert refused == (not anti)
            outcomes.add((name, refused))
    assert outcomes == {("zero", True), ("minus", False), ("random", True),
                        ("random", False)}


def test_glue_reads_one_smith_form(monkeypatch):
    """A warm glue runs no snf: the Smith form of B_S G that
    orth_complement computed is the one glue reads."""
    _, s, k = _glued_pair()
    glue(s, k)  # caches the Smith forms and projections of S and K
    calls = {"snf": 0, "hnf_row": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        fn = getattr(intmat, name)
        for module in (intmat, lattices, discriminant):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    glue(s, k)
    assert calls == {"snf": 0, "hnf_row": 0}


def test_extend_identity_roundtrip():
    _, s, k = _glued_pair()
    gd = glue(s, k)
    ext = extend_isometry(identity_isometry(s), identity_isometry(k), gd, gd)
    assert ext.is_identity()


def test_extend_minus_identity_pair():
    _, s, k = _glued_pair()
    gd = glue(s, k)
    ext = extend_isometry(minus_identity(s), minus_identity(k), gd, gd)
    assert ext.matrix == tuple(tuple(-int(i == j) for j in range(6))
                               for i in range(6))


def _restriction(g, sub1, sub2):
    """g restricted to sub1 -> sub2, each column solved over Q against the
    basis of sub2 (the reference for the integer projection)."""
    bt = transpose(sub2.embedding.basis)
    cols = []
    for j in range(sub1.rank):
        e = tuple(int(i == j) for i in range(sub1.rank))
        cols.append(solve_rational(bt, g.apply(sub1.to_ambient(e))))
    assert all(x.denominator == 1 for col in cols for x in col)
    return Isometry(sub1, sub2, tuple(tuple(int(x) for x in row)
                                      for row in transpose(cols)))


def test_extend_restrictions_of_solve_outputs_returns_g():
    rng = random.Random(5)
    for k in (3, 4, 5):
        xi1, xi2 = sample_admissible_pair(rng, k)
        g = solve(LemsimoProblem(k, xi1, xi2)).g
        for gens in ((xi1, xi2), (xi1,)):
            s1 = AMBIENT.saturate(gens)
            s2 = AMBIENT.saturate([g.apply(b) for b in s1.embedding.basis])
            k1, k2 = AMBIENT.orth_complement(s1), AMBIENT.orth_complement(s2)
            ext = extend_isometry(_restriction(g, s1, s2),
                                  _restriction(g, k1, k2),
                                  glue(s1, k1), glue(s2, k2))
            assert ext.matrix == g.matrix


# the vectors of square +-2 in the box [-1, 1]^6 of U^3
U3_ROOTS = tuple(vectors_with_square(AMBIENT.gram, 1, 2)
                 + vectors_with_square(AMBIENT.gram, 1, -2))


@settings(max_examples=60, deadline=None)
@given(roots=st.lists(st.sampled_from(U3_ROOTS), min_size=1, max_size=6),
       gens=st.lists(st.tuples(*[st.integers(-4, 4)] * 6),
                     min_size=1, max_size=2))
def test_extend_isometry_round_trip(roots, gens):
    """g in O(U^3), a product of reflections, restricted to S + K and
    extended back: phi is the identity from the basis of S to its image
    under g, and psi is g on K -> K', read through from_ambient."""
    g = identity_isometry(AMBIENT)
    for u in roots:
        g = reflection(AMBIENT, u).compose(g)
    try:
        s = AMBIENT.saturate(gens)
    except LatticeError:
        assume(False)
    s2 = AMBIENT.sublattice([g.apply(b) for b in s.embedding.basis])
    k, k2 = AMBIENT.orth_complement(s), AMBIENT.orth_complement(s2)
    phi = Isometry(s, s2, intmat.identity(s.rank))
    psi = Isometry(k, k2, transpose(
        [k2.from_ambient(g.apply(b)) for b in k.embedding.basis]))
    ext = extend_isometry(phi, psi, glue(s, k), glue(s2, k2))
    assert ext.matrix == g.matrix


def test_extension_obstruction_fires():
    # disc group has exponent > 2, so (id_S, -id_K) cannot match through glue
    _, s, k = _glued_pair()
    gd = glue(s, k)
    assert gd.disc_sub.invariants[-1] > 2
    with pytest.raises(ExtensionObstructed):
        extend_isometry(identity_isometry(s), minus_identity(k), gd, gd)


def test_in_W_and_in_N_for_signed_reflections():
    from mukailat.isometries import minus_reflection
    lat = _perp(3)
    data = DiscriminantData(lat)
    rneg = minus_reflection(lat, (1, -1, 0, 0, 0, 0, 0))  # square -2
    rpos = minus_reflection(lat, (1, 1, 0, 0, 0, 0, 0))   # square +2
    for r in (rneg, rpos):
        chars = characters(r, data)
        assert in_W(chars)
        # a single signed reflection has det * disc-sign == -1, so it
        # generates W over its index-2 subgroup but is not in it
        assert not in_N(chars)
    # the product of two signed reflections is in the subgroup
    assert in_N(characters(rneg.compose(rpos), data))


def test_not_found_carries_bound_and_stage():
    nf = NotFound(7, stage="demo")
    assert nf.bound == 7
    assert nf.stage == "demo"
    assert "bound 7" in str(nf)
    assert isinstance(nf, Exception)


def _sheared(lat):
    """(Y, P): lat in the basis e_0, e_0 + e_1, e_2, ..., a lattice of
    another gram P^T G P, and P, the isometry Y -> lat."""
    p = tuple(tuple(int(i == j or (i, j) == (0, 1)) for j in range(lat.rank))
              for i in range(lat.rank))
    return IntegerLattice(intmat.mat_mul(transpose(p),
                                         intmat.mat_mul(lat.gram, p))), p


def _into(x, lat):
    """The isometry x -> lat: P for the sheared copy of lat, else the
    identity matrix (x of lat's gram)."""
    y, p = _sheared(lat)
    return Isometry(x, lat, p if x == y else intmat.identity(lat.rank))


_SQ2 = (1, 1, 0, 0, 0, 0)      # square 2 in U^3 and in U^2 + <2> + <-2>
_V4 = (1, 2, 0, 0, 1, 0)      # square 4, glued to its complement in U^3
_S4 = U3.saturate((_V4,))
_K4 = U3.orth_complement(_S4)
_GD4 = glue(_S4, _K4)
_U3_OTHER = direct_sum(hyperbolic_sum(2), rank_one(2), rank_one(-2))
_MUKAI_OTHER = direct_sum(hyperbolic_sum(3), rank_one(2), rank_one(-2))

# reader: (the lattice it must be handed, a lattice of its rank with
# another gram, reader(x) run on x in the place of that lattice, the error
# of a refusal).  An isometry joins isometric lattices only, so ori_char
# and hodge_ori take a sheared basis as their other gram.
_LATTICE_READERS = {
    "orth_complement": (U3, _U3_OTHER, LatticeError,
                        lambda x: U3.orth_complement(x.span((_SQ2,)))),
    "is_primitive": (U3, _U3_OTHER, LatticeError,
                     lambda x: U3.is_primitive(x.span((_SQ2,)))),
    "glue": (U3, _U3_OTHER, LatticeError,
             lambda x: glue(_S4, x.orth_complement(x.saturate((_V4,))))),
    "extend_isometry": (_S4, rank_one(-4), IsometryError,
                        lambda x: extend_isometry(identity_isometry(x),
                                                  identity_isometry(_K4),
                                                  _GD4, _GD4)),
    "restrict": (U3, _U3_OTHER, WordError,
                 lambda x: restrict(identity_isometry(x), U3.span((_SQ2,)))),
    "Isometry.compose": (U3, _U3_OTHER, IsometryError,
                         lambda x: identity_isometry(U3).compose(
                             identity_isometry(x))),
    "ori_char": (U3, _sheared(U3)[0], IsometryError,
                 lambda x: ori_char(_into(x, U3))),
    "epsilon_ori": (MUKAI, _MUKAI_OTHER, IsometryError,
                    lambda x: epsilon_ori(identity_isometry(x))),
    "hodge_ori source": (MUKAI, _sheared(MUKAI)[0], IsometryError,
                         lambda x: hodge_ori(MukaiModel(2),
                                             _into(x, MUKAI))),
    "hodge_ori target": (MUKAI, _sheared(MUKAI)[0], IsometryError,
                         lambda x: hodge_ori(MukaiModel(2),
                                             _into(x, MUKAI).inverse())),
    "characters": (U3, _U3_OTHER, IsometryError,
                   lambda x: characters(reflection(U3, (1, -1, 0, 0, 0, 0)),
                                        DiscriminantData(x))),
}


@pytest.mark.parametrize("column", ("same", "copy", "json", "other"))
@pytest.mark.parametrize("reader", sorted(_LATTICE_READERS))
def test_one_rule_for_which_lattice_a_value_belongs_to(reader, column):
    """Every reader that asks which lattice it was handed compares lattices
    by gram (IntegerLattice.__eq__): the lattice itself, a copy of its gram
    and a JSON round trip are accepted, a lattice of its rank with another
    gram is refused."""
    lat, other, error, read = _LATTICE_READERS[reader]
    x = {"same": lat, "copy": IntegerLattice(lat.gram),
         "json": IntegerLattice.from_json(lat.to_json()),
         "other": other}[column]
    assert x.rank == lat.rank and (x == lat) == (column != "other")
    if column == "other":
        with pytest.raises(error):
            read(x)
    else:
        read(x)


def test_a_same_gram_ambient_is_accepted():
    """A sublattice of a copy of U^3, or one read back from JSON, is a
    sublattice of U^3: the ambient lattice is compared by gram, not by
    identity."""
    span = hyperbolic_sum(3).span((_SQ2,))
    assert U3.is_primitive(span)
    assert (U3.orth_complement(span).embedding
            == U3.orth_complement(U3.span((_SQ2,))).embedding)
    s, k = (IntegerLattice.from_json(x.to_json()) for x in (_S4, _K4))
    assert s.embedding.ambient is not k.embedding.ambient
    assert glue(s, k).gamma.images == _GD4.gamma.images == ((3,),)


def test_characters_refuses_another_lattices_data():
    """characters(g, data) reads data of g's own lattice only: the
    discriminant data of <2> + <-2> + <-4>, of the rank of U + <-4>, is
    refused for a reflection of U + <-4>."""
    l1 = direct_sum(hyperbolic_sum(1), rank_one(-4))
    g = reflection(l1, (1, 1, 1))
    assert characters(g, DiscriminantData(l1))["disc"] == "+id"
    l2 = direct_sum(rank_one(2), rank_one(-2), rank_one(-4))
    with pytest.raises(IsometryError, match="another lattice"):
        characters(g, DiscriminantData(l2))


def test_glue_refuses_a_complement_that_is_not_orthogonal():
    """glue(S, K) needs K orthogonal to S: B_S G B_K^T == 0.  A K of the
    right rank and discriminant order that is not S^perp is refused, and
    over random draws (K the complement of S itself or of another T of its
    rank) every K that glue accepts is S^perp, whose identity pair
    extends."""
    s = U3.saturate(((2, -1, 3, 0, 3, 2),))
    k = U3.orth_complement(U3.saturate(((2, 1, -1, -2, 3, 0),)))
    assert DiscriminantData(s).order == DiscriminantData(k).order
    with pytest.raises(LatticeError, match="orthogonal"):
        glue(s, k)
    rng = random.Random(3)
    outcomes = set()
    for _ in range(600):
        gens = [[tuple(rng.randint(-3, 3) for _ in range(6))
                 for _ in range(rng.randint(1, 2))] for _ in range(2)]
        try:
            s = U3.saturate(gens[0])
            t = s if rng.random() < 0.5 else U3.saturate(gens[1])
            k = U3.orth_complement(t)
            gd = glue(s, k)
        except LatticeError as e:
            outcomes.add(str(e))
            continue
        assert k.embedding == U3.orth_complement(s).embedding
        assert extend_isometry(identity_isometry(s), identity_isometry(k),
                               gd, gd).is_identity()
        outcomes.add("glued")
    assert {"glued", "K must be orthogonal to S"} <= outcomes
