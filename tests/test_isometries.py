"""Isometries, reflections, and the determinant / orientation characters."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mukailat import intmat, isometries
from mukailat.intmat import det, inv_rational, mat_mul
from mukailat.kernels import vectors_with_square
from mukailat.lemsimo import AMBIENT
from mukailat.mukai import MUKAI, MkTriple, v_perp
from mukailat.lattices import (IntegerLattice, Embedding, hyperbolic_plane,
                               hyperbolic_sum, direct_sum, rank_one)
from mukailat.isometries import (Isometry, IsometryError, identity_isometry,
                                 minus_identity, det_char, ori_char,
                                 reflection, minus_reflection)


def _u3_minus():
    return direct_sum(hyperbolic_sum(3), rank_one(-6))


def test_constructor_rejects_non_isometry():
    u = hyperbolic_plane()
    with pytest.raises(IsometryError):
        Isometry(u, u, ((1, 0), (1, 1)))


def test_constructors_reject_non_integer_entries():
    """A Fraction or float entry is refused even where the form identity
    holds: diag(2, 1/2) would be an isometry of U with det 1, and
    diag(2, 0.5, -1) on U + <-4> would read det -1, ori 0 and disc -id."""
    u = hyperbolic_plane()
    u4 = direct_sum(u, rank_one(-4))
    with pytest.raises(TypeError):
        Isometry(u, u, ((2, 0), (0, Fraction(1, 2))))
    with pytest.raises(TypeError):
        Isometry(u4, u4, ((2, 0, 0), (0, 0.5, 0), (0, 0, -1)))
    for gram in (((0, 1.0), (1.0, 0)), ((0, True), (True, 0)),
                 ((Fraction(2), 0), (0, 2))):
        with pytest.raises(TypeError):
            IntegerLattice(gram)


def test_repr_prints_target_and_source_ranks():
    """The ranks are read off the lattices, so a map from or to the rank-0
    lattice, whose matrix has no row or no column, prints too."""
    zero, u = IntegerLattice(()), hyperbolic_plane()
    assert repr(identity_isometry(zero)) == "Isometry(0x0)"
    assert repr(Isometry(zero, u, ((), ()))) == "Isometry(2x0)"
    assert repr(Isometry(rank_one(2), u, ((1,), (1,)))) == "Isometry(2x1)"


def _draw_even_gram(draw, n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2 * draw(st.integers(-3, 3))
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = draw(st.integers(-3, 3))
    return g


@st.composite
def isometry_cases(draw):
    """(source gram, target gram, matrix M, full product M^T G M).  The
    source gram is the full product, the full product with one symmetric
    pair of entries changed, or an unrelated even gram."""
    nt = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(("product", "changed", "unrelated")))
    ns = draw(st.integers(0, 4 if kind == "unrelated" else nt))
    g = _draw_even_gram(draw, nt)
    m = tuple(tuple(draw(st.integers(-2, 2)) for _ in range(ns))
              for _ in range(nt))
    full = [[sum(m[a][i] * g[a][b] * m[b][j]
                 for a in range(nt) for b in range(nt))
             for j in range(ns)] for i in range(ns)]
    if kind == "unrelated":
        src = _draw_even_gram(draw, ns)
    else:
        src = [row[:] for row in full]
    if kind == "changed" and ns:
        i = draw(st.integers(0, ns - 1))
        j = draw(st.integers(i, ns - 1))
        delta = draw(st.sampled_from((-2, -1, 1, 2))) * (2 if i == j else 1)
        src[i][j] += delta
        if i != j:
            src[j][i] += delta
    assume(not nt or det(g) != 0)
    assume(not ns or det(src) != 0)
    return src, g, m, full


@settings(max_examples=300, deadline=None)
@given(case=isometry_cases())
def test_half_product_check_matches_the_full_product(case):
    src, tgt, m, full = case
    source, target = IntegerLattice(src), IntegerLattice(tgt)
    if full == src:
        assert Isometry(source, target, m).matrix == m
    else:
        with pytest.raises(IsometryError):
            Isometry(source, target, m)


def test_compose_inverse_power():
    u = hyperbolic_plane()
    swap = Isometry(u, u, ((0, 1), (1, 0)))
    assert swap.compose(swap).is_identity()
    assert swap.inverse().matrix == swap.matrix


def test_det_char_values():
    u = hyperbolic_plane()
    assert det_char(identity_isometry(u)) == 0
    assert det_char(Isometry(u, u, ((0, 1), (1, 0)))) == 1
    assert det_char(minus_identity(u)) == 0


def test_reflection_involution_and_fixed_space():
    lat = _u3_minus()
    u = (1, 1, 0, 0, 0, 0, 0)   # square 2
    r = reflection(lat, u)
    assert r.compose(r).is_identity()
    assert r.apply(u) == tuple(-c for c in u)
    w = (0, 0, 1, 0, 0, 0, 0)
    assert lat.inner(u, w) == 0 and r.apply(w) == w


def test_reflection_requires_square_pm2():
    lat = _u3_minus()
    with pytest.raises(IsometryError):
        reflection(lat, (1, 2, 0, 0, 0, 0, 0))  # square 4


def test_minus_reflection_signs():
    lat = _u3_minus()
    upos = (1, 1, 0, 0, 0, 0, 0)   # square 2
    uneg = (1, -1, 0, 0, 0, 0, 0)  # square -2
    assert minus_reflection(lat, uneg).matrix == reflection(lat, uneg).matrix
    rp = minus_reflection(lat, upos)
    assert rp.matrix == tuple(tuple(-x for x in row)
                              for row in reflection(lat, upos).matrix)


def test_ori_char_on_signed_reflections():
    lat = _u3_minus()
    # reflection in a negative vector preserves the positive part
    assert ori_char(reflection(lat, (1, -1, 0, 0, 0, 0, 0))) == 0
    # reflection in a positive vector reverses it
    assert ori_char(reflection(lat, (1, 1, 0, 0, 0, 0, 0))) == 1
    # minus the identity reverses an odd-dimensional positive part
    assert ori_char(minus_identity(lat)) == 1


def test_ori_char_refuses_a_non_endomorphism():
    g = Isometry(rank_one(8), rank_one(2), ((2,),))
    with pytest.raises(IsometryError, match="endomorphism"):
        ori_char(g)


def test_positive_frame_dimension_and_agreement():
    lat = _u3_minus()
    cols, cg = lat.positive_frame
    assert len(cols) == 3 and cg == mat_mul(cols, lat.gram)
    assert all(type(x) is int for col in cols for x in col)
    assert all(lat.norm(c) > 0 for c in cols)
    fixed = ((1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0),
             (0, 0, 0, 0, 1, 1, 0))
    for u in ((1, 1, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0),
              (0, 0, 1, -1, 0, 0, 0)):
        r = reflection(lat, u)
        assert ori_char(r) == _reference_ori_char(r, lat, fixed)


def test_isometry_json_roundtrip():
    u = hyperbolic_plane()
    swap = Isometry(u, u, ((0, 1), (1, 0)))
    back = Isometry.from_json(swap.to_json())
    assert back.matrix == swap.matrix
    assert back.source.gram == u.gram


def test_isometry_json_rejects_non_integers():
    u = hyperbolic_plane()
    doc = Isometry(u, u, ((0, 1), (1, 0))).to_json()
    for bad in ([doc], dict(doc, matrix=[[0.0, 1], [1, 0]]),
                dict(doc, source={"gram": [[0.0, 1], [1, 0]]})):
        with pytest.raises(TypeError):
            Isometry.from_json(bad)


def test_inverse_of_non_unimodular_isometry_raises():
    g = Isometry(rank_one(8), rank_one(2), ((2,),))
    with pytest.raises(IsometryError):
        g.inverse()


def _fraction_det(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    d = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return d


def _reference_ori_char(g, lat, cols):
    """The former formula: the sign of det(gp^-1 * rhs) over Q, with the
    frame columns taken as given."""
    gp = Embedding(lat, cols).gram
    rhs = tuple(tuple(lat.inner(u, g.apply(v)) for v in cols) for u in cols)
    d = _fraction_det(mat_mul(inv_rational(gp), rhs))
    assert d != 0
    return 0 if d > 0 else 1


def test_ori_char_matches_rational_reference():
    fixed = ((1, 1, 0, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0, 0),
             (0, 0, 0, 0, 1, 1, 0))
    rng = random.Random(11)
    for k in (2, 3, 5, 6):
        lat = direct_sum(hyperbolic_sum(3), rank_one(-2 * k))
        cols = lat.positive_frame[0]
        # positive multiples of the frame columns
        scaled = tuple(tuple(d * x for x in col)
                       for col, d in zip(cols, (2, 3, 7)))
        roots = (vectors_with_square(lat.gram, 1, 2)
                 + vectors_with_square(lat.gram, 1, -2))
        for _ in range(6):
            g = identity_isometry(lat)
            for u in rng.sample(roots, rng.randint(1, 4)):
                g = reflection(lat, u).compose(g)
            for frame in (fixed, cols, scaled):
                assert ori_char(g) == _reference_ori_char(g, lat, frame)


def _ori_char_by_rhs(g):
    """The former product, kept as the reference: the sign of det((C G g)
    C^T), with the dense C G g on the left of C^T."""
    cols, cg = g.source.positive_frame
    d = det(mat_mul(mat_mul(cg, g.matrix), intmat.transpose(cols)))
    assert d != 0
    return 0 if d > 0 else 1


def test_ori_char_matches_the_former_product():
    """ori_char reads det(C (C G g)^T), the transpose of the former rhs,
    on products of one to five reflections in roots of U^3, of the rank-8
    lattice and of the complements of k = 3, 4, 7."""
    from mukailat.mukai import U3
    from mukailat.monodromy import complement
    rng = random.Random(31)
    seen = set()
    for lat in (U3, MUKAI) + tuple(complement(k)[0] for k in (3, 4, 7)):
        roots = (vectors_with_square(lat.gram, 1, 2)
                 + vectors_with_square(lat.gram, 1, -2))
        for _ in range(40):
            g = identity_isometry(lat)
            for u in rng.sample(roots, rng.randint(1, 5)):
                g = reflection(lat, u).compose(g)
            assert ori_char(g) == _ori_char_by_rhs(g)
            seen.add(ori_char(g))
    assert seen == {0, 1}


def _unit_vector_reflection(lat, u):
    """The former construction, kept as the reference: column j is
    e_j - s (e_j . u) u, with one inner product per unit vector."""
    uu = lat.norm(u)
    assert uu in (2, -2)
    n = lat.rank
    s = 1 if uu == 2 else -1
    cols = []
    for j in range(n):
        e = tuple(int(i == j) for i in range(n))
        coeff = lat.inner(e, u)
        cols.append(tuple(e[i] - s * coeff * u[i] for i in range(n)))
    return tuple(zip(*cols))


def _unit_vector_minus_reflection(lat, u):
    m = _unit_vector_reflection(lat, u)
    if lat.norm(u) == -2:
        return m
    return tuple(tuple(-x for x in row) for row in m)


def _pm2_lattices():
    """U^3, the rank-7 v-perp of (1, 0, -k) and the rank-8 Mukai lattice,
    each with the indices of a hyperbolic block orthogonal to the rest."""
    return ([(AMBIENT, (0, 1)), (MUKAI, (1, 2))]
            + [(v_perp(MkTriple(1, k).v), (0, 1)) for k in (3, 4, 7)])


def _draw_pm2_vector(draw, lat, block):
    """u of square +-2: free coordinates outside the hyperbolic block
    (e, f), then a e + b f with 2ab making up the rest."""
    ie, jf = block
    u = [draw(st.integers(-4, 4)) for _ in range(lat.rank)]
    u[ie] = u[jf] = 0
    rest = lat.norm(u)
    a = draw(st.sampled_from((1, -1, 2, -2, 3)))
    want = draw(st.sampled_from((2, -2)))
    assume((want - rest) % (2 * a) == 0)
    u[ie], u[jf] = a, (want - rest) // (2 * a)
    return tuple(u)


@st.composite
def pm2_vectors(draw):
    """(lattice, u) with u of square +-2."""
    lat, block = draw(st.sampled_from(_pm2_lattices()))
    return lat, _draw_pm2_vector(draw, lat, block)


@settings(max_examples=200, deadline=None)
@given(case=pm2_vectors())
def test_reflections_match_the_unit_vector_build(case):
    lat, u = case
    assert lat.norm(u) in (2, -2)
    assert reflection(lat, u).matrix == _unit_vector_reflection(lat, u)
    assert minus_reflection(lat, u).matrix \
        == _unit_vector_minus_reflection(lat, u)


# the positive frames once written by hand for U^3 (its (1,1)-frame and the
# surface-lift frame {omega, e2+f2, e3+f3} for t = 2, 3, 7), for the rank-8
# lattice ({omega, e2+f2, e3+f3, (1,0,-1)} for t = 2, 3, 7) and for v-perp
# ({e+f, e2+f2, e3+f3}); the lattice's own frame must agree with each
_U3_FRAME = ((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, 1))
_RETIRED_FRAMES = (
    [(AMBIENT, (0, 1),
      [_U3_FRAME] + [((1, t, 0, 0, 0, 0),) + _U3_FRAME[1:]
                     for t in (2, 3, 7)]),
     (MUKAI, (1, 2),
      [((0, 1, t, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0, 0, 0),
        (0, 0, 0, 0, 0, 1, 1, 0), (1, 0, 0, 0, 0, 0, 0, -1))
       for t in (2, 3, 7)])]
    + [(v_perp(MkTriple(1, k).v), (0, 1),
        [tuple(col + (0,) for col in _U3_FRAME)]) for k in range(3, 9)])


@st.composite
def retired_frame_cases(draw):
    """(product of 1..4 reflections in +-2 vectors, the retired frames of
    its lattice)."""
    lat, block, frames = draw(st.sampled_from(_RETIRED_FRAMES))
    g = identity_isometry(lat)
    for _ in range(draw(st.integers(1, 4))):
        g = reflection(lat, _draw_pm2_vector(draw, lat, block)).compose(g)
    return g, frames


@settings(max_examples=150, deadline=None)
@given(case=retired_frame_cases())
def test_ori_char_agrees_with_the_retired_frames(case):
    g, frames = case
    for cols in frames:
        assert ori_char(g) == _reference_ori_char(g, g.source, cols)


def test_ori_char_computes_the_orthogonal_basis_once(monkeypatch):
    calls = []
    real = intmat.orthogonal_basis

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(intmat, "orthogonal_basis", counting)
    lat = direct_sum(hyperbolic_sum(3), rank_one(-14))
    for u in ((1, 1, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0),
              (0, 0, 1, 1, 0, 0, 0)):
        ori_char(reflection(lat, u))
        ori_char(minus_identity(lat))
    assert calls == [lat.gram]


def _monomial_lattices():
    """U^3, the rank-8 Mukai lattice and v-perp of (1, 0, -k) for k = 3..8,
    each with a hyperbolic block: every row of their grams has one nonzero
    entry."""
    lats = ([(AMBIENT, (0, 1)), (MUKAI, (1, 2))]
            + [(v_perp(MkTriple(1, k).v), (0, 1)) for k in range(3, 9)])
    assert all(sum(map(bool, row)) == 1 for lat, _ in lats for row in lat.gram)
    return lats


@st.composite
def monomial_cases(draw):
    """(lattice, M): M a product of 0..3 reflections of a lattice with a
    monomial gram, or such a product with one entry changed."""
    lat, block = draw(st.sampled_from(_monomial_lattices()))
    n = lat.rank
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(draw(st.integers(0, 3))):
        r = _unit_vector_reflection(lat, _draw_pm2_vector(draw, lat, block))
        m = [[sum(r[i][a] * m[a][j] for a in range(n)) for j in range(n)]
             for i in range(n)]
    if draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        m[i][j] += draw(st.sampled_from((-2, -1, 1, 2)))
    return lat, tuple(map(tuple, m))


@settings(max_examples=150, deadline=None)
@given(case=monomial_cases())
def test_monomial_gram_check_matches_the_full_product(case):
    """The check forms G M with the monomial gram on the left; it must
    raise exactly when M^T G M, formed here entry by entry, is not G."""
    lat, m = case
    g, n = lat.gram, lat.rank
    full = tuple(tuple(sum(m[a][i] * g[a][b] * m[b][j]
                           for a in range(n) for b in range(n))
                       for j in range(n)) for i in range(n))
    if full == g:
        assert Isometry(lat, lat, m).matrix == m
    else:
        with pytest.raises(IsometryError):
            Isometry(lat, lat, m)


def test_minus_reflection_builds_one_isometry(monkeypatch):
    """A square-2 vector: the signed matrix is read off G u and checked
    once, with no unsigned reflection built first."""
    built = []

    class Counting(Isometry):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(isometries, "Isometry", Counting)
    lat = _u3_minus()
    for u in ((1, 1, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0)):
        built.clear()
        minus_reflection(lat, u)
        assert len(built) == 1
        built.clear()
        reflection(lat, u)
        assert len(built) == 1


def test_embedding_gram_matches_pairwise_inner_products():
    rng = random.Random(5)
    for lat, _ in _pm2_lattices():
        for r in (0, 1, 3):
            cols = tuple(tuple(rng.randint(-5, 5) for _ in range(lat.rank))
                         for _ in range(r))
            assert Embedding(lat, cols).gram == tuple(
                tuple(lat.inner(u, v) for v in cols) for u in cols)
