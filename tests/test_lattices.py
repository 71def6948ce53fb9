"""Lattice construction, sublattices, complements, and JSON round-trips."""

import random
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from mukailat import intmat, lattices
from mukailat.intmat import (inv_unimodular, mat, mat_mul, mat_vec, row_basis,
                             snf, solve_rational)
from mukailat.lattices import (IntegerLattice, Embedding, LatticeError,
                               hyperbolic_plane, hyperbolic_sum, direct_sum,
                               rank_one)


def test_constructor_validation():
    with pytest.raises(LatticeError):
        IntegerLattice(((1,),))          # odd
    with pytest.raises(LatticeError):
        IntegerLattice(((0, 1), (2, 0)))  # not symmetric
    with pytest.raises(LatticeError):
        IntegerLattice(((2, 2), (2, 2)))  # degenerate
    with pytest.raises(LatticeError):
        IntegerLattice(((0, 1),))         # not square


def test_hyperbolic_plane_basics():
    u = hyperbolic_plane()
    assert u.det() == -1
    assert u.signature() == (1, 1)
    assert u.inner((1, 0), (0, 1)) == 1
    assert u.norm((1, 1)) == 2
    assert u.norm((1, -1)) == -2


def test_direct_sum_and_rank_one():
    lat = direct_sum(hyperbolic_sum(3), rank_one(-6))
    assert lat.rank == 7
    assert lat.signature() == (3, 4)
    assert lat.det() == 6
    assert lat.norm((0, 0, 0, 0, 0, 0, 1)) == -6


def test_saturate_divides_out_imprimitivity():
    u3 = hyperbolic_sum(3)
    s = u3.saturate(((2, 4, 0, 0, 0, 0),))
    assert s.rank == 1
    amb = s.to_ambient((1,))
    assert amb in ((1, 2, 0, 0, 0, 0), (-1, -2, 0, 0, 0, 0))
    assert u3.is_primitive(s)


def test_embedding_basis_must_be_rank_by_ambient_rank():
    """A basis of the wrong shape is refused, not cut to fit by the
    products that check the gram."""
    with pytest.raises(LatticeError, match="rank x ambient rank"):
        IntegerLattice(((2,),), embedding=Embedding(rank_one(2), ((1, 5),)))
    with pytest.raises(LatticeError, match="rank x ambient rank"):
        IntegerLattice(((0, 1), (1, 0)),
                       embedding=Embedding(hyperbolic_sum(2),
                                           ((1, 0), (0, 1))))
    with pytest.raises(LatticeError, match="rank x ambient rank"):
        IntegerLattice(((0, 1), (1, 0)),
                       embedding=Embedding(hyperbolic_sum(2),
                                           ((1, 0, 0, 0),)))


def test_saturate_rejects_degenerate_span():
    u3 = hyperbolic_sum(3)
    with pytest.raises(LatticeError):
        u3.saturate(((1, 0, 0, 0, 0, 0),))  # isotropic line


def _saturate_by_inverse(lat, gens):
    """The former construction of a saturated basis, kept as the reference:
    the first r rows of inv_unimodular(V), where snf(gens) = (D, U, V) and
    r is the rank, the number of nonzero entries of D."""
    d, _, v = snf(mat(gens))
    r = sum(1 for i in range(min(len(d), lat.rank)) if d[i][i] != 0)
    return row_basis(inv_unimodular(v)[:r])


def test_saturate_matches_the_inverse_construction():
    """Generators are integer combinations of 1..3 random vectors, more of
    them than the rank at times (dependent), each scaled by 1..3 at times
    (non-primitive); saturate reads the saturated basis off U * gens
    without inverting V, and must give the reference basis, or refuse a
    degenerate span exactly when the reference sublattice is refused."""
    rng = random.Random(3)
    seen, ranks = set(), set()
    for lat in (hyperbolic_sum(3), direct_sum(hyperbolic_sum(2),
                                              rank_one(-6), rank_one(4))):
        for _ in range(150):
            base = [tuple(rng.randint(-4, 4) for _ in range(lat.rank))
                    for _ in range(rng.randint(1, 3))]
            gens = []
            for _ in range(rng.randint(1, 4)):
                coef = [rng.randint(-3, 3) for _ in base]
                scale = rng.randint(1, 3)
                gens.append(tuple(scale * sum(map(mul, coef, col))
                                  for col in zip(*base)))
            want = _saturate_by_inverse(lat, gens)
            try:
                got = lat.saturate(gens).embedding.basis
            except LatticeError:
                with pytest.raises(LatticeError):
                    lat.sublattice(want)
                seen.add("refused")
                continue
            assert got == want
            ranks.add(len(got))
            seen.add("dependent" if len(gens) > len(got) else "independent")
            if row_basis(mat(gens)) != got:
                seen.add("non-primitive")
    assert ranks == {1, 2, 3}
    assert seen == {"refused", "dependent", "independent", "non-primitive"}


def test_saturate_reads_each_generator_as_a_vector():
    """A generator of 7 entries was cut to its first 6, so the saturation
    of (1, 2, 0, 0, 0, 0, 5) was the line of (1, 2, 0, 0, 0, 0), and one of
    2 entries ended in an IndexError; each generator is now read through
    intmat.ints."""
    u3 = hyperbolic_sum(3)
    for gens, got in ((((1, 2, 0, 0, 0, 0, 5),), 7),
                      (((1, 2), (3, 4), (5, 6)), 2)):
        with pytest.raises(ValueError,
                           match="generator must have 6 entries, got %d" % got):
            u3.saturate(gens)
    with pytest.raises(TypeError, match="generator must be integers"):
        u3.saturate(((1.0, 2, 0, 0, 0, 0),))


def test_embedding_reads_each_basis_row_as_integers():
    """span kept a bool basis entry, and a float generator failed with an
    error that named the gram; the Embedding reads each row through
    intmat.ints, so sublattice and Embedding refuse both, and span reads
    each generator through it, as saturate does."""
    u3 = hyperbolic_sum(3)
    for row in ((True, 2, 0, 0, 0, 0), (1.5, 1, 0, 0, 0, 0),
                (1, Fraction(2), 0, 0, 0, 0)):
        for build in (lambda: u3.sublattice((row,)),
                      lambda: Embedding(u3, (row,))):
            with pytest.raises(TypeError,
                               match="embedding basis must be integers"):
                build()
        with pytest.raises(TypeError, match="generator must be integers"):
            u3.span(((2, 4, 0, 0, 0, 0), row))
    with pytest.raises(ValueError, match="generator must have 6 entries"):
        u3.span(((1, 2, 0, 0, 0, 0, 5),))
    sub = u3.span(((1, 2, 0, 0, 0, 0),))
    assert all(type(x) is int for x in sub.embedding.basis[0])


def _kernel_by_snf(a):
    """The former kernel_int, kept as the reference: the columns of v past
    the rank of snf(a) = (d, u, v)."""
    d, _, v = snf(a)
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    vt = intmat.transpose(v)
    return tuple(vt[j] for j in range(rank, len(a[0])))


def test_orth_complement_matches_kernel_int():
    """orth_complement reads the kernel off the sublattice's cached Smith
    form of B G, which glue reads too; kernel_int and the complement's
    basis match the former kernel rule."""
    u3 = hyperbolic_sum(3)
    lat = direct_sum(u3, rank_one(-6), rank_one(4))
    rng = random.Random(41)
    for amb in (u3, lat):
        for _ in range(100):
            gens = [tuple(rng.randint(-5, 5) for _ in range(amb.rank))
                    for _ in range(rng.randint(1, 3))]
            try:
                sub = amb.saturate(gens)
                comp = amb.orth_complement(sub)
            except LatticeError:
                continue
            bg = mat_mul(sub.embedding.basis, amb.gram)
            assert sub.embedding.basis_gram == bg
            assert sub.ambient_smith == snf(bg)
            assert intmat.kernel_int(bg) == _kernel_by_snf(bg)
            assert comp.embedding.basis == row_basis(_kernel_by_snf(bg))


def test_zero_generators_are_refused():
    """The zero vector spans nothing: saturate and span refuse it instead of
    returning a rank-0 lattice, whose complement cannot be formed, and so
    does the constructor given an empty embedding."""
    u3 = hyperbolic_sum(3)
    for build in (u3.saturate, u3.span):
        with pytest.raises(LatticeError):
            build(((0,) * 6,))
    with pytest.raises(LatticeError):
        u3.sublattice(())
    with pytest.raises(LatticeError):
        IntegerLattice((), embedding=Embedding(u3, ()))


def test_sublattice_constructors_form_one_gram_and_one_det(monkeypatch):
    """saturate, span and orth_complement each form B G B^T once (in the
    Embedding, found by its output) and take one determinant (in the
    lattice constructor)."""
    u3 = hyperbolic_sum(3)
    gens = ((1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0))
    s = u3.saturate(gens)
    dets, products = [], []
    real_det, real_mul = intmat.det, lattices.mat_mul

    def counting_det(a):
        dets.append(a)
        return real_det(a)

    def counting_mul(a, b):
        out = real_mul(a, b)
        products.append(out)
        return out

    monkeypatch.setattr(intmat, "det", counting_det)
    monkeypatch.setattr(lattices, "mat_mul", counting_mul)
    for build in (lambda: u3.saturate(gens), lambda: u3.span(gens),
                  lambda: u3.orth_complement(s)):
        dets.clear()
        products.clear()
        sub = build()
        assert dets == [sub.gram]
        assert products.count(sub.gram) == 1


def test_orth_complement_is_orthogonal_and_primitive():
    u3 = hyperbolic_sum(3)
    s = u3.saturate(((1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0)))
    k = u3.orth_complement(s)
    assert s.rank + k.rank == 6
    for i in range(s.rank):
        es = tuple(int(a == i) for a in range(s.rank))
        for j in range(k.rank):
            ek = tuple(int(a == j) for a in range(k.rank))
            assert u3.inner(s.to_ambient(es), k.to_ambient(ek)) == 0
    assert u3.is_primitive(k)


def test_span_keeps_imprimitive_index():
    u3 = hyperbolic_sum(3)
    s = u3.span(((2, 4, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)))
    assert s.rank == 2
    assert not u3.is_primitive(s)


def _is_primitive_by_saturation(ambient, sub):
    """The former primitivity test, kept as the reference: the sublattice
    equals its saturation, compared by canonical row bases."""
    sat = ambient.saturate(sub.embedding.basis)
    return row_basis(sub.embedding.basis) == row_basis(sat.embedding.basis)


@settings(max_examples=150, deadline=None)
@given(gens=st.lists(st.lists(st.integers(-4, 4), min_size=6, max_size=6),
                     min_size=1, max_size=4),
       scale=st.sampled_from((1, 1, 2, 3)), twist=st.booleans())
def test_is_primitive_matches_saturation(gens, scale, twist):
    ambient = (direct_sum(hyperbolic_sum(2), rank_one(-4), rank_one(2))
               if twist else hyperbolic_sum(3))
    gens = [tuple(scale * x for x in gens[0])] + [tuple(g) for g in gens[1:]]
    try:
        sub = ambient.span(gens)
    except LatticeError:
        assume(False)
    assert ambient.is_primitive(sub) == _is_primitive_by_saturation(ambient,
                                                                    sub)


def test_is_primitive_on_fixed_spans():
    u3 = hyperbolic_sum(3)
    for gens, want in ((((2, 4, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)), False),
                       (((1, 2, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)), True),
                       (((1, 1, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0)), False),
                       (((3, 3, 3, 3, 0, 0),), False)):
        sub = u3.span(gens)
        assert u3.is_primitive(sub) is want
        assert _is_primitive_by_saturation(u3, sub) is want


def test_from_ambient_inverts_to_ambient():
    u3 = hyperbolic_sum(3)
    s = u3.saturate(((1, 2, 3, 0, 0, 0), (0, 1, 0, 1, 0, 0)))
    for v in ((1, 0), (0, 1), (3, -2)):
        c = s.from_ambient(s.to_ambient(v))
        assert c == v and all(type(x) is int for x in c)


def test_from_ambient_rejects_out_of_span_vector():
    u3 = hyperbolic_sum(3)
    s = u3.saturate(((1, 2, 3, 0, 0, 0), (0, 1, 0, 1, 0, 0)))
    for w in ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0)):
        with pytest.raises(LatticeError):
            s.from_ambient(w)
    # in the rational span of an index-2 sublattice, but not in it
    half = u3.span(((2, 4, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0)))
    with pytest.raises(LatticeError):
        half.from_ambient((1, 2, 0, 0, 0, 0))
    assert half.from_ambient((2, 4, 1, 1, 0, 0)) == (1, 1)
    with pytest.raises(LatticeError):
        u3.from_ambient((1, 0, 0, 0, 0, 0))  # no embedding


def _random_primitive_sublattices(seed, count):
    rng = random.Random(seed)
    u3 = hyperbolic_sum(3)
    out = []
    while len(out) < count:
        rank = rng.randint(1, 5)
        gens = [tuple(rng.randint(-4, 4) for _ in range(6))
                for _ in range(rank)]
        try:
            out.append(u3.saturate(gens))
        except LatticeError:
            continue  # degenerate span
    return out


def test_projection_matches_per_column_rational_solves():
    for s in _random_primitive_sublattices(11, 25):
        num, den = s.projection
        assert den >= 1 and all(type(x) is int for row in num for x in row)
        ambient = s.embedding.ambient
        bg = mat_mul(s.embedding.basis, ambient.gram)
        for j in range(ambient.rank):
            e = tuple(int(i == j) for i in range(ambient.rank))
            want = solve_rational(s.gram, mat_vec(bg, e))
            assert tuple(Fraction(row[j], den) for row in num) == want
        assert s.projection is s.projection  # cached


def test_json_rejects_non_objects_and_non_integers():
    u3 = hyperbolic_sum(3)
    doc = u3.saturate(((1, 2, 0, 0, 0, 0),), label="line").to_json()
    IntegerLattice.from_json(doc)
    bad_basis = dict(doc, embedding=dict(doc["embedding"],
                                         basis=[[1.0, 2, 0, 0, 0, 0]]))
    for bad in ([1, 2], {"gram": [[2.0, 1.0], [1.0, 2.0]]},
                {"gram": [[2, 1], [1, True]]}, bad_basis,
                dict(doc, embedding=[1])):
        with pytest.raises(TypeError):
            IntegerLattice.from_json(bad)


def test_embedding_gram_consistency_enforced():
    u = hyperbolic_plane()
    with pytest.raises(LatticeError):
        IntegerLattice(((4,),), embedding=Embedding(u, ((1, 1),)))


def test_json_roundtrip():
    u3 = hyperbolic_sum(3)
    s = u3.saturate(((1, 2, 0, 0, 0, 0),), label="line")
    back = IntegerLattice.from_json(s.to_json())
    assert back.gram == s.gram
    assert back.label == "line"
    assert back.embedding.basis == s.embedding.basis
    assert back.embedding.ambient.gram == u3.gram


def test_signature_and_positive_frame_share_one_orthogonal_basis(monkeypatch):
    """signature() and the positive frame both read the lattice's one
    cached orthogonal basis."""
    calls = []
    real = intmat.orthogonal_basis

    def counting(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(intmat, "orthogonal_basis", counting)
    lat = direct_sum(hyperbolic_sum(3), rank_one(-10))
    cols, _ = lat.positive_frame
    assert lat.signature() == (3, 4) == (len(cols), 4)
    assert lat.orthogonal_basis == tuple(real(lat.gram))
    assert calls == [lat.gram]
    # a gram passed directly still gets its own basis
    assert intmat.signature(lat.gram) == (3, 4)
    assert len(calls) == 2


def test_embedded_is_the_one_test_of_where_a_sublattice_lives():
    """`embedded(ambient)` returns the Embedding of a sublattice of a
    lattice equal to `ambient` (by gram), and every reader of the embedding
    refuses a lattice that has none, through it."""
    u3 = hyperbolic_sum(3)
    sub = u3.span(((1, 1, 0, 0, 0, 0),))
    for amb in (None, u3, hyperbolic_sum(3),
                IntegerLattice.from_json(u3.to_json())):
        assert sub.embedded(amb) is sub.embedding
    other = direct_sum(hyperbolic_sum(2), rank_one(2), rank_one(-2))
    with pytest.raises(LatticeError, match="not embedded in this lattice"):
        sub.embedded(other)
    with pytest.raises(LatticeError, match="not embedded in this lattice"):
        other.orth_complement(sub)
    for read in (u3.embedded, lambda: u3.to_ambient((1,) * 6),
                 lambda: u3.from_ambient((1,) * 6),
                 lambda: u3.basis_smith, lambda: u3.ambient_smith,
                 lambda: u3.projection, lambda: u3.coordinate_rule,
                 lambda: u3.is_primitive(u3),
                 lambda: u3.orth_complement(u3)):
        with pytest.raises(LatticeError, match="has no embedding"):
            read()
