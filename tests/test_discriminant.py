"""Discriminant groups, glue data, and extension of isometries."""

import itertools
from fractions import Fraction

import pytest

from mukailat.lattices import (IntegerLattice, LatticeError, hyperbolic_sum,
                               direct_sum, rank_one)
from mukailat.isometries import (Isometry, IsometryError, identity_isometry,
                                 minus_identity, reflection)
from mukailat.discriminant import (DiscriminantData, DiscMap, disc_group,
                                   disc_map, identity_disc_map,
                                   enum_disc_autos, count_distinct_primes,
                                   index_monodromy, glue, extend_isometry,
                                   ExtensionObstructed, NotFound, in_W, in_N)


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
        assert data.class_of(data.lift((c,))) == (c % 8,)


def test_class_of_rejects_non_dual_points():
    data = DiscriminantData(rank_one(-8))
    with pytest.raises(LatticeError):
        data.class_of((Fraction(1, 3),))


def test_enum_disc_autos_small_cases():
    assert enum_disc_autos(3) == [1, 5]
    assert enum_disc_autos(4) == [1, 7]
    assert enum_disc_autos(6) == [1, 5, 7, 11]
    assert enum_disc_autos(1) == [1]


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
        assert disc_map(reflection(lat, u), data, data).sign() == 1
    assert disc_map(minus_reflection(lat, (1, 1, 0, 0, 0, 0, 0)),
                    data, data).sign() == -1
    assert disc_map(identity_isometry(lat), data, data).sign() == 1


def test_disc_map_compose_and_inverse():
    lat = _perp(5)
    data = DiscriminantData(lat)
    d = disc_map(minus_identity(lat), data, data)
    assert d.compose(d).is_identity()
    assert d.inverse() == d
    assert identity_disc_map(data).sign() == 1


def orth_group_elements(data, cap=2000):
    """Brute-force list of all quadratic-form automorphisms of a discriminant
    group, as DiscMaps.  Errors if the group order exceeds the cap."""
    if data.order > cap:
        raise ValueError("discriminant group too large for brute force")
    gcount = len(data.invariants)
    out = []
    for images in itertools.product(data.elements(), repeat=gcount):
        try:
            m = DiscMap(data, data, images)
        except IsometryError:
            continue
        # must be invertible and a homomorphism respecting orders
        ok = True
        for i in range(gcount):
            ei = tuple(int(i == a) for a in range(gcount))
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
    with pytest.raises(LatticeError):
        glue(s, k)


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


def test_extension_obstruction_fires():
    # disc group has exponent > 2, so (id_S, -id_K) cannot match through glue
    _, s, k = _glued_pair()
    gd = glue(s, k)
    assert gd.disc_sub.invariants[-1] > 2
    with pytest.raises(ExtensionObstructed):
        extend_isometry(identity_isometry(s), minus_identity(k), gd, gd)


def test_in_W_and_in_N_for_signed_reflections():
    from mukailat.isometries import OrientationDatum, minus_reflection
    lat = _perp(3)
    datum = OrientationDatum(lat, ((1, 1, 0, 0, 0, 0, 0),
                                   (0, 0, 1, 1, 0, 0, 0),
                                   (0, 0, 0, 0, 1, 1, 0)))
    data = DiscriminantData(lat)
    rneg = minus_reflection(lat, (1, -1, 0, 0, 0, 0, 0))  # square -2
    rpos = minus_reflection(lat, (1, 1, 0, 0, 0, 0, 0))   # square +2
    for r in (rneg, rpos):
        d = disc_map(r, data, data)
        assert in_W(r, datum, disc=d)
        # a single signed reflection has det * disc-sign == -1, so it
        # generates W over its index-2 subgroup but is not in it
        assert not in_N(r, datum, disc=d)
    # the product of two signed reflections is in the subgroup
    comp = rneg.compose(rpos)
    assert in_N(comp, datum, disc=disc_map(comp, data, data))


def test_not_found_carries_bound_and_stage():
    nf = NotFound(7, stage="demo")
    assert nf.bound == 7
    assert nf.stage == "demo"
    assert "bound 7" in str(nf)
    assert isinstance(nf, Exception)
