"""Rank-8 lattice model, pairing, derived-equivalence actions, orientation."""

from fractions import Fraction

import pytest

from mukailat import mukai
from mukailat.intmat import mat_mul, transpose
from mukailat.mukai import (MukaiModel, MukaiVector, MkTriple, mukai_pairing,
                            v_perp, fm_action, h2_lift, hodge_ori,
                            epsilon_ori, DecisionDegenerate, H2_GRAM,
                            MUKAI_GRAM, h2_inner)
from mukailat.discriminant import DiscriminantData


def test_pairing_examples():
    one = MukaiVector(1, (0,) * 6, 0)
    pt = MukaiVector(0, (0,) * 6, 1)
    assert mukai_pairing(one, pt) == -1
    s = MukaiVector(1, (0,) * 6, 1)
    assert s.square() == -2
    s1 = MukaiVector(1, (0,) * 6, -1)
    assert s1.square() == 2
    v = MukaiVector(2, (0,) * 6, -6)  # m=2, k=3
    assert v.square() == 24


def test_mukai_vector_helpers():
    v = MukaiVector(1, (0,) * 6, -3)
    assert v.is_primitive()
    assert not v.scale(2).is_primitive()
    assert MukaiVector.from_json(v.to_json()) == v
    with pytest.raises(ValueError):
        MukaiVector(1, (0, 0, 0), 0)


def test_model_validation():
    with pytest.raises(ValueError):
        MukaiModel(1)
    model = MukaiModel(2)
    assert model.is_ns((1, 2, 0, 0, 0, 0))
    assert not model.is_ns((1, 2, 1, 0, 0, 0))
    assert model.strictly_effective((0, 1, 0, 0, 0, 0))
    assert model.is_valid_mukai_vector(MukaiVector(0, (0,) * 6, 5))
    assert not model.is_valid_mukai_vector(MukaiVector(-1, (0,) * 6, 0))


def test_triple_validation():
    with pytest.raises(ValueError):
        MkTriple(0, 3)
    with pytest.raises(ValueError):
        MkTriple(1, 2)
    for t in (1, 0, -3):
        with pytest.raises(ValueError, match="polarization parameter t"):
            MkTriple(1, 3, t)
    t = MkTriple(2, 3)
    assert t.v.vec8() == (2, 0, 0, 0, 0, 0, 0, -6)
    assert t.w.square() == 6
    assert MkTriple.from_json(t.to_json()) == t


def test_vperp_canonical_basis():
    model = MukaiModel(2)
    for m, k in ((1, 3), (2, 5)):
        vp = v_perp(model, MukaiVector(m, (0,) * 6, -m * k))
        assert vp.rank == 7
        assert vp.signature() == (3, 4)
        data = DiscriminantData(vp)
        assert data.invariants == (2 * k,)
        assert data.q((1,)) == Fraction(-1, 2 * k) % 2
        v8 = (m, 0, 0, 0, 0, 0, 0, -m * k)
        for j in range(7):
            e = tuple(int(i == j) for i in range(7))
            amb = vp.to_ambient(e)
            assert sum(a * b for a, b in zip(
                amb, [sum(MUKAI_GRAM[i][l] * v8[l] for l in range(8))
                      for i in range(8)])) == 0


def test_vperp_rejects_a_vector_off_the_canonical_line():
    """Only v = m*(1,0,-k) has a complement in the canonical basis; any other
    vector, of positive square or not, is refused."""
    model = MukaiModel(2)
    for r, xi, a in ((1, (1, 1, 0, 0, 0, 0), -2),  # square 6, not canonical
                     (-1, (0,) * 6, 3),             # -(1,0,-3)
                     (2, (0,) * 6, -3),             # primitive, r = 2
                     (1, (0,) * 6, 0), (1, (0,) * 6, 3),
                     (0, (0,) * 6, 0)):
        with pytest.raises(ValueError, match="m\\*\\(1,0,-k\\)"):
            v_perp(model, MukaiVector(r, xi, a))


def test_all_actions_preserve_gram():
    model = MukaiModel(2)
    for kind, c in (("tensor", (1, 2, 0, 0, 0, 0)), ("poincare", None),
                    ("dual", None), ("poincare_dual", None),
                    ("elliptic", None)):
        g = fm_action(model, kind, c).matrix
        assert mat_mul(mat_mul(transpose(g), MUKAI_GRAM), g) == MUKAI_GRAM


def test_tensor_action_cocycle():
    model = MukaiModel(2)
    c1 = (1, 3, 0, 0, 0, 0)
    c2 = (-2, 1, 0, 0, 0, 0)
    csum = tuple(a + b for a, b in zip(c1, c2))
    lhs = fm_action(model, "tensor", c1).compose(fm_action(model, "tensor", c2))
    assert lhs.matrix == fm_action(model, "tensor", csum).matrix


def test_fm_action_is_built_once_and_shared():
    model = MukaiModel(2)
    lat = model.lattice
    for kind, c, same_c in (("tensor", [1, 2, 0, 0, 0, 0], (1, 2, 0, 0, 0, 0)),
                            ("poincare", None, None),
                            ("elliptic", None, None)):
        phi = fm_action(model, kind, c)
        assert fm_action(model, kind, same_c) is phi
        assert fm_action(model, kind, c) is phi
        # the shared action equals a fresh, checked build of the same key
        fresh = mukai._fm_action.__wrapped__(model, kind, same_c)
        assert fresh is not phi and fresh == phi
        matrix = phi.matrix
        phi.inverse().compose(phi).compose(phi.inverse())
        assert phi.matrix == matrix and phi.source is lat
        assert fm_action(model, kind, c) is phi
    # another model gets its own action on its own lattice
    other = MukaiModel(2)
    phi = fm_action(other, "poincare")
    assert phi is not fm_action(model, "poincare")
    assert phi.source is other.lattice
    assert phi.matrix == fm_action(model, "poincare").matrix


def test_tensor_action_on_rank_one():
    model = MukaiModel(2)
    c = (1, 2, 0, 0, 0, 0)
    phi = fm_action(model, "tensor", c)
    # (1, 0, 0) -> (1, c, c^2/2)
    assert phi.apply((1, 0, 0, 0, 0, 0, 0, 0)) == \
        (1,) + c + (h2_inner(c, c) // 2,)
    # (0, 0, 1) is fixed
    pt = (0, 0, 0, 0, 0, 0, 0, 1)
    assert phi.apply(pt) == pt


def test_tensor_rejects_non_ns_class():
    model = MukaiModel(2)
    with pytest.raises(ValueError):
        fm_action(model, "tensor", (0, 0, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        fm_action(model, "tensor", None)


def test_poincare_and_dual_actions():
    model = MukaiModel(2)
    p = fm_action(model, "poincare")
    x = (2, 1, -1, 3, 0, 0, 5, 7)
    # (r, xi, a) -> (a, -xi, r)
    assert p.apply(x) == (7, -1, 1, -3, 0, 0, -5, 2)
    d = fm_action(model, "dual")
    assert d.apply(x) == (2, -1, 1, -3, 0, 0, -5, 7)
    pd = fm_action(model, "poincare_dual")
    assert pd.apply(x) == (7, 1, -1, 3, 0, 0, 5, 2)


def test_elliptic_action_images():
    model = MukaiModel(2)
    ell = fm_action(model, "elliptic")
    assert ell.apply((1, 0, 0, 0, 0, 0, 0, 0)) == (0, 1, 0, 0, 0, 0, 0, 1)
    assert ell.apply((0, 0, 0, 0, 0, 0, 0, 1)) == (0, 0, -1, 0, 0, 0, 0, 0)
    assert ell.apply((0, 1, 0, 0, 0, 0, 0, 0)) == (-1, 0, -1, 0, 0, 0, 0, 0)
    assert ell.apply((0, 0, 1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 0, 0, 1)
    # degree-2 classes orthogonal to the first block are negated
    assert ell.apply((0, 0, 0, 1, 0, 0, 0, 0)) == (0, 0, 0, -1, 0, 0, 0, 0)


def test_orientation_table():
    model = MukaiModel(2)
    want = {"tensor": 0, "poincare": 0, "elliptic": 0,
            "dual": 1, "poincare_dual": 1}
    for kind, w in want.items():
        c = (1, 2, 0, 0, 0, 0) if kind == "tensor" else None
        phi = fm_action(model, kind, c)
        assert epsilon_ori(model, phi) == w
        assert hodge_ori(model, phi) == w


def test_hodge_ori_names_a_phi_that_moves_the_symplectic_plane():
    from mukailat.isometries import Isometry, IsometryError, reflection
    model = MukaiModel(2)
    # the reflection in (1, 1, 1, 0, 0, 0) sends e2+f2 to (-1, -1, 0, 1, 0, 0)
    h = reflection(model.h2_lattice, (1, 1, 1, 0, 0, 0))
    phi = Isometry(model.lattice, model.lattice, h2_lift(h.matrix))
    with pytest.raises(IsometryError, match="symplectic plane"):
        hodge_ori(model, phi)


def test_hodge_ori_rejects_wrong_lattice():
    from mukailat.lattices import hyperbolic_plane
    from mukailat.isometries import identity_isometry, IsometryError
    model = MukaiModel(2)
    with pytest.raises(IsometryError):
        hodge_ori(model, identity_isometry(hyperbolic_plane()))


def test_epsilon_ori_rejects_wrong_lattice():
    from mukailat.isometries import identity_isometry, IsometryError
    model = MukaiModel(2)
    for lat in (model.h2_lattice, v_perp(model, MkTriple(1, 3).v)):
        with pytest.raises(IsometryError, match="rank-8 lattice"):
            epsilon_ori(model, identity_isometry(lat))


def test_vperp_gram_matches_pairwise_inner_products():
    """The gram is one product B G B^T; the former r^2 inner products are
    the reference."""
    model = MukaiModel(3)
    for m, k in ((1, 3), (2, 5), (3, 11)):
        vp = v_perp(model, MukaiVector(m, (0,) * 6, -m * k))
        basis = vp.embedding.basis
        assert vp.gram == tuple(tuple(model.lattice.inner(a, b)
                                      for b in basis) for a in basis)
