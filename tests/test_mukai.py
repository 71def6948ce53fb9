"""Rank-8 lattice model, pairing, derived-equivalence actions, orientation."""

import hashlib
from fractions import Fraction

import pytest

from mukailat import mukai
from mukailat.intmat import mat_mul, transpose
from mukailat.mukai import (MukaiModel, MukaiVector, MkTriple, mukai_pairing,
                            v_perp, fm_action, h2_lift, hodge_ori,
                            epsilon_ori, DecisionDegenerate, H2_GRAM,
                            MUKAI_GRAM, MUKAI, U3)
from mukailat.discriminant import DiscriminantData
from mukailat.lemsimo import LemsimoProblem, check_bound
from mukailat.verify import VerifyConfig

XI1, XI2 = (1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0)  # square 4, so k = 3


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


def test_mukai_vector_keeps_a_tuple():
    """A list xi made a frozen vector that could not be hashed."""
    v = MukaiVector(1, [0] * 6, 0)
    assert hash(v) == hash(MukaiVector(1, (0,) * 6, 0))
    assert v == MukaiVector(1, (0,) * 6, 0) and type(v.xi) is tuple


@pytest.mark.parametrize("doc", [
    {"r": 1.5, "xi": [0.5, 0, 0, 0, 0, True], "a": 0},
    {"r": 1, "xi": [0, 0, 0, 0, 0, 0], "a": 0.0},
    {"r": True, "xi": [0, 0, 0, 0, 0, 0], "a": 0},
    {"r": 1, "xi": [0, 0, 0, 0, 0, 1.0], "a": 0},
    {"r": 1, "xi": [0, 0, 0, 0, 0, True], "a": 0},
    [1, [0, 0, 0, 0, 0, 0], 0],
])
def test_mukai_vector_from_json_refuses_non_integers(doc):
    """Floats and bools never reach the exact core: the float document
    below would give a vector whose square is 0.0."""
    with pytest.raises(TypeError):
        MukaiVector.from_json(doc)


@pytest.mark.parametrize("make", [
    lambda: MukaiVector(1.5, (0.5, 0, 0, 0, 0, True), 0),
    lambda: MukaiVector(1, (0, 0, 0, 0, 0, 0), 0.0),
    lambda: MukaiVector(True, (0, 0, 0, 0, 0, 0), 0),
    lambda: MukaiVector(1, (0, 0, 0, 0, 0, Fraction(1)), 0),
    lambda: MkTriple(1, 3.5),
    lambda: MkTriple(True, 3),
    lambda: MkTriple(1, 3, 2.0),
    lambda: MkTriple(1, 3, False),
    lambda: MukaiModel(2.5),
    lambda: MukaiModel(True),
    lambda: MukaiModel(Fraction(3)),
    lambda: LemsimoProblem(3.0, XI1, XI2),
    lambda: LemsimoProblem(3, (1.0, 2, 0, 0, 0, 0), XI2),
    lambda: LemsimoProblem(3, XI1, (0, 0, True, 2, 0, 0)),
    lambda: LemsimoProblem(3, XI1, XI2, bound=2.5),
    lambda: check_bound(2.5),
    lambda: check_bound(True),
    lambda: VerifyConfig(t=2.5),
    lambda: VerifyConfig(t=2.5, bound=2.5),
])
def test_constructors_refuse_non_integers(make):
    """The constructors refuse what `from_json` refuses, before any range
    check: the first vector above would have square 0.0, `MkTriple(1, 3.5)`
    and `MkTriple(True, 3)` pass the range checks, and `MukaiModel(2.5)`
    would make `hodge_ori` compute with floats."""
    with pytest.raises(TypeError):
        make()


def test_model_validation():
    with pytest.raises(ValueError):
        MukaiModel(1)
    model = MukaiModel(2)
    # a tensor class lies in the Neron-Severi block
    assert fm_action("tensor", (1, 2, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="Neron-Severi"):
        fm_action("tensor", (1, 2, 1, 0, 0, 0))
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
    for m, k in ((1, 3), (2, 5)):
        vp = v_perp(MukaiVector(m, (0,) * 6, -m * k))
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
    for r, xi, a in ((1, (1, 1, 0, 0, 0, 0), -2),  # square 6, not canonical
                     (-1, (0,) * 6, 3),             # -(1,0,-3)
                     (2, (0,) * 6, -3),             # primitive, r = 2
                     (1, (0,) * 6, 0), (1, (0,) * 6, 3),
                     (0, (0,) * 6, 0)):
        with pytest.raises(ValueError, match="m\\*\\(1,0,-k\\)"):
            v_perp(MukaiVector(r, xi, a))


def test_all_actions_preserve_gram():
    for kind, c in (("tensor", (1, 2, 0, 0, 0, 0)), ("poincare", None),
                    ("dual", None), ("poincare_dual", None),
                    ("elliptic", None)):
        g = fm_action(kind, c).matrix
        assert mat_mul(mat_mul(transpose(g), MUKAI_GRAM), g) == MUKAI_GRAM


def test_tensor_action_cocycle():
    c1 = (1, 3, 0, 0, 0, 0)
    c2 = (-2, 1, 0, 0, 0, 0)
    csum = tuple(a + b for a, b in zip(c1, c2))
    lhs = fm_action("tensor", c1).compose(fm_action("tensor", c2))
    assert lhs.matrix == fm_action("tensor", csum).matrix


def test_fm_action_is_built_once_and_shared():
    for kind, c, same_c in (("tensor", [1, 2, 0, 0, 0, 0], (1, 2, 0, 0, 0, 0)),
                            ("poincare", None, None),
                            ("elliptic", None, None)):
        phi = fm_action(kind, c)
        assert fm_action(kind, same_c) is phi
        assert fm_action(kind, c) is phi
        # the shared action equals a fresh, checked build of the same key
        fresh = mukai._fm_action.__wrapped__(kind, same_c)
        assert fresh is not phi and fresh == phi
        matrix = phi.matrix
        phi.inverse().compose(phi).compose(phi.inverse())
        assert phi.matrix == matrix and phi.source is MUKAI
        assert fm_action(kind, c) is phi
    # the action does not depend on t: a word on a triple of any t reads
    # the one shared action, and the cache gains no entry for it
    from mukailat.monodromy import GroupoidWord, eval_phi_tilde, poincare
    phi = fm_action("poincare")
    size = mukai._fm_action.cache_info().currsize
    for t in (2, 3, 5):
        word = GroupoidWord(MkTriple(1, 3, t), (poincare(),))
        assert eval_phi_tilde(word) == phi
        assert fm_action("poincare") is phi
    assert mukai._fm_action.cache_info().currsize == size


def test_only_the_tensor_action_takes_a_class():
    """A class passed with another kind is refused, not cached next to
    the action without it."""
    for c in ((1, 2, 0, 0, 0, 0), (1, 2, 3)):
        with pytest.raises(ValueError, match="only the tensor action"):
            fm_action("poincare", c)
    assert fm_action("poincare") is fm_action("poincare")


@pytest.mark.parametrize("bad", [(1, 2.0, 0, 0, 0, 0), (True, 2, 0, 0, 0, 0),
                                 (1, Fraction(2), 0, 0, 0, 0)])
def test_tensor_class_is_checked_before_the_cache(bad):
    """An equal int class is cached first: the cache keys cannot tell
    2.0, True or Fraction(2) from the int, so the check comes before them."""
    assert fm_action("tensor", (1, 2, 0, 0, 0, 0))
    with pytest.raises(TypeError):
        fm_action("tensor", bad)


def test_tensor_action_on_rank_one():
    c = (1, 2, 0, 0, 0, 0)
    phi = fm_action("tensor", c)
    # (1, 0, 0) -> (1, c, c^2/2)
    assert phi.apply((1, 0, 0, 0, 0, 0, 0, 0)) == \
        (1,) + c + (U3.inner(c, c) // 2,)
    # (0, 0, 1) is fixed
    pt = (0, 0, 0, 0, 0, 0, 0, 1)
    assert phi.apply(pt) == pt


def test_tensor_rejects_non_ns_class():
    with pytest.raises(ValueError):
        fm_action("tensor", (0, 0, 1, 0, 0, 0))
    with pytest.raises(ValueError):
        fm_action("tensor", None)


def test_poincare_and_dual_actions():
    p = fm_action("poincare")
    x = (2, 1, -1, 3, 0, 0, 5, 7)
    # (r, xi, a) -> (a, -xi, r)
    assert p.apply(x) == (7, -1, 1, -3, 0, 0, -5, 2)
    d = fm_action("dual")
    assert d.apply(x) == (2, -1, 1, -3, 0, 0, -5, 7)
    pd = fm_action("poincare_dual")
    assert pd.apply(x) == (7, 1, -1, 3, 0, 0, 5, 2)


def test_elliptic_action_images():
    ell = fm_action("elliptic")
    assert ell.apply((1, 0, 0, 0, 0, 0, 0, 0)) == (0, 1, 0, 0, 0, 0, 0, 1)
    assert ell.apply((0, 0, 0, 0, 0, 0, 0, 1)) == (0, 0, -1, 0, 0, 0, 0, 0)
    assert ell.apply((0, 1, 0, 0, 0, 0, 0, 0)) == (-1, 0, -1, 0, 0, 0, 0, 0)
    assert ell.apply((0, 0, 1, 0, 0, 0, 0, 0)) == (0, 0, 0, 0, 0, 0, 0, 1)
    # degree-2 classes orthogonal to the first block are negated
    assert ell.apply((0, 0, 0, 1, 0, 0, 0, 0)) == (0, 0, 0, -1, 0, 0, 0, 0)


def test_fm_action_table_is_pinned():
    """Every column of every action: the SHA-256 of the matrices of two
    tensor classes and the four other kinds."""
    mats = [fm_action(kind, c).matrix for kind, c in (
        ("tensor", (1, 2, 0, 0, 0, 0)), ("tensor", (3, -1, 0, 0, 0, 0)),
        ("poincare", None), ("dual", None), ("poincare_dual", None),
        ("elliptic", None))]
    assert hashlib.sha256(repr(mats).encode()).hexdigest() == (
        "55c39ebdb69f6ae3ef64ed71c87d8e57b34a9f11fc8eee146df5f8315e12bc3d")


def test_orientation_table():
    model = MukaiModel(2)
    want = {"tensor": 0, "poincare": 0, "elliptic": 0,
            "dual": 1, "poincare_dual": 1}
    for kind, w in want.items():
        c = (1, 2, 0, 0, 0, 0) if kind == "tensor" else None
        phi = fm_action(kind, c)
        assert epsilon_ori(phi) == w
        assert hodge_ori(model, phi) == w


def _hodge_ori_by_apply(model, phi):
    """The former hodge_ori, kept as the reference: r, chi and chi_om as
    the degree-0 parts of three whole `apply` calls."""
    t = model.t
    omega8 = (0, 1, t, 0, 0, 0, 0, -t)
    e0 = (1,) + (0,) * 7
    r = phi.apply((0,) * 7 + (1,))[0]
    chi = phi.apply(e0)[0]
    chi_om = phi.apply(omega8)[0]
    u0 = (-r, 0, 0, 0, 0, 0, 0, chi)
    u1 = (0, -r, -r * t, 0, 0, 0, 0, r * t + chi_om)
    if r != 0:
        c1, c2 = chi_om + r * t, chi - r * t
        cls = tuple(c1 * x - c2 * y
                    for x, y in zip(phi.apply(u0)[1:7], phi.apply(u1)[1:7]))
    else:
        cls = tuple(chi * a - chi_om * b - t * (x - y)
                    for a, b, x, y in zip(phi.apply(omega8)[1:7],
                                          phi.apply(e0)[1:7],
                                          phi.apply(u0)[1:7],
                                          phi.apply(u1)[1:7]))
    if U3.norm(cls) <= 0:
        return "degenerate"
    return 0 if (r or 1) * U3.inner(cls, model.omega) > 0 else 1


def test_hodge_ori_matches_the_apply_reference():
    """hodge_ori reads r, chi and chi_om off row 0 of the matrix; on words
    of one to four FM actions, with t = 2, 3, 5, it agrees with the
    apply-based reference, and both the r = 0 and r != 0 branches and the
    degenerate cone test occur."""
    import random
    rng = random.Random(37)
    kinds = ("tensor", "poincare", "dual", "poincare_dual", "elliptic")
    seen = set()
    for _ in range(300):
        model = MukaiModel(rng.choice((2, 3, 5)))
        phi = fm_action("dual")
        for kind in rng.choices(kinds, k=rng.randint(1, 4)):
            c = ((rng.randint(-3, 3), rng.randint(-3, 3), 0, 0, 0, 0)
                 if kind == "tensor" else None)
            phi = fm_action(kind, c).compose(phi)
        want = _hodge_ori_by_apply(model, phi)
        try:
            got = hodge_ori(model, phi)
        except DecisionDegenerate:
            got = "degenerate"
        assert got == want
        seen.add((phi.matrix[0][7] == 0, want))
    assert {r0 for r0, _ in seen} == {True, False}
    assert {w for _, w in seen} == {0, 1, "degenerate"}


def test_hodge_ori_names_a_phi_that_moves_the_symplectic_plane():
    from mukailat.isometries import Isometry, IsometryError, reflection
    model = MukaiModel(2)
    # the reflection in (1, 1, 1, 0, 0, 0) sends e2+f2 to (-1, -1, 0, 1, 0, 0)
    h = reflection(U3, (1, 1, 1, 0, 0, 0))
    phi = Isometry(MUKAI, MUKAI, h2_lift(h.matrix))
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
    for lat in (U3, v_perp(MkTriple(1, 3).v)):
        with pytest.raises(IsometryError, match="rank-8 lattice"):
            epsilon_ori(identity_isometry(lat))


def test_vperp_gram_matches_pairwise_inner_products():
    """The gram is one product B G B^T; the former r^2 inner products are
    the reference."""
    for m, k in ((1, 3), (2, 5), (3, 11)):
        vp = v_perp(MukaiVector(m, (0,) * 6, -m * k))
        basis = vp.embedding.basis
        assert vp.gram == tuple(tuple(MUKAI.inner(a, b)
                                      for b in basis) for a in basis)


def test_mukai_orthogonal_basis_is_computed_once(monkeypatch):
    """One rank-8 lattice per process: once its orthogonal basis is known,
    the models, actions, certificates and orientation characters of every
    t read it, and no other rank-8 basis is computed."""
    from mukailat import intmat
    from mukailat.monodromy import propdual_word
    assert epsilon_ori(fm_action("poincare_dual")) == 1
    assert "orthogonal_basis" in vars(MUKAI)
    real, calls = intmat.orthogonal_basis, []

    def counting(gram):
        if gram == MUKAI_GRAM:
            calls.append(gram)
        return real(gram)

    monkeypatch.setattr(intmat, "orthogonal_basis", counting)
    for t in (2, 3, 5):
        model = MukaiModel(t)
        cert = propdual_word(MkTriple(2, 3, t))
        assert cert.composite.source is cert.composite.target is MUKAI
        assert epsilon_ori(cert.composite) == cert.ori == 1
        assert hodge_ori(model, fm_action("poincare_dual")) == 1
    assert MUKAI.signature() == (4, 4)
    assert calls == []
