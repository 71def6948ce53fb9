"""Words of elementary equivalences, certificates, and similitude transport."""

import pytest

from mukailat.mukai import MukaiModel, MkTriple, v_perp, fm_action
from mukailat.monodromy import (Token, GroupoidWord, WordError, surface_lift,
                                tensor_l, poincare, poincare_dual, elliptic,
                                congruence_id, inverse, eval_phi_tilde,
                                restrict, psi_restrict, certify, propdual_word,
                                surface_lift_in_N, minus_dual_restricted,
                                vperp_datum, istar_similitude, isharp)
from mukailat.isometries import (Isometry, det_char, ori_char,
                                 identity_isometry)
from mukailat.lattices import hyperbolic_sum
from mukailat.discriminant import DiscriminantData, disc_map


def _triple():
    return MkTriple(2, 3, 2)


def test_token_json_roundtrip():
    toks = (tensor_l((1, 2, 0, 0, 0, 0)), poincare(), poincare_dual(),
            elliptic(), congruence_id(), inverse(poincare()),
            surface_lift(tuple(tuple(int(i == j) for j in range(6))
                               for i in range(6))))
    word = GroupoidWord(_triple(), toks)
    back = GroupoidWord.from_json(word.to_json())
    assert back == word


def test_congruence_token_is_identity():
    word = GroupoidWord(_triple(), (congruence_id(),))
    assert eval_phi_tilde(word).is_identity()


def test_inverse_token_cancels():
    t = tensor_l((1, 2, 0, 0, 0, 0))
    word = GroupoidWord(_triple(), (t, inverse(t)))
    assert eval_phi_tilde(word).is_identity()


def test_eval_composes_in_path_order():
    model = MukaiModel(2)
    t = tensor_l((0, 1, 0, 0, 0, 0))
    word = GroupoidWord(_triple(), (t, poincare()))
    got = eval_phi_tilde(word, model)
    want = fm_action(model, "poincare").compose(
        fm_action(model, "tensor", (0, 1, 0, 0, 0, 0)))
    assert got.matrix == want.matrix


def test_surface_lift_validation():
    model = MukaiModel(2)
    # determinant -1 matrix must be rejected
    swap = [[0, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]]
    for i in range(2, 6):
        swap.append([int(i == j) for j in range(6)])
    word = GroupoidWord(_triple(), (surface_lift(swap),))
    with pytest.raises(WordError):
        eval_phi_tilde(word, model)


def test_restrict_rejects_a_non_integral_result():
    # the swap of e and f maps the index-2 sublattice <2e, f, e2, ..> onto
    # <e, 2f, e2, ..>, so f goes to half of the basis vector 2e
    u3 = hyperbolic_sum(3)
    rows = [tuple(int(i == j) for j in range(6)) for i in range(6)]
    sub = u3.span([(2, 0, 0, 0, 0, 0)] + rows[1:])
    swap = Isometry(u3, u3, [rows[1], rows[0]] + rows[2:])
    with pytest.raises(WordError):
        restrict(swap, sub)
    assert restrict(identity_isometry(u3), sub).is_identity()
    assert restrict(identity_isometry(u3), sub, -1).matrix == \
        tuple(tuple(-x for x in r) for r in rows)


def test_psi_restrict_requires_fixed_vector():
    model = MukaiModel(2)
    triple = _triple()
    phi = fm_action(model, "tensor", (0, 1, 0, 0, 0, 0))
    with pytest.raises(WordError):
        psi_restrict(phi, triple, model)


def test_certify_functorial_on_concatenation():
    triple = _triple()
    model = triple.model()
    h = (1, 2, 0, 0, 0, 0)
    w1 = GroupoidWord(triple, (tensor_l(h), poincare_dual(),
                               inverse(poincare()), tensor_l(h)))
    w2 = GroupoidWord(triple, w1.tokens + w1.tokens)
    c1 = certify(w1, model)
    c2 = certify(w2, model)
    # sign-twisted restriction is multiplicative: the orientation signs of
    # the two halves multiply along with the restrictions
    r1 = c1.restricted
    assert c2.restricted.matrix == r1.compose(r1).matrix
    assert c2.ori == 0 and c1.ori == 1


def test_propdual_certificate_characters():
    for (m, k) in ((2, 3), (3, 4)):
        triple = MkTriple(m, k, 2)
        model = triple.model()
        target = minus_dual_restricted(triple, model)
        for p in (1, 2):
            cert = propdual_word(triple, p, model)
            assert cert.ori == 1
            assert cert.restricted.matrix == target.matrix
            assert cert.characters["det"] == -1
            assert cert.characters["disc"] == "-id"
            assert cert.in_N
            # JSON form is serializable and self-consistent
            doc = cert.to_json()
            assert doc["in_N"] is True and doc["ori"] == 1


def test_surface_lift_certificate_in_N():
    from mukailat.isometries import minus_reflection
    triple = _triple()
    model = triple.model()
    h2 = model.h2_lattice
    h = minus_reflection(h2, (1, 1, 0, 0, 0, 0)).compose(
        minus_reflection(h2, (0, 0, 1, 1, 0, 0)))
    assert h.det() == 1
    cert = surface_lift_in_N(h.matrix, triple, model)
    assert cert.ori == 0
    assert cert.in_N


def test_istar_scales_pairing():
    triple = MkTriple(1, 3, 2)
    model = triple.model()
    vp = v_perp(model, triple.v)
    x = (1, -2, 3, 0, 1, 0, 2)
    y = (0, 1, 1, 1, 0, -1, 0)
    for m in (2, 3, 5):
        assert vp.inner(istar_similitude(x, m), istar_similitude(y, m)) \
            == m * m * vp.inner(x, y)


def test_isharp_preserves_character_triple():
    from mukailat.isometries import minus_reflection
    triple = MkTriple(1, 3, 2)
    model = triple.model()
    vp = v_perp(model, triple.v)
    datum = vperp_datum(vp)
    data = DiscriminantData(vp)
    r = minus_reflection(vp, (1, 1, 0, 0, 0, 0, 0))
    r2 = isharp(r, vp)
    assert det_char(r) == det_char(r2)
    assert ori_char(r, datum) == ori_char(r2, datum)
    assert disc_map(r, data, data).sign() == disc_map(r2, data, data).sign()
