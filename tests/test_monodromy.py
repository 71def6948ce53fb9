"""Words of elementary equivalences, certificates, and similitude transport."""

import hashlib
import json
import random
from functools import reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from mukailat import mukai
from mukailat.mukai import (MkTriple, MUKAI, U3, v_perp, fm_action,
                           epsilon_ori, h2_lift)
from mukailat import monodromy
from mukailat.monodromy import (Token, GroupoidWord, WordError, surface_lift,
                                tensor_l, poincare, poincare_dual, elliptic,
                                inverse, eval_phi_tilde,
                                restrict, psi_restrict, certify, propdual_word,
                                minus_dual_restricted)
from mukailat.isometries import (Isometry, IsometryError,
                                 identity_isometry, reflection)
from mukailat import intmat, lattices
from mukailat.intmat import identity, mat_mul, mat_vec, transpose
from mukailat.lattices import (IntegerLattice, LatticeError, hyperbolic_sum,
                               direct_sum, rank_one)
from mukailat.cli import main
from mukailat.discriminant import DiscriminantData, characters
from mukailat.verify import _random_surface_lift


def _triple():
    return MkTriple(2, 3, 2)


def test_token_json_roundtrip():
    toks = (tensor_l((1, 2, 0, 0, 0, 0)), poincare(), poincare_dual(),
            elliptic(), Token("congruence"), inverse(poincare()),
            surface_lift(tuple(tuple(int(i == j) for j in range(6))
                               for i in range(6))))
    word = GroupoidWord(_triple(), toks)
    back = GroupoidWord.from_json(word.to_json())
    assert back == word


def _unit_rows():
    return [[int(i == j) for j in range(6)] for i in range(6)]


def test_tokens_built_from_lists_keep_tuples():
    """A token keeps the tuples its checks read, and a word the tuple of its
    tokens, so list-built tokens and words hash and compare equal to their
    tuple-built twins: a list-built tensor class made hashing raise
    TypeError."""
    c = [1, 2, 0, 0, 0, 0]
    pairs = ((Token("tensor", (c,)), tensor_l(tuple(c))),
             (tensor_l(c), tensor_l(tuple(c))),
             (Token("surface_lift", [_unit_rows()]),
              surface_lift(identity(6))),
             (inverse(Token("tensor", [c])), inverse(tensor_l(tuple(c)))))
    for listed, tupled in pairs:
        assert listed == tupled and hash(listed) == hash(tupled)
    listed = GroupoidWord(_triple(), [p[0] for p in pairs])
    tupled = GroupoidWord(_triple(), tuple(p[1] for p in pairs))
    assert listed == tupled and hash(listed) == hash(tupled)


@pytest.mark.parametrize("entry", [1.0, True])
def test_surface_lift_refuses_non_integer_entries(entry):
    """intmat.int_mat reads a surface lift when its token is built: a 1.0
    entry was accepted, written to JSON as 1.0 and refused on reading."""
    rows = _unit_rows()
    rows[0][0] = entry
    with pytest.raises(TypeError):
        surface_lift(rows)
    with pytest.raises(TypeError):
        Token("surface_lift", (rows,))


def test_list_built_lifts_round_trip_through_json():
    rows = _unit_rows()
    rows[0], rows[1] = rows[1], rows[0]
    word = GroupoidWord(_triple(), [surface_lift(_unit_rows()),
                                    Token("surface_lift", [rows])])
    doc = json.loads(json.dumps(word.to_json()))
    assert GroupoidWord.from_json(doc) == word
    assert json.dumps(GroupoidWord.from_json(doc).to_json()) == \
        json.dumps(word.to_json())


def test_congruence_token_is_identity():
    word = GroupoidWord(_triple(), (Token("congruence"),))
    assert eval_phi_tilde(word).is_identity()


def test_inverse_token_cancels():
    t = tensor_l((1, 2, 0, 0, 0, 0))
    word = GroupoidWord(_triple(), (t, inverse(t)))
    assert eval_phi_tilde(word).is_identity()


@pytest.mark.parametrize("kind", monodromy.NULLARY_KINDS)
def test_nullary_inverse_is_the_gram_adjoint(kind):
    """The kept inverse of a token with no parameters is G * M^T * G for its
    matrix M, the same object on every read, and the inverse of M."""
    m = identity(8) if kind == "congruence" else fm_action(kind).matrix
    g = mukai.MUKAI_GRAM
    want = mat_mul(mat_mul(g, transpose(m)), g)
    got = monodromy._token_matrix(inverse(Token(kind)))
    assert got == want
    assert mat_mul(got, m) == identity(8)
    assert monodromy._token_matrix(inverse(Token(kind))) is got


@pytest.mark.parametrize("make", [
    lambda: Token("tensor"), lambda: Token("surface_lift"),
    lambda: Token("inverse"), lambda: Token("inverse", (5,)),
    lambda: Token("congruence", (7,)), lambda: Token("poincare", ((),)),
    lambda: Token("tensor", ((1, 2, 0, 0, 0, 0), (0,) * 6)),
])
def test_token_checks_its_parameters(make):
    """A nullary kind takes no parameter and every other kind exactly one,
    and an inverse wraps a token: the first three ended in IndexError, the
    fourth in AttributeError at certify, and the fifth was accepted with its
    parameter ignored."""
    with pytest.raises(WordError):
        make()


def test_eval_composes_in_path_order():
    t = tensor_l((0, 1, 0, 0, 0, 0))
    word = GroupoidWord(_triple(), (t, poincare()))
    got = eval_phi_tilde(word)
    want = fm_action("poincare").compose(
        fm_action("tensor", (0, 1, 0, 0, 0, 0)))
    assert got.matrix == want.matrix


def test_surface_lift_validation(tmp_path, capsys):
    """A non-isometric, a determinant -1 and an orientation-reversing lift
    each fail with their own exception and message, alone or inverted, and
    `mukailat word` exits 1 on them."""
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    swap = [rows[1], rows[0]] + rows[2:]
    minus_id = [[-x for x in r] for r in rows]
    stretch = [[2, 0, 0, 0, 0, 0]] + rows[1:]
    cases = ((stretch, IsometryError, "matrix does not intertwine the forms"),
             (swap, WordError, "surface lift must have determinant 1"),
             (minus_id, WordError,
              "surface lift must be orientation preserving"))
    path = tmp_path / "word.json"
    for matrix, exc, message in cases:
        lift = surface_lift(matrix)
        for tok in (lift, inverse(lift)):
            with pytest.raises(exc, match="^%s$" % message):
                eval_phi_tilde(GroupoidWord(_triple(), (poincare(), tok)))
        path.write_text(json.dumps(GroupoidWord(_triple(), (lift,)).to_json()))
        assert main(["word", str(path)]) == 1
        assert capsys.readouterr().err == "error: %s\n" % message


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


def test_restrict_refuses_an_isometry_of_another_lattice():
    """g must be an isometry of the lattice that the sublattice is embedded
    in, compared by gram: U^2 + <2> + <-2> has the rank of U^3, and the
    rank-8 lattice has another rank."""
    b = direct_sum(hyperbolic_sum(2), rank_one(2), rank_one(-2))
    line = b.saturate([(1, 1, 0, 0, 0, 0)])
    message = "^Isometry\\(%s\\) is not an isometry of the lattice that"
    with pytest.raises(WordError, match=message % "6x6"):
        restrict(identity_isometry(U3), line)
    u3_line = U3.saturate([(1, 1, 0, 0, 0, 0)])
    with pytest.raises(WordError, match=message % "8x8"):
        restrict(identity_isometry(MUKAI), u3_line)
    # U^3 in the basis e, e2, e3, f, f2, f3: an isometry onto it from U^3
    # has the right source and the wrong target
    rows = identity(6)
    perm = rows[0::2] + rows[1::2]
    u3_split = IntegerLattice(mat_mul(mat_mul(perm, U3.gram),
                                      transpose(perm)))
    with pytest.raises(WordError, match=message % "6x6"):
        restrict(Isometry(U3, u3_split, perm), u3_line)
    # the same gram serves, whichever object carries it
    assert restrict(identity_isometry(hyperbolic_sum(3)),
                    u3_line).is_identity()


def test_psi_restrict_requires_fixed_vector():
    triple = _triple()
    phi = fm_action("tensor", (0, 1, 0, 0, 0, 0))
    with pytest.raises(WordError):
        psi_restrict(phi, triple)


def test_certify_functorial_on_concatenation():
    triple = _triple()
    h = (1, 2, 0, 0, 0, 0)
    w1 = GroupoidWord(triple, (tensor_l(h), poincare_dual(),
                               inverse(poincare()), tensor_l(h)))
    w2 = GroupoidWord(triple, w1.tokens + w1.tokens)
    c1 = certify(w1)
    c2 = certify(w2)
    # sign-twisted restriction is multiplicative: the orientation signs of
    # the two halves multiply along with the restrictions
    r1 = c1.restricted
    assert c2.restricted.matrix == r1.compose(r1).matrix
    assert c2.ori == 0 and c1.ori == 1


def test_propdual_certificate_characters():
    for (m, k) in ((2, 3), (3, 4)):
        triple = MkTriple(m, k, 2)
        target = minus_dual_restricted(k)
        for p in (1, 2):
            cert = propdual_word(triple, p)
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
    h = minus_reflection(U3, (1, 1, 0, 0, 0, 0)).compose(
        minus_reflection(U3, (0, 0, 1, 1, 0, 0)))
    assert h.det() == 1
    cert = certify(GroupoidWord(triple, (surface_lift(h.matrix),)))
    assert cert.ori == 0
    assert cert.in_N


def _propdual_block(p, t):
    """Four tokens whose composite fixes v and restricts to minus the dual
    action on the complement."""
    h = (p, p * t, 0, 0, 0, 0)
    return (tensor_l(h), poincare_dual(), inverse(poincare()), tensor_l(h))


def _seeded_words(seed, count):
    """Words of 1..4 segments on triples with m in 1..3, k in 3..8 and t = 2;
    each segment is a surface lift or a propdual block with p in 1..3, so
    every word fixes the Mukai vector."""
    rng = random.Random(seed)
    words = []
    for _ in range(count):
        triple = MkTriple(rng.randint(1, 3), rng.randint(3, 8), 2)
        tokens = ()
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                tokens += (surface_lift(_random_surface_lift(rng)),)
            else:
                tokens += _propdual_block(rng.randint(1, 3), 2)
        words.append(GroupoidWord(triple, tokens))
    return words


# SHA-256 of the certificate JSON of 200 seeded words, taken before each
# triple's model, complement and discriminant group were built once
CERTIFICATES_DIGEST = \
    "681064fffa0c30746ea14356c873395068463c52d8d2fb7a9e3a488499dd2710"


def test_certificates_are_pinned():
    digest = hashlib.sha256()
    for word in _seeded_words(7, 200):
        doc = certify(word).to_json()
        digest.update(json.dumps(doc, sort_keys=True).encode())
    assert digest.hexdigest() == CERTIFICATES_DIGEST


_LIFTS = tuple(_random_surface_lift(random.Random(seed)) for seed in range(8))
_TRIPLES = st.builds(MkTriple, st.integers(1, 3), st.integers(3, 8),
                     st.sampled_from((2, 3)))


def _words(triple):
    """Words fixing the Mukai vector of `triple`: 0..3 segments, each a
    surface lift from a fixed pool or a propdual block."""
    segment = st.one_of(
        st.sampled_from(_LIFTS).map(lambda m: (surface_lift(m),)),
        st.integers(1, 3).map(lambda p: _propdual_block(p, triple.t)))
    return st.lists(segment, max_size=3).map(lambda segs: sum(segs, ()))


@settings(max_examples=25, deadline=None)
@given(triples=st.lists(_TRIPLES, min_size=2, max_size=2, unique=True),
       data=st.data())
def test_certify_is_functorial(triples, data):
    """The sign-twisted restriction of w1 + w2 is that of w2 after that of
    w1 and ori adds mod 2.  Certificates of two triples are interleaved, so
    complement data shared across triples shows as a wrong lattice or wrong
    characters."""
    words = [(t, data.draw(_words(t)), data.draw(_words(t))) for t in triples]
    certs = {}
    for step in range(3):
        for triple, w1, w2 in words:
            tokens = (w1, w2, w1 + w2)[step]
            certs[triple, step] = certify(GroupoidWord(triple, tokens))
    for triple, _, _ in words:
        c1, c2, c12 = (certs[triple, step] for step in range(3))
        assert c12.restricted.matrix == \
            c2.restricted.compose(c1.restricted).matrix
        assert c12.ori == (c1.ori + c2.ori) % 2
        vp = v_perp(triple.v)
        for cert in (c1, c2, c12):
            assert cert.restricted.source.gram == vp.gram
            assert cert.characters == characters(
                cert.restricted, DiscriminantData(vp))


def test_complement_is_built_once_per_triple(monkeypatch):
    calls = []

    def counting_v_perp(v):
        calls.append(v)
        return v_perp(v)

    monkeypatch.setattr(monodromy, "v_perp", counting_v_perp)
    monodromy.complement.cache_clear()
    triple = MkTriple(4, 13, 5)
    for p in (1, 2):
        assert certify(GroupoidWord(triple, _propdual_block(p, 5))).in_N
    assert len(calls) == 1


def test_complement_is_built_once_per_k(monkeypatch):
    """The complement of v = m*w is that of w: certifying words on every
    triple (m, k, t) with m in 1..3 and t in {2, 3, 5} builds one v_perp
    and one cache entry per k."""
    calls = []

    def counting_v_perp(v):
        calls.append(v)
        return v_perp(v)

    monkeypatch.setattr(monodromy, "v_perp", counting_v_perp)
    monodromy.complement.cache_clear()
    ks = (3, 4, 7)
    for k in ks:
        for m in (1, 2, 3):
            for t in (2, 3, 5):
                cert = certify(GroupoidWord(MkTriple(m, k, t),
                                            _propdual_block(1, t)))
                assert cert.in_N
                assert cert.restricted.source is monodromy.complement(k)[0]
    assert [v.vec8() for v in calls] == [(1, 0, 0, 0, 0, 0, 0, -k)
                                         for k in ks]
    assert monodromy.complement.cache_info().currsize == len(ks)


def test_fm_action_cache_does_not_grow_with_t():
    """The same words certified under t = 2, 3 and 5 leave the FM action
    cache as they leave it under t = 2 alone."""
    words = [_propdual_block(p, 2) for p in (1, 2, 3)] + \
        [(surface_lift(m), elliptic(), inverse(elliptic())) for m in _LIFTS]
    mukai._fm_action.cache_clear()
    for tokens in words:
        certify(GroupoidWord(MkTriple(2, 3, 2), tokens))
    alone = mukai._fm_action.cache_info()
    for t in (2, 3, 5):
        for tokens in words:
            certify(GroupoidWord(MkTriple(2, 3, t), tokens))
    after = mukai._fm_action.cache_info()
    assert after.currsize == alone.currsize == 6
    assert after.misses == alone.misses


def test_certify_computes_the_orientation_once(monkeypatch):
    calls = []

    def counting_epsilon_ori(phi):
        calls.append(phi)
        return epsilon_ori(phi)

    monkeypatch.setattr(monodromy, "epsilon_ori", counting_epsilon_ori)
    triple = _triple()
    cert = certify(GroupoidWord(triple, _propdual_block(1, triple.t)))
    assert len(calls) == 1
    assert cert.ori == epsilon_ori(cert.composite) == 1
    # psi_restrict hands back the character it twisted by
    assert psi_restrict(cert.composite, triple) == (cert.ori, cert.restricted)


def _restrict_columnwise(g, sub, sign=1):
    """Reference: the image of each basis vector of `sub`, read back in the
    basis of `sub` one column at a time (LatticeError if one leaves it)."""
    cols = []
    for j in range(sub.rank):
        e = tuple(int(i == j) for i in range(sub.rank))
        im = g.apply(sub.to_ambient(e))
        cols.append(sub.from_ambient(tuple(sign * x for x in im)))
    return transpose(cols)


_BASE_TOKENS = st.one_of(
    st.sampled_from(_LIFTS).map(surface_lift),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(
        lambda ab: tensor_l(ab + (0,) * 4)),
    st.sampled_from((poincare(), poincare_dual(), elliptic(),
                     Token("congruence"))))
_TOKENS = st.one_of(_BASE_TOKENS, _BASE_TOKENS.map(inverse))


def _stepwise_token(token):
    if token.kind == "surface_lift":
        return Isometry(MUKAI, MUKAI, h2_lift(token.params[0]))
    if token.kind == "congruence":
        return identity_isometry(MUKAI)
    if token.kind == "inverse":
        return _stepwise_token(token.params[0]).inverse()
    return fm_action(token.kind, *token.params)


def _stepwise_eval(word):
    """Reference: compose the checked isometry of each token onto the
    identity, one token at a time."""
    comp = identity_isometry(MUKAI)
    for tok in word.tokens:
        comp = _stepwise_token(tok).compose(comp)
    return comp


@settings(max_examples=60, deadline=None)
@given(triple=_TRIPLES, tokens=st.lists(_TOKENS, max_size=6))
def test_eval_matches_stepwise_composition(triple, tokens):
    word = GroupoidWord(triple, tuple(tokens))
    got = eval_phi_tilde(word)
    assert got == _stepwise_eval(word)
    assert got.source is got.target is MUKAI


def _reversed_reduce(word):
    """Reference: the composite as one reduce over the token matrices in
    reverse path order, the last token's matrix on the far left."""
    mats = [monodromy._token_matrix(tok) for tok in word.tokens]
    return reduce(mat_mul, reversed(mats)) if mats else identity(8)


@settings(max_examples=60, deadline=None)
@given(triple=_TRIPLES, tokens=st.lists(_TOKENS, max_size=6))
def test_path_order_product_matches_the_reversed_reduce(triple, tokens):
    """eval_phi_tilde accumulates in path order, each token matrix on the
    left of the running product: the same product by associativity."""
    word = GroupoidWord(triple, tuple(tokens))
    assert eval_phi_tilde(word).matrix == _reversed_reduce(word)


def test_inverse_tokens_need_no_unimodular_inverse(monkeypatch):
    """An inverse token's matrix is G * M^T * G: certifying a word with one
    calls no HNF inverse."""
    import sys
    from mukailat import intmat
    inv, calls = intmat.inv_unimodular, []

    def counting_inv(a):
        calls.append(a)
        return inv(a)

    for name, mod in list(sys.modules.items()):
        if name.startswith("mukailat") and \
                getattr(mod, "inv_unimodular", None) is inv:
            monkeypatch.setattr(mod, "inv_unimodular", counting_inv)
    cert = propdual_word(MkTriple(2, 3, 2))
    assert cert.characters["det"] == -1
    assert calls == []


def test_eval_checks_the_composite_once(monkeypatch):
    h = (1, 2, 0, 0, 0, 0)
    word = GroupoidWord(_triple(), (
        tensor_l(h), poincare_dual(), inverse(poincare()), Token("congruence"),
        elliptic(), inverse(tensor_l(h)), inverse(Token("congruence"))))
    want = _stepwise_eval(word)  # builds the shared FM actions
    made = []
    init = Isometry.__init__

    def counting_init(self, *args):
        made.append(args)
        init(self, *args)

    monkeypatch.setattr(Isometry, "__init__", counting_init)
    assert eval_phi_tilde(word) == want
    assert len(made) == 1


def test_a_surface_lift_is_checked_once(monkeypatch):
    """Certifying a one-token surface-lift word builds three isometries: the
    lift on U^3, the composite and the restriction.  The block lift to the
    rank-8 lattice is not checked again."""
    triple = MkTriple(1, 3, 2)
    h = _random_surface_lift(random.Random(5))
    want = certify(GroupoidWord(triple, (surface_lift(h),)))  # fills caches
    made = []
    init = Isometry.__init__

    def counting_init(self, *args):
        made.append(args[0].rank)
        init(self, *args)

    monkeypatch.setattr(Isometry, "__init__", counting_init)
    assert certify(GroupoidWord(triple, (surface_lift(h),))) == want
    assert sorted(made) == [6, 7, 8]


def _sublattices(triple):
    """The complement of the Mukai vector and the two index-2 sublattices
    of the rank-8 lattice with 2r in place of r and 2e in place of e."""
    rows = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    return (monodromy.complement(triple.k)[0],
            MUKAI.span([(2,) + (0,) * 7] + rows[1:]),
            MUKAI.span(rows[:1] + [(0, 2) + (0,) * 6] + rows[2:]))


@settings(max_examples=60, deadline=None)
@given(triple=_TRIPLES, data=st.data(), sign=st.sampled_from((1, -1)))
def test_restrict_matches_columnwise_reference(triple, data, sign):
    """Words fixing the Mukai vector restrict to its complement; arbitrary
    words may leave a sublattice, and then both raise."""
    any_word = st.lists(_TOKENS, max_size=4).map(tuple)
    tokens = data.draw(st.one_of(_words(triple), any_word))
    g = eval_phi_tilde(GroupoidWord(triple, tokens))
    for sub in _sublattices(triple):
        try:
            want = _restrict_columnwise(g, sub, sign)
        except LatticeError:
            with pytest.raises(WordError):
                restrict(g, sub, sign)
        else:
            got = restrict(g, sub, sign)
            assert got.matrix == want
            assert got.source is got.target is sub


def _restrict_by_projection(g, sub, sign=1):
    """The former rule: the floor of the projection of the images
    sign * g * B^T, which B^T maps back to the images exactly when they lie
    in `sub` (WordError otherwise)."""
    num, den = sub.projection
    images = transpose(mat_mul(sub.embedding.basis, transpose(g.matrix)))
    images = tuple(tuple(sign * x for x in row) for row in images)
    r = tuple(tuple(x // den for x in row) for row in mat_mul(num, images))
    if mat_mul(transpose(sub.embedding.basis), r) != images:
        raise WordError("restriction left the sublattice")
    return Isometry(sub, sub, r)


def _from_ambient_by_projection(sub, w):
    """The former rule: the floor of the projection of w, which to_ambient
    maps back to w exactly when w lies in `sub` (LatticeError otherwise)."""
    num, den = sub.projection
    c = tuple(x // den for x in mat_vec(num, w))
    if sub.to_ambient(c) != w:
        raise LatticeError("vector is not in the sublattice")
    return c


def _pm2_vector(ambient, coords, sq):
    """A vector of square sq = +-2 of U^3 or of the rank-8 lattice: the
    first hyperbolic block (1, b), or the degree-0 and degree-4 parts
    (1, a), is solved for from the other coordinates."""
    if ambient is U3:
        rest = tuple(coords[:4])
        return (1, sq // 2 - U3.norm((0, 0) + rest) // 2) + rest
    xi = tuple(coords[:6])
    return (1,) + xi + ((U3.norm(xi) - sq) // 2,)


def _random_sublattice(ambient, data):
    """(sub, its saturation, generators of square +-2 in the saturation):
    the saturation of one to rank - 1 generators, some of square +-2, with
    one basis row then scaled by an index in 1..6, through span for an
    index above 1."""
    n = ambient.rank
    coord = st.integers(-3, 3)
    count = data.draw(st.integers(1, n - 1))
    gens, pm2 = [], []
    for _ in range(count):
        v = data.draw(st.lists(coord, min_size=n, max_size=n))
        if data.draw(st.booleans()):
            v = _pm2_vector(ambient, v, data.draw(st.sampled_from((2, -2))))
            pm2.append(tuple(v))
        gens.append(tuple(v))
    try:
        sat = ambient.saturate(gens)
    except LatticeError:
        assume(False)  # a degenerate span
    index = data.draw(st.integers(1, 6))
    if index == 1:
        return sat, sat, pm2
    rows = list(sat.embedding.basis)
    i = data.draw(st.integers(0, len(rows) - 1))
    rows[i] = tuple(index * x for x in rows[i])
    return ambient.span(rows), sat, pm2


def test_restrict_and_from_ambient_match_the_projection_rule():
    """The coordinate rule of `basis_smith` gives the former projection
    rule's answers, and raises on the same inputs, for restrictions of
    products of 1-4 reflections (in square +-2 vectors of the saturation,
    which may preserve the sublattice, or of the ambient lattice) and for
    ambient vectors in the sublattice, in its saturation or anywhere."""
    outcomes = {"restrict": set(), "from_ambient": set()}

    @settings(max_examples=150, deadline=None)
    @given(ambient=st.sampled_from((U3, MUKAI)), data=st.data(),
           sign=st.sampled_from((1, -1)))
    def check(ambient, data, sign):
        n = ambient.rank
        sub, sat, pm2 = _random_sublattice(ambient, data)
        coord = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        g = identity_isometry(ambient)
        for _ in range(data.draw(st.integers(1, 4))):
            if pm2 and data.draw(st.booleans()):
                u = data.draw(st.sampled_from(pm2))
            else:
                u = _pm2_vector(ambient, data.draw(coord),
                                data.draw(st.sampled_from((2, -2))))
            g = reflection(ambient, u).compose(g)
        try:
            want = _restrict_by_projection(g, sub, sign)
        except WordError:
            with pytest.raises(WordError):
                restrict(g, sub, sign)
            outcomes["restrict"].add("raised")
        else:
            assert restrict(g, sub, sign).matrix == want.matrix
            outcomes["restrict"].add("restricted")
        c = data.draw(st.lists(st.integers(-4, 4), min_size=sub.rank,
                               max_size=sub.rank))
        for w in (sub.to_ambient(c), sat.to_ambient(c),
                  tuple(data.draw(coord))):
            try:
                want = _from_ambient_by_projection(sub, w)
            except LatticeError:
                with pytest.raises(LatticeError):
                    sub.from_ambient(w)
                outcomes["from_ambient"].add("raised")
            else:
                assert sub.from_ambient(w) == want
                outcomes["from_ambient"].add("read")

    check()
    assert outcomes == {"restrict": {"raised", "restricted"},
                        "from_ambient": {"raised", "read"}}


def test_restrict_reads_one_coordinate_rule(monkeypatch):
    """After one certificate at k, a second restriction to the complement
    runs no snf and no hnf_row, and no certificate computes the complement's
    projection; two primitivity tests of one sublattice run one snf."""
    k = 9
    vp = monodromy.complement(k)[0]
    vp.__dict__.pop("projection", None)
    cert = certify(GroupoidWord(MkTriple(1, k), _propdual_block(1, 2)))
    span = U3.span(((2, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)))
    calls = {"snf": 0, "hnf_row": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    for name in calls:
        fn = getattr(intmat, name)
        for module in (intmat, lattices, monodromy, mukai):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting(name, fn))
    assert restrict(cert.composite, vp, -1 if cert.ori else 1) \
        == cert.restricted
    assert calls == {"snf": 0, "hnf_row": 0}
    assert "projection" not in vp.__dict__
    assert not U3.is_primitive(span) and not U3.is_primitive(span)
    assert calls == {"snf": 1, "hnf_row": 0}
