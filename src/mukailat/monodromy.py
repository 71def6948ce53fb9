"""Words of elementary equivalences and their lattice-level certification.

A word is an ordered list of tokens, each with a concrete image on the
rank-8 lattice.  Evaluation composes the images in path order, the result is
restricted to the orthogonal complement of the distinguished Mukai vector
with a sign twist by the orientation character, and the membership of the
restriction in the index-2 monodromy subgroup is certified from its
determinant, orientation, and discriminant characters.
"""

from dataclasses import dataclass, field

from .intmat import mat, transpose, int_matrix, int_vector, json_object
from .lattices import LatticeError
from .isometries import (Isometry, IsometryError, OrientationDatum,
                         det_char, ori_char, identity_isometry)
from .discriminant import disc_map, in_N as disc_in_N, DiscriminantData
from .mukai import MkTriple, fm_action, v_perp, epsilon_ori, h2_lift


class WordError(ValueError):
    pass


@dataclass(frozen=True)
class Token:
    kind: str
    params: tuple = ()

    def to_json(self):
        if self.kind == "surface_lift":
            return {"kind": self.kind, "params": {"matrix": [list(r) for r in self.params[0]]}}
        if self.kind == "tensor":
            return {"kind": self.kind, "params": {"c": list(self.params[0])}}
        if self.kind == "inverse":
            return {"kind": self.kind, "params": {"token": self.params[0].to_json()}}
        return {"kind": self.kind, "params": {}}

    @classmethod
    def from_json(cls, d):
        """Token from a JSON document; TypeError for a document that is not
        an object or for non-integer matrix or class entries."""
        kind = json_object(d, "token")["kind"]
        p = json_object(d.get("params") or {}, "token params")
        if kind == "surface_lift":
            return cls(kind, (int_matrix(p["matrix"]),))
        if kind == "tensor":
            return cls(kind, (int_vector(p["c"]),))
        if kind == "inverse":
            return cls(kind, (cls.from_json(p["token"]),))
        return cls(kind)


def surface_lift(matrix):
    return Token("surface_lift", (mat(matrix),))


def tensor_l(c):
    return Token("tensor", (tuple(c),))


def poincare():
    return Token("poincare")


def poincare_dual():
    return Token("poincare_dual")


def elliptic():
    return Token("elliptic")


def congruence_id():
    return Token("congruence")


def inverse(token):
    return Token("inverse", (token,))


def _token_isometry(token, model):
    if token.kind == "surface_lift":
        h = Isometry(model.h2_lattice, model.h2_lattice, token.params[0])
        if h.det() != 1:
            raise WordError("surface lift must have determinant 1")
        if ori_char(h, model.h2_datum) != 0:
            raise WordError("surface lift must be orientation preserving")
        return h2_lift(model, h)
    if token.kind == "tensor":
        return fm_action(model, "tensor", token.params[0])
    if token.kind == "poincare":
        return fm_action(model, "poincare")
    if token.kind == "poincare_dual":
        return fm_action(model, "poincare_dual")
    if token.kind == "elliptic":
        return fm_action(model, "elliptic")
    if token.kind == "congruence":
        return identity_isometry(model.lattice)
    if token.kind == "inverse":
        return _token_isometry(token.params[0], model).inverse()
    raise WordError("unknown token kind: %r" % (token.kind,))


@dataclass(frozen=True)
class GroupoidWord:
    triple: MkTriple
    tokens: tuple

    def to_json(self):
        return {"triple": self.triple.to_json(),
                "tokens": [t.to_json() for t in self.tokens]}

    @classmethod
    def from_json(cls, d):
        return cls(MkTriple.from_json(d["triple"]),
                   tuple(Token.from_json(t) for t in d["tokens"]))


def eval_phi_tilde(word, model=None):
    """Composite rank-8 isometry of a word (tokens applied in path order)."""
    model = model or word.triple.model()
    comp = identity_isometry(model.lattice)
    for tok in word.tokens:
        comp = _token_isometry(tok, model).compose(comp)
    return comp


def vperp_datum(lat):
    """Positive 3-frame {e+f, e2+f2, e3+f3} in canonical complement coords."""
    return OrientationDatum(lat, ((1, 1, 0, 0, 0, 0, 0),
                                  (0, 0, 1, 1, 0, 0, 0),
                                  (0, 0, 0, 0, 1, 1, 0)))


def restrict(g, sub, sign=1):
    """sign * g restricted to a sublattice `sub` of its lattice, in the
    basis of `sub`; WordError if it does not map `sub` into itself."""
    cols = []
    for j in range(sub.rank):
        e = tuple(int(i == j) for i in range(sub.rank))
        im = g.apply(sub.to_ambient(e))
        try:
            cols.append(sub.from_ambient(tuple(sign * x for x in im)))
        except LatticeError:
            raise WordError("restriction left the sublattice") from None
    return Isometry(sub, sub, transpose(cols))


def psi_restrict(g, triple, model=None, vp=None):
    """Sign-twisted restriction to the complement of the Mukai vector:
    (-1)^ori(g) times g restricted to the canonical complement basis."""
    model = model or triple.model()
    v8 = triple.v.vec8()
    if g.apply(v8) != v8:
        raise WordError("isometry does not fix the Mukai vector")
    vp = vp or v_perp(model, triple.v)
    return restrict(g, vp, -1 if epsilon_ori(model, g) else 1)


@dataclass(frozen=True)
class MonodromyCertificate:
    word: GroupoidWord
    composite: Isometry       # on the rank-8 lattice
    ori: int                  # orientation character of the composite
    restricted: Isometry      # sign-twisted restriction to the complement
    characters: dict = field(compare=False)
    in_N: bool = False

    def to_json(self):
        return {"word": self.word.to_json(),
                "ori": self.ori,
                "restricted": [list(r) for r in self.restricted.matrix],
                "characters": dict(self.characters),
                "in_N": self.in_N}


def certify(word, model=None):
    """Evaluate a word and certify membership of its sign-twisted restriction
    in the index-2 monodromy subgroup."""
    model = model or word.triple.model()
    comp = eval_phi_tilde(word, model)
    ori = epsilon_ori(model, comp)
    vp = v_perp(model, word.triple.v)
    restr = psi_restrict(comp, word.triple, model, vp)
    datum = vperp_datum(vp)
    data = DiscriminantData(vp)
    d = disc_map(restr, data, data)
    sign = d.sign()
    chars = {
        "det": -1 if det_char(restr) else 1,
        "ori": ori_char(restr, datum),
        "disc": {1: "+id", -1: "-id", None: "other"}[sign],
    }
    member = disc_in_N(restr, datum, disc=d)
    return MonodromyCertificate(word, comp, ori, restr, chars, member)


def propdual_word(triple, p=1, model=None):
    """The four-token word whose sign-twisted restriction is the designated
    determinant -1 generator (minus the dual action on the complement)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    model = model or triple.model()
    h = (p, p * triple.t, 0, 0, 0, 0)  # p times the polarization class
    word = GroupoidWord(triple, (tensor_l(h), poincare_dual(),
                                 inverse(poincare()), tensor_l(h)))
    return certify(word, model)


def surface_lift_in_N(h_matrix, triple, model=None):
    """Certificate for the extension of a determinant-1 orientation-preserving
    degree-2 isometry by the identity in degrees 0 and 4."""
    model = model or triple.model()
    word = GroupoidWord(triple, (surface_lift(h_matrix),))
    return certify(word, model)


def minus_dual_restricted(triple, model=None):
    """Exact matrix of minus-the-dual-action on the canonical complement
    basis (the reflection composite in the square -2 vectors (1,0,1) and
    (1,0,-1), restricted)."""
    model = model or triple.model()
    minus_dual = Isometry(model.lattice, model.lattice, tuple(
        tuple((-1 if i in (0, 7) else 1) * int(i == j) for j in range(8))
        for i in range(8)))
    return restrict(minus_dual, v_perp(model, triple.v))


def istar_similitude(x, m):
    """Multiplication by m in the shared canonical basis; scales the pairing
    by m^2."""
    return tuple(m * c for c in x)


def isharp(g, target_lattice=None):
    """Transport along the similitude: trivial on matrices in the shared
    canonical basis."""
    tgt = target_lattice or g.source
    if tgt.gram != g.source.gram:
        raise IsometryError("complement lattices do not share a basis")
    return Isometry(tgt, tgt, g.matrix)
