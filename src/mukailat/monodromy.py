"""Words of elementary equivalences and their lattice-level certification.

A word is an ordered list of tokens, each with a concrete image on the
rank-8 lattice `MUKAI`.  Evaluation composes the images in path order, the
result is restricted to the orthogonal complement of the distinguished Mukai
vector with a sign twist by the orientation character, and the membership of
the restriction in the index-2 monodromy subgroup is certified from its
determinant, orientation, and discriminant characters.  The complement of
v = m*w is that of w = (1, 0, -k), so it and its discriminant group are
built once per k and serve every m and t.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from .intmat import (mat_mul, transpose, identity, int_mat, int_matrix,
                     int_vector, json_object, ints)
from .isometries import Isometry, ori_char
from .lattices import LatticeError
from .discriminant import DiscriminantData, characters, in_N
from .mukai import (MkTriple, MukaiVector, MUKAI, MUKAI_GRAM, U3, fm_action,
                    v_perp, epsilon_ori, h2_lift)


class WordError(ValueError):
    pass


# values of k whose complement data is kept for reuse
COMPLEMENT_CACHE_SIZE = 64
NULLARY_KINDS = ("poincare", "poincare_dual", "elliptic", "congruence")


@dataclass(frozen=True)
class Token:
    """One elementary equivalence; WordError for an unknown kind, a kind
    without one parameter (none if nullary), an inverse of a non-token or a
    surface lift that is not 6 x 6.  It keeps the tuples its checks read:
    intmat.ints of a tensor class, intmat.int_mat of a surface lift."""
    kind: str
    params: tuple = ()

    def __post_init__(self):
        unary = self.kind not in NULLARY_KINDS
        if unary and self.kind not in ("surface_lift", "tensor", "inverse"):
            raise WordError("unknown token kind: %r" % (self.kind,))
        if len(self.params) != unary:
            raise WordError("%s token takes %d parameters, got %r"
                            % (self.kind, unary, self.params))
        params = tuple(self.params)
        if self.kind == "surface_lift":
            m = params[0]
            if len(m) != 6 or any(len(row) != 6 for row in m):
                raise WordError("surface lift matrix must be 6 x 6")
            params = (int_mat(m),)
        elif self.kind == "tensor":
            params = (ints(params[0], "tensor class", U3.rank),)
        elif self.kind == "inverse" and not isinstance(params[0], Token):
            raise WordError("an inverse wraps a token")
        object.__setattr__(self, "params", params)

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
    return Token("surface_lift", (matrix,))


def tensor_l(c):
    return Token("tensor", (c,))


def poincare():
    return Token("poincare")


def poincare_dual():
    return Token("poincare_dual")


def elliptic():
    return Token("elliptic")


def inverse(token):
    return Token("inverse", (token,))


# (column, sign) of the one nonzero entry in each row of MUKAI_GRAM
_GRAM_ENTRIES = tuple(next((j, x) for j, x in enumerate(row) if x)
                      for row in MUKAI_GRAM)


def _token_matrix(token):
    """Integer matrix of a token's action on the rank-8 lattice.  FM actions
    are the shared checked isometries and a surface lift is checked once, as
    an isometry of U^3: its block lift is then an isometry of the rank-8
    lattice by construction.  Every token matrix M is an
    isometry of G = MUKAI_GRAM, and G is its own inverse, so an inverse
    token is G * M^T * G, built once per kind for a token that takes no
    parameters."""
    if token.kind == "surface_lift":
        h = Isometry(U3, U3, token.params[0])
        if h.det() != 1:
            raise WordError("surface lift must have determinant 1")
        if ori_char(h) != 0:
            raise WordError("surface lift must be orientation preserving")
        return h2_lift(h.matrix)
    if token.kind == "congruence":
        return identity(8)
    if token.kind == "inverse":
        m = _token_matrix(token.params[0])
        if token.params[0].kind in NULLARY_KINDS:
            return _nullary_inverse(m)
        return _gram_adjoint(m)
    return fm_action(token.kind, *token.params).matrix


def _gram_adjoint(m):
    """G * M^T * G for G = MUKAI_GRAM; G is a signed permutation, so its
    entry (i, j) is G[i][p(i)] * G[j][p(j)] * M[p(j)][p(i)]."""
    return tuple(tuple(si * sj * m[pj][pi] for pj, sj in _GRAM_ENTRIES)
                 for pi, si in _GRAM_ENTRIES)


# the inverse of a token that takes no parameters, kept per matrix, so once
# per kind: the token's own matrix is still read from the FM action cache,
# which holds no inverse
_nullary_inverse = lru_cache(maxsize=len(NULLARY_KINDS))(_gram_adjoint)


@dataclass(frozen=True)
class GroupoidWord:
    """TypeError for a triple that is not an MkTriple, WordError for a token
    that is not a Token."""
    triple: MkTriple
    tokens: tuple

    def __post_init__(self):
        if not isinstance(self.triple, MkTriple):
            raise TypeError("a word's triple must be an MkTriple")
        tokens = tuple(self.tokens)
        if not all(isinstance(t, Token) for t in tokens):
            raise WordError("a word's tokens must be Tokens")
        object.__setattr__(self, "tokens", tokens)

    def to_json(self):
        return {"triple": self.triple.to_json(),
                "tokens": [t.to_json() for t in self.tokens]}

    @classmethod
    def from_json(cls, d):
        """Word from a JSON document; TypeError for a document that is not
        an object."""
        return cls(MkTriple.from_json(json_object(d, "word")["triple"]),
                   tuple(Token.from_json(t) for t in d["tokens"]))


def eval_phi_tilde(word):
    """Composite rank-8 isometry of a word (tokens applied in path order):
    the product of the token matrices, accumulated in path order with each
    token matrix on the left of the running product, and checked once."""
    mats = [_token_matrix(tok) for tok in word.tokens]
    m = mats[0] if mats else identity(8)
    for t in mats[1:]:
        m = mat_mul(t, m)
    return Isometry(MUKAI, MUKAI, m)


@lru_cache(maxsize=COMPLEMENT_CACHE_SIZE)
def complement(k):
    """(v_perp, its discriminant group) of w = (1, 0, -k), built once per k
    and shared by the certificates of every triple (m, k, t): the
    complement of m*w is that of w, in the same canonical basis."""
    vp = v_perp(MukaiVector(1, (0,) * 6, -k))
    return vp, DiscriminantData(vp)


def restrict(g, sub, sign=1):
    """sign * g restricted to a sublattice `sub` of its lattice, in the
    basis of `sub`; WordError unless g is an isometry of the lattice that
    `sub` is embedded in (compared by gram) and maps `sub` into itself.
    The images sign * g * B^T are formed as (B g^T)^T, with the sparse
    basis on the left, and read back by the coordinate rule of `sub`."""
    emb = sub.embedding
    if emb is None or g.source != emb.ambient or g.target != emb.ambient:
        raise WordError("%r is not an isometry of the lattice that the "
                        "sublattice is embedded in" % (g,))
    images = transpose(mat_mul(emb.basis, transpose(g.matrix)))
    if sign != 1:
        images = tuple(tuple(sign * x for x in row) for row in images)
    try:
        r = sub.coordinates(images)
    except LatticeError:
        raise WordError("restriction left the sublattice") from None
    return Isometry(sub, sub, r)


def psi_restrict(g, triple):
    """(ori(g), sign-twisted restriction to the complement of the Mukai
    vector v = m(1, 0, -k)): the restriction is (-1)^ori(g) times g on the
    canonical complement basis."""
    m, k = triple.m, triple.k
    v8 = (m,) + (0,) * 6 + (-m * k,)
    if g.apply(v8) != v8:
        raise WordError("isometry does not fix the Mukai vector")
    ori = epsilon_ori(g)
    return ori, restrict(g, complement(k)[0], -1 if ori else 1)


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


def certify(word):
    """Evaluate a word and certify membership of its sign-twisted restriction
    in the index-2 monodromy subgroup."""
    comp = eval_phi_tilde(word)
    ori, restr = psi_restrict(comp, word.triple)
    chars = characters(restr, complement(word.triple.k)[1])
    return MonodromyCertificate(word, comp, ori, restr, chars, in_N(chars))


def propdual_word(triple, p=1):
    """The four-token word whose sign-twisted restriction is the designated
    determinant -1 generator (minus the dual action on the complement)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    h = (p, p * triple.t, 0, 0, 0, 0)  # p times the polarization class
    word = GroupoidWord(triple, (tensor_l(h), poincare_dual(),
                                 inverse(poincare()), tensor_l(h)))
    return certify(word)


# minus the dual action on the rank-8 lattice: -1 in degrees 0 and 4, the
# identity in degree 2
MINUS_DUAL = tuple(tuple(-x if i in (0, 7) else x for x in row)
                   for i, row in enumerate(identity(8)))


def minus_dual_restricted(k):
    """Exact matrix of minus-the-dual-action on the canonical complement
    basis of v = m(1, 0, -k), for any m (the reflection composite in the
    square -2 vectors (1,0,1) and (1,0,-1), restricted)."""
    return restrict(Isometry(MUKAI, MUKAI, MINUS_DUAL), complement(k)[0])
