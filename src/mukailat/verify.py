"""Deterministic verification suite.

Each check replays one finite, exact statement from the lattice theory the
package implements.  Checks are pure functions of (config, seed); the report
is byte-stable for a fixed configuration.
"""

import random
from dataclasses import asdict, dataclass
from math import gcd

from . import intmat
from .lattices import LatticeError
from .isometries import (reflection, minus_reflection,
                         signed_reflection_matrix, identity_isometry,
                         minus_identity)
from .discriminant import (glue, extend_isometry, ExtensionObstructed,
                           NotFound, IndexMismatch, characters,
                           index_monodromy, MAX_K)
from .mukai import (MukaiModel, MkTriple, fm_action, hodge_ori, epsilon_ori,
                    DecisionDegenerate, MUKAI, U3)
from .monodromy import (GroupoidWord, propdual_word, minus_dual_restricted,
                        MINUS_DUAL, restrict, tensor_l, poincare,
                        poincare_dual, elliptic, surface_lift, eval_phi_tilde,
                        complement)
from .lemsimo import LemsimoProblem, solve, check_bound, input_span


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 0
    bound: int = 10
    t: int = 2
    index_k_max: int = 200
    char_samples: int = 1000
    word_samples: int = 200
    beta_samples: int = 50
    nikulin_samples: int = 200
    lemsimo_samples: int = 20
    similitude_samples: int = 100

    def __post_init__(self):
        """TypeError unless every field is an int (intmat.ints); ValueError
        for a negative sample count, an index_k_max outside 3..MAX_K, a
        t below 2 (MukaiModel) or a bound that check_bound refuses."""
        MukaiModel(self.t)
        check_bound(self.bound)
        intmat.ints((self.seed,), "seed")
        counts = intmat.ints((self.char_samples, self.word_samples,
                              self.beta_samples, self.nikulin_samples,
                              self.lemsimo_samples, self.similitude_samples),
                             "sample counts")
        if min(counts) < 0:
            raise ValueError("sample counts must be >= 0, got %r" % (counts,))
        k_max = intmat.ints((self.index_k_max,), "index_k_max")[0]
        if not 3 <= k_max <= MAX_K:
            raise ValueError("index_k_max must be in 3..%d, got %d"
                             % (MAX_K, self.index_k_max))

    def to_json(self):
        return asdict(self)


def _rng(cfg, idx):
    return random.Random(cfg.seed * 1009 + idx)


def _sample_factors(rng, s, a_bound, b_bound):
    """(a, b) with a * b == s, a drawn next from rng in [-a_bound, a_bound],
    or None if a is 0, a does not divide s or |b| > b_bound: the last step
    of every sampler below."""
    a = rng.randint(-a_bound, a_bound)
    if a == 0 or s % a:
        return None
    b = s // a
    return None if abs(b) > b_bound else (a, b)


def _sample_pm2_vector(rng, k, coord_bound=20):
    """Random vector of square +-2 in U^3 + <-2k> with bounded coordinates."""
    while True:
        eps = rng.choice((1, -1))
        c = rng.randint(-3, 3)
        a2, b2, a3, b3 = (rng.randint(-3, 3) for _ in range(4))
        ab = _sample_factors(rng, eps + k * c * c - a2 * b2 - a3 * b3,
                             coord_bound, coord_bound)
        if ab:
            return ab + (a2, b2, a3, b3, c)


def check_index_formula(cfg):
    for k in range(3, cfg.index_k_max + 1):
        try:
            index_monodromy(k)
        except IndexMismatch as exc:
            return "fail", {"k": k, "reason": str(exc)}
    return "pass", {"k_range": [3, cfg.index_k_max]}


def _pm2_orbit(lat, data, u):
    """(u.u, div(u), the class of u / div(u) up to sign) for u in the
    complement: div(u) = gcd(G u), and the class is the lesser of c and -c
    reduced, c = data.class_of(u, div(u))."""
    div = gcd(*intmat.mat_vec(lat.gram, u))
    cls = data.class_of(u, div)
    return lat.norm(u), div, min(cls, data.reduce(tuple(-c for c in cls)))


def _pm2_representatives(k):
    """One vector of square s = +-2 per orbit class, in the complement basis
    (e1, f1, e2, f2, e3, f3, delta), delta^2 = -2k: (1, s/2, 0, ...) of
    div 1 and class 0 for each s, and (2, (s + 2k)/4, 0, 0, 0, 0, 1) of
    div 2 and class k when 8 divides s + 2k (s = 2 at k = 3 mod 4, s = -2
    at k = 1 mod 4): u/2 has q = s/4 mod 2, and its class, the one of
    order 2, has q(k delta / 2k) = -k/2 mod 2."""
    reps = [(1, s // 2, 0, 0, 0, 0, 0) for s in (2, -2)]
    return tuple(reps + [(2, (s + 2 * k) // 4, 0, 0, 0, 0, 1)
                         for s in (2, -2) if (s + 2 * k) % 8 == 0])


def check_character_table(cfg):
    """The characters of the minus reflection -(u.u/2) rho_u for u of square
    +-2 in the complement: ori 0, det u.u/2, and -id on the discriminant
    group when u.u == 2, +id when u.u == -2.

    Proved once per orbit class.  For any isometry g,
    g (+-rho_u) g^-1 = +-rho_{g(u)}; det and ori map into {+-1} and O(q_A) is
    abelian for the cyclic A, so all three characters are class functions
    and depend only on the orbit of u.  The complement U^3 + <-2k> contains
    U + U, so by the Eichler criterion (Gritsenko, Hulek and Sankaran,
    J. Algebra 322 (2009), Prop. 3.3) that orbit is decided by u.u, div(u)
    and the class of u / div(u); div(u) divides u.u = +-2, and
    rho_{-u} = rho_u with k = -k mod 2k, so the class is read up to sign
    (`_pm2_orbit`).  The characters are computed on each representative of
    `_pm2_representatives` and on the first sample, which keeps a random
    vector with entries up to 20 in play for every k; every sample must
    fall in a representative's class, else the check fails with reason
    "orbit".  `tested` counts the samples classified."""
    rng = _rng(cfg, 2)
    per_k = max(1, cfg.char_samples // 8)
    tested = 0
    for k in range(3, 11):
        lat, data = complement(k)
        samples = [_sample_pm2_vector(rng, k) for _ in range(per_k)]
        reps = _pm2_representatives(k)
        for u in reps + (samples[0],):
            half = lat.norm(u) // 2
            chars = characters(minus_reflection(lat, u), data)
            for reason, want in (("ori", 0), ("det", half),
                                 ("disc", "-id" if half == 1 else "+id")):
                if chars[reason] != want:
                    return "fail", {"k": k, "u": u, "reason": reason}
        classes = {_pm2_orbit(lat, data, u) for u in reps}
        for u in samples:
            if _pm2_orbit(lat, data, u) not in classes:
                return "fail", {"k": k, "u": u, "reason": "orbit"}
            tested += 1
    return "pass", {"tested": tested}


def check_involution(cfg):
    # the reflections in (1, 0, 1) and (1, 0, -1), of squares -2 and 2
    rs, rs1 = (reflection(MUKAI, (1,) + (0,) * 6 + (s,)) for s in (1, -1))
    comp = rs.compose(rs1)
    if comp.matrix != MINUS_DUAL:
        return "fail", {"reason": "matrix", "got": comp.matrix}
    return "pass", {"identity": "reflection composite is minus the dual"}


def _sample_hodge_pm2_h2(rng):
    """Vector of square +-2 in the degree-2 block orthogonal to the
    symplectic plane (coordinates (x1,x2,x3,-x3,x5,-x5))."""
    while True:
        eps = rng.choice((1, -1))
        x3 = rng.randint(-2, 2)
        x5 = rng.randint(-2, 2)
        x12 = _sample_factors(rng, eps + x3 * x3 + x5 * x5, 5, 20)
        if x12:
            return x12 + (x3, -x3, x5, -x5)


def _random_surface_lift(rng):
    """Product of the minus reflections in two vectors of equal square +-2:
    each has det -1 and ori 0, and the surface-lift token checks it once."""
    while True:
        b1, b2 = _sample_hodge_pm2_h2(rng), _sample_hodge_pm2_h2(rng)
        if U3.norm(b1) == U3.norm(b2):
            return intmat.mat_mul(signed_reflection_matrix(U3, b1, True),
                                  signed_reflection_matrix(U3, b2, True))


def _random_word_tokens(rng, length):
    toks = []
    for _ in range(length):
        kind = rng.randint(0, 4)
        if kind == 0:
            c = (rng.randint(-3, 3), rng.randint(-3, 3), 0, 0, 0, 0)
            toks.append(tensor_l(c))
        elif kind == 1:
            toks.append(poincare())
        elif kind == 2:
            toks.append(poincare_dual())
        elif kind == 3:
            toks.append(elliptic())
        else:
            toks.append(surface_lift(_random_surface_lift(rng)))
    return tuple(toks)


def check_fm_orientation(cfg):
    model = MukaiModel(cfg.t)
    table = [("tensor", 0), ("poincare", 0), ("elliptic", 0),
             ("poincare_dual", 1)]
    for kind, want in table:
        c = (1, cfg.t, 0, 0, 0, 0) if kind == "tensor" else None
        phi = fm_action(kind, c)
        h = hodge_ori(model, phi)
        e = epsilon_ori(phi)
        if h != want or e != want:
            return "fail", {"kind": kind, "hodge": h, "epsilon": e}
    rng = _rng(cfg, 4)
    triple = MkTriple(1, 3, cfg.t)
    decided = skipped = 0
    attempts = 0
    while decided < cfg.word_samples:
        attempts += 1
        if attempts > 20 * cfg.word_samples:
            return "fail", {"reason": "too many degenerate words",
                            "decided": decided, "skipped": skipped}
        toks = _random_word_tokens(rng, rng.randint(1, 5))
        word = GroupoidWord(triple, toks)
        phi = eval_phi_tilde(word)
        try:
            h = hodge_ori(model, phi)
        except DecisionDegenerate:
            # the cone test class can be isotropic for special words;
            # those carry no decision, so draw a fresh word
            skipped += 1
            continue
        if h != epsilon_ori(phi):
            return "fail", {"word": word.to_json()}
        decided += 1
    return "pass", {"words": decided, "degenerate_skipped": skipped}


def check_elliptic(cfg):
    ell = fm_action("elliptic")
    for m in (1, 2, 3):
        for k in (3, 4, 5):
            src = (m, 0, 0, 0, 0, 0, 0, -m * k)
            want = (0, m, m * k, 0, 0, 0, 0, m)
            if ell.apply(src) != want:
                return "fail", {"m": m, "k": k, "case": "elliptic-fiber"}
    rng = _rng(cfg, 5)
    for _ in range(cfg.beta_samples):
        k = rng.choice((3, 4, 5))
        beta = (0, 0) + tuple(rng.randint(-6, 6) for _ in range(4))
        src = (1, beta[0], beta[1] - 1) + beta[2:] + (k,)
        want = (0, 1, -k) + tuple(-x for x in beta[2:]) + (0,)
        if ell.apply(src) != want:
            return "fail", {"k": k, "beta": beta, "case": "reflection-input"}
    return "pass", {"betas": cfg.beta_samples}


def check_propdual(cfg):
    """minus_dual_restricted(k) restricts MINUS_DUAL, which check_involution
    proves equal to the reflection composite."""
    for (m, k) in ((2, 3), (2, 5), (3, 4)):
        triple = MkTriple(m, k, cfg.t)
        target = minus_dual_restricted(k)
        for p in (1, 2):
            cert = propdual_word(triple, p)
            if cert.restricted.matrix != target.matrix:
                return "fail", {"m": m, "k": k, "p": p, "case": "restricted"}
            if not cert.in_N or cert.ori != 1:
                return "fail", {"m": m, "k": k, "p": p, "case": "characters"}
    return "pass", {"pairs": 3}


def _random_primitive_sublattice(rng, max_rank=2, coord_bound=10):
    """Primitive S of rank <= max_rank (at most 4) in U^3 and its
    complement, nondegenerate since S is and U^3 is unimodular."""
    while True:
        r = rng.randint(1, max_rank)
        gens = [tuple(rng.randint(-coord_bound, coord_bound) for _ in range(6))
                for _ in range(r)]
        try:
            s = U3.saturate(gens)
        except LatticeError:
            continue
        return s, U3.orth_complement(s)


def check_nikulin(cfg):
    """(id, -id) extends exactly when A_S has exponent <= 2 (Nikulin 1980,
    Cor. 1.5.2).  glue refuses a gamma that fails to negate q on the
    generators or b on their pairs, so on the whole group: negates reads one
    symmetric form.  extend_isometry refuses a result that does not restrict
    to (phi, psi)."""
    rng = _rng(cfg, 7)
    obstructions = 0
    for i in range(cfg.nikulin_samples):
        s, kk = _random_primitive_sublattice(rng)
        gd = glue(s, kk)
        id_s = identity_isometry(s)
        extend_isometry(id_s, identity_isometry(kk), gd, gd)
        exponent = gd.disc_sub.invariants[-1] if gd.disc_sub.invariants else 1
        try:
            extend_isometry(id_s, minus_identity(kk), gd, gd)
        except ExtensionObstructed:
            if exponent <= 2:
                return "fail", {"i": i, "case": "extension-missed"}
            obstructions += 1
            continue
        if exponent > 2:
            return "fail", {"i": i, "case": "obstruction-missed"}
    if cfg.nikulin_samples and obstructions == 0:
        return "fail", {"case": "no-obstruction-instances"}
    return "pass", {"samples": cfg.nikulin_samples,
                    "obstructions": obstructions}


def _sample_lemsimo_xi(rng, k, coord_bound=6):
    """Primitive vector of square 2k-2 with bounded coordinates."""
    while True:
        a2, b2, a3, b3 = (rng.randint(-2, 2) for _ in range(4))
        ab = _sample_factors(rng, (k - 1) - a2 * b2 - a3 * b3,
                             coord_bound, coord_bound)
        if ab and gcd(*ab, a2, b2, a3, b3) == 1:
            return ab + (a2, b2, a3, b3)


def sample_admissible_pair(rng, k, coord_bound=6):
    """Primitive vectors of square 2k-2 (k > 2), drawn until LemsimoProblem
    and lemsimo.input_span, the one admissibility rule, accept them."""
    while True:
        xi1 = _sample_lemsimo_xi(rng, k, coord_bound)
        xi2 = _sample_lemsimo_xi(rng, k, coord_bound)
        try:
            input_span(LemsimoProblem(k, xi1, xi2))
        except ValueError:
            continue
        return xi1, xi2


def check_lemsimo(cfg):
    """solve refuses an answer whose det, ori or images are wrong; so the
    lift G of g conjugates rho_(1, xi_i, k) to rho_(1, t_i, k), as
    G rho_u G^-1 = rho_G(u)."""
    if cfg.bound == 0:
        return "skipped", {"bound": 0}
    rng = _rng(cfg, 8)
    solved = 0
    for k in (3, 4, 5):
        for _ in range(cfg.lemsimo_samples):
            xi1, xi2 = sample_admissible_pair(rng, k)
            problem = LemsimoProblem(k, xi1, xi2, bound=cfg.bound)
            try:
                solve(problem)
            except NotFound as nf:
                return "fail", {"k": k, "xi1": xi1, "xi2": xi2,
                                "stage": nf.stage, "bound": nf.bound}
            solved += 1
    return "pass", {"solved": solved}


def check_similitude(cfg):
    """v = m*w has the complement of w: for each m the canonical basis B of
    v_perp pairs to 0 with m*w, and it carries the restricted form.  So for
    u of square +-2 in v_perp, and every m at once, the minus reflection of
    the rank-8 lattice in B^T u restricts to the minus reflection in u."""
    rng = _rng(cfg, 9)
    k = 3
    vp = complement(k)[0]
    basis = vp.embedding.basis
    for m in (2, 3, 5):
        v8 = MkTriple(m, k).v.vec8()
        if any(MUKAI.inner(b, v8) for b in basis):
            return "fail", {"m": m, "case": "basis"}
    for _ in range(cfg.similitude_samples):
        u = _sample_pm2_vector(rng, k, coord_bound=8)
        r8 = minus_reflection(MUKAI, vp.to_ambient(u))
        if restrict(r8, vp).matrix != minus_reflection(vp, u).matrix:
            return "fail", {"u": u, "case": "reflection"}
    return "pass", {"pairs": 3 * cfg.similitude_samples}


def check_vperp_structure(cfg):
    for k in range(3, 21):
        vp, data = complement(k)
        if vp.signature() != (3, 4):
            return "fail", {"k": k, "case": "signature"}
        if data.invariants != (2 * k,):
            return "fail", {"k": k, "case": "invariants"}
        # q = -1/2k mod 2 on the generator: E^2 q = -2k mod 2E^2, E = 2k
        two_e2 = 8 * k * k
        if data.square((1,)) % two_e2 != two_e2 - 2 * k:
            return "fail", {"k": k, "case": "qbar", "got": str(data.q((1,)))}
    return "pass", {"k_range": [3, 20]}


CHECKS = (
    ("index-formula", check_index_formula),
    ("character-table", check_character_table),
    ("involution-identity", check_involution),
    ("fm-orientation", check_fm_orientation),
    ("elliptic-constraints", check_elliptic),
    ("propdual-certificate", check_propdual),
    ("nikulin-suite", check_nikulin),
    ("lemsimo-pipeline", check_lemsimo),
    ("similitude", check_similitude),
    ("vperp-structure", check_vperp_structure),
)


def run_suite(cfg=None, names=None):
    cfg = cfg or VerifyConfig()
    out = []
    for name, fn in CHECKS:
        if names is not None and name not in names:
            continue
        status, witness = fn(cfg)
        out.append({"name": name, "status": status, "witness": witness})
    return {"checks": out, "seed": cfg.seed, "config": cfg.to_json()}
