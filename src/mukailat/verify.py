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
from .isometries import (Isometry, reflection, minus_reflection,
                         signed_reflection_matrix, identity_isometry,
                         minus_identity)
from .discriminant import (count_distinct_primes, enum_disc_autos, glue,
                           extend_isometry, ExtensionObstructed, NotFound,
                           characters)
from .mukai import (MukaiModel, MkTriple, fm_action, hodge_ori, epsilon_ori,
                    DecisionDegenerate, MUKAI, U3, h2_lift)
from .monodromy import (GroupoidWord, propdual_word, minus_dual_restricted,
                        MINUS_DUAL, restrict, tensor_l, poincare,
                        poincare_dual, elliptic, surface_lift, eval_phi_tilde,
                        complement)
from .lemsimo import LemsimoProblem, solve, check_bound, targets


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
        MukaiModel(self.t)  # TypeError unless an int, ValueError unless >= 2
        check_bound(self.bound)

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
        got = len(enum_disc_autos(k))
        want = 2 ** count_distinct_primes(k)
        if got != want:
            return "fail", {"k": k, "got": got, "want": want}
    return "pass", {"k_range": [3, cfg.index_k_max]}


def check_character_table(cfg):
    rng = _rng(cfg, 2)
    per_k = max(1, cfg.char_samples // 8)
    tested = 0
    for k in range(3, 11):
        lat, data = complement(k)
        for _ in range(per_k):
            u = _sample_pm2_vector(rng, k)
            half = lat.norm(u) // 2
            chars = characters(minus_reflection(lat, u), data)
            for reason, want in (("ori", 0), ("det", half),
                                 ("disc", "-id" if half == 1 else "+id")):
                if chars[reason] != want:
                    return "fail", {"k": k, "u": u, "reason": reason}
            tested += 1
    return "pass", {"tested": tested}


def _dual_reflections():
    """The reflections in (1, 0, 1) and (1, 0, -1), of squares -2 and 2."""
    return tuple(reflection(MUKAI, (1,) + (0,) * 6 + (s,)) for s in (1, -1))


def check_involution(cfg):
    rs, rs1 = _dual_reflections()
    comp = rs.compose(rs1)
    if comp.matrix != MINUS_DUAL:
        return "fail", {"reason": "matrix", "got": comp.matrix}
    other = rs1.compose(rs)
    for m in (2, 3):
        for k in (3, 4, 5):
            v = (m, 0, 0, 0, 0, 0, 0, -m * k)
            if other.apply(v) != tuple(-x for x in v):
                return "fail", {"m": m, "k": k}
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
    # the same matrix obtained from the actual reflection composite
    comp = Isometry.compose(*_dual_reflections())
    for (m, k) in ((2, 3), (2, 5), (3, 4)):
        triple = MkTriple(m, k, cfg.t)
        target = minus_dual_restricted(k)
        if restrict(comp, target.source).matrix != target.matrix:
            return "fail", {"m": m, "k": k, "case": "reflection-vs-dual"}
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
    rng = _rng(cfg, 7)
    obstructions = 0
    for i in range(cfg.nikulin_samples):
        s, kk = _random_primitive_sublattice(rng)
        gd = glue(s, kk)
        # glue checked the anti-isometry on generators; recheck it over the
        # whole group when that is small enough to enumerate
        if gd.disc_sub.order <= 100:
            for cls in gd.disc_sub.elements():
                if not gd.gamma.negates(cls):
                    return "fail", {"i": i, "case": "anti-isometry"}
        id_s = identity_isometry(s)
        ext = extend_isometry(id_s, identity_isometry(kk), gd, gd)
        if not ext.is_identity():
            return "fail", {"i": i, "case": "identity-roundtrip"}
        exponent = gd.disc_sub.invariants[-1] if gd.disc_sub.invariants else 1
        if exponent > 2:
            try:
                extend_isometry(id_s, minus_identity(kk), gd, gd)
                return "fail", {"i": i, "case": "obstruction-missed"}
            except ExtensionObstructed:
                obstructions += 1
    if obstructions == 0:
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
    """Admissible input pair: primitive vectors of square 2k-2 whose common
    span is rank 2, nondegenerate, and itself primitive (the construction's
    normal-form targets only exist in that case).  Primitive vectors other
    than +-xi1 span rank 2, and |l| != 2k-2 makes that span nondegenerate."""
    while True:
        xi1 = _sample_lemsimo_xi(rng, k, coord_bound)
        xi2 = _sample_lemsimo_xi(rng, k, coord_bound)
        if xi2 == xi1 or xi2 == tuple(-c for c in xi1):
            continue
        if abs(U3.inner(xi1, xi2)) == 2 * k - 2:  # degenerate rank-2 gram
            continue
        if U3.is_primitive(U3.span((xi1, xi2))):
            return xi1, xi2


def _conjugation_identity(g, xi1, xi2, beta1, beta2, k):
    """Lift g to the rank-8 lattice and compare conjugated reflection
    composites with the reflections in the images."""
    gt = Isometry(MUKAI, MUKAI, h2_lift(g.matrix))
    u1 = (1,) + tuple(xi1) + (k,)
    u2 = (1,) + tuple(xi2) + (k,)
    t1, t2 = ((1,) + t + (k,) for t in targets(beta1, beta2))
    gt_inv = gt.inverse()
    for u, t in ((u1, t1), (u2, t2)):
        conj = gt.compose(reflection(MUKAI, u)).compose(gt_inv)
        if conj.matrix != reflection(MUKAI, t).matrix:
            return False
    lhs = gt.compose(reflection(MUKAI, u1)).compose(reflection(MUKAI, u2)) \
            .compose(gt_inv)
    rhs = reflection(MUKAI, t1).compose(reflection(MUKAI, t2))
    return lhs.matrix == rhs.matrix


def check_lemsimo(cfg):
    if cfg.bound == 0:
        return "skipped", {"bound": 0}
    rng = _rng(cfg, 8)
    solved = 0
    for k in (3, 4, 5):
        for _ in range(cfg.lemsimo_samples):
            xi1, xi2 = sample_admissible_pair(rng, k)
            problem = LemsimoProblem(k, xi1, xi2, bound=cfg.bound)
            try:
                sol = solve(problem)
            except NotFound as nf:
                return "fail", {"k": k, "xi1": xi1, "xi2": xi2,
                                "stage": nf.stage, "bound": nf.bound}
            # solve itself refuses a det, ori or image other than the targets
            if not _conjugation_identity(sol.g, xi1, xi2, sol.beta1,
                                         sol.beta2, k):
                return "fail", {"k": k, "case": "conjugation"}
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
        if names and name not in names:
            continue
        status, witness = fn(cfg)
        out.append({"name": name, "status": status, "witness": witness})
    return {"checks": out, "seed": cfg.seed, "config": cfg.to_json()}
