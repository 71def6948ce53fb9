"""Deterministic verification suite.

Each check replays one finite, exact statement from the lattice theory the
package implements.  Checks are pure functions of (config, seed); the report
is byte-stable for a fixed configuration.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from . import intmat
from .intmat import transpose
from .lattices import LatticeError, direct_sum, hyperbolic_sum, rank_one
from .isometries import (Isometry, OrientationDatum, ori_char, det_char,
                         reflection, minus_reflection, identity_isometry,
                         minus_identity)
from .discriminant import (DiscriminantData, disc_map, count_distinct_primes,
                           index_monodromy, glue, extend_isometry,
                           ExtensionObstructed, NotFound)
from .mukai import (MukaiModel, MukaiVector, MkTriple, v_perp, fm_action,
                    hodge_ori, epsilon_ori, DecisionDegenerate, MUKAI_GRAM)
from .monodromy import (GroupoidWord, propdual_word, minus_dual_restricted,
                        istar_similitude, isharp, vperp_datum, tensor_l,
                        poincare, poincare_dual, elliptic, surface_lift,
                        eval_phi_tilde)
from .lemsimo import LemsimoProblem, solve, AMBIENT, U3_DATUM, F_VEC


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

    def to_json(self):
        return {k: getattr(self, k) for k in (
            "seed", "bound", "t", "index_k_max", "char_samples",
            "word_samples", "beta_samples", "nikulin_samples",
            "lemsimo_samples", "similitude_samples")}


def _rng(cfg, idx):
    return random.Random(cfg.seed * 1009 + idx)


def _perp_lattice(k):
    return direct_sum(hyperbolic_sum(3), rank_one(-2 * k),
                      label="U^3+<-%d>" % (2 * k))


def _perp_datum(lat):
    return OrientationDatum(lat, ((1, 1, 0, 0, 0, 0, 0),
                                  (0, 0, 1, 1, 0, 0, 0),
                                  (0, 0, 0, 0, 1, 1, 0)))


def _sample_pm2_vector(rng, k, coord_bound=20):
    """Random vector of square +-2 in U^3 + <-2k> with bounded coordinates."""
    while True:
        eps = rng.choice((1, -1))
        c = rng.randint(-3, 3)
        a2, b2, a3, b3 = (rng.randint(-3, 3) for _ in range(4))
        a1 = rng.randint(-coord_bound, coord_bound)
        if a1 == 0:
            continue
        s = eps + k * c * c - a2 * b2 - a3 * b3
        if s % a1 != 0:
            continue
        b1 = s // a1
        if abs(b1) > coord_bound:
            continue
        return (a1, b1, a2, b2, a3, b3, c)


def check_index_formula(cfg):
    for k in range(3, cfg.index_k_max + 1):
        got = index_monodromy(k)
        if got != 2 ** count_distinct_primes(k):
            return "fail", {"k": k, "got": got}
    return "pass", {"k_range": [3, cfg.index_k_max]}


def check_character_table(cfg):
    rng = _rng(cfg, 2)
    per_k = max(1, cfg.char_samples // 8)
    tested = 0
    for k in range(3, 11):
        lat = _perp_lattice(k)
        datum = _perp_datum(lat)
        data = DiscriminantData(lat)
        for _ in range(per_k):
            u = _sample_pm2_vector(rng, k)
            uu = lat.norm(u)
            rho = minus_reflection(lat, u)
            if ori_char(rho, datum) != 0:
                return "fail", {"k": k, "u": u, "reason": "ori"}
            want_det = uu // 2
            if rho.det() != want_det:
                return "fail", {"k": k, "u": u, "reason": "det"}
            sign = disc_map(rho, data, data).sign()
            if sign != -uu // 2:
                return "fail", {"k": k, "u": u, "reason": "disc"}
            tested += 1
    return "pass", {"tested": tested}


def check_involution(cfg):
    model = MukaiModel(cfg.t)
    s = (1, 0, 0, 0, 0, 0, 0, 1)    # square -2
    s1 = (1, 0, 0, 0, 0, 0, 0, -1)  # square +2
    rs = reflection(model.lattice, s)
    rs1 = reflection(model.lattice, s1)
    comp = rs.compose(rs1)
    minus_dual = tuple(
        tuple((-1 if i in (0, 7) else 1) * int(i == j) for j in range(8))
        for i in range(8))
    if comp.matrix != minus_dual:
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
        x1 = rng.randint(-5, 5)
        if x1 == 0:
            continue
        s = eps + x3 * x3 + x5 * x5
        if s % x1 != 0:
            continue
        x2 = s // x1
        if abs(x2) > 20:
            continue
        return (x1, x2, x3, -x3, x5, -x5)


def _random_surface_lift(rng, model):
    """Product of two signed reflections with matching determinant signs."""
    h2 = model.h2_lattice
    while True:
        b1 = _sample_hodge_pm2_h2(rng)
        b2 = _sample_hodge_pm2_h2(rng)
        if h2.norm(b1) != h2.norm(b2):
            continue
        h = minus_reflection(h2, b1).compose(minus_reflection(h2, b2))
        if h.det() == 1 and ori_char(h, model.h2_datum) == 0:
            return h.matrix


def _random_word_tokens(rng, model, length):
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
            toks.append(surface_lift(_random_surface_lift(rng, model)))
    return tuple(toks)


def check_fm_orientation(cfg):
    model = MukaiModel(cfg.t)
    table = [("tensor", 0), ("poincare", 0), ("elliptic", 0),
             ("poincare_dual", 1)]
    for kind, want in table:
        c = (1, cfg.t, 0, 0, 0, 0) if kind == "tensor" else None
        phi = fm_action(model, kind, c)
        h = hodge_ori(model, phi)
        e = epsilon_ori(model, phi)
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
        toks = _random_word_tokens(rng, model, rng.randint(1, 5))
        word = GroupoidWord(triple, toks)
        phi = eval_phi_tilde(word, model)
        try:
            h = hodge_ori(model, phi)
        except DecisionDegenerate:
            # the cone test class can be isotropic for special words;
            # those carry no decision, so draw a fresh word
            skipped += 1
            continue
        if h != epsilon_ori(model, phi):
            return "fail", {"word": word.to_json()}
        decided += 1
    return "pass", {"words": decided, "degenerate_skipped": skipped}


def check_elliptic(cfg):
    model = MukaiModel(cfg.t)
    ell = fm_action(model, "elliptic")
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
    g = ell.matrix
    lhs = intmat.mat_mul(intmat.mat_mul(transpose(g), MUKAI_GRAM), g)
    if lhs != MUKAI_GRAM:
        return "fail", {"case": "gram"}
    return "pass", {"betas": cfg.beta_samples}


def check_propdual(cfg):
    for (m, k) in ((2, 3), (2, 5), (3, 4)):
        triple = MkTriple(m, k, cfg.t)
        model = triple.model()
        target = minus_dual_restricted(triple, model)
        # the same matrix obtained from the actual reflection composite
        s = (1, 0, 0, 0, 0, 0, 0, 1)
        s1 = (1, 0, 0, 0, 0, 0, 0, -1)
        comp = reflection(model.lattice, s).compose(
            reflection(model.lattice, s1))
        vp = target.source
        cols = [vp.from_ambient(comp.apply(vp.to_ambient(
            tuple(int(i == j) for i in range(vp.rank)))))
            for j in range(vp.rank)]
        refl_rest = Isometry(vp, vp, intmat.to_int(transpose(cols)))
        if refl_rest.matrix != target.matrix:
            return "fail", {"m": m, "k": k, "case": "reflection-vs-dual"}
        for p in (1, 2):
            cert = propdual_word(triple, p, model)
            if cert.restricted.matrix != target.matrix:
                return "fail", {"m": m, "k": k, "p": p, "case": "restricted"}
            if not cert.in_N or cert.ori != 1:
                return "fail", {"m": m, "k": k, "p": p, "case": "characters"}
    return "pass", {"pairs": 3}


def _random_primitive_sublattice(rng, max_rank=2, coord_bound=10):
    while True:
        r = rng.randint(1, max_rank)
        gens = [tuple(rng.randint(-coord_bound, coord_bound) for _ in range(6))
                for _ in range(r)]
        if not any(any(g) for g in gens):
            continue
        try:
            s = AMBIENT.saturate(gens)
        except LatticeError:
            continue
        if s.rank > 4:
            continue
        try:
            k = AMBIENT.orth_complement(s)
        except LatticeError:
            continue
        return s, k


def check_nikulin(cfg):
    rng = _rng(cfg, 7)
    obstructions = 0
    for i in range(cfg.nikulin_samples):
        s, kk = _random_primitive_sublattice(rng)
        gd = glue(s, kk)
        # anti-isometry rechecked here: on generators always, and over the
        # whole group when it is small enough to enumerate
        gcount = len(gd.disc_sub.invariants)
        for a in range(gcount):
            ea = tuple(int(a == x) for x in range(gcount))
            if (gd.disc_sub.q(ea) + gd.disc_comp.q(gd.gamma.apply(ea))) % 2:
                return "fail", {"i": i, "case": "anti-isometry-gen"}
        if gd.disc_sub.order <= 100:
            for cls in gd.disc_sub.elements():
                qs = gd.disc_sub.q(cls)
                qk = gd.disc_comp.q(gd.gamma.apply(cls))
                if (qs + qk) % 2 != 0:
                    return "fail", {"i": i, "case": "anti-isometry"}
        ext = extend_isometry(identity_isometry(s), identity_isometry(kk),
                              gd, gd)
        if not ext.is_identity():
            return "fail", {"i": i, "case": "identity-roundtrip"}
        exponent = gd.disc_sub.invariants[-1] if gd.disc_sub.invariants else 1
        if exponent > 2:
            try:
                extend_isometry(identity_isometry(s), minus_identity(kk),
                                gd, gd)
                return "fail", {"i": i, "case": "obstruction-missed"}
            except ExtensionObstructed:
                obstructions += 1
    if obstructions == 0:
        return "fail", {"case": "no-obstruction-instances"}
    return "pass", {"samples": cfg.nikulin_samples,
                    "obstructions": obstructions}


def _sample_lemsimo_xi(rng, k, coord_bound=6):
    """Primitive vector of square 2k-2 with bounded coordinates."""
    from math import gcd
    while True:
        a2, b2, a3, b3 = (rng.randint(-2, 2) for _ in range(4))
        a1 = rng.randint(-coord_bound, coord_bound)
        if a1 == 0:
            continue
        s = (k - 1) - a2 * b2 - a3 * b3
        if s % a1 != 0:
            continue
        b1 = s // a1
        if abs(b1) > coord_bound:
            continue
        v = (a1, b1, a2, b2, a3, b3)
        if gcd(*[abs(c) for c in v]) != 1:
            continue
        return v


def sample_admissible_pair(rng, k, coord_bound=6):
    """Admissible input pair: primitive vectors of square 2k-2 whose common
    span is rank 2, nondegenerate, and itself primitive (the construction's
    normal-form targets only exist in that case)."""
    while True:
        xi1 = _sample_lemsimo_xi(rng, k, coord_bound)
        xi2 = _sample_lemsimo_xi(rng, k, coord_bound)
        if xi2 == xi1 or xi2 == tuple(-c for c in xi1):
            continue
        l = AMBIENT.inner(xi1, xi2)
        if abs(l) == 2 * k - 2:  # degenerate rank-2 gram
            continue
        try:
            span = AMBIENT.span((xi1, xi2))
        except LatticeError:
            continue
        if span.rank != 2 or not AMBIENT.is_primitive(span):
            continue
        return xi1, xi2


def _conjugation_identity(g, xi1, xi2, beta1, beta2, k, model):
    """Lift g to the rank-8 lattice and compare conjugated reflection
    composites with the reflections in the images."""
    lat = model.lattice
    cols = []
    for j in range(8):
        if j in (0, 7):
            cols.append(tuple(int(i == j) for i in range(8)))
        else:
            e6 = tuple(int(i == j - 1) for i in range(6))
            cols.append((0,) + tuple(g.apply(e6)) + (0,))
    gt = Isometry(lat, lat, transpose(cols))
    u1 = (1,) + tuple(xi1) + (k,)
    u2 = (1,) + tuple(xi2) + (k,)
    t1 = (1,) + tuple(b - f for b, f in zip(beta1, F_VEC)) + (k,)
    t2 = (1,) + tuple(b - f for b, f in zip(beta2, F_VEC)) + (k,)
    for u, t in ((u1, t1), (u2, t2)):
        conj = gt.compose(reflection(lat, u)).compose(gt.inverse())
        if conj.matrix != reflection(lat, t).matrix:
            return False
    lhs = gt.compose(reflection(lat, u1)).compose(reflection(lat, u2)) \
            .compose(gt.inverse())
    rhs = reflection(lat, t1).compose(reflection(lat, t2))
    return lhs.matrix == rhs.matrix


def check_lemsimo(cfg):
    if cfg.bound == 0:
        return "skipped", {"bound": 0}
    rng = _rng(cfg, 8)
    model = MukaiModel(cfg.t)
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
            g = sol.g
            if g.det() != 1 or ori_char(g, U3_DATUM) != 0:
                return "fail", {"k": k, "case": "characters"}
            for xi, beta in ((xi1, sol.beta1), (xi2, sol.beta2)):
                want = tuple(b - f for b, f in zip(beta, F_VEC))
                if g.apply(xi) != want:
                    return "fail", {"k": k, "case": "image"}
            if not _conjugation_identity(g, xi1, xi2, sol.beta1, sol.beta2,
                                         k, model):
                return "fail", {"k": k, "case": "conjugation"}
            solved += 1
    return "pass", {"solved": solved}


def check_similitude(cfg):
    rng = _rng(cfg, 9)
    k = 3
    triple = MkTriple(1, k, cfg.t)
    model = triple.model()
    vp = v_perp(model, triple.v)
    datum = vperp_datum(vp)
    data = DiscriminantData(vp)
    for m in (2, 3, 5):
        for _ in range(cfg.similitude_samples):
            x = tuple(rng.randint(-9, 9) for _ in range(7))
            y = tuple(rng.randint(-9, 9) for _ in range(7))
            if vp.inner(istar_similitude(x, m), istar_similitude(y, m)) \
                    != m * m * vp.inner(x, y):
                return "fail", {"m": m, "x": x, "y": y}
    for _ in range(20):
        u = _sample_pm2_vector(rng, k, coord_bound=8)
        r = minus_reflection(vp, u)
        r2 = isharp(r, vp)
        trip = lambda h: (det_char(h), ori_char(h, datum),
                          disc_map(h, data, data).sign())
        if trip(r) != trip(r2):
            return "fail", {"u": u, "case": "isharp-characters"}
    return "pass", {"pairs": 3 * cfg.similitude_samples}


def check_vperp_structure(cfg):
    model = MukaiModel(cfg.t)
    for k in range(3, 21):
        for m in (1, 2):
            v = MukaiVector(m, (0,) * 6, -m * k)
            vp = v_perp(model, v)
            if vp.signature() != (3, 4):
                return "fail", {"k": k, "case": "signature"}
            data = DiscriminantData(vp)
            if data.invariants != (2 * k,):
                return "fail", {"k": k, "case": "invariants"}
            want = Fraction(-1, 2 * k) % 2
            if data.q((1,)) != want:
                return "fail", {"k": k, "case": "qbar",
                                "got": str(data.q((1,)))}
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
