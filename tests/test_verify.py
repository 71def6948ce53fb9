"""Verification-suite plumbing (config, registry, report shape) and the
character table's orbit classes."""

import hashlib
import itertools
import json
import random
from collections import defaultdict
from math import gcd

import pytest

from mukailat import discriminant, intmat, monodromy, mukai, verify
from mukailat.verify import (VerifyConfig, CHECKS, run_suite,
                             check_character_table, check_fm_orientation,
                             check_index_formula, check_lemsimo,
                             check_nikulin, check_similitude,
                             check_vperp_structure)


def test_registry_names_are_unique():
    names = [n for n, _ in CHECKS]
    assert len(names) == len(set(names)) == 10


def test_config_json_roundtrip_fields():
    cfg = VerifyConfig(seed=5, bound=4)
    doc = cfg.to_json()
    assert doc["seed"] == 5 and doc["bound"] == 4
    assert set(doc) == {"seed", "bound", "t", "index_k_max", "char_samples",
                        "word_samples", "beta_samples", "nikulin_samples",
                        "lemsimo_samples", "similitude_samples"}


@pytest.mark.parametrize("field, value, error", [
    ("seed", 1.5, TypeError),
    ("char_samples", -8, ValueError),
    ("similitude_samples", True, TypeError),
    ("nikulin_samples", 2.5, TypeError),
    ("word_samples", "20", TypeError),
    ("index_k_max", 2, ValueError),
    ("index_k_max", 10 ** 6 + 1, ValueError),
    ("index_k_max", 20.0, TypeError),
])
def test_config_refuses_bad_counts(field, value, error):
    """The seed and every count are read by intmat.ints, and a count must be
    >= 0 and index_k_max in 3..MAX_K: char_samples=-8 ran 8 samples per k,
    similitude_samples=True one sample, seed=1.5 was accepted and
    nikulin_samples=2.5 ended in a TypeError from `range` inside the check."""
    with pytest.raises(error):
        VerifyConfig(**{field: value})


def test_config_accepts_the_edges():
    """No samples, a negative seed, and index_k_max at 3 and at MAX_K."""
    VerifyConfig(char_samples=0, nikulin_samples=0, seed=-1)
    VerifyConfig(index_k_max=3)
    VerifyConfig(index_k_max=10 ** 6)


def test_run_suite_subset_and_shape():
    cfg = VerifyConfig()
    report = run_suite(cfg, names={"index-formula", "involution-identity"})
    assert [c["name"] for c in report["checks"]] \
        == ["index-formula", "involution-identity"]
    for c in report["checks"]:
        assert c["status"] in ("pass", "fail", "skipped")
    assert report["seed"] == 0
    assert report["config"] == cfg.to_json()


def test_run_suite_runs_no_check_for_an_empty_selection():
    """names=None runs every check; an empty set runs none."""
    report = run_suite(VerifyConfig(), names=set())
    assert report["checks"] == []


def test_nikulin_check_passes_at_zero_samples():
    """Like every other check, the nikulin suite passes with no samples:
    it asks for an obstructed sample only once samples are drawn."""
    assert check_nikulin(VerifyConfig(nikulin_samples=0)) \
        == ("pass", {"samples": 0, "obstructions": 0})


def test_nikulin_check_reports_a_missed_extension(monkeypatch):
    """(id, -id) extends when A_S has exponent <= 2: on sat<e1+f1, e2+f2>,
    with A_S = (Z/2)^2, an extend_isometry that obstructs it is a `fail`
    with case "extension-missed"; on <e1+3f1>, with A_S = Z/6, it is an
    obstruction."""
    u3 = mukai.U3
    subs = [u3.saturate(((1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 0))),
            u3.saturate(((1, 3, 0, 0, 0, 0),))]
    pairs = itertools.cycle([(s, u3.orth_complement(s)) for s in subs])
    monkeypatch.setattr(verify, "_random_primitive_sublattice",
                        lambda rng: next(pairs))
    cfg = VerifyConfig(nikulin_samples=4)
    assert check_nikulin(cfg) == ("pass", {"samples": 4, "obstructions": 2})
    real = verify.extend_isometry

    def obstruct_minus_id(phi, psi, glue1, glue2):
        if psi.matrix != intmat.identity(psi.source.rank):
            raise verify.ExtensionObstructed("(id, -id) refused")
        return real(phi, psi, glue1, glue2)

    monkeypatch.setattr(verify, "extend_isometry", obstruct_minus_id)
    assert check_nikulin(cfg) == ("fail", {"i": 0, "case": "extension-missed"})


def test_index_formula_check_reports_a_mismatch(monkeypatch):
    """A residue enumeration that disagrees with the prime count is a
    `fail` with its witness, not an exception."""
    real = discriminant.enum_disc_autos

    def drop_one_at_12(k):
        residues = real(k)
        return residues[1:] if k == 12 else residues

    monkeypatch.setattr(discriminant, "enum_disc_autos", drop_one_at_12)
    assert check_index_formula(VerifyConfig(index_k_max=20)) \
        == ("fail", {"k": 12,
                     "reason": "index formula mismatch at k=12: 4 vs 3"})
    assert check_index_formula(VerifyConfig(index_k_max=11)) \
        == ("pass", {"k_range": [3, 11]})


def test_similitude_check_reports_a_wrong_complement(monkeypatch):
    """Handed the complement of k = 4 while it tests k = 3, the check is a
    `fail` naming the first m whose vector the basis does not annihilate,
    not an exception."""
    real = verify.complement
    monkeypatch.setattr(verify, "complement", lambda k: real(4))
    assert check_similitude(VerifyConfig(similitude_samples=10)) \
        == ("fail", {"m": 2, "case": "basis"})
    monkeypatch.setattr(verify, "complement", real)
    assert check_similitude(VerifyConfig(similitude_samples=10)) \
        == ("pass", {"pairs": 30})


def test_lemsimo_check_skips_at_bound_zero():
    status, witness = check_lemsimo(VerifyConfig(bound=0))
    assert status == "skipped"
    assert witness == {"bound": 0}


def test_fm_orientation_passes_reuse_one_model():
    """Every pass reads the one FM action per (kind, class), so the actions
    built by the first pass serve the later ones and the cache stops
    growing."""
    mukai._fm_action.cache_clear()
    cfg = VerifyConfig(word_samples=20)
    sizes = []
    for _ in range(3):
        assert check_fm_orientation(cfg)[0] == "pass"
        sizes.append(mukai._fm_action.cache_info().currsize)
    assert sizes == [sizes[0]] * 3


# the nine checks and the 1/10 sample counts of the verify-suite benchmark
# workload (perfbench/run.py); lemsimo-pipeline repeats the solve inputs
BENCH_CHECKS = ("index-formula", "character-table", "involution-identity",
                "fm-orientation", "elliptic-constraints",
                "propdual-certificate", "nikulin-suite", "similitude",
                "vperp-structure")
BENCH_SAMPLES = dict(char_samples=100, word_samples=20, beta_samples=5,
                     nikulin_samples=20, similitude_samples=10)


def test_benchmark_passes_are_pinned():
    """The reports of three benchmark-sized passes, byte for byte."""
    pinned = {
        1: "838075188229bb2801691f0e0bb8fdbbeea87f69fec2bbea09eb51ddbab5b920",
        2: "d4078ac0fa1845c3ab7c06f26db300a38de98588b0f3b84d59f2d7ee11c28e61",
        3: "e70493e325b961f6bf030470977e90f6834d9225f4c99bb48ba5ab5f6fe824d4",
    }
    for seed, digest in pinned.items():
        report = run_suite(VerifyConfig(seed=seed, **BENCH_SAMPLES),
                           names=BENCH_CHECKS)
        assert [c["status"] for c in report["checks"]] == ["pass"] * 9
        blob = json.dumps(report, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest


def test_vperp_structure_reads_the_complement_cache(monkeypatch):
    """The check reads the complement of each k, so a second run builds no
    v_perp: the 18 values of k fit in the complement cache."""
    assert check_vperp_structure(VerifyConfig()) \
        == ("pass", {"k_range": [3, 20]})

    def refuse(*args):
        raise AssertionError("v_perp built again")

    for module in (mukai, monodromy, verify):
        monkeypatch.setattr(module, "v_perp", refuse, raising=False)
    assert check_vperp_structure(VerifyConfig()) \
        == ("pass", {"k_range": [3, 20]})


def test_sampled_surface_lifts_pass_the_one_token_check():
    """_random_surface_lift multiplies two minus-reflection matrices and
    checks nothing itself: 500 draws each pass the surface-lift token's
    check (an isometry of U^3 with det 1 and ori 0), and the first 50 are
    the matrices the former sampler returned, which checked each product
    as an Isometry before returning it."""
    rng = random.Random(11)
    mats = [verify._random_surface_lift(rng) for _ in range(500)]
    for m in mats:
        monodromy._token_matrix(monodromy.surface_lift(m))
    assert hashlib.sha256(json.dumps(mats[:50]).encode()).hexdigest() \
        == "c8ac48427fe1eaee7dc2431fbe12ab0da76650e9d1a30a3bdb1a7df00b9b4b3d"


def test_sampler_streams_are_pinned():
    """The first 200 draws of the sublattice, admissible-pair and +-2
    samplers, byte for byte: the nikulin, lemsimo, character-table and
    similitude reports carry only counts, so a changed stream could
    otherwise pass every report pin."""
    def digest(draws):
        return hashlib.sha256(json.dumps(draws).encode()).hexdigest()

    pinned = {
        2: "26cf5fbe3e1fc6bc5a02f1804391cc3a368430880d07fb7ef4b4628daebbeae6",
        4: "32e5202739b76407329c9d5c72becb8fa5f5cbc19cb4e7cb6edc3d97807c0981",
    }
    for max_rank, want in pinned.items():
        rng = random.Random(max_rank)
        draws = []
        for _ in range(200):
            s, k = verify._random_primitive_sublattice(rng, max_rank=max_rank)
            draws.append([s.embedding.basis, k.embedding.basis])
        assert digest(draws) == want
    pinned = {
        6: "329fcd0afbfd82b9ca3ef268dc5d813bccc8541a53614428c993ffa68115cc75",
        20: "f0f50c7d8d36e4582d74f23fbff765b8936d17fc9a3b2e2399f69d85d82423c9",
    }
    for coord_bound, want in pinned.items():
        rng = random.Random(coord_bound)
        draws = [verify.sample_admissible_pair(rng, 3 + i % 3, coord_bound)
                 for i in range(200)]
        assert digest(draws) == want
    # the +-2 sampler at coord_bound 20 over k = 3..10 (character-table)
    # and at coord_bound 8 for k = 3 (similitude)
    for coord_bound, ks, want in (
            (20, range(3, 11),
             "efe1a8f1aa97354d1f0575b0593765973196289faa6215fe584d852bcb2137f7"),
            (8, (3,),
             "785ef9add582e8ebc4425ca11fc1c28c3c932c0250f6ec5379808842e9441a23")):
        rng = random.Random(coord_bound)
        draws = [verify._sample_pm2_vector(rng, ks[i % len(ks)], coord_bound)
                 for i in range(200)]
        assert digest(draws) == want


def _pm2_classes(k):
    lat, data = monodromy.complement(k)
    return lat, data, {verify._pm2_orbit(lat, data, u)
                       for u in verify._pm2_representatives(k)}


def test_pm2_representatives_have_their_classes():
    """Square s, div 1 and class 0 for (1, s/2, 0, ...), and div 2 with
    class k for the vectors (2, (s + 2k)/4, 0, 0, 0, 0, 1) that exist
    when 8 divides s + 2k: 20 distinct classes for k = 3..10."""
    total = 0
    for k in range(3, 11):
        lat, data, classes = _pm2_classes(k)
        reps = verify._pm2_representatives(k)
        assert len(classes) == len(reps)
        div2 = [(s, 2, (k,)) for s in (2, -2) if (s + 2 * k) % 8 == 0]
        assert classes == {(2, 1, (0,)), (-2, 1, (0,))} | set(div2)
        for u in reps:
            sq, div, _ = verify._pm2_orbit(lat, data, u)
            assert sq == lat.norm(u) and div == (2 if u[0] == 2 else 1)
        total += len(classes)
    assert total == 20


def test_pm2_orbits_on_a_box_are_the_representatives():
    """Every vector of square +-2 (so primitive: u = m w with w even forces
    m = 1) with U^3 coordinates in [-2, 2]^6 and delta coordinate in
    [-3, 3], for k = 3..10: 36,296 vectors, each in a representative's
    class, and every class reached."""
    by_half = defaultdict(list)
    for x in itertools.product(range(-2, 3), repeat=6):
        by_half[x[0] * x[1] + x[2] * x[3] + x[4] * x[5]].append(x)
    scanned = 0
    for k in range(3, 11):
        lat, data, classes = _pm2_classes(k)
        reached = set()
        for c in range(-3, 4):
            for half in (1, -1):
                for x in by_half[half + k * c * c]:
                    reached.add(verify._pm2_orbit(lat, data, x + (c,)))
                    scanned += 1
        assert reached == classes
    assert scanned == 36296


def test_character_table_fails_on_an_unlisted_class(monkeypatch):
    """Without the div-2 representative, the default seed-0 samples fall in
    a class no representative holds (they reach div 2 at k = 3, 5, 7, 9)."""
    real = verify._pm2_representatives
    monkeypatch.setattr(verify, "_pm2_representatives",
                        lambda k: real(k)[:2])
    status, witness = check_character_table(VerifyConfig())
    assert status == "fail" and witness["reason"] == "orbit"
    lat = monodromy.complement(witness["k"])[0]
    assert gcd(*intmat.mat_vec(lat.gram, witness["u"])) == 2


def test_character_table_reads_the_div2_class(monkeypatch):
    """A `characters` that flips disc on the minus reflection of a div-2
    vector fails the check at k = 3 on every seed: the div-2
    representative is evaluated in every pass, not only when a sample
    happens to fall in its class."""
    div = {}
    real_reflection, real_characters = (verify.minus_reflection,
                                        verify.characters)

    def recording(lat, u):
        div["last"] = gcd(*intmat.mat_vec(lat.gram, u))
        return real_reflection(lat, u)

    def flipped(g, data):
        chars = real_characters(g, data)
        if div["last"] == 2:
            chars["disc"] = {"+id": "-id", "-id": "+id"}[chars["disc"]]
        return chars

    monkeypatch.setattr(verify, "minus_reflection", recording)
    monkeypatch.setattr(verify, "characters", flipped)
    for seed in range(5):
        status, witness = check_character_table(
            VerifyConfig(seed=seed, char_samples=100))
        assert (status, witness["k"], witness["reason"]) == ("fail", 3, "disc")
