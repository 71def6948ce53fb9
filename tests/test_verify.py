"""Verification-suite plumbing: config, registry, report shape."""

import hashlib
import json
import random

from mukailat import isometries, monodromy, mukai, verify
from mukailat.verify import (VerifyConfig, CHECKS, run_suite,
                             check_fm_orientation, check_index_formula,
                             check_lemsimo, check_similitude,
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


def test_run_suite_subset_and_shape():
    cfg = VerifyConfig()
    report = run_suite(cfg, names={"index-formula", "involution-identity"})
    assert [c["name"] for c in report["checks"]] \
        == ["index-formula", "involution-identity"]
    for c in report["checks"]:
        assert c["status"] in ("pass", "fail", "skipped")
    assert report["seed"] == 0
    assert report["config"] == cfg.to_json()


def test_index_formula_check_reports_a_mismatch(monkeypatch):
    """A residue enumeration that disagrees with the prime count is a
    `fail` with its witness, not an exception."""
    real = verify.enum_disc_autos

    def drop_one_at_12(k):
        residues = real(k)
        return residues[1:] if k == 12 else residues

    monkeypatch.setattr(verify, "enum_disc_autos", drop_one_at_12)
    assert check_index_formula(VerifyConfig(index_k_max=20)) \
        == ("fail", {"k": 12, "got": 3, "want": 4})
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


def test_conjugation_identity_inverts_each_lift_once(monkeypatch):
    """Six solves, one lifted isometry each, inverted once per lift; the
    inversions that solve makes itself are not counted."""
    count = {"inside": 0, "inverses": 0}
    inv, conj = isometries.inv_unimodular, verify._conjugation_identity

    def counting_inv(a):
        if count["inside"]:
            count["inverses"] += 1
        return inv(a)

    def counting_conj(*args):
        count["inside"] += 1
        try:
            return conj(*args)
        finally:
            count["inside"] -= 1

    monkeypatch.setattr(isometries, "inv_unimodular", counting_inv)
    monkeypatch.setattr(verify, "_conjugation_identity", counting_conj)
    assert check_lemsimo(VerifyConfig(lemsimo_samples=2)) \
        == ("pass", {"solved": 6})
    assert count["inverses"] == 6


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
    """The first 200 draws of the sublattice and admissible-pair samplers,
    byte for byte: the nikulin and lemsimo reports carry only counts, so a
    changed stream could otherwise pass every report pin."""
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
