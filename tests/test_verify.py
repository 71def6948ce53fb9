"""Verification-suite plumbing: config, registry, report shape."""

from mukailat import mukai
from mukailat.verify import (VerifyConfig, CHECKS, run_suite,
                             check_fm_orientation)


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


def test_lemsimo_check_skips_at_bound_zero():
    from mukailat.verify import check_lemsimo
    status, witness = check_lemsimo(VerifyConfig(bound=0))
    assert status == "skipped"
    assert witness == {"bound": 0}


def test_fm_orientation_passes_reuse_one_model():
    """Every pass reads the one model per t, so the FM actions built by the
    first pass serve the later ones and the cache stops growing."""
    mukai._fm_action.cache_clear()
    cfg = VerifyConfig(word_samples=20)
    sizes = []
    for _ in range(3):
        assert check_fm_orientation(cfg)[0] == "pass"
        sizes.append(mukai._fm_action.cache_info().currsize)
    assert sizes == [sizes[0]] * 3
