"""Command-line interface: subcommands, exit codes, deterministic output."""

import json

import pytest

from mukailat.cli import main
from mukailat.lattices import hyperbolic_sum, direct_sum, rank_one


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_bad_input(capsys, *argv):
    """Malformed input exits 2 with one error line and no traceback."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_info(capsys):
    code, out, _ = run_cli(capsys, "info", "--m", "2", "--k", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["vperp_signature"] == [3, 4]
    assert doc["vperp_disc_invariants"] == [6]
    assert doc["index_over_monodromy"] == 2
    for bad in (("--t", "1"), ("--m", "0"), ("--k", "2")):
        assert_bad_input(capsys, "info", *bad)


def test_index(capsys):
    code, out, _ = run_cli(capsys, "index", "--k", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["index"] == 4
    assert doc["residues"] == [1, 5, 7, 11]
    assert_bad_input(capsys, "index", "--k", "0")


def test_disc_group(tmp_path, capsys):
    lat = direct_sum(hyperbolic_sum(3), rank_one(-6))
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(lat.to_json()))
    code, out, _ = run_cli(capsys, "disc-group", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["invariants"] == [6]


def test_disc_group_bad_input_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        main(["disc-group", str(path)])
    assert exc.value.code == 2
    capsys.readouterr()


def test_characters(tmp_path, capsys):
    lat = direct_sum(hyperbolic_sum(3), rank_one(-6))
    lpath = tmp_path / "lat.json"
    lpath.write_text(json.dumps(lat.to_json()))
    # reflection in (1,-1,0,...,0): square -2
    from mukailat.isometries import reflection
    rho = reflection(lat, (1, -1, 0, 0, 0, 0, 0))
    ipath = tmp_path / "iso.json"
    ipath.write_text(json.dumps({"matrix": [list(r) for r in rho.matrix]}))
    code, out, _ = run_cli(capsys, "characters", str(lpath), str(ipath))
    assert code == 0
    doc = json.loads(out)
    assert doc["det"] == -1
    assert doc["ori"] == 0
    assert doc["disc"] == "+id"
    assert doc["in_W"] is True and doc["in_N"] is False
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"rows": [[1]]}))
    assert_bad_input(capsys, "characters", str(lpath), str(bad))
    assert_bad_input(capsys, "characters", str(bad), str(ipath))


def test_reflect(tmp_path, capsys):
    lat = hyperbolic_sum(3)
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(lat.to_json()))
    code, out, _ = run_cli(capsys, "reflect", str(path),
                           "--u", "1,-1,0,0,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["square"] == -2
    code, _, err = run_cli(capsys, "reflect", str(path), "--u", "1,2,0,0,0,0")
    assert code == 1
    assert_bad_input(capsys, "reflect", str(path), "--u", "1,x,0,0,0,0")


def test_fm(capsys):
    code, out, _ = run_cli(capsys, "fm", "poincare_dual")
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon_ori"] == 1
    assert doc["hodge_ori"] == 1
    code, _, err = run_cli(capsys, "fm", "tensor", "--c", "0,0,1,0,0,0")
    assert code == 1
    assert_bad_input(capsys, "fm", "tensor", "--c", "1,x")


def test_word(tmp_path, capsys):
    from mukailat.mukai import MkTriple
    from mukailat.monodromy import GroupoidWord, tensor_l, poincare_dual, \
        inverse, poincare
    triple = MkTriple(2, 3, 2)
    h = (1, 2, 0, 0, 0, 0)
    word = GroupoidWord(triple, (tensor_l(h), poincare_dual(),
                                 inverse(poincare()), tensor_l(h)))
    path = tmp_path / "word.json"
    path.write_text(json.dumps(word.to_json()))
    code, out, _ = run_cli(capsys, "word", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["in_N"] is True
    assert doc["ori"] == 1
    assert doc["characters"]["det"] == -1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"tokens": []}))
    assert_bad_input(capsys, "word", str(bad))


def test_lemsimo(capsys):
    code, out, _ = run_cli(capsys, "lemsimo", "--k", "3",
                           "--xi1", "1,2,0,0,0,0", "--xi2", "0,0,1,2,0,0")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "ok"
    assert doc["beta1"] == [0, 0, 1, 2, 0, 0]


def test_lemsimo_bad_input_exit_2(capsys):
    code, _, err = run_cli(capsys, "lemsimo", "--k", "3",
                           "--xi1", "2,2,0,0,0,0", "--xi2", "0,0,1,2,0,0")
    assert code == 2
    assert "primitive" in err


def test_verify_subset_and_determinism(capsys):
    argv = ["verify", "--only", "index-formula,vperp-structure"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical report for identical config
    doc = json.loads(out1)
    names = [c["name"] for c in doc["checks"]]
    assert names == ["index-formula", "vperp-structure"]
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_verify_unknown_check_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--only", "nope")
    assert code == 2
    assert "unknown checks" in err


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "index", "--k", "3")
    assert code == 0
    assert "index: 2" in out
