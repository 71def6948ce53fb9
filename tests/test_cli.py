"""Command-line interface: subcommands, exit codes, deterministic output."""

import hashlib
import json
import sys
from contextlib import contextmanager

import pytest

from mukailat.cli import build_parser, main
from mukailat.intmat import identity, mat_mul
from mukailat.lattices import hyperbolic_sum, direct_sum, rank_one


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_one_error_line(capsys, code, *argv):
    """The command exits with `code`, prints nothing on stdout and one
    error line on stderr, with no traceback."""
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def assert_bad_input(capsys, *argv):
    """Malformed input exits 2 with one error line and no traceback."""
    assert_one_error_line(capsys, 2, *argv)


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


def test_index_enumerates_the_residues_once(capsys, monkeypatch):
    import mukailat.cli
    import mukailat.discriminant
    calls = []
    real = mukailat.discriminant.enum_disc_autos

    def counting(k):
        calls.append(k)
        return real(k)

    monkeypatch.setattr(mukailat.cli, "enum_disc_autos", counting)
    monkeypatch.setattr(mukailat.discriminant, "enum_disc_autos", counting)
    code, out, _ = run_cli(capsys, "index", "--k", "30")
    assert code == 0 and json.loads(out)["index"] == 8
    assert calls == [30]


def test_index_mismatch_exits_1_with_one_line(capsys, monkeypatch):
    """A residue enumeration that disagrees with the prime count ends
    `index` and `info` with exit 1 and one error line, not a traceback."""
    import mukailat.cli
    import mukailat.discriminant
    real = mukailat.discriminant.enum_disc_autos

    def drop_one_at_12(k):
        residues = real(k)
        return residues[1:] if k == 12 else residues

    monkeypatch.setattr(mukailat.cli, "enum_disc_autos", drop_one_at_12)
    monkeypatch.setattr(mukailat.discriminant, "enum_disc_autos",
                        drop_one_at_12)
    for command in ("index", "info"):
        code, out, err = run_cli(capsys, command, "--k", "12")
        assert (code, out) == (1, "")
        assert err == "error: index formula mismatch at k=12: 4 vs 3\n"


LEMSIMO_ARGV = ("lemsimo", "--k", "3", "--xi1", "1,2,0,0,0,0",
                "--xi2", "0,0,1,2,0,0")


def test_extension_internal_error_exits_1_with_one_line(capsys, monkeypatch):
    """An extension that breaks its own invariant inside `solve` ends
    `lemsimo` with exit 1 and one error line, not a traceback."""
    import mukailat.lemsimo
    from mukailat.discriminant import ExtensionInternalError

    def broken_extension(*args):
        raise ExtensionInternalError("extension does not restrict to phi")

    monkeypatch.setattr(mukailat.lemsimo, "extend_isometry", broken_extension)
    code, out, err = run_cli(capsys, *LEMSIMO_ARGV)
    assert (code, out) == (1, "")
    assert err == "error: extension does not restrict to phi\n"


def test_solve_invariant_error_exits_1_with_one_line(capsys, monkeypatch):
    """An answer that `solve` itself rejects (here every orientation reads
    as reversed, so the fixed answer still fails its check) ends `lemsimo`
    with exit 1 and one error line, not a traceback."""
    import mukailat.lemsimo
    monkeypatch.setattr(mukailat.lemsimo, "ori_char", lambda g: 1)
    code, out, err = run_cli(capsys, *LEMSIMO_ARGV)
    assert (code, out) == (1, "")
    assert err == "error: pipeline reversed the orientation\n"


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
    for text in ("{not json", "[" * 100000 + "]" * 100000):  # too deep
        path.write_text(text)
        assert_bad_input(capsys, "disc-group", str(path))
    line = hyperbolic_sum(3).saturate(((1, 2, 0, 0, 0, 0),)).to_json()
    line["embedding"]["basis"] = [[1.0, 2, 0, 0, 0, 0]]
    # embedding bases that are not rank x ambient rank
    wide = {"gram": [[2]], "embedding": {"ambient": {"gram": [[2]]},
                                         "basis": [[1, 5]]}}
    short = {"gram": [[0, 1], [1, 0]],
             "embedding": {"ambient": hyperbolic_sum(2).to_json(),
                           "basis": [[1, 0], [0, 1]]}}
    for doc in ([1, 2], {"gram": [[2.0, 1.0], [1.0, 2.0]]}, line, wide,
                short):
        path.write_text(json.dumps(doc))
        assert_bad_input(capsys, "disc-group", str(path))


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
    # float entries, a bare list, and a 2 x 2 matrix on a rank-7 lattice
    for doc in ({"matrix": [[float(x) for x in r] for r in rho.matrix]},
                [list(r) for r in rho.matrix], {"matrix": [[1, 0], [0, 1]]}):
        bad.write_text(json.dumps(doc))
        assert_bad_input(capsys, "characters", str(lpath), str(bad))


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
    # a vector whose length is not the rank of the lattice
    for u in ("1", "1,-1,0,0,0,0,0"):
        assert_bad_input(capsys, "reflect", str(path), "--u", u)


@contextmanager
def digits_unlimited():
    """Lift the int-str digit limit of this interpreter for the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int-str digit limit")
def test_answers_over_the_digit_limit_print(tmp_path, capsys):
    """u = (1, 1 - N^2, N, N) on U + U has square 2 and reads under
    Python's 4,300-digit limit, but its reflection has entries over it;
    a gram entry of 5,000 digits reads.  The limit is back on return."""
    limit = sys.get_int_max_str_digits()
    n = 10 ** 1100 + 7
    path = tmp_path / "uu.json"
    path.write_text(json.dumps(hyperbolic_sum(2).to_json()))
    code, out, _ = run_cli(capsys, "reflect", str(path),
                           "--u", "1,%d,%d,%d" % (1 - n * n, n, n))
    assert code == 0 and sys.get_int_max_str_digits() == limit
    with digits_unlimited():
        doc = json.loads(out)
    assert doc["square"] == 2
    assert max(abs(x) for row in doc["matrix"] for x in row) > 10 ** 4300
    assert mat_mul(doc["matrix"], doc["matrix"]) == identity(4)
    entry = "2" + "0" * 4999
    path.write_text('{"gram": [[%s]]}' % entry)
    code, out, _ = run_cli(capsys, "disc-group", str(path))
    assert code == 0 and sys.get_int_max_str_digits() == limit
    assert out.startswith('{"invariants": [%s]' % entry)


def test_fm(capsys):
    code, out, _ = run_cli(capsys, "fm", "poincare_dual")
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon_ori"] == 1
    assert doc["hodge_ori"] == 1
    code, _, err = run_cli(capsys, "fm", "tensor", "--c", "0,0,1,0,0,0")
    assert code == 1
    assert_bad_input(capsys, "fm", "tensor", "--c", "1,x")
    assert_bad_input(capsys, "fm", "poincare", "--t", "1")
    # tensor needs a class of 6 entries, and no other kind takes one
    assert_bad_input(capsys, "fm", "tensor")
    assert_bad_input(capsys, "fm", "tensor", "--c", "1,2,3")
    assert_bad_input(capsys, "fm", "poincare", "--c", "1,2,0,0,0,0")


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
    doc = word.to_json()
    doc["tokens"][0]["params"]["c"] = [1.0, 2, 0, 0, 0, 0]
    # an unknown kind, a tensor class without 6 entries and a surface lift
    # that is not 6 x 6 are malformed documents
    for tokens in (doc["tokens"], [5], [{"kind": "foo"}],
                   [{"kind": "tensor", "params": {"c": [1, 2, 3]}}],
                   [{"kind": "surface_lift",
                     "params": {"matrix": [[1, 0], [0, 1]]}}]):
        bad.write_text(json.dumps(dict(doc, tokens=tokens)))
        assert_bad_input(capsys, "word", str(bad))
    # a well-formed class outside the Neron-Severi block fails to certify
    off_ns = [{"kind": "tensor", "params": {"c": [0, 0, 1, 0, 0, 0]}}]
    bad.write_text(json.dumps(dict(doc, tokens=off_ns)))
    code, _, err = run_cli(capsys, "word", str(bad))
    assert code == 1 and "Neron-Severi" in err
    # a float or bool in the triple must not reach the exact core
    for key, value in (("t", 2.5), ("k", 3.0), ("m", 1.5), ("m", True)):
        bad_triple = dict(triple.to_json(), **{key: value})
        bad.write_text(json.dumps(dict(word.to_json(), triple=bad_triple)))
        assert_bad_input(capsys, "word", str(bad))


def test_word_document_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "word.json"
    path.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "word", str(path))
    assert (code, out) == (2, "")
    assert err == "error: word must be a JSON object\n"


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
    for bound in ("-1", "60"):  # 60: a box of 121^4 vectors
        assert_bad_input(capsys, "lemsimo", "--k", "3", "--xi1", "1,2,0,0,0,0",
                         "--xi2", "0,0,1,2,0,0", "--bound", bound)


def test_lemsimo_not_found_exit_1(capsys):
    # a vector that starts with "-" is passed as --xi1=...
    code, out, _ = run_cli(capsys, "lemsimo", "--k", "10",
                           "--xi1=-5,-2,-1,1,0,-2", "--xi2", "2,4,-1,-1,-1,0")
    assert code == 1
    assert out == ('{"bound": 10, "stage": "companion:companion", '
                   '"status": "not-found"}\n')


def _audit_documents(tmp_path):
    """The documents that EXIT_CODE_AUDIT names, written to disk."""
    docs = {
        "u": json.dumps(hyperbolic_sum(1).to_json()),
        "stretch": '{"matrix": [[2, 0], [0, 1]]}',
        "no-triple": '{"tokens": []}',
        # the Poincare action sends v = (1, 0, -3) to (-3, 0, 1)
        "unfixed": '{"triple": {"m": 1, "k": 3}, '
                   '"tokens": [{"kind": "poincare"}]}',
        "not-json": "{not json",
        "bad-t": '{"triple": {"m": 1, "k": 3, "t": 1}, "tokens": []}',
    }
    for name, text in docs.items():
        (tmp_path / name).write_text(text)
    return {name: str(tmp_path / name) for name in docs}


# One malformed input per subcommand (exit 2) and, where a command can refuse
# a well-formed input, one such input (exit 1); "{name}" is a document of
# _audit_documents
EXIT_CODE_AUDIT = (
    ("info", 2, ("--m", "0")),
    ("index", 2, ("--k", "0")),
    ("disc-group", 2, ("{not-json}",)),
    ("characters", 2, ("{u}", "{no-triple}")),
    ("characters", 1, ("{u}", "{stretch}")),
    ("reflect", 2, ("{u}", "--u", "1")),
    ("reflect", 1, ("{u}", "--u", "1,0")),
    ("fm", 2, ("tensor", "--c", "1,2,3")),
    ("fm", 1, ("tensor", "--c", "0,0,1,0,0,0")),
    ("word", 2, ("{no-triple}",)),
    ("word", 1, ("{unfixed}",)),
    ("lemsimo", 2, ("--k", "3", "--xi1", "1,2,0", "--xi2", "0,0,1,2,0,0")),
    # a span that is not primitive, and a degenerate span
    ("lemsimo", 1, ("--k", "3", "--xi1", "1,2,0,0,0,0",
                    "--xi2=3,2,2,-2,0,0")),
    ("lemsimo", 1, ("--k", "3", "--xi1", "1,2,0,0,0,0",
                    "--xi2", "1,2,2,0,0,0")),
    ("verify", 2, ("--only", "nope")),
    # info and index scan all 2k residues, so k is capped
    ("info", 2, ("--k", "1000001")),
    ("index", 2, ("--k", "1000001")),
    # a box search whose squares would leave int64 (OverflowError)
    ("lemsimo", 1, ("--k", "10000000000000000",
                    "--xi1", "1,9999999999999999,0,0,0,0",
                    "--xi2", "0,0,1,9999999999999999,0,0")),
    # a triple whose model does not exist
    ("word", 2, ("{bad-t}",)),
)


@pytest.mark.parametrize("command,code,argv", EXIT_CODE_AUDIT)
def test_exit_code_audit(tmp_path, capsys, command, code, argv):
    paths = _audit_documents(tmp_path)
    assert_one_error_line(capsys, code, command,
                          *(a.format(**paths) for a in argv))


def test_exit_code_audit_covers_every_subcommand():
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    assert {c for c, code, _ in EXIT_CODE_AUDIT if code == 2} == \
        set(sub.choices)


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


def test_verify_out_of_range_arguments_exit_2(capsys):
    assert_bad_input(capsys, "verify", "--only", "lemsimo-pipeline",
                     "--bound", "-1")
    assert_bad_input(capsys, "verify", "--only", "lemsimo-pipeline",
                     "--bound", "60")
    assert_bad_input(capsys, "verify", "--t", "1")


# SHA-256 of the stdout of each command, taken before sublattice coordinates
# came from one integer projection and unimodular inverses from the HNF
PINNED_OUTPUTS = (
    (("lemsimo", "--k", "3", "--xi1", "1,2,0,0,0,0", "--xi2", "0,0,1,2,0,0"),
     "f37fd6396e6500ca5dd8ba92f2cd879cd6c058eeab331c3b182551f48484cca6"),
    (("verify", "--only", "propdual-certificate,vperp-structure"),
     "16aa0394af77961010fbf154dcf648b3950705cf8135f13a92b698fe96d0b4c5"),
    # taken before the discriminant group was read off the cached Smith form
    (("verify", "--only", "character-table,nikulin-suite,similitude"),
     "6f7d3060e31a87ad1f4366b5557176b7ec76ea0fefde148dd3c36c60ec385eae"),
    # taken before signature and positive frames came from one integer
    # orthogonal basis
    (("verify", "--only",
      "fm-orientation,involution-identity,elliptic-constraints"),
     "8436048ae2491a7634e87826f7bfbf86d5e8a9e4ab2016d1fd3b72d1ae07c7c0"),
    (("fm", "poincare_dual", "--t", "3"),
     "24de8ef9d0c58e4369d88b9699a082e6899a45dbe240b92e2c66f458d11e3cfb"),
    (("info", "--m", "2", "--k", "7"),
     "6b2650ea3c92faa1875a896feb62b642666bc664284314e32d2d9d45e5d4ae02"),
    # the default report of all ten checks
    (("verify",),
     "5690db92f2fc9488f3e7c9f387325b57fe256159e0f40bac0623427d3d2d8994"),
)


@pytest.mark.parametrize("argv,digest", PINNED_OUTPUTS)
def test_outputs_are_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _word_documents():
    from mukailat.mukai import MkTriple
    from mukailat.isometries import minus_reflection
    from mukailat.monodromy import (GroupoidWord, Token, tensor_l,
                                    poincare_dual, inverse, poincare,
                                    surface_lift)
    h2 = hyperbolic_sum(3)
    lift = surface_lift(minus_reflection(h2, (1, 1, 0, 0, 0, 0)).compose(
        minus_reflection(h2, (0, 0, 1, 1, 0, 0))).matrix)
    h1, h2 = (1, 2, 0, 0, 0, 0), (2, 6, 0, 0, 0, 0)
    return {
        "propdual": GroupoidWord(MkTriple(2, 3, 2), (
            tensor_l(h1), poincare_dual(), inverse(poincare()),
            tensor_l(h1))).to_json(),
        "mixed": GroupoidWord(MkTriple(3, 5, 3), (
            lift, tensor_l(h2), poincare_dual(), inverse(poincare()),
            tensor_l(h2), Token("congruence"), inverse(lift))).to_json(),
    }


def _characters_documents():
    from mukailat.isometries import reflection, minus_reflection
    perp = direct_sum(hyperbolic_sum(3), rank_one(-6))
    rho = reflection(perp, (1, -1, 0, 0, 0, 0, 0))
    diag = direct_sum(rank_one(2), rank_one(2), rank_one(-2), rank_one(-4))
    swap = ((0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    comp = minus_reflection(perp, (1, 1, 0, 0, 0, 0, 0)).compose(
        minus_reflection(perp, (0, 0, 1, -1, 0, 0, 0)))
    return {
        "reflection": (perp.to_json(), rho.matrix),
        "swap": (diag.to_json(), swap),
        "product": (perp.to_json(), comp.matrix),
    }


# SHA-256 of the stdout of `word` and `characters` on documents written to
# disk, taken before the three characters were spelled in one function
PINNED_DOCUMENT_OUTPUTS = (
    ("word", "propdual", "json",
     "ebc1f29b0e36022a64b5ada8fa36b190f1c3b887199561afbf255abd70cc245f"),
    ("word", "propdual", "text",
     "3e1430afaf3f074ed72e928d28f5e2d2b4de1d718dfc787264543960bde04d9b"),
    ("word", "mixed", "json",
     "ffa8c8ace97df0d43e185f71347a5498ede6ae79e96fd080d212e81f791c41ca"),
    ("word", "mixed", "text",
     "96e21919e08049067bf6d02b3bfed81aefd013a4b238f4fe2e12ecf9ac314508"),
    ("characters", "reflection", "json",
     "f92317c99fbd9f165135d7fed6fcf2643b75eb5927b1c4e8927e0dc9dbb94099"),
    ("characters", "reflection", "text",
     "c065b340bbb9903b3f254b990926075ab4b641b034cd01c17d0ea771925fd569"),
    ("characters", "swap", "json",
     "66f3bed2e7a9597cf2909b2ab45f4b8ec48d8da8eaa033792b21e69d62b02f39"),
    ("characters", "swap", "text",
     "e8e3c0266f6eec2334becdba79608087ee795339802ed40ae1c16f240486cf43"),
    ("characters", "product", "json",
     "0ac5cb05fd11324aecee478c2c2d11b6ec426f33238e9cee3744eb185b54b6a9"),
    ("characters", "product", "text",
     "4f0318c85bf1f6a47d2c6395850b6a10b2ce3dfa9bbedee880890f231de81f7a"),
)


@pytest.mark.parametrize("command,name,fmt,digest", PINNED_DOCUMENT_OUTPUTS)
def test_document_outputs_are_pinned(tmp_path, capsys, command, name, fmt,
                                     digest):
    if command == "word":
        paths = [tmp_path / "word.json"]
        paths[0].write_text(json.dumps(_word_documents()[name]))
    else:
        lat, matrix = _characters_documents()[name]
        paths = [tmp_path / "lat.json", tmp_path / "iso.json"]
        paths[0].write_text(json.dumps(lat))
        paths[1].write_text(json.dumps({"matrix": [list(r) for r in matrix]}))
    code, out, _ = run_cli(capsys, "--format", fmt, command,
                           *(str(p) for p in paths))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "--format", "text", "index", "--k", "3")
    assert code == 0
    assert "index: 2" in out
