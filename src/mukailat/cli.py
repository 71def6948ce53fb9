"""Command-line front end.

Subcommands: info, disc-group, characters, reflect, fm, word, lemsimo,
index, verify.  Exit codes: 0 success (all checks passed or skipped),
1 a computation or check failed, 2 malformed input or usage error.
"""

import argparse
import json
import sys

from .intmat import mat
from .lattices import IntegerLattice, LatticeError
from .isometries import (Isometry, IsometryError, ori_char, det_char,
                         minus_reflection, positive_frame)
from .discriminant import (DiscriminantData, disc_map, index_monodromy,
                           enum_disc_autos, in_W, in_N, NotFound)
from .mukai import MukaiModel, MkTriple, fm_action, v_perp, \
    hodge_ori, epsilon_ori, DecisionDegenerate
from .monodromy import GroupoidWord, certify
from .lemsimo import LemsimoProblem, solve, TargetsNotIntegral
from .verify import VerifyConfig, run_suite, CHECKS


def _dump(obj, args):
    if getattr(args, "format", "json") == "text":
        for k, v in obj.items():
            print("%s: %s" % (k, v))
    else:
        print(json.dumps(obj, sort_keys=True, default=str))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        print("error: cannot read %s: %s" % (path, exc), file=sys.stderr)
        sys.exit(2)


def _bad_input(exc):
    """Report malformed input on one stderr line; exit code 2."""
    print("error: %s" % exc, file=sys.stderr)
    return 2


def _ints(text):
    return tuple(int(x) for x in text.split(","))


def cmd_info(args):
    try:
        model = MukaiModel(args.t)
        triple = MkTriple(args.m, args.k, args.t)
    except ValueError as exc:
        return _bad_input(exc)
    vp = v_perp(model, triple.v)
    data = DiscriminantData(vp)
    _dump({
        "m": args.m, "k": args.k, "t": args.t,
        "mukai_vector": triple.v.to_json(),
        "vperp_signature": list(vp.signature()),
        "vperp_disc_invariants": list(data.invariants),
        "index_over_monodromy": index_monodromy(args.k),
    }, args)
    return 0


def cmd_disc_group(args):
    data = _load_json(args.lattice)
    try:
        lat = IntegerLattice.from_json(data)
    except (LatticeError, KeyError, TypeError) as exc:
        return _bad_input("bad lattice: %s" % exc)
    _dump(DiscriminantData(lat).to_json(), args)
    return 0


def cmd_characters(args):
    lat_json = _load_json(args.lattice)
    iso_json = _load_json(args.isometry)
    try:
        lat = IntegerLattice.from_json(lat_json)
        g = Isometry(lat, lat, mat(iso_json["matrix"]))
    except IsometryError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (KeyError, TypeError, ValueError) as exc:
        return _bad_input("bad document: %r" % (exc,))
    datum = positive_frame(lat)
    data = DiscriminantData(lat)
    d = disc_map(g, data, data)
    sign = d.sign()
    _dump({
        "det": -1 if det_char(g) else 1,
        "ori": ori_char(g, datum),
        "disc": {1: "+id", -1: "-id", None: "other"}[sign],
        "in_W": in_W(g, datum, disc=d),
        "in_N": in_N(g, datum, disc=d),
    }, args)
    return 0


def cmd_reflect(args):
    lat_json = _load_json(args.lattice)
    try:
        lat = IntegerLattice.from_json(lat_json)
        u = _ints(args.u)
    except (KeyError, TypeError, ValueError) as exc:
        return _bad_input(exc)
    try:
        rho = minus_reflection(lat, u)
    except IsometryError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    _dump({"matrix": [list(r) for r in rho.matrix],
           "square": lat.norm(u)}, args)
    return 0


def cmd_fm(args):
    try:
        model = MukaiModel(args.t)
        c = _ints(args.c) if args.c else None
    except ValueError as exc:
        return _bad_input(exc)
    try:
        phi = fm_action(model, args.kind, c)
        out = {"kind": args.kind,
               "matrix": [list(r) for r in phi.matrix],
               "epsilon_ori": epsilon_ori(model, phi)}
        try:
            out["hodge_ori"] = hodge_ori(model, phi)
        except (DecisionDegenerate, ValueError):
            out["hodge_ori"] = None
    except (ValueError, IsometryError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    _dump(out, args)
    return 0


def cmd_word(args):
    doc = _load_json(args.word)
    try:
        word = GroupoidWord.from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        return _bad_input("bad word: %r" % (exc,))
    try:
        cert = certify(word)
    except (KeyError, TypeError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    _dump(cert.to_json(), args)
    return 0


def cmd_lemsimo(args):
    try:
        problem = LemsimoProblem(args.k, _ints(args.xi1), _ints(args.xi2),
                                 bound=args.bound)
    except ValueError as exc:
        return _bad_input(exc)
    try:
        sol = solve(problem)
    except NotFound as nf:
        _dump({"status": "not-found", "stage": nf.stage, "bound": nf.bound},
              args)
        return 1
    except TargetsNotIntegral as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    _dump({"status": "ok",
           "g": [list(r) for r in sol.g.matrix],
           "beta1": list(sol.beta1), "beta2": list(sol.beta2),
           "trace": sol.trace}, args)
    return 0


def cmd_index(args):
    try:
        index = index_monodromy(args.k)
    except ValueError as exc:
        return _bad_input(exc)
    _dump({"k": args.k, "index": index,
           "residues": enum_disc_autos(args.k)}, args)
    return 0


def cmd_verify(args):
    cfg = VerifyConfig(seed=args.seed, bound=args.bound, t=args.t)
    names = set(args.only.split(",")) if args.only else None
    if names:
        known = {n for n, _ in CHECKS}
        bad = names - known
        if bad:
            return _bad_input("unknown checks: %s" % ", ".join(sorted(bad)))
    report = run_suite(cfg, names)
    if args.format == "text":
        for c in report["checks"]:
            print("%-22s %s" % (c["name"], c["status"]))
    else:
        print(json.dumps(report, sort_keys=True, default=str))
    return 1 if any(c["status"] == "fail" for c in report["checks"]) else 0


def build_parser():
    p = argparse.ArgumentParser(prog="mukailat")
    p.add_argument("--format", choices=("json", "text"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("info")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--k", type=int, default=3)
    sp.add_argument("--t", type=int, default=2)
    sp.set_defaults(fn=cmd_info)

    sp = sub.add_parser("disc-group")
    sp.add_argument("lattice")
    sp.set_defaults(fn=cmd_disc_group)

    sp = sub.add_parser("characters")
    sp.add_argument("lattice")
    sp.add_argument("isometry")
    sp.set_defaults(fn=cmd_characters)

    sp = sub.add_parser("reflect")
    sp.add_argument("lattice")
    sp.add_argument("--u", required=True, help="comma-separated coordinates")
    sp.set_defaults(fn=cmd_reflect)

    sp = sub.add_parser("fm")
    sp.add_argument("kind", choices=("tensor", "poincare", "dual",
                                     "poincare_dual", "elliptic"))
    sp.add_argument("--t", type=int, default=2)
    sp.add_argument("--c", default=None, help="tensor class, 6 ints")
    sp.set_defaults(fn=cmd_fm)

    sp = sub.add_parser("word")
    sp.add_argument("word")
    sp.set_defaults(fn=cmd_word)

    sp = sub.add_parser("lemsimo")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--xi1", required=True)
    sp.add_argument("--xi2", required=True)
    sp.add_argument("--bound", type=int, default=10)
    sp.set_defaults(fn=cmd_lemsimo)

    sp = sub.add_parser("index")
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(fn=cmd_index)

    sp = sub.add_parser("verify")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--bound", type=int, default=10)
    sp.add_argument("--t", type=int, default=2)
    sp.add_argument("--only", default=None,
                    help="comma-separated check names")
    sp.set_defaults(fn=cmd_verify)

    return p


def main(argv=None):
    # argparse exits with code 2 on usage errors
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
