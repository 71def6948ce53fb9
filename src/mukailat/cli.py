"""Command-line front end.

Subcommands: info, disc-group, characters, reflect, fm, word, lemsimo,
index, verify.  Exit codes: 0 success (all checks passed or skipped),
1 a condition or check failed on well-formed input, 2 malformed input or
usage error.  Each command reads its arguments and documents inside
`reading()`, and `main` alone turns an exception into an exit code.
"""

import argparse
import json
import sys
from contextlib import contextmanager

from .intmat import int_matrix, json_object, ints
from .lattices import IntegerLattice
from .isometries import Isometry, minus_reflection
from .discriminant import (DiscriminantData, characters, in_W, in_N, NotFound,
                           index_monodromy, enum_disc_autos)
from .mukai import (MukaiModel, MkTriple, FM_ACTIONS, fm_action, hodge_ori,
                   epsilon_ori, DecisionDegenerate)
from .monodromy import GroupoidWord, certify, complement
from .lemsimo import LemsimoProblem, solve
from .verify import VerifyConfig, run_suite, CHECKS


class BadInput(ValueError):
    """Malformed input: exit code 2."""


@contextmanager
def reading():
    """The one boundary where arguments and documents become inputs: a
    KeyError, TypeError or ValueError raised in it is malformed input."""
    try:
        yield
    except KeyError as exc:
        raise BadInput("missing field %s" % exc) from None
    except (TypeError, ValueError) as exc:
        raise BadInput(exc) from None


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
    except (OSError, ValueError, RecursionError) as exc:
        raise BadInput("cannot read %s: %s" % (path, exc)) from None


def _lattice(path):
    return IntegerLattice.from_json(_load_json(path))


def _ints(text, n):
    """A vector of n comma-separated integers."""
    return ints(map(int, text.split(",")), "vector", n)


def cmd_info(args):
    with reading():
        triple = MkTriple(args.m, args.k, args.t)
        index = index_monodromy(args.k)
        vp, data = complement(triple.k)
    _dump({
        "m": args.m, "k": args.k, "t": args.t,
        "mukai_vector": triple.v.to_json(),
        "vperp_signature": list(vp.signature()),
        "vperp_disc_invariants": list(data.invariants),
        "index_over_monodromy": index,
    }, args)
    return 0


def cmd_disc_group(args):
    with reading():
        lat = _lattice(args.lattice)
    _dump(DiscriminantData(lat).to_json(), args)
    return 0


def cmd_characters(args):
    with reading():
        lat = _lattice(args.lattice)
        matrix = int_matrix(json_object(_load_json(args.isometry),
                                        "isometry")["matrix"])
        if len(matrix) != lat.rank or any(len(r) != lat.rank for r in matrix):
            raise BadInput("isometry matrix must be %d x %d"
                           % (lat.rank, lat.rank))
    g = Isometry(lat, lat, matrix)
    chars = characters(g, DiscriminantData(lat))
    _dump(dict(chars, in_W=in_W(chars), in_N=in_N(chars)), args)
    return 0


def cmd_reflect(args):
    with reading():
        lat = _lattice(args.lattice)
        u = _ints(args.u, lat.rank)
    rho = minus_reflection(lat, u)
    _dump({"matrix": [list(r) for r in rho.matrix],
           "square": lat.norm(u)}, args)
    return 0


def cmd_fm(args):
    with reading():
        model = MukaiModel(args.t)
        if (args.kind == "tensor") != (args.c is not None):
            raise BadInput("--c is required for tensor and only for tensor")
        c = None if args.c is None else _ints(args.c, 6)
    phi = fm_action(args.kind, c)
    out = {"kind": args.kind,
           "matrix": [list(r) for r in phi.matrix],
           "epsilon_ori": epsilon_ori(phi)}
    try:
        out["hodge_ori"] = hodge_ori(model, phi)
    except DecisionDegenerate:
        out["hodge_ori"] = None
    _dump(out, args)
    return 0


def cmd_word(args):
    with reading():
        word = GroupoidWord.from_json(_load_json(args.word))
    _dump(certify(word).to_json(), args)
    return 0


def cmd_lemsimo(args):
    with reading():
        problem = LemsimoProblem(args.k, _ints(args.xi1, 6),
                                 _ints(args.xi2, 6), bound=args.bound)
    try:
        sol = solve(problem)
    except NotFound as nf:
        _dump({"status": "not-found", "stage": nf.stage, "bound": nf.bound},
              args)
        return 1
    _dump({"status": "ok",
           "g": [list(r) for r in sol.g.matrix],
           "beta1": list(sol.beta1), "beta2": list(sol.beta2),
           "trace": sol.trace}, args)
    return 0


def cmd_index(args):
    with reading():
        residues = enum_disc_autos(args.k)
    _dump({"k": args.k, "index": index_monodromy(args.k, residues),
           "residues": residues}, args)
    return 0


def cmd_verify(args):
    with reading():
        cfg = VerifyConfig(seed=args.seed, bound=args.bound, t=args.t)
        names = set(args.only.split(",")) if args.only else None
        bad = (names or set()) - {n for n, _ in CHECKS}
        if bad:
            raise BadInput("unknown checks: %s" % ", ".join(sorted(bad)))
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
    sp.add_argument("kind", choices=tuple(FM_ACTIONS))
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
    """Exit code 2 for malformed input (argparse exits 2 on usage errors
    itself), 1 for a condition that fails on well-formed input, such as an
    OverflowError (a search box that would leave int64), and 1 for a
    RuntimeError: an internal invariant that failed (IndexMismatch,
    ExtensionInternalError, a wrong `solve` answer).  Python's limit on the
    digits of an int-str conversion is lifted for the call and restored on
    return, so every integer argument reads and every exact answer prints."""
    limit = sys.get_int_max_str_digits() \
        if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (KeyError, TypeError, ValueError, OverflowError,
            RuntimeError) as exc:
        print("error: %s" % " ".join(str(exc).split()), file=sys.stderr)
        return 2 if isinstance(exc, BadInput) else 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)

if __name__ == "__main__":
    sys.exit(main())
